"""branchspace: branched configuration spaces at desk scale.

Finite point configurations with the Hausdorff metric, charts around
locally finite configurations, branched paths with junction jet checks,
logistic-map equilibrium sections with branch loci, and support classes of
grid functions with the constant-volume condition.
"""

from .config import (
    Configuration,
    DEFAULT_TOL_EQ,
    OrderedConfiguration,
    canonicalize,
    configuration_from_dict,
    configuration_to_dict,
    default_relation,
    empirical_average,
    euclidean,
    symmetrize,
    validate,
)
from .charts import (
    Chart,
    LocallyFiniteConfiguration,
    build_chart,
    chart_apply,
    chart_invert,
    separation,
    separations,
    transition,
    transition_jacobian,
)
from .errors import (
    BranchSpaceError,
    CompatibilityViolation,
    DuplicatePoints,
    EmptyConfiguration,
    EndpointMismatch,
    GridMismatch,
    IndexMismatch,
    InsufficientResolution,
    LengthMismatch,
    NonConstantCardinality,
    NonMonotoneTime,
    NotAJunction,
    NotInDomain,
    NotInOverlap,
    OutOfUnitBall,
    ParameterOutOfRange,
    SingletonConfiguration,
    StratumTooLarge,
    SupportTouchesBoundary,
)
from .hausdorff import (
    DEFAULT_MERGE_TOL,
    GridIndex,
    StratumEvent,
    detect_stratum_events,
    dist_to_set,
    hausdorff_distance,
    hausdorff_distance_indexed,
    two_particle_merge_trajectory,
)
from .logistic import (
    Chaotic,
    PeriodicOrbit,
    bifurcation_points,
    logistic_attractor,
)
from .paths import (
    BranchedPath,
    BranchedPathReport,
    JetMatchResult,
    PathSegment,
    compose,
    jet_match,
    make_split_loop,
    validate_branched,
)
from .sections import (
    BranchLocus,
    BranchedSectionSample,
    Decomposition,
    branched_equilibrium_section,
    decompose_or_witness,
)
from .measure import (
    GridFunction,
    SupportClass,
    r_equivalent,
    support_class,
    validate_constant_volume_path,
)

__version__ = "0.1.0"
