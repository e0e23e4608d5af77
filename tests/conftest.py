import numpy as np
import pytest
from hypothesis import settings
from hypothesis.errors import InvalidArgument

from branchspace import BranchedPath, Configuration, PathSegment

# `--hypothesis-profile=ci` (the CI tier-1 step): a failing property prints
# its @reproduce_failure blob. Where Hypothesis has a "ci" profile of its
# own, its other settings are kept.
try:
    _ci = settings.get_profile("ci")
except InvalidArgument:
    _ci = None
settings.register_profile("ci", parent=_ci, print_blob=True)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def random_configuration(rng, n: int, dim: int, scale: float = 10.0) -> Configuration:
    """Random configuration with a controlled minimum separation: points
    on a jittered lattice, so tolerance-sensitive checks stay meaningful."""
    side = int(np.ceil(n ** (1.0 / dim)))
    cells = np.stack(np.meshgrid(*[np.arange(side)] * dim, indexing="ij"), axis=-1).reshape(-1, dim)
    take = rng.permutation(cells.shape[0])[:n]
    spacing = scale / side
    pts = cells[take] * spacing + rng.uniform(0.2, 0.8, size=(n, dim)) * spacing
    return Configuration(pts)


def revisit_path(m=64):
    """A -> B, B -> C, C -> B, B -> A with A = (0, 0), B = (1, 0), C = (1, 1):
    B is the junction of boundaries 0 and 2. At boundary 0 the x speeds
    match (1 in, 1 out); at boundary 2 they do not (0 in, -1 out)."""
    return BranchedPath([
        [PathSegment.from_function(lambda t: (t, 0.0), m)],
        [PathSegment.from_function(lambda t: (1.0 + t * (1.0 - t), t), m)],
        [PathSegment.from_function(lambda t: (1.0, 1.0 - t), m)],
        [PathSegment.from_function(lambda t: (1.0 - t, 0.0), m)],
    ])
