"""Support classes of compactly supported grid functions.

A grid function is a real-valued field sampled on a regular lattice whose
one-cell boundary layer is identically zero (the compact-support
certificate). Two functions are equivalent when their supports coincide;
the support splits into face-adjacent connected components, each with a
volume of cell_count * h^d. Along a discrete path of grid functions, the
constant-volume condition requires the support volume inside a region to
stay constant over every maximal index interval on which the functions
vanish on the region's boundary ring.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import ndimage  # erosion, dilation and label default to face adjacency

from .config import _check_positive, frozen, read_json, write_json
from .errors import GridMismatch, SupportTouchesBoundary

DEFAULT_TOL_SUPP = 1e-12


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Real values on a regular lattice with spacing h."""

    values: np.ndarray
    spacing: float
    origin: np.ndarray | None = None

    def __post_init__(self):
        vals = frozen(self.values)
        if vals.ndim < 1:
            raise ValueError("grid values must have at least one axis")
        origin = frozen(np.zeros(vals.ndim) if self.origin is None else np.reshape(self.origin, vals.ndim))
        if not (np.all(np.isfinite(vals)) and np.all(np.isfinite(origin))):
            raise ValueError("grid values and origin must be finite")
        _check_positive(self.spacing, "spacing")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "origin", origin)

    @property
    def dimension(self) -> int:
        return self.values.ndim

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    def scaled(self, factor: float) -> "GridFunction":
        return GridFunction(self.values * factor, self.spacing, self.origin)


def boundary_layer(shape: tuple[int, ...]) -> np.ndarray:
    """Mask of the outermost one-cell layer of the lattice."""
    return ~ndimage.binary_erosion(np.ones(shape, dtype=bool))


def support_mask(f: GridFunction, tol_supp: float = DEFAULT_TOL_SUPP) -> np.ndarray:
    _check_positive(tol_supp, "tol_supp")
    return np.abs(f.values) > tol_supp


def _same_grid(f: GridFunction, g: GridFunction) -> bool:
    return (
        f.shape == g.shape
        and abs(f.spacing - g.spacing) <= 1e-15 * max(f.spacing, g.spacing)
        and bool(np.allclose(f.origin, g.origin, atol=1e-12))
    )


@dataclass(frozen=True, eq=False)
class SupportClass:
    """Equivalence class of a grid function under support equality.

    `labels` assigns each support cell its face-adjacency component id
    (1-based, scipy labeling); `component_cells` counts cells per
    component, so volumes are component_cells * spacing**d.
    """

    mask: np.ndarray
    labels: np.ndarray
    component_cells: tuple[int, ...]
    spacing: float

    @property
    def num_components(self) -> int:
        return len(self.component_cells)

    @property
    def volumes(self) -> tuple[float, ...]:
        scale = self.spacing ** self.mask.ndim
        return tuple(c * scale for c in self.component_cells)

    @property
    def total_volume(self) -> float:
        return int(np.count_nonzero(self.mask)) * self.spacing ** self.mask.ndim

    def __eq__(self, other) -> bool:
        if not isinstance(other, SupportClass):
            return NotImplemented
        return (
            self.mask.shape == other.mask.shape
            and abs(self.spacing - other.spacing) <= 1e-15 * max(self.spacing, other.spacing)
            and bool(np.array_equal(self.mask, other.mask))
        )


def support_class(f: GridFunction, tol_supp: float = DEFAULT_TOL_SUPP) -> SupportClass:
    """Support mask, face-adjacent components, and per-component volumes.

    Requires the compact-support certificate: the boundary layer must be
    zero within tol_supp.
    """
    mask = support_mask(f, tol_supp)
    if np.any(mask & boundary_layer(f.shape)):
        raise SupportTouchesBoundary("support reaches the boundary layer of the grid")
    labels, _ = ndimage.label(mask)
    cells = tuple(np.bincount(labels.ravel())[1:].tolist())
    return SupportClass(mask=mask, labels=labels, component_cells=cells, spacing=f.spacing)


def r_equivalent(f: GridFunction, g: GridFunction, tol_supp: float = DEFAULT_TOL_SUPP) -> bool:
    """True iff the two functions share the same grid and support mask."""
    if not _same_grid(f, g):
        raise GridMismatch("grid functions live on different lattices")
    return bool(np.array_equal(support_mask(f, tol_supp), support_mask(g, tol_supp)))


def region_ring(region: np.ndarray) -> np.ndarray:
    """One-cell face-adjacent ring around a region mask (closure minus
    interior, clipped to the lattice)."""
    return ndimage.binary_dilation(region) & ~region


@dataclass(frozen=True)
class VolumePathReport:
    """Outcome of the constant-volume check: ok plus the first violating
    path index, with per-frame diagnostics (cell counts inside the region
    and ring-clearance flags)."""

    ok: bool
    violating_step: int | None
    cells_in_region: tuple[int, ...]
    ring_clear: tuple[bool, ...]


def validate_constant_volume_path(
    frames: Sequence[GridFunction],
    region: np.ndarray,
    tol_supp: float = DEFAULT_TOL_SUPP,
) -> VolumePathReport:
    """Check the constant-volume condition along a discrete path.

    Over each maximal run of consecutive frames that vanish on the ring
    region_ring(region), the support volume inside the region must not
    change; frames whose ring is dirty are excluded (the support is
    crossing the region boundary there). Returns the first in-run index
    where the volume deviates from the run's initial value.
    """
    if len(frames) == 0:
        raise ValueError("path must contain at least one frame")
    first = frames[0]
    for f in frames[1:]:
        if not _same_grid(first, f):
            raise GridMismatch("all frames must share one lattice")
    region = np.asarray(region, dtype=bool)
    if region.shape != first.shape:
        raise GridMismatch("region mask shape differs from the frames")
    ring = region_ring(region)

    masks = [support_mask(f, tol_supp) for f in frames]
    cells = [int(np.count_nonzero(mask & region)) for mask in masks]
    clear = [not np.any(mask[ring]) for mask in masks]

    violating: int | None = None
    baseline: int | None = None
    for j, (c, ok) in enumerate(zip(cells, clear)):
        if not ok:
            baseline = None
            continue
        if baseline is None:
            baseline = c
        elif c != baseline:
            violating = j
            break
    return VolumePathReport(
        ok=violating is None,
        violating_step=violating,
        cells_in_region=tuple(cells),
        ring_clear=tuple(clear),
    )


# ---------------------------------------------------------------------------
# Demos
# ---------------------------------------------------------------------------

_BUMP_STEPS = 6
_BUMP_SHAPE = (16, 16)
_BUMP_SPACING = 0.1
_GROW_AT = 3


def make_translated_bump_path() -> tuple[list[GridFunction], np.ndarray]:
    """A 2x2 bump sliding one cell per step inside a fixed region whose
    ring stays clear: the constant-volume condition holds."""
    frames = []
    for j in range(_BUMP_STEPS):
        vals = np.zeros(_BUMP_SHAPE)
        vals[4:6, 3 + j : 5 + j] = 1.0
        frames.append(GridFunction(vals, _BUMP_SPACING))
    region = np.zeros(_BUMP_SHAPE, dtype=bool)
    region[2:9, 1:14] = True
    return frames, region


def make_growing_bump_path() -> tuple[list[GridFunction], np.ndarray, int]:
    """Like the translated bump, but from the returned step on the bump
    gains a cell while the ring stays clear, violating volume constancy
    exactly there."""
    frames = []
    for j in range(_BUMP_STEPS):
        vals = np.zeros(_BUMP_SHAPE)
        vals[4:6, 3:5] = 1.0
        if j >= _GROW_AT:
            vals[6, 3] = 1.0
        frames.append(GridFunction(vals, _BUMP_SPACING))
    region = np.zeros(_BUMP_SHAPE, dtype=bool)
    region[2:9, 1:14] = True
    return frames, region, _GROW_AT


# ---------------------------------------------------------------------------
# File formats: grid_to_dict's fields as JSON, or as text (dims, h and
# origin on a line each, then one row-major value per line)
# ---------------------------------------------------------------------------

def write_grid_text(obj: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(" ".join(str(s) for s in obj["dims"]) + "\n")
        fh.write(repr(obj["h"]) + "\n")
        fh.write(" ".join(repr(x) for x in obj["origin"]) + "\n")
        fh.writelines(repr(v) + "\n" for v in obj["values"])


def read_grid_text(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        dims = [int(s) for s in fh.readline().split()]
        h = float(fh.readline().strip())
        origin = [float(x) for x in fh.readline().split()]
        values = [float(s) for s in map(str.strip, fh) if s]
    return {"dims": dims, "h": h, "origin": origin, "values": values}


def grid_to_dict(f: GridFunction) -> dict:
    return {
        "dims": list(f.shape),
        "h": float(f.spacing),
        "origin": f.origin.tolist(),
        "values": f.values.ravel(order="C").tolist(),
    }


def grid_from_dict(obj: dict) -> GridFunction:
    shape = tuple(int(s) for s in obj["dims"])
    return GridFunction(np.reshape(obj["values"], shape), float(obj["h"]), obj["origin"])


def write_grid(f: GridFunction, path) -> None:
    (write_json if str(path).endswith(".json") else write_grid_text)(grid_to_dict(f), path)


def read_grid(path) -> GridFunction:
    try:
        return grid_from_dict(read_json(path) if str(path).endswith(".json") else read_grid_text(path))
    except (KeyError, TypeError, IndexError, ValueError) as err:
        raise ValueError(f"{path}: {err}") from err
