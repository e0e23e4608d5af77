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
from scipy import ndimage

from .config import read_json, write_json
from .errors import GridMismatch, SupportTouchesBoundary

DEFAULT_TOL_SUPP = 1e-12


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Real values on a regular lattice with spacing h."""

    values: np.ndarray
    spacing: float
    origin: np.ndarray | None = None

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim < 1:
            raise ValueError("grid values must have at least one axis")
        if not np.all(np.isfinite(vals)):
            raise ValueError("grid values must be finite")
        if self.spacing <= 0:
            raise ValueError("spacing must be positive")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        origin = np.zeros(vals.ndim) if self.origin is None else np.asarray(self.origin, dtype=float).reshape(vals.ndim)
        origin.setflags(write=False)
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
    mask = np.ones(shape, dtype=bool)
    interior = tuple(slice(1, -1) for _ in shape)
    if all(s > 2 for s in shape):
        mask[interior] = False
    return mask


def support_mask(f: GridFunction, tol_supp: float = DEFAULT_TOL_SUPP) -> np.ndarray:
    return np.abs(f.values) > tol_supp


def has_compact_support(f: GridFunction, tol_supp: float = DEFAULT_TOL_SUPP) -> bool:
    return not np.any(support_mask(f, tol_supp) & boundary_layer(f.shape))


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
    structure = ndimage.generate_binary_structure(f.dimension, 1)  # faces only
    labels, count = ndimage.label(mask, structure=structure)
    cells = tuple(int(c) for c in np.bincount(labels.ravel())[1:].tolist()) if count else ()
    return SupportClass(mask=mask, labels=labels, component_cells=cells, spacing=f.spacing)


def r_equivalent(f: GridFunction, g: GridFunction, tol_supp: float = DEFAULT_TOL_SUPP) -> bool:
    """True iff the two functions share the same grid and support mask."""
    if not _same_grid(f, g):
        raise GridMismatch("grid functions live on different lattices")
    return bool(np.array_equal(support_mask(f, tol_supp), support_mask(g, tol_supp)))


def region_ring(region: np.ndarray) -> np.ndarray:
    """One-cell face-adjacent ring around a region mask (closure minus
    interior, clipped to the lattice)."""
    structure = ndimage.generate_binary_structure(region.ndim, 1)
    return ndimage.binary_dilation(region, structure=structure) & ~region


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

    cells = []
    clear = []
    for f in frames:
        mask = support_mask(f, tol_supp)
        cells.append(int(np.count_nonzero(mask & region)))
        clear.append(not np.any(np.abs(f.values[ring]) > tol_supp))

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

def make_translated_bump_path(
    steps: int = 6, shape: tuple[int, int] = (16, 16), spacing: float = 0.1
) -> tuple[list[GridFunction], np.ndarray]:
    """A 2x2 bump sliding one cell per step inside a fixed region whose
    ring stays clear: the constant-volume condition holds."""
    frames = []
    for j in range(steps):
        vals = np.zeros(shape)
        vals[4:6, 3 + j : 5 + j] = 1.0
        frames.append(GridFunction(vals, spacing))
    region = np.zeros(shape, dtype=bool)
    region[2:9, 1:14] = True
    return frames, region


def make_growing_bump_path(
    steps: int = 6, grow_at: int = 3, shape: tuple[int, int] = (16, 16), spacing: float = 0.1
) -> tuple[list[GridFunction], np.ndarray, int]:
    """Like the translated bump, but from step `grow_at` the bump gains a
    cell while the ring stays clear, violating volume constancy exactly
    there."""
    frames = []
    for j in range(steps):
        vals = np.zeros(shape)
        vals[4:6, 3:5] = 1.0
        if j >= grow_at:
            vals[6, 3] = 1.0
        frames.append(GridFunction(vals, spacing))
    region = np.zeros(shape, dtype=bool)
    region[2:9, 1:14] = True
    return frames, region, grow_at


# ---------------------------------------------------------------------------
# File formats: text (header + row-major values) and JSON
# ---------------------------------------------------------------------------

def write_grid_text(f: GridFunction, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(" ".join(str(s) for s in f.shape) + "\n")
        fh.write(repr(float(f.spacing)) + "\n")
        fh.write(" ".join(repr(float(x)) for x in f.origin) + "\n")
        for v in f.values.ravel(order="C"):
            fh.write(repr(float(v)) + "\n")


def read_grid_text(path) -> GridFunction:
    with open(path, "r", encoding="utf-8") as fh:
        shape = tuple(int(s) for s in fh.readline().split())
        spacing = float(fh.readline())
        origin = np.asarray([float(x) for x in fh.readline().split()])
        flat = np.asarray([float(line) for line in fh if line.strip()])
    if flat.size != int(np.prod(shape)):
        raise ValueError(f"expected {int(np.prod(shape))} values, got {flat.size}")
    return GridFunction(flat.reshape(shape), spacing, origin)


def grid_to_dict(f: GridFunction) -> dict:
    return {
        "dims": list(f.shape),
        "h": float(f.spacing),
        "origin": f.origin.tolist(),
        "values": f.values.ravel(order="C").tolist(),
    }


def grid_from_dict(obj: dict) -> GridFunction:
    shape = tuple(int(s) for s in obj["dims"])
    vals = np.asarray(obj["values"], dtype=float).reshape(shape)
    return GridFunction(vals, float(obj["h"]), np.asarray(obj["origin"], dtype=float))


def write_grid(f: GridFunction, path) -> None:
    if str(path).endswith(".json"):
        write_json(grid_to_dict(f), path)
    else:
        write_grid_text(f, path)


def read_grid(path) -> GridFunction:
    if str(path).endswith(".json"):
        return grid_from_dict(read_json(path))
    return read_grid_text(path)
