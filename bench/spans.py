"""Spans around the public functions of branchspace's modules.

A Tracer replaces each traced function by a wrapper that records one span
(name, start, end, parent, counts) per call. The wrapper is bound
wherever the function is: `cli.py`, `paths.py` and `sections.py` import
names directly, so every attribute of every loaded branchspace module
that holds the function is replaced, and put back by uninstall(). Spans
stay in memory until the caller writes them.

The package attribute `branchspace.logistic` is the function `logistic`,
which hides the submodule, so modules are always taken from sys.modules.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter


def _npoints(x) -> int:
    pts = getattr(x, "points", x)
    return len(pts)


def _samples(bp) -> int:
    return sum(g.values.shape[0] for stage in bp.stages for g in stage)


def _attractor_name(result) -> str:
    return "logistic.periodic" if hasattr(result, "period") else "logistic.chaotic"


# (module, attribute or Class.method, span name or name-of-result, counts)
TARGETS = (
    ("branchspace.config", "Configuration.__post_init__", "config.construct",
     lambda a, k, r: {"points": _npoints(a[0])}),
    ("branchspace.config", "configuration_from_dict", "config.load", None),
    ("branchspace.hausdorff", "hausdorff_distance", "hausdorff.scan",
     lambda a, k, r: {"points": _npoints(a[0]) + _npoints(a[1])}),
    ("branchspace.hausdorff", "GridIndex.__init__", "hausdorff.index_build",
     lambda a, k, r: {"points": _npoints(a[0])}),
    ("branchspace.hausdorff", "hausdorff_distance_indexed", "hausdorff.indexed",
     lambda a, k, r: {"points": _npoints(a[0]) + _npoints(a[1])}),
    ("branchspace.hausdorff", "detect_stratum_events", "hausdorff.events",
     lambda a, k, r: {"frames": len(a[0])}),
    ("branchspace.charts", "build_chart", "charts.build", lambda a, k, r: {"points": len(a[0])}),
    ("branchspace.charts", "chart_apply", "charts.apply", lambda a, k, r: {"points": len(a[0])}),
    ("branchspace.charts", "chart_invert", "charts.invert", lambda a, k, r: {"points": len(a[0])}),
    ("branchspace.paths", "validate_branched", "paths.validate",
     lambda a, k, r: {"samples": _samples(a[0])}),
    ("branchspace.paths", "jet_match", "paths.jet", None),
    ("branchspace.logistic", "logistic_attractor", _attractor_name, None),
    ("branchspace.logistic", "bifurcation_points", "logistic.bifurcation_points", None),
    ("branchspace.sections", "bifurcation_rows", "sections.rows", None),
    ("branchspace.sections", "branched_equilibrium_section", "sections.section",
     lambda a, k, r: {"loci": len(r[1])}),
    ("branchspace.sections", "decompose_or_witness", "sections.decompose", None),
    ("branchspace.measure", "read_grid", "measure.read", None),
    ("branchspace.measure", "validate_constant_volume_path", "measure.validate",
     lambda a, k, r: {"frames": len(a[0])}),
)


class Tracer:
    def __init__(self):
        # each span: [name, start, end, parent index or -1, counts or None]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, counts=None):
        """fn with a span per call; `name` may be a function of the result."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, None]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            if callable(name):
                span[0] = name(result)
            if counts is not None:
                span[4] = counts(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "branchspace" or n.startswith("branchspace.")]
        for modname, attr, name, counts in TARGETS:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._set(cls, meth, self.wrap(name, orig, counts), orig)
                continue
            orig = getattr(owner, attr)
            traced = self.wrap(name, orig, counts)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._set(mod, key, traced, orig)

    def _set(self, owner, key, value, orig) -> None:
        setattr(owner, key, value)
        self._undo.append((owner, key, orig))

    def uninstall(self) -> None:
        while self._undo:
            owner, key, orig = self._undo.pop()
            setattr(owner, key, orig)

    def write(self, path, **extra) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dict(extra, spans=self.spans), fh)


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own
