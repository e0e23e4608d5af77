"""The benchmark tracer (bench/spans.py) patches library functions by
module and attribute name; each of its targets must still resolve, or the
traced benchmark runs break without a failing library test."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def tracer_targets():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(module, attr) for module, attr, _, _ in spans.TARGETS]


@pytest.mark.parametrize("module, attr", tracer_targets(), ids=lambda x: x)
def test_tracer_target_resolves(module, attr):
    # the package attribute `branchspace.logistic` is a function, so the
    # module comes from the import system, as the tracer takes it from sys.modules
    owner = importlib.import_module(module)
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert callable(getattr(owner, cls_name).__dict__[meth])
    else:
        assert callable(getattr(owner, attr))
