"""The benchmark tracer (bench/spans.py) patches library functions by
module and attribute name, and the workloads (bench/*.py) call package
attributes through the package bound as `bs`; each of these names must
still resolve, or the benchmark runs break without a failing library test."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import branchspace

BENCH = Path(__file__).resolve().parents[1] / "bench"
SPANS = BENCH / "spans.py"


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


def package_chains():
    """Every attribute chain `bs.<name>[.<name>...]` in the code of bench/*.py."""
    chains = set()
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = []
            while isinstance(node, ast.Attribute):
                names.append(node.attr)
                node = node.value
            if names and isinstance(node, ast.Name) and node.id == "bs":
                chains.add(".".join(reversed(names)))
    return sorted(chains)


@pytest.mark.parametrize("chain", package_chains())
def test_benchmark_package_attribute_resolves(chain):
    owner = branchspace
    for name in chain.split("."):
        owner = getattr(owner, name)
