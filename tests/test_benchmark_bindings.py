"""Every package name the benchmark harness relies on still resolves.

perfbench/tracer.py wraps package functions by module and name, and
perfbench/workloads.py imports names from plurikp and expects traced
bindings by name.  A name removed or renamed in the package would otherwise
only show when a traced benchmark run breaks, so these tests resolve each
one the way the harness does.  The harness modules are found through
sys.path, as perfbench's own tests find them.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import tracer  # noqa: E402


def _package_module(short: str):
    return importlib.import_module("plurikp" if short == "plurikp" else f"plurikp.{short}")


def _resolves(key: str) -> bool:
    """Whether "module.name" (name possibly dotted) resolves as the tracer
    resolves it."""
    short, name = key.split(".", 1)
    try:
        owner, attr = tracer._resolve(_package_module(short), name)
        return callable(getattr(owner, attr))
    except AttributeError:
        return False


_TRACED = sorted(
    [f"{short}.{name}" for short, names in tracer.SPANNED.items() for name in names]
    + list(tracer.COUNTED)
)


def _workload_imports() -> list[tuple[str, str]]:
    # Read, not imported: a missing name then fails one test, not collection.
    source = Path(importlib.util.find_spec("workloads").origin).read_text()
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("plurikp"):
            names.update((node.module, alias.name) for alias in node.names)
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "plurikp"
        ):
            names.add(("plurikp", node.attr))
    return sorted(names)


_WORKLOAD_NAMES = _workload_imports()


@pytest.mark.parametrize("key", _TRACED)
def test_traced_name_resolves(key):
    assert _resolves(key)


@pytest.mark.parametrize(
    "module, name", _WORKLOAD_NAMES, ids=[f"{m}:{n}" for m, n in _WORKLOAD_NAMES]
)
def test_workload_import_resolves(module, name):
    owner = importlib.import_module(module)
    if not hasattr(owner, name):
        # `from package import name` also finds a submodule.
        importlib.import_module(f"{module}.{name}")


def test_expected_bindings_resolve():
    workloads = importlib.import_module("workloads")
    keys = {key for keys in workloads.EXPECTED_BINDINGS.values() for key in keys}
    assert sorted(key for key in keys if not _resolves(key)) == []


@pytest.mark.parametrize("lattice", ["qan", "cubic"])
def test_suite_ids_match_the_benchmark_gate(lattice):
    # The verify workloads gate each run on these ids in this order.
    from plurikp.verify import SuiteConfig, run_suite

    workloads = importlib.import_module("workloads")
    result = run_suite(SuiteConfig(lattice=lattice, dim=4, trials=1, seed=7))
    ids = tuple(record.check_id for record in result.records)
    assert ids == workloads.EXPECTED_CHECKS[lattice]
