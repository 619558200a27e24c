"""Tests of the benchmark's own logic.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import plurikp  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    # a [0, 10] holds b [1, 4] and c [5, 9]; c holds d [6, 7].
    start = [0.0, 1.0, 5.0, 6.0]
    end = [10.0, 4.0, 9.0, 7.0]
    parent = [-1, 0, 0, 2]
    assert list(tracer.self_times(start, end, parent)) == [3.0, 3.0, 3.0, 1.0]


def test_tracer_records_nested_spans_per_binding_and_restores():
    original = plurikp.boundary
    cell = plurikp.OrientedCell(plurikp.CellKind.CUBE4, (0, 0, 0, 0), (0, 1, 2, 3))
    t = tracer.Tracer()
    t.install()
    try:
        assert plurikp.boundary is not original
        assert not plurikp.boundary(plurikp.facets(cell))
    finally:
        t.uninstall()
    assert plurikp.boundary is original
    calls = t.binding_calls()
    assert calls["plurikp.boundary"] == 1
    assert calls["plurikp.facets"] == 1
    assert calls["cells.facets"] == 8  # one per 3D cube, called inside boundary
    totals = t.function_totals()
    assert totals["cells.facets"][0] == 9
    assert t.counts["cells.OrientedCell.created"] > 0
    spans = list(zip(t.binding, t.parent))
    boundary_id = t.binding_keys.index("plurikp.boundary")
    boundary_span = next(i for i, (b, _) in enumerate(spans) if b == boundary_id)
    children = [i for i, (_, p) in enumerate(spans) if p == boundary_span]
    assert len(children) == 8
    own = tracer.self_times(t.start, t.end, t.parent)
    assert all(s >= 0.0 for s in own)


def test_sanity_check_flags_uncalled_and_unexpected_bindings():
    calls = {"cli.main": 3, "verify.corner_residual": 0}
    totals = {"dilog.re_dilog": (5, 0.1), "cells.facets": (2, 0.1)}
    failures = tracer.sanity_failures(
        calls, totals, ("cli.main", "verify.corner_residual", "lagrangian.nope"), ("dilog",)
    )
    assert failures == [
        "verify.corner_residual: never called",
        "lagrangian.nope: no such traced binding",
        "dilog.re_dilog: 5 calls where none are expected",
    ]


def test_expected_bindings_are_all_wrapped():
    t = tracer.Tracer()
    t.install()
    t.uninstall()
    for name, keys in workloads.EXPECTED_BINDINGS.items():
        missing = set(keys) - set(t.binding_keys)
        assert not missing, (name, missing)


@pytest.mark.parametrize(
    "n, percentile, rank",
    [(100, 90.0, 90), (99, 50.0, 50), (1000, 99.0, 990), (20000, 99.9, 19980), (20, 50.0, 10)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, percentile, rank):
    samples = [float(i) for i in range(n, 0, -1)]
    p, value = run.tail_percentile(samples)
    assert p == percentile
    assert value == float(rank)
    assert sum(s > value for s in samples) >= 10


def test_tail_percentile_without_ten_beyond_is_the_maximum():
    assert run.tail_percentile([3.0, 1.0, 2.0]) == (None, 3.0)
    assert run.tail_percentile([float(i) for i in range(19)]) == (None, 18.0)


def _input_bytes(name, seed, workdir):
    workdir.mkdir(parents=True)
    inputs = workloads.make(name, str(workdir)).inputs(seed, 3)
    files = sorted(p.name for p in workdir.iterdir())
    blob = json.dumps(inputs, sort_keys=True, default=str).replace(str(workdir), "")
    return blob.encode() + b"".join((workdir / f).read_bytes() for f in files)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(name, tmp_path):
    first = _input_bytes(name, 7, tmp_path / "a")
    assert first == _input_bytes(name, 7, tmp_path / "b")
    assert first != _input_bytes(name, 8, tmp_path / "c")


def test_chain_items_pass_and_a_corrupted_round_trip_fails():
    import random

    rng = random.Random(5)
    specs = [workloads.chain_spec(rng, *shape) for shape in workloads.CHAIN_SHAPES]
    for spec in specs:
        out = workloads.chain_item(spec)
        assert workloads.chain_failures(spec, out) == []
    out["parsed"] = out["parsed"] + out["parsed"]
    assert workloads.chain_failures(spec, out) == [
        "format_chain/parse_chain round trip differs"
    ]


def test_solve_items_pass_and_a_wrong_branch_fails(tmp_path):
    work = workloads.make("solve-stream", str(tmp_path))
    inputs = work.inputs(3, 0)[:12]
    result = work.run(inputs)
    attempted, failures = work.gate(inputs, result.outputs)
    assert (attempted, failures) == (12, [])
    spec = dict(inputs[0], branch="dkp" if inputs[0]["branch"] == "dkp-minus" else "dkp-minus")
    assert workloads.solve_failures(spec, result.outputs[0])


def test_metric_names_match_benchmark_json():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in declared["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)
