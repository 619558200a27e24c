"""Branch classification, closure records, corner-sum checks, and suites."""

import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from plurikp.cells import corner, facets, flower, qan_point_flower, vertices
from plurikp.dkp import (
    Branch,
    golden_cube_field,
    golden_field,
)
from plurikp.errors import (
    ConfigError,
    InconclusiveBranchError,
    MissingVertexError,
)
from plurikp.verify import (
    SuiteConfig,
    ambo_corner_rank_probe,
    check_euler_lagrange_sum,
    classify_branch,
    corner_vertices,
    cube_freedom_probe,
    run_suite,
    _relation_supports,
    _rng,
)
from plurikp import _batch, config
from plurikp._streams import Streams
from samplers import _random_plain_field, _random_solution

PI2_4 = math.pi**2 / 4.0


def test_classify_golden(black_ambo):
    report = classify_branch(golden_field(black_ambo, Branch.DKP), black_ambo)
    assert report.branch is Branch.DKP
    assert report.max_dev_minus <= 1e-12
    assert report.max_dkp_relative <= 1e-15
    assert len(report.corner_factors) == 10


def test_classify_golden_inverse(black_ambo):
    report = classify_branch(golden_field(black_ambo, Branch.DKP_MINUS), black_ambo)
    assert report.branch is Branch.DKP_MINUS


def test_classify_cube(cube4):
    report = classify_branch(golden_cube_field(cube4), cube4)
    assert report.branch is Branch.DKP
    assert len(report.corner_factors) == 14


def test_classify_random_fields_are_neither(black_ambo, rng):
    for _ in range(100):
        field = _random_plain_field(
            rng, vertices(black_ambo), _relation_supports(black_ambo), 1e-6
        )
        report = classify_branch(field, black_ambo)
        assert report.branch is Branch.NEITHER


def test_branch_exclusivity(black_ambo, rng):
    # No field can satisfy both unit values at once.
    for _ in range(50):
        solution = _random_solution(rng, black_ambo)
        report = classify_branch(solution, black_ambo)
        assert not (
            report.max_dev_minus <= 1e-7 and report.max_dev_plus <= 1e-7
        )
        assert report.branch is Branch.DKP


@pytest.mark.parametrize(
    "cell_name, triples", [("black_ambo", 5), ("white_ambo", 5), ("cube4", 9)]
)
def test_classify_reads_each_triple_once(request, monkeypatch, cell_name, triples):
    # Five supports on an ambo cell; eight on the cube plus the octahedron on
    # its six double-index vertices.
    import plurikp.dkp as dkp_module

    cell = request.getfixturevalue(cell_name)
    field = _random_solution(np.random.default_rng(3), cell)
    reads = []
    original = dkp_module.field_values

    def counting(values, points):
        reads.append(tuple(points))
        return original(values, points)

    monkeypatch.setattr(dkp_module, "field_values", counting)
    report = classify_branch(field, cell)
    assert report.branch is Branch.DKP
    assert len(reads) == len(set(reads)) == triples


def test_classify_gray_zone_raises(black_ambo, rng):
    golden = golden_field(black_ambo, Branch.DKP)
    nudged = {p: v * (1.0 + 1e-6 * float(rng.normal())) for p, v in golden.items()}
    with pytest.raises(InconclusiveBranchError):
        classify_branch(nudged, black_ambo)


def test_el_sum_single_corner_flower(black_ambo, rng):
    vertex = corner_vertices(black_ambo)[3]
    field = _random_plain_field(
        rng, vertices(black_ambo), _relation_supports(black_ambo), config.FD_MARGIN
    )
    record = check_euler_lagrange_sum(facets(black_ambo), vertex, field)
    assert record.observed <= 1e-6
    assert record.passed


def test_el_sum_matches_corner_residual_on_boundary_flower(black_ambo, rng):
    # On the boundary of a single 4-cell the flower is the corner itself.
    from plurikp.cells import flower

    vertex = corner_vertices(black_ambo)[0]
    assert flower(facets(black_ambo), vertex) == corner(black_ambo, vertex)


def test_suite_deterministic():
    cfg = SuiteConfig(lattice="qan", dim=4, trials=5, seed=11)
    first = run_suite(cfg)
    second = run_suite(cfg)
    assert first.records == second.records
    assert first.all_passed


_PROBES = {"info-ambo-corner-rank", "cube-ivp-freedom"}


@pytest.mark.parametrize("lattice", ["qan", "cubic"])
def test_suite_runs_trials_in_chunks_with_unchanged_records(lattice, monkeypatch):
    cfg = SuiteConfig(lattice=lattice, dim=4, trials=12, seed=11)
    whole = run_suite(cfg).records
    calls = []

    def spying(sampler):
        def wrapped(*args, **kwargs):
            streams = next(a for a in args if isinstance(a, Streams))
            calls.append((streams.check_id, len(streams)))
            return sampler(*args, **kwargs)

        return wrapped

    rows = []

    def counting(supports, x):
        rows.append(len(x))
        return margins(supports, x)

    margins = _batch.margins
    monkeypatch.setattr(config, "TRIAL_CHUNK", 5)
    monkeypatch.setattr(_batch, "solutions", spying(_batch.solutions))
    monkeypatch.setattr(_batch, "plain_fields", spying(_batch.plain_fields))
    # Every sampler round ends in margins on all of its candidate rows.
    monkeypatch.setattr(_batch, "margins", counting)
    assert run_suite(cfg).records == whole

    def sizes(group):
        return {n for check_id, n in calls if group(check_id)}

    # The trial loops run 12 trials, el-sum min(12, 8) per case and its
    # extensions as many; each rank probe takes one trial.
    assert sizes(lambda c: c not in _PROBES and not c.startswith("el-sum")) == {5, 2}
    assert sizes(lambda c: c.startswith("el-sum")) == {5, 3}
    assert sizes(lambda c: c in _PROBES) == {1}
    assert rows and max(rows) <= 5


def test_suite_cubic_small():
    cfg = SuiteConfig(lattice="cubic", dim=4, trials=5, seed=11)
    result = run_suite(cfg)
    assert result.all_passed
    ids = [r.check_id for r in result.records]
    assert "cube-ivp-freedom" in ids
    assert "closure-cube-valueset" in ids


def test_suite_zero_tolerance_fails():
    cfg = SuiteConfig(
        lattice="qan", dim=4, trials=2, seed=11,
        tolerances={"gradient": 0.0},
    )
    result = run_suite(cfg)
    assert not result.all_passed
    failed = {r.check_id for r in result.records if not r.passed}
    assert "gradient-bambo4" in failed


def test_suite_dim3_runs_combinatorial_checks_only():
    cfg = SuiteConfig(lattice="qan", dim=3, trials=2, seed=1)
    result = run_suite(cfg)
    assert result.all_passed
    ids = {r.check_id for r in result.records}
    assert "flower-decomposition" in ids
    assert "corner-ambo-black" not in ids


@pytest.mark.parametrize("lattice,dim", [("qan", 5), ("qan", 6), ("cubic", 5)])
def test_suite_is_dimension_generic(lattice, dim):
    result = run_suite(SuiteConfig(lattice=lattice, dim=dim, trials=2, seed=9))
    assert result.all_passed


def test_config_validation():
    with pytest.raises(ConfigError):
        run_suite(SuiteConfig(lattice="hex"))
    with pytest.raises(ConfigError):
        run_suite(SuiteConfig(dim=2))
    with pytest.raises(ConfigError):
        run_suite(SuiteConfig(trials=0))
    with pytest.raises(ConfigError):
        run_suite(SuiteConfig(seed=-1))
    with pytest.raises(ConfigError):
        run_suite(SuiteConfig(tolerances={"nope": 1.0}))
    for bad in (math.inf, math.nan, -1e-9, "abc", None, 10**400):
        with pytest.raises(ConfigError):
            run_suite(SuiteConfig(tolerances={"gradient": bad}))
    for bad in ("x", None, math.inf):
        with pytest.raises(ConfigError):
            run_suite(SuiteConfig(trials=bad))
    with pytest.raises(ConfigError):
        run_suite(SuiteConfig(dim="four"))
    with pytest.raises(ConfigError):
        run_suite(SuiteConfig(tolerances=None))
    with pytest.raises(ConfigError):
        run_suite(SuiteConfig(lattice=["qan"]))


@pytest.mark.parametrize(
    "setting",
    [
        {"seed": 7.5},
        {"seed": 7.0},
        {"seed": True},
        {"seed": np.bool_(True)},
        {"seed": "7"},
        {"trials": 2.5},
        {"trials": "3"},
        {"trials": False},
        {"dim": 4.0},
        {"dim": np.float64(4.0)},
    ],
    ids=repr,
)
def test_config_validation_refuses_inexact_integers(setting):
    # Each of these used to pass validation and then crash mid-suite with a
    # bare TypeError, or run as a different setting (True as seed 1).
    cfg = SuiteConfig(lattice="qan", dim=4, trials=2, seed=3)
    bad = dataclasses.replace(cfg, **setting)
    with pytest.raises(ConfigError, match=next(iter(setting))):
        bad.validate()


@pytest.mark.parametrize("drop", ["center", "other"])
def test_el_sum_refuses_a_field_missing_a_flower_vertex(black_ambo, rng, drop):
    vertex = corner_vertices(black_ambo)[3]
    field = _random_plain_field(
        rng, vertices(black_ambo), _relation_supports(black_ambo), config.FD_MARGIN
    )
    star = flower(facets(black_ambo), vertex)
    star_points = set().union(*map(vertices, star.cells()))
    gone = vertex if drop == "center" else max(star_points - {vertex})
    assert check_euler_lagrange_sum(facets(black_ambo), vertex, field).passed
    del field[gone]
    with pytest.raises(MissingVertexError, match=re.escape(str(gone))):
        check_euler_lagrange_sum(facets(black_ambo), vertex, field)


def test_euler_lagrange_sum_validates_its_config():
    center = (0,) * 5
    star = qan_point_flower(center, range(4))
    field = dict.fromkeys(set().union(*map(vertices, star.cells())), 1.0)
    with pytest.raises(ConfigError, match="seed"):
        check_euler_lagrange_sum(star, center, field, SuiteConfig(seed=7.5))


@pytest.mark.parametrize("bad", [-1, 2.5, "3", True, 2**64])
def test_euler_lagrange_sum_refuses_a_bad_extension_seed(bad):
    center = (0,) * 5
    star = qan_point_flower(center, range(4))
    field = dict.fromkeys(set().union(*map(vertices, star.cells())), 1.0)
    with pytest.raises(ConfigError, match="extension_seed"):
        check_euler_lagrange_sum(star, center, field, extension_seed=bad)


def test_config_validation_accepts_numpy_integers():
    plain = run_suite(SuiteConfig(lattice="cubic", dim=4, trials=3, seed=2**40 + 1))
    wide = SuiteConfig(
        lattice="cubic", dim=np.int8(4), trials=np.uint16(3), seed=np.uint64(2**40 + 1)
    )
    assert run_suite(wide).records == plain.records


def test_record_invariant():
    cfg = SuiteConfig(lattice="qan", dim=4, trials=2, seed=5)
    for record in run_suite(cfg).records:
        assert record.passed == (
            abs(record.observed - record.expected) <= record.tolerance
        )
        assert record.seed == 5
        assert len(record.params_digest) == 12


def test_rank_probes():
    assert ambo_corner_rank_probe(SuiteConfig(lattice="qan")) == 3
    free, solved_rank = cube_freedom_probe(SuiteConfig(lattice="cubic"))
    assert free == 9
    assert solved_rank == 5


@pytest.mark.parametrize("seed", [7, 2024, 2**32 + 5])
@pytest.mark.parametrize(
    "cell_name, check_id, margin",
    [
        ("black_ambo", "info-ambo-corner-rank", 0.01),
        ("cube4", "cube-ivp-freedom", 1e-5),
    ],
)
def test_random_solution_is_trial_zero_of_the_scalar_sampler(
    request, cell_name, check_id, margin, seed
):
    import plurikp.verify as verify_module

    cell = request.getfixturevalue(cell_name)
    cfg = SuiteConfig(seed=seed)
    drawn = verify_module._random_solution(cfg, check_id, cell, margin)
    scalar = _random_solution(_rng(cfg, check_id, 0), cell, margin)
    assert {p: v.hex() for p, v in drawn.items()} == {
        p: v.hex() for p, v in scalar.items()
    }


def test_closure_constant_depends_on_component(black_ambo):
    # Unrestricted draws land on components with either closure value; the
    # golden-component draw always reproduces the reference constant.
    from plurikp.lagrangian import exterior_derivative

    seen = set()
    rng = np.random.default_rng(2)
    for _ in range(60):
        solution = _random_solution(rng, black_ambo, component="any")
        value = exterior_derivative(solution, black_ambo)
        seen.add(round(value / PI2_4))
        assert min(abs(value - PI2_4), abs(value + PI2_4)) <= 1e-9
    assert seen == {-1, 1}
    for _ in range(20):
        solution = _random_solution(rng, black_ambo, component="golden")
        value = exterior_derivative(solution, black_ambo)
        assert value == pytest.approx(-PI2_4, abs=1e-9)


def test_flower_check_counts_library_errors_and_propagates_others(monkeypatch):
    import plurikp.verify as verify_module
    from plurikp.errors import DecompositionError

    def failing(error):
        def decompose(star, vertex):
            raise error("injected")
        return decompose

    cfg = SuiteConfig(lattice="qan", dim=4, trials=1)
    monkeypatch.setattr(verify_module, "decompose_flower", failing(DecompositionError))
    (record,) = verify_module._check_flower_decomposition(cfg)
    assert record.observed > 0 and not record.passed
    monkeypatch.setattr(verify_module, "decompose_flower", failing(TypeError))
    with pytest.raises(TypeError):
        verify_module._check_flower_decomposition(cfg)


_SUITE_RECORDS = json.loads(
    (Path(__file__).parent / "data" / "suite_records.json").read_text()
)


@pytest.mark.parametrize("key", sorted(_SUITE_RECORDS["suites"]))
def test_suite_matches_records_of_the_scalar_trial_loops(key):
    # Ids, order and pass/fail are identical; observed values may move in
    # their last bits, and finite differences amplify that by 1/FD_STEP.
    lattice, seed = key.split("/")
    cfg = SuiteConfig(
        lattice=lattice, dim=_SUITE_RECORDS["dim"], trials=_SUITE_RECORDS["trials"],
        seed=int(seed),
    )
    records = run_suite(cfg).records
    expected = _SUITE_RECORDS["suites"][key]
    assert [r.check_id for r in records] == [e["check_id"] for e in expected]
    assert [r.passed for r in records] == [e["passed"] for e in expected]
    for record, recorded in zip(records, expected):
        differenced = record.check_id.startswith(("gradient-", "el-sum"))
        tolerance = 1e-9 if differenced else 1e-12
        assert abs(record.observed - recorded["observed"]) <= tolerance, record.check_id


_DIM_RECORDS = json.loads(
    (Path(__file__).parent / "data" / "suite_records_dims.json").read_text()
)


@pytest.mark.parametrize("key", sorted(_DIM_RECORDS["suites"]))
def test_suite_matches_records_at_other_dims_exactly(key):
    lattice, dim = key.split("/")
    cfg = SuiteConfig(
        lattice=lattice, dim=int(dim), trials=_DIM_RECORDS["trials"],
        seed=_DIM_RECORDS["seed"],
    )
    observed = [
        {
            "check_id": r.check_id,
            "params_digest": r.params_digest,
            "observed": r.observed.hex(),
            "expected": r.expected.hex(),
            "passed": r.passed,
        }
        for r in run_suite(cfg).records
    ]
    assert observed == _DIM_RECORDS["suites"][key]


@pytest.mark.parametrize("lattice, cases", [("qan", 9), ("cubic", 3)])
def test_el_sum_decomposes_each_case_once(lattice, cases, monkeypatch):
    import plurikp.verify as verify_module

    calls = {"decompose": 0, "gaps": 0, "trials": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def gaps(frame, seed, star, trials):
        calls["trials"] += len(trials)
        return el_sum_gaps(frame, seed, star, trials)

    el_sum_gaps = verify_module._el_sum_gaps
    # Cached facet chains carry their corner frames; start from fresh ones.
    facets.cache_clear()
    monkeypatch.setattr(
        verify_module, "decompose_flower",
        counting("decompose", verify_module.decompose_flower),
    )
    monkeypatch.setattr(verify_module, "_el_sum_gaps", counting("gaps", gaps))
    verify_module._check_el_sum(SuiteConfig(lattice=lattice, dim=4, trials=8, seed=3))
    # One decomposition and one batched call of all eight trials per case.
    assert calls == {"decompose": cases, "gaps": cases, "trials": 8 * cases}


@pytest.mark.parametrize("lattice", ["qan", "cubic"])
def test_el_sum_alone_matches_the_suite_bit_for_bit(lattice, monkeypatch):
    import plurikp.verify as verify_module
    from plurikp.cells import Chain

    frames, seen = {}, []
    corner_frame, el_sum_gaps = verify_module._corner_frame, verify_module._el_sum_gaps

    def framing(manifold, vertex):
        frame = corner_frame(manifold, vertex)
        frames[id(frame)] = (manifold, vertex)
        return frame

    def recording(frame, seed, star, trials):
        gaps = el_sum_gaps(frame, seed, star, trials)
        manifold, vertex = frames[id(frame)]
        for row, trial, gap in zip(star.tolist(), trials, gaps):
            field = dict(zip(frame.points, row))
            seen.append((manifold, vertex, field, trial, gap))
        return gaps

    monkeypatch.setattr(verify_module, "_corner_frame", framing)
    monkeypatch.setattr(verify_module, "_el_sum_gaps", recording)
    cfg = SuiteConfig(lattice=lattice, dim=4, trials=8, seed=2024)
    records = {r.check_id: r for r in verify_module._check_el_sum(cfg)}
    assert len(seen) == 8 * (9 if lattice == "qan" else 3)
    monkeypatch.undo()
    by_manifold: dict[int, list[float]] = {}
    for manifold, vertex, field, trial, inside in seen:
        # A copy of the manifold has no corner frame yet: the work is redone.
        alone = check_euler_lagrange_sum(
            Chain(manifold.items()), vertex, field, cfg, extension_seed=trial
        )
        assert alone.observed.hex() == inside.hex()
        by_manifold.setdefault(id(manifold), []).append(inside)
    # One manifold per check id: a 4-cell boundary (two centers) or the star.
    assert sorted(r.observed for r in records.values()) == sorted(
        max(values) for values in by_manifold.values()
    )
