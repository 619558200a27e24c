"""Branch classification, closure records, corner-sum checks, and suites."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from plurikp.cells import corner, facets, vertices
from plurikp.dkp import (
    Branch,
    golden_cube_field,
    golden_field,
)
from plurikp.errors import (
    BranchError,
    ConfigError,
    InconclusiveBranchError,
)
from plurikp.verify import (
    SuiteConfig,
    ambo_corner_rank_probe,
    check_closure,
    check_euler_lagrange_sum,
    classify_branch,
    corner_vertices,
    cube_freedom_probe,
    run_suite,
    _random_plain_field,
    _random_solution,
    _relation_supports,
    _rng,
)
from plurikp import _batch, config

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


def test_check_closure_golden(black_ambo):
    record = check_closure(golden_field(black_ambo, Branch.DKP), black_ambo)
    assert record.passed
    assert record.expected == pytest.approx(-PI2_4)
    record = check_closure(golden_field(black_ambo, Branch.DKP_MINUS), black_ambo)
    assert record.expected == pytest.approx(PI2_4)


def test_check_closure_cube_expects_zero(cube4):
    record = check_closure(golden_cube_field(cube4), cube4)
    assert record.passed
    assert record.expected == 0.0


def test_check_closure_rejects_neither(black_ambo, rng):
    field = _random_plain_field(
        rng, vertices(black_ambo), _relation_supports(black_ambo), 1e-6
    )
    with pytest.raises(BranchError):
        check_closure(field, black_ambo)


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


@pytest.mark.parametrize("lattice", ["qan", "cubic"])
def test_suite_runs_trials_in_chunks_with_unchanged_records(lattice, monkeypatch):
    cfg = SuiteConfig(lattice=lattice, dim=4, trials=12, seed=11)
    whole = run_suite(cfg).records
    sizes = []

    def spying(sampler):
        def wrapped(tab, rngs, *args):
            sizes.append(len(rngs))
            return sampler(tab, rngs, *args)

        return wrapped

    monkeypatch.setattr(config, "TRIAL_CHUNK", 5)
    monkeypatch.setattr(_batch, "solutions", spying(_batch.solutions))
    monkeypatch.setattr(_batch, "plain_fields", spying(_batch.plain_fields))
    assert run_suite(cfg).records == whole
    assert sizes and set(sizes) == {5, 2}


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
