"""Batched trial kernels against the scalar functions they mirror."""

import numpy as np
import pytest

from plurikp import _batch, config
from plurikp.cells import CellKind, OrientedCell, facets, vertices
from plurikp.dkp import (
    Branch,
    ambo_ivp_points,
    cube_ivp_points,
    golden_field,
    invert_field,
    monomial_sign_pattern,
    nonsingularity_margin,
    solve_ambo_ivp,
    solve_cube_ivp,
    system_on_4cell,
)
from plurikp.errors import InconclusiveBranchError, SingularFieldError
from plurikp.lagrangian import corner_residual, exterior_derivative
from plurikp.verify import (
    _fd_action,
    _nonzero_draws,
    _random_plain_field,
    _random_solution,
    _relation_supports,
    classify_branch,
    corner_vertices,
)

TRIALS = 30
_SHIFTED_QAN = (1, -2, 0, 3, 0, 1, 2)
_SHIFTED_CUBIC = (1, -1, 2, 0, 3, 0)
_CELLS = [
    OrientedCell(kind, base, indices, sign)
    for kind, base, indices in [
        (CellKind.BLACK_AMBO4, (0,) * 5, (0, 1, 2, 3, 4)),
        (CellKind.WHITE_AMBO4, (0,) * 5, (0, 1, 2, 3, 4)),
        (CellKind.CUBE4, (0,) * 4, (0, 1, 2, 3)),
        (CellKind.BLACK_AMBO4, _SHIFTED_QAN, (0, 2, 3, 5, 6)),
        (CellKind.WHITE_AMBO4, _SHIFTED_QAN, (0, 2, 3, 5, 6)),
        (CellKind.CUBE4, _SHIFTED_CUBIC, (0, 2, 4, 5)),
    ]
    for sign in (1, -1)
]
_IDS = [f"{'-' if c.sign < 0 else '+'}{c.kind.value}@{c.base}" for c in _CELLS]
_CODES = {
    Branch.DKP: _batch.DKP,
    Branch.DKP_MINUS: _batch.DKP_MINUS,
    Branch.NEITHER: _batch.NEITHER,
}


def _rngs(seed, count=TRIALS):
    return [np.random.default_rng([seed, t]) for t in range(count)]


def _as_field(tab, row):
    return {p: float(v) for p, v in zip(tab.points, row) if not np.isnan(v)}


def _samples(cell):
    """Seeded golden and free solutions, their inverses and plain fields."""
    tab = _batch.tables(cell)
    golden = _batch.solutions(tab, _rngs(1), 1e-5, "golden")
    free = _batch.solutions(tab, _rngs(2), 1e-5, "any")
    plain = _batch.plain_fields(tab, _rngs(3), config.FD_MARGIN)
    loose = _batch.plain_fields(tab, _rngs(4), config.DRAW_FLOOR)
    return tab, [golden, 1.0 / golden, free, plain, loose]


@pytest.mark.parametrize("cell", _CELLS, ids=_IDS)
def test_draws_match_scalar_samplers_bit_for_bit(cell):
    tab, (golden, _, free, plain, loose) = _samples(cell)
    points = vertices(cell)
    supports = _relation_supports(cell)
    for t, (g, f, p, q) in enumerate(zip(_rngs(1), _rngs(2), _rngs(3), _rngs(4))):
        assert _as_field(tab, golden[t]) == _random_solution(
            g, cell, component="golden"
        )
        assert _as_field(tab, free[t]) == _random_solution(f, cell, component="any")
        assert _as_field(tab, plain[t]) == _random_plain_field(
            p, points, supports, config.FD_MARGIN
        )
        assert _as_field(tab, loose[t]) == _random_plain_field(
            q, points, supports, config.DRAW_FLOOR
        )


def test_golden_then_free_draws_share_each_trial_generator():
    cell = _CELLS[0]
    tab = _batch.tables(cell)
    rngs = _rngs(5)
    golden = _batch.solutions(tab, rngs, 1e-5, "golden")
    free = _batch.solutions(tab, rngs, 1e-5, "any")
    for t, rng in enumerate(_rngs(5)):
        assert _as_field(tab, golden[t]) == _random_solution(
            rng, cell, component="golden"
        )
        assert _as_field(tab, free[t]) == _random_solution(rng, cell, component="any")


@pytest.mark.parametrize("solver_rel", [config.TOLERANCES["solver_rel"], 1e-16])
@pytest.mark.parametrize("cell", _CELLS, ids=_IDS)
def test_completion_matches_solver_bit_for_bit(cell, solver_rel, monkeypatch):
    # A near-zero solver_rel makes the completion self-check reject too.
    monkeypatch.setitem(config.TOLERANCES, "solver_rel", solver_rel)
    tab = _batch.tables(cell)
    if cell.kind is CellKind.CUBE4:
        required, solve = cube_ivp_points(cell)[0], solve_cube_ivp
    else:
        required, solve = ambo_ivp_points(cell)[0], solve_ambo_ivp
    rng = np.random.default_rng(6)
    data = rng.choice([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0], size=(300, len(required)))
    # Exact values make many completions singular; perturbed ones few.
    perturbed = rng.integers(0, 2, size=data.shape)
    data *= rng.uniform(0.999, 1.001, size=data.shape) ** perturbed
    data[0, 0] = 0.0
    data[1, -1] = np.nan
    x = np.full((len(data), len(tab.points)), np.nan)
    x[:, tab.required] = data
    ok = _batch.complete(tab, x)
    outcomes = set()
    for t, row in enumerate(data):
        try:
            expected = solve(cell, dict(zip(required, row.tolist())))
        except SingularFieldError:
            assert not ok[t], t
            outcomes.add("singular")
            continue
        assert ok[t], t
        assert _as_field(tab, x[t]) == expected
        outcomes.add("solved")
    assert outcomes == {"singular", "solved"}


@pytest.mark.parametrize("cell", _CELLS, ids=_IDS)
def test_margins_patterns_and_reports_match_bit_for_bit(cell):
    tab, fields = _samples(cell)
    supports = system_on_4cell(cell)
    for x in fields:
        margins = _batch.margins(tab, x)
        patterns = _batch.sign_patterns(tab, x)
        _, factors = _batch.corner_products(tab, x)
        report = _batch.classify(tab, x, allow_gray=True)
        for t, row in enumerate(x):
            field = _as_field(tab, row)
            assert margins[t] == nonsingularity_margin(field, supports)
            assert tuple(map(tuple, patterns[t].tolist())) == monomial_sign_pattern(
                field, cell
            )
            try:
                scalar = classify_branch(field, cell)
            except InconclusiveBranchError:
                assert report.branch[t] == _batch.GRAY
                continue
            flat = [f for fs in scalar.corner_factors.values() for f in fs]
            assert factors[t].tolist() == flat
            assert report.branch[t] == _CODES[scalar.branch]
            assert report.max_dev_minus[t] == scalar.max_dev_minus
            assert report.max_dev_plus[t] == scalar.max_dev_plus
            assert report.max_dkp_relative[t] == scalar.max_dkp_relative
            assert report.max_dkp_minus_relative[t] == scalar.max_dkp_minus_relative


@pytest.mark.parametrize("cell", _CELLS, ids=_IDS)
def test_three_form_residuals_and_differences_match(cell):
    tab, fields = _samples(cell)
    chain = facets(cell)
    corners = corner_vertices(cell)
    for x in fields[:4]:
        action = _batch.exterior_derivative(tab, x)
        residuals = _batch.corner_residuals(tab, x)
        for t, row in enumerate(x):
            field = _as_field(tab, row)
            assert abs(action[t] - exterior_derivative(field, cell)) <= 1e-14
            for c, vertex in enumerate(corners):
                ref = corner_residual(field, cell, vertex)
                assert abs(residuals[t, c] - ref) <= 1e-14 * max(1.0, abs(ref))
    plain = fields[3]
    numeric = _batch.fd_actions(tab, plain)
    for t, row in enumerate(plain):
        field = _as_field(tab, row)
        for c, vertex in enumerate(corners):
            assert abs(numeric[t, c] - _fd_action(field, chain, vertex)) <= 1e-9


@pytest.mark.parametrize("cell", _CELLS[:6], ids=_IDS[:6])
def test_singular_fields_raise_as_the_scalar_path_does(cell):
    tab, fields = _samples(cell)
    x = fields[3][:4].copy()
    vertex = corner_vertices(cell)[0]
    x[2, tab.points.index(vertex)] = 0.0
    field = _as_field(tab, x[2])
    for scalar in (
        lambda: exterior_derivative(field, cell),
        lambda: classify_branch(field, cell),
        lambda: corner_residual(field, cell, vertex),
    ):
        with pytest.raises(SingularFieldError):
            scalar()
    for batched in (
        _batch.exterior_derivative,
        _batch.classify,
        _batch.corner_residuals,
        _batch.fd_actions,
    ):
        with pytest.raises(SingularFieldError):
            batched(tab, x)


def test_gray_zone_raises_unless_allowed(black_ambo, rng):
    tab = _batch.tables(black_ambo)
    golden = golden_field(black_ambo, Branch.DKP)
    nudged = {p: v * (1.0 + 1e-6 * float(rng.normal())) for p, v in golden.items()}
    x = np.array([[nudged[p] for p in tab.points], [golden[p] for p in tab.points]])
    with pytest.raises(InconclusiveBranchError):
        classify_branch(nudged, black_ambo)
    with pytest.raises(InconclusiveBranchError):
        _batch.classify(tab, x)
    report = _batch.classify(tab, x, allow_gray=True)
    assert report.branch.tolist() == [_batch.GRAY, _batch.DKP]
    inverse = invert_field(golden)
    assert _batch.classify(tab, 1.0 / x[1:]).branch.tolist() == [
        _CODES[classify_branch(inverse, black_ambo).branch]
    ]


def test_exhausted_redraws_raise_singular_field_error(black_ambo, monkeypatch):
    monkeypatch.setattr(config, "MAX_REDRAWS", 4)
    tab = _batch.tables(black_ambo)
    with pytest.raises(SingularFieldError):
        _batch.plain_fields(tab, _rngs(7, 3), 1.0)
    with pytest.raises(SingularFieldError):
        _batch.solutions(tab, _rngs(7, 3), 1.0, "any")
    with pytest.raises(SingularFieldError):
        _random_plain_field(
            np.random.default_rng(7), vertices(black_ambo),
            system_on_4cell(black_ambo), 1.0,
        )


class _ScriptedUniform:
    """A generator stand-in whose uniform draws come from a fixed list."""

    def __init__(self, values):
        self.values = list(values)

    def uniform(self, low, high, size=None):
        if size is None:
            return self.values.pop(0)
        taken, self.values = self.values[:size], self.values[size:]
        return np.array(taken)


def test_nonzero_draws_keep_the_one_at_a_time_sequence():
    stream = [3.0, 1e-12, -2.0, 0.0, 5.0, -1e-10, 7.0, 1e-9, -4.0, 6.0]
    scalar, source = [], _ScriptedUniform(stream)
    while len(scalar) < 6:
        z = float(source.uniform(-50.0, 50.0))
        if abs(z) < 1e-9:
            continue
        scalar.append(z)
    batched = _nonzero_draws(_ScriptedUniform(stream), 6)
    assert batched.tolist() == scalar == [3.0, -2.0, 5.0, 7.0, 1e-9, -4.0]
