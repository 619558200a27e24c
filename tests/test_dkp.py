"""Relation residuals, system generation, solvers, and constant solutions."""

import itertools
import math
import os
import tempfile
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plurikp import config
from plurikp.cells import LATTICES, CellKind, OrientedCell, vertices
from plurikp.dilog import GOLDEN_A
from plurikp.dkp import (
    RELATION_CELLS,
    Branch,
    _solve_slot,
    dkp_minus_residual_relative,
    dkp_residual,
    dkp_residual_relative,
    golden_field,
    invert_field,
    ivp_points,
    monomial_sign_pattern,
    nonsingularity_margin,
    read_field_file,
    six_points,
    solve_ambo_ivp,
    solve_cube_ivp,
    system_on_4cell,
    write_field_file,
    write_json,
)
from plurikp.errors import (
    BranchError,
    CellError,
    FormatError,
    InitialDataError,
    MissingVertexError,
    SingularFieldError,
)

Z5 = (0, 0, 0, 0, 0)
A = GOLDEN_A


def oct_cell(base=Z5, idx=(0, 1, 2, 3), sign=1):
    return OrientedCell(CellKind.OCTAHEDRON, base, idx, sign)


def field_on(cell, values):
    return dict(zip(six_points(cell), values))


nonzero = st.floats(min_value=0.5, max_value=2.0).flatmap(
    lambda m: st.sampled_from((m, -m))
)


# --- residuals -----------------------------------------------------------------


def test_residual_all_ones_is_one():
    assert dkp_residual(field_on(oct_cell(), [1.0] * 6), oct_cell()) == 1.0
    # The terms of e2(M) are (-1, -1, 1): the sum -1 over the scale 3.
    assert dkp_minus_residual_relative(field_on(oct_cell(), [1.0] * 6), oct_cell()) == 1 / 3


def test_residual_golden_pattern_vanishes():
    # Values (ij, ik, il, jk, jl, kl) = (a, -1, -1, a, -1, a).
    f = field_on(oct_cell(), [A, -1.0, -1.0, A, -1.0, A])
    assert dkp_residual(f, oct_cell()) == pytest.approx(0.0, abs=1e-15)


def test_residual_sign_follows_orientation(rng):
    f = field_on(oct_cell(), [float(rng.uniform(0.5, 2)) for _ in range(6)])
    assert dkp_residual(f, -oct_cell()) == -dkp_residual(f, oct_cell())


def test_residual_missing_vertex():
    with pytest.raises(MissingVertexError):
        dkp_residual({}, oct_cell())


def test_residual_solved_octahedron_vanishes(rng):
    for _ in range(50):
        values = [float(rng.uniform(0.5, 2.0)) for _ in range(6)]
        f = field_on(oct_cell(), values)
        unknown = six_points(oct_cell())[0]
        del f[unknown]
        f[unknown] = _solve_slot(f, six_points(oct_cell()), 0)
        assert dkp_residual_relative(f, oct_cell()) <= 1e-12


@given(st.lists(nonzero, min_size=6, max_size=6), st.sampled_from((1, -1)))
@settings(max_examples=200, deadline=None)
def test_minus_residual_relative_is_relative_residual_of_inverse(values, sign):
    cell = oct_cell(sign=sign)
    f = field_on(cell, values)
    lhs = dkp_minus_residual_relative(f, cell)
    assert lhs == pytest.approx(dkp_residual_relative(invert_field(f), cell), abs=1e-12)


def test_cube3_relation_uses_inscribed_octahedron():
    cell = OrientedCell(CellKind.CUBE3, (0, 0, 0, 0), (0, 1, 2))
    f = {(1, 0, 0, 0): A, (0, 1, 0, 0): -1.0, (0, 0, 1, 0): -1.0,
         (1, 1, 0, 0): A, (1, 0, 1, 0): -1.0, (0, 1, 1, 0): A}
    assert dkp_residual(f, cell) == pytest.approx(0.0, abs=1e-15)


# --- systems on 4-cells ----------------------------------------------------------


def signed_supports(cell4):
    return sorted((s.indices, s.base, s.sign) for s in system_on_4cell(cell4))


def test_black_ambo_system_supports(black_ambo):
    expected = [
        ((0, 1, 2, 3), Z5, 1),
        ((1, 2, 3, 4), Z5, 1),
        ((0, 2, 3, 4), Z5, -1),
        ((0, 1, 3, 4), Z5, 1),
        ((0, 1, 2, 4), Z5, -1),
    ]
    assert signed_supports(black_ambo) == sorted(expected)


def test_white_ambo_system_supports(white_ambo):
    expected = [
        ((0, 1, 2, 3), (0, 0, 0, 0, 1), 1),
        ((1, 2, 3, 4), (1, 0, 0, 0, 0), 1),
        ((0, 2, 3, 4), (0, 1, 0, 0, 0), -1),
        ((0, 1, 3, 4), (0, 0, 1, 0, 0), 1),
        ((0, 1, 2, 4), (0, 0, 0, 1, 0), -1),
    ]
    assert signed_supports(white_ambo) == sorted(expected)


def test_cube4_system_is_eight_facets(cube4):
    supports = system_on_4cell(cube4)
    assert len(supports) == 8
    assert all(s.kind is CellKind.CUBE3 for s in supports)
    unshifted = [s for s in supports if s.base == (0, 0, 0, 0)]
    assert len(unshifted) == 4
    expected = [
        ((0, 1, 2), (0, 0, 0, 0), 1),
        ((0, 1, 3), (0, 0, 0, 0), -1),
        ((0, 2, 3), (0, 0, 0, 0), 1),
        ((1, 2, 3), (0, 0, 0, 0), -1),
        ((0, 1, 2), (0, 0, 0, 1), -1),
        ((0, 2, 3), (0, 1, 0, 0), -1),
        ((0, 1, 3), (0, 0, 1, 0), 1),
        ((1, 2, 3), (1, 0, 0, 0), 1),
    ]
    assert signed_supports(cube4) == sorted(expected)


def test_system_follows_orientation(black_ambo, cube4):
    for cell in (black_ambo, cube4):
        flipped = [(idx, base, -sign) for idx, base, sign in signed_supports(cell)]
        assert signed_supports(-cell) == sorted(flipped)


def test_system_unsupported_kind():
    simplex = OrientedCell(CellKind.BLACK_SIMPLEX4, Z5, (0, 1, 2, 3, 4))
    with pytest.raises(CellError):
        system_on_4cell(simplex)
    with pytest.raises(CellError):
        system_on_4cell(oct_cell())


def test_relation_cells_are_the_ambo_kinds_and_the_4d_cube():
    assert set(RELATION_CELLS) == {
        CellKind.BLACK_AMBO4, CellKind.WHITE_AMBO4, CellKind.CUBE4
    }
    black = RELATION_CELLS[CellKind.BLACK_AMBO4].ivp
    white = RELATION_CELLS[CellKind.WHITE_AMBO4].ivp
    assert [set(b) | set(w) for b, w in zip(black, white)] == [set(range(5))] * 7
    for entry in RELATION_CELLS.values():
        assert entry.golden_closure in entry.closure_values


def test_solvers_refuse_cells_they_do_not_complete(black_ambo, cube4):
    simplex = OrientedCell(CellKind.BLACK_SIMPLEX4, Z5, (0, 1, 2, 3, 4))
    with pytest.raises(CellError):
        ivp_points(simplex)
    with pytest.raises(CellError):
        solve_ambo_ivp(simplex, {})
    with pytest.raises(CellError):
        solve_ambo_ivp(cube4, {p: 1.0 for p in ivp_points(cube4)[0]})
    with pytest.raises(CellError):
        solve_cube_ivp(black_ambo, {p: 1.0 for p in ivp_points(black_ambo)[0]})


# --- solving for one vertex of an octahedron or a 3D cube ---------------------------


def test_solve_octahedron_example():
    cell = oct_cell()
    points = six_points(cell)
    f = dict(zip(points[1:], [1.0, 1.0, 1.0, 2.0, 1.0]))
    assert _solve_slot(f, points, 0) == pytest.approx(1.0)


def test_solve_octahedron_golden():
    cell = oct_cell()
    f = field_on(cell, [A, -1.0, -1.0, A, -1.0, A])
    del f[six_points(cell)[0]]
    assert _solve_slot(f, six_points(cell), 0) == pytest.approx(A, abs=1e-15)


def test_solve_octahedron_zero_coefficient():
    cell = oct_cell()
    points = six_points(cell)
    f = dict(zip(points[1:], [1.0, 1.0, 1.0, 1.0, 0.0]))
    with pytest.raises(SingularFieldError):
        _solve_slot(f, points, 0)


def cube3_cell(sign=1):
    return OrientedCell(CellKind.CUBE3, (0, 0, 0, 0), (0, 1, 2), sign)


@pytest.mark.parametrize("make_cell", [oct_cell, cube3_cell], ids=["oct", "cube3"])
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("slot", range(6))
def test_solve_octahedron_every_slot(make_cell, sign, slot, rng):
    cell = make_cell(sign=sign)
    points = six_points(cell)
    unknown = points[slot]
    for _ in range(50):
        values = [float(rng.uniform(0.5, 2.0) * rng.choice((-1, 1))) for _ in range(6)]
        f = field_on(cell, values)
        del f[unknown]
        f[unknown] = _solve_slot(f, points, slot)
        assert dkp_residual_relative(f, cell) <= 1e-12
    # The partner shares the unknown's monomial; at zero the slope vanishes.
    f[points[5 - slot]] = 0.0
    with pytest.raises(SingularFieldError):
        _solve_slot(f, points, slot)


# --- ambo completions --------------------------------------------------------------


def test_ambo_completion_golden_black(black_ambo):
    required, solved = ivp_points(black_ambo)
    golden = golden_field(black_ambo, Branch.DKP)
    completed = solve_ambo_ivp(black_ambo, {p: golden[p] for p in required})
    p_ij, p_ik, p_jk = solved
    assert completed[p_ij] == pytest.approx(A, abs=1e-15)
    assert completed[p_ik] == pytest.approx(-1.0, abs=1e-15)
    assert completed[p_jk] == pytest.approx(A, abs=1e-15)


def test_ambo_completion_homogeneous(black_ambo, rng):
    required, _ = ivp_points(black_ambo)
    data = {p: float(rng.uniform(0.5, 2.0)) for p in required}
    base_solution = solve_ambo_ivp(black_ambo, data)
    scaled = solve_ambo_ivp(black_ambo, {p: 3.5 * v for p, v in data.items()})
    for p, v in base_solution.items():
        assert scaled[p] == pytest.approx(3.5 * v, rel=1e-12)


@pytest.mark.parametrize("kind", [CellKind.BLACK_AMBO4, CellKind.WHITE_AMBO4])
def test_ambo_completion_solves_all_five(kind, rng):
    cell = OrientedCell(kind, Z5, (0, 1, 2, 3, 4))
    required, _ = ivp_points(cell)
    count = 0
    while count < 200:
        data = {p: float(rng.uniform(0.5, 2.0) * rng.choice((-1, 1))) for p in required}
        try:
            solution = solve_ambo_ivp(cell, data)
        except SingularFieldError:
            continue
        count += 1
        for support in system_on_4cell(cell):
            assert dkp_residual_relative(solution, support) <= 1e-10


def test_ambo_completion_branch_conjugate(black_ambo, rng):
    required, _ = ivp_points(black_ambo)
    data = {p: float(rng.uniform(0.5, 2.0)) for p in required}
    direct = solve_ambo_ivp(black_ambo, data)
    mirrored = solve_ambo_ivp(
        black_ambo, {p: 1.0 / v for p, v in data.items()}, Branch.DKP_MINUS
    )
    for p, v in direct.items():
        assert mirrored[p] == pytest.approx(1.0 / v, rel=1e-12)
    for support in system_on_4cell(black_ambo):
        assert dkp_minus_residual_relative(mirrored, support) <= 1e-10


def test_ambo_completion_rejects_wrong_vertices(black_ambo):
    required, _ = ivp_points(black_ambo)
    bad = {p: 1.0 for p in required[:-1]}
    with pytest.raises(InitialDataError):
        solve_ambo_ivp(black_ambo, bad)
    with pytest.raises(InitialDataError):
        solve_ambo_ivp(black_ambo, {**{p: 1.0 for p in required}, (9, 0, 0, 0, 0): 1.0})


def test_ambo_completion_rejects_zero_value(black_ambo):
    required, _ = ivp_points(black_ambo)
    data = {p: 1.0 for p in required}
    data[required[0]] = 0.0
    with pytest.raises(SingularFieldError):
        solve_ambo_ivp(black_ambo, data)


# --- cube completions -----------------------------------------------------------------


def test_cube_completion_golden(cube4):
    required, _ = ivp_points(cube4)
    golden = golden_field(cube4)
    completed = solve_cube_ivp(cube4, {p: golden[p] for p in required})
    for p, v in golden.items():
        assert completed[p] == pytest.approx(v, abs=1e-15)


def test_cube_completion_has_nine_inputs_and_fourteen_values(cube4):
    required, solved = ivp_points(cube4)
    assert len(required) == 9
    assert len(solved) == 5
    golden = golden_field(cube4)
    completed = solve_cube_ivp(cube4, {p: golden[p] for p in required})
    assert len(completed) == 14
    # The two inert corner vertices never appear.
    assert cube4.base not in completed
    assert tuple(b + 1 for b in cube4.base) not in completed


def test_cube_completion_random_residuals(cube4, rng):
    count = 0
    required, _ = ivp_points(cube4)
    while count < 200:
        data = {p: float(rng.uniform(0.5, 2.0) * rng.choice((-1, 1))) for p in required}
        try:
            solution = solve_cube_ivp(cube4, data)
        except SingularFieldError:
            continue
        count += 1
        for support in system_on_4cell(cube4):
            assert dkp_residual_relative(solution, support) <= 1e-10


def test_cube_completion_branch_conjugate(cube4, rng):
    required, _ = ivp_points(cube4)
    data = {p: float(rng.uniform(0.5, 2.0)) for p in required}
    direct = solve_cube_ivp(cube4, data)
    mirrored = solve_cube_ivp(
        cube4, {p: 1.0 / v for p, v in data.items()}, Branch.DKP_MINUS
    )
    for p, v in direct.items():
        assert mirrored[p] == pytest.approx(1.0 / v, rel=1e-12)


# --- exact reference completions ------------------------------------------------------


def hand_tables(cell4):
    """(required, solved) of the hand-written completion formulas below."""
    base = cell4.base
    if cell4.kind is CellKind.CUBE4:
        j, k, l, m = cell4.indices
        required = ((l,), (m,), (j, l), (j, m), (k, l), (k, m), (l, m),
                    (j, k, l), (j, k, m))
        solved = ((j,), (k,), (j, k), (j, l, m), (k, l, m))
    elif cell4.kind is CellKind.BLACK_AMBO4:
        i, j, k, l, m = cell4.indices
        required = ((i, l), (i, m), (j, l), (j, m), (k, l), (k, m), (l, m))
        solved = ((i, j), (i, k), (j, k))
    else:
        # Complements of the black vertices, read by the same formulas.
        i, j, k, l, m = cell4.indices
        required = ((j, k, m), (j, k, l), (i, k, m), (i, k, l), (i, j, m),
                    (i, j, l), (i, j, k))
        solved = ((k, l, m), (j, l, m), (i, l, m))

    def at(groups):
        return tuple(
            tuple(b + (d in g) for d, b in enumerate(base)) for g in groups
        )

    return at(required), at(solved)


def hand_completion(cell4, data):
    """The completion by hand formulas, in exact rational arithmetic."""
    required, solved = hand_tables(cell4)
    x = [Fraction(data[p]) for p in required]
    if cell4.kind is CellKind.CUBE4:
        x_l, x_m, x_jl, x_jm, x_kl, x_km, x_lm, x_jkl, x_jkm = x
        x_jk = (x_jl * x_km - x_jm * x_kl) / x_lm
        values = (
            (x_l * x_jm - x_m * x_jl) / x_lm,
            (x_l * x_km - x_m * x_kl) / x_lm,
            x_jk,
            (x_jl * x_jkm - x_jm * x_jkl) / x_jk,
            (x_kl * x_jkm - x_km * x_jkl) / x_jk,
        )
    else:
        x_il, x_im, x_jl, x_jm, x_kl, x_km, x_lm = x
        values = (
            (x_il * x_jm - x_im * x_jl) / x_lm,
            (x_il * x_km - x_im * x_kl) / x_lm,
            (x_jl * x_km - x_jm * x_kl) / x_lm,
        )
    return {**dict(zip(required, x)), **dict(zip(solved, values))}


REFERENCE_CELLS = [
    OrientedCell(CellKind.BLACK_AMBO4, Z5, (0, 1, 2, 3, 4)),
    OrientedCell(CellKind.WHITE_AMBO4, Z5, (0, 1, 2, 3, 4)),
    OrientedCell(CellKind.CUBE4, (0, 0, 0, 0), (0, 1, 2, 3)),
    OrientedCell(CellKind.BLACK_AMBO4, (1, -2, 0, 3, 0, 5, 1), (0, 2, 3, 5, 6), -1),
    OrientedCell(CellKind.WHITE_AMBO4, (1, -2, 0, 3, 0, 5, 1), (0, 2, 3, 5, 6), -1),
    OrientedCell(CellKind.CUBE4, (2, 0, -1, 4, 0, 1), (0, 2, 4, 5), -1),
]


@pytest.mark.parametrize("cell4", REFERENCE_CELLS, ids=str)
def test_ivp_points_match_hand_tables(cell4):
    cube = cell4.kind is CellKind.CUBE4
    required, solved = ivp_points(cell4)
    hand_required, hand_solved = hand_tables(cell4)
    assert required == hand_required
    if cube:
        assert len(solved) == len(hand_solved)
        assert set(solved) == set(hand_solved)
    else:
        assert solved == hand_solved


@pytest.mark.parametrize("branch", [Branch.DKP, Branch.DKP_MINUS])
@pytest.mark.parametrize("cell4", REFERENCE_CELLS, ids=str)
def test_completion_matches_exact_hand_formulas(cell4, branch):
    cube = cell4.kind is CellKind.CUBE4
    required, _ = ivp_points(cell4)
    solve = solve_cube_ivp if cube else solve_ambo_ivp
    rng = np.random.default_rng([2024, REFERENCE_CELLS.index(cell4)])
    checked = 0
    while checked < 100:
        data = {p: float(rng.uniform(0.5, 2.0) * rng.choice((-1, 1))) for p in required}
        try:
            solution = solve(cell4, data, branch)
        except SingularFieldError:
            continue
        if nonsingularity_margin(solution, system_on_4cell(cell4)) < 1e-3:
            continue
        checked += 1
        if branch is Branch.DKP:
            exact = hand_completion(cell4, data)
        else:
            inverted = {p: 1 / Fraction(v) for p, v in data.items()}
            exact = {p: 1 / v for p, v in hand_completion(cell4, inverted).items()}
        assert set(solution) == set(exact)
        for p, value in exact.items():
            assert abs(Fraction(solution[p]) - value) <= 1e-12 * abs(value)


# --- constant solutions ------------------------------------------------------------


@pytest.mark.parametrize("kind", [CellKind.BLACK_AMBO4, CellKind.WHITE_AMBO4])
def test_golden_field_solves_system(kind):
    cell = OrientedCell(kind, Z5, (0, 1, 2, 3, 4))
    golden = golden_field(cell, Branch.DKP)
    assert set(golden) == vertices(cell)
    for support in system_on_4cell(cell):
        assert dkp_residual(golden, support) == pytest.approx(0.0, abs=1e-15)
    inverse = golden_field(cell, Branch.DKP_MINUS)
    for support in system_on_4cell(cell):
        assert dkp_minus_residual_relative(inverse, support) <= 1e-15


def test_golden_field_value_multiset(black_ambo):
    values = sorted(golden_field(black_ambo, Branch.DKP).values())
    assert values[:5] == [-1.0] * 5
    assert values[5:] == [A] * 5


def test_golden_cube_field_solves_all_eight(cube4):
    golden = golden_field(cube4)
    for support in system_on_4cell(cube4):
        assert dkp_residual(golden, support) == pytest.approx(0.0, abs=1e-15)
    inverse = golden_field(cube4, Branch.DKP_MINUS)
    for support in system_on_4cell(cube4):
        assert dkp_minus_residual_relative(inverse, support) <= 1e-15


def test_inversion_duality(black_ambo, rng):
    required, _ = ivp_points(black_ambo)
    data = {p: float(rng.uniform(0.5, 2.0)) for p in required}
    solution = solve_ambo_ivp(black_ambo, data)
    inverse = invert_field(solution)
    for support in system_on_4cell(black_ambo):
        assert dkp_minus_residual_relative(inverse, support) <= 1e-12


def test_cyclic_pullback_preserves_solutions(black_ambo, rng):
    # Pull a solution back along the five-cycle of directions.
    required, _ = ivp_points(black_ambo)
    data = {p: float(rng.uniform(0.5, 2.0)) for p in required}
    solution = solve_ambo_ivp(black_ambo, data)
    cycle = {0: 1, 1: 2, 2: 3, 3: 4, 4: 0}
    pulled = {}
    for pair in itertools.combinations(range(5), 2):
        source = tuple(sorted((cycle[pair[0]], cycle[pair[1]])))
        point = tuple(1 if d in pair else 0 for d in range(5))
        value_point = tuple(1 if d in source else 0 for d in range(5))
        pulled[point] = solution[value_point]
    for support in system_on_4cell(black_ambo):
        assert dkp_residual_relative(pulled, support) <= 1e-12


def test_golden_sign_pattern_is_all_positive(black_ambo, white_ambo):
    pattern = monomial_sign_pattern(golden_field(black_ambo), black_ambo)
    assert pattern == tuple((True, True, True) for _ in range(5))
    assert monomial_sign_pattern(golden_field(white_ambo), white_ambo) == pattern


@pytest.mark.parametrize("kind", sorted(RELATION_CELLS, key=lambda k: k.value))
def test_golden_field_refuses_branch_neither(kind):
    cell = LATTICES[kind.family].cell(kind, 4)
    with pytest.raises(BranchError):
        golden_field(cell, Branch.NEITHER)


@pytest.mark.parametrize("kind", [CellKind.BLACK_SIMPLEX4, CellKind.WHITE_SIMPLEX4])
def test_golden_field_refuses_cells_without_relation(kind):
    with pytest.raises(CellError):
        golden_field(LATTICES["qan"].cell(kind, 4))


# --- field files ---------------------------------------------------------------------


_EXTREME_VALUES = (-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308)


@st.composite
def field_files(draw):
    """(lattice, dim, field) with up to eight points of the right size."""
    lattice = draw(st.sampled_from(sorted(LATTICES)))
    dim = draw(st.integers(3, config.MAX_DIM))
    size = LATTICES[lattice].ambient(dim)
    point = st.lists(st.integers(-10**6, 10**6), min_size=size, max_size=size).map(tuple)
    value = st.one_of(
        st.sampled_from(_EXTREME_VALUES), st.floats(allow_nan=False, allow_infinity=False)
    )
    return lattice, dim, draw(st.dictionaries(point, value, min_size=1, max_size=8))


@settings(max_examples=60, deadline=None)
@example(("qan", 4, {(0, 0, 0, 0, t): v for t, v in enumerate(_EXTREME_VALUES)}))
@given(field_files())
def test_field_file_round_trip_is_exact(drawn):
    lattice, dim, field = drawn
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "field.json")
        write_field_file(path, field, lattice, dim)
        loaded, loaded_lattice, loaded_dim = read_field_file(path)
    assert (loaded_lattice, loaded_dim) == (lattice, dim)
    assert {p: v.hex() for p, v in loaded.items()} == {p: v.hex() for p, v in field.items()}


def test_field_file_round_trip(tmp_path, black_ambo, rng):
    field = {p: float(rng.normal()) or 1.0 for p in vertices(black_ambo)}
    path = tmp_path / "field.json"
    write_field_file(str(path), field, "qan", 4)
    loaded, lattice, dim = read_field_file(str(path))
    assert (lattice, dim) == ("qan", 4)
    assert loaded == field


@pytest.mark.parametrize(
    "lattice, dim, value",
    [
        ("qan", 11, 1.0),
        ("qan", 2, 1.0),
        ("qan", 4.5, 1.0),
        ("qan", True, 1.0),
        ("hex", 4, 1.0),
        ("qan", 4, math.nan),
        ("cubic", 4, 1.0),
    ],
)
def test_write_field_file_refuses_what_read_field_file_rejects(
    tmp_path, black_ambo, lattice, dim, value
):
    # Nothing is written: neither the target nor the temporary file.
    field = {p: value for p in vertices(black_ambo)}
    with pytest.raises(FormatError):
        write_field_file(str(tmp_path / "field.json"), field, lattice, dim)
    assert list(tmp_path.iterdir()) == []


def test_write_json_keeps_the_old_target_when_a_write_fails(tmp_path, monkeypatch):
    # An unencodable payload fails before any file is opened; a failed replace
    # removes the temporary file.  Either way the old target stays whole.
    target = tmp_path / "out.json"
    write_json(str(target), {"b": [1.5, -0.0], "a": {"z": 1, "y": None}})
    old = target.read_bytes()
    assert old == b'{\n "a": {\n  "y": null,\n  "z": 1\n },\n "b": [\n  1.5,\n  -0.0\n ]\n}\n'
    with pytest.raises(TypeError):
        write_json(str(target), {"a": object()})

    def refuse(src, dst):
        raise PermissionError(dst)

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(PermissionError):
        write_json(str(target), {"a": 2})
    assert list(tmp_path.iterdir()) == [target]
    assert target.read_bytes() == old


@pytest.mark.parametrize(
    "values",
    [
        '"0,0,0,1,1": 2.5, "0,0,0,1,1": 3.0',
        '"0,0,0,1,1": 2.5, "0, 0,0,1,1": 3.0',
        '"0,0,0,1,1": 2.5, "1,0,0,0,1": NaN, "0,1,0,0,1": Infinity',
        '"0,0,0,1,1": "2.5"',
        '"0,0,0,1,1": true',
        '"0,0,0,1,1": 1%s' % ("0" * 400),
    ],
    ids=[
        "duplicate-point", "non-canonical-key", "non-finite-value", "string-value",
        "boolean-value", "overflowing-value",
    ],
)
def test_field_file_rejects_ambiguous_or_non_finite_values(tmp_path, values):
    path = tmp_path / "field.json"
    path.write_text(
        '{"format": "plurikp-field/1", "lattice": "qan", "dim": 4,'
        ' "values": {%s}}' % values
    )
    with pytest.raises(FormatError):
        read_field_file(str(path))


@pytest.mark.parametrize("dim", ["4.5", '"4"', "true", "11", "2", "-5", "null"])
def test_field_file_rejects_dim_that_is_not_an_integer_in_range(tmp_path, dim):
    path = tmp_path / "field.json"
    path.write_text(
        '{"format": "plurikp-field/1", "lattice": "qan", "dim": %s, "values": {}}' % dim
    )
    with pytest.raises(FormatError):
        read_field_file(str(path))


def test_field_file_rejects_bad_payloads(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("not json")
    with pytest.raises(FormatError):
        read_field_file(str(path))
    path.write_text('{"format": "plurikp-field/1", "lattice": ["qan"], "dim": 4}')
    with pytest.raises(FormatError, match="lattice"):
        read_field_file(str(path))
    path.write_text('{"format": "other"}')
    with pytest.raises(FormatError):
        read_field_file(str(path))
    path.write_text(
        '{"format": "plurikp-field/1", "lattice": "qan", "dim": 4,'
        ' "values": {"0,0": 1.0}}'
    )
    with pytest.raises(FormatError):
        read_field_file(str(path))
