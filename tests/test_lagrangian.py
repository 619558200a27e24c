"""3-form values, actions, exterior derivatives, and corner quantities."""

import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from plurikp import config
from plurikp.cells import (
    CellKind,
    Chain,
    OrientedCell,
    facets,
    parse_cell,
    vertices,
)
from plurikp.dilog import GOLDEN_A
from plurikp.dkp import (
    Branch,
    golden_cube_field,
    golden_field,
    invert_field,
    six_points,
)
from plurikp.errors import (
    CellError,
    NoCornerEquationError,
    SingularFieldError,
)
from plurikp.lagrangian import (
    action,
    corner_product,
    corner_residual,
    exterior_derivative,
    three_form,
)
from plurikp.verify import (
    _fd_action,
    _relation_supports,
    corner_vertices,
)
from samplers import _random_plain_field, _random_solution

Z5 = (0, 0, 0, 0, 0)
Z4 = (0, 0, 0, 0)
PI2_4 = math.pi**2 / 4.0
PI2_20 = math.pi**2 / 20.0
A = GOLDEN_A


def oct_cell(sign=1):
    return OrientedCell(CellKind.OCTAHEDRON, Z5, (0, 1, 2, 3), sign)


def golden_oct_field():
    cell = oct_cell()
    return dict(zip(six_points(cell), [A, -1.0, -1.0, A, -1.0, A]))


# --- 3-form ---------------------------------------------------------------------


def test_three_form_golden_value():
    assert three_form(golden_oct_field(), oct_cell()) == pytest.approx(
        -PI2_20, abs=1e-11
    )


def test_three_form_orientation_antisymmetry():
    f = golden_oct_field()
    assert three_form(f, -oct_cell()) == -three_form(f, oct_cell())


def test_three_form_inverted_golden_value():
    f = invert_field(golden_oct_field())
    assert three_form(f, oct_cell()) == pytest.approx(PI2_20, abs=1e-11)


def test_three_form_cyclic_pullback_negates(rng):
    # Pulling the six values back along the four-cycle of directions flips
    # the value, matching the orientation flip of the odd permutation.
    cell = oct_cell()
    points = six_points(cell)
    for _ in range(25):
        values = [float(rng.uniform(0.5, 2.0) * rng.choice((-1, 1))) for _ in range(6)]
        f = dict(zip(points, values))
        cycle = {0: 1, 1: 2, 2: 3, 3: 0}
        pulled = {}
        for pair in itertools.combinations(range(4), 2):
            source = tuple(sorted((cycle[pair[0]], cycle[pair[1]])))
            point = tuple(1 if d in pair else 0 for d in range(5))
            source_point = tuple(1 if d in source else 0 for d in range(5))
            pulled[point] = f[source_point]
        try:
            direct = three_form(f, cell)
            flipped = three_form(pulled, cell)
        except SingularFieldError:
            continue
        assert flipped == pytest.approx(-direct, abs=1e-12)


def test_three_form_rejects_zero_values():
    f = golden_oct_field()
    f[next(iter(f))] = 0.0
    with pytest.raises(SingularFieldError):
        three_form(f, oct_cell())


def test_three_form_cube3_matches_projected_values():
    cube = OrientedCell(CellKind.CUBE3, Z4, (0, 1, 2))
    f = {(1, 0, 0, 0): A, (0, 1, 0, 0): -1.0, (0, 0, 1, 0): -1.0,
         (1, 1, 0, 0): A, (1, 0, 1, 0): -1.0, (0, 1, 1, 0): A}
    assert three_form(f, cube) == pytest.approx(-PI2_20, abs=1e-11)


# --- action ---------------------------------------------------------------------


def test_action_empty_chain_is_zero():
    assert action({}, Chain()) == 0.0


def test_action_cancellation():
    f = golden_oct_field()
    chain = Chain.of(oct_cell())
    assert action(f, chain + (-chain)) == 0.0


def test_action_skips_tetrahedra():
    tets = Chain.of(
        OrientedCell(CellKind.BLACK_TETRAHEDRON, Z5, (0, 1, 2, 3)),
        OrientedCell(CellKind.WHITE_TETRAHEDRON, Z5, (0, 1, 2, 3)),
    )
    assert action({}, tets) == 0.0


def test_action_rejects_non_three_cells():
    chain = Chain.of(OrientedCell(CellKind.BLACK_AMBO4, Z5, (0, 1, 2, 3, 4)))
    with pytest.raises(CellError):
        action({}, chain)


# --- exterior derivative -----------------------------------------------------------


@pytest.mark.parametrize("kind", [CellKind.BLACK_SIMPLEX4, CellKind.WHITE_SIMPLEX4])
def test_exterior_derivative_vanishes_on_simplices(kind):
    cell = OrientedCell(kind, Z5, (0, 1, 2, 3, 4))
    assert exterior_derivative({}, cell) == 0.0


def test_exterior_derivative_golden_black(black_ambo):
    golden = golden_field(black_ambo, Branch.DKP)
    assert exterior_derivative(golden, black_ambo) == pytest.approx(-PI2_4, abs=1e-9)


def test_exterior_derivative_golden_white(white_ambo):
    golden = golden_field(white_ambo, Branch.DKP)
    assert exterior_derivative(golden, white_ambo) == pytest.approx(-PI2_4, abs=1e-9)


def test_exterior_derivative_golden_cube(cube4):
    golden = golden_cube_field(cube4)
    assert exterior_derivative(golden, cube4) == pytest.approx(0.0, abs=1e-9)


def lift_cube_field(cube_field, cube4):
    """Root-lattice view of a cube field: coordinate 0 carries 2 - weight."""
    base = cube4.base
    lifted = {}
    for point, value in cube_field.items():
        weight = sum(p - b for p, b in zip(point, base))
        offset = tuple(p - b for p, b in zip(point, base))
        lifted[(2 - weight,) + offset] = value
    return lifted


def test_cube_exterior_derivative_splits_into_ambo_halves(cube4, rng):
    f = _random_plain_field(
        rng, vertices(cube4), _relation_supports(cube4), config.FD_MARGIN
    )
    lifted = lift_cube_field(f, cube4)
    black = OrientedCell(CellKind.BLACK_AMBO4, Z5, (0, 1, 2, 3, 4))
    white = OrientedCell(CellKind.WHITE_AMBO4, (-1, 0, 0, 0, 0), (0, 1, 2, 3, 4))
    split = exterior_derivative(lifted, black) - exterior_derivative(lifted, white)
    assert exterior_derivative(f, cube4) == pytest.approx(split, abs=1e-11)


def test_facet_action_invariant_under_cyclic_pullback(black_ambo, rng):
    f = _random_plain_field(
        rng, vertices(black_ambo), _relation_supports(black_ambo), config.FD_MARGIN
    )
    cycle = {0: 1, 1: 2, 2: 3, 3: 4, 4: 0}
    pulled = {}
    for pair in itertools.combinations(range(5), 2):
        source = tuple(sorted((cycle[pair[0]], cycle[pair[1]])))
        point = tuple(1 if d in pair else 0 for d in range(5))
        source_point = tuple(1 if d in source else 0 for d in range(5))
        pulled[point] = f[source_point]
    direct = exterior_derivative(f, black_ambo)
    assert exterior_derivative(pulled, black_ambo) == pytest.approx(direct, abs=1e-11)


# --- corner quantities ----------------------------------------------------------------


def test_corner_product_golden_black(black_ambo):
    golden = golden_field(black_ambo, Branch.DKP)
    for vertex in corner_vertices(black_ambo):
        product = corner_product(golden, black_ambo, vertex)
        assert product.value == pytest.approx(-1.0, abs=1e-12)
        assert product.factors == (product.value,)


def test_corner_product_golden_inverse(black_ambo):
    inverse = golden_field(black_ambo, Branch.DKP_MINUS)
    for vertex in corner_vertices(black_ambo):
        assert corner_product(inverse, black_ambo, vertex).value == pytest.approx(
            1.0, abs=1e-12
        )


def test_corner_product_random_solution_all_corners(black_ambo, rng):
    for _ in range(50):
        solution = _random_solution(rng, black_ambo)
        for vertex in corner_vertices(black_ambo):
            assert corner_product(solution, black_ambo, vertex).value == pytest.approx(
                -1.0, abs=1e-9
            )


def test_corner_product_cube_double_carries_two_factors(cube4):
    golden = golden_cube_field(cube4)
    double_vertex = tuple(
        b + (1 if d in (0, 1) else 0) for d, b in enumerate(cube4.base)
    )
    product = corner_product(golden, cube4, double_vertex)
    assert len(product.factors) == 2
    assert product.value == pytest.approx(
        product.factors[0] / product.factors[1], rel=1e-12
    )
    for factor in product.factors:
        assert factor == pytest.approx(-1.0, abs=1e-12)


def test_cube_corners_match_lifted_ambo_corners(cube4, rng):
    # The projection substitutions must agree with evaluating the same
    # corner formulas on the lifted root-lattice field.
    f = _random_plain_field(
        rng, vertices(cube4), _relation_supports(cube4), config.FD_MARGIN
    )
    lifted = lift_cube_field(f, cube4)
    black = OrientedCell(CellKind.BLACK_AMBO4, Z5, (0, 1, 2, 3, 4))
    white = OrientedCell(CellKind.WHITE_AMBO4, (-1, 0, 0, 0, 0), (0, 1, 2, 3, 4))
    j = cube4.indices[0]
    single = tuple(b + (1 if d == j else 0) for d, b in enumerate(cube4.base))
    lifted_single = (1,) + tuple(
        v - b for v, b in zip(single, cube4.base)
    )
    assert corner_product(f, cube4, single).value == pytest.approx(
        corner_product(lifted, black, lifted_single).value, rel=1e-12
    )
    triple = tuple(
        b + (1 if d in cube4.indices[:3] else 0) for d, b in enumerate(cube4.base)
    )
    lifted_triple = (-1,) + tuple(v - b for v, b in zip(triple, cube4.base))
    assert corner_product(f, cube4, triple).value == pytest.approx(
        1.0 / corner_product(lifted, white, lifted_triple).value, rel=1e-12
    )


_CORNER_PRODUCTS = json.loads(
    (Path(__file__).parent / "data" / "corner_products.json").read_text()
)["cases"]


def _point(text):
    return tuple(int(t) for t in text.split(","))


@pytest.mark.parametrize(
    "case", _CORNER_PRODUCTS, ids=[case["cell"] for case in _CORNER_PRODUCTS]
)
def test_corner_products_match_recorded_values(case):
    # Values and factors at every corner, in both orientations, of one
    # FD_MARGIN field per cell, recorded from the earlier hand-tabulated
    # corner templates; the fields are not solutions, so the signs count.
    cell = parse_cell(case["cell"])
    field = {_point(key): value for key, value in case["field"].items()}
    assert {tuple(v) for v in corner_vertices(cell)} == {
        _point(row[1]) for row in case["corners"]
    }
    for sign, vertex, value, factors in case["corners"]:
        oriented = cell if sign == 1 else -cell
        product = corner_product(field, oriented, _point(vertex))
        assert product.value == pytest.approx(value, rel=1e-12)
        assert product.factors == pytest.approx(tuple(factors), rel=1e-12)


@pytest.mark.parametrize(
    "kind,base,point",
    [
        (CellKind.BLACK_AMBO4, Z5, (1, 1, 1, 0, 0)),
        (CellKind.BLACK_AMBO4, Z5, (1, 0, 0, 0, 0)),
        (CellKind.WHITE_AMBO4, Z5, (1, 1, 0, 0, 0)),
        (CellKind.WHITE_AMBO4, Z5, (0, 0, 0, 0, 0)),
        (CellKind.CUBE4, Z4, (2, 0, 0, 0)),
        (CellKind.CUBE4, Z4, (1, 0, 0, -1)),
        (CellKind.BLACK_SIMPLEX4, Z5, (1, 0, 0, 0, 0)),
        (CellKind.WHITE_SIMPLEX4, Z5, (1, 1, 1, 1, 0)),
        (CellKind.BLACK_SIMPLEX4, Z5, (9, 9, 9, 9, 9)),
        (CellKind.WHITE_SIMPLEX4, Z5, (1, 1, 0, 0, 0)),
    ],
)
def test_corner_product_rejects_non_vertices(kind, base, point):
    cell = OrientedCell(kind, base, tuple(range(len(base))))
    with pytest.raises(CellError) as info:
        corner_product({}, cell, point)
    assert not isinstance(info.value, NoCornerEquationError)
    # corner_residual is identically zero at the vertices of a 4-simplex.
    if point not in vertices(cell):
        with pytest.raises(CellError) as info:
            corner_residual({}, cell, point)
        assert not isinstance(info.value, NoCornerEquationError)
    else:
        assert corner_residual({}, cell, point) == 0.0


def test_corner_product_inert_cube_vertices_raise(cube4):
    golden = golden_cube_field(cube4)
    golden[cube4.base] = 1.0
    far = tuple(b + 1 for b in cube4.base)
    golden[far] = 1.0
    with pytest.raises(NoCornerEquationError):
        corner_product(golden, cube4, cube4.base)
    with pytest.raises(NoCornerEquationError):
        corner_product(golden, cube4, far)


def test_corner_residual_zero_on_solutions(black_ambo):
    golden = golden_field(black_ambo, Branch.DKP)
    for vertex in corner_vertices(black_ambo):
        assert corner_residual(golden, black_ambo, vertex) == pytest.approx(
            0.0, abs=1e-12
        )


def test_corner_residual_vanishes_identically_on_simplices(rng):
    simplex = OrientedCell(CellKind.BLACK_SIMPLEX4, Z5, (0, 1, 2, 3, 4))
    field = {p: float(rng.uniform(0.5, 2.0)) for p in vertices(simplex)}
    for vertex in sorted(vertices(simplex)):
        assert corner_residual(field, simplex, vertex) == 0.0


@pytest.mark.parametrize(
    "kind,cubic",
    [
        (CellKind.BLACK_AMBO4, False),
        (CellKind.WHITE_AMBO4, False),
        (CellKind.CUBE4, True),
    ],
)
def test_gradient_identity(kind, cubic, rng):
    cell = OrientedCell(
        kind, Z4 if cubic else Z5, tuple(range(4 if cubic else 5))
    )
    chain = facets(cell)
    for _ in range(60):
        f = _random_plain_field(
            rng, vertices(cell), _relation_supports(cell), config.FD_MARGIN
        )
        for vertex in corner_vertices(cell):
            analytic = corner_residual(f, cell, vertex)
            numeric = _fd_action(f, chain, vertex)
            assert abs(analytic - numeric) <= 1e-6


def test_gradient_identity_negated_cell(black_ambo, rng):
    cell = -black_ambo
    f = _random_plain_field(
        rng, vertices(cell), _relation_supports(cell), config.FD_MARGIN
    )
    vertex = corner_vertices(black_ambo)[0]
    analytic = corner_residual(f, cell, vertex)
    numeric = _fd_action(f, facets(cell), vertex)
    assert abs(analytic - numeric) <= 1e-6
