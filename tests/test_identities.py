"""Exact identities behind the corner equations.

The forward direction of the paper's theorem (dKP implies the corner
equations) holds exactly: completed over the rationals, every corner factor
of a relation-carrying 4-cell is -1 and every corner value is +1 or -1.  And
a field on a 4D cube, lifted to the root lattice through the projection,
splits the cube's corners and facet action over a black and a white 4-ambo
cell.
"""

from fractions import Fraction

import numpy as np
import pytest

from plurikp import config
from plurikp.cells import LATTICES, CellKind, OrientedCell, project_point, vertices
from plurikp.dkp import (
    RELATION_CELLS,
    _completion_steps,
    _monomials,
    ivp_points,
    system_on_4cell,
)
from plurikp.lagrangian import (
    _corner_table,
    corner_product,
    corner_vertices,
    exterior_derivative,
)
from plurikp.verify import SuiteConfig, _random_solution
from samplers import _random_plain_field


def _solve_slot(field, points, slot):
    # The relation is affine in the unknown: rest + slope * value = 0.
    values = [Fraction(0) if s == slot else field[p] for s, p in enumerate(points)]
    partner = values[5 - slot]
    slope = -partner if slot in (1, 4) else partner
    return -sum(_monomials(values)) / slope


def _ratio_product(monomials, terms):
    product = Fraction(1)
    for t, k, sign in terms:
        m = monomials[t]
        num, den = m[k] + m[k - 1], m[k] + m[(k + 1) % 3]
        product *= num / den if sign > 0 else den / num
    return product


@pytest.mark.parametrize("seed", [7, 2024, 0])
@pytest.mark.parametrize("kind", list(RELATION_CELLS), ids=lambda k: k.value)
def test_exact_completion_makes_every_corner_a_unit(kind, seed):
    cell = LATTICES[kind.family].cell(kind, 4)
    cfg = SuiteConfig(lattice=kind.family, seed=seed)
    floats = _random_solution(cfg, "exact", cell)
    required, _ = ivp_points(cell)
    # Every float is a binary rational, so this is trial 0's data, exactly.
    field = {p: Fraction(floats[p]) for p in required}
    for points, slot in _completion_steps(cell, required):
        field[points[slot]] = _solve_slot(field, points, slot)
    assert set(field) == set(floats)
    assert all(type(value) is Fraction for value in field.values())
    table = _corner_table(cell)
    monomials = [_monomials([field[p] for p in triple]) for triple in table.triples]
    for vertex in corner_vertices(cell):
        corner = table.corners[vertex]
        value = _ratio_product(monomials, corner.terms)
        factors = tuple(_ratio_product(monomials, terms) for terms in corner.factors)
        assert abs(value) == 1
        assert factors == (-1,) * len(factors)
        computed = corner_product(floats, cell, vertex)
        assert computed.value == pytest.approx(float(value), rel=1e-13)
        assert computed.factors == pytest.approx(tuple(map(float, factors)), rel=1e-13)


def test_cube_corners_and_action_split_over_the_lifted_ambo_pair():
    # x = u o project_point(0, .) on +bambo4 at 0 and -wambo4 at -e0: the
    # single-index cube vertices come from the black cell, the triple-index
    # ones from the white cell, the double-index ones from both.
    cube = OrientedCell(CellKind.CUBE4, (0,) * 4, (0, 1, 2, 3))
    black = OrientedCell(CellKind.BLACK_AMBO4, (0,) * 5, (0, 1, 2, 3, 4))
    white = -OrientedCell(CellKind.WHITE_AMBO4, (-1, 0, 0, 0, 0), (0, 1, 2, 3, 4))
    lifted_points = vertices(black) | vertices(white)
    rng = np.random.default_rng(20240801)
    worst_factor = worst_sum = 0.0
    for _ in range(300):
        u = _random_plain_field(
            rng, corner_vertices(cube), system_on_4cell(cube), config.FD_MARGIN
        )
        x = {p: u[project_point(0, p)] for p in lifted_points}
        for vertex in corner_vertices(cube):
            lift = (2 - sum(vertex),) + vertex
            expected = tuple(
                corner_product(x, cell, lift).value
                for cell in (black, white)
                if lift in vertices(cell)
            )
            assert len(expected) == {1: 1, 2: 2, 3: 1}[sum(vertex)]
            factors = corner_product(u, cube, vertex).factors
            assert len(factors) == len(expected)
            worst_factor = max(
                worst_factor, *(abs(f / e - 1.0) for f, e in zip(factors, expected))
            )
        split = exterior_derivative(x, black) + exterior_derivative(x, white)
        worst_sum = max(worst_sum, abs(exterior_derivative(u, cube) - split))
    assert worst_factor <= 1e-14
    assert worst_sum <= 1e-13
