"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Randomized criteria draw their exact solutions on the
connected component of the constant golden-ratio solution (all diagonal
products positive), where the closure constants take the asserted values;
see the suite's *-valueset records for the component structure at large.
"""

import itertools
import math
import time

import numpy as np
import pytest

from plurikp import config
from plurikp.cells import (
    CellKind,
    Chain,
    FOUR_CELL_KINDS,
    OrientedCell,
    boundary,
    corner,
    cubic_point_flower,
    decompose_flower,
    facets,
    flower,
    qan_point_flower,
    vertices,
)
from plurikp.dilog import GOLDEN_A, dilog
from plurikp.dkp import (
    Branch,
    golden_field,
    invert_field,
)
from plurikp.lagrangian import (
    corner_residual,
    exterior_derivative,
    three_form,
)
from plurikp.verify import (
    Branch as VBranch,
    SuiteConfig,
    check_euler_lagrange_sum,
    classify_branch,
    corner_vertices,
    _fd_action,
    _relation_supports,
)
from samplers import _random_plain_field, _random_solution

PI2_4 = math.pi**2 / 4.0
PI2_20 = math.pi**2 / 20.0
Z5 = (0, 0, 0, 0, 0)
Z4 = (0, 0, 0, 0)

TRIALS = 1000


def report(number, label, elapsed, budget):
    print(f"ACCEPTANCE {number} ({label}): PASS in {elapsed:.2f}s (budget {budget}s)")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


def test_criterion_1_dilog_special_values():
    start = time.perf_counter()
    a = GOLDEN_A
    log2 = math.log(-a) ** 2
    pi2 = math.pi**2
    table = [
        (dilog(a * a), pi2 / 15.0 - log2),
        (dilog(-a), pi2 / 10.0 - log2),
        (dilog(a), -pi2 / 15.0 + 0.5 * log2),
        (dilog(1.0 / a), -pi2 / 10.0 - log2),
    ]
    for computed, exact in table:
        assert abs(computed - exact) <= 1e-11
    report(1, "dilogarithm special values", time.perf_counter() - start, 1.0)


def test_criterion_2_golden_closure():
    start = time.perf_counter()
    for kind in (CellKind.BLACK_AMBO4, CellKind.WHITE_AMBO4):
        cell = OrientedCell(kind, Z5, (0, 1, 2, 3, 4))
        golden = golden_field(cell, Branch.DKP)
        for facet, coeff in facets(cell).items():
            if facet.kind is CellKind.OCTAHEDRON:
                assert abs(coeff * three_form(golden, facet) + PI2_20) <= 1e-10
        assert abs(exterior_derivative(golden, cell) + PI2_4) <= 1e-9
        inverse = golden_field(cell, Branch.DKP_MINUS)
        assert abs(exterior_derivative(inverse, cell) - PI2_4) <= 1e-9
    report(2, "golden-solution closure", time.perf_counter() - start, 1.0)


def test_criterion_3_random_ambo_branch_and_closure():
    start = time.perf_counter()
    for kind in (CellKind.BLACK_AMBO4, CellKind.WHITE_AMBO4):
        cell = OrientedCell(kind, Z5, (0, 1, 2, 3, 4))
        worst_e = worst_s = worst_e_inv = worst_s_inv = 0.0
        for trial in range(TRIALS):
            rng = np.random.default_rng([31, kind is CellKind.WHITE_AMBO4, trial])
            solution = _random_solution(rng, cell, component="golden")
            rep = classify_branch(solution, cell)
            assert rep.branch is VBranch.DKP
            worst_e = max(worst_e, rep.max_dev_minus)
            worst_s = max(worst_s, abs(exterior_derivative(solution, cell) + PI2_4))
            inverse = invert_field(solution)
            rep_inv = classify_branch(inverse, cell)
            assert rep_inv.branch is VBranch.DKP_MINUS
            worst_e_inv = max(worst_e_inv, rep_inv.max_dev_plus)
            worst_s_inv = max(
                worst_s_inv, abs(exterior_derivative(inverse, cell) - PI2_4)
            )
        assert worst_e <= 1e-8
        assert worst_s <= 1e-8
        assert worst_e_inv <= 1e-8
        assert worst_s_inv <= 1e-8
    report(3, "randomized ambo corners and closure", time.perf_counter() - start, 10.0)


def test_criterion_4_random_cube_branch_and_closure():
    start = time.perf_counter()
    cell = OrientedCell(CellKind.CUBE4, Z4, (0, 1, 2, 3))
    worst_e = worst_s = worst_e_inv = worst_s_inv = 0.0
    for trial in range(TRIALS):
        rng = np.random.default_rng([41, trial])
        solution = _random_solution(rng, cell, component="golden")
        rep = classify_branch(solution, cell)
        assert rep.branch is VBranch.DKP
        assert len(rep.corner_factors) == 14
        worst_e = max(worst_e, rep.max_dev_minus)
        worst_s = max(worst_s, abs(exterior_derivative(solution, cell)))
        inverse = invert_field(solution)
        rep_inv = classify_branch(inverse, cell)
        assert rep_inv.branch is VBranch.DKP_MINUS
        worst_e_inv = max(worst_e_inv, rep_inv.max_dev_plus)
        worst_s_inv = max(worst_s_inv, abs(exterior_derivative(inverse, cell)))
    assert worst_e <= 1e-8
    assert worst_s <= 1e-8
    assert worst_e_inv <= 1e-8
    assert worst_s_inv <= 1e-8
    report(4, "randomized 4D-cube corners and closure", time.perf_counter() - start, 10.0)


def test_criterion_5_gradient_identity():
    start = time.perf_counter()
    cases = [
        OrientedCell(CellKind.BLACK_AMBO4, Z5, (0, 1, 2, 3, 4)),
        OrientedCell(CellKind.WHITE_AMBO4, Z5, (0, 1, 2, 3, 4)),
        OrientedCell(CellKind.BLACK_SIMPLEX4, Z5, (0, 1, 2, 3, 4)),
        OrientedCell(CellKind.WHITE_SIMPLEX4, Z5, (0, 1, 2, 3, 4)),
        OrientedCell(CellKind.CUBE4, Z4, (0, 1, 2, 3)),
    ]
    for tag, cell in enumerate(cases):
        chain = facets(cell)
        if cell.kind in (CellKind.BLACK_SIMPLEX4, CellKind.WHITE_SIMPLEX4):
            targets = tuple(sorted(vertices(cell)))
        else:
            targets = corner_vertices(cell)
        worst = 0.0
        for trial in range(TRIALS):
            rng = np.random.default_rng([51, tag, trial])
            field = _random_plain_field(
                rng, vertices(cell), _relation_supports(cell), config.FD_MARGIN
            )
            for vertex in targets:
                analytic = corner_residual(field, cell, vertex)
                numeric = _fd_action(field, chain, vertex, step=1e-6)
                worst = max(worst, abs(analytic - numeric))
        assert worst <= 1e-6, cell.kind
    report(5, "corner gradient identity", time.perf_counter() - start, 30.0)


def corner_sum(pairs):
    total = Chain()
    for cell4, center in pairs:
        total = total + corner(cell4, center)
    return total


def criterion_6_flowers():
    """The flowers shared by criteria 6 and 7."""
    flowers = []
    for kind in FOUR_CELL_KINDS:
        cubic = kind is CellKind.CUBE4
        cell = OrientedCell(kind, Z4 if cubic else Z5, tuple(range(4 if cubic else 5)))
        cell_vertices = sorted(vertices(cell))
        for vertex in (cell_vertices[0], cell_vertices[len(cell_vertices) // 2]):
            flowers.append((f"boundary-{kind.value}", facets(cell), vertex))
    flowers.append(("qa3-star", qan_point_flower(Z5, (0, 1, 2, 3)), Z5))
    flowers.append(("z3-star", cubic_point_flower((0, 0, 0), (0, 1, 2)), (0, 0, 0)))
    return flowers


def test_criterion_6_combinatorial_exactness():
    start = time.perf_counter()
    rng = np.random.default_rng(61)
    # Boundary of the boundary vanishes for every 4-cell kind; 4-cells need
    # five directions, so dimension 3 holds vacuously and 4..6 are checked.
    for ambient_dim in (4, 5, 6):
        for kind in FOUR_CELL_KINDS:
            cubic = kind is CellKind.CUBE4
            ambient = ambient_dim if cubic else ambient_dim + 1
            n_idx = 4 if cubic else 5
            for indices in itertools.combinations(range(ambient), n_idx):
                base = tuple(int(rng.integers(-3, 4)) for _ in range(ambient))
                assert not boundary(facets(OrientedCell(kind, base, indices)))
    # Facet multiplicities.
    expected_counts = {
        CellKind.BLACK_SIMPLEX4: {CellKind.BLACK_TETRAHEDRON: 5},
        CellKind.BLACK_AMBO4: {CellKind.BLACK_TETRAHEDRON: 5, CellKind.OCTAHEDRON: 5},
        CellKind.WHITE_AMBO4: {CellKind.OCTAHEDRON: 5, CellKind.WHITE_TETRAHEDRON: 5},
        CellKind.WHITE_SIMPLEX4: {CellKind.WHITE_TETRAHEDRON: 5},
        CellKind.CUBE4: {CellKind.CUBE3: 8},
    }
    for kind, expected in expected_counts.items():
        cubic = kind is CellKind.CUBE4
        cell = OrientedCell(kind, Z4 if cubic else Z5, tuple(range(4 if cubic else 5)))
        seen = {}
        for facet, coeff in facets(cell).items():
            assert abs(coeff) == 1
            seen[facet.kind] = seen.get(facet.kind, 0) + 1
        assert seen == expected
    oct_cell = OrientedCell(CellKind.OCTAHEDRON, Z5, (0, 1, 2, 3))
    oct_seen = {}
    for facet, _ in facets(oct_cell).items():
        oct_seen[facet.kind] = oct_seen.get(facet.kind, 0) + 1
    assert oct_seen == {CellKind.BLACK_TRIANGLE: 4, CellKind.WHITE_TRIANGLE: 4}
    # Corner decompositions reproduce their flowers exactly.
    star = qan_point_flower(Z5, (0, 1, 2, 3))
    kinds = [c.kind for c in star.cells()]
    assert kinds.count(CellKind.BLACK_TETRAHEDRON) == 4
    assert kinds.count(CellKind.WHITE_TETRAHEDRON) == 4
    assert kinds.count(CellKind.OCTAHEDRON) == 6
    for label, manifold, vertex in criterion_6_flowers():
        star = flower(manifold, vertex)
        pairs = decompose_flower(star, vertex)
        pad = 1 if star.cells()[0].family == "cubic" else 2
        assert corner_sum(pairs) == star.padded(pad), label
    report(6, "combinatorial exactness", time.perf_counter() - start, 5.0)


def test_criterion_7_euler_lagrange_decomposition():
    start = time.perf_counter()
    cfg = SuiteConfig(trials=4)
    worst = 0.0
    for case_index, (label, manifold, vertex) in enumerate(criterion_6_flowers()):
        star = flower(manifold, vertex)
        supports = [
            c for c in star.cells()
            if c.kind in (CellKind.OCTAHEDRON, CellKind.CUBE3)
        ]
        points = set()
        for c in star.cells():
            points.update(vertices(c))
        for trial in range(4):
            rng = np.random.default_rng([71, case_index, trial])
            field = _random_plain_field(rng, points, supports, config.FD_MARGIN)
            record = check_euler_lagrange_sum(
                manifold, vertex, field, cfg, extension_seed=trial
            )
            worst = max(worst, record.observed)
            assert record.observed <= 1e-6, label
    report(7, "Euler-Lagrange corner decomposition", time.perf_counter() - start, 10.0)


def test_criterion_8_negative_control():
    start = time.perf_counter()
    cells = [
        OrientedCell(CellKind.BLACK_AMBO4, Z5, (0, 1, 2, 3, 4)),
        OrientedCell(CellKind.WHITE_AMBO4, Z5, (0, 1, 2, 3, 4)),
        OrientedCell(CellKind.CUBE4, Z4, (0, 1, 2, 3)),
    ]
    false_positives = 0
    for trial in range(TRIALS):
        cell = cells[trial % len(cells)]
        rng = np.random.default_rng([81, trial])
        field = _random_plain_field(
            rng, vertices(cell), _relation_supports(cell), config.DRAW_FLOOR
        )
        rep = classify_branch(field, cell, tolerance=1e-7)
        if rep.branch is not VBranch.NEITHER:
            false_positives += 1
    assert false_positives == 0
    report(8, "negative control", time.perf_counter() - start, 5.0)
