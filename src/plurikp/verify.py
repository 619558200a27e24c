"""Executable verification: branch classification, closure, gradient checks,
Euler-Lagrange decomposition, combinatorial exactness, and seeded suites.

Every check produces CheckRecord rows with a single scalar comparison
(pass iff |observed - expected| <= tolerance), so reports stay diffable.
Randomized checks derive one PCG64 generator per (seed, check, trial), which
makes suites bit-reproducible and independent of the order of trials.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import zlib
from dataclasses import dataclass, field as dc_field
from typing import Callable, Iterable, Mapping

import numpy as np

from . import config
from .cells import (
    Chain,
    CellKind,
    FOUR_CELL_KINDS,
    OrientedCell,
    Point,
    boundary,
    corner,
    cubic_point_flower,
    decompose_flower,
    facets,
    flower,
    qan_point_flower,
    vertices,
)
from .dilog import skew_dilog, special_value_table
from .dkp import (
    Branch,
    Field,
    ambo_ivp_points,
    cube_ivp_points,
    dkp_minus_residual_relative,
    dkp_residual,
    dkp_residual_relative,
    golden_field,
    golden_sign_pattern,
    golden_solution,
    invert_field,
    monomial_sign_pattern,
    nonsingularity_margin,
    six_points,
    solve_ambo_ivp,
    solve_cube_ivp,
    system_on_4cell,
)
from .errors import (
    BranchError,
    ConfigError,
    InconclusiveBranchError,
    NoCornerEquationError,
    PluriKPError,
    SingularFieldError,
)
from .lagrangian import (
    action,
    corner_product,
    corner_residual,
    exterior_derivative,
    three_form,
)

__all__ = [
    "BranchReport",
    "CheckRecord",
    "SuiteConfig",
    "SuiteResult",
    "check_closure",
    "check_euler_lagrange_sum",
    "classify_branch",
    "corner_vertices",
    "run_suite",
]

PI2_4 = math.pi**2 / 4.0
PI2_20 = math.pi**2 / 20.0

# Margin used when drawing random exact solutions (keeps corner products
# accurate to well below the 1e-8 acceptance tolerance).
_SOLUTION_MARGIN = 1e-5
# Margin for auxiliary-direction extensions in the corner-sum check: the
# analytic residuals only need well-conditioned logarithms there, nothing
# is finite-differenced through the auxiliary cells.
_EXTENSION_MARGIN = 1e-3
_MAX_REDRAWS = 500


# --- records and configuration ----------------------------------------------


@dataclass(frozen=True)
class CheckRecord:
    """One verification outcome; passed iff |observed-expected| <= tolerance."""

    check_id: str
    params_digest: str
    observed: float
    expected: float
    tolerance: float
    passed: bool
    seed: int

    def as_dict(self) -> dict:
        return {
            "check_id": self.check_id,
            "params_digest": self.params_digest,
            "observed": self.observed,
            "expected": self.expected,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class BranchReport:
    """Classification of a field on a 4-cell with per-corner factors."""

    branch: Branch
    corner_factors: dict[Point, tuple[float, ...]]
    max_dev_minus: float
    max_dev_plus: float
    max_dkp_relative: float
    max_dkp_minus_relative: float


@dataclass(frozen=True)
class SuiteConfig:
    lattice: str = "qan"
    dim: int = config.DEFAULT_DIM
    trials: int = config.DEFAULT_TRIALS
    seed: int = config.DEFAULT_SEED
    tolerances: dict = dc_field(default_factory=dict)

    def validate(self) -> None:
        if self.lattice not in ("qan", "cubic"):
            raise ConfigError(f"lattice must be 'qan' or 'cubic', got {self.lattice!r}")
        try:
            dim, trials, seed = int(self.dim), int(self.trials), int(self.seed)
            overrides = {name: float(v) for name, v in dict(self.tolerances).items()}
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"non-numeric suite setting: {exc}") from exc
        if not 3 <= dim <= config.MAX_DIM:
            raise ConfigError(f"dim must be in [3, {config.MAX_DIM}], got {self.dim}")
        if trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        unknown = set(overrides) - set(config.TOLERANCES)
        if unknown:
            raise ConfigError(f"unknown tolerance overrides: {sorted(unknown)}")
        for name, value in overrides.items():
            if not 0.0 <= value < math.inf:
                raise ConfigError(f"tolerance {name} must be finite and >= 0: {value}")

    def tolerance(self, name: str) -> float:
        return float(self.tolerances.get(name, config.TOLERANCES[name]))


@dataclass(frozen=True)
class SuiteResult:
    records: tuple[CheckRecord, ...]
    config: SuiteConfig

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.records)

    def summary(self) -> dict:
        deviations = [abs(r.observed - r.expected) for r in self.records]
        return {
            "total": len(self.records),
            "passed": sum(r.passed for r in self.records),
            "failed": sum(not r.passed for r in self.records),
            "max_deviation": max(deviations) if deviations else 0.0,
            "lattice": self.config.lattice,
            "dim": self.config.dim,
            "trials": self.config.trials,
            "seed": self.config.seed,
        }


def _digest(cfg: SuiteConfig, check_id: str, tolerance: float) -> str:
    blob = f"{check_id}|{cfg.lattice}|{cfg.dim}|{cfg.trials}|{cfg.seed}|{tolerance}"
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _record(
    cfg: SuiteConfig, check_id: str, observed: float, expected: float, tol_name: str
) -> CheckRecord:
    tolerance = cfg.tolerance(tol_name)
    return CheckRecord(
        check_id=check_id,
        params_digest=_digest(cfg, check_id, tolerance),
        observed=float(observed),
        expected=float(expected),
        tolerance=tolerance,
        passed=abs(observed - expected) <= tolerance,
        seed=cfg.seed,
    )


def _rng(cfg: SuiteConfig, check_id: str, trial: int) -> np.random.Generator:
    return np.random.default_rng([cfg.seed, zlib.crc32(check_id.encode()), trial])


# --- random data -------------------------------------------------------------


def _draw_value(rng: np.random.Generator) -> float:
    magnitude = float(rng.uniform(0.5, 2.0))
    return magnitude if rng.random() < 0.5 else -magnitude


def _draw_field(rng: np.random.Generator, points: Iterable[Point]) -> Field:
    return {tuple(p): _draw_value(rng) for p in points}


def _random_solution(
    rng: np.random.Generator,
    cell4: OrientedCell,
    margin: float = _SOLUTION_MARGIN,
    component: str = "any",
) -> Field:
    """Seven- or nine-point completion redrawn until comfortably nonsingular.

    component="golden" restricts the draw to the connected component of the
    constant solution (identified by its monomial sign pattern), where the
    closure constants take their reference values.  component="any" leaves
    the sign pattern of the initial data free.
    """
    if cell4.kind is CellKind.CUBE4:
        required, _ = cube_ivp_points(cell4)
        solve = solve_cube_ivp
    else:
        required, _ = ambo_ivp_points(cell4)
        solve = solve_ambo_ivp
    supports = system_on_4cell(cell4)
    target = golden_sign_pattern(cell4) if component == "golden" else None
    if target is not None:
        reference = golden_solution(cell4)
        signs = [math.copysign(1.0, reference[p]) for p in required]
    for _ in range(_MAX_REDRAWS):
        if target is None:
            data = _draw_field(rng, required)
        else:
            data = {
                p: s * float(rng.uniform(0.5, 2.0))
                for p, s in zip(required, signs)
            }
        try:
            solution = solve(cell4, data)
        except SingularFieldError:
            continue
        if min(abs(v) for v in solution.values()) < config.DRAW_FLOOR:
            continue
        if target is not None and monomial_sign_pattern(solution, cell4) != target:
            continue
        if nonsingularity_margin(solution, supports) < margin:
            continue
        return solution
    raise SingularFieldError("could not draw a nonsingular solution")


def _random_plain_field(
    rng: np.random.Generator,
    points: Iterable[Point],
    supports: Iterable[OrientedCell],
    margin: float,
) -> Field:
    points = tuple(points)
    supports = tuple(supports)
    for _ in range(_MAX_REDRAWS):
        candidate = _draw_field(rng, points)
        if not supports or nonsingularity_margin(candidate, supports) >= margin:
            return candidate
    raise SingularFieldError("could not draw a field with the requested margin")


def _relation_supports(cell4: OrientedCell) -> tuple[OrientedCell, ...]:
    if cell4.kind in (CellKind.BLACK_SIMPLEX4, CellKind.WHITE_SIMPLEX4):
        return ()
    return system_on_4cell(cell4)


# --- classification and closure ----------------------------------------------


def corner_vertices(cell4: OrientedCell) -> tuple[Point, ...]:
    """Vertices of a 4-cell on some relation support, which are the ones
    carrying corner equations (all ten on ambo cells, fourteen on a 4D cube)."""
    return tuple(
        sorted({p for s in system_on_4cell(cell4) for p in six_points(s)})
    )


def classify_branch(
    field: Mapping[Point, float],
    cell4: OrientedCell,
    tolerance: float = config.TOLERANCES["classify"],
    neither_floor: float = config.TOLERANCES["neither_floor"],
    system_tolerance: float = config.TOLERANCES["system_rel"],
) -> BranchReport:
    """Classify a nonsingular field on a 4-cell by its corner factors.

    A branch is assigned only when every factor sits within `tolerance` of
    the branch unit and the matching relation system agrees to
    `system_tolerance` (relative); 'neither' needs every factor at least
    `neither_floor` away from both units, and the zone in between raises
    InconclusiveBranchError rather than mislabel borderline numerics.
    """
    factors: dict[Point, tuple[float, ...]] = {}
    for vertex in corner_vertices(cell4):
        factors[vertex] = corner_product(field, cell4, vertex).factors
    flat = [f for fs in factors.values() for f in fs]
    dev_minus = max(abs(f + 1.0) for f in flat)
    dev_plus = max(abs(f - 1.0) for f in flat)
    supports = system_on_4cell(cell4)
    max_dkp = max(dkp_residual_relative(field, s) for s in supports)
    max_minus = max(dkp_minus_residual_relative(field, s) for s in supports)
    if dev_minus <= tolerance and max_dkp <= system_tolerance:
        branch = Branch.DKP
    elif dev_plus <= tolerance and max_minus <= system_tolerance:
        branch = Branch.DKP_MINUS
    elif min(dev_minus, dev_plus) > neither_floor:
        branch = Branch.NEITHER
    else:
        raise InconclusiveBranchError(
            f"corner factors in the gray zone: dev-={dev_minus:.3e},"
            f" dev+={dev_plus:.3e}"
        )
    return BranchReport(
        branch=branch,
        corner_factors=factors,
        max_dev_minus=dev_minus,
        max_dev_plus=dev_plus,
        max_dkp_relative=max_dkp,
        max_dkp_minus_relative=max_minus,
    )


def closure_constant(cell4: OrientedCell, branch: Branch) -> float:
    """Expected exterior derivative on solutions of the given branch."""
    if cell4.kind is CellKind.CUBE4:
        return 0.0
    if branch is Branch.DKP:
        return -PI2_4 * cell4.sign
    if branch is Branch.DKP_MINUS:
        return PI2_4 * cell4.sign
    raise BranchError(f"no closure constant for branch {branch}")


def check_closure(
    field: Mapping[Point, float],
    cell4: OrientedCell,
    cfg: SuiteConfig | None = None,
) -> CheckRecord:
    """Closure of the 3-form on one classified solution."""
    cfg = cfg or SuiteConfig()
    report = classify_branch(
        field,
        cell4,
        tolerance=cfg.tolerance("classify"),
        neither_floor=cfg.tolerance("neither_floor"),
        system_tolerance=cfg.tolerance("system_rel"),
    )
    if report.branch is Branch.NEITHER:
        raise BranchError("closure is only claimed on solutions")
    observed = exterior_derivative(field, cell4)
    expected = closure_constant(cell4, report.branch)
    return _record(
        cfg, f"closure-{cell4.kind.value}", observed, expected, "golden_closure"
    )


# --- finite differences -------------------------------------------------------


def _central_difference(
    fn: Callable[[Mapping[Point, float]], float],
    field: Mapping[Point, float],
    point: Point,
    step: float,
) -> float:
    """Central difference of fn in the value at one point."""
    up = dict(field)
    down = dict(field)
    up[point] = field[point] + step
    down[point] = field[point] - step
    return (fn(up) - fn(down)) / (2 * step)


def _fd_action(
    field: Mapping[Point, float],
    chain: Chain,
    vertex: Point,
    step: float = config.FD_STEP,
) -> float:
    vertex = tuple(vertex)
    local = chain.restricted_to_vertex(vertex)
    return _central_difference(lambda f: action(f, local), field, vertex, step)


def check_euler_lagrange_sum(
    manifold: Chain,
    vertex: Point,
    field: Mapping[Point, float],
    cfg: SuiteConfig | None = None,
    extension_seed: int = 0,
) -> CheckRecord:
    """Compare the action gradient at a flower center with the corner sum.

    The flower is decomposed into 4D corners over auxiliary directions; the
    auxiliary vertices get seeded random values, which cannot change the sum
    because their cells cancel in chains.  The left side is a central finite
    difference of the flower action, the right side the sum of analytic
    corner residuals.
    """
    cfg = cfg or SuiteConfig()
    vertex = tuple(vertex)
    star = flower(manifold, vertex)
    pairs = decompose_flower(star, vertex)
    family = star.cells()[0].family
    extra = 2 if family == "qan" else 1
    padded_vertex = vertex + (0,) * extra
    padded_field: Field = {p + (0,) * extra: float(v) for p, v in field.items()}
    padded_star = star.padded(extra)

    needed: set[Point] = set()
    supports: list[OrientedCell] = []
    for cell4, _ in pairs:
        needed.update(vertices(cell4))
        supports.extend(_relation_supports(cell4))
    missing = sorted(needed - set(padded_field))
    rng = np.random.default_rng(
        [cfg.seed, zlib.crc32(b"el-sum-extension"), extension_seed]
    )
    for _ in range(_MAX_REDRAWS):
        trial_field = dict(padded_field)
        trial_field.update(_draw_field(rng, missing))
        if nonsingularity_margin(trial_field, supports) >= _EXTENSION_MARGIN:
            padded_field = trial_field
            break
    else:
        raise SingularFieldError("no nonsingular extension found for the corner sum")

    lhs = _fd_action(padded_field, padded_star, padded_vertex)
    rhs = 0.0
    for cell4, center in pairs:
        try:
            rhs += corner_residual(padded_field, cell4, center)
        except NoCornerEquationError:
            continue
    return _record(cfg, "el-sum", abs(lhs - rhs), 0.0, "el_sum")


# --- rank probes ---------------------------------------------------------------


def _numeric_rank(matrix: np.ndarray) -> int:
    singular = np.linalg.svd(matrix, compute_uv=False)
    if singular.size == 0 or singular[0] == 0.0:
        return 0
    return int(np.sum(singular > 1e-8 * singular[0]))


def _jacobian(
    functions: list[Callable[[Mapping[Point, float]], float]],
    field: Field,
    points: list[Point],
    step: float = 1e-7,
) -> np.ndarray:
    return np.array(
        [[_central_difference(fn, field, p, step) for p in points] for fn in functions]
    )


def cube_freedom_probe(cfg: SuiteConfig) -> tuple[int, int]:
    """(free vertex count, rank of the solved columns) for the 4D-cube system."""
    cell = OrientedCell(CellKind.CUBE4, (0,) * max(4, cfg.dim), tuple(range(4)))
    rng = _rng(cfg, "cube-ivp-freedom", 0)
    solution = _random_solution(rng, cell)
    points = sorted(solution)
    functions = [
        (lambda f, s=s: dkp_residual(f, s)) for s in system_on_4cell(cell)
    ]
    jac = _jacobian(functions, solution, points)
    rank = _numeric_rank(jac)
    _, solved = cube_ivp_points(cell)
    solved_cols = [points.index(p) for p in solved]
    solved_rank = _numeric_rank(jac[:, solved_cols])
    return len(points) - rank, solved_rank


def ambo_corner_rank_probe(cfg: SuiteConfig) -> int:
    """Numeric Jacobian rank of the ten corner equations at a random solution."""
    cell = OrientedCell(CellKind.BLACK_AMBO4, (0,) * (cfg.dim + 1), tuple(range(5)))
    rng = _rng(cfg, "info-ambo-corner-rank", 0)
    solution = _random_solution(rng, cell, margin=0.01)
    points = sorted(solution)
    functions = [
        (lambda f, v=v: corner_residual(f, cell, v)) for v in corner_vertices(cell)
    ]
    return _numeric_rank(_jacobian(functions, solution, points))


# --- individual suite checks ---------------------------------------------------


def _check_dilog_values(cfg: SuiteConfig) -> list[CheckRecord]:
    records = []
    labels = {
        "Li2(a^2)": "dilog-value-a2",
        "Li2(-a)": "dilog-value-neg-a",
        "Li2(a)": "dilog-value-a",
        "Li2(1/a)": "dilog-value-inv-a",
    }
    for label, computed, exact in special_value_table():
        records.append(
            _record(cfg, labels[label], computed, exact, "special_values")
        )
    return records


def _check_skew_antisymmetry(cfg: SuiteConfig) -> list[CheckRecord]:
    rng = _rng(cfg, "skew-antisymmetry", 0)
    worst = 0.0
    count = 0
    while count < 10_000:
        z = float(rng.uniform(-50.0, 50.0))
        if abs(z) < 1e-9:
            continue
        worst = max(worst, abs(skew_dilog(z) + skew_dilog(1.0 / z)))
        count += 1
    return [_record(cfg, "skew-antisymmetry", worst, 0.0, "skew_antisymmetry")]


def _ambo_cell(cfg: SuiteConfig, kind: CellKind) -> OrientedCell:
    return OrientedCell(kind, (0,) * (cfg.dim + 1), tuple(range(5)))


def _cube_cell(cfg: SuiteConfig) -> OrientedCell:
    return OrientedCell(CellKind.CUBE4, (0,) * cfg.dim, tuple(range(4)))


def _check_golden(cfg: SuiteConfig) -> list[CheckRecord]:
    records = []
    for kind, tag in (
        (CellKind.BLACK_AMBO4, "black"),
        (CellKind.WHITE_AMBO4, "white"),
    ):
        cell = _ambo_cell(cfg, kind)
        solution = golden_field(cell, Branch.DKP)
        worst = max(
            abs(three_form(solution, s) + PI2_20) for s in system_on_4cell(cell)
        )
        records.append(
            _record(cfg, f"golden-octahedron-{tag}", worst, 0.0, "golden_three_form")
        )
        records.append(
            _record(
                cfg,
                f"golden-closure-{tag}",
                exterior_derivative(solution, cell),
                -PI2_4,
                "golden_closure",
            )
        )
        inverse = golden_field(cell, Branch.DKP_MINUS)
        records.append(
            _record(
                cfg,
                f"golden-closure-{tag}-inverse",
                exterior_derivative(inverse, cell),
                PI2_4,
                "golden_closure",
            )
        )
    return records


def _closure_value_set(cell: OrientedCell) -> tuple[float, ...]:
    # Per component the facet action is constant; over all components of the
    # real nonsingular solution set it takes these values (checked below).
    if cell.kind is CellKind.CUBE4:
        return (0.0, -2.0 * PI2_4, 2.0 * PI2_4)
    return (-PI2_4, PI2_4)


def _branch_closure_trial(
    cfg: SuiteConfig, cell: OrientedCell, check_id: str, trial: int
) -> tuple[float, ...]:
    rng = _rng(cfg, check_id, trial)
    # Reference-component solution: closure must hit the golden constant.
    solution = _random_solution(rng, cell, component="golden")
    mislabeled = 0
    report = classify_branch(solution, cell)
    if report.branch is not Branch.DKP:
        mislabeled += 1
    s_value = exterior_derivative(solution, cell)
    inverse = invert_field(solution)
    inverse_report = classify_branch(inverse, cell)
    if inverse_report.branch is not Branch.DKP_MINUS:
        mislabeled += 1
    s_inverse = exterior_derivative(inverse, cell)
    target = closure_constant(cell, Branch.DKP)
    inverse_target = closure_constant(cell, Branch.DKP_MINUS)
    # Unrestricted-component solution: corner units still hold, the closure
    # value must land in the finite component value set.
    free = _random_solution(rng, cell, component="any")
    free_report = classify_branch(free, cell)
    if free_report.branch is not Branch.DKP:
        mislabeled += 1
    s_free = exterior_derivative(free, cell)
    value_gap = min(abs(s_free - v) for v in _closure_value_set(cell))
    return (
        report.max_dev_minus,
        abs(s_value - target),
        inverse_report.max_dev_plus,
        abs(s_inverse - inverse_target),
        free_report.max_dev_minus,
        value_gap,
        mislabeled,
    )


def _check_random_solutions(cfg: SuiteConfig) -> list[CheckRecord]:
    if cfg.lattice == "qan":
        cells = [
            (_ambo_cell(cfg, CellKind.BLACK_AMBO4), "ambo-black"),
            (_ambo_cell(cfg, CellKind.WHITE_AMBO4), "ambo-white"),
        ]
    else:
        cells = [(_cube_cell(cfg), "cube")]
    records = []
    for cell, tag in cells:
        check_id = f"corner-{tag}"
        rows = [
            _branch_closure_trial(cfg, cell, check_id, t) for t in range(cfg.trials)
        ]
        columns = list(zip(*rows))
        records.extend(
            [
                _record(cfg, f"corner-{tag}", max(columns[0]), 0.0, "corner_unit"),
                _record(cfg, f"closure-{tag}", max(columns[1]), 0.0, "closure_random"),
                _record(
                    cfg, f"corner-{tag}-inverse", max(columns[2]), 0.0, "corner_unit"
                ),
                _record(
                    cfg, f"closure-{tag}-inverse", max(columns[3]), 0.0,
                    "closure_random",
                ),
                _record(
                    cfg, f"corner-{tag}-anycomponent", max(columns[4]), 0.0,
                    "corner_unit",
                ),
                _record(
                    cfg, f"closure-{tag}-valueset", max(columns[5]), 0.0,
                    "closure_random",
                ),
                _record(cfg, f"branch-{tag}-mislabels", sum(columns[6]), 0.0, "exact"),
            ]
        )
    return records


def _gradient_trial(
    cfg: SuiteConfig, cell: OrientedCell, check_id: str, trial: int
) -> float:
    rng = _rng(cfg, check_id, trial)
    supports = _relation_supports(cell)
    field = _random_plain_field(rng, vertices(cell), supports, config.FD_MARGIN)
    chain = facets(cell)
    worst = 0.0
    # Without relation supports (4-simplices) every vertex has a zero corner.
    targets = corner_vertices(cell) if supports else sorted(vertices(cell))
    for vertex in targets:
        analytic = corner_residual(field, cell, vertex)
        numeric = _fd_action(field, chain, vertex)
        worst = max(worst, abs(analytic - numeric))
    return worst


def _check_gradient(cfg: SuiteConfig) -> list[CheckRecord]:
    if cfg.lattice == "qan":
        cells = [
            (_ambo_cell(cfg, CellKind.BLACK_AMBO4), "bambo4"),
            (_ambo_cell(cfg, CellKind.WHITE_AMBO4), "wambo4"),
            (_ambo_cell(cfg, CellKind.BLACK_SIMPLEX4), "bsimp4"),
            (_ambo_cell(cfg, CellKind.WHITE_SIMPLEX4), "wsimp4"),
        ]
    else:
        cells = [(_cube_cell(cfg), "cube4")]
    records = []
    for cell, tag in cells:
        check_id = f"gradient-{tag}"
        rows = [_gradient_trial(cfg, cell, check_id, t) for t in range(cfg.trials)]
        records.append(_record(cfg, check_id, max(rows), 0.0, "gradient"))
    return records


def _kind_cells_for_boundary(cfg: SuiteConfig) -> list[OrientedCell]:
    if cfg.lattice == "cubic":
        return [_cube_cell(cfg)]
    return [_ambo_cell(cfg, kind) for kind in FOUR_CELL_KINDS if kind is not CellKind.CUBE4]


def _check_boundary_squared(cfg: SuiteConfig) -> list[CheckRecord]:
    bad_terms = 0
    for ambient_dim in (4, 5, 6):
        if cfg.lattice == "qan":
            ambient = ambient_dim + 1
            kinds = [k for k in FOUR_CELL_KINDS if k is not CellKind.CUBE4]
            n_idx = 5
        else:
            ambient = ambient_dim
            kinds = [CellKind.CUBE4]
            n_idx = 4
        rng = np.random.default_rng([cfg.seed, zlib.crc32(b"ddzero"), ambient_dim])
        for kind in kinds:
            for indices in itertools.combinations(range(ambient), n_idx):
                base = tuple(int(rng.integers(-3, 4)) for _ in range(ambient))
                for sign in (1, -1):
                    cell = OrientedCell(kind, base, indices, sign)
                    bad_terms += len(boundary(facets(cell)))
    return [_record(cfg, "boundary-squared", bad_terms, 0, "exact")]


_FACET_COUNTS = {
    CellKind.BLACK_TETRAHEDRON: {CellKind.BLACK_TRIANGLE: 4},
    CellKind.OCTAHEDRON: {CellKind.BLACK_TRIANGLE: 4, CellKind.WHITE_TRIANGLE: 4},
    CellKind.WHITE_TETRAHEDRON: {CellKind.WHITE_TRIANGLE: 4},
    CellKind.BLACK_SIMPLEX4: {CellKind.BLACK_TETRAHEDRON: 5},
    CellKind.BLACK_AMBO4: {CellKind.BLACK_TETRAHEDRON: 5, CellKind.OCTAHEDRON: 5},
    CellKind.WHITE_AMBO4: {CellKind.OCTAHEDRON: 5, CellKind.WHITE_TETRAHEDRON: 5},
    CellKind.WHITE_SIMPLEX4: {CellKind.WHITE_TETRAHEDRON: 5},
    CellKind.CUBE3: {CellKind.SQUARE: 6},
    CellKind.CUBE4: {CellKind.CUBE3: 8},
}


def _check_facet_counts(cfg: SuiteConfig) -> list[CheckRecord]:
    mismatches = 0
    for kind, expected in _FACET_COUNTS.items():
        if kind in (CellKind.CUBE3, CellKind.CUBE4):
            if cfg.lattice != "cubic":
                continue
            ambient = max(4, cfg.dim)
            n_idx = 3 if kind is CellKind.CUBE3 else 4
        else:
            if cfg.lattice != "qan":
                continue
            ambient = cfg.dim + 1
            n_idx = 4 if kind.value in ("btet", "oct", "wtet") else 5
        cell = OrientedCell(kind, (0,) * ambient, tuple(range(n_idx)))
        seen: dict[CellKind, int] = {}
        for facet_cell, coeff in facets(cell).items():
            if abs(coeff) != 1:
                mismatches += 1
            seen[facet_cell.kind] = seen.get(facet_cell.kind, 0) + 1
        if seen != expected:
            mismatches += 1
    return [_record(cfg, "facet-counts", mismatches, 0, "exact")]


def _standard_flower(cfg: SuiteConfig) -> tuple[Chain, Point]:
    if cfg.lattice == "qan":
        center = (0,) * (cfg.dim + 1)
        return qan_point_flower(center, range(4)), center
    center = (0,) * max(3, cfg.dim)
    return cubic_point_flower(center, range(3)), center


def _glued_flower(
    cfg: SuiteConfig, rng: np.random.Generator
) -> tuple[Chain, Point]:
    """A randomized flower glued from two adjacent 4-cell boundaries."""
    if cfg.lattice == "cubic":
        base = tuple(int(rng.integers(-2, 3)) for _ in range(max(4, cfg.dim)))
        first = OrientedCell(CellKind.CUBE4, base, tuple(range(4)))
        m = first.indices[-1]
        second = OrientedCell(CellKind.CUBE4, first.shifted(m).base, first.indices)
        manifold = facets(first) + facets(second)
        shared = sorted(vertices(first) & vertices(second))
        vertex = shared[int(rng.integers(0, len(shared)))]
        return flower(manifold, vertex), vertex
    base = tuple(int(rng.integers(-2, 3)) for _ in range(cfg.dim + 1))
    pairings = (
        (CellKind.BLACK_SIMPLEX4, CellKind.BLACK_AMBO4),
        (CellKind.BLACK_AMBO4, CellKind.WHITE_AMBO4),
        (CellKind.WHITE_AMBO4, CellKind.WHITE_SIMPLEX4),
    )
    kind_a, kind_b = pairings[int(rng.integers(0, len(pairings)))]
    first = OrientedCell(kind_a, base, tuple(range(5)))
    m = first.indices[-1]
    second = OrientedCell(kind_b, first.shifted(m, -1).base, first.indices, -1)
    manifold = facets(first) + facets(second)
    shared = sorted(vertices(first) & vertices(second))
    vertex = shared[int(rng.integers(0, len(shared)))]
    return flower(manifold, vertex), vertex


def _check_flower_decomposition(cfg: SuiteConfig) -> list[CheckRecord]:
    failures = 0
    flowers: list[tuple[Chain, Point]] = []
    # Boundary flowers of every supported 4-cell kind at every vertex.
    # 4-cells need five directions, so they only exist from dimension 4 on.
    if cfg.dim >= 4:
        for cell in _kind_cells_for_boundary(cfg):
            for vertex in sorted(vertices(cell)):
                star = flower(facets(cell), vertex)
                if star != corner(cell, vertex):
                    failures += 1
                flowers.append((star, vertex))
    # Full sub-lattice star.
    flowers.append(_standard_flower(cfg))
    # Randomized glued flowers.
    if cfg.dim >= 4:
        for trial in range(min(cfg.trials, 20)):
            flowers.append(_glued_flower(cfg, _rng(cfg, "flower-glued", trial)))
    for star, vertex in flowers:
        try:
            decompose_flower(star, vertex)
        except PluriKPError:
            failures += 1
    return [_record(cfg, "flower-decomposition", failures, 0, "exact")]


def _check_el_sum(cfg: SuiteConfig) -> list[CheckRecord]:
    records = []
    cases: list[tuple[str, Chain, Point]] = []
    if cfg.dim >= 4:
        for cell in _kind_cells_for_boundary(cfg):
            cell_vertices = sorted(vertices(cell))
            # Two corner centers per kind; the middle one is never the inert
            # base corner of a 4D cube.
            for vertex in (cell_vertices[0], cell_vertices[len(cell_vertices) // 2]):
                cases.append((f"el-sum-corner-{cell.kind.value}", facets(cell), vertex))
    star, center = _standard_flower(cfg)
    tag = "el-sum-star-qan" if cfg.lattice == "qan" else "el-sum-star-cubic"
    cases.append((tag, star, center))
    worst_by_id: dict[str, float] = {}
    for case_index, (check_id, manifold, vertex) in enumerate(cases):
        star = flower(manifold, vertex)
        supports = [
            cell for cell in star.cells()
            if cell.kind in (CellKind.OCTAHEDRON, CellKind.CUBE3)
        ]
        points = set()
        for cell in star.cells():
            points.update(vertices(cell))
        worst = worst_by_id.get(check_id, 0.0)
        for trial in range(min(cfg.trials, 8)):
            rng = _rng(cfg, check_id, 1000 * case_index + trial)
            field = _random_plain_field(rng, points, supports, config.FD_MARGIN)
            row = check_euler_lagrange_sum(
                manifold, vertex, field, cfg, extension_seed=1000 * case_index + trial
            )
            worst = max(worst, row.observed)
        worst_by_id[check_id] = worst
    for check_id, worst in worst_by_id.items():
        records.append(_record(cfg, check_id, worst, 0.0, "el_sum"))
    return records


def _negative_trial(cfg: SuiteConfig, cell: OrientedCell, trial: int) -> int:
    rng = _rng(cfg, "negative-control", trial)
    field = _random_plain_field(
        rng, vertices(cell), _relation_supports(cell), config.DRAW_FLOOR
    )
    try:
        report = classify_branch(field, cell)
    except InconclusiveBranchError:
        return 1
    return 0 if report.branch is Branch.NEITHER else 1


def _check_negative_control(cfg: SuiteConfig) -> list[CheckRecord]:
    if cfg.lattice == "qan":
        cell = _ambo_cell(cfg, CellKind.BLACK_AMBO4)
    else:
        cell = _cube_cell(cfg)
    rows = [_negative_trial(cfg, cell, t) for t in range(cfg.trials)]
    return [_record(cfg, "negative-control", sum(rows), 0, "exact")]


def _check_rank_probes(cfg: SuiteConfig) -> list[CheckRecord]:
    records = []
    if cfg.lattice == "qan":
        rank = ambo_corner_rank_probe(cfg)
        # Informational: recorded, not asserted against a theory value.
        records.append(_record(cfg, "info-ambo-corner-rank", rank, rank, "exact"))
    else:
        free, solved_rank = cube_freedom_probe(cfg)
        records.append(_record(cfg, "cube-ivp-freedom", free, 9, "exact"))
        records.append(_record(cfg, "cube-ivp-solved-rank", solved_rank, 5, "exact"))
    return records


_CHECKS: tuple[tuple[str, int, Callable[[SuiteConfig], list[CheckRecord]]], ...] = (
    ("both", 3, _check_dilog_values),
    ("both", 3, _check_skew_antisymmetry),
    ("qan", 4, _check_golden),
    ("both", 4, _check_random_solutions),
    ("both", 4, _check_gradient),
    ("both", 4, _check_boundary_squared),
    ("both", 4, _check_facet_counts),
    ("both", 3, _check_flower_decomposition),
    ("both", 3, _check_el_sum),
    ("both", 4, _check_negative_control),
    ("both", 4, _check_rank_probes),
)


def run_suite(cfg: SuiteConfig) -> SuiteResult:
    """Run every registered check matching the configured lattice.

    Deterministic for a fixed config: each randomized trial seeds its own
    generator from (seed, check id, trial index).
    """
    cfg.validate()
    records: list[CheckRecord] = []
    for scope, min_dim, check in _CHECKS:
        if scope != "both" and scope != cfg.lattice:
            continue
        if cfg.dim < min_dim:
            continue
        records.extend(check(cfg))
    return SuiteResult(records=tuple(records), config=cfg)
