"""Executable verification: branch classification, closure, gradient checks,
Euler-Lagrange decomposition, combinatorial exactness, and seeded suites.

Every check produces CheckRecord rows with a single scalar comparison
(pass iff |observed - expected| <= tolerance), so reports stay diffable.
Randomized checks draw trial t of a check from the PCG64 stream of
np.random.default_rng([seed, crc32(check id), t]) (_rng, the one seeding
recipe), which makes suites bit-reproducible and independent of the order
of trials.

Every random field comes from the samplers of _batch (plain_fields and
solutions) over _streams.Streams, the generators of _rng as uint64 rows: the
trial loops (corner and closure trials, gradients, negative control), the
el-sum fields and their extensions, and the rank probes' solutions.  Trials
run in chunks of up to config.TRIAL_CHUNK, so memory does not grow with the
trial count.  The trial loops evaluate on the _batch kernels; the golden,
el-sum and rank-probe checks and `plurikp solve` evaluate with the scalar
functions (classify_branch, three_form, exterior_derivative, corner_residual,
the finite differences), which are also the reference the kernels are tested
against.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import operator
import zlib
from dataclasses import dataclass, field as dc_field
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from . import _batch, config
from ._streams import Streams
from .cells import (
    LATTICES,
    Chain,
    CellKind,
    OrientedCell,
    Point,
    boundary,
    corner,
    decompose_flower,
    facets,
    flower,
    vertices,
)
# skew_dilog, corner_product, solve_ambo_ivp, solve_cube_ivp,
# nonsingularity_margin and monomial_sign_pattern are no longer called here,
# but stay bound: the benchmark's tracer wraps verify.<name> for each of them.
from .dilog import skew_dilog, skew_dilog_array, special_value_table
from .dkp import (
    Branch,
    Field,
    _inverse_terms,
    _relative,
    dkp_residual,
    golden_field,
    ivp_points,
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
    MissingVertexError,
    NoCornerEquationError,
    PluriKPError,
)
from .lagrangian import (
    _corner_from,
    _corner_table,
    _regular_monomials,
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


def _integer_setting(name: str, value: object) -> int:
    """An int or numpy integer, exactly: floats, text and bools (which int()
    would truncate, parse or read as 0 and 1) raise ConfigError."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ConfigError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class SuiteConfig:
    lattice: str = "qan"
    dim: int = config.DEFAULT_DIM
    trials: int = config.DEFAULT_TRIALS
    seed: int = config.DEFAULT_SEED
    tolerances: dict = dc_field(default_factory=dict)

    def validate(self) -> None:
        if not isinstance(self.lattice, str) or self.lattice not in LATTICES:
            raise ConfigError(f"lattice must be 'qan' or 'cubic', got {self.lattice!r}")
        dim, trials, seed = (
            _integer_setting(name, getattr(self, name))
            for name in ("dim", "trials", "seed")
        )
        try:
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
    observed = float(observed)
    return CheckRecord(
        check_id=check_id,
        params_digest=_digest(cfg, check_id, tolerance),
        observed=observed,
        expected=float(expected),
        tolerance=tolerance,
        passed=abs(observed - expected) <= tolerance,
        seed=cfg.seed,
    )


def _rng(cfg: SuiteConfig, check_id: str, trial: int) -> np.random.Generator:
    return np.random.default_rng([cfg.seed, zlib.crc32(check_id.encode()), trial])


# --- random data -------------------------------------------------------------


def _random_solution(
    cfg: SuiteConfig,
    check_id: str,
    cell4: OrientedCell,
    margin: float = _SOLUTION_MARGIN,
) -> Field:
    """Trial 0 of a check's random solutions (any component) on a 4-cell."""
    tab = _batch.tables(cell4)
    (row,) = _batch.solutions(tab, Streams(cfg.seed, check_id, [0]), margin, "any")
    return {p: v for p, v in zip(tab.points, row.tolist()) if not math.isnan(v)}


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
    # Each triple's monomials are read once and shared by every corner.
    table = _corner_table(cell4)
    monomials = [_regular_monomials(field, points) for points in table.triples]
    factors = {
        vertex: _corner_from(monomials, table.corners[vertex]).factors
        for vertex in corner_vertices(cell4)
    }
    flat = [f for fs in factors.values() for f in fs]
    dev_minus = max(abs(f + 1.0) for f in flat)
    dev_plus = max(abs(f - 1.0) for f in flat)
    supports = system_on_4cell(cell4)
    max_dkp = max(_relative(m, s) for m, s in zip(monomials, supports))
    max_minus = max(
        _relative(_inverse_terms(m), s) for m, s in zip(monomials, supports)
    )
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


@dataclass(frozen=True)
class _CornerFrame:
    """The field-independent half of an EL-sum case at one flower center."""

    points: tuple[Point, ...]  # the flower's vertices: the columns of its fields
    star_supports: np.ndarray  # (S, 6) columns of its octahedra and 3D cubes
    pairs: tuple[tuple[OrientedCell, Point], ...]  # decompose_flower's corners
    padded_vertex: Point  # the center, with one zero per auxiliary direction
    padded_star: Chain
    # The padded points, then the corners' other vertices in sorted order.
    columns: tuple[Point, ...]
    supports: np.ndarray  # (S', 6) columns of the corners' relation supports


def _corner_frame(manifold: Chain, vertex: Point) -> _CornerFrame:
    """Flower, corners, padding and sampling columns at a vertex, built once
    per chain and kept on it: the suite checks each flower under several
    fields."""

    def build() -> _CornerFrame:
        star = flower(manifold, vertex)
        star_points: set[Point] = set()
        for cell in star.cells():
            star_points.update(vertices(cell))
        points = tuple(star_points)
        pairs = tuple(decompose_flower(star, vertex))
        pad = (0,) * LATTICES[star.cells()[0].family].aux
        padded = tuple(p + pad for p in points)
        needed: set[Point] = set()
        for cell4, _ in pairs:
            needed.update(vertices(cell4))
        columns = padded + tuple(sorted(needed - set(padded)))
        relations = (CellKind.OCTAHEDRON, CellKind.CUBE3)
        star_supports = [c for c in star.cells() if c.kind in relations]
        supports = [s for cell4, _ in pairs for s in _relation_supports(cell4)]
        return _CornerFrame(
            points, _batch.six_columns(points, star_supports), pairs, vertex + pad,
            star.padded(len(pad)), columns, _batch.six_columns(columns, supports),
        )

    return manifold.memo(("corner-frame", vertex), build)


def _el_sum_gaps(
    frame: _CornerFrame, seed: int, star: np.ndarray, trials: Sequence[int]
) -> list[float]:
    """|flower action gradient - corner residual sum| at the center, per
    trial: the flower takes the trial's row of `star`, the corners' other
    vertices values drawn from its "el-sum-extension" stream."""
    streams = Streams(seed, "el-sum-extension", trials)
    rows = _batch.plain_fields(
        frame.supports, len(frame.columns), streams, _EXTENSION_MARGIN, fixed=star
    )
    gaps = []
    for row in rows.tolist():
        field = dict(zip(frame.columns, row))
        lhs = _fd_action(field, frame.padded_star, frame.padded_vertex)
        rhs = 0.0
        for cell4, center in frame.pairs:
            try:
                rhs += corner_residual(field, cell4, center)
            except NoCornerEquationError:
                continue
        gaps.append(abs(lhs - rhs))
    return gaps


def check_euler_lagrange_sum(
    manifold: Chain,
    vertex: Point,
    field: Mapping[Point, float],
    cfg: SuiteConfig | None = None,
    extension_seed: int = 0,
) -> CheckRecord:
    """Compare the action gradient at a flower center with the corner sum.

    The flower is decomposed into 4D corners over auxiliary directions.  The
    field must hold a value at every vertex of the flower (MissingVertexError
    otherwise); the corners' other vertices get seeded random values (trial
    `extension_seed` of the "el-sum-extension" streams), which cannot change
    the sum because their cells cancel in chains.  The left side is a central
    finite difference of the flower action, the right side the sum of
    analytic corner residuals.
    """
    cfg = cfg or SuiteConfig()
    cfg.validate()
    trial = _integer_setting("extension_seed", extension_seed)
    if not 0 <= trial < 2**64:
        raise ConfigError(f"extension_seed must be in [0, 2**64), got {trial}")
    frame = _corner_frame(manifold, tuple(vertex))
    missing = [p for p in frame.points if p not in field]
    if missing:
        raise MissingVertexError(f"no field value at flower vertex {missing[0]}")
    star = np.array([[float(field[p]) for p in frame.points]])
    (gap,) = _el_sum_gaps(frame, cfg.seed, star, [trial])
    return _record(cfg, "el-sum", gap, 0.0, "el_sum")


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
    cell = LATTICES["cubic"].cell(CellKind.CUBE4, cfg.dim)
    solution = _random_solution(cfg, "cube-ivp-freedom", cell)
    points = sorted(solution)
    functions = [
        (lambda f, s=s: dkp_residual(f, s)) for s in system_on_4cell(cell)
    ]
    jac = _jacobian(functions, solution, points)
    rank = _numeric_rank(jac)
    _, solved = ivp_points(cell)
    solved_cols = [points.index(p) for p in solved]
    solved_rank = _numeric_rank(jac[:, solved_cols])
    return len(points) - rank, solved_rank


def ambo_corner_rank_probe(cfg: SuiteConfig) -> int:
    """Numeric Jacobian rank of the ten corner equations at a random solution."""
    cell = LATTICES["qan"].cell(CellKind.BLACK_AMBO4, cfg.dim)
    solution = _random_solution(cfg, "info-ambo-corner-rank", cell, margin=0.01)
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


def _nonzero_draws(rng: np.random.Generator, count: int) -> np.ndarray:
    """The first `count` draws uniform in [-50, 50] with |z| >= 1e-9, as a
    one-at-a-time loop that skips the others takes them."""
    z = np.empty(0)
    while len(z) < count:
        more = rng.uniform(-50.0, 50.0, size=count - len(z))
        z = np.concatenate([z, more[np.abs(more) >= 1e-9]])
    return z


def _check_skew_antisymmetry(cfg: SuiteConfig) -> list[CheckRecord]:
    z = _nonzero_draws(_rng(cfg, "skew-antisymmetry", 0), 10_000)
    worst = float(np.max(np.abs(skew_dilog_array(z) + skew_dilog_array(1.0 / z))))
    return [_record(cfg, "skew-antisymmetry", worst, 0.0, "skew_antisymmetry")]


def _check_golden(cfg: SuiteConfig) -> list[CheckRecord]:
    records = []
    for kind, tag in (
        (CellKind.BLACK_AMBO4, "black"),
        (CellKind.WHITE_AMBO4, "white"),
    ):
        cell = LATTICES["qan"].cell(kind, cfg.dim)
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


def _trial_chunks(
    cfg: SuiteConfig, check_id: str, trials: range | None = None
) -> Iterator[Streams]:
    """The streams (those of _rng) of the trials, range(cfg.trials) unless
    given, in consecutive chunks of at most TRIAL_CHUNK."""
    trials = range(cfg.trials) if trials is None else trials
    for start in range(0, len(trials), config.TRIAL_CHUNK):
        yield Streams(cfg.seed, check_id, trials[start : start + config.TRIAL_CHUNK])


def _solution_trials(cell: OrientedCell, streams: Streams) -> np.ndarray:
    """Per trial: the six worst deviations of the random-solution checks, in
    record order, and the number of mislabeled branches."""
    tab = _batch.tables(cell)
    # Reference-component solutions: closure must hit the golden constant,
    # and their inverses the inverse one.
    solution = _batch.solutions(tab, streams, _SOLUTION_MARGIN, "golden")
    report = _batch.classify(tab, solution)
    s_value = _batch.exterior_derivative(tab, solution)
    inverse = 1.0 / solution
    inverse_report = _batch.classify(tab, inverse)
    s_inverse = _batch.exterior_derivative(tab, inverse)
    # Unrestricted-component solutions, drawn next from the same streams:
    # corner units still hold, the closure value must land in the finite
    # component value set.
    free = _batch.solutions(tab, streams, _SOLUTION_MARGIN, "any")
    free_report = _batch.classify(tab, free)
    s_free = _batch.exterior_derivative(tab, free)
    value_set = np.array(_closure_value_set(cell))
    mislabeled = (
        (report.branch != _batch.DKP).astype(float)
        + (inverse_report.branch != _batch.DKP_MINUS)
        + (free_report.branch != _batch.DKP)
    )
    return np.column_stack(
        [
            report.max_dev_minus,
            np.abs(s_value - closure_constant(cell, Branch.DKP)),
            inverse_report.max_dev_plus,
            np.abs(s_inverse - closure_constant(cell, Branch.DKP_MINUS)),
            free_report.max_dev_minus,
            np.abs(s_free[:, None] - value_set).min(axis=1),
            mislabeled,
        ]
    )


# The tags of the random-solution checks, per 4-cell kind with a relation
# system (a completion and a closure constant).
_SOLUTION_TAGS = {
    CellKind.BLACK_AMBO4: "ambo-black",
    CellKind.WHITE_AMBO4: "ambo-white",
    CellKind.CUBE4: "cube",
}


def _solution_cells(cfg: SuiteConfig) -> list[tuple[OrientedCell, str]]:
    """The lattice's standard 4-cells with a relation system, and their tags."""
    lattice = LATTICES[cfg.lattice]
    return [
        (lattice.cell(kind, cfg.dim), _SOLUTION_TAGS[kind])
        for kind in lattice.four_cells
        if kind in _SOLUTION_TAGS
    ]


def _check_random_solutions(cfg: SuiteConfig) -> list[CheckRecord]:
    records = []
    for cell, tag in _solution_cells(cfg):
        rows = np.concatenate(
            [
                _solution_trials(cell, streams)
                for streams in _trial_chunks(cfg, f"corner-{tag}")
            ]
        )
        worst = rows.max(axis=0)
        records.extend(
            _record(cfg, check_id, worst[c], 0.0, tol_name)
            for c, (check_id, tol_name) in enumerate(
                [
                    (f"corner-{tag}", "corner_unit"),
                    (f"closure-{tag}", "closure_random"),
                    (f"corner-{tag}-inverse", "corner_unit"),
                    (f"closure-{tag}-inverse", "closure_random"),
                    (f"corner-{tag}-anycomponent", "corner_unit"),
                    (f"closure-{tag}-valueset", "closure_random"),
                ]
            )
        )
        records.append(
            _record(cfg, f"branch-{tag}-mislabels", rows[:, 6].sum(), 0.0, "exact")
        )
    return records


def _gradient_gap(cfg: SuiteConfig, cell: OrientedCell, check_id: str) -> float:
    """Worst |analytic - finite-difference| corner derivative over the trials."""
    if not _relation_supports(cell):
        # 4-simplices: tetrahedra carry no Lagrangian, so both sides are 0.
        return 0.0
    tab = _batch.tables(cell)
    worst = 0.0
    for streams in _trial_chunks(cfg, check_id):
        field = _batch.plain_fields(
            tab.supports, len(tab.points), streams, config.FD_MARGIN
        )
        gaps = np.abs(
            _batch.corner_residuals(tab, field) - _batch.fd_actions(tab, field)
        )
        worst = max(worst, gaps.max())
    return worst


def _check_gradient(cfg: SuiteConfig) -> list[CheckRecord]:
    lattice = LATTICES[cfg.lattice]
    # The relation kinds come first, then the 4-simplices.
    kinds = sorted(lattice.four_cells, key=lambda kind: kind not in _SOLUTION_TAGS)
    records = []
    for kind in kinds:
        check_id = f"gradient-{kind.value}"
        worst = _gradient_gap(cfg, lattice.cell(kind, cfg.dim), check_id)
        records.append(_record(cfg, check_id, worst, 0.0, "gradient"))
    return records


def _check_boundary_squared(cfg: SuiteConfig) -> list[CheckRecord]:
    lattice = LATTICES[cfg.lattice]
    bad_terms = 0
    for dim in (4, 5, 6):
        rng = _rng(cfg, "ddzero", dim)
        for kind in lattice.four_cells:
            standard = lattice.cell(kind, dim)
            ambient = len(standard.base)
            for indices in itertools.combinations(range(ambient), len(standard.indices)):
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
    lattice = LATTICES[cfg.lattice]
    mismatches = 0
    for kind, expected in _FACET_COUNTS.items():
        if kind.family != lattice.name:
            continue
        cell = lattice.cell(kind, cfg.dim)
        seen: dict[CellKind, int] = {}
        for facet_cell, coeff in facets(cell).items():
            if abs(coeff) != 1:
                mismatches += 1
            seen[facet_cell.kind] = seen.get(facet_cell.kind, 0) + 1
        if seen != expected:
            mismatches += 1
    return [_record(cfg, "facet-counts", mismatches, 0, "exact")]


def _glued_flower(
    cfg: SuiteConfig, rng: np.random.Generator
) -> tuple[Chain, Point]:
    """A randomized flower glued from two adjacent 4-cell boundaries.

    It draws the base, then the pair of kinds, then the center.  A lattice
    with one pair draws nothing for it: rng.integers(0, 1) reads no bits.
    """
    lattice = LATTICES[cfg.lattice]
    base = tuple(int(rng.integers(-2, 3)) for _ in range(lattice.ambient(cfg.dim)))
    kind_a, kind_b, step, sign = lattice.glued[int(rng.integers(0, len(lattice.glued)))]
    first = OrientedCell(kind_a, base, lattice.cell(kind_a, cfg.dim).indices)
    m = first.indices[-1]
    second = OrientedCell(kind_b, first.shifted(m, step).base, first.indices, sign)
    manifold = facets(first) + facets(second)
    shared = sorted(vertices(first) & vertices(second))
    vertex = shared[int(rng.integers(0, len(shared)))]
    return flower(manifold, vertex), vertex


def _check_flower_decomposition(cfg: SuiteConfig) -> list[CheckRecord]:
    lattice = LATTICES[cfg.lattice]
    failures = 0
    flowers: list[tuple[Chain, Point]] = []
    # Boundary flowers of every supported 4-cell kind at every vertex.
    # 4-cells need five directions, so they only exist from dimension 4 on.
    if cfg.dim >= 4:
        for kind in lattice.four_cells:
            cell = lattice.cell(kind, cfg.dim)
            for vertex in sorted(vertices(cell)):
                star = flower(facets(cell), vertex)
                if star != corner(cell, vertex):
                    failures += 1
                flowers.append((star, vertex))
    # Full sub-lattice star.
    flowers.append(lattice.star(cfg.dim))
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
    lattice = LATTICES[cfg.lattice]
    records = []
    cases: list[tuple[str, Chain, Point]] = []
    if cfg.dim >= 4:
        for kind in lattice.four_cells:
            cell = lattice.cell(kind, cfg.dim)
            cell_vertices = sorted(vertices(cell))
            # Two corner centers per kind; the middle one is never the inert
            # base corner of a 4D cube.
            for vertex in (cell_vertices[0], cell_vertices[len(cell_vertices) // 2]):
                cases.append((f"el-sum-corner-{cell.kind.value}", facets(cell), vertex))
    star, center = lattice.star(cfg.dim)
    cases.append((f"el-sum-star-{lattice.name}", star, center))
    worst_by_id: dict[str, float] = {}
    for case_index, (check_id, manifold, vertex) in enumerate(cases):
        frame = _corner_frame(manifold, vertex)
        worst = worst_by_id.get(check_id, 0.0)
        trials = range(1000 * case_index, 1000 * case_index + min(cfg.trials, 8))
        for streams in _trial_chunks(cfg, check_id, trials):
            star = _batch.plain_fields(
                frame.star_supports, len(frame.points), streams, config.FD_MARGIN
            )
            worst = max(worst, *_el_sum_gaps(frame, cfg.seed, star, streams.trials))
        worst_by_id[check_id] = worst
    for check_id, worst in worst_by_id.items():
        records.append(_record(cfg, check_id, worst, 0.0, "el_sum"))
    return records


def _check_negative_control(cfg: SuiteConfig) -> list[CheckRecord]:
    cell, _ = _solution_cells(cfg)[0]  # bambo4 or cube4
    tab = _batch.tables(cell)
    failures = 0
    for streams in _trial_chunks(cfg, "negative-control"):
        field = _batch.plain_fields(
            tab.supports, len(tab.points), streams, config.DRAW_FLOOR
        )
        # A gray-zone trial counts as a failure to reject, like a branch label.
        report = _batch.classify(tab, field, allow_gray=True)
        failures += int(np.sum(report.branch != _batch.NEITHER))
    return [_record(cfg, "negative-control", failures, 0, "exact")]


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

    Deterministic for a fixed config: each randomized trial draws from its
    own stream, seeded from (seed, check id, trial index).
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
