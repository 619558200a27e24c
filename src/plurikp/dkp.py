"""The dKP equation and its inverse companion on octahedra and cubes.

An octahedron with directions (i, j, k, l) carries the trilinear relation

    x_ij x_kl - x_ik x_jl + x_il x_jk = 0,

that is M1 + M2 + M3 = 0 in the signed monomials M; a 3D cube carries it on
the six middle vertices of its inscribed octahedron (single-index values
stand in for the mixed pairs with the dropped direction).  Inverting every
value turns it into the quartic e2(M) = M1 M2 + M2 M3 + M3 M1 = 0.

RELATION_CELLS describes each 4-cell kind that carries the relation, once:
its record tag, initial-value vertices, exact golden-ratio solution and
closure constants.
The relation system of such a 4-cell is the part of its boundary that carries
the relation: the five octahedron facets of a 4-ambo cell, or the eight 3D-cube
facets of a 4D cube, each oriented by its facet coefficient.
Solvers complete minimal initial data to full solutions: seven values on an
ambo cell, nine on a 4D cube.  The relation is affine in each value, so
completion runs in rounds of one-unknown supports: each round solves every
vertex that is the only unknown of some support, from values known when the
round starts.  The remaining equations then hold identically, so the
self-check that follows can only fail on numerically singular input.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import math
import os
from enum import Enum
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from . import config
from .cells import LATTICES, CellKind, OrientedCell, Point, _offset, facets
from .dilog import GOLDEN_A
from .errors import (
    BranchError,
    CellError,
    FormatError,
    InitialDataError,
    MissingVertexError,
    SingularFieldError,
)

Field = dict[Point, float]
Points = tuple[Point, ...]
IvpPoints = tuple[Points, Points]
Step = tuple[Points, int]
Group = tuple[int, ...]  # positions in a cell's indices

__all__ = [
    "Branch",
    "Field",
    "RELATION_CELLS",
    "RelationCell",
    "dkp_minus_residual_relative",
    "dkp_residual",
    "dkp_residual_relative",
    "field_values",
    "golden_field",
    "invert_field",
    "ivp_points",
    "monomial_sign_pattern",
    "nonsingularity_margin",
    "read_field_file",
    "signed_monomials",
    "six_points",
    "solve_ambo_ivp",
    "solve_cube_ivp",
    "system_on_4cell",
    "write_field_file",
    "write_json",
]


class Branch(Enum):
    DKP = "dkp"
    DKP_MINUS = "dkp-minus"
    NEITHER = "neither"


# The index-position groups of the six relation vertices of each support kind.
_SIX_GROUPS = {
    CellKind.OCTAHEDRON: tuple(itertools.combinations(range(4), 2)),
    CellKind.CUBE3: ((0,), (1,), (2,), (0, 1), (0, 2), (1, 2)),
}
_SUPPORT_KINDS = tuple(_SIX_GROUPS)

PI2_4 = math.pi**2 / 4.0


class RelationCell(NamedTuple):
    """A 4-cell kind that carries the relation: the tag of its records, its
    initial-value vertices, its golden solution as (vertex, value on the DKP
    branch) pairs, the facet action on the golden solution's component at
    positive orientation, and the action's values over all components (it is
    constant on each).  A vertex is a group of positions in the cell's indices.
    """

    tag: str
    ivp: tuple[Group, ...]
    golden: tuple[tuple[Group, float], ...]
    golden_closure: float
    closure_values: tuple[float, ...]


def _complement(group: Group) -> Group:
    return tuple(p for p in range(5) if p not in group)


# Black ambo: the pairs through l or m of (i, j, k, l, m).
_AMBO_IVP = ((0, 3), (0, 4), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))
# Golden: a = (1 - sqrt 5)/2 on the pairs adjacent along the five-cycle of
# directions, -1 on the other five.
_AMBO_GOLDEN = tuple(
    (g, GOLDEN_A if g[1] - g[0] in (1, 4) else -1.0)
    for g in itertools.combinations(range(5), 2)
)
_AMBO_VALUES = (-PI2_4, PI2_4)

# The 4-simplices carry no relation and have no entry.
RELATION_CELLS: dict[CellKind, RelationCell] = {
    CellKind.BLACK_AMBO4: RelationCell(
        "ambo-black", _AMBO_IVP, _AMBO_GOLDEN, -PI2_4, _AMBO_VALUES
    ),
    # A white vertex is the complement of a black one, with its values (the
    # golden vertices sorted, as the black ones are).
    CellKind.WHITE_AMBO4: RelationCell(
        "ambo-white", tuple(map(_complement, _AMBO_IVP)),
        tuple(sorted((_complement(g), v) for g, v in _AMBO_GOLDEN)),
        -PI2_4, _AMBO_VALUES,
    ),
    # Two single-index, five double-index and two triple-index vertices of
    # (j, k, l, m), fixed once by rank probing the eight-equation system at
    # random solutions: its rank is 5 of 14, leaving 9 free values.  The
    # golden solution covers those 14 vertices.
    CellKind.CUBE4: RelationCell(
        "cube",
        ((2,), (3,), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 1, 2), (0, 1, 3)),
        (
            ((0,), GOLDEN_A), ((1,), -1.0), ((2,), -1.0), ((3,), GOLDEN_A),
            ((0, 1), GOLDEN_A), ((0, 2), -1.0), ((0, 3), -1.0),
            ((1, 2), GOLDEN_A), ((1, 3), -1.0), ((2, 3), GOLDEN_A),
            ((0, 1, 2), -1.0), ((0, 1, 3), GOLDEN_A), ((0, 2, 3), -GOLDEN_A),
            ((1, 2, 3), 1.0),
        ),
        0.0, (0.0, -2.0 * PI2_4, 2.0 * PI2_4),
    ),
}


def _relation_cell(cell4: OrientedCell) -> RelationCell:
    """The RELATION_CELLS entry of the cell's kind (CellError if it has none)."""
    try:
        return RELATION_CELLS[cell4.kind]
    except KeyError:
        raise CellError(f"{cell4.kind.value} carries no relation system") from None


def _group_points(cell4: OrientedCell, groups: Iterable[Group]) -> Points:
    """The cell's vertices at the groups of index positions."""
    idx = cell4.indices
    return tuple(_offset(cell4.base, [idx[p] for p in g]) for g in groups)


@functools.lru_cache(maxsize=256)
def six_points(cell: OrientedCell) -> tuple[Point, ...]:
    """The six relation vertices in the fixed order (ij, ik, il, jk, jl, kl).

    For a 3D cube the dropped direction plays the role of i, so the first
    three slots hold the single-index vertices.
    """
    if cell.kind not in _SIX_GROUPS:
        raise CellError(f"{cell.kind.value} does not support the relation")
    return _group_points(cell, _SIX_GROUPS[cell.kind])


def field_values(
    field: Mapping[Point, float], points: Iterable[Point]
) -> tuple[float, ...]:
    """Values of the field at the points, as floats."""
    try:
        return tuple([float(field[point]) for point in points])
    except KeyError as exc:
        raise MissingVertexError(f"field has no value at {exc.args[0]}") from exc


def _monomials(values: Sequence[float]) -> tuple[float, float, float]:
    a, b, c, d, e, f = values
    return a * f, -(b * e), c * d


def signed_monomials(
    field: Mapping[Point, float], points: tuple[Point, ...]
) -> tuple[float, float, float]:
    """(x_ij x_kl, -x_ik x_jl, x_il x_jk) on six points in six_points order.

    The relation reads M1 + M2 + M3 = 0; slots (0,5), (1,4), (2,3) hold the
    factors of M1, M2, M3.
    """
    return _monomials(field_values(field, points))


def _relative(terms: tuple[float, float, float], cell: OrientedCell) -> float:
    t1, t2, t3 = terms
    scale = abs(t1) + abs(t2) + abs(t3)
    if scale == 0.0:
        raise SingularFieldError(f"all monomials vanish on {cell}")
    return abs(t1 + t2 + t3) / scale


def dkp_residual(field: Mapping[Point, float], cell: OrientedCell) -> float:
    """Signed trilinear residual; zero exactly on solutions."""
    m1, m2, m3 = signed_monomials(field, six_points(cell))
    return cell.sign * (m1 + m2 + m3)


def dkp_residual_relative(field: Mapping[Point, float], cell: OrientedCell) -> float:
    return _relative(signed_monomials(field, six_points(cell)), cell)


def _inverse_terms(monomials: tuple[float, float, float]) -> tuple[float, float, float]:
    # The terms of e2(M), whose sum the inverse relation sets to zero.
    m1, m2, m3 = monomials
    return m1 * m2, m2 * m3, m3 * m1


def dkp_minus_residual_relative(
    field: Mapping[Point, float], cell: OrientedCell
) -> float:
    return _relative(_inverse_terms(signed_monomials(field, six_points(cell))), cell)


@functools.lru_cache(maxsize=256)
def system_on_4cell(cell4: OrientedCell) -> tuple[OrientedCell, ...]:
    """Relation supports of a 4-cell: its octahedron and 3D-cube facets, each
    oriented by its facet coefficient (ordered as the facet chain lists them).
    """
    _relation_cell(cell4)
    return tuple(
        cell if coeff > 0 else -cell
        for cell, coeff in facets(cell4).items()
        if cell.kind in _SUPPORT_KINDS
    )


def _solve_slot(field: Mapping[Point, float], points: Points, slot: int) -> float:
    """Value at points[slot] that makes the relation on the six points hold.

    The relation is affine in each value: rest is its value with the unknown
    at zero, and its slope is the partner value (the other factor of the
    unknown's monomial, at slot 5 - slot) times that monomial's sign.
    """
    values = list(field_values(field, points[:slot] + points[slot + 1 :]))
    values.insert(slot, 0.0)
    m1, m2, m3 = _monomials(values)
    rest = m1 + m2 + m3
    slope = -values[5 - slot] if slot in (1, 4) else values[5 - slot]
    if slope == 0.0:
        raise SingularFieldError(f"zero partner value when solving at {points[slot]}")
    value = -rest / slope
    if value == 0.0 or not math.isfinite(value):
        raise SingularFieldError(f"solving at {points[slot]} gives singular {value}")
    return value


@functools.lru_cache(maxsize=256)
def _completion_steps(cell4: OrientedCell, required: Points) -> tuple[Step, ...]:
    """(six points, slot) of every vertex the completion solves, in order.

    Each round solves the vertices that are the only unknown of some support,
    each from the first such support in (indices, base) order, reading only
    values known when the round starts.  That order keeps the solved ambo
    vertices in the order (ij, ik, jk) for every labelling of the directions.
    """
    supports = sorted(system_on_4cell(cell4), key=lambda s: (s.indices, s.base))
    known = set(required)
    steps: list[Step] = []
    while True:
        found: dict[Point, Step] = {}
        for points in map(six_points, supports):
            unknown = [p for p in points if p not in known]
            if len(unknown) == 1:
                found.setdefault(unknown[0], (points, points.index(unknown[0])))
        if not found:
            return tuple(steps)
        steps.extend(found.values())
        known.update(found)


@functools.lru_cache(maxsize=256)
def ivp_points(cell4: OrientedCell) -> IvpPoints:
    """(required, solved) vertex tuples of the completion: the initial-value
    vertices of the cell's RELATION_CELLS entry, then the solved ones in order."""
    required = _group_points(cell4, _relation_cell(cell4).ivp)
    steps = _completion_steps(cell4, required)
    return required, tuple(points[slot] for points, slot in steps)


def _complete(
    cell4: OrientedCell,
    data: Mapping[Point, float],
    branch: Branch,
    solver: Callable[..., Field],
    family: str,
) -> Field:
    """Complete the data on the cell's IVP points and self-check the result.

    The inverse branch completes the inverted data through the public
    `solver` (so call counts see the inner completion too) and inverts the
    result, so the two branches are exactly conjugate under x -> 1/x.
    """
    if cell4.kind.family != family:
        raise CellError(f"{cell4.kind.value} is not a {family} cell")
    required, _ = ivp_points(cell4)
    given = {tuple(p) for p in data}
    needed = set(required)
    if given != needed:
        missing = sorted(needed - given)
        extra = sorted(given - needed)
        raise InitialDataError(
            f"initial data mismatch: missing {missing}, unexpected {extra}"
        )
    values = [float(data[p]) for p in required]
    for point, value in zip(required, values):
        if value == 0.0 or not math.isfinite(value):
            raise SingularFieldError(f"initial value at {point} is singular: {value}")
    if branch is Branch.DKP_MINUS:
        inverted = {p: 1.0 / v for p, v in zip(required, values)}
        return invert_field(solver(cell4, inverted, Branch.DKP))
    if branch is not Branch.DKP:
        raise InitialDataError(f"cannot complete toward branch {branch}")
    field: Field = dict(zip(required, values))
    for points, slot in _completion_steps(cell4, required):
        field[points[slot]] = _solve_slot(field, points, slot)
    worst = max(dkp_residual_relative(field, s) for s in system_on_4cell(cell4))
    if worst > config.TOLERANCES["solver_rel"]:
        raise SingularFieldError(
            f"completion failed self-check: relative residual {worst:.3e}"
        )
    return field


def solve_ambo_ivp(
    cell4: OrientedCell,
    data: Mapping[Point, float],
    branch: Branch = Branch.DKP,
) -> Field:
    """Complete seven prescribed values on a 4-ambo cell to a full solution."""
    return _complete(cell4, data, branch, solve_ambo_ivp, "qan")


def solve_cube_ivp(
    cell4: OrientedCell,
    data: Mapping[Point, float],
    branch: Branch = Branch.DKP,
) -> Field:
    """Complete nine prescribed values on a 4D cube to a full solution.

    It takes three rounds (x_jk comes from the base facet (j, k, l) in the
    second); the two corner vertices without equations never appear.
    """
    return _complete(cell4, data, branch, solve_cube_ivp, "cubic")


def golden_field(cell4: OrientedCell, branch: Branch = Branch.DKP) -> Field:
    """The exact golden-ratio solution of the cell's RELATION_CELLS entry; the
    inverse branch inverts it (BranchError for Branch.NEITHER)."""
    groups, values = zip(*_relation_cell(cell4).golden)
    field = dict(zip(_group_points(cell4, groups), values))
    if branch is Branch.DKP_MINUS:
        return invert_field(field)
    if branch is not Branch.DKP:
        raise BranchError(f"no golden solution on branch {branch}")
    return field


def invert_field(field: Mapping[Point, float]) -> Field:
    out: Field = {}
    for point, value in field.items():
        if value == 0.0:
            raise SingularFieldError(f"cannot invert zero value at {point}")
        out[tuple(point)] = 1.0 / value
    return out


def monomial_sign_pattern(
    field: Mapping[Point, float], cell4: OrientedCell
) -> tuple[tuple[bool, bool, bool], ...]:
    """Signs of the three diagonal products on every relation support.

    The pattern is constant on each connected component of the nonsingular
    solution set (a sign change forces a value through zero), so it serves
    as a cheap combinatorial component label.  On ambo cells the component
    of the constant solution is exactly the all-positive pattern; on a 4D
    cube it is the pattern of the golden solution.  The action of the
    3-form over the facets is constant per component but takes different
    constants on different components, so component control matters when
    checking closure values.
    """
    pattern = []
    for support in system_on_4cell(cell4):
        m1, m2, m3 = signed_monomials(field, six_points(support))
        pattern.append((m1 > 0.0, m2 < 0.0, m3 > 0.0))
    return tuple(pattern)


def nonsingularity_margin(
    field: Mapping[Point, float], supports: Iterable[OrientedCell]
) -> float:
    """Smallest relative margin of the six monomial binomials per support.

    Every fraction appearing in a corner product is one of these binomials,
    so a positive margin bounds all of them away from zero at once.
    """
    margin = math.inf
    for cell in supports:
        monomials = signed_monomials(field, six_points(cell))
        for x, y in itertools.combinations(monomials, 2):
            scale = abs(x) + abs(y)
            if scale == 0.0:
                return 0.0
            margin = min(margin, abs(x - y) / scale, abs(x + y) / scale)
    return margin


# --- field files -----------------------------------------------------------

_FIELD_FORMAT = "plurikp-field/1"


def write_field_file(
    path: str, field: Mapping[Point, float], lattice: str, dim: int
) -> None:
    """Write a field as JSON; repr-based floats round-trip exactly.

    The payload is checked as read_field_file checks it before any file is
    opened, so a written file always reads back.
    """
    payload = {
        "format": _FIELD_FORMAT,
        "lattice": lattice,
        "dim": dim,
        "values": {
            ",".join(str(c) for c in point): float(value)
            for point, value in sorted(field.items())
        },
    }
    _parse_payload(payload, path)
    write_json(path, payload)


def write_json(path: str, payload: dict) -> None:
    """Write JSON through a temporary file, so the target is never partial.

    The temporary file is removed when the write or the replace fails.
    """
    text = json.dumps(payload, indent=1, sort_keys=True) + "\n"
    tmp = f"{path}.tmp"
    handle = open(tmp, "w", encoding="utf-8")
    try:
        with handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    out: dict = {}
    for key, value in pairs:
        if key in out:
            raise FormatError(f"duplicate key {key!r}")
        out[key] = value
    return out


def read_field_file(path: str) -> tuple[Field, str, int]:
    """Read a field file, returning (field, lattice, dim).

    Keys must be unique and written canonically ("0,-1,2": no spaces, plus
    signs or leading zeros), so that no point can be given two values, and
    values must be finite JSON numbers.
    """
    with open(path, "r", encoding="utf-8") as handle:
        try:
            payload = json.load(handle, object_pairs_hook=_unique_keys)
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: not UTF-8 text: {exc}") from exc
        except (json.JSONDecodeError, RecursionError) as exc:
            # The decoder raises RecursionError on nesting deeper than it can parse.
            raise FormatError(f"{path}: not valid JSON: {exc}") from exc
        except FormatError as exc:
            raise FormatError(f"{path}: {exc}") from exc
    return _parse_payload(payload, path)


def _parse_payload(payload: object, path: str) -> tuple[Field, str, int]:
    if not isinstance(payload, dict) or payload.get("format") != _FIELD_FORMAT:
        raise FormatError(f"{path}: missing or unknown format marker")
    lattice = payload.get("lattice")
    if not isinstance(lattice, str) or lattice not in LATTICES:
        raise FormatError(f"{path}: lattice must be 'qan' or 'cubic'")
    dim = payload.get("dim")
    if type(dim) is not int or not 3 <= dim <= config.MAX_DIM:
        raise FormatError(f"{path}: dim must be an integer in [3, {config.MAX_DIM}]")
    try:
        raw = payload["values"]
        field: Field = {}
        expected = LATTICES[lattice].ambient(dim)
        for key, value in raw.items():
            point = tuple(int(t) for t in key.split(","))
            if key != ",".join(str(c) for c in point):
                raise FormatError(f"{path}: point {key!r} is not written canonically")
            if len(point) != expected:
                raise FormatError(
                    f"{path}: point {key!r} has {len(point)} coordinates,"
                    f" expected {expected}"
                )
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise FormatError(f"{path}: value {value!r} at {key!r} is not a number")
            field[point] = float(value)
            if not math.isfinite(field[point]):
                raise FormatError(f"{path}: non-finite value {value!r} at {key!r}")
    except FormatError:
        raise
    except (KeyError, ValueError, AttributeError, OverflowError) as exc:
        raise FormatError(f"{path}: malformed field payload: {exc}") from exc
    return field, lattice, dim
