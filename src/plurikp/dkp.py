"""The dKP equation and its inverse companion on octahedra and cubes.

An octahedron with directions (i, j, k, l) carries the trilinear relation

    x_ij x_kl - x_ik x_jl + x_il x_jk = 0,

that is M1 + M2 + M3 = 0 in the signed monomials M; a 3D cube carries it on
the six middle vertices of its inscribed octahedron (single-index values
stand in for the mixed pairs with the dropped direction).  Inverting every
value turns it into the quartic e2(M) = M1 M2 + M2 M3 + M3 M1 = 0.

The relation system of a 4-cell is the part of its boundary that carries the
relation: the five octahedron facets of a 4-ambo cell, or the eight 3D-cube
facets of a 4D cube, each oriented by its facet coefficient.
Solvers complete minimal initial data to full solutions: seven values on an
ambo cell, nine on a 4D cube.  The relation is affine in each value, so
completion runs in rounds of one-unknown supports: each round solves every
vertex that is the only unknown of some support, from values known when the
round starts.  The remaining equations then hold identically, so the
self-check that follows can only fail on numerically singular input.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
from enum import Enum
from typing import Callable, Iterable, Mapping, Sequence

from . import config
from .cells import CellKind, OrientedCell, Point, _offset, facets
from .dilog import GOLDEN_A
from .errors import (
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

__all__ = [
    "Branch",
    "Field",
    "ambo_ivp_points",
    "cube_ivp_points",
    "dkp_minus_residual",
    "dkp_minus_residual_relative",
    "dkp_residual",
    "dkp_residual_relative",
    "field_values",
    "golden_cube_field",
    "golden_field",
    "golden_sign_pattern",
    "golden_solution",
    "invert_field",
    "monomial_sign_pattern",
    "nonsingularity_margin",
    "read_field_file",
    "signed_monomials",
    "six_points",
    "solve_ambo_ivp",
    "solve_cube_ivp",
    "solve_octahedron",
    "system_on_4cell",
    "write_field_file",
    "write_json",
]


class Branch(Enum):
    DKP = "dkp"
    DKP_MINUS = "dkp-minus"
    NEITHER = "neither"


_SUPPORT_KINDS = (CellKind.OCTAHEDRON, CellKind.CUBE3)


@functools.lru_cache(maxsize=256)
def six_points(cell: OrientedCell) -> tuple[Point, ...]:
    """The six relation vertices in the fixed order (ij, ik, il, jk, jl, kl).

    For a 3D cube the dropped direction plays the role of i, so the first
    three slots hold the single-index vertices.
    """
    base = cell.base
    if cell.kind is CellKind.OCTAHEDRON:
        i, j, k, l = cell.indices
        pairs = ((i, j), (i, k), (i, l), (j, k), (j, l), (k, l))
        return tuple(_offset(base, p) for p in pairs)
    if cell.kind is CellKind.CUBE3:
        j, k, l = cell.indices
        groups = ((j,), (k,), (l,), (j, k), (j, l), (k, l))
        return tuple(_offset(base, g) for g in groups)
    raise CellError(f"{cell.kind.value} does not support the relation")


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


def dkp_minus_residual(field: Mapping[Point, float], cell: OrientedCell) -> float:
    """Signed quartic residual of the inverted relation, -e2(M).

    Equals (product of the six values) times the trilinear residual of the
    pointwise-inverted field.
    """
    m1, m2, m3 = signed_monomials(field, six_points(cell))
    return -cell.sign * (m1 * m2 + m2 * m3 + m3 * m1)


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
    supports = tuple(
        cell if coeff > 0 else -cell
        for cell, coeff in facets(cell4).items()
        if cell.kind in _SUPPORT_KINDS
    )
    if not supports:
        raise CellError(f"{cell4.kind.value} carries no relation system")
    return supports


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


def solve_octahedron(
    field: Mapping[Point, float], cell: OrientedCell, unknown: Point
) -> float:
    """Value at the unknown vertex making the trilinear residual zero."""
    points = six_points(cell)
    unknown = tuple(unknown)
    if unknown not in points:
        raise CellError(f"{unknown} is not a relation vertex of {cell}")
    return _solve_slot(field, points, points.index(unknown))


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


def _ivp_points(cell4: OrientedCell, groups: Iterable[tuple[int, ...]]) -> IvpPoints:
    required = tuple(_offset(cell4.base, g) for g in groups)
    steps = _completion_steps(cell4, required)
    return required, tuple(points[slot] for points, slot in steps)


def ambo_ivp_points(cell4: OrientedCell) -> IvpPoints:
    """(required, solved) vertex tuples for the seven-point completion.

    The black initial vertices are the pairs through l or m; the white ones
    are their complements within the cell's directions.
    """
    if cell4.kind not in (CellKind.BLACK_AMBO4, CellKind.WHITE_AMBO4):
        raise CellError(f"{cell4.kind.value} has no seven-point completion")
    idx = cell4.indices
    i, j, k, l, m = idx
    groups = ((i, l), (i, m), (j, l), (j, m), (k, l), (k, m), (l, m))
    if cell4.kind is CellKind.WHITE_AMBO4:
        groups = tuple(tuple(d for d in idx if d not in g) for g in groups)
    return _ivp_points(cell4, groups)


def cube_ivp_points(cell4: OrientedCell) -> IvpPoints:
    """(required, solved) vertex tuples for the nine-point cube completion.

    The free set (two single-index, five double-index, two triple-index
    vertices) was fixed once by rank probing the eight-equation system at
    random solutions: the Jacobian rank is 5, leaving 14 - 5 = 9 free values.
    """
    if cell4.kind is not CellKind.CUBE4:
        raise CellError(f"{cell4.kind.value} has no nine-point completion")
    j, k, l, m = cell4.indices
    groups = ((l,), (m,), (j, l), (j, m), (k, l), (k, m), (l, m), (j, k, l), (j, k, m))
    return _ivp_points(cell4, groups)


def _complete(
    cell4: OrientedCell,
    required: Points,
    data: Mapping[Point, float],
    branch: Branch,
    solver: Callable[..., Field],
) -> Field:
    """Complete the data on `required` and self-check the result.

    The inverse branch completes the inverted data through the public
    `solver` (so call counts see the inner completion too) and inverts the
    result, so the two branches are exactly conjugate under x -> 1/x.
    """
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
    required, _ = ambo_ivp_points(cell4)
    return _complete(cell4, required, data, branch, solve_ambo_ivp)


def solve_cube_ivp(
    cell4: OrientedCell,
    data: Mapping[Point, float],
    branch: Branch = Branch.DKP,
) -> Field:
    """Complete nine prescribed values on a 4D cube to a full solution.

    It takes three rounds (x_jk comes from the base facet (j, k, l) in the
    second); the two corner vertices without equations never appear.
    """
    required, _ = cube_ivp_points(cell4)
    return _complete(cell4, required, data, branch, solve_cube_ivp)


def golden_field(cell4: OrientedCell, branch: Branch = Branch.DKP) -> Field:
    """The exact constant solution on a 4-ambo cell.

    Values along the five-cycle of directions equal a = (1 - sqrt 5)/2 and
    the diagonal values equal -1; the inverse branch inverts everything.
    """
    idx = cell4.indices
    if cell4.kind not in (CellKind.BLACK_AMBO4, CellKind.WHITE_AMBO4):
        raise CellError(f"no constant solution table for {cell4.kind.value}")
    a = GOLDEN_A if branch is Branch.DKP else 1.0 / GOLDEN_A
    adjacent = {frozenset((idx[t], idx[(t + 1) % 5])) for t in range(5)}
    field: Field = {}
    for group in itertools.combinations(idx, cell4.weight):
        # A white vertex takes the value of the black one at its complement.
        pair = group if cell4.kind is CellKind.BLACK_AMBO4 else set(idx) - set(group)
        field[_offset(cell4.base, group)] = a if frozenset(pair) in adjacent else -1.0
    return field


def golden_cube_field(cell4: OrientedCell, branch: Branch = Branch.DKP) -> Field:
    """An exact golden-ratio solution on the 14 relevant vertices of a 4D cube."""
    if cell4.kind is not CellKind.CUBE4:
        raise CellError(f"expected a 4D cube, got {cell4.kind.value}")
    a = GOLDEN_A
    j, k, l, m = cell4.indices
    table = {
        (j,): a, (k,): -1.0, (l,): -1.0, (m,): a,
        (j, k): a, (j, l): -1.0, (j, m): -1.0,
        (k, l): a, (k, m): -1.0, (l, m): a,
        (j, k, l): -1.0, (j, k, m): a, (j, l, m): -a, (k, l, m): 1.0,
    }
    field = {_offset(cell4.base, g): v for g, v in table.items()}
    if branch is Branch.DKP_MINUS:
        field = invert_field(field)
    return field


def golden_solution(cell4: OrientedCell) -> Field:
    """The golden-ratio dKP solution of a 4-ambo cell or a 4D cube."""
    if cell4.kind is CellKind.CUBE4:
        return golden_cube_field(cell4)
    return golden_field(cell4)


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


def golden_sign_pattern(cell4: OrientedCell) -> tuple[tuple[bool, bool, bool], ...]:
    """Component label of the golden-ratio solution."""
    return monomial_sign_pattern(golden_solution(cell4), cell4)


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
    """Write JSON through a temporary file, so the target is never partial."""
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)


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
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: not valid JSON: {exc}") from exc
        except FormatError as exc:
            raise FormatError(f"{path}: {exc}") from exc
    return _parse_payload(payload, path)


def _parse_payload(payload: object, path: str) -> tuple[Field, str, int]:
    if not isinstance(payload, dict) or payload.get("format") != _FIELD_FORMAT:
        raise FormatError(f"{path}: missing or unknown format marker")
    lattice = payload.get("lattice")
    if lattice not in ("qan", "cubic"):
        raise FormatError(f"{path}: lattice must be 'qan' or 'cubic'")
    dim = payload.get("dim")
    if type(dim) is not int or not 3 <= dim <= config.MAX_DIM:
        raise FormatError(f"{path}: dim must be an integer in [3, {config.MAX_DIM}]")
    try:
        raw = payload["values"]
        field: Field = {}
        expected = dim + 1 if lattice == "qan" else dim
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
