"""The dKP equation and its inverse companion on octahedra and cubes.

An octahedron with directions (i, j, k, l) carries the trilinear relation

    x_ij x_kl - x_ik x_jl + x_il x_jk = 0

on its six vertices; a 3D cube carries the same relation on the six middle
vertices of its inscribed octahedron (single-index values stand in for the
mixed pairs with the dropped direction).  Inverting every value turns the
relation into the quartic

    x_ik x_il x_jk x_jl - x_ij x_il x_jk x_kl + x_ij x_ik x_jl x_kl = 0.

The relation system of a 4-cell is the part of its boundary that carries the
relation: the five octahedron facets of a 4-ambo cell, or the eight 3D-cube
facets of a 4D cube, each oriented by its facet coefficient.
Solvers complete minimal initial data to full solutions: seven values on an
ambo cell, nine on a 4D cube.  The completion formulas below make the
remaining equations identities, so the self-check they run can only fail on
numerically singular input.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
from enum import Enum
from typing import Iterable, Mapping

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


def signed_monomials(
    field: Mapping[Point, float], points: tuple[Point, ...]
) -> tuple[float, float, float]:
    """(x_ij x_kl, -x_ik x_jl, x_il x_jk) on six points in six_points order.

    The relation reads M1 + M2 + M3 = 0; slots (0,5), (1,4), (2,3) hold the
    factors of M1, M2, M3.
    """
    a, b, c, d, e, f = field_values(field, points)
    return a * f, -(b * e), c * d


def dkp_residual(field: Mapping[Point, float], cell: OrientedCell) -> float:
    """Signed trilinear residual; zero exactly on solutions."""
    m1, m2, m3 = signed_monomials(field, six_points(cell))
    return cell.sign * (m1 + m2 + m3)


def dkp_residual_relative(field: Mapping[Point, float], cell: OrientedCell) -> float:
    m1, m2, m3 = signed_monomials(field, six_points(cell))
    scale = abs(m1) + abs(m2) + abs(m3)
    if scale == 0.0:
        raise SingularFieldError(f"all monomials vanish on {cell}")
    return abs(m1 + m2 + m3) / scale


def dkp_minus_residual(field: Mapping[Point, float], cell: OrientedCell) -> float:
    """Signed quartic residual of the inverted relation.

    Equals (product of the six values) times the trilinear residual of the
    pointwise-inverted field.
    """
    a, b, c, d, e, f = field_values(field, six_points(cell))
    return cell.sign * (b * c * d * e - a * c * d * f + a * b * e * f)


def dkp_minus_residual_relative(
    field: Mapping[Point, float], cell: OrientedCell
) -> float:
    a, b, c, d, e, f = field_values(field, six_points(cell))
    scale = abs(b * c * d * e) + abs(a * c * d * f) + abs(a * b * e * f)
    if scale == 0.0:
        raise SingularFieldError(f"all monomials vanish on {cell}")
    return abs(b * c * d * e - a * c * d * f + a * b * e * f) / scale


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


def solve_octahedron(
    field: Mapping[Point, float], cell: OrientedCell, unknown: Point
) -> float:
    """Value at the unknown vertex making the trilinear residual zero."""
    points = six_points(cell)
    unknown = tuple(unknown)
    if unknown not in points:
        raise CellError(f"{unknown} is not a relation vertex of {cell}")
    # The relation is affine in each value: rest is its value with the
    # unknown at zero, coeff the slope.
    others = tuple(p for p in points if p != unknown)
    probe = dict(zip(others, field_values(field, others)))
    probe[unknown] = 0.0
    rest = sum(signed_monomials(probe, points))
    probe[unknown] = 1.0
    slot = points.index(unknown)
    coeff = signed_monomials(probe, points)[min(slot, 5 - slot)]
    if coeff == 0.0:
        raise SingularFieldError(f"zero coefficient when solving {cell} at {unknown}")
    value = -rest / coeff
    if value == 0.0 or not math.isfinite(value):
        raise SingularFieldError(
            f"solving {cell} at {unknown} gives singular value {value}"
        )
    return value


def ambo_ivp_points(cell4: OrientedCell) -> tuple[tuple[Point, ...], tuple[Point, ...]]:
    """(required, solved) vertex tuples for the seven-point completion."""
    base, idx = cell4.base, cell4.indices
    if cell4.kind is CellKind.BLACK_AMBO4:
        i, j, k, l, m = idx
        required = ((i, l), (i, m), (j, l), (j, m), (k, l), (k, m), (l, m))
        solved = ((i, j), (i, k), (j, k))
    elif cell4.kind is CellKind.WHITE_AMBO4:
        # Complements of the black positions within the direction set, so the
        # same completion formulas apply verbatim to the complement view.
        i, j, k, l, m = idx
        required = (
            (j, k, m), (j, k, l), (i, k, m), (i, k, l), (i, j, m), (i, j, l),
            (i, j, k),
        )
        solved = ((k, l, m), (j, l, m), (i, l, m))
    else:
        raise CellError(f"{cell4.kind.value} has no seven-point completion")
    return (
        tuple(_offset(base, g) for g in required),
        tuple(_offset(base, g) for g in solved),
    )


def _take_initial(
    data: Mapping[Point, float], required: tuple[Point, ...]
) -> list[float]:
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
    return values


def _completed(value: float, label: str) -> float:
    if not math.isfinite(value) or value == 0.0:
        raise SingularFieldError(f"completed value {label} is singular: {value}")
    return value


def _self_check(field: Field, cell4: OrientedCell) -> None:
    worst = max(dkp_residual_relative(field, s) for s in system_on_4cell(cell4))
    if worst > config.TOLERANCES["solver_rel"]:
        raise SingularFieldError(
            f"completion failed self-check: relative residual {worst:.3e}"
        )


def solve_ambo_ivp(
    cell4: OrientedCell,
    data: Mapping[Point, float],
    branch: Branch = Branch.DKP,
) -> Field:
    """Complete seven prescribed values on a 4-ambo cell to a full solution.

    The inverse branch completes through the pointwise inversion, so the two
    branches are exactly conjugate under x -> 1/x.
    """
    required, solved = ambo_ivp_points(cell4)
    values = _take_initial(data, required)
    if branch is Branch.DKP_MINUS:
        inner = solve_ambo_ivp(
            cell4, {p: 1.0 / v for p, v in zip(required, values)}, Branch.DKP
        )
        return {p: 1.0 / v for p, v in inner.items()}
    if branch is not Branch.DKP:
        raise InitialDataError(f"cannot complete toward branch {branch}")
    x_il, x_im, x_jl, x_jm, x_kl, x_km, x_lm = values
    p_ij, p_ik, p_jk = solved
    field: Field = dict(zip(required, values))
    field[p_ij] = _completed((x_il * x_jm - x_im * x_jl) / x_lm, "first")
    field[p_ik] = _completed((x_il * x_km - x_im * x_kl) / x_lm, "second")
    field[p_jk] = _completed((x_jl * x_km - x_jm * x_kl) / x_lm, "third")
    _self_check(field, cell4)
    return field


def cube_ivp_points(cell4: OrientedCell) -> tuple[tuple[Point, ...], tuple[Point, ...]]:
    """(required, solved) vertex tuples for the nine-point cube completion.

    The free set (two single-index, five double-index, two triple-index
    vertices) was fixed once by rank probing the eight-equation system at
    random solutions: the Jacobian rank is 5, leaving 14 - 5 = 9 free values.
    """
    if cell4.kind is not CellKind.CUBE4:
        raise CellError(f"{cell4.kind.value} has no nine-point completion")
    base = cell4.base
    j, k, l, m = cell4.indices
    required = ((l,), (m,), (j, l), (j, m), (k, l), (k, m), (l, m), (j, k, l), (j, k, m))
    solved = ((j,), (k,), (j, k), (j, l, m), (k, l, m))
    return (
        tuple(_offset(base, g) for g in required),
        tuple(_offset(base, g) for g in solved),
    )


def solve_cube_ivp(
    cell4: OrientedCell,
    data: Mapping[Point, float],
    branch: Branch = Branch.DKP,
) -> Field:
    """Complete nine prescribed values on a 4D cube to a full solution.

    Single and double completions use the projected ambo formulas; the two
    triple-index values then follow from linear relations of the shifted
    facets.  The two corner vertices without equations never appear.
    """
    required, solved = cube_ivp_points(cell4)
    values = _take_initial(data, required)
    if branch is Branch.DKP_MINUS:
        inner = solve_cube_ivp(
            cell4, {p: 1.0 / v for p, v in zip(required, values)}, Branch.DKP
        )
        return {p: 1.0 / v for p, v in inner.items()}
    if branch is not Branch.DKP:
        raise InitialDataError(f"cannot complete toward branch {branch}")
    x_l, x_m, x_jl, x_jm, x_kl, x_km, x_lm, x_jkl, x_jkm = values
    p_j, p_k, p_jk, p_jlm, p_klm = solved
    field: Field = dict(zip(required, values))
    field[p_j] = _completed((x_l * x_jm - x_m * x_jl) / x_lm, "single j")
    field[p_k] = _completed((x_l * x_km - x_m * x_kl) / x_lm, "single k")
    x_jk = _completed((x_jl * x_km - x_jm * x_kl) / x_lm, "double jk")
    field[p_jk] = x_jk
    field[p_klm] = _completed((x_kl * x_jkm - x_km * x_jkl) / x_jk, "triple klm")
    field[p_jlm] = _completed((x_jl * x_jkm - x_jm * x_jkl) / x_jk, "triple jlm")
    _self_check(field, cell4)
    return field


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
    if cell4.kind is CellKind.BLACK_AMBO4:
        for pair in itertools.combinations(idx, 2):
            value = a if frozenset(pair) in adjacent else -1.0
            field[_offset(cell4.base, pair)] = value
    else:
        full = set(idx)
        for triple in itertools.combinations(idx, 3):
            complement = frozenset(full - set(triple))
            value = a if complement in adjacent else -1.0
            field[_offset(cell4.base, triple)] = value
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
    """Write a field as JSON; repr-based floats round-trip exactly."""
    payload = {
        "format": _FIELD_FORMAT,
        "lattice": lattice,
        "dim": int(dim),
        "values": {
            ",".join(str(c) for c in point): float(value)
            for point, value in sorted(field.items())
        },
    }
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
    if not isinstance(payload, dict) or payload.get("format") != _FIELD_FORMAT:
        raise FormatError(f"{path}: missing or unknown format marker")
    lattice = payload.get("lattice")
    if lattice not in ("qan", "cubic"):
        raise FormatError(f"{path}: lattice must be 'qan' or 'cubic'")
    try:
        dim = int(payload["dim"])
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
