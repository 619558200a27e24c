"""Discrete 3-form, action functionals, and corner quantities.

With the six values of an octahedron in six_points order (x_ij, x_ik, x_il,
x_jk, x_jl, x_kl) and its signed monomials M = (x_ij x_kl, -x_ik x_jl,
x_il x_jk), dKP reads M1 + M2 + M3 = 0 and the 3-form is

    L = (1/2) * sign * ( Lam(-M1/M2) + Lam(-M2/M3) + Lam(-M3/M1) ),

on a 3D cube the same on the inscribed octahedron.  Tetrahedra carry no
Lagrangian, so the exterior derivative (the action over the facet chain)
vanishes identically on 4-simplices.

The derivative of the exterior derivative of a 4-cell at a vertex is
sign * (1/x) * log|value|: value is the product over the relation supports
through the vertex of R_k = (M_k + M_{k-1}) / (M_k + M_{k+1}) (indices mod 3,
M_k the monomial holding the vertex) raised to the support's sign; the rest
of each support's derivative cancels between supports.  On solutions value
is -1 (dKP) or +1 (inverse branch), except at double-index 4D-cube corners,
where it is the quotient of a black and a white factor, each -1 or +1: black
is the product over the supports at the cube base times R_k of the
octahedron on the six double-index vertices, and white = black / value.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

from .cells import Chain, CellKind, OrientedCell, Point, _offset, facets, vertices
from .dilog import skew_dilog
from .dkp import field_values, signed_monomials, six_points, system_on_4cell
from .errors import CellError, NoCornerEquationError, SingularFieldError

__all__ = [
    "CornerProduct",
    "action",
    "action_at",
    "corner_product",
    "corner_residual",
    "exterior_derivative",
    "three_form",
]

_FRACTION_GUARD = 1e-12


def three_form(field: Mapping[Point, float], cell: OrientedCell) -> float:
    """Value of the discrete 3-form on an octahedron or a 3D cube."""
    m1, m2, m3 = _regular_monomials(field, six_points(cell))
    return 0.5 * cell.sign * (
        skew_dilog(-m1 / m2) + skew_dilog(-m2 / m3) + skew_dilog(-m3 / m1)
    )


def action(field: Mapping[Point, float], manifold: Chain) -> float:
    """Signed sum of the 3-form over a chain; tetrahedra contribute zero."""
    total = 0.0
    for cell, coeff in manifold.items():
        if cell.kind in (CellKind.OCTAHEDRON, CellKind.CUBE3):
            total += coeff * three_form(field, cell)
        elif cell.kind in (CellKind.BLACK_TETRAHEDRON, CellKind.WHITE_TETRAHEDRON):
            continue
        else:
            raise CellError(f"action is defined on 3-cells only, got {cell}")
    return total


def action_at(field: Mapping[Point, float], manifold: Chain, vertex: Point) -> float:
    """Action restricted to the cells containing the vertex.

    Identical to the full action up to terms independent of the value at the
    vertex, hence interchangeable inside derivatives with respect to it.
    """
    return action(field, manifold.restricted_to_vertex(tuple(vertex)))


def exterior_derivative(field: Mapping[Point, float], cell4: OrientedCell) -> float:
    """Action of the 3-form over the facet chain of a 4-cell."""
    if cell4.dim != 4:
        raise CellError(f"exterior derivative needs a 4-cell, got {cell4.kind.value}")
    return action(field, facets(cell4))


# --- corner products ---------------------------------------------------------

# A term (triple, monomial slot, sign) is one relation support through a
# vertex: the index of its six points in the cell's triples, the monomial
# holding the vertex, and the support's orientation.
_Term = tuple[int, int, int]
_Monomials = tuple[float, float, float]
_ByTriple = Mapping[int, _Monomials] | Sequence[_Monomials]


class _Corner(NamedTuple):
    terms: tuple[_Term, ...]  # every relation support through the vertex
    black: tuple[_Term, ...] | None  # double cube corners: the black half
    inverse: bool  # triple cube corners report their white factor 1/value


class _CornerTable(NamedTuple):
    # Six points of every support (system_on_4cell order), then on a 4D cube
    # the octahedron on the six double-index vertices; terms index these.
    triples: tuple[tuple[Point, ...], ...]
    corners: dict[Point, _Corner | None]


@dataclass(frozen=True)
class CornerProduct:
    """Corner quantity at one vertex of a 4-cell.

    value enters the corner equation as (1/x) log|value|; factors are the
    quantities that equal -1 or +1 on the two solution branches (one for
    ambo cells, the black and white factors for double-index cube corners).
    """

    value: float
    factors: tuple[float, ...]


def _regular_monomials(
    field: Mapping[Point, float], points: tuple[Point, ...]
) -> _Monomials:
    # A zero or non-finite value makes one of its monomials zero or non-finite.
    monomials = signed_monomials(field, points)
    for m in monomials:
        if m == 0.0 or not math.isfinite(m):
            raise SingularFieldError(f"singular monomial {m!r} on {points}")
    return monomials


def _binomial(x: float, y: float) -> float:
    total = x + y
    if abs(total) < _FRACTION_GUARD * (abs(x) + abs(y)):
        raise SingularFieldError("near-singular corner fraction")
    return total


def _ratio_product(monomials: _ByTriple, terms: tuple[_Term, ...]) -> float:
    product = 1.0
    for t, k, sign in terms:
        m = monomials[t]
        num = _binomial(m[k], m[k - 1])
        den = _binomial(m[k], m[(k + 1) % 3])
        product *= num / den if sign > 0 else den / num
    return product


def _corner_from(monomials: _ByTriple, corner: _Corner) -> CornerProduct:
    """The corner product, given the monomials of the triples its terms use."""
    value = _ratio_product(monomials, corner.terms)
    if corner.black is not None:
        black = _ratio_product(monomials, corner.black)
        return CornerProduct(value, (black, black / value))
    if corner.inverse:
        return CornerProduct(value, (1.0 / value,))
    return CornerProduct(value, (value,))


@functools.lru_cache(maxsize=256)
def _corner_table(cell4: OrientedCell) -> _CornerTable:
    """Triples and the corner of every vertex of a 4-cell; None marks the two
    inert cube corners."""
    base = cell4.base
    supports = system_on_4cell(cell4.positive())
    triples = [six_points(support) for support in supports]
    through: dict[Point, list[_Term]] = {}
    base_side: dict[Point, list[_Term]] = {}
    for t, (support, points) in enumerate(zip(supports, triples)):
        for slot, point in enumerate(points):
            term = (t, min(slot, 5 - slot), support.sign)
            through.setdefault(point, []).append(term)
            if support.base == base:
                base_side.setdefault(point, []).append(term)
    # Vertices on no support (the base and far corners of a 4D cube) are inert.
    corners: dict[Point, _Corner | None] = dict.fromkeys(vertices(cell4))
    # On a 4D cube the black factor of a double corner closes its base-side
    # supports with the octahedron on the six double-index vertices, and the
    # triple corners are the ones on shifted supports only.
    cube = cell4.kind is CellKind.CUBE4
    octahedron = tuple(
        _offset(base, pair) for pair in itertools.combinations(cell4.indices, 2)
    ) if cube else ()
    if cube:
        triples.append(octahedron)
    for vertex, terms in through.items():
        black = None
        if vertex in octahedron:
            slot = octahedron.index(vertex)
            black = (*base_side[vertex], (len(supports), min(slot, 5 - slot), 1))
        corners[vertex] = _Corner(tuple(terms), black, cube and vertex not in base_side)
    return _CornerTable(tuple(triples), corners)


def corner_product(
    field: Mapping[Point, float], cell4: OrientedCell, vertex: Point
) -> CornerProduct:
    """The product of fractions behind the corner equation at the vertex."""
    vertex = tuple(vertex)
    table = _corner_table(cell4)
    if vertex not in table.corners:
        raise CellError(f"{vertex} is not a vertex of {cell4}")
    corner = table.corners[vertex]
    if corner is None:
        raise NoCornerEquationError(
            f"no corner equation at {vertex}: the action does not depend on it"
        )
    used = {t for t, _, _ in corner.terms + (corner.black or ())}
    monomials = {t: _regular_monomials(field, table.triples[t]) for t in sorted(used)}
    return _corner_from(monomials, corner)


def corner_residual(
    field: Mapping[Point, float], cell4: OrientedCell, vertex: Point
) -> float:
    """Analytic derivative of the exterior derivative at one vertex.

    Equals sign * (1/x) * log|corner product|; identically zero on the two
    4-simplex kinds, whose facets carry no Lagrangian.
    """
    if cell4.kind in (CellKind.BLACK_SIMPLEX4, CellKind.WHITE_SIMPLEX4):
        if tuple(vertex) not in vertices(cell4):
            raise CellError(f"{tuple(vertex)} is not a vertex of {cell4}")
        return 0.0
    product = corner_product(field, cell4, vertex)
    magnitude = abs(product.value)
    if magnitude == 0.0 or not math.isfinite(magnitude):
        raise SingularFieldError(f"corner product {product.value} at {vertex}")
    (x,) = field_values(field, (tuple(vertex),))
    return cell4.sign * math.log(magnitude) / x
