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
of each support's derivative cancels between supports.  The factors of a
corner, products of the same ratios, are -1 (dKP) or +1 (inverse branch) on
solutions.  A corner's one factor is value itself, except on a 4D cube: a
triple-index corner's factor flips the sign of every support (1/value), and
a double-index corner has two, R_k of the octahedron on the six double-index
vertices times the supports at the cube base, and times the other supports
with their signs flipped, so that value is their quotient.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

from .cells import Chain, CellKind, OrientedCell, Point, _offset, facets, vertices
from .dilog import skew_dilog
from .dkp import (
    _SUPPORT_KINDS,
    RELATION_CELLS,
    field_values,
    signed_monomials,
    six_points,
    system_on_4cell,
)
from .errors import CellError, NoCornerEquationError, SingularFieldError

__all__ = [
    "CornerProduct",
    "action",
    "corner_product",
    "corner_residual",
    "corner_vertices",
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
        if cell.kind in _SUPPORT_KINDS:
            total += coeff * three_form(field, cell)
        elif cell.kind in (CellKind.BLACK_TETRAHEDRON, CellKind.WHITE_TETRAHEDRON):
            continue
        else:
            raise CellError(f"action is defined on 3-cells only, got {cell}")
    return total


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
    factors: tuple[tuple[_Term, ...], ...]  # the terms of each factor


class _CornerTable(NamedTuple):
    # Six points of every support (system_on_4cell order), then on a 4D cube
    # the octahedron on the six double-index vertices; terms index these.
    triples: tuple[tuple[Point, ...], ...]
    corners: dict[Point, _Corner | None]


@dataclass(frozen=True)
class CornerProduct:
    """Corner quantity at one vertex of a 4-cell.

    value enters the corner equation as (1/x) log|value|; factors are the
    quantities that equal -1 or +1 on the two solution branches (two at a
    double-index cube corner, whose quotient is value, one elsewhere).
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


@functools.lru_cache(maxsize=256)
def _corner_table(cell4: OrientedCell) -> _CornerTable:
    """Triples and the corner of every vertex of a 4-cell; None marks the two
    inert cube corners."""
    base = cell4.base
    supports = system_on_4cell(cell4.positive())
    triples = [six_points(support) for support in supports]
    through: dict[Point, list[_Term]] = {}
    for t, (support, points) in enumerate(zip(supports, triples)):
        for slot, point in enumerate(points):
            through.setdefault(point, []).append((t, min(slot, 5 - slot), support.sign))
    shifted = {t for t, support in enumerate(supports) if support.base != base}
    # Vertices on no support (the base and far corners of a 4D cube) are inert.
    corners: dict[Point, _Corner | None] = dict.fromkeys(vertices(cell4))
    # On a 4D cube the triple corners lie on shifted supports only, and the
    # double corners on the octahedron on the six double-index vertices.
    cube = cell4.kind is CellKind.CUBE4
    octahedron = tuple(
        _offset(base, pair) for pair in itertools.combinations(cell4.indices, 2)
    ) if cube else ()
    if cube:
        triples.append(octahedron)
    for vertex, terms in through.items():
        terms = tuple(terms)
        base_side = tuple(term for term in terms if term[0] not in shifted)
        flipped = tuple((t, k, -sign) for t, k, sign in terms if t in shifted)
        factors = (terms,)
        if vertex in octahedron:
            slot = octahedron.index(vertex)
            middle = (len(supports), min(slot, 5 - slot), 1)
            factors = ((*base_side, middle), (middle, *flipped))
        elif cube and not base_side:
            factors = (flipped,)
        corners[vertex] = _Corner(terms, factors)
    return _CornerTable(tuple(triples), corners)


@functools.lru_cache(maxsize=256)
def corner_vertices(cell4: OrientedCell) -> tuple[Point, ...]:
    """The vertices of a 4-cell that carry corner equations, sorted."""
    corners = _corner_table(cell4).corners
    return tuple(sorted(p for p, corner in corners.items() if corner is not None))


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
    used = {t for terms in (corner.terms, *corner.factors) for t, _, _ in terms}
    monomials = {t: _regular_monomials(field, table.triples[t]) for t in sorted(used)}
    value = _ratio_product(monomials, corner.terms)
    return CornerProduct(value, tuple(
        value if terms == corner.terms else _ratio_product(monomials, terms)
        for terms in corner.factors
    ))


def corner_residual(
    field: Mapping[Point, float], cell4: OrientedCell, vertex: Point
) -> float:
    """Analytic derivative of the exterior derivative at one vertex.

    Equals sign * (1/x) * log|corner product|; identically zero on the
    4-cells without a relation, whose facets carry no Lagrangian.
    """
    if cell4.dim == 4 and cell4.kind not in RELATION_CELLS:
        if tuple(vertex) not in vertices(cell4):
            raise CellError(f"{tuple(vertex)} is not a vertex of {cell4}")
        return 0.0
    product = corner_product(field, cell4, vertex)
    magnitude = abs(product.value)
    if magnitude == 0.0 or not math.isfinite(magnitude):
        raise SingularFieldError(f"corner product {product.value} at {vertex}")
    (x,) = field_values(field, (tuple(vertex),))
    return cell4.sign * math.log(magnitude) / x
