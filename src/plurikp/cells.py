"""Oriented cells and integer chains on the root lattice and the cubic lattice.

Lattice points are plain integer tuples.  Root-lattice cells live in an
ambient of N+1 coordinates and come in two colour families:

    kind      vertices (offsets from the base point)
    btri      e_i, e_j, e_k                      (weight-1 triangle)
    wtri      e_i+e_j, e_i+e_k, e_j+e_k          (weight-2 triangle)
    btet      four single offsets
    oct       the six pair offsets of 4 directions
    wtet      four triple offsets
    bsimp4    five single offsets
    bambo4    the ten pair offsets of 5 directions
    wambo4    the ten triple offsets
    wsimp4    five quadruple offsets

Cubic-lattice cells (sq, cube3, cube4) take all subsets of their directions
as offsets.  A cell is a tuple (kind, base, indices, sign), equal to and
hashing like the plain tuple of its fields; indices are kept strictly
increasing and any transposition is folded into the sign, so equal cells
compare equal bit for bit and chains cancel exactly.

Construction follows one rule: public construction validates, derived
construction trusts.  `OrientedCell(...)` and `Chain(terms)` check and
normalize whatever they are given.  A cell made from the parts of a cell
that is already valid (its facets, its positive or negative copy, its
padding within the ambient headroom, the lifts of a flower decomposition)
and a chain made from terms that are already canonical (sums, differences,
multiples, boundaries, restrictions, paddings) skip those checks.

Facets follow one orientation recipe: put alternating signs on the index
list starting with "+" on the last index, delete one index, keep the sign.
For a weight-w root-lattice cell the deleted-index facet of weight w stays
at the base while the weight w-1 facet is shifted by the deleted direction;
a cube has an unshifted facet and an opposite shifted facet with flipped
sign per deleted direction.  A corner, the facets of a 4-cell at one of its
vertices, comes from `_facets_at`, which builds only those facets: per
deleted direction, the shifted one if the vertex is offset along it and the
one at the base otherwise.
"""

from __future__ import annotations

import functools
import itertools
import operator
import re
from enum import Enum
from typing import Callable, Iterable, Iterator, NamedTuple

from . import config
from .errors import (
    CellError,
    ChainError,
    DecompositionError,
    FormatError,
    NotFlowerError,
    NotInteriorError,
)

Point = tuple[int, ...]

__all__ = [
    "CellKind",
    "Chain",
    "LATTICES",
    "Lattice",
    "OrientedCell",
    "Point",
    "boundary",
    "corner",
    "cubic_point_flower",
    "decompose_flower",
    "facets",
    "flower",
    "format_cell",
    "format_chain",
    "parse_cell",
    "parse_chain",
    "project_cell",
    "project_point",
    "qan_point_flower",
    "vertices",
]


class CellKind(Enum):
    BLACK_TRIANGLE = "btri"
    WHITE_TRIANGLE = "wtri"
    BLACK_TETRAHEDRON = "btet"
    OCTAHEDRON = "oct"
    WHITE_TETRAHEDRON = "wtet"
    BLACK_SIMPLEX4 = "bsimp4"
    BLACK_AMBO4 = "bambo4"
    WHITE_AMBO4 = "wambo4"
    WHITE_SIMPLEX4 = "wsimp4"
    SQUARE = "sq"
    CUBE3 = "cube3"
    CUBE4 = "cube4"

    # Members are singletons, so identity hashing is exact; it runs in C,
    # where Enum's own hash of the name is a Python call inside every cell
    # hash and every per-kind table lookup.
    __hash__ = object.__hash__

    @property
    def family(self) -> str:
        """The lattice family of the kind, a key of LATTICES."""
        return _INFO[self][0]


# kind -> (family, cell dimension, index count, vertex weight or None)
_INFO: dict[CellKind, tuple[str, int, int, int | None]] = {
    CellKind.BLACK_TRIANGLE: ("qan", 2, 3, 1),
    CellKind.WHITE_TRIANGLE: ("qan", 2, 3, 2),
    CellKind.BLACK_TETRAHEDRON: ("qan", 3, 4, 1),
    CellKind.OCTAHEDRON: ("qan", 3, 4, 2),
    CellKind.WHITE_TETRAHEDRON: ("qan", 3, 4, 3),
    CellKind.BLACK_SIMPLEX4: ("qan", 4, 5, 1),
    CellKind.BLACK_AMBO4: ("qan", 4, 5, 2),
    CellKind.WHITE_AMBO4: ("qan", 4, 5, 3),
    CellKind.WHITE_SIMPLEX4: ("qan", 4, 5, 4),
    CellKind.SQUARE: ("cubic", 2, 2, None),
    CellKind.CUBE3: ("cubic", 3, 3, None),
    CellKind.CUBE4: ("cubic", 4, 4, None),
}

# (family, index count, vertex weight) -> kind, for facet lookups.
_BY_SHAPE = {(family, n, w): kind for kind, (family, _, n, w) in _INFO.items()}

# kind -> (kind of the facets at the base, kind of the facets shifted along
# the deleted direction, sign of a shifted facet against one at the base),
# None where a kind has no such facet; see the module docstring.
_FACET_KINDS = {
    kind: (
        _BY_SHAPE.get((family, n - 1, w)),
        _BY_SHAPE.get((family, n - 1, w and w - 1)),
        1 if w else -1,
    )
    for kind, (family, _, n, w) in _INFO.items()
}

# kind -> the kind with one more index and the same vertex weight.
_LIFTS = {kind: _BY_SHAPE.get((family, n + 1, w)) for kind, (family, _, n, w) in _INFO.items()}

_KIND_BY_TOKEN = {kind.value: kind for kind in CellKind}

FOUR_CELL_KINDS = (
    CellKind.BLACK_SIMPLEX4,
    CellKind.BLACK_AMBO4,
    CellKind.WHITE_AMBO4,
    CellKind.WHITE_SIMPLEX4,
    CellKind.CUBE4,
)


class Lattice(NamedTuple):
    """The geometry of one lattice family, decided here and nowhere else.

    At dimension N a point has N + extra coordinates (the root lattice
    Q(A_N) sits in Z^(N+1)), and a corner decomposition appends aux more.
    Standard cells sit at the origin on directions 0, 1, ...; the standard
    flower is the full point star of the sub-lattice on the first
    flower_dirs directions, so above dimension 4 only the ambient grows.
    """

    name: str
    extra: int
    aux: int
    four_cells: tuple[CellKind, ...]  # in FOUR_CELL_KINDS order
    # (first, second, step, sign): 4-cells that share a facet when the second,
    # with that sign, sits step along the first's last direction.
    glued: tuple[tuple[CellKind, CellKind, int, int], ...]
    flower_dirs: int
    point_flower: Callable[[Point, Iterable[int]], "Chain"]

    def ambient(self, dim: int) -> int:
        return dim + self.extra

    @property
    def max_ambient(self) -> int:
        # Headroom past MAX_DIM for the auxiliary directions.
        return self.ambient(config.MAX_DIM) + self.aux

    def cell(self, kind: CellKind, dim: int) -> "OrientedCell":
        """The standard cell of a kind of this family at dimension dim."""
        if kind.family != self.name:
            raise CellError(f"{kind.value} is not a {self.name} cell")
        return OrientedCell(kind, (0,) * self.ambient(dim), tuple(range(_INFO[kind][2])))

    def star(self, dim: int) -> tuple["Chain", Point]:
        """The standard flower at dimension dim and its center, the origin."""
        center = (0,) * self.ambient(dim)
        return self.point_flower(center, range(self.flower_dirs)), center


def _sort_with_parity(indices: Iterable[int]) -> tuple[tuple[int, ...], int]:
    seq = tuple(indices)
    inversions = sum(a > b for a, b in itertools.combinations(seq, 2))
    return tuple(sorted(seq)), -1 if inversions % 2 else 1


class OrientedCell(tuple):
    """A lattice cell in canonical form: sorted indices, sign in {+1, -1}.

    A cell is the tuple (kind, base, indices, sign) and nothing more: it
    compares equal to, and hashes like, the plain tuple of its fields, so
    equality, hashing and dict lookups run in C.  The fields are read-only
    and a cell takes no other attributes.  Its corners come from
    `_facets_at`.
    """

    __slots__ = ()

    # A CellKind, a Point, a tuple of ints and +1 or -1.
    kind = property(operator.itemgetter(0))
    base = property(operator.itemgetter(1))
    indices = property(operator.itemgetter(2))
    sign = property(operator.itemgetter(3))

    def __new__(cls, kind: CellKind, base: Point, indices: Iterable[int], sign: int = 1):
        # Through the class attribute, so that a wrapper set on the class
        # sees every validated construction.
        return _new_tuple(cls, OrientedCell.__post_init__(kind, base, indices, sign))

    @staticmethod
    def __post_init__(kind: CellKind, base: Point, indices: Iterable[int], sign: int):
        """Check the fields; return them canonical, the index parity in the sign."""
        if kind not in _INFO:
            raise CellError(f"unknown cell kind {kind!r}")
        family, _, n_idx, _ = _INFO[kind]
        base = tuple(int(c) for c in base)
        sorted_idx, parity = _sort_with_parity(int(i) for i in indices)
        if len(sorted_idx) != n_idx:
            raise CellError(
                f"{kind.value} needs {n_idx} indices, got {len(sorted_idx)}"
            )
        if len(set(sorted_idx)) != n_idx:
            raise CellError(f"repeated index in {sorted_idx}")
        ambient = len(base)
        min_ambient, max_ambient = _AMBIENT_BOUNDS[family]
        if ambient < min_ambient or ambient > max_ambient:
            raise CellError(
                f"ambient size {ambient} outside [{min_ambient}, {max_ambient}]"
                f" for a {family} cell"
            )
        if sorted_idx[0] < 0 or sorted_idx[-1] >= ambient:
            raise CellError(f"indices {sorted_idx} out of range for ambient {ambient}")
        if sign not in (1, -1):
            raise CellError(f"sign must be +1 or -1, got {sign!r}")
        return kind, base, sorted_idx, sign * parity

    def __reduce__(self):
        # Tuple pickling would call the constructor with one tuple.
        return (OrientedCell, tuple(self))

    def __repr__(self) -> str:
        return "OrientedCell(kind={!r}, base={!r}, indices={!r}, sign={!r})".format(*self)

    @property
    def family(self) -> str:
        return _INFO[self[0]][0]

    @property
    def dim(self) -> int:
        return _INFO[self[0]][1]

    @property
    def weight(self) -> int | None:
        """Vertex weight of a root-lattice cell, None for cubic cells."""
        return _INFO[self[0]][3]

    def positive(self) -> "OrientedCell":
        return self if self.sign == 1 else _derived_cell(self.kind, self.base, self.indices, 1)

    def __neg__(self) -> "OrientedCell":
        return _derived_cell(self.kind, self.base, self.indices, -self.sign)

    def shifted(self, direction: int, steps: int = 1) -> "OrientedCell":
        base = list(self.base)
        base[direction] += steps
        return OrientedCell(self.kind, tuple(base), self.indices, self.sign)

    def padded(self, extra: int) -> "OrientedCell":
        base = self.base + (0,) * extra
        if len(base) > _AMBIENT_BOUNDS[self.family][1]:
            # Past the headroom: let the constructor raise CellError.
            return OrientedCell(self.kind, base, self.indices, self.sign)
        return _derived_cell(self.kind, base, self.indices, self.sign)

    def __str__(self) -> str:
        return format_cell(self)


_new_tuple = tuple.__new__


def _derived_cell(
    kind: CellKind, base: Point, indices: tuple[int, ...], sign: int
) -> OrientedCell:
    """A cell built from the parts of a valid cell, already in canonical form.

    The caller guarantees what `__post_init__` would check: a tuple base of
    ints inside the ambient range, strictly increasing in-range indices of
    the kind's count, and a sign of +1 or -1.  Nothing is re-sorted.
    """
    return _new_tuple(OrientedCell, (kind, base, indices, sign))


def _offset(base: Point, directions: Iterable[int]) -> Point:
    point = list(base)
    for d in directions:
        point[d] += 1
    return tuple(point)


def vertices(cell: OrientedCell) -> frozenset[Point]:
    """Vertex set of the cell, translated by its base point: the base moved
    along each weight-sized subset of the indices, or each subset on a cube."""
    w = cell.weight
    sizes = range(len(cell.indices) + 1) if w is None else (w,)
    return frozenset(
        _offset(cell.base, combo)
        for r in sizes
        for combo in itertools.combinations(cell.indices, r)
    )


def has_vertex(cell: OrientedCell, point: Point) -> bool:
    # Offsets from the base are 0 or 1, nonzero only along the cell's indices,
    # and on the root lattice there are weight-many of them.
    base = cell.base
    if len(point) != len(base):
        return False
    indices = cell.indices
    moved = 0
    for d, p, b in zip(range(len(base)), point, base):
        if p != b:
            if p - b != 1 or d not in indices:
                return False
            moved += 1
    weight = cell.weight
    return weight is None or moved == weight


def _coefficient(value: object) -> int:
    """An exact integer coefficient: an int or a numpy integer, never a
    bool, a float or text (which int() would truncate or parse)."""
    if isinstance(value, bool):
        raise ChainError(f"coefficient {value!r} is a bool, not an integer")
    try:
        return operator.index(value)
    except TypeError:
        raise ChainError(f"coefficient {value!r} is not an integer") from None


def _cell(value: object) -> OrientedCell:
    """A chain term's cell: an OrientedCell, not a tuple that equals one."""
    if not isinstance(value, OrientedCell):
        raise ChainError(f"term {value!r} is not an OrientedCell")
    return value


def _add_into(
    acc: dict[OrientedCell, int],
    terms: Iterable[tuple[OrientedCell, int]],
    scale: int = 1,
) -> None:
    """Add scale times canonical terms (positive cell, nonzero int) into acc,
    dropping what cancels; scale must be a nonzero int."""
    for cell, coeff in terms:
        new = acc.get(cell, 0) + coeff * scale
        if new:
            acc[cell] = new
        else:
            del acc[cell]


class Chain:
    """Integer formal sum of oriented cells with exact cancellation.

    Keys are positively oriented canonical cells; a negatively oriented cell
    contributes through the sign of its coefficient.  `Chain(terms)`
    validates and normalizes its terms (OrientedCell cells and int or numpy
    integer coefficients only, ChainError otherwise); chains derived from
    chains (sums, multiples, boundaries, restrictions, paddings) are built
    straight from canonical terms and trust them.  Chains never change after
    construction, so the sorted terms and the non-empty restrictions to
    vertices are computed once per chain.
    """

    __slots__ = ("_terms", "_sorted", "_stars")

    def __init__(self, terms: Iterable[tuple[OrientedCell, int]] = ()) -> None:
        checked = ((_cell(cell), _coefficient(raw)) for cell, raw in terms)
        self._terms: dict[OrientedCell, int] = {}
        _add_into(self._terms, ((c.positive(), k * c.sign) for c, k in checked if k))
        self._sorted: list[tuple[OrientedCell, int]] | None = None
        self._stars: dict[Point, Chain] = {}

    @classmethod
    def _wrap(cls, terms: dict[OrientedCell, int]) -> "Chain":
        """A chain over a dict already keyed by positive cells with nonzero
        int coefficients; the dict is taken over, not copied."""
        chain = cls.__new__(cls)
        chain._terms = terms
        chain._sorted = None
        chain._stars = {}
        return chain

    @classmethod
    def of(cls, *cells: OrientedCell) -> "Chain":
        return cls((cell, 1) for cell in cells)

    def items(self) -> Iterator[tuple[OrientedCell, int]]:
        if self._sorted is None:
            self._sorted = sorted(
                self._terms.items(), key=lambda kv: format_cell(kv[0])
            )
        return iter(self._sorted)

    def coefficient(self, cell: OrientedCell) -> int:
        return self._terms.get(cell.positive(), 0) * cell.sign

    def cells(self) -> list[OrientedCell]:
        return [cell for cell, _ in self.items()]

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Chain) and self._terms == other._terms

    def __add__(self, other: "Chain") -> "Chain":
        acc = dict(self._terms)
        _add_into(acc, other._terms.items())
        return Chain._wrap(acc)

    def __neg__(self) -> "Chain":
        return Chain._wrap({cell: -c for cell, c in self._terms.items()})

    def __sub__(self, other: "Chain") -> "Chain":
        acc = dict(self._terms)
        _add_into(acc, other._terms.items(), -1)
        return Chain._wrap(acc)

    def __mul__(self, scalar: int) -> "Chain":
        scalar = _coefficient(scalar)
        if not scalar:
            return Chain()
        return Chain._wrap({cell: c * scalar for cell, c in self._terms.items()})

    __rmul__ = __mul__

    def __repr__(self) -> str:
        if not self._terms:
            return "Chain()"
        return "Chain[" + ", ".join(f"{c}*{cell}" for cell, c in self.items()) + "]"

    def restricted_to_vertex(self, point: Point) -> "Chain":
        point = tuple(point)
        star = self._stars.get(point)
        if star is None:
            star = Chain._wrap(
                {cell: c for cell, c in self._terms.items() if has_vertex(cell, point)}
            )
            # Only vertices of the chain are kept, which bounds _stars.
            if star:
                self._stars[point] = star
        return star

    def padded(self, extra: int) -> "Chain":
        # Padding is injective and keeps signs, so no two keys merge.
        return Chain._wrap({cell.padded(extra): c for cell, c in self._terms.items()})


def _deletion_signs(count: int) -> list[int]:
    # Alternating signs over the sorted index list, "+" on the last index.
    return [1 if (count - 1 - p) % 2 == 0 else -1 for p in range(count)]


@functools.lru_cache(maxsize=256)
def facets(cell: OrientedCell) -> Chain:
    """Signed facet chain of a 3-cell or 4-cell."""
    if cell.dim == 2:
        raise CellError(f"facets of a 2-cell ({cell.kind.value}) are not supported")
    return _facets_at(cell, None)


def _facets_at(cell: OrientedCell, vertex: Point | None) -> Chain:
    """The signed facets of a cell that hold one of its vertices, or all of
    its facets when the vertex is None.

    The facet that deletes direction d holds the vertex exactly when the
    facet is shifted along d and the vertex is offset along d, so each
    direction gives at most one.
    """
    kind, base, idx, sign = cell
    at_base, shifted_kind, shifted_sign = _FACET_KINDS[kind]
    signs = _deletion_signs(len(idx))
    # Facets are distinct positive cells with coefficient +-1, so they go
    # straight into the chain's dict.
    terms: dict[OrientedCell, int] = {}
    for pos, deleted in enumerate(idx):
        rest = idx[:pos] + idx[pos + 1 :]
        s = signs[pos] * sign
        # With a vertex, only the facet on its side along the deleted direction.
        offset = None if vertex is None else vertex[deleted] != base[deleted]
        if at_base is not None and not offset:
            terms[_derived_cell(at_base, base, rest, 1)] = s
        if shifted_kind is not None and offset is not False:
            shifted = _offset(base, (deleted,))
            terms[_derived_cell(shifted_kind, shifted, rest, 1)] = s * shifted_sign
    return Chain._wrap(terms)


def boundary(chain: Chain) -> Chain:
    """Linear extension of facets to chains."""
    acc: dict[OrientedCell, int] = {}
    for cell, coeff in chain._terms.items():
        _add_into(acc, facets(cell)._terms.items(), coeff)
    return Chain._wrap(acc)


def corner(cell4: OrientedCell, center: Point) -> Chain:
    """All facets of a 4-cell adjacent to the center vertex."""
    if cell4.dim != 4:
        raise CellError(f"corner needs a 4-cell, got {cell4.kind.value}")
    center = tuple(center)
    if not has_vertex(cell4, center):
        raise CellError(f"{center} is not a vertex of {cell4}")
    return _facets_at(cell4, center)


def _check_three_manifold_terms(chain: Chain) -> str:
    terms = chain._terms
    bad = [(cell, c) for cell, c in terms.items() if cell.dim != 3 or abs(c) != 1]
    if bad:
        # Name the first offending term in text order.
        cell, coeff = min(bad, key=lambda kv: format_cell(kv[0]))
        if cell.dim != 3:
            raise ChainError(f"chain contains a non-3-cell {cell}")
        raise ChainError(f"coefficient {coeff} on {cell}: not a manifold chain")
    families = {cell.family for cell in terms}
    if len(families) > 1:
        raise ChainError("chain mixes root-lattice and cubic cells")
    if len({len(cell.base) for cell in terms}) > 1:
        raise ChainError("mixed ambient sizes in one chain")
    return families.pop() if families else "qan"


def flower(manifold: Chain, vertex: Point) -> Chain:
    """Sub-chain of all 3-cells of the manifold containing the vertex.

    Raises NotInteriorError when some 2-cell facet at the vertex is left
    unmatched, i.e. the vertex lies on the boundary of the star.
    """
    vertex = tuple(vertex)
    star = manifold.restricted_to_vertex(vertex)
    if not star:
        raise NotFlowerError(f"no 3-cell of the chain contains {vertex}")
    _check_three_manifold_terms(star)
    unmatched: dict[OrientedCell, int] = {}
    for cell, coeff in star._terms.items():
        _add_into(unmatched, _facets_at(cell, vertex)._terms.items(), coeff)
    if unmatched:
        cell, coeff = min(unmatched.items(), key=lambda kv: format_cell(kv[0]))
        raise NotInteriorError(
            f"unmatched facet {cell} at {vertex} (coefficient {coeff})"
        )
    return star


def _point_flower(
    center: Point,
    directions: Iterable[int],
    count: int,
    petals: Iterable[tuple[int, CellKind, int]],
) -> Chain:
    """The star of a vertex in the sub-lattice on count directions: for each
    (r, kind, coefficient) petal, one cell per r-subset of the directions,
    based at the center moved back along that subset."""
    dirs = tuple(sorted(set(int(d) for d in directions)))
    if len(dirs) != count:
        raise ChainError(f"need exactly {count} directions, got {dirs}")
    center = tuple(center)
    return Chain(
        (OrientedCell(kind, tuple(c - (d in combo) for d, c in enumerate(center)), dirs), coeff)
        for r, kind, coeff in petals
        for combo in itertools.combinations(dirs, r)
    )


def qan_point_flower(center: Point, directions: Iterable[int]) -> Chain:
    """The 14-cell flower of a 4-direction root sub-lattice around a vertex.

    Four black tetrahedra, six octahedra with reversed orientation, and four
    white tetrahedra; the unique (up to global orientation) flower of the
    full 3-dimensional sub-lattice star.
    """
    petals = (
        (1, CellKind.BLACK_TETRAHEDRON, 1),
        (2, CellKind.OCTAHEDRON, -1),
        (3, CellKind.WHITE_TETRAHEDRON, 1),
    )
    return _point_flower(center, directions, 4, petals)


def cubic_point_flower(center: Point, directions: Iterable[int]) -> Chain:
    """The eight 3D cubes around a vertex of a cubic sub-lattice."""
    return _point_flower(center, directions, 3, [(r, CellKind.CUBE3, 1) for r in range(4)])


LATTICES = {
    "qan": Lattice(
        "qan", extra=1, aux=2, four_cells=FOUR_CELL_KINDS[:4],
        glued=(
            (CellKind.BLACK_SIMPLEX4, CellKind.BLACK_AMBO4, -1, -1),
            (CellKind.BLACK_AMBO4, CellKind.WHITE_AMBO4, -1, -1),
            (CellKind.WHITE_AMBO4, CellKind.WHITE_SIMPLEX4, -1, -1),
        ),
        flower_dirs=4, point_flower=qan_point_flower,
    ),
    "cubic": Lattice(
        "cubic", extra=0, aux=1, four_cells=FOUR_CELL_KINDS[4:],
        glued=((CellKind.CUBE4, CellKind.CUBE4, 1, 1),),
        flower_dirs=3, point_flower=cubic_point_flower,
    ),
}

# Point sizes a cell may have, per family: dimensions 3 to MAX_DIM plus the
# auxiliary directions.  Read on every validated construction, so kept as a
# table rather than recomputed from the Lattice each time.
_AMBIENT_BOUNDS = {
    name: (lattice.ambient(3), lattice.max_ambient) for name, lattice in LATTICES.items()
}


def decompose_flower(
    flower_chain: Chain, vertex: Point
) -> list[tuple[OrientedCell, Point]]:
    """Represent a flower as a list of 4D corners (4-cell, center) pairs.

    Root-lattice flowers are lifted over two auxiliary directions M and L
    (the next two coordinates); cubic flowers over one.  The chain sum of
    the returned corners reproduces the padded input exactly, which is
    re-checked before returning.  A bouquet (3-spheres that touch only at
    the vertex) either decomposes too or raises DecompositionError, when the
    white lifts leave an auxiliary tetrahedron with coefficient 2.
    """
    vertex = tuple(vertex)
    star = flower(flower_chain, vertex)
    if len(star) != len(flower_chain):
        raise NotFlowerError("chain contains cells away from the vertex")
    # flower() has checked the star's terms: one family, and not empty.
    family = next(iter(star._terms)).family
    aux = LATTICES[family].aux
    padded_vertex = vertex + (0,) * aux
    padded = star.padded(aux)
    aux_m = len(vertex)
    # Every cell is lifted along M to the kind with one more index and the
    # same vertex weight.  M is above every index, so the lifted indices stay
    # sorted; coefficients are +-1 on a manifold chain.
    pairs = [
        (_derived_cell(_LIFTS[cell.kind], cell.base, cell.indices + (aux_m,), coeff),
         padded_vertex)
        for cell, coeff in padded.items()
    ]
    if family == "qan":
        # The white lifts leave auxiliary white tetrahedra; white 4-simplices
        # along L close them.
        aux_l = aux_m + 1
        white_corner_sum = _corner_sum(
            pair for pair in pairs if pair[0].kind is CellKind.WHITE_AMBO4
        )
        for cell, coeff in white_corner_sum.items():
            if cell.kind is not CellKind.WHITE_TETRAHEDRON or aux_m not in cell.indices:
                continue
            if abs(coeff) != 1:
                raise DecompositionError(
                    f"auxiliary tetrahedron {cell} has coefficient {coeff}"
                )
            base = list(cell.base)
            base[aux_l] -= 1
            simplex = _derived_cell(
                CellKind.WHITE_SIMPLEX4, tuple(base), cell.indices + (aux_l,), -coeff
            )
            pairs.append((simplex, padded_vertex))
    residual = _corner_sum(pairs) - padded
    if residual:
        raise DecompositionError(f"nonzero residual chain: {residual!r}")
    return pairs


def _corner_sum(pairs: Iterable[tuple[OrientedCell, Point]]) -> Chain:
    acc: dict[OrientedCell, int] = {}
    for cell4, center in pairs:
        _add_into(acc, corner(cell4, center)._terms.items())
    return Chain._wrap(acc)


def project_point(axis: int, point: Point) -> Point:
    """Drop the given coordinate, mapping a root-lattice point to a cubic one."""
    point = tuple(point)
    if not 0 <= axis < len(point):
        raise CellError(f"axis {axis} out of range for point of size {len(point)}")
    return point[:axis] + point[axis + 1 :]


def project_cell(axis: int, cell: OrientedCell) -> OrientedCell:
    """Cell-wise projection: octahedra to 3D cubes, black 4-ambo cells to 4D cubes.

    The axis must be the smallest index of the cell; remaining directions
    shift down by one after the coordinate is dropped.
    """
    if cell.kind is CellKind.OCTAHEDRON:
        new_kind = CellKind.CUBE3
    elif cell.kind is CellKind.BLACK_AMBO4:
        new_kind = CellKind.CUBE4
    else:
        raise CellError(f"no cubic counterpart for {cell.kind.value}")
    if cell.indices[0] != axis:
        raise CellError(
            f"axis {axis} must be the smallest cell index {cell.indices[0]}"
        )
    new_dirs = tuple(d - 1 for d in cell.indices[1:])
    return OrientedCell(new_kind, project_point(axis, cell.base), new_dirs, cell.sign)


_CELL_RE = re.compile(
    r"^\s*([+-]?)([a-z0-9]+)\[([0-9 ]+)\]@\(([-0-9,]+)\)\s*$"
)


def format_cell(cell: OrientedCell) -> str:
    sign = "-" if cell.sign < 0 else "+"
    idx = " ".join(str(i) for i in cell.indices)
    base = ",".join(str(c) for c in cell.base)
    return f"{sign}{cell.kind.value}[{idx}]@({base})"


def parse_cell(text: str) -> OrientedCell:
    match = _CELL_RE.match(text)
    if not match:
        raise FormatError(f"malformed cell text {text!r}")
    sign_txt, token, idx_txt, base_txt = match.groups()
    kind = _KIND_BY_TOKEN.get(token)
    if kind is None:
        raise FormatError(f"unknown cell kind token {token!r}")
    sign = -1 if sign_txt == "-" else 1
    try:
        indices = tuple(int(t) for t in idx_txt.split())
        base = tuple(int(t) for t in base_txt.split(","))
        return OrientedCell(kind, base, indices, sign)
    except (ValueError, CellError) as exc:
        raise FormatError(f"invalid cell {text!r}: {exc}") from exc


def format_chain(chain: Chain) -> str:
    return "\n".join(f"{coeff} {format_cell(cell)}" for cell, coeff in chain.items())


def parse_chain(text: str) -> Chain:
    terms = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head, _, rest = line.partition(" ")
        try:
            coeff = int(head)
        except ValueError as exc:
            raise FormatError(f"line {lineno}: expected integer coefficient") from exc
        terms.append((parse_cell(rest), coeff))
    return Chain(terms)
