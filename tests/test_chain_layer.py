"""Derived cells and chains agree with the validating public constructors.

Facets, orientation flips, paddings, decomposition lifts and chain arithmetic
build their results without re-validating; every such result must be equal,
with an equal hash, to what `OrientedCell(...)` and `Chain(terms)` build.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    format_cell,
    format_chain,
    has_vertex,
    qan_point_flower,
    vertices,
)
from plurikp.errors import CellError, ChainError, NotInteriorError

# Index count of every kind, and its lattice.
_COUNTS = {
    CellKind.BLACK_TRIANGLE: 3, CellKind.WHITE_TRIANGLE: 3,
    CellKind.BLACK_TETRAHEDRON: 4, CellKind.OCTAHEDRON: 4,
    CellKind.WHITE_TETRAHEDRON: 4, CellKind.BLACK_SIMPLEX4: 5,
    CellKind.BLACK_AMBO4: 5, CellKind.WHITE_AMBO4: 5, CellKind.WHITE_SIMPLEX4: 5,
    CellKind.SQUARE: 2, CellKind.CUBE3: 3, CellKind.CUBE4: 4,
}
_CUBIC = (CellKind.SQUARE, CellKind.CUBE3, CellKind.CUBE4)
# Non-contiguous directions in an ambient of 7 (root) or 6 (cubic) coordinates.
_SPREAD = {2: (1, 4), 3: (0, 3, 5), 4: (0, 2, 3, 5), 5: (0, 2, 3, 5, 6)}
_SHIFTED_BASE = (2, -1, 0, 3, -2, 1, -3)


def _placements(kind):
    cubic = kind in _CUBIC
    n = _COUNTS[kind]
    origin_ambient = 4 if cubic else 5
    yield (0,) * origin_ambient, tuple(range(n))
    ambient = 6 if cubic else 7
    yield _SHIFTED_BASE[:ambient], _SPREAD[n]


def _all_cells():
    for kind in CellKind:
        for base, indices in _placements(kind):
            for sign in (1, -1):
                yield OrientedCell(kind, base, indices, sign)


ALL_CELLS = list(_all_cells())


def rebuilt(cell):
    return OrientedCell(cell.kind, cell.base, cell.indices, cell.sign)


def assert_canonical(cell):
    """The derived cell is what the public constructor makes of its parts."""
    public = rebuilt(cell)
    assert cell == public
    assert hash(cell) == hash(public)
    assert cell.indices == public.indices and cell.sign == public.sign
    assert type(cell.base) is tuple and all(type(c) is int for c in cell.base)
    assert list(cell.indices) == sorted(set(cell.indices))
    assert cell.sign in (1, -1)


# --- derived cells ----------------------------------------------------------------


@pytest.mark.parametrize("cell", ALL_CELLS, ids=format_cell)
def test_orientation_flips_match_public_constructor(cell):
    for derived in (cell.positive(), -cell, -(-cell)):
        assert_canonical(derived)
    assert cell.positive().sign == 1
    assert (-cell).sign == -cell.sign


@pytest.mark.parametrize(
    "cell", [c for c in ALL_CELLS if c.dim > 2], ids=format_cell
)
def test_facets_match_public_constructor(cell):
    facets.cache_clear()
    for facet, coeff in facets(cell).items():
        assert_canonical(facet)
        assert facet.sign == 1 and coeff in (1, -1)


@pytest.mark.parametrize("cell", ALL_CELLS, ids=format_cell)
def test_padding_within_headroom_matches_public_constructor(cell):
    headroom = config.MAX_DIM + (1 if cell.family == "cubic" else 3)
    for extra in range(0, headroom - len(cell.base) + 1):
        assert_canonical(cell.padded(extra))
    with pytest.raises(CellError):
        cell.padded(headroom - len(cell.base) + 1)


def test_padding_past_headroom_raises_at_max_dimension():
    qan = OrientedCell(CellKind.OCTAHEDRON, (0,) * (config.MAX_DIM + 1), (0, 1, 2, 3))
    assert len(qan.padded(2).base) == config.MAX_DIM + 3
    with pytest.raises(CellError):
        qan.padded(3)
    cube = OrientedCell(CellKind.CUBE3, (0,) * config.MAX_DIM, (0, 1, 2))
    assert len(cube.padded(1).base) == config.MAX_DIM + 1
    with pytest.raises(CellError):
        cube.padded(2)
    with pytest.raises(CellError):
        Chain.of(cube).padded(2)


FOUR_CELLS = [cell for cell in ALL_CELLS if cell.dim == 4]


def _flowers():
    for cell4 in FOUR_CELLS:
        for vertex in sorted(vertices(cell4)):
            yield flower(facets(cell4), vertex), vertex
    for base in ((0,) * 5, _SHIFTED_BASE):
        yield qan_point_flower(base, (0, 2, 3, 4)), base
        yield cubic_point_flower(base[:4], (0, 1, 3)), base[:4]


def test_decomposition_lifts_match_public_constructor():
    seen = set()
    for star, vertex in _flowers():
        for cell4, _ in decompose_flower(star, vertex):
            assert_canonical(cell4)
            seen.add((cell4.kind, cell4.sign))
    # Both orientations of every lifted kind were produced.
    assert seen == {(kind, sign) for kind in FOUR_CELL_KINDS for sign in (1, -1)}


# --- corners at the vertex -------------------------------------------------------


@pytest.mark.parametrize("cell4", FOUR_CELLS, ids=format_cell)
def test_corner_is_the_facet_chain_restricted_to_the_vertex(cell4):
    facets.cache_clear()
    for vertex in sorted(vertices(cell4)):
        oracle = reference(facets(cell4).restricted_to_vertex(vertex).items())
        result = corner(cell4, vertex)
        assert result
        assert_same_chain(result, oracle)
        for facet in result.cells():
            assert_canonical(facet)


@pytest.mark.parametrize("cell4", FOUR_CELLS, ids=format_cell)
def test_corner_off_the_vertices_raises(cell4):
    for vertex in vertices(cell4):
        far = list(vertex)
        far[cell4.indices[0]] += 2
        with pytest.raises(CellError):
            corner(cell4, far)
    with pytest.raises(CellError):
        corner(cell4, cell4.base + (0,))
    if cell4.family == "qan":
        with pytest.raises(CellError):
            corner(cell4, cell4.base)


def _without_one(chain, index):
    removed = chain.cells()[index]
    return chain - Chain.of(removed) * chain.coefficient(removed)


@pytest.mark.parametrize(
    "chain,vertex,message",
    [
        (
            _without_one(qan_point_flower((0,) * 5, (0, 1, 2, 3)), 4),
            (0,) * 5,
            "unmatched facet +btri[0 2 3]@(-1,0,0,0,0) at (0, 0, 0, 0, 0) (coefficient 1)",
        ),
        (
            _without_one(cubic_point_flower(_SHIFTED_BASE[:6], (0, 3, 5)), 3),
            _SHIFTED_BASE[:6],
            "unmatched facet +sq[0 3]@(1,-1,0,3,-2,1) at (2, -1, 0, 3, -2, 1)"
            " (coefficient -1)",
        ),
        (
            Chain.of(OrientedCell(CellKind.OCTAHEDRON, _SHIFTED_BASE, _SPREAD[4], -1)),
            (3, -1, 0, 4, -2, 1, -3),
            "unmatched facet +btri[0 2 5]@(2,-1,0,4,-2,1,-3) at (3, -1, 0, 4, -2, 1, -3)"
            " (coefficient 1)",
        ),
    ],
    ids=["qan-star-less-an-octahedron", "cubic-star-less-a-cube", "one-octahedron"],
)
def test_flower_names_the_same_unmatched_facet_at_a_boundary_vertex(chain, vertex, message):
    with pytest.raises(NotInteriorError) as info:
        flower(chain, vertex)
    assert str(info.value) == message


# --- derived chains ---------------------------------------------------------------

_QAN_3CELLS = (CellKind.BLACK_TETRAHEDRON, CellKind.OCTAHEDRON, CellKind.WHITE_TETRAHEDRON)

qan_cells = st.builds(
    OrientedCell,
    st.sampled_from(_QAN_3CELLS),
    st.tuples(*[st.integers(-1, 1)] * 5),
    st.sampled_from(list(itertools.combinations(range(5), 4))),
    st.sampled_from((1, -1)),
)
chains = st.lists(st.tuples(qan_cells, st.integers(-3, 3)), max_size=8).map(Chain)
four_cells = st.builds(
    OrientedCell,
    st.sampled_from(FOUR_CELL_KINDS[:4]),
    st.tuples(*[st.integers(-1, 1)] * 6),
    st.sampled_from(list(itertools.combinations(range(6), 5))),
    st.sampled_from((1, -1)),
)


def reference(terms):
    """The normalizing public path, over cells rebuilt by the constructor."""
    return Chain((rebuilt(cell), coeff) for cell, coeff in terms)


def assert_same_chain(result, ref, *sources):
    assert result == ref
    assert list(result.items()) == list(ref.items())
    assert format_chain(result) == format_chain(ref)
    for cell, coeff in result._terms.items():
        assert cell.sign == 1 and coeff and type(coeff) is int
        assert hash(cell) == hash(rebuilt(cell))
    for source in sources:
        assert result._terms is not source._terms
        assert result._stars is not source._stars


@given(chains, chains, st.integers(-3, 3), st.integers(0, 2), st.data())
@settings(max_examples=120, deadline=None)
def test_derived_chains_match_normalizing_constructor(a, b, k, extra, data):
    # Fill a's restrictions first, so a result that shared them would show it.
    for cell in a.cells():
        a.restricted_to_vertex(next(iter(vertices(cell))))

    assert_same_chain(a + b, reference(list(a.items()) + list(b.items())), a, b)
    assert_same_chain(
        a - b, reference(list(a.items()) + [(c, -v) for c, v in b.items()]), a, b
    )
    assert_same_chain(-a, reference((c, -v) for c, v in a.items()), a)
    assert_same_chain(a * k, reference((c, v * k) for c, v in a.items()), a)
    assert_same_chain(k * a, a * k, a)
    assert_same_chain(
        boundary(a),
        reference(
            (OrientedCell(f.kind, f.base, f.indices), v * c)
            for cell, v in a.items()
            for f, c in facets(cell).items()
        ),
        a,
    )
    assert_same_chain(
        a.padded(extra),
        reference(
            (OrientedCell(c.kind, c.base + (0,) * extra, c.indices, c.sign), v)
            for c, v in a.items()
        ),
        a,
    )
    points = sorted({p for cell in a.cells() for p in vertices(cell)}) or [(0,) * 5]
    vertex = data.draw(st.sampled_from(points))
    star = a.restricted_to_vertex(vertex)
    assert_same_chain(
        star, reference((c, v) for c, v in a.items() if has_vertex(c, vertex)), a
    )
    # Cancellation to the empty chain, including the boundary of a boundary.
    cell4 = data.draw(four_cells)
    for empty, source in (
        (a - a, a), (a + (-a), a), (a * 0, a), (boundary(facets(cell4) * k), facets(cell4))
    ):
        assert_same_chain(empty, Chain(), source)
        assert not empty and len(empty) == 0


# --- coefficients ---------------------------------------------------------------

_OCT = OrientedCell(CellKind.OCTAHEDRON, (0,) * 5, (0, 1, 2, 3))


@pytest.mark.parametrize(
    "bad",
    [1.7, 2.0, 2.5, np.float64(2.0), True, False, np.True_, "2", None, 1 + 0j,
     Chain.of(_OCT)],
    ids=repr,
)
def test_chain_rejects_non_integer_coefficients(bad):
    with pytest.raises(ChainError):
        Chain([(_OCT, bad)])
    with pytest.raises(ChainError):
        facets(OrientedCell(CellKind.BLACK_AMBO4, (0,) * 5, range(5))) * bad
    with pytest.raises(ChainError):
        bad * Chain.of(_OCT)


@pytest.mark.parametrize(
    "good", [2, -3, np.int64(2), np.int32(-3), np.uint8(2), np.int8(0)], ids=repr
)
def test_chain_accepts_integer_coefficients(good):
    chain = Chain([(_OCT, good)])
    assert chain == Chain([(_OCT, int(good))])
    assert type(chain.coefficient(_OCT) if chain else 0) is int
    scaled = Chain.of(_OCT) * good
    assert scaled == Chain([(_OCT, int(good))])
    assert all(type(c) is int for _, c in scaled.items())


# --- errors name the first term in text order -------------------------------------


def test_manifold_check_names_first_bad_cell_in_text_order():
    vertex = (1, 1, 0, 0, 0)
    octs = [
        OrientedCell(CellKind.OCTAHEDRON, base, (0, 1, 2, 3))
        for base in ((1, 0, -1, 0, 0), (0, 1, -1, 0, 0), (0, 0, 0, 0, 0))
    ]
    assert all(has_vertex(c, vertex) for c in octs)
    # Insertion order is the reverse of text order.
    chain = Chain([(octs[0], 2), (octs[1], -2), (octs[2], 3)])
    first = r"coefficient 3 on \+oct\[0 1 2 3\]@\(0,0,0,0,0\)"
    with pytest.raises(ChainError, match=first):
        flower(chain, vertex)
    ambo = OrientedCell(CellKind.BLACK_AMBO4, (0,) * 5, range(5))
    mixed = Chain([(octs[1], 2), (ambo, 1)])
    with pytest.raises(ChainError, match="non-3-cell"):
        flower(mixed, vertex)


def test_flower_names_first_unmatched_facet_in_text_order():
    star = qan_point_flower((0,) * 5, range(4))
    # Removing a black tetrahedron leaves unmatched facets whose text order
    # differs from the order the chain's terms were built in.
    removed = next(c for c in star.cells() if c.kind is CellKind.BLACK_TETRAHEDRON)
    broken = star - Chain.of(removed) * star.coefficient(removed)
    star_boundary = boundary(broken.restricted_to_vertex((0,) * 5))
    first = next(c for c, _ in star_boundary.items() if has_vertex(c, (0,) * 5))
    with pytest.raises(NotInteriorError) as info:
        flower(broken, (0,) * 5)
    assert f"unmatched facet {first} at" in str(info.value)
