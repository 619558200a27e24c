"""Cell, chain, facet, corner, flower, and projection combinatorics."""

import copy
import itertools
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from plurikp.cells import (
    CellKind,
    Chain,
    FOUR_CELL_KINDS,
    LATTICES,
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
    parse_cell,
    parse_chain,
    project_cell,
    project_point,
    qan_point_flower,
    vertices,
)
from plurikp.errors import (
    CellError,
    ChainError,
    DecompositionError,
    FormatError,
    NotFlowerError,
    NotInteriorError,
)

Z5 = (0, 0, 0, 0, 0)
Z4 = (0, 0, 0, 0)


def cell(kind, base, indices, sign=1):
    return OrientedCell(kind, base, indices, sign)


def offset(base, dirs):
    out = list(base)
    for d in dirs:
        out[d] += 1
    return tuple(out)


# --- canonical form -----------------------------------------------------------


def test_index_swap_flips_sign():
    straight = OrientedCell(CellKind.OCTAHEDRON, Z5, (0, 1, 2, 3))
    swapped = OrientedCell(CellKind.OCTAHEDRON, Z5, (1, 0, 2, 3))
    assert swapped == -straight
    assert swapped.sign == -1


@given(st.permutations(range(5)))
@settings(max_examples=60, deadline=None)
def test_permutation_parity_folds_into_sign(perm):
    permuted = OrientedCell(CellKind.BLACK_AMBO4, Z5, tuple(perm))
    inversions = sum(
        1 for a, b in itertools.combinations(range(5), 2) if perm[a] > perm[b]
    )
    assert permuted.indices == (0, 1, 2, 3, 4)
    assert permuted.sign == (-1) ** inversions


def test_double_negation_is_identity():
    c = cell(CellKind.WHITE_TETRAHEDRON, Z5, (0, 2, 3, 4))
    assert -(-c) == c


@given(st.permutations(range(5)))
@settings(max_examples=30, deadline=None)
def test_permuted_equal_cells_hash_equal(perm):
    canonical = OrientedCell(CellKind.WHITE_AMBO4, Z5, (0, 1, 2, 3, 4), -1)
    permuted = OrientedCell(CellKind.WHITE_AMBO4, Z5, tuple(perm))
    same = permuted if permuted.sign == -1 else -permuted
    assert same == canonical
    assert hash(same) == hash(canonical)
    assert hash(canonical) == hash(
        (canonical.kind, canonical.base, canonical.indices, canonical.sign)
    )


def test_cell_pickled_in_another_process_keeps_a_valid_hash():
    # Enum hashes are salted per process, so a child with a fixed salt
    # computes a different hash for the same cell.
    original = cell(CellKind.OCTAHEDRON, (1, -2, 0, 3, 0), (1, 0, 2, 4))
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(
        sys.modules["plurikp.cells"].__file__
    )))
    script = (
        "import pickle, sys\n"
        "from plurikp.cells import CellKind, OrientedCell\n"
        "c = OrientedCell(CellKind.OCTAHEDRON, (1, -2, 0, 3, 0), (1, 0, 2, 4))\n"
        "sys.stdout.buffer.write(pickle.dumps(c))\n"
    )
    env = dict(os.environ, PYTHONHASHSEED="1", PYTHONPATH=package_root)
    blob = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True,
        check=True, timeout=60,
    ).stdout
    loaded = pickle.loads(blob)
    assert loaded == original
    assert hash(loaded) == hash(original)
    assert loaded in {original}


def test_cell_is_the_plain_tuple_of_its_fields():
    c = cell(CellKind.WHITE_AMBO4, (1, -2, 0, 3, 0, 1), (5, 0, 2, 3, 4))
    fields = (c.kind, c.base, c.indices, c.sign)
    assert isinstance(c, tuple)
    assert tuple(c) == fields and c == fields
    assert hash(c) == hash(fields)
    assert {fields: 1}[c] == 1


def test_cell_repr_text():
    c = cell(CellKind.CUBE4, Z4, (0, 1, 2, 3), -1)
    assert repr(c) == (
        "OrientedCell(kind=<CellKind.CUBE4: 'cube4'>, base=(0, 0, 0, 0),"
        " indices=(0, 1, 2, 3), sign=-1)"
    )
    facet = next(iter(facets(c).cells()))
    assert repr(facet) == (
        "OrientedCell(kind=<CellKind.CUBE3: 'cube3'>, base=(0, 0, 0, 0),"
        " indices=(0, 1, 2), sign=1)"
    )


@pytest.mark.parametrize(
    "round_trip",
    [copy.copy, copy.deepcopy, lambda c: pickle.loads(pickle.dumps(c))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_cell_copies_are_equal_cells_with_equal_hashes(round_trip):
    for original in (
        cell(CellKind.OCTAHEDRON, (1, -2, 0, 3, 0), (1, 0, 2, 4)),
        -cell(CellKind.CUBE3, Z4, (0, 1, 3)),
    ):
        copied = round_trip(original)
        assert type(copied) is OrientedCell
        assert copied == original and hash(copied) == hash(original)
        assert repr(copied) == repr(original)


def test_cell_fields_are_read_only_and_take_no_new_attributes():
    c = cell(CellKind.OCTAHEDRON, Z5, (0, 1, 2, 3))
    for name, value in (("kind", CellKind.CUBE3), ("base", Z5), ("indices", (0,)), ("sign", -1)):
        with pytest.raises(AttributeError):
            setattr(c, name, value)
    with pytest.raises(AttributeError):
        c.label = "x"
    assert c == cell(CellKind.OCTAHEDRON, Z5, (0, 1, 2, 3))


def test_post_init_sees_every_public_construction_and_no_derived_one(monkeypatch):
    seen = []
    validate = OrientedCell.__post_init__

    def counted(*fields):
        seen.append(fields)
        return validate(*fields)

    monkeypatch.setattr(OrientedCell, "__post_init__", counted)
    facets.cache_clear()
    c = OrientedCell(CellKind.BLACK_AMBO4, Z5, (1, 0, 2, 3, 4))
    public = [
        c.shifted(2),
        parse_cell("+cube4[0 1 2 3]@(0,0,0,0)"),
        pickle.loads(pickle.dumps(c)),
        copy.deepcopy(c),
    ]
    assert len(seen) == 1 + len(public)
    assert seen[0] == (CellKind.BLACK_AMBO4, Z5, (1, 0, 2, 3, 4), 1)
    center = offset(Z5, (0, 1))
    derived = [-c, c.positive(), (-c).positive(), c.padded(2), *facets(c).cells()]
    derived += corner(c, center).cells() + boundary(facets(c)).cells()
    derived += [cell4 for cell4, _ in decompose_flower(flower(facets(c), center), center)]
    assert len(derived) > 20
    assert len(seen) == 1 + len(public)
    facets.cache_clear()


def test_invalid_cells_rejected():
    with pytest.raises(CellError):
        OrientedCell(CellKind.OCTAHEDRON, Z5, (0, 1, 2))
    with pytest.raises(CellError):
        OrientedCell(CellKind.OCTAHEDRON, Z5, (0, 1, 2, 2))
    with pytest.raises(CellError):
        OrientedCell(CellKind.OCTAHEDRON, Z5, (0, 1, 2, 9))
    with pytest.raises(CellError):
        OrientedCell(CellKind.CUBE4, (0, 0, 0), (0, 1, 2, 3))


# --- vertices -----------------------------------------------------------------


@pytest.mark.parametrize(
    "kind,n_vertices",
    [
        (CellKind.BLACK_TRIANGLE, 3),
        (CellKind.WHITE_TRIANGLE, 3),
        (CellKind.BLACK_TETRAHEDRON, 4),
        (CellKind.OCTAHEDRON, 6),
        (CellKind.WHITE_TETRAHEDRON, 4),
        (CellKind.BLACK_SIMPLEX4, 5),
        (CellKind.BLACK_AMBO4, 10),
        (CellKind.WHITE_AMBO4, 10),
        (CellKind.WHITE_SIMPLEX4, 5),
        (CellKind.SQUARE, 4),
        (CellKind.CUBE3, 8),
        (CellKind.CUBE4, 16),
    ],
)
def test_vertex_counts(kind, n_vertices):
    n_idx = {2: 3, 3: 4, 4: 5}
    if kind in (CellKind.SQUARE, CellKind.CUBE3, CellKind.CUBE4):
        idx = tuple(range({CellKind.SQUARE: 2, CellKind.CUBE3: 3, CellKind.CUBE4: 4}[kind]))
        c = cell(kind, Z4, idx)
    else:
        c = cell(kind, Z5, tuple(range(n_idx[c_dim(kind)])))
    assert len(vertices(c)) == n_vertices


def c_dim(kind):
    return {CellKind.BLACK_TRIANGLE: 2, CellKind.WHITE_TRIANGLE: 2,
            CellKind.BLACK_TETRAHEDRON: 3, CellKind.OCTAHEDRON: 3,
            CellKind.WHITE_TETRAHEDRON: 3, CellKind.BLACK_SIMPLEX4: 4,
            CellKind.BLACK_AMBO4: 4, CellKind.WHITE_AMBO4: 4,
            CellKind.WHITE_SIMPLEX4: 4}[kind]


def test_octahedron_vertices_are_pair_offsets():
    c = cell(CellKind.OCTAHEDRON, Z5, (0, 1, 2, 3))
    expected = {offset(Z5, p) for p in itertools.combinations((0, 1, 2, 3), 2)}
    assert vertices(c) == expected


def test_black_ambo_vertices_are_pair_offsets():
    c = cell(CellKind.BLACK_AMBO4, Z5, (0, 1, 2, 3, 4))
    expected = {offset(Z5, p) for p in itertools.combinations(range(5), 2)}
    assert vertices(c) == expected


def test_cube3_vertices_are_subset_offsets():
    c = cell(CellKind.CUBE3, Z4, (0, 1, 2))
    expected = {
        offset(Z4, s)
        for r in range(4)
        for s in itertools.combinations((0, 1, 2), r)
    }
    assert vertices(c) == expected


@pytest.mark.parametrize("kind", list(CellKind), ids=lambda k: k.value)
@pytest.mark.parametrize("sign", [1, -1])
def test_has_vertex_agrees_with_vertex_set(kind, sign):
    if kind in (CellKind.SQUARE, CellKind.CUBE3, CellKind.CUBE4):
        n_idx = {CellKind.SQUARE: 2, CellKind.CUBE3: 3, CellKind.CUBE4: 4}[kind]
    else:
        n_idx = c_dim(kind) + 1
    base = (2, -1, 0, 3, 1, -2)
    idx = (0, 2, 3, 5, 1)[:n_idx]
    c = cell(kind, base, idx, sign)
    verts = vertices(c)
    for offsets in itertools.product((-1, 0, 1, 2), repeat=len(base)):
        point = tuple(b + o for b, o in zip(base, offsets))
        assert has_vertex(c, point) == (point in verts)
    some = min(verts)
    assert has_vertex(c, list(some))
    assert not has_vertex(c, some + (0,))
    assert not has_vertex(c, some[:-1])
    assert not has_vertex(c, offset(offset(base, idx[:1]), idx[:1]))
    assert not has_vertex(c, offset(some, (4,)))


# --- facet tables -------------------------------------------------------------


def chain(*terms):
    return Chain(terms)


def test_black_tetrahedron_facets():
    c = cell(CellKind.BLACK_TETRAHEDRON, Z5, (0, 1, 2, 3))
    expected = chain(
        (cell(CellKind.BLACK_TRIANGLE, Z5, (0, 1, 2)), 1),
        (cell(CellKind.BLACK_TRIANGLE, Z5, (0, 1, 3)), -1),
        (cell(CellKind.BLACK_TRIANGLE, Z5, (0, 2, 3)), 1),
        (cell(CellKind.BLACK_TRIANGLE, Z5, (1, 2, 3)), -1),
    )
    assert facets(c) == expected


def test_octahedron_facets_black_shifted_white_at_base():
    c = cell(CellKind.OCTAHEDRON, Z5, (0, 1, 2, 3))
    expected = chain(
        (cell(CellKind.BLACK_TRIANGLE, offset(Z5, (3,)), (0, 1, 2)), 1),
        (cell(CellKind.BLACK_TRIANGLE, offset(Z5, (2,)), (0, 1, 3)), -1),
        (cell(CellKind.BLACK_TRIANGLE, offset(Z5, (1,)), (0, 2, 3)), 1),
        (cell(CellKind.BLACK_TRIANGLE, offset(Z5, (0,)), (1, 2, 3)), -1),
        (cell(CellKind.WHITE_TRIANGLE, Z5, (0, 1, 2)), 1),
        (cell(CellKind.WHITE_TRIANGLE, Z5, (0, 1, 3)), -1),
        (cell(CellKind.WHITE_TRIANGLE, Z5, (0, 2, 3)), 1),
        (cell(CellKind.WHITE_TRIANGLE, Z5, (1, 2, 3)), -1),
    )
    assert facets(c) == expected


def test_white_tetrahedron_facets():
    c = cell(CellKind.WHITE_TETRAHEDRON, Z5, (0, 1, 2, 3))
    expected = chain(
        (cell(CellKind.WHITE_TRIANGLE, offset(Z5, (3,)), (0, 1, 2)), 1),
        (cell(CellKind.WHITE_TRIANGLE, offset(Z5, (2,)), (0, 1, 3)), -1),
        (cell(CellKind.WHITE_TRIANGLE, offset(Z5, (1,)), (0, 2, 3)), 1),
        (cell(CellKind.WHITE_TRIANGLE, offset(Z5, (0,)), (1, 2, 3)), -1),
    )
    assert facets(c) == expected


def test_black_simplex4_facets():
    c = cell(CellKind.BLACK_SIMPLEX4, Z5, (0, 1, 2, 3, 4))
    expected = chain(
        (cell(CellKind.BLACK_TETRAHEDRON, Z5, (0, 1, 2, 3)), 1),
        (cell(CellKind.BLACK_TETRAHEDRON, Z5, (0, 1, 2, 4)), -1),
        (cell(CellKind.BLACK_TETRAHEDRON, Z5, (0, 1, 3, 4)), 1),
        (cell(CellKind.BLACK_TETRAHEDRON, Z5, (0, 2, 3, 4)), -1),
        (cell(CellKind.BLACK_TETRAHEDRON, Z5, (1, 2, 3, 4)), 1),
    )
    assert facets(c) == expected


def test_black_ambo_facets():
    c = cell(CellKind.BLACK_AMBO4, Z5, (0, 1, 2, 3, 4))
    expected = chain(
        (cell(CellKind.BLACK_TETRAHEDRON, offset(Z5, (4,)), (0, 1, 2, 3)), 1),
        (cell(CellKind.BLACK_TETRAHEDRON, offset(Z5, (3,)), (0, 1, 2, 4)), -1),
        (cell(CellKind.BLACK_TETRAHEDRON, offset(Z5, (2,)), (0, 1, 3, 4)), 1),
        (cell(CellKind.BLACK_TETRAHEDRON, offset(Z5, (1,)), (0, 2, 3, 4)), -1),
        (cell(CellKind.BLACK_TETRAHEDRON, offset(Z5, (0,)), (1, 2, 3, 4)), 1),
        (cell(CellKind.OCTAHEDRON, Z5, (0, 1, 2, 3)), 1),
        (cell(CellKind.OCTAHEDRON, Z5, (0, 1, 2, 4)), -1),
        (cell(CellKind.OCTAHEDRON, Z5, (0, 1, 3, 4)), 1),
        (cell(CellKind.OCTAHEDRON, Z5, (0, 2, 3, 4)), -1),
        (cell(CellKind.OCTAHEDRON, Z5, (1, 2, 3, 4)), 1),
    )
    assert facets(c) == expected


def test_white_ambo_facets():
    c = cell(CellKind.WHITE_AMBO4, Z5, (0, 1, 2, 3, 4))
    expected = chain(
        (cell(CellKind.OCTAHEDRON, offset(Z5, (4,)), (0, 1, 2, 3)), 1),
        (cell(CellKind.OCTAHEDRON, offset(Z5, (3,)), (0, 1, 2, 4)), -1),
        (cell(CellKind.OCTAHEDRON, offset(Z5, (2,)), (0, 1, 3, 4)), 1),
        (cell(CellKind.OCTAHEDRON, offset(Z5, (1,)), (0, 2, 3, 4)), -1),
        (cell(CellKind.OCTAHEDRON, offset(Z5, (0,)), (1, 2, 3, 4)), 1),
        (cell(CellKind.WHITE_TETRAHEDRON, Z5, (0, 1, 2, 3)), 1),
        (cell(CellKind.WHITE_TETRAHEDRON, Z5, (0, 1, 2, 4)), -1),
        (cell(CellKind.WHITE_TETRAHEDRON, Z5, (0, 1, 3, 4)), 1),
        (cell(CellKind.WHITE_TETRAHEDRON, Z5, (0, 2, 3, 4)), -1),
        (cell(CellKind.WHITE_TETRAHEDRON, Z5, (1, 2, 3, 4)), 1),
    )
    assert facets(c) == expected


def test_white_simplex4_facets():
    c = cell(CellKind.WHITE_SIMPLEX4, Z5, (0, 1, 2, 3, 4))
    expected = chain(
        (cell(CellKind.WHITE_TETRAHEDRON, offset(Z5, (4,)), (0, 1, 2, 3)), 1),
        (cell(CellKind.WHITE_TETRAHEDRON, offset(Z5, (3,)), (0, 1, 2, 4)), -1),
        (cell(CellKind.WHITE_TETRAHEDRON, offset(Z5, (2,)), (0, 1, 3, 4)), 1),
        (cell(CellKind.WHITE_TETRAHEDRON, offset(Z5, (1,)), (0, 2, 3, 4)), -1),
        (cell(CellKind.WHITE_TETRAHEDRON, offset(Z5, (0,)), (1, 2, 3, 4)), 1),
    )
    assert facets(c) == expected


def test_cube4_eight_facets():
    c = cell(CellKind.CUBE4, Z4, (0, 1, 2, 3))
    expected = chain(
        (cell(CellKind.CUBE3, Z4, (0, 1, 2)), 1),
        (cell(CellKind.CUBE3, Z4, (0, 1, 3)), -1),
        (cell(CellKind.CUBE3, Z4, (0, 2, 3)), 1),
        (cell(CellKind.CUBE3, Z4, (1, 2, 3)), -1),
        (cell(CellKind.CUBE3, offset(Z4, (3,)), (0, 1, 2)), -1),
        (cell(CellKind.CUBE3, offset(Z4, (2,)), (0, 1, 3)), 1),
        (cell(CellKind.CUBE3, offset(Z4, (1,)), (0, 2, 3)), -1),
        (cell(CellKind.CUBE3, offset(Z4, (0,)), (1, 2, 3)), 1),
    )
    assert facets(c) == expected


def test_negated_cell_negates_facets():
    c = cell(CellKind.BLACK_AMBO4, Z5, (0, 1, 2, 3, 4))
    assert facets(-c) == -facets(c)


def test_facets_of_2_cells_unsupported():
    with pytest.raises(CellError):
        facets(cell(CellKind.WHITE_TRIANGLE, Z5, (0, 1, 2)))
    with pytest.raises(CellError):
        facets(cell(CellKind.SQUARE, Z4, (0, 1)))


@pytest.mark.parametrize("ambient_dim", [4, 5, 6])
@pytest.mark.parametrize("kind", FOUR_CELL_KINDS)
def test_boundary_squared_vanishes(kind, ambient_dim, rng):
    cubic = kind is CellKind.CUBE4
    ambient = ambient_dim if cubic else ambient_dim + 1
    n_idx = 4 if cubic else 5
    for indices in itertools.combinations(range(ambient), n_idx):
        base = tuple(int(rng.integers(-3, 4)) for _ in range(ambient))
        for sign in (1, -1):
            c = OrientedCell(kind, base, indices, sign)
            assert not boundary(facets(c))


# --- chain algebra -------------------------------------------------------------


def small_cells():
    return st.builds(
        OrientedCell,
        st.just(CellKind.OCTAHEDRON),
        st.tuples(*[st.integers(-1, 1)] * 5),
        st.just((0, 1, 2, 3)),
        st.sampled_from((1, -1)),
    )


chains = st.lists(
    st.tuples(small_cells(), st.integers(-3, 3)), max_size=6
).map(Chain)


@given(chains, chains, chains)
@settings(max_examples=80, deadline=None)
def test_chain_addition_associative_commutative(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a


@given(chains)
@settings(max_examples=80, deadline=None)
def test_chain_cancellation(a):
    assert not (a - a)
    assert a + (-a) == Chain()


def test_opposite_orientations_cancel():
    c = cell(CellKind.OCTAHEDRON, Z5, (0, 1, 2, 3))
    assert not Chain([(c, 1), (-c, 1)])


@pytest.mark.parametrize("coeff", [1, 0])
@pytest.mark.parametrize(
    "term", ["x", (CellKind.OCTAHEDRON, Z5, (0, 1, 2, 3), 1)], ids=["text", "plain-tuple"]
)
def test_chain_rejects_terms_that_are_not_cells(term, coeff):
    c = cell(CellKind.OCTAHEDRON, Z5, (0, 1, 2, 3))
    with pytest.raises(ChainError, match="is not an OrientedCell"):
        Chain([(c, 1), (term, coeff)])


def test_chain_rejects_nothing_but_tracks_coefficients():
    c = cell(CellKind.OCTAHEDRON, Z5, (0, 1, 2, 3))
    two = Chain([(c, 1), (c, 1)])
    assert two.coefficient(c) == 2
    assert two.coefficient(-c) == -2


@given(chains)
@settings(max_examples=80, deadline=None)
def test_boundary_matches_running_sum(a):
    total = Chain()
    for c, coeff in a.items():
        total = total + facets(c) * coeff
    assert boundary(a) == total


@st.composite
def lattice_cells(draw, kinds, ambient):
    """A cell of one of the kinds, with a random base, random (unsorted)
    directions and a random orientation."""
    kind = draw(st.sampled_from(kinds))
    count = len(LATTICES[kind.family].cell(kind, 4).indices)
    indices = draw(
        st.lists(
            st.integers(0, ambient - 1), min_size=count, max_size=count, unique=True
        )
    )
    base = draw(st.tuples(*[st.integers(-3, 3)] * ambient))
    return OrientedCell(kind, base, tuple(indices), draw(st.sampled_from((1, -1))))


@st.composite
def four_cell_chains(draw):
    """An integer chain of the 4-cell kinds of one family, at one ambient."""
    lattice = LATTICES[draw(st.sampled_from(sorted(LATTICES)))]
    ambient = lattice.ambient(draw(st.integers(4, 6)))
    terms = st.tuples(
        lattice_cells(lattice.four_cells, ambient), st.integers(-3, 3)
    )
    return Chain(draw(st.lists(terms, max_size=8)))


@st.composite
def mixed_chains(draw):
    """An integer chain over all twelve cell kinds, each cell at an ambient
    size of its own."""
    cells = st.integers(5, 7).flatmap(lambda n: lattice_cells(list(CellKind), n))
    return Chain(draw(st.lists(st.tuples(cells, st.integers(-3, 3)), max_size=8)))


@given(four_cell_chains())
@settings(max_examples=80, deadline=None)
def test_boundary_of_boundary_vanishes_on_mixed_four_cell_chains(a):
    assert not boundary(boundary(a))


@given(mixed_chains())
@settings(max_examples=80, deadline=None)
def test_chain_text_round_trips_over_all_kinds(a):
    assert parse_chain(format_chain(a)) == a


def test_cached_facets_are_shared_and_unchanged_by_arithmetic():
    c = cell(CellKind.BLACK_AMBO4, Z5, (0, 1, 2, 3, 4))
    chain = facets(c)
    assert facets(c) is chain
    before = format_chain(chain)
    negated = chain * -1
    assert negated == -chain
    assert format_chain(facets(c)) == before
    assert format_chain(chain + negated) == ""
    assert format_chain(facets(c)) == before


def test_memoized_restriction_equals_fresh_one():
    c = cell(CellKind.CUBE4, (0, 1, 0, 0, 0), (0, 1, 3, 4))
    chain = facets(c)
    for vertex in sorted(vertices(c)) + [(9, 9, 9, 9, 9)]:
        first = chain.restricted_to_vertex(vertex)
        fresh = Chain(
            (term, coeff) for term, coeff in chain.items() if has_vertex(term, vertex)
        )
        assert first == fresh
        assert chain.restricted_to_vertex(list(vertex)) == fresh
        assert list(first.items()) == list(fresh.items())


# --- corners -------------------------------------------------------------------


def test_black_ambo_corner_table():
    c = cell(CellKind.BLACK_AMBO4, Z5, (0, 1, 2, 3, 4))
    center = offset(Z5, (0, 1))
    expected = chain(
        (cell(CellKind.BLACK_TETRAHEDRON, offset(Z5, (1,)), (0, 2, 3, 4)), -1),
        (cell(CellKind.BLACK_TETRAHEDRON, offset(Z5, (0,)), (1, 2, 3, 4)), 1),
        (cell(CellKind.OCTAHEDRON, Z5, (0, 1, 2, 3)), 1),
        (cell(CellKind.OCTAHEDRON, Z5, (0, 1, 2, 4)), -1),
        (cell(CellKind.OCTAHEDRON, Z5, (0, 1, 3, 4)), 1),
    )
    assert corner(c, center) == expected


def test_white_ambo_corner_table():
    c = cell(CellKind.WHITE_AMBO4, Z5, (0, 1, 2, 3, 4))
    center = offset(Z5, (0, 1, 2))
    expected = chain(
        (cell(CellKind.OCTAHEDRON, offset(Z5, (2,)), (0, 1, 3, 4)), 1),
        (cell(CellKind.OCTAHEDRON, offset(Z5, (1,)), (0, 2, 3, 4)), -1),
        (cell(CellKind.OCTAHEDRON, offset(Z5, (0,)), (1, 2, 3, 4)), 1),
        (cell(CellKind.WHITE_TETRAHEDRON, Z5, (0, 1, 2, 3)), 1),
        (cell(CellKind.WHITE_TETRAHEDRON, Z5, (0, 1, 2, 4)), -1),
    )
    assert corner(c, center) == expected


def test_black_simplex_corner_is_four_tetrahedra():
    c = cell(CellKind.BLACK_SIMPLEX4, Z5, (0, 1, 2, 3, 4))
    terms = list(corner(c, offset(Z5, (0,))).items())
    assert len(terms) == 4
    assert all(t.kind is CellKind.BLACK_TETRAHEDRON for t, _ in terms)


def test_cube4_corner_is_four_cubes():
    c = cell(CellKind.CUBE4, Z4, (0, 1, 2, 3))
    for center in sorted(vertices(c)):
        terms = list(corner(c, center).items())
        assert len(terms) == 4
        assert all(t.kind is CellKind.CUBE3 for t, _ in terms)


def test_corner_requires_vertex():
    c = cell(CellKind.BLACK_AMBO4, Z5, (0, 1, 2, 3, 4))
    with pytest.raises(CellError):
        corner(c, (9, 9, 9, 9, 9))


# --- flowers -------------------------------------------------------------------


def test_boundary_flower_equals_corner():
    for kind in FOUR_CELL_KINDS:
        cubic = kind is CellKind.CUBE4
        c = cell(kind, Z4 if cubic else Z5, tuple(range(4 if cubic else 5)))
        for vertex in sorted(vertices(c)):
            assert flower(facets(c), vertex) == corner(c, vertex)


def test_qan_point_flower_composition():
    star = qan_point_flower(Z5, (0, 1, 2, 3))
    kinds = [c.kind for c in star.cells()]
    assert len(star) == 14
    assert kinds.count(CellKind.BLACK_TETRAHEDRON) == 4
    assert kinds.count(CellKind.OCTAHEDRON) == 6
    assert kinds.count(CellKind.WHITE_TETRAHEDRON) == 4
    assert flower(star, Z5) == star


def test_cubic_point_flower_is_eight_cubes():
    star = cubic_point_flower((0, 0, 0), (0, 1, 2))
    assert len(star) == 8
    assert flower(star, (0, 0, 0)) == star


def test_flower_missing_petal_not_interior():
    star = qan_point_flower(Z5, (0, 1, 2, 3))
    removed = next(c for c in star.cells() if c.kind is CellKind.OCTAHEDRON)
    broken = star - Chain.of(removed) * star.coefficient(removed)
    with pytest.raises(NotInteriorError):
        flower(broken, Z5)


def test_flower_requires_touching_cell():
    star = qan_point_flower(Z5, (0, 1, 2, 3))
    with pytest.raises(NotFlowerError):
        flower(star, (5, 5, 5, 5, 5))


def test_flower_rejects_non_manifold_coefficients():
    c = cell(CellKind.OCTAHEDRON, Z5, (0, 1, 2, 3))
    doubled = Chain([(c, 2)])
    with pytest.raises(ChainError):
        flower(doubled, offset(Z5, (0, 1)))


# --- corner decomposition -------------------------------------------------------


def corner_sum(pairs):
    total = Chain()
    for cell4, center in pairs:
        total = total + corner(cell4, center)
    return total


def test_decompose_single_corner_flower(black_ambo):
    center = offset(Z5, (0, 1))
    star = corner(black_ambo, center)
    pairs = decompose_flower(star, center)
    assert corner_sum(pairs) == star.padded(2)


def test_decompose_qan_star_chain_sum():
    star = qan_point_flower(Z5, (0, 1, 2, 3))
    pairs = decompose_flower(star, Z5)
    assert corner_sum(pairs) == star.padded(2)
    # Lifted cells live two directions up and keep the center as a vertex.
    assert all(len(c.base) == 7 for c, _ in pairs)
    assert all(center == Z5 + (0, 0) for _, center in pairs)


def test_decompose_cubic_star_chain_sum():
    center = (0, 0, 0)
    star = cubic_point_flower(center, (0, 1, 2))
    pairs = decompose_flower(star, center)
    assert len(pairs) == 8
    assert all(c.kind is CellKind.CUBE4 for c, _ in pairs)
    assert corner_sum(pairs) == star.padded(1)


@pytest.mark.parametrize("kind", FOUR_CELL_KINDS)
def test_decompose_boundary_flowers(kind):
    cubic = kind is CellKind.CUBE4
    c = cell(kind, Z4 if cubic else Z5, tuple(range(4 if cubic else 5)))
    pad = 1 if cubic else 2
    for vertex in sorted(vertices(c)):
        star = flower(facets(c), vertex)
        pairs = decompose_flower(star, vertex)
        assert corner_sum(pairs) == star.padded(pad)


def test_decompose_glued_random_flowers(rng):
    from plurikp.verify import SuiteConfig, _glued_flower, _rng

    for lattice in ("qan", "cubic"):
        cfg = SuiteConfig(lattice=lattice, trials=10)
        for trial in range(10):
            star, vertex = _glued_flower(cfg, _rng(cfg, "flower-glued", trial))
            pairs = decompose_flower(star, vertex)
            pad = 2 if lattice == "qan" else 1
            assert corner_sum(pairs) == star.padded(pad)


@st.composite
def glued_four_cells(draw):
    """3 to 5 random 4-cells of one family at dim 4 or 5: bases in
    {-1, 0, 1}^n, random directions and orientation."""
    lattice = LATTICES[draw(st.sampled_from(sorted(LATTICES)))]
    n = lattice.ambient(draw(st.integers(4, 5)))
    cells = []
    for _ in range(draw(st.integers(3, 5))):
        kind = draw(st.sampled_from(lattice.four_cells))
        count = len(lattice.cell(kind, 4).indices)
        dirs = draw(st.lists(st.integers(0, n - 1), min_size=count, max_size=count, unique=True))
        base = draw(st.lists(st.integers(-1, 1), min_size=n, max_size=n))
        cells.append(cell(kind, tuple(base), tuple(sorted(dirs)), draw(st.sampled_from((1, -1)))))
    return lattice, cells


def connected_at(star, vertex):
    """Whether the 3-cells of a star are connected through their 2-faces at
    the vertex (False for a bouquet of spheres touching only there)."""
    faces = {
        c: {f for f in facets(c).cells() if has_vertex(f, vertex)} for c in star.cells()
    }
    first, *rest = faces
    reached, frontier = {first}, [first]
    while frontier:
        c = frontier.pop()
        for d in rest:
            if d not in reached and faces[c] & faces[d]:
                reached.add(d)
                frontier.append(d)
    return len(reached) == len(faces)


@settings(max_examples=60, deadline=None)
@given(glued_four_cells())
def test_decompose_flowers_of_glued_cells(drawn):
    lattice, cells = drawn
    chain = Chain()
    for c in cells:
        chain = chain + facets(c)
    assume(all(abs(coeff) == 1 for _, coeff in chain.items()))
    for vertex in sorted(set().union(*map(vertices, chain.cells()))):
        star = flower(chain, vertex)
        if connected_at(star, vertex):
            pairs = decompose_flower(star, vertex)
        else:
            try:
                pairs = decompose_flower(star, vertex)
            except DecompositionError:
                continue
        assert corner_sum(pairs) == star.padded(lattice.aux)


def test_decompose_rejects_non_flower():
    c = cell(CellKind.OCTAHEDRON, Z5, (0, 1, 2, 3))
    with pytest.raises(NotFlowerError):
        decompose_flower(Chain.of(c), offset(Z5, (0, 1)))


def test_decompose_works_at_max_dimension():
    # The lift needs two auxiliary directions of headroom past MAX_DIM.
    from plurikp import config

    center = (0,) * (config.MAX_DIM + 1)
    star = qan_point_flower(center, (0, 1, 2, 3))
    pairs = decompose_flower(star, center)
    assert corner_sum(pairs) == star.padded(2)


# --- lattice descriptions ------------------------------------------------------


def test_lattices_hold_each_family_geometry():
    qan, cubic = LATTICES["qan"], LATTICES["cubic"]
    assert [qan.ambient(4), cubic.ambient(4)] == [5, 4]
    assert [qan.aux, cubic.aux] == [2, 1]
    assert [qan.max_ambient, cubic.max_ambient] == [13, 11]
    assert qan.four_cells + cubic.four_cells == FOUR_CELL_KINDS
    for name, lattice in LATTICES.items():
        assert lattice.name == name
        assert {kind.family for kind in lattice.four_cells} == {name}


@pytest.mark.parametrize("name", sorted(LATTICES))
def test_lattice_standard_cells_and_star(name):
    lattice = LATTICES[name]
    for kind in (k for k in CellKind if k.family == name):
        standard = lattice.cell(kind, 4)
        assert standard.base == (0,) * lattice.ambient(4)
        assert standard.indices == tuple(range(len(standard.indices)))
    with pytest.raises(CellError):
        lattice.cell(next(k for k in CellKind if k.family != name), 4)
    for dim in (3, 4, 10):
        star, center = lattice.star(dim)
        assert center == (0,) * lattice.ambient(dim)
        assert corner_sum(decompose_flower(star, center)) == star.padded(lattice.aux)


@pytest.mark.parametrize("name", sorted(LATTICES))
def test_lattice_glued_pairs_share_one_facet(name):
    lattice = LATTICES[name]
    for first_kind, second_kind, step, sign in lattice.glued:
        first = lattice.cell(first_kind, 4)
        m = first.indices[-1]
        second = OrientedCell(second_kind, first.shifted(m, step).base, first.indices, sign)
        glued = facets(first) + facets(second)
        assert len(glued) == len(facets(first)) + len(facets(second)) - 2


@pytest.mark.parametrize("kind, count", [(CellKind.OCTAHEDRON, 4), (CellKind.CUBE3, 3)])
def test_cell_ambient_bounds_come_from_the_lattice(kind, count):
    lattice = LATTICES[kind.family]
    for size in (lattice.ambient(3), lattice.max_ambient):
        OrientedCell(kind, (0,) * size, range(count))
    for size in (lattice.ambient(3) - 1, lattice.max_ambient + 1):
        with pytest.raises(CellError, match="ambient size"):
            OrientedCell(kind, (0,) * size, range(count))


# --- projection ----------------------------------------------------------------


def test_project_point_drops_coordinate():
    assert project_point(0, (2, -1, 0, 1, -2)) == (-1, 0, 1, -2)
    assert project_point(1, (0, 0, 3, 4)) == (0, 3, 4)


def test_project_point_identity_on_zero_coordinate():
    point = (0, 1, -1, 0, 0)
    assert project_point(0, point) == point[1:]


def test_project_octahedron_hits_inscribed_vertices():
    oct_cell = cell(CellKind.OCTAHEDRON, Z5, (0, 1, 2, 3))
    cube3 = project_cell(0, oct_cell)
    assert cube3.kind is CellKind.CUBE3
    projected = {project_point(0, v) for v in vertices(oct_cell)}
    middles = {
        offset(cube3.base, g)
        for r in (1, 2)
        for g in itertools.combinations(cube3.indices, r)
    }
    assert projected == middles
    assert len(projected) == 6


def test_project_four_cell_sum_covers_cube4_vertices():
    ambo = cell(CellKind.BLACK_AMBO4, Z5, (0, 1, 2, 3, 4))
    cube = project_cell(0, ambo)
    assert cube.kind is CellKind.CUBE4
    black_simplex = cell(CellKind.BLACK_SIMPLEX4, offset(Z5, (0,)), (0, 1, 2, 3, 4))
    white_ambo = cell(CellKind.WHITE_AMBO4, (-1, 0, 0, 0, 0), (0, 1, 2, 3, 4))
    white_simplex = cell(CellKind.WHITE_SIMPLEX4, (-2, 0, 0, 0, 0), (0, 1, 2, 3, 4))
    union = set()
    for piece in (black_simplex, ambo, white_ambo, white_simplex):
        union |= {project_point(0, v) for v in vertices(piece)}
    assert union == vertices(cube)


def test_project_cell_precondition():
    oct_cell = cell(CellKind.OCTAHEDRON, Z5, (1, 2, 3, 4))
    with pytest.raises(CellError):
        project_cell(0, oct_cell)
    with pytest.raises(CellError):
        project_cell(1, cell(CellKind.WHITE_AMBO4, Z5, (1, 2, 3, 4, 0)))


def test_project_cell_shifted_base_and_sign():
    oct_cell = cell(CellKind.OCTAHEDRON, (3, -1, 0, 2, 0), (1, 2, 3, 4), -1)
    cube3 = project_cell(1, oct_cell)
    assert cube3.sign == -1
    assert cube3.base == (3, 0, 2, 0)
    assert cube3.indices == (1, 2, 3)
    projected = {project_point(1, v) for v in vertices(oct_cell)}
    assert projected < vertices(cube3)
    assert len(projected) == 6


# --- text format ----------------------------------------------------------------


def test_parse_documented_example():
    c = parse_cell("-oct[0 1 2 3]@(0,0,0,0,-1)")
    assert c.kind is CellKind.OCTAHEDRON
    assert c.sign == -1
    assert c.base == (0, 0, 0, 0, -1)


@pytest.mark.parametrize("kind", list(CellKind))
def test_cell_text_round_trip(kind):
    cubic = kind in (CellKind.SQUARE, CellKind.CUBE3, CellKind.CUBE4)
    n_idx = {CellKind.SQUARE: 2, CellKind.CUBE3: 3, CellKind.CUBE4: 4}.get(kind)
    if n_idx is None:
        n_idx = {2: 3, 3: 4, 4: 5}[c_dim(kind)]
    base = (0, -2, 1, 0) if cubic else (0, -2, 1, 0, 3)
    c = OrientedCell(kind, base, tuple(range(n_idx)), -1)
    assert parse_cell(format_cell(c)) == c


def test_chain_text_round_trip():
    star = qan_point_flower(Z5, (0, 1, 2, 3))
    assert parse_chain(format_chain(star)) == star


@pytest.mark.parametrize(
    "text", ["oct[0 1 2 3]", "-xyz[0 1]@(0,0,0,0)", "3 cells", "-oct[0 1 2]@(0,0,0,0,0)"]
)
def test_malformed_cell_text_rejected(text):
    with pytest.raises(FormatError):
        parse_cell(text)
