"""Semi-simplex combinatorics against brute-force oracles: binomial
counts, exhaustive associativity, face-decomposition round-trips, and
boundary-cell tallies.  The maps are the triples of ``delta_oracle``."""

from math import comb

import pytest

from delta_oracle import (
    DomainMismatch, coface, compose, face_decompose, identity, mono, monos, recompose,
)
from tt2.delta import boundary_cells, enumerate_mono


def test_compose_examples():
    d = mono(1, 2, (0, 2))
    assert compose(identity(2), d) == d
    d1 = mono(2, 3, (0, 2, 3))
    e = mono(0, 2, (1,))
    assert compose(d1, e) == (0, 3, (2,))


def test_compose_requires_matching_objects():
    with pytest.raises(DomainMismatch):
        compose(mono(2, 3, (0, 1, 2)), mono(0, 1, (1,)))


def test_enumerate_counts_match_binomial():
    for n in range(7):
        for k in range(n + 1):
            maps = enumerate_mono(k, n)
            assert len(maps) == comb(n + 1, k + 1)
            assert maps == sorted(maps)
            assert len(set(maps)) == len(maps)
            assert [images for _, _, images in monos(k, n)] == maps
    assert enumerate_mono(3, 1) == []


@pytest.mark.parametrize("k, n", [(-1, 3), (0, -2), (-1, -1)])
def test_enumerate_rejects_negative_objects(k, n):
    with pytest.raises(ValueError, match=r"objects of the semi-simplex category are \[n\] with n >= 0"):
        enumerate_mono(k, n)


def test_enumerate_examples():
    assert len(enumerate_mono(0, 3)) == 4   # points of the tetrahedron boundary
    assert len(enumerate_mono(1, 3)) == 6   # lines
    assert len(enumerate_mono(2, 3)) == 4   # triangles
    assert monos(2, 2) == [identity(2)]


def test_compose_associative_and_unital_exhaustively():
    sizes = range(5)  # dom, cod <= 4
    for n in sizes:
        for m in sizes:
            for f in monos(n, m):
                assert compose(identity(m), f) == f
                assert compose(f, identity(n)) == f
    for a in range(5):
        for b in range(5):
            for c in range(5):
                for d in range(5):
                    for f in monos(a, b):
                        for g in monos(b, c):
                            for h in monos(c, d):
                                assert compose(h, compose(g, f)) == compose(compose(h, g), f)


def test_face_decompose_examples():
    assert face_decompose(identity(3)) == []
    assert face_decompose(mono(0, 1, (0,))) == [1]
    assert face_decompose(mono(1, 3, (0, 2))) == [3, 1]


def test_face_decompose_brute_force_oracle():
    # oracle: try every decreasing coface sequence of the right length
    from itertools import combinations

    for cod in range(4):
        for dom in range(cod + 1):
            for f in monos(dom, cod):
                length = cod - dom
                matches = []
                for indices in combinations(range(cod + 1), length):
                    candidate = sorted(indices, reverse=True)
                    if recompose(dom, cod, candidate) == f:
                        matches.append(candidate)
                assert matches == [face_decompose(f)]


def test_face_decompose_round_trip_exhaustive():
    for cod in range(6):  # cod <= 5
        for dom in range(cod + 1):
            for f in monos(dom, cod):
                assert recompose(dom, cod, face_decompose(f)) == f


def test_boundary_cells_counts():
    assert boundary_cells(0) == []
    cells2 = boundary_cells(2)
    assert [len(c) - 1 for c in cells2] == [0, 0, 0, 1, 1, 1]
    cells3 = boundary_cells(3)
    assert len(cells3) == 14
    assert [sum(1 for c in cells3 if len(c) - 1 == k) for k in range(3)] == [4, 6, 4]
    for n in range(7):
        cells = boundary_cells(n)
        assert len(cells) == 2 ** (n + 1) - 2
        for k in range(n):
            assert sum(1 for c in cells if len(c) - 1 == k) == comb(n + 1, k + 1)


def test_boundary_cells_order_is_dimension_major_lex_minor():
    cells = boundary_cells(3)
    dims = [len(c) - 1 for c in cells]
    assert dims == sorted(dims)
    for k in range(3):
        group = [c for c in cells if len(c) - 1 == k]
        assert group == sorted(group)


@pytest.mark.parametrize("n", range(9))
def test_boundary_cells_are_the_proper_faces_as_vertex_tuples(n):
    # the invariants a face carries: a non-empty, strictly increasing
    # vertex tuple inside [n], each proper face once, in the canonical order
    cells = boundary_cells(n)
    for c in cells:
        assert type(c) is tuple and 0 < len(c) <= n
        assert all(a < b for a, b in zip(c, c[1:]))
        assert set(c) <= set(range(n + 1))
    assert len(set(cells)) == len(cells) == 2 ** (n + 1) - 2
    assert cells == sorted(cells, key=lambda c: (len(c), c))
    assert cells == [images for k in range(n) for images in enumerate_mono(k, n)]


def test_coface_validation():
    assert coface(2, 1) == (1, 2, (0, 2))
    with pytest.raises(ValueError):
        coface(2, 3)
    for dom, cod, images in [(1, 1, (1, 0)), (1, 0, (0, 1)), (1, 2, (0,)), (1, 2, (1, 3))]:
        with pytest.raises(ValueError):
            mono(dom, cod, images)
