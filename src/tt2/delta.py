"""Faces of simplices for the generator and for ``tt2 delta``.

The object ``[n]`` of the semi-simplex category is the ordinal with n+1
elements, so a strictly monotone map [k] -> [n] is a strictly increasing
list of k+1 values below n+1.  Such a map is fixed by its image, so it is
kept as that vertex tuple, and a boundary cell of the n-simplex is the
image of a proper mono into [n].  Composition and face decomposition of
these maps are not needed to generate or to check, and live with the
tests as their oracle.
"""

from __future__ import annotations

from itertools import combinations


def enumerate_mono(k: int, n: int) -> list[tuple[int, ...]]:
    """The images of all strictly monotone [k] -> [n], in lexicographic order."""
    if k < 0 or n < 0:
        raise ValueError("objects of the semi-simplex category are [n] with n >= 0")
    return list(combinations(range(n + 1), k + 1))


def boundary_cells(n: int) -> list[tuple[int, ...]]:
    """All proper non-empty faces of the n-simplex as vertex tuples,
    dimension-major and lexicographic within a dimension.  This order fixes
    the binder order of generated matching telescopes."""
    return [c for size in range(1, n + 1) for c in combinations(range(n + 1), size)]
