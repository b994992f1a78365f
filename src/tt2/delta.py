"""Combinatorics of the semi-simplex category: strictly monotone maps
between finite ordinals, their face decompositions, and the boundary-cell
enumeration that drives matching-object telescopes.

The object ``[n]`` is the ordinal with n+1 elements, so a map [k] -> [n]
is a strictly increasing list of k+1 values below n+1.  Such a map is
fixed by its image, so a boundary cell of the n-simplex is the plain
vertex tuple that is the image of a proper mono into [n].
"""

from __future__ import annotations

from itertools import combinations

from .core import Node


class DomainMismatch(Exception):
    pass


_NEGATIVE_OBJECT = "objects of the semi-simplex category are [n] with n >= 0"


class MonoMap(Node, frozen=True):
    dom: int
    cod: int
    images: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.dom < 0 or self.cod < 0:
            raise ValueError(_NEGATIVE_OBJECT)
        if len(self.images) != self.dom + 1:
            raise ValueError(f"expected {self.dom + 1} images, got {len(self.images)}")
        if any(b <= a for a, b in zip(self.images, self.images[1:])):
            raise ValueError(f"images not strictly increasing: {self.images}")
        if self.images and (self.images[0] < 0 or self.images[-1] > self.cod):
            raise ValueError(f"images {self.images} escape codomain [{self.cod}]")

    def __call__(self, i: int) -> int:
        return self.images[i]

    def __str__(self) -> str:
        return ",".join(str(i) for i in self.images)


def identity(n: int) -> MonoMap:
    return MonoMap(n, n, tuple(range(n + 1)))


def coface(n: int, i: int) -> MonoMap:
    """The elementary coface d_i : [n-1] -> [n] skipping i."""
    if not 0 <= i <= n:
        raise ValueError(f"coface index {i} out of range for [{n}]")
    return MonoMap(n - 1, n, tuple(j for j in range(n + 1) if j != i))


def compose(g: MonoMap, f: MonoMap) -> MonoMap:
    """Pointwise composite g . f (f applied first)."""
    if f.cod != g.dom:
        raise DomainMismatch(f"cannot compose [{g.dom}]->[{g.cod}] after [{f.dom}]->[{f.cod}]")
    return MonoMap(f.dom, g.cod, tuple(g(i) for i in f.images))


def enumerate_mono(k: int, n: int) -> list[MonoMap]:
    """All strictly monotone [k] -> [n] in lexicographic order of images."""
    if k < 0 or n < 0:
        raise ValueError(_NEGATIVE_OBJECT)
    return [MonoMap(k, n, images) for images in combinations(range(n + 1), k + 1)]


def face_decompose(f: MonoMap) -> list[int]:
    """Indices i1 > i2 > ... with f = d_{i1} . ... . d_{im}; the canonical
    form is the complement of the image, listed decreasing."""
    missing = [i for i in range(f.cod + 1) if i not in set(f.images)]
    return sorted(missing, reverse=True)


def recompose(dom: int, cod: int, faces: list[int]) -> MonoMap:
    """Fold a decreasing coface list back into a map [dom] -> [cod]."""
    acc = identity(dom)
    target = dom
    for i in reversed(faces):
        target += 1
        acc = compose(coface(target, i), acc)
    if acc.cod != cod:
        raise DomainMismatch(f"decomposition targets [{acc.cod}], expected [{cod}]")
    return acc


def boundary_cells(n: int) -> list[tuple[int, ...]]:
    """All proper non-empty faces of the n-simplex as vertex tuples,
    dimension-major and lexicographic within a dimension.  This order fixes
    the binder order of generated matching telescopes."""
    return [c for size in range(1, n + 1) for c in combinations(range(n + 1), size)]
