"""The semi-simplex category on plain maps: the oracle that the vertex
tuples of ``tt2.delta`` are checked against.

A strictly monotone map [dom] -> [cod] is the triple
``(dom, cod, images)``; ``mono`` refuses a triple that is no such map.
Composition, cofaces and face decomposition follow the usual simplicial
identities for the maps that skip vertices.
"""

from tt2.delta import enumerate_mono


class DomainMismatch(Exception):
    pass


def mono(dom, cod, images):
    images = tuple(images)
    if dom < 0 or cod < 0:
        raise ValueError("objects of the semi-simplex category are [n] with n >= 0")
    if len(images) != dom + 1:
        raise ValueError(f"expected {dom + 1} images, got {len(images)}")
    if any(b <= a for a, b in zip(images, images[1:])):
        raise ValueError(f"images not strictly increasing: {images}")
    if images[0] < 0 or images[-1] > cod:
        raise ValueError(f"images {images} escape codomain [{cod}]")
    return dom, cod, images


def monos(k, n):
    """Every map [k] -> [n], built from ``tt2.delta``'s images."""
    return [mono(k, n, images) for images in enumerate_mono(k, n)]


def identity(n):
    return mono(n, n, range(n + 1))


def coface(n, i):
    """The elementary coface d_i : [n-1] -> [n] skipping i."""
    if not 0 <= i <= n:
        raise ValueError(f"coface index {i} out of range for [{n}]")
    return mono(n - 1, n, (j for j in range(n + 1) if j != i))


def compose(g, f):
    """Pointwise composite g . f (f applied first)."""
    (gdom, gcod, gimages), (fdom, fcod, fimages) = g, f
    if fcod != gdom:
        raise DomainMismatch(f"cannot compose [{gdom}]->[{gcod}] after [{fdom}]->[{fcod}]")
    return mono(fdom, gcod, (gimages[i] for i in fimages))


def face_decompose(f):
    """Indices i1 > i2 > ... with f = d_{i1} . ... . d_{im}; the canonical
    form is the complement of the image, listed decreasing."""
    _, cod, images = f
    return sorted(set(range(cod + 1)) - set(images), reverse=True)


def recompose(dom, cod, faces):
    """Fold a decreasing coface list back into a map [dom] -> [cod]."""
    acc = identity(dom)
    for target, i in enumerate(reversed(faces), dom + 1):
        acc = compose(coface(target, i), acc)
    if acc[1] != cod:
        raise DomainMismatch(f"decomposition targets [{acc[1]}], expected [{cod}]")
    return acc
