"""Generation of surface files for fixed-level semi-simplicial structure:
the unfolded type of Reedy-fibrant n-truncated semi-simplicial types, spine
telescopes, and Segal-map scaffolding.

Matching telescopes bind the boundary cells, vertex tuples, in canonical
order (dimension first, then lexicographic).  A binder is named only when a
later binder refers to it, which ``_family_type`` reads off its dimension;
this keeps the level-1 family literally ``X0 -> X0 -> U0``.  Generated text
is a pure function of the plan, so output is byte-identical across runs.

A telescope is written from printf templates made once per file for each
dimension d: a d-cell's name (``a%d``, ``x%d%d``, ...), its type (family d
applied to the names of its faces, C(d+1, m) of m vertices for m = 1..d),
and an ``itemgetter`` of the vertices their slots read.  A cell's binder
text is then one ``%`` over the getter's tuple, with no Python-level call
per cell or per face.  Names join vertex labels with no separator, so the
faces of a simplex with 13 or more vertices are refused: (0, 12) and
(0, 1, 2) would both be ``x012``.
"""

from __future__ import annotations

import re
from itertools import groupby
from operator import itemgetter
from typing import Optional

from .core import Node
from .delta import boundary_cells


class LevelCapExceeded(ValueError):
    pass


class GenPlan(Node, frozen=True):
    levels: int
    emit: frozenset[str] = frozenset({"sst"})
    names: str = ""
    universe: int = 0
    literal_spine: bool = False
    cap: int = 8

    def __post_init__(self) -> None:
        if self.levels < 0:
            raise ValueError("levels must be non-negative")
        if self.universe < 0:
            raise ValueError("universe index must be non-negative")
        # an identifier as docs/surface.md defines one, so that every
        # generated name is one too
        if self.names and not re.fullmatch(r"[A-Za-z][A-Za-z0-9_']*", self.names):
            raise ValueError(f"prefix {self.names!r} is not an identifier")
        if self.levels > self.cap:
            raise LevelCapExceeded(
                f"level {self.levels} exceeds the cap {self.cap}; generated "
                "terms grow exponentially"
            )
        unknown = self.emit - {"sst", "spine", "segal"}
        if unknown:
            raise ValueError(f"unknown emission targets: {sorted(unknown)}")


_MOST_VERTICES = 12  # with 13, (0, 12) and (0, 1, 2) would both be x012


def _refuse_unnamable(vertices: int) -> None:
    if vertices > _MOST_VERTICES:
        raise ValueError(
            f"cannot name the faces of a simplex with {vertices} vertices: names "
            "join vertex labels with no separator, so (0, 12) and (0, 1, 2) "
            f"would both be x012; at most {_MOST_VERTICES} vertices are named"
        )


def _name_template(size: int) -> str:
    return "a%d" if size == 1 else "x" + "%d" * size


def cell_name(cell: tuple[int, ...]) -> str:
    _refuse_unnamable(cell[-1] + 1)
    return _name_template(len(cell)) % cell


def _cell_templates(family: str, faces: list) -> list[tuple[str, str, itemgetter]]:
    """Per dimension d < len(faces): printf templates of a d-cell's binder
    name and of its type, and the getter of the vertices their slots read.
    The getter gives the cell's own d+1 vertices, for the name, then those
    of its faces in ``faces[d]`` order, for the type, so that
    ``f"({name} : {ty})" % get(cell)`` is the named binder and
    ``ty % get(cell)[d + 1:]`` the type alone."""
    _refuse_unnamable(len(faces) + 1)
    names = [_name_template(size) for size in range(1, len(faces) + 1)]
    templates = []
    for dim, bound in enumerate(faces):
        args = "".join([" " + names[len(face) - 1] for face in bound])
        # itemgetter of one position gives the bare item, not a 1-tuple
        get = (itemgetter(*range(dim + 1), *[v for face in bound for v in face]) if dim
               else itemgetter(slice(1)))
        templates.append((names[dim], f"{family}{dim}{args}", get))
    return templates


def telescope_entries(n: int, family: str = "X", faces: Optional[list] = None,
                      templates: Optional[list] = None) -> list[tuple[str, str]]:
    """(binder name, type text) for the matching telescope at level n, where
    ``faces[d]`` is ``boundary_cells(d)`` for d <= n (one list per file) and
    ``templates`` those of ``_cell_templates`` over ``faces[:n]``.  A cell's
    type is the family of its dimension applied to the binders of its own
    faces, in canonical order."""
    faces = [boundary_cells(d) for d in range(n + 1)] if faces is None else faces
    templates = _cell_templates(family, faces[:n]) if templates is None else templates
    entries = []
    for size, cells in groupby(faces[n], len):
        name, ty, get = templates[size - 1]
        entries += [(name % cell, ty % get(cell)[size:]) for cell in cells]
    return entries


def _family_type(k: int, universe: int, family: str, faces: list,
                 templates: Optional[list] = None) -> str:
    """Type text of the level-k family over its matching telescope.

    A binder is named exactly when a later binder's type mentions it, that
    is, when its cell has fewer than k vertices.  Adding a vertex of [k]
    that such a cell lacks gives a proper cell of the next dimension, which
    comes later and whose type names all its faces.  A cell of dimension
    k-1 is a face of no cell in the telescope: none has a higher dimension."""
    templates = _cell_templates(family, faces[:k]) if templates is None else templates
    parts = []
    for size, cells in groupby(faces[k], len):
        name, ty, get = templates[size - 1]
        if size < k:
            parts += map(f"({name} : {ty}) -> ".__mod__, map(get, cells))
        else:  # the k+1 facets
            parts += [ty % get(cell)[size:] + " -> " for cell in cells]
    return "".join(parts) + f"U{universe}"


def _sigma(components: list[tuple[str, str]]) -> str:
    """Right-nested sigma text over named components, closed off by Unit."""
    parts = [f"({name} : {ty})" for name, ty in components]
    return " × ".join(parts + ["Unit"])


def _tuple_of(values: list[str]) -> str:
    out = "star"
    for v in reversed(values):
        out = f"({v} , {out})"
    return out


def gen_sst(plan: GenPlan) -> str:
    """The type of Reedy-fibrant n-truncated semi-simplicial types as a
    left-to-right sigma telescope of level families."""
    n, u, p = plan.levels, plan.universe, plan.names
    header = f"-- tt2 gen sst --levels {n}"
    if u:
        header += f" --universe {u}"
    faces = [boundary_cells(d) for d in range(n)]
    templates = _cell_templates(f"{p}X", faces[:-1])
    families = [(f"{p}X{k}", _family_type(k, u, f"{p}X", faces, templates)) for k in range(n)]
    body = _sigma(families) if families else "Unit"
    lines = [header, f"def {p}SST{n} : US{u + 1} := {body}"]
    return "\n".join(lines) + "\n"


def _spine_components(n: int, p: str) -> list[tuple[str, str]]:
    comps = [(f"a{i}", f"{p}X0") for i in range(n + 1)]
    comps += [(f"x{i}", f"{p}X1 a{i - 1} a{i}") for i in range(1, n + 1)]
    return comps


def _literal_spine_components(n: int, p: str) -> list[tuple[str, str]]:
    comps = []
    for i in range(1, n + 1):
        comps += [
            (f"s{i}", f"{p}X0"),
            (f"t{i}", f"{p}X0"),
            (f"y{i}", f"{p}X1 s{i} t{i}"),
        ]
    comps += [
        (f"e{i}", f"Id {p}X0 t{i} s{i + 1}") for i in range(1, n)
    ]
    return comps


def gen_spine(plan: GenPlan) -> str:
    """Spines of length n over a postulated level-1 skeleton.  The default
    form shares endpoint variables, which realizes the gluing equalities
    definitionally at a fixed level; ``literal_spine`` adds the form with
    explicit equality components."""
    n, u, p = plan.levels, plan.universe, plan.names
    if n < 1:
        raise LevelCapExceeded("spines need at least one line")
    header = f"-- tt2 gen spine --levels {n}"
    if u:
        header += f" --universe {u}"
    if plan.literal_spine:
        header += " --literal-spine"
    lines = [
        header,
        f"postulate {p}X0 : U{u}",
        f"postulate {p}X1 : {_family_type(1, u, f'{p}X', [boundary_cells(0), boundary_cells(1)])}",
        f"def {p}Spine{n} : U{u} := {_sigma(_spine_components(n, p))}",
    ]
    if plan.literal_spine:
        lines.append(
            f"def {p}SpineLit{n} : U{u} := {_sigma(_literal_spine_components(n, p))}"
        )
    return "\n".join(lines) + "\n"


def gen_segal_scaffold(plan: GenPlan) -> str:
    """The n-th Segal map over postulated levels 0..n, and its equivalence
    statement against the stdlib's isEquiv (which lives at universe 0)."""
    n, p = plan.levels, plan.names
    if n < 2:
        raise LevelCapExceeded("Segal scaffolding needs at least two levels")
    if plan.universe != 0:
        raise LevelCapExceeded(
            "Segal scaffolding is tied to the level-0 isEquiv of the stdlib"
        )
    header = f"-- tt2 gen segal --levels {n}"
    lines = [header]
    faces = [boundary_cells(d) for d in range(n + 1)]
    templates = _cell_templates(f"{p}X", faces[:-1])
    for k in range(n + 1):
        lines.append(f"postulate {p}X{k} : {_family_type(k, 0, f'{p}X', faces, templates)}")

    tot = telescope_entries(n, f"{p}X", faces, templates)
    filler_args = " ".join(map(itemgetter(0), tot))
    tot.append((f"t{n}", f"{p}X{n} {filler_args}"))
    lines.append(f"def {p}Tot{n} : U0 := {_sigma(tot)}")
    lines.append(f"def {p}Spine{n} : U0 := {_sigma(_spine_components(n, p))}")

    index_of = {name: i for i, (name, _) in enumerate(tot)}
    spine_cells = [f"a{i}" for i in range(n + 1)]
    spine_cells += [cell_name((i, i + 1)) for i in range(n)]
    projections = []
    for name in spine_cells:
        j = index_of[name]
        projections.append("fst " + "(snd " * j + "t" + ")" * j if j else "fst t")
    lines.append(
        f"def {p}phi{n} : {p}Tot{n} -> {p}Spine{n} := \\t. {_tuple_of(projections)}"
    )
    lines.append(
        f"def {p}SegalCondition{n} : U0 := "
        f"isEquiv {p}Tot{n} {p}Spine{n} {p}phi{n}"
    )
    return "\n".join(lines) + "\n"
