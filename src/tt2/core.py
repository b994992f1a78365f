"""Core syntax of the two-level calculus.

One term language covers both fragments: constructors that exist at both
layers (naturals, sums, empty, equality and their eliminators) carry a
``Layer`` tag, so ``Nat(FIB)`` is the fibrant naturals and ``Nat(STRICT)``
the strict ones.  Binding is positional (de Bruijn indices); no surface
names survive into core terms.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import ClassVar, Optional


class InternalError(Exception):
    """A kernel invariant broke; always a bug, never a user error."""


class Layer(Enum):
    FIB = "fibrant"
    STRICT = "strict"


FIB = Layer.FIB
STRICT = Layer.STRICT


@dataclass(frozen=True)
class Sort:
    layer: Layer
    level: int

    def __str__(self) -> str:
        tag = "U" if self.layer is FIB else "US"
        return f"{tag}{self.level}"


def sort_leq(a: Sort, b: Sort, collapse: bool = False) -> bool:
    """Subsort order: Fib(i) <= Fib(j), Strict(i) <= Strict(j) for i <= j,
    and Fib(i) <= Strict(i).  With ``collapse`` every fibrant universe sits
    inside the first strict one, so Fib(i) <= Strict(j) for all j."""
    if a.layer is b.layer:
        return a.level <= b.level
    if a.layer is FIB and b.layer is STRICT:
        return True if collapse else a.level <= b.level
    return False


def sort_join(a: Sort, b: Sort, collapse: bool = False) -> Sort:
    """Least upper bound in the subsort order."""
    if a.layer is b.layer:
        return Sort(a.layer, max(a.level, b.level))
    fib, strict = (a, b) if a.layer is FIB else (b, a)
    if collapse:
        return strict
    return Sort(STRICT, max(fib.level, strict.level))


@dataclass(frozen=True)
class Term:
    # (field name, number of binders the field sits under)
    SUB: ClassVar[tuple[tuple[str, int], ...]] = ()


@dataclass(frozen=True)
class Var(Term):
    index: int


@dataclass(frozen=True)
class Const(Term):
    name: str


@dataclass(frozen=True)
class Univ(Term):
    sort: Sort


@dataclass(frozen=True)
class Pi(Term):
    dom: Term
    cod: Term
    SUB = (("dom", 0), ("cod", 1))


@dataclass(frozen=True)
class Lam(Term):
    body: Term
    SUB = (("body", 1),)


@dataclass(frozen=True)
class App(Term):
    fn: Term
    arg: Term
    SUB = (("fn", 0), ("arg", 0))


@dataclass(frozen=True)
class Sigma(Term):
    fst: Term
    snd: Term
    SUB = (("fst", 0), ("snd", 1))


@dataclass(frozen=True)
class Pair(Term):
    fst: Term
    snd: Term
    SUB = (("fst", 0), ("snd", 0))


@dataclass(frozen=True)
class Fst(Term):
    pair: Term
    SUB = (("pair", 0),)


@dataclass(frozen=True)
class Snd(Term):
    pair: Term
    SUB = (("pair", 0),)


@dataclass(frozen=True)
class Unit(Term):
    pass


@dataclass(frozen=True)
class Star(Term):
    pass


@dataclass(frozen=True)
class Id(Term):
    """Equality type; fibrant at FIB, strict at STRICT."""

    layer: Layer
    ty: Term
    lhs: Term
    rhs: Term
    SUB = (("ty", 0), ("lhs", 0), ("rhs", 0))


@dataclass(frozen=True)
class Refl(Term):
    layer: Layer
    ty: Term
    arg: Term
    SUB = (("ty", 0), ("arg", 0))


@dataclass(frozen=True)
class J(Term):
    """Equality eliminator; motive binds the moving endpoint and the proof."""

    layer: Layer
    motive: Term
    base: Term
    lhs: Term
    rhs: Term
    proof: Term
    SUB = (("motive", 2), ("base", 0), ("lhs", 0), ("rhs", 0), ("proof", 0))


@dataclass(frozen=True)
class Nat(Term):
    layer: Layer


@dataclass(frozen=True)
class Zero(Term):
    layer: Layer


@dataclass(frozen=True)
class Suc(Term):
    layer: Layer
    pred: Term
    SUB = (("pred", 0),)


@dataclass(frozen=True)
class NatElim(Term):
    """Motive binds the number; the step binds predecessor and IH."""

    layer: Layer
    motive: Term
    zcase: Term
    scase: Term
    scrut: Term
    SUB = (("motive", 1), ("zcase", 0), ("scase", 2), ("scrut", 0))


@dataclass(frozen=True)
class Sum(Term):
    layer: Layer
    left: Term
    right: Term
    SUB = (("left", 0), ("right", 0))


@dataclass(frozen=True)
class Inl(Term):
    layer: Layer
    arg: Term
    SUB = (("arg", 0),)


@dataclass(frozen=True)
class Inr(Term):
    layer: Layer
    arg: Term
    SUB = (("arg", 0),)


@dataclass(frozen=True)
class SumElim(Term):
    layer: Layer
    motive: Term
    lcase: Term
    rcase: Term
    scrut: Term
    SUB = (("motive", 1), ("lcase", 1), ("rcase", 1), ("scrut", 0))


@dataclass(frozen=True)
class Empty(Term):
    layer: Layer


@dataclass(frozen=True)
class EmptyElim(Term):
    layer: Layer
    motive: Term
    scrut: Term
    SUB = (("motive", 1), ("scrut", 0))


def _map_subterms(t: Term, f) -> Term:
    """Rebuild ``t`` with f(subterm, extra_binders) applied to each subterm."""
    if not t.SUB:
        return t
    changes = {name: f(getattr(t, name), off) for name, off in t.SUB}
    return replace(t, **changes)


def shift(t: Term, cutoff: int = 0, amount: int = 1) -> Term:
    """Move free indices >= cutoff by amount; bound structure unchanged."""
    if isinstance(t, Var):
        if t.index >= cutoff:
            moved = t.index + amount
            if moved < 0:
                raise InternalError(f"shift underflow: Var({t.index}) by {amount}")
            return Var(moved)
        return t
    return _map_subterms(t, lambda sub, off: shift(sub, cutoff + off, amount))


def subst(t: Term, index: int, s: Term) -> Term:
    """Capture-avoiding substitution of s for Var(index); indices above drop."""
    if isinstance(t, Var):
        if t.index == index:
            return s
        if t.index > index:
            return Var(t.index - 1)
        return t
    return _map_subterms(
        t, lambda sub, off: subst(sub, index + off, shift(s, 0, off) if off else s)
    )


def instantiate2(body: Term, first: Term, second: Term) -> Term:
    """Fill a 2-binder body; ``first`` is the outer binder, ``second`` inner."""
    return subst(subst(body, 0, shift(second, 0, 1)), 0, first)


def is_scope_closed(t: Term, depth: int = 0) -> bool:
    """Every bound index is below the binder depth at its occurrence.

    Walks an explicit stack, so the nesting depth of ``t`` is not bounded
    by the interpreter's recursion limit."""
    stack = [(t, depth)]
    while stack:
        t, depth = stack.pop()
        if isinstance(t, Var):
            if t.index >= depth:
                return False
        else:
            for name, off in t.SUB:
                stack.append((getattr(t, name), depth + off))
    return True


def term_size(t: Term) -> int:
    size = 0
    stack = [t]
    while stack:
        t = stack.pop()
        size += 1
        stack.extend(getattr(t, name) for name, _ in t.SUB)
    return size


class DeclKind(Enum):
    DEFINITION = "def"
    POSTULATE = "postulate"
    AXIOM = "axiom"


@dataclass
class SigEntry:
    name: str
    ty: Term
    body: Optional[Term]
    kind: DeclKind


@dataclass
class Signature:
    """Top-level entries in dependency order.

    Immutable once elaboration finishes; the value caches are monotone
    memo tables for evaluation and do not affect observable behaviour.
    """

    entries: dict[str, SigEntry]

    def __init__(self) -> None:
        self.entries = {}
        self.body_values: dict[str, object] = {}
        self.type_values: dict[str, object] = {}

    def lookup(self, name: str) -> Optional[SigEntry]:
        return self.entries.get(name)

    def add(self, entry: SigEntry) -> None:
        if entry.name in self.entries:
            raise InternalError(f"duplicate signature entry {entry.name!r}")
        if not is_scope_closed(entry.ty):
            raise InternalError(f"open type in signature entry {entry.name!r}")
        if entry.body is not None and not is_scope_closed(entry.body):
            raise InternalError(f"open body in signature entry {entry.name!r}")
        self.entries[entry.name] = entry


@dataclass(frozen=True)
class Context:
    """Local binder telescope; each type is scoped over the prefix."""

    telescope: tuple[tuple[Optional[str], Term], ...] = ()

    def extend(self, name: Optional[str], ty: Term) -> "Context":
        return Context(self.telescope + ((name, ty),))

    def __len__(self) -> int:
        return len(self.telescope)

    def validate(self) -> None:
        for i, (_, ty) in enumerate(self.telescope):
            if not is_scope_closed(ty, i):
                raise InternalError(f"context entry {i} escapes its prefix")
