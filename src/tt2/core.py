"""Core syntax of the two-level calculus.

One term language covers both fragments: constructors that exist at both
layers (naturals, sums, empty, equality and their eliminators) carry a
``Layer`` tag, so ``Nat(FIB)`` is the fibrant naturals and ``Nat(STRICT)``
the strict ones.  Binding is positional (de Bruijn indices); no surface
names survive into core terms.  An application chain ``f a1 … an`` is one
``App(f, (a1, …, an))`` (spine form): ``args`` is never empty and ``fn``
never an ``App``, so no walker takes nested applications apart.  ``args``
is in ``App.SUB``, so a generic walker that treats it as a term fails.

Every record class of the package derives from ``Node``.  Its class bodies
read like dataclasses: annotated fields, immutable defaults (shared by all
instances) and ``ClassVar`` constants.  The annotations become
``__slots__`` and ``__match_args__``; only ``__init__`` (which ends by
calling any ``__post_init__``) comes from one ``compile`` per class, and
``__eq__`` is one method of ``Node``.  This replaces ``dataclasses``,
whose cost every run of ``tt2`` paid: with no bytecode cache, decorating
the 91 classes that ``import tt2.cli`` loads took 58-83 ms of its
116-165 ms (as nodes: 14-24 ms), and frozen dataclasses store fields
through ``object.__setattr__``, which made ``Pi(v, v)`` 1.6 times as
slow (Python 3.11, 2-core Xeon VM).  The rules:

- ``frozen=True`` (inherited) stores fields through the slot descriptors,
  and assigning or deleting one afterwards raises ``AttributeError``.
- ``==`` holds for nodes of one class with equal fields, each compared
  with an identity test first; it skips the fields that their class
  names in ``uncompared=(...)``.  It walks nested nodes and tuples along
  an explicit stack, so nesting costs no Python frames.  No node hashes,
  frozen or not: nothing keys a dict or a set by one, so ``==`` is the
  only comparison.
- ``fields=(...)`` names the class's own fields in place of annotations,
  so that a class can take another's: ``conv``'s value and frame classes
  take those of the core classes they mirror.
- ``repr`` is ``Pi(dom=Var(index=0), cod=...)``.
- Hot code tests ``t.__class__ is Var``: the metaclass makes ``isinstance``
  and ``match`` class patterns that miss about twice as slow.

``var(i)`` returns one shared ``Var(i)`` per index and ``const(name)`` one
shared ``Const(name)`` per name, so the elaborator and read-back allocate
no leaf per variable occurrence and read-back none per constant head.
Terms are frozen, so the sharing shows only to ``is``.  ``SharedLeaves``
is that cache; ``conv.fresh`` shares its neutral variables through it too.
"""

from __future__ import annotations

import sys
from enum import Enum
from typing import ClassVar, Optional


class InternalError(Exception):
    """A kernel invariant broke; always a bug, never a user error."""


def _refuse_assignment(self, name, value=None):
    raise AttributeError(f"cannot assign to field {name!r}")


class _NodeType(type):
    """Builds each ``Node`` class from its annotations or ``fields=`` (see above)."""

    def __new__(mcls, name, bases, ns, frozen=None, uncompared=(), fields=None):
        base = next((b for b in bases if isinstance(b, _NodeType)), None)
        if base is None:
            return super().__new__(mcls, name, bases, ns)
        own = fields if fields is not None else tuple(
            f for f, a in ns.get("__annotations__", {}).items()
            if not str(a).startswith(("ClassVar", "typing.ClassVar")))
        defaults = {**base._defaults, **{f: ns.pop(f) for f in own if f in ns}}
        fields = ns["__match_args__"] = base.__match_args__ + own
        ns["__slots__"] = own
        cls = super().__new__(mcls, name, bases, ns)
        cls._defaults = defaults
        cls._frozen = frozen = base._frozen if frozen is None else frozen
        env = {f"_d_{f}": v for f, v in defaults.items()}
        env.update((f"_s_{f}", getattr(cls, f).__set__) for f in fields)
        params = "".join(f", {f}=_d_{f}" if f in defaults else f", {f}" for f in fields)
        body = [f"_s_{f}(self, {f})" if frozen else f"self.{f} = {f}" for f in fields]
        if hasattr(cls, "__post_init__"):
            body.append("self.__post_init__()")
        cls._compared = base._compared + tuple(f for f in own if f not in uncompared)
        if frozen:
            cls.__setattr__ = cls.__delattr__ = _refuse_assignment
        # Compiled under the module's file name and the class's line, so
        # that profiles tell the generated __init__ of each class apart.
        caller = sys._getframe(1)
        source = f"def __init__(self{params}): {'; '.join(body) or 'pass'}"
        exec(compile(source, caller.f_code.co_filename, "exec"), env)
        init = env["__init__"]
        init.__code__ = init.__code__.replace(co_firstlineno=caller.f_lineno)
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        cls.__init__ = init
        return cls


class Node(metaclass=_NodeType):
    """Base of the record classes; see the module docstring."""

    __slots__ = ()
    __match_args__: ClassVar[tuple[str, ...]] = ()
    _defaults: ClassVar[dict[str, object]] = {}
    _frozen: ClassVar[bool] = False
    _compared: ClassVar[tuple[str, ...]] = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        todo = [(self, other)]
        while todo:
            a, b = todo.pop()
            if a is b:
                continue
            cls = a.__class__
            if cls is tuple and b.__class__ is tuple:
                if len(a) != len(b):
                    return False
                todo.extend(zip(a, b))
            elif cls.__class__ is _NodeType and b.__class__ is cls:
                for f in cls._compared:
                    todo.append((getattr(a, f), getattr(b, f)))
            elif a != b:
                return False
        return True

    def __repr__(self) -> str:
        fields = ", ".join([f"{f}={getattr(self, f)!r}" for f in self.__match_args__])
        return f"{self.__class__.__qualname__}({fields})"


class Layer(Enum):
    FIB = "fibrant"
    STRICT = "strict"


FIB = Layer.FIB
STRICT = Layer.STRICT


class Sort(Node, frozen=True):
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
    """Least upper bound in the subsort order: an argument itself where
    it is one, not an equal copy."""
    if a.layer is b.layer:
        return a if a.level >= b.level else b
    fib, strict = (a, b) if a.layer is FIB else (b, a)
    if collapse or strict.level >= fib.level:
        return strict
    return Sort(STRICT, fib.level)


class Term(Node, frozen=True):
    # (field name, number of binders the field sits under)
    SUB: ClassVar[tuple[tuple[str, int], ...]] = ()


class Var(Term):
    index: int


class Const(Term):
    name: str


class SharedLeaves(dict):
    """One leaf per key, built by ``build`` on the key's first lookup.  A
    lookup through the bound ``__getitem__`` is a C-level call."""

    def __init__(self, build) -> None:
        self.build = build

    def __missing__(self, key):
        leaf = self[key] = self.build(key)
        return leaf


# see the module docstring
var = SharedLeaves(Var).__getitem__
const = SharedLeaves(Const).__getitem__


class Univ(Term):
    sort: Sort


class Pi(Term):
    dom: Term
    cod: Term
    SUB = (("dom", 0), ("cod", 1))


class Lam(Term):
    body: Term
    SUB = (("body", 1),)


class App(Term):
    """``fn a1 … an``; see the module docstring."""

    fn: Term
    args: tuple[Term, ...]
    SUB = (("fn", 0), ("args", 0))


class Sigma(Term):
    fst: Term
    snd: Term
    SUB = (("fst", 0), ("snd", 1))


class Pair(Term):
    fst: Term
    snd: Term
    SUB = (("fst", 0), ("snd", 0))


class Fst(Term):
    pair: Term
    SUB = (("pair", 0),)


class Snd(Term):
    pair: Term
    SUB = (("pair", 0),)


class Unit(Term):
    pass


class Star(Term):
    pass


class Id(Term):
    """Equality type; fibrant at FIB, strict at STRICT."""

    layer: Layer
    ty: Term
    lhs: Term
    rhs: Term
    SUB = (("ty", 0), ("lhs", 0), ("rhs", 0))


class Refl(Term):
    layer: Layer
    ty: Term
    arg: Term
    SUB = (("ty", 0), ("arg", 0))


class J(Term):
    """Equality eliminator; motive binds the moving endpoint and the proof."""

    layer: Layer
    motive: Term
    base: Term
    lhs: Term
    rhs: Term
    proof: Term
    SUB = (("motive", 2), ("base", 0), ("lhs", 0), ("rhs", 0), ("proof", 0))


class Nat(Term):
    layer: Layer


class Zero(Term):
    layer: Layer


class Suc(Term):
    layer: Layer
    pred: Term
    SUB = (("pred", 0),)


class NatElim(Term):
    """Motive binds the number; the step binds predecessor and IH."""

    layer: Layer
    motive: Term
    zcase: Term
    scase: Term
    scrut: Term
    SUB = (("motive", 1), ("zcase", 0), ("scase", 2), ("scrut", 0))


class Sum(Term):
    layer: Layer
    left: Term
    right: Term
    SUB = (("left", 0), ("right", 0))


class Inl(Term):
    layer: Layer
    arg: Term
    SUB = (("arg", 0),)


class Inr(Term):
    layer: Layer
    arg: Term
    SUB = (("arg", 0),)


class SumElim(Term):
    layer: Layer
    motive: Term
    lcase: Term
    rcase: Term
    scrut: Term
    SUB = (("motive", 1), ("lcase", 1), ("rcase", 1), ("scrut", 0))


class Empty(Term):
    layer: Layer


class EmptyElim(Term):
    layer: Layer
    motive: Term
    scrut: Term
    SUB = (("motive", 1), ("scrut", 0))


def is_scope_closed(t: Term) -> bool:
    """Every bound index is below the binder depth at its occurrence.

    Walks an explicit stack, so the nesting depth of ``t`` is not bounded
    by the interpreter's recursion limit.  A variable argument of an
    application is tested where it is met."""
    stack = [(t, 0)]
    while stack:
        t, depth = stack.pop()
        if t.__class__ is App:
            for arg in t.args:
                if arg.__class__ is Var:
                    if arg.index >= depth:
                        return False
                else:
                    stack.append((arg, depth))
            t = t.fn
        if t.__class__ is Var:
            if t.index >= depth:
                return False
        else:
            for name, off in t.SUB:
                stack.append((getattr(t, name), depth + off))
    return True


class DeclKind(Enum):
    DEFINITION = "def"
    POSTULATE = "postulate"
    AXIOM = "axiom"


class SigEntry(Node):
    name: str
    ty: Term
    body: Optional[Term]
    kind: DeclKind


class Signature:
    """Top-level entries in dependency order.

    Immutable once elaboration finishes; the value caches are monotone
    memo tables for evaluation and do not affect observable behaviour.
    ``read_backs``, a third, maps the ``id`` of each defined constant's
    body value, which is closed, to ``(value,)`` and, once ``conv.quote``
    has read the value back, to ``(value, term)``.  Holding the value
    keeps its id from passing to another object.
    The built-in axioms (``prelude``) are declared eagerly, with
    ``body`` ``None``, but each one's ``ty`` is elaborated and checked
    on its first read and then kept: a monotone memo like the caches.
    """

    def __init__(self) -> None:
        self.entries: dict[str, SigEntry] = {}
        self.body_values: dict[str, object] = {}
        self.type_values: dict[str, object] = {}
        self.read_backs: dict[int, tuple] = {}

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


class Context(Node, frozen=True, uncompared=("levels",)):
    """The binders in scope: each one's written name, type value and
    value, by level, outermost first, as evaluation and conversion index
    them.  Values are ``conv``'s, which ``core`` does not import, so the
    caller of ``extend`` passes the bound variable's value."""

    names: tuple[Optional[str], ...] = ()
    types: tuple[object, ...] = ()
    env: tuple[object, ...] = ()
    # the level of each name's innermost binder, so that a lookup costs the
    # same at every depth; ``extend`` copies it and nothing mutates one
    levels: dict[str, int] = {}

    def extend(self, name: Optional[str], ty: object, value: object) -> "Context":
        levels = self.levels
        if name is not None:
            levels = levels.copy()
            levels[name] = len(self.env)
        return Context(self.names + (name,), self.types + (ty,), self.env + (value,), levels)
