"""Built-in axioms, stated in surface syntax and elaborated on first use.

The strict fragment gets uniqueness of identity proofs and function
extensionality; each fibrant universe that can be quantified over gets a
univalence axiom whose statement is the fully unfolded equivalence type of
the coercion map.  All three are inert: none carries a computation rule.

Quantifying over a universe needs the next level up, so in a hierarchy of
L levels the axioms live at level L-2 and the top universe has no
univalence axiom of its own.

Every fresh signature declares all the axioms at once, in this order and
with kind ``AXIOM``, so their names are taken and counted from the start.
An axiom's statement is written, parsed and elaborated (as a type, in an
empty signature) only when its ``ty`` is first read, and kept: like the
signature's value caches, the type is a monotone memo.  A ``RecursionError``
or ``MemoryError`` in a first read reaches the reader, whose declaration
gets ``DEPTH`` or ``MEMORY``, and the next read tries again.  Most files
name no axiom, and the univalence statements are by far the largest part
of the prelude.
"""

from __future__ import annotations

from typing import Callable

from .core import Context, DeclKind, InternalError, Signature, Term, is_scope_closed
from .diagnostics import Diagnostic
from .elab import Config, Elaborator
from .parse import parse_file


def _is_equiv(a: str, b: str, f: str) -> str:
    """The unfolded statement that ``f`` (an atom) is an equivalence from
    ``a`` to ``b`` (atoms): half-adjoint-free, two one-sided inverses."""
    return (
        f"((g : {b} -> {a}) × Id ({a} -> {a}) (\\x. g ({f} x)) (\\x. x))"
        f" × ((h : {b} -> {a}) × Id ({b} -> {b}) (\\x. {f} (h x)) (\\x. x))"
    )


def _ua_axiom(i: int) -> str:
    eq = f"(Id U{i} A B)"
    equiv_at = lambda b: f"((f : A -> {b}) × ({_is_equiv('A', b, 'f')}))"
    id_equiv = (
        "((\\x. x) , (((\\x. x) , refl (A -> A) (\\x. x)) ,"
        " ((\\x. x) , refl (A -> A) (\\x. x))))"
    )
    coe = lambda p: f"(J (\\B2. \\q. {equiv_at('B2')}) {id_equiv} A B {p})"
    stmt = (
        f"((g : {equiv_at('B')} -> {eq}) ×"
        f" Id ({eq} -> {eq}) (\\p. g {coe('p')}) (\\p. p))"
        f" × ((h : {equiv_at('B')} -> {eq}) ×"
        f" Id ({equiv_at('B')} -> {equiv_at('B')}) (\\e. {coe('(h e)')}) (\\e. e))"
    )
    return f"postulate ua{i} : (A : U{i}) -> (B : U{i}) -> {stmt}"


def _axioms(config: Config) -> list[tuple[str, Callable[[], str]]]:
    """Name of each built-in axiom, in order, and a function that writes
    its surface declaration."""
    top = config.universes - 2
    if top < 0:
        return []
    axioms = [
        ("uip", lambda: "postulate uip : "
         f"(A : US{top}) -> (a : A) -> (b : A) -> (p : Eq A a b) -> "
         "(q : Eq A a b) -> Eq (Eq A a b) p q"),
        ("funextS", lambda: "postulate funextS : "
         f"(A : US{top}) -> (B : A -> US{top}) -> (f : (x : A) -> B x) -> "
         "(g : (x : A) -> B x) -> ((x : A) -> Eq (B x) (f x) (g x)) -> "
         "Eq ((x : A) -> B x) f g"),
    ]
    for i in range(config.universes - 1):
        axioms.append((f"ua{i}", lambda i=i: _ua_axiom(i)))
    return axioms


class _Axiom:
    """A signature entry whose type is elaborated when first read."""

    __slots__ = ("name", "_write", "_config", "_ty")
    body = None
    kind = DeclKind.AXIOM

    def __init__(self, name: str, write: Callable[[], str], config: Config) -> None:
        self.name = name
        self._write = write
        self._config = config
        self._ty = None

    @property
    def ty(self) -> Term:
        if self._ty is None:
            try:
                (decl,) = parse_file(self._write())
                ty, _ = Elaborator(Signature(), self._config).ensure_type(Context(), decl.ty)
            except Diagnostic as diag:
                raise InternalError("the built-in axioms failed to elaborate: " + diag.message)
            if not is_scope_closed(ty):
                raise InternalError(f"open type in built-in axiom {self.name!r}")
            self._ty = ty
        return self._ty


def initial_signature(config: Config = Config()) -> Signature:
    """A fresh signature containing exactly the built-in axioms."""
    sig = Signature()
    for name, write in _axioms(config):
        sig.entries[name] = _Axiom(name, write, config)
    return sig
