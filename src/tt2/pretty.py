"""Printers for core terms and raw terms.

Core output is valid surface syntax: re-parsing and re-checking a printed
term against its original type reproduces the term, which the test suite
uses as a stability check.  Precedence levels match the parser: lambda and
arrow bind loosest, then the pair former, then application, then atoms.
"""

from __future__ import annotations

from typing import Optional

from . import core, parse
from .core import FIB, Signature, Term

TERM, SIGMA, APP, ATOM = 0, 1, 2, 3


def _wrap(text: str, needed: bool) -> str:
    return f"({text})" if needed else text


def _dependent_binders(t: Term) -> set[int]:
    """The ids of the Π and Σ nodes in ``t`` whose bound variable occurs in
    their codomain or second component, found in one walk of ``t``."""
    found: set[int] = set()
    # owners[k] binds the k-th variable in scope, outermost first; None
    # stands for a binder other than a Π or Σ.  A node's walk entry keeps
    # the scope length of its parent and the binders it adds to it.
    owners: list = []
    stack = [(t, 0, None, 0)]
    while stack:
        t, outer, owner, count = stack.pop()
        del owners[outer:]
        owners.extend((owner,) * count)
        cls = t.__class__
        if cls is core.Var:
            if t.index < len(owners) and owners[-1 - t.index] is not None:
                found.add(id(owners[-1 - t.index]))
            continue
        binder = t if cls is core.Pi or cls is core.Sigma else None
        scope = len(owners)
        for name, off in t.SUB:
            stack.append((getattr(t, name), scope, binder if off else None, off))
    return found


class _CorePrinter:
    def __init__(self, avoid: set[str], dependent: set[int]):
        self.avoid = avoid
        self.dependent = dependent
        self.counter = 0

    def fresh_name(self) -> str:
        while True:
            name = f"v{self.counter}"
            self.counter += 1
            if name not in self.avoid:
                return name

    def show(self, t: Term, names: tuple[str, ...], prec: int) -> str:
        cls = t.__class__
        if cls is core.Var:
            if t.index >= len(names):
                return f"?v{t.index - len(names)}"
            return names[len(names) - 1 - t.index]
        if cls is core.Const:
            return t.name
        if cls is core.Univ:
            return str(t.sort)
        if cls is core.Pi:
            if id(t) in self.dependent:
                x = self.fresh_name()
                body = self.show(t.cod, names + (x,), TERM)
                out = f"({x} : {self.show(t.dom, names, TERM)}) -> {body}"
            else:
                out = f"{self.show(t.dom, names, SIGMA)} -> {self.show(t.cod, names + ('_',), TERM)}"
            return _wrap(out, prec > TERM)
        if cls is core.Lam:
            x = self.fresh_name()
            out = f"\\{x}. {self.show(t.body, names + (x,), TERM)}"
            return _wrap(out, prec > TERM)
        if cls is core.App:
            out = f"{self.show(t.fn, names, APP)} {self.show(t.arg, names, ATOM)}"
            return _wrap(out, prec > APP)
        if cls is core.Sigma:
            if id(t) in self.dependent:
                x = self.fresh_name()
                body = self.show(t.snd, names + (x,), SIGMA)
                out = f"({x} : {self.show(t.fst, names, TERM)}) × {body}"
            else:
                out = f"{self.show(t.fst, names, APP)} × {self.show(t.snd, names + ('_',), SIGMA)}"
            return _wrap(out, prec > SIGMA)
        if cls is core.Pair:
            return f"({self.show(t.fst, names, TERM)} , {self.show(t.snd, names, TERM)})"
        if cls is core.Fst:
            return _wrap(f"fst {self.show(t.pair, names, ATOM)}", prec > APP)
        if cls is core.Snd:
            return _wrap(f"snd {self.show(t.pair, names, ATOM)}", prec > APP)
        if cls is core.Unit:
            return "Unit"
        if cls is core.Star:
            return "star"
        if cls is core.Id:
            kw = "Id" if t.layer is FIB else "Eq"
            out = f"{kw} {self.show(t.ty, names, ATOM)} {self.show(t.lhs, names, ATOM)} {self.show(t.rhs, names, ATOM)}"
            return _wrap(out, prec > APP)
        if cls is core.Refl:
            kw = "refl" if t.layer is FIB else "reflS"
            out = f"{kw} {self.show(t.ty, names, ATOM)} {self.show(t.arg, names, ATOM)}"
            return _wrap(out, prec > APP)
        if cls is core.J:
            kw = "J" if t.layer is FIB else "JS"
            m = self._binder(t.motive, names, 2)
            parts = [
                kw, m,
                self.show(t.base, names, ATOM), self.show(t.lhs, names, ATOM),
                self.show(t.rhs, names, ATOM), self.show(t.proof, names, ATOM),
            ]
            return _wrap(" ".join(parts), prec > APP)
        if cls is core.Nat:
            return "Nat" if t.layer is FIB else "NatS"
        if cls is core.Zero:
            return "zero"
        if cls is core.Suc:
            # A numeral is printed in a loop, as the elaborator checks it.
            count = 0
            while t.__class__ is core.Suc:
                t, count = t.pred, count + 1
            out = "suc (" * (count - 1) + f"suc {self.show(t, names, ATOM)}" + ")" * (count - 1)
            return _wrap(out, prec > APP)
        if cls is core.NatElim:
            kw = "natelim" if t.layer is FIB else "natelimS"
            parts = [
                kw, self._binder(t.motive, names, 1),
                self.show(t.zcase, names, ATOM), self._binder(t.scase, names, 2),
                self.show(t.scrut, names, ATOM),
            ]
            return _wrap(" ".join(parts), prec > APP)
        if cls is core.Sum:
            kw = "Sum" if t.layer is FIB else "SumS"
            out = f"{kw} {self.show(t.left, names, ATOM)} {self.show(t.right, names, ATOM)}"
            return _wrap(out, prec > APP)
        if cls is core.Inl:
            return _wrap(f"inl {self.show(t.arg, names, ATOM)}", prec > APP)
        if cls is core.Inr:
            return _wrap(f"inr {self.show(t.arg, names, ATOM)}", prec > APP)
        if cls is core.SumElim:
            kw = "sumelim" if t.layer is FIB else "sumelimS"
            parts = [
                kw, self._binder(t.motive, names, 1),
                self._binder(t.lcase, names, 1), self._binder(t.rcase, names, 1),
                self.show(t.scrut, names, ATOM),
            ]
            return _wrap(" ".join(parts), prec > APP)
        if cls is core.Empty:
            return "Empty" if t.layer is FIB else "EmptyS"
        if cls is core.EmptyElim:
            kw = "exfalso" if t.layer is FIB else "exfalsoS"
            parts = [kw, self._binder(t.motive, names, 1), self.show(t.scrut, names, ATOM)]
            return _wrap(" ".join(parts), prec > APP)
        raise core.InternalError(f"pretty: unhandled term {type(t).__name__}")

    def _binder(self, body: Term, names: tuple[str, ...], arity: int) -> str:
        bound = tuple(self.fresh_name() for _ in range(arity))
        inner = self.show(body, names + bound, TERM)
        heads = " ".join(bound)
        return f"(\\{heads}. {inner})"


def pretty(t: Term, sig: Optional[Signature] = None,
           names: tuple[str, ...] = ()) -> str:
    """Render a core term as surface syntax, avoiding capture of
    signature-level names."""
    avoid = set(sig.entries) if sig is not None else set()
    avoid.update(names)
    return _CorePrinter(avoid, _dependent_binders(t)).show(t, names, TERM)


# ---------------------------------------------------------------------------
# Raw printer (used for the parse/print fixed-point property)


def pretty_raw(t: parse.Raw, prec: int = TERM) -> str:
    match t:
        case parse.RVar(_, name):
            return name
        case parse.RUniv(_, layer, level):
            return f"U{level}" if layer is FIB else f"US{level}"
        case parse.RPi(_, binder, dom, cod):
            if binder is None:
                out = f"{pretty_raw(dom, SIGMA)} -> {pretty_raw(cod, TERM)}"
            else:
                out = f"({binder} : {pretty_raw(dom, TERM)}) -> {pretty_raw(cod, TERM)}"
            return _wrap(out, prec > TERM)
        case parse.RSigma(_, binder, fst, snd):
            if binder is None:
                out = f"{pretty_raw(fst, APP)} × {pretty_raw(snd, SIGMA)}"
            else:
                out = f"({binder} : {pretty_raw(fst, TERM)}) × {pretty_raw(snd, SIGMA)}"
            return _wrap(out, prec > SIGMA)
        case parse.RLam(_, binder, body):
            return _wrap(f"\\{binder}. {pretty_raw(body, TERM)}", prec > TERM)
        case parse.RApp(_, fn, arg):
            return _wrap(f"{pretty_raw(fn, APP)} {pretty_raw(arg, ATOM)}", prec > APP)
        case parse.RPair(_, fst, snd):
            return f"({pretty_raw(fst, TERM)} , {pretty_raw(snd, TERM)})"
        case parse.RFst(_, arg):
            return _wrap(f"fst {pretty_raw(arg, ATOM)}", prec > APP)
        case parse.RSnd(_, arg):
            return _wrap(f"snd {pretty_raw(arg, ATOM)}", prec > APP)
        case parse.RUnit(_):
            return "Unit"
        case parse.RStar(_):
            return "star"
        case parse.RNat(_, layer):
            return "Nat" if layer is FIB else "NatS"
        case parse.RZero(_):
            return "zero"
        case parse.RSuc(_, pred):
            return _wrap(f"suc {pretty_raw(pred, ATOM)}", prec > APP)
        case parse.RNatElim(_, layer, motive, zcase, scase, scrut):
            kw = "natelim" if layer is FIB else "natelimS"
            out = " ".join([kw] + [pretty_raw(x, ATOM) for x in (motive, zcase, scase, scrut)])
            return _wrap(out, prec > APP)
        case parse.RSum(_, layer, left, right):
            kw = "Sum" if layer is FIB else "SumS"
            return _wrap(f"{kw} {pretty_raw(left, ATOM)} {pretty_raw(right, ATOM)}", prec > APP)
        case parse.RInl(_, arg):
            return _wrap(f"inl {pretty_raw(arg, ATOM)}", prec > APP)
        case parse.RInr(_, arg):
            return _wrap(f"inr {pretty_raw(arg, ATOM)}", prec > APP)
        case parse.RSumElim(_, layer, motive, lcase, rcase, scrut):
            kw = "sumelim" if layer is FIB else "sumelimS"
            out = " ".join([kw] + [pretty_raw(x, ATOM) for x in (motive, lcase, rcase, scrut)])
            return _wrap(out, prec > APP)
        case parse.REmpty(_, layer):
            return "Empty" if layer is FIB else "EmptyS"
        case parse.REmptyElim(_, layer, motive, scrut):
            kw = "exfalso" if layer is FIB else "exfalsoS"
            return _wrap(f"{kw} {pretty_raw(motive, ATOM)} {pretty_raw(scrut, ATOM)}", prec > APP)
        case parse.RId(_, layer, ty, lhs, rhs):
            kw = "Id" if layer is FIB else "Eq"
            out = " ".join([kw] + [pretty_raw(x, ATOM) for x in (ty, lhs, rhs)])
            return _wrap(out, prec > APP)
        case parse.RRefl(_, layer, ty, arg):
            kw = "refl" if layer is FIB else "reflS"
            return _wrap(f"{kw} {pretty_raw(ty, ATOM)} {pretty_raw(arg, ATOM)}", prec > APP)
        case parse.RJ(_, layer, motive, base, lhs, rhs, proof):
            kw = "J" if layer is FIB else "JS"
            out = " ".join([kw] + [pretty_raw(x, ATOM) for x in (motive, base, lhs, rhs, proof)])
            return _wrap(out, prec > APP)
        case parse.RHole(_):
            return "_"
    raise core.InternalError(f"pretty_raw: unhandled {type(t).__name__}")


def pretty_raw_decl(d: parse.RawDecl) -> str:
    binders = "".join(f" ({name} : {pretty_raw(ty, TERM)})" for name, ty in d.telescope)
    head = f"{d.kind} {d.name}{binders} : {pretty_raw(d.result, TERM)}"
    if d.body is None:
        return head
    return f"{head} := {pretty_raw(d.body, TERM)}"


def pretty_raw_file(decls: list[parse.RawDecl]) -> str:
    return "\n".join(pretty_raw_decl(d) for d in decls) + "\n"
