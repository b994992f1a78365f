"""Printer for core terms.

Core output is valid surface syntax: re-parsing and re-checking a printed
term against its original type reproduces the term, which the test suite
uses as a stability check.  Precedence levels match the parser: lambda and
arrow bind loosest, then the pair former, then application, then atoms.
"""

from __future__ import annotations

from typing import Optional

from . import core
from .core import Signature, Term
from .parse import SPELLING

TERM, SIGMA, APP, ATOM = 0, 1, 2, 3


def _wrap(text: str, needed: bool) -> str:
    return f"({text})" if needed else text


def _dependent_binders(t: Term) -> set[int]:
    """The ids of the Π and Σ nodes in ``t`` whose bound variable occurs in
    their codomain or second component, found in one walk of ``t``.

    ``owners[k]`` is the Π or Σ that binds level ``k`` on the current path,
    or None for another binder.  A stack entry is a node, its parent's
    scope length and the binders the node adds, and ``owners`` is written
    only where a binder is entered.  No level below the current scope is
    stale: the walk finishes a subtree before it pops any entry pushed
    earlier, and a subtree writes only levels at or above the scope its
    entry was pushed with.  Levels above the scope are never read."""
    found: set[int] = set()
    owners: list = []
    stack = [(t, 0, 0)]
    while stack:
        t, depth, added = stack.pop()
        if added:
            owners[depth:depth + added] = (None,) * added
            depth += added
        while True:
            cls = t.__class__
            if cls is core.Pi or cls is core.Sigma:
                pi = cls is core.Pi
                stack.append((t.dom if pi else t.fst, depth, 0))
                owners[depth:depth + 1] = (t,)
                t, depth = t.cod if pi else t.snd, depth + 1
            elif cls is core.App:
                while t.__class__ is core.App:
                    arg, t = t.arg, t.fn
                    if arg.__class__ is not core.Var:
                        stack.append((arg, depth, 0))
                    elif arg.index < depth and owners[depth - 1 - arg.index] is not None:
                        found.add(id(owners[depth - 1 - arg.index]))
            elif cls is core.Var:
                if t.index < depth and owners[depth - 1 - t.index] is not None:
                    found.add(id(owners[depth - 1 - t.index]))
                break
            else:
                for name, off in t.SUB:
                    stack.append((getattr(t, name), depth, off))
                break
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
        if cls is core.Pi or cls is core.Sigma:
            # A right-nested chain of one former is printed in a loop.  Fresh
            # names come in the order that printing by recursion gave them: a
            # dependent binder's domain after everything to its right.
            pi = cls is core.Pi
            parts, pending = [], []
            while t.__class__ is cls:
                dom, cod = (t.dom, t.cod) if pi else (t.fst, t.snd)
                if id(t) in self.dependent:
                    x = self.fresh_name()
                    pending.append((len(parts), x, dom, names))
                    parts.append(None)
                    names += (x,)
                else:
                    parts.append(self.show(dom, names, SIGMA if pi else APP))
                    names += ("_",)
                t = cod
            parts.append(self.show(t, names, TERM if pi else SIGMA))
            for i, x, dom, outer in reversed(pending):
                parts[i] = f"({x} : {self.show(dom, outer, TERM)})"
            return _wrap((" -> " if pi else " × ").join(parts), prec > (TERM if pi else SIGMA))
        if cls is core.Lam:
            # A chain of lambdas is printed in a loop, as it is checked.
            out = []
            while t.__class__ is core.Lam:
                x = self.fresh_name()
                out.append(f"\\{x}. ")
                names, t = names + (x,), t.body
            out.append(self.show(t, names, TERM))
            return _wrap("".join(out), prec > TERM)
        if cls is core.App:
            # An application chain is printed in a loop, head first.
            args = []
            while t.__class__ is core.App:
                args.append(t.arg)
                t = t.fn
            out = [self.show(t, names, APP)]
            for arg in reversed(args):
                out.append(self.show(arg, names, ATOM))
            return _wrap(" ".join(out), prec > APP)
        if cls is core.Pair:
            # Right-nested pairs are printed in a loop.
            out = []
            while t.__class__ is core.Pair:
                out.append(f"({self.show(t.fst, names, TERM)} , ")
                t = t.snd
            return "".join(out) + self.show(t, names, TERM) + ")" * len(out)
        if cls is core.Suc:
            # A numeral is printed in a loop, as the elaborator checks it.
            count = 0
            while t.__class__ is core.Suc:
                t, count = t.pred, count + 1
            out = "suc (" * (count - 1) + f"suc {self.show(t, names, ATOM)}" + ")" * (count - 1)
            return _wrap(out, prec > APP)
        # Any other built-in: its keyword, then its fields in ``SUB`` order,
        # a field under k binders as a k-argument lambda.
        kw = SPELLING.get((cls, None)) or SPELLING[cls, t.layer]
        parts = [kw]
        for field, arity in cls.SUB:
            if arity:
                parts.append(self._binder(getattr(t, field), names, arity))
            else:
                parts.append(self.show(getattr(t, field), names, ATOM))
        return _wrap(" ".join(parts), prec > APP) if cls.SUB else kw

    def _binder(self, body: Term, names: tuple[str, ...], arity: int) -> str:
        bound = tuple(self.fresh_name() for _ in range(arity))
        inner = self.show(body, names + bound, TERM)
        return f"(\\{' '.join(bound)}. {inner})"


def pretty(t: Term, sig: Optional[Signature] = None,
           names: tuple[str, ...] = ()) -> str:
    """Render a core term as surface syntax, avoiding capture of
    signature-level names."""
    avoid = set(sig.entries) if sig is not None else set()
    avoid.update(names)
    return _CorePrinter(avoid, _dependent_binders(t)).show(t, names, TERM)
