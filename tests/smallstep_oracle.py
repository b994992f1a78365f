"""Independent normalization oracle: a naive substitution-based,
leftmost-outermost small-step reducer over core terms.

This deliberately avoids the evaluator's environments, closures and
values; it reduces syntax by rewriting, with its own shifting and
substitution, so agreement with the NbE path is meaningful evidence.
Definitions unfold as a reduction step, matching the kernel's
always-unfold contract.
"""

from __future__ import annotations

from typing import Optional

from tt2.core import (
    App, Const, Fst, InternalError, Inl, Inr, J, Lam, NatElim, Node, Pair,
    Refl, Signature, Snd, Suc, SumElim, Term, Var, Zero,
)


def replace(node: Node, **changes) -> Node:
    """A copy of ``node`` with the named fields changed."""
    for name in node.__match_args__:
        changes.setdefault(name, getattr(node, name))
    return node.__class__(**changes)


def app(fn: Term, *args: Term) -> Term:
    """``fn`` applied to ``args`` in the kernel's spine form: an ``App``
    head's arguments come first, and no arguments leave ``fn`` as it is."""
    if not args:
        return fn
    if fn.__class__ is App:
        return App(fn.fn, fn.args + args)
    return App(fn, args)


def children(t: Term) -> list[tuple[Term, int]]:
    """Each immediate subterm of ``t`` and the binders it sits under: an
    ``App``'s head, then its arguments."""
    if t.__class__ is App:
        return [(t.fn, 0)] + [(arg, 0) for arg in t.args]
    return [(getattr(t, name), off) for name, off in t.SUB]


def _map_subterms(t: Term, f) -> Term:
    """Rebuild ``t`` with f(subterm, extra_binders) applied to each subterm."""
    if t.__class__ is App:
        return app(f(t.fn, 0), *[f(arg, 0) for arg in t.args])
    if not t.SUB:
        return t
    changes = {name: f(getattr(t, name), off) for name, off in t.SUB}
    return replace(t, **changes)


def shift(t: Term, cutoff: int = 0, amount: int = 1) -> Term:
    """Move free indices >= cutoff by amount; bound structure unchanged."""
    if t.__class__ is Var:
        if t.index >= cutoff:
            moved = t.index + amount
            if moved < 0:
                raise InternalError(f"shift underflow: Var({t.index}) by {amount}")
            return Var(moved)
        return t
    return _map_subterms(t, lambda sub, off: shift(sub, cutoff + off, amount))


def subst(t: Term, index: int, s: Term) -> Term:
    """Capture-avoiding substitution of s for Var(index); indices above drop."""
    if t.__class__ is Var:
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


def step(sig: Signature, t: Term) -> Optional[Term]:
    """One leftmost-outermost reduction step, or None if normal."""
    match t:
        case App(Lam(body), (arg, *rest)):
            return app(subst(body, 0, arg), *rest)
        case Fst(Pair(a, _)):
            return a
        case Snd(Pair(_, b)):
            return b
        case J(_, _, base, _, _, Refl(_, _, _)):
            return base
        case NatElim(_, _, zcase, _, Zero(_)):
            return zcase
        case NatElim(layer, motive, zcase, scase, Suc(_, pred)):
            rec = NatElim(layer, motive, zcase, scase, pred)
            return instantiate2(scase, pred, rec)
        case SumElim(_, _, lcase, _, Inl(_, arg)):
            return subst(lcase, 0, arg)
        case SumElim(_, _, _, rcase, Inr(_, arg)):
            return subst(rcase, 0, arg)
        case Const(name):
            entry = sig.lookup(name)
            if entry is not None and entry.body is not None:
                return entry.body
            return None
    if t.__class__ is App:
        parts = (t.fn, *t.args)
        for i, sub in enumerate(parts):
            reduced = step(sig, sub)
            if reduced is not None:
                return app(*parts[:i], reduced, *parts[i + 1:])
        return None
    for field_name, _ in t.SUB:
        sub = getattr(t, field_name)
        reduced = step(sig, sub)
        if reduced is not None:
            return replace(t, **{field_name: reduced})
    return None


def normalize(sig: Signature, t: Term, fuel: int = 200_000) -> Term:
    """Reduce to normal form; well-typed input terminates long before the
    fuel runs out."""
    for _ in range(fuel):
        reduced = step(sig, t)
        if reduced is None:
            return t
        t = reduced
    raise RuntimeError("oracle ran out of fuel; input is likely ill-typed")
