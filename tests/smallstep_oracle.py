"""Independent normalization oracle: a naive substitution-based,
leftmost-outermost small-step reducer over core terms.

This deliberately avoids the evaluator's environments, closures and
values; it reduces syntax by rewriting, so agreement with the NbE path is
meaningful evidence.  Definitions unfold as a reduction step, matching the
kernel's always-unfold contract.
"""

from __future__ import annotations

from typing import Optional

from tt2.core import (
    App, Const, Fst, Inl, Inr, J, Lam, NatElim, Pair, Refl, Signature, Snd,
    Suc, SumElim, Term, Zero, instantiate2, replace, subst,
)


def step(sig: Signature, t: Term) -> Optional[Term]:
    """One leftmost-outermost reduction step, or None if normal."""
    match t:
        case App(Lam(body), arg):
            return subst(body, 0, arg)
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
