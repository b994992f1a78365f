"""Seeded generator of random well-typed closed core terms.

Terms are built type-directed, mixing canonical inhabitants with redexes
(beta, projections, recursor steps on numerals, case splits on injections,
J on refl) so that normalization has real work to do.  All types in play
are closed and non-dependent, which keeps generation simple while still
exercising every reduction rule.
"""

from __future__ import annotations

import random

from smallstep_oracle import app, children, shift
from tt2.core import (
    App, FIB, Fst, Inl, Inr, J, Lam, Layer, Nat, NatElim, Pair, Pi, Refl, Sigma,
    Snd, Sort, Star, STRICT, Suc, Sum, SumElim, Term, Unit, Var, Zero,
)


def term_size(t: Term) -> int:
    size = 0
    stack = [t]
    while stack:
        t = stack.pop()
        # an application counts one node per argument, as nested binary
        # applications would
        size += len(t.args) if t.__class__ is App else 1
        stack.extend(sub for sub, _ in children(t))
    return size


def _gen_type(rng: random.Random, depth: int) -> Term:
    """A closed type; sums at the fibrant layer keep fibrant summands."""
    if depth <= 0:
        return rng.choice([Unit(), Nat(FIB), Nat(STRICT)])
    roll = rng.random()
    if roll < 0.45:
        return rng.choice([Unit(), Nat(FIB), Nat(STRICT)])
    if roll < 0.6:
        layer = rng.choice([FIB, STRICT])
        if layer is FIB:
            fibrant = [Unit(), Nat(FIB)]
            return Sum(FIB, rng.choice(fibrant), rng.choice(fibrant))
        return Sum(STRICT, _gen_type(rng, depth - 1), _gen_type(rng, depth - 1))
    if roll < 0.8:
        # closed second component: the binder is unused
        return Sigma(_gen_type(rng, depth - 1), shift(_gen_type(rng, depth - 1)))
    return Pi(_gen_type(rng, depth - 1), shift(_gen_type(rng, depth - 1)))


class TermGen:
    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def sample(self, max_size: int = 30) -> tuple[Term, Term]:
        """One (closed term, closed type) pair within the size bound."""
        while True:
            ty = _gen_type(self.rng, 2)
            term = self._term(ty, (), budget=max_size - 4)
            if term_size(term) <= max_size:
                return term, ty

    # env is a tuple of closed types for in-scope variables, innermost last
    def _term(self, ty: Term, env: tuple[Term, ...], budget: int) -> Term:
        rng = self.rng
        usable = [i for i, t in enumerate(reversed(env)) if t == ty]
        if usable and rng.random() < 0.35:
            return Var(rng.choice(usable))
        if budget > 6 and rng.random() < 0.45:
            return self._redex(ty, env, budget)
        return self._canonical(ty, env, budget)

    def _canonical(self, ty: Term, env: tuple[Term, ...], budget: int) -> Term:
        rng = self.rng
        match ty:
            case Unit():
                return Star()
            case Nat(layer):
                out: Term = Zero(layer)
                for _ in range(rng.randint(0, min(4, max(1, budget // 2)))):
                    out = Suc(layer, out)
                return out
            case Sum(layer, left, right):
                if rng.random() < 0.5:
                    return Inl(layer, self._term(left, env, budget - 1))
                return Inr(layer, self._term(right, env, budget - 1))
            case Sigma(fst, snd):
                a = self._term(fst, env, budget // 2)
                return Pair(a, self._term(shift(snd, 0, -1), env, budget // 2))
            case Pi(dom, cod):
                body = self._term(shift(cod, 0, -1), env + (dom,), budget - 1)
                return Lam(body)
        raise AssertionError(f"no canonical inhabitant for {ty}")

    def _redex(self, ty: Term, env: tuple[Term, ...], budget: int) -> Term:
        rng = self.rng
        kind = rng.randrange(5)
        if kind == 0:
            dom = _gen_type(rng, 1)
            body = self._term(ty, env + (dom,), budget // 2)
            return app(Lam(body), self._term(dom, env, budget // 2))
        if kind == 1:
            other = _gen_type(rng, 1)
            a = self._term(ty, env, budget // 2)
            b = self._term(other, env, budget // 3)
            if rng.random() < 0.5:
                return Fst(Pair(a, b))
            return Snd(Pair(b, a))
        if kind == 2:
            layer = rng.choice([FIB, STRICT])
            motive = shift(ty)
            zcase = self._term(ty, env, budget // 2)
            if rng.random() < 0.7:
                scase: Term = Var(0)  # return the induction hypothesis
            else:
                scase = shift(self._term(ty, env, budget // 3), 0, 2)
            scrut: Term = Zero(layer)
            for _ in range(rng.randint(0, 3)):
                scrut = Suc(layer, scrut)
            return NatElim(layer, motive, zcase, scase, scrut)
        if kind == 3:
            layer = rng.choice([FIB, STRICT])
            comp = Unit() if layer is FIB else _gen_type(rng, 1)
            motive = shift(ty)
            lcase = shift(self._term(ty, env, budget // 2))
            rcase = shift(self._term(ty, env, budget // 2))
            arg = self._term(comp, env, budget // 4)
            scrut = Inl(layer, arg) if rng.random() < 0.5 else Inr(layer, arg)
            return SumElim(layer, motive, lcase, rcase, scrut)
        eq_ty = Unit() if rng.random() < 0.5 else Nat(FIB)
        point = self._term(eq_ty, env, budget // 4)
        motive = shift(shift(ty))
        base = self._term(ty, env, budget // 2)
        return J(FIB, motive, base, point, point, Refl(FIB, eq_ty, point))


# ---------------------------------------------------------------------------
# Pairs of inhabitants that differ up to eta


def eta_instance(rng: random.Random) -> tuple[Term, Term, Term]:
    """A closed type ``T`` over ``Unit``, ``Nat``, Σ and Π, and two closed
    inhabitants of ``T``.

    Under its binders each inhabitant holds neutral terms: variables
    eliminated by application, projections and ``natelim``.  The two
    inhabitants follow one shape but draw independently where eta makes
    the choice invisible: ``star`` or a neutral of type ``Unit``, a neutral
    or its eta-expansion.  So they are often equal only up to eta, at any
    position, spine arguments and eliminator cases included.  Numerals
    draw independently now and then, which makes some pairs unequal.
    """
    ty = _eta_type(rng, 3)
    t, u = _eta_pair(rng, ty, (), 4)
    return ty, t, u


def _eta_type(rng: random.Random, depth: int) -> Term:
    """A closed non-dependent type, so a codomain or second component
    needs no shifting under its binder (nor does a ``natelim`` motive)."""
    roll = rng.random()
    if depth <= 0 or roll < 0.4:
        return rng.choice([Unit(), Nat(FIB)])
    if roll < 0.7:
        return Pi(_eta_type(rng, depth - 1), _eta_type(rng, depth - 1))
    return Sigma(_eta_type(rng, depth - 1), _eta_type(rng, depth - 1))


def _eta_pair(rng, ty: Term, env: tuple[Term, ...], fuel: int) -> tuple[Term, Term]:
    """Two inhabitants of the closed type ``ty`` under variables of the
    closed types ``env`` (innermost last)."""
    if fuel > 0 and env and rng.random() < 0.4:
        index = rng.randrange(len(env))
        pair = _eliminate(rng, Var(index), Var(index), env[~index], ty, env, fuel - 1)
        if pair is not None:
            return _eta_expand(rng, pair[0], ty), _eta_expand(rng, pair[1], ty)
    if isinstance(ty, Unit):
        return _unit(rng, env, fuel), _unit(rng, env, fuel)
    if isinstance(ty, Nat):
        t = _numeral(rng)
        return t, (_numeral(rng) if rng.random() < 0.15 else t)
    if isinstance(ty, Sigma):
        a, b = _eta_pair(rng, ty.fst, env, fuel - 1)
        c, d = _eta_pair(rng, ty.snd, env, fuel - 1)
        return Pair(a, c), Pair(b, d)
    a, b = _eta_pair(rng, ty.cod, env + (ty.dom,), fuel - 1)
    return Lam(a), Lam(b)


def _unit(rng, env: tuple[Term, ...], fuel: int) -> Term:
    if fuel > 0 and env and rng.random() < 0.7:
        index = rng.randrange(len(env))
        pair = _eliminate(rng, Var(index), Var(index), env[~index], Unit(), env, fuel - 1)
        if pair is not None:
            return pair[0]
    return Star()


def _numeral(rng) -> Term:
    out: Term = Zero(FIB)
    for _ in range(rng.randrange(2)):
        out = Suc(FIB, out)
    return out


def _eliminate(rng, t: Term, u: Term, have: Term, want: Term, env, fuel: int):
    """Eliminate the neutrals ``t`` and ``u`` of type ``have`` down to type
    ``want``, or None if no elimination reaches it."""
    if have == want and rng.random() < 0.7:
        return t, u
    if isinstance(have, Nat):
        z1, z2 = _eta_pair(rng, want, env, fuel - 1)
        s1, s2 = _eta_pair(rng, want, env + (Nat(FIB), want), fuel - 1)
        return NatElim(FIB, want, z1, s1, t), NatElim(FIB, want, z2, s2, u)
    if isinstance(have, Pi) and fuel > 0:
        a, b = _eta_pair(rng, have.dom, env, fuel - 1)
        return _eliminate(rng, app(t, a), app(u, b), have.cod, want, env, fuel - 1)
    if isinstance(have, Sigma):
        if rng.random() < 0.5:
            return _eliminate(rng, Fst(t), Fst(u), have.fst, want, env, fuel)
        return _eliminate(rng, Snd(t), Snd(u), have.snd, want, env, fuel)
    return (t, u) if have == want else None


def _eta_expand(rng, t: Term, ty: Term) -> Term:
    """``t`` or, at random, an eta-expansion of it at ``ty``."""
    if rng.random() < 0.5:
        return t
    if isinstance(ty, Unit):
        return Star()
    if isinstance(ty, Sigma):
        return Pair(_eta_expand(rng, Fst(t), ty.fst), _eta_expand(rng, Snd(t), ty.snd))
    if isinstance(ty, Pi):
        return Lam(_eta_expand(rng, app(shift(t), Var(0)), ty.cod))
    return t


# ---------------------------------------------------------------------------
# One open term of each former


def open_instance(term_cls: type, layer: Layer, offset: int = 0) -> Term:
    """A term of the core class ``term_cls`` whose i-th field, if it is a
    term, is the beta-redex ``(\\x. x) v`` of the free variable ``v`` of
    index ``i + offset`` outside the term (so it needs ``i + offset + 1``
    binders in scope).  A ``layer`` field gets ``layer``, and a ``sort``
    field the lowest universe of that layer.

    These cover the formers that ``TermGen`` never draws (``Univ``,
    ``Id``, ``Empty``, ``EmptyElim``), and an eliminator's scrutinee is
    neutral, so its frame is read back.  ``TermGen.sample`` is left as
    it is: seeded runs replay its draws."""
    binders = dict(term_cls.SUB)
    fields = {}
    for i, name in enumerate(term_cls.__match_args__):
        if name == "layer":
            fields[name] = layer
        elif name == "sort":
            fields[name] = Sort(layer, 0)
        else:
            fields[name] = app(Lam(Var(0)), Var(i + offset + binders[name]))
    if term_cls is App:  # ((\x. x) v) ((\x. x) v'), in spine form
        return app(fields["fn"], fields["args"])
    return term_cls(**fields)
