"""Normalization by evaluation: semantic values, evaluation, read-back,
and definitional equality.

Evaluation unfolds every defined constant, so only variables, postulates
and axioms survive as neutral heads; observable behaviour is that of an
always-unfolding kernel.  A neutral value is a head and a spine of
eliminations and carries no type: eliminating a neutral only extends its
spine.  Conversion is type-directed at the top (needed for the unit eta
rule) and falls back to untyped structural comparison inside neutral
spines; when eta inside spines needs the spine's types, they are to be
recomputed on demand from the head's type (a variable's from the context,
a constant's from the signature).

Two rules keep the walkers cheap:

- Values are immutable and shared.  Nothing changes a value after it is
  built, and environments hand out a variable's value by reference, so
  the two sides of a comparison are often one object.  Conversion is
  reflexive on every value form, so ``a is b`` implies convertible and the
  conversions return at once.
- Walkers dispatch on the exact class of the node (``cls is VPi``), with
  the most frequent classes first, and cost one Python frame per nesting
  level.  That holds for ``evaluate``, ``quote`` and the conversions here
  and for ``infer`` and ``check`` in ``elab``; a second frame per level
  (a table of per-class functions, say) would halve the nesting depth
  that fits under the recursion limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from . import core
from .core import (
    App, Const, Context, Empty, EmptyElim, Fst, Id, InternalError, J,
    Lam, Layer, Nat, NatElim, Pair, Pi, Refl, Signature, Snd, Sort,
    Star, Suc, Sum, SumElim, Inl, Inr, Term, Unit, Univ, Var, Zero,
)


@dataclass(slots=True)
class Closure:
    """A core body (binding one or two variables) paired with its
    captured environment."""

    env: tuple["Value", ...]
    body: Term
    arity: int = 1

    def apply(self, sig: Signature, *args: "Value") -> "Value":
        if len(args) != self.arity:
            raise InternalError(f"closure arity {self.arity}, got {len(args)} args")
        return evaluate(sig, self.env + args, self.body)


@dataclass(slots=True)
class Value:
    pass


@dataclass(slots=True)
class VUniv(Value):
    sort: Sort


@dataclass(slots=True)
class VPi(Value):
    dom: Value
    cod: Closure


@dataclass(slots=True)
class VLam(Value):
    body: Closure


@dataclass(slots=True)
class VSigma(Value):
    fst: Value
    snd: Closure


@dataclass(slots=True)
class VPair(Value):
    fst: Value
    snd: Value


@dataclass(slots=True)
class VUnit(Value):
    pass


@dataclass(slots=True)
class VStar(Value):
    pass


@dataclass(slots=True)
class VId(Value):
    layer: Layer
    ty: Value
    lhs: Value
    rhs: Value


@dataclass(slots=True)
class VRefl(Value):
    layer: Layer
    ty: Value
    arg: Value


@dataclass(slots=True)
class VNat(Value):
    layer: Layer


@dataclass(slots=True)
class VZero(Value):
    layer: Layer


@dataclass(slots=True)
class VSuc(Value):
    layer: Layer
    pred: Value


@dataclass(slots=True)
class VSum(Value):
    layer: Layer
    left: Value
    right: Value


@dataclass(slots=True)
class VInl(Value):
    layer: Layer
    arg: Value


@dataclass(slots=True)
class VInr(Value):
    layer: Layer
    arg: Value


@dataclass(slots=True)
class VEmpty(Value):
    layer: Layer


@dataclass(frozen=True, slots=True)
class VarHead:
    level: int


@dataclass(frozen=True, slots=True)
class ConstHead:
    name: str


Head = Union[VarHead, ConstHead]


@dataclass(slots=True)
class FApp:
    arg: Value


@dataclass(slots=True)
class FFst:
    pass


@dataclass(slots=True)
class FSnd:
    pass


@dataclass(slots=True)
class FNatElim:
    layer: Layer
    motive: Closure
    zcase: Value
    scase: Closure


@dataclass(slots=True)
class FSumElim:
    layer: Layer
    motive: Closure
    lcase: Closure
    rcase: Closure


@dataclass(slots=True)
class FEmptyElim:
    layer: Layer
    motive: Closure


@dataclass(slots=True)
class FJ:
    layer: Layer
    motive: Closure
    base: Value
    lhs: Value
    rhs: Value


Frame = Union[FApp, FFst, FSnd, FNatElim, FSumElim, FEmptyElim, FJ]


@dataclass(slots=True)
class VNeutral(Value):
    head: Head
    spine: tuple[Frame, ...]


def fresh(level: int) -> VNeutral:
    return VNeutral(VarHead(level), ())


# ---------------------------------------------------------------------------
# Evaluation


def const_type_value(sig: Signature, name: str) -> Value:
    cached = sig.type_values.get(name)
    if cached is None:
        entry = sig.lookup(name)
        if entry is None:
            raise InternalError(f"unknown constant {name!r}")
        cached = evaluate(sig, (), entry.ty)
        sig.type_values[name] = cached
    return cached


def apply_value(sig: Signature, fn: Value, arg: Value) -> Value:
    cls = fn.__class__
    if cls is VNeutral:
        return VNeutral(fn.head, fn.spine + (FApp(arg),))
    if cls is VLam:
        return fn.body.apply(sig, arg)
    raise InternalError(f"application of non-function value {cls.__name__}")


def do_fst(sig: Signature, v: Value) -> Value:
    cls = v.__class__
    if cls is VPair:
        return v.fst
    if cls is VNeutral:
        return VNeutral(v.head, v.spine + (FFst(),))
    raise InternalError("fst of non-pair value")


def do_snd(sig: Signature, v: Value) -> Value:
    cls = v.__class__
    if cls is VPair:
        return v.snd
    if cls is VNeutral:
        return VNeutral(v.head, v.spine + (FSnd(),))
    raise InternalError("snd of non-pair value")


def do_natelim(sig, layer, motive: Closure, zcase: Value, scase: Closure, scrut: Value) -> Value:
    cls = scrut.__class__
    if cls is VZero:
        return zcase
    if cls is VSuc:
        rec = do_natelim(sig, layer, motive, zcase, scase, scrut.pred)
        return scase.apply(sig, scrut.pred, rec)
    if cls is VNeutral:
        return VNeutral(scrut.head, scrut.spine + (FNatElim(layer, motive, zcase, scase),))
    raise InternalError("natural-number eliminator on non-numeral value")


def do_sumelim(sig, layer, motive: Closure, lcase: Closure, rcase: Closure, scrut: Value) -> Value:
    cls = scrut.__class__
    if cls is VInl:
        return lcase.apply(sig, scrut.arg)
    if cls is VInr:
        return rcase.apply(sig, scrut.arg)
    if cls is VNeutral:
        return VNeutral(scrut.head, scrut.spine + (FSumElim(layer, motive, lcase, rcase),))
    raise InternalError("sum eliminator on non-injection value")


def do_emptyelim(sig, layer, motive: Closure, scrut: Value) -> Value:
    if scrut.__class__ is VNeutral:
        return VNeutral(scrut.head, scrut.spine + (FEmptyElim(layer, motive),))
    raise InternalError("empty eliminator on a closed value")


def do_j(sig, layer, motive: Closure, base: Value, lhs: Value, rhs: Value, proof: Value) -> Value:
    cls = proof.__class__
    if cls is VRefl:
        return base
    if cls is VNeutral:
        return VNeutral(proof.head, proof.spine + (FJ(layer, motive, base, lhs, rhs),))
    raise InternalError("equality eliminator on non-refl value")


def evaluate(sig: Signature, env: tuple[Value, ...], t: Term) -> Value:
    cls = t.__class__
    if cls is Var:
        try:
            return env[~t.index]
        except IndexError:
            raise InternalError(
                f"unbound index {t.index} in environment of {len(env)}"
            ) from None
    if cls is App:
        fn = evaluate(sig, env, t.fn)
        arg = evaluate(sig, env, t.arg)
        if fn.__class__ is VNeutral:
            # apply_value's first case, inlined: most applications are stuck
            return VNeutral(fn.head, fn.spine + (FApp(arg),))
        return apply_value(sig, fn, arg)
    if cls is Pi:
        return VPi(evaluate(sig, env, t.dom), Closure(env, t.cod))
    if cls is Const:
        # A postulate's value is its bare neutral; caching it too lets every
        # occurrence share one object.
        name = t.name
        cached = sig.body_values.get(name)
        if cached is None:
            entry = sig.lookup(name)
            if entry is None:
                raise InternalError(f"unknown constant {name!r}")
            if entry.body is None:
                cached = VNeutral(ConstHead(name), ())
            else:
                cached = evaluate(sig, (), entry.body)
            sig.body_values[name] = cached
        return cached
    if cls is Lam:
        return VLam(Closure(env, t.body))
    if cls is core.Sigma:
        return VSigma(evaluate(sig, env, t.fst), Closure(env, t.snd))
    if cls is Univ:
        return VUniv(t.sort)
    if cls is Snd:
        return do_snd(sig, evaluate(sig, env, t.pair))
    if cls is Id:
        return VId(
            t.layer, evaluate(sig, env, t.ty),
            evaluate(sig, env, t.lhs), evaluate(sig, env, t.rhs),
        )
    if cls is Pair:
        return VPair(evaluate(sig, env, t.fst), evaluate(sig, env, t.snd))
    if cls is Refl:
        return VRefl(t.layer, evaluate(sig, env, t.ty), evaluate(sig, env, t.arg))
    if cls is Fst:
        return do_fst(sig, evaluate(sig, env, t.pair))
    if cls is Nat:
        return VNat(t.layer)
    if cls is Suc:
        return VSuc(t.layer, evaluate(sig, env, t.pred))
    if cls is Zero:
        return VZero(t.layer)
    if cls is NatElim:
        return do_natelim(
            sig, t.layer, Closure(env, t.motive),
            evaluate(sig, env, t.zcase), Closure(env, t.scase, 2),
            evaluate(sig, env, t.scrut),
        )
    if cls is J:
        return do_j(
            sig, t.layer, Closure(env, t.motive, 2),
            evaluate(sig, env, t.base), evaluate(sig, env, t.lhs),
            evaluate(sig, env, t.rhs), evaluate(sig, env, t.proof),
        )
    if cls is Unit:
        return VUnit()
    if cls is Star:
        return VStar()
    if cls is Sum:
        return VSum(t.layer, evaluate(sig, env, t.left), evaluate(sig, env, t.right))
    if cls is Inl:
        return VInl(t.layer, evaluate(sig, env, t.arg))
    if cls is Inr:
        return VInr(t.layer, evaluate(sig, env, t.arg))
    if cls is SumElim:
        return do_sumelim(
            sig, t.layer, Closure(env, t.motive),
            Closure(env, t.lcase), Closure(env, t.rcase),
            evaluate(sig, env, t.scrut),
        )
    if cls is Empty:
        return VEmpty(t.layer)
    if cls is EmptyElim:
        return do_emptyelim(sig, t.layer, Closure(env, t.motive), evaluate(sig, env, t.scrut))
    raise InternalError(f"evaluate: unhandled term {cls.__name__}")


# ---------------------------------------------------------------------------
# Read-back


def quote_closure(sig: Signature, depth: int, cl: Closure) -> Term:
    args = tuple(fresh(depth + i) for i in range(cl.arity))
    return quote(sig, depth + cl.arity, cl.apply(sig, *args))


def quote(sig: Signature, depth: int, v: Value) -> Term:
    cls = v.__class__
    if cls is VNeutral:
        head = v.head
        if head.__class__ is VarHead:
            if head.level >= depth:
                raise InternalError(f"variable level {head.level} escapes depth {depth}")
            acc: Term = Var(depth - 1 - head.level)
        else:
            acc = Const(head.name)
        for frame in v.spine:
            acc = _quote_frame(sig, depth, acc, frame)
        return acc
    if cls is VPi:
        return Pi(quote(sig, depth, v.dom), quote_closure(sig, depth, v.cod))
    if cls is VLam:
        return Lam(quote_closure(sig, depth, v.body))
    if cls is VUniv:
        return Univ(v.sort)
    if cls is VSigma:
        return core.Sigma(quote(sig, depth, v.fst), quote_closure(sig, depth, v.snd))
    if cls is VPair:
        return Pair(quote(sig, depth, v.fst), quote(sig, depth, v.snd))
    if cls is VSuc:
        return Suc(v.layer, quote(sig, depth, v.pred))
    if cls is VZero:
        return Zero(v.layer)
    if cls is VNat:
        return Nat(v.layer)
    if cls is VId:
        return Id(
            v.layer, quote(sig, depth, v.ty),
            quote(sig, depth, v.lhs), quote(sig, depth, v.rhs),
        )
    if cls is VRefl:
        return Refl(v.layer, quote(sig, depth, v.ty), quote(sig, depth, v.arg))
    if cls is VUnit:
        return Unit()
    if cls is VStar:
        return Star()
    if cls is VSum:
        return Sum(v.layer, quote(sig, depth, v.left), quote(sig, depth, v.right))
    if cls is VInl:
        return Inl(v.layer, quote(sig, depth, v.arg))
    if cls is VInr:
        return Inr(v.layer, quote(sig, depth, v.arg))
    if cls is VEmpty:
        return Empty(v.layer)
    raise InternalError(f"quote: unhandled value {cls.__name__}")


def _quote_frame(sig: Signature, depth: int, acc: Term, frame: Frame) -> Term:
    cls = frame.__class__
    if cls is FApp:
        return App(acc, quote(sig, depth, frame.arg))
    if cls is FSnd:
        return Snd(acc)
    if cls is FFst:
        return Fst(acc)
    if cls is FNatElim:
        return NatElim(
            frame.layer, quote_closure(sig, depth, frame.motive),
            quote(sig, depth, frame.zcase), quote_closure(sig, depth, frame.scase), acc,
        )
    if cls is FJ:
        return J(
            frame.layer, quote_closure(sig, depth, frame.motive),
            quote(sig, depth, frame.base), quote(sig, depth, frame.lhs),
            quote(sig, depth, frame.rhs), acc,
        )
    if cls is FSumElim:
        return SumElim(
            frame.layer, quote_closure(sig, depth, frame.motive),
            quote_closure(sig, depth, frame.lcase), quote_closure(sig, depth, frame.rcase),
            acc,
        )
    if cls is FEmptyElim:
        return EmptyElim(frame.layer, quote_closure(sig, depth, frame.motive), acc)
    raise InternalError(f"quote: unhandled frame {cls.__name__}")


def nf(sig: Signature, ctx: Context, t: Term) -> Term:
    """Beta-delta normal form of a well-typed term in the given telescope."""
    env = tuple(fresh(i) for i in range(len(ctx)))
    return quote(sig, len(ctx), evaluate(sig, env, t))


# ---------------------------------------------------------------------------
# Conversion


def convert(sig: Signature, depth: int, a: Value, b: Value, ty: Value) -> bool:
    """Type-directed definitional equality of two values of type ``ty``."""
    if a is b:
        return True
    cls = ty.__class__
    if cls is VPi:
        var = fresh(depth)
        return convert(
            sig, depth + 1,
            apply_value(sig, a, var), apply_value(sig, b, var),
            ty.cod.apply(sig, var),
        )
    if cls is VUniv:
        return convert_type(sig, depth, a, b)
    if cls is VSigma:
        fa = do_fst(sig, a)
        if not convert(sig, depth, fa, do_fst(sig, b), ty.fst):
            return False
        return convert(sig, depth, do_snd(sig, a), do_snd(sig, b), ty.snd.apply(sig, fa))
    if cls is VId:
        if a.__class__ is VRefl and b.__class__ is VRefl:
            return True
        return _convert_neutral_pair(sig, depth, a, b)
    if cls is VUnit:
        return True
    if cls is VSum:
        ca = a.__class__
        if ca is b.__class__ and (ca is VInl or ca is VInr):
            return convert(sig, depth, a.arg, b.arg, ty.left if ca is VInl else ty.right)
        return _convert_neutral_pair(sig, depth, a, b)
    if cls is VEmpty:
        return _convert_neutral_pair(sig, depth, a, b)
    # neutral types and naturals
    return _convert_untyped(sig, depth, a, b)


def convert_type(sig: Signature, depth: int, a: Value, b: Value) -> bool:
    """Definitional equality of two type values (no subsorting here)."""
    if a is b:
        return True
    cls = a.__class__
    if cls is not b.__class__:
        return False
    if cls is VNeutral:
        return _convert_spine(sig, depth, a, b)
    if cls is VPi:
        if not convert_type(sig, depth, a.dom, b.dom):
            return False
        var = fresh(depth)
        return convert_type(sig, depth + 1, a.cod.apply(sig, var), b.cod.apply(sig, var))
    if cls is VSigma:
        if not convert_type(sig, depth, a.fst, b.fst):
            return False
        var = fresh(depth)
        return convert_type(sig, depth + 1, a.snd.apply(sig, var), b.snd.apply(sig, var))
    if cls is VId:
        return (
            a.layer is b.layer
            and convert_type(sig, depth, a.ty, b.ty)
            and convert(sig, depth, a.lhs, b.lhs, a.ty)
            and convert(sig, depth, a.rhs, b.rhs, a.ty)
        )
    if cls is VUniv:
        return a.sort == b.sort
    if cls is VNat or cls is VEmpty:
        return a.layer is b.layer
    if cls is VUnit:
        return True
    if cls is VSum:
        return (
            a.layer is b.layer
            and convert_type(sig, depth, a.left, b.left)
            and convert_type(sig, depth, a.right, b.right)
        )
    return False


def _convert_neutral_pair(sig, depth, a, b) -> bool:
    if a.__class__ is VNeutral and b.__class__ is VNeutral:
        return _convert_spine(sig, depth, a, b)
    return False


def _convert_spine(sig: Signature, depth: int, a: VNeutral, b: VNeutral) -> bool:
    if (a.head is not b.head and a.head != b.head) or len(a.spine) != len(b.spine):
        return False
    for fa, fb in zip(a.spine, b.spine):
        if fa is fb:
            continue
        cls = fa.__class__
        if cls is not fb.__class__:
            return False
        if cls is FApp:
            if fa.arg is not fb.arg and not _convert_untyped(sig, depth, fa.arg, fb.arg):
                return False
        elif cls is FFst or cls is FSnd:
            pass
        elif cls is FNatElim:
            if (
                fa.layer is not fb.layer
                or not _convert_closures(sig, depth, fa.motive, fb.motive)
                or not _convert_untyped(sig, depth, fa.zcase, fb.zcase)
                or not _convert_closures(sig, depth, fa.scase, fb.scase)
            ):
                return False
        elif cls is FJ:
            if (
                fa.layer is not fb.layer
                or not _convert_closures(sig, depth, fa.motive, fb.motive)
                or not _convert_untyped(sig, depth, fa.base, fb.base)
                or not _convert_untyped(sig, depth, fa.lhs, fb.lhs)
                or not _convert_untyped(sig, depth, fa.rhs, fb.rhs)
            ):
                return False
        elif cls is FSumElim:
            if (
                fa.layer is not fb.layer
                or not _convert_closures(sig, depth, fa.motive, fb.motive)
                or not _convert_closures(sig, depth, fa.lcase, fb.lcase)
                or not _convert_closures(sig, depth, fa.rcase, fb.rcase)
            ):
                return False
        elif cls is FEmptyElim:
            if fa.layer is not fb.layer or not _convert_closures(sig, depth, fa.motive, fb.motive):
                return False
    return True


def _convert_closures(sig: Signature, depth: int, c1: Closure, c2: Closure) -> bool:
    if c1.arity != c2.arity:
        return False
    args = tuple(fresh(depth + i) for i in range(c1.arity))
    return _convert_untyped(
        sig, depth + c1.arity, c1.apply(sig, *args), c2.apply(sig, *args)
    )


def _convert_untyped(sig: Signature, depth: int, a: Value, b: Value) -> bool:
    """Structural comparison used inside spines, where no type directs the
    comparison; eta for functions and pairs still applies."""
    if a is b:
        return True
    ca, cb = a.__class__, b.__class__
    if ca is VNeutral and cb is VNeutral:
        return _convert_spine(sig, depth, a, b)
    if ca is VLam or cb is VLam:
        if (ca is not VLam and ca is not VNeutral) or (cb is not VLam and cb is not VNeutral):
            return False
        var = fresh(depth)
        return _convert_untyped(
            sig, depth + 1, apply_value(sig, a, var), apply_value(sig, b, var)
        )
    if ca is VPair or cb is VPair:
        if (ca is not VPair and ca is not VNeutral) or (cb is not VPair and cb is not VNeutral):
            return False
        return _convert_untyped(
            sig, depth, do_fst(sig, a), do_fst(sig, b)
        ) and _convert_untyped(sig, depth, do_snd(sig, a), do_snd(sig, b))
    if ca is not cb:
        return False
    if ca is VStar:
        return True
    if ca is VZero:
        return a.layer is b.layer
    if ca is VSuc:
        return a.layer is b.layer and _convert_untyped(sig, depth, a.pred, b.pred)
    if ca is VInl or ca is VInr:
        return a.layer is b.layer and _convert_untyped(sig, depth, a.arg, b.arg)
    if ca is VRefl:
        return (
            a.layer is b.layer
            and _convert_untyped(sig, depth, a.ty, b.ty)
            and _convert_untyped(sig, depth, a.arg, b.arg)
        )
    # what remains are type values of one class
    return convert_type(sig, depth, a, b)
