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


@dataclass
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


@dataclass
class Value:
    pass


@dataclass
class VUniv(Value):
    sort: Sort


@dataclass
class VPi(Value):
    dom: Value
    cod: Closure


@dataclass
class VLam(Value):
    body: Closure


@dataclass
class VSigma(Value):
    fst: Value
    snd: Closure


@dataclass
class VPair(Value):
    fst: Value
    snd: Value


@dataclass
class VUnit(Value):
    pass


@dataclass
class VStar(Value):
    pass


@dataclass
class VId(Value):
    layer: Layer
    ty: Value
    lhs: Value
    rhs: Value


@dataclass
class VRefl(Value):
    layer: Layer
    ty: Value
    arg: Value


@dataclass
class VNat(Value):
    layer: Layer


@dataclass
class VZero(Value):
    layer: Layer


@dataclass
class VSuc(Value):
    layer: Layer
    pred: Value


@dataclass
class VSum(Value):
    layer: Layer
    left: Value
    right: Value


@dataclass
class VInl(Value):
    layer: Layer
    arg: Value


@dataclass
class VInr(Value):
    layer: Layer
    arg: Value


@dataclass
class VEmpty(Value):
    layer: Layer


@dataclass(frozen=True)
class VarHead:
    level: int


@dataclass(frozen=True)
class ConstHead:
    name: str


Head = Union[VarHead, ConstHead]


@dataclass
class FApp:
    arg: Value


@dataclass
class FFst:
    pass


@dataclass
class FSnd:
    pass


@dataclass
class FNatElim:
    layer: Layer
    motive: Closure
    zcase: Value
    scase: Closure


@dataclass
class FSumElim:
    layer: Layer
    motive: Closure
    lcase: Closure
    rcase: Closure


@dataclass
class FEmptyElim:
    layer: Layer
    motive: Closure


@dataclass
class FJ:
    layer: Layer
    motive: Closure
    base: Value
    lhs: Value
    rhs: Value


Frame = Union[FApp, FFst, FSnd, FNatElim, FSumElim, FEmptyElim, FJ]


@dataclass
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
    if isinstance(fn, VLam):
        return fn.body.apply(sig, arg)
    if isinstance(fn, VNeutral):
        return VNeutral(fn.head, fn.spine + (FApp(arg),))
    raise InternalError(f"application of non-function value {type(fn).__name__}")


def do_fst(sig: Signature, v: Value) -> Value:
    if isinstance(v, VPair):
        return v.fst
    if isinstance(v, VNeutral):
        return VNeutral(v.head, v.spine + (FFst(),))
    raise InternalError("fst of non-pair value")


def do_snd(sig: Signature, v: Value) -> Value:
    if isinstance(v, VPair):
        return v.snd
    if isinstance(v, VNeutral):
        return VNeutral(v.head, v.spine + (FSnd(),))
    raise InternalError("snd of non-pair value")


def do_natelim(sig, layer, motive: Closure, zcase: Value, scase: Closure, scrut: Value) -> Value:
    if isinstance(scrut, VZero):
        return zcase
    if isinstance(scrut, VSuc):
        rec = do_natelim(sig, layer, motive, zcase, scase, scrut.pred)
        return scase.apply(sig, scrut.pred, rec)
    if isinstance(scrut, VNeutral):
        return VNeutral(scrut.head, scrut.spine + (FNatElim(layer, motive, zcase, scase),))
    raise InternalError("natural-number eliminator on non-numeral value")


def do_sumelim(sig, layer, motive: Closure, lcase: Closure, rcase: Closure, scrut: Value) -> Value:
    if isinstance(scrut, VInl):
        return lcase.apply(sig, scrut.arg)
    if isinstance(scrut, VInr):
        return rcase.apply(sig, scrut.arg)
    if isinstance(scrut, VNeutral):
        return VNeutral(scrut.head, scrut.spine + (FSumElim(layer, motive, lcase, rcase),))
    raise InternalError("sum eliminator on non-injection value")


def do_emptyelim(sig, layer, motive: Closure, scrut: Value) -> Value:
    if isinstance(scrut, VNeutral):
        return VNeutral(scrut.head, scrut.spine + (FEmptyElim(layer, motive),))
    raise InternalError("empty eliminator on a closed value")


def do_j(sig, layer, motive: Closure, base: Value, lhs: Value, rhs: Value, proof: Value) -> Value:
    if isinstance(proof, VRefl):
        return base
    if isinstance(proof, VNeutral):
        return VNeutral(proof.head, proof.spine + (FJ(layer, motive, base, lhs, rhs),))
    raise InternalError("equality eliminator on non-refl value")


def evaluate(sig: Signature, env: tuple[Value, ...], t: Term) -> Value:
    match t:
        case Var(index):
            if index >= len(env):
                raise InternalError(f"unbound index {index} in environment of {len(env)}")
            return env[len(env) - 1 - index]
        case Const(name):
            entry = sig.lookup(name)
            if entry is None:
                raise InternalError(f"unknown constant {name!r}")
            if entry.body is None:
                return VNeutral(ConstHead(name), ())
            cached = sig.body_values.get(name)
            if cached is None:
                cached = evaluate(sig, (), entry.body)
                sig.body_values[name] = cached
            return cached
        case Univ(sort):
            return VUniv(sort)
        case Pi(dom, cod):
            return VPi(evaluate(sig, env, dom), Closure(env, cod))
        case Lam(body):
            return VLam(Closure(env, body))
        case App(fn, arg):
            return apply_value(sig, evaluate(sig, env, fn), evaluate(sig, env, arg))
        case core.Sigma(fst, snd):
            return VSigma(evaluate(sig, env, fst), Closure(env, snd))
        case Pair(fst, snd):
            return VPair(evaluate(sig, env, fst), evaluate(sig, env, snd))
        case Fst(pair):
            return do_fst(sig, evaluate(sig, env, pair))
        case Snd(pair):
            return do_snd(sig, evaluate(sig, env, pair))
        case Unit():
            return VUnit()
        case Star():
            return VStar()
        case Id(layer, ty, lhs, rhs):
            return VId(layer, evaluate(sig, env, ty), evaluate(sig, env, lhs), evaluate(sig, env, rhs))
        case Refl(layer, ty, arg):
            return VRefl(layer, evaluate(sig, env, ty), evaluate(sig, env, arg))
        case J(layer, motive, base, lhs, rhs, proof):
            return do_j(
                sig, layer, Closure(env, motive, 2),
                evaluate(sig, env, base), evaluate(sig, env, lhs),
                evaluate(sig, env, rhs), evaluate(sig, env, proof),
            )
        case Nat(layer):
            return VNat(layer)
        case Zero(layer):
            return VZero(layer)
        case Suc(layer, pred):
            return VSuc(layer, evaluate(sig, env, pred))
        case NatElim(layer, motive, zcase, scase, scrut):
            return do_natelim(
                sig, layer, Closure(env, motive),
                evaluate(sig, env, zcase), Closure(env, scase, 2),
                evaluate(sig, env, scrut),
            )
        case Sum(layer, left, right):
            return VSum(layer, evaluate(sig, env, left), evaluate(sig, env, right))
        case Inl(layer, arg):
            return VInl(layer, evaluate(sig, env, arg))
        case Inr(layer, arg):
            return VInr(layer, evaluate(sig, env, arg))
        case SumElim(layer, motive, lcase, rcase, scrut):
            return do_sumelim(
                sig, layer, Closure(env, motive),
                Closure(env, lcase), Closure(env, rcase),
                evaluate(sig, env, scrut),
            )
        case Empty(layer):
            return VEmpty(layer)
        case EmptyElim(layer, motive, scrut):
            return do_emptyelim(sig, layer, Closure(env, motive), evaluate(sig, env, scrut))
    raise InternalError(f"evaluate: unhandled term {type(t).__name__}")


# ---------------------------------------------------------------------------
# Read-back


def quote_closure(sig: Signature, depth: int, cl: Closure) -> Term:
    args = tuple(fresh(depth + i) for i in range(cl.arity))
    return quote(sig, depth + cl.arity, cl.apply(sig, *args))


def quote(sig: Signature, depth: int, v: Value) -> Term:
    match v:
        case VUniv(sort):
            return Univ(sort)
        case VPi(dom, cod):
            return Pi(quote(sig, depth, dom), quote_closure(sig, depth, cod))
        case VLam(body):
            return Lam(quote_closure(sig, depth, body))
        case VSigma(fst, snd):
            return core.Sigma(quote(sig, depth, fst), quote_closure(sig, depth, snd))
        case VPair(fst, snd):
            return Pair(quote(sig, depth, fst), quote(sig, depth, snd))
        case VUnit():
            return Unit()
        case VStar():
            return Star()
        case VId(layer, ty, lhs, rhs):
            return Id(layer, quote(sig, depth, ty), quote(sig, depth, lhs), quote(sig, depth, rhs))
        case VRefl(layer, ty, arg):
            return Refl(layer, quote(sig, depth, ty), quote(sig, depth, arg))
        case VNat(layer):
            return Nat(layer)
        case VZero(layer):
            return Zero(layer)
        case VSuc(layer, pred):
            return Suc(layer, quote(sig, depth, pred))
        case VSum(layer, left, right):
            return Sum(layer, quote(sig, depth, left), quote(sig, depth, right))
        case VInl(layer, arg):
            return Inl(layer, quote(sig, depth, arg))
        case VInr(layer, arg):
            return Inr(layer, quote(sig, depth, arg))
        case VEmpty(layer):
            return Empty(layer)
        case VNeutral(head, spine):
            if isinstance(head, VarHead):
                if head.level >= depth:
                    raise InternalError(f"variable level {head.level} escapes depth {depth}")
                acc: Term = Var(depth - 1 - head.level)
            else:
                acc = Const(head.name)
            for frame in spine:
                acc = _quote_frame(sig, depth, acc, frame)
            return acc
    raise InternalError(f"quote: unhandled value {type(v).__name__}")


def _quote_frame(sig: Signature, depth: int, acc: Term, frame: Frame) -> Term:
    match frame:
        case FApp(arg):
            return App(acc, quote(sig, depth, arg))
        case FFst():
            return Fst(acc)
        case FSnd():
            return Snd(acc)
        case FNatElim(layer, motive, zcase, scase):
            return NatElim(
                layer, quote_closure(sig, depth, motive),
                quote(sig, depth, zcase), quote_closure(sig, depth, scase), acc,
            )
        case FSumElim(layer, motive, lcase, rcase):
            return SumElim(
                layer, quote_closure(sig, depth, motive),
                quote_closure(sig, depth, lcase), quote_closure(sig, depth, rcase), acc,
            )
        case FEmptyElim(layer, motive):
            return EmptyElim(layer, quote_closure(sig, depth, motive), acc)
        case FJ(layer, motive, base, lhs, rhs):
            return J(
                layer, quote_closure(sig, depth, motive), quote(sig, depth, base),
                quote(sig, depth, lhs), quote(sig, depth, rhs), acc,
            )
    raise InternalError(f"quote: unhandled frame {type(frame).__name__}")


def nf(sig: Signature, ctx: Context, t: Term) -> Term:
    """Beta-delta normal form of a well-typed term in the given telescope."""
    env = tuple(fresh(i) for i in range(len(ctx)))
    return quote(sig, len(ctx), evaluate(sig, env, t))


# ---------------------------------------------------------------------------
# Conversion


def convert(sig: Signature, depth: int, a: Value, b: Value, ty: Value) -> bool:
    """Type-directed definitional equality of two values of type ``ty``."""
    match ty:
        case VPi(dom, cod):
            var = fresh(depth)
            return convert(
                sig, depth + 1,
                apply_value(sig, a, var), apply_value(sig, b, var),
                cod.apply(sig, var),
            )
        case VSigma(fst_ty, snd_ty):
            fa = do_fst(sig, a)
            if not convert(sig, depth, fa, do_fst(sig, b), fst_ty):
                return False
            return convert(
                sig, depth, do_snd(sig, a), do_snd(sig, b), snd_ty.apply(sig, fa)
            )
        case VUnit():
            return True
        case VUniv(_):
            return convert_type(sig, depth, a, b)
        case VId(_, _, _, _):
            if isinstance(a, VRefl) and isinstance(b, VRefl):
                return True
            return _convert_neutral_pair(sig, depth, a, b)
        case VNat(_):
            return _convert_untyped(sig, depth, a, b)
        case VSum(_, left, right):
            if isinstance(a, VInl) and isinstance(b, VInl):
                return convert(sig, depth, a.arg, b.arg, left)
            if isinstance(a, VInr) and isinstance(b, VInr):
                return convert(sig, depth, a.arg, b.arg, right)
            return _convert_neutral_pair(sig, depth, a, b)
        case VEmpty(_):
            return _convert_neutral_pair(sig, depth, a, b)
    return _convert_untyped(sig, depth, a, b)


def convert_type(sig: Signature, depth: int, a: Value, b: Value) -> bool:
    """Definitional equality of two type values (no subsorting here)."""
    match (a, b):
        case (VUniv(s1), VUniv(s2)):
            return s1 == s2
        case (VPi(d1, c1), VPi(d2, c2)) | (VSigma(d1, c1), VSigma(d2, c2)):
            if type(a) is not type(b) or not convert_type(sig, depth, d1, d2):
                return False
            var = fresh(depth)
            return convert_type(sig, depth + 1, c1.apply(sig, var), c2.apply(sig, var))
        case (VUnit(), VUnit()):
            return True
        case (VId(l1, t1, a1, b1), VId(l2, t2, a2, b2)):
            return (
                l1 is l2
                and convert_type(sig, depth, t1, t2)
                and convert(sig, depth, a1, a2, t1)
                and convert(sig, depth, b1, b2, t1)
            )
        case (VNat(l1), VNat(l2)) | (VEmpty(l1), VEmpty(l2)):
            return type(a) is type(b) and l1 is l2
        case (VSum(l1, x1, y1), VSum(l2, x2, y2)):
            return (
                l1 is l2
                and convert_type(sig, depth, x1, x2)
                and convert_type(sig, depth, y1, y2)
            )
        case (VNeutral(), VNeutral()):
            return _convert_spine(sig, depth, a, b)
    return False


def _convert_neutral_pair(sig, depth, a, b) -> bool:
    if isinstance(a, VNeutral) and isinstance(b, VNeutral):
        return _convert_spine(sig, depth, a, b)
    return False


def _convert_spine(sig: Signature, depth: int, a: VNeutral, b: VNeutral) -> bool:
    if a.head != b.head or len(a.spine) != len(b.spine):
        return False
    for fa, fb in zip(a.spine, b.spine):
        if type(fa) is not type(fb):
            return False
        match (fa, fb):
            case (FApp(x), FApp(y)):
                if not _convert_untyped(sig, depth, x, y):
                    return False
            case (FFst(), FFst()) | (FSnd(), FSnd()):
                pass
            case (FNatElim(l1, m1, z1, s1), FNatElim(l2, m2, z2, s2)):
                if l1 is not l2:
                    return False
                if not _convert_closures(sig, depth, m1, m2):
                    return False
                if not _convert_untyped(sig, depth, z1, z2):
                    return False
                if not _convert_closures(sig, depth, s1, s2):
                    return False
            case (FSumElim(l1, m1, lc1, rc1), FSumElim(l2, m2, lc2, rc2)):
                if l1 is not l2:
                    return False
                for c1, c2 in ((m1, m2), (lc1, lc2), (rc1, rc2)):
                    if not _convert_closures(sig, depth, c1, c2):
                        return False
            case (FEmptyElim(l1, m1), FEmptyElim(l2, m2)):
                if l1 is not l2 or not _convert_closures(sig, depth, m1, m2):
                    return False
            case (FJ(l1, m1, d1, a1, b1), FJ(l2, m2, d2, a2, b2)):
                if l1 is not l2 or not _convert_closures(sig, depth, m1, m2):
                    return False
                for x, y in ((d1, d2), (a1, a2), (b1, b2)):
                    if not _convert_untyped(sig, depth, x, y):
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
    if isinstance(a, VLam) or isinstance(b, VLam):
        if not isinstance(a, (VLam, VNeutral)) or not isinstance(b, (VLam, VNeutral)):
            return False
        var = fresh(depth)
        return _convert_untyped(
            sig, depth + 1, apply_value(sig, a, var), apply_value(sig, b, var)
        )
    if isinstance(a, VPair) or isinstance(b, VPair):
        if not isinstance(a, (VPair, VNeutral)) or not isinstance(b, (VPair, VNeutral)):
            return False
        return _convert_untyped(
            sig, depth, do_fst(sig, a), do_fst(sig, b)
        ) and _convert_untyped(sig, depth, do_snd(sig, a), do_snd(sig, b))
    match (a, b):
        case (VStar(), VStar()):
            return True
        case (VZero(l1), VZero(l2)):
            return l1 is l2
        case (VSuc(l1, p1), VSuc(l2, p2)):
            return l1 is l2 and _convert_untyped(sig, depth, p1, p2)
        case (VInl(l1, x1), VInl(l2, x2)) | (VInr(l1, x1), VInr(l2, x2)):
            return type(a) is type(b) and l1 is l2 and _convert_untyped(sig, depth, x1, x2)
        case (VRefl(l1, t1, x1), VRefl(l2, t2, x2)):
            return (
                l1 is l2
                and _convert_untyped(sig, depth, t1, t2)
                and _convert_untyped(sig, depth, x1, x2)
            )
        case (VNeutral(), VNeutral()):
            return _convert_spine(sig, depth, a, b)
    if _is_type_value(a) and _is_type_value(b):
        return convert_type(sig, depth, a, b)
    return False


def _is_type_value(v: Value) -> bool:
    return isinstance(v, (VUniv, VPi, VSigma, VUnit, VId, VNat, VSum, VEmpty))
