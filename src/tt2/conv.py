"""Normalization by evaluation: semantic values, evaluation, read-back,
and definitional equality.

Evaluation unfolds every defined constant, so only variables, postulates
and axioms survive as neutral heads; observable behaviour is that of an
always-unfolding kernel.  A neutral value is a head and a spine of
eliminations and carries no type: eliminating a neutral only extends its
spine.  Conversion is one function, ``convert``, directed by the type
where the type is known, so eta holds for Π, Σ and ``Unit`` at every
position.  Inside a neutral spine, ``_convert_spine`` compares frames
without types and works out a frame's type from the head's (a variable's
from the context, a constant's from the signature) only when that fails.
Each eliminator's typing rule is written once, in ``case_types``, and
read by conversion, by spine typing and by ``elab``.

Three rules keep the walkers cheap:

- Values are immutable and shared.  Nothing changes a value after it is
  built, and environments hand out a variable's value by reference, so
  the two sides of a comparison are often one object.  Conversion is
  reflexive on every value form, so ``a is b`` implies convertible and
  conversion returns at once.  Leaves are shared, not rebuilt: ``fresh``
  returns one neutral per level, a spine holds an argument's value itself
  with no frame around it, there is one ``FST`` and one ``SND`` frame, read
  back through ``_READ_BACK`` like every other frame, and read-back gives a
  constant head as ``core.const``'s leaf.  The code keeps this rule:
  values, frames and closures are ``Node`` records not declared frozen
  (see ``core``), so building one stores its slots directly, and nothing
  assigns to one after it is built.
- Walkers dispatch on the exact class of the node (``cls is VPi``), with
  the most frequent classes first.  Only hot forms and forms with a rule of
  their own have cases; ``evaluate``, ``quote`` and ``convert`` (on two
  values of one class) then end in one generic case that reads every other
  former from one table, ``FORMERS``.  The width of a construct is walked
  in a loop, so a generated file, wide rather than deep, costs no stack
  however large: an application chain ``f a1 … an`` is one core ``App``
  whose head and arguments ``evaluate`` reads in order into one spine (a
  bound variable, head or argument, from the environment without a call)
  and ``quote`` writes back from each run of a spine's arguments, a
  numeral is evaluated, read back and eliminated in a loop, read-back walks Π/Σ
  telescopes, λ-chains and a spine in loops, and conversion continues into
  a Π codomain, a Σ second component or any other last comparison without
  a call.  In ``elab``, ``infer`` walks application chains and Π/Σ
  telescopes the same way, and so does the core printer in ``pretty``.
  Genuine nesting recurses.  The ``tt2`` script runs the kernel on a
  large stack (``cli``), but a library caller keeps Python's recursion
  limit, and a second frame per nesting level (a table of per-class
  functions, say) would halve the depth that fits under it, so the generic
  cases of ``evaluate`` and ``convert`` are written inline.  ``quote``
  reads the fields of a table row, a former's or an eliminator frame's,
  through ``_quote_fields``, which reads a nested former itself: one frame
  per level, and two where a closure field or a frame goes back to
  ``quote``.
- Compare before evaluating.  ``elab`` checks the arguments of an
  application against the function's Π-telescope as a term, under an
  environment it extends with each argument's value, and evaluates the
  rest of the telescope once, where the chain ends.  A domain is only
  evaluated when ``evaluates_to`` cannot show, without building a value,
  that it is the type of an argument written as a bound variable: the
  same variable or postulate head applied to the same argument objects.
  On such a hit the argument is taken as its variable, with no check
  against the domain (``Elaborator._conform`` is not called).
"""

from __future__ import annotations

from typing import Optional, Union

from . import core
from .core import (
    App, Const, Context, Empty, EmptyElim, Fst, Id, InternalError, J,
    Lam, Nat, NatElim, Node, Pair, Pi, Refl, Sigma, Signature, Snd, Star,
    Suc, Sum, SumElim, Inl, Inr, Term, Unit, Univ, Var, Zero, var,
)


class Closure(Node):
    """A core body (binding one or two variables) paired with its
    captured environment."""

    env: tuple["Value", ...]
    body: Term
    arity: int = 1

    def apply(self, sig: Signature, *args: "Value") -> "Value":
        if len(args) != self.arity:
            raise InternalError(f"closure arity {self.arity}, got {len(args)} args")
        return evaluate(sig, self.env + args, self.body)


class Value(Node):
    pass


# Each value class has the fields of the core former it is a value of, and
# each eliminator frame those of its eliminator but the last, the scrutinee
# (``fields=``, see ``core``).
class VUniv(Value, fields=Univ.__match_args__): pass
class VPi(Value, fields=Pi.__match_args__): pass
class VLam(Value, fields=Lam.__match_args__): pass
class VSigma(Value, fields=Sigma.__match_args__): pass
class VPair(Value, fields=Pair.__match_args__): pass
class VUnit(Value, fields=Unit.__match_args__): pass
class VStar(Value, fields=Star.__match_args__): pass
class VId(Value, fields=Id.__match_args__): pass
class VRefl(Value, fields=Refl.__match_args__): pass
class VNat(Value, fields=Nat.__match_args__): pass
class VZero(Value, fields=Zero.__match_args__): pass
class VSuc(Value, fields=Suc.__match_args__): pass
class VSum(Value, fields=Sum.__match_args__): pass
class VInl(Value, fields=Inl.__match_args__): pass
class VInr(Value, fields=Inr.__match_args__): pass
class VEmpty(Value, fields=Empty.__match_args__): pass
class FFst(Node, fields=Fst.__match_args__[:-1]): pass
class FSnd(Node, fields=Snd.__match_args__[:-1]): pass
class FNatElim(Node, fields=NatElim.__match_args__[:-1]): pass
class FSumElim(Node, fields=SumElim.__match_args__[:-1]): pass
class FEmptyElim(Node, fields=EmptyElim.__match_args__[:-1]): pass
class FJ(Node, fields=J.__match_args__[:-1]): pass


FST, SND = FFst(), FSnd()  # the only instances; see the module docstring


Frame = Union[FFst, FSnd, FNatElim, FSumElim, FEmptyElim, FJ]
# A spine entry is a frame or, for an application, the argument's value.
FRAMES = frozenset(Frame.__args__)


class VNeutral(Value):
    head: Union[int, str]  # a bound variable's level, or a postulate's or axiom's name
    spine: tuple[Union[Value, Frame], ...]


# The type of each variable in scope, by level; None where it is not known.
Types = tuple[Optional[Value], ...]


# The variable of a level as a value, one shared neutral per level.
fresh = core.SharedLeaves(lambda level: VNeutral(level, ())).__getitem__


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
        return VNeutral(fn.head, fn.spine + (arg,))
    if cls is VLam:
        return fn.body.apply(sig, arg)
    raise InternalError(f"application of non-function value {cls.__name__}")


def do_fst(sig: Signature, v: Value) -> Value:
    cls = v.__class__
    if cls is VPair:
        return v.fst
    if cls is VNeutral:
        return VNeutral(v.head, v.spine + (FST,))
    raise InternalError("fst of non-pair value")


def do_snd(sig: Signature, v: Value) -> Value:
    cls = v.__class__
    if cls is VPair:
        return v.snd
    if cls is VNeutral:
        return VNeutral(v.head, v.spine + (SND,))
    raise InternalError("snd of non-pair value")


def do_natelim(sig, layer, motive: Closure, zcase: Value, scase: Closure, scrut: Value) -> Value:
    # A numeral is eliminated in a loop, up from its innermost predecessor.
    preds = []
    while scrut.__class__ is VSuc:
        preds.append(scrut.pred)
        scrut = scrut.pred
    cls = scrut.__class__
    if cls is VZero:
        acc = zcase
    elif cls is VNeutral:
        acc = VNeutral(scrut.head, scrut.spine + (FNatElim(layer, motive, zcase, scase),))
    else:
        raise InternalError("natural-number eliminator on non-numeral value")
    for pred in reversed(preds):
        acc = scase.apply(sig, pred, acc)
    return acc


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


# Each core former with no rule of its own maps to its value class, and each
# eliminator to the frame it leaves on a neutral scrutinee and to its rule.
# A row's fields, in order, are its core class's, since the value and frame
# classes above take them from it (a frame's end before the scrutinee, the
# last field), and so are the binders each sits under (None: no term).
FORMERS = {
    Univ: (VUniv, None), Id: (VId, None), Refl: (VRefl, None), Nat: (VNat, None),
    Zero: (VZero, None), Suc: (VSuc, None), Unit: (VUnit, None), Star: (VStar, None),
    Sum: (VSum, None), Inl: (VInl, None), Inr: (VInr, None), Empty: (VEmpty, None),
    NatElim: (FNatElim, do_natelim), J: (FJ, do_j),
    SumElim: (FSumElim, do_sumelim), EmptyElim: (FEmptyElim, do_emptyelim),
}
# The rows by core class for evaluation, and by value or frame class for
# read-back and conversion; a projection frame's row has no fields.
_FIELDS = {t: tuple((f, dict(t.SUB).get(f)) for f in t.__match_args__) for t in FORMERS}
_EVALUATE = {t: (rule or built, rule is not None, _FIELDS[t]) for t, (built, rule) in FORMERS.items()}
_READ_BACK = {built: (t, _FIELDS[t][:-1] if rule else _FIELDS[t]) for t, (built, rule) in FORMERS.items()}
_READ_BACK[FFst], _READ_BACK[FSnd] = (Fst, ()), (Snd, ())


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
        # The head once, then the arguments left to right.  A stuck head
        # takes every remaining argument into its spine at once, instead of
        # copying the spine once per argument.  A bound variable as head or
        # argument is read from env without a call; an unbound one goes to
        # the Var case above, which reports it.
        fn, depth = t.fn, len(env)
        fn = env[~fn.index] if fn.__class__ is Var and fn.index < depth else evaluate(sig, env, fn)
        frames = []
        for arg in t.args:
            if arg.__class__ is Var and arg.index < depth:
                arg = env[~arg.index]
            else:
                arg = evaluate(sig, env, arg)
            if fn.__class__ is VNeutral:
                frames.append(arg)
            else:
                fn = apply_value(sig, fn, arg)
        if frames:
            return VNeutral(fn.head, fn.spine + tuple(frames))
        return fn
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
                cached = VNeutral(name, ())
            else:
                cached = evaluate(sig, (), entry.body)
                sig.read_backs.setdefault(id(cached), (cached,))
            sig.body_values[name] = cached
        return cached
    if cls is Lam:
        return VLam(Closure(env, t.body))
    if cls is core.Sigma:
        return VSigma(evaluate(sig, env, t.fst), Closure(env, t.snd))
    if cls is Snd:
        return do_snd(sig, evaluate(sig, env, t.pair))
    if cls is Pair:
        return VPair(evaluate(sig, env, t.fst), evaluate(sig, env, t.snd))
    if cls is Fst:
        return do_fst(sig, evaluate(sig, env, t.pair))
    if cls is Suc:
        # A numeral is walked in a loop.
        layer, count = t.layer, 0
        while t.__class__ is Suc and t.layer is layer:
            t, count = t.pred, count + 1
        v = evaluate(sig, env, t)
        for _ in range(count):
            v = VSuc(layer, v)
        return v
    row = _EVALUATE.get(cls)
    if row is None:
        raise InternalError(f"evaluate: unhandled term {cls.__name__}")
    build, takes_sig, fields = row
    args = [sig] if takes_sig else []
    for name, binders in fields:
        x = getattr(t, name)
        args.append(x if binders is None else Closure(env, x, binders) if binders
                    else evaluate(sig, env, x))
    return build(*args)


def evaluates_to(sig: Signature, env: list[Value], t: Term, v: Value) -> bool:
    """Whether ``evaluate(sig, tuple(env), t)`` would be a neutral with the
    head of ``v`` and the very argument objects of its spine, found without
    building a value.

    It holds only where ``t`` is an application chain of bound variables,
    possibly with no arguments, whose head is a bound variable holding a
    spineless neutral or a constant with no body.  False says only that
    this cheap test does not apply, and the caller then evaluates ``t``.
    True implies that ``v`` converts with the value of ``t``, since
    ``convert`` finds two neutrals with equal heads and identical spine
    entries equal.  An environment holds values, never frames, so the
    entry that is an argument's very value is that application's.

    The constant rule, ``head == t.name`` for a constant with no body (a
    level never equals a name), assumes that a postulate or an axiom
    evaluates to the bare neutral of its own name.  Values that keep a
    defined constant as a head, with its unfolding beside it, break that
    assumption: under them a defined head would need its own rule."""
    if v.__class__ is not VNeutral:
        return False
    spine = v.spine
    depth = len(env)
    if t.__class__ is App:
        if len(t.args) != len(spine):
            return False
        for arg, entry in zip(t.args, spine):
            if arg.__class__ is not Var or arg.index >= depth or entry is not env[~arg.index]:
                return False
        t = t.fn
    elif spine:
        return False
    cls, head = t.__class__, v.head
    if cls is Var:
        if t.index >= depth:
            return False
        fn = env[~t.index]
        return (fn.__class__ is VNeutral and not fn.spine
                and (fn.head is head or fn.head == head))
    if cls is Const:
        entry = sig.lookup(t.name)
        return head == t.name and entry is not None and entry.body is None
    return False


# ---------------------------------------------------------------------------
# Read-back


def quote(sig: Signature, depth: int, v: Value) -> Term:
    """The term of ``v`` under ``depth`` binders.  A defined constant's
    value is closed, so its read-back is the same at any depth: the frame
    that reads it back keeps it in ``sig.read_backs``, and each later call
    on that value returns it.  An occurrence that a loop below steps into,
    or that ``_quote_fields`` reads back inline, is read back again."""
    memo = sig.read_backs.get(id(v))
    if memo is not None and len(memo) == 2:
        return memo[1]
    cls = v.__class__
    if cls is VNeutral:
        head = v.head
        if head.__class__ is int:
            if head >= depth:
                raise InternalError(f"variable level {head} escapes depth {depth}")
            t: Term = var(depth - 1 - head)
        else:
            t = core.const(head)
        # each run of arguments between frames becomes one App
        args = []
        for arg in v.spine:
            cls = arg.__class__
            if cls in FRAMES:
                if args:
                    t, args = App(t, tuple(args)), []
                former, fields = _READ_BACK[cls]
                # a projection frame has no fields to read back
                t = former(*_quote_fields(sig, depth, arg, fields), t) if fields else former(t)
            # an argument that is a bare bound variable is read back without a call
            elif (cls is VNeutral and not arg.spine
                    and arg.head.__class__ is int and arg.head < depth):
                args.append(var(depth - 1 - arg.head))
            else:
                args.append(quote(sig, depth, arg))
        if args:
            t = App(t, tuple(args))
    elif cls is VPi or cls is VSigma:
        # A right-nested chain of one former is read back in a loop, each
        # codomain instantiated with the next fresh variable.
        pi = cls is VPi
        doms = []
        while v.__class__ is cls:
            doms.append(quote(sig, depth, v.dom if pi else v.fst))
            cl = v.cod if pi else v.snd
            v, depth = evaluate(sig, cl.env + (fresh(depth),), cl.body), depth + 1
        t = quote(sig, depth, v)
        former = Pi if pi else core.Sigma
        for dom in reversed(doms):
            t = former(dom, t)
    elif cls is VLam:
        # A λ-chain is read back in a loop.
        outer = depth
        while v.__class__ is VLam:
            cl = v.body
            v, depth = evaluate(sig, cl.env + (fresh(depth),), cl.body), depth + 1
        t = quote(sig, depth, v)
        for _ in range(depth - outer):
            t = Lam(t)
    elif cls is VPair:
        t = Pair(quote(sig, depth, v.fst), quote(sig, depth, v.snd))
    elif cls is VSuc:
        layer, count = v.layer, 0
        while v.__class__ is VSuc and v.layer is layer:
            v, count = v.pred, count + 1
        t = quote(sig, depth, v)
        for _ in range(count):
            t = Suc(layer, t)
    else:
        row = _READ_BACK.get(cls)
        if row is None:
            raise InternalError(f"quote: unhandled value {cls.__name__}")
        former, fields = row
        t = former(*_quote_fields(sig, depth, v, fields))
    if memo is not None:
        sig.read_backs[id(memo[0])] = (memo[0], t)
    return t


def _quote_fields(sig: Signature, depth: int, x: Union[Value, Frame], fields) -> list:
    """The fields of ``x``, a value or frame with a ``_READ_BACK`` row, read
    back; a closure's body is read back under fresh variables.  A field
    with a row of its own, a numeral aside, is read back here, not through
    ``quote``, so nested formers cost one Python frame per level."""
    args = []
    for name, binders in fields:
        y = getattr(x, name)
        if binders:
            y = quote(sig, depth + binders, y.apply(sig, *map(fresh, range(depth, depth + binders))))
        elif binders is not None:
            row = None if y.__class__ is VSuc else _READ_BACK.get(y.__class__)
            y = row[0](*_quote_fields(sig, depth, y, row[1])) if row else quote(sig, depth, y)
        args.append(y)
    return args


def nf(sig: Signature, ctx: Context, t: Term) -> Term:
    """Beta-delta normal form of a term well typed under the binders of ``ctx``."""
    return quote(sig, len(ctx.env), evaluate(sig, ctx.env, t))


# ---------------------------------------------------------------------------
# Conversion


def convert(sig: Signature, types: Types, a: Value, b: Value, ty: Optional[Value]) -> Optional[bool]:
    """Definitional equality of ``a`` and ``b``, values of the type value
    ``ty``, under variables of the given ``types``.  Where ``ty`` is None
    the values' classes direct the comparison.  None instead of False: they
    differ only where a variable's type was needed and not known.

    The last comparison of each case (a Π codomain, a Σ second component,
    an argument of a former) is the next round of the loop, not a call."""
    while a is not b:
        if ty is not None:
            cls = ty.__class__
            if cls is VPi:
                var = fresh(len(types))
                types, a, b, ty = (types + (ty.dom,), apply_value(sig, a, var),
                                   apply_value(sig, b, var), ty.cod.apply(sig, var))
                continue
            if cls is VSigma:
                fa = do_fst(sig, a)
                ok = convert(sig, types, fa, do_fst(sig, b), ty.fst)
                if not ok:
                    return ok
                a, b, ty = do_snd(sig, a), do_snd(sig, b), ty.snd.apply(sig, fa)
                continue
            if cls is VUnit:
                return True
            if cls is VId:
                if a.__class__ is VRefl and b.__class__ is VRefl:
                    return True
            elif cls is VSum:
                ca = a.__class__
                if ca is b.__class__ and (ca is VInl or ca is VInr):
                    a, b, ty = a.arg, b.arg, ty.left if ca is VInl else ty.right
                    continue
        ca, cb = a.__class__, b.__class__
        if ca is cb:
            if ca is VNeutral:
                return _convert_spine(sig, types, a, b)
            if ca is VPi:
                ok = convert(sig, types, a.dom, b.dom, None)
                if not ok:
                    return ok
                var = fresh(len(types))
                types, a, b, ty = types + (a.dom,), a.cod.apply(sig, var), b.cod.apply(sig, var), None
                continue
            if ca is VSigma:
                ok = convert(sig, types, a.fst, b.fst, None)
                if not ok:
                    return ok
                var = fresh(len(types))
                types, a, b, ty = types + (a.fst,), a.snd.apply(sig, var), b.snd.apply(sig, var), None
                continue
            if ca is VId:
                ok = a.layer is b.layer and convert(sig, types, a.ty, b.ty, None) and convert(
                    sig, types, a.lhs, b.lhs, a.ty)
                if not ok:
                    return ok
                a, b, ty = a.rhs, b.rhs, a.ty
                continue
            row = _READ_BACK.get(ca)
            if row is not None:
                # A layer or a sort first; the last term field is the next round.
                terms = []
                for name, binders in row[1]:
                    x, y = getattr(a, name), getattr(b, name)
                    if binders is not None:
                        terms.append((x, y))
                    elif x is not y and x != y:
                        return False
                if not terms:
                    return True
                for x, y in terms[:-1]:
                    ok = convert(sig, types, x, y, None)
                    if not ok:
                        return ok
                (a, b), ty = terms[-1], None
                continue
        # eta for functions and pairs, a neutral on at most one side
        if (ca is VLam or ca is VNeutral) and (cb is VLam or cb is VNeutral):
            var = fresh(len(types))
            types, a, b, ty = types + (None,), apply_value(sig, a, var), apply_value(sig, b, var), None
            continue
        if (ca is VPair or ca is VNeutral) and (cb is VPair or cb is VNeutral):
            ok = convert(sig, types, do_fst(sig, a), do_fst(sig, b), None)
            if not ok:
                return ok
            a, b, ty = do_snd(sig, a), do_snd(sig, b), None
            continue
        # eta for Unit: both sides have one type, and star makes it Unit
        return ca is VStar or cb is VStar
    return True


def case_types(sig: Signature, former: type, ty: Value, motive: Optional[Closure],
               field: Optional[str], xs: tuple[Value, ...]) -> tuple[Types, Optional[Value]]:
    """The typing rule of the eliminator ``former`` (``J``, ``NatElim``,
    ``SumElim`` or ``EmptyElim``) on a scrutinee of type ``ty``, with
    motive ``motive``: the types of the variables ``xs`` that its field
    ``field`` binds, and the field's type under them, None for the motive,
    a family of types.  Field None is the whole eliminator: it binds the
    scrutinee ``xs[0]`` and has the result type.  J reads its endpoints
    from ``ty``; the endpoints written in it convert with them."""
    layer = ty.layer
    if former is J:
        if field == "motive":
            return (ty.ty, VId(layer, ty.ty, ty.lhs, xs[0])), None
        if field == "base":
            return (), motive.apply(sig, ty.lhs, VRefl(layer, ty.ty, ty.lhs))
        if field is None:
            return (ty,), motive.apply(sig, ty.rhs, xs[0])
        return (), ty.ty  # a stated endpoint
    if field == "motive":
        return (ty,), None
    if field is None:
        return (ty,), motive.apply(sig, xs[0])
    if field == "zcase":
        return (), motive.apply(sig, VZero(layer))
    if field == "scase":
        return (ty, motive.apply(sig, xs[0])), motive.apply(sig, VSuc(layer, xs[0]))
    if field == "lcase":
        return (ty.left,), motive.apply(sig, VInl(layer, xs[0]))
    return (ty.right,), motive.apply(sig, VInr(layer, xs[0]))


def _convert_spine(sig: Signature, types: Types, a: VNeutral, b: VNeutral) -> Optional[bool]:
    """Two neutrals convert when their heads are equal and their frames
    convert one by one, or else when eta makes all values of their type equal.

    A frame is compared without types first, and again at its own type,
    the head's eliminated by the frames before it, only where that failed
    for want of a variable's type.  An argument is compared at the domain,
    and an eliminator's fields in core order, at the types of its rule,
    ``case_types``, under one set of fresh variables per frame; on the
    first pass ``ty`` is None, and so are those types.  For neutrals that
    still differ, two distinct variables of their type convert exactly when
    eta makes its values equal (``Unit``, and Π and Σ into it)."""
    spine = a.spine
    depth = len(types)
    ok = (a.head is b.head or a.head == b.head) and len(spine) == len(b.spine)
    for i in range(len(spine) if ok else 0):
        fa, fb = spine[i], b.spine[i]
        if fa is fb:
            continue
        cls = fa.__class__
        arg = cls not in FRAMES
        if arg:
            if fb.__class__ in FRAMES:
                ok = False
                break
        elif cls is not fb.__class__:
            ok = False
            break
        elif fa.layer is not fb.layer:
            ok = False
            break
        else:
            former, fields = _READ_BACK[cls]
            xs = (fresh(depth), fresh(depth + 1))
        ty = None
        while True:
            if arg:
                ok = convert(sig, types, fa, fb, ty and ty.dom)
            else:
                for name, binders in fields[1:]:  # after the layer, compared above
                    bound = xs[:binders]
                    bound_types, field_ty = (None,) * binders, None
                    if ty is not None:
                        bound_types, field_ty = case_types(sig, former, ty, fa.motive, name, bound)
                    x, y = getattr(fa, name), getattr(fb, name)
                    if binders:
                        x, y = x.apply(sig, *bound), y.apply(sig, *bound)
                    ok = convert(sig, types + bound_types, x, y, field_ty)
                    if not ok:
                        break
            # With a variable of unknown type in scope, the frame whose untyped
            # pass bound it compares again with types, this frame included.
            if ok is not None or ty is not None or None in types:
                break
            ty = _spine_type(sig, types, a, i)
        if not ok:
            break
    if ok:
        return True
    ty = _spine_type(sig, types, a, len(spine))
    if ty.__class__ not in (VUnit, VPi, VSigma):
        return None if ty is None else ok
    return convert(sig, types + (ty, ty), fresh(depth), fresh(depth + 1), ty) or ok


def _spine_type(sig: Signature, types: Types, a: VNeutral, n: int) -> Optional[Value]:
    """The type of ``a``'s head eliminated by the first ``n`` frames of its
    spine, or None if the head is a variable of unknown type."""
    head = a.head
    ty = types[head] if head.__class__ is int else const_type_value(sig, head)
    if ty is None:
        return None
    spine = a.spine
    for i in range(n):
        frame = spine[i]
        cls = frame.__class__
        if cls not in FRAMES:
            ty = ty.cod.apply(sig, frame)
        elif cls is FFst:
            ty = ty.fst
        elif cls is FSnd:
            ty = ty.snd.apply(sig, VNeutral(head, spine[:i] + (FST,)))
        else:
            scrut = VNeutral(head, spine[:i])
            ty = case_types(sig, _READ_BACK[cls][0], ty, frame.motive, None, (scrut,))[1]
    return ty
