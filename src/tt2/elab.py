"""Bidirectional elaboration of raw terms into core.

Inference synthesizes a type value; checking pushes an expected type value
into introduction forms.  Fibrant-to-strict coercion is pure subsumption:
no wrapper node exists, a term checked at a strict sort is the same core
term that was synthesized at a fibrant one.  The fibrancy guards reject
fibrant eliminators whose motive lands in a strict sort; the strict
eliminators are unrestricted, which is what lets strict naturals
large-eliminate into the fibrant universes.
"""

from __future__ import annotations

from typing import Optional

from . import conv, core, parse, pretty
from .conv import (
    Closure, VEmpty, VId, VNat, VPi, VSigma, VSum, VUniv, VUnit, Value, evaluate,
)
from .core import (
    Context, DeclKind, FIB, Layer, Node, SigEntry, Signature, Sort, Term,
    sort_join, sort_leq,
)
from .diagnostics import (
    CANNOT_INFER, DEPTH, Diagnostic, DUPLICATE, FIBRANCY, HOLE, LEVEL,
    NOT_A_TYPE, SORT_MISMATCH, Span, TYPE_MISMATCH, UNBOUND,
)


# The prelude declares a univalence axiom for every universe level but the
# top, one signature entry each, before any file is read; it writes an
# axiom's statement, about 1.1 KB, only when the axiom is first used.
MAX_UNIVERSES = 1000


# The eliminator fields that bind variables, as diagnostics name them.
_BINDING_FIELDS = {"motive": "motive", "scase": "step case",
                   "lcase": "left case", "rcase": "right case"}


class Config(Node, frozen=True):
    universes: int = 3
    collapse_fibrant_universes: bool = False

    def __post_init__(self) -> None:
        if self.universes < 1:
            raise ValueError("at least one universe level is required")
        if self.universes > MAX_UNIVERSES:
            raise ValueError(f"at most {MAX_UNIVERSES} universe levels are supported")


class Elaborator:
    def __init__(self, sig: Signature, config: Config = Config()):
        self.sig = sig
        self.config = config

    # -- helpers ------------------------------------------------------------

    def subsume(self, got: Sort, want: Sort) -> bool:
        return sort_leq(got, want, self.config.collapse_fibrant_universes)

    def join(self, a: Sort, b: Sort) -> Sort:
        return sort_join(a, b, self.config.collapse_fibrant_universes)

    def _show(self, ctx: Context, v: Value) -> str:
        """``v`` as surface syntax under ``ctx``.  A binder that a later one
        of the same name shadows is printed under a name taken neither in
        scope nor in the signature; the innermost keeps its written name."""
        names = [n if n is not None else "_" for n in ctx.names]
        taken = set(names)
        for level, name in enumerate(names):
            if name != "_" and ctx.levels[name] != level:
                k = 1
                while f"{name}{k}" in taken or self.sig.lookup(f"{name}{k}") is not None:
                    k += 1
                names[level] = f"{name}{k}"
                taken.add(names[level])
        return pretty.pretty(conv.quote(self.sig, len(ctx.env), v), self.sig, tuple(names))

    def _universe_sort(self, layer: Layer, level: int, span: Span) -> Sort:
        if not 0 <= level < self.config.universes:
            raise Diagnostic(
                LEVEL, span,
                f"universe level {level} out of range (configured count "
                f"{self.config.universes})",
            )
        return Sort(layer, level)

    def _successor_sort(self, sort: Sort, span: Span) -> Sort:
        if sort.level + 1 >= self.config.universes:
            raise Diagnostic(
                LEVEL, span,
                f"the top universe {sort} has no classifying universe at "
                f"count {self.config.universes}",
            )
        return Sort(sort.layer, sort.level + 1)

    def ensure_type(self, ctx: Context, raw: parse.Raw) -> tuple[Term, Sort]:
        tm, ty = self.infer(ctx, raw)
        if isinstance(ty, VUniv):
            return tm, ty.sort
        raise Diagnostic(
            NOT_A_TYPE, raw.span,
            f"expected a type, but this has type {self._show(ctx, ty)}",
        )

    def _infer_name(self, raw: parse.RVar, hit: Optional[tuple[int, Value]]) -> tuple[Term, Value]:
        """Infer the name ``raw``, given its local binder ``hit`` as
        ``Context.lookup`` found it (None if no binder has that name)."""
        if hit is not None:
            index, ty = hit
            return core.var(index), ty
        name = raw.name
        if self.sig.lookup(name) is not None:
            return core.Const(name), conv.const_type_value(self.sig, name)
        raise Diagnostic(UNBOUND, raw.span, f"unbound name {name!r}")

    def _conform(self, ctx: Context, raw: parse.Raw, term: Term, got: Value, expected: Value) -> Term:
        """``term``, elaborated from ``raw`` with type ``got``, where a term
        of type ``expected`` is wanted: by subsumption of universes, else by
        conversion."""
        if got.__class__ is VUniv and expected.__class__ is VUniv:
            if self.subsume(got.sort, expected.sort):
                return term
            raise Diagnostic(
                SORT_MISMATCH, raw.span,
                f"universe {got.sort} is not contained in {expected.sort}",
            )
        if got is expected or conv.convert(self.sig, ctx.types, got, expected, None):
            return term
        raise Diagnostic(
            TYPE_MISMATCH, raw.span,
            f"expected {self._show(ctx, expected)}, got {self._show(ctx, got)}",
        )

    # -- inference ----------------------------------------------------------

    def infer(self, ctx: Context, raw: parse.Raw) -> tuple[Term, Value]:
        cls = raw.__class__
        if cls is parse.RVar:
            return self._infer_name(raw, ctx.lookup(raw.name))
        if cls is parse.RApp:
            # An application chain f a1 … an: infer the head once, then check
            # the arguments in a loop.  The loop walks a function type's
            # codomain as a term, a Π-telescope under its closure's
            # environment extended by each argument's value, rather than
            # instantiating it binder by binder.  It compares before it
            # evaluates: an argument written as a bound variable is looked up
            # once, and when ``conv.evaluates_to`` finds that the domain term
            # is its type (a variable or postulate head applied to the same
            # argument objects), the domain is never built and the argument
            # is taken as it is, with no conversion.  Otherwise that one
            # domain is evaluated and the argument checked against it.  The
            # rest of the telescope is evaluated once, where the walk ends.
            fn, args = raw.fn, raw.args
            if fn.__class__ is parse.RApp:  # a parenthesised head: (f a) b
                spines = [args]
                while fn.__class__ is parse.RApp:
                    spines.append(fn.args)
                    fn = fn.fn
                args = [arg for spine in reversed(spines) for arg in spine]
            sig = self.sig
            term, ty = self.infer(ctx, fn)
            env = None  # while walking a telescope term: its environment; ty is the term
            for arg in args:
                hit = ctx.lookup(arg.name) if arg.__class__ is parse.RVar else None
                if env is None:
                    if ty.__class__ is not VPi:
                        raise Diagnostic(
                            TYPE_MISMATCH, (fn.span[0], arg.span[1]),
                            f"expected a function, but this has type {self._show(ctx, ty)}",
                        )
                    dom = ty.dom
                elif hit is not None and conv.evaluates_to(sig, env, ty.dom, hit[1]):
                    dom = None  # the variable's type converts with the domain
                else:
                    dom = evaluate(sig, tuple(env), ty.dom)
                if dom is None:
                    arg_core = core.var(hit[0])
                elif arg.__class__ is parse.RVar:
                    arg_core = self._conform(ctx, arg, *self._infer_name(arg, hit), dom)
                else:
                    arg_core = self.check(ctx, arg, dom)
                arg_v = ctx.env[~hit[0]] if hit is not None else evaluate(sig, ctx.env, arg_core)
                term = core.App(term, arg_core)
                if env is None:
                    env, ty = list(ty.cod.env), ty.cod.body
                else:
                    ty = ty.cod
                env.append(arg_v)
                if ty.__class__ is not core.Pi:
                    ty, env = evaluate(sig, tuple(env), ty), None
            if env is not None:
                ty = evaluate(sig, tuple(env), ty)
            return term, ty
        if cls is parse.RPi or cls is parse.RSigma:
            # A right-nested telescope of Π and Σ binders: extend the context
            # binder by binder, then build the term and its sort inside out.
            binders = []
            inner = ctx
            while cls is parse.RPi or cls is parse.RSigma:
                is_pi = cls is parse.RPi
                dom_core, sort = self.ensure_type(inner, raw.dom if is_pi else raw.fst)
                binders.append((is_pi, dom_core, sort))
                dom = evaluate(self.sig, inner.env, dom_core)
                inner = inner.extend(raw.binder, dom, conv.fresh(len(inner.env)))
                raw = raw.cod if is_pi else raw.snd
                cls = raw.__class__
            term, sort = self.ensure_type(inner, raw)
            for is_pi, dom_core, dom_sort in reversed(binders):
                term = core.Pi(dom_core, term) if is_pi else core.Sigma(dom_core, term)
                sort = self.join(dom_sort, sort)
            return term, VUniv(sort)
        if cls is parse.RUniv:
            sort = self._universe_sort(raw.layer, raw.level, raw.span)
            return core.Univ(sort), VUniv(self._successor_sort(sort, raw.span))
        if cls is parse.RBuiltin:
            former = raw.former
            if former is core.Id or former is core.Refl:
                layer = raw.layer
                ty_core, s = self.ensure_type(ctx, raw.args[0])
                if layer is FIB and s.layer is not FIB:
                    raise Diagnostic(
                        SORT_MISMATCH, raw.span,
                        f"fibrant equality requires a fibrant type, got sort {s}",
                    )
                ty_v = evaluate(self.sig, ctx.env, ty_core)
                if former is core.Id:
                    _, lhs, rhs = raw.args
                    lhs_core = self.check(ctx, lhs, ty_v)
                    rhs_core = self.check(ctx, rhs, ty_v)
                    return core.Id(layer, ty_core, lhs_core, rhs_core), VUniv(Sort(layer, s.level))
                arg_core = self.check(ctx, raw.args[1], ty_v)
                arg_v = evaluate(self.sig, ctx.env, arg_core)
                return core.Refl(layer, ty_core, arg_core), VId(layer, ty_v, arg_v, arg_v)
            if former is core.Snd or former is core.Fst:
                pair_core, pair_ty = self.infer(ctx, raw.args[0])
                if pair_ty.__class__ is not VSigma:
                    raise Diagnostic(
                        TYPE_MISMATCH, raw.span,
                        f"expected a pair, but this has type {self._show(ctx, pair_ty)}",
                    )
                if former is core.Fst:
                    return core.Fst(pair_core), pair_ty.fst
                fst_v = conv.do_fst(self.sig, evaluate(self.sig, ctx.env, pair_core))
                return core.Snd(pair_core), pair_ty.snd.apply(self.sig, fst_v)
            if former in (core.J, core.NatElim, core.SumElim, core.EmptyElim):
                return self._infer_eliminator(ctx, raw)
            if former is core.Nat or former is core.Empty:
                return former(raw.layer), VUniv(self._universe_sort(raw.layer, 0, raw.span))
            if former is core.Unit:
                return core.Unit(), VUniv(Sort(FIB, 0))
            if former is core.Star:
                return core.Star(), VUnit()
            if former is core.Sum:
                layer = raw.layer
                left, right = raw.args
                left_core, sl = self.ensure_type(ctx, left)
                right_core, sr = self.ensure_type(ctx, right)
                if layer is FIB and (sl.layer is not FIB or sr.layer is not FIB):
                    bad = sl if sl.layer is not FIB else sr
                    raise Diagnostic(
                        SORT_MISMATCH, raw.span,
                        f"fibrant sums need fibrant summands, got sort {bad}",
                    )
                sort = Sort(layer, max(sl.level, sr.level))
                return core.Sum(layer, left_core, right_core), VUniv(sort)
            if former is core.Zero or former is core.Suc:
                raise Diagnostic(
                    CANNOT_INFER, raw.span,
                    "cannot infer the layer of a bare numeral; check it against "
                    "Nat or NatS",
                )
            if former is core.Inl or former is core.Inr:
                raise Diagnostic(
                    CANNOT_INFER, raw.span,
                    "cannot infer the type of a bare injection",
                )
        if cls is parse.RLam:
            raise Diagnostic(CANNOT_INFER, raw.span, "cannot infer the type of a bare lambda")
        if cls is parse.RPair:
            raise Diagnostic(CANNOT_INFER, raw.span, "cannot infer the type of a bare pair")
        if cls is parse.RHole:
            raise Diagnostic(HOLE, raw.span, "holes are not supported; write the term explicitly")
        raise core.InternalError(f"infer: unhandled raw {cls.__name__}")

    def _infer_eliminator(self, ctx: Context, raw: parse.RBuiltin) -> tuple[Term, Value]:
        """An eliminator, typed by its rule, ``conv.case_types``: first the
        scrutinee, then J's stated endpoints (the proof is taken at the type
        they give), then the motive and the cases in core field order.  A
        motive is exactly as many λs as it binds, its body being a type; a
        case may have more, as it may return a function.  Fibrant
        eliminators may only target fibrant motives, strict ones any."""
        sig, former, layer = self.sig, raw.former, raw.layer
        kw = parse.SPELLING[former, layer]
        args = {name: arg for (name, _), arg in zip(former.SUB, raw.args)}
        scrut = raw.args[-1]
        if former is core.NatElim or former is core.EmptyElim:
            ty = (VNat if former is core.NatElim else VEmpty)(layer)
            scrut_core = self.check(ctx, scrut, ty)
        else:
            scrut_core, ty = self.infer(ctx, scrut)
            want, what = (VId, "a proof of {} equality") if former is core.J else (VSum, "a {} sum")
            if ty.__class__ is not want or ty.layer is not layer:
                raise Diagnostic(
                    TYPE_MISMATCH, scrut.span,
                    f"{kw} expects {what.format('fibrant' if layer is FIB else 'strict')}, "
                    f"but this has type {self._show(ctx, ty)}",
                )
        cores = {}
        if former is core.J:
            ends = []
            for name, side, end in (("lhs", "left", ty.lhs), ("rhs", "right", ty.rhs)):
                cores[name] = self.check(ctx, args[name], ty.ty)
                ends.append(evaluate(sig, ctx.env, cores[name]))
                if not conv.convert(sig, ctx.types, ends[-1], end, ty.ty):
                    raise Diagnostic(
                        TYPE_MISMATCH, args[name].span,
                        f"{kw}: stated {side} endpoint does not match the proof's endpoint",
                    )
            ty = VId(layer, ty.ty, *ends)
        xs = (conv.fresh(len(ctx.env)), conv.fresh(len(ctx.env) + 1))
        motive = None
        for name, binders in former.SUB[:-1]:
            if name in cores:
                continue
            arg = body = args[name]
            for _ in range(binders):
                body = body.body if body.__class__ is parse.RLam else None
            if body is None or name == "motive" and body.__class__ is parse.RLam:
                raise Diagnostic(
                    CANNOT_INFER, arg.span,
                    f"the {_BINDING_FIELDS[name]} of {kw} must be written as a "
                    f"{binders}-argument lambda",
                )
            bound_types, field_ty = conv.case_types(sig, former, ty, motive, name, xs[:binders])
            inner = ctx
            for bound_ty, x in zip(bound_types, xs):
                inner, arg = inner.extend(arg.binder, bound_ty, x), arg.body
            if name != "motive":
                cores[name] = self.check(inner, body, field_ty)
                continue
            cores[name], motive_ty = self.infer(inner, body)
            if motive_ty.__class__ is not VUniv:
                raise Diagnostic(NOT_A_TYPE, body.span, f"the motive of {kw} must produce a type")
            if layer is FIB and motive_ty.sort.layer is not FIB:
                raise Diagnostic(
                    FIBRANCY, args[name].span,
                    f"the fibrant eliminator {kw} cannot target a strict motive "
                    f"(motive lands in {motive_ty.sort})",
                )
            motive = Closure(ctx.env, cores[name], binders)
        scrut_v = evaluate(sig, ctx.env, scrut_core)
        _, result = conv.case_types(sig, former, ty, motive, None, (scrut_v,))
        return former(layer, *(cores[name] for name, _ in former.SUB[:-1]), scrut_core), result

    # -- checking -----------------------------------------------------------

    def check(self, ctx: Context, raw: parse.Raw, expected: Value) -> Term:
        cls = raw.__class__
        if cls is parse.RLam:
            # A chain of lambdas is checked in a loop against the Π telescope.
            count = 0
            while raw.__class__ is parse.RLam:
                if expected.__class__ is not VPi:
                    raise Diagnostic(
                        TYPE_MISMATCH, raw.span,
                        f"lambda checked against non-function type "
                        f"{self._show(ctx, expected)}",
                    )
                ctx = ctx.extend(raw.binder, expected.dom, conv.fresh(len(ctx.env)))
                expected = expected.cod.apply(self.sig, ctx.env[-1])
                raw, count = raw.body, count + 1
            term = self.check(ctx, raw, expected)
            for _ in range(count):
                term = core.Lam(term)
            return term
        if cls is parse.RPair:
            # Right-nested pairs are checked in a loop against the Σ
            # telescope, and the core pairs built from the inside out.
            fsts = []
            while raw.__class__ is parse.RPair:
                if expected.__class__ is not VSigma:
                    raise Diagnostic(
                        TYPE_MISMATCH, raw.span,
                        f"pair checked against non-pair type {self._show(ctx, expected)}",
                    )
                fst_core = self.check(ctx, raw.fst, expected.fst)
                fsts.append(fst_core)
                expected = expected.snd.apply(self.sig, evaluate(self.sig, ctx.env, fst_core))
                raw = raw.snd
            term = self.check(ctx, raw, expected)
            for fst_core in reversed(fsts):
                term = core.Pair(fst_core, term)
            return term
        if cls is parse.RBuiltin:
            former = raw.former
            if former is core.Suc or former is core.Zero:
                if expected.__class__ is not VNat:
                    raise Diagnostic(
                        TYPE_MISMATCH, raw.span,
                        f"numeral checked against {self._show(ctx, expected)}",
                    )
                if former is core.Zero:
                    return core.Zero(expected.layer)
                # Walk a chain of successors in a loop and build the core
                # chain from the inside out, so its length costs no stack.
                count = 0
                while raw.__class__ is parse.RBuiltin and raw.former is core.Suc:
                    raw, count = raw.args[0], count + 1
                term = self.check(ctx, raw, expected)
                for _ in range(count):
                    term = core.Suc(expected.layer, term)
                return term
            if former is core.Inl or former is core.Inr:
                if expected.__class__ is not VSum:
                    raise Diagnostic(
                        TYPE_MISMATCH, raw.span,
                        f"injection checked against {self._show(ctx, expected)}",
                    )
                if former is core.Inl:
                    return core.Inl(expected.layer, self.check(ctx, raw.args[0], expected.left))
                return core.Inr(expected.layer, self.check(ctx, raw.args[0], expected.right))
        if cls is parse.RHole:
            raise Diagnostic(HOLE, raw.span, "holes are not supported; write the term explicitly")
        term, got = self.infer(ctx, raw)
        return self._conform(ctx, raw, term, got, expected)


# ---------------------------------------------------------------------------
# Declarations


def _decl_to_raw(decl: parse.RawDecl) -> tuple[parse.Raw, Optional[parse.Raw]]:
    """Fold the telescope into the result type (and the body into lambdas)."""
    ty: parse.Raw = decl.result
    for name, binder_ty in reversed(decl.telescope):
        binder = None if name == "_" else name
        ty = parse.RPi((binder_ty.span[0], ty.span[1]), binder, binder_ty, ty)
    body = decl.body
    if body is not None:
        for name, _ in reversed(decl.telescope):
            body = parse.RLam((decl.span[0], body.span[1]), name, body)
    return ty, body


def elaborate_signature(
    decls: list[parse.RawDecl],
    sig: Optional[Signature] = None,
    config: Config = Config(),
) -> tuple[Signature, list[Diagnostic]]:
    """Process declarations in order, collecting one diagnostic per failed
    declaration and continuing with the rest."""
    if sig is None:
        sig = Signature()
    diagnostics: list[Diagnostic] = []
    elab = Elaborator(sig, config)
    for decl in decls:
        try:
            if sig.lookup(decl.name) is not None:
                raise Diagnostic(
                    DUPLICATE, decl.span, f"duplicate top-level name {decl.name!r}"
                )
            ty_raw, body_raw = _decl_to_raw(decl)
            ty_core, _ = elab.ensure_type(Context(), ty_raw)
            body_core = None
            if decl.kind == "def":
                ty_v = evaluate(sig, (), ty_core)
                body_core = elab.check(Context(), body_raw, ty_v)
                kind = DeclKind.DEFINITION
            else:
                kind = DeclKind.POSTULATE
            sig.add(SigEntry(decl.name, ty_core, body_core, kind))
        except Diagnostic as diag:
            diagnostics.append(diag)
        except RecursionError:
            diagnostics.append(Diagnostic(
                DEPTH, decl.span, f"{decl.name!r} nests too deeply to check",
            ))
    return sig, diagnostics
