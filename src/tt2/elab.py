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
    Context, DeclKind, FIB, Node, SigEntry, Signature, Sort, Term,
    sort_join, sort_leq,
)
from .diagnostics import (
    CANNOT_INFER, Diagnostic, DUPLICATE, EXHAUSTED, FIBRANCY, HOLE, LEVEL,
    NOT_A_TYPE, SORT_MISMATCH, TYPE_MISMATCH, UNBOUND, exhausted,
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

    def _show(self, ctx: Context, v: Value) -> str:
        """``v`` as surface syntax under ``ctx``.  A binder written ``_``,
        and one that a later one of the same name shadows, is printed under
        a name taken neither in scope nor in the signature (``x1``, ``x2``,
        … for ``_``); the innermost keeps its written name.  A term too
        large to print is a fixed text, so its diagnostic stays."""
        names = list(ctx.names)
        taken = set(names)
        for level, name in enumerate(names):
            anonymous = name is None or name == "_"
            if anonymous or ctx.levels[name] != level:
                base, k = "x" if anonymous else name, 1
                while f"{base}{k}" in taken or self.sig.lookup(f"{base}{k}") is not None:
                    k += 1
                names[level] = f"{base}{k}"
                taken.add(names[level])
        try:
            return pretty.pretty(conv.quote(self.sig, len(ctx.env), v), self.sig, tuple(names))
        except EXHAUSTED:
            return "(a term too large to print)"

    def ensure_type(self, ctx: Context, raw: parse.Raw) -> tuple[Term, Sort]:
        tm, ty = self.infer(ctx, raw)
        if isinstance(ty, VUniv):
            return tm, ty.sort
        raise Diagnostic(
            NOT_A_TYPE, raw.span,
            f"expected a type, but this has type {self._show(ctx, ty)}",
        )

    def _infer_name(self, ctx: Context, raw: parse.RVar) -> tuple[Term, Value]:
        """Infer the name ``raw``: its innermost binder, whose index and type
        are read by level, else the signature constant of that name."""
        name = raw.name
        level = ctx.levels.get(name)
        if level is not None:
            return core.var(len(ctx.env) - 1 - level), ctx.types[level]
        if self.sig.lookup(name) is not None:
            return core.const(name), conv.const_type_value(self.sig, name)
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
            return self._infer_name(ctx, raw)
        if cls is parse.RApp:
            # An application chain f a1 … an: infer the head once, check the
            # arguments in a loop, and build one core ``App`` of them all where
            # it ends.  The loop walks a function type's codomain as a term, a
            # Π-telescope under its closure's environment extended by each
            # argument's value, rather than instantiating it binder by binder.
            # It compares before it evaluates: an argument written as a bound
            # variable is looked up once, in the context's level table, and its
            # type and value are read by level.  When its type value is the
            # domain value itself, or ``conv.evaluates_to`` finds that the
            # domain term is its type (a variable or postulate head applied to
            # the same argument objects), the domain is never built and the
            # argument is taken as it is, with no conversion.  Otherwise that
            # one domain is evaluated and the argument checked against it.
            # The rest of the telescope is evaluated once, where the walk ends.
            sig = self.sig
            head, ty = self.infer(ctx, raw.fn)
            level_of, types, values = ctx.levels.get, ctx.types, ctx.env
            cores = []
            env = None  # while walking a telescope term: its environment; ty is the term
            for arg in raw.args:
                level = level_of(arg.name) if arg.__class__ is parse.RVar else None
                if env is None:
                    if ty.__class__ is not VPi:
                        raise Diagnostic(
                            TYPE_MISMATCH, (raw.fn.span[0], arg.span[1]),
                            f"expected a function, but this has type {self._show(ctx, ty)}",
                        )
                    dom = None if level is not None and types[level] is ty.dom else ty.dom
                elif level is not None and conv.evaluates_to(sig, env, ty.dom, types[level]):
                    dom = None  # the variable's type converts with the domain
                else:
                    dom = evaluate(sig, tuple(env), ty.dom)
                if level is not None:
                    arg_core, arg_v = core.var(len(values) - 1 - level), values[level]
                    if dom is not None:
                        arg_core = self._conform(ctx, arg, arg_core, types[level], dom)
                else:
                    arg_core = (self._conform(ctx, arg, *self._infer_name(ctx, arg), dom)
                                if arg.__class__ is parse.RVar else self.check(ctx, arg, dom))
                    arg_v = evaluate(sig, values, arg_core)
                cores.append(arg_core)
                if env is None:
                    env, ty = list(ty.cod.env), ty.cod.body
                else:
                    ty = ty.cod
                env.append(arg_v)
                if ty.__class__ is not core.Pi:
                    ty, env = evaluate(sig, tuple(env), ty), None
            if env is not None:
                ty = evaluate(sig, tuple(env), ty)
            return core.App(head, tuple(cores)), ty
        if cls is parse.RPi or cls is parse.RSigma:
            term, sort, _ = self._telescope(ctx, raw)
            return term, VUniv(sort)
        if cls is parse.RUniv:
            layer, level, count = raw.layer, raw.level, self.config.universes
            if not 0 <= level < count:
                raise Diagnostic(
                    LEVEL, raw.span,
                    f"universe level {level} out of range (configured count {count})",
                )
            sort = Sort(layer, level)
            if level + 1 >= count:
                raise Diagnostic(
                    LEVEL, raw.span,
                    f"the top universe {sort} has no classifying universe at count {count}",
                )
            return core.Univ(sort), VUniv(Sort(layer, level + 1))
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
                # A chain of projections fst (snd (… p)): infer the innermost
                # pair once, evaluate it at most once, where the first snd
                # needs its value, and project that value step by step.
                projections = [raw]
                pair = raw.args[0]
                while pair.__class__ is parse.RBuiltin and (pair.former is core.Fst
                                                            or pair.former is core.Snd):
                    projections.append(pair)
                    pair = pair.args[0]
                sig = self.sig
                term, ty = self.infer(ctx, pair)
                value = None
                for proj in reversed(projections):
                    if ty.__class__ is not VSigma:
                        raise Diagnostic(
                            TYPE_MISMATCH, proj.span,
                            f"expected a pair, but this has type {self._show(ctx, ty)}",
                        )
                    if proj.former is core.Fst:
                        term, ty = core.Fst(term), ty.fst
                        if value is not None:
                            value = conv.do_fst(sig, value)
                    else:
                        if value is None:
                            value = evaluate(sig, ctx.env, term)
                        term, ty = core.Snd(term), ty.snd.apply(sig, conv.do_fst(sig, value))
                        value = conv.do_snd(sig, value)
                return term, ty
            if former in (core.J, core.NatElim, core.SumElim, core.EmptyElim):
                return self._infer_eliminator(ctx, raw)
            if former is core.Nat or former is core.Empty:
                return former(raw.layer), VUniv(Sort(raw.layer, 0))
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

    def _telescope(self, ctx: Context, raw: parse.Raw) -> tuple[Term, Sort, Value]:
        """A right-nested telescope of Π and Σ binders, its sort and its value
        under ``ctx``.  The context is extended binder by binder, then the
        term and its sort are built inside out.  A domain that is itself a
        telescope hands back its value with its term, so left-nested
        domains are each evaluated once, not again at every level above."""
        binders = []
        inner = ctx
        cls = raw.__class__
        while cls is parse.RPi or cls is parse.RSigma:
            is_pi = cls is parse.RPi
            dom_raw = raw.dom if is_pi else raw.fst
            if dom_raw.__class__ is parse.RPi or dom_raw.__class__ is parse.RSigma:
                dom_core, sort, dom = self._telescope(inner, dom_raw)
            else:
                dom_core, sort = self.ensure_type(inner, dom_raw)
                dom = evaluate(self.sig, inner.env, dom_core)
            binders.append((is_pi, dom_core, sort, dom))
            inner = inner.extend(raw.binder, dom, conv.fresh(len(inner.env)))
            raw = raw.cod if is_pi else raw.snd
            cls = raw.__class__
        term, sort = self.ensure_type(inner, raw)
        collapse = self.config.collapse_fibrant_universes
        for is_pi, dom_core, dom_sort, dom in reversed(binders):
            term = core.Pi(dom_core, term) if is_pi else core.Sigma(dom_core, term)
            sort = sort_join(dom_sort, sort, collapse)
        cod = Closure(ctx.env, term.cod if is_pi else term.snd)
        return term, sort, VPi(dom, cod) if is_pi else VSigma(dom, cod)

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
            if expected.__class__ is not VPi:
                raise Diagnostic(
                    TYPE_MISMATCH, raw.span,
                    f"lambda checked against non-function type {self._show(ctx, expected)}",
                )
            ctx = ctx.extend(raw.binder, expected.dom, conv.fresh(len(ctx.env)))
            return core.Lam(self.check(ctx, raw.body, expected.cod.apply(self.sig, ctx.env[-1])))
        if cls is parse.RPair:
            if expected.__class__ is not VSigma:
                raise Diagnostic(
                    TYPE_MISMATCH, raw.span,
                    f"pair checked against non-pair type {self._show(ctx, expected)}",
                )
            fst_core = self.check(ctx, raw.fst, expected.fst)
            snd_ty = expected.snd.apply(self.sig, evaluate(self.sig, ctx.env, fst_core))
            return core.Pair(fst_core, self.check(ctx, raw.snd, snd_ty))
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
                return core.Suc(expected.layer, self.check(ctx, raw.args[0], expected))
            if former is core.Inl or former is core.Inr:
                if expected.__class__ is not VSum:
                    raise Diagnostic(
                        TYPE_MISMATCH, raw.span,
                        f"injection checked against {self._show(ctx, expected)}",
                    )
                if former is core.Inl:
                    return core.Inl(expected.layer, self.check(ctx, raw.args[0], expected.left))
                return core.Inr(expected.layer, self.check(ctx, raw.args[0], expected.right))
        term, got = self.infer(ctx, raw)
        return self._conform(ctx, raw, term, got, expected)


# ---------------------------------------------------------------------------
# Declarations


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
            ty_core, _ = elab.ensure_type(Context(), decl.ty)
            body_core = None
            if decl.kind == "def":
                ty_v = evaluate(sig, (), ty_core)
                body_core = elab.check(Context(), decl.body, ty_v)
                kind = DeclKind.DEFINITION
            else:
                kind = DeclKind.POSTULATE
            sig.add(SigEntry(decl.name, ty_core, body_core, kind))
        except Diagnostic as diag:
            diagnostics.append(diag.detached())
        except EXHAUSTED as exc:
            diagnostics.append(exhausted(exc, decl.span, repr(decl.name), "check"))
    return sig, diagnostics
