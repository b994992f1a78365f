"""Elaboration: inference and checking behaviour, the fibrancy guard
table, coercion strictness, subsumption, determinism, and the
print-reparse-recheck stability of elaborated cores."""

import cProfile
import gc

import pytest
from conftest import REPO_ROOT, call_count, fails_fast_on_recursion, on_a_large_stack

from smallstep_oracle import children
from termgen import TermGen
from test_conv import segal_signature
from tt2 import conv, core, parse, pretty
from tt2.core import Context, FIB, Lam, Nat, Pi, Sort, STRICT, Star, Univ, Var, Zero
from tt2.diagnostics import Diagnostic
from tt2.elab import Config, Elaborator, elaborate_signature
from tt2.prelude import initial_signature


@pytest.fixture()
def elab(base_sig, config):
    return Elaborator(base_sig, config)


def infer(elab, src):
    return elab.infer(Context(), parse.parse_term(src))


def check(elab, src, ty_src):
    ty_core, _ = elab.ensure_type(Context(), parse.parse_term(ty_src))
    ty_v = conv.evaluate(elab.sig, (), ty_core)
    return elab.check(Context(), parse.parse_term(src), ty_v)


def type_str(elab, src):
    _, ty = infer(elab, src)
    return pretty.pretty(conv.quote(elab.sig, 0, ty), elab.sig)


def err(fn, *args):
    with pytest.raises(Diagnostic) as exc:
        fn(*args)
    return exc.value.code


def test_infer_star_and_universes(elab):
    term, ty = infer(elab, "star")
    assert term == Star()
    assert isinstance(ty, conv.VUnit)
    term, ty = infer(elab, "U0")
    assert term == Univ(Sort(FIB, 0))
    assert ty.sort == Sort(FIB, 1)


def test_infer_fibrant_equality_of_universes(elab):
    assert type_str(elab, "Id U0 Nat Nat") == "U1"


def test_check_lambda_and_pair(elab):
    assert check(elab, "\\x. x", "Nat -> Nat") == Lam(Var(0))
    # a name resolves to its innermost binder
    assert check(elab, "\\x x. x", "Nat -> Unit -> Unit") == Lam(Lam(Var(0)))
    core_pair = check(elab, "(zero , star)", "(n : Nat) × Unit")
    assert core_pair.fst == Zero(FIB)


def test_layers_are_distinct(elab):
    assert err(check, elab, "\\x. x", "Nat -> NatS") == "TYPE_MISMATCH"


def test_cannot_infer_bare_forms(elab):
    assert err(infer, elab, "\\x. x") == "CANNOT_INFER"
    assert err(infer, elab, "zero") == "CANNOT_INFER"
    assert err(infer, elab, "(star , star)") == "CANNOT_INFER"
    assert err(infer, elab, "inl star") == "CANNOT_INFER"


def test_unbound_and_hole(elab):
    assert err(infer, elab, "nonsense") == "UNBOUND"
    assert err(check, elab, "_", "Nat") == "HOLE"


def test_sort_of_rules(elab):
    def sort_of(src):
        _, sort = elab.ensure_type(Context(), parse.parse_term(src))
        return sort

    assert sort_of("(x : Nat) -> Nat") == Sort(FIB, 0)
    assert sort_of("(x : Nat) -> NatS") == Sort(STRICT, 0)
    assert sort_of("Eq Nat zero zero") == Sort(STRICT, 0)
    assert sort_of("Id Nat zero zero") == Sort(FIB, 0)
    assert sort_of("Unit") == Sort(FIB, 0)
    assert sort_of("U0") == Sort(FIB, 1)
    assert sort_of("US0") == Sort(STRICT, 1)
    assert sort_of("Id U0 Nat Nat") == Sort(FIB, 1)
    assert sort_of("Sum Unit Nat") == Sort(FIB, 0)
    assert sort_of("SumS Unit US0") == Sort(STRICT, 1)
    assert sort_of("Nat × NatS") == Sort(STRICT, 0)


def test_universe_levels_are_bounded(elab):
    assert err(infer, elab, "U7") == "LEVEL"
    # the top universe exists but cannot itself be classified
    assert err(infer, elab, "U2") == "LEVEL"
    assert type_str(elab, "U1") == "U2"


@pytest.mark.parametrize("src, message", [
    ("U7", "universe level 7 out of range (configured count 3)"),
    ("US7", "universe level 7 out of range (configured count 3)"),
    ("U2", "the top universe U2 has no classifying universe at count 3"),
    ("US2", "the top universe US2 has no classifying universe at count 3"),
])
def test_universe_level_diagnostics(base_sig, src, message):
    elab = Elaborator(base_sig, Config(universes=3))
    with pytest.raises(Diagnostic) as exc:
        elab.infer(Context(), parse.parse_term(src))
    assert (exc.value.code, exc.value.span, exc.value.message) == ("LEVEL", (0, len(src)), message)


# A level with more digits than int() converts (4 300 unless the
# interpreter is told otherwise) is out of range like any level at or above
# the count, with a message as short; the next declaration still checks.
@pytest.mark.parametrize("former, digits", [("U", 4301), ("US", 4301), ("U", 5000), ("US", 5000)])
def test_a_level_too_long_to_read_is_out_of_range(base_sig, former, digits):
    universe = former + "7" * digits
    source = f"def a : U1 := {universe}\ndef b : U1 := U0\n"
    sig, diags = elaborate_signature(parse.parse_file(source), base_sig, Config(universes=3))
    assert [(d.code, d.span, d.message) for d in diags] == [
        ("LEVEL", (14, 14 + len(universe)), "universe level inf out of range (configured count 3)"),
    ]
    assert sig.lookup("a") is None and sig.lookup("b") is not None


def test_subsumption(elab):
    assert elab.subsume(Sort(FIB, 0), Sort(STRICT, 0))
    assert not elab.subsume(Sort(STRICT, 0), Sort(FIB, 0))
    assert elab.subsume(Sort(FIB, 0), Sort(STRICT, 2))
    assert not elab.subsume(Sort(FIB, 2), Sort(STRICT, 0))


def test_collapse_flag_changes_the_order(base_sig):
    cfg = Config(collapse_fibrant_universes=True)
    sig = initial_signature(cfg)
    elab2 = Elaborator(sig, cfg)
    assert elab2.subsume(Sort(FIB, 2), Sort(STRICT, 0))
    # U1 -> U1 has sort Fib(2); under collapse it checks inside US0
    core = check(elab2, "U1 -> U1", "US0")
    assert isinstance(core, Pi)
    default = Elaborator(base_sig, Config())
    assert err(check, default, "U1 -> U1", "US0") == "SORT_MISMATCH"


def test_coercion_inserts_no_wrappers(elab):
    # same term checked at a fibrant and at a strict universe: identical core
    fib = check(elab, "Nat -> Nat", "U0")
    strict = check(elab, "Nat -> Nat", "US1")
    assert fib == strict == Pi(Nat(FIB), Nat(FIB))
    assert check(elab, "\\A. A", "U0 -> US0") == Lam(Var(0))


def test_fibrant_equality_needs_fibrant_type(elab):
    assert err(infer, elab, "Id NatS zero zero") == "SORT_MISMATCH"
    assert err(infer, elab, "Id US0 Unit Unit") == "SORT_MISMATCH"
    # strict equality is available at every type
    assert type_str(elab, "Eq NatS zero zero") == "US0"
    assert type_str(elab, "Eq Nat zero zero") == "US0"


@pytest.mark.parametrize("src, code, span, message", [
    ("fst n", "TYPE_MISMATCH", (0, 5), "expected a pair, but this has type Nat"),
    ("snd n", "TYPE_MISMATCH", (0, 5), "expected a pair, but this has type Nat"),
    ("Id NatS zero zero", "SORT_MISMATCH", (0, 17),
     "fibrant equality requires a fibrant type, got sort US0"),
    ("refl NatS zero", "SORT_MISMATCH", (0, 14),
     "fibrant equality requires a fibrant type, got sort US0"),
])
def test_projection_and_equality_diagnostics(elab, src, code, span, message):
    ctx = Context().extend("n", conv.VNat(FIB), conv.fresh(0))
    with pytest.raises(Diagnostic) as exc:
        elab.infer(ctx, parse.parse_term(src))
    assert (exc.value.code, exc.value.span, exc.value.message) == (code, span, message)


def test_a_name_resolves_to_its_innermost_binder(elab):
    # the index and the type are the innermost binder's
    assert check(elab, "\\x x. x", "Nat -> Unit -> Unit") == Lam(Lam(Var(0)))
    assert err(check, elab, "\\x x. x", "Unit -> Nat -> Unit") == "TYPE_MISMATCH"
    term, _ = infer(elab, "(x : Nat) -> (x : Nat) -> Id Nat x x")
    assert term == Pi(Nat(FIB), Pi(Nat(FIB), core.Id(FIB, Nat(FIB), Var(0), Var(0))))
    assert err(infer, elab, "(x : Nat) -> (x : Unit) -> Id Nat x x") == "TYPE_MISMATCH"
    ctx = Context()
    for name, ty in (("x", conv.VNat(FIB)), ("x", conv.VUnit()), (None, conv.VStar())):
        ctx = ctx.extend(name, ty, conv.fresh(len(ctx.env)))
    x = parse.parse_term("x")
    assert elab.infer(ctx, x) == (Var(1), conv.VUnit())
    assert err(elab.infer, ctx, parse.parse_term("y")) == "UNBOUND"
    assert elab.infer(ctx.extend("y", conv.VNat(FIB), conv.fresh(3)), x)[0] == Var(2)


@pytest.mark.parametrize("src, message", [
    ("def u (A : U0) (x : A) (A : U0) : A := x", "expected A, got A1"),
    # the new name is taken neither in scope nor in the signature
    ("def u (A : U0) (A1 : U0) (x : A) (A : U0) : A := x", "expected A, got A2"),
    ("postulate A1 : U0\ndef u (A : U0) (x : A) (A : U0) : A := x", "expected A, got A2"),
    ("def u (A : U0) (x : A) (A : U0) (y : A) (A : U0) : A := x", "expected A, got A1"),
    ("def u (A : U0) (x : A) (A : U0) (y : A) (A : U0) : A := y", "expected A, got A2"),
    ("def u (x : Nat) (x : Unit) : Nat := x", "expected Nat, got Unit"),
    # a binder written _ is named too, so it does not read as a hole
    ("postulate P : Nat -> U0\npostulate p0 : P zero\ndef f : (n : Nat) -> P n := \\_. p0",
     "expected P x1, got P zero"),
    ("postulate Q : Nat -> Nat -> U0\npostulate q : Q zero zero\n"
     "def f : (n : Nat) -> (m : Nat) -> Q n m := \\_ _. q", "expected Q x1 x2, got Q zero zero"),
    ("postulate Q : Nat -> Nat -> U0\npostulate q : Q zero zero\npostulate x1 : Nat\n"
     "def f : (n : Nat) -> (m : Nat) -> (k : Nat) -> Q n k := \\_ x2 _. q",
     "expected Q x3 x4, got Q zero zero"),
])
def test_a_shadowed_binder_is_printed_under_a_fresh_name(base_sig, config, src, message):
    _, diags = elaborate_signature(parse.parse_file(src), base_sig, config)
    assert [(d.code, d.message) for d in diags] == [("TYPE_MISMATCH", message)]


@pytest.mark.parametrize("error", [RecursionError, MemoryError])
def test_a_mismatch_too_large_to_print_keeps_its_code_and_span(base_sig, config, monkeypatch, error):
    # Running out while one side of the message prints leaves a fixed text
    # for that side; the declaration keeps its TYPE_MISMATCH at its span.
    printed = []

    def first_print_runs_out(*args):
        printed.append(args)
        if len(printed) == 1:
            raise error
        return real_pretty(*args)

    real_pretty = pretty.pretty
    monkeypatch.setattr(pretty, "pretty", first_print_runs_out)
    _, diags = elaborate_signature(parse.parse_file("def t : Nat := star\n"), base_sig, config)
    assert [(d.code, d.span, d.message) for d in diags] == [
        ("TYPE_MISMATCH", (15, 19), "expected (a term too large to print), got Unit")]


_TWICE = "def twice (A : U0) (f : A -> A -> A) (x : A) : A := (f x) x\n"


# A declaration's telescope is folded into its type and its body: a
# diagnostic raised in a binder domain, the result type or the body keeps
# the code, span and message of the term as written.
@pytest.mark.parametrize("src, diagnostic", [
    ("def t (A : U0) (x : Z) : A := x", ("UNBOUND", (20, 21), "unbound name 'Z'")),
    ("def t (A : U0) (x : A) (y : x) : U0 := A",
     ("NOT_A_TYPE", (28, 29), "expected a type, but this has type A")),
    ("postulate p (A : U0) : A -> Q", ("UNBOUND", (28, 29), "unbound name 'Q'")),
    ("def t (A : U0) (B : U0) (x : A) : B := x", ("TYPE_MISMATCH", (39, 40), "expected B, got A")),
    ("def t (A : U0) (x : A) : A := \\y. y",
     ("TYPE_MISMATCH", (30, 35), "lambda checked against non-function type A")),
    ("def t (A : U0) (f : A -> A) (x : A) : A := f (g x)", ("UNBOUND", (46, 47), "unbound name 'g'")),
    # a parenthesised head that is not a function, on the line after twice
    (_TWICE + "def bad (A : U0) (x : A) : A := (x x) x",
     ("TYPE_MISMATCH", (93, 96), "expected a function, but this has type A")),
    # and with no telescope: the whole pair, at 1:16
    ("def d : Nat := (zero , zero)", ("TYPE_MISMATCH", (15, 28), "pair checked against non-pair type Nat")),
])
def test_diagnostics_inside_a_declaration_telescope_keep_their_spans(base_sig, config, src, diagnostic):
    _, diags = elaborate_signature(parse.parse_file(src), base_sig, config)
    assert [(d.code, d.span, d.message) for d in diags] == [diagnostic]


def test_fibrant_sum_needs_fibrant_summands(elab):
    assert err(infer, elab, "Sum Unit NatS") == "SORT_MISMATCH"
    assert type_str(elab, "SumS Unit Nat") == "US0"


GUARD_CASES = []
for _motive, _fib_ok in (("Nat", True), ("NatS", False)):
    GUARD_CASES += [
        (f"natelim (\\k. {_motive}) MOT_Z (\\k r. r) zero", "fibrant", _fib_ok),
        (f"natelimS (\\k. {_motive}) MOT_Z (\\k r. r) zero", "strict", True),
        (f"sumelim (\\v. {_motive}) (\\a. MOT_Z) (\\b. MOT_Z) gs", "fibrant", _fib_ok),
        (f"sumelimS (\\v. {_motive}) (\\a. MOT_Z) (\\b. MOT_Z) gss", "strict", True),
        (f"exfalso (\\v. {_motive}) ge", "fibrant", _fib_ok),
        (f"exfalsoS (\\v. {_motive}) ges", "strict", True),
        (f"J (\\c q. {_motive}) MOT_Z ga ga (refl gA ga)", "fibrant", _fib_ok),
        (f"JS (\\c q. {_motive}) MOT_Z ga ga (reflS gA ga)", "strict", True),
    ]


def test_guard_completeness(base_sig, config):
    """All eight eliminators against fibrant and strict motives: exactly the
    four fibrant-eliminator/strict-motive combinations are rejected."""
    ctx_src = """
postulate gA : U0
postulate ga : gA
postulate gs : Sum Unit Unit
postulate gss : SumS Unit Unit
postulate ge : Empty
postulate ges : EmptyS
"""
    sig, diags = elaborate_signature(parse.parse_file(ctx_src), base_sig, config)
    assert not diags
    elab = Elaborator(sig, config)
    rejected = []
    for template, flavor, expected_ok in GUARD_CASES:
        src = template.replace("MOT_Z", "zero")
        try:
            elab.infer(Context(), parse.parse_term(src))
            ok = True
        except Diagnostic as diag:
            ok = diag.code != "FIBRANCY"
            if diag.code == "FIBRANCY":
                rejected.append((src, flavor))
            else:
                raise
        assert ok == expected_ok, src
    assert len(rejected) == 4
    assert all(flavor == "fibrant" for _, flavor in rejected)


def test_strict_nat_large_eliminates_into_fibrant_universe(elab):
    term, ty = infer(elab, "natelimS (\\m. U0) Empty (\\m r. Sum Unit r) zero")
    # the eliminator produces an element of U0: a fibrant type
    assert isinstance(ty, conv.VUniv)
    assert ty.sort == Sort(FIB, 0)


def test_j_endpoint_mismatch_is_reported(base_sig, config):
    src = "postulate hA : U0\npostulate ha : hA\npostulate hb : hA\npostulate hp : Id hA ha hb"
    sig, diags = elaborate_signature(parse.parse_file(src), base_sig, config)
    assert not diags
    elab = Elaborator(sig, config)
    with pytest.raises(Diagnostic) as exc:
        elab.infer(Context(), parse.parse_term("J (\\c q. hA) ha hb hb hp"))
    assert exc.value.code == "TYPE_MISMATCH"


TELESCOPES = """\
postulate X0 : U0
postulate X1 : X0 -> X0 -> U0
def Y : X0 -> X0 -> U0 := X1
postulate F : (a0 : X0) -> (a1 : X0) -> X1 a0 a1 -> U0
postulate FY : (a0 : X0) -> (a1 : X0) -> Y a0 a1 -> U0
postulate G : (P : X0 -> U0) -> (a : X0) -> P a -> U0
postulate H : X0 -> X0 -> X0 -> X0 -> U0
"""


# An argument checked against a Π-telescope's domain term: a postulate
# head (F), a defined head that only evaluation unfolds (FY), and a head
# variable bound to a neutral with a non-empty spine (G's P := Q a).
@pytest.mark.parametrize("decl, diagnostics", [
    ("def t (a0 a1 : X0) (x : X1 a0 a1) : U0 := F a0 a1 x", []),
    ("def t (a0 a1 : X0) (x : X1 a0 a1) : U0 := FY a0 a1 x", []),
    ("def t (Q : X0 -> X0 -> U0) (a b : X0) (x : Q a b) : U0 := G (Q a) b x", []),
    # the spans are those of the last argument
    ("def t (a0 a1 : X0) (x : X1 a0 a0) : U0 := F a0 a1 x",
     [("TYPE_MISMATCH", (50, 51), "expected X1 a0 a1, got X1 a0 a0")]),
    ("def t (a0 a1 : X0) (x : X1 a0 a0) : U0 := FY a0 a1 x",
     [("TYPE_MISMATCH", (51, 52), "expected X1 a0 a1, got X1 a0 a0")]),
    ("def t (Q : X0 -> X0 -> U0) (a b : X0) (x : Q b a) : U0 := G (Q a) b x",
     [("TYPE_MISMATCH", (68, 69), "expected Q a b, got Q b a")]),
    # a name that no binder holds: a constant, or unbound
    ("def t (a0 : X0) (x : X1 a0 a0) : U0 := F a0 a0 Y",
     [("TYPE_MISMATCH", (47, 48), "expected X1 a0 a0, got X0 -> X0 -> U0")]),
    ("def t (a0 : X0) : U0 := F a0 a0 z", [("UNBOUND", (32, 33), "unbound name 'z'")]),
    # in a run of names: an unbound name third of four, and a name of the
    # wrong type (a variable, a constant) in the middle
    ("def t (a0 : X0) : U0 := H a0 a0 z a0", [("UNBOUND", (32, 33), "unbound name 'z'")]),
    ("def t (a0 a1 : X0) (x : X1 a0 a1) : U0 := F a0 x a1",
     [("TYPE_MISMATCH", (47, 48), "expected X0, got X1 a0 a1")]),
    ("def t (a0 : X0) (x : X1 a0 a0) : U0 := H a0 Y a0 a0",
     [("TYPE_MISMATCH", (44, 45), "expected X0, got X0 -> X0 -> U0")]),
    # a first argument whose type is not the function type's domain
    ("def t (a0 a1 : X0) (x : X1 a0 a1) : U0 := F x a0 a1",
     [("TYPE_MISMATCH", (44, 45), "expected X0, got X1 a0 a1")]),
    ("def t (Q : X0 -> X0 -> U0) (a b : X0) (x : Q a b) : U0 := G Q b x",
     [("TYPE_MISMATCH", (60, 61), "expected X0 -> U0, got X0 -> X0 -> U0")]),
])
def test_telescope_arguments_are_checked_against_domain_terms(base_sig, config, decl, diagnostics):
    sig, diags = elaborate_signature(parse.parse_file(TELESCOPES), base_sig, config)
    assert not diags
    _, diags = elaborate_signature(parse.parse_file(decl), sig, config)
    assert [(d.code, d.span, d.message) for d in diags] == diagnostics


# An over-applied head: the span runs from the head's start to the end of
# the first argument that finds no function type, however the application
# is parenthesised.
@pytest.mark.parametrize("body, span", [
    ("F a0 a1 x a0", (42, 54)),
    ("F a0 a1 x a0 a1", (42, 54)),
    ("(F a0 a1) x a0", (43, 56)),
    ("((F a0) a1 x) a0", (44, 58)),
    ("X0 a0", (42, 47)),
])
def test_an_over_applied_head_is_reported_at_its_first_extra_argument(base_sig, config, body, span):
    sig, diags = elaborate_signature(parse.parse_file(TELESCOPES), base_sig, config)
    assert not diags
    decl = "def t (a0 a1 : X0) (x : X1 a0 a1) : U0 := " + body
    _, diags = elaborate_signature(parse.parse_file(decl), sig, config)
    assert [(d.code, d.span, d.message) for d in diags] == [
        ("TYPE_MISMATCH", span, "expected a function, but this has type U0")]


@pytest.mark.parametrize("body", ["F a0 a1 x", "(F a0) a1 x", "((F a0) a1) x", "(F a0 a1) x"])
def test_an_application_elaborates_alike_however_parenthesised(base_sig, config, body):
    decl = "def t (a0 a1 : X0) (x : X1 a0 a1) : U0 := " + body
    sig, diags = elaborate_signature(parse.parse_file(TELESCOPES + decl), base_sig, config)
    assert not diags
    F, a0, a1, x = core.Const("F"), Var(2), Var(1), Var(0)
    body = sig.lookup("t").body
    assert body == Lam(Lam(Lam(core.App(F, (a0, a1, x)))))
    # a bound name and a constant elaborate to shared leaves
    chain = body.body.body.body
    assert chain.args[-1] is core.var(0) and chain.fn is core.const("F")


def test_duplicate_names_rejected(base_sig, config):
    src = "def d : U0 := Unit\ndef d : U0 := Unit"
    _, diags = elaborate_signature(parse.parse_file(src), base_sig, config)
    assert [d.code for d in diags] == ["DUPLICATE"]


def test_error_recovery_continues_after_failure(base_sig, config):
    src = "def bad : U0 := missing\ndef good : U0 := Unit"
    sig, diags = elaborate_signature(parse.parse_file(src), base_sig, config)
    assert [d.code for d in diags] == ["UNBOUND"]
    assert sig.lookup("good") is not None


def test_elaboration_is_deterministic(config, manifest):
    def one_round():
        sig = initial_signature(config)
        for entry in manifest.accept_entries():
            decls = parse.parse_file(manifest.source(entry))
            sig, diags = elaborate_signature(decls, sig, config)
            assert not diags
        lines = []
        for entry in sig.entries.values():
            line = f"{entry.name} : {pretty.pretty(entry.ty, sig)}"
            if entry.body is not None:
                line += f" := {pretty.pretty(entry.body, sig)}"
            lines.append(line)
        return "\n".join(lines)

    assert one_round() == one_round()


def _occurs(t, index):
    """Whether variable ``index`` occurs in ``t``: the printer's reference."""
    stack = [(t, index)]
    while stack:
        t, index = stack.pop()
        if isinstance(t, Var):
            if t.index == index:
                return True
        else:
            stack.extend((sub, index + off) for sub, off in children(t))
    return False


def test_printer_binder_choice_matches_naive_occurrence(config, manifest, monkeypatch):
    sig = initial_signature(config)
    for entry in manifest.accept_entries():
        sig, diags = elaborate_signature(parse.parse_file(manifest.source(entry)), sig, config)
        assert not diags
    terms = [t for e in sig.entries.values() for t in (e.ty, e.body) if t is not None]
    terms += [conv.nf(sig, Context(), e.body) for e in sig.entries.values() if e.body is not None]
    for n in range(2, 7):
        segal = segal_signature(config, n)
        terms.append(conv.nf(segal, Context(), segal.lookup(f"SegalCondition{n}").body))
    # Read-back shares a defined constant's term, so one node may sit at
    # several depths: here a closed and an open subterm each at two, the
    # open one naming the innermost binder around it.
    closed = Pi(Univ(Sort(FIB, 0)), Pi(Var(0), Var(1)))
    open_ = Pi(Var(0), Var(1))
    terms.append(Pi(Univ(Sort(FIB, 0)), core.Sigma(open_, Pi(
        Univ(Sort(FIB, 0)), core.Sigma(closed, Pi(open_, closed))))))
    # two outermost chains, equal but not shared, each with a dependent binder
    terms.append(core.Pair(closed, Pi(Univ(Sort(FIB, 0)), Pi(Var(0), Var(1)))))
    gen = TermGen(11)
    for _ in range(200):
        terms.extend(gen.sample(40))
    checked = dependent = 0
    whole = []
    for term in terms:
        found = pretty._dependent_binders(term)
        whole.append(found)
        stack, seen = [term], set()
        while stack:
            t = stack.pop()
            if id(t) in seen:  # whether a shared node is dependent is its own property
                continue
            seen.add(id(t))
            if isinstance(t, (core.Pi, core.Sigma)):
                body = t.cod if isinstance(t, core.Pi) else t.snd
                assert (id(t) in found) == _occurs(body, 0)
                checked += 1
                dependent += id(t) in found
            stack.extend(sub for sub, _ in children(t))
    assert checked > dependent > 100
    # Each outermost chain is walked alone; the text is the one printed when
    # every chain reads the set of a walk of the whole term.
    texts = [pretty.pretty(term) for term in terms]
    for term, found, text in zip(terms, whole, texts):
        monkeypatch.setattr(pretty, "_dependent_binders", lambda _, found=found: found)
        assert pretty.pretty(term) == text


def test_printer_shows_an_index_past_its_names_as_free():
    assert pretty.pretty(Var(2)) == "?v2"
    assert pretty.pretty(Lam(Var(3)), None, ("a",)) == "\\v0. ?v1"


@pytest.mark.parametrize("layer", [FIB, STRICT])
@fails_fast_on_recursion
def test_a_numeral_prints_in_a_constant_number_of_calls(layer):
    # a chain of successors is walked in a loop, its base printed once
    numeral = core.Zero(layer)
    for _ in range(1_000):
        numeral = core.Suc(layer, numeral)
    profile = cProfile.Profile()
    profile.enable()
    text = pretty.pretty(Lam(core.App(Var(0), (numeral,))))
    profile.disable()
    assert text == "\\v0. v0 (" + "suc (" * 999 + "suc zero" + ")" * 999 + ")"
    assert call_count(profile, pretty._CorePrinter.show) == 5  # λ, application, v0, suc, zero
    assert call_count(profile, pretty._dependent_binders) == 0  # no Π or Σ to walk


def test_the_printer_walks_each_outermost_chain_once(base_sig, config):
    # two outermost chains, the eliminator's base and the body of its step
    # below two λs; the B -> B nested in the first is found by its walk
    src = "def m : Nat -> U1 := \\n. natelim (\\_. U1) ((B : U0) × (B -> B)) (\\_ r. (C : U0) -> C -> r) n\n"
    sig, diags = elaborate_signature(parse.parse_file(src), base_sig, config)
    assert not diags
    normal = conv.nf(sig, Context(), sig.lookup("m").body)
    profile = cProfile.Profile()
    profile.enable()
    text = pretty.pretty(normal, sig)
    profile.disable()
    assert text == "\\v0. natelim (\\v1. U1) ((v2 : U0) × (v2 -> v2)) (\\v3 v4. (v5 : U0) -> v5 -> v4) v0"
    assert call_count(profile, pretty._dependent_binders) == 2


def test_printed_core_rechecks_to_identical_core(config, manifest):
    """Print each elaborated definition, reparse, recheck against its
    declared type: the core round-trips byte-identically."""
    sig = initial_signature(config)
    for entry in manifest.accept_entries():
        decls = parse.parse_file(manifest.source(entry))
        sig, diags = elaborate_signature(decls, sig, config)
        assert not diags
    elab = Elaborator(sig, config)
    checked = 0
    for entry in sig.entries.values():
        if entry.body is None:
            continue
        ty_v = conv.evaluate(sig, (), entry.ty)
        body_src = pretty.pretty(entry.body, sig)
        reparsed = parse.parse_term(body_src)
        recheck = elab.check(Context(), reparsed, ty_v)
        assert recheck == entry.body, entry.name
        checked += 1
    assert checked >= 40


def test_subject_soundness_on_inferable_bodies(config, manifest):
    """Re-inferring an elaborated body (when its head form is inferable)
    yields a type convertible to the declared one."""
    sig = initial_signature(config)
    for entry in manifest.accept_entries():
        decls = parse.parse_file(manifest.source(entry))
        sig, diags = elaborate_signature(decls, sig, config)
        assert not diags
    elab = Elaborator(sig, config)
    sampled = 0
    for entry in sig.entries.values():
        if entry.body is None:
            continue
        body_src = pretty.pretty(entry.body, sig)
        reparsed = parse.parse_term(body_src)
        try:
            _, got = elab.infer(Context(), reparsed)
        except Diagnostic as diag:
            assert diag.code == "CANNOT_INFER"
            continue
        declared = conv.evaluate(sig, (), entry.ty)
        assert conv.convert(sig, (), got, declared, None), entry.name
        sampled += 1
    assert sampled >= 5


# tests/golden/builtin_errors.txt pins what elaborating each case below
# after BUILTIN_PREAMBLE gives: ``ok``, or the diagnostic's code, its span
# counted from the start of the case, and its message.  It was written
# while the parser still had one raw class per built-in.
BUILTIN_PREAMBLE = """\
postulate A : U0
postulate a : A
postulate b : A
postulate p : Id A a b
postulate AS : US0
postulate c : AS
postulate d : AS
postulate q : Eq AS c d
postulate n : Nat
postulate ns : NatS
postulate s : Sum Unit Nat
postulate ss : SumS Unit NatS
postulate e : Empty
postulate es : EmptyS
postulate pr : (x : Nat) × Unit
"""

BUILTIN_CASES = [
    # Id and Eq: sort errors, a type that is not one, a wrong endpoint
    "def t : U0 := Id NatS zero zero",
    "def t : U0 := Id US0 Unit Unit",
    "def t : U0 := Id star star star",
    "def t : US0 := Eq star star star",
    "def t : US0 := Eq Nat zero zero",
    "def t : Id A a a := refl AS c",
    "def t : Id A a b := refl A a",
    "def t : Eq AS c c := reflS AS a",
    "def t : Eq AS c c := reflS AS c",
    # Sum and SumS
    "def t : U0 := Sum NatS Unit",
    "def t : U0 := Sum Unit EmptyS",
    "def t : US0 := SumS star Unit",
    "def t : US0 := SumS Nat NatS",
    # projections
    "def t : Nat := fst n",
    "def t : Unit := snd a",
    "def t : Unit := snd pr",
    # numerals and injections: bare, at the wrong type, inside at the wrong type
    "def t : Nat := fst zero",
    "def t : Nat := fst (suc zero)",
    "def t : Unit := fst (inl star)",
    "def t : Unit := snd (inr star)",
    "def t : Unit := zero",
    "def t : Unit := suc (suc zero)",
    "def t : Nat := suc (suc star)",
    "def t : NatS := suc zero",
    "def t : Nat := inl star",
    "def t : Sum Unit Nat := inr star",
    "def t : SumS Unit NatS := inl star",
    # natelim and natelimS
    "def t : Nat := natelim Nat zero (\\k r. r) n",
    "def t : NatS := natelimS NatS zero (\\k r. r) ns",
    "def t : Nat := natelim (\\k. k) zero (\\k r. r) n",
    "def t : NatS := natelimS (\\k. k) zero (\\k r. r) ns",
    "def t : NatS := natelim (\\k. NatS) zero (\\k r. r) n",
    "def t : Nat := natelim (\\k. Nat) zero (\\k. k) n",
    "def t : NatS := natelimS (\\k. NatS) zero star ns",
    "def t : Nat := natelim (\\k. Nat) zero (\\k r. r) ns",
    "def t : NatS := natelimS (\\k. NatS) zero (\\k r. r) n",
    "def t : Nat := natelim (\\k. Nat) star (\\k r. r) n",
    "def t : Nat := natelim (\\k. Nat) zero (\\k r. star) n",
    "def t : Nat := natelim (\\k. Nat) zero (\\k r. suc r) n",
    "def t : NatS := natelimS (\\k. NatS) zero (\\k r. suc r) ns",
    "def t : U0 := natelimS (\\k. U0) Empty (\\k r. Sum Unit r) ns",
    # sumelim and sumelimS
    "def t : Nat := sumelim (\\v. Nat) (\\x. zero) (\\y. y) ss",
    "def t : NatS := sumelimS (\\v. NatS) (\\x. zero) (\\y. y) s",
    "def t : Nat := sumelim (\\v. Nat) (\\x. zero) (\\y. y) n",
    "def t : Nat := sumelim Nat (\\x. zero) (\\y. y) s",
    "def t : NatS := sumelimS NatS (\\x. zero) (\\y. y) ss",
    "def t : Nat := sumelim (\\v. v) (\\x. zero) (\\y. y) s",
    "def t : NatS := sumelim (\\v. NatS) (\\x. zero) (\\y. zero) s",
    "def t : Nat := sumelim (\\v. Nat) zero (\\y. y) s",
    "def t : NatS := sumelimS (\\v. NatS) (\\x. zero) zero ss",
    "def t : Nat := sumelim (\\v. Nat) (\\x. x) (\\y. y) s",
    "def t : Nat := sumelim (\\v. Nat) (\\x. zero) (\\y. y) s",
    "def t : NatS := sumelimS (\\v. NatS) (\\x. zero) (\\y. y) ss",
    # exfalso and exfalsoS
    "def t : Nat := exfalso (\\v. Nat) es",
    "def t : NatS := exfalsoS (\\v. NatS) e",
    "def t : Nat := exfalso Nat e",
    "def t : NatS := exfalsoS NatS es",
    "def t : Nat := exfalso (\\v. v) e",
    "def t : NatS := exfalso (\\v. NatS) e",
    "def t : Nat := exfalso (\\v. Nat) e",
    "def t : NatS := exfalsoS (\\v. NatS) es",
    # J and JS
    "def t : A := J (\\x r. A) a a b q",
    "def t : AS := JS (\\x r. AS) c c d p",
    "def t : A := J (\\x r. A) a a b a",
    "def t : A := J (\\x r. A) a b b p",
    "def t : A := J (\\x r. A) a a a p",
    "def t : AS := JS (\\x r. AS) c d d q",
    "def t : AS := JS (\\x r. AS) c c c q",
    "def t : A := J (\\x. A) a a b p",
    "def t : AS := JS AS c c d q",
    "def t : A := J (\\x r y. A) a a b p",
    "def t : A := J (\\x r. x) a a b p",
    "def t : AS := J (\\x r. AS) c a b p",
    "def t : A := J (\\x r. A) star a b p",
    "def t : Nat := J (\\x r. A) a a b p",
    "def t : A := J (\\x r. A) a a b p",
    "def t : AS := JS (\\x r. AS) c c d q",
]


def builtin_outcomes(config) -> str:
    lines = []
    for case in BUILTIN_CASES:
        source = BUILTIN_PREAMBLE + case
        _, diags = elaborate_signature(parse.parse_file(source), initial_signature(config), config)
        lines.append(case)
        if not diags:
            lines.append("    ok")
        for d in diags:
            start, end = (i - len(BUILTIN_PREAMBLE) for i in d.span)
            lines.append(f"    {d.code} {start} {end} {d.message}")
    return "\n".join(lines) + "\n"


def test_builtin_diagnostics_match_the_golden_file(config):
    golden = (REPO_ROOT / "tests" / "golden" / "builtin_errors.txt").read_text(encoding="utf-8")
    assert builtin_outcomes(config) == golden


def test_a_projection_chain_evaluates_its_pair_once(base_sig, config):
    # fst (snd^j p) infers p once and projects its value step by step;
    # re-inferring and re-evaluating the inner chain at each level made
    # 253 and 903 evaluate calls at j = 20 and 40, quadratic in j.
    src = "postulate p : " + " × ".join(["Nat"] * 42)
    sig, diags = elaborate_signature(parse.parse_file(src), base_sig, config)
    assert not diags

    def evaluations(j):
        term = parse.parse_term("fst " + "(snd " * j + "p" + ")" * j)
        profile = cProfile.Profile()
        _, ty = profile.runcall(Elaborator(sig, config).infer, Context(), term)
        assert ty == conv.evaluate(sig, (), Nat(FIB))
        return call_count(profile, conv.evaluate)

    assert evaluations(40) <= 2.2 * evaluations(20)


def test_left_nested_domains_are_each_evaluated_once(config):
    # ((…(U0 -> U0) -> U0)…) -> U0: each domain hands back its value with
    # its term.  Evaluating each domain's term again, at every level above
    # it, made 2 001 001 evaluate calls at 2 000 levels.
    def evaluate_calls(levels):
        text = "def T : U1 := " + "(" * (levels - 1) + "U0 -> U0" + ") -> U0" * (levels - 1)
        profile = cProfile.Profile()
        _, diags = profile.runcall(
            elaborate_signature, parse.parse_file(text), initial_signature(config), config)
        assert not diags
        return call_count(profile, conv.evaluate)

    assert on_a_large_stack(evaluate_calls, 2000) <= 5 * on_a_large_stack(evaluate_calls, 500)


def test_kept_diagnostics_hold_no_frames(config):
    # A kept diagnostic with its traceback reaches the frame whose list
    # holds it: a reference cycle, which keeps every frame from the catch
    # to the raise alive until the cyclic collector runs.
    sources = [path.read_text(encoding="utf-8")
               for path in sorted((REPO_ROOT / "stdlib" / "negative").glob("*.tt"))]
    gc.collect()
    gc.disable()
    try:
        counts = [len(elaborate_signature(parse.parse_file(source), initial_signature(config),
                                          config)[1]) for source in sources]
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert counts == [1] * 10
