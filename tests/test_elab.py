"""Elaboration: inference and checking behaviour, the fibrancy guard
table, coercion strictness, subsumption, determinism, and the
print-reparse-recheck stability of elaborated cores."""

import pytest

from termgen import TermGen
from tt2 import conv, core, parse, pretty
from tt2.core import FIB, Lam, Nat, Pi, Sort, STRICT, Star, Univ, Var, Zero
from tt2.diagnostics import Diagnostic
from tt2.elab import Config, Ctx, Elaborator, elaborate_signature
from tt2.prelude import initial_signature


@pytest.fixture()
def elab(base_sig, config):
    return Elaborator(base_sig, config)


def infer(elab, src):
    return elab.infer(Ctx(), parse.parse_term(src))


def check(elab, src, ty_src):
    ty_core, _ = elab.ensure_type(Ctx(), parse.parse_term(ty_src))
    ty_v = conv.evaluate(elab.sig, (), ty_core)
    return elab.check(Ctx(), parse.parse_term(src), ty_v)


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
        _, sort = elab.ensure_type(Ctx(), parse.parse_term(src))
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
    ctx = Ctx().extend("n", conv.VNat(FIB))
    with pytest.raises(Diagnostic) as exc:
        elab.infer(ctx, parse.parse_term(src))
    assert (exc.value.code, exc.value.span, exc.value.message) == (code, span, message)


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
            elab.infer(Ctx(), parse.parse_term(src))
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
        elab.infer(Ctx(), parse.parse_term("J (\\c q. hA) ha hb hb hp"))
    assert exc.value.code == "TYPE_MISMATCH"


TELESCOPES = """\
postulate X0 : U0
postulate X1 : X0 -> X0 -> U0
def Y : X0 -> X0 -> U0 := X1
postulate F : (a0 : X0) -> (a1 : X0) -> X1 a0 a1 -> U0
postulate FY : (a0 : X0) -> (a1 : X0) -> Y a0 a1 -> U0
postulate G : (P : X0 -> U0) -> (a : X0) -> P a -> U0
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
])
def test_telescope_arguments_are_checked_against_domain_terms(base_sig, config, decl, diagnostics):
    sig, diags = elaborate_signature(parse.parse_file(TELESCOPES), base_sig, config)
    assert not diags
    _, diags = elaborate_signature(parse.parse_file(decl), sig, config)
    assert [(d.code, d.span, d.message) for d in diags] == diagnostics


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
    if isinstance(t, Var):
        return t.index == index
    return any(_occurs(getattr(t, name), index + off) for name, off in t.SUB)


def test_printer_binder_choice_matches_naive_occurrence(config, manifest):
    sig = initial_signature(config)
    for entry in manifest.accept_entries():
        sig, diags = elaborate_signature(parse.parse_file(manifest.source(entry)), sig, config)
        assert not diags
    terms = [t for e in sig.entries.values() for t in (e.ty, e.body) if t is not None]
    gen = TermGen(11)
    for _ in range(200):
        terms.extend(gen.sample(40))
    checked = dependent = 0
    for term in terms:
        found = pretty._dependent_binders(term)
        stack = [term]
        while stack:
            t = stack.pop()
            if isinstance(t, (core.Pi, core.Sigma)):
                body = t.cod if isinstance(t, core.Pi) else t.snd
                assert (id(t) in found) == _occurs(body, 0)
                checked += 1
                dependent += id(t) in found
            stack.extend(getattr(t, name) for name, _ in t.SUB)
    assert checked > dependent > 100


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
        recheck = elab.check(Ctx(), reparsed, ty_v)
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
            _, got = elab.infer(Ctx(), reparsed)
        except Diagnostic as diag:
            assert diag.code == "CANNOT_INFER"
            continue
        declared = conv.evaluate(sig, (), entry.ty)
        assert conv.convert(sig, (), got, declared, None), entry.name
        sampled += 1
    assert sampled >= 5
