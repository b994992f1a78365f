"""Normalization by evaluation against the independent small-step oracle,
idempotence, eta laws, conversion as an equivalence relation, and the
inertness of the built-in axioms."""

import cProfile

import pytest

from conftest import REPO_ROOT
from smallstep_oracle import normalize
from termgen import TermGen

from tt2 import conv, parse, pretty
from tt2.core import (
    App, Const, Context, FIB, Lam, Nat, NatElim, Pair, Fst, Signature,
    Star, STRICT, Suc, Var, Zero,
)
from tt2.elab import Ctx, Elaborator, elaborate_signature
from tt2.prelude import initial_signature
from tt2.sstgen import GenPlan, gen_segal_scaffold, gen_sst

EMPTY = Signature()


def nf0(t):
    return conv.nf(EMPTY, Context(), t)


def test_eval_examples():
    assert nf0(App(Lam(Var(0)), Star())) == Star()
    # one recursor step: elim (\n. Nat) z (\n r. suc r) (suc zero) --> suc z
    elim = NatElim(FIB, Nat(FIB), Zero(FIB), Suc(FIB, Var(0)), Suc(FIB, Zero(FIB)))
    assert nf0(elim) == Suc(FIB, Zero(FIB))
    assert nf0(Fst(Pair(Star(), Zero(FIB)))) == Star()


def test_js_computes_on_refls(base_sig, config):
    elab = Elaborator(base_sig, config)
    src = "JS (\\c q. NatS) (suc zero) zero zero (reflS NatS zero)"
    term, _ = elab.infer(Ctx(), parse.parse_term(src))
    assert conv.nf(base_sig, Context(), term) == Suc(STRICT, Zero(STRICT))


def test_quote_examples():
    assert conv.quote(EMPTY, 0, conv.VStar()) == Star()
    neutral = conv.VNeutral(conv.VarHead(0), (conv.FApp(conv.VStar()),))
    assert conv.quote(EMPTY, 1, neutral) == App(Var(0), Star())
    applied = App(Lam(Suc(FIB, Var(0))), Zero(FIB))
    assert nf0(applied) == Suc(FIB, Zero(FIB))


def test_strict_addition_normalizes():
    add_2_0 = NatElim(
        STRICT, Nat(STRICT), Zero(STRICT), Suc(STRICT, Var(0)),
        Suc(STRICT, Suc(STRICT, Zero(STRICT))),
    )
    # recursion on the first argument of addition: 2 + 0
    assert nf0(add_2_0) == Suc(STRICT, Suc(STRICT, Zero(STRICT)))


@pytest.fixture(scope="module")
def sample_terms():
    gen = TermGen(20260810)
    return [gen.sample(30) for _ in range(250)]


def test_nf_agrees_with_small_step_oracle(sample_terms):
    for term, _ in sample_terms:
        assert conv.nf(EMPTY, Context(), term) == normalize(EMPTY, term)


def test_nf_is_idempotent(sample_terms):
    for term, _ in sample_terms:
        once = conv.nf(EMPTY, Context(), term)
        assert conv.nf(EMPTY, Context(), once) == once


def _eta_fixture(config):
    src = """
postulate eA : U0
postulate eB : U0
postulate ef : eA -> eB
postulate eg : eA -> eA -> eB
postulate ep : eA × eB
postulate edep : (x : eA) × eB
postulate eu : Unit
postulate eh : Unit -> Unit
"""
    sig = initial_signature(config)
    sig, diags = elaborate_signature(parse.parse_file(src), sig, config)
    assert not diags
    return sig


def _value(sig, config, src, ty_src):
    elab = Elaborator(sig, config)
    ty_core, _ = elab.ensure_type(Ctx(), parse.parse_term(ty_src))
    ty_v = conv.evaluate(sig, (), ty_core)
    term = elab.check(Ctx(), parse.parse_term(src), ty_v)
    return conv.evaluate(sig, (), term), ty_v


def eta_pairs():
    """Fifty positive eta instances across functions, pairs, and unit."""
    pairs = []
    for f in ("ef", "(\\x. ef x)"):
        pairs.append((f, "\\x. ef x", "eA -> eB"))
    pairs.append(("eg", "\\x. eg x", "eA -> eA -> eB"))
    pairs.append(("eg", "\\x y. eg x y", "eA -> eA -> eB"))
    pairs.append(("(\\x. eg x)", "\\x y. eg x y", "eA -> eA -> eB"))
    pairs.append(("ep", "(fst ep , snd ep)", "eA × eB"))
    pairs.append(("edep", "(fst edep , snd edep)", "(x : eA) × eB"))
    pairs.append(("eu", "star", "Unit"))
    pairs.append(("eh eu", "star", "Unit"))
    pairs.append(("eh star", "eu", "Unit"))
    pairs.append(("(\\x. x)", "\\y. y", "Unit -> Unit"))
    pairs.append(("eh", "\\u. eh u", "Unit -> Unit"))
    pairs.append(("(ep , eu)", "((fst ep , snd ep) , star)", "(eA × eB) × Unit"))
    pairs.append(("(\\x. (eg x , star))", "\\x. ((\\y. eg x y) , eu)", "eA -> (eA -> eB) × Unit"))
    while len(pairs) < 50:
        k = len(pairs)
        reassoc = "ep" if k % 2 else "(fst ep , snd ep)"
        pairs.append((reassoc, "(fst ep , snd ep)", "eA × eB"))
    return pairs


@pytest.mark.parametrize("lhs,rhs,ty", eta_pairs())
def test_eta_positive_cases(config, lhs, rhs, ty):
    sig = _eta_fixture(config)
    a, ty_v = _value(sig, config, lhs, ty)
    b, _ = _value(sig, config, rhs, ty)
    assert conv.convert(sig, 0, a, b, ty_v)


def test_convert_is_reflexive_on_random_terms(sample_terms):
    # Two evaluations of one term share no value object, so conversion has
    # to walk them instead of stopping at ``a is b``.
    for term, ty in sample_terms:
        a = conv.evaluate(EMPTY, (), term)
        b = conv.evaluate(EMPTY, (), term)
        ty_v = conv.evaluate(EMPTY, (), ty)
        assert conv.convert(EMPTY, 0, a, b, ty_v)


def test_convert_is_reflexive_on_corpus_signature(config, manifest):
    sig = initial_signature(config)
    for entry in manifest.accept_entries():
        sig, diags = elaborate_signature(parse.parse_file(manifest.source(entry)), sig, config)
        assert not diags
    for name, entry in sig.entries.items():
        # Dropping the unfolding cache makes the second evaluation build
        # every value again, unfolded constants included.
        sig.body_values.clear()
        a = conv.evaluate(sig, (), entry.ty)
        sig.body_values.clear()
        b = conv.evaluate(sig, (), entry.ty)
        assert a is not b
        assert conv.convert_type(sig, 0, a, b), name


def test_convert_symmetric_transitive_on_corpus(sample_terms):
    # group sampled terms by type; compare within small groups
    by_type = {}
    for term, ty in sample_terms[:120]:
        by_type.setdefault(ty, []).append(term)
    checked = 0
    for ty, terms in by_type.items():
        ty_v = conv.evaluate(EMPTY, (), ty)
        values = [conv.evaluate(EMPTY, (), t) for t in terms[:6]]
        for i, a in enumerate(values):
            for j, b in enumerate(values):
                ab = conv.convert(EMPTY, 0, a, b, ty_v)
                ba = conv.convert(EMPTY, 0, b, a, ty_v)
                assert ab == ba  # symmetry
                if not ab:
                    continue
                for c in values:
                    if conv.convert(EMPTY, 0, b, c, ty_v):
                        assert conv.convert(EMPTY, 0, a, c, ty_v)  # transitivity
                        checked += 1
    assert checked > 0


def test_distinct_layer_types_do_not_convert():
    assert not conv.convert_type(EMPTY, 0, conv.VNat(FIB), conv.VNat(STRICT))
    assert not conv.convert_type(EMPTY, 0, conv.VEmpty(FIB), conv.VEmpty(STRICT))


def test_axioms_are_inert(base_sig):
    for name in ("uip", "funextS", "ua0", "ua1"):
        v = conv.evaluate(base_sig, (), Const(name))
        assert isinstance(v, conv.VNeutral)
        assert v.head == conv.ConstHead(name)
        norm = conv.nf(base_sig, Context(), Const(name))
        assert norm == Const(name)


def test_applied_axiom_stays_neutral(base_sig, config):
    elab = Elaborator(base_sig, config)
    term, _ = elab.infer(Ctx(), parse.parse_term("uip NatS zero zero"))
    norm = conv.nf(base_sig, Context(), term)
    assert norm == App(App(App(Const("uip"), Nat(STRICT)), Zero(STRICT)), Zero(STRICT))


def test_definitions_unfold(base_sig, config):
    src = "def three : NatS := suc (suc (suc zero))\ndef also : NatS := three"
    sig, diags = elaborate_signature(parse.parse_file(src), base_sig, config)
    assert not diags
    expected = Suc(STRICT, Suc(STRICT, Suc(STRICT, Zero(STRICT))))
    assert conv.nf(sig, Context(), Const("also")) == expected


def test_nf_matches_printed_surface(base_sig, config):
    elab = Elaborator(base_sig, config)
    term, _ = elab.infer(
        Ctx(), parse.parse_term("natelimS (\\n. NatS) (suc (suc zero)) (\\n r. suc r) zero")
    )
    printed = pretty.pretty(conv.nf(base_sig, Context(), term), base_sig)
    assert printed == "suc (suc zero)"


def test_segal5_evaluation_work_is_bounded(config):
    # Eliminating a neutral only extends its spine; computing its type
    # there too made this elaboration evaluate about 180 000 times.
    # Call counts are deterministic, unlike wall time.
    equiv = (REPO_ROOT / "stdlib" / "equiv.tt").read_text(encoding="utf-8")
    sig, diags = elaborate_signature(parse.parse_file(equiv), initial_signature(config), config)
    assert not diags
    decls = parse.parse_file(gen_segal_scaffold(GenPlan(5, emit=frozenset({"segal"}))))
    profile = cProfile.Profile()
    sig, diags = profile.runcall(elaborate_signature, decls, sig, config)
    assert not diags
    assert _calls(profile, conv.evaluate) < 40_000


def test_sst6_conversion_work_is_bounded(config):
    # A variable's value is shared by reference, so most spine arguments
    # compared here are one object on both sides; conversion stops at
    # ``a is b`` instead of walking them (about 2 500 calls without that).
    decls = parse.parse_file(gen_sst(GenPlan(6)))
    profile = cProfile.Profile()
    _, diags = profile.runcall(elaborate_signature, decls, initial_signature(config), config)
    assert not diags
    assert _calls(profile, conv._convert_spine) < 1_000


def _calls(profile, fn):
    # Keyed by code object: pstats keys (file, line, name) collide for the
    # methods dataclasses generates.
    return sum(e.callcount for e in profile.getstats() if e.code is fn.__code__)
