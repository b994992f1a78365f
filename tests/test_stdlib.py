"""Corpus behaviour: every accept file checks cleanly into the shared
signature with the expected number of entries; every reject file fails
with exactly its manifest code; and the flagship definitions compute."""

import pytest

from tt2 import conv, parse, pretty
from tt2.core import Const, Context, STRICT, Suc, Zero
from tt2.elab import Elaborator, elaborate_signature
from tt2.prelude import initial_signature


@pytest.fixture(scope="module")
def corpus_sig(config, manifest):
    sig = initial_signature(config)
    for entry in manifest.accept_entries():
        decls = parse.parse_file(manifest.source(entry))
        sig, diags = elaborate_signature(decls, sig, config)
        assert not diags, f"{entry.path}: {[d.message for d in diags]}"
    return sig


def test_manifest_covers_required_files(manifest):
    accept_names = {e.path for e in manifest.accept_entries()}
    required = {
        "fin.tt", "equiv.tt", "collapse.tt", "cocylinder.tt",
        "strict_cat.tt", "semi_segal2.tt", "fib_repl_inconsistent.tt",
    }
    assert required <= accept_names
    assert len(accept_names) >= 10
    assert len(manifest.reject_entries()) >= 8


def test_accept_files_have_expected_definition_counts(config, manifest):
    for entry in manifest.accept_entries():
        decls = parse.parse_file(manifest.source(entry))
        assert entry.expected_definitions == len(decls), entry.path


def test_accept_files_all_enter_the_signature(corpus_sig, manifest):
    expected = sum(e.expected_definitions for e in manifest.accept_entries())
    prelude_size = len(initial_signature().entries)
    assert len(corpus_sig.entries) == expected + prelude_size


@pytest.mark.parametrize("entry_path", [
    "negative/jf_strict_motive.tt",
    "negative/natelimf_strict_motive.tt",
    "negative/sumelimf_strict_motive.tt",
    "negative/emptyelimf_strict_motive.tt",
    "negative/natf_where_nats.tt",
    "negative/strict_universe_fibrant.tt",
    "negative/eqs_where_id.tt",
    "negative/u0_in_u0.tt",
    "negative/unbound.tt",
    "negative/uip_on_fibrant.tt",
])
def test_reject_files_fail_with_manifest_code(config, manifest, entry_path):
    entry = next(e for e in manifest.reject_entries() if e.path == entry_path)
    sig = initial_signature(config)
    decls = parse.parse_file(manifest.source(entry))
    _, diags = elaborate_signature(decls, sig, config)
    assert diags, f"{entry.path} unexpectedly checked"
    assert diags[0].code == entry.code


def test_four_guard_files_exist(manifest):
    fibrancy = [e for e in manifest.reject_entries() if e.code == "FIBRANCY"]
    assert len(fibrancy) == 4


def test_fin_computes(corpus_sig, config):
    elab = Elaborator(corpus_sig, config)

    def v(src):
        term, _ = elab.infer(Context(), parse.parse_term(src))
        return conv.evaluate(corpus_sig, (), term)

    # FinS zero is EmptyS; FinS (suc n) is SumS Unit (FinS n)
    assert conv.convert(corpus_sig, (), v("FinS zero"), v("EmptyS"), None)
    assert conv.convert(
        corpus_sig, (), v("FinS (suc zero)"), v("SumS Unit EmptyS"), None
    )
    assert conv.convert(
        corpus_sig, (), v("FinS (suc (suc zero))"), v("SumS Unit (SumS Unit EmptyS)"), None
    )
    assert conv.convert(corpus_sig, (), v("FinF zero"), v("Empty"), None)
    assert conv.convert(corpus_sig, (), v("FinF (suc zero)"), v("Sum Unit Empty"), None)


def test_addition_normalizes_in_corpus(corpus_sig, config):
    elab = Elaborator(corpus_sig, config)
    term, _ = elab.infer(Context(), parse.parse_term("addS (suc (suc zero)) (suc zero)"))
    three = Suc(STRICT, Suc(STRICT, Suc(STRICT, Zero(STRICT))))
    assert conv.nf(corpus_sig, Context(), term) == three


def test_cocylinder_factorization_is_definitional(corpus_sig, config):
    elab = Elaborator(corpus_sig, config)
    ty_core, _ = elab.ensure_type(Context(), parse.parse_term("ccA -> ccB"))
    ty_v = conv.evaluate(corpus_sig, (), ty_core)
    lhs = elab.check(Context(), parse.parse_term("\\a. ccProj (ccInto a)"), ty_v)
    lhs_v = conv.evaluate(corpus_sig, (), lhs)
    f_v = conv.evaluate(corpus_sig, (), Const("ccf"))
    assert conv.convert(corpus_sig, (), lhs_v, f_v, ty_v)


def test_flagship_witnesses_present(corpus_sig):
    for name in ("frIsSet", "roundTripFib", "roundTripStrict", "uaHolds", "natMonoid"):
        entry = corpus_sig.lookup(name)
        assert entry is not None and entry.body is not None


def test_prelude_axiom_kinds(corpus_sig):
    from tt2.core import DeclKind

    for name in ("uip", "funextS", "ua0", "ua1"):
        assert corpus_sig.lookup(name).kind is DeclKind.AXIOM
    assert corpus_sig.lookup("cA").kind is DeclKind.POSTULATE
    assert corpus_sig.lookup("addS").kind is DeclKind.DEFINITION


def test_corpus_core_prints_deterministically(corpus_sig):
    one = [pretty.pretty(e.ty, corpus_sig) for e in corpus_sig.entries.values()]
    two = [pretty.pretty(e.ty, corpus_sig) for e in corpus_sig.entries.values()]
    assert one == two
