"""Acceptance criteria, one test per criterion, each printing a pass line
with its measured numbers.  Run with ``pytest -s tests/test_acceptance.py``
to see the lines as they go by."""

import time
from math import comb

from delta_oracle import compose, face_decompose, monos, recompose
from smallstep_oracle import normalize
from test_cli import run_cli
from termgen import TermGen

from tt2 import conv, parse
from tt2.core import Context, Signature
from tt2.delta import boundary_cells, enumerate_mono
from tt2.elab import elaborate_signature
from tt2.prelude import initial_signature
from tt2.sstgen import GenPlan, gen_sst


def test_acceptance_1_corpus_checks(manifest):
    started = time.monotonic()
    files = [f"stdlib/{e.path}" for e in manifest.accept_entries()]
    assert len(files) >= 10
    result = run_cli("check", *files)
    elapsed = time.monotonic() - started
    assert result.returncode == 0, result.stderr
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 1 PASS: {len(files)} corpus files check, exit 0, "
          f"{elapsed:.2f}s (< 10 s)")


def test_acceptance_2_negative_suite(config, manifest):
    rejects = manifest.reject_entries()
    assert len(rejects) >= 8
    guard_files = 0
    for entry in rejects:
        sig = initial_signature(config)
        _, diags = elaborate_signature(parse.parse_file(manifest.source(entry)), sig, config)
        assert diags, f"{entry.path} unexpectedly accepted"
        assert diags[0].code == entry.code, (
            f"{entry.path}: wanted {entry.code}, got {diags[0].code}"
        )
        if entry.code == "FIBRANCY":
            guard_files += 1
    assert guard_files == 4
    print(f"\nACCEPTANCE 2 PASS: {len(rejects)} negative files fail with their "
          f"manifest codes; {guard_files} dedicated fibrancy-guard files")


def test_acceptance_3_sst_generation_fidelity(config):
    started = time.monotonic()
    for n in range(5):
        sig = initial_signature(config)
        source = gen_sst(GenPlan(n))
        _, diags = elaborate_signature(parse.parse_file(source), sig, config)
        assert not diags, f"gen_sst({n}) does not recheck"
    # binder counts: level-k telescope has sum_{j<k} C(k+1, j+1) binders
    for n in range(1, 5):
        source = gen_sst(GenPlan(n))
        decl = parse.parse_file(source)[0]
        node = decl.body
        k = 0
        while isinstance(node, parse.RSigma) and node.binder is not None:
            binders = 0
            ty = node.fst
            while isinstance(ty, parse.RPi):
                binders += 1
                ty = ty.cod
            assert binders == sum(comb(k + 1, j + 1) for j in range(k))
            node, k = node.snd, k + 1
        assert k == n
    assert len(boundary_cells(3)) == 14
    assert [sum(1 for c in boundary_cells(3) if len(c) - 1 == d) for d in range(3)] == [4, 6, 4]
    assert "X1 : X0 -> X0 -> U0" in gen_sst(GenPlan(2))
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 3 PASS: gen_sst 0..4 recheck; telescope binder counts "
          f"match the binomial oracle; level-3 boundary is 4+6+4=14; level-2 "
          f"family is literal; {elapsed:.2f}s (< 5 s)")


def test_acceptance_4_delta_oracle():
    started = time.monotonic()
    for n in range(7):
        for k in range(n + 1):
            assert len(list(enumerate_mono(k, n))) == comb(n + 1, k + 1)
    for cod in range(6):
        for dom in range(cod + 1):
            for f in monos(dom, cod):
                assert recompose(dom, cod, face_decompose(f)) == f
    checked = 0
    for a in range(5):
        for b in range(5):
            for c in range(5):
                for d in range(5):
                    for f in monos(a, b):
                        for g in monos(b, c):
                            for h in monos(c, d):
                                assert compose(h, compose(g, f)) == compose(compose(h, g), f)
                                checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 4 PASS: counts to n=6, decomposition round-trips to "
          f"cod=5, {checked} associativity triples; {elapsed:.2f}s (< 10 s)")


def test_acceptance_5_nbe_correctness(config):
    sig = Signature()
    gen = TermGen(20260810)
    samples = [gen.sample(30) for _ in range(200)]
    for term, _ in samples:
        via_nbe = conv.nf(sig, Context(), term)
        assert via_nbe == normalize(sig, term)
        assert conv.nf(sig, Context(), via_nbe) == via_nbe
    # the 50 handcrafted eta pairs live in test_conv; re-run them here
    from test_conv import _eta_fixture, _value, eta_pairs

    pairs = eta_pairs()
    assert len(pairs) >= 50
    eta_sig = _eta_fixture(config)
    for lhs, rhs, ty in pairs:
        a, ty_v = _value(eta_sig, config, lhs, ty)
        b, _ = _value(eta_sig, config, rhs, ty)
        assert conv.convert(eta_sig, (), a, b, ty_v), (lhs, rhs, ty)
    print(f"\nACCEPTANCE 5 PASS: nf agrees with the small-step oracle on "
          f"{len(samples)} seeded terms (size <= 30), nf idempotent, "
          f"{len(pairs)} eta pairs convert")


def test_acceptance_6_determinism(manifest, tmp_path):
    files = [f"stdlib/{e.path}" for e in manifest.accept_entries()]
    first = run_cli("check", "--dump-core", *files)
    second = run_cli("check", "--dump-core", *files)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout and first.stdout
    gen_args = ("gen", "sst", "--levels", "4")
    g1, g2 = run_cli(*gen_args), run_cli(*gen_args)
    assert g1.stdout == g2.stdout and g1.returncode == 0
    s1 = run_cli("gen", "spine", "--levels", "3", "--literal-spine")
    s2 = run_cli("gen", "spine", "--levels", "3", "--literal-spine")
    assert s1.stdout == s2.stdout
    print("\nACCEPTANCE 6 PASS: elaborated-core dumps and generated files are "
          "byte-identical across separate runs")


def test_acceptance_7_flagship_derivations():
    repl = run_cli("check", "stdlib/fib_repl_inconsistent.tt")
    assert repl.returncode == 0, repl.stderr
    collapse = run_cli("check", "stdlib/uip_use.tt", "stdlib/collapse.tt")
    assert collapse.returncode == 0, collapse.stderr
    print("\nACCEPTANCE 7 PASS: the fibrant-replacement set-ness derivation "
          "and the equality-collapse construction both check")
