"""Normalization by evaluation against the independent small-step oracle,
idempotence, eta laws (inside neutral spines too, against eta-long normal
forms), conversion as an equivalence relation, and the inertness of the
built-in axioms."""

import cProfile
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import REPO_ROOT, call_count, fails_fast_on_recursion
from smallstep_oracle import app, children, normalize, shift
from termgen import TermGen, eta_instance

from tt2 import conv, core, parse, pretty
from tt2.core import (
    App, Const, Context, DeclKind, FIB, Inl, InternalError, Lam, Nat, NatElim, Pair, Pi, Fst,
    SigEntry, Sigma, Signature, Snd, Star, STRICT, Suc, Sum, Unit, Var, Zero, is_scope_closed,
)
from tt2.elab import Config, Elaborator, elaborate_signature
from tt2.prelude import initial_signature
from tt2.sstgen import GenPlan, gen_segal_scaffold, gen_sst

EMPTY = Signature()


def nf0(t):
    return conv.nf(EMPTY, Context(), t)


def test_eval_examples():
    assert nf0(app(Lam(Var(0)), Star())) == Star()
    # one recursor step: elim (\n. Nat) z (\n r. suc r) (suc zero) --> suc z
    elim = NatElim(FIB, Nat(FIB), Zero(FIB), Suc(FIB, Var(0)), Suc(FIB, Zero(FIB)))
    assert nf0(elim) == Suc(FIB, Zero(FIB))
    assert nf0(Fst(Pair(Star(), Zero(FIB)))) == Star()


def test_application_chain_evaluates_as_nested_applications():
    sig = Signature()
    for name in ("f", "a", "b", "c"):
        sig.add(SigEntry(name, Unit(), None, DeclKind.POSTULATE))
    f, a, b, c = (Const(name) for name in "fabc")
    # (\x y. f y x) a b c: two arguments are substituted, then the head is
    # stuck and takes the third into its spine
    swap = Lam(Lam(app(f, Var(0), Var(1))))
    value = conv.evaluate(sig, (), app(swap, a, b, c))
    args = [conv.evaluate(sig, (), t) for t in (b, a, c)]
    assert value == conv.VNeutral(conv.ConstHead("f"), tuple(args))
    env = (conv.fresh(0),)
    assert conv.evaluate(sig, env, app(f, Var(0), Var(0))).spine == (env[0],) * 2
    for term in (app(f, a, Var(1)), app(f, Var(1))):
        with pytest.raises(InternalError, match="unbound index 1"):
            conv.evaluate(sig, env, term)


@fails_fast_on_recursion
def test_long_numerals_evaluate_and_eliminate_in_a_loop():
    # 3000 levels, three times the default recursion limit
    def numeral(n):
        t = Zero(FIB)
        for _ in range(n):
            t = Suc(FIB, t)
        return t

    assert nf0(numeral(3000)) == numeral(3000)
    double = NatElim(FIB, Nat(FIB), Zero(FIB), Suc(FIB, Suc(FIB, Var(0))), numeral(3000))
    assert nf0(double) == numeral(6000)


def test_sst7_evaluation_work_is_bounded(config):
    # An application chain evaluates its head once and its spine in one
    # tuple, and a variable argument is read without a call; evaluating
    # each application of a chain separately took 33 179 calls here.
    # Arguments are compared with the Π-telescope's domain terms before
    # any domain is evaluated; instantiating every domain took 9 692.
    decls = parse.parse_file(gen_sst(GenPlan(7)))
    profile = cProfile.Profile()
    _, diags = profile.runcall(elaborate_signature, decls, initial_signature(config), config)
    assert not diags
    assert call_count(profile, conv.evaluate) <= 2_000
    # An argument whose type that comparison shows to be the domain is not
    # checked again (2 539 conversions when it was), and a name is found
    # without scanning the context (2 778 ``tuple.index`` calls when it was).
    assert call_count(profile, Elaborator._conform) <= 300
    assert not [e for e in profile.getstats() if "'index' of 'tuple'" in str(e.code)]


def test_js_computes_on_refls(base_sig, config):
    elab = Elaborator(base_sig, config)
    src = "JS (\\c q. NatS) (suc zero) zero zero (reflS NatS zero)"
    term, _ = elab.infer(Context(), parse.parse_term(src))
    assert conv.nf(base_sig, Context(), term) == Suc(STRICT, Zero(STRICT))


def test_quote_examples():
    assert conv.quote(EMPTY, 0, conv.VStar()) == Star()
    neutral = conv.VNeutral(conv.VarHead(0), (conv.VStar(),))
    assert conv.quote(EMPTY, 1, neutral) == app(Var(0), Star())
    applied = app(Lam(Suc(FIB, Var(0))), Zero(FIB))
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


def test_nf_of_open_terms_agrees_with_small_step_oracle():
    # A sample's body under its leading lambdas is an open term: normalised
    # under that many fresh binders, its free variables are neutral heads
    # and spine arguments and read back as the same indices.
    gen = TermGen(20261019)
    checked = 0
    for _ in range(1500):
        term, _ = gen.sample(30)
        ctx = Context()
        while term.__class__ is Lam:
            term, ctx = term.body, ctx.extend(None, None, conv.fresh(len(ctx.env)))
        if ctx.env:
            assert conv.nf(EMPTY, ctx, term) == normalize(EMPTY, term)
            checked += 1
    assert checked == 171


class _HoistingGen(TermGen):
    """Hoists each closed subterm it draws, with probability 0.3, into a
    definition ``c<k> : ty := t`` and puts ``Const("c<k>")`` in its place,
    so later definitions and terms unfold chains of earlier ones."""

    def __init__(self, seed: int):
        super().__init__(seed)
        self.sig = Signature()

    def _term(self, ty, env, budget):
        term = super()._term(ty, env, budget)
        if is_scope_closed(term) and self.rng.random() < 0.3:
            name = f"c{len(self.sig.entries)}"
            self.sig.add(SigEntry(name, ty, term, DeclKind.DEFINITION))
            return Const(name)
        return term


def _mentions_const(t):
    stack = [t]
    while stack:
        t = stack.pop()
        if t.__class__ is Const:
            return True
        stack.extend(sub for sub, _ in children(t))
    return False


def test_nf_unfolds_definitions_as_the_small_step_oracle_does():
    gen = _HoistingGen(20261019)
    terms = [gen.sample(30)[0] for _ in range(300)]
    assert len(gen.sig.entries) == 472
    assert sum(_mentions_const(t) for t in terms) == 211
    for term in terms:
        assert conv.nf(gen.sig, Context(), term) == normalize(gen.sig, term)


@fails_fast_on_recursion
def test_telescopes_lambda_chains_and_spines_read_back_in_a_loop():
    # 3000 binders, three times the default recursion limit; each innermost
    # body names the outermost binder
    width = 3000
    pis = lams = sigmas = Var(width - 1)
    for _ in range(width):
        pis, lams, sigmas = Pi(Unit(), pis), Lam(lams), Sigma(Nat(FIB), sigmas)
    for t in (pis, lams, sigmas):
        assert nf0(t) == t
    # a spine of bound variables reads back as the same indices, and one
    # whose argument escapes the depth is still an internal error
    ctx, spine = Context(), App(Var(width - 1), tuple(map(Var, range(width - 1))))
    for i in range(width):
        ctx = ctx.extend(None, None, conv.fresh(i))
    assert conv.nf(EMPTY, ctx, spine) == spine
    escaping = conv.VNeutral(conv.VarHead(0), (conv.fresh(5),))
    with pytest.raises(InternalError, match="level 5 escapes depth 1"):
        conv.quote(EMPTY, 1, escaping)


@fails_fast_on_recursion
def test_nested_formers_read_back_at_one_frame_per_level():
    # 900 levels under the default recursion limit of 1000, where two
    # Python frames per level would fit about 500; a Sum chain nests in
    # its first field, as `T i : U0 := Sum T(i-1) Nat` does through constants
    sums, inls = Nat(FIB), Zero(FIB)
    for _ in range(900):
        sums, inls = Sum(FIB, sums, Nat(FIB)), Inl(FIB, inls)
    for t in (sums, inls):
        assert nf0(t) == t


def segal_signature(config, n):
    """``SegalCondition{n}``, generated with no prefix and checked after
    ``stdlib/equiv.tt`` in a signature of its own."""
    equiv = (REPO_ROOT / "stdlib" / "equiv.tt").read_text(encoding="utf-8")
    source = equiv + gen_segal_scaffold(GenPlan(n, emit=frozenset({"segal"})))
    sig, diags = elaborate_signature(parse.parse_file(source), initial_signature(config), config)
    assert not diags, n
    return sig


def normal_forms(config, manifest):
    """What ``tt2 eval`` prints, as ``name := normal form`` lines: each
    definition of the accept corpus, elaborated into one signature in
    MANIFEST order, then ``SegalCondition2`` to ``5``, each in the
    signature of ``segal_signature``."""
    sig, names = initial_signature(config), []
    for entry in manifest.accept_entries():
        decls = parse.parse_file(manifest.source(entry))
        sig, diags = elaborate_signature(decls, sig, config)
        assert not diags, entry.path
        names += [(sig, d.name) for d in decls if d.kind == "def"]
    names += [(segal_signature(config, n), f"SegalCondition{n}") for n in range(2, 6)]
    return [f"{name} := {pretty.pretty(conv.nf(s, Context(), s.lookup(name).body), s)}"
            for s, name in names]


def test_normal_forms_match_the_golden_file(config, manifest):
    # tests/golden/nf.dump was written before conv read its formers from
    # one table; it pins the printed normal forms, as accept.dump pins the
    # elaborated core.
    golden = (REPO_ROOT / "tests" / "golden" / "nf.dump").read_text(encoding="utf-8")
    assert normal_forms(config, manifest) == golden.splitlines()


def test_a_defined_constant_is_read_back_once_and_shared(config):
    sig = segal_signature(config, 5)
    profile = cProfile.Profile()
    term = profile.runcall(conv.nf, sig, Context(), sig.lookup("SegalCondition5").body)
    # 353 and 1088 while every occurrence of Tot5 and Spine5 was read back
    assert call_count(profile, conv.quote) <= 150
    assert call_count(profile, conv.evaluate) <= 500
    tot = sig.read_backs[id(sig.body_values["Tot5"])][1]
    places, stack = [], [term]
    while stack:
        t = stack.pop()
        if t == tot:
            places.append(t)
        else:
            stack.extend(sub for sub, _ in children(t))
    assert len(places) == 4 and all(t is tot for t in places)


def test_a_read_back_cut_short_keeps_its_entry_unfilled(config, monkeypatch):
    # A RecursionError inside a read-back leaves each entry it reached
    # unfilled, not removed: the next read-back fills it and shares it.
    sig = segal_signature(config, 5)
    value = conv.evaluate(sig, (), sig.lookup("SegalCondition5").body)
    keys = set(sig.read_backs)

    def too_deep(*args):
        raise RecursionError

    monkeypatch.setattr(conv, "_quote_fields", too_deep)
    with pytest.raises(RecursionError):
        conv.quote(sig, 0, value)
    monkeypatch.undo()
    assert set(sig.read_backs) == keys
    fresh = segal_signature(config, 5)
    assert conv.quote(sig, 0, value) == conv.nf(fresh, Context(), fresh.lookup("SegalCondition5").body)
    assert len(sig.read_backs[id(sig.body_values["Tot5"])]) == 2


def test_read_backs_outlive_a_cleared_value_cache(config, manifest):
    # Each read_backs entry holds its value, so clearing body_values frees
    # no value whose id an entry still names: no stale id matches.
    def corpus():
        sig = initial_signature(config)
        for entry in manifest.accept_entries():
            sig, diags = elaborate_signature(parse.parse_file(manifest.source(entry)), sig, config)
            assert not diags, entry.path
        return sig

    def normal_forms_of(sig):
        return [conv.nf(sig, Context(), e.body) for e in sig.entries.values() if e.body is not None]

    sig = corpus()
    normal_forms_of(sig)
    sig.body_values.clear()
    assert normal_forms_of(sig) == normal_forms_of(corpus())


def _apps(t):
    """The number of core ``App`` nodes in ``t``, each asserted to be in
    spine form: a non-empty tuple of arguments and a head that is no App."""
    count, stack = 0, [t]
    while stack:
        t = stack.pop()
        if t.__class__ is App:
            assert t.args.__class__ is tuple and t.args and t.fn.__class__ is not App, t
            count += 1
        stack.extend(sub for sub, _ in children(t))
    return count


def test_core_applications_are_in_spine_form(config, manifest):
    # Elaborated entries of the accept corpus and their normal forms;
    # random closed terms and their normal forms; and normal forms with
    # neutral applications between projections, from eta instances.
    sig = initial_signature(config)
    for entry in manifest.accept_entries():
        sig, diags = elaborate_signature(parse.parse_file(manifest.source(entry)), sig, config)
        assert not diags, entry.path
    elaborated = [t for e in sig.entries.values() for t in (e.ty, e.body) if t is not None]
    gen = TermGen(20261019)
    samples = [gen.sample(30)[0] for _ in range(300)]
    rng = random.Random(20261019)
    eta = [t for _ in range(300) for t in eta_instance(rng)[1:]]
    counts = []
    for terms, sig_of in ((elaborated, sig), (samples, EMPTY), (eta, EMPTY)):
        counts.append(sum(map(_apps, terms)))
        counts.append(sum(_apps(conv.nf(sig_of, Context(), t)) for t in terms))
    # closed random terms normalise to terms with no application
    assert counts[3] == 0 and all(counts[:3] + counts[4:]), counts


def _raw_chains(raw):
    """The application chains of a raw term: its ``RApp`` nodes, since no
    ``RApp`` heads another."""
    count, stack = 0, [raw]
    while stack:
        r = stack.pop()
        count += r.__class__ is parse.RApp
        for name in r.__match_args__:
            x = getattr(r, name)
            stack.extend(y for y in (x if x.__class__ is tuple else (x,)) if isinstance(y, parse.Raw))
    return count


def test_sst_elaborates_one_app_per_application_chain(config):
    counts = []
    for n in range(1, 8):
        decl, = parse.parse_file(gen_sst(GenPlan(n)))
        sig, diags = elaborate_signature([decl], initial_signature(config), config)
        assert not diags
        assert _apps(sig.lookup(decl.name).body) == _raw_chains(decl.body), n
        counts.append(_raw_chains(decl.body))
    assert counts == [0, 0, 3, 13, 38, 94, 213]


def test_shared_leaves_stay_intact(config, manifest):
    # Values are unfrozen records for speed, so the leaves that evaluation
    # shares (one neutral per level, one Const per name, an argument's value
    # in every spine that applies to it) must never be assigned to.  Checking
    # and printing the corpus, Segal-2..5 and SST-6 leave each as it was built.
    assert conv.fresh(3) is conv.fresh(3)
    sig = Signature()
    for name in "fab":
        sig.add(SigEntry(name, Unit(), None, DeclKind.POSTULATE))
    va, vb = (conv.evaluate(sig, (), Const(name)) for name in "ab")
    spine = conv.evaluate(sig, (), app(Const("f"), Const("a"), Const("b"))).spine
    assert spine == (va, vb) and spine[0] is va and spine[1] is vb
    normal_forms(config, manifest)
    _, diags = elaborate_signature(parse.parse_file(gen_sst(GenPlan(6))), initial_signature(config), config)
    assert not diags
    neutrals, consts = conv.fresh.__self__, core.const.__self__
    assert len(neutrals) >= 6 and consts
    for level, leaf in neutrals.items():
        assert leaf.__class__ is conv.VNeutral and leaf.head.level == level and leaf.spine == ()
    for name, leaf in consts.items():
        assert leaf.name == name


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
    ty_core, _ = elab.ensure_type(Context(), parse.parse_term(ty_src))
    ty_v = conv.evaluate(sig, (), ty_core)
    term = elab.check(Context(), parse.parse_term(src), ty_v)
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
    assert conv.convert(sig, (), a, b, ty_v)


def test_convert_is_reflexive_on_random_terms(sample_terms):
    # Two evaluations of one term share no value object, so conversion has
    # to walk them instead of stopping at ``a is b``.
    for term, ty in sample_terms:
        a = conv.evaluate(EMPTY, (), term)
        b = conv.evaluate(EMPTY, (), term)
        ty_v = conv.evaluate(EMPTY, (), ty)
        assert conv.convert(EMPTY, (), a, b, ty_v)


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
        assert conv.convert(sig, (), a, b, None), name


def test_convert_symmetric_transitive_on_corpus(sample_terms):
    # group sampled terms by type (terms do not hash: keyed by their repr);
    # compare within small groups
    by_type = {}
    for term, ty in sample_terms[:120]:
        by_type.setdefault(repr(ty), (ty, []))[1].append(term)
    checked = 0
    for ty, terms in by_type.values():
        ty_v = conv.evaluate(EMPTY, (), ty)
        values = [conv.evaluate(EMPTY, (), t) for t in terms[:6]]
        for i, a in enumerate(values):
            for j, b in enumerate(values):
                ab = conv.convert(EMPTY, (), a, b, ty_v)
                ba = conv.convert(EMPTY, (), b, a, ty_v)
                assert ab == ba  # symmetry
                if not ab:
                    continue
                for c in values:
                    if conv.convert(EMPTY, (), b, c, ty_v):
                        assert conv.convert(EMPTY, (), a, c, ty_v)  # transitivity
                        checked += 1
    assert checked > 0


# Each definition checks only if eta for Unit holds inside a neutral spine:
# in an application argument, nested, between neutrals of a type with one
# value, and in a case of an eliminator frame.
SPINE_ETA_SOURCE = """
postulate A : U0
postulate f : Unit -> Nat
postulate g : A × Unit -> Nat
postulate g' : Unit × A -> Nat
postulate h : (Nat -> Unit) -> Nat
postulate u : Unit -> Unit
postulate m : Nat -> Nat
postulate n : Unit -> Nat
postulate k : Nat -> Unit
postulate k2 : Nat -> Nat -> Unit
def argument (x : Unit) : Id Nat (f x) (f star) := refl Nat (f x)
def pairArgument (p : A × Unit) : Id Nat (g p) (g (fst p , star)) := refl Nat (g p)
def pairArgumentFirst (p : Unit × A) : Id Nat (g' p) (g' (star , snd p)) := refl Nat (g' p)
def functionArgument (j : Nat -> Unit) : Id Nat (h j) (h (\\i. star)) := refl Nat (h j)
def nested (x : Unit) : Id Nat (f (u x)) (f (u star)) := refl Nat (f (u x))
def nestedBelowNat (x : Unit) : Id Nat (m (n x)) (m (n star)) := refl Nat (m (n x))
def differentHeads (x y : Unit) : Id Nat (f x) (f y) := refl Nat (f x)
def unitValuedArgument : Id Nat (f (k zero)) (f (k (suc zero))) := refl Nat (f (k zero))
def functionIntoUnit : Id Nat (h (k2 zero)) (h (k2 (suc zero))) := refl Nat (h (k2 zero))
def natelimZeroCase (i : Nat) (x : Unit) :
  Id Nat (fst (natelim (\\_. Nat × Unit) (zero , x) (\\_ r. r) i))
         (fst (natelim (\\_. Nat × Unit) (zero , star) (\\_ r. r) i)) :=
  refl Nat (fst (natelim (\\_. Nat × Unit) (zero , x) (\\_ r. r) i))
"""


def test_unit_eta_holds_inside_neutral_spines(config):
    decls = parse.parse_file(SPINE_ETA_SOURCE)
    _, diags = elaborate_signature(decls, initial_signature(config), config)
    assert [(d.code, d.message) for d in diags] == []


def test_spine_arguments_that_differ_stay_unequal(config):
    src = """
postulate f : Nat -> Nat
def t : Id Nat (f zero) (f (suc zero)) := refl Nat (f zero)
"""
    _, diags = elaborate_signature(parse.parse_file(src), initial_signature(config), config)
    assert [d.code for d in diags] == ["TYPE_MISMATCH"]


# Frames other than applications, in neutral spines that conversion and
# read-back meet: ``e1`` and ``e2`` hold by Unit eta at the type of a
# projection and of a J frame, ``e3`` compares two ex falso motives, and
# the λs read back a stuck eliminator of each kind.
ELIMINATOR_SPINE_SOURCE = """
postulate p : Unit × Unit
postulate g : Unit -> Nat
def e1 : Id Nat (g (fst p)) (g (snd p)) := refl Nat (g (fst p))
postulate A : U0
postulate a : A
postulate b : A
postulate r : Id A a b
postulate s : Id A a b
def e2 : Id Nat (g (J (\\y q. Unit) star a b r)) (g (J (\\y q. Unit) star a b s)) :=
  refl Nat (g (J (\\y q. Unit) star a b r))
postulate z : Empty
def e3 : Id Nat (exfalso (\\w. Nat) z) (exfalso (\\v. Nat) z) := refl Nat (exfalso (\\w. Nat) z)
def k1 : Nat -> Nat := \\k. natelim (\\n. Nat) zero (\\n ih. suc ih) k
def t1 : Unit × Unit -> Unit := \\t. fst t
def t2 : Unit × Unit -> Unit := \\t. snd t
def t3 : Empty -> Nat := \\t. exfalso (\\v. Nat) t
def t4 : Sum Unit Nat -> Nat := \\t. sumelim (\\v. Nat) (\\u. zero) (\\n. suc n) t
def t5 : Id A a b -> Nat := \\t. J (\\y q. Nat) zero a b t
"""


@pytest.fixture(scope="module")
def eliminator_spine_sig():
    config = Config()
    decls = parse.parse_file(ELIMINATOR_SPINE_SOURCE)
    sig, diags = elaborate_signature(decls, initial_signature(config), config)
    assert [(d.code, d.message) for d in diags] == []
    return sig


@pytest.mark.parametrize("name", ["e1", "e2", "e3", "k1", "t1", "t2", "t3", "t4", "t5"])
def test_eliminator_spines_normalize_as_the_oracle_does(eliminator_spine_sig, name):
    sig = eliminator_spine_sig
    body = sig.entries[name].body
    assert conv.nf(sig, Context(), body) == normalize(sig, body)


# Each eliminator's typing rule gives the types of the variables a frame's
# motive and cases bind, and the type each case is compared at.  Each
# definition below checks only if conversion reads one of them: the step
# case of natelim, each case of sumelim, and the first binder of J's
# motive bind or return a variable of type Unit that only η makes equal to
# another.  Conversion first compares a frame without types, so each pair
# differs there and needs the rule's types to be equal.
ELIMINATOR_RULE_PREAMBLE = """
postulate g : Unit -> Nat
postulate P : Unit -> U0
postulate Q : Unit -> U0
postulate a : Unit
postulate pa : P a
postulate qa : Q a
postulate r : Id Unit a a
postulate sl : Sum Unit Nat
postulate sr : Sum Nat Unit
postulate z : Empty
"""

ELIMINATOR_RULE_SOURCE = ELIMINATOR_RULE_PREAMBLE + """
def natelimStep (i : Nat) (x : Unit) :
  Id (Unit -> Nat) (natelim (\\_. Unit -> Nat) (\\u. zero) (\\k ih u. g u) i)
                   (natelim (\\_. Unit -> Nat) (\\u. zero) (\\k ih u. g x) i) :=
  refl (Unit -> Nat) (natelim (\\_. Unit -> Nat) (\\u. zero) (\\k ih u. g u) i)
def sumelimLeft (x : Unit) :
  Id (Unit -> Nat) (sumelim (\\_. Unit -> Nat) (\\b u. g u) (\\n u. n) sl)
                   (sumelim (\\_. Unit -> Nat) (\\b u. g x) (\\n u. n) sl) :=
  refl (Unit -> Nat) (sumelim (\\_. Unit -> Nat) (\\b u. g u) (\\n u. n) sl)
def sumelimRight (x : Unit) :
  Id (Unit -> Nat) (sumelim (\\_. Unit -> Nat) (\\n u. n) (\\b u. g u) sr)
                   (sumelim (\\_. Unit -> Nat) (\\n u. n) (\\b u. g x) sr) :=
  refl (Unit -> Nat) (sumelim (\\_. Unit -> Nat) (\\n u. n) (\\b u. g u) sr)
def jMotive :
  Id Nat (fst (J (\\y q. Nat × P y) (zero , pa) a a r))
         (fst (J (\\y q. Nat × P a) (zero , pa) a a r)) :=
  refl Nat (fst (J (\\y q. Nat × P y) (zero , pa) a a r))
"""

# The same shapes where the two sides really differ, one per eliminator.
ELIMINATOR_RULE_MISMATCHES = {
    "natelim": """
def t (i : Nat) :
  Id (Unit -> Nat) (natelim (\\_. Unit -> Nat) (\\u. zero) (\\k ih u. g u) i)
                   (natelim (\\_. Unit -> Nat) (\\u. zero) (\\k ih u. zero) i) :=
  refl (Unit -> Nat) (natelim (\\_. Unit -> Nat) (\\u. zero) (\\k ih u. g u) i)
""",
    "sumelim": """
def t :
  Id (Unit -> Nat) (sumelim (\\_. Unit -> Nat) (\\n u. n) (\\b u. g u) sr)
                   (sumelim (\\_. Unit -> Nat) (\\n u. n) (\\b u. zero) sr) :=
  refl (Unit -> Nat) (sumelim (\\_. Unit -> Nat) (\\n u. n) (\\b u. g u) sr)
""",
    "J": """
def t :
  Id Nat (fst (J (\\y q. Nat × P y) (zero , pa) a a r))
         (fst (J (\\y q. Nat × Q y) (zero , qa) a a r)) :=
  refl Nat (fst (J (\\y q. Nat × P y) (zero , pa) a a r))
""",
    "exfalso": """
def t : Id Nat (fst (exfalso (\\w. Nat × Unit) z)) (fst (exfalso (\\w. Nat × Nat) z)) :=
  refl Nat (fst (exfalso (\\w. Nat × Unit) z))
""",
}


def test_eliminator_cases_compare_at_the_types_of_their_rule(config):
    decls = parse.parse_file(ELIMINATOR_RULE_SOURCE)
    _, diags = elaborate_signature(decls, initial_signature(config), config)
    assert [(d.code, d.message) for d in diags] == []


@pytest.mark.parametrize("eliminator", sorted(ELIMINATOR_RULE_MISMATCHES))
def test_eliminator_cases_that_differ_stay_unequal(config, eliminator):
    src = ELIMINATOR_RULE_PREAMBLE + ELIMINATOR_RULE_MISMATCHES[eliminator]
    _, diags = elaborate_signature(parse.parse_file(src), initial_signature(config), config)
    assert [d.code for d in diags] == ["TYPE_MISMATCH"]


def _eta_long(t, ty, env):
    """The eta-long form at the closed type ``ty`` of the beta-normal term
    ``t``, whose free variables have the closed types ``env`` (innermost
    last); ``star`` at ``Unit``."""
    if isinstance(ty, Unit):
        return Star()
    if isinstance(ty, Sigma):
        a, b = (t.fst, t.snd) if isinstance(t, Pair) else (Fst(t), Snd(t))
        return Pair(_eta_long(a, ty.fst, env), _eta_long(b, ty.snd, env))
    if isinstance(ty, Pi):
        body = t.body if isinstance(t, Lam) else app(shift(t), Var(0))
        return Lam(_eta_long(body, ty.cod, env + (ty.dom,)))
    if isinstance(t, Zero):
        return t
    if isinstance(t, Suc):
        return Suc(t.layer, _eta_long(t.pred, ty, env))
    return _eta_long_neutral(t, env)[0]


def _eta_long_neutral(t, env):
    """A neutral term with its arguments and cases eta-long, and its type."""
    if isinstance(t, Var):
        return t, env[~t.index]
    if isinstance(t, App):
        fn, ty = _eta_long_neutral(t.fn, env)
        args = []
        for arg in t.args:
            args.append(_eta_long(arg, ty.dom, env))
            ty = ty.cod
        return app(fn, *args), ty
    if isinstance(t, (Fst, Snd)):
        pair, pair_ty = _eta_long_neutral(t.pair, env)
        return (Fst(pair), pair_ty.fst) if isinstance(t, Fst) else (Snd(pair), pair_ty.snd)
    scrut, _ = _eta_long_neutral(t.scrut, env)
    motive = t.motive  # closed, as the generator builds it
    zcase = _eta_long(t.zcase, motive, env)
    scase = _eta_long(t.scase, motive, env + (Nat(FIB), motive))
    return NatElim(t.layer, motive, zcase, scase, scrut), motive


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.randoms(use_true_random=False))
def test_spine_conversion_agrees_with_eta_long_normal_forms(rng):
    # The types are closed and non-dependent, so they need no shifting.
    ty, t, u = eta_instance(rng)
    sig = Signature()
    sig.add(SigEntry("f", Pi(ty, Nat(FIB)), None, DeclKind.POSTULATE))
    ft = conv.evaluate(sig, (), app(Const("f"), t))
    fu = conv.evaluate(sig, (), app(Const("f"), u))
    expected = _eta_long(normalize(EMPTY, t), ty, ()) == _eta_long(normalize(EMPTY, u), ty, ())
    assert conv.convert(sig, (), ft, fu, conv.VNat(FIB)) == expected


def _nested_comparisons(k):
    """Files that compare terms nested ``k`` deep, each with the diagnostic
    codes it gives."""
    ok, ok_eta = "zero", "zero"
    bad, bad_other = "zero", "suc zero"
    partial, partial_other = "k zero", "k (suc zero)"
    # the leaf needs the types of variables bound by an untyped comparison
    leaf, leaf_other = "n (g1 x)", "n (g2 x)"
    for i in range(k):
        ok, ok_eta = f"f ({ok} , x)", f"f ({ok_eta} , star)"
        bad, bad_other = f"h (\\y{i}. {bad})", f"h (\\y{i}. {bad_other})"
        partial, partial_other = f"q ({partial})", f"q ({partial_other})"
        leaf, leaf_other = f"F (g ({leaf}))", f"F (g ({leaf_other}))"
    lam, lam_other = f"\\g n g1 g2. {leaf}", f"\\g n g1 g2. {leaf_other}"
    return [
        ("postulate f : Nat × Unit -> Nat\n"
         f"def t (x : Unit) : Id Nat ({ok}) ({ok_eta}) := refl Nat ({ok})", []),
        ("postulate h : (Nat -> Nat) -> Nat\n"
         f"def t : Id Nat ({bad}) ({bad_other}) := refl Nat ({bad})", ["TYPE_MISMATCH"]),
        # unequal neutrals of a function type, nested as arguments
        ("postulate q : (Nat -> Nat) -> Nat -> Nat\npostulate k : Nat -> Nat -> Nat\n"
         f"def t : Id (Nat -> Nat) ({partial}) ({partial_other}) := refl (Nat -> Nat) ({partial})",
         ["TYPE_MISMATCH"]),
        ("postulate F : Nat -> Nat\n"
         "postulate H : ((Nat -> Nat) -> (Unit -> Nat) -> (Unit -> Unit) -> (Unit -> Unit) -> Nat) -> Nat\n"
         f"def t (x : Unit) : Id Nat (H ({lam})) (H ({lam_other})) := refl Nat (H ({lam}))", []),
    ]


def test_nested_conversion_work_is_linear(config):
    # A frame is compared again with types only after a failure that types
    # can mend, and unequal neutrals are told apart without comparing their
    # frames again, so doubling the nesting doubles the work; otherwise each
    # of these grows 2x per level.
    calls = {}
    for k in (6, 12):
        for index, (src, codes) in enumerate(_nested_comparisons(k)):
            profile = cProfile.Profile()
            _, diags = profile.runcall(
                elaborate_signature, parse.parse_file(src), initial_signature(config), config
            )
            assert [d.code for d in diags] == codes
            calls[index, k] = call_count(profile, conv.convert)
    for index in range(4):
        assert calls[index, 12] < 2.5 * calls[index, 6], calls


def test_distinct_layer_types_do_not_convert():
    assert not conv.convert(EMPTY, (), conv.VNat(FIB), conv.VNat(STRICT), None)
    assert not conv.convert(EMPTY, (), conv.VEmpty(FIB), conv.VEmpty(STRICT), None)


def test_axioms_are_inert(base_sig):
    for name in ("uip", "funextS", "ua0", "ua1"):
        v = conv.evaluate(base_sig, (), Const(name))
        assert isinstance(v, conv.VNeutral)
        assert v.head == conv.ConstHead(name)
        norm = conv.nf(base_sig, Context(), Const(name))
        assert norm == Const(name)


def test_applied_axiom_stays_neutral(base_sig, config):
    elab = Elaborator(base_sig, config)
    term, _ = elab.infer(Context(), parse.parse_term("uip NatS zero zero"))
    norm = conv.nf(base_sig, Context(), term)
    assert norm == app(Const("uip"), Nat(STRICT), Zero(STRICT), Zero(STRICT))


def test_definitions_unfold(base_sig, config):
    src = "def three : NatS := suc (suc (suc zero))\ndef also : NatS := three"
    sig, diags = elaborate_signature(parse.parse_file(src), base_sig, config)
    assert not diags
    expected = Suc(STRICT, Suc(STRICT, Suc(STRICT, Zero(STRICT))))
    assert conv.nf(sig, Context(), Const("also")) == expected


def test_nf_matches_printed_surface(base_sig, config):
    elab = Elaborator(base_sig, config)
    term, _ = elab.infer(
        Context(), parse.parse_term("natelimS (\\n. NatS) (suc (suc zero)) (\\n r. suc r) zero")
    )
    printed = pretty.pretty(conv.nf(base_sig, Context(), term), base_sig)
    assert printed == "suc (suc zero)"


FAMILIES = (
    "postulate X0 : U0\n"
    "postulate X1 : X0 -> X0 -> U0\n"
    "def Y : X0 -> X0 -> U0 := X1\n"
)


@pytest.fixture()
def family_sig(config):
    sig, diags = elaborate_signature(parse.parse_file(FAMILIES), initial_signature(config), config)
    assert not diags
    return sig


def _env(size, *bound):
    """A fresh variable per level below ``size``, then the ``bound`` values."""
    return [conv.fresh(i) for i in range(size)] + list(bound)


def _applied(head, *levels):
    """The type value ``head`` applied to the environment's variables at ``levels``."""
    return lambda sig, env: conv.VNeutral(
        head(sig, env).head, tuple(env[i] for i in levels))


def _family(sig, env):
    return env[0]


def _const(name):
    return lambda sig, env: conv.evaluate(sig, (), Const(name))


def _chain(head, *indices):
    return app(head, *map(Var, indices))


# Each case: the environment, the domain term under it, and the argument's
# type as a function of the signature and the environment.
EVALUATES_TO_HITS = {
    # X1 a0 a1 with X1 bound as a variable: env [X1, a0, a1]
    "variable head": (_env(3), _chain(Var(2), 1, 0), _applied(_family, 1, 2)),
    # X1 a0 a1 with X1 a postulate: env [a0, a1]
    "postulate head": (_env(2), _chain(Const("X1"), 1, 0), _applied(_const("X1"), 0, 1)),
    # uip a: an axiom of the prelude, whatever a's type
    "axiom head": (_env(1), _chain(Const("uip"), 0), _applied(_const("uip"), 0)),
    # (a0 : X0): no arguments, with X0 a postulate or a bound variable
    "postulate, no arguments": (_env(0), Const("X0"), _const("X0")),
    "variable, no arguments": (_env(1), Var(0), _family),
}

# As above, and whether the domain's value converts with the argument's type.
EVALUATES_TO_MISSES = {
    # Y unfolds to X1, so the types convert, but Y has a body
    "defined head": (_env(2), _chain(Const("Y"), 1, 0), _applied(_const("X1"), 0, 1), True),
    # f a0 a1 written g a1, with g bound to f a0: env [f, a0, a1, f a0];
    # the values convert, but the head's spine is not empty
    "head with a spine": (
        _env(3, conv.VNeutral(conv.VarHead(0), (conv.fresh(1),))),
        _chain(Var(0), 1), _applied(_family, 1, 2), True,
    ),
    # X1 a0 a0 where X1 a0 a1 is expected
    "other argument": (_env(3), _chain(Var(2), 1, 0), _applied(_family, 1, 1), False),
    "other head": (_env(3), _chain(Var(1), 1, 0), _applied(_family, 1, 2), False),
    "fewer arguments": (_env(3), _chain(Var(2), 1), _applied(_family, 1, 2), False),
    "more arguments": (_env(3), _chain(Var(2), 1, 0), _applied(_family, 1), False),
    # an equal argument that is another object: the test is by identity
    # (``conv.fresh(2)`` would be ``env[2]`` itself)
    "equal argument": (
        _env(3), _chain(Var(2), 1, 0),
        lambda sig, env: conv.VNeutral(env[0].head, (env[1], conv.VNeutral(conv.VarHead(2), ()))),
        True,
    ),
    "not a neutral": (_env(1), Var(0), lambda sig, env: conv.VUnit(), False),
}


@pytest.mark.parametrize("name", EVALUATES_TO_HITS)
def test_evaluates_to_hits_what_evaluation_would_build(family_sig, name):
    env, term, ty = EVALUATES_TO_HITS[name]
    ty = ty(family_sig, env)
    assert conv.evaluates_to(family_sig, env, term, ty)
    value = conv.evaluate(family_sig, tuple(env), term)
    assert conv.convert(family_sig, (None,) * len(env), value, ty, None)


@pytest.mark.parametrize("name", EVALUATES_TO_MISSES)
def test_evaluates_to_misses_and_conversion_decides(family_sig, name):
    env, term, ty, converts = EVALUATES_TO_MISSES[name]
    ty = ty(family_sig, env)
    assert not conv.evaluates_to(family_sig, env, term, ty)
    value = conv.evaluate(family_sig, tuple(env), term)
    assert bool(conv.convert(family_sig, (None,) * len(env), value, ty, None)) is converts


def test_segal5_evaluation_work_is_bounded(config):
    # Eliminating a neutral only extends its spine; computing its type
    # there too made this elaboration evaluate about 180 000 times, and
    # instantiating each domain of the postulated families' telescopes
    # about 6 100.  Call counts are deterministic, unlike wall time.
    equiv = (REPO_ROOT / "stdlib" / "equiv.tt").read_text(encoding="utf-8")
    sig, diags = elaborate_signature(parse.parse_file(equiv), initial_signature(config), config)
    assert not diags
    decls = parse.parse_file(gen_segal_scaffold(GenPlan(5, emit=frozenset({"segal"}))))
    profile = cProfile.Profile()
    sig, diags = profile.runcall(elaborate_signature, decls, sig, config)
    assert not diags
    assert call_count(profile, conv.evaluate) < 3_000
    # no comparison fails untyped, so no spine is typed
    assert call_count(profile, conv._spine_type) == 0


def test_sst6_conversion_work_is_bounded(config):
    # A variable's value is shared by reference, so most spine arguments
    # compared here are one object on both sides; conversion stops at
    # ``a is b`` instead of walking them (about 2 500 calls without that).
    decls = parse.parse_file(gen_sst(GenPlan(6)))
    profile = cProfile.Profile()
    _, diags = profile.runcall(elaborate_signature, decls, initial_signature(config), config)
    assert not diags
    assert call_count(profile, conv._convert_spine) < 1_000
    assert call_count(profile, conv._spine_type) == 0
    # telescopes are walked as terms, never instantiated binder by binder
    assert call_count(profile, conv.Closure.apply) == 0
