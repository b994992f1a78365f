"""Core syntax: the small-step oracle's shift/subst examples and their
algebraic laws on random scope-closed terms, the subsort partial order,
the semantics of the ``Node`` record classes, and what the package's
modules import."""

import ast
import cProfile
import pstats
import random
import subprocess
import sys

import pytest

from conftest import REPO_ROOT, fails_fast_on_recursion
from smallstep_oracle import replace, shift, subst
from termgen import term_size
from tt2 import conv, parse
from tt2.core import (
    App, Const, Context, DeclKind, FIB, InternalError, Lam, Nat, Pair, Pi, SigEntry,
    Sigma, Signature, Sort, Star, STRICT, Sum, Suc, Term, Unit, Univ, Var, Zero,
    is_scope_closed, var, sort_join, sort_leq,
)
from tt2.elab import Config
from tt2.sstgen import GenPlan


def test_shift_examples():
    assert shift(Var(0), 0, 1) == Var(1)
    assert shift(Lam(Var(0)), 0, 1) == Lam(Var(0))
    assert shift(Lam(Var(1)), 0, 2) == Lam(Var(3))


def test_subst_examples():
    assert subst(Var(0), 0, Star()) == Star()
    assert subst(App(Var(0), Var(1)), 0, Const("f")) == App(Const("f"), Var(0))
    assert subst(Pi(Unit(), Var(1)), 0, Nat(FIB)) == Pi(Unit(), Nat(FIB))


def _random_term(rng: random.Random, depth: int, budget: int) -> Term:
    """A random term whose indices stay below ``depth``."""
    if budget <= 1:
        choices = [Star(), Zero(FIB), Unit(), Nat(STRICT)]
        if depth > 0:
            choices.append(Var(rng.randrange(depth)))
        return rng.choice(choices)
    roll = rng.randrange(6)
    if roll == 0:
        return Lam(_random_term(rng, depth + 1, budget - 1))
    if roll == 1:
        half = budget // 2
        return App(_random_term(rng, depth, half), _random_term(rng, depth, half))
    if roll == 2:
        half = budget // 2
        return Pi(_random_term(rng, depth, half), _random_term(rng, depth + 1, half))
    if roll == 3:
        half = budget // 2
        return Sigma(_random_term(rng, depth, half), _random_term(rng, depth + 1, half))
    if roll == 4:
        half = budget // 2
        return Pair(_random_term(rng, depth, half), _random_term(rng, depth, half))
    return Suc(FIB, _random_term(rng, depth, budget - 1))


@pytest.fixture(scope="module")
def random_terms():
    rng = random.Random(1157)
    return [_random_term(rng, 0, 30) for _ in range(300)]


def test_shift_by_zero_is_identity(random_terms):
    for t in random_terms:
        assert shift(t, 0, 0) == t
        assert shift(t, 3, 0) == t


def test_subst_after_weakening_is_identity(random_terms):
    rng = random.Random(7)
    for t in random_terms:
        s = _random_term(rng, 0, 10)
        assert subst(shift(t, 0, 1), 0, s) == t


def test_shift_composition(random_terms):
    for t in random_terms:
        assert shift(shift(t, 0, 2), 0, 3) == shift(t, 0, 5)


def test_random_terms_are_scope_closed(random_terms):
    for t in random_terms:
        assert is_scope_closed(t)
        assert term_size(t) >= 1


@pytest.mark.parametrize("ty", [
    App(Const("c"), Var(0)),  # a chain argument
    App(App(Var(0), Star()), Star()),  # a chain head
    Pi(Univ(Sort(FIB, 0)), App(App(Const("c"), Var(0)), Var(1))),  # under a binder
])
def test_signature_refuses_an_open_variable_in_an_application(ty):
    sig = Signature()
    with pytest.raises(InternalError, match="open type"):
        sig.add(SigEntry("t", ty, None, DeclKind.POSTULATE))
    closed = Pi(Univ(Sort(FIB, 0)), App(App(Const("c"), Var(0)), Var(0)))
    sig.add(SigEntry("t", closed, None, DeclKind.POSTULATE))
    assert sig.lookup("t").ty is closed


ALL_SORTS = [Sort(layer, lvl) for layer in (FIB, STRICT) for lvl in range(4)]


@pytest.mark.parametrize("collapse", [False, True])
def test_subsort_is_a_partial_order(collapse):
    for a in ALL_SORTS:
        assert sort_leq(a, a, collapse)
        for b in ALL_SORTS:
            if sort_leq(a, b, collapse) and sort_leq(b, a, collapse):
                assert a == b
            for c in ALL_SORTS:
                if sort_leq(a, b, collapse) and sort_leq(b, c, collapse):
                    assert sort_leq(a, c, collapse)


@pytest.mark.parametrize("collapse", [False, True])
def test_join_is_least_upper_bound(collapse):
    for a in ALL_SORTS:
        for b in ALL_SORTS:
            j = sort_join(a, b, collapse)
            assert sort_leq(a, j, collapse) and sort_leq(b, j, collapse)
            for c in ALL_SORTS:
                if sort_leq(a, c, collapse) and sort_leq(b, c, collapse):
                    assert sort_leq(j, c, collapse)


def test_expected_subsort_relations():
    assert sort_leq(Sort(FIB, 0), Sort(STRICT, 0))
    assert not sort_leq(Sort(STRICT, 0), Sort(FIB, 0))
    assert sort_leq(Sort(FIB, 0), Sort(STRICT, 2))
    assert not sort_leq(Sort(FIB, 2), Sort(STRICT, 0))
    assert sort_leq(Sort(FIB, 2), Sort(STRICT, 0), collapse=True)


# ---------------------------------------------------------------------------
# Records


def test_records_construct_by_position_keyword_and_default():
    body = Var(0)
    assert conv.Closure((), body).arity == 1
    assert conv.Closure((), body, 2).arity == 2
    assert conv.Closure(arity=2, body=body, env=()).arity == 2
    assert (Context().names, Context().types, Context().env) == ((), (), ())
    x = conv.fresh(0)
    ctx = Context().extend("x", conv.VNat(FIB), x)
    assert (ctx.names, ctx.types, ctx.env, ctx.levels) == (("x",), (conv.VNat(FIB),), (x,), {"x": 0})
    assert Context().levels == {}
    config = Config(universes=4)
    assert Config.__match_args__ == ("universes", "collapse_fibrant_universes")
    assert (config.universes, config.collapse_fibrant_universes) == (4, False)
    assert Pi.__match_args__ == ("dom", "cod")
    assert parse.RVar.__match_args__ == ("span", "name")
    with pytest.raises(TypeError):
        Pi(Var(0))
    with pytest.raises(TypeError):
        Var(0, index=1)


@pytest.mark.parametrize("build", [
    lambda: Config(universes=0),
    lambda: GenPlan(-1),
    lambda: GenPlan(3, emit=frozenset({"nope"})),
    lambda: GenPlan(1, names="1x"),
    lambda: Config(universes=1001),
])
def test_post_init_validates(build):
    with pytest.raises(ValueError):
        build()


def test_raw_equality_ignores_spans():
    a, b = parse.RVar((0, 1), "x"), parse.RVar((7, 8), "x")
    assert a == b and hash(a) == hash(b)
    assert a != parse.RVar((0, 1), "y")
    assert parse.parse_term("f (x)") == parse.parse_term("f  x")
    # declarations compare their spans
    assert parse.RawDecl("def", "d", (), a, None, (0, 1)) != parse.RawDecl("def", "d", (), a, None, (0, 2))


def test_term_equality_and_hash():
    t = Pi(Var(0), Sum(FIB, Unit(), Nat(STRICT)))
    u = Pi(Var(0), Sum(FIB, Unit(), Nat(STRICT)))
    assert t == u and t is not u and hash(t) == hash(u)
    assert len({t, u, Sigma(Var(0), Sum(FIB, Unit(), Nat(STRICT)))}) == 2
    assert Pi(Var(0), Unit()) != Sigma(Var(0), Unit())
    assert Unit() == Unit() and Unit() != Star()
    assert Nat(FIB) != Nat(STRICT)
    assert t != (Var(0), Sum(FIB, Unit(), Nat(STRICT)))
    assert Sort(FIB, 1) == Sort(FIB, 1) and len({Sort(FIB, 1), Sort(FIB, 1)}) == 1
    assert conv.VarHead(3) == conv.VarHead(3) and hash(conv.ConstHead("c")) == hash(conv.ConstHead("c"))


def test_var_leaves_are_shared():
    for i in (0, 1, 7, 300):
        assert var(i) is var(i)
        assert var(i) == Var(i) and hash(var(i)) == hash(Var(i))
        assert var(i).__class__ is Var and var(i).index == i
    assert var(0) != var(1)
    with pytest.raises(AttributeError):
        var(2).index = 3


@fails_fast_on_recursion
def test_equality_of_deep_nodes_needs_no_recursion():
    # 3000 levels of nesting, directly and through the tuples of a spine,
    # compared at the default recursion limit.
    def chain(bottom, depth=3000):
        t = bottom
        for _ in range(depth):
            t = Suc(FIB, t)
        return t

    assert chain(Zero(FIB)) == chain(Zero(FIB))
    assert chain(Zero(FIB)) != chain(Zero(STRICT))
    assert chain(Zero(FIB)) != chain(Zero(FIB), 2999)
    assert chain(Var(0)) != chain(Zero(FIB))

    def spine(last):
        v = conv.fresh(0)
        for _ in range(3000):
            v = conv.VNeutral(conv.VarHead(0), (conv.FFst(), conv.FApp(v)))
        return conv.VNeutral(conv.VarHead(0), (conv.FApp(v), conv.FApp(last)))

    assert spine(conv.VStar()) == spine(conv.VStar())
    assert spine(conv.VStar()) != spine(conv.VUnit())


@fails_fast_on_recursion
def test_hashing_deep_nodes_needs_no_recursion():
    # 3000 levels of nesting, hashed at the default recursion limit; equal
    # nodes hash equal (a raw node's span aside), and a frozen node that
    # holds a value stays unhashable
    def chain(bottom, depth=3000):
        t = bottom
        for _ in range(depth):
            t = Suc(FIB, t)
        return t

    assert hash(chain(Zero(FIB))) == hash(chain(Zero(FIB)))
    assert len({chain(Zero(FIB)), chain(Zero(FIB)), chain(Zero(STRICT)), chain(Zero(FIB), 2999)}) == 3
    deep = parse.parse_term("f" + " (g" * 3000 + " x" + ")" * 3000)
    assert hash(deep) == hash(parse.parse_term(" f" + " (g" * 3000 + "  x" + ")" * 3000))
    with pytest.raises(TypeError):
        hash(Context().extend("x", conv.VNat(FIB), conv.fresh(0)))


def test_values_compare_but_do_not_hash():
    assert conv.VSuc(FIB, conv.VZero(FIB)) == conv.VSuc(FIB, conv.VZero(FIB))
    assert conv.VZero(FIB) != conv.VZero(STRICT)
    with pytest.raises(TypeError):
        hash(conv.VNat(FIB))


@pytest.mark.parametrize("node, field", [
    (Pi(Var(0), Unit()), "dom"),
    (Var(0), "index"),
    (Unit(), "index"),
    (parse.RVar((0, 1), "x"), "span"),
    (Sort(FIB, 0), "level"),
    (Context(), "names"),
])
def test_frozen_fields_cannot_change(node, field):
    with pytest.raises(AttributeError):
        setattr(node, field, 1)
    with pytest.raises(AttributeError):
        delattr(node, field)


def test_unfrozen_records_assign_only_their_fields():
    neutral = conv.fresh(0)
    neutral.spine = (conv.FFst(),)
    assert neutral.spine == (conv.FFst(),)
    with pytest.raises(AttributeError):
        neutral.extra = 1


def test_match_patterns_bind_fields_in_order():
    def shape(ty):
        match ty:
            case Unit():
                return "unit"
            case Nat(layer):
                return f"nat {layer.name}"
            case Sum(layer, left, right):
                return f"sum {layer.name} {shape(left)} {shape(right)}"
            case Sigma(fst, snd):
                return f"sigma {shape(fst)} {shape(snd)}"
            case Pi(dom, cod):
                return f"pi {shape(dom)} {shape(cod)}"
        return "other"

    assert shape(Pi(Sum(STRICT, Unit(), Nat(FIB)), Sigma(Unit(), Var(0)))) == (
        "pi sum STRICT unit nat FIB sigma unit other"
    )


def test_repr_names_every_field():
    assert repr(Pi(Var(0), Nat(FIB))) == (
        "Pi(dom=Var(index=0), cod=Nat(layer=<Layer.FIB: 'fibrant'>))"
    )
    assert repr(Unit()) == "Unit()"
    assert repr(parse.RVar((0, 1), "x")) == "RVar(span=(0, 1), name='x')"
    assert repr(Context()) == "Context(names=(), types=(), env=(), levels={})"


def test_replace_changes_named_fields():
    t = Suc(FIB, Zero(FIB))
    assert replace(t, pred=Var(0)) == Suc(FIB, Var(0))
    assert replace(t) == t and replace(t) is not t
    with pytest.raises(TypeError):
        replace(t, nope=1)
    with pytest.raises(ValueError):
        replace(Config(), universes=0)


def test_generated_methods_are_profiled_per_class():
    # pstats keys are (file, line, name): each class's generated __init__
    # has its own key, in the defining module.
    profile = cProfile.Profile()
    profile.enable()
    for _ in range(100):
        parse.RVar((0, 1), "x")
    for _ in range(7):
        parse.RHole((0, 1))
    profile.disable()
    inits = {key: entry[1] for key, entry in pstats.Stats(profile).stats.items()
             if key[2] == "__init__"}
    assert sorted(inits.values()) == [7, 100]
    assert {key[0] for key in inits} == {parse.__file__}


def _modules_loaded_by_importing_the_cli(names):
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import tt2.cli; "
            f"print(sorted({set(names)!r} & set(sys.modules)))")
    result = subprocess.run(
        [sys.executable, "-S", "-c", code, str(REPO_ROOT / "src")],
        capture_output=True, text=True, env={"PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    assert _modules_loaded_by_importing_the_cli({"dataclasses", "inspect"}) == "[]"


def test_importing_the_cli_loads_no_generator():
    # only ``tt2 gen`` and ``tt2 delta`` need them
    assert _modules_loaded_by_importing_the_cli({"tt2.sstgen", "tt2.delta"}) == "[]"


def _unread_imports(source: str) -> list[str]:
    """The names that ``source`` imports and never reads: not as a name,
    the base of an attribute, or an entry of ``__all__``."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read |= set(ast.literal_eval(node.value))
    return sorted(f"line {line}: {name}" for name, line in imported.items() if name not in read)


def test_unread_imports_are_found():
    source = "from os import path, sep\nimport sys\nimport json as j\nprint(path, j)\n"
    assert _unread_imports(source) == ["line 1: sep", "line 2: sys"]


@pytest.mark.parametrize("module", sorted(p.name for p in (REPO_ROOT / "src" / "tt2").glob("*.py")))
def test_no_module_imports_a_name_it_never_reads(module):
    source = (REPO_ROOT / "src" / "tt2" / module).read_text(encoding="utf-8")
    assert _unread_imports(source) == []
