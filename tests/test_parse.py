"""Surface syntax: token streams, grammar shape, totality on noise, and
the printer fixed point over the corpus."""

import cProfile
import random

import pytest
from hypothesis import given, settings, strategies as st

from tt2 import parse
from tt2.diagnostics import Diagnostic
from tt2.elab import elaborate_signature
from tt2.parse import lex, parse_file, parse_term
from tt2.prelude import prelude_source
from tt2.pretty import pretty_raw_file


def kinds(source):
    return [t.kind for t in lex(source)][:-1]  # drop EOF


def test_lex_example_def():
    assert kinds("def x : Unit := star") == ["def", "IDENT", "COLON", "Unit", "ASSIGN", "star"]


def test_lex_skips_comments():
    assert kinds("-- c\nU0") == ["UNIV"]
    assert kinds("{- block {- nested -} -} U1") == ["UNIV"]


def test_lex_unicode_lambda_is_lambda():
    assert kinds("λ") == ["LAMBDA"]
    assert kinds("\\x. x") == ["LAMBDA", "IDENT", "DOT", "IDENT"]


def test_lex_illegal_character():
    with pytest.raises(Diagnostic) as exc:
        lex("def @ x")
    assert exc.value.code == "ILLEGAL_CHAR"


def test_lex_unterminated_block_comment():
    with pytest.raises(Diagnostic) as exc:
        lex("{- no end")
    assert exc.value.code == "SYNTAX"


def test_parse_def_with_telescope():
    decls = parse_file("def id (A : U0) (x : A) : A := x")
    assert len(decls) == 1
    d = decls[0]
    assert d.kind == "def" and d.name == "id"
    assert [name for name, _ in d.telescope] == ["A", "x"]


def test_parse_fin_style_signature():
    decls = parse_file("def Fin : NatS -> US0 := \\n. natelimS (\\m. US0) EmptyS (\\m r. SumS Unit r) n")
    assert decls[0].name == "Fin"
    assert isinstance(decls[0].result, parse.RPi)


def test_parse_error_on_missing_type():
    with pytest.raises(Diagnostic) as exc:
        parse_file("def bad : := x")
    assert exc.value.code == "SYNTAX"
    assert exc.value.span[0] == len("def bad : ")


def test_precedence_arrow_sigma_app():
    t = parse_term("A -> B × C -> D")
    # arrows right-associative, sigma tighter: A -> ((B × C) -> D)
    assert isinstance(t, parse.RPi)
    inner = t.cod
    assert isinstance(inner, parse.RPi)
    assert isinstance(inner.dom, parse.RSigma)

    t2 = parse_term("f x y × g z")
    assert isinstance(t2, parse.RSigma)
    assert isinstance(t2.fst, parse.RApp)

    t3 = parse_term("(x : A) × B -> C")
    assert isinstance(t3, parse.RPi)
    assert isinstance(t3.dom, parse.RSigma)
    assert t3.dom.binder == "x"


def test_multi_binder_groups():
    t = parse_term("(a b : A) -> B")
    assert isinstance(t, parse.RPi) and t.binder == "a"
    assert isinstance(t.cod, parse.RPi) and t.cod.binder == "b"


def test_pair_and_nested_pair():
    t = parse_term("(a , (b , c))")
    assert isinstance(t, parse.RPair)
    assert isinstance(t.snd, parse.RPair)
    sugar = parse_term("(a , b , c)")
    assert sugar == t


def test_saturated_builtins_consume_atoms():
    t = parse_term("J (\\b p. C) d a b q")
    assert isinstance(t, parse.RJ)
    t2 = parse_term("suc (suc zero)")
    assert isinstance(t2, parse.RSuc)
    with pytest.raises(Diagnostic):
        parse_term("natelim (\\n. Nat) zero")  # missing two arguments


def test_holes_parse_but_are_marked():
    t = parse_term("f _")
    assert isinstance(t.arg, parse.RHole)


def test_every_node_carries_a_span():
    src = "def f (x : Nat) : Nat × Unit := (suc x , star)"
    decls = parse_file(src)

    def walk(node):
        assert 0 <= node.span[0] <= node.span[1] <= len(src)
        for field in vars(node).values():
            if isinstance(field, parse.Raw):
                walk(field)

    walk(decls[0].result)
    walk(decls[0].body)


def test_parser_is_total_on_noise():
    rng = random.Random(424243)
    alphabet = "abzXU019 ()\\.:=->×,_{}-\n\t*"
    for _ in range(10_000):
        source = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 40)))
        try:
            parse_file(source)
        except Diagnostic:
            pass  # rejection is fine; divergence or crash is not


def test_parser_is_total_on_random_bytes():
    rng = random.Random(99)
    for _ in range(2_000):
        blob = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 30)))
        source = blob.decode("utf-8", errors="replace")
        try:
            parse_file(source)
        except Diagnostic:
            pass


def test_print_parse_print_fixed_point_on_corpus(manifest):
    for entry in manifest.entries:
        source = manifest.source(entry)
        printed = pretty_raw_file(parse_file(source))
        reprinted = pretty_raw_file(parse_file(printed))
        assert printed == reprinted, f"printer not a fixed point on {entry.path}"


_PIECES = [
    "def", "postulate", "x", "f'", "a_1", "U0", "US2", "U", "U0x", "Nat", "NatS",
    "suc", "zero", "J", "natelim", "Sum", "refl", "Eq", "fst", "star", "Unit",
    "(", ")", ",", ":", ":=", "->", "×", "\\", "λ", ".", "_",
    " ", "\n", "\t", "\r", "-- c\n", "--", "{-", "-}", "{- c -}",
]
_JUNK = ["@", "#", "é", "{", "}", "-", "\x0b", "\x00", "\ufffd", "λx"]


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(st.lists(st.sampled_from(_PIECES + _JUNK), max_size=40).map("".join))
def test_front_end_is_total(source):
    try:
        tokens = lex(source)
    except Diagnostic as diag:
        assert diag.code in ("SYNTAX", "ILLEGAL_CHAR")
    else:
        assert tokens[-1].kind == "EOF" and tokens[-1].span == (len(source), len(source))
        for tok in tokens[:-1]:
            assert source[tok.span[0]:tok.span[1]] == tok.text != ""
        for before, after in zip(tokens, tokens[1:]):
            assert before.span[1] <= after.span[0] and before.span[0] < after.span[0]
    try:
        decls = parse_file(source)
    except Diagnostic as diag:
        assert diag.code in ("SYNTAX", "ILLEGAL_CHAR")
    else:
        assert all(isinstance(d, parse.RawDecl) for d in decls)


def test_parse_work_per_token_is_bounded(config):
    # Call counts are deterministic, unlike wall time.  The recursive-descent
    # parser and per-character lexer made 24.1 calls per prelude token.
    # getstats() counts per code object; pstats would merge the generated
    # __init__ of every dataclass into one entry and drop the other counts.
    source = prelude_source(config)
    profile = cProfile.Profile()
    profile.runcall(parse_file, source)
    calls = sum(entry.callcount for entry in profile.getstats())
    assert calls <= 10 * len(lex(source))


def test_nesting_depth_costs_no_recursion():
    depth = 20_000
    t = parse_term("(" * depth + "x" + ")" * depth)
    assert isinstance(t, parse.RVar) and t.span == (depth, depth + 1)
    t = parse_term("suc " * depth + "zero")
    assert isinstance(t, parse.RSuc) and t.span == (0, 4 * depth + 4)
    t = parse_term("A -> " * depth + "A")
    assert isinstance(t, parse.RPi) and t.span[1] == 5 * depth + 1
    t = parse_term("\\x. (y : A) × (" * depth + "x" + ")" * depth)
    assert isinstance(t, parse.RLam) and isinstance(t.body, parse.RSigma)


def test_150_nested_successors_check(config, base_sig):
    source = "def n : Nat := " + "suc (" * 150 + "zero" + ")" * 150
    _, diags = elaborate_signature(parse_file(source), base_sig, config)
    assert not diags
