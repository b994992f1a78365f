"""Surface syntax: token streams, grammar shape, totality on noise, the
table of built-ins against docs/surface.md, and the printer fixed point
over the corpus."""

import collections
import cProfile
import random
import tracemalloc

import pytest
from conftest import REPO_ROOT, prelude_source
from hypothesis import given, settings, strategies as st

from tt2 import cli, core, parse
from tt2.core import FIB, STRICT
from tt2.diagnostics import Diagnostic
from tt2.elab import elaborate_signature
from tt2.parse import lex, parse_file, parse_term
from tt2.pretty import APP, ATOM, SIGMA, TERM, _wrap
from tt2.sstgen import GenPlan, gen_segal_scaffold, gen_sst


def kinds(source):
    return [kind for kind, _, _ in lex(source)][:-1]  # drop EOF


def test_lex_example_def():
    assert kinds("def x : Unit := star") == ["def", "IDENT", "COLON", "Unit", "ASSIGN", "star"]


def test_lex_skips_comments():
    assert kinds("-- c\nU0") == ["UNIV"]
    assert kinds("{- block {- nested -} -} U1") == ["UNIV"]


def test_lex_unicode_lambda_is_lambda():
    assert kinds("λ") == ["LAMBDA"]
    assert kinds("\\x. x") == ["LAMBDA", "IDENT", "DOT", "IDENT"]


def test_surface_doc_lists_the_formers_table():
    doc = (REPO_ROOT / "docs" / "surface.md").read_text()
    block = doc.split("keywords:\n\n```\n", 1)[1].split("```", 1)[0]
    assert sorted(block.split()) == sorted(parse.KEYWORDS)
    atom = doc.split("atom    ::=", 1)[1].split(";", 1)[0]
    arities = {}
    for alternative in atom.split("|"):
        head, *args = alternative.split()
        if head.strip('"') in parse._FORMERS:
            arities[head.strip('"')] = args.count("atom")
    assert arities == {kw: len(core_cls.SUB) for kw, (core_cls, _) in parse._FORMERS.items()}


def test_surface_doc_gives_each_fibrant_eliminator_one_rule():
    doc = (REPO_ROOT / "docs" / "surface.md").read_text()
    table = doc.split("## Built-in eliminators", 1)[1].split("\n\n")[2]
    rows = [line.split("|")[1].strip().strip("`").split() for line in table.splitlines()[2:]]
    assert {kw: len(args) for kw, *args in rows} == {
        kw: len(core_cls.SUB) for kw, (core_cls, layer) in parse._FORMERS.items()
        if core_cls in (core.J, core.NatElim, core.SumElim, core.EmptyElim) and layer is FIB
    }


def test_lex_gives_triples_and_the_parser_reads_universes_from_text():
    source = "def A : US1 := U12"
    assert lex(source) == [
        ("def", "def", (0, 3)), ("IDENT", "A", (4, 5)), ("COLON", ":", (6, 7)),
        ("UNIV", "US1", (8, 11)), ("ASSIGN", ":=", (12, 14)), ("UNIV", "U12", (15, 18)),
        ("EOF", "", (18, 18)),
    ]
    [decl] = parse_file(source)
    tokens = parse.scan(source)
    assert decl.ty == parse.RUniv(3, tokens, 3, STRICT, 1) and decl.ty.span == (8, 11)
    assert decl.body == parse.RUniv(5, tokens, 5, FIB, 12) and decl.body.span == (15, 18)


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
    # the telescope is folded into the type as Π binders and into the body
    # as lambdas; a Π spans from its domain, a lambda from ``def``
    assert d.ty == parse_term("(A : U0) -> (x : A) -> A")
    assert (d.ty.span, d.ty.cod.span) == ((12, 27), (21, 27))
    assert d.body == parse_term("\\A x. x")
    assert (d.body.span, d.body.body.span, d.body.body.body.span) == ((0, 32), (0, 32), (31, 32))
    # a ``_`` binder is a non-dependent Π and a lambda binder named ``_``
    [d] = parse_file("postulate p (_ : U0) : U0\ndef k (_ : U0) : U0 := U0")[1:]
    assert d.ty == parse_term("U0 -> U0") and d.body == parse_term("\\_. U0")


def test_parse_fin_style_signature():
    decls = parse_file("def Fin : NatS -> US0 := \\n. natelimS (\\m. US0) EmptyS (\\m r. SumS Unit r) n")
    assert decls[0].name == "Fin"
    assert isinstance(decls[0].ty, parse.RPi)


def test_parse_error_on_missing_type():
    with pytest.raises(Diagnostic) as exc:
        parse_file("def bad : := x")
    assert exc.value.code == "SYNTAX"
    assert exc.value.span[0] == len("def bad : ")


@pytest.mark.parametrize("source, message", [
    ("def f : (a b", "expected ')', found end of input"),
    ("def f (x : U0 : U0", "expected ')', found ':'"),
    ("def f : U0 := \\x y", "expected '.', found end of input"),
    ("def f U0", "expected ':', found 'U0'"),
    ("def f : U0", "expected ':=', found end of input"),
    ("def : U0", "expected a name, found ':'"),
    ("def f ( : U0) : U0 := U0", "expected binder name, found ':'"),
])
def test_syntax_errors_name_the_expected_token_as_written(source, message):
    with pytest.raises(Diagnostic) as exc:
        parse_file(source)
    assert (exc.value.code, exc.value.message) == ("SYNTAX", message)


def test_a_term_must_end_the_input():
    with pytest.raises(Diagnostic) as exc:
        parse_term("f a )")
    assert (exc.value.span, exc.value.message) == ((4, 5), "expected end of input, found ')'")


def test_an_application_chain_is_one_node():
    t = parse_term("f a (g b) c")
    assert t.__class__ is parse.RApp and t.span == (0, 11)
    assert t.fn == parse_term("f")
    assert [arg.__class__ for arg in t.args] == [parse.RVar, parse.RApp, parse.RVar]
    assert t.args[1].args == (parse_term("b"),)
    # a parenthesised chain that heads more arguments is continued
    t = parse_term("(f a) b")
    assert t == parse_term("f a b")
    assert (t.span, t.fn.span, [arg.span for arg in t.args]) == ((1, 7), (1, 2), [(3, 4), (6, 7)])


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
    assert t.former is core.J and len(t.args) == 5
    t2 = parse_term("suc (suc zero)")
    assert t2.former is core.Suc
    with pytest.raises(Diagnostic):
        parse_term("natelim (\\n. Nat) zero")  # missing two arguments


def test_holes_parse_but_are_marked():
    t = parse_term("f _")
    assert isinstance(t.args[0], parse.RHole)


def test_every_node_carries_a_span():
    src = "def f (x : Nat) : Nat × Unit := (suc x , star)"
    decls = parse_file(src)

    def walk(node):
        assert 0 <= node.span[0] <= node.span[1] <= len(src)
        for name in node.__match_args__:
            field = getattr(node, name)
            for child in field if isinstance(field, tuple) else (field,):
                if isinstance(child, parse.Raw):
                    walk(child)

    walk(decls[0].ty)
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


# A printer for raw terms, for the print-parse-print fixed point.  Built-ins
# print from the parser's table: the keyword, then the arguments as atoms.


def pretty_raw(t: parse.Raw, prec: int = TERM) -> str:
    cls = t.__class__
    if cls is parse.RVar:
        return t.name
    if cls is parse.RUniv:
        return f"U{t.level}" if t.layer is FIB else f"US{t.level}"
    if cls is parse.RPi or cls is parse.RSigma:
        pi = cls is parse.RPi
        left, right = (t.dom, t.cod) if pi else (t.fst, t.snd)
        if t.binder is None:
            head = pretty_raw(left, SIGMA if pi else APP)
        else:
            head = f"({t.binder} : {pretty_raw(left)})"
        out = f"{head} {'->' if pi else '×'} {pretty_raw(right, TERM if pi else SIGMA)}"
        return _wrap(out, prec > (TERM if pi else SIGMA))
    if cls is parse.RLam:
        return _wrap(f"\\{t.binder}. {pretty_raw(t.body)}", prec > TERM)
    if cls is parse.RApp:
        args = [pretty_raw(arg, ATOM) for arg in t.args]
        return _wrap(" ".join([pretty_raw(t.fn, APP), *args]), prec > APP)
    if cls is parse.RPair:
        return f"({pretty_raw(t.fst)} , {pretty_raw(t.snd)})"
    if cls is parse.RHole:
        return "_"
    kw = parse.SPELLING[t.former, t.layer]
    args = [pretty_raw(arg, ATOM) for arg in t.args]
    return _wrap(" ".join([kw, *args]), prec > APP) if args else kw


def pretty_raw_file(decls: list[parse.RawDecl]) -> str:
    lines = []
    for d in decls:
        line = f"{d.kind} {d.name} : {pretty_raw(d.ty)}"
        lines.append(line if d.body is None else f"{line} := {pretty_raw(d.body)}")
    return "\n".join(lines) + "\n"


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


def _front_end_roots(source):
    """Lex and parse ``source`` as a file, asserting that each ends in
    well-formed output or a coded diagnostic.  Returns the declarations'
    types and bodies, or None where the file does not parse."""
    try:
        tokens = lex(source)
    except Diagnostic as diag:
        assert diag.code in ("SYNTAX", "ILLEGAL_CHAR")
    else:
        assert tokens[-1] == ("EOF", "", (len(source), len(source)))
        for _, text, (start, end) in tokens[:-1]:
            assert source[start:end] == text != ""
        for (_, _, before), (_, _, after) in zip(tokens, tokens[1:]):
            assert before[1] <= after[0] and before[0] < after[0]
    try:
        decls = parse_file(source)
    except Diagnostic as diag:
        assert diag.code in ("SYNTAX", "ILLEGAL_CHAR")
        return None
    assert all(isinstance(d, parse.RawDecl) for d in decls)
    return [t for d in decls for t in (d.ty, d.body) if t is not None]


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(st.lists(st.sampled_from(_PIECES + _JUNK), max_size=40).map("".join))
def test_front_end_is_total(source):
    _front_end_roots(source)


def test_front_end_is_total_after_a_declaration_head():
    # Random pieces alone almost never parse as a file with an application
    # in it; behind a declaration head, 174 of these 20 000 strings do.
    rng = random.Random(1)
    with_app = 0
    for _ in range(20_000):
        head = rng.choice(("def d : ", "def d : U0 := "))
        roots = _front_end_roots(head + "".join(rng.choices(_PIECES, k=rng.randint(0, 40))))
        if roots is not None:
            assert no_app_heads_an_app(roots)
            with_app += any(node.__class__ is parse.RApp for node in raw_nodes(roots))
    assert with_app >= 150


def raw_nodes(roots):
    """Every raw node under ``roots``, walked with an explicit stack."""
    stack = list(roots)
    while stack:
        node = stack.pop()
        yield node
        for name in node.__match_args__:
            field = getattr(node, name)
            stack.extend(child for child in (field if isinstance(field, tuple) else (field,))
                         if isinstance(child, parse.Raw))


def no_app_heads_an_app(roots) -> bool:
    return all(node.fn.__class__ is not parse.RApp
               for node in raw_nodes(roots) if node.__class__ is parse.RApp)


def test_no_parsed_application_has_an_application_head(manifest):
    sources = [manifest.source(entry) for entry in manifest.entries]
    sources += [gen_sst(GenPlan(n)) for n in range(1, 8)]
    sources += [gen_segal_scaffold(GenPlan(n, emit=frozenset({"segal"}))) for n in range(2, 6)]
    sources.append("def t : U0 := ((f a) b) (g c) ((h) d e)")
    for source in sources:
        decls = parse_file(source)
        assert no_app_heads_an_app([t for d in decls for t in (d.ty, d.body) if t is not None])
    [t] = [d.body for d in parse_file(sources[-1])]
    assert t == parse_term("f a b (g c) (h d e)")


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(st.lists(st.sampled_from(_PIECES), max_size=40).map("".join))
def test_no_application_from_random_pieces_has_an_application_head(source):
    # as terms: few random pieces parse as files, and none with an application
    try:
        term = parse_term(source)
    except Diagnostic:
        return
    assert no_app_heads_an_app([term])


def test_parse_work_per_token_is_bounded(config):
    # Call counts are deterministic, unlike wall time.  The recursive-descent
    # parser and per-character lexer made 24.1 calls per prelude token.
    # getstats() counts per code object, so it needs no unique pstats keys.
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
    assert t.former is core.Suc and t.span == (0, 4 * depth + 4)
    t = parse_term("A -> " * depth + "A")
    assert isinstance(t, parse.RPi) and t.span[1] == 5 * depth + 1
    t = parse_term("\\x. (y : A) × (" * depth + "x" + ")" * depth)
    assert isinstance(t, parse.RLam) and isinstance(t.body, parse.RSigma)


def test_parse_of_sst8_stays_within_its_memory():
    # tracemalloc counts bytes, not time: the same on every run of one
    # Python.  With a (start, end) tuple in every token and name leaf, SST-8
    # kept 2 269 KiB and peaked at 3 111 KiB (Python 3.11).
    source = gen_sst(GenPlan(8))
    tracemalloc.start()
    try:
        decls = parse_file(source)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert decls and kept <= 1_300 * 1024 and peak <= 2_200 * 1024, (kept // 1024, peak // 1024)


def test_every_name_spans_its_token_and_shares_its_word():
    sources = [path.read_text(encoding="utf-8") for path in sorted((REPO_ROOT / "stdlib").rglob("*.tt"))]
    sources.append(gen_sst(GenPlan(5)))
    leaves = 0
    for source in sources:
        tokens = {span[0]: (kind, text, span) for kind, text, span in lex(source)}
        names = [node for node in raw_nodes(t for d in parse_file(source) for t in (d.ty, d.body)
                                            if t is not None)
                 if node.__class__ is parse.RVar]
        leaves += len(names)
        for node in names:
            assert tokens[node.start] == ("IDENT", node.name, node.span)
        # one string per distinct word: the leaves that name it share it
        assert len({id(node.name) for node in names}) == len({node.name for node in names})
    assert leaves > 1_000


def test_150_nested_successors_check(config, base_sig):
    source = "def n : Nat := " + "suc (" * 150 + "zero" + ")" * 150
    _, diags = elaborate_signature(parse_file(source), base_sig, config)
    assert not diags


def test_composite_spans_run_from_their_first_child_to_their_last():
    # An application spans from its head's start to its last argument's
    # end, a Π or Σ from its domain's start to its codomain's end, and an
    # argument written as a name spans its token.  A λ runs from its ``\``,
    # or from the declaration's keyword for a telescope's λ, to its body's
    # end; a pair from its ``(`` to its ``)``; a built-in from its keyword to
    # its last atom; a universe or a hole spans its own token; and a
    # declaration runs from its keyword to its last token.  The last source
    # is there for its holes, which no other source has.
    sources = [path.read_text(encoding="utf-8") for path in sorted((REPO_ROOT / "stdlib").rglob("*.tt"))]
    sources += [gen_sst(GenPlan(6)), gen_segal_scaffold(GenPlan(5)),
                "postulate f : Nat -> Nat\ndef h : Nat := f _\ndef k : _ := (_, (_))"]
    seen = collections.Counter()
    names = 0
    for source in sources:
        toks = lex(source)
        tokens = {span[0]: (kind, text, span) for kind, text, span in toks}
        # the kinds of the token that ends at an offset and of the one after it
        ending = {span[1]: kind for kind, _, span in toks[:-1]}
        after = {span[1]: toks[i + 1][0] for i, (_, _, span) in enumerate(toks[:-1])}
        for decl in parse_file(source):
            seen[parse.RawDecl] += 1
            start, end = decl.span
            assert tokens[start][0] == decl.kind and after[end] in ("def", "postulate", "EOF")
            for node in raw_nodes(t for t in (decl.ty, decl.body) if t is not None):
                cls = node.__class__
                seen[cls] += 1
                start, end = node.span
                if cls is parse.RApp:
                    assert node.span == (node.fn.span[0], node.args[-1].span[1])
                    for arg in node.args:
                        if arg.__class__ is parse.RVar:
                            names += 1
                            assert tokens[arg.start] == ("IDENT", arg.name, arg.span)
                elif cls is parse.RPi or cls is parse.RSigma:
                    first, last = (node.dom, node.cod) if cls is parse.RPi else (node.fst, node.snd)
                    assert node.span == (first.span[0], last.span[1])
                elif cls is parse.RLam:
                    assert tokens[start][0] == "LAMBDA" or (start, "def") == (decl.span[0], decl.kind)
                    assert end == node.body.span[1]
                elif cls is parse.RPair:
                    assert tokens[start][0] == "LPAREN" and ending[end] == "RPAREN"
                    assert start < node.fst.span[0] and node.snd.span[1] < end
                elif cls is parse.RBuiltin:
                    assert tokens[start][0] == parse.SPELLING[node.former, node.layer]
                    assert end == (node.args[-1].span[1] if node.args else tokens[start][2][1])
                elif cls is parse.RUniv or cls is parse.RHole:
                    kind = "UNIV" if cls is parse.RUniv else "UNDERSCORE"
                    assert tokens[start][::2] == (kind, node.span)
    assert seen[parse.RApp] > 400 and seen[parse.RPi] + seen[parse.RSigma] > 500
    assert min(seen[cls] for cls in (parse.RApp, parse.RPi, parse.RLam, parse.RBuiltin)) > 200
    assert min(seen[cls] for cls in (parse.RSigma, parse.RUniv, parse.RawDecl)) > 100
    assert seen[parse.RPair] > 20 and seen[parse.RHole] == 4 and names > 2_000


def test_a_run_of_names_around_a_group_is_one_application():
    t = parse_term("f a b (g c) d e")
    assert t.__class__ is parse.RApp and t.span == (0, 15) and t.fn == parse_term("f")
    assert t.args == tuple(map(parse_term, ("a", "b", "g c", "d", "e")))
    assert [arg.span for arg in t.args] == [(2, 3), (4, 5), (7, 10), (12, 13), (14, 15)]


def test_a_file_with_no_diagnostic_computes_no_offset(monkeypatch, config, base_sig):
    # Token offsets are computed only when a span is read, and nothing
    # reads one on the way to a clean check: parsing, elaboration and
    # ``tt2 check`` all pass with the offset pass made to fail.
    def refuse(tokens):
        raise AssertionError("a token offset was computed")

    monkeypatch.setattr(parse.Tokens, "starts", refuse)
    with pytest.raises(AssertionError):  # a diagnostic does read one
        parse_file("def a : U0 := @")
    sig = base_sig
    for source in ((REPO_ROOT / "stdlib" / "equiv.tt").read_text(encoding="utf-8"),
                   gen_segal_scaffold(GenPlan(3))):
        sig, diags = elaborate_signature(parse_file(source), sig, config)
        assert not diags
    assert sig.lookup("SegalCondition3") is not None
    monkeypatch.chdir(REPO_ROOT)
    assert cli.main(["check", "stdlib/basics.tt", "stdlib/uip_use.tt"]) == 0
