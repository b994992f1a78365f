"""The token stream pinned by a hash: ``parse.lex`` over the stdlib, the
prelude, generated files and seeded mutations of them must give the same
tokens, or the same diagnostic (code, span and message), as the lexer that
``tests/golden/tokens.sha256`` was taken from."""

import hashlib
import random

import differential
import scan_reference
from conftest import REPO_ROOT, prelude_source

from tt2.diagnostics import Diagnostic
from tt2.elab import Config
from tt2.parse import lex
from tt2.sstgen import GenPlan, gen_segal_scaffold, gen_spine, gen_sst

# Spliced into the mutations: comment openers and closers, a comment that
# looks like an arrow, CRLF, characters outside the grammar, and words on
# either side of the universe rule.
_SPLICES = ["{-", "-}", "--", "-->", "\r\n", "\x0b", "\f", " ", "é", "U0x", "US"]
MUTATIONS = 2_000


def lex_inputs() -> list[str]:
    """The stdlib files, the prelude and the generated files, then
    ``MUTATIONS`` seeded windows of them with pieces spliced in."""
    pool = [path.read_text(encoding="utf-8")
            for path in sorted((REPO_ROOT / "stdlib").rglob("*.tt"))]
    pool.append(prelude_source(Config()))
    pool += [gen_sst(GenPlan(n)) for n in range(9)]
    pool += [gen_segal_scaffold(GenPlan(n)) for n in range(2, 9)]
    pool += [gen_spine(GenPlan(n)) for n in range(1, 7)]
    rng = random.Random(16)
    mutated = []
    for _ in range(MUTATIONS):
        base = rng.choice(pool)
        start = rng.randrange(len(base))
        text = base[start:start + rng.randrange(1, 2_000)]
        for _ in range(rng.randint(1, 4)):
            at = rng.randrange(len(text) + 1)
            text = text[:at] + rng.choice(_SPLICES) + text[at:]
        mutated.append(text)
    return pool + mutated


def test_token_streams_match_the_golden_hash():
    digest = hashlib.sha256()
    outcomes = set()
    for source in lex_inputs():
        try:
            record = repr(lex(source))
            outcomes.add("tokens")
        except Diagnostic as diag:
            record = repr((diag.code, diag.span, diag.message))
            outcomes.add(diag.code)
        digest.update(record.encode("utf-8") + b"\n")
    # the inputs reach a token list and both diagnostics of the lexer
    assert outcomes == {"tokens", "SYNTAX", "ILLEGAL_CHAR"}
    expected = (REPO_ROOT / "tests" / "golden" / "tokens.sha256").read_text().split()[0]
    assert digest.hexdigest() == expected


def lex_outcome(lexer, source: str):
    """The tokens ``lexer`` gives ``source``, or its diagnostic's code,
    span and message."""
    try:
        return lexer(source)
    except Diagnostic as diag:
        return (diag.code, diag.span, diag.message)


# Inserted by the mutations below: comment openers and closers, a comment
# that looks like an arrow, an empty block comment, characters outside the
# grammar, the Unicode spellings of λ and ×, and a CRLF line end.
_INSERTS = ["--", "-->", "{-", "-}", "{--}", "@", "\x0b", "λ", "×", "\r\n"]
_EDITS = ("delete", "duplicate", "splice", "insert", "insert")
SCAN_MUTATIONS = 600


def scan_inputs() -> list[str]:
    """The stdlib files, SST-1..7 and Segal-2..5, then ``SCAN_MUTATIONS``
    seeded mutations of windows of them, drawn by ``differential.mutate``:
    tokens deleted, duplicated or spliced in from another input, and pieces
    of ``_INSERTS`` put in at token boundaries or anywhere.  The first
    mutation has an illegal character before an unterminated ``{-``."""
    pool = [path.read_text(encoding="utf-8")
            for path in sorted((REPO_ROOT / "stdlib").rglob("*.tt"))]
    pool += [gen_sst(GenPlan(n)) for n in range(1, 8)]
    pool += [gen_segal_scaffold(GenPlan(n)) for n in range(2, 6)]
    donors = [(source, differential.tokens_of(source)) for source in pool]
    rng = random.Random(34)
    mutated = []
    for _ in range(SCAN_MUTATIONS):
        text = differential.window(rng, rng.choice(donors))
        mutated.append(differential.mutate(rng, text, donors, _EDITS, _INSERTS)[0])
    # an illegal character, then a block comment that never ends
    mutated[0] = (differential.window(rng, donors[0]) + " @ {- "
                  + differential.window(rng, donors[1]).replace("-}", ""))
    return pool + mutated


def test_lex_matches_the_reference_scanner():
    inputs = scan_inputs()
    outcomes = set()
    for source in inputs:
        expected = lex_outcome(scan_reference.lex, source)
        assert lex_outcome(lex, source) == expected, source
        outcomes.add("tokens" if expected.__class__ is list else expected[0])
    assert outcomes == {"tokens", "SYNTAX", "ILLEGAL_CHAR"}
    # the first problem in source order wins: the illegal character, not
    # the comment that follows it and never ends
    crafted = inputs[-SCAN_MUTATIONS]
    at = crafted.index(" @ {- ") + 1
    assert lex_outcome(lex, crafted)[:2] == ("ILLEGAL_CHAR", (at, at + 1))
