"""Lexer and precedence-climbing parser for the surface language.

The lexer works in bulk passes over the whole source.  First each comment,
``--`` to the end of its line or a nested ``{- -}`` found by a
depth-counting search, is replaced by as many spaces, so that no offset
moves and what is left is tokens and whitespace.  Then one ``findall``
takes the text of every token: ``:=``, ``->``, a word, or any one
character other than whitespace.  One dict maps a token's text to its
``(kind, word)`` pair, whose word is the one ``str`` that every token of
that text shares.  The dict holds the punctuation and keywords; only the
distinct texts it lacks are looked at, each sorted into universe or
identifier and added to it for this source only, or found to be outside
the grammar.  The first problem in source order is raised: a character
outside the grammar is an ``ILLEGAL_CHAR``, and an unterminated block
comment, blanked to the end of the source, comes after every token.

``scan`` returns a ``Tokens`` table: one shared pair per token, with no
offset, no ``re.Match`` and no tuple of its own.  Offsets are computed
only when a span is read: the table's first ``starts`` call finds every
token's start with one ``finditer`` pass over the blanked source.  A raw
node holds no offset: it keeps ``first`` and ``last``, the indices of its
first and last tokens, and ``tokens``, its file's table.  A name's one
token is both, so it keeps a single index.  ``span`` and a name's
``start`` read offsets through the table, so a file that parses and
checks with no diagnostic never computes one.  ``lex``, the public token
list that ``tests/golden/tokens.sha256`` pins, pairs each token with its
span.

Precedence, loosest to tightest: lambda bodies extend right, then ``->``
(right associative), then the pair former ``×`` (right associative), then
application (left associative), then atoms.  The parser climbs these
levels in one loop over an explicit stack of unfinished constructs:
lambda binders, binder groups (the operand left of ``->`` or ``×`` is one),
parentheses, applications and built-ins still short of arguments.  An
operator closes the frames of tighter levels, and the end of a term closes
all of its frames, so nesting depth costs list entries, not Python calls.
An application chain ``f a1 … an`` is one ``RApp`` node, with the
arguments as a tuple, and a parenthesised chain that heads more arguments,
as in ``(f a) b``, is continued, so no ``RApp`` has an ``RApp`` head.
While an application is open, a run of names is read into its arguments
in one inner loop, not one pass of the state machine per name.  A
composite node starts at its first child's first token or at its opening
one, and ends at its last child's last token or at its ``)``.  A
declaration runs from its keyword to its last token, and comes out
finished: the frames that close binder groups and lambdas fold its
telescope into its type, as Π binders, and into its body, as lambdas.

Built-ins are the rows of ``_FORMERS``: keyword, core class and layer
(None where one keyword serves both layers).  They take one atom per
field of their core class and parse as saturated primaries (``J`` takes
five atoms, ``natelim`` four), so partial application of a built-in is a
parse-time arity decision rather than a typing one.  Each parses to one
``RBuiltin`` node that holds its row's core class and layer and its
atoms, in the core class's field order, and the elaborator dispatches on
that core class.  The same table gives the lexer's ``KEYWORDS``, the
parser's ``_ATOM_STARTERS``, and ``SPELLING``, from which the core
printer and the elaborator's messages take each built-in's keyword.
"""

from __future__ import annotations

import re
from typing import Optional

from . import core
from .core import FIB, STRICT, Layer, Node
from .diagnostics import Diagnostic, ILLEGAL_CHAR, SYNTAX, Span


# ---------------------------------------------------------------------------
# Raw terms


class Raw(Node, frozen=True, uncompared=("first", "tokens")):
    """A raw term.  ``first`` and ``last`` are the indices of its first and
    last tokens in ``tokens``, its file's table, and ``==`` compares none of
    them.  Its ``span``, its ``(start, end)`` in the source, is read through
    the table only when asked for."""

    first: int
    tokens: Tokens

    @property
    def span(self) -> Span:
        return self.tokens.span(self.first, self.last)


class RVar(Raw):
    """A name: its one token is its first and its last, and ``name`` is that
    token's shared word."""

    name: str
    last = Raw.first  # the same slot, read under a second name

    @property
    def start(self) -> int:
        return self.tokens.starts()[self.first]


class _Spanned(Raw, uncompared=("last",)):
    """A raw term other than a name, or a declaration.  It keeps the index
    of its last token: its own, its last child's last or its ``)``."""

    last: int


class RUniv(_Spanned):
    layer: Layer
    level: int  # or infinity, where it has more digits than int() converts


class RPi(_Spanned):
    binder: Optional[str]
    dom: Raw
    cod: Raw


class RSigma(_Spanned):
    binder: Optional[str]
    fst: Raw
    snd: Raw


class RLam(_Spanned):
    binder: str
    body: Raw


class RApp(_Spanned):
    """An application chain ``fn a1 … an``, one node for the whole chain."""

    fn: Raw
    args: tuple[Raw, ...]


class RPair(_Spanned):
    fst: Raw
    snd: Raw


class RBuiltin(_Spanned):
    """A built-in: its core class ``former`` from ``_FORMERS``, its
    ``layer`` (None where one keyword serves both layers) and its atoms,
    in the core class's field order."""

    former: type
    layer: Optional[Layer]
    args: tuple[Raw, ...]


class RHole(_Spanned):
    pass


class RawDecl(_Spanned):
    """A declaration, its telescope folded into ``ty`` and ``body``, from its
    keyword to its last token.  ``==`` compares its span."""

    kind: str  # "def" | "postulate"
    name: str
    ty: Raw
    body: Optional[Raw]


# What ``match`` binds, ``repr`` shows and a declaration's ``==`` compares:
# offsets, read through ``start`` or ``span``, in place of token indices and
# their table.
RVar.__match_args__ = ("start", *RVar._compared)
for _cls in (RUniv, RPi, RSigma, RLam, RApp, RPair, RBuiltin, RHole):
    _cls.__match_args__ = ("span", *_cls._compared)
RawDecl.__match_args__ = RawDecl._compared = (*RawDecl._compared, "span")


# ---------------------------------------------------------------------------
# Built-in formers

# keyword: (core class, layer or None where the layers share it)
_FORMERS: dict[str, tuple[type, Optional[Layer]]] = {
    "Unit": (core.Unit, None), "star": (core.Star, None),
    "zero": (core.Zero, None), "suc": (core.Suc, None),
    "fst": (core.Fst, None), "snd": (core.Snd, None),
    "inl": (core.Inl, None), "inr": (core.Inr, None),
    "Nat": (core.Nat, FIB), "NatS": (core.Nat, STRICT),
    "Empty": (core.Empty, FIB), "EmptyS": (core.Empty, STRICT),
    "Sum": (core.Sum, FIB), "SumS": (core.Sum, STRICT),
    "refl": (core.Refl, FIB), "reflS": (core.Refl, STRICT),
    "exfalso": (core.EmptyElim, FIB), "exfalsoS": (core.EmptyElim, STRICT),
    "Id": (core.Id, FIB), "Eq": (core.Id, STRICT),
    "natelim": (core.NatElim, FIB), "natelimS": (core.NatElim, STRICT),
    "sumelim": (core.SumElim, FIB), "sumelimS": (core.SumElim, STRICT),
    "J": (core.J, FIB), "JS": (core.J, STRICT),
}
# The keyword of a built-in, keyed by (core class, layer or None where the
# layers share it).
SPELLING = {row: kw for kw, row in _FORMERS.items()}
KEYWORDS = {"def", "postulate", *_FORMERS}
_ATOM_STARTERS = {"IDENT", "UNIV", "LPAREN", "UNDERSCORE", *_FORMERS}
_BINDERS = {"IDENT", "UNDERSCORE"}


# ---------------------------------------------------------------------------
# Lexer

# With its comments blanked, a source is tokens and whitespace: a token is
# ``:=``, ``->``, a word, or any one character that is not whitespace.  The
# text of a token gives its kind and its shared string through ``_KINDS``;
# a miss is a new word or a character outside the grammar.
_TOKEN = re.compile(r":=|->|[A-Za-z][A-Za-z0-9_']*|[^ \t\r\n]")
_KINDS = {text: (kind, text) for text, kind in {
    ":=": "ASSIGN", "->": "ARROW", "(": "LPAREN", ")": "RPAREN", ",": "COMMA",
    ":": "COLON", ".": "DOT", "\\": "LAMBDA", "λ": "LAMBDA", "×": "TIMES",
    "_": "UNDERSCORE", **{kw: kw for kw in KEYWORDS},
}.items()}
_EOF = ("EOF", "")
_UNIV = re.compile(r"US?[0-9]+")
_LETTERS = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz")
_COMMENT = re.compile(r"--[^\n]*|\{-")
_NESTING = re.compile(r"\{-|-\}")


class Tokens:
    """A source's tokens.  ``pairs[i]`` is the i-th token's ``(kind, word)``:
    a punctuation name, a keyword, ``IDENT``, ``UNIV`` or ``EOF``, and the
    one ``str`` that every token of that text shares, in one pair that they
    share too.  No offset is kept: ``starts`` computes every token's start
    from ``text``, the source with its comments blanked, on its first call."""

    __slots__ = ("pairs", "text", "_starts")

    def __init__(self, pairs: list[tuple[str, str]], text: str):
        self.pairs, self.text, self._starts = pairs, text, None

    def starts(self) -> list[int]:
        if self._starts is None:
            self._starts = [m.start() for m in _TOKEN.finditer(self.text)]
            self._starts.append(len(self.text))
        return self._starts

    def span(self, first: int, last: int) -> Span:
        """From the start of token ``first`` to the end of token ``last``."""
        starts = self.starts()
        return (starts[first], starts[last] + len(self.pairs[last][1]))


def _blank_comments(source: str) -> tuple[str, Optional[int]]:
    """``source`` with each comment replaced by as many spaces, so that no
    offset moves, and the start of an unterminated block comment, blanked
    to the end, or None."""
    m = _COMMENT.search(source)
    if m is None:
        return source, None
    parts, i = [], 0
    while m is not None:
        start, end = m.span()
        if source[start] == "{":  # skip to its matching ``-}``
            depth = 1
            while depth:
                mark = _NESTING.search(source, end)
                if mark is None:
                    parts += (source[i:start], " " * (len(source) - start))
                    return "".join(parts), start
                depth += 1 if mark[0] == "{-" else -1
                end = mark.end()
        parts += (source[i:start], " " * (end - start))
        i = end
        m = _COMMENT.search(source, i)
    parts.append(source[i:])
    return "".join(parts), None


def scan(source: str) -> Tokens:
    """Tokenize; comments (`--` line, `{- -}` nested block) and whitespace
    are skipped.  Raises a Diagnostic at the first problem in the source: a
    character outside the grammar or an unterminated block comment."""
    text, unterminated = _blank_comments(source)
    texts = _TOKEN.findall(text)
    words = _KINDS.copy()  # grows by the words of this source
    illegal = set()
    for word in set(texts).difference(words):
        if word[0] in _LETTERS:
            words[word] = ("UNIV" if _UNIV.fullmatch(word) else "IDENT", word)
        else:
            illegal.add(word)
    tokens = Tokens(list(map(words.get, texts)), text)
    if illegal:  # the first of them, which precedes any unterminated comment
        at = next(i for i, word in enumerate(texts) if word in illegal)
        start = tokens.starts()[at]
        raise Diagnostic(ILLEGAL_CHAR, (start, start + 1), f"illegal character {texts[at]!r}")
    if unterminated is not None:
        raise Diagnostic(SYNTAX, (unterminated, len(source)), "unterminated block comment")
    tokens.pairs.append(_EOF)
    return tokens


def lex(source: str) -> list[tuple[str, str, Span]]:
    """``scan``'s tokens, each as ``(kind, text, span)``."""
    tokens = scan(source)
    return [(kind, text, (start, start + len(text)))
            for (kind, text), start in zip(tokens.pairs, tokens.starts())]


# ---------------------------------------------------------------------------
# Parser

# Stack frames are (_PAREN, index of its token, terms before the last comma),
# (_GROUP, names, earlier groups), (_BUILTIN, index of its token, arguments
# so far), (_APP, function, arguments so far), (_LAM, index of its token,
# names) and (_PI_GROUPS or _SIGMA_GROUPS, groups, None).  The left operand
# of ``->`` or ``×`` is a group of one binder named ``_``.  Openers (from
# _LAM on) end with their term; sigma-level ones also end at ``->``.
_ROOT, _PAREN, _GROUP, _BUILTIN, _APP = range(5)
_LAM, _PI_GROUPS, _SIGMA_GROUPS = range(5, 8)
# What the term loop does next: start an operand, read an atom, or use one.
_START, _ATOM, _DONE = range(3)


# What ``expect`` names in a message, for each kind it is asked for.
_WRITTEN = {"IDENT": "a name", "COLON": "':'", "ASSIGN": "':='", "RPAREN": "')'",
            "EOF": "end of input"}


def _fail(tokens: Tokens, pos: int, expected: str) -> Diagnostic:
    text = tokens.pairs[pos][1]
    found = repr(text) if text else "end of input"
    return Diagnostic(SYNTAX, tokens.span(pos, pos), f"expected {expected}, found {found}")


def _group_colon(toks: list[tuple[str, str]], pos: int) -> int:
    """The index of the ``:`` of a binder group whose ``(`` is at ``pos``, or 0."""
    j = pos + 1
    while toks[j][0] in _BINDERS:
        j += 1
    return j if j > pos + 1 and toks[j][0] == "COLON" else 0


def _close(frame: tuple, body: Raw, tokens: Tokens) -> Raw:
    """Finish an opener frame with the term that follows it."""
    tag, head, names = frame
    last = body.last
    if tag == _LAM:
        for name in reversed(names):
            body = RLam(head, tokens, last, name, body)
        return body
    former = RPi if tag == _PI_GROUPS else RSigma
    for name, ty in reversed(head):
        body = former(ty.first, tokens, last, None if name == "_" else name, ty, body)
    return body


class _Parser:
    def __init__(self, tokens: Tokens):
        self.tokens = tokens
        self.toks = tokens.pairs
        self.pos = 0

    def peek(self) -> tuple[str, str]:
        return self.toks[self.pos]

    def expect(self, kind: str) -> tuple[str, str]:
        tok = self.peek()
        if tok[0] != kind:
            raise _fail(self.tokens, self.pos, _WRITTEN[kind])
        self.pos += 1
        return tok

    # -- declarations -------------------------------------------------------

    def parse_file(self) -> list[RawDecl]:
        decls = []
        while self.peek()[0] != "EOF":
            decls.append(self.parse_decl())
        return decls

    def parse_decl(self) -> RawDecl:
        first = self.pos
        kind = self.peek()[0]
        if kind not in ("def", "postulate"):
            raise _fail(self.tokens, first, "'def' or 'postulate'")
        self.pos += 1
        name = self.expect("IDENT")[1]
        telescope = []
        while self.peek()[0] == "LPAREN":
            telescope.extend(self.parse_binder_group())
        self.expect("COLON")
        ty = _close((_PI_GROUPS, telescope, None), self.term(), self.tokens)
        body = None
        if kind == "def":
            self.expect("ASSIGN")
            body = _close((_LAM, first, [name for name, _ in telescope]), self.term(), self.tokens)
        return RawDecl(first, self.tokens, self.pos - 1, kind, name, ty, body)

    def parse_binder_group(self) -> list[tuple[str, Raw]]:
        self.pos += 1  # the caller saw the "("
        names = []
        while self.peek()[0] in _BINDERS:
            names.append(self.peek()[1])
            self.pos += 1
        if not names:
            raise _fail(self.tokens, self.pos, "binder name")
        self.expect("COLON")
        ty = self.term()
        self.expect("RPAREN")
        return [(name, ty) for name in names]

    # -- terms --------------------------------------------------------------

    def term(self) -> Raw:
        """Parse one term and stop at the first token that cannot extend it.

        One loop over an explicit stack: a frame is pushed for each
        construct still waiting for a subterm and popped when that subterm
        ends, so no nesting costs a Python call."""
        tokens = self.tokens
        toks = self.toks
        pos = self.pos
        stack: list[tuple] = [(_ROOT, None, None)]
        state, lam_ok = _START, True  # lambdas start only terms, not operands
        while True:
            if state == _START:
                kind = toks[pos][0]
                if kind == "LAMBDA" and lam_ok:
                    lam = pos
                    pos += 1
                    names = []
                    while toks[pos][0] in _BINDERS:
                        names.append(toks[pos][1])
                        pos += 1
                    if not names:
                        raise _fail(tokens, pos, "lambda binder")
                    if toks[pos][0] != "DOT":
                        raise _fail(tokens, pos, "'.'")
                    pos += 1
                    stack.append((_LAM, lam, names))
                    continue
                colon = kind == "LPAREN" and _group_colon(toks, pos)
                if colon:
                    stack.append((_GROUP, [t[1] for t in toks[pos + 1:colon]], []))
                    pos, lam_ok = colon + 1, True
                    continue
                state = _ATOM
            if state == _ATOM:
                at = pos
                kind, text = toks[pos]
                pos += 1
                if kind == "IDENT":
                    val = RVar(at, tokens, text)
                elif kind == "LPAREN":
                    stack.append((_PAREN, at, []))
                    state, lam_ok = _START, True
                    continue
                elif kind in _FORMERS:
                    former, layer = _FORMERS[kind]
                    if former.SUB:
                        stack.append((_BUILTIN, at, []))
                        if toks[pos][0] not in _ATOM_STARTERS:
                            raise _fail(tokens, pos, f"argument of {kind}")
                        continue
                    val = RBuiltin(at, tokens, at, former, layer, ())
                elif kind == "UNIV":  # U<level> or US<level>
                    strict = text[1] == "S"
                    try:
                        level = int(text[1 + strict:])
                    except ValueError:  # too many digits to convert
                        level = float("inf")
                    val = RUniv(at, tokens, at, STRICT if strict else FIB, level)
                elif kind == "UNDERSCORE":
                    val = RHole(at, tokens, at)
                else:
                    raise _fail(tokens, at, "a term")
                state = _DONE
            # An atom has ended: it is a built-in's argument, an argument in
            # an application, or the head of an application.
            tag, head, args = stack[-1]
            if tag == _BUILTIN:
                args.append(val)
                keyword = toks[head][0]
                former, layer = _FORMERS[keyword]
                if len(args) < len(former.SUB):
                    if toks[pos][0] not in _ATOM_STARTERS:
                        raise _fail(tokens, pos, f"argument of {keyword}")
                    state = _ATOM
                    continue
                stack.pop()
                val = RBuiltin(head, tokens, val.last, former, layer, tuple(args))
                continue
            tok = toks[pos]
            kind = tok[0]
            if tag == _APP or kind in _ATOM_STARTERS:
                if tag == _APP:
                    args.append(val)
                else:
                    # ``(f a) b`` continues the chain ``f a``: no RApp heads an RApp
                    head, args = (val.fn, list(val.args)) if val.__class__ is RApp else (val, [])
                    stack.append((_APP, head, args))
                while kind == "IDENT":  # a run of names, without the state machine
                    args.append(RVar(pos, tokens, tok[1]))
                    pos += 1
                    tok = toks[pos]
                    kind = tok[0]
                if kind in _ATOM_STARTERS:
                    state = _ATOM
                    continue
                stack.pop()
                val = RApp(head.first, tokens, args[-1].last, head, tuple(args))
            # The application has ended: it is an operand of ``×`` or ``->``.
            if kind == "TIMES" or kind == "ARROW":
                if kind == "ARROW":
                    while stack[-1][0] >= _SIGMA_GROUPS:
                        val = _close(stack.pop(), val, tokens)
                stack.append((_PI_GROUPS if kind == "ARROW" else _SIGMA_GROUPS, [("_", val)], None))
                pos += 1
                state, lam_ok = _START, False
                continue
            # The term has ended: close its openers, then the frame it is in.
            while stack[-1][0] >= _LAM:
                val = _close(stack.pop(), val, tokens)
            tag, head, parts = stack.pop()
            if tag == _ROOT:
                self.pos = pos
                return val
            if tag == _PAREN and kind == "COMMA":
                parts.append(val)
                stack.append((tag, head, parts))
                pos += 1
                state, lam_ok = _START, True
                continue
            if kind != "RPAREN":
                raise _fail(tokens, pos, "')'")
            pos += 1
            if tag == _PAREN:
                for part in reversed(parts):  # to the ')'
                    val = RPair(head, tokens, pos - 1, part, val)
                continue
            # A binder group: more groups may follow, then ``->`` or ``×``.
            for name in head:
                parts.append((name, val))
            colon = toks[pos][0] == "LPAREN" and _group_colon(toks, pos)
            if colon:
                stack.append((_GROUP, [t[1] for t in toks[pos + 1:colon]], parts))
                pos, state, lam_ok = colon + 1, _START, True
                continue
            kind = toks[pos][0]
            if kind != "ARROW" and kind != "TIMES":
                raise _fail(tokens, pos, "'->' or '×' after binder")
            stack.append((_PI_GROUPS if kind == "ARROW" else _SIGMA_GROUPS, parts, None))
            pos += 1
            state, lam_ok = _START, False


def parse_term(source: str) -> Raw:
    parser = _Parser(scan(source))
    term = parser.term()
    parser.expect("EOF")
    return term


def parse_file(source: str) -> list[RawDecl]:
    """Parse a whole surface file; total on text (declarations or a
    Diagnostic, never divergence).  A universe level of any length parses;
    one too long to read as an int is out of range, a ``LEVEL`` diagnostic
    when the declaration is elaborated."""
    return _Parser(scan(source)).parse_file()
