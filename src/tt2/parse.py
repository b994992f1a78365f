"""Lexer and precedence-climbing parser for the surface language.

The lexer is one ``finditer`` scan over a pattern with no whitespace
prefix: its alternatives are a ``--`` comment, ``{-``, ``:=``, ``->``, a
word, and last any one character other than whitespace, so whitespace is
what the scan steps over between matches.  One dict lookup maps the text
of a match to its kind and its word, the one ``str`` that every token of
that text shares.  The dict holds the punctuation and keywords; a word it
lacks is sorted into universe or identifier and added to it, for this
source only.  Line comments are dropped in the same loop.  At ``{-`` a
depth-counting scan skips the nested block comment, and the scan restarts
where the comment ends.  A character that fits no token is an
``ILLEGAL_CHAR``.

``scan`` is this lexer.  Its token is a plain ``(kind, text, start)``
triple, read by position, whose span is ``(start, start + len(text))``.
The parser builds that span only for a diagnostic or for a node that keeps
one; an ``RVar`` keeps just the start and the shared word.  ``lex``, the
public token list that ``tests/golden/tokens.sha256`` pins, is derived from
``scan``'s tokens, each start widened to its span.

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
composite node's span runs from its first child's start, or its opening
token's, to its last child's end; a name's are read as its start and the
length of its word, not through ``RVar.span``.  A declaration comes out
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


class Raw(Node, frozen=True):
    """A raw term.  Its ``span`` is its ``(start, end)`` in the source,
    which ``==`` does not compare."""


class RVar(Raw, uncompared=("start",)):
    """A name.  It keeps its start offset and the token's shared string, and
    its span ends where the name does."""

    start: int
    name: str

    @property
    def span(self) -> Span:
        return (self.start, self.start + len(self.name))


class _Spanned(Raw, uncompared=("span",)):
    """A raw term other than a name, which keeps its span."""

    span: Span


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


class RawDecl(Node, frozen=True):
    """A declaration, its telescope folded into ``ty`` and ``body``."""

    kind: str  # "def" | "postulate"
    name: str
    ty: Raw
    body: Optional[Raw]
    span: Span


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

# One scan takes every token: a line comment, ``{-``, ``:=``, ``->``, a word,
# or any one character that is not whitespace.  The text of a token gives
# its kind and its shared string through ``_KINDS``; a miss is a new word,
# ``{-``, a comment or a character outside the grammar.
_SCAN = re.compile(r"--[^\n]*|\{-|:=|->|[A-Za-z][A-Za-z0-9_']*|[^ \t\r\n]")
_KINDS = {text: (kind, text) for text, kind in {
    ":=": "ASSIGN", "->": "ARROW", "(": "LPAREN", ")": "RPAREN", ",": "COMMA",
    ":": "COLON", ".": "DOT", "\\": "LAMBDA", "λ": "LAMBDA", "×": "TIMES",
    "_": "UNDERSCORE", **{kw: kw for kw in KEYWORDS},
}.items()}
_UNIV = re.compile(r"US?[0-9]+")
_LETTERS = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz")
_NESTING = re.compile(r"\{-|-\}")


# A token: its kind (a punctuation name, a keyword, ``IDENT``, ``UNIV`` or
# ``EOF``), its text and its start offset.
Token = tuple[str, str, int]


def scan(source: str) -> list[Token]:
    """Tokenize; comments (`--` line, `{- -}` nested block) and whitespace
    are skipped.  Raises a Diagnostic on characters outside the grammar."""
    tokens: list[Token] = []
    append = tokens.append
    words = _KINDS.copy()  # grows by the words of this source
    word_of = words.get
    i = 0
    while True:
        for m in _SCAN.finditer(source, i):
            text = m[0]
            word = word_of(text)
            if word is None:
                if text[0] in _LETTERS:
                    word = words[text] = ("UNIV" if _UNIV.fullmatch(text) else "IDENT", text)
                elif text == "{-":
                    break
                elif text[:2] == "--":
                    continue
                else:
                    start = m.start()
                    raise Diagnostic(ILLEGAL_CHAR, (start, start + 1), f"illegal character {text!r}")
            append((word[0], word[1], m.start()))
        else:
            append(("EOF", "", len(source)))
            return tokens
        # a block comment: skip to its matching ``-}``, then scan on
        start, i, depth = m.start(), m.end(), 1
        while depth:
            mark = _NESTING.search(source, i)
            if mark is None:
                raise Diagnostic(SYNTAX, (start, len(source)), "unterminated block comment")
            depth += 1 if mark.group() == "{-" else -1
            i = mark.end()


def lex(source: str) -> list[tuple[str, str, Span]]:
    """``scan``'s tokens, each as ``(kind, text, span)``."""
    return [(kind, text, (start, start + len(text))) for kind, text, start in scan(source)]


# ---------------------------------------------------------------------------
# Parser

# Stack frames are (_PAREN, its token, terms before the last comma), (_GROUP,
# names, earlier groups), (_BUILTIN, its token, arguments so far), (_APP,
# function, arguments so far), (_LAM, its token, names) and (_PI_GROUPS or
# _SIGMA_GROUPS, groups, None).  The left operand of ``->`` or ``×`` is a
# group of one binder named ``_``.  Openers (from _LAM on) end with their
# term; sigma-level ones also end at ``->``.
_ROOT, _PAREN, _GROUP, _BUILTIN, _APP = range(5)
_LAM, _PI_GROUPS, _SIGMA_GROUPS = range(5, 8)
# What the term loop does next: start an operand, read an atom, or use one.
_START, _ATOM, _DONE = range(3)


# What ``expect`` names in a message, for each kind it is asked for.
_WRITTEN = {"IDENT": "a name", "COLON": "':'", "ASSIGN": "':='", "RPAREN": "')'",
            "EOF": "end of input"}


def _fail(tok: Token, expected: str) -> Diagnostic:
    _, text, start = tok
    found = repr(text) if text else "end of input"
    return Diagnostic(SYNTAX, (start, start + len(text)), f"expected {expected}, found {found}")


def _group_colon(toks: list[Token], pos: int) -> int:
    """The index of the ``:`` of a binder group whose ``(`` is at ``pos``, or 0."""
    j = pos + 1
    while toks[j][0] in _BINDERS:
        j += 1
    return j if j > pos + 1 and toks[j][0] == "COLON" else 0


def _close(frame: tuple, body: Raw) -> Raw:
    """Finish an opener frame with the term that follows it."""
    tag, head, names = frame
    end = body.start + len(body.name) if body.__class__ is RVar else body.span[1]
    if tag == _LAM:
        for name in reversed(names):
            body = RLam((head[2], end), name, body)
        return body
    former = RPi if tag == _PI_GROUPS else RSigma
    for name, ty in reversed(head):
        start = ty.start if ty.__class__ is RVar else ty.span[0]
        body = former((start, end), None if name == "_" else name, ty, body)
    return body


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok[0] != kind:
            raise _fail(tok, _WRITTEN[kind])
        self.pos += 1
        return tok

    # -- declarations -------------------------------------------------------

    def parse_file(self) -> list[RawDecl]:
        decls = []
        while self.peek()[0] != "EOF":
            decls.append(self.parse_decl())
        return decls

    def parse_decl(self) -> RawDecl:
        tok = self.peek()
        kind = tok[0]
        if kind not in ("def", "postulate"):
            raise _fail(tok, "'def' or 'postulate'")
        self.pos += 1
        name = self.expect("IDENT")
        telescope = []
        while self.peek()[0] == "LPAREN":
            telescope.extend(self.parse_binder_group())
        self.expect("COLON")
        ty = _close((_PI_GROUPS, telescope, None), self.term())
        body = None
        if kind == "def":
            self.expect("ASSIGN")
            body = _close((_LAM, tok, [name for name, _ in telescope]), self.term())
        _, text, start = self.tokens[self.pos - 1]
        return RawDecl(kind, name[1], ty, body, (tok[2], start + len(text)))

    def parse_binder_group(self) -> list[tuple[str, Raw]]:
        self.pos += 1  # the caller saw the "("
        names = []
        while self.peek()[0] in _BINDERS:
            names.append(self.peek()[1])
            self.pos += 1
        if not names:
            raise _fail(self.peek(), "binder name")
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
        toks = self.tokens
        pos = self.pos
        stack: list[tuple] = [(_ROOT, None, None)]
        state, lam_ok = _START, True  # lambdas start only terms, not operands
        while True:
            if state == _START:
                tok = toks[pos]
                if tok[0] == "LAMBDA" and lam_ok:
                    pos += 1
                    names = []
                    while toks[pos][0] in _BINDERS:
                        names.append(toks[pos][1])
                        pos += 1
                    if not names:
                        raise _fail(toks[pos], "lambda binder")
                    if toks[pos][0] != "DOT":
                        raise _fail(toks[pos], "'.'")
                    pos += 1
                    stack.append((_LAM, tok, names))
                    continue
                colon = tok[0] == "LPAREN" and _group_colon(toks, pos)
                if colon:
                    stack.append((_GROUP, [t[1] for t in toks[pos + 1:colon]], []))
                    pos, lam_ok = colon + 1, True
                    continue
                state = _ATOM
            if state == _ATOM:
                tok = toks[pos]
                kind, text, start = tok
                pos += 1
                if kind == "IDENT":
                    val = RVar(start, text)
                elif kind == "LPAREN":
                    stack.append((_PAREN, tok, []))
                    state, lam_ok = _START, True
                    continue
                elif kind in _FORMERS:
                    former, layer = _FORMERS[kind]
                    if former.SUB:
                        stack.append((_BUILTIN, tok, []))
                        if toks[pos][0] not in _ATOM_STARTERS:
                            raise _fail(toks[pos], f"argument of {kind}")
                        continue
                    val = RBuiltin((start, start + len(text)), former, layer, ())
                elif kind == "UNIV":  # U<level> or US<level>
                    strict = text[1] == "S"
                    try:
                        level = int(text[1 + strict:])
                    except ValueError:  # too many digits to convert
                        level = float("inf")
                    val = RUniv((start, start + len(text)), STRICT if strict else FIB, level)
                elif kind == "UNDERSCORE":
                    val = RHole((start, start + 1))
                else:
                    raise _fail(tok, "a term")
                state = _DONE
            # An atom has ended: it is a built-in's argument, an argument in
            # an application, or the head of an application.
            tag, head, args = stack[-1]
            if tag == _BUILTIN:
                args.append(val)
                former, layer = _FORMERS[head[0]]
                if len(args) < len(former.SUB):
                    if toks[pos][0] not in _ATOM_STARTERS:
                        raise _fail(toks[pos], f"argument of {head[0]}")
                    state = _ATOM
                    continue
                stack.pop()
                end = val.start + len(val.name) if val.__class__ is RVar else val.span[1]
                val = RBuiltin((head[2], end), former, layer, tuple(args))
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
                    args.append(RVar(tok[2], tok[1]))
                    pos += 1
                    tok = toks[pos]
                    kind = tok[0]
                if kind in _ATOM_STARTERS:
                    state = _ATOM
                    continue
                stack.pop()
                last = args[-1]
                end = last.start + len(last.name) if last.__class__ is RVar else last.span[1]
                start = head.start if head.__class__ is RVar else head.span[0]
                val = RApp((start, end), head, tuple(args))
            # The application has ended: it is an operand of ``×`` or ``->``.
            if kind == "TIMES" or kind == "ARROW":
                if kind == "ARROW":
                    while stack[-1][0] >= _SIGMA_GROUPS:
                        val = _close(stack.pop(), val)
                stack.append((_PI_GROUPS if kind == "ARROW" else _SIGMA_GROUPS, [("_", val)], None))
                pos += 1
                state, lam_ok = _START, False
                continue
            # The term has ended: close its openers, then the frame it is in.
            while stack[-1][0] >= _LAM:
                val = _close(stack.pop(), val)
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
                raise _fail(toks[pos], "')'")
            pos += 1
            if tag == _PAREN:
                end = toks[pos - 1][2] + 1  # just past the ')'
                for part in reversed(parts):
                    val = RPair((head[2], end), part, val)
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
                raise _fail(toks[pos], "'->' or '×' after binder")
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
