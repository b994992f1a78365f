"""Lexer and precedence-climbing parser for the surface language.

The lexer is one compiled regular expression: each match skips whitespace
and ``--`` comments and then takes one token, named by the group that
matched.  Nested ``{- -}`` comments are skipped by a depth-counting scan.

Precedence, loosest to tightest: lambda bodies extend right, then ``->``
(right associative), then the pair former ``×`` (right associative), then
application (left associative), then atoms.  The parser climbs these
levels in one loop over an explicit stack of unfinished constructs:
lambda binders, binder groups, left operands of ``->`` and ``×``,
parentheses, applications and built-ins still short of arguments.  An
operator closes the frames of tighter levels, and the end of a term closes
all of its frames, so nesting depth costs list entries, not Python calls.

Built-ins are the rows of ``_FORMERS``: keyword, raw class, layer and the
number of atomic arguments.  They parse as saturated primaries (``J``
takes five atoms, ``natelim`` four), so partial application of a built-in
is a parse-time arity decision rather than a typing one.  The same table
gives ``KEYWORDS`` and ``_ATOM_STARTERS``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional

from .core import FIB, STRICT, Layer
from .diagnostics import Diagnostic, ILLEGAL_CHAR, SYNTAX, Span


# ---------------------------------------------------------------------------
# Raw terms


@dataclass(frozen=True)
class Raw:
    span: Span = field(compare=False)


@dataclass(frozen=True)
class RVar(Raw):
    name: str


@dataclass(frozen=True)
class RUniv(Raw):
    layer: Layer
    level: int


@dataclass(frozen=True)
class RPi(Raw):
    binder: Optional[str]
    dom: Raw
    cod: Raw


@dataclass(frozen=True)
class RSigma(Raw):
    binder: Optional[str]
    fst: Raw
    snd: Raw


@dataclass(frozen=True)
class RLam(Raw):
    binder: str
    body: Raw


@dataclass(frozen=True)
class RApp(Raw):
    fn: Raw
    arg: Raw


@dataclass(frozen=True)
class RPair(Raw):
    fst: Raw
    snd: Raw


@dataclass(frozen=True)
class RFst(Raw):
    arg: Raw


@dataclass(frozen=True)
class RSnd(Raw):
    arg: Raw


@dataclass(frozen=True)
class RUnit(Raw):
    pass


@dataclass(frozen=True)
class RStar(Raw):
    pass


@dataclass(frozen=True)
class RNat(Raw):
    layer: Layer


@dataclass(frozen=True)
class RZero(Raw):
    pass


@dataclass(frozen=True)
class RSuc(Raw):
    pred: Raw


@dataclass(frozen=True)
class RNatElim(Raw):
    layer: Layer
    motive: Raw
    zcase: Raw
    scase: Raw
    scrut: Raw


@dataclass(frozen=True)
class RSum(Raw):
    layer: Layer
    left: Raw
    right: Raw


@dataclass(frozen=True)
class RInl(Raw):
    arg: Raw


@dataclass(frozen=True)
class RInr(Raw):
    arg: Raw


@dataclass(frozen=True)
class RSumElim(Raw):
    layer: Layer
    motive: Raw
    lcase: Raw
    rcase: Raw
    scrut: Raw


@dataclass(frozen=True)
class REmpty(Raw):
    layer: Layer


@dataclass(frozen=True)
class REmptyElim(Raw):
    layer: Layer
    motive: Raw
    scrut: Raw


@dataclass(frozen=True)
class RId(Raw):
    layer: Layer
    ty: Raw
    lhs: Raw
    rhs: Raw


@dataclass(frozen=True)
class RRefl(Raw):
    layer: Layer
    ty: Raw
    arg: Raw


@dataclass(frozen=True)
class RJ(Raw):
    layer: Layer
    motive: Raw
    base: Raw
    lhs: Raw
    rhs: Raw
    proof: Raw


@dataclass(frozen=True)
class RHole(Raw):
    pass


@dataclass(frozen=True)
class RawDecl:
    kind: str  # "def" | "postulate"
    name: str
    telescope: tuple[tuple[str, Raw], ...]
    result: Raw
    body: Optional[Raw]
    span: Span


# ---------------------------------------------------------------------------
# Built-in formers

# keyword: (raw class, layer or None where the layers share it, atomic arguments)
_FORMERS: dict[str, tuple[type, Optional[Layer], int]] = {
    "Unit": (RUnit, None, 0), "star": (RStar, None, 0), "zero": (RZero, None, 0),
    "Nat": (RNat, FIB, 0), "NatS": (RNat, STRICT, 0),
    "Empty": (REmpty, FIB, 0), "EmptyS": (REmpty, STRICT, 0),
    "suc": (RSuc, None, 1), "fst": (RFst, None, 1), "snd": (RSnd, None, 1),
    "inl": (RInl, None, 1), "inr": (RInr, None, 1),
    "Sum": (RSum, FIB, 2), "SumS": (RSum, STRICT, 2),
    "refl": (RRefl, FIB, 2), "reflS": (RRefl, STRICT, 2),
    "exfalso": (REmptyElim, FIB, 2), "exfalsoS": (REmptyElim, STRICT, 2),
    "Id": (RId, FIB, 3), "Eq": (RId, STRICT, 3),
    "natelim": (RNatElim, FIB, 4), "natelimS": (RNatElim, STRICT, 4),
    "sumelim": (RSumElim, FIB, 4), "sumelimS": (RSumElim, STRICT, 4),
    "J": (RJ, FIB, 5), "JS": (RJ, STRICT, 5),
}
KEYWORDS = {"def", "postulate", *_FORMERS}
_ATOM_STARTERS = {"IDENT", "UNIV", "LPAREN", "UNDERSCORE", *_FORMERS}
_BINDERS = {"IDENT", "UNDERSCORE"}


# ---------------------------------------------------------------------------
# Lexer

# Whitespace and line comments before a token.  A comment runs up to and
# including its newline, so where no token follows, giving skipped text
# back cannot turn part of a comment into a token.
_SKIP = r"(?:[ \t\r\n]|--[^\n]*(?:\n|\Z))*"
_TOKEN = re.compile(_SKIP + r"""(?:
    (?P<BLOCK>\{-) | (?P<ASSIGN>:=) | (?P<ARROW>->)
  | (?P<LPAREN>\() | (?P<RPAREN>\)) | (?P<COMMA>,) | (?P<COLON>:) | (?P<DOT>\.)
  | (?P<LAMBDA>[\\λ]) | (?P<TIMES>×) | (?P<UNDERSCORE>_)
  | (?P<UNIV>U(?P<strict>S?)(?P<level>[0-9]+)(?![A-Za-z0-9_']))
  | (?P<WORD>[A-Za-z][A-Za-z0-9_']*)
  | (?P<EOF>\Z))""", re.VERBOSE)
_NESTING = re.compile(r"\{-|-\}")


class Token:
    """A token: its kind (a punctuation name, a keyword, ``IDENT``,
    ``UNIV`` or ``EOF``), its text and its span.  The ``value`` of a
    ``UNIV`` token is its (layer, level)."""

    __slots__ = ("kind", "text", "span", "value")

    def __init__(self, kind: str, text: str, span: Span, value: Optional[tuple[Layer, int]] = None):
        self.kind = kind
        self.text = text
        self.span = span
        self.value = value

    def __repr__(self) -> str:
        return f"Token({self.kind!r}, {self.text!r}, {self.span!r})"


def lex(source: str) -> list[Token]:
    """Tokenize; comments (`--` line, `{- -}` nested block) and whitespace
    are skipped.  Raises a Diagnostic on characters outside the grammar."""
    tokens: list[Token] = []
    i = 0
    while True:
        m = _TOKEN.match(source, i)
        if m is None:
            i = re.compile(_SKIP).match(source, i).end()
            raise Diagnostic(ILLEGAL_CHAR, (i, i + 1), f"illegal character {source[i]!r}")
        kind = m.lastgroup
        start, i = m.span(kind)
        if kind == "WORD":
            text = source[start:i]
            tokens.append(Token(text if text in KEYWORDS else "IDENT", text, (start, i)))
        elif kind == "UNIV":
            layer = STRICT if m.group("strict") else FIB
            tokens.append(Token(kind, source[start:i], (start, i), (layer, int(m.group("level")))))
        elif kind == "BLOCK":
            depth = 1
            while depth:
                mark = _NESTING.search(source, i)
                if mark is None:
                    raise Diagnostic(SYNTAX, (start, len(source)), "unterminated block comment")
                depth += 1 if mark.group() == "{-" else -1
                i = mark.end()
        else:
            tokens.append(Token(kind, source[start:i], (start, i)))
            if kind == "EOF":
                return tokens


# ---------------------------------------------------------------------------
# Parser

# Stack frames are (_PAREN, its token, terms before the last comma), (_GROUP,
# names, earlier groups), (_BUILTIN, its token, arguments so far), (_APP,
# function, None), (_LAM, its token, names), (_PI_GROUPS or _SIGMA_GROUPS,
# groups, None) and (_ARROW or _TIMES, left operand, None).  Openers (from
# _LAM on) end with their term; sigma-level ones also end at ``->``.
_ROOT, _PAREN, _GROUP, _BUILTIN, _APP = range(5)
_LAM, _PI_GROUPS, _ARROW, _SIGMA_GROUPS, _TIMES = range(5, 10)
# What the term loop does next: start an operand, read an atom, or use one.
_START, _ATOM, _DONE = range(3)


def _fail(tok: Token, expected: str) -> Diagnostic:
    found = repr(tok.text) if tok.text else "end of input"
    return Diagnostic(SYNTAX, tok.span, f"expected {expected}, found {found}")


def _group_colon(toks: list[Token], pos: int) -> int:
    """The index of the ``:`` of a binder group opening at ``pos``, or 0."""
    if toks[pos].kind != "LPAREN":
        return 0
    j = pos + 1
    while toks[j].kind in _BINDERS:
        j += 1
    return j if j > pos + 1 and toks[j].kind == "COLON" else 0


def _close(frame: tuple, body: Raw) -> Raw:
    """Finish an opener frame with the term that follows it."""
    tag, head, names = frame
    if tag == _ARROW:
        return RPi((head.span[0], body.span[1]), None, head, body)
    if tag == _TIMES:
        return RSigma((head.span[0], body.span[1]), None, head, body)
    if tag == _LAM:
        for name in reversed(names):
            body = RLam((head.span[0], body.span[1]), name, body)
        return body
    former = RPi if tag == _PI_GROUPS else RSigma
    for name, ty in reversed(head):
        body = former((ty.span[0], body.span[1]), None if name == "_" else name, ty, body)
    return body


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise _fail(tok, kind)
        self.pos += 1
        return tok

    # -- declarations -------------------------------------------------------

    def parse_file(self) -> list[RawDecl]:
        decls = []
        while self.peek().kind != "EOF":
            decls.append(self.parse_decl())
        return decls

    def parse_decl(self) -> RawDecl:
        tok = self.peek()
        if tok.kind not in ("def", "postulate"):
            raise _fail(tok, "'def' or 'postulate'")
        self.pos += 1
        name = self.expect("IDENT")
        telescope = []
        while self.peek().kind == "LPAREN":
            telescope.extend(self.parse_binder_group())
        self.expect("COLON")
        result = self.term()
        body = None
        if tok.kind == "def":
            self.expect("ASSIGN")
            body = self.term()
        end = self.tokens[self.pos - 1].span[1]
        return RawDecl(tok.kind, name.text, tuple(telescope), result, body, (tok.span[0], end))

    def parse_binder_group(self) -> list[tuple[str, Raw]]:
        self.expect("LPAREN")
        names = []
        while self.peek().kind in _BINDERS:
            names.append(self.peek().text)
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
                if tok.kind == "LAMBDA" and lam_ok:
                    pos += 1
                    names = []
                    while toks[pos].kind in _BINDERS:
                        names.append(toks[pos].text)
                        pos += 1
                    if not names:
                        raise _fail(toks[pos], "lambda binder")
                    if toks[pos].kind != "DOT":
                        raise _fail(toks[pos], "DOT")
                    pos += 1
                    stack.append((_LAM, tok, names))
                    continue
                colon = _group_colon(toks, pos)
                if colon:
                    stack.append((_GROUP, [t.text for t in toks[pos + 1:colon]], []))
                    pos, lam_ok = colon + 1, True
                    continue
                state = _ATOM
            if state == _ATOM:
                tok = toks[pos]
                kind = tok.kind
                pos += 1
                if kind == "IDENT":
                    val = RVar(tok.span, tok.text)
                elif kind == "LPAREN":
                    stack.append((_PAREN, tok, []))
                    state, lam_ok = _START, True
                    continue
                elif kind in _FORMERS:
                    cls, layer, arity = _FORMERS[kind]
                    if arity:
                        stack.append((_BUILTIN, tok, []))
                        if toks[pos].kind not in _ATOM_STARTERS:
                            raise _fail(toks[pos], f"argument of {kind}")
                        continue
                    val = cls(tok.span) if layer is None else cls(tok.span, layer)
                elif kind == "UNIV":
                    val = RUniv(tok.span, *tok.value)
                elif kind == "UNDERSCORE":
                    val = RHole(tok.span)
                else:
                    raise _fail(tok, "a term")
                state = _DONE
            # An atom has ended: it is a built-in's argument, an argument in
            # an application, or the head of an application.
            tag, head, args = stack[-1]
            if tag == _BUILTIN:
                args.append(val)
                cls, layer, arity = _FORMERS[head.kind]
                if len(args) < arity:
                    if toks[pos].kind not in _ATOM_STARTERS:
                        raise _fail(toks[pos], f"argument of {head.kind}")
                    state = _ATOM
                    continue
                stack.pop()
                span = (head.span[0], val.span[1])
                val = cls(span, *args) if layer is None else cls(span, layer, *args)
                continue
            if tag == _APP:
                stack.pop()
                val = RApp((head.span[0], val.span[1]), head, val)
            kind = toks[pos].kind
            if kind in _ATOM_STARTERS:
                stack.append((_APP, val, None))
                state = _ATOM
                continue
            # The application has ended: it is an operand of ``×`` or ``->``.
            if kind == "TIMES" or kind == "ARROW":
                if kind == "ARROW":
                    while stack[-1][0] >= _SIGMA_GROUPS:
                        val = _close(stack.pop(), val)
                stack.append((_TIMES if kind == "TIMES" else _ARROW, val, None))
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
            close = toks[pos]
            if kind != "RPAREN":
                raise _fail(close, "RPAREN")
            pos += 1
            if tag == _PAREN:
                for part in reversed(parts):
                    val = RPair((head.span[0], close.span[1]), part, val)
                continue
            # A binder group: more groups may follow, then ``->`` or ``×``.
            parts.extend((name, val) for name in head)
            colon = _group_colon(toks, pos)
            if colon:
                stack.append((_GROUP, [t.text for t in toks[pos + 1:colon]], parts))
                pos, state, lam_ok = colon + 1, _START, True
                continue
            kind = toks[pos].kind
            if kind != "ARROW" and kind != "TIMES":
                raise _fail(toks[pos], "'->' or '×' after binder")
            stack.append((_PI_GROUPS if kind == "ARROW" else _SIGMA_GROUPS, parts, None))
            pos += 1
            state, lam_ok = _START, False


def parse_term(source: str) -> Raw:
    parser = _Parser(lex(source))
    term = parser.term()
    parser.expect("EOF")
    return term


def parse_file(source: str) -> list[RawDecl]:
    """Parse a whole surface file; total on text (declarations or a
    Diagnostic, never divergence)."""
    return _Parser(lex(source)).parse_file()
