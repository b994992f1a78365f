"""The reference lexer: one ``finditer`` scan that builds a match, a
``(kind, text, start)`` tuple and an offset for every token, skipping
comments as it meets them.  ``parse.scan`` replaced it with bulk passes;
``test_tokens.py`` checks that ``parse.lex`` still returns exactly what
this one does, or raises the same diagnostic."""

import re

from tt2.diagnostics import ILLEGAL_CHAR, SYNTAX, Diagnostic, Span
from tt2.parse import KEYWORDS

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


def scan(source: str) -> list[tuple[str, str, int]]:
    """Each token as ``(kind, text, start)``, ending with ``EOF``."""
    tokens = []
    words = _KINDS.copy()  # grows by the words of this source
    i = 0
    while True:
        for m in _SCAN.finditer(source, i):
            text = m[0]
            word = words.get(text)
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
            tokens.append((word[0], word[1], m.start()))
        else:
            tokens.append(("EOF", "", len(source)))
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
