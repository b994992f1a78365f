"""User-facing errors with source spans and stable machine codes."""

from __future__ import annotations

from .core import Node


Span = tuple[int, int]

UNBOUND = "UNBOUND"
CANNOT_INFER = "CANNOT_INFER"
TYPE_MISMATCH = "TYPE_MISMATCH"
SORT_MISMATCH = "SORT_MISMATCH"
FIBRANCY = "FIBRANCY"
NOT_A_TYPE = "NOT_A_TYPE"
LEVEL = "LEVEL"
HOLE = "HOLE"
DUPLICATE = "DUPLICATE"
SYNTAX = "SYNTAX"
ILLEGAL_CHAR = "ILLEGAL_CHAR"
ENCODING = "ENCODING"
DEPTH = "DEPTH"


class Diagnostic(Node, Exception):
    code: str
    span: Span
    message: str

    def render(self, source: str, filename: str = "<input>") -> str:
        line, col = offset_to_line_col(source, self.span[0])
        return f"{filename}:{line}:{col}: error[{self.code}]: {self.message}"

    def to_json(self) -> dict:
        return {"code": self.code, "span": list(self.span), "message": self.message}


def offset_to_line_col(source: str, offset: int) -> tuple[int, int]:
    offset = min(offset, len(source))
    line = source.count("\n", 0, offset) + 1
    last_nl = source.rfind("\n", 0, offset)
    col = offset - last_nl
    return line, col
