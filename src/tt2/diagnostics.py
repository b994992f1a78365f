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
MEMORY = "MEMORY"

EXHAUSTED = (RecursionError, MemoryError)  # running out of stack or memory


class Diagnostic(Node, Exception):
    code: str
    span: Span
    message: str

    def detached(self) -> Diagnostic:
        """Without traceback or context: keeping it keeps no frame alive."""
        self.__context__ = None
        return self.with_traceback(None)

    def render(self, source: str, filename: str = "<input>") -> str:
        line, col = offset_to_line_col(source, self.span[0])
        return f"{filename}:{line}:{col}: error[{self.code}]: {self.message}"

    def to_json(self, source: str, filename: str = "<input>") -> dict:
        line, col = offset_to_line_col(source, self.span[0])
        return {"code": self.code, "span": list(self.span), "message": self.message,
                "file": filename, "line": line, "col": col}


def exhausted(exc: BaseException, span: Span, subject: str, phase: str) -> Diagnostic:
    """The diagnostic for ``subject`` running out of stack (``DEPTH``) or
    memory (``MEMORY``) while it went through ``phase``: ``parse``,
    ``check``, ``compute`` or ``print``.  ``exc`` is one of ``EXHAUSTED``,
    and the diagnostic keeps no reference to it or its frames."""
    if isinstance(exc, RecursionError):
        return Diagnostic(DEPTH, span, f"{subject} nests too deeply to {phase}")
    return Diagnostic(MEMORY, span, f"{subject} needs more memory than there is to {phase}")


def offset_to_line_col(source: str, offset: int) -> tuple[int, int]:
    offset = min(offset, len(source))
    line = source.count("\n", 0, offset) + 1
    last_nl = source.rfind("\n", 0, offset)
    col = offset - last_nl
    return line, col
