"""Positioned diagnostics shared by the parser, checker, and CLI."""

from __future__ import annotations

from dataclasses import dataclass

# The error of input nested deeper than a recursive walk (parser, kinding,
# typechecker, grammar translation) can follow on the Python stack.
TOO_DEEP = "nesting too deep"


@dataclass(frozen=True)
class Diagnostic:
    line: int
    col: int
    message: str

    def render(self, filename: str = "<input>") -> str:
        """`file:line:col: error: message`; line 0 means no position, and
        the position is left out."""
        where = f"{filename}:{self.line}:{self.col}" if self.line else filename
        return f"{where}: error: {self.message}"


class DiagnosticError(Exception):
    """Raised by phases that abort on their first diagnostic (type parsing, kinding)."""

    def __init__(self, diag: Diagnostic):
        super().__init__(diag.message)
        self.diag = diag
