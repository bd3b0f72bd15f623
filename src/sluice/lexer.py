"""Tokenizer for programs and standalone type expressions.

Line comments start with `--`. Newlines are not emitted as tokens; each token
records its line and column so the parser can recover line structure where it
needs it (declaration starts, branch boundaries).
"""

from __future__ import annotations

import re
from functools import partial
from typing import NamedTuple

from .diagnostics import Diagnostic, DiagnosticError

KEYWORDS = {
    "type", "data", "rec", "forall", "let", "in", "case", "of", "match",
    "with", "if", "then", "else", "fork", "new", "send", "receive", "select",
}

# One match per token, with the spaces before it. The alternatives are tried
# in order: a comment comes before the `-` symbol, and two-character symbols
# before their first character, so maximal munch falls out of the order.
# `-o` is the linear arrow unless it runs into a longer identifier. Integer
# literals are ASCII digits only. A word starts with a character of
# `[^\W\d_]`, which is every letter (`str.isalpha`) and a few numeric
# characters such as `²` that `lex` rejects, and goes on with letters, digits,
# `_` and `'`. `other` takes one character that starts no token: a malformed
# character literal, or an unexpected character. It excludes the spaces, so
# that spaces at the end of the input match nothing instead of an error.
_SCAN = re.compile(r"""
    [ \t\r]*
    (?:
        (?P<newline>\n)
      | (?P<comment>--[^\n]*)
      | (?P<int>[0-9]+)
      | (?P<word>[^\W\d_][\w']*)
      | (?P<sym>-o(?![\w'])|==|<=|>=|&&|\|\||->|=>|[()\[\]{};,:=+\-*!?&|<>\\._])
      | (?P<char>'(?:\\[nt\\'0]|[^\\])')
      | (?P<other>[^ \t\r])
    )""", re.VERBOSE)

_ESCAPES = {"n": "\n", "t": "\t", "\\": "\\", "'": "'", "0": "\0"}


class Token(NamedTuple):
    kind: str  # 'lident' | 'uident' | 'int' | 'char' | 'kw' | 'sym' | 'eof'
    text: str
    line: int
    col: int

    def __repr__(self) -> str:
        return f"{self.kind}({self.text!r})@{self.line}:{self.col}"


# `Token(...)` runs a Python-level `__new__`; building the tuple directly
# halves the cost of each token.
_token = partial(tuple.__new__, Token)


def lex(source: str) -> list[Token]:
    """The tokens of `source`, ending with an `eof` token. A column counts
    the characters since the last newline, except that a comment leaves the
    column where it began."""
    tokens: list[Token] = []
    append = tokens.append
    line, line_start, comment_at = 1, 0, None
    for m in _SCAN.finditer(source):
        group = m.lastgroup
        if group == "newline":
            line += 1
            line_start = m.end()
            comment_at = None
            continue
        at = m.start(group)
        col = at - line_start + 1
        if group == "word":
            text = m.group(group)
            if text in KEYWORDS:
                append(_token(("kw", text, line, col)))
            elif not text[0].isalpha():
                raise DiagnosticError(Diagnostic(line, col, f"unexpected character {text[0]!r}"))
            elif text[0].isupper():
                append(_token(("uident", text, line, col)))
            else:
                append(_token(("lident", text, line, col)))
        elif group == "sym" or group == "int":
            append(_token((group, m.group(group), line, col)))
        elif group == "comment":
            comment_at = at
        elif group == "char":
            text = m.group(group)
            append(_token(("char", _ESCAPES[text[2]] if len(text) == 4 else text[1], line, col)))
        else:
            raise DiagnosticError(Diagnostic(line, col, _malformed(source, at)))
    end = len(source) if comment_at is None else comment_at
    append(Token("eof", "", line, end - line_start + 1))
    return tokens


def _malformed(source: str, i: int) -> str:
    """Why no token starts at `source[i]`."""
    c = source[i]
    if c != "'":
        return f"unexpected character {c!r}"
    if i + 1 >= len(source) or source[i + 1] != "\\":
        return "unterminated character literal"
    if i + 3 >= len(source) or source[i + 3] != "'":
        return "bad character escape"
    return f"unknown escape \\{source[i + 2]}"
