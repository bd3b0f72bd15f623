"""Tokenizer for programs and standalone type expressions.

Line comments start with `--`. Newlines are not emitted as tokens; each token
records its line and column, and `lex` can also record the index of each
line's first token, so the parser can recover line structure where it needs
it (declaration starts, branch boundaries).

Each token is matched once and classified once: the scan yields the spaces
before a token and its text, a token's column is the sum of the lengths
before it on its line, and its kind is one dictionary lookup on its text or
its first character. Only newlines, comments, character literals, words that
start with a non-ASCII letter and errors take a slower path.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .diagnostics import Diagnostic, DiagnosticError

KEYWORDS = {
    "type", "data", "rec", "forall", "let", "in", "case", "of", "match",
    "with", "if", "then", "else", "fork", "new", "send", "receive", "select",
}

SYMBOLS = ("-o", "==", "<=", ">=", "&&", "||", "->", "=>", "(", ")", "[", "]",
           "{", "}", ";", ",", ":", "=", "+", "-", "*", "!", "?", "&", "|", "<",
           ">", "\\", ".", "_")

# One match per token: the spaces before it, then the token. The alternatives
# are tried in order: a comment comes before the `-` symbol, and two-character
# symbols before their first character, so maximal munch falls out of the
# order. `-o` is the linear arrow unless it runs into a longer identifier.
# Integer literals are ASCII digits only. A word starts with a character of
# `[^\W\d_]`, which is every letter (`str.isalpha`) and a few numeric
# characters such as `²` that `lex` rejects, and goes on with letters, digits,
# `_` and `'`. A character literal holds an escape or one character other
# than a backslash or a newline. The last alternative takes one character
# that starts no token: a malformed character literal, or an unexpected
# character. It excludes the spaces, so that spaces at the end of the input
# match nothing instead of an error.
_SCAN = re.compile(r"""
    ([ \t\r]*)
    (   \n
      | --[^\n]*
      | [0-9]+
      | [^\W\d_][\w']*
      | -o(?![\w'])|==|<=|>=|&&|\|\||->|=>|[()\[\]{};,:=+\-*!?&|<>\\._]
      | '(?:\\[nt\\'0]|[^\\\n])'
      | [^ \t\r]
    )""", re.VERBOSE)

# The kind of a token by its whole text (symbols and keywords), else by its
# first character (ASCII words and integers); a miss in both is a token of
# the slow path. A keyword's text is never the text of another kind of token.
_BY_TEXT = {**dict.fromkeys(SYMBOLS, "sym"), **dict.fromkeys(KEYWORDS, "kw")}
_BY_FIRST = {**dict.fromkeys("abcdefghijklmnopqrstuvwxyz", "lident"),
             **dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZ", "uident"),
             **dict.fromkeys("0123456789", "int")}

# The scan runs over chunks of about this many characters, so that no more
# than one chunk's matches exist at once. A chunk ends just after a newline,
# where every match of a scan over the whole source ends too, since no token
# spans a newline. On `tests/programs/tree.fst` repeated 400 times (490,000
# characters, 129,201 tokens), `lex` peaks at 15.5 MB (tracemalloc) with
# these chunks and at 25.6 MB with one chunk for the whole source, and takes
# 0.115-0.120 s against 0.132-0.169 s (best of 5, three runs; CPython 3.11.7
# on a 2-CPU x86-64 container).
_CHUNK = 4096

ESCAPES = {"n": "\n", "t": "\t", "\\": "\\", "'": "'", "0": "\0"}


class Token(NamedTuple):
    kind: str  # 'lident' | 'uident' | 'int' | 'char' | 'kw' | 'sym' | 'eof'
    text: str
    line: int
    col: int

    def __repr__(self) -> str:
        return f"{self.kind}({self.text!r})@{self.line}:{self.col}"


def lex(source: str, heads: list[int] | None = None) -> list[Token]:
    """The tokens of `source`, ending with an `eof` token. A column counts
    the characters since the last newline, except that a comment leaves the
    column where it began. `heads`, when given, receives the index of the
    token each line starts with: 0, then the number of tokens before each
    newline (a line without tokens repeats the next line's index)."""
    tokens: list[Token] = []
    append = tokens.append
    new = tuple.__new__  # builds a Token without NamedTuple.__new__'s Python frame
    by_text, by_first = _BY_TEXT.get, _BY_FIRST.get
    if heads is None:
        heads = []
    mark = heads.append
    mark(0)
    line, line_start, col, comment_at = 1, 0, 1, 0
    start, n = 0, len(source)
    while start < n:
        stop = source.find("\n", start + _CHUNK) + 1 or n
        for space, text in _SCAN.findall(source, start, stop):
            col += len(space)
            kind = by_text(text) or by_first(text[0])
            if kind is None:
                c = text[0]
                if c == "\n":
                    line, line_start, col, comment_at = line + 1, line_start + col, 1, 0
                    mark(len(tokens))
                    continue
                if c == "-":
                    comment_at = col
                    col += len(text)
                    continue
                if c == "'" and len(text) > 1:
                    append(new(Token, ("char", ESCAPES[text[2]] if len(text) == 4 else text[1],
                                       line, col)))
                    col += len(text)
                    continue
                if not c.isalpha():
                    raise DiagnosticError(Diagnostic(
                        line, col, _malformed(source, line_start + col - 1)))
                kind = "uident" if c.isupper() else "lident"
            append(new(Token, (kind, text, line, col)))
            col += len(text)
        start = stop
    append(Token("eof", "", line, comment_at or n - line_start + 1))
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
