"""Recursive-descent parser for programs and standalone types.

There is no indentation-sensitive layout. A new top-level declaration starts on
any line whose first tokens look like `type ...`, `data ...`, `name : ...`, or
`name params... = ...`; every other line continues the declaration in
progress. Case and match branches are separated by commas or simply by the
start of the next `Pattern args ->` run; when constructs nest, a branch whose
shape fits the innermost open construct belongs to it (parenthesize the inner
construct to force the other reading).

Each rule looks at the next token once and picks its case from its kind and
text. Sequences that can run long are read in loops rather than by
recursion: a `let` spine, a `;` spine of types, the arguments of an
application and a chain of binary operators.
"""

from __future__ import annotations

from typing import Callable, TypeVar

from .diagnostics import TOO_DEEP, Diagnostic, DiagnosticError
from .lexer import Token, lex
from . import syntax as S

_BASIC = {name: t for name, t in S.BASICS.items() if name != "Unit"}  # Unit is `()`

# Binary operators by precedence, loosest first; all group to the left.
_PRECEDENCE = {"||": 1, "&&": 2, "==": 3, "<": 3, "<=": 3, ">": 3, ">=": 3,
               "+": 4, "-": 4, "*": 5}

# Token kinds that always start an argument of an application; `(` and an
# uppercase name that does not begin a branch pattern start one too.
_ARGUMENT_KINDS = frozenset({"lident", "int", "char"})

# The prefix forms whose operand is an atom, besides `select`.
_BEFORE_ATOM = {"send": S.Send, "receive": S.Receive, "fork": S.Fork}

_INT_DIGITS = len(str(S.INT_MAX))

_T = TypeVar("_T")


def _error_at(t: Token, msg: str) -> DiagnosticError:
    return DiagnosticError(Diagnostic(t[2], t[3], msg))


class _P:
    """A cursor over a token list that ends with `eof`. Each rule peeks at
    the next token once (`self.toks[self.i]`), unpacks it or reads it by
    index, and picks its case by the token's kind and text; a keyword is
    known by its text alone, which no other token has. Nothing moves past
    `eof`."""

    __slots__ = ("toks", "i")

    def __init__(self, tokens: list[Token]):
        self.toks = tokens
        self.i = 0

    # -- token plumbing -----------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        if ahead:
            return self.toks[min(self.i + ahead, len(self.toks) - 1)]
        return self.toks[self.i]

    def at(self, kind: str, text: str | None = None) -> bool:
        t = self.toks[self.i]
        return t[0] == kind and (text is None or t[1] == text)

    def eat(self, text: str, kind: str = "sym") -> bool:
        """Move past the next token if it is `text` of `kind`."""
        t = self.toks[self.i]
        if t[1] == text and t[0] == kind:
            self.i += 1
            return True
        return False

    def expect(self, kind: str, text: str | None = None, what: str = "") -> Token:
        t = self.toks[self.i]
        if t[0] == kind and (text is None or t[1] == text):
            self.i += 1
            return t
        raise self.expected(text or what or kind)

    def end(self) -> None:
        if self.toks[self.i][0] != "eof":
            raise self.expected("eof")

    def expected(self, want: str) -> DiagnosticError:
        text = self.toks[self.i][1]
        return self.err(f"expected {want!r}, found {text!r}" if text
                        else f"expected {want!r}, found end of input")

    def err(self, msg: str) -> DiagnosticError:
        return _error_at(self.toks[self.i], msg)

    def fresh(self, kind: str, what: str, seen: set[str], duplicate: str) -> str:
        """Expect a `kind` token naming a `what` that is not in `seen`, and
        add it there; a repeat is reported at the repeated name."""
        t = self.expect(kind, what=what)
        text = t[1]
        if text in seen:
            raise _error_at(t, f"{duplicate} {text}")
        seen.add(text)
        return text

    # -- types ---------------------------------------------------------------

    def type_(self) -> S.Type:
        left = self.type_semi()
        if self.eat("->"):
            return S.Arrow(S.UNRESTRICTED, left, self.type_())
        if self.eat("-o"):
            return S.Arrow(S.LINEAR, left, self.type_())
        return left

    def type_semi(self) -> S.Type:
        """Atoms joined by `;`, read in a loop and folded right-nested, so a
        long spine does not nest on the Python stack."""
        first = self.type_atom()
        if not self.eat(";"):
            return first
        spine = [first, self.type_atom()]
        while self.eat(";"):
            spine.append(self.type_atom())
        t = spine.pop()
        for lhs in reversed(spine):
            t = S.Semi(lhs, t)
        return t

    def _basic_name(self) -> str:
        kind, text, _, _ = self.toks[self.i]
        if kind == "uident" and text in _BASIC:
            self.i += 1
            return text
        if self.eat("("):
            self.expect("sym", ")")
            return "Unit"
        raise self.err("message payload must be a basic type")

    def type_atom(self) -> S.Type:
        kind, text, _, _ = self.toks[self.i]
        if kind == "uident":
            self.i += 1
            if text == "Skip":
                return S.Skip()
            basic = _BASIC.get(text)
            if basic is not None:
                return basic
            return S.DataRef(text)
        if kind == "sym":
            if text == "!" or text == "?":
                self.i += 1
                return S.Message(S.OUT if text == "!" else S.IN, self._basic_name())
            if text == "+" or text == "&":
                self.i += 1
                self.expect("sym", "{")
                return self._choice(S.INTERNAL if text == "+" else S.EXTERNAL)
            if text == "(":
                self.i += 1
                if self.eat(")"):
                    return S.UNIT
                first = self.type_()
                if self.eat(","):
                    second = self.type_()
                    self.expect("sym", ")")
                    return S.Pair(first, second)
                self.expect("sym", ")")
                return first
        elif kind == "lident":
            self.i += 1
            return S.TVar(text)
        elif text == "rec":
            self.i += 1
            var = self.expect("lident", what="recursion variable")[1]
            self.expect("sym", ".")
            return S.Rec(var, self.type_())
        raise self.err(f"expected a type, found {text!r}")

    def _choice(self, view: str) -> S.Type:
        if self.at("sym", "}"):
            raise self.err("empty choice")
        branches: list[tuple[str, S.Type]] = []
        seen: set[str] = set()
        while True:
            lab = self.fresh("uident", "branch label", seen, "duplicate branch label")
            self.expect("sym", ":")
            branches.append((lab, self.type_()))
            if not self.eat(","):
                break
        self.expect("sym", "}")
        return S.Choice(view, tuple(branches))

    def scheme(self) -> S.Scheme:
        if not self.eat("forall", "kw"):
            return S.Scheme((), self.type_())
        binders: list[tuple[str, S.Kind]] = []
        seen: set[str] = set()
        while True:
            name = self.fresh("lident", "type variable", seen, "duplicate forall binder")
            kind = S.SL  # default kind for a polymorphic variable
            if self.eat(":"):
                kt = self.expect("uident", what="kind")
                if kt[1] not in S.KIND_NAMES:
                    raise _error_at(kt, f"unknown kind {kt[1]}")
                kind = S.KIND_NAMES[kt[1]]
            binders.append((name, kind))
            if not self.eat(","):
                break
        self.expect("sym", "=>")
        return S.Scheme(tuple(binders), self.type_())

    # -- expressions ----------------------------------------------------------

    def expr(self) -> S.Expr:
        # A `let` spine is read in a loop and folded right-nested afterwards,
        # so a long chain of bindings does not nest on the Python stack.
        spine: list[tuple[S.Pos, str, str | None, S.Expr]] = []
        toks = self.toks
        while True:
            t = toks[self.i]
            if t[1] != "let":
                break
            self.i += 1
            x = self._binder()
            y = self._binder() if self.eat(",") else None
            self.expect("sym", "=")
            bound = self.expr()
            self.expect("kw", "in")
            spine.append((t[2:], x, y, bound))
        body = self._expr_head(t)
        for pos, x, y, bound in reversed(spine):
            body = (S.Let(x, bound, body, pos=pos) if y is None
                    else S.LetPair(x, y, bound, body, pos=pos))
        return body

    def _expr_head(self, t: Token) -> S.Expr:
        """An expression that starts with `t`, the next token, which is not
        `let`."""
        kind, text, line, col = t
        if kind == "kw":
            if text == "if":
                self.i += 1
                cond = self.expr()
                self.expect("kw", "then")
                then = self.expr()
                self.expect("kw", "else")
                return S.If(cond, then, self.expr(), pos=(line, col))
            if text == "case":
                self.i += 1
                scrut = self.expr()
                self.expect("kw", "of")
                return S.Case(scrut, tuple(self._case_branches()), pos=(line, col))
            if text == "match":
                self.i += 1
                scrut = self.expr()
                self.expect("kw", "with")
                return S.Match(scrut, tuple(self._match_branches()), pos=(line, col))
        elif text == "\\" and kind == "sym":
            self.i += 1
            param = self._binder()
            if self.eat("->"):
                mult = S.UNRESTRICTED
            else:
                self.expect("sym", "-o", what="-> or -o")
                mult = S.LINEAR
            return S.Lam(mult, param, self.expr(), pos=(line, col))
        return self._binop()

    def _binop(self) -> S.Expr:
        """An operator chain, read in one loop. `waiting` holds, loosest
        first, each operand still waiting for its right-hand side, with its
        operator. An operator first applies every waiting one of at least
        its precedence, so all operators group to the left."""
        toks = self.toks
        waiting: list[tuple[S.Expr, Token, int]] = []
        left = self._app()
        while True:
            op = toks[self.i]
            prec = _PRECEDENCE.get(op[1], 0) if op[0] == "sym" else 0
            while waiting and waiting[-1][2] >= prec:
                lhs, (_, name, line, col), _ = waiting.pop()
                pos = (line, col)
                left = S.App(S.App(S.Var(name, pos=pos), lhs, pos=pos), left, pos=pos)
            if not prec:
                return left
            self.i += 1
            waiting.append((left, op, prec))
            left = self._app()

    def _binder(self) -> str:
        kind, text, _, _ = self.toks[self.i]
        if kind == "lident" or text == "_" and kind == "sym":
            self.i += 1
            return text
        raise self.expected("binder")

    def _branch_pattern(self) -> int | None:
        """The binder count of a `Name binder* ->` ahead, else None. Such a
        pattern begins the next branch of the enclosing case (any count) or
        match (exactly one); application must not swallow it."""
        if self.peek()[0] != "uident":
            return None
        j = 1
        while True:
            kind, text, _, _ = self.peek(j)
            if not (kind == "lident" or kind == "sym" and text == "_"):
                break
            j += 1
        return j - 1 if kind == "sym" and text == "->" else None

    def _app(self) -> S.Expr:
        toks = self.toks
        t = toks[self.i]
        head = self._prefix(t) if t[0] == "kw" else self._atom()
        while True:
            kind, text, line, col = toks[self.i]
            if not (kind in _ARGUMENT_KINDS
                    or kind == "sym" and text == "("
                    or kind == "uident" and self._branch_pattern() is None):
                return head
            head = S.App(head, self._atom(), pos=(line, col))

    def _prefix(self, t: Token) -> S.Expr:
        """The expression a keyword `t`, the next token, starts inside an
        application."""
        text, pos = t[1], t[2:]
        if text in _BEFORE_ATOM:
            self.i += 1
            return _BEFORE_ATOM[text](self._atom(), pos=pos)
        if text == "new":
            self.i += 1
            return S.New(self.type_(), pos=pos)
        if text == "select":
            self.i += 1
            label = self.expect("uident", what="choice label")[1]
            return S.Select(label, self._atom(), pos=pos)
        return self._atom()

    def _atom(self) -> S.Expr:
        toks = self.toks
        t = toks[self.i]
        kind, text, line, col = t
        if kind == "lident":
            self.i += 1
            nxt = toks[self.i]
            if nxt[1] == "[" and nxt[0] == "sym":
                self.i += 1
                args = [self.type_()]
                while self.eat(","):
                    args.append(self.type_())
                self.expect("sym", "]")
                return S.TypeApp(text, tuple(args), pos=(line, col))
            return S.Var(text, pos=(line, col))
        if kind == "int":
            self.i += 1
            # the length goes first: `int` refuses a string of over 4,300 digits
            digits = text.lstrip("0") or "0"
            if len(digits) > _INT_DIGITS or int(digits) > S.INT_MAX:
                raise _error_at(t, "integer literal out of range")
            return S.Lit(int(digits), pos=(line, col))
        if kind == "uident":
            self.i += 1
            if text == "True":
                return S.Lit(True, pos=(line, col))
            if text == "False":
                return S.Lit(False, pos=(line, col))
            return S.Var(text, pos=(line, col))
        if kind == "sym" and text == "(":
            self.i += 1
            if self.eat(")"):
                return S.Lit((), pos=(line, col))
            first = self.expr()
            if self.eat(","):
                second = self.expr()
                self.expect("sym", ")")
                return S.PairE(first, second, pos=(line, col))
            self.expect("sym", ")")
            return first
        if kind == "char":
            self.i += 1
            return S.Lit(text, pos=(line, col))
        raise self.err(f"expected an expression, found {text!r}")

    def _case_branches(self) -> list[tuple[str, tuple[str, ...], S.Expr]]:
        branches: list[tuple[str, tuple[str, ...], S.Expr]] = []
        seen: set[str] = set()
        while True:
            ctor = self.fresh("uident", "constructor pattern", seen, "duplicate case branch")
            params: list[str] = []
            while self.at("lident") or self.at("sym", "_"):
                params.append(self._binder())
            self.expect("sym", "->")
            branches.append((ctor, tuple(params), self.expr()))
            if self._another_branch(lambda: self._branch_pattern() is not None):
                continue
            return branches

    def _match_branches(self) -> list[tuple[str, str, S.Expr]]:
        branches: list[tuple[str, str, S.Expr]] = []
        seen: set[str] = set()
        while True:
            label = self.fresh("uident", "branch label", seen, "duplicate match branch")
            binder = self._binder()
            self.expect("sym", "->")
            branches.append((label, binder, self.expr()))
            if self._another_branch(lambda: self._branch_pattern() == 1):
                continue
            return branches

    def _another_branch(self, shape) -> bool:
        """A further branch follows either after a comma or bare; a comma whose
        follower does not fit this construct's branch shape is left for the
        enclosing construct."""
        if self.at("sym", ","):
            save = self.i
            self.i += 1
            if shape():
                return True
            self.i = save
            return False
        return shape()


# ---------------------------------------------------------------------------
# Declarations


def _split_declarations(tokens: list[Token], heads: list[int]) -> list[list[Token]]:
    """Group the token stream into one chunk per top-level declaration.
    `heads` holds the index of each line's first token, as `lex` records it;
    a line starts a declaration when its first tokens look like one."""
    end = len(tokens) - 1  # the `eof` token belongs to no chunk
    starts: list[int] = []
    for head, stop in zip(heads, heads[1:] + [end]):
        if head < stop and (not starts or _starts_declaration(tokens, head, stop)):
            starts.append(head)
    return [tokens[a:b] for a, b in zip(starts, starts[1:] + [end])]


def _starts_declaration(tokens: list[Token], head: int, stop: int) -> bool:
    """Whether the line `tokens[head:stop]` starts `type`, `data`,
    `name :` or `name binders... =`."""
    kind, text, _, _ = tokens[head]
    if kind != "lident":
        return text == "type" or text == "data"
    for i in range(head + 1, stop):
        kind, text, _, _ = tokens[i]
        if kind == "sym":
            if text == "=" or text == ":" and i == head + 1:
                return True
            if text != "_":
                return False
        elif kind != "lident":
            return False
    return False


def _parse_decl(chunk: list[Token], prog: S.Program, diags: list[Diagnostic]) -> None:
    _, _, line, col = chunk[-1]
    chunk.append(("eof", "", line, col))
    _within_stack(_P(chunk), lambda p: _declaration(p, prog, diags))


def _declaration(p: _P, prog: S.Program, diags: list[Diagnostic]) -> None:
    pos = p.peek()[2:]

    def check_unique(name: str) -> bool:
        for table in (prog.abbrevs, prog.datatypes, prog.definitions):
            if name in table:
                diags.append(Diagnostic(*pos, f"duplicate top-level name {name}"))
                return False
        return True

    if p.eat("type", "kw"):
        name = p.expect("uident", what="type name")[1]
        p.expect("sym", "=")
        body = p.type_()
        p.end()
        if check_unique(name):
            prog.abbrevs[name] = S.TypeAbbrev(name, body, pos)
        return
    if p.eat("data", "kw"):
        name = p.expect("uident", what="datatype name")[1]
        p.expect("sym", "=")
        ctors: dict[str, tuple[S.Type, ...]] = {}
        seen: set[str] = set()
        while True:
            cname = p.fresh("uident", "constructor", seen, "duplicate constructor")
            fields: list[S.Type] = []
            while not p.at("sym", "|") and not p.at("eof"):
                fields.append(p.type_atom())
            ctors[cname] = tuple(fields)
            if not p.eat("|"):
                break
        p.end()
        if check_unique(name):
            prog.datatypes[name] = S.DataDecl(name, ctors, pos)
        return

    name = p.expect("lident", what="declaration")[1]
    if p.eat(":"):
        scheme = p.scheme()
        p.end()
        if name in prog.signatures:
            diags.append(Diagnostic(*pos, f"duplicate signature for {name}"))
            return
        prog.signatures[name] = S.SigDecl(name, scheme, pos)
        return
    # `f x y = e` is `f = \x -> \y -> e`
    params: list[str] = []
    while not p.at("sym", "="):
        params.append(p._binder())
    p.expect("sym", "=")
    body = p.expr()
    p.end()
    for param in reversed(params):
        body = S.Lam(S.UNRESTRICTED, param, body, pos=pos)
    if check_unique(name):
        prog.definitions[name] = S.FunDef(name, body, pos)


# ---------------------------------------------------------------------------
# Entry points


def parse_program(source: str) -> tuple[S.Program | None, list[Diagnostic]]:
    """Parse a whole program. Returns (program, diagnostics); the program is
    None when the source is beyond repair (nothing parsed)."""
    diags: list[Diagnostic] = []
    heads: list[int] = []
    try:
        tokens = lex(source, heads)
    except DiagnosticError as e:
        return None, [e.diag]
    prog = S.Program({}, {}, {}, {})
    chunks = _split_declarations(tokens, heads)
    if not chunks:
        return None, [Diagnostic(1, 1, "missing main")]
    for chunk in chunks:
        try:
            _parse_decl(chunk, prog, diags)
        except DiagnosticError as e:
            diags.append(e.diag)
    for name, d in prog.definitions.items():
        if name not in prog.signatures:
            diags.append(Diagnostic(d.pos[0], d.pos[1], f"definition of {name} has no signature"))
    for name, s in prog.signatures.items():
        if name not in prog.definitions:
            diags.append(Diagnostic(s.pos[0], s.pos[1], f"signature for {name} has no definition"))
    return prog, diags


def _within_stack(p: _P, rule: Callable[[_P], _T]) -> _T:
    """`rule(p)`, where input nested deeper than the Python stack can follow
    becomes the diagnostic `TOO_DEEP` at the token the parser had
    reached."""
    try:
        return rule(p)
    except RecursionError:
        raise p.err(TOO_DEEP) from None


def _parse_all(source: str, rule: Callable[[_P], _T]) -> _T:
    def whole(p: _P) -> _T:
        out = rule(p)
        p.end()
        return out
    return _within_stack(_P(lex(source)), whole)


def parse_type(source: str) -> S.Type:
    """Parse a standalone type. Raises DiagnosticError on bad input."""
    return _parse_all(source, _P.type_)


def parse_scheme(source: str) -> S.Scheme:
    return _parse_all(source, _P.scheme)

