"""Recursive-descent parser for programs and standalone types.

There is no indentation-sensitive layout. A new top-level declaration starts on
any line whose first tokens look like `type ...`, `data ...`, `name : ...`, or
`name params... = ...`; every other line continues the declaration in
progress. Case and match branches are separated by commas or simply by the
start of the next `Pattern args ->` run; when constructs nest, a branch whose
shape fits the innermost open construct belongs to it (parenthesize the inner
construct to force the other reading).
"""

from __future__ import annotations

from typing import Callable, TypeVar

from .diagnostics import Diagnostic, DiagnosticError
from .lexer import Token, lex
from . import syntax as S

_BASIC = {"Int": "Int", "Bool": "Bool", "Char": "Char"}

# Binary operators by precedence, loosest first; all group to the left.
_PRECEDENCE = {"||": 1, "&&": 2, "==": 3, "<": 3, "<=": 3, ">": 3, ">=": 3,
               "+": 4, "-": 4, "*": 5}

_T = TypeVar("_T")


def _error_at(t: Token, msg: str) -> DiagnosticError:
    return DiagnosticError(Diagnostic(t.line, t.col, msg))


class _P:
    def __init__(self, tokens: list[Token]):
        self.toks = tokens
        self.i = 0

    # -- token plumbing -----------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        # the token list ends with `eof` and `next` never moves past it
        if ahead:
            return self.toks[min(self.i + ahead, len(self.toks) - 1)]
        return self.toks[self.i]

    def next(self) -> Token:
        t = self.toks[self.i]
        if t.kind != "eof":
            self.i += 1
        return t

    def at(self, kind: str, text: str | None = None) -> bool:
        t = self.toks[self.i]
        return t.kind == kind and (text is None or t.text == text)

    def eat(self, kind: str, text: str | None = None) -> Token | None:
        if self.at(kind, text):
            return self.next()
        return None

    def expect(self, kind: str, text: str | None = None, what: str = "") -> Token:
        t = self.peek()
        if self.at(kind, text):
            return self.next()
        want = text or what or kind
        raise self.err(f"expected {want!r}, found {t.text!r}" if t.text else f"expected {want!r}, found end of input")

    def err(self, msg: str) -> DiagnosticError:
        return _error_at(self.peek(), msg)

    def fresh(self, kind: str, what: str, seen: set[str], duplicate: str) -> str:
        """Expect a `kind` token naming a `what` that is not in `seen`, and
        add it there; a repeat is reported at the repeated name."""
        t = self.expect(kind, what=what)
        if t.text in seen:
            raise _error_at(t, f"{duplicate} {t.text}")
        seen.add(t.text)
        return t.text

    # -- types ---------------------------------------------------------------

    def type_(self) -> S.Type:
        left = self.type_semi()
        if self.at("sym", "->"):
            self.next()
            return S.Arrow(S.UNRESTRICTED, left, self.type_())
        if self.at("sym", "-o"):
            self.next()
            return S.Arrow(S.LINEAR, left, self.type_())
        return left

    def type_semi(self) -> S.Type:
        left = self.type_atom()
        if self.eat("sym", ";"):
            return S.Semi(left, self.type_semi())
        return left

    def _basic_name(self) -> str:
        t = self.peek()
        if t.kind == "uident" and t.text in _BASIC:
            self.next()
            return t.text
        if self.at("sym", "("):
            self.next()
            self.expect("sym", ")")
            return "Unit"
        raise self.err("message payload must be a basic type")

    def type_atom(self) -> S.Type:
        t = self.peek()
        if t.kind == "sym" and t.text == "!":
            self.next()
            return S.Message(S.OUT, self._basic_name())
        if t.kind == "sym" and t.text == "?":
            self.next()
            return S.Message(S.IN, self._basic_name())
        if t.kind == "sym" and t.text in ("+", "&"):
            self.next()
            self.expect("sym", "{")
            return self._choice(S.INTERNAL if t.text == "+" else S.EXTERNAL)
        if self.eat("kw", "rec"):
            var = self.expect("lident", what="recursion variable").text
            self.expect("sym", ".")
            return S.Rec(var, self.type_())
        if t.kind == "uident":
            self.next()
            if t.text == "Skip":
                return S.Skip()
            if t.text in _BASIC:
                return S.Basic(t.text)
            return S.DataRef(t.text)
        if t.kind == "lident":
            self.next()
            return S.TVar(t.text)
        if self.eat("sym", "("):
            if self.eat("sym", ")"):
                return S.UNIT
            first = self.type_()
            if self.eat("sym", ","):
                second = self.type_()
                self.expect("sym", ")")
                return S.Pair(first, second)
            self.expect("sym", ")")
            return first
        raise self.err(f"expected a type, found {t.text!r}")

    def _choice(self, view: str) -> S.Type:
        if self.at("sym", "}"):
            raise self.err("empty choice")
        branches: list[tuple[str, S.Type]] = []
        seen: set[str] = set()
        while True:
            lab = self.fresh("uident", "branch label", seen, "duplicate branch label")
            self.expect("sym", ":")
            branches.append((lab, self.type_()))
            if not self.eat("sym", ","):
                break
        self.expect("sym", "}")
        return S.Choice(view, tuple(branches))

    def scheme(self) -> S.Scheme:
        if not self.eat("kw", "forall"):
            return S.Scheme((), self.type_())
        binders: list[tuple[str, S.Kind]] = []
        seen: set[str] = set()
        while True:
            name = self.fresh("lident", "type variable", seen, "duplicate forall binder")
            kind = S.SL  # default kind for a polymorphic variable
            if self.eat("sym", ":"):
                kt = self.expect("uident", what="kind")
                if kt.text not in S.KIND_NAMES:
                    raise _error_at(kt, f"unknown kind {kt.text}")
                kind = S.KIND_NAMES[kt.text]
            binders.append((name, kind))
            if not self.eat("sym", ","):
                break
        self.expect("sym", "=>")
        return S.Scheme(tuple(binders), self.type_())

    # -- expressions ----------------------------------------------------------

    def expr(self) -> S.Expr:
        # A `let` spine is read in a loop and folded right-nested afterwards,
        # so a long chain of bindings does not nest on the Python stack.
        spine: list[tuple[S.Pos, str, str | None, S.Expr]] = []
        while True:
            t = self.peek()
            if not (t.kind == "kw" and t.text == "let"):
                break
            self.next()
            x = self._binder()
            y = self._binder() if self.eat("sym", ",") else None
            self.expect("sym", "=")
            bound = self.expr()
            self.expect("kw", "in")
            spine.append(((t.line, t.col), x, y, bound))
        body = self._expr_head()
        for pos, x, y, bound in reversed(spine):
            body = (S.Let(x, bound, body, pos=pos) if y is None
                    else S.LetPair(x, y, bound, body, pos=pos))
        return body

    def _expr_head(self) -> S.Expr:
        """An expression that does not start with `let`."""
        t = self.peek()
        pos = (t.line, t.col)
        if self.eat("sym", "\\"):
            param = self._binder()
            if self.eat("sym", "->"):
                mult = S.UNRESTRICTED
            else:
                self.expect("sym", "-o", what="-> or -o")
                mult = S.LINEAR
            return S.Lam(mult, param, self.expr(), pos=pos)
        if self.eat("kw", "if"):
            cond = self.expr()
            self.expect("kw", "then")
            then = self.expr()
            self.expect("kw", "else")
            return S.If(cond, then, self.expr(), pos=pos)
        if self.eat("kw", "case"):
            scrut = self.expr()
            self.expect("kw", "of")
            return S.Case(scrut, tuple(self._case_branches()), pos=pos)
        if self.eat("kw", "match"):
            scrut = self.expr()
            self.expect("kw", "with")
            return S.Match(scrut, tuple(self._match_branches()), pos=pos)
        return self._binop(1)

    def _binop(self, min_prec: int) -> S.Expr:
        """An operator chain by precedence climbing: the loop takes each
        operator of at least `min_prec`, its right operand only tighter ones."""
        left = self._app()
        while True:
            op = self.peek()
            prec = _PRECEDENCE.get(op.text, 0) if op.kind == "sym" else 0
            if prec < min_prec:
                return left
            self.next()
            right = self._binop(prec + 1)
            fn = S.Var(op.text, pos=(op.line, op.col))
            left = S.App(S.App(fn, left, pos=(op.line, op.col)), right, pos=(op.line, op.col))

    def _binder(self) -> str:
        if self.eat("sym", "_"):
            return "_"
        return self.expect("lident", what="binder").text

    def _branch_pattern(self) -> int | None:
        """The binder count of a `Name binder* ->` ahead, else None. Such a
        pattern begins the next branch of the enclosing case (any count) or
        match (exactly one); application must not swallow it."""
        if self.peek().kind != "uident":
            return None
        j = 1
        while self.peek(j).kind == "lident" or (self.peek(j).kind == "sym" and self.peek(j).text == "_"):
            j += 1
        return j - 1 if self.peek(j).kind == "sym" and self.peek(j).text == "->" else None

    def _app(self) -> S.Expr:
        head = self._prefix()
        while True:
            t = self.peek()
            if not (t.kind in ("int", "char", "lident")
                    or t.kind == "sym" and t.text == "("
                    or t.kind == "uident" and self._branch_pattern() is None):
                return head
            head = S.App(head, self._atom(), pos=(t.line, t.col))

    def _prefix(self) -> S.Expr:
        t = self.peek()
        pos = (t.line, t.col)
        if self.eat("kw", "send"):
            return S.Send(self._atom(), pos=pos)
        if self.eat("kw", "receive"):
            return S.Receive(self._atom(), pos=pos)
        if self.eat("kw", "fork"):
            return S.Fork(self._atom(), pos=pos)
        if self.eat("kw", "new"):
            return S.New(self.type_(), pos=pos)
        if self.eat("kw", "select"):
            label = self.expect("uident", what="choice label").text
            return S.Select(label, self._atom(), pos=pos)
        return self._atom()

    def _atom(self) -> S.Expr:
        t = self.peek()
        pos = (t.line, t.col)
        if t.kind == "int":
            self.next()
            # the length goes first: `int` refuses a string of over 4,300 digits
            digits = t.text.lstrip("0") or "0"
            if len(digits) > len(str(S.INT_MAX)) or int(digits) > S.INT_MAX:
                raise _error_at(t, "integer literal out of range")
            return S.Lit(int(digits), pos=pos)
        if t.kind == "char":
            self.next()
            return S.Lit(t.text, pos=pos)
        if t.kind == "uident":
            self.next()
            if t.text == "True":
                return S.Lit(True, pos=pos)
            if t.text == "False":
                return S.Lit(False, pos=pos)
            return S.Var(t.text, pos=pos)
        if t.kind == "lident":
            self.next()
            if self.at("sym", "["):
                self.next()
                args = [self.type_()]
                while self.eat("sym", ","):
                    args.append(self.type_())
                self.expect("sym", "]")
                return S.TypeApp(t.text, tuple(args), pos=pos)
            return S.Var(t.text, pos=pos)
        if self.eat("sym", "("):
            if self.eat("sym", ")"):
                return S.Lit((), pos=pos)
            first = self.expr()
            if self.eat("sym", ","):
                second = self.expr()
                self.expect("sym", ")")
                return S.PairE(first, second, pos=pos)
            self.expect("sym", ")")
            return first
        raise self.err(f"expected an expression, found {t.text!r}")

    def _case_branches(self) -> list[tuple[str, tuple[str, ...], S.Expr]]:
        branches: list[tuple[str, tuple[str, ...], S.Expr]] = []
        seen: set[str] = set()
        while True:
            ctor = self.fresh("uident", "constructor pattern", seen, "duplicate case branch")
            params: list[str] = []
            while self.peek().kind == "lident" or self.at("sym", "_"):
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
            self.next()
            if shape():
                return True
            self.i = save
            return False
        return shape()


# ---------------------------------------------------------------------------
# Declarations


def _split_declarations(tokens: list[Token]) -> list[list[Token]]:
    """Group the token stream into one chunk per top-level declaration."""
    lines: dict[int, list[Token]] = {}
    for tok in tokens:
        if tok.kind != "eof":
            lines.setdefault(tok.line, []).append(tok)

    def starts_decl(line_toks: list[Token]) -> bool:
        head = line_toks[0]
        if head.kind == "kw" and head.text in ("type", "data"):
            return True
        if head.kind != "lident":
            return False
        if len(line_toks) > 1 and line_toks[1].kind == "sym" and line_toks[1].text == ":":
            return True
        for tok in line_toks[1:]:
            if tok.kind == "sym" and tok.text == "=":
                return True
            if tok.kind == "lident" or (tok.kind == "sym" and tok.text == "_"):
                continue
            return False
        return False

    chunks: list[list[Token]] = []
    for lineno in sorted(lines):
        line_toks = lines[lineno]
        if starts_decl(line_toks) or not chunks:
            chunks.append(list(line_toks))
        else:
            chunks[-1].extend(line_toks)
    return chunks


def _parse_decl(chunk: list[Token], prog: S.Program, diags: list[Diagnostic]) -> None:
    eof = Token("eof", "", chunk[-1].line, chunk[-1].col)
    _within_stack(_P(chunk + [eof]), lambda p: _declaration(p, prog, diags))


def _declaration(p: _P, prog: S.Program, diags: list[Diagnostic]) -> None:
    head = p.peek()
    pos = (head.line, head.col)

    def check_unique(name: str) -> bool:
        for table in (prog.abbrevs, prog.datatypes, prog.definitions):
            if name in table:
                diags.append(Diagnostic(head.line, head.col, f"duplicate top-level name {name}"))
                return False
        return True

    if p.eat("kw", "type"):
        name = p.expect("uident", what="type name").text
        p.expect("sym", "=")
        body = p.type_()
        p.expect("eof")
        if check_unique(name):
            prog.abbrevs[name] = S.TypeAbbrev(name, body, pos)
        return
    if p.eat("kw", "data"):
        name = p.expect("uident", what="datatype name").text
        p.expect("sym", "=")
        ctors: dict[str, tuple[S.Type, ...]] = {}
        seen: set[str] = set()
        while True:
            cname = p.fresh("uident", "constructor", seen, "duplicate constructor")
            fields: list[S.Type] = []
            while not p.at("sym", "|") and not p.at("eof"):
                fields.append(p.type_atom())
            ctors[cname] = tuple(fields)
            if not p.eat("sym", "|"):
                break
        p.expect("eof")
        if check_unique(name):
            prog.datatypes[name] = S.DataDecl(name, ctors, pos)
        return

    name_tok = p.expect("lident", what="declaration")
    name = name_tok.text
    if p.eat("sym", ":"):
        scheme = p.scheme()
        p.expect("eof")
        if name in prog.signatures:
            diags.append(Diagnostic(head.line, head.col, f"duplicate signature for {name}"))
            return
        prog.signatures[name] = S.SigDecl(name, scheme, pos)
        return
    # `f x y = e` is `f = \x -> \y -> e`
    params: list[str] = []
    while not p.at("sym", "="):
        params.append(p._binder())
    p.expect("sym", "=")
    body = p.expr()
    p.expect("eof")
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
    try:
        tokens = lex(source)
    except DiagnosticError as e:
        return None, [e.diag]
    prog = S.Program({}, {}, {}, {})
    chunks = _split_declarations(tokens)
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
    becomes the diagnostic `nesting too deep` at the token the parser had
    reached."""
    try:
        return rule(p)
    except RecursionError:
        raise p.err("nesting too deep") from None


def _parse_all(source: str, rule: Callable[[_P], _T]) -> _T:
    def whole(p: _P) -> _T:
        out = rule(p)
        p.expect("eof")
        return out
    return _within_stack(_P(lex(source)), whole)


def parse_type(source: str) -> S.Type:
    """Parse a standalone type. Raises DiagnosticError on bad input."""
    return _parse_all(source, _P.type_)


def parse_scheme(source: str) -> S.Scheme:
    return _parse_all(source, _P.scheme)

