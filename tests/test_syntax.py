"""Lexing, parsing, pretty-printing and substitution."""

import dataclasses
import random
import re
import typing
from functools import partial

import pytest

from sluice import syntax as S
from sluice.diagnostics import Diagnostic, DiagnosticError
from sluice.lexer import KEYWORDS, Token, lex
from sluice.parser import parse_program, parse_scheme, parse_type
from sluice.syntax import (
    Skip, Semi, Message, Choice, Rec, TVar, Basic, Arrow, Pair, DataRef,
    pretty,
)

from conftest import parse_expr
from gen import rand_session
from verdict_corpus import frontend_inputs


def reassoc_semi(t):
    """Right-associate every sequential composition; used to compare parse trees."""
    match t:
        case Semi(Semi(a, b), c):
            return reassoc_semi(Semi(a, Semi(b, c)))
        case Semi(lhs, rhs):
            lhs2 = reassoc_semi(lhs)
            if isinstance(lhs2, Semi):
                return reassoc_semi(Semi(lhs2, reassoc_semi(rhs)))
            return Semi(lhs2, reassoc_semi(rhs))
        case Arrow(mult, dom, cod):
            return Arrow(mult, reassoc_semi(dom), reassoc_semi(cod))
        case Pair(fst, snd):
            return Pair(reassoc_semi(fst), reassoc_semi(snd))
        case Choice(view, branches):
            return Choice(view, tuple((lab, reassoc_semi(ty)) for lab, ty in branches))
        case Rec(var, body):
            return Rec(var, reassoc_semi(body))
        case _:
            return t

# The tree-transform listing as a self-contained source file: three type
# abbreviations, one datatype, and three signature/definition pairs.
TREE_LISTING = """
type TreeChannel = +{Leaf: Skip, Node: !Int;TreeChannel;TreeChannel}
type TreeC = +{Leaf: Skip, Node: !Int;TreeC;TreeC;?Int}
type TreeS = &{Leaf: Skip, Node: ?Int;TreeS;TreeS;!Int}

data Tree = Leaf | Node Int Tree Tree

transform : forall alpha => Tree -> TreeC;alpha -> (Tree, alpha)
transform tree c =
  case tree of
    Leaf ->
      (Leaf, select Leaf c)
    Node x l r ->
      let c   = select Node c in
      let c   = send x c in
      let l,c = transform[TreeC;?Int;alpha] l c in
      let r,c = transform[?Int;alpha] r c in
      let y,c = receive c in
      (Node y l r, c)

treeSum : forall alpha => TreeS;alpha -> (Int, alpha)
treeSum c =
  match c with
    Leaf c ->
      (0, c)
    Node c ->
      let x, c = receive c in
      let l, c = treeSum[TreeS;!Int;alpha] c in
      let r, c = treeSum[!Int;alpha] c in
      let c    = send (x + l + r) c in
      (x + l + r, c)

main : Tree
main =
  let w,r = new TreeC in
  let _   = fork (treeSum[Skip] r) in
  let t,_ = transform[Skip] aTree w in
  t
"""


TYPE_CLASSES = typing.get_args(S.Type)
EXPR_CLASSES = tuple(S.Expr.__subclasses__())
NODE_CLASSES = (*TYPE_CLASSES, S.Kind, S.Scheme, *EXPR_CLASSES)


def captured(node):
    """The fields a class pattern with positional captures binds, written
    out for every node class."""
    match node:
        case Skip():
            return ()
        case (Basic(a) | DataRef(a) | TVar(a) | S.Lit(a) | S.Var(a) | S.Fork(a) | S.New(a)
              | S.Send(a) | S.Receive(a)):
            return (a,)
        case (Pair(a, b) | Semi(a, b) | Message(a, b) | Choice(a, b) | Rec(a, b) | S.Kind(a, b)
              | S.Scheme(a, b) | S.App(a, b) | S.PairE(a, b) | S.Case(a, b) | S.TypeApp(a, b)
              | S.Select(a, b) | S.Match(a, b)):
            return (a, b)
        case Arrow(a, b, c) | S.Lam(a, b, c) | S.Let(a, b, c) | S.If(a, b, c):
            return (a, b, c)
        case S.LetPair(a, b, c, d):
            return (a, b, c, d)


def sample(cls):
    """An instance of `cls` whose fields are distinct strings, and those
    strings in constructor order."""
    fields = tuple(f"field{i}" for i in range(len(cls.__match_args__)))
    return (cls(*fields, pos=(1, 2)) if cls in EXPR_CLASSES else cls(*fields)), fields


# The lexer before each token was classified once: one `finditer` match per
# token, dispatched on the name of the group that matched. `TestLexer` holds
# `lex` to it.
_REFERENCE_SCAN = re.compile(r"""
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

_REFERENCE_ESCAPES = {"n": "\n", "t": "\t", "\\": "\\", "'": "'", "0": "\0"}

_token = partial(tuple.__new__, Token)


def reference_lex(source: str) -> list[Token]:
    """The tokens of `source`, ending with an `eof` token. A column counts
    the characters since the last newline, except that a comment leaves the
    column where it began."""
    tokens: list[Token] = []
    append = tokens.append
    line, line_start, comment_at = 1, 0, None
    for m in _REFERENCE_SCAN.finditer(source):
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
            append(_token(("char", _REFERENCE_ESCAPES[text[2]] if len(text) == 4 else text[1],
                           line, col)))
        else:
            raise DiagnosticError(Diagnostic(line, col, _reference_malformed(source, at)))
    end = len(source) if comment_at is None else comment_at
    append(Token("eof", "", line, end - line_start + 1))
    return tokens


def _reference_malformed(source: str, i: int) -> str:
    """Why no token starts at `source[i]`."""
    c = source[i]
    if c != "'":
        return f"unexpected character {c!r}"
    if i + 1 >= len(source) or source[i + 1] != "\\":
        return "unterminated character literal"
    if i + 3 >= len(source) or source[i + 3] != "'":
        return "bad character escape"
    return f"unknown escape \\{source[i + 2]}"


def raw_newline_literal(source: str) -> int | None:
    """Where the reference lexer reads a character literal that holds a raw
    newline, which `lex` rejects, if it reads one before any error."""
    for m in _REFERENCE_SCAN.finditer(source):
        if m.lastgroup == "other":
            return None
        if m.group(m.lastgroup) == "'\n'":
            return m.start(m.lastgroup)
    return None


def lexed(lex_fn, source):
    """The token tuples of `source`, or the rendered lexer error."""
    try:
        return [tuple(t) for t in lex_fn(source)]
    except DiagnosticError as exc:
        return exc.diag.render()


def tokens(source):
    return [(t.kind, t.text, t.line, t.col) for t in lex(source)]


class TestLexer:
    def test_columns_after_tabs_and_crlf(self):
        # a tab and a carriage return are one column each
        assert tokens("\tx\r\n  y\t=\r\n") == [
            ("lident", "x", 1, 2), ("lident", "y", 2, 3), ("sym", "=", 2, 5), ("eof", "", 3, 1)]

    def test_eof_after_a_trailing_comment_stays_where_the_comment_began(self):
        assert tokens("main = 1  -- the end")[-1] == ("eof", "", 1, 11)
        assert tokens("main = 1  -- the end\n")[-1] == ("eof", "", 2, 1)
        assert tokens("x  ")[-1] == ("eof", "", 1, 4)

    @pytest.mark.parametrize("source, message", [
        ("x = 'ab'", "1:5: error: unterminated character literal"),
        ("x = '", "1:5: error: unterminated character literal"),
        ("x = '\\n", "1:5: error: bad character escape"),
        ("x = '\\q'", "1:5: error: unknown escape \\q"),
        ("x = $", "1:5: error: unexpected character '$'"),
        ("x =\n ²y", "2:2: error: unexpected character '²'"),
    ])
    def test_malformed_characters(self, source, message):
        with pytest.raises(DiagnosticError) as exc:
            lex(source)
        assert exc.value.diag.render() == f"<input>:{message}"

    def test_a_raw_newline_in_a_character_literal_is_unterminated(self):
        # read as the character `\n`, such a literal would hide a line break
        # from the line count, and `foo` would be placed on line 3, not 4
        prog, diags = parse_program("main : Char\nmain = '\n'\nfoo")
        assert prog is None
        assert diags == [Diagnostic(2, 8, "unterminated character literal")]

    def test_linear_arrow_against_a_longer_word(self):
        assert tokens("a -o b")[1] == ("sym", "-o", 1, 3)
        assert tokens("a -oops")[1:3] == [("sym", "-", 1, 3), ("lident", "oops", 1, 4)]
        assert tokens("a -o'")[1:3] == [("sym", "-", 1, 3), ("lident", "o'", 1, 4)]

    def test_words_and_letters_beyond_ascii(self):
        assert tokens("λx Ñu x² ǅ")[:4] == [
            ("lident", "λx", 1, 1), ("uident", "Ñu", 1, 4), ("lident", "x²", 1, 7),
            ("lident", "ǅ", 1, 10)]

    def test_line_heads(self):
        heads = []
        lex("a b\n\n  -- c\nd\n", heads)
        assert heads == [0, 2, 2, 2, 3]

    def test_agrees_with_the_reference_lexer(self):
        sources = [src for name, srcs in frontend_inputs() if name.startswith("soup")
                   for src in srcs]
        rng = random.Random(2806)
        alphabet = "ab Zq_'\\\n\r\t -o->=;(){}09é²λ٣Ñ"
        pieces = [" x", " Ab", " 12", " é", "  ", "\t", "\r\n", "\n", " 'a'", " '\n'", " '\\n'",
                  "-- c\n", " ->", " -o", " -oops", " (", " ;", " let", "'", "\\"]
        for i in range(2000):
            sources.append("".join(rng.choice(alphabet) for _ in range(rng.randint(0, 60))))
            if i % 100 == 0:
                # long enough to cross the lexer's chunk boundaries
                sources.append("".join(rng.choice(pieces[:-2]) for _ in range(3000)))
                sources.append("".join(rng.choice(pieces) for _ in range(3000)))
        # and long sources without raw newlines in literals, which the
        # reference lexer reads otherwise, so that they agree across chunks
        rng = random.Random(2906)
        for _ in range(20):
            sources.append("".join(rng.choice(pieces[:-2]) for _ in range(3000))
                           .replace(" '\n'", " 'a'"))
        for source in sources:
            at = raw_newline_literal(source)
            if at is None:
                assert lexed(lex, source) == lexed(reference_lex, source), source
            else:
                line, col = source.count("\n", 0, at) + 1, at - source.rfind("\n", 0, at)
                assert lexed(lex, source) == Diagnostic(
                    line, col, "unterminated character literal").render(), source


class TestNodeClasses:
    def test_no_node_class_has_a_subclass(self):
        # the per-node routines (kinding, translation, `subst`, `head`,
        # `free_tvars`, `synth`) dispatch on `x.__class__ is C`, which,
        # unlike a class pattern, would not match a subclass of C
        assert {c.__name__ for c in TYPE_CLASSES} == {
            "Basic", "Arrow", "Pair", "DataRef", "Skip", "Semi", "Message", "Choice", "Rec", "TVar"}
        assert {c.__name__ for c in EXPR_CLASSES} >= {
            "Lit", "Var", "Lam", "App", "PairE", "LetPair", "Let", "Case", "If", "TypeApp",
            "Fork", "New", "Send", "Receive", "Select", "Match"}
        for cls in NODE_CLASSES:
            assert cls.__subclasses__() == [], cls

    def test_nodes_have_slots_and_match_their_fields_in_constructor_order(self):
        # a per-instance dict costs about 40 bytes a node; the benchmark
        # corpus keeps about 117,000 type nodes alive
        for cls in NODE_CLASSES:
            node, fields = sample(cls)
            assert not hasattr(node, "__dict__") and not dataclasses.is_dataclass(cls), cls
            assert cls.__match_args__ == cls.__slots__, cls
            assert tuple(getattr(node, name) for name in cls.__match_args__) == fields, cls
            assert captured(node) == fields, cls

    def test_a_wrong_number_of_constructor_arguments_raises(self):
        for cls in NODE_CLASSES:
            _, fields = sample(cls)
            with pytest.raises(TypeError):
                cls(*fields, "extra")
            if fields:
                with pytest.raises(TypeError):
                    cls(*fields[1:])

    def test_equality_is_class_strict_both_ways(self):
        a, b = Message(S.OUT, "Int"), Skip()
        for x, y in ((Semi(a, b), Pair(a, b)), (Basic("Int"), DataRef("Int")),
                     (TVar("x"), DataRef("x")), (S.Send(S.Var("c")), S.Receive(S.Var("c")))):
            assert x != y and y != x and not x == y and not y == x
        assert Semi(a, b) == Semi(Message(S.OUT, "Int"), Skip())
        assert not Semi(a, b) != Semi(Message(S.OUT, "Int"), Skip())

    def test_types_kinds_and_schemes_hash_as_their_field_tuples(self):
        # the dataclass formula, so no set or dict order moves
        samples = [sample(cls)[0] for cls in (*TYPE_CLASSES, S.Kind, S.Scheme)]
        samples += [parse_type(text) for text in TYPE_SNIPPETS + ["(Int, ()) -o Bool"]]
        samples += [parse_scheme(text) for text in SCHEME_SNIPPETS]
        for t in samples:
            assert hash(t) == hash(tuple(getattr(t, name) for name in t.__match_args__)), t
        assert hash(Skip()) == hash(())
        assert hash(Basic("Int")) == hash(("Int",))

    def test_types_kinds_and_schemes_are_immutable(self):
        for node in (Semi(Skip(), Skip()), TVar("x"), Skip(), S.SL,
                     S.Scheme((), Basic("Int"))):
            name = (node.__match_args__ or ("name",))[0]
            with pytest.raises(AttributeError):
                setattr(node, name, None)
            with pytest.raises(AttributeError):
                delattr(node, name)
        assert S.SL == S.Kind(S.SESSION, S.LINEAR)

    def test_expressions_compare_without_positions_and_are_unhashable(self):
        e1 = S.App(S.Var("f", pos=(1, 1)), S.Lit(1, pos=(1, 3)), pos=(1, 1))
        e2 = S.App(S.Var("f", pos=(7, 2)), S.Lit(1), pos=(9, 9))
        assert e1 == e2 and not e1 != e2
        assert e1 != S.App(S.Var("f"), S.Lit(2))
        with pytest.raises(TypeError):
            hash(e1)
        e1.pos = (2, 2)  # expressions stay mutable
        assert e1.pos == (2, 2)

    def test_repr_is_the_dataclass_format(self):
        # `tests/golden/frontend.txt` hashes `repr` of every parsed program
        assert repr(Semi(Skip(), Message(S.OUT, "Int"))) == (
            "Semi(lhs=Skip(), rhs=Message(polarity='!', payload='Int'))")
        assert repr(S.Scheme((("a", S.SL),), TVar("a"))) == (
            "Scheme(binders=(('a', Kind(prekind='S', mult='L')),), body=TVar(name='a'))")
        assert repr(S.Lam(S.LINEAR, "x", S.Var("x", pos=(1, 9)), pos=(1, 1))) == (
            "Lam(pos=(1, 1), mult='L', param='x', body=Var(pos=(1, 9), name='x'))")


class TestParseType:
    def test_semi_right_associated(self):
        assert parse_type("Skip;!Int") == Semi(Skip(), Message(S.OUT, "Int"))

    def test_semi_chain(self):
        t = parse_type("!Int;?Bool;!Char")
        assert t == Semi(Message(S.OUT, "Int"),
                         Semi(Message(S.IN, "Bool"), Message(S.OUT, "Char")))

    def test_choice_with_references(self):
        t = parse_type("+{Leaf: Skip, Node: !Int;x;x;?Int}")
        assert isinstance(t, Choice) and t.view == S.INTERNAL
        branches = dict(t.branches)
        assert tuple(branches) == ("Leaf", "Node")
        assert branches["Leaf"] == Skip()
        node = branches["Node"]
        assert node == Semi(Message(S.OUT, "Int"),
                            Semi(TVar("x"), Semi(TVar("x"), Message(S.IN, "Int"))))

    def test_empty_choice_rejected(self):
        with pytest.raises(DiagnosticError, match="empty choice"):
            parse_type("+{}")

    def test_rec(self):
        t = parse_type("rec x. +{Leaf: Skip, Node: !Int;x;x;?Int}")
        assert isinstance(t, Rec) and t.var == "x"

    def test_arrow_binds_loosest(self):
        t = parse_type("!Char -> !Bool -> Skip")
        assert t == Arrow(S.UNRESTRICTED, Message(S.OUT, "Char"),
                          Arrow(S.UNRESTRICTED, Message(S.OUT, "Bool"), Skip()))

    def test_linear_arrow(self):
        t = parse_type("Int -o Bool")
        assert t == Arrow(S.LINEAR, Basic("Int"), Basic("Bool"))

    def test_pair_and_unit(self):
        assert parse_type("(Int, Bool)") == Pair(Basic("Int"), Basic("Bool"))
        assert parse_type("()") == Basic("Unit")

    def test_message_payload_must_be_basic(self):
        with pytest.raises(DiagnosticError, match="basic"):
            parse_type("!Tree")

    def test_uppercase_name_is_reference(self):
        assert parse_type("TreeC") == DataRef("TreeC")


class TestScheme:
    def test_default_binder_kind_is_SL(self):
        s = parse_scheme("forall alpha => Tree -> TreeC;alpha -> (Tree, alpha)")
        assert s.binders == (("alpha", S.SL),)

    def test_explicit_kind(self):
        s = parse_scheme("forall alpha:SL => Tree -> TreeC;alpha -> (Tree,alpha)")
        assert s.binders == (("alpha", S.SL),)
        s2 = parse_scheme("forall b:TU => b -> b")
        assert s2.binders == (("b", S.TU),)


class TestPretty:
    def test_atoms(self):
        assert pretty(Skip()) == "Skip"
        assert pretty(Message(S.IN, "Bool")) == "?Bool"

    def test_roundtrip_random(self):
        rng = random.Random(2024)
        for _ in range(1000):
            t = rand_session(rng, rng.randint(0, 5))
            back = parse_type(pretty(t))
            assert reassoc_semi(back) == reassoc_semi(t), pretty(t)

    def test_roundtrip_functional(self):
        for text in ["Int -> Bool -o (Char, ())", "(!Int;Skip) -> Skip",
                     "rec x. +{A: !Int;x, B: Skip}"]:
            t = parse_type(text)
            assert reassoc_semi(parse_type(pretty(t))) == reassoc_semi(t)


class TestParseProgram:
    def test_tree_listing_shape(self):
        prog, diags = parse_program(TREE_LISTING)
        assert diags == []
        assert len(prog.signatures) == 3
        assert len(prog.definitions) == 3
        assert len(prog.datatypes) == 1
        assert len(prog.abbrevs) == 3
        assert prog.entry is not None

    def test_empty_input_missing_main(self):
        prog, diags = parse_program("")
        assert prog is None
        assert any("missing main" in d.message for d in diags)

    def test_type_errors_are_not_parse_errors(self):
        prog, diags = parse_program("f : Int\nf = 1 + True")
        assert diags == []
        assert "f" in prog.definitions and "f" in prog.signatures

    def test_duplicate_top_level_name(self):
        src = "f : Int\nf = 1\nf = 2\nmain : Int\nmain = f"
        _, diags = parse_program(src)
        assert any("duplicate" in d.message for d in diags)

    @pytest.mark.parametrize("src, line, col, message", [
        pytest.param("data D = A | A Int", 1, 14, "duplicate constructor A", id="constructor"),
        pytest.param("type T = +{A: Skip,\n  A: Skip}", 2, 3, "duplicate branch label A",
                     id="branch-label"),
        pytest.param("f : forall a, a => Int\nf = 1", 1, 15, "duplicate forall binder a",
                     id="forall-binder"),
        pytest.param("f : Int\nf = case x of A -> 1, A -> 2", 2, 23, "duplicate case branch A",
                     id="case-branch"),
        pytest.param("f : Int\nf = match x with A y -> 1, A z -> 2", 2, 28,
                     "duplicate match branch A", id="match-branch"),
        pytest.param("f : forall a : Q => Int\nf = 1", 1, 16, "unknown kind Q", id="unknown-kind"),
        pytest.param("f : Int\nf : Int\nf = 1", 2, 1, "duplicate signature for f",
                     id="duplicate-signature"),
        pytest.param("f : Char\nf = '\\q'", 2, 5, "unknown escape \\q", id="unknown-escape"),
        pytest.param("main : Int\nmain = 9223372036854775808", 2, 8,
                     "integer literal out of range", id="integer-range"),
    ])
    def test_diagnostic_points_at_the_offending_token(self, src, line, col, message):
        _, diags = parse_program(src)
        assert (line, col, message) in [(d.line, d.col, d.message) for d in diags], diags

    def test_the_largest_integer_literal_parses(self):
        prog, diags = parse_program("main : Int\nmain = 9223372036854775807")
        assert diags == [] and prog.definitions["main"].body == S.Lit(2 ** 63 - 1)

    def test_definition_without_signature(self):
        _, diags = parse_program("f = 1\nmain : Int\nmain = f")
        assert any("no signature" in d.message for d in diags)

    def test_signature_without_definition(self):
        _, diags = parse_program("f : Int\nmain : Int\nmain = 0")
        assert any("no definition" in d.message for d in diags)

    def test_diagnostics_carry_positions(self):
        _, diags = parse_program("main : Int\nmain = +{}\n")
        assert diags and diags[0].line == 2 and diags[0].col > 0

    def test_comments_ignored(self):
        prog, diags = parse_program("-- a program\nmain : Int\nmain = 3 -- three\n")
        assert diags == []

    def test_match_nested_in_case(self):
        src = ("data D = A | B\n"
               "f : D -> &{L: Skip, M: Skip} -> Int\n"
               "f d c =\n"
               "  case d of\n"
               "    A ->\n"
               "      match c with\n"
               "        L c -> 1\n"
               "        M c -> 2\n"
               "    B ->\n"
               "      match c with L c -> 3, M c -> 4\n"
               "main : Int\nmain = 0\n")
        prog, diags = parse_program(src)
        assert diags == []
        outer = prog.definitions["f"].body.body.body
        assert [b[0] for b in outer.branches] == ["A", "B"]
        assert [b[0] for b in outer.branches[0][2].branches] == ["L", "M"]

    def test_comma_returns_to_outer_construct(self):
        src = ("data D = A | B\n"
               "g : D -> &{L: Skip} -> Int\n"
               "g d c = case d of A -> match c with L c -> 1, B -> 2\n"
               "main : Int\nmain = 0\n")
        prog, diags = parse_program(src)
        assert diags == []
        assert [b[0] for b in prog.definitions["g"].body.body.body.branches] == ["A", "B"]

    def test_lambda_forms(self):
        e = parse_expr(r"\x -> \y -o x")
        assert (e.mult, e.param) == (S.UNRESTRICTED, "x")
        assert (e.body.mult, e.body.param) == (S.LINEAR, "y")

    def test_parameters_are_lambdas(self):
        prog, diags = parse_program("f : Int -> Int -> Int\nf x _ = x\n"
                                    "main : Int\nmain = f 1 2\n")
        assert diags == []
        assert prog.definitions["f"].body == S.Lam(
            S.UNRESTRICTED, "x", S.Lam(S.UNRESTRICTED, "_", S.Var("x")))
        assert prog.definitions["f"].body.pos == prog.definitions["f"].body.body.pos == (2, 1)

    def test_branches_split_on_commas_too(self):
        src = ("data D = A | B\n"
               "f : D -> Int\n"
               "f d = case d of A -> 1, B -> 2\n"
               "main : Int\nmain = f A")
        prog, diags = parse_program(src)
        assert diags == []
        branches = prog.definitions["f"].body.body.branches
        assert [b[0] for b in branches] == ["A", "B"]


TYPE_SNIPPETS = [
    "+{Leaf: Skip, Node: !Int;TreeChannel;TreeChannel}",
    "+{Leaf: Skip, Node: !Int;TreeC;TreeC;?Int}",
    "rec x. +{Leaf: Skip, Node: !Int;x;x;?Int}",
    "rec x. &{Leaf: Skip, Node: ?Int;x;x;!Int}",
    "Tree -> TreeC;TreeC;?Int;alpha -> (Tree, TreeC;?Int;alpha)",
    "!Char -> !Bool -> Skip",
    "?Char -> ?Bool -> Bool",
    "!Char;!Char -> !Bool;!Bool -> Skip",
    "rec x1. rec x2. x1",
    "rec x1. rec x2. (x1;Skip)",
]

SCHEME_SNIPPETS = [
    "forall alpha => Tree -> TreeC;alpha -> (Tree, alpha)",
    "forall alpha => TreeS;alpha -> (Int, alpha)",
    "forall alpha:SL => Tree -> TreeC;alpha -> (Tree,alpha)",
]


@pytest.mark.parametrize("snippet", TYPE_SNIPPETS)
def test_type_snippets_parse(snippet):
    parse_type(snippet)


@pytest.mark.parametrize("snippet", SCHEME_SNIPPETS)
def test_scheme_snippets_parse(snippet):
    parse_scheme(snippet)


def test_program_files_parse(tree_source, cross_source, cross_doubled_source):
    for src in (tree_source, cross_source, cross_doubled_source):
        _, diags = parse_program(src)
        assert diags == []


class TestSubst:
    def test_a_binder_that_would_capture_is_renamed(self):
        out = S.subst(parse_type("rec y. rec z. !Int;x;y;z"), {"x": TVar("z")})
        assert out.var == "y" and out.body.var != "z"
        assert S.free_tvars(out) == {"z"}
        assert S.subst(parse_type("rec z. x;z"), {"x": Message(S.OUT, "Int")}).var == "z"

    def test_a_renamed_binder_takes_the_first_free_name(self):
        # `x` captures `y`'s replacement; `x_1` is taken when it is free in
        # the body, a key of the mapping or free in a substituted type
        t = parse_type("rec x. !Int;x;y")
        for mapping, renamed in (({"y": TVar("x")}, "rec x_1. !Int;x_1;x"),
                                 ({"y": TVar("x"), "x_1": TVar("z")}, "rec x_2. !Int;x_2;x"),
                                 ({"y": parse_type("x;x_1")}, "rec x_2. !Int;x_2;x;x_1")):
            assert S.pretty(S.subst(t, mapping)) == renamed
        body_has_x_1 = parse_type("rec x. !Int;x;y;x_1")
        assert S.pretty(S.subst(body_has_x_1, {"y": TVar("x")})) == "rec x_2. !Int;x_2;x;x_1"

    def test_free_variables_are_worked_out_once_per_call(self, monkeypatch):
        # twenty binders on the path to `x`, each asking whether it would
        # capture a free variable of the substituted type
        t = parse_type(" ".join(f"rec y{i}." for i in range(20)) + " !Int;x")
        into = parse_type("+{A: ?Int;z, B: !Bool}")
        calls = []
        free_tvars = S.free_tvars
        monkeypatch.setattr(S, "free_tvars", lambda u: calls.append(u) or free_tvars(u))
        S.free_tvars(into)
        once = len(calls)
        out = S.subst(t, {"x": into})
        assert len(calls) == 2 * once
        monkeypatch.undo()
        assert S.free_tvars(out) == {"z"}


class TestRobustness:
    def test_garbage_never_escapes_as_nondiagnostic(self):
        from sluice.diagnostics import DiagnosticError

        rng = random.Random(404)
        alphabet = "abzXY(){}[];:=->!?&+,. \n1'\\_|"
        for _ in range(400):
            soup = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 60)))
            prog, diags = parse_program(soup)  # may or may not parse
            try:
                parse_type(soup)
            except DiagnosticError:
                pass

    def test_corrupted_programs_only_yield_diagnostics(self, tree_source):
        from sluice.typecheck import check_program

        rng = random.Random(405)
        for _ in range(150):
            i = rng.randrange(len(tree_source))
            c = rng.choice("qZ;:()!?&{}[]|,=.")
            mutated = tree_source[:i] + c + tree_source[i + 1:]
            prog, diags = parse_program(mutated)
            if prog is not None and not diags:
                check_program(prog)

    def test_nesting_too_deep_is_a_positioned_diagnostic(self):
        # each parenthesis costs the parser several Python frames
        for parse, text in ((parse_type, "(" * 2000 + "Skip" + ")" * 2000),
                            (parse_expr, "(" * 1000 + "1" + ")" * 1000)):
            with pytest.raises(DiagnosticError, match="nesting too deep") as exc:
                parse(text)
            assert exc.value.diag.line == 1 and 1 < exc.value.diag.col <= text.index(")")

    def test_semi_spine_parses_right_nested_in_a_loop(self):
        n = 5000
        t = parse_type("!Int;" * n + "Skip")
        for _ in range(n):
            assert type(t) is Semi and t.lhs == Message(S.OUT, "Int")
            t = t.rhs
        assert t == Skip()

    def test_let_chain_parses_right_nested_in_a_loop(self):
        n = 5000
        source = ("main : Int\nmain =\n"
                  + "".join(f"  let x{i}, y{i} = (0, 0) in\n" if i % 2 else f"  let x{i} = 0 in\n"
                            for i in range(n))
                  + "  1\n")
        prog, diags = parse_program(source)
        assert not diags
        e = prog.definitions["main"].body
        for i in range(n):
            assert type(e) is (S.LetPair if i % 2 else S.Let) and e.pos == (3 + i, 3) and e.x == f"x{i}"
            e = e.body
        assert e == S.Lit(1)
