"""Abstract syntax: kinds, types, expressions, declarations, and the type pretty-printer.

Types are immutable and hashable so later stages can memoize on structure.
Expressions carry source positions for diagnostics; positions never take part
in equality.

A routine that visits every node of a type or an expression on a hot path
(`kinds.Walk`, `grammar._Builder.word` and `fill`, `subst`, `head`,
`free_tvars`, `typecheck.synth`) picks its case with one `x.__class__ is C`
chain, most frequent class first, not with a `match` on class patterns.
Over the kinding walk's mix of six classes on the benchmark corpus, a
class-pattern `match` cost 580-760 ns a node more than an empty call, and the
chain 64-103 ns (CPython 3.11.7, x86-64). An `is` test matches no subclass,
so no node class has one (`tests/test_syntax.py` checks). Routines that run
once per diagnostic or declaration (`pretty`, `type_names`, `dual`) keep
`match`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from typing import Mapping, NamedTuple, Optional, Union

# ---------------------------------------------------------------------------
# Kinds

SESSION = "S"
FUNCTIONAL = "T"
UNRESTRICTED = "U"
LINEAR = "L"


@dataclass(frozen=True)
class Kind:
    """A prekind (session/functional) paired with a multiplicity (linear/unrestricted)."""

    prekind: str
    mult: str

    def __str__(self) -> str:
        return f"{self.prekind}{self.mult}"


SU = Kind(SESSION, UNRESTRICTED)
SL = Kind(SESSION, LINEAR)
TU = Kind(FUNCTIONAL, UNRESTRICTED)
TL = Kind(FUNCTIONAL, LINEAR)

ALL_KINDS = (SU, SL, TU, TL)

KIND_NAMES = {"SU": SU, "SL": SL, "TU": TU, "TL": TL}

# ---------------------------------------------------------------------------
# Types

BASIC_NAMES = ("Int", "Bool", "Char", "Unit")


@dataclass(frozen=True)
class Basic:
    name: str  # one of BASIC_NAMES


@dataclass(frozen=True)
class Arrow:
    mult: str  # UNRESTRICTED for ->, LINEAR for -o
    dom: "Type"
    cod: "Type"


@dataclass(frozen=True)
class Pair:
    fst: "Type"
    snd: "Type"


@dataclass(frozen=True)
class DataRef:
    """A reference to a declared datatype or type abbreviation; both stay
    names through checking (`head` unfolds an abbreviation)."""

    name: str


@dataclass(frozen=True)
class Skip:
    pass


@dataclass(frozen=True)
class Semi:
    lhs: "Type"
    rhs: "Type"


OUT = "!"
IN = "?"


@dataclass(frozen=True)
class Message:
    polarity: str  # OUT or IN
    payload: str  # a basic type name


INTERNAL = "+"
EXTERNAL = "&"


@dataclass(frozen=True)
class Choice:
    view: str  # INTERNAL or EXTERNAL
    branches: tuple[tuple[str, "Type"], ...]  # ordered, labels pairwise distinct


@dataclass(frozen=True)
class Rec:
    var: str
    body: "Type"


@dataclass(frozen=True)
class TVar:
    name: str


Type = Union[Basic, Arrow, Pair, DataRef, Skip, Semi, Message, Choice, Rec, TVar]

UNIT = Basic("Unit")
INT = Basic("Int")
BOOL = Basic("Bool")
CHAR = Basic("Char")


@dataclass(frozen=True)
class Scheme:
    """A rank-1 polymorphic signature: zero or more kinded binders over a type."""

    binders: tuple[tuple[str, Kind], ...]
    body: Type


# ---------------------------------------------------------------------------
# Type utilities


def free_tvars(t: Type) -> frozenset[str]:
    cls = t.__class__
    if cls is TVar:
        return frozenset((t.name,))
    if cls is Semi:
        return free_tvars(t.lhs) | free_tvars(t.rhs)
    if cls is Choice:
        out: frozenset[str] = frozenset()
        for _, ty in t.branches:
            out |= free_tvars(ty)
        return out
    if cls is Rec:
        return free_tvars(t.body) - {t.var}
    if cls is Arrow:
        return free_tvars(t.dom) | free_tvars(t.cod)
    if cls is Pair:
        return free_tvars(t.fst) | free_tvars(t.snd)
    return frozenset()


def type_names(t: Type) -> set[str]:
    """The declared type names `t` refers to."""
    match t:
        case DataRef(name):
            return {name}
        case Semi(a, b) | Arrow(_, a, b) | Pair(a, b):
            return type_names(a) | type_names(b)
        case Choice(_, branches):
            return set().union(*(type_names(ty) for _, ty in branches))
        case Rec(_, body):
            return type_names(body)
    return set()


_fresh_counter = count(1)


def fresh_name(base: str) -> str:
    return f"{base}_{next(_fresh_counter)}"


def subst(t: Type, mapping: dict[str, Type]) -> Type:
    """Capture-avoiding substitution of type variables. The free variables of
    each type in `mapping` are worked out at most once per call, when a
    binder first needs them, not once per binder."""
    return _subst(t, mapping, {}) if mapping else t


def _subst(t: Type, mapping: dict[str, Type], free: dict[str, frozenset[str]]) -> Type:
    # every mapping of one call is a restriction of its first, so `free`
    # (name -> free variables of its type) serves them all
    cls = t.__class__
    if cls is Semi:
        return Semi(_subst(t.lhs, mapping, free), _subst(t.rhs, mapping, free))
    if cls is Choice:
        return Choice(t.view, tuple((lab, _subst(ty, mapping, free)) for lab, ty in t.branches))
    if cls is TVar:
        return mapping.get(t.name, t)
    if cls is Rec:
        var, body = t.var, t.body
        inner = {k: v for k, v in mapping.items() if k != var}
        if not inner:
            return t
        for k, v in inner.items():
            fv = free.get(k)
            if fv is None:
                fv = free[k] = free_tvars(v)
            if var in fv:
                renamed = fresh_name(var)
                body = subst(body, {var: TVar(renamed)})
                var = renamed
                break
        return Rec(var, _subst(body, inner, free))
    if cls is Arrow:
        return Arrow(t.mult, _subst(t.dom, mapping, free), _subst(t.cod, mapping, free))
    if cls is Pair:
        return Pair(_subst(t.fst, mapping, free), _subst(t.snd, mapping, free))
    return t


def seq(a: Type, b: Type) -> Type:
    """Sequential composition `a;b` with the Skip unit laws applied on top."""
    if isinstance(a, Skip):
        return b
    if isinstance(b, Skip):
        return a
    return Semi(a, b)


# ---------------------------------------------------------------------------
# Head normal form

VAR = "$"


class Terminal(NamedTuple):
    """A first action of a session type. Messages are tagged with their
    polarity and choice labels with the choice's view; a free type variable
    is a rigid action tagged VAR, so open types compare by name. It is a
    NamedTuple, so hashing and comparing it (every grammar dict and every
    `step`) run in C."""

    tag: str
    arg: str

    def __str__(self) -> str:
        return f"{self.tag}{self.arg}"


class NoHead(Exception):
    """The type is not a session type, or it unfolds too often (`Unfolding`)."""


class Unfolding(NoHead):
    """`head` unfolded `rec`s and names `MAX_UNFOLDINGS` times without
    meeting an action: the type is not contractive, or its first action lies
    deeper still. `start` is the type `head` was given."""

    def __init__(self, message: str, start: Type) -> None:
        super().__init__(message)
        self.start = start


# Contractive types reach an action after a few unfoldings of `rec` and of
# names; this only stops the loop on non-contractive input. No loop check
# can replace the count: unfolding `rec x. rec y. x` never meets the same
# object again, only an equal one, and type equality recurses; binder names
# cannot key one either, as `(rec x. Skip);(rec x. !Int;x)` meets `x` twice
# and is contractive. The longest chain on record is a 1,000-name alias chain
# (`TestNameSystemSize::test_thousand_name_alias_chain`): it fails with a
# count of 998 and passes with 1,000, so 10,000 leaves tenfold room. A
# contractive type that needs more raises `Unfolding`, which the typechecker
# reports as a diagnostic.
MAX_UNFOLDINGS = 10_000


def head(t: Type, names: Mapping[str, Type] | None = None) -> dict[Terminal, Type]:
    """Head normal form of a session type: each first action mapped to its
    continuation; empty for a terminated protocol. Recursion, and each name
    through its body in `names`, is unfolded on demand and the `;` spine is
    walked with an explicit stack of pending right operands, so a deep spine
    costs heap, not Python stack."""
    pending: list[Type] = []
    start, fuel = t, MAX_UNFOLDINGS
    while True:
        cls = t.__class__
        if cls is Semi:
            pending.append(t.rhs)
            t = t.lhs
            continue
        if cls is Skip:
            if not pending:
                return {}
            t = pending.pop()
            continue
        if cls is Rec:
            if fuel == 0:
                raise Unfolding(f"recursion does not reach an action: {pretty(t)}", start)
            fuel -= 1
            t = subst(t.body, {t.var: t})
            continue
        if cls is Message:
            actions = ((Terminal(t.polarity, t.payload), Skip()),)
        elif cls is Choice:
            view = t.view
            actions = ((Terminal(view, lab), ty) for lab, ty in t.branches)
        elif cls is TVar:
            actions = ((Terminal(VAR, t.name), Skip()),)
        elif cls is DataRef and names and t.name in names:
            if fuel == 0:
                raise Unfolding(f"names do not reach an action: {t.name}", start)
            fuel -= 1
            t = names[t.name]
            continue
        else:
            raise NoHead(f"not a session type: {t!r}")
        rest: Type = Skip()
        for r in reversed(pending):
            rest = seq(rest, r)
        return {a: seq(k, rest) for a, k in actions}


# ---------------------------------------------------------------------------
# Pretty-printing types

_ARROW_LEVEL = 0
_SEMI_LEVEL = 1
_ATOM_LEVEL = 2


def pretty(t: Type, level: int = _ARROW_LEVEL) -> str:
    match t:
        case Basic("Unit"):
            return "()"
        case Basic(name):
            return name
        case TVar(name):
            return name
        case DataRef(name):
            return name
        case Skip():
            return "Skip"
        case Message(polarity, payload):
            return f"{polarity}{payload}" if payload != "Unit" else f"{polarity}()"
        case Choice(view, branches):
            inner = ", ".join(f"{lab}: {pretty(ty)}" for lab, ty in branches)
            return f"{view}{{{inner}}}"
        case Pair(fst, snd):
            return f"({pretty(fst)}, {pretty(snd)})"
        case Semi(lhs, rhs):
            s = f"{pretty(lhs, _ATOM_LEVEL)};{pretty(rhs, _SEMI_LEVEL)}"
            return f"({s})" if level > _SEMI_LEVEL else s
        case Arrow(mult, dom, cod):
            op = "->" if mult == UNRESTRICTED else "-o"
            s = f"{pretty(dom, _SEMI_LEVEL)} {op} {pretty(cod, _ARROW_LEVEL)}"
            return f"({s})" if level > _ARROW_LEVEL else s
        case Rec(var, body):
            s = f"rec {var}. {pretty(body, _ARROW_LEVEL)}"
            return f"({s})" if level > _ARROW_LEVEL else s
    raise TypeError(f"not a type: {t!r}")


def pretty_scheme(s: Scheme) -> str:
    if not s.binders:
        return pretty(s.body)
    binders = ", ".join(f"{name}:{kind}" for name, kind in s.binders)
    return f"forall {binders} => {pretty(s.body)}"


# ---------------------------------------------------------------------------
# Expressions

Pos = tuple[int, int]


@dataclass
class Expr:
    pos: Optional[Pos] = field(default=None, compare=False, kw_only=True)


# Int is a signed 64-bit integer: the parser rejects a larger literal, and
# the runtime reports an overflow when arithmetic leaves the range.
INT_MAX = 2 ** 63 - 1


@dataclass
class Lit(Expr):
    value: object = None  # int | bool | 1-char str | () for unit


@dataclass
class Var(Expr):
    name: str = ""


@dataclass
class Lam(Expr):
    mult: str = UNRESTRICTED
    param: str = ""
    body: Expr = None  # type: ignore[assignment]


@dataclass
class App(Expr):
    fun: Expr = None  # type: ignore[assignment]
    arg: Expr = None  # type: ignore[assignment]


@dataclass
class PairE(Expr):
    fst: Expr = None  # type: ignore[assignment]
    snd: Expr = None  # type: ignore[assignment]


@dataclass
class LetPair(Expr):
    x: str = ""
    y: str = ""
    bound: Expr = None  # type: ignore[assignment]
    body: Expr = None  # type: ignore[assignment]


@dataclass
class Let(Expr):
    x: str = ""
    bound: Expr = None  # type: ignore[assignment]
    body: Expr = None  # type: ignore[assignment]


@dataclass
class Case(Expr):
    scrutinee: Expr = None  # type: ignore[assignment]
    branches: tuple[tuple[str, tuple[str, ...], Expr], ...] = ()


@dataclass
class If(Expr):
    cond: Expr = None  # type: ignore[assignment]
    then: Expr = None  # type: ignore[assignment]
    els: Expr = None  # type: ignore[assignment]


@dataclass
class TypeApp(Expr):
    name: str = ""
    args: tuple[Type, ...] = ()


@dataclass
class Fork(Expr):
    expr: Expr = None  # type: ignore[assignment]


@dataclass
class New(Expr):
    session: Type = None  # type: ignore[assignment]


@dataclass
class Send(Expr):
    expr: Expr = None  # type: ignore[assignment]


@dataclass
class Receive(Expr):
    expr: Expr = None  # type: ignore[assignment]


@dataclass
class Select(Expr):
    label: str = ""
    expr: Expr = None  # type: ignore[assignment]


@dataclass
class Match(Expr):
    scrutinee: Expr = None  # type: ignore[assignment]
    branches: tuple[tuple[str, str, Expr], ...] = ()


# ---------------------------------------------------------------------------
# Declarations and programs


@dataclass
class TypeAbbrev:
    name: str
    body: Type
    pos: Pos


@dataclass
class DataDecl:
    name: str
    ctors: dict[str, tuple[Type, ...]]  # constructor -> field types, in order
    pos: Pos


@dataclass
class SigDecl:
    name: str
    scheme: Scheme
    pos: Pos


@dataclass
class FunDef:
    name: str
    body: Expr  # parameters are lambdas
    pos: Pos


@dataclass
class Program:
    abbrevs: dict[str, TypeAbbrev]
    datatypes: dict[str, DataDecl]
    signatures: dict[str, SigDecl]
    definitions: dict[str, FunDef]

    @property
    def entry(self) -> Optional[FunDef]:
        return self.definitions.get("main")
