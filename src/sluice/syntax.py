"""Abstract syntax: kinds, types, expressions, declarations, the type
pretty-printer, and `PRELUDE`, the table of builtins: each one's name, type
and meaning, which the typechecker and the interpreter both read.

Every type, kind, scheme and expression is a node of a slot class, with no
per-instance dict. Two nodes are equal only when they are of one class and
their fields are equal, and a class pattern captures the fields
positionally. Types, `Kind` and `Scheme` derive from `_Frozen`: they are
immutable and hash as the tuple of their fields, so later stages can memoize
on structure. Expressions derive from `Expr`: they are mutable and
unhashable, and carry source positions for diagnostics; positions never take
part in equality. Both print as the dataclasses they replaced did. The
declaration records, built once per declaration, stay dataclasses.

Compared with the frozen dataclasses they replace (CPython 3.11.7, x86-64,
best of interleaved runs in one process), a node is 40 bytes smaller (a
`Semi` takes 48 bytes instead of 88), building a `Semi` takes 392 ns instead
of 479, and this module's body runs in 2.8 ms instead of 15.9, since no
class is generated at import. Comparing or hashing a node costs 1.6-2.4
times as much, through one generic method per base. But a pass of the
benchmark's equivalence workloads compares and hashes no node, and a pass of
`programs` does so about 220 times.

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

from dataclasses import FrozenInstanceError, dataclass
from itertools import count
from operator import attrgetter
from typing import Callable, Iterable, Mapping, NamedTuple, Optional, Union

# ---------------------------------------------------------------------------
# Node bases


def _values_getter(names: tuple[str, ...]) -> Callable[[object], tuple]:
    """A function from a node to the tuple of its fields `names`."""
    if len(names) > 1:
        return attrgetter(*names)
    if names:  # `attrgetter` returns a lone field bare
        get = attrgetter(*names)
        return lambda node: (get(node),)
    return lambda node: ()


def _repr(node: object, names: Iterable[str]) -> str:
    fields = ", ".join(f"{name}={getattr(node, name)!r}" for name in names)
    return f"{node.__class__.__qualname__}({fields})"


class _Node:
    """A syntax node: one slot per field, no per-instance dict. An instance
    equals only an instance of its own class with equal fields, and
    `__match_args__` lists the fields in order, so a class pattern captures
    them positionally."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls.__match_args__ = cls.__slots__
        cls._values = staticmethod(_values_getter(cls.__slots__))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented


class _Frozen(_Node):
    """Base of the type classes, `Kind` and `Scheme`: a node that hashes as
    the tuple of its fields, prints as `Name(field=value, ...)` and refuses
    to have a field assigned or deleted, as a frozen dataclass does, so
    later stages can memoize on structure. A subclass declares its
    `__slots__` and an `__init__` that sets each field through its slot's
    descriptor (`Semi.lhs.__set__`), which `__setattr__` does not intercept."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        return _repr(self, self.__slots__)

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")


# ---------------------------------------------------------------------------
# Kinds

SESSION = "S"
FUNCTIONAL = "T"
UNRESTRICTED = "U"
LINEAR = "L"


class Kind(_Frozen):
    """A prekind (session/functional) paired with a multiplicity (linear/unrestricted)."""

    __slots__ = ("prekind", "mult")

    def __init__(self, prekind: str, mult: str) -> None:
        Kind.prekind.__set__(self, prekind)
        Kind.mult.__set__(self, mult)

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


class Basic(_Frozen):
    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        Basic.name.__set__(self, name)  # one of BASIC_NAMES


class Arrow(_Frozen):
    __slots__ = ("mult", "dom", "cod")

    def __init__(self, mult: str, dom: Type, cod: Type) -> None:
        Arrow.mult.__set__(self, mult)  # UNRESTRICTED for ->, LINEAR for -o
        Arrow.dom.__set__(self, dom)
        Arrow.cod.__set__(self, cod)


class Pair(_Frozen):
    __slots__ = ("fst", "snd")

    def __init__(self, fst: Type, snd: Type) -> None:
        Pair.fst.__set__(self, fst)
        Pair.snd.__set__(self, snd)


class DataRef(_Frozen):
    """A reference to a declared datatype or type abbreviation; both stay
    names through checking (`head` unfolds an abbreviation)."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        DataRef.name.__set__(self, name)


class Skip(_Frozen):
    __slots__ = ()


class Semi(_Frozen):
    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: Type, rhs: Type) -> None:
        Semi.lhs.__set__(self, lhs)
        Semi.rhs.__set__(self, rhs)


OUT = "!"
IN = "?"


class Message(_Frozen):
    __slots__ = ("polarity", "payload")

    def __init__(self, polarity: str, payload: str) -> None:
        Message.polarity.__set__(self, polarity)  # OUT or IN
        Message.payload.__set__(self, payload)  # a basic type name


INTERNAL = "+"
EXTERNAL = "&"


class Choice(_Frozen):
    __slots__ = ("view", "branches")

    def __init__(self, view: str, branches: tuple[tuple[str, Type], ...]) -> None:
        Choice.view.__set__(self, view)  # INTERNAL or EXTERNAL
        Choice.branches.__set__(self, branches)  # ordered, labels pairwise distinct


class Rec(_Frozen):
    __slots__ = ("var", "body")

    def __init__(self, var: str, body: Type) -> None:
        Rec.var.__set__(self, var)
        Rec.body.__set__(self, body)


class TVar(_Frozen):
    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        TVar.name.__set__(self, name)


Type = Union[Basic, Arrow, Pair, DataRef, Skip, Semi, Message, Choice, Rec, TVar]

UNIT = Basic("Unit")
INT = Basic("Int")
BOOL = Basic("Bool")
CHAR = Basic("Char")


class Scheme(_Frozen):
    """A rank-1 polymorphic signature: zero or more kinded binders over a type."""

    __slots__ = ("binders", "body")

    def __init__(self, binders: tuple[tuple[str, Kind], ...], body: Type) -> None:
        Scheme.binders.__set__(self, binders)
        Scheme.body.__set__(self, body)


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


def subst(t: Type, mapping: dict[str, Type]) -> Type:
    """Capture-avoiding substitution of type variables. The free variables of
    each type in `mapping` are worked out at most once per call, when a
    binder first needs them, not once per binder. A `rec x` binder that would
    capture is renamed to the first `x_N` (N = 1, 2, ...) that is neither a
    key of `mapping` nor free in the body or in a substituted type, so the
    result depends on the arguments alone."""
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
                taken = set(mapping).union(free_tvars(body), *map(free_tvars, inner.values()))
                renamed = next(n for i in count(1) if (n := f"{var}_{i}") not in taken)
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


class Expr(_Node):
    """Base of the expression classes: a mutable node with one more slot,
    `pos`, the source position, which takes no part in equality or in
    `__match_args__`. An expression is unhashable and prints as
    `Name(pos=..., field=value, ...)`, as a dataclass with a keyword-only
    `pos` does."""

    __slots__ = ("pos",)

    def __repr__(self) -> str:
        return _repr(self, ("pos", *self.__slots__))


# Int is a signed 64-bit integer: the parser rejects a larger literal, and
# the runtime reports an overflow when arithmetic leaves the range.
INT_MAX = 2 ** 63 - 1


def _int(n: int) -> int:
    if -INT_MAX - 1 <= n <= INT_MAX:
        return n
    raise OverflowError("integer overflow")


def _divisor(n: int) -> int:
    if n:
        return n
    raise ZeroDivisionError("division by zero")


_INT2 = Arrow(UNRESTRICTED, INT, Arrow(UNRESTRICTED, INT, INT))
_CMP = Arrow(UNRESTRICTED, INT, Arrow(UNRESTRICTED, INT, BOOL))
_BOOL2 = Arrow(UNRESTRICTED, BOOL, Arrow(UNRESTRICTED, BOOL, BOOL))

# The builtins: each name's type and its meaning, a curried function that
# takes one argument per arrow of the type. `div` and `mod` round toward
# negative infinity. A definition of the same name hides a builtin.
PRELUDE: dict[str, tuple[Type, Callable]] = {
    "+": (_INT2, lambda x: lambda y: _int(x + y)),
    "-": (_INT2, lambda x: lambda y: _int(x - y)),
    "*": (_INT2, lambda x: lambda y: _int(x * y)),
    "div": (_INT2, lambda x: lambda y: _int(x // _divisor(y))),
    "mod": (_INT2, lambda x: lambda y: x % _divisor(y)),
    "==": (_CMP, lambda x: lambda y: x == y),
    "<": (_CMP, lambda x: lambda y: x < y),
    "<=": (_CMP, lambda x: lambda y: x <= y),
    ">": (_CMP, lambda x: lambda y: x > y),
    ">=": (_CMP, lambda x: lambda y: x >= y),
    "&&": (_BOOL2, lambda x: lambda y: x and y),
    "||": (_BOOL2, lambda x: lambda y: x or y),
    "not": (Arrow(UNRESTRICTED, BOOL, BOOL), lambda x: not x),
}


class Lit(Expr):
    __slots__ = ("value",)

    def __init__(self, value: object, *, pos: Optional[Pos] = None) -> None:
        self.value = value  # int | bool | 1-char str | () for unit
        self.pos = pos


class Var(Expr):
    __slots__ = ("name",)

    def __init__(self, name: str, *, pos: Optional[Pos] = None) -> None:
        self.name = name
        self.pos = pos


class Lam(Expr):
    __slots__ = ("mult", "param", "body")

    def __init__(self, mult: str, param: str, body: Expr, *, pos: Optional[Pos] = None) -> None:
        self.mult = mult
        self.param = param
        self.body = body
        self.pos = pos


class App(Expr):
    __slots__ = ("fun", "arg")

    def __init__(self, fun: Expr, arg: Expr, *, pos: Optional[Pos] = None) -> None:
        self.fun = fun
        self.arg = arg
        self.pos = pos


class PairE(Expr):
    __slots__ = ("fst", "snd")

    def __init__(self, fst: Expr, snd: Expr, *, pos: Optional[Pos] = None) -> None:
        self.fst = fst
        self.snd = snd
        self.pos = pos


class LetPair(Expr):
    __slots__ = ("x", "y", "bound", "body")

    def __init__(self, x: str, y: str, bound: Expr, body: Expr, *,
                 pos: Optional[Pos] = None) -> None:
        self.x = x
        self.y = y
        self.bound = bound
        self.body = body
        self.pos = pos


class Let(Expr):
    __slots__ = ("x", "bound", "body")

    def __init__(self, x: str, bound: Expr, body: Expr, *, pos: Optional[Pos] = None) -> None:
        self.x = x
        self.bound = bound
        self.body = body
        self.pos = pos


class Case(Expr):
    __slots__ = ("scrutinee", "branches")

    def __init__(self, scrutinee: Expr, branches: tuple[tuple[str, tuple[str, ...], Expr], ...],
                 *, pos: Optional[Pos] = None) -> None:
        self.scrutinee = scrutinee
        self.branches = branches
        self.pos = pos


class If(Expr):
    __slots__ = ("cond", "then", "els")

    def __init__(self, cond: Expr, then: Expr, els: Expr, *, pos: Optional[Pos] = None) -> None:
        self.cond = cond
        self.then = then
        self.els = els
        self.pos = pos


class TypeApp(Expr):
    __slots__ = ("name", "args")

    def __init__(self, name: str, args: tuple[Type, ...], *, pos: Optional[Pos] = None) -> None:
        self.name = name
        self.args = args
        self.pos = pos


class Fork(Expr):
    __slots__ = ("expr",)

    def __init__(self, expr: Expr, *, pos: Optional[Pos] = None) -> None:
        self.expr = expr
        self.pos = pos


class New(Expr):
    __slots__ = ("session",)

    def __init__(self, session: Type, *, pos: Optional[Pos] = None) -> None:
        self.session = session
        self.pos = pos


class Send(Expr):
    __slots__ = ("expr",)

    def __init__(self, expr: Expr, *, pos: Optional[Pos] = None) -> None:
        self.expr = expr
        self.pos = pos


class Receive(Expr):
    __slots__ = ("expr",)

    def __init__(self, expr: Expr, *, pos: Optional[Pos] = None) -> None:
        self.expr = expr
        self.pos = pos


class Select(Expr):
    __slots__ = ("label", "expr")

    def __init__(self, label: str, expr: Expr, *, pos: Optional[Pos] = None) -> None:
        self.label = label
        self.expr = expr
        self.pos = pos


class Match(Expr):
    __slots__ = ("scrutinee", "branches")

    def __init__(self, scrutinee: Expr, branches: tuple[tuple[str, str, Expr], ...],
                 *, pos: Optional[Pos] = None) -> None:
        self.scrutinee = scrutinee
        self.branches = branches
        self.pos = pos


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
