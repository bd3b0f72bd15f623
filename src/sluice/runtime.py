"""Call-by-value interpreter with threads and buffered channels.

Each sluice thread is the state of a CEK-style machine: the expression to
evaluate (or the value just computed), its environment, and a continuation
stack of frames. `run` drives every thread on the calling OS thread, so tail
calls and deep recursion cost heap, not Python stack.

A channel is two one-place slots; each end holds the pair crossed, so one
end's write slot is the other end's read slot. Putting into a full slot and
taking from an empty one block, which gives the asynchronous
buffer-of-size-one semantics: a single write/read crossing cannot deadlock,
a doubled one can.

The typechecker is the safety front-end; the runtime moves untyped payloads
and never re-checks. Select/match labels travel in-band through the same
slots as data, wrapped in a distinct tag. Every channel action (a send, a
receive, a select, and the receive a match starts with) waits in one `_OP`
frame for its channel end, and names the action's keyword as its site. A
builtin is the curried Python function `syntax.PRELUDE` gives its name; the
builtins and the constructors are bound, as top-level values, when a run
starts.

A scheduler seeded with `random.Random(seed)` picks the next thread at every
channel operation, every fork and every time slice, so the seed fixes the
whole interleaving. A thread parked on a slot is not runnable. As soon as
main is unfinished and no thread can move, the run aborts with a report of
each thread's blocking site.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from types import FunctionType

from . import syntax as S
from .lexer import ESCAPES
from .syntax import (
    Expr, Lit, Var, Lam, App, PairE, LetPair, Let, Case, If as IfE, TypeApp,
    Fork, New, Send, Receive, Select, Match,
)

# Machine steps a thread takes before the scheduler picks again, so that a
# thread which never communicates cannot starve the others.
# `tests/test_runtime.py::test_spinning_thread_does_not_starve_main` pins
# it: with a slice of 10^8 steps it ran for minutes without finishing. The
# value trades fairness against scheduling cost. Measured over 10 seeds on
# a 2-CPU container, that test's program runs in 0.16 ms at 1,000 steps,
# 2.8 ms at 10^4 and 17 ms at 10^5, while `sumTo 20000` runs in 1.0 s at a
# slice of 1, 0.24 s at 10 and 0.15-0.19 s from 100 steps up.
_SLICE = 1000

# Continuation frames one thread may hold. Runaway non-tail recursion ends
# here with a runtime error instead of exhausting the host's memory. A
# pending `n + sumTo (n - 1)` is one frame of 249 bytes (tracemalloc, Python
# 3.11), so the cap is about 250 MB. The deepest stack of any test or example
# program is 20,003 frames (`sumTo 20000`, `build 10000`), 50 times less.
_MAX_FRAMES = 1_000_000

# each character a literal spells with an escape, to its escape
_ESCAPED = {char: "\\" + letter for letter, char in ESCAPES.items()}


class RuntimeAbort(Exception):
    """A runtime error in the evaluated program (overflow, division by zero)."""


class WatchdogAbort(Exception):
    """Main is unfinished and every live thread is blocked on a slot."""

    def __init__(self, report: list[str]):
        super().__init__("deadlock: " + "; ".join(report))
        self.report = report


# ---------------------------------------------------------------------------
# Channels

_EMPTY = object()


class Slot:
    """A one-place buffer and the threads parked until it changes. The
    scheduler puts only into an empty slot and takes only from a full one."""

    def __init__(self) -> None:
        self.value: object = _EMPTY
        self.parked: list[_Thread] = []

    def put(self, v: object) -> None:
        self.value = v

    def take(self) -> object:
        v, self.value = self.value, _EMPTY
        return v


@dataclass
class ChannelEnd:
    read: Slot
    write: Slot


def new_channel() -> tuple[ChannelEnd, ChannelEnd]:
    """Two fresh slots, handed out crossed: what one end writes the other reads."""
    s1, s2 = Slot(), Slot()
    return ChannelEnd(s1, s2), ChannelEnd(s2, s1)


def channel_send(v: object, end: ChannelEnd) -> ChannelEnd:
    end.write.put(v)
    return end


def channel_receive(end: ChannelEnd) -> tuple[object, ChannelEnd]:
    return end.read.take(), end


# ---------------------------------------------------------------------------
# Values


@dataclass
class Closure:
    param: str
    body: Expr
    env: dict[str, object]


@dataclass
class CtorVal:
    tag: str
    args: tuple
    arity: int


@dataclass(frozen=True)
class LabelVal:
    name: str


def pretty_value(v: object) -> str:
    """Source-like text of a value. Pairs and constructor arguments are walked
    with an explicit stack, so a deep value costs heap, not Python stack."""
    out: list[str] = []
    # (value, level) to print, or (text, None) to emit as is
    todo: list[tuple[object, int | None]] = [(v, 0)]
    while todo:
        v, level = todo.pop()
        if level is None:
            out.append(v)
        elif isinstance(v, tuple) and v:
            out.append("(")
            todo += [(")", None), (v[1], 0), (", ", None), (v[0], 0)]
        elif isinstance(v, CtorVal) and v.args:
            parens = level > 0
            out.append(f"({v.tag}" if parens else v.tag)
            todo.append((")" if parens else "", None))
            for a in reversed(v.args):
                todo += [(a, 1), (" ", None)]
        else:
            out.append(_atom(v))
    return "".join(out)


def _atom(v: object) -> str:
    if isinstance(v, bool):
        return "True" if v else "False"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, str):
        return f"'{_ESCAPED.get(v, v)}'"
    if isinstance(v, tuple):
        return "()"
    if isinstance(v, CtorVal):
        return v.tag
    if isinstance(v, ChannelEnd):
        return "<channel>"
    if isinstance(v, (Closure, FunctionType)):
        return "<fun>"
    if isinstance(v, LabelVal):
        return f"<label {v.name}>"
    return repr(v)


# ---------------------------------------------------------------------------
# Evaluation

# Continuation frames are tuples tagged by their first field:
#   (_ARG, arg, env)             evaluate the argument, then apply the function
#   (_CALL, fun)                 apply `fun` to the value
#   (_PAIR, snd, env)            evaluate the second component
#   (_PAIRED, fst)               build the pair
#   (_LET, x, body, env)         bind x to the value, evaluate body
#   (_LETPAIR, x, y, body, env)  bind the pair's components, evaluate body
#   (_CASE, branches, env)       dispatch on the constructor
#   (_IF, then, els, env)        dispatch on the boolean
#   (_SEND, site)                the payload of the Send `site`: take the
#                                channel operand from the _ARG frame beneath
#   (_OP, message, site)         the value is a channel end: wait to send the
#                                message on it, or to receive if it is _EMPTY
#   (_MATCH, branches, env)      dispatch on the received label
#   (_GLOBAL, name)              memoize a top-level value
(_ARG, _CALL, _PAIR, _PAIRED, _LET, _LETPAIR, _CASE, _IF, _SEND, _OP, _MATCH,
 _GLOBAL) = range(12)


class _Thread:
    """One sluice thread: `expr` to evaluate in `env` or, when `expr` is
    None, `value` to return to the frames on `kont`. `op` is the channel
    operation it waits to perform: (end, message, site), where the message
    is _EMPTY for a receive."""

    __slots__ = ("expr", "env", "value", "kont", "op")

    def __init__(self, expr: Expr, env: dict[str, object]):
        self.expr: Expr | None = expr
        self.env = env
        self.value: object = None
        self.kont: list[tuple] = []
        self.op: tuple[ChannelEnd, object, Expr] | None = None


class _Machine:
    """One run: its threads, the seeded scheduler and the top-level values:
    the builtins, the constructors and, once evaluated, the definitions."""

    def __init__(self, program: S.Program, seed: int | None):
        self.program = program
        self.globals: dict[str, object] = {
            name: f for name, (_, f) in S.PRELUDE.items() if name not in program.definitions}
        for decl in program.datatypes.values():
            for c, fields in decl.ctors.items():
                self.globals.setdefault(c, CtorVal(c, (), len(fields)))
        self.rng = random.Random(seed)
        self.runnable: list[_Thread] = []
        self.parked: set[_Thread] = set()

    def run(self, main: _Thread) -> object:
        runnable, rng = self.runnable, self.rng
        runnable.append(main)
        while runnable:
            i = rng.randrange(len(runnable))
            th = runnable[i]
            runnable[i] = runnable[-1]
            runnable.pop()
            if th.op is not None and not self._communicate(th):
                continue
            if not self._advance(th):
                runnable.append(th)
            elif th is main:
                return th.value
        raise WatchdogAbort(sorted({_site(th.op[2]) for th in self.parked}))

    def _communicate(self, th: _Thread) -> bool:
        """Perform th's channel operation and wake the threads parked on its
        slot; or, if the slot is not ready, park th there and return False."""
        end, message, _ = th.op
        sending = message is not _EMPTY
        slot = end.write if sending else end.read
        if (slot.value is _EMPTY) != sending:
            slot.parked.append(th)
            self.parked.add(th)
            return False
        th.op = None
        th.value = channel_send(message, end) if sending else channel_receive(end)
        if slot.parked:
            self.parked.difference_update(slot.parked)
            self.runnable += slot.parked
            slot.parked = []
        return True

    def _advance(self, th: _Thread) -> bool:
        """Run th until it forks, reaches a channel operation or has taken
        _SLICE steps; return True if it finished instead."""
        e, env, v, k = th.expr, th.env, th.value, th.kont
        for _ in range(_SLICE):
            if e is not None:
                cls = e.__class__
                if cls is Var or cls is TypeApp:
                    name = e.name
                    if name in env:
                        v, e = env[name], None
                    elif name in self.globals:
                        v, e = self.globals[name], None
                    else:
                        d = self.program.definitions.get(name)
                        if d is None:
                            raise RuntimeAbort(f"unbound name {name}")
                        k.append((_GLOBAL, name))
                        e, env = d.body, {}
                elif cls is App:
                    k.append((_ARG, e.arg, env))
                    e = e.fun
                elif cls is Lit:
                    v, e = e.value, None
                elif cls is Let:
                    k.append((_LET, e.x, e.body, env))
                    e = e.bound
                elif cls is LetPair:
                    k.append((_LETPAIR, e.x, e.y, e.body, env))
                    e = e.bound
                elif cls is Lam:
                    v, e = Closure(e.param, e.body, env), None
                elif cls is IfE:
                    k.append((_IF, e.then, e.els, env))
                    e = e.cond
                elif cls is Case:
                    k.append((_CASE, e.branches, env))
                    e = e.scrutinee
                elif cls is PairE:
                    k.append((_PAIR, e.snd, env))
                    e = e.fst
                elif cls is Send:
                    k.append((_SEND, e))
                    e = e.expr
                elif cls is Receive:
                    k.append((_OP, _EMPTY, e))
                    e = e.expr
                elif cls is Select:
                    k.append((_OP, LabelVal(e.label), e))
                    e = e.expr
                elif cls is Match:
                    k.append((_MATCH, e.branches, env))
                    k.append((_OP, _EMPTY, e))
                    e = e.scrutinee
                elif cls is New:
                    v, e = new_channel(), None
                elif cls is Fork:
                    self.runnable.append(_Thread(e.expr, env))
                    v, e = (), None
                    break
                else:
                    raise RuntimeAbort(f"cannot evaluate {e!r}")
                continue
            if not k:
                th.expr, th.value = None, v
                return True
            frame = k.pop()
            tag = frame[0]
            if tag == _ARG:
                _, e, env = frame
                k.append((_CALL, v))
            elif tag == _CALL:
                f = frame[1]
                cls = f.__class__
                if cls is Closure:
                    env = dict(f.env)
                    env[f.param] = v
                    e = f.body
                elif cls is FunctionType:
                    try:
                        v = f(v)
                    except ArithmeticError as exc:
                        raise RuntimeAbort(str(exc)) from None
                elif cls is CtorVal:
                    if len(f.args) >= f.arity:
                        raise RuntimeAbort(f"constructor {f.tag} applied to too many arguments")
                    v = CtorVal(f.tag, f.args + (v,), f.arity)
                else:
                    raise RuntimeAbort(f"applying a non-function value {pretty_value(f)}")
            elif tag == _LET:
                _, x, e, env = frame
                if x != "_":
                    env = dict(env)
                    env[x] = v
            elif tag == _LETPAIR:
                _, x, y, e, env = frame
                env = dict(env)
                if x != "_":
                    env[x] = v[0]
                if y != "_":
                    env[y] = v[1]
            elif tag == _IF:
                _, then, els, env = frame
                e = then if v else els
            elif tag == _CASE:
                _, branches, env = frame
                for ctor, params, e in branches:
                    if ctor == v.tag:
                        break
                else:
                    raise RuntimeAbort(f"no case branch for {v.tag}")
                env = dict(env)
                for p, a in zip(params, v.args):
                    if p != "_":
                        env[p] = a
            elif tag == _OP:
                th.op = (v, frame[1], frame[2])
                break
            elif tag == _MATCH:
                _, branches, env = frame
                label, end = v
                if not isinstance(label, LabelVal):
                    raise RuntimeAbort("protocol mismatch: expected a label")
                for name, binder, e in branches:
                    if name == label.name:
                        break
                else:
                    raise RuntimeAbort(f"no match branch for label {label.name}")
                if binder != "_":
                    env = dict(env)
                    env[binder] = end
            elif tag == _PAIR:
                _, e, env = frame
                k.append((_PAIRED, v))
            elif tag == _PAIRED:
                v = (frame[1], v)
            elif tag == _SEND:
                if not k or k[-1][0] != _ARG:
                    raise RuntimeAbort("send must be applied to a value and then a channel")
                _, e, env = k.pop()
                k.append((_OP, v, frame[1]))
            else:
                self.globals[frame[1]] = v
        if len(k) > _MAX_FRAMES:
            raise RuntimeAbort(f"stack overflow: more than {_MAX_FRAMES} pending frames")
        th.expr, th.env, th.value = e, env, v
        return False


def _site(e: Expr) -> str:
    match e:
        case Receive():
            op = "receive"
        case Match():
            op = "match"
        case Select(label, _):
            op = f"select {label}"
        case _:
            op = "send"
    if e.pos:
        return f"{op} at line {e.pos[0]}"
    return op


def run(program: S.Program, *, seed: int | None = None, quiescence: float = 2.0) -> object:
    """Evaluate `main` under call-by-value and return its value. The program
    must already have passed the checker. The seed fixes the interleaving;
    forked threads are not awaited. Raises WatchdogAbort as soon as main is
    unfinished and no thread can move, and RuntimeAbort on a runtime error in
    any thread. `quiescence` is accepted for compatibility and ignored: there
    is no waiting left for it to time."""
    main = program.definitions.get("main")
    if main is None:
        raise RuntimeAbort("missing main")
    return _Machine(program, seed).run(_Thread(main.body, {}))
