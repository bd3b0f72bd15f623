"""Algorithmic linear typechecking against explicit signatures.

Each definition is checked in one context, changed in place left to right:
a typing rule returns the type it finds, using a linear binding removes it
from the context, and every binder is checked for consumption when its scope
ends. The arms of `if`, `case` and `match` are checked on copies, and the
first arm's context is kept. Type comparisons go through the equivalence
decision procedure, so anything that differs only by the sequential-composition
laws checks interchangeably. Session operations read the channel type's head
normal form (`syntax.head`): each first action with its continuation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from typing import Iterable

from .diagnostics import TOO_DEEP, Diagnostic, DiagnosticError
from . import equiv
from . import kinds as K
from . import syntax as S
from .dual import DUALOF, dual
from .syntax import (
    Kind, Type, Basic, Arrow, Pair, DataRef, Scheme, SESSION, UNRESTRICTED, LINEAR,
    Expr, Lit, Var, Lam, App, PairE, LetPair, Let, Case, If as IfE, TypeApp,
    Fork, New, Send, Receive, Select, Match,
    INT, BOOL, UNIT,
)


class CheckError(DiagnosticError):
    pass


def _fail(msg: str, pos: S.Pos | None = None) -> CheckError:
    line, col = pos or (0, 0)
    return CheckError(Diagnostic(line, col, msg))


# ---------------------------------------------------------------------------
# Global environment


BUILTINS: dict[str, Scheme] = {name: Scheme((), ty) for name, (ty, _) in S.PRELUDE.items()}


@dataclass
class GlobalEnv:
    schemes: dict[str, Scheme] = field(default_factory=dict)
    ctors: dict[str, tuple[str, tuple[Type, ...]]] = field(default_factory=dict)
    datakinds: K.NameKinds = field(default_factory=dict)
    # each abbreviation's body, and each derived dual name's: one system of equations
    abbrevs: dict[str, Type] = field(default_factory=dict)
    # the kind env of each accepted signature: its binders, or `no_binders`,
    # the one empty env every other type is kinded under. The session's walk
    # keeps one memo scope per env object, so each env is made once.
    kenvs: dict[str, K.KindEnv] = field(default_factory=dict)
    no_binders: K.KindEnv = field(default_factory=dict)
    # kinds and equivalence for the whole program, over the tables above
    session: equiv.Session = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.session = equiv.Session(self.datakinds, self.abbrevs)

    def kind_of(self, kenv: K.KindEnv, t: Type, pos: S.Pos | None = None) -> Kind:
        """The kind of `t`; a kind error is a `CheckError` at `pos`."""
        try:
            return self.session.kind_of(kenv, t)
        except K.KindError as err:
            raise _fail(err.diag.message, pos)

    def equivalent(self, t1: Type, t2: Type, kenv: K.KindEnv) -> bool:
        return self.session.equivalent(t1, t2, kenv)


# ---------------------------------------------------------------------------
# Typing contexts


# What binding a name hid, for `Ctx.drop` to put back: the name, its outer
# binding if it had one, and whether it was a consumed linear name.
Shadowed = tuple[str, tuple[Type, Kind] | None, bool]


class Ctx:
    """The typing context of one definition: the program's `env`, the kind
    env `kenv` of its type variables, and, changed in place as checking runs
    left to right, `bindings` (each name in scope with its type and kind) and
    `consumed` (the linear names used up so far). Binding a name returns what
    it hid and dropping the scope puts that back, so a scope costs O(1). Each
    arm of a branch is checked on a `copy`; the first arm's names are kept."""

    __slots__ = ("env", "kenv", "bindings", "consumed")

    def __init__(self, env: GlobalEnv, kenv: K.KindEnv) -> None:
        self.env, self.kenv = env, kenv
        self.bindings: dict[str, tuple[Type, Kind]] = {}
        self.consumed: set[str] = set()

    def copy(self) -> "Ctx":
        out = Ctx(self.env, self.kenv)
        out.bindings, out.consumed = dict(self.bindings), set(self.consumed)
        return out

    def bind(self, name: str, ty: Type, kind: Kind, pos: S.Pos | None) -> Shadowed:
        outer = self.bindings.get(name)
        if outer is not None and outer[1].mult == LINEAR:
            raise _fail(f"linear variable {name} would be shadowed before it is used", pos)
        hidden = (name, outer, name in self.consumed)
        self.bindings[name] = (ty, kind)
        self.consumed.discard(name)
        return hidden

    def use(self, name: str, pos: S.Pos | None) -> Type | None:
        """The type of `name`, used up if it is linear; None if `name` is
        not bound here."""
        entry = self.bindings.get(name)
        if entry is None:
            if name in self.consumed:
                raise _fail(f"linear variable {name} is used more than once", pos)
            return None
        ty, kind = entry
        if kind.mult == LINEAR:
            del self.bindings[name]
            self.consumed.add(name)
        return ty

    def drop(self, scope: list[Shadowed], pos: S.Pos | None) -> None:
        """Leave the scope that bound `scope`, in binding order: linear
        leftovers are errors, and whatever the names hid comes back."""
        for name, outer, was_consumed in scope:
            entry = self.bindings.pop(name, None)
            if entry is not None and entry[1].mult == LINEAR:
                raise _fail(f"linear variable {name} is not used", pos)
            self.consumed.discard(name)
            if outer is not None:
                self.bindings[name] = outer
            elif was_consumed:
                self.consumed.add(name)

    def linear_names(self) -> frozenset[str]:
        return frozenset(n for n, (_, k) in self.bindings.items() if k.mult == LINEAR)


# ---------------------------------------------------------------------------
# Expression synthesis


def synth(ctx: Ctx, e: Expr) -> Type:
    cls = e.__class__
    if cls is Var:
        name = e.name
        ty = ctx.use(name, e.pos)
        if ty is not None:
            return ty
        scheme = ctx.env.schemes.get(name)
        if scheme is None:
            raise _fail(f"unbound variable {name}", e.pos)
        if scheme.binders:
            raise _fail(f"{name} is polymorphic and needs a type application", e.pos)
        return scheme.body

    env, kenv = ctx.env, ctx.kenv  # past the commonest case, a bound variable
    if cls is App:
        fun, arg = e.fun, e.arg
        if isinstance(fun, Send):
            tv = synth(ctx, fun.expr)
            if not isinstance(tv, Basic):
                raise _fail(f"send carries basic values only, got {S.pretty(tv)}", e.pos)
            tc = synth(ctx, arg)
            (payload, cont), = _actions(env, tc, S.OUT, e.pos).items()
            if payload != tv.name:
                raise _fail(f"channel expects !{payload}, got {tv.name}", e.pos)
            return cont
        tf = synth(ctx, fun)
        if not isinstance(tf, Arrow):
            raise _fail(f"applying a non-function of type {S.pretty(tf)}", e.pos)
        ta = synth(ctx, arg)
        if not env.equivalent(ta, tf.dom, kenv):
            raise _fail(
                f"argument type {S.pretty(ta)} does not match parameter type {S.pretty(tf.dom)}",
                e.pos)
        return tf.cod

    if cls is Lit:
        return _LITERALS.get(e.value.__class__, UNIT)  # `()` is the unit literal

    if cls is Receive:
        tc = synth(ctx, e.expr)
        (payload, cont), = _actions(env, tc, S.IN, e.pos).items()
        return Pair(Basic(payload), cont)

    if cls is Let or cls is LetPair:
        return _let_spine(ctx, e)

    if cls is Select:
        label = e.label
        tc = synth(ctx, e.expr)
        offered = _actions(env, tc, S.INTERNAL, e.pos)
        if label not in offered:
            raise _fail(f"label {label} is not offered by {S.pretty(tc)}", e.pos)
        return offered[label]

    if cls is TypeApp:
        name, args = e.name, e.args
        if name in ctx.bindings:
            raise _fail(f"{name} is not polymorphic", e.pos)
        if name not in env.schemes:
            raise _fail(f"unbound variable {name}", e.pos)
        scheme = env.schemes[name]
        if not scheme.binders:
            raise _fail(f"{name} is not polymorphic", e.pos)
        if len(args) != len(scheme.binders):
            raise _fail(f"{name} expects {len(scheme.binders)} type arguments, got {len(args)}", e.pos)
        mapping: dict[str, Type] = {}
        for (bname, bkind), arg in zip(scheme.binders, args):
            try:
                akind = env.kind_of(kenv, arg)
            except CheckError as err:
                raise _fail(f"bad type argument for {bname}: {err.diag.message}", e.pos)
            if not K.subkind(akind, bkind):
                raise _fail(
                    f"type argument {S.pretty(arg)} has kind {akind}, not a subkind of {bkind}", e.pos)
            mapping[bname] = arg
        return S.subst(scheme.body, mapping)

    if cls is New:
        session = e.session
        kind = env.kind_of(kenv, session, e.pos)
        if kind.prekind != SESSION:
            raise _fail(f"new requires a session type, got {S.pretty(session)} : {kind}", e.pos)
        free = sorted(S.free_tvars(session))
        if free:
            raise _fail(f"new cannot take the dual of type variable {free[0]}", e.pos)
        return Pair(session, dual(session))

    if cls is Fork:
        ti = synth(ctx, e.expr)
        kind = env.kind_of(kenv, ti, e.pos)
        if kind.mult != UNRESTRICTED:
            raise _fail(
                f"forked expression has linear type {S.pretty(ti)}; its value would be lost",
                e.pos)
        return UNIT

    if cls is PairE:
        t1 = synth(ctx, e.fst)
        return Pair(t1, synth(ctx, e.snd))

    if cls is Match:
        branches = e.branches
        tc = synth(ctx, e.scrutinee)
        offered = _actions(env, tc, S.EXTERNAL, e.pos)
        _check_coverage({lab for lab, _, _ in branches}, set(offered),
                        "match branches do not cover the choice", e.pos)
        return _branches(ctx, [([(binder, offered[lab])], body) for lab, binder, body in branches],
                         e.pos)

    if cls is IfE:
        tc = synth(ctx, e.cond)
        if not env.equivalent(tc, BOOL, kenv):
            raise _fail(f"if condition must be Bool, got {S.pretty(tc)}", e.pos)
        return _branches(ctx, [([], e.then), ([], e.els)], e.pos)

    if cls is Case:
        ts = synth(ctx, e.scrutinee)
        if not isinstance(ts, DataRef) or ts.name in env.abbrevs:
            raise _fail(f"case needs a datatype value, got {S.pretty(ts)}", e.pos)
        all_ctors = {c: fields for c, (d, fields) in env.ctors.items() if d == ts.name}
        _check_coverage({c for c, _, _ in e.branches}, set(all_ctors),
                        f"case branches do not cover {ts.name}", e.pos)

        def arms():  # lazily: a pattern's arity is checked after the arms before it
            for ctor, params, body in e.branches:
                fields = all_ctors[ctor]
                if len(params) != len(fields):
                    raise _fail(f"constructor {ctor} has {len(fields)} fields, "
                                f"pattern binds {len(params)}", e.pos)
                yield list(zip(params, fields)), body
        return _branches(ctx, arms(), e.pos)

    if cls is Lam:
        raise _fail("cannot synthesize the type of an unannotated function", e.pos)

    if cls is Send:
        raise _fail("send must be applied to a value and then a channel", e.pos)

    raise _fail(f"cannot type expression {e!r}", e.pos)


def _let_spine(ctx: Ctx, e: Expr, expected: Type | None = None) -> Type:
    """A chain of `let`s, walked in a loop: each bound expression in the
    context its predecessors built, then the final body, synthesized or
    checked against `expected`, then the scopes dropped innermost first."""
    scopes: list[tuple[list[Shadowed], S.Pos | None]] = []
    while True:
        if isinstance(e, Let):
            binders = [(e.x, synth(ctx, e.bound))]
        elif isinstance(e, LetPair):
            tb = synth(ctx, e.bound)
            if not isinstance(tb, Pair):
                raise _fail(f"let x, y = ... needs a pair, got {S.pretty(tb)}", e.pos)
            binders = [(e.x, tb.fst), (e.y, tb.snd)]
        else:
            break
        scopes.append((_bind_all(ctx, binders, e.pos), e.pos))
        e = e.body
    if expected is None:
        expected = synth(ctx, e)
    else:
        check_against(ctx, e, expected)
    for scope, pos in reversed(scopes):
        ctx.drop(scope, pos)
    return expected


_LITERALS = {bool: BOOL, int: INT, str: S.CHAR}

_NO_ACTION = {S.OUT: "has no output action", S.IN: "has no input action",
              S.INTERNAL: "offers no internal choice", S.EXTERNAL: "offers no external choice"}


def _actions(env: GlobalEnv, t: Type, tag: str, pos: S.Pos | None) -> dict[str, Type]:
    """The first actions of a channel type that carry `tag` (a polarity or a
    choice view), each argument mapped to its continuation; a diagnostic
    when the type starts with anything else."""
    try:
        head = S.head(t, env.abbrevs)
    except S.Unfolding:
        raise  # a channel type, reported by `check_program`
    except S.NoHead:
        raise _fail(f"expected a channel, got {S.pretty(t)}", pos)
    actions = {a.arg: cont for a, cont in head.items() if a.tag == tag}
    if not actions:
        raise _fail(f"channel of type {S.pretty(t)} {_NO_ACTION[tag]}", pos)
    return actions


def _bind_all(ctx: Ctx, pairs: list[tuple[str, Type]], pos: S.Pos | None) -> list[Shadowed]:
    """Bind pattern names in `ctx`, returning the scope for `Ctx.drop`. A
    name may be bound once, and a wildcard must be droppable on the spot."""
    names = [name for name, _ in pairs if name != "_"]
    if len(set(names)) < len(names):
        raise _fail(f"duplicate binder {next(n for n in names if names.count(n) > 1)}", pos)
    scope: list[Shadowed] = []
    for name, ty in pairs:
        kind = ctx.env.kind_of(ctx.kenv, ty, pos)
        if name == "_":
            if kind.mult != UNRESTRICTED:
                raise _fail(f"cannot discard a value of linear type {S.pretty(ty)} : {kind}", pos)
            continue
        scope.append(ctx.bind(name, ty, kind, pos))
    return scope


def _check_coverage(covered: set[str], expected: set[str], what: str, pos: S.Pos | None) -> None:
    """Branches name exactly the expected labels, or `what` is reported with
    the missing ones, else the unknown ones."""
    if covered != expected:
        missing = sorted(expected - covered)
        extra = sorted(covered - expected)
        detail = f"missing {', '.join(missing)}" if missing else f"unknown {', '.join(extra)}"
        raise _fail(f"{what}: {detail}", pos)


def _branches(ctx: Ctx, arms: Iterable[tuple[list[tuple[str, Type]], Expr]],
              pos: S.Pos | None) -> Type:
    """Check each arm, its pattern's names bound, on its own copy of `ctx`.
    Once all are checked, each arm in turn must consume the linear names the
    first arm consumes and have a type equivalent to the first arm's type,
    which is the result; the first arm's names become `ctx`'s."""
    linear = ctx.linear_names()
    outs = []
    for binders, body in arms:
        arm = ctx.copy()
        scope = _bind_all(arm, binders, pos)
        ty = synth(arm, body)
        arm.drop(scope, pos)
        outs.append((ty, arm, linear - arm.linear_names()))
    ty0, first, used0 = outs[0]
    for i, (ty, _, used) in enumerate(outs[1:], start=2):
        if used != used0:
            diff = sorted(used ^ used0)
            raise _fail(
                f"branches disagree on consuming linear variables: {', '.join(diff)} "
                f"(branch {i} vs branch 1)", pos)
        if not ctx.env.equivalent(ty, ty0, ctx.kenv):
            raise _fail(
                f"branch {i} has type {S.pretty(ty)}, not equivalent to {S.pretty(ty0)}", pos)
    ctx.bindings, ctx.consumed = first.bindings, first.consumed
    return ty0


def check_against(ctx: Ctx, e: Expr, t: Type) -> None:
    """Synthesize and compare by equivalence. Functions cannot be synthesized
    without an annotation, so a function (a lambda, or a definition's
    parameters) checked against an arrow pushes the arrow inward instead;
    under `->` it must not consume a linear variable from outside. A `let`
    chain checks its body against the type."""
    if isinstance(e, (Let, LetPair)):
        _let_spine(ctx, e, t)
    elif isinstance(e, Lam):
        if not isinstance(t, Arrow):
            raise _fail(f"expected type {S.pretty(t)}, found a function", e.pos)
        if e.mult == LINEAR and t.mult == UNRESTRICTED:
            raise _fail("a one-shot function cannot be used where an unrestricted one is expected",
                        e.pos)
        linear_before = ctx.linear_names()
        scope = _bind_all(ctx, [(e.param, t.dom)], e.pos)
        check_against(ctx, e.body, t.cod)
        ctx.drop(scope, e.pos)
        if t.mult == UNRESTRICTED:
            captured = sorted(linear_before - ctx.linear_names())
            if captured:
                raise _fail(
                    f"unrestricted function consumes linear variables: {', '.join(captured)}",
                    e.pos)
    else:
        ty = synth(ctx, e)
        if not ctx.env.equivalent(ty, t, ctx.kenv):
            raise _fail(f"expected type {S.pretty(t)}, found {S.pretty(ty)}", e.pos)


# ---------------------------------------------------------------------------
# Programs


def _declare_names(env: GlobalEnv, p: S.Program) -> dict[str, str]:
    """Fill `env`'s tables of type names, returning the error of each rejected
    abbreviation. The kinds are one least fixed point: an abbreviation kinds
    as its body, from SU, and a datatype as the tuple of its fields, from TU,
    and a name is kinded again when a name it refers to changes. Kinds only
    rise and kind errors persist as they do, so a failing abbreviation is
    rejected for good (kind None), and so is each one that refers to it.
    Contractivity needs the final kinds, so it comes last; each name's last
    walk already saw them, since a kind change walks its users again. A
    datatype nested too deep to walk is rejected too, and its error is
    returned alongside the abbreviations' errors."""
    kinds = env.datakinds
    bodies = {name: decl.body for name, decl in p.abbrevs.items()}
    types: dict[str, Type] = {
        name: reduce(Pair, [f for fields in decl.ctors.values() for f in fields], UNIT)
        for name, decl in p.datatypes.items()}
    types.update(bodies)
    users: dict[str, list[str]] = {}
    errors: dict[str, str] = {}
    for name, t in types.items():
        try:
            refs = S.type_names(t)
        except RecursionError:
            errors[name] = TOO_DEEP
            continue
        for ref in refs:
            users.setdefault(ref, []).append(name)
    kinds.update(dict.fromkeys(p.datatypes, S.TU) | dict.fromkeys(bodies, S.SU)
                 | dict.fromkeys(errors))
    walked: dict[str, K.Kinding] = {}  # each name's last walk

    def settle(work: list[str]) -> None:
        while work:
            name = work.pop()
            if kinds[name] is None:
                continue
            try:
                new, error, _, _ = walked[name] = K.kinding({}, types[name], kinds)
            except K.KindError as err:
                new, error = None, err.diag.message
            if error is None and name in bodies and new.prekind != SESSION:
                error = f"type abbreviation {name} must be a session type"
            if error is not None:
                if name not in bodies and error != TOO_DEEP:
                    continue  # a datatype's fields are reported with its constructors
                errors[name], new = error, None
            if new != kinds[name]:
                kinds[name] = new
                work.extend(users.get(name, ()))

    settle(list(types))
    bodies = {name: body for name, body in bodies.items() if kinds[name] is not None}
    # a name must reach an action before it comes back to itself: mark the
    # names whose bodies refer, before any action, only to marked names
    refs: dict[str, set[str]] = {}
    loops: set[str] = set()  # bodies with an unguarded rec
    for name in bodies:
        _, _, unguarded, contractive = walked[name]
        refs[name] = {r.name for r in unguarded if isinstance(r, DataRef)}
        if not contractive:
            loops.add(name)
    productive: set[str] = set()
    work = list(bodies)
    while work:
        name = work.pop()
        if name in bodies and name not in productive and refs[name] <= productive:
            productive.add(name)
            work.extend(users.get(name, ()))
    looping = [name for name in bodies
               if name not in productive or name in loops]
    for name in looping:
        errors[name], kinds[name] = f"type abbreviation {name} is not contractive", None
    settle([user for name in looping for user in users.get(name, ())])
    for name, body in bodies.items():
        if kinds[name] is not None:
            env.abbrevs[name], env.abbrevs[DUALOF + name] = body, dual(body)
            kinds[DUALOF + name] = kinds[name]
    return errors


def build_global_env(p: S.Program, diags: list[Diagnostic]) -> GlobalEnv:
    env = GlobalEnv(schemes=dict(BUILTINS))
    errors = _declare_names(env, p)
    diags.extend(Diagnostic(*decl.pos, errors[name])
                 for name, decl in p.abbrevs.items() if name in errors)

    # constructors become curried functions; a partial application that holds
    # a linear field is itself linear, so every arrow after that field is -o
    for dname, decl in p.datatypes.items():
        if dname in errors:
            diags.append(Diagnostic(*decl.pos, errors[dname]))
            continue
        for cname, fields in decl.ctors.items():
            if cname in env.ctors:
                diags.append(Diagnostic(decl.pos[0], decl.pos[1],
                                        f"constructor {cname} declared twice"))
                continue
            try:
                mults = [env.kind_of(env.no_binders, f).mult for f in fields]
            except CheckError as err:
                diags.append(Diagnostic(decl.pos[0], decl.pos[1], err.diag.message))
                continue
            ty: Type = DataRef(dname)
            for i in reversed(range(len(fields))):
                ty = Arrow(LINEAR if LINEAR in mults[:i] else UNRESTRICTED, fields[i], ty)
            env.ctors[cname] = (dname, fields)
            env.schemes[cname] = Scheme((), ty)

    # signatures: kind-check under their binders
    for name, sig in p.signatures.items():
        kenv = dict(sig.scheme.binders) if sig.scheme.binders else env.no_binders
        try:
            env.kind_of(kenv, sig.scheme.body)
        except CheckError as err:
            diags.append(Diagnostic(sig.pos[0], sig.pos[1], err.diag.message))
            continue
        env.schemes[name] = sig.scheme
        env.kenvs[name] = kenv
    return env


def check_program(p: S.Program) -> list[Diagnostic]:
    """Kind-check all declarations and type-check every definition against its
    signature. All signatures are in scope everywhere, so definitions may be
    mutually recursive. Diagnostics accumulate per definition."""
    diags: list[Diagnostic] = []
    env = build_global_env(p, diags)

    for name, d in p.definitions.items():
        sig = p.signatures.get(name)
        if sig is None:
            diags.append(Diagnostic(d.pos[0], d.pos[1], f"definition of {name} has no signature"))
            continue
        if name not in env.schemes:
            continue  # the signature itself was rejected
        # a builtin's or constructor's scheme, which stands when the
        # signature of its name was rejected, has no binders
        scheme, kenv = env.schemes[name], env.kenvs.get(name, env.no_binders)
        try:
            # a value that is not a function is evaluated once and shared
            if not isinstance(d.body, Lam) and env.kind_of(kenv, scheme.body).mult == LINEAR:
                raise _fail(f"top-level value {name} has linear type {S.pretty(scheme.body)}; "
                            "every use would share it", d.pos)
            check_against(Ctx(env, kenv), d.body, scheme.body)
        except DiagnosticError as err:  # a CheckError, or a KindError of a query
            line, col = (err.diag.line, err.diag.col) if err.diag.line else d.pos
            diags.append(Diagnostic(line, col, f"in {name}: {err.diag.message}"))
        except equiv.Inconclusive:
            diags.append(Diagnostic(d.pos[0], d.pos[1],
                                    f"in {name}: type equivalence check was inconclusive"))
        except S.Unfolding as err:
            diags.append(Diagnostic(d.pos[0], d.pos[1], (
                f"in {name}: type {S.pretty(err.start)} unfolds more than "
                f"{S.MAX_UNFOLDINGS} times before its first action")))
        except RecursionError:
            # `synth` recurses once per application, as in a long operator chain
            diags.append(Diagnostic(d.pos[0], d.pos[1], f"in {name}: {TOO_DEEP}"))

    main, scheme = p.definitions.get("main"), env.schemes.get("main")
    if main is None:
        diags.append(Diagnostic(1, 1, "missing main"))
    elif scheme is not None:  # kinded with the signatures
        problem = ("main cannot be polymorphic" if scheme.binders else
                   "main must have a non-function type"
                   if isinstance(scheme.body, Arrow) else
                   "main must have a non-session type"
                   if env.kind_of(env.no_binders, scheme.body).prekind == SESSION else None)
        if problem:
            diags.append(Diagnostic(main.pos[0], main.pos[1], problem))
    return diags


def dump_types(p: S.Program, diags: list[Diagnostic] | None = None) -> str:
    """One line per top-level name with its kind-checked scheme; the
    declaration errors that leave names out go to `diags`."""
    env = build_global_env(p, [] if diags is None else diags)
    return "\n".join(f"{name} : {S.pretty_scheme(env.schemes[name])}"
                     for name in p.signatures if name in env.schemes)
