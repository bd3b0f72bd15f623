"""Algorithmic linear typechecking against explicit signatures.

Contexts thread left to right through subexpressions; using a linear binding
removes it from the residual context, and every binder is checked for
consumption when its scope ends. Type comparisons go through the equivalence
decision procedure, so anything that differs only by the sequential-composition
laws checks interchangeably. Session operations read the channel type's head
normal form (`syntax.head`): each first action with its continuation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

from .diagnostics import Diagnostic, DiagnosticError
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


def _arrow(*tys: Type) -> Type:
    out = tys[-1]
    for t in reversed(tys[:-1]):
        out = Arrow(UNRESTRICTED, t, out)
    return out


BUILTINS: dict[str, Scheme] = {
    "+": Scheme((), _arrow(INT, INT, INT)),
    "-": Scheme((), _arrow(INT, INT, INT)),
    "*": Scheme((), _arrow(INT, INT, INT)),
    "div": Scheme((), _arrow(INT, INT, INT)),
    "mod": Scheme((), _arrow(INT, INT, INT)),
    "==": Scheme((), _arrow(INT, INT, BOOL)),
    "<": Scheme((), _arrow(INT, INT, BOOL)),
    "<=": Scheme((), _arrow(INT, INT, BOOL)),
    ">": Scheme((), _arrow(INT, INT, BOOL)),
    ">=": Scheme((), _arrow(INT, INT, BOOL)),
    "&&": Scheme((), _arrow(BOOL, BOOL, BOOL)),
    "||": Scheme((), _arrow(BOOL, BOOL, BOOL)),
    "not": Scheme((), _arrow(BOOL, BOOL)),
}


@dataclass
class GlobalEnv:
    schemes: dict[str, Scheme] = field(default_factory=dict)
    ctors: dict[str, tuple[str, tuple[Type, ...]]] = field(default_factory=dict)
    datakinds: K.NameKinds = field(default_factory=dict)
    # each abbreviation's body, and each derived dual name's: one system of equations
    abbrevs: dict[str, Type] = field(default_factory=dict)
    # kinds and equivalence for the whole program, over the two tables above
    session: equiv.Session = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.session = equiv.Session(self.datakinds, self.abbrevs)

    def kind_of(self, kenv: K.KindEnv, t: Type) -> Kind:
        return self.session.kind_of(kenv, t)

    def equivalent(self, t1: Type, t2: Type, kenv: K.KindEnv) -> bool:
        return self.session.equivalent(t1, t2, kenv)


# ---------------------------------------------------------------------------
# Typing contexts


# What binding a name hid, for `Ctx.drop` to put back: the name, its outer
# binding if it had one, and whether it was a consumed linear name.
Shadowed = tuple[str, tuple[Type, Kind] | None, bool]


class Ctx:
    """The typing context of one definition, changed in place as checking
    runs left to right. `bindings` maps each name in scope to its type and
    kind; `consumed` holds the linear names used up so far. Binding a name
    returns what it hid and dropping the scope puts that back, so entering
    and leaving a scope costs O(1) whatever the context holds. A construct
    with branches checks each branch on its own `copy`."""

    __slots__ = ("bindings", "consumed")

    def __init__(self) -> None:
        self.bindings: dict[str, tuple[Type, Kind]] = {}
        self.consumed: set[str] = set()

    def copy(self) -> "Ctx":
        out = Ctx()
        out.bindings = dict(self.bindings)
        out.consumed = set(self.consumed)
        return out

    def bind(self, name: str, ty: Type, kind: Kind, pos: S.Pos | None) -> Shadowed:
        outer = self.bindings.get(name)
        if outer is not None and outer[1].mult == LINEAR:
            raise _fail(f"linear variable {name} would be shadowed before it is used", pos)
        hidden = (name, outer, name in self.consumed)
        self.bindings[name] = (ty, kind)
        self.consumed.discard(name)
        return hidden

    def use(self, name: str, pos: S.Pos | None) -> Type:
        entry = self.bindings.get(name)
        if entry is None:
            if name in self.consumed:
                raise _fail(f"linear variable {name} is used more than once", pos)
            raise KeyError(name)
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


def synth(ctx: Ctx, env: GlobalEnv, kenv: K.KindEnv, e: Expr) -> tuple[Type, Ctx]:
    match e:
        case Lit(value):
            if isinstance(value, bool):
                return BOOL, ctx
            if isinstance(value, int):
                return INT, ctx
            if isinstance(value, str):
                return S.CHAR, ctx
            return UNIT, ctx

        case Var(name):
            try:
                return ctx.use(name, e.pos), ctx
            except KeyError:
                pass
            if name in env.schemes:
                scheme = env.schemes[name]
                if scheme.binders:
                    raise _fail(f"{name} is polymorphic and needs a type application", e.pos)
                return scheme.body, ctx
            raise _fail(f"unbound variable {name}", e.pos)

        case TypeApp(name, args):
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
                except K.KindError as err:
                    raise _fail(f"bad type argument for {bname}: {err.diag.message}", e.pos)
                if not K.subkind(akind, bkind):
                    raise _fail(
                        f"type argument {S.pretty(arg)} has kind {akind}, not a subkind of {bkind}", e.pos)
                mapping[bname] = arg
            return S.subst(scheme.body, mapping), ctx

        case Lam(_, _, _):
            raise _fail("cannot synthesize the type of an unannotated function", e.pos)

        case App(fun, arg):
            if isinstance(fun, Send):
                tv, ctx1 = synth(ctx, env, kenv, fun.expr)
                if not isinstance(tv, Basic):
                    raise _fail(f"send carries basic values only, got {S.pretty(tv)}", e.pos)
                tc, ctx2 = synth(ctx1, env, kenv, arg)
                msg = _actions(env, tc, S.OUT, e.pos)
                if not msg:
                    raise _fail(f"channel of type {S.pretty(tc)} has no output action", e.pos)
                (payload, cont), = msg.items()
                if payload != tv.name:
                    raise _fail(f"channel expects !{payload}, got {tv.name}", e.pos)
                return cont, ctx2
            tf, ctx1 = synth(ctx, env, kenv, fun)
            if not isinstance(tf, Arrow):
                raise _fail(f"applying a non-function of type {S.pretty(tf)}", e.pos)
            ta, ctx2 = synth(ctx1, env, kenv, arg)
            if not env.equivalent(ta, tf.dom, kenv):
                raise _fail(
                    f"argument type {S.pretty(ta)} does not match parameter type {S.pretty(tf.dom)}",
                    e.pos)
            return tf.cod, ctx2

        case Send(_):
            raise _fail("send must be applied to a value and then a channel", e.pos)

        case Receive(chan):
            tc, ctx1 = synth(ctx, env, kenv, chan)
            msg = _actions(env, tc, S.IN, e.pos)
            if not msg:
                raise _fail(f"channel of type {S.pretty(tc)} has no input action", e.pos)
            (payload, cont), = msg.items()
            return Pair(Basic(payload), cont), ctx1

        case New(session):
            try:
                kind = env.kind_of(kenv, session)
            except K.KindError as err:
                raise _fail(err.diag.message, e.pos)
            if kind.prekind != SESSION:
                raise _fail(f"new requires a session type, got {S.pretty(session)} : {kind}", e.pos)
            free = sorted(S.free_tvars(session))
            if free:
                raise _fail(f"new cannot take the dual of type variable {free[0]}", e.pos)
            return Pair(session, dual(session)), ctx

        case Select(label, chan):
            tc, ctx1 = synth(ctx, env, kenv, chan)
            offered = _actions(env, tc, S.INTERNAL, e.pos)
            if not offered:
                raise _fail(f"channel of type {S.pretty(tc)} offers no internal choice", e.pos)
            if label not in offered:
                raise _fail(f"label {label} is not offered by {S.pretty(tc)}", e.pos)
            return offered[label], ctx1

        case Match(scrutinee, branches):
            tc, ctx1 = synth(ctx, env, kenv, scrutinee)
            offered = _actions(env, tc, S.EXTERNAL, e.pos)
            if not offered:
                raise _fail(f"channel of type {S.pretty(tc)} offers no external choice", e.pos)
            _check_coverage({lab for lab, _, _ in branches}, set(offered),
                            "match branches do not cover the choice", e.pos)
            outs = []
            for lab, binder, body in branches:
                outs.append(_branch(ctx1, env, kenv, [(binder, offered[lab])], body, e.pos))
            return _join_branches(ctx1, env, kenv, outs, e.pos)

        case Fork(inner):
            ti, ctx1 = synth(ctx, env, kenv, inner)
            kind = env.kind_of(kenv, ti)
            if kind.mult != UNRESTRICTED:
                raise _fail(
                    f"forked expression has linear type {S.pretty(ti)}; its value would be lost",
                    e.pos)
            return UNIT, ctx1

        case PairE(fst, snd):
            t1, ctx1 = synth(ctx, env, kenv, fst)
            t2, ctx2 = synth(ctx1, env, kenv, snd)
            return Pair(t1, t2), ctx2

        case Let() | LetPair():
            return _let_spine(ctx, env, kenv, e)

        case Case(scrutinee, branches):
            ts, ctx1 = synth(ctx, env, kenv, scrutinee)
            if not isinstance(ts, DataRef) or ts.name in env.abbrevs:
                raise _fail(f"case needs a datatype value, got {S.pretty(ts)}", e.pos)
            all_ctors = {c: fields for c, (d, fields) in env.ctors.items() if d == ts.name}
            _check_coverage({c for c, _, _ in branches}, set(all_ctors),
                            f"case branches do not cover {ts.name}", e.pos)
            outs = []
            for ctor, params, body in branches:
                fields = all_ctors[ctor]
                if len(params) != len(fields):
                    raise _fail(f"constructor {ctor} has {len(fields)} fields, pattern binds {len(params)}",
                                e.pos)
                dup = [p for p in params if p != "_" and params.count(p) > 1]
                if dup:
                    raise _fail(f"duplicate binder {dup[0]}", e.pos)
                outs.append(_branch(ctx1, env, kenv, list(zip(params, fields)), body, e.pos))
            return _join_branches(ctx1, env, kenv, outs, e.pos)

        case IfE(cond, then, els):
            tc, ctx1 = synth(ctx, env, kenv, cond)
            if not env.equivalent(tc, BOOL, kenv):
                raise _fail(f"if condition must be Bool, got {S.pretty(tc)}", e.pos)
            outs = [_branch(ctx1, env, kenv, [], then, e.pos),
                    _branch(ctx1, env, kenv, [], els, e.pos)]
            return _join_branches(ctx1, env, kenv, outs, e.pos)

    raise _fail(f"cannot type expression {e!r}", getattr(e, "pos", None))


def _let_spine(ctx: Ctx, env: GlobalEnv, kenv: K.KindEnv, e: Expr) -> tuple[Type, Ctx]:
    """A chain of `let`s, walked in a loop: each bound expression in the
    context its predecessors built, then the final body, then the scopes
    dropped innermost first."""
    scopes: list[tuple[list[Shadowed], S.Pos | None]] = []
    while True:
        if isinstance(e, Let):
            tb, ctx = synth(ctx, env, kenv, e.bound)
            binders = [(e.x, tb)]
        elif isinstance(e, LetPair):
            tb, ctx = synth(ctx, env, kenv, e.bound)
            if not isinstance(tb, Pair):
                raise _fail(f"let x, y = ... needs a pair, got {S.pretty(tb)}", e.pos)
            if e.x == e.y and e.x != "_":
                raise _fail(f"duplicate binder {e.x}", e.pos)
            binders = [(e.x, tb.fst), (e.y, tb.snd)]
        else:
            break
        scopes.append((_bind_all(ctx, env, kenv, binders, e.pos), e.pos))
        e = e.body
    ty, ctx = synth(ctx, env, kenv, e)
    for scope, pos in reversed(scopes):
        ctx.drop(scope, pos)
    return ty, ctx


def _actions(env: GlobalEnv, t: Type, tag: str, pos: S.Pos | None) -> dict[str, Type]:
    """The first actions of a channel type that carry `tag` (a polarity or a
    choice view), each argument mapped to its continuation; empty when the
    type starts with anything else."""
    try:
        head = S.head(t, env.abbrevs)
    except S.NoHead:
        raise _fail(f"expected a channel, got {S.pretty(t)}", pos)
    return {a.arg: cont for a, cont in head.items() if a.tag == tag}


def _bind_all(ctx: Ctx, env: GlobalEnv, kenv: K.KindEnv,
              pairs: list[tuple[str, Type]], pos: S.Pos | None) -> list[Shadowed]:
    """Bind pattern names in `ctx`, returning the scope for `Ctx.drop`; a
    wildcard must be droppable on the spot."""
    scope: list[Shadowed] = []
    for name, ty in pairs:
        try:
            kind = env.kind_of(kenv, ty)
        except K.KindError as err:
            raise _fail(err.diag.message, pos)
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


def _branch(ctx: Ctx, env: GlobalEnv, kenv: K.KindEnv,
            binders: list[tuple[str, Type]], body: Expr,
            pos: S.Pos | None) -> tuple[Type, Ctx, frozenset[str]]:
    """Check one branch on a copy of `ctx`, which stays as it was."""
    inner = ctx.copy()
    scope = _bind_all(inner, env, kenv, binders, pos)
    ty, after = synth(inner, env, kenv, body)
    after.drop(scope, pos)
    consumed = ctx.linear_names() - after.linear_names()
    return ty, after, consumed


def _join_branches(ctx: Ctx, env: GlobalEnv, kenv: K.KindEnv,
                   outs: list[tuple[Type, Ctx, frozenset[str]]],
                   pos: S.Pos | None) -> tuple[Type, Ctx]:
    ty0, res0, used0 = outs[0]
    for i, (ty, _, used) in enumerate(outs[1:], start=2):
        if used != used0:
            diff = sorted(used ^ used0)
            raise _fail(
                f"branches disagree on consuming linear variables: {', '.join(diff)} "
                f"(branch {i} vs branch 1)", pos)
        if not env.equivalent(ty, ty0, kenv):
            raise _fail(
                f"branch {i} has type {S.pretty(ty)}, not equivalent to {S.pretty(ty0)}", pos)
    return ty0, res0


def check_against(ctx: Ctx, env: GlobalEnv, kenv: K.KindEnv, e: Expr, t: Type) -> Ctx:
    """Synthesize and compare by equivalence. Functions cannot be synthesized
    without an annotation, so a function (a lambda, or a definition's
    parameters) checked against an arrow pushes the arrow inward instead;
    under `->` it must not consume a linear variable from outside."""
    if isinstance(e, Lam):
        if not isinstance(t, Arrow):
            raise _fail(f"expected type {S.pretty(t)}, found a function", e.pos)
        if e.mult == LINEAR and t.mult == UNRESTRICTED:
            raise _fail("a one-shot function cannot be used where an unrestricted one is expected",
                        e.pos)
        linear_before = ctx.linear_names()
        scope = _bind_all(ctx, env, kenv, [(e.param, t.dom)], e.pos)
        residual = check_against(ctx, env, kenv, e.body, t.cod)
        residual.drop(scope, e.pos)
        if t.mult == UNRESTRICTED:
            captured = sorted(linear_before - residual.linear_names())
            if captured:
                raise _fail(
                    f"unrestricted function consumes linear variables: {', '.join(captured)}",
                    e.pos)
        return residual
    ty, residual = synth(ctx, env, kenv, e)
    if not env.equivalent(ty, t, kenv):
        raise _fail(f"expected type {S.pretty(t)}, found {S.pretty(ty)}", getattr(e, "pos", None))
    return residual


# ---------------------------------------------------------------------------
# Programs


def _declare_names(env: GlobalEnv, p: S.Program) -> dict[str, str]:
    """Fill `env`'s tables of type names, returning the error of each rejected
    abbreviation. The kinds are one least fixed point: an abbreviation kinds
    as its body, from SU, and a datatype as the tuple of its fields, from TU,
    and a name is kinded again when a name it refers to changes. Kinds only
    rise and kind errors persist as they do, so a failing abbreviation is
    rejected for good (kind None), and so is each one that refers to it.
    Contractivity needs the final kinds, so it comes last."""
    kinds = env.datakinds
    bodies = {name: decl.body for name, decl in p.abbrevs.items()}
    types: dict[str, Type] = {
        name: reduce(Pair, [f for fields in decl.ctors.values() for f in fields], UNIT)
        for name, decl in p.datatypes.items()}
    types.update(bodies)
    users: dict[str, list[str]] = {}
    for name, t in types.items():
        for ref in S.type_names(t):
            users.setdefault(ref, []).append(name)
    kinds.update(dict.fromkeys(p.datatypes, S.TU) | dict.fromkeys(bodies, S.SU))
    errors: dict[str, str] = {}

    def settle(work: list[str]) -> None:
        while work:
            name = work.pop()
            if kinds[name] is None:
                continue
            new, error, _, _ = K.kinding({}, types[name], kinds)
            if error is None and name in bodies and new.prekind != SESSION:
                error = f"type abbreviation {name} must be a session type"
            if error is not None:
                if name not in bodies:
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
    for name, body in bodies.items():
        _, _, unguarded, contractive = K.kinding({}, body, kinds)
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
        for cname, fields in decl.ctors.items():
            if cname in env.ctors:
                diags.append(Diagnostic(decl.pos[0], decl.pos[1],
                                        f"constructor {cname} declared twice"))
                continue
            try:
                mults = [env.kind_of({}, f).mult for f in fields]
            except K.KindError as err:
                diags.append(Diagnostic(decl.pos[0], decl.pos[1], err.diag.message))
                continue
            ty: Type = DataRef(dname)
            for i in reversed(range(len(fields))):
                ty = Arrow(LINEAR if LINEAR in mults[:i] else UNRESTRICTED, fields[i], ty)
            env.ctors[cname] = (dname, fields)
            env.schemes[cname] = Scheme((), ty)

    # signatures: kind-check under their binders
    for name, sig in p.signatures.items():
        try:
            env.kind_of(dict(sig.scheme.binders), sig.scheme.body)
        except K.KindError as err:
            diags.append(Diagnostic(sig.pos[0], sig.pos[1], err.diag.message))
            continue
        env.schemes[name] = sig.scheme
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
        scheme = env.schemes[name]
        kenv: K.KindEnv = {b: k for b, k in scheme.binders}
        try:
            # a value that is not a function is evaluated once and shared
            if not isinstance(d.body, Lam) and env.kind_of(kenv, scheme.body).mult == LINEAR:
                raise _fail(f"top-level value {name} has linear type {S.pretty(scheme.body)}; "
                            "every use would share it", d.pos)
            check_against(Ctx(), env, kenv, d.body, scheme.body)
        except CheckError as err:
            line, col = (err.diag.line, err.diag.col) if err.diag.line else d.pos
            diags.append(Diagnostic(line, col, f"in {name}: {err.diag.message}"))
        except equiv.Inconclusive:
            diags.append(Diagnostic(d.pos[0], d.pos[1],
                                    f"in {name}: type equivalence check was inconclusive"))
        except RecursionError:
            # `synth` recurses once per application, as in a long operator chain
            diags.append(Diagnostic(d.pos[0], d.pos[1], f"in {name}: nesting too deep"))

    main, scheme = p.definitions.get("main"), env.schemes.get("main")
    if main is None:
        diags.append(Diagnostic(1, 1, "missing main"))
    elif scheme is not None:  # kinded with the signatures
        problem = ("main cannot be polymorphic" if scheme.binders else
                   "main must have a non-function type"
                   if isinstance(scheme.body, Arrow) else
                   "main must have a non-session type"
                   if env.kind_of({}, scheme.body).prekind == SESSION else None)
        if problem:
            diags.append(Diagnostic(main.pos[0], main.pos[1], problem))
    return diags


def dump_types(p: S.Program, diags: list[Diagnostic] | None = None) -> str:
    """One line per top-level name with its kind-checked scheme; the
    declaration errors that leave names out go to `diags`."""
    env = build_global_env(p, [] if diags is None else diags)
    return "\n".join(f"{name} : {S.pretty_scheme(env.schemes[name])}"
                     for name in p.signatures if name in env.schemes)
