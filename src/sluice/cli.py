"""Command-line front end.

Exit codes: 0 success / equivalent, 1 diagnostics / not equivalent, 2
inconclusive (budget), 3 deadlock, 64 usage error.
"""

from __future__ import annotations

import argparse
import sys

from .diagnostics import TOO_DEEP, Diagnostic, DiagnosticError
from . import equiv as E
from . import grammar as G
from . import kinds as K
from . import runtime as R
from . import typecheck as T
from .dual import dual
from .parser import parse_program, parse_type
from .syntax import SESSION, SL, free_tvars, pretty

EXIT_OK = 0
EXIT_DIAGNOSTICS = 1
EXIT_INCONCLUSIVE = 2
EXIT_WATCHDOG = 3
EXIT_USAGE = 64


class _Argv(argparse.ArgumentParser):
    def error(self, message: str):  # usage errors get their own exit code
        print(f"usage error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _load(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
    except OSError as exc:
        print(Diagnostic(0, 0, str(exc.strerror or exc)).render(path), file=sys.stderr)
        return None, False
    prog, diags = parse_program(source)
    for d in diags:
        print(d.render(path), file=sys.stderr)
    return prog, not diags


def _checked(path: str):
    prog, ok = _load(path)
    if prog is None or not ok:
        return None
    diags = T.check_program(prog)
    for d in diags:
        print(d.render(path), file=sys.stderr)
    return prog if not diags else None


def _parse_cli_type(text: str, session: E.Session, env: K.KindEnv):
    """A CLI type with its kind, or None once a diagnostic is printed. Its
    free lowercase names join `env` as rigid variables at the default kind,
    and it is kinded under `env` through `session`."""
    try:
        t = parse_type(text)
    except DiagnosticError as exc:
        print(exc.diag.render("<type>"), file=sys.stderr)
        return None
    env.update(dict.fromkeys(free_tvars(t), SL))
    try:
        kind = session.kind_of(env, t)
    except K.KindError as exc:
        print(exc.diag.render("<type>"), file=sys.stderr)
        return None
    return t, kind


def _session_type(text: str, needs: str):
    """A CLI type that must be a session type, or None once the reason is
    printed; `needs` is the message when the type is well kinded but not a
    session type."""
    parsed = _parse_cli_type(text, E.Session({}, {}), {})
    if parsed is None:
        return None
    t, kind = parsed
    if kind.prekind != SESSION:
        print(Diagnostic(1, 1, needs).render("<type>"), file=sys.stderr)
        return None
    return t


def main(argv: list[str] | None = None) -> int:
    ap = _Argv(prog="sluice", description="Session-typed language tools")
    sub = ap.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="parse and typecheck a program")
    p_check.add_argument("file")

    p_run = sub.add_parser("run", help="typecheck and run a program")
    p_run.add_argument("file")
    p_run.add_argument("--seed", type=int, default=None, help="fix the whole interleaving")
    p_run.add_argument("--quiescence", type=float, default=2.0,
                       help="accepted and ignored: deadlock is reported at once")

    p_equiv = sub.add_parser("equiv", help="decide equivalence of two types")
    p_equiv.add_argument("type1")
    p_equiv.add_argument("type2")
    p_equiv.add_argument("--budget", type=int, default=E.DEFAULT_BUDGET)
    p_equiv.add_argument("--trace", action="store_true")

    p_dual = sub.add_parser("dual", help="print the dual of a session type")
    p_dual.add_argument("type")

    p_dump = sub.add_parser("dump-grammar", help="print a type's grammar and norms")
    p_dump.add_argument("type")

    p_types = sub.add_parser("dump-types", help="print each top-level name with its scheme")
    p_types.add_argument("file")

    args = ap.parse_args(argv)
    if args.command == "equiv" and args.budget < 0:
        p_equiv.error(f"argument --budget: must be at least 0, got {args.budget}")
    try:
        return _command(args)
    except RecursionError:
        # Input nested deeper than a recursive walk (parser, kinding,
        # typechecker, grammar translation) can follow on the Python stack.
        print(Diagnostic(0, 0, TOO_DEEP).render(getattr(args, "file", "<type>")), file=sys.stderr)
        return EXIT_DIAGNOSTICS


def _command(args: argparse.Namespace) -> int:
    if args.command == "check":
        return EXIT_OK if _checked(args.file) else EXIT_DIAGNOSTICS

    if args.command == "run":
        prog = _checked(args.file)
        if prog is None:
            return EXIT_DIAGNOSTICS
        try:
            value = R.run(prog, seed=args.seed, quiescence=args.quiescence)
        except R.WatchdogAbort as exc:
            print("deadlock detected:", file=sys.stderr)
            for line in exc.report:
                print(f"  {line}", file=sys.stderr)
            return EXIT_WATCHDOG
        except R.RuntimeAbort as exc:
            print(f"runtime error: {exc}", file=sys.stderr)
            return EXIT_DIAGNOSTICS
        print(R.pretty_value(value))
        return EXIT_OK

    if args.command == "equiv":
        # one session kinds both types, and the query reads those kinds
        session, env = E.Session({}, {}), {}
        parsed1 = _parse_cli_type(args.type1, session, env)
        parsed2 = _parse_cli_type(args.type2, session, env)
        if parsed1 is None or parsed2 is None:
            return EXIT_DIAGNOSTICS
        trace = None
        if args.trace:
            def trace(depth: int, pairs: int, action: str) -> None:
                print(f"node depth={depth} pairs={pairs} {action}")
        try:
            verdict = session.equivalent(parsed1[0], parsed2[0], env,
                                         budget=args.budget, trace=trace)
        except E.Inconclusive:
            print("inconclusive")
            return EXIT_INCONCLUSIVE
        print("equivalent" if verdict else "not equivalent")
        return EXIT_OK if verdict else EXIT_DIAGNOSTICS

    if args.command == "dual":
        t = _session_type(args.type, "dual is defined on session types")
        if t is None:
            return EXIT_DIAGNOSTICS
        free = sorted(free_tvars(t))
        if free:
            print(Diagnostic(1, 1, f"dual is not defined on type variable {free[0]}")
                  .render("<type>"), file=sys.stderr)
            return EXIT_DIAGNOSTICS
        print(pretty(dual(t)))
        return EXIT_OK

    if args.command == "dump-grammar":
        t = _session_type(args.type, "dump-grammar needs a session type")
        if t is None:
            return EXIT_DIAGNOSTICS
        g, w = G.build(t)
        G.compute_norms(g)
        print(G.dump(g, [w]))
        return EXIT_OK

    if args.command == "dump-types":
        prog, ok = _load(args.file)
        if prog is None or not ok:
            return EXIT_DIAGNOSTICS
        diags: list[Diagnostic] = []
        print(T.dump_types(prog, diags))
        for d in diags:
            print(d.render(args.file), file=sys.stderr)
        return EXIT_DIAGNOSTICS if diags else EXIT_OK

    return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
