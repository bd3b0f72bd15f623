"""A tiny concurrent functional language whose channels are governed by
context-free session types: parser, kinding, linear typechecker, a
sound-and-complete type equivalence decider, and an interpreter that runs
every thread as an explicit-stack machine on one seeded scheduler, with
one-slot channel buffers and immediate deadlock detection."""

from .diagnostics import Diagnostic, DiagnosticError
from .parser import parse_program, parse_type, parse_scheme
from .syntax import pretty, pretty_scheme
from .kinds import subkind, lub, synth_kind, contractive
from .dual import dual
from .equiv import equivalent, Inconclusive
from .typecheck import check_program
from .runtime import run, WatchdogAbort, RuntimeAbort, pretty_value

__all__ = [
    "Diagnostic", "DiagnosticError",
    "parse_program", "parse_type", "parse_scheme",
    "pretty", "pretty_scheme",
    "subkind", "lub", "synth_kind", "contractive",
    "dual",
    "equivalent", "Inconclusive",
    "check_program",
    "run", "WatchdogAbort", "RuntimeAbort", "pretty_value",
]
