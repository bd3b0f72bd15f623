"""In-memory span tracer for the benchmark's traced run.

The tracer replaces module-level functions of the sluice layers with timing
wrappers. Each layer looks those names up at call time (``equivalent`` calls
``build`` through ``sluice.equiv``'s globals, the typechecker calls
``equiv.equivalent`` through the module), so wrapping the module attribute is
enough to see every call without touching the package's source.

Every call records a span: id, name, start, end, parent span id, and the id
of the benchmark operation it belongs to. Spans stay in memory (up to a cap)
and are written out at the end of the run. Alongside the spans the tracer
keeps per-pass aggregates keyed by (span name, parent span name): calls,
inclusive time and self time (inclusive time minus the time covered by child
spans), plus counters fed from arguments and results, such as the number of
tokens a lexer call produced.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable

# Spans kept for the trace file. The ladder alone makes hundreds of thousands
# of wrapped calls per pass; aggregates see every call, the file the first ones.
MAX_SPANS = 50_000

# (owner attribute path, attribute, span name). The owner is looked up on the
# freshly imported sluice package at install time.
WRAPPED = [
    ("parser", "lex", "lexer.lex"),
    ("parser", "parse_program", "parser.parse_program"),
    ("kinds", "synth_kind", "kinds.synth_kind"),
    ("equiv", "build", "grammar.build"),
    ("equiv", "compute_norms", "grammar.compute_norms"),
    ("equiv", "prune", "grammar.prune"),
    ("equiv", "step", "grammar.step"),
    ("equiv", "equivalent", "equiv.equivalent"),
    ("equiv", "search", "equiv.search"),
    ("equiv", "expand", "equiv.expand"),
    ("equiv", "simplify", "equiv.simplify"),
    ("equiv", "congruent", "equiv.congruent"),
    ("equiv", "_pair_refuted", "equiv.probe"),
    ("typecheck", "check_program", "typecheck.check_program"),
    ("runtime", "run", "runtime.run"),
    ("runtime", "channel_send", "runtime.channel_send"),
    ("runtime", "channel_receive", "runtime.channel_receive"),
    ("runtime.Slot", "put", "runtime.slot_put"),
    ("runtime.Slot", "take", "runtime.slot_take"),
]


class _Frame:
    __slots__ = ("id", "name", "child")

    def __init__(self, span_id: int, name: str):
        self.id = span_id
        self.name = name
        self.child = 0.0


class Tracer:
    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patched: list[tuple[object, str, object]] = []
        self._origin = time.perf_counter()
        self.op = 0
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        self.dropped = 0
        self.reset()

    # -- aggregates ---------------------------------------------------------

    def reset(self) -> None:
        """Start a new pass: clear the aggregates, keep the spans."""
        with self._lock:
            # (name, parent name) -> [calls, inclusive seconds, self seconds]
            self.stats: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0, 0.0])
            self.counts: dict[str, int] = defaultdict(int)

    def count(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.counts[key] += n

    def calls(self, name: str, parent: str | None = None) -> int:
        return sum(v[0] for (n, p), v in self.stats.items()
                   if n == name and (parent is None or p == parent))

    def total(self, name: str, parent: str | None = None) -> float:
        return sum(v[1] for (n, p), v in self.stats.items()
                   if n == name and (parent is None or p == parent))

    def self_time(self, name: str) -> float:
        return sum(v[2] for (n, _), v in self.stats.items() if n == name)

    # -- wrapping -----------------------------------------------------------

    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner: object, attr: str, name: str,
             on_exit: Callable[[tuple, object, BaseException | None], None] | None = None) -> None:
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            frame = _Frame(next(tracer._ids), name)
            stack.append(frame)
            result = error = None
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent.child += duration
                tracer._record(frame, parent, start, end, duration)
                if on_exit is not None:
                    on_exit(args, result, error)

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def _record(self, frame: _Frame, parent: _Frame | None,
                start: float, end: float, duration: float) -> None:
        parent_name = parent.name if parent is not None else ""
        with self._lock:
            entry = self.stats[(frame.name, parent_name)]
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - frame.child
            if len(self.spans) < MAX_SPANS:
                self.spans.append((frame.id, frame.name, start - self._origin,
                                   end - self._origin,
                                   parent.id if parent is not None else 0, self.op))
            else:
                self.dropped += 1

    def install(self, sluice) -> None:
        """Wrap every function in WRAPPED on the given sluice package."""
        hooks = _counting_hooks(self, sluice)
        for owner_path, attr, name in WRAPPED:
            owner: object = sluice
            for part in owner_path.split("."):
                owner = getattr(owner, part)
            self.wrap(owner, attr, name, hooks.get(name))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write(self, path, header: dict) -> None:
        """One JSON header line, then one JSON line per kept span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(dict(header, spans=len(self.spans), dropped=self.dropped)) + "\n")
            for span_id, name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": round(start, 9),
                                     "end": round(end, 9), "parent": parent, "op": op}) + "\n")

    # -- per-layer metrics --------------------------------------------------

    def layer_metrics(self, thread_crashes: int) -> dict[str, float]:
        """The per-layer metrics of the pass since the last reset."""
        with self._lock:  # a forked thread of the last operation may still record
            return self._layer_metrics(thread_crashes)

    def _layer_metrics(self, thread_crashes: int) -> dict[str, float]:
        c = self.counts
        queries = self.calls("equiv.equivalent")
        congruent = self.calls("equiv.congruent")
        probes = self.calls("equiv.probe")
        return {
            "lexer.calls": self.calls("lexer.lex"),
            "lexer.s": self.total("lexer.lex"),
            "lexer.tokens": c["lexer.tokens"],
            "parser.self_s": self.self_time("parser.parse_program"),
            "parser.recursion_errors": c["parser.recursion_errors"],
            "kinds.calls": self.calls("kinds.synth_kind"),
            "kinds.s": self.total("kinds.synth_kind"),
            "grammar.build_s": self.total("grammar.build"),
            "grammar.norms_s": self.total("grammar.compute_norms"),
            "grammar.prune_s": self.total("grammar.prune"),
            "grammar.productions": c["grammar.productions"],
            "grammar.step_calls": self.calls("grammar.step"),
            "equiv.queries": queries,
            "equiv.identical_ratio": _ratio(c["equiv.identical"], queries),
            "equiv.search_s": self.total("equiv.search"),
            # only the expansions the search makes; the probe's are its own
            "equiv.nodes": self.calls("equiv.expand", "equiv.search"),
            "equiv.expand_s": self.total("equiv.expand", "equiv.search"),
            "equiv.simplify_s": self.total("equiv.simplify"),
            "equiv.congruent_calls": congruent,
            "equiv.congruent_s": self.total("equiv.congruent"),
            "equiv.congruent_true_ratio": _ratio(c["equiv.congruent_true"], congruent),
            "equiv.probe_calls": probes,
            "equiv.probe_s": self.total("equiv.probe"),
            "equiv.probe_refuted_ratio": _ratio(c["equiv.probe_refuted"], probes),
            "equiv.inconclusive": c["equiv.inconclusive"],
            "typecheck.self_s": self.self_time("typecheck.check_program"),
            "typecheck.equiv_queries": self.calls("equiv.equivalent", "typecheck.check_program"),
            "typecheck.equiv_s": self.total("equiv.equivalent", "typecheck.check_program"),
            "runtime.run_s": self.total("runtime.run"),
            "runtime.chan_ops": (self.calls("runtime.channel_send")
                                 + self.calls("runtime.channel_receive")),
            "runtime.chan_s": (self.total("runtime.channel_send")
                               + self.total("runtime.channel_receive")),
            "runtime.slot_s": self.total("runtime.slot_put") + self.total("runtime.slot_take"),
            "runtime.thread_crashes": thread_crashes,
            "runtime.watchdog_aborts": c["runtime.watchdog_aborts"],
        }


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def _counting_hooks(tracer: Tracer, sluice) -> dict[str, Callable]:
    """Counters fed from the arguments, results and exceptions of wrapped calls."""
    inconclusive = sluice.equiv.Inconclusive
    watchdog = sluice.runtime.WatchdogAbort

    def lex(args, result, error):
        if error is None:
            tracer.count("lexer.tokens", len(result))

    def parse_program(args, result, error):
        if isinstance(error, RecursionError):
            tracer.count("parser.recursion_errors")

    def build(args, result, error):
        if error is None:
            tracer.count("grammar.productions",
                         sum(len(prods) for prods in result[0].productions.values()))

    def equivalent(args, result, error):
        if args[0] == args[1]:
            tracer.count("equiv.identical")
        if isinstance(error, inconclusive):
            tracer.count("equiv.inconclusive")

    def congruent(args, result, error):
        if result is True:
            tracer.count("equiv.congruent_true")

    def probe(args, result, error):
        if result is True:
            tracer.count("equiv.probe_refuted")

    def run(args, result, error):
        if isinstance(error, watchdog):
            tracer.count("runtime.watchdog_aborts")

    return {
        "lexer.lex": lex,
        "parser.parse_program": parse_program,
        "grammar.build": build,
        "equiv.equivalent": equivalent,
        "equiv.congruent": congruent,
        "equiv.probe": probe,
        "runtime.run": run,
    }
