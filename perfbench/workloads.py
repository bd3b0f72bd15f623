"""The benchmark's workloads: inputs made from a seed, the operations one pass
runs, the references their outputs are checked against, and the workload's
own end-to-end metrics.

Every workload is a list of operations, each a call into sluice's public
modules. Calls go through the module attributes (``equiv.equivalent``,
``parser.parse_program``, ``runtime.run``) so the tracer's wrappers see them.
References never come from the decider under test: the ladder's verdicts hold
by construction, corpus verdicts come from ``lawify`` by construction and the
oracles in ``tests/oracles.py``, and program values are written by hand.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
PROGRAMS = ROOT / "tests" / "programs"

# Value printed by tests/programs/tree.fst, as given in the README.
TREE_VALUE = ("Node 36 (Node 22 (Node 8 Leaf Leaf) "
              "(Node 12 (Node 5 Leaf Leaf) (Node 4 Leaf Leaf))) "
              "(Node 13 Leaf (Node 7 Leaf Leaf))")

# Watchdog window for every program run: long enough that a live program never
# has all threads blocked for it, short enough to keep a pass near a second.
QUIESCENCE = 0.25

TREE_C = "rec x. +{Leaf: Skip, Node: !Int;x;x;?Int}"


@dataclass
class Raised:
    """Output of an operation that raised instead of returning."""
    name: str


@dataclass
class Op:
    label: str
    kind: str
    call: Callable[[], object]
    # The reference output; for corpus pairs an oracle decides, the pair itself.
    expected: object = None
    # Mostly waiting (channel sleeps, the watchdog) rather than computing, so
    # its time does not scale with the host's speed.
    waits: bool = False


class Workload:
    name = ""
    ops: list[Op]
    # Inputs that fail at the seed because of a known defect. They are not
    # part of the timed passes (whose every operation must succeed); the run
    # executes each once afterwards and reports whether it still fails.
    defects: list[Op] = []

    def check(self, op: Op, output: object) -> str | None:
        """None when the output matches the reference, else why not."""
        if output == op.expected:
            return None
        return f"expected {op.expected!r}, got {output!r}"

    def metrics(self, times: list[float], ok: list[bool],
                outputs: list[object]) -> dict[str, tuple[float, str]]:
        """The workload's own end-to-end metrics. Per operation: its time,
        whether every pass got it right, and the first pass's output."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# equiv-ladder


class Ladder(Workload):
    """TreeC against its k-fold unfolding (equivalent) and against the same
    unfolding with every ?Int replaced by ?Bool (not equivalent)."""

    name = "equiv-ladder"

    def __init__(self, sluice, gen, oracles, seed: int, tiny: bool):
        S = sluice.syntax
        equiv = sluice.equiv
        tree_c = sluice.parser.parse_type(TREE_C)
        self.ops = []
        unfolded = tree_c
        for k in range(1, 4 if tiny else 9):
            unfolded = S.subst(tree_c.body, {tree_c.var: unfolded})
            variant = _int_to_bool(S, unfolded)
            self.ops.append(Op(f"k={k} equivalent", "eq",
                               _query(equiv, tree_c, unfolded), True))
            self.ops.append(Op(f"k={k} ?Bool variant", "ne",
                               _query(equiv, tree_c, variant), False))

    def metrics(self, times, ok, outputs):
        return _verdict_metrics(times, outputs)


def _query(equiv, t1, t2) -> Callable[[], object]:
    return lambda: equiv.equivalent(t1, t2)


def _int_to_bool(S, t):
    match t:
        case S.Message(polarity, "Int") if polarity == S.IN:
            return S.Message(polarity, "Bool")
        case S.Semi(lhs, rhs):
            return S.Semi(_int_to_bool(S, lhs), _int_to_bool(S, rhs))
        case S.Choice(view, branches):
            return S.Choice(view, tuple((lab, _int_to_bool(S, ty)) for lab, ty in branches))
        case S.Rec(var, body):
            return S.Rec(var, _int_to_bool(S, body))
    return t


def _verdict_metrics(times, outputs) -> dict[str, tuple[float, str]]:
    return {
        "equiv_eq_s": (sum(sec for sec, out in zip(times, outputs) if out is True), "s"),
        "equiv_ne_s": (sum(sec for sec, out in zip(times, outputs) if out is False), "s"),
    }


# ---------------------------------------------------------------------------
# equiv-corpus

# Pairs per depth; 10 600 in all, enough that the time of a pass varies little
# with the seed (the deepest law pairs carry most of the variance). Law pairs
# use rand_session at depths 1-6; perturbed and regular pairs stay at depths
# 1-4, the ranges acceptance criteria 3 and 4 use, where their oracles stay
# cheap. Depth-6 regular pairs reach tens of kilobytes of type text, and some
# take the decider 19 s; they belong in a workload of their own, not in a
# corpus of small queries.
LAW_DEPTHS, LAW_PER_DEPTH = range(1, 7), 700
PERTURB_DEPTHS, PERTURB_PER_DEPTH = range(1, 5), 900
REGULAR_DEPTHS, REGULAR_PER_DEPTH = range(1, 5), 700

# Oracle work allowed per bounded bisimulation check before its depth halves:
# transition steps plus the type nodes the oracle's Skip elimination visits.
# A step's cost grows with the size of the type it rewrites, and on some
# context-free pairs the types grow with every step, so counting steps alone
# let one pair of a seed run the oracle for a minute. On three seeds, the
# costliest other pair needed about 120 000 Skip-elimination visits at full
# depth, at 2-3 us each.
ORACLE_WORK = 250_000


class _OracleBudget(Exception):
    pass


class Corpus(Workload):
    """Seeded small pairs: lawify positives, perturb negatives and
    tail-recursive pairs, drawn with the generators in tests/gen.py."""

    name = "equiv-corpus"

    def __init__(self, sluice, gen, oracles, seed: int, tiny: bool):
        self.sluice, self.oracles = sluice, oracles
        equiv = sluice.equiv
        scale = 0.01 if tiny else 1.0
        rng = random.Random(seed)
        self.ops = []
        for d in LAW_DEPTHS:
            for _ in range(round(LAW_PER_DEPTH * scale)):
                t1 = gen.rand_session(rng, d)
                self.ops.append(Op(f"law d={d}", "law", _query(equiv, t1, gen.lawify(rng, t1)), True))
        for d in PERTURB_DEPTHS:
            for _ in range(round(PERTURB_PER_DEPTH * scale)):
                t1 = gen.rand_session(rng, d)
                t2 = gen.perturb(rng, t1)
                self.ops.append(Op(f"perturb d={d}", "perturb", _query(equiv, t1, t2), (t1, t2)))
        for d in REGULAR_DEPTHS:
            for _ in range(round(REGULAR_PER_DEPTH * scale)):
                # partner drawn as in acceptance criterion 4, at depths 1-4
                t1 = gen.rand_regular(rng, d)
                if rng.random() < 0.45:
                    t2 = gen.lawify(rng, t1)
                elif rng.random() < 0.5:
                    t2 = gen.perturb(rng, t1)
                else:
                    t2 = gen.rand_regular(rng, rng.randint(1, 4))
                self.ops.append(Op(f"regular d={d}", "regular", _query(equiv, t1, t2), (t1, t2)))
        self._reference: dict[int, object] = {}

    def check(self, op, output):
        if op.kind == "law":
            return super().check(op, output)
        if not isinstance(output, bool):
            return f"no verdict: {output!r}"
        key = id(op)
        if key not in self._reference:
            t1, t2 = op.expected
            if op.kind == "regular":
                self._reference[key] = self.oracles.regular_equivalent(t1, t2)
            else:
                self._reference[key] = self._bounded_oracle(t1, t2)
        ref = self._reference[key]
        if op.kind == "regular":
            return None if output == ref else f"fixed-point oracle says {ref}"
        # As acceptance criterion 3: a positive verdict must survive the
        # depth-bounded oracle; a negative one must not be contradicted by the
        # oracle at full depth on a small grammar.
        agrees, small, full_depth = ref
        if output and not agrees:
            return "bounded oracle refutes the pair"
        if not output and agrees and small and full_depth:
            return "bounded oracle finds the small pair bisimilar"
        return None

    def _bounded_oracle(self, t1, t2) -> tuple[bool, bool, bool]:
        """Criterion 3's oracle call, with its depth halved whenever the
        oracle does more than ORACLE_WORK work (context-free pairs can blow
        up at depth 16). The grammar only sizes the depth."""
        g, w1, w2 = self.sluice.grammar.build(t1, t2)
        self.sluice.grammar.compute_norms(g)
        self.sluice.grammar.prune(g)
        small = len(g.productions) <= 6 and all(n is not None and n <= 4
                                                for n in g.norms.values())
        n1 = self.sluice.grammar.word_norm(g, w1)
        n2 = self.sluice.grammar.word_norm(g, w2)
        full = 2 * (n1 + n2) + 4 if n1 is not None and n2 is not None else 16
        o = self.oracles
        skip_elim = o._skip_elim
        work = 0

        def spend():
            nonlocal work
            work += 1
            if work > ORACLE_WORK:
                raise _OracleBudget

        def step(t):
            spend()
            return o.type_step(t)

        def counted_skip_elim(t):
            spend()
            return skip_elim(t)

        # type_step and _skip_elim itself look _skip_elim up in the module
        o._skip_elim = counted_skip_elim
        try:
            depth = full
            while depth > 0:
                work = 0
                try:
                    agrees = o.k_bisimilar(step, skip_elim(t1), step, skip_elim(t2), depth)
                    return agrees, small, depth == full
                except _OracleBudget:
                    depth //= 2
        finally:
            o._skip_elim = skip_elim
        return True, small, False

    def metrics(self, times, ok, outputs):
        out = _verdict_metrics(times, outputs)
        q = statistics.quantiles(times, n=100)
        out["equiv_p50_ms"] = (q[49] * 1e3, "ms")
        out["equiv_p99_ms"] = (q[98] * 1e3, "ms")
        out["equiv_samples"] = (len(times), "count")
        return out


# ---------------------------------------------------------------------------
# programs

STREAM = """\
type Stream = +{{More: !Int;Stream, Done: Skip}}
type StreamS = &{{More: ?Int;StreamS, Done: Skip}}

producer : Int -> Stream -> Skip
producer i c =
  if i > {n}
  then select Done c
  else
    let c = select More c in
    let c = send i c in
    producer (i + 1) c

consumer : Int -> StreamS -> Int
consumer acc c =
  match c with
    More c ->
      let x, c = receive c in
      consumer (acc + x) c
    Done c ->
      acc

main : Int
main =
  let w, r = new Stream in
  let _ = fork (producer 1 w) in
  consumer 0 r
"""


def stream_source(n: int) -> str:
    """A forked producer streams 1..n; main returns their sum."""
    return STREAM.format(n=n)


def let_chain_source(depth: int) -> str:
    """`depth` nested lets counting up from 0; main is depth - 1."""
    lines = ["main : Int", "main =", "  let x0 = 0 in"]
    lines += [f"  let x{i} = x{i - 1} + 1 in" for i in range(1, depth)]
    lines.append(f"  x{depth - 1}")
    return "\n".join(lines) + "\n"


# Messages each completed run exchanges, counted by hand from the protocol:
# tree: 8 nodes (select, send, receive) and 9 leaves (select);
# calc: select, send, send, receive, select, send, receive, select;
# stream n: n times (select, send), then select Done.
TREE_MESSAGES, CALC_MESSAGES, CROSS_MESSAGES = 33, 8, 2

# (label, source name or generator argument, value main returns, messages)
RUNS = [
    ("tree.fst", "tree", TREE_VALUE, TREE_MESSAGES),
    ("calc.fst", "calc", "-42", CALC_MESSAGES),
    ("cross.fst", "cross", "False", CROSS_MESSAGES),
    ("stream-100", 100, str(100 * 101 // 2), 2 * 100 + 1),
    ("stream-1000", 1000, str(1000 * 1001 // 2), 2 * 1000 + 1),
]
LET_DEPTHS = (400, 1000)

# Known defects at the seed, run once per run outside the timed passes:
# the 1000-message stream's forked producer dies of RecursionError near 200
# messages, which ends in a false deadlock; the parser dies of RecursionError
# on the depth-1000 chain.
DEFECTS = ("run stream-1000", "check let-1000")


class Programs(Workload):
    """Parse and check every program; run the runnable ones; time the
    deadlock of cross_doubled.fst until its watchdog abort."""

    name = "programs"

    def __init__(self, sluice, gen, oracles, seed: int, tiny: bool):
        self.sluice = sluice
        parser, typecheck, runtime = sluice.parser, sluice.typecheck, sluice.runtime
        rng = random.Random(seed)
        sources = {}
        for label, arg, _, _ in RUNS:
            sources[label] = (PROGRAMS / f"{arg}.fst").read_text(encoding="utf-8") \
                if isinstance(arg, str) else stream_source(arg)
        sources["cross_doubled.fst"] = (PROGRAMS / "cross_doubled.fst").read_text(encoding="utf-8")
        for d in LET_DEPTHS:
            sources[f"let-{d}"] = let_chain_source(d)

        def check(source):
            def call():
                prog, diags = parser.parse_program(source)
                if prog is not None and not diags:
                    diags = typecheck.check_program(prog)
                return prog, [d.render() for d in diags]
            return call

        def execute(prog, run_seed):
            return lambda: runtime.pretty_value(
                runtime.run(prog, seed=run_seed, quiescence=QUIESCENCE))

        self.ops = [Op(f"check {label}", "check", check(src), []) for label, src in sources.items()]
        self.messages: dict[str, int] = {}
        self.run_seeds: dict[str, int] = {}
        for label, _, value, messages in RUNS + [("cross_doubled.fst", None, Raised("WatchdogAbort"), 0)]:
            prog, diags = parser.parse_program(sources[label])
            if prog is None or diags or typecheck.check_program(prog):
                raise RuntimeError(f"{label} does not check, so it cannot run")
            self.run_seeds[label] = rng.randrange(2 ** 31)
            kind = "deadlock" if isinstance(value, Raised) else "run"
            self.ops.append(Op(f"run {label}", kind, execute(prog, self.run_seeds[label]), value,
                               waits=True))
            self.messages[f"run {label}"] = messages
        self.defects = [op for op in self.ops if op.label in DEFECTS]
        self.ops = [op for op in self.ops if op.label not in DEFECTS]

    def check(self, op, output):
        if op.kind != "check":
            return super().check(op, output)
        if isinstance(output, Raised):
            return f"raised {output.name}"
        prog, diags = output
        if diags:
            return "; ".join(diags)
        if op.label.startswith("check let-"):
            # the chain's value is its depth minus one; evaluated here,
            # outside the timed region, since the workload only checks it
            depth = int(op.label.rsplit("-", 1)[1])
            try:
                value = self.sluice.runtime.run(prog, seed=0, quiescence=QUIESCENCE)
            except Exception as exc:
                return f"evaluating main raised {type(exc).__name__}"
            if value != depth - 1:
                return f"main evaluates to {value!r}, expected {depth - 1}"
        return None

    def metrics(self, times, ok, outputs):
        def total(kind):
            return sum(sec for op, sec in zip(self.ops, times) if op.kind == kind)

        completed = [(sec, self.messages[op.label])
                     for op, sec, right in zip(self.ops, times, ok) if op.kind == "run" and right]
        return {
            "check_s": (total("check"), "s"),
            "run_us_per_msg": (sum(sec for sec, _ in completed)
                               / max(1, sum(m for _, m in completed)) * 1e6, "us"),
            "deadlock_s": (total("deadlock"), "s"),
        }


WORKLOADS = {w.name: w for w in (Ladder, Corpus, Programs)}
