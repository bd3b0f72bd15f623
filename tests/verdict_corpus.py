"""Recorded verdicts of the equivalence decider on seeded pairs.

The pairs are drawn with the generators in `gen.py` the way acceptance
criteria 3 and 4 draw them: Skip-unit, associativity and distributivity
instances; perturbed pairs; and tail-recursive pairs against a lawified,
perturbed or fresh partner. `golden/verdicts.txt` holds one letter per pair
(E equivalent, N not equivalent, I inconclusive), so a change to the decider
that flips any verdict shows up as a diff.

`golden/search_traces.txt` records the shape of the search on fewer
queries: the TreeC ladder (TreeC against its k-fold unfoldings, k = 1..8,
and against their ?Bool variants) and every `TRACE_STRIDE`-th corpus pair.
Each line holds a query's verdict, the number of nodes the search processed
and a SHA-256 of its `trace` stream, so a change that keeps every verdict
but searches a different tree shows up as a diff too.

`golden/grammars.txt` records what the search runs on: a SHA-256 of
`grammar.dump` of each query's grammar, after norms and pruning, one line
per ladder query and one per suite, so a change to translation that keeps
every verdict but builds a different grammar shows up as a diff as well.

Rewrite the golden files (only when a verdict, search or grammar change is
intended):

    PYTHONPATH=src python tests/verdict_corpus.py --write
"""

from __future__ import annotations

import hashlib
import os
import random
import sys
from typing import Iterator

from sluice import syntax as S
from sluice.equiv import Inconclusive, TraceFn, equivalent
from sluice.grammar import build, compute_norms, dump, prune
from sluice.parser import parse_type
from sluice.syntax import Choice, Semi, Skip, Type

from gen import lawify, perturb, rand_regular, rand_session, receive_bool

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "verdicts.txt")
TRACES = os.path.join(os.path.dirname(__file__), "golden", "search_traces.txt")
GRAMMARS = os.path.join(os.path.dirname(__file__), "golden", "grammars.txt")
SEED = 3001
LAW_ROUNDS = 1000  # four pairs each
PERTURBED = 4000
REGULAR = 2500
WIDTH = 100
TREE_C = "rec x. +{Leaf: Skip, Node: !Int;x;x;?Int}"
LADDER = 8
TRACE_STRIDE = 20

Pair = tuple[Type, Type]


def _laws(rng: random.Random) -> Iterator[Pair]:
    for _ in range(LAW_ROUNDS):
        s = rand_session(rng, rng.randint(0, 3))
        yield Semi(Skip(), s), s
        yield Semi(s, Skip()), s
        a, b, c = (rand_session(rng, rng.randint(0, 2)) for _ in range(3))
        yield Semi(a, Semi(b, c)), Semi(Semi(a, b), c)
        view = rng.choice([S.INTERNAL, S.EXTERNAL])
        u = rand_session(rng, rng.randint(0, 2))
        labs = rng.sample(["L", "M", "N"], rng.randint(1, 3))
        branches = tuple((lab, rand_session(rng, rng.randint(0, 2))) for lab in labs)
        yield (Semi(Choice(view, branches), u),
               Choice(view, tuple((lab, Semi(t, u)) for lab, t in branches)))


def _perturbed(rng: random.Random) -> Iterator[Pair]:
    for _ in range(PERTURBED):
        t1 = rand_session(rng, rng.randint(1, 4))
        yield t1, perturb(rng, t1)


def _regular(rng: random.Random) -> Iterator[Pair]:
    for _ in range(REGULAR):
        t1 = rand_regular(rng, rng.randint(0, 4))
        if rng.random() < 0.45:
            t2 = lawify(rng, t1)
        elif rng.random() < 0.5:
            t2 = perturb(rng, t1)
        else:
            t2 = rand_regular(rng, rng.randint(0, 4))
        yield t1, t2


SUITES = (("laws", _laws), ("perturbed", _perturbed), ("regular", _regular))


def verdict(t1: Type, t2: Type, trace: TraceFn | None = None) -> str:
    try:
        return "E" if equivalent(t1, t2, trace=trace) else "N"
    except Inconclusive:
        return "I"


def compute() -> dict[str, str]:
    """Each suite's verdicts, one letter per pair, in drawing order."""
    out = {}
    for name, draw in SUITES:
        rng = random.Random(f"{SEED}:{name}")
        out[name] = "".join(verdict(t1, t2) for t1, t2 in draw(rng))
    return out


def read_golden() -> dict[str, str]:
    out: dict[str, str] = {}
    name = None
    with open(GOLDEN, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("suite "):
                name = line.split()[1]
                out[name] = ""
            else:
                out[name] += line
    return out


def write_golden(verdicts: dict[str, str]) -> None:
    lines = [
        "# Verdicts of sluice.equiv.equivalent on the seeded pairs of tests/verdict_corpus.py.",
        "# E = equivalent, N = not equivalent, I = inconclusive (default budget).",
        "# Regenerate: PYTHONPATH=src python tests/verdict_corpus.py --write",
    ]
    for name, letters in verdicts.items():
        counts = " ".join(f"{c}={letters.count(c)}" for c in "ENI")
        lines.append(f"suite {name} {len(letters)} {counts}")
        lines += [letters[i:i + WIDTH] for i in range(0, len(letters), WIDTH)]
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def ladder_queries() -> Iterator[tuple[str, Pair]]:
    """TreeC against its k-fold unfolding and against that unfolding's ?Bool
    variant, k = 1..LADDER, named `ladder <k>` and `ladder-bool <k>`. Each
    unfolding holds the previous one at both `x` sites, as one shared
    object."""
    tree_c = parse_type(TREE_C)
    unfolded = tree_c
    for k in range(1, LADDER + 1):
        unfolded = S.subst(tree_c.body, {tree_c.var: unfolded})
        yield f"ladder {k}", (tree_c, unfolded)
        yield f"ladder-bool {k}", (tree_c, receive_bool(unfolded))


def traced_queries() -> Iterator[tuple[str, Pair]]:
    """The ladder rungs, then every `TRACE_STRIDE`-th pair of each suite,
    each named `<suite> <index>`."""
    yield from ladder_queries()
    for name, draw in SUITES:
        for i, pair in enumerate(draw(random.Random(f"{SEED}:{name}"))):
            if i % TRACE_STRIDE == 0:
                yield f"{name} {i}", pair


def search_line(name: str, t1: Type, t2: Type) -> str:
    """`<name> <verdict> <nodes> <sha256 of the trace stream>`. Every node
    the search processes emits one trace line, except the node whose
    simplification yields the empty node, which ends an equivalent search
    with an `empty` line instead."""
    events: list[str] = []
    letter = verdict(t1, t2, lambda depth, count, action:
                     events.append(f"{depth} {count} {action}\n"))
    nodes = sum(not e.endswith(" empty: equivalent\n") for e in events) + (letter == "E")
    digest = hashlib.sha256("".join(events).encode()).hexdigest()
    return f"{name} {letter} {nodes} {digest}"


def compute_traces() -> list[str]:
    return [search_line(name, t1, t2) for name, (t1, t2) in traced_queries()]


def _read_lines(path: str) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return [line.rstrip("\n") for line in fh if line.strip() and not line.startswith("#")]


def _write_lines(path: str, header: list[str], lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(header + lines) + "\n")


def read_traces() -> list[str]:
    return _read_lines(TRACES)


def write_traces(lines: list[str]) -> None:
    _write_lines(TRACES, [
        "# Search shape of sluice.equiv.equivalent on the queries of tests/verdict_corpus.py.",
        "# <suite> <index> <verdict> <nodes processed> <sha256 of the trace stream>",
        "# Regenerate: PYTHONPATH=src python tests/verdict_corpus.py --write",
    ], lines)


def grammar_dump(t1: Type, t2: Type) -> str:
    """The grammar of a query as the search sees it: both types built over
    one grammar, then normed and pruned."""
    g, w1, w2 = build(t1, t2)
    compute_norms(g)
    prune(g)
    return dump(g, [w1, w2])


def compute_grammars() -> list[str]:
    """`<ladder query> <sha256>` per ladder query, then
    `<suite> <pairs> <sha256>` per suite over its pairs' dumps in order."""
    lines = [f"{name} {hashlib.sha256(grammar_dump(t1, t2).encode()).hexdigest()}"
             for name, (t1, t2) in ladder_queries()]
    for name, draw in SUITES:
        digest = hashlib.sha256()
        pairs = 0
        for t1, t2 in draw(random.Random(f"{SEED}:{name}")):
            digest.update(grammar_dump(t1, t2).encode() + b"\n\n")
            pairs += 1
        lines.append(f"{name} {pairs} {digest.hexdigest()}")
    return lines


def read_grammars() -> list[str]:
    return _read_lines(GRAMMARS)


def write_grammars(lines: list[str]) -> None:
    _write_lines(GRAMMARS, [
        "# Grammars sluice.grammar.build makes for the queries of tests/verdict_corpus.py,",
        "# after compute_norms and prune: a SHA-256 of grammar.dump(g, [w1, w2]).",
        "# <ladder query> <sha256> | <suite> <pairs> <sha256 over the suite's dumps>",
        "# Regenerate: PYTHONPATH=src python tests/verdict_corpus.py --write",
    ], lines)


if __name__ == "__main__":
    result = compute()
    if "--write" in sys.argv[1:]:
        write_golden(result)
        write_traces(compute_traces())
        write_grammars(compute_grammars())
    for name, letters in result.items():
        print(name, len(letters), {c: letters.count(c) for c in "ENI"})
