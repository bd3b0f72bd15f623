"""Recorded verdicts of the equivalence decider on seeded pairs.

The pairs are drawn with the generators in `gen.py` the way acceptance
criteria 3 and 4 draw them: Skip-unit, associativity and distributivity
instances; perturbed pairs; and tail-recursive pairs against a lawified,
perturbed or fresh partner. `golden/verdicts.txt` holds one letter per pair
(E equivalent, N not equivalent, I inconclusive), so a change to the decider
that flips any verdict shows up as a diff.

Rewrite the golden file (only when a verdict change is intended):

    PYTHONPATH=src python tests/verdict_corpus.py --write
"""

from __future__ import annotations

import os
import random
import sys
from typing import Iterator

from sluice import syntax as S
from sluice.equiv import Inconclusive, equivalent
from sluice.syntax import Choice, Semi, Skip, Type

from gen import lawify, perturb, rand_regular, rand_session

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "verdicts.txt")
SEED = 3001
LAW_ROUNDS = 1000  # four pairs each
PERTURBED = 4000
REGULAR = 2500
WIDTH = 100

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


def verdict(t1: Type, t2: Type) -> str:
    try:
        return "E" if equivalent(t1, t2) else "N"
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


if __name__ == "__main__":
    result = compute()
    if "--write" in sys.argv[1:]:
        write_golden(result)
    for name, letters in result.items():
        print(name, len(letters), {c: letters.count(c) for c in "ENI"})
