"""The decider reproduces every recorded verdict (see verdict_corpus.py)."""

import random

from sluice import syntax as S

from verdict_corpus import SEED, SUITES, compute, read_golden


def test_every_recorded_verdict_is_reproduced():
    golden = read_golden()
    assert sum(map(len, golden.values())) >= 10_000
    current = compute()
    assert list(current) == list(golden)
    for name, draw in SUITES:
        if current[name] == golden[name]:
            continue
        pairs = list(draw(random.Random(f"{SEED}:{name}")))
        flips = [f"#{i}: {S.pretty(pairs[i][0])}  vs  {S.pretty(pairs[i][1])}: "
                 f"{golden[name][i]} -> {now}"
                 for i, now in enumerate(current[name]) if now != golden[name][i]]
        raise AssertionError(f"{len(flips)} {name} verdicts changed:\n" + "\n".join(flips[:10]))
