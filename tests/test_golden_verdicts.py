"""The decider reproduces every recorded verdict, search shape and grammar,
and the front end every recorded token stream, program and diagnostic (see
verdict_corpus.py)."""

from sluice import syntax as S
from sluice.grammar import build

from oracles import k_bisimilar_words
from verdict_corpus import (
    LADDER, SUITES, VERDICT_SUITES, compute, compute_frontend,
    compute_grammars, compute_traces, drawn, read_frontend, read_golden,
    read_grammars, read_traces,
)


def test_every_recorded_verdict_is_reproduced():
    golden = read_golden()
    assert sum(map(len, golden.values())) >= 10_000
    current = compute()
    assert list(current) == list(golden)
    for name, _ in VERDICT_SUITES:
        if current[name] == golden[name]:
            continue
        pairs = drawn(name)
        flips = [f"#{i}: {S.pretty(pairs[i][0])}  vs  {S.pretty(pairs[i][1])}: "
                 f"{golden[name][i]} -> {now}"
                 for i, now in enumerate(current[name]) if now != golden[name][i]]
        raise AssertionError(f"{len(flips)} {name} verdicts changed:\n" + "\n".join(flips[:10]))


def test_the_deep_suite_agrees_with_a_product_walk():
    # A depth-18 walk of the product of the two words refutes every recorded
    # N of the deep suite and finds no mismatch on any recorded E.
    letters = read_golden()["deep"]
    assert "I" not in letters
    pairs = drawn("deep")
    assert len(pairs) == len(letters)
    for (t1, t2), letter in zip(pairs, letters):
        g, w1, w2 = build(t1, t2)
        assert k_bisimilar_words(g, w1, w2, 18) == (letter == "E"), \
            (letter, S.pretty(t1), S.pretty(t2))


def test_every_recorded_search_is_reproduced():
    golden = read_traces()
    assert len(golden) >= 500
    current = compute_traces()
    assert [line.split()[:2] for line in current] == [line.split()[:2] for line in golden]
    changed = [f"{now.rsplit(' ', 1)[0]} (recorded {old.rsplit(' ', 1)[0]})"
               for old, now in zip(golden, current) if now != old]
    assert not changed, f"{len(changed)} searches changed:\n" + "\n".join(changed[:10])


def test_every_recorded_grammar_is_reproduced():
    golden = read_grammars()
    assert len(golden) == 2 * LADDER + len(SUITES)
    current = compute_grammars()
    changed = [now.rsplit(" ", 1)[0] for old, now in zip(golden, current) if now != old]
    assert len(current) == len(golden) and not changed, \
        f"{len(changed)} grammars changed: " + ", ".join(changed)


def test_every_recorded_front_end_result_is_reproduced():
    golden = read_frontend()
    current = compute_frontend()
    assert [line.rsplit(" ", 4)[0] for line in current] == \
        [line.rsplit(" ", 4)[0] for line in golden]
    stages = ("tokens", "program", "diagnostics", "verdicts")
    changed = []
    for old, now in zip(golden, current):
        name, *was = old.rsplit(" ", 4)
        differ = [stage for stage, a, b in zip(stages, was, now.rsplit(" ", 4)[1:]) if a != b]
        if differ:
            changed.append(f"{name}: {', '.join(differ)}")
    assert not changed, f"{len(changed)} front-end lines changed:\n" + "\n".join(changed)
