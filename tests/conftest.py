import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

PROGRAMS = os.path.join(os.path.dirname(__file__), "programs")


def program_source(name: str) -> str:
    with open(os.path.join(PROGRAMS, name), encoding="utf-8") as fh:
        return fh.read()


@pytest.fixture(scope="session")
def tree_source() -> str:
    return program_source("tree.fst")


@pytest.fixture(scope="session")
def cross_source() -> str:
    return program_source("cross.fst")


@pytest.fixture(scope="session")
def cross_doubled_source() -> str:
    return program_source("cross_doubled.fst")


def parse_expr(source: str):
    """Parse a standalone expression, as `parser.parse_type` parses a type."""
    from sluice.parser import _P, _parse_all

    return _parse_all(source, _P.expr)


def checked_program(source: str):
    from sluice.parser import parse_program
    from sluice.typecheck import check_program

    prog, diags = parse_program(source)
    assert prog is not None and not diags, [d.render() for d in diags]
    cd = check_program(prog)
    assert not cd, [d.render() for d in cd]
    return prog


@pytest.fixture
def root_walks(monkeypatch):
    """The (type, kind env) of every walk `kinds.Walk.facts` starts that its
    memo does not answer, in order: a pair listed twice was walked twice."""
    from sluice.kinds import Walk

    walks, facts = [], Walk.facts

    def counting(self, t, env):
        scope = self._scopes.get(id(env))
        if scope is None or id(t) not in scope[1]:
            walks.append((t, env))
        return facts(self, t, env)

    monkeypatch.setattr(Walk, "facts", counting)
    return walks


ROOT_REFUTATIONS = ([(0, 1, "expansion failed")], [(0, 1, "refuted by expansion probe")])


@pytest.fixture
def checked_searches(monkeypatch):
    """Wraps `equiv.search` to check the grammar each search is given and
    leaves, and lists each search's outcome: "root" for a query refuted at
    its root, "past" for one that got past it. Every nonterminal is filled
    when a search starts. A root refutation leaves the norms as they were;
    after any other search every nonterminal has a norm, and it is the norm
    a fresh `compute_norms` gives."""
    from sluice import equiv as E
    from sluice.grammar import Grammar, compute_norms

    outcomes, search = [], E.search

    def checked(g, w1, w2, budget=E.DEFAULT_BUDGET, trace=None):
        assert all(g.productions.values())
        before, events = dict(g.norms), []

        def record(*event):
            events.append(event)
            if trace:
                trace(*event)

        verdict = search(g, w1, w2, budget, record)
        if events in ROOT_REFUTATIONS:
            assert g.norms == before
            outcomes.append("root")
        else:
            assert g.norms == compute_norms(Grammar(dict(g.productions))).norms
            outcomes.append("past")
        return verdict

    monkeypatch.setattr(E, "search", checked)
    return outcomes
