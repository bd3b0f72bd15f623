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
