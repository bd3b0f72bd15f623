"""Recorded verdicts of the equivalence decider on seeded pairs.

The pairs are drawn with the generators in `gen.py` the way acceptance
criteria 3 and 4 draw them: Skip-unit, associativity and distributivity
instances; perturbed pairs; and tail-recursive pairs against a lawified,
perturbed or fresh partner. `golden/verdicts.txt` holds one letter per pair
(E equivalent, N not equivalent, I inconclusive), so a change to the decider
that flips any verdict shows up as a diff.

The `deep` suite holds few, large pairs, recorded by verdict only: tree
recursions with one to three `x` against their plain, perturbed and
lawified 1- to 5-fold unfoldings, depth-7/8 sessions against two rounds of
`lawify`, and five perturbed 5-fold unfoldings of a three-`x` tree
(`DEEP_SEEDS`), which once ran out of budget and now end where the
search's breadth-first walk refutes them.

The `functional` suite, recorded by verdict only too, holds arrows and
pairs over basic types, the variable `f`, the datatype name `D` and session
types, each against a copy whose session components are lawified. Half
the copies carry one change more: a flipped multiplicity, a swapped pair,
another basic type, or a session component lawified again or perturbed.

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

`golden/frontend.txt` records the front end: for each input, a SHA-256 of
`lex`'s token tuples, of `repr` of the parsed program (positions included)
and of the rendered parse and check diagnostics, then one letter per source
(A accepted: no diagnostics, D diagnostics, X raised), so a change that
rewords diagnostics on purpose still shows whether any source moved between
accepted and rejected. The inputs are the example
programs, seeded single-character mutants of each, two seeded soups (one with
non-ASCII letters and digits) and `let` chains of depth 1..LET_DEPTH, so a
front-end change that moves a token, a node, a position or a diagnostic
shows up as a diff.

Rewrite the golden files (only when a verdict, search, grammar or front-end
change is intended):

    PYTHONPATH=src python tests/verdict_corpus.py --write

It prints `<name>: <old> -> <new>` for every golden line it changed (a
verdict, a node count or a hash), then their total.
"""

from __future__ import annotations

import functools
import hashlib
import os
import random
import sys
from typing import Iterator

from sluice import syntax as S
from sluice.diagnostics import DiagnosticError
from sluice.equiv import Inconclusive, TraceFn, equivalent
from sluice.grammar import build, compute_norms, dump, prune
from sluice.lexer import lex
from sluice.parser import parse_program, parse_type
from sluice.typecheck import check_program
from sluice.syntax import Choice, Semi, Skip, Type

from gen import lawify, perturb, rand_regular, rand_session, receive_bool

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "verdicts.txt")
TRACES = os.path.join(os.path.dirname(__file__), "golden", "search_traces.txt")
GRAMMARS = os.path.join(os.path.dirname(__file__), "golden", "grammars.txt")
FRONTEND = os.path.join(os.path.dirname(__file__), "golden", "frontend.txt")
PROGRAMS = os.path.join(os.path.dirname(__file__), "programs")
SEED = 3001
LAW_ROUNDS = 1000  # four pairs each
PERTURBED = 4000
REGULAR = 2500
WIDTH = 100
TREE_C = "rec x. +{Leaf: Skip, Node: !Int;x;x;?Int}"
LADDER = 8
TRACE_STRIDE = 20
MUTANTS = 150
SOUP = 400
LET_DEPTH = 50
DEEP_TREES = ("rec x. +{Leaf: Skip, Node: !Bool;x}",
              "rec x. +{Leaf: Skip, Node: !Bool;x;x}",
              "rec x. +{Leaf: Skip, Node: !Bool;x;x;x}")
DEEP_FOLDS = 5
DEEP_SESSIONS = 20
DEEP_SEEDS = (0, 2, 3, 6, 7)
FUNCTIONAL = 2000
# the functional suite's kinds of its one variable and one datatype name
ENV = {"f": S.TU}
DATAKINDS: dict[str, S.Kind | None] = {"D": S.TU}

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


def unfoldings(tree: Type, folds: int) -> Iterator[Type]:
    """The 1- to `folds`-fold unfoldings of a `rec` type, each holding the
    previous one at every site of the variable, as one shared object."""
    unfolded = tree
    for _ in range(folds):
        unfolded = S.subst(tree.body, {tree.var: unfolded})
        yield unfolded


def _deep(rng: random.Random) -> Iterator[Pair]:
    for source in DEEP_TREES:
        tree = parse_type(source)
        for unfolded in unfoldings(tree, DEEP_FOLDS):
            yield tree, unfolded
            yield tree, perturb(rng, unfolded)
            yield tree, lawify(rng, unfolded)
    for _ in range(DEEP_SESSIONS):
        t = rand_session(rng, rng.randint(7, 8))
        yield t, lawify(rng, lawify(rng, t))
    tree = parse_type(DEEP_TREES[-1])
    *_, unfolded = unfoldings(tree, DEEP_FOLDS)
    for seed in DEEP_SEEDS:
        yield tree, perturb(random.Random(seed), unfolded)


def rand_functional(rng: random.Random, depth: int) -> Type:
    """An arrow or a pair, `depth` levels deep at most, whose leaves are
    basic types, `f`, `D` and session types."""
    parts = [_functional_part(rng, depth - 1) for _ in range(2)]
    if rng.random() < 0.5:
        return S.Arrow(rng.choice([S.UNRESTRICTED, S.LINEAR]), *parts)
    return S.Pair(*parts)


def _functional_part(rng: random.Random, depth: int) -> Type:
    if depth > 0 and rng.random() < 0.6:
        return rand_functional(rng, depth)
    match rng.choice(["basic", "basic", "var", "name", "session", "session", "session"]):
        case "basic":
            return S.Basic(rng.choice(S.BASIC_NAMES))
        case "var":
            return S.TVar("f")
        case "name":
            return S.DataRef("D")
    return rand_session(rng, rng.randint(0, 3))


def _spots(t: Type, path: tuple[int, ...] = ()) -> list[tuple[int, ...]]:
    """Paths to the arrows, pairs, basic types and session components of a
    functional type."""
    match t:
        case S.Arrow(_, a, b) | S.Pair(a, b):
            return [path, *_spots(a, path + (0,)), *_spots(b, path + (1,))]
        case S.TVar() | S.DataRef():
            return []
    return [path]


def _changed(rng: random.Random, t: Type, path: tuple[int, ...]) -> Type:
    """`t` with the part at `path` changed: an arrow's multiplicity flipped,
    a pair's components swapped, a basic type replaced, or a session type
    lawified or perturbed."""
    match t:
        case S.Arrow(mult, dom, cod):
            if not path:
                return S.Arrow(S.LINEAR if mult == S.UNRESTRICTED else S.UNRESTRICTED, dom, cod)
            if path[0] == 0:
                return S.Arrow(mult, _changed(rng, dom, path[1:]), cod)
            return S.Arrow(mult, dom, _changed(rng, cod, path[1:]))
        case S.Pair(fst, snd):
            if not path:
                return S.Pair(snd, fst)
            if path[0] == 0:
                return S.Pair(_changed(rng, fst, path[1:]), snd)
            return S.Pair(fst, _changed(rng, snd, path[1:]))
        case S.Basic(name):
            return S.Basic(rng.choice([b for b in S.BASIC_NAMES if b != name]))
    return lawify(rng, t) if rng.random() < 0.5 else perturb(rng, t)


def _lawified(rng: random.Random, t: Type) -> Type:
    """`t` with every session component lawified."""
    match t:
        case S.Arrow(mult, dom, cod):
            return S.Arrow(mult, _lawified(rng, dom), _lawified(rng, cod))
        case S.Pair(fst, snd):
            return S.Pair(_lawified(rng, fst), _lawified(rng, snd))
        case S.Basic() | S.TVar() | S.DataRef():
            return t
    return lawify(rng, t)


def _functional(rng: random.Random) -> Iterator[Pair]:
    # the copy is lawified throughout, and half the time changed in one part
    for _ in range(FUNCTIONAL):
        t = rand_functional(rng, rng.randint(1, 4))
        copy = _lawified(rng, t)
        if rng.random() < 0.5:
            copy = _changed(rng, copy, rng.choice(_spots(copy)))
        yield t, copy


SUITES = (("laws", _laws), ("perturbed", _perturbed), ("regular", _regular))
# the suites of verdicts.txt; search traces and grammars cover `SUITES` only
VERDICT_SUITES = SUITES + (("deep", _deep), ("functional", _functional))


@functools.cache
def drawn(name: str) -> tuple[Pair, ...]:
    """The pairs of the suite `name`, in drawing order. Each suite draws from
    its own seed, so one draw per process serves every reader."""
    return tuple(dict(VERDICT_SUITES)[name](random.Random(f"{SEED}:{name}")))


def verdict(t1: Type, t2: Type, trace: TraceFn | None = None) -> str:
    try:
        return "E" if equivalent(t1, t2, ENV, datakinds=DATAKINDS, trace=trace) else "N"
    except Inconclusive:
        return "I"


def compute() -> dict[str, str]:
    """Each suite's verdicts, one letter per pair, in drawing order."""
    return {name: "".join(verdict(t1, t2) for t1, t2 in drawn(name))
            for name, _ in VERDICT_SUITES}


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
    variant, k = 1..LADDER, named `ladder <k>` and `ladder-bool <k>`."""
    tree_c = parse_type(TREE_C)
    for k, unfolded in enumerate(unfoldings(tree_c, LADDER), 1):
        yield f"ladder {k}", (tree_c, unfolded)
        yield f"ladder-bool {k}", (tree_c, receive_bool(unfolded))


def traced_queries() -> Iterator[tuple[str, Pair]]:
    """The ladder rungs, then every `TRACE_STRIDE`-th pair of each suite,
    each named `<suite> <index>`."""
    yield from ladder_queries()
    for name, _ in SUITES:
        for i, pair in enumerate(drawn(name)):
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
    for name, _ in SUITES:
        digest = hashlib.sha256()
        for t1, t2 in drawn(name):
            digest.update(grammar_dump(t1, t2).encode() + b"\n\n")
        lines.append(f"{name} {len(drawn(name))} {digest.hexdigest()}")
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


def frontend_parts(source: str) -> tuple[str, str, str, str]:
    """What the front end makes of `source`: its tokens as tuples, `repr` of
    the parsed program, the rendered parse and check diagnostics, and the
    verdict letter (A no diagnostics, D diagnostics, X raised). A lexer
    error stands in for the tokens, and an exception other than a diagnostic
    is recorded by its type, since the record must hold whatever the front
    end does, crashes included."""
    try:
        tokens = repr(lex(source))
    except DiagnosticError as exc:
        tokens = exc.diag.render()
    try:
        prog, diags = parse_program(source)
    except Exception as exc:
        return tokens, f"raised {type(exc).__name__}", "", "X"
    try:
        if prog is not None and not diags:
            diags = check_program(prog)
        rendered = "\n".join(d.render() for d in diags)
    except Exception as exc:
        return tokens, repr(prog), f"raised {type(exc).__name__}", "X"
    return tokens, repr(prog), rendered, "D" if diags else "A"


def let_chains(depth: int) -> list[str]:
    """Five programs around a `let` spine of `depth` bindings: a counting
    chain, a chain of pairs, a chain that shadows one name between the two
    ends of a channel, a chain that leaves two channels unused (the inner
    one is reported), and the counting chain cut before its last `in`."""
    plain = ["main : Int", "main =", "  let x0 = 0 in"]
    plain += [f"  let x{i} = x{i - 1} + 1 in" for i in range(1, depth)]
    plain.append(f"  x{depth - 1}")
    pairs = ["main : Int", "main =", "  let a0, x0 = (0, 0) in"]
    pairs += [f"  let a{i}, x{i} = (x{i - 1}, x{i - 1} + 1) in" for i in range(1, depth)]
    pairs.append(f"  x{depth - 1} + a{depth - 1}")
    shadow = ["main : Int", "main =", "  let c, e = new !Int;Skip in",
              "  let _ = fork (send 7 c) in", "  let x = 0 in"]
    shadow += ["  let x = x + 1 in"] * depth
    shadow += ["  let v, s = receive e in", "  x + v"]
    leak = ["main : Int", "main =", "  let c, e = new !Int in", "  let x = 0 in"]
    leak += ["  let k, m = new ?Bool in" if i == depth // 2 else "  let x = x + 1 in"
             for i in range(depth)]
    leak.append("  x")
    cut = plain[:-1]
    cut[-1] = cut[-1].removesuffix(" in")
    return ["\n".join(lines) + "\n" for lines in (plain, pairs, shadow, leak, cut)]


def frontend_inputs() -> Iterator[tuple[str, list[str]]]:
    """Each golden line's name and the sources it covers."""
    names = sorted(os.listdir(PROGRAMS))
    sources = {}
    for name in names:
        with open(os.path.join(PROGRAMS, name), encoding="utf-8") as fh:
            sources[name] = fh.read()
        yield f"program {name}", [sources[name]]
    for name in names:
        source, rng = sources[name], random.Random(f"{SEED}:mutants:{name}")
        mutants = []
        for _ in range(MUTANTS):
            i = rng.randrange(len(source))
            mutants.append(source[:i] + rng.choice("qZ;:()!?&{}[]|,=.") + source[i + 1:])
        yield f"mutants {name} {MUTANTS}", mutants
    rng = random.Random(f"{SEED}:soup")
    alphabet = "abzXY(){}[];:=->!?&+,. \n1'\\_|"
    yield f"soup {SOUP}", ["".join(rng.choice(alphabet) for _ in range(rng.randint(0, 60)))
                           for _ in range(SOUP)]
    # half raw characters, half a `main` whose body is a run of words
    rng = random.Random(f"{SEED}:soup-unicode")
    alphabet = "aZ\u00e9\u03bb\u0416\u01c5\u00b2\u0663\u00bd01 =:()\n+-'"
    words = ["x", "1", "42", "\u0663", "\u00b2", "1\u00b2", "x\u00b2", "\u00e9", "\u03bbx",
             "\u0416", "+", "(", ")", "let", "in", "=", "main"]
    soup = []
    for i in range(SOUP):
        if i % 2:
            soup.append("main : Int\nmain = "
                        + " ".join(rng.choice(words) for _ in range(rng.randint(1, 8))) + "\n")
        else:
            soup.append("".join(rng.choice(alphabet) for _ in range(rng.randint(0, 40))))
    yield f"soup-unicode {SOUP}", soup
    for depth in range(1, LET_DEPTH + 1):
        yield f"let {depth}", let_chains(depth)


def frontend_line(name: str, sources: list[str]) -> str:
    """`<name> <sha256 of the tokens> <of the programs> <of the diagnostics>
    <verdict letters>`, each hash over every source of the line in order and
    one letter per source."""
    digests = [hashlib.sha256() for _ in range(3)]
    letters = []
    for source in sources:
        *parts, letter = frontend_parts(source)
        for digest, part in zip(digests, parts):
            digest.update(part.encode() + b"\n\n")
        letters.append(letter)
    return " ".join([name] + [d.hexdigest() for d in digests] + ["".join(letters)])


def compute_frontend() -> list[str]:
    return [frontend_line(name, sources) for name, sources in frontend_inputs()]


def read_frontend() -> list[str]:
    return _read_lines(FRONTEND)


def write_frontend(lines: list[str]) -> None:
    _write_lines(FRONTEND, [
        "# What sluice's lexer, parser and typechecker make of the inputs of tests/verdict_corpus.py:",
        "# <input> <sha256 of lex's token tuples> <of repr(program)> <of the parse+check diagnostics>",
        "#   <one letter per source: A no diagnostics, D diagnostics, X raised>",
        "# Regenerate: PYTHONPATH=src python tests/verdict_corpus.py --write",
    ], lines)


def changed_lines(old: list[str], new: list[str], fields: int) -> list[str]:
    """`<name>: <old fields> -> <new fields>` for every golden line whose last
    `fields` fields (verdict, node count, hashes, letters) differ or that
    only one side has. SHA-256 hashes are cut to 12 digits; verdict letters
    are shown whole."""
    def short(field: str) -> str:
        return field[:12] if len(field) == 64 and field.islower() else field

    def split(line: str) -> tuple[str, str]:
        name, *rest = line.rsplit(" ", fields)
        return name, " ".join(map(short, rest))

    before, after = dict(map(split, old)), dict(map(split, new))
    return [f"{name}: {before.get(name, '(none)')} -> {after.get(name, '(none)')}"
            for name in dict.fromkeys([*before, *after])
            if before.get(name) != after.get(name)]


def _verdict_lines(verdicts: dict[str, str]) -> list[str]:
    return [f"{name} #{i} {letter}" for name, letters in verdicts.items()
            for i, letter in enumerate(letters)]


if __name__ == "__main__":
    result = compute()
    if "--write" in sys.argv[1:]:
        changes = changed_lines(_verdict_lines(read_golden()), _verdict_lines(result), 1)
        write_golden(result)
        for read, write, lines, fields in (
                (read_traces, write_traces, compute_traces(), 3),
                (read_grammars, write_grammars, compute_grammars(), 1),
                (read_frontend, write_frontend, compute_frontend(), 4)):
            changes += changed_lines(read(), lines, fields)
            write(lines)
        print("\n".join(changes + [f"{len(changes)} golden lines changed"]))
    for name, letters in result.items():
        print(name, len(letters), {c: letters.count(c) for c in "ENI"})
