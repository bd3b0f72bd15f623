"""Independent oracles the test suite checks the implementation against.

Everything here works from first principles on its own data structures:
a transition semantics read directly off the type syntax, a depth-bounded
product-graph bisimilarity check, a fixed-point equivalence decision for the
tail-recursive fragment, a shortest-path norm, a congruence closure on
bounded words (by union-find, and by brute force as its reference), a
congruence test that scans every rule at every step, and kinding and
contractivity as separate walks that visit every path of a type. None of it
calls into the pipeline it is used to judge (the grammar translation, the
expansion-tree search, the norm fixed point, or the fused kinding walk).
"""

from __future__ import annotations

from collections import deque

from sluice import syntax as S
from sluice.syntax import (
    Kind, SU, SL, TU, TL, SESSION, FUNCTIONAL, UNRESTRICTED, LINEAR,
    Basic, Arrow, Pair, DataRef, Skip, Semi, Message, Choice, Rec, TVar, Type,
)

# ---------------------------------------------------------------------------
# A transition semantics on types themselves

Action = tuple[str, str]


def _skip_elim(t: Type) -> Type:
    match t:
        case Semi(l, r):
            l, r = _skip_elim(l), _skip_elim(r)
            if isinstance(l, Skip):
                return r
            if isinstance(r, Skip):
                return l
            return Semi(l, r)
        case Choice(view, branches):
            return Choice(view, tuple((lab, _skip_elim(ty)) for lab, ty in branches))
        case Rec(var, body):
            body = _skip_elim(body)
            if var not in S.free_tvars(body):
                return body
            return Rec(var, body)
        case _:
            return t


def type_step(t: Type, fuel: int = 200) -> dict[Action, Type]:
    """One-step transitions of a session type: unfold recursion, sequence the
    left operand first, fall through to the right when the left is done."""
    assert fuel > 0, "type_step ran out of fuel (non-contractive input?)"
    match t:
        case Skip():
            return {}
        case Message(polarity, payload):
            return {(polarity, payload): Skip()}
        case Choice(view, branches):
            tag = "+" if view == S.INTERNAL else "&"
            return {(tag, lab): ty for lab, ty in branches}
        case TVar(name):
            return {("$", name): Skip()}
        case Rec(var, body):
            return type_step(S.subst(body, {var: t}), fuel - 1)
        case Semi(l, r):
            ls = type_step(l, fuel - 1)
            if not ls:
                return type_step(r, fuel - 1)
            return {a: _skip_elim(Semi(l2, r)) for a, l2 in ls.items()}
    raise TypeError(f"not a session type: {t!r}")


# ---------------------------------------------------------------------------
# Depth-bounded product-graph bisimilarity

def k_bisimilar(step1, s1, step2, s2, depth: int) -> bool:
    """Breadth-first product construction over two transition functions:
    related states must offer the same actions, successor pairs are explored
    up to the depth bound. Exact for inequivalence within the bound."""
    seen: dict[tuple, int] = {}
    queue = deque([(s1, s2, depth)])
    while queue:
        a, b, k = queue.popleft()
        key = (a, b)
        if seen.get(key, -1) >= k:
            continue
        seen[key] = k
        ta, tb = step1(a), step2(b)
        if set(ta) != set(tb):
            return False
        if k == 0:
            continue
        for act in ta:
            queue.append((ta[act], tb[act], k - 1))
    return True


def k_bisimilar_types(t1: Type, t2: Type, depth: int) -> bool:
    return k_bisimilar(type_step, _skip_elim(t1), type_step, _skip_elim(t2), depth)


def _word_step(g):
    from sluice.grammar import step as gstep

    return lambda w: gstep(g, w)


def k_bisimilar_type_word(t: Type, g, w, depth: int) -> bool:
    """Cross-check a grammar word against the type it was translated from."""
    return k_bisimilar(type_step, _skip_elim(t), _word_step(g), w, depth)


def k_bisimilar_words(g, w1, w2, depth: int) -> bool:
    return k_bisimilar(_word_step(g), w1, _word_step(g), w2, depth)


# ---------------------------------------------------------------------------
# Fixed-point equivalence for the tail-recursive (regular) fragment

def regular_equivalent(t1: Type, t2: Type, state_cap: int = 100_000) -> bool:
    """Gay-Hole style fixed-point construction: grow a relation from the pair
    of roots, requiring matched actions into related successors; the visited
    set is the candidate bisimulation. Terminates on tail-recursive types,
    whose derivative state space is finite."""
    assumed: set[tuple[Type, Type]] = set()
    work = deque([(_skip_elim(t1), _skip_elim(t2))])
    while work:
        a, b = work.popleft()
        if (a, b) in assumed:
            continue
        sa, sb = type_step(a), type_step(b)
        if set(sa) != set(sb):
            return False
        assumed.add((a, b))
        assert len(assumed) < state_cap, "regular oracle exploded; input not regular?"
        for act in sa:
            work.append((_skip_elim(sa[act]), _skip_elim(sb[act])))
    return True


# ---------------------------------------------------------------------------
# Shortest-path norm on grammar words

def bfs_norm(g, start, cap: int = 24):
    """Length of the shortest transition sequence from a word to the empty
    word, by plain breadth-first search; None if none exists within the cap."""
    from sluice.grammar import step as gstep
    seen = {start}
    queue = deque([(start, 0)])
    while queue:
        w, d = queue.popleft()
        if not w:
            return d
        if d >= cap:
            continue
        for w2 in gstep(g, w).values():
            if w2 not in seen and len(w2) <= cap * 2:
                seen.add(w2)
                queue.append((w2, d + 1))
    return None


# ---------------------------------------------------------------------------
# Congruence closure over bounded words

def _bounded_words(alphabet, max_len):
    res = {()}
    frontier = {()}
    for _ in range(max_len):
        frontier = {w + (a,) for w in frontier for a in alphabet}
        res |= frontier
    return res


def congruence_closure(rel, alphabet, max_len: int = 4):
    """All pairs of words up to max_len in the congruence (over concatenation)
    generated by rel, as classes of a union-find over those words: merge the
    two sides of each pair of rel, then merge uc with vc and cu with cv for
    every u, v of one class and every word c, while both stay within max_len,
    until nothing merges.

    This is the set `pairwise_congruence_closure` computes. One-sided
    concatenation gives the pairwise kind within the bound: for a ~ b and
    c ~ d with |ac|, |bd| <= max_len, |bc| + |ad| = |ac| + |bd|, so |bc| or
    |ad| is within max_len, and ac ~ bc ~ bd or ac ~ ad ~ bd."""
    universe = sorted(_bounded_words(alphabet, max_len))
    parent = {w: w for w in universe}

    def find(w):
        while parent[w] != w:
            parent[w] = parent[parent[w]]
            w = parent[w]
        return w

    def union(u, v):
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
        return True

    def classes():
        out = {}
        for w in universe:
            out.setdefault(find(w), []).append(w)
        return out.values()

    for u, v in rel:
        if u in parent and v in parent:
            union(u, v)
    changed = True
    while changed:
        changed = False
        for members in classes():
            if len(members) < 2:
                continue
            for c in universe:
                right = [w + c for w in members if len(w) + len(c) <= max_len]
                left = [c + w for w in members if len(w) + len(c) <= max_len]
                for side in (right, left):
                    for w in side[1:]:
                        changed |= union(side[0], w)
    return {(u, v) for members in classes() for u in members for v in members}


def pairwise_congruence_closure(rel, alphabet, max_len: int = 4):
    """The same set by brute force, the reference for `congruence_closure`:
    close the pairs under reflexivity, symmetry, transitivity and pairwise
    concatenation, comparing every pair with every other until nothing
    changes."""
    universe = _bounded_words(alphabet, max_len)
    closure = {(w, w) for w in universe}
    closure |= {(u, v) for u, v in rel if u in universe and v in universe}
    closure |= {(v, u) for u, v in closure}
    changed = True
    while changed:
        changed = False
        add = set()
        for (a, b) in closure:
            for (c, d) in closure:
                if b == c and (a, d) not in closure:
                    add.add((a, d))
                ac, bd = a + c, b + d
                if len(ac) <= max_len and len(bd) <= max_len and (ac, bd) not in closure:
                    add.add((ac, bd))
        if add:
            closure |= add
            closure |= {(v, u) for u, v in add}
            changed = True
    return closure


# ---------------------------------------------------------------------------
# Congruence test by scanning every rule

def scanning_congruent(pair, rel) -> bool:
    """The decider's congruence test without its head-symbol index: peel
    equal head symbols or the sides of any matching rule (both directions of
    every pair of rel) from both words, until the pair is reflexive."""
    rules = []
    for p, q in rel:
        if p or q:
            rules.append((p, q))
            rules.append((q, p))
    seen = set()

    def go(u, v):
        if u == v:
            return True
        if (u, v) in seen:
            return False
        seen.add((u, v))
        if u and v and u[0] == v[0] and go(u[1:], v[1:]):
            return True
        for p, q in rules:
            if u[: len(p)] == p and v[: len(q)] == q and go(u[len(p):], v[len(q):]):
                return True
        return False

    return go(*pair)


# ---------------------------------------------------------------------------
# Kinding and contractivity as separate walks, each following every path

class ReferenceKindError(Exception):
    """A kind error of `reference_kind`; its argument is the message."""


def reference_kind(env, t: Type, names=None) -> Kind:
    """Least kind by one walk, then the contractivity check by another, with
    the messages and precedence `kinds.synth_kind` promises."""
    names = names or {}
    k = reference_least_kind(env, t, names)
    if not reference_contractive(t, names):
        raise ReferenceKindError(f"non-contractive recursive type {S.pretty(t)}")
    return k


def reference_least_kind(env, t: Type, names) -> Kind:
    match t:
        case Basic(_):
            return TU
        case Arrow(mult, dom, cod):
            reference_least_kind(env, dom, names)
            reference_least_kind(env, cod, names)
            return TU if mult == UNRESTRICTED else TL
        case Pair(fst, snd):
            k1 = reference_least_kind(env, fst, names)
            k2 = reference_least_kind(env, snd, names)
            return Kind(FUNCTIONAL, LINEAR if LINEAR in (k1.mult, k2.mult) else UNRESTRICTED)
        case DataRef(name):
            if name not in names:
                raise ReferenceKindError(f"unknown type name {name}")
            if names[name] is None:
                raise ReferenceKindError(f"type {name} is ill-formed")
            return names[name]
        case Skip():
            return SU
        case Semi(lhs, rhs):
            k1 = reference_least_kind(env, lhs, names)
            k2 = reference_least_kind(env, rhs, names)
            for side, k, operand in (("left", k1, lhs), ("right", k2, rhs)):
                if k.prekind != SESSION:
                    raise ReferenceKindError(
                        f"sequential composition requires session types; "
                        f"{side} operand {S.pretty(operand)} has kind {k}")
            return SU if k1 == SU and k2 == SU else SL
        case Message(_, _):
            return SL
        case Choice(_, branches):
            for lab, ty in branches:
                k = reference_least_kind(env, ty, names)
                if k.prekind != SESSION:
                    raise ReferenceKindError(
                        f"choice branch {lab} must be a session type, got kind {k}")
            return SL
        case Rec(var, body):
            k = reference_least_kind({**env, var: SU}, body, names)
            if k.prekind != SESSION:
                raise ReferenceKindError("only session types can be recursive")
            return k
        case TVar(name):
            if name not in env:
                raise ReferenceKindError(f"unbound type variable {name}")
            return env[name]
    raise TypeError(f"not a type: {t!r}")


def _no_action(t: Type, names) -> bool:
    match t:
        case Skip() | TVar(_):
            return True
        case Semi(lhs, rhs):
            return _no_action(lhs, names) and _no_action(rhs, names)
        case Rec(_, body):
            return _no_action(body, names)
        case DataRef(name):
            return bool(names) and names.get(name) == SU
    return False


def reference_unguarded(t: Type, names) -> frozenset:
    """Variables and names reachable from the head of `t` without an action,
    re-walking the left operand of every `;` to ask whether it acts."""
    match t:
        case TVar(name):
            return frozenset({name})
        case Rec(var, body):
            return reference_unguarded(body, names) - {var}
        case Semi(lhs, rhs):
            out = reference_unguarded(lhs, names)
            if _no_action(lhs, names):
                out |= reference_unguarded(rhs, names)
            return out
        case DataRef():
            return frozenset({t})
    return frozenset()


def reference_contractive(t: Type, names=None) -> bool:
    """Every `rec` in `t` has its variable guarded, asked of each `rec` by a
    fresh walk of its body."""
    match t:
        case Rec(var, body):
            return (var not in reference_unguarded(body, names)
                    and reference_contractive(body, names))
        case Semi(a, b) | Arrow(_, a, b) | Pair(a, b):
            return reference_contractive(a, names) and reference_contractive(b, names)
        case Choice(_, branches):
            return all(reference_contractive(ty, names) for _, ty in branches)
    return True
