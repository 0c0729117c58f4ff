"""Independent free-algebra oracle for the tests.

Works over explicit terms with a union-find keyed by term identity: grow
the term universe by applying operations to class representatives, merge
axiom instances obtained by plain substitution of representatives, and
restore congruence within the explicit term set.  No pattern matching, no
e-classes; only shared code is the term type itself.  The universe is
closed under subterms, so every term's children have a class.

Terms taller than the current height bound are cut off.  The bound starts
at the tallest axiom side.  A run at one bound ends when a pass adds no
term and makes no merge; if that pass had to cut terms off, the closure at
this bound is all it can be, so the oracle starts again from scratch one
height higher, up to ``max_length``.  A pass that cuts nothing off and
changes nothing proves the partition is the free algebra (see
``bruteforce_free_algebra``).

Axiom instances that would be cut off are noted but never built: each
variable may only take representatives short enough for its deepest
occurrence to stay under the bound.  This skips exactly the instances the
height check would reject, so the partition is the same as substituting
every combination, without the cubic cost on three-variable axioms.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from freealg.egraph import VarietyDef
from freealg.finalg import eval_term
from freealg.terms import GeneratorProfile, Term, arena_of, term_key


def substitute(t: Term, mapping: dict, arena) -> Term:
    """Homomorphic extension of a variable assignment into a term algebra."""
    if t.is_var():
        return mapping[t.var]
    return arena.apply(t.op, tuple(substitute(c, mapping, arena) for c in t.children))


def enumerate_terms(sig, vars: GeneratorProfile, max_length: int) -> list[Term]:
    """All well-sorted terms of length <= max_length, level by level.

    A term of length ``level + 1`` is an op applied to terms of at most
    ``level``, one of them of exactly ``level``, so each level's terms are
    new and distinct.
    """
    arena = arena_of(sig)
    terms = [arena.var(v) for v in vars.variables()]
    terms += [arena.apply(o, ()) for o in sig.ops if o.arity == 0]
    for level in range(max_length):
        pools = [[t for t in terms if t.sort == s.id] for s in sig.sorts]
        new = [
            arena.apply(op, args)
            for op in sig.ops
            if op.arity
            for args in itertools.product(*(pools[s] for s in op.arg_sorts))
            if max(c.length for c in args) == level
        ]
        if not new:
            break
        terms += new
    return terms


@dataclass
class OraclePartition:
    terms: list
    class_of: dict
    stabilized: bool

    def n_classes_by_sort(self, nsorts: int) -> tuple[int, ...]:
        seen = [set() for _ in range(nsorts)]
        for t, c in self.class_of.items():
            seen[t.sort].add(c)
        return tuple(len(s) for s in seen)


def bruteforce_free_algebra(
    variety: VarietyDef,
    profile: GeneratorProfile,
    max_length: int = 8,
    max_terms: int = 30000,
    max_iters: int = 60,
) -> OraclePartition:
    """Partition of an explicit term universe into free-algebra classes.

    ``stabilized=True`` means the last pass added no term, made no merge and
    cut no term off: the classes are closed under every operation applied
    to representatives, and every axiom instance over representatives holds.
    The quotient is then an algebra of the variety generated by the profile,
    and each of its identifications is derived from the axioms, so it is the
    free algebra.

    The limits are:

    - ``max_length``: the ceiling on the term height bound, which starts at
      the tallest axiom side and deepens by one each time a run at a bound
      ends with nothing new but terms cut off;
    - ``max_terms``: the size of the universe, checked on every insertion;
    - ``max_iters``: the passes of one run at one bound.

    When any of them stops the oracle, it returns the last partition with
    ``stabilized=False``.
    """
    tallest = max((max(ax.lhs.length, ax.rhs.length) for ax in variety.axioms), default=0)
    bound = min(tallest, max_length)
    while True:
        part, cut_off = _close(variety, profile, bound, max_terms, max_iters)
        if part.stabilized or not cut_off or bound >= max_length:
            return part
        bound += 1


class _TooManyTerms(Exception):
    pass


def _close(variety, profile, bound, max_terms, max_iters):
    """One run at a fixed height bound.

    Returns the partition and whether the run ended at a fixed point that
    had to cut terms off, the one case where a taller bound can help.
    """
    sig = variety.sig
    arena = arena_of(sig)
    terms: list[Term] = []
    index: dict[Term, int] = {}
    parent: list[int] = []

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> bool:
        ri, rj = find(i), find(j)
        if ri == rj:
            return False
        parent[max(ri, rj)] = min(ri, rj)
        return True

    def add(t: Term) -> int:
        got = index.get(t)
        if got is not None:
            return got
        for c in t.children:
            add(c)
        if len(terms) >= max_terms:
            raise _TooManyTerms
        index[t] = len(terms)
        terms.append(t)
        parent.append(len(parent))
        return index[t]

    def partition(stabilized: bool) -> OraclePartition:
        return OraclePartition(terms, {t: find(index[t]) for t in terms}, stabilized)

    rooms = [_room(ax, bound) for ax in variety.axioms]

    try:
        for v in profile.variables():
            add(arena.var(v))
        for op in sig.ops:
            if op.arity == 0:
                add(arena.apply(op, ()))

        for _ in range(max_iters):
            size_before = len(terms)
            merged_any = False
            truncated = False

            # representatives: minimal term per class
            reps: dict[int, Term] = {}
            for t in terms:
                r = find(index[t])
                cur = reps.get(r)
                if cur is None or (t.length, term_key(t)) < (cur.length, term_key(cur)):
                    reps[r] = t
            reps_by_sort: dict[int, list[Term]] = {}
            for t in reps.values():
                reps_by_sort.setdefault(t.sort, []).append(t)
            for col in reps_by_sort.values():
                col.sort(key=term_key)

            # close the universe under operations applied to representatives
            for op in sig.ops:
                if op.arity == 0:
                    continue
                pools = [reps_by_sort.get(s, []) for s in op.arg_sorts]
                for tup in itertools.product(*pools):
                    t = arena.apply(op, tup)
                    if t.length > bound:
                        truncated = True
                        continue
                    add(t)

            # axiom instances by substitution of representatives; a rep too
            # tall for its variable's room makes every instance with it cut off
            for ax, room in zip(variety.axioms, rooms):
                vs = ax.vars.variables()
                pools = [reps_by_sort.get(v.sort, []) for v in vs]
                fits = [[t for t in p if t.length <= room.get(v, bound)] for v, p in zip(vs, pools)]
                if all(pools) and fits != pools:
                    truncated = True
                for combo in itertools.product(*fits):
                    mapping = dict(zip(vs, combo))
                    lhs = substitute(ax.lhs, mapping, arena)
                    rhs = substitute(ax.rhs, mapping, arena)
                    if lhs.length > bound or rhs.length > bound:
                        truncated = True
                        continue
                    if union(add(lhs), add(rhs)):
                        merged_any = True

            # congruence closure inside the explicit universe
            while True:
                merged = False
                table: dict[tuple, int] = {}
                for t in terms:
                    if t.is_var():
                        continue
                    key = (t.op.id,) + tuple(find(index[c]) for c in t.children)
                    prev = table.get(key)
                    if prev is None:
                        table[key] = find(index[t])
                    elif union(prev, index[t]):
                        merged = True
                if not merged:
                    break
                merged_any = True

            if not merged_any and len(terms) == size_before:
                return partition(not truncated), truncated
    except _TooManyTerms:
        pass
    return partition(False), False


def _room(ax, bound: int) -> dict:
    """Tallest image each variable may take with both axiom sides under the bound.

    A substituted side is as tall as its deepest variable occurrence plus
    that variable's image, or as the side itself, whichever is taller.
    """
    room: dict = {}

    def walk(t: Term, depth: int) -> None:
        if t.is_var():
            room[t.var] = min(room.get(t.var, bound), bound - depth)
        for c in t.children:
            walk(c, depth + 1)

    walk(ax.lhs, 0)
    walk(ax.rhs, 0)
    return room


def agrees_with_engine(oracle: OraclePartition, result) -> bool:
    """Oracle partition equals the engine's, term by term.

    Two oracle terms share a class exactly when they evaluate to the same
    engine element: the map from oracle class to ``(sort, value)`` is well
    defined and injective.  Every engine element must also be hit.
    """
    assign = result.gen_images
    elem_of_class: dict[int, tuple[int, int]] = {}
    for t in oracle.terms:
        e = (t.sort, eval_term(result.algebra, t, assign))
        if elem_of_class.setdefault(oracle.class_of[t], e) != e:
            return False
    hit = set(elem_of_class.values())
    if len(hit) != len(elem_of_class):
        return False
    return hit == {(s, e) for s, size in enumerate(result.algebra.sizes) for e in range(size)}
