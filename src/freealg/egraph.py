"""Finite free algebras by grow-and-saturate congruence closure.

The engine maintains e-classes of terms over a generator profile.  Each
round first applies every operation to every tuple of existing classes
(GROW), then repeatedly matches axiom patterns against the classes and
merges the paired instances until quiet (MATCH).  Before each axiom is
matched, ``rebuild`` restores congruence closure and the match indexes in
one scan of the hash-cons table (CLOSE).  A round that creates no nodes
and merges nothing witnesses saturation: the quotient is closed under all
operations, satisfies all axioms, and is exactly the congruence generated
by the axiom instances, i.e. the free algebra on the profile.  Nodes are
only ever created by ``_node``, and representatives are extracted once,
when the saturated state is frozen.

Saturation may never happen (free algebras can be infinite); the budget
turns that into an explicit BudgetExceeded result, never an error.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .finalg import FiniteAlgebra
from .signature import Signature
from .terms import (
    GeneratorProfile,
    Identity,
    SortedVar,
    Term,
    arena_of,
    term_key,
)

GEN = "g"  # key tag for generator nodes; op nodes are tagged by op id


@dataclass(frozen=True)
class VarietyDef:
    """A signature plus a finite, ordered list of defining identities."""

    sig: Signature
    name: str
    axioms: tuple[Identity, ...]

    def __post_init__(self):
        for ax in self.axioms:
            if ax.vars.sig is not self.sig:
                raise ValueError(f"axiom {ax!r} is not over this signature")

    def extended(self, extra, name: str | None = None) -> "VarietyDef":
        """Subvariety defined by these axioms plus extra ones (list extension)."""
        return VarietyDef(
            self.sig,
            name or f"{self.name}+",
            self.axioms + tuple(extra),
        )


@dataclass(frozen=True)
class Budget:
    max_classes: int = 100_000
    max_rounds: int = 64

    def __post_init__(self):
        if self.max_classes <= 0 or self.max_rounds <= 0:
            raise ValueError("budget limits must be positive")


@dataclass(frozen=True)
class RoundStats:
    round: int
    nodes_created: int
    merges: int
    classes_after_grow: int
    classes_end: int


@dataclass
class BuildStats:
    rounds: list[RoundStats] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "rounds": [
                {
                    "round": r.round,
                    "nodes_created": r.nodes_created,
                    "merges": r.merges,
                    "classes_after_grow": r.classes_after_grow,
                    "classes_end": r.classes_end,
                }
                for r in self.rounds
            ]
        }


@dataclass
class BudgetExceeded:
    """Distinct non-error status: the free algebra may be infinite."""

    classes: int
    rounds: int
    limit: str  # 'classes' or 'rounds'
    stats: BuildStats

    def __bool__(self) -> bool:
        return False


@dataclass
class FreeAlgebraResult:
    variety: VarietyDef
    profile: GeneratorProfile
    algebra: FiniteAlgebra
    gen_images: dict[SortedVar, int]
    reps: tuple[tuple[Term, ...], ...]
    stats: BuildStats

    def sizes(self) -> tuple[int, ...]:
        return self.algebra.sizes

    def rep_strings(self, cap: int | None = None) -> dict[str, list[str]]:
        out = {}
        for s in self.variety.sig.sorts:
            col = [repr(t) for t in self.reps[s.id]]
            if cap is not None:
                col = col[:cap]
            out[s.name] = col
        return out


class _WatchMerged:
    def __init__(self, round: int):
        self.round = round


class _Tripped(Exception):
    def __init__(self, limit: str):
        self.limit = limit


class SaturationState:
    """E-classes over one profile: union-find, hash-consed nodes, worklists."""

    def __init__(self, variety: VarietyDef, profile: GeneratorProfile):
        self.variety = variety
        self.sig = variety.sig
        self.profile = profile
        self.parent: list[int] = []
        self.class_sort: list[int] = []
        self.key2class: dict[tuple, int] = {}
        self.gen_class: dict[SortedVar, int] = {}
        self.n_live = 0
        self.nodes_created = 0
        self.merges_done = 0
        self._dirty = False  # a merge was made since the last scan
        self._indexed_nodes = -1  # nodes_created when the indexes were built
        self.class_nodes: dict[int, list[tuple]] = {}
        self._sort_classes: dict[int, list[int]] = {}
        self.round = 0
        # match the side with more structure, merge with the other side
        self._compiled = []
        for ax in variety.axioms:
            if ax.rhs.length > ax.lhs.length:
                pat, other = ax.rhs, ax.lhs
            else:
                pat, other = ax.lhs, ax.rhs
            self._compiled.append((pat, other, ax.vars.variables()))
        for v in profile.variables():
            cls = self._new_class(v.sort)
            self.key2class[(GEN, v.name, v.sort)] = cls
            self.gen_class[v] = cls

    # union-find ----------------------------------------------------------

    def find(self, c: int) -> int:
        p = self.parent
        while p[c] != c:
            p[c] = p[p[c]]
            c = p[c]
        return c

    def _union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if rb < ra:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.n_live -= 1
        self.merges_done += 1
        self._dirty = True
        return True

    def _new_class(self, sort: int) -> int:
        cid = len(self.parent)
        self.parent.append(cid)
        self.class_sort.append(sort)
        self.n_live += 1
        return cid

    # nodes ----------------------------------------------------------------

    def _node(self, op_id: int, children: tuple[int, ...], result_sort: int) -> int:
        key = (op_id,) + tuple(self.find(c) for c in children)
        cls = self.key2class.get(key)
        if cls is not None:
            return self.find(cls)
        cls = self._new_class(result_sort)
        self.key2class[key] = cls
        self.nodes_created += 1
        return cls

    # congruence closure ----------------------------------------------------

    def rebuild(self):
        """Restore congruence closure and the match indexes.

        Each pass re-canonicalizes every node key, merges the classes of
        keys that become equal, and builds ``class_nodes`` and the sorted
        per-sort root lists on the way.  Passes repeat until one forces no
        merge; that pass's indexes are kept.  With no merge and no new node
        since the last scan, nothing can have changed and the scan is
        skipped.
        """
        if not self._dirty and self._indexed_nodes == self.nodes_created:
            return
        find = self.find
        while True:
            self._dirty = False
            fresh: dict[tuple, int] = {}
            nodes: dict[int, list[tuple]] = {}
            by_sort: dict[int, list[int]] = {s.id: [] for s in self.sig.sorts}
            seen: set[int] = set()
            for key, cls in self.key2class.items():
                if key[0] == GEN:
                    canon = key
                else:
                    canon = (key[0],) + tuple(find(c) for c in key[1:])
                root = find(cls)
                prev = fresh.get(canon)
                if prev is None:
                    fresh[canon] = root
                    if root not in seen:
                        seen.add(root)
                        by_sort[self.class_sort[root]].append(root)
                    if key[0] != GEN:
                        nodes.setdefault(root, []).append(canon)
                elif find(prev) != root:
                    self._union(prev, root)
                    fresh[canon] = find(prev)
            self.key2class = fresh
            if not self._dirty:
                break
        for col in by_sort.values():
            col.sort()
        self._sort_classes = by_sort
        self.class_nodes = nodes
        self._indexed_nodes = self.nodes_created

    def classes_of_sort(self, sort: int) -> list[int]:
        return self._sort_classes.get(sort, [])

    # round steps -----------------------------------------------------------

    def grow(self, budget: Budget) -> int:
        """Apply every op to every argument-class tuple from the round start."""
        self.rebuild()
        created0 = self.nodes_created
        for op in self.sig.ops:
            # the indexes stay as they were until the next rebuild
            pools = [self.classes_of_sort(s) for s in op.arg_sorts]
            for tup in itertools.product(*pools):
                self._node(op.id, tup, op.result_sort)
                if self.n_live > budget.max_classes:
                    raise _Tripped("classes")
        return self.nodes_created - created0

    def _match_pattern(self, pat: Term, cls: int, binding: dict):
        if pat.is_var():
            bound = binding.get(pat.var)
            if bound is None:
                b2 = dict(binding)
                b2[pat.var] = cls
                yield b2
            elif self.find(bound) == self.find(cls):
                yield binding
            return
        for key in self.class_nodes.get(cls, ()):
            if key[0] != pat.op.id:
                continue
            stack = [binding]
            for sub, child in zip(pat.children, key[1:]):
                nxt = []
                for b in stack:
                    nxt.extend(self._match_pattern(sub, child, b))
                stack = nxt
                if not stack:
                    break
            yield from stack

    def match_pass(self, budget: Budget) -> tuple[int, int]:
        """One pass over all axioms; returns (merges, nodes created)."""
        merges = 0
        created0 = self.nodes_created
        for pat, other, declared in self._compiled:
            self.rebuild()
            matches = []
            for cls in self.classes_of_sort(pat.sort):
                for b in self._match_pattern(pat, cls, {}):
                    matches.append((cls, b))
            for cls, binding in matches:
                missing = [v for v in declared if v not in binding]
                pools = [self.classes_of_sort(v.sort) for v in missing]
                for combo in itertools.product(*pools):
                    b = binding
                    if missing:
                        b = dict(binding)
                        b.update(zip(missing, combo))
                    lhs_cls = self.find(cls)
                    rhs_cls = self._instantiate(other, b)
                    if self._union(lhs_cls, rhs_cls):
                        merges += 1
                    if self.n_live > budget.max_classes:
                        raise _Tripped("classes")
        self.rebuild()
        return merges, self.nodes_created - created0

    def _instantiate(self, t: Term, binding: dict) -> int:
        if t.is_var():
            return self.find(binding[t.var])
        children = tuple(self._instantiate(c, binding) for c in t.children)
        return self._node(t.op.id, children, t.op.result_sort)


def _run(
    variety: VarietyDef,
    profile: GeneratorProfile,
    budget: Budget,
    watch: tuple[Term, Term] | None = None,
):
    """Drive rounds to saturation, budget exhaustion, or a watched merge."""
    state = SaturationState(variety, profile)
    stats = BuildStats()
    pair = None
    if watch is not None:
        pair = (
            state._instantiate(watch[0], state.gen_class),
            state._instantiate(watch[1], state.gen_class),
        )

    def watching() -> bool:
        return pair is not None and state.find(pair[0]) == state.find(pair[1])

    if watching():
        return _WatchMerged(0), state, stats
    rnd = 0
    while True:
        rnd += 1
        state.round = rnd
        if rnd > budget.max_rounds:
            return BudgetExceeded(state.n_live, rnd - 1, "rounds", stats), state, stats
        try:
            created = state.grow(budget)
            after_grow = state.n_live
            merges = 0
            while True:
                m, c = state.match_pass(budget)
                merges += m
                created += c
                if watching():
                    return _WatchMerged(rnd), state, stats
                if m == 0:
                    break
        except _Tripped as trip:
            if watching():
                return _WatchMerged(rnd), state, stats
            return BudgetExceeded(state.n_live, rnd, trip.limit, stats), state, stats
        stats.rounds.append(
            RoundStats(rnd, created, merges, after_grow, state.n_live)
        )
        if created == 0 and merges == 0:
            return None, state, stats  # saturated


def extract_representatives(state: SaturationState) -> dict[int, Term]:
    """Minimal member term per class under the canonical key order, which
    compares length first."""
    state.rebuild()
    arena = arena_of(state.sig)
    best: dict[int, Term] = {}

    def offer(root: int, t: Term) -> bool:
        cur = best.get(root)
        if cur is None or term_key(t) < term_key(cur):
            best[root] = t
            return True
        return False

    for v, cls in state.gen_class.items():
        offer(state.find(cls), arena.var(v))
    ops = state.sig.ops
    changed = True
    while changed:
        changed = False
        for key, cls in state.key2class.items():
            if key[0] == GEN:
                continue
            children = key[1:]
            if any(c not in best for c in children):
                continue
            op = ops[key[0]]
            t = arena.apply(op, tuple(best[c] for c in children))
            if offer(state.find(cls), t):
                changed = True
    return best


def freeze(state: SaturationState, stats: BuildStats) -> FreeAlgebraResult:
    sig = state.sig
    reps_by_class = extract_representatives(state)
    index: dict[int, int] = {}
    reps: list[tuple[Term, ...]] = []
    order: list[list[int]] = []
    for s in sig.sorts:
        roots = sorted(state.classes_of_sort(s.id), key=lambda r: term_key(reps_by_class[r]))
        for i, r in enumerate(roots):
            index[r] = i
        order.append(roots)
        reps.append(tuple(reps_by_class[r] for r in roots))
    sizes = tuple(len(col) for col in order)
    tables: dict[int, dict[tuple, int]] = {}
    for op in sig.ops:
        pools = [order[s] for s in op.arg_sorts]
        table: dict[tuple, int] = {}
        for tup in itertools.product(*pools):
            key = (op.id,) + tup
            cls = state.key2class.get(key)
            assert cls is not None, "saturated state must be op-closed"
            table[tuple(index[c] for c in tup)] = index[state.find(cls)]
        tables[op.id] = table
    algebra = FiniteAlgebra(sig, sizes, tables)
    gen_images = {v: index[state.find(c)] for v, c in state.gen_class.items()}
    return FreeAlgebraResult(
        variety=state.variety,
        profile=state.profile,
        algebra=algebra,
        gen_images=gen_images,
        reps=tuple(reps),
        stats=stats,
    )


def build_free_algebra(variety: VarietyDef, profile: GeneratorProfile, budget: Budget | None = None):
    """Saturate to the finite free algebra on the profile, or report budget
    exhaustion (a possibly infinite free algebra)."""
    budget = budget or Budget()
    outcome, state, stats = _run(variety, profile, budget)
    if isinstance(outcome, BudgetExceeded):
        return outcome
    assert outcome is None
    return freeze(state, stats)


NONDEGENERATE = "nondegenerate"
DEGENERATE = "degenerate"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class NondegeneracyReport:
    verdict: str
    sort: int
    detail: str


def nondegeneracy_check(variety: VarietyDef, sort, budget: Budget | None = None) -> NondegeneracyReport:
    """Whether the variety forces two sort-i generators together.

    Builds on two generators of the sort and watches their classes: a merge
    is immediately sound (merges only ever follow from the congruence), a
    saturated run with distinct classes is a proof of nondegeneracy, and a
    budget trip leaves the question open.
    """
    budget = budget or Budget()
    sig = variety.sig
    sort_id = sort if isinstance(sort, int) else sig.sort_named(sort).id
    name = sig.sorts[sort_id].name
    profile = GeneratorProfile.from_counts(sig, {name: 2})
    v1, v2 = profile.variables()
    arena = arena_of(sig)
    outcome, state, _ = _run(variety, profile, budget, watch=(arena.var(v1), arena.var(v2)))
    if isinstance(outcome, _WatchMerged):
        return NondegeneracyReport(
            DEGENERATE, sort_id, f"generators of sort '{name}' merged in round {outcome.round}"
        )
    if isinstance(outcome, BudgetExceeded):
        return NondegeneracyReport(
            UNKNOWN,
            sort_id,
            f"budget exhausted ({outcome.limit}) with the generators still distinct",
        )
    return NondegeneracyReport(
        NONDEGENERATE, sort_id, f"saturated with distinct sort-'{name}' generators"
    )


CONSEQUENCE_YES = "yes"
CONSEQUENCE_NO = "no"
CONSEQUENCE_UNKNOWN = "unknown"


def is_consequence(variety: VarietyDef, ident: Identity, budget: Budget | None = None) -> str:
    """Bounded-saturation consequence check; sound on 'yes' and on 'no'.

    'yes' means the two sides merged (every merge is congruence-derivable),
    'no' means saturation completed with the sides in distinct classes,
    'unknown' means the budget tripped first.
    """
    budget = budget or Budget()
    outcome, state, _ = _run(variety, ident.vars, budget, watch=(ident.lhs, ident.rhs))
    if isinstance(outcome, _WatchMerged):
        return CONSEQUENCE_YES
    if isinstance(outcome, BudgetExceeded):
        return CONSEQUENCE_UNKNOWN
    return CONSEQUENCE_NO
