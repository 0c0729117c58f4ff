"""Finite free algebras by grow-and-saturate congruence closure.

The engine maintains e-classes of terms over a generator profile.  Each
round first applies every operation to every tuple of existing classes
(GROW), then repeatedly matches axiom patterns against the classes and
merges the paired instances until quiet (MATCH).  An instance builds its
other side with ``_build``; when the outer node of that side is missing,
it goes straight into the matched class, a merge without a class that
would be merged away at once.  Before each axiom is matched, ``rebuild``
restores congruence closure from a worklist (CLOSE): only the classes
merged since the last rebuild are repaired, by putting the keys in their
use lists back in canonical form and merging the classes of keys that
then coincide.  Keys are indexed as they enter the hash-cons table, so
the match indexes need no scan either.  A round that creates no nodes
and merges nothing witnesses saturation: the quotient is closed under all
operations, satisfies all axioms, and is exactly the congruence generated
by the axiom instances, i.e. the free algebra on the profile.  Nodes are
only ever created by ``_node``, and representatives are extracted once,
when the saturated state is frozen.

MATCH is relational and semi-naive (Zhang et al., "Relational E-Matching",
POPL 2022).  The hash-cons table is the relation: each canonical key
``(op, children...)`` with its class is one tuple of that op's table.
Each axiom's matched side is compiled once into a conjunctive query, one
atom per operation node over integer slots, and its other side into a
slot-indexed build plan.  Every key carries a stamp: the generation (the
count of rebuilds) closed after its canonical form or its class's root
last changed, so a query
joins only from the keys stamped after its own last pass: the first new
atom is the seed, the atoms before it must be old, and the join extends up
through the use lists and down through ``class_nodes``.  A match made of
old keys alone existed at the last pass and was instantiated then.
Queries whose other side has a variable the matched side lacks, and
bare-variable patterns, join in full on every pass.

Saturation may never happen (free algebras can be infinite); the budget
turns that into an explicit BudgetExceeded result, never an error.
"""

from __future__ import annotations

import itertools
from operator import itemgetter
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
    instances: int  # axiom instances instantiated
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
                    "instances": r.instances,
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


_NEW, _OLD, _ANY = 1, -1, 0  # how a join step filters atoms by stamp
_SEED, _DOWN, _UP = 0, 1, 2  # where a join step takes its candidate keys


def _plan(t: Term, slot_of: dict[SortedVar, int], base: int, steps: list) -> int:
    """Compile a term into the steps that build its class from slot values.

    Variables read the slots ``slot_of`` gives them; each operation node,
    in post-order, appends one step ``(op, argument slots, result sort,
    slot)`` that writes a new slot, numbered ``base + len(steps)``.  Returns
    the slot that ends up holding the term's class.
    """
    if t.is_var():
        return slot_of[t.var]
    args = tuple(_plan(c, slot_of, base, steps) for c in t.children)
    steps.append((t.op.id, args, t.op.result_sort, base + len(steps)))
    return steps[-1][3]


class _Query:
    """One axiom, compiled for semi-naive matching.

    The matched side is a conjunctive query over the per-op tables: one
    atom ``(op, out, args)`` per operation node, over integer slots that
    hold classes, one slot per operation node and one per variable.  For
    each atom as the delta (seed) atom, ``plans`` holds a join order that
    reaches every other atom from it: down from a bound out slot through
    ``class_nodes``, or up from a bound argument slot through the use
    lists.  Each step is ``(op, source, from slot, age, out, fields)``,
    where a field ``(key position, slot, check)`` either checks a bound
    slot against the key or binds it.  The other side is a build plan
    (see ``_plan``) over the same slots, plus one slot per variable the
    matched side lacks, which ``missing`` fills from every class of its
    sort.  ``seen`` is the rebuild generation the query last matched at.
    """

    def __init__(self, pat: Term, other: Term, declared):
        slot_of: dict[SortedVar, int] = {}
        atoms: list = []
        slots = itertools.count()
        self.sort = pat.sort
        self.root = self._atoms(pat, slot_of, atoms, slots)
        width = next(slots)
        self.missing = []
        for v in declared:
            if v not in slot_of:
                slot_of[v] = width
                self.missing.append((width, v.sort))
                width += 1
        build: list = []
        self.other = _plan(other, slot_of, width, build)
        self.build = tuple(build)
        self.width = width + len(build)
        self.plans = [self._join_order(atoms, i) for i in range(len(atoms))]
        # a bare-variable pattern has no atom to take a delta from, and a
        # missing variable ranges over classes that no stamp tracks
        self.full = not atoms or bool(self.missing)
        self.seen = -1

    @staticmethod
    def _atoms(t: Term, slot_of: dict, atoms: list, slots) -> int:
        """Append the atoms of ``t`` in pre-order; returns the slot of its class."""
        if t.is_var():
            if t.var not in slot_of:
                slot_of[t.var] = next(slots)
            return slot_of[t.var]
        out = next(slots)
        i = len(atoms)
        atoms.append(None)
        args = tuple(_Query._atoms(c, slot_of, atoms, slots) for c in t.children)
        atoms[i] = (t.op.id, out, args)
        return out

    @staticmethod
    def _join_order(atoms, seed: int) -> tuple:
        """Steps that bind every atom, breadth first from the seed atom;
        atoms before the seed must be old, so no match is found twice."""
        parent_of = {
            j: p
            for p, (_, _, args) in enumerate(atoms)
            for j, (_, out, _) in enumerate(atoms)
            if out in args
        }
        bound: set[int] = set()

        def step(j: int, source: int, src: int | None) -> tuple:
            op, out, args = atoms[j]
            age = _NEW if j == seed else _OLD if j < seed else _ANY
            fields = []
            bound.add(out)
            for pos, slot in enumerate(args, 1):
                fields.append((pos, slot, slot in bound))
                bound.add(slot)
            return (op, source, src, age, out, tuple(fields))

        steps = [step(seed, _SEED, None)]
        queue, done = [seed], {seed}
        while queue:
            a = queue.pop(0)
            for j in range(len(atoms)):
                if j not in done and parent_of.get(j) == a:
                    steps.append(step(j, _DOWN, atoms[j][1]))
                    done.add(j)
                    queue.append(j)
            p = parent_of.get(a)
            if p is not None and p not in done:
                steps.append(step(p, _UP, atoms[a][1]))
                done.add(p)
                queue.append(p)
        return tuple(steps)


class SaturationState:
    """E-classes over one profile: union-find, hash-consed nodes, indexes."""

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
        self.instances = 0  # axiom instances instantiated
        self.generation = 0  # rebuilds so far
        self._losers: list[int] = []  # classes merged away, not yet repaired
        self._stamp: dict[tuple, int] = {}
        # the indexes are dicts used as ordered sets, for O(1) removal;
        # class_nodes maps each key of a class to its position in the table
        self._entered = 0  # keys entered into the table so far
        self.class_nodes: dict[int, dict[tuple, int]] = {}
        self._uses: dict[int, dict[tuple, None]] = {}
        self._by_op: dict[int, dict[tuple, None]] = {op.id: {} for op in self.sig.ops}
        self._sort_classes: dict[int, dict[int, None]] = {s.id: {} for s in self.sig.sorts}
        self.round = 0
        # match the side with more structure, merge with the other side
        self._queries = []
        for ax in variety.axioms:
            if ax.rhs.length > ax.lhs.length:
                pat, other = ax.rhs, ax.lhs
            else:
                pat, other = ax.lhs, ax.rhs
            self._queries.append(_Query(pat, other, ax.vars.variables()))
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
        del self._sort_classes[self.class_sort[rb]][rb]
        self._losers.append(rb)
        self.n_live -= 1
        self.merges_done += 1
        return True

    def _new_class(self, sort: int) -> int:
        cid = len(self.parent)
        self.parent.append(cid)
        self.class_sort.append(sort)
        # ids only grow, so each sort's roots stay in ascending order
        self._sort_classes[sort][cid] = None
        self.n_live += 1
        return cid

    # nodes ----------------------------------------------------------------

    def _node(self, op_id: int, children, result_sort: int, into: int | None = None) -> int:
        """The class of the node ``op_id(children)``, made if it is missing.

        A missing node goes into a new class, or straight into class
        ``into`` when given, which counts as a merge.
        """
        key = (op_id, *map(self.find, children))
        cls = self.key2class.get(key)
        if cls is not None:
            return self.find(cls)
        if into is None:
            cls = self._new_class(result_sort)
        else:
            cls = self.find(into)
            self.merges_done += 1
        self._enter(key, cls)
        self.nodes_created += 1
        return cls

    def _build(self, steps, root: int, vals: list[int], into: int | None = None) -> int:
        """Run a plan from ``_plan`` on slot values; the class it builds.

        With ``into``, the class the term is to join, a missing outer node
        goes straight into that class instead of a new one that the caller
        would merge away at once.
        """
        node, at = self._node, vals.__getitem__
        for op_id, args, sort, out in steps:
            vals[out] = node(op_id, map(at, args), sort, into if out == root else None)
        return self.find(vals[root])

    def _resolve(self, t: Term) -> int:
        """The class of a term over the profile's generators."""
        slot_of = {v: i for i, v in enumerate(self.gen_class)}
        steps: list = []
        root = _plan(t, slot_of, len(slot_of), steps)
        vals = list(self.gen_class.values()) + [0] * len(steps)
        return self._build(steps, root, vals)

    # congruence closure ----------------------------------------------------

    def _enter(self, key: tuple, cls: int):
        """Put a canonical key of root ``cls`` at the end of the table and of
        every index, stamped new for the next rebuild's generation."""
        self.key2class[key] = cls
        self._stamp[key] = self.generation + 1
        self._entered += 1
        nodes = self.class_nodes.get(cls)
        if nodes is None:
            nodes = self.class_nodes[cls] = {}
        nodes[key] = self._entered
        self._by_op[key[0]][key] = None
        for c in set(key[1:]):
            uses = self._uses.get(c)
            if uses is None:
                uses = self._uses[c] = {}
            uses[key] = None

    def _unindex(self, key: tuple) -> int:
        """Take a key out of the table and every index; returns its class."""
        cls = self.key2class.pop(key)
        del self._stamp[key]
        del self.class_nodes[cls][key]
        del self._by_op[key[0]][key]
        for c in set(key[1:]):
            del self._uses[c][key]
        return cls

    def rebuild(self):
        """Restore congruence closure and close a generation of stamps.

        Every key is indexed as it enters the table: in the keys of its
        class (``class_nodes``, with each key's position in the table), the
        keys each class is an argument of (the use lists) and the keys of
        its op, all in table order.  A rebuild repairs only what merges
        broke (Downey, Sethi and Tarjan, JACM 1980; egg's ``rebuild``).  For
        each loser, a class merged into another, the keys in its use list
        leave the table and re-enter it in canonical form; a key whose
        canonical form is there already merges the two classes instead,
        which queues another loser.  Then the loser's own keys move to its
        root: they keep their places in the table, and the root's key list
        is merged with theirs by position.  A key that enters or moves is
        stamped with the generation (the count of rebuilds) that the next
        rebuild closes, so a key is new exactly when its canonical form or
        its class's root changed, and a match all of whose keys are stamped
        at or before an earlier generation already existed then.
        """
        find, table, stamp = self.find, self.key2class, self._stamp
        losers = self._losers
        while losers:
            loser = losers.pop()
            for key in list(self._uses.get(loser, ())):
                cls = self._unindex(key)
                canon = (key[0], *map(find, key[1:]))
                other = table.get(canon)
                if other is None:
                    self._enter(canon, find(cls))
                else:
                    self._union(other, cls)
            self._uses.pop(loser, None)
            members = self.class_nodes.pop(loser, None)
            if members:
                root = find(loser)
                for key in members:
                    table[key] = root
                    stamp[key] = self.generation + 1
                mine = self.class_nodes.get(root)
                if mine:
                    # both are in table order: merge them by position
                    members = dict(sorted((*mine.items(), *members.items()), key=itemgetter(1)))
                self.class_nodes[root] = members
        self.generation += 1

    def classes_of_sort(self, sort: int) -> list[int]:
        return list(self._sort_classes[sort])

    # round steps -----------------------------------------------------------

    def grow(self, budget: Budget) -> int:
        """Apply every op to every argument-class tuple from the round start."""
        self.rebuild()
        created0 = self.nodes_created
        roots = [self.classes_of_sort(s.id) for s in self.sig.sorts]
        for op in self.sig.ops:
            for tup in itertools.product(*(roots[s] for s in op.arg_sorts)):
                self._node(op.id, tup, op.result_sort)
                if self.n_live > budget.max_classes:
                    raise _Tripped("classes")
        return self.nodes_created - created0

    def _join(self, q: _Query, since: int) -> list[list[int]]:
        """Slot values of every match of ``q`` with a key stamped after ``since``.

        Seed atom i takes only new keys, atoms before it only old ones and
        atoms after it any, so each match comes from exactly one seed.  With
        ``since`` at −1 every key is new, and seed 0 alone finds every match.
        """
        if not q.plans:
            return [[c] + [0] * (q.width - 1) for c in self.classes_of_sort(q.sort)]
        vals = [0] * q.width
        found: list[list[int]] = []
        for steps in q.plans[: 1 if since < 0 else None]:
            self._extend(steps, 0, vals, since, found)
        return found

    def _extend(self, steps, d: int, vals: list[int], since: int, found: list):
        """Bind step d's atom to each key that fits, then the steps after it."""
        if d == len(steps):
            found.append(vals.copy())
            return
        op, source, src, age, out, fields = steps[d]
        if source == _SEED:
            keys = self._by_op[op]
        else:
            keys = (self.class_nodes if source == _DOWN else self._uses).get(vals[src], ())
        stamp = self._stamp
        for key in keys:
            if key[0] != op or age and (stamp[key] > since) != (age == _NEW):
                continue
            for pos, slot, check in fields:
                if not check:
                    vals[slot] = key[pos]
                elif vals[slot] != key[pos]:
                    break
            else:
                vals[out] = self.key2class[key]
                self._extend(steps, d + 1, vals, since, found)

    def _instances(self, q: _Query, since: int):
        """Slot values of each axiom instance from the matches after ``since``."""
        pools = [self.classes_of_sort(sort) for _, sort in q.missing]
        slots = [slot for slot, _ in q.missing]
        for vals in self._join(q, since):
            for combo in itertools.product(*pools):
                for slot, c in zip(slots, combo):
                    vals[slot] = c
                yield vals

    def match_pass(self, budget: Budget) -> tuple[int, int]:
        """One pass over all axioms; returns (merges, nodes created).

        Each query joins only from the keys stamped since it last matched:
        a match of old keys alone was instantiated then, and its nodes and
        merge persist.  A join collects all its matches before the first
        instance builds, so no index changes while a join reads it.  An
        outer node built straight into its matched class counts as a merge.
        """
        merges = 0
        created0 = self.nodes_created
        for q in self._queries:
            self.rebuild()
            since = -1 if q.full else q.seen
            q.seen = self.generation
            merges0 = self.merges_done
            steps, other, root = q.build, q.other, q.root
            for vals in self._instances(q, since):
                self.instances += 1
                self._union(vals[root], self._build(steps, other, vals, vals[root]))
                if self.n_live > budget.max_classes:
                    raise _Tripped("classes")
            merges += self.merges_done - merges0
        self.rebuild()
        return merges, self.nodes_created - created0


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
        pair = (state._resolve(watch[0]), state._resolve(watch[1]))

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
        instances0 = state.instances
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
            RoundStats(rnd, created, merges, state.instances - instances0, after_grow, state.n_live)
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
