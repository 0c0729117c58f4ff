"""Finite free algebras by grow-and-saturate congruence closure.

The engine maintains e-classes of terms over a generator profile.  Each
round first applies every operation to every tuple of existing classes
(GROW), then repeatedly matches axiom patterns against the classes and
merges the paired instances until quiet (MATCH).  An instance builds its
other side by hash-cons lookups; when the outer node of that side is
missing, it goes straight into the matched class, a merge without a class
that would be merged away at once.  Before each axiom is matched,
``rebuild`` restores congruence closure from a worklist (CLOSE): only the
classes merged since the last rebuild are repaired, by putting the keys in
their use lists back in canonical form and merging the classes of keys
that then coincide.  Most repaired keys meet their canonical form in their
own class, and are dropped, not merged.  A loser's keys join its root's
keys as they stand, and each class that such moves leave out of table
order is sorted back once per rebuild, not once per merge.  Keys are
indexed as they enter the hash-cons table, so the match indexes need no
scan either.  A round that creates no nodes and merges nothing witnesses
saturation: the quotient is closed under all operations, satisfies all
axioms, and is exactly the congruence generated by the axiom instances,
i.e. the free algebra on the profile.  Nodes are only ever created by
``_make``, entries leave the table and its indexes only in ``rebuild``,
and representatives are extracted once, when the saturated state is
frozen.  Extraction compares the canonical keys of candidate terms without
making them, as egg's extractor compares costs (Willsey et al., POPL
2021), and then makes one term per class.

MATCH is relational and semi-naive (Zhang et al., "Relational E-Matching",
POPL 2022).  The hash-cons table is the relation: each canonical key
``(op, children...)`` with its class is one tuple of that op's table.
Each axiom's matched side is a conjunctive query, one atom per operation
node over integer slots, and its other side a slot-indexed build plan.
Every key carries two clocks.  Its stamp, kept as its value in its op's
index, is the generation (the count of rebuilds) closed after its
canonical form or its class's root last changed; its table position, kept
as its value in ``class_nodes``, changes only when its form does.  A query
joins only from the keys stamped after its own last pass: the first new
atom is the seed, the atoms before it must be old, and the join extends up
through the use lists and down through ``class_nodes``.  An atom is a
membership test, one hash-cons lookup and not a loop, as soon as its
arguments are all bound.  A match made of old keys alone existed at
the last pass and was instantiated then.  So did a match whose only new
atom is its root key, when that key's position shows it was in the table
at the last pass: only its class's root changed, by a merge that the
instance's union already implies, so the instance would be a no-op, and
the root atom's seed skips it.  Queries whose other side has a variable
the matched side lacks, and bare-variable patterns, join in full on every
pass.

Each query is compiled once, as Soufflé compiles Datalog rules (Jordan,
Scholz and Subotić, CAV 2016), into the Python source of one match kernel
that runs the join as nested loops and lookups and builds every instance
in straight-line code (see ``_Query``).  The queries are made once per
variety and shared by every saturation state over it, which keeps only the
generation and the table position count each query last matched at.
Kernels compile through ``finalg.compile_source``, the compiler the
identity checks also use, once per distinct source: a kernel's source
holds only op ids, sort ids and slot numbers, so axioms of one shape share
a compile only when their op and sort ids match as well.

Saturation may never happen (free algebras can be infinite); the budget
turns that into an explicit BudgetExceeded result, never an error.  The
class cap is checked in ``_make`` and, for the generators, at round 0.
"""

from __future__ import annotations

import functools
import itertools
from operator import itemgetter
from dataclasses import dataclass, field

from .finalg import NEST, FiniteAlgebra, compile_source, plan, tuple_source
from .report import Report
from .sexpr import InputError
from .signature import Signature
from .terms import (
    GeneratorProfile,
    Identity,
    SortedVar,
    Term,
    arena_of,
)

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

    def extended(self, extra, name: str) -> "VarietyDef":
        """Subvariety defined by these axioms plus extra ones (list extension)."""
        return VarietyDef(self.sig, name, self.axioms + tuple(extra))

    @functools.cached_property
    def _queries(self) -> tuple[_Query, ...]:
        """The axioms' match plans, made once per variety and shared by
        every saturation state over it: each axiom matches its side with
        more structure and merges it with the other side."""
        queries = []
        for ax in self.axioms:
            if ax.rhs.length > ax.lhs.length:
                pat, other = ax.rhs, ax.lhs
            else:
                pat, other = ax.lhs, ax.rhs
            queries.append(_Query(pat, other, ax.vars.variables()))
        return tuple(queries)


@dataclass(frozen=True)
class Budget:
    max_classes: int = 100_000
    max_rounds: int = 64

    def __post_init__(self):
        if self.max_classes <= 0 or self.max_rounds <= 0:
            raise InputError("budget limits must be positive")


@dataclass(frozen=True)
class RoundStats(Report):
    round: int
    nodes_created: int
    merges: int
    instances: int  # axiom instances instantiated
    classes_after_grow: int
    classes_end: int


@dataclass
class BuildStats(Report):
    rounds: list[RoundStats] = field(default_factory=list)


@dataclass
class BudgetExceeded(Report):
    """Distinct non-error status: the free algebra may be infinite."""

    classes: int
    rounds: int
    limit: str  # 'classes' or 'rounds'
    stats: BuildStats


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


class _Tripped(Exception):
    """A budget limit was hit; the one argument names the limit.  ``_run``
    turns every trip into its ``BudgetExceeded``."""


def _root(x: str) -> str:
    """Source for the root of class ``x``: ``find`` without a call when
    ``x`` is a root already, as most classes are."""
    return f"({x} if parent[{x}] == {x} else find({x}))"


def _names(slots) -> str:
    return ", ".join(f"v{s}" for s in slots)


class _Query:
    """One axiom, compiled into a match kernel.

    The matched side is a conjunctive query over the per-op tables: one
    atom ``(op, out, args)`` per operation node, over integer slots that
    hold classes, one slot per operation node and one per variable.  The
    other side is a build plan (see ``finalg.plan``) over the same slots, plus
    one slot per variable the matched side lacks.  Both become the Python
    source of one function, ``kernel(state, since, mark, pools)``,
    that makes a whole pass of the axiom:

    * The join.  For each atom as the seed, nested levels bind every
      atom: the seed's loop runs over its op's keys and their stamps, and
      the other loops go breadth first from it, each reached down from a
      bound out slot through ``class_nodes`` or up from a bound argument
      slot through the use lists.  As soon as a level leaves all the
      argument slots of an atom bound, that atom is one lookup of its key
      in the hash-cons table: with its out slot bound, the key must map to
      it; otherwise its value binds the out slot.  The kernel runs right
      after ``rebuild``, so the table is canonical, its values are roots
      and at most one key can match a fully bound atom: the lookup finds
      the key a loop would, only earlier, and the loops keep their order,
      so the matches and their order are those of the loops alone.  The
      seed takes only keys stamped after ``since``, the atoms before it
      only older keys (their stamps are read from the op index) and the
      atoms after it any key, so each match comes from exactly one seed;
      with ``since`` at -1 every key is new, and seed 0 alone finds every
      match.  The matches are collected, as tuples of the slots the
      instances read, before the first instance builds, so no index
      changes while a loop reads it.
    * The moved roots.  A key is stamped new when its form or its class's
      root changed, but its table position (its value in ``class_nodes``)
      changes only with its form, and ``mark`` is the count of keys
      entered when the query's last pass began.  So in seed 0, whose seed
      is the root atom, a key stamped after ``since`` at a position no
      later than ``mark`` kept its form and only moved to another class.
      A match on it whose other atoms are all stamped at or before
      ``since`` was found at the last pass with the root in a class since
      merged into the present one.  Its instance was made then, and its
      union still holds, so the seed skips it.  The other seeds keep their
      stamp check on atom 0, so every match kept comes from the same seed
      and in the same order as without the skip.
    * The instances.  Each match, with each combination of classes from
      ``pools`` for the missing variables, is one instance: the kernel
      looks the other side's nodes up in the hash-cons table, has
      ``_make`` enter a missing one, and unions the result with the matched
      class; a missing outer node goes straight into the matched class.
      A node past the class cap trips in ``_make``, mid-instance.

    Only op ids, sort ids and slot numbers enter the source, so no name
    from a definition file reaches it, and axioms of one shape share a
    kernel only when their op and sort ids match too.  A bare-variable
    pattern has no atom: its matches are the classes of its sort, the
    first of ``pools``.  ``pools`` holds the sorts whose classes
    ``match_pass`` passes; ``full`` queries, which a stamp cannot filter,
    join in full on every pass, with ``mark`` at 0.  A query holds nothing
    of any one state, so a variety's queries serve every state over it.
    """

    def __init__(self, pat: Term, other: Term, declared):
        slot_of: dict[SortedVar, int] = {}
        atoms: list = []
        slots = itertools.count()
        root = self._atoms(pat, slot_of, atoms, slots)
        width = next(slots)
        ranged = [] if atoms else [root]  # slots that range over a pool
        self.pools = [] if atoms else [pat.sort]
        for v in declared:
            if v not in slot_of:
                slot_of[v] = width
                ranged.append(width)
                self.pools.append(v.sort)
                width += 1
        steps: list = []
        top = plan(other, slot_of, width, steps)
        # a bare-variable pattern has no atom to take a delta from, and a
        # missing variable ranges over classes that no stamp tracks
        self.full = bool(ranged)
        self.source = self._source(atoms, root, ranged, steps, top)
        self.kernel = compile_source(self.source, "kernel")

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

    def _source(self, atoms, root: int, ranged, steps, top: int) -> str:
        """The kernel's source: the joins, then the instance loop."""
        built = {out for *_, out in steps}
        reads = {a for _, args, _, _ in steps for a in args} | {top, root}
        # the matched slots that an instance reads: each match keeps these
        keep = sorted(s for s in reads if s not in built and s not in ranged)
        lines = ["def kernel(state, since, mark, pools):"]
        helpers: list[str] = []
        body = ["table = state.key2class"]
        if atoms:
            body += [
                "by_op = state._by_op",
                "nodes = state.class_nodes",
                "uses = state._uses",
                "found = []",
                "add = found.append",
            ]
            add = f"add(({_names(keep)}))" if len(keep) > 1 else f"add(v{keep[0]})"
            for seed in range(1 if self.full else len(atoms)):
                moves = seed == 0 and not self.full  # seed 0 skips moved roots
                emit = [add]
                if moves and len(atoms) > 1:
                    # a match on a moved root key is new only by its other atoms
                    fresh = (f"by_op[{op}][k{j}] > since" for j, (op, _, _) in enumerate(atoms) if j)
                    emit = [f"if not moved or {' or '.join(fresh)}:", "    " + add]
                join = self._nest(self._join_order(atoms, seed, moves), set(), emit, helpers)
                if seed == 1:
                    body.append("if since >= 0:")
                body += join if seed == 0 else ["    " + line for line in join]
        body += [
            "parent = state.parent",
            "find = state.find",
            "make = state._make",
            "union = state._union",
            "n = 0",
        ]
        loops = []
        if atoms:
            loops.append(f"for {_names(keep)} in found:")
        if len(ranged) == 1:
            loops.append(f"for v{ranged[0]} in pools[0]:")
        elif ranged:
            loops.append(f"for {_names(ranged)} in product(*pools):")
        inner = ["n += 1", *self._build_lines(steps, top, root, built)]
        for depth, loop in enumerate(loops):
            body.append("    " * depth + loop)
        body += ["    " * len(loops) + line for line in inner]
        body.append("state.instances += n")
        lines += ["    " + line for line in body]
        return "\n".join(lines + helpers) + "\n"

    @staticmethod
    def _build_lines(steps, top: int, root: int, built) -> list[str]:
        """Build the other side and union it with the matched class."""
        if not steps:
            return [f"union(v{root}, v{top})"]
        lines = []
        for op, args, sort, out in steps:
            key = [str(op)] + [f"v{a}" if a in built else _root(f"v{a}") for a in args]
            lines += [f"k = {tuple_source(key)}", "c = table.get(k)"]
            if out != top:
                lines.append(f"v{out} = make(k, {sort}) if c is None else {_root('c')}")
        return lines + [
            "if c is None:",
            f"    make(k, {steps[-1][2]}, v{root})",
            f"elif {_root('c')} != {_root(f'v{root}')}:",
            f"    union(v{root}, c)",
        ]

    @staticmethod
    def _join_order(atoms, seed: int, moves: bool) -> list[tuple[list[str], list[str], set]]:
        """One level per atom: the lines that open its block, the lines of
        its body and the names it binds.  The loops go breadth first from
        the seed atom, down through ``class_nodes`` from a bound out slot
        and up through the use lists from a bound argument.  After each
        level, every atom whose argument slots are all bound is placed at
        once as one lookup in the table, an ``if``: it binds its out slot,
        or checks it when its parent has bound it.  A lookup finds at most
        one key, so it only prunes and binds what the loops after it would,
        and the loops keep their breadth-first order: the matches are the
        same, and found in the same order.  Atoms before the seed must be
        old, so no match is found twice.  With ``moves``, the seed is the
        root atom and notes in ``moved`` whether its key was in the table
        at the last pass: a lone atom skips such a key, and every level
        passes its key on to the stamp check of the match."""
        parent_of = {
            j: p
            for p, (_, _, args) in enumerate(atoms)
            for j, (_, out, _) in enumerate(atoms)
            if out in args
        }
        bound: set[int] = set()
        levels = []

        carry = moves and len(atoms) > 1  # the match's stamp check reads every key

        def names(j: int, slots) -> set[str]:
            return {f"v{s}" for s in slots} | ({f"k{j}"} if carry else set())

        def lookup(j: int):
            # the table is canonical and its values are roots, so the one
            # key a loop could find is (op, args), in class out if bound
            op, out, args = atoms[j]
            k = f"k{j}"
            head = [f"{k} = {tuple_source([str(op), *(f'v{a}' for a in args)])}"]
            if out in bound:
                test = f"table.get({k}) == v{out}"
            else:
                head.append(f"v{out} = table.get({k})")
                test = f"v{out} is not None"
            if j < seed:
                test += f" and by_op[{op}][{k}] <= since"
            bound.add(out)
            levels.append((head + [f"if {test}:"], [], names(j, {out})))

        def loop(j: int, header: str):
            op, out, args = atoms[j]
            k = f"k{j}"
            # the seed's loop runs over its op's keys alone
            checks = ["gen <= since"] if j == seed else [f"{k}[0] != {op}"]
            binds, mine = [], {}
            for pos, slot in enumerate(args, 1):
                if slot in mine:
                    checks.append(f"{k}[{pos}] != {k}[{mine[slot]}]")
                elif slot in bound:
                    checks.append(f"{k}[{pos}] != v{slot}")
                else:
                    binds.append(f"v{slot} = {k}[{pos}]")
                    mine[slot] = pos
            if j < seed:
                checks.append(f"by_op[{op}][{k}] > since")
            if out not in bound:  # the seed, or reached up from a child
                binds.append(f"v{out} = table[{k}]")
            bound.update(mine, (out,))
            body = [f"if {' or '.join(checks)}:", "    continue"]
            binding = names(j, set(mine) | {out})
            if j == seed and moves:
                # class_nodes keeps the key's table position, which only a
                # new form changes: at or below mark, the key only moved
                moved = f"nodes[v{out}][{k}] <= mark"
                if carry:
                    binds.append(f"moved = {moved}")
                    binding.add("moved")
                else:
                    binds += [f"if {moved}:", "    continue"]
            target = f"{k}, gen" if j == seed else k
            levels.append(([f"for {target} in {header}:"], body + binds, binding))

        # breadth first from the seed; the list is its own queue
        order = [(seed, f"by_op[{atoms[seed][0]}].items()")]
        done = {seed}
        for a, _ in order:
            for j in range(len(atoms)):
                if j not in done and parent_of.get(j) == a:
                    # the parent bound this atom's out slot to a root,
                    # and every key of class_nodes[root] maps to root
                    order.append((j, f"nodes.get(v{atoms[j][1]}, ())"))
                    done.add(j)
            p = parent_of.get(a)
            if p is not None and p not in done:
                order.append((p, f"uses.get(v{atoms[a][1]}, ())"))
                done.add(p)
        placed: set[int] = set()
        for j, header in order:
            if j in placed:
                continue
            loop(j, header)
            placed.add(j)
            while True:
                ready = [i for i, _ in order if i not in placed and bound.issuperset(atoms[i][2])]
                if not ready:
                    break
                lookup(ready[0])
                placed.add(ready[0])
        return levels

    @staticmethod
    def _nest(levels, bound: set, emit: list[str], helpers: list) -> list[str]:
        """Nest the levels' blocks around ``emit``; past ``NEST`` blocks
        the rest goes into a helper function that ``helpers`` collects,
        with every name bound so far as a parameter."""
        lines = []
        for depth, (head, body, binds) in enumerate(levels[:NEST]):
            lines += ["    " * depth + line for line in head]
            lines += ["    " * (depth + 1) + line for line in body]
            bound = bound | binds
        depth = min(len(levels), NEST)
        if len(levels) <= NEST:
            lines += ["    " * depth + line for line in emit]
            return lines
        i = len(helpers)
        helpers.append("")  # this helper's place, ahead of those it calls
        params = ", ".join(["since, table, by_op, nodes, uses, add", *sorted(bound)])
        lines.append("    " * depth + f"join{i}({params})")
        inner = _Query._nest(levels[NEST:], bound, emit, helpers)
        helpers[i] = "\n".join([f"def join{i}({params}):"] + ["    " + line for line in inner])
        return lines


class SaturationState:
    """A saturation run: union-find, hash-consed nodes, indexes, budget, stats."""

    def __init__(self, variety: VarietyDef, profile: GeneratorProfile, budget: Budget = Budget()):
        self.variety = variety
        self.sig = variety.sig
        self.profile = profile
        self.budget = budget
        self.stats = BuildStats()
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
        # the indexes are dicts used as ordered sets, for O(1) removal;
        # class_nodes maps each key of a class to its position in the table,
        # and _by_op each key of an op to its stamp
        self._entered = 0  # keys entered into the table so far
        self.class_nodes: dict[int, dict[tuple, int]] = {}
        self._uses: dict[int, dict[tuple, None]] = {}
        self._by_op: dict[int, dict[tuple, int]] = {op.id: {} for op in self.sig.ops}
        self._sort_classes: dict[int, dict[int, None]] = {s.id: {} for s in self.sig.sorts}
        self.round = 0
        self._queries = variety._queries
        # the generation and the count of keys entered when each query last matched
        self._seen = [(-1, 0)] * len(self._queries)
        for v in profile.variables():
            self.gen_class[v] = self._new_class(v.sort)

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

    def _node(self, op_id: int, children, result_sort: int) -> int:
        """The class of the node ``op_id(children)``, made if it is missing."""
        key = (op_id, *map(self.find, children))
        cls = self.key2class.get(key)
        if cls is not None:
            return self.find(cls)
        return self._make(key, result_sort)

    def _make(self, key: tuple, sort: int, into: int | None = None) -> int:
        """Enter the missing canonical key into a new class of ``sort``, or
        straight into class ``into`` when given, which counts as a merge;
        returns its class.  Every node is made here, and checked against
        the class cap."""
        if into is None:  # _new_class, inline on the path of every node
            cls = len(self.parent)
            self.parent.append(cls)
            self.class_sort.append(sort)
            self._sort_classes[sort][cls] = None
            self.n_live += 1
        else:
            cls = self.find(into)
            self.merges_done += 1
        self._enter(key, cls)
        self.nodes_created += 1
        if self.n_live > self.budget.max_classes:
            raise _Tripped("classes")
        return cls

    def _resolve(self, t: Term) -> int:
        """The class of a term over the profile's generators."""
        if t.is_var():
            return self.gen_class[t.var]
        return self._node(t.op.id, [self._resolve(c) for c in t.children], t.op.result_sort)

    # congruence closure ----------------------------------------------------

    def _enter(self, key: tuple, cls: int):
        """Put a canonical key of root ``cls`` at the end of the table and of
        every index, stamped new for the next rebuild's generation."""
        self.key2class[key] = cls
        self._entered += 1
        nodes = self.class_nodes.get(cls)
        if nodes is None:
            self.class_nodes[cls] = {key: self._entered}
        else:
            nodes[key] = self._entered
        self._by_op[key[0]][key] = self.generation + 1
        # each argument class once, without a set for the common arities
        if len(key) < 3:
            args = key[1:]
        elif len(key) == 3:
            args = key[1:2] if key[1] == key[2] else key[1:]
        else:
            args = set(key[1:])
        all_uses = self._uses
        for c in args:
            uses = all_uses.get(c)
            if uses is None:
                all_uses[c] = {key: None}
            else:
                uses[key] = None

    def rebuild(self):
        """Restore congruence closure and close a generation of stamps.

        Every key is indexed as it enters the table: in the keys of its
        class (``class_nodes``, with each key's position in the table), the
        keys each class is an argument of (the use lists) and the keys of
        its op, all in table order.  A rebuild repairs only what merges
        broke (Downey, Sethi and Tarjan, JACM 1980; egg's ``rebuild``).  For
        each loser, a class merged into another, the keys in its use list
        leave the table and every index, and re-enter in canonical form.  A
        key whose canonical form is there already is dropped when that form
        is in its own class, as it mostly is; in another class, it merges
        the two classes instead, which queues another loser.  The loser's
        use list is taken whole, with no copy: ``_enter`` writes only roots,
        so no key joins it while it is read, and each key leaves only the
        use lists of its other argument classes.  Then
        the loser's own keys move to its root: they keep their places in
        the table and join the end of the root's key list.  A root is noted
        as out of table order when its last key comes after the loser's
        first, or when the loser was noted itself; once the worklist is
        empty, each noted class that is still a root is sorted by position,
        once per rebuild rather than once per merge, so every index is in
        table order again before a match kernel reads it.

        A key keeps two clocks.  A key that enters or moves is stamped with
        the generation (the count of rebuilds) that the next rebuild closes,
        so its stamp changes exactly when its canonical form or its class's
        root changes, and a match all of whose keys are stamped at or before
        an earlier generation already existed then.  Its table position
        changes only when it enters, that is, when its form changes: a moved
        key keeps it.  A root key stamped new at an old position has only
        moved class, and a kernel skips the matches that are new by that
        key alone, whose instances are no-ops (see ``_Query``).
        """
        find, parent, table, by_op = self.find, self.parent, self.key2class, self._by_op
        class_nodes, all_uses, losers = self.class_nodes, self._uses, self._losers
        stamp = self.generation + 1
        unordered = set()  # classes whose keys are out of table order
        while losers:
            loser = losers.pop()
            for key in all_uses.pop(loser, ()):
                cls = table.pop(key)
                del class_nodes[cls][key]
                del by_op[key[0]][key]
                # out of the other argument classes' use lists, and into
                # canonical form with the kernels' inline root test
                if len(key) == 2:  # its one argument is the loser
                    canon = (key[0], find(loser))
                elif len(key) == 3:
                    a, b = key[1], key[2]
                    if a != b:
                        del all_uses[b if a == loser else a][key]
                    canon = (key[0], a if parent[a] == a else find(a), b if parent[b] == b else find(b))
                else:
                    for c in set(key[1:]) - {loser}:
                        del all_uses[c][key]
                    canon = (key[0], *[c if parent[c] == c else find(c) for c in key[1:]])
                other = table.get(canon)
                if other is None:
                    self._enter(canon, cls if parent[cls] == cls else find(cls))
                    continue
                # most repaired keys meet a key of their own class, and
                # are dropped
                other = other if parent[other] == other else find(other)
                cls = cls if parent[cls] == cls else find(cls)
                if other != cls:
                    self._union(other, cls)
            members = class_nodes.pop(loser, None)
            if members:
                root = find(loser)
                for key in members:
                    table[key] = root
                    by_op[key[0]][key] = stamp
                mine = class_nodes.get(root)
                # each list is in table order unless noted: compare the
                # root's last position with the loser's first
                if loser in unordered or (
                    mine and next(reversed(mine.values())) > next(iter(members.values()))
                ):
                    unordered.add(root)
                if mine:
                    mine.update(members)
                else:
                    class_nodes[root] = members
        for cls in unordered:
            nodes = class_nodes.get(cls)
            if nodes and parent[cls] == cls:
                class_nodes[cls] = dict(sorted(nodes.items(), key=itemgetter(1)))
        self.generation += 1

    def classes_of_sort(self, sort: int) -> list[int]:
        return list(self._sort_classes[sort])

    # round steps -----------------------------------------------------------

    def grow(self) -> int:
        """Apply every op to every argument-class tuple from the round start.

        ``grow`` runs right after its rebuild, so the table is canonical and
        the classes of each sort are roots, and it only makes nodes in new
        classes, so it merges nothing and no root changes while it runs.
        Each key it forms from those roots is therefore canonical as it
        stands: one table lookup tells whether it is there, with no ``find``.
        """
        self.rebuild()
        created0 = self.nodes_created
        table, make = self.key2class, self._make
        roots = [self.classes_of_sort(s.id) for s in self.sig.sorts]
        for op in self.sig.ops:
            for tup in itertools.product(*(roots[s] for s in op.arg_sorts)):
                key = (op.id, *tup)
                if key not in table:
                    make(key, op.result_sort)
        return self.nodes_created - created0

    def match_pass(self) -> tuple[int, int]:
        """One pass over all axioms; returns (merges, nodes created).

        Each query's kernel joins only from the keys stamped since it last
        matched: a match of old keys alone was instantiated then, and its
        nodes and merge persist.  It also gets the count of keys entered
        when it last matched, to tell a root key that only moved class from
        one with a new form.  An outer node built straight into its matched
        class counts as a merge.
        """
        merges = 0
        created0 = self.nodes_created
        seen = self._seen
        for i, q in enumerate(self._queries):
            self.rebuild()
            since, mark = (-1, 0) if q.full else seen[i]
            seen[i] = (self.generation, self._entered)
            merges0 = self.merges_done
            q.kernel(self, since, mark, [self.classes_of_sort(s) for s in q.pools])
            merges += self.merges_done - merges0
        self.rebuild()
        return merges, self.nodes_created - created0


def _run(state: SaturationState, watch: tuple[Term, Term] | None = None):
    """Drive rounds to saturation (None), a budget trip (its ``BudgetExceeded``,
    at round 0 if resolving the watched terms trips) or a watched merge (its round)."""
    pair = None

    def merged() -> bool:
        return pair is not None and state.find(pair[0]) == state.find(pair[1])

    try:
        if watch is not None:
            pair = (state._resolve(watch[0]), state._resolve(watch[1]))
        if merged():
            return 0
        if state.n_live > state.budget.max_classes:  # each generator is a class
            raise _Tripped("classes")
        for rnd in range(1, state.budget.max_rounds + 1):
            state.round = rnd
            instances0 = state.instances
            created = state.grow()
            after_grow = state.n_live
            merges = 0
            while True:
                m, c = state.match_pass()
                merges += m
                created += c
                if merged():
                    return rnd
                if m == 0:
                    break
            state.stats.rounds.append(
                RoundStats(rnd, created, merges, state.instances - instances0, after_grow, state.n_live)
            )
            if created == 0 and merges == 0:
                return None  # saturated
        raise _Tripped("rounds")
    except _Tripped as trip:
        if merged():
            return state.round
        return BudgetExceeded(state.n_live, state.round, trip.args[0], state.stats)


def extract_representatives(state: SaturationState) -> tuple[dict[int, tuple], dict[int, Term]]:
    """The least member term of each class and its key, by root.

    A term's canonical key orders terms by length first, then puts
    variables before applications, then compares sort and name, or op and
    the children's keys: a generator's key is ``(0, 0, sort, name)`` and
    an application's ``(length, 1, op, (child keys...))``.  The fixpoint
    compares keys alone, as egg's extractor compares costs: a table key
    ``(op, c1, ...)`` whose children all have a best key offers
    ``(1 + max child length, 1, op, (best[c1], ...))``, or ``(0, 1, op, ())``
    for a constant.  Each class keeps its least key and the generator or
    table key that gave it, until a pass changes nothing.  Only then is
    one term made per class, in order of length: a child's key is shorter
    than its parent's, so its term is made first.  The rebuild leaves
    every table key canonical and every value a root.
    """
    state.rebuild()
    best: dict[int, tuple] = {}
    won: dict[int, object] = {}  # the generator or table key that gave each best key
    for v, cls in state.gen_class.items():
        root = state.find(cls)
        key = (0, 0, v.sort, v.name)
        cur = best.get(root)
        if cur is None or key < cur:
            best[root] = key
            won[root] = v
    get, length = best.get, itemgetter(0)
    changed = True
    while changed:
        changed = False
        for node, cls in state.key2class.items():
            if len(node) == 1:
                key = (0, 1, node[0], ())
            else:
                children = tuple(map(get, node[1:]))
                if None in children:
                    continue
                key = (1 + max(map(length, children)), 1, node[0], children)
            cur = get(cls)
            if cur is None or key < cur:
                best[cls] = key
                won[cls] = node
                changed = True
    arena = arena_of(state.sig)
    ops = state.sig.ops
    reps: dict[int, Term] = {}
    for root, key in sorted(best.items(), key=lambda item: item[1][0]):
        node = won[root]
        if key[1] == 0:
            reps[root] = arena.var(node)
        else:
            reps[root] = arena.apply(ops[node[0]], tuple(reps[c] for c in node[1:]))
    return best, reps


def freeze(state: SaturationState) -> FreeAlgebraResult:
    sig = state.sig
    keys, reps_by_class = extract_representatives(state)
    index: dict[int, int] = {}
    reps: list[tuple[Term, ...]] = []
    for s in sig.sorts:
        roots = sorted(state.classes_of_sort(s.id), key=keys.__getitem__)
        for i, r in enumerate(roots):
            index[r] = i
        reps.append(tuple(reps_by_class[r] for r in roots))
    # the rebuild inside extraction left every key canonical and every
    # value a root, so each key is one entry; FiniteAlgebra checks that
    # the entries cover every table, which a saturated state's do
    tables: dict[int, dict[tuple, int]] = {op.id: {} for op in sig.ops}
    for key, cls in state.key2class.items():
        tables[key[0]][tuple(map(index.__getitem__, key[1:]))] = index[cls]
    algebra = FiniteAlgebra(sig, tuple(map(len, reps)), tables)
    gen_images = {v: index[state.find(c)] for v, c in state.gen_class.items()}
    return FreeAlgebraResult(
        variety=state.variety,
        profile=state.profile,
        algebra=algebra,
        gen_images=gen_images,
        reps=tuple(reps),
        stats=state.stats,
    )


def build_free_algebra(variety: VarietyDef, profile: GeneratorProfile, budget: Budget | None = None):
    """Saturate to the finite free algebra on the profile, or report budget
    exhaustion (a possibly infinite free algebra)."""
    state = SaturationState(variety, profile, budget or Budget())
    outcome = _run(state)
    return freeze(state) if outcome is None else outcome


NONDEGENERATE = "nondegenerate"
DEGENERATE = "degenerate"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class NondegeneracyReport:
    verdict: str
    detail: str
    build: FreeAlgebraResult | None = None  # the frozen run, when nondegenerate


def nondegeneracy_check(variety: VarietyDef, sort_id: int, budget: Budget | None = None) -> NondegeneracyReport:
    """Whether the variety forces two generators of sort ``sort_id`` together.

    Builds on two generators of the sort and watches their classes: a merge
    is immediately sound (merges only ever follow from the congruence), a
    saturated run with distinct classes is a proof of nondegeneracy, and a
    budget trip leaves the question open.

    A nondegenerate report carries the frozen free algebra of its run, which
    is the one ``build_free_algebra`` gives on the same profile and budget:
    the watched generators are classes already, so watching makes no node,
    and as they never merge the run does the same rounds as an unwatched
    build.
    """
    sig = variety.sig
    name = sig.sorts[sort_id].name
    profile = GeneratorProfile.from_counts(sig, {name: 2})
    v1, v2 = profile.variables()
    arena = arena_of(sig)
    state = SaturationState(variety, profile, budget or Budget())
    outcome = _run(state, watch=(arena.var(v1), arena.var(v2)))
    if isinstance(outcome, BudgetExceeded):
        return NondegeneracyReport(
            UNKNOWN, f"budget exhausted ({outcome.limit}) with the generators still distinct"
        )
    if outcome is not None:
        return NondegeneracyReport(
            DEGENERATE, f"generators of sort '{name}' merged in round {outcome}"
        )
    return NondegeneracyReport(
        NONDEGENERATE, f"saturated with distinct sort-'{name}' generators", freeze(state)
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
    state = SaturationState(variety, ident.vars, budget or Budget())
    outcome = _run(state, watch=(ident.lhs, ident.rhs))
    if isinstance(outcome, BudgetExceeded):
        return CONSEQUENCE_UNKNOWN
    return CONSEQUENCE_NO if outcome is None else CONSEQUENCE_YES
