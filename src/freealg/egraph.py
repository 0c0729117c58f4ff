"""Finite free algebras by grow-and-saturate congruence closure.

The engine maintains e-classes of terms over a generator profile.  Each
round first applies every operation to every tuple of existing classes
(GROW), then repeatedly matches axiom patterns against the classes and
merges the paired instances until quiet (MATCH).  An instance builds its
other side by hash-cons lookups; when the outer node of that side is
missing, it goes straight into the matched class, a merge without a class
that would be merged away at once.  The union-find is flat, as in
quick-find: ``parent`` maps every class id straight to its root, the least
id of its class, so the kernels and ``rebuild`` read a root with one list
index and call no ``find``; a merge points the loser, and every class it
had absorbed, at the winner.  Before each axiom is matched, ``rebuild``
restores congruence closure from a worklist (CLOSE): only the classes
merged since the last rebuild are repaired, by putting the keys in
their use lists back in canonical form and merging the classes of keys
that then coincide.  Most repaired keys meet their canonical form in their
own class, and are dropped, not merged.  A loser's keys join its root's
keys as they stand, and each class that such moves leave out of table
order is sorted back once per rebuild, not once per merge.  A key enters
the hash-cons table at once, and its index entries wait in a queue that
the next rebuild writes, in entry order, before it reads anything; so the
match indexes need no scan either.  A round that creates no nodes and
merges nothing witnesses saturation: the quotient is closed under all
operations, satisfies all axioms, and is exactly the congruence generated
by the axiom instances, i.e. the free algebra on the profile.  Nodes are
only ever created by ``_make``, entries are written to the indexes, and
leave them and the table, only in ``rebuild``, and representatives are
extracted once, when the saturated state is frozen.  Extraction compares
the canonical keys of candidate terms without making them, as egg's
extractor compares costs (Willsey et al., POPL 2021), and makes no term:
each class's least key describes its representative in full, and the
frozen outcome keeps the keys, not the terms.

MATCH is relational and semi-naive (Zhang et al., "Relational E-Matching",
POPL 2022).  The hash-cons table is the relation: each canonical key
``(op, children...)`` with its class is one tuple of that op's table.
Each axiom's matched side is a conjunctive query, one atom per operation
node over integer slots, and its other side a slot-indexed build plan.
Time is one counter, ``clock``, which ``_enter`` advances for each key it
enters and ``rebuild`` once, after it indexes the queued keys.  A key's
table position, its value in ``class_nodes``, is the clock when it
entered, that is, when its canonical form last changed; its stamp, its
value in its op's index, is the clock when it entered or its class's root
last changed.  A query joins only from the keys stamped after the clock it
read as its last pass began: the first new atom is the seed, the atoms
before it must be old, and the join extends up through the use lists and
down through ``class_nodes``.  An atom is a membership test, one
hash-cons lookup and not a loop, as soon as its arguments are all bound.
A match made of old keys alone existed at the last pass and was
instantiated then.  So did a match whose only new atom is its root key,
when that key's position is no later than the same reading: only its
class's root changed, by a merge that the instance's union already
implies, so the instance would be a no-op, and the root atom's seed skips
it.  Queries whose other side has a variable the matched side lacks, or
that declare a variable that neither side reads, and bare-variable
patterns, join in full on every pass.

Each query is compiled once, as Soufflé compiles Datalog rules (Jordan,
Scholz and Subotić, CAV 2016), into the Python source of one match kernel
that runs the join as nested loops and lookups and builds each instance in
straight-line code at the join's innermost level (see ``_Query``).  As in
Soufflé, what an instance derives goes where the loops do not read: its
new keys wait in the index queue until the next rebuild, so a kernel
holds no list of matches, and a budget trip stops the join at the match
whose instance trips.  Since no index changes while a kernel runs, the
keys of a class that a loop below the seed would keep, by its tests on
the key, the class and the clock it joins from alone, are the same at
every visit in one run: the kernel filters each class's keys once, on its
first visit, into a list that lives in a dict local to that run, as Free
Join builds its tries on first access (Wang, Willsey and Suciu, SIGMOD
2023).  Each list is the ordered subsequence of the keys that the scan
would keep, so the matches and their order stay those of the scan, and a
key entered between two runs is seen by the next.  The queries are made
once per axiom structure per process, keyed by the axiom's entry in
``VarietyDef._structure``, which holds both sides' op ids, result sorts
and variable positions and the declared variables' sorts, and shared by
every variety and every saturation state: a witness extension, a
transported sort part or another variety whose axiom has the same
structure reuses the planned and compiled query, and a state keeps only
the clock each query last matched at.  Kernels compile through ``finalg.compile_source``, the compiler the
identity checks also use, once per distinct source: a kernel's source
holds only op ids, sort ids and slot numbers, so axioms of one shape share
a compile only when their op and sort ids match as well.

Saturation may never happen (free algebras can be infinite); the budget
turns that into an explicit BudgetExceeded result, never an error.  The
class cap is checked in ``_make`` and, for the generators, at round 0.

Each saturation runs once per structure per process: ``_saturate``, the
one driver behind ``build_free_algebra``, ``nondegeneracy_check`` and
``is_consequence``, memoizes its outcome under a key of all that a run
reads and of no sort or op name (see ``_saturate``).  The kept outcome is
what ``freeze`` returns, name-free too, and ``_result`` makes every
caller's result from it, the first caller's as well as a later one's.  So
the bundled witnesses that differ only by their names are saturated once,
and each caller gets a fresh result over its own names.

The cyclic garbage collector is paused while ``_run`` drives the rounds of
any saturation, and turned back on afterwards only if it was on.  A
saturation makes no reference cycle, so reference counting frees every
object it makes; a collection during the run could only traverse its
tuples and dicts and find nothing to free.
"""

from __future__ import annotations

import functools
import gc
import itertools
from collections import defaultdict
from operator import itemgetter
from dataclasses import dataclass, field, replace

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
    free_vars,
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
        """The axioms' match plans, one per axiom in order: each axiom
        matches its side with more structure and merges it with the other
        side.  A plan is made once per axiom structure per process, keyed
        by the axiom's entry in ``_structure``, and shared by every variety
        and every state.  That entry holds all that the plan reads: both
        sides' shapes and the declared variables' sorts, which give the
        pools of the variables the matched side lacks.  This is the one
        place that makes a ``_Query``."""
        queries = []
        for ax, key in zip(self.axioms, self._structure[2]):
            q = _planned.get(key)
            if q is None:
                if ax.rhs.length > ax.lhs.length:
                    pat, other = ax.rhs, ax.lhs
                else:
                    pat, other = ax.lhs, ax.rhs
                q = _planned[key] = _Query(pat, other, ax.vars.variables())
            queries.append(q)
        return tuple(queries)

    @functools.cached_property
    def _structure(self) -> tuple:
        """All that a saturation reads of the variety, and no name: the
        number of sorts, each op's argument and result sorts in id order,
        and each axiom as both sides' shapes and its declared variables'
        sorts (see ``_saturate``)."""
        axioms = []
        for ax in self.axioms:
            declared = ax.vars.variables()
            position = {v: i for i, v in enumerate(declared)}
            axioms.append((_shape(ax.lhs, position), _shape(ax.rhs, position), tuple(v.sort for v in declared)))
        ops = tuple((op.arg_sorts, op.result_sort) for op in self.sig.ops)
        return (len(self.sig.sorts), ops, tuple(axioms))


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


def _names(slots) -> str:
    return ", ".join(f"v{s}" for s in slots)


class _Query:
    """One axiom, compiled into a match kernel.

    The matched side is a conjunctive query over the per-op tables: one
    atom ``(op, out, args)`` per operation node, over integer slots that
    hold classes, one slot per operation node and one per variable.  The
    other side is a build plan (see ``finalg.plan``) over the same slots, plus
    one slot per variable the matched side lacks.  Both become the Python
    source of one function, ``kernel(state, since, pools)``,
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
      match.  Each match builds its instance where the join finds it, so
      the join reads the indexes while instances make keys: ``_enter``
      puts each new key in the table but only queues its index entries,
      and a lookup accepts a key only when its op's index holds it.  So
      no index changes while a loop reads it, no key made in the same
      kernel run is joined, and the matches and their order are those of
      the indexes as the kernel began.
    * The lists.  A loop below the seed reads a list, not the index: the
      keys of its class that pass its tests on the key, the class and
      ``since`` alone (the atom's op, for a use list the argument position
      it came up through, the equalities of a repeated variable, and for
      an atom before the seed the old-stamp test).  Its tests on the other
      bound slots stay in the loop.  The list is filled on the kernel
      run's first visit to the class, and kept by class in a dict of the
      run, ``memo`` and the filter's number, which the loops of every seed
      with the same filter share and the helpers past ``NEST`` take as
      parameters.  As no index changes during the run and ``since`` is
      fixed, each list is the ordered subsequence of the keys that the
      loop's scan would keep at every visit, so the matches and their
      order are the scan's.  Nothing keeps a list past the run, which a
      rebuild would make stale.
    * The moved roots.  A key is stamped new when its form or its class's
      root changed, but its table position (its value in ``class_nodes``)
      is the clock when it entered, which only a new form changes.  So in
      seed 0, whose seed is the root atom, a key stamped after ``since``
      at a position no later than ``since`` kept its form and only moved
      to another class.
      A match on it whose other atoms are all stamped at or before
      ``since`` was found at the last pass with the root in a class since
      merged into the present one.  Its instance was made then, and its
      union still holds, so the seed skips it.  The other seeds keep their
      stamp check on atom 0, so every match kept comes from the same seed
      and in the same order as without the skip.
    * The instances.  Each match, with each combination of classes from
      ``pools`` for the missing variables that the other side reads, is
      one instance, built at the
      innermost level of its seed's join, inside the moved-root check: the
      kernel looks the other side's nodes up in the hash-cons table, which
      holds every key made so far, by keys of roots that it reads straight
      from the flat ``parent``, has ``_make`` enter a missing one, and
      unions the result with the matched class; a missing outer node goes
      straight into the matched class.  A node past the class cap trips
      in ``_make``, mid-instance, and ends the join with it.  A variable
      that neither side reads changes no instance, so it gets no loop:
      the kernel only returns at once when its pool is empty, as the
      identity then holds vacuously.

    Only op ids, sort ids and slot numbers enter the source, so no name
    from a definition file reaches it, and axioms of one shape share a
    kernel only when their op and sort ids match too.  A bare-variable
    pattern has no atom: its matches are the classes of its sort, the
    first of ``pools``.  ``pools`` holds the sorts whose classes
    ``match_pass`` passes; ``full`` queries, which a stamp cannot filter,
    join in full on every pass, with ``since`` at -1.  A query holds nothing
    of any one state or variety, so it is made once per axiom structure per
    process (see ``VarietyDef._queries``) and serves every variety and
    every state.
    """

    def __init__(self, pat: Term, other: Term, declared):
        slot_of: dict[SortedVar, int] = {}
        atoms: list = []
        slots = itertools.count()
        root = self._atoms(pat, slot_of, atoms, slots)
        width = next(slots)
        ranged = [] if atoms else [root]  # slots that range over a pool
        self.pools = [] if atoms else [pat.sort]
        read = free_vars(other)
        unread = []  # the sorts of the variables that neither side reads
        for v in declared:
            if v in slot_of:
                continue
            if v in read:
                slot_of[v] = width
                ranged.append(width)
                self.pools.append(v.sort)
                width += 1
            else:
                unread.append(v.sort)
        self.pools += unread
        steps: list = []
        top = plan(other, slot_of, width, steps)
        # a bare-variable pattern has no atom to take a delta from, and a
        # missing variable ranges over classes that no stamp tracks, as a
        # variable that no side reads tests a pool that may fill later
        self.full = bool(ranged or unread)
        self.source = self._source(atoms, root, ranged, len(unread), steps, top)
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

    def _source(self, atoms, root: int, ranged, unread: int, steps, top: int) -> str:
        """The kernel's source: each seed's join, with the instance of each
        match built at its innermost level.  The last ``unread`` pools are
        those of the variables that neither side reads, which the kernel
        only tests for a class."""
        built = {out for *_, out in steps}
        lines = ["def kernel(state, since, pools):"]
        helpers: list[str] = []
        body = [
            "table = state.key2class",
            "parent = state.parent",
            "make = state._make",
            "union = state._union",
            "n = 0",
        ]
        for i in range(len(ranged), len(ranged) + unread):
            body += [f"if not pools[{i}]:", "    return"]
        instance = ["n += 1", *self._build_lines(steps, top, root, built)]
        if len(ranged) == 1:
            instance = [f"for v{ranged[0]} in pools[0]:", *("    " + line for line in instance)]
        elif ranged:
            looped = f"pools[:{len(ranged)}]" if unread else "pools"
            instance = [f"for {_names(ranged)} in product(*{looped}):", *("    " + line for line in instance)]
        if atoms:
            body += [
                "by_op = state._by_op",
                "nodes = state.class_nodes",
                "uses = state._uses",
            ]
            # each filter's lists of keys, by class, shared by every seed
            filters: dict[str, int] = {}
            joins = []
            for seed in range(1 if self.full else len(atoms)):
                moves = seed == 0 and not self.full  # seed 0 skips moved roots
                emit = instance
                if moves and len(atoms) > 1:
                    # a match on a moved root key is new only by its other atoms
                    fresh = (f"by_op[{op}][k{j}] > since" for j, (op, _, _) in enumerate(atoms) if j)
                    emit = [f"if not moved or {' or '.join(fresh)}:", *("    " + line for line in instance)]
                joins.append((self._join_order(atoms, seed, moves, filters), emit))
            memos = [f"memo{i}" for i in range(len(filters))]
            body += [f"{memo} = {{}}" for memo in memos]
            for seed, (levels, emit) in enumerate(joins):
                join = self._nest(levels, set(), emit, helpers, memos)
                if seed == 1:
                    body.append("if since >= 0:")
                body += join if seed == 0 else ["    " + line for line in join]
        else:
            body += instance
        body.append("state.instances += n")
        lines += ["    " + line for line in body]
        return "\n".join(lines + helpers) + "\n"

    @staticmethod
    def _build_lines(steps, top: int, root: int, built) -> list[str]:
        """Build the other side and union it with the matched class.  A
        class's root is one read of ``parent``, which holds every class's
        root (see ``SaturationState._union``)."""
        if not steps:
            return [f"union(v{root}, v{top})"]
        lines = []
        for op, args, sort, out in steps:
            key = [str(op)] + [f"v{a}" if a in built else f"parent[v{a}]" for a in args]
            lines += [f"k = {tuple_source(key)}", "c = table.get(k)"]
            if out != top:
                lines.append(f"v{out} = make(k, {sort}) if c is None else parent[c]")
        return lines + [
            "if c is None:",
            f"    make(k, {steps[-1][2]}, v{root})",
            f"elif parent[c] != parent[v{root}]:",
            f"    union(v{root}, c)",
        ]

    @staticmethod
    def _join_order(atoms, seed: int, moves: bool, filters: dict[str, int]) -> list[tuple[list[str], list[str], set]]:
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
        passes its key on to the stamp check of the match.  Each loop
        below the seed opens by reading, or filling, its class's list in
        the run's dict for its filter; ``filters`` numbers the filters,
        each written for class ``{v}``, across the seeds of one kernel."""
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
            # a key made since the kernel began is in the table but in no
            # index yet, and no loop could reach it
            if j < seed:
                test += f" and by_op[{op}].get({k}, since + 1) <= since"
            else:
                test += f" and {k} in by_op[{op}]"
            bound.add(out)
            levels.append((head + [f"if {test}:"], [], names(j, {out})))

        def loop(j: int, index: str, via: int):
            op, out, args = atoms[j]
            k = f"k{j}"
            # the seed's loop runs over its op's keys alone; another loop's
            # tests on its key, its class and since alone pick its list
            checks = ["gen <= since"] if j == seed else []
            keep = [f"k[0] == {op}"]
            binds, first = [], {}
            for pos, slot in enumerate(args, 1):
                if slot in first:
                    if j == seed:
                        checks.append(f"{k}[{pos}] != {k}[{first[slot]}]")
                    else:
                        keep.append(f"k[{pos}] == k[{first[slot]}]")
                elif slot == via:  # the argument a use-list loop came up through
                    keep.append(f"k[{pos}] == {{v}}")
                elif slot in bound:
                    checks.append(f"{k}[{pos}] != v{slot}")
                else:
                    binds.append(f"v{slot} = {k}[{pos}]")
                    first[slot] = pos
            if j < seed:
                keep.append(f"by_op[{op}][k] <= since")
            if out not in bound:  # the seed, or reached up from a child
                binds.append(f"v{out} = table[{k}]")
            bound.update(first, (out,))
            body = [f"if {' or '.join(checks)}:", "    continue"] if checks else []
            binding = names(j, set(first) | {out})
            if j == seed and moves:
                # class_nodes keeps the clock at which the key entered: at
                # or below since, it was there at the last pass and only moved
                moved = f"nodes[v{out}][{k}] <= since"
                if carry:
                    binds.append(f"moved = {moved}")
                    binding.add("moved")
                else:
                    binds += [f"if {moved}:", "    continue"]
            if j == seed:
                head = [f"for {k}, gen in by_op[{op}].items():"]
            else:
                # the list of the keys that pass, filled on the first visit
                # to the class; loops with one filter share its lists
                test = " and ".join(keep)
                memo = f"memo{filters.setdefault(f'{index}: {test}', len(filters))}"
                head = [
                    f"keys = {memo}.get(v{via})",
                    "if keys is None:",
                    f"    keys = {memo}[v{via}] = []",
                    f"    for k in {index}.get(v{via}, ()):",
                    f"        if {test.format(v=f'v{via}')}:",
                    "            keys.append(k)",
                    f"for {k} in keys:",
                ]
            levels.append((head, body + binds, binding))

        # breadth first from the seed, each atom with the index it loops
        # over and the slot it reads its class from; the list is its own queue
        order = [(seed, "by_op", None)]
        done = {seed}
        for a, _, _ in order:
            for j in range(len(atoms)):
                if j not in done and parent_of.get(j) == a:
                    # the parent bound this atom's out slot to a root,
                    # and every key of class_nodes[root] maps to root
                    order.append((j, "nodes", atoms[j][1]))
                    done.add(j)
            p = parent_of.get(a)
            if p is not None and p not in done:
                order.append((p, "uses", atoms[a][1]))
                done.add(p)
        placed: set[int] = set()
        for j, index, via in order:
            if j in placed:
                continue
            loop(j, index, via)
            placed.add(j)
            while True:
                ready = [i for i, _, _ in order if i not in placed and bound.issuperset(atoms[i][2])]
                if not ready:
                    break
                lookup(ready[0])
                placed.add(ready[0])
        return levels

    @staticmethod
    def _nest(levels, bound: set, emit: list[str], helpers: list, memos: list[str]) -> list[str]:
        """Nest the levels' blocks around ``emit``, which builds one
        instance and counts it in ``n``.  Past ``NEST`` blocks the rest goes
        into a helper function that ``helpers`` collects: it takes the
        instance context, the run's dicts of lists, ``memos``, and every
        name bound so far as parameters, and returns the number of
        instances it built."""
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
        context = "since, table, by_op, nodes, uses, parent, make, union, pools"
        params = ", ".join([context, *memos, *sorted(bound)])
        lines.append("    " * depth + f"n += join{i}({params})")
        inner = _Query._nest(levels[NEST:], bound, emit, helpers, memos)
        helpers[i] = "\n".join(
            [f"def join{i}({params}):", "    n = 0", *("    " + line for line in inner), "    return n"]
        )
        return lines


# each axiom structure's query, made once per process (see VarietyDef._queries)
_planned: dict[tuple, _Query] = {}


def _shape(t: Term, position: dict[SortedVar, int]):
    """``t`` as nested tuples ``(op id, result sort, children)``, with each
    variable as its position in the declared profile."""
    if t.is_var():
        return position[t.var]
    return (t.op.id, t.op.result_sort, tuple([_shape(c, position) for c in t.children]))


class SaturationState:
    """A saturation run: union-find, hash-consed nodes, indexes, budget, stats."""

    def __init__(self, variety: VarietyDef, profile: GeneratorProfile, budget: Budget = Budget()):
        self.sig = variety.sig
        self.profile = profile
        self.budget = budget
        self.stats = BuildStats()
        self.parent: list[int] = []  # each class's root
        self._absorbed: dict[int, list[int]] = {}  # the classes merged into each root
        self.class_sort: list[int] = []
        self.key2class: dict[tuple, int] = {}
        self.gen_class: dict[SortedVar, int] = {}
        self.n_live = 0
        self.nodes_created = 0
        self.merges_done = 0
        self.instances = 0  # axiom instances instantiated
        self.clock = 0  # advanced by each key entered and by each rebuild
        self._losers: list[int] = []  # classes merged away, not yet repaired
        self._queued: list[tuple] = []  # keys entered since the last rebuild, not yet indexed
        # the indexes are dicts used as ordered sets, for O(1) removal;
        # class_nodes maps each key of a class to its position in the table,
        # and _by_op each key of an op to its stamp; a class's list appears
        # when a key is indexed in it, since every read uses get, which
        # inserts none
        self.class_nodes: defaultdict[int, dict[tuple, int]] = defaultdict(dict)
        self._uses: defaultdict[int, dict[tuple, None]] = defaultdict(dict)
        self._by_op: dict[int, dict[tuple, int]] = {op.id: {} for op in self.sig.ops}
        self._sort_classes: dict[int, dict[int, None]] = {s.id: {} for s in self.sig.sorts}
        self.round = 0
        self._queries = variety._queries
        # the clock right after the rebuild before each query's last pass
        self._seen = [-1] * len(self._queries)
        for v in profile.variables():
            self.gen_class[v] = self._new_class(v.sort)

    # union-find ----------------------------------------------------------

    def find(self, c: int) -> int:
        return self.parent[c]

    def _union(self, a: int, b: int) -> bool:
        """Merge the classes of ``a`` and ``b``; the least root wins.  The
        union-find is flat: ``parent`` holds every class's root, so the
        loser and each class it had absorbed are pointed at the winner,
        which then holds them all in ``_absorbed``."""
        parent, absorbed = self.parent, self._absorbed
        ra, rb = parent[a], parent[b]
        if ra == rb:
            return False
        if rb < ra:
            ra, rb = rb, ra
        moved = [rb, *absorbed.pop(rb, ())]
        for c in moved:
            parent[c] = ra
        absorbed.setdefault(ra, []).extend(moved)
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
        key = (op_id, *[self.parent[c] for c in children])
        cls = self.key2class.get(key)
        if cls is not None:
            return self.parent[cls]
        return self._make(key, result_sort)

    def _make(self, key: tuple, sort: int, into: int | None = None) -> int:
        """Enter the missing canonical key into a new class of ``sort``, or
        straight into the root of class ``into`` when given, which counts
        as a merge; returns its class.  Every node is made here, and
        checked against the class cap."""
        if into is None:
            cls = self._new_class(sort)
        else:
            cls = self.parent[into]
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
        """Put a canonical key of root ``cls`` at the end of the table, after
        a tick of the clock, which is its table position and its stamp, and
        queue it for the indexes.  So the indexes stay as they were while a
        kernel joins over them and its instances make keys: ``rebuild``
        indexes the queue (``_index``) before it reads anything, and at
        once for the keys it enters itself."""
        self.key2class[key] = cls
        self.clock += 1
        self._queued.append(key)

    def _index(self):
        """Index the queued keys in entry order, at the end of their class's
        keys, their op's keys and the use list of each argument class.  The
        clock has ticked once per queued key and for nothing else since the
        first, so a key's clock, its table position and its stamp, is the
        queue's base clock plus its place in the queue; its class is its
        value in the table, which no write changes before a rebuild.  A
        repeated argument, as in ``(op, a, a)``, writes the same use-list
        entry again, and a dict keeps it once and in place, so it needs no
        case of its own."""
        queued = self._queued
        table, class_nodes, by_op, uses = self.key2class, self.class_nodes, self._by_op, self._uses
        clock = self.clock - len(queued)
        for key in queued:
            clock += 1
            class_nodes[table[key]][key] = clock
            by_op[key[0]][key] = clock
            for c in key[1:]:
                uses[c][key] = None
        queued.clear()

    def rebuild(self):
        """Index the keys entered since the last rebuild, tick the clock
        once, and restore congruence closure.

        Every key is indexed in the keys of its class (``class_nodes``, with
        each key's position in the table), the keys each class is an
        argument of (the use lists) and the keys of its op, all in table
        order.  A key enters the table at once but its index entries wait
        in a queue, which a rebuild writes, in entry order, before it reads
        anything; the keys it enters itself are indexed at once.  So a match
        kernel reads the indexes as they stood when it began, whatever its
        instances make.  A rebuild repairs only what merges broke (Downey,
        Sethi and Tarjan, JACM 1980; egg's ``rebuild``).  For each loser, a
        class merged into another, the keys in its use list leave the table
        and every index, and re-enter in canonical form, each argument's
        root one read of the flat ``parent``.  A key whose
        canonical form is there already is dropped when that form is in its
        own class, as it mostly is; in another class, it merges the two
        classes instead, which queues another loser.  The loser's use list
        is taken whole, with no copy: the keys a rebuild enters are of roots
        only, so no key joins it while it is read, and each key leaves only
        the use lists of its other argument classes.  Then the loser's own
        keys move to its root: they keep their places in the table and join
        the end of the root's key list.  A root is noted as out of table
        order when its last key comes after the loser's first, or when the
        loser was noted itself; once the worklist is empty, each noted class
        that is still a root is sorted by position, once per rebuild rather
        than once per merge, so every index is in table order again before
        a match kernel reads it.

        A key's table position is the clock when it entered, which only a
        new canonical form changes, and its stamp the clock when it entered
        or last moved to another root.  The clock ticks once a rebuild has
        indexed the queue, before any repair, so a key moved in it is
        stamped after every earlier reading, even one taken right after the
        last rebuild with no key entered since; a match all of whose keys
        are stamped at or before a reading already existed then.  A root key
        stamped after a reading at a position no later than it has only
        moved class, and a kernel skips the matches that are new by that
        key alone, whose instances are no-ops (see ``_Query``).
        """
        parent, table, by_op = self.parent, self.key2class, self._by_op
        class_nodes, all_uses, losers = self.class_nodes, self._uses, self._losers
        self._index()
        self.clock += 1
        unordered = set()  # classes whose keys are out of table order
        while losers:
            loser = losers.pop()
            for key in all_uses.pop(loser, ()):
                cls = table.pop(key)
                del class_nodes[cls][key]
                del by_op[key[0]][key]
                # out of the other argument classes' use lists, and into
                # canonical form, one read of parent per argument
                if len(key) == 2:  # its one argument is the loser
                    canon = (key[0], parent[loser])
                elif len(key) == 3:
                    a, b = key[1], key[2]
                    if a != b:
                        del all_uses[b if a == loser else a][key]
                    canon = (key[0], parent[a], parent[b])
                else:
                    for c in set(key[1:]) - {loser}:
                        del all_uses[c][key]
                    canon = (key[0], *[parent[c] for c in key[1:]])
                other = table.get(canon)
                if other is None:
                    self._enter(canon, parent[cls])
                    self._index()
                    continue
                # most repaired keys meet a key of their own class, and
                # are dropped
                if parent[other] != parent[cls]:
                    self._union(other, cls)
            members = class_nodes.pop(loser, None)
            if members:
                root = parent[loser]
                stamp = self.clock
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

    def classes_of_sort(self, sort: int) -> list[int]:
        return list(self._sort_classes[sort])

    # round steps -----------------------------------------------------------

    def grow(self) -> int:
        """Apply every op to every argument-class tuple from the round start.

        ``grow`` starts a run, which has merged nothing, or follows a
        ``match_pass``, which ends with a rebuild, so the table is canonical
        and the classes of each sort are roots; it only makes nodes in new
        classes, so it merges nothing and no root changes while it runs.
        Each key it forms from those roots is therefore canonical as it
        stands: one table lookup tells whether it is there, with no ``find``.
        """
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

        Each query's kernel joins only from the keys stamped after the clock
        it read as its last pass began, right after that pass's rebuild: a
        match of old keys alone was instantiated then, and its nodes and
        merge persist.  A root key entered no later than that reading only
        moved class since.  A kernel builds each instance as it finds the
        match, over the indexes as the rebuild before it left them; the
        keys its instances make are indexed by the next rebuild, so the
        next query joins them.  An outer node built straight into its
        matched class counts as a merge.  The pass ends with a rebuild,
        which ``grow`` relies on.
        """
        merges = 0
        created0 = self.nodes_created
        seen = self._seen
        for i, q in enumerate(self._queries):
            self.rebuild()
            since = -1 if q.full else seen[i]
            seen[i] = self.clock
            merges0 = self.merges_done
            q.kernel(self, since, [self.classes_of_sort(s) for s in q.pools])
            merges += self.merges_done - merges0
        self.rebuild()
        return merges, self.nodes_created - created0


def _run(state: SaturationState, watch: tuple[Term, Term] | None = None):
    """Drive rounds to saturation (None), a budget trip (its ``BudgetExceeded``,
    at round 0 if resolving the watched terms trips) or a watched merge (its round).

    The cyclic garbage collector is paused while the rounds run, and turned
    back on at the end, however the run ends, only if it was on before.  A
    saturation makes no reference cycle, so reference counting frees all it
    makes, and a collection could only traverse its tuples and dicts to
    find nothing.
    """
    pair = None

    def merged() -> bool:
        return pair is not None and state.find(pair[0]) == state.find(pair[1])

    enabled = gc.isenabled()
    try:
        gc.disable()
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
    finally:
        if enabled:
            gc.enable()


def extract_representatives(state: SaturationState) -> dict[int, tuple]:
    """The key of the least member term of each class, by root.

    A term's canonical key orders terms by length first, then puts
    variables before applications, then compares sort and name, or op and
    the children's keys: a generator's key is ``(0, 0, sort, name)`` and
    an application's ``(length, 1, op, (child keys...))``.  The fixpoint
    compares keys alone, as egg's extractor compares costs: a table key
    ``(op, c1, ...)`` whose children all have a best key offers
    ``(1 + max child length, 1, op, (best[c1], ...))``, or ``(0, 1, op, ())``
    for a constant.  Each class keeps its least key until a pass changes
    nothing.  No term is made: a key describes its term in full, and
    ``_term`` makes it.  The rebuild leaves every table key canonical and
    every value a root.
    """
    state.rebuild()
    best: dict[int, tuple] = {}
    for v, cls in state.gen_class.items():
        root = state.find(cls)
        key = (0, 0, v.sort, v.name)
        cur = best.get(root)
        if cur is None or key < cur:
            best[root] = key
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
                changed = True
    return best


def freeze(state: SaturationState) -> tuple:
    """The kept form of a saturated state's outcome, which holds no sort or
    op name, no term and no algebra: ``(sizes, tables, images, reps,
    rounds)``, with each sort's carrier size, each op's table by op id,
    each generator's element in profile order, each sort's representative
    keys (see ``extract_representatives``) in element order, and the
    rounds' stats.  Each sort's elements are its roots in key order.  The
    rebuild inside extraction left every key canonical and every value a
    root, so each key is one table entry; ``_result`` checks that the
    entries cover every table, which a saturated state's do."""
    keys = extract_representatives(state)
    index: dict[int, int] = {}
    reps = []
    for s in state.sig.sorts:
        roots = sorted(state.classes_of_sort(s.id), key=keys.__getitem__)
        for i, r in enumerate(roots):
            index[r] = i
        reps.append(tuple(map(keys.__getitem__, roots)))
    tables: dict[int, dict[tuple, int]] = {op.id: {} for op in state.sig.ops}
    for key, cls in state.key2class.items():
        tables[key[0]][tuple(map(index.__getitem__, key[1:]))] = index[cls]
    images = tuple(index[state.find(c)] for c in state.gen_class.values())
    return tuple(map(len, reps)), tables, images, tuple(reps), tuple(state.stats.rounds)


# each saturation's outcome, kept once per structure per process (see _saturate)
_saturated: dict[tuple, object] = {}


def _saturate(variety: VarietyDef, profile: GeneratorProfile, budget: Budget, watch=None):
    """Saturate on the profile: the frozen free algebra, the watched pair's
    merge round, or the ``BudgetExceeded`` of a trip, as ``_run`` ends.

    Outcomes are kept once per structure per process.  The key holds all
    that a run reads: the variety's ``_structure`` (sort count, each op's
    sorts in id order, each axiom's shapes and declared sorts), the
    profile's variables with their names, which extraction breaks ties by,
    the watched pair's shapes by profile position, and the budget.  Sort
    and op names are not in it, as the engine reads none, so a witness
    that differs from an earlier one by its names alone is served from the
    first.  The kept outcome is a round, a trip, or what ``freeze`` makes
    of a saturated state, and ``_result`` is the one way out: a hit and a
    miss alike return its result over the caller's variety and profile.
    A miss makes that result before it keeps anything, so a frozen state
    whose tables ``FiniteAlgebra`` rejects, like a run that raises, keeps
    nothing.  When every watched term is a generator, a saturated outcome
    is kept under the unwatched key too: watching a generator makes no
    node, and a pair that never merges stops no round early, so that run
    is the unwatched build, with the same tables, images, representatives
    and stats.  This is the one place that makes a ``SaturationState``,
    runs it and freezes it.
    """
    variables = profile.variables()
    position = {v: i for i, v in enumerate(variables)}
    watched = None if watch is None else tuple(_shape(t, position) for t in watch)
    key = (variety._structure, variables, watched, budget)
    kept = _saturated.get(key)
    if kept is not None:
        return _result(kept, variety, profile)
    state = SaturationState(variety, profile, budget)
    kept = _run(state, watch)
    if kept is None:
        kept = freeze(state)
    result = _result(kept, variety, profile)
    _saturated[key] = kept
    if isinstance(kept, tuple) and watched is not None and all(isinstance(w, int) for w in watched):
        _saturated[(variety._structure, variables, None, budget)] = kept
    return result


def _result(kept, variety: VarietyDef, profile: GeneratorProfile):
    """The caller's result of a kept outcome: a round as it is, a trip as a
    copy with its own stats, and a frozen state as a ``FreeAlgebraResult``
    over the caller's variety and profile, with new tables that
    ``FiniteAlgebra`` checks, each generator's element by profile
    position, representatives made from their keys in the caller's arena
    (see ``_term``), and its own stats.  This is the one place that makes
    a ``FreeAlgebraResult``."""
    if isinstance(kept, int):
        return kept
    if isinstance(kept, BudgetExceeded):
        return replace(kept, stats=BuildStats(list(kept.stats.rounds)))
    sizes, tables, images, reps, rounds = kept
    sig = variety.sig
    arena = arena_of(sig)
    made: dict[int, Term] = {}
    return FreeAlgebraResult(
        variety=variety,
        profile=profile,
        algebra=FiniteAlgebra(sig, sizes, {op: dict(table) for op, table in tables.items()}),
        gen_images=dict(zip(profile.variables(), images)),
        reps=tuple(tuple(_term(key, arena, sig.ops, made) for key in col) for col in reps),
        stats=BuildStats(list(rounds)),
    )


def _term(key: tuple, arena, ops, made: dict[int, Term]) -> Term:
    """The term of a representative key: ``(0, 0, sort, name)`` is a
    generator, ``(length, 1, op, child keys)`` an application.  Each key's
    term is made once per result and kept in ``made`` by the key's ``id``:
    extraction builds a key from its children's best keys themselves, so a
    subterm shared by several representatives is one shared tuple, which
    the kept outcome holds alive.  A tuple caches no hash, so keying
    ``made`` by the nested key itself would walk it at every lookup."""
    t = made.get(id(key))
    if t is None:
        if key[1] == 0:
            t = arena.var(SortedVar(key[3], key[2]))
        else:
            t = arena.apply(ops[key[2]], tuple([_term(c, arena, ops, made) for c in key[3]]))
        made[id(key)] = t
    return t


def build_free_algebra(variety: VarietyDef, profile: GeneratorProfile, budget: Budget | None = None):
    """Saturate to the finite free algebra on the profile, or report budget
    exhaustion (a possibly infinite free algebra).

    The outcome is memoized per structure per process (see ``_saturate``)."""
    return _saturate(variety, profile, budget or Budget())


NONDEGENERATE = "nondegenerate"
DEGENERATE = "degenerate"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class NondegeneracyReport:
    verdict: str
    detail: str


def nondegeneracy_check(variety: VarietyDef, sort_id: int, budget: Budget | None = None) -> NondegeneracyReport:
    """Whether the variety forces two generators of sort ``sort_id`` together.

    Builds on two generators of the sort and watches their classes: a merge
    is immediately sound (merges only ever follow from the congruence), a
    saturated run with distinct classes is a proof of nondegeneracy, and a
    budget trip leaves the question open.

    The outcome is memoized per structure per process (see ``_saturate``).
    """
    sig = variety.sig
    name = sig.sorts[sort_id].name
    profile = GeneratorProfile.from_counts(sig, {name: 2})
    v1, v2 = profile.variables()
    arena = arena_of(sig)
    outcome = _saturate(variety, profile, budget or Budget(), watch=(arena.var(v1), arena.var(v2)))
    if isinstance(outcome, BudgetExceeded):
        return NondegeneracyReport(
            UNKNOWN, f"budget exhausted ({outcome.limit}) with the generators still distinct"
        )
    if isinstance(outcome, int):
        return NondegeneracyReport(
            DEGENERATE, f"generators of sort '{name}' merged in round {outcome}"
        )
    return NondegeneracyReport(NONDEGENERATE, f"saturated with distinct sort-'{name}' generators")


CONSEQUENCE_YES = "yes"
CONSEQUENCE_NO = "no"
CONSEQUENCE_UNKNOWN = "unknown"


def is_consequence(variety: VarietyDef, ident: Identity, budget: Budget | None = None) -> str:
    """Bounded-saturation consequence check; sound on 'yes' and on 'no'.

    'yes' means the two sides merged (every merge is congruence-derivable),
    'no' means saturation completed with the sides in distinct classes,
    'unknown' means the budget tripped first.

    The outcome is memoized per structure per process (see ``_saturate``).
    """
    outcome = _saturate(variety, ident.vars, budget or Budget(), watch=(ident.lhs, ident.rhs))
    if isinstance(outcome, BudgetExceeded):
        return CONSEQUENCE_UNKNOWN
    return CONSEQUENCE_YES if isinstance(outcome, int) else CONSEQUENCE_NO
