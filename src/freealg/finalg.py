"""Finite many-sorted algebras as explicit operation tables.

Carrier elements of sort s are the integers 0..size-1.  Tables are total
maps from argument tuples to results and are checked at construction.
Empty carriers are legal; identity satisfaction over them is vacuous.
It also holds the term planner and compiler that egraph's kernels share.
"""

from __future__ import annotations

import functools
import itertools
import weakref
from dataclasses import dataclass

from .sexpr import InputError
from .signature import Signature
from .terms import Identity, SortedVar, Term


class AlgebraError(InputError):
    pass


class SortViolation(AlgebraError):
    pass


class EmptyCarrier(AlgebraError):
    pass


class FiniteAlgebra:
    def __init__(self, sig: Signature, sizes: tuple[int, ...], tables: dict[int, dict[tuple, int]]):
        self.sig = sig
        self.sizes = tuple(sizes)
        self.tables = tables
        self._validate()

    def _validate(self):
        if len(self.sizes) != len(self.sig.sorts):
            raise AlgebraError("one carrier size per sort required")
        if any(n < 0 for n in self.sizes):
            raise AlgebraError("negative carrier size")
        for op in self.sig.ops:
            table = self.tables.get(op.id)
            if table is None:
                raise AlgebraError(f"missing table for operation '{op.name}'")
            domain = 1
            for s in op.arg_sorts:
                domain *= self.sizes[s]
            if len(table) != domain:
                raise AlgebraError(
                    f"table for '{op.name}' has {len(table)} entries, expected {domain}"
                )
            limit = self.sizes[op.result_sort]
            for args, res in table.items():
                if len(args) != op.arity or any(
                    not (0 <= a < self.sizes[s]) for a, s in zip(args, op.arg_sorts)
                ):
                    raise AlgebraError(f"table for '{op.name}' has a bad key {args}")
                if not (0 <= res < limit):
                    raise AlgebraError(f"table for '{op.name}' maps {args} outside the carrier")

    def total_size(self) -> int:
        return sum(self.sizes)

    @classmethod
    def from_json_dict(cls, sig: Signature, data) -> "FiniteAlgebra":
        """Read the JSON object of an algebra file; any other shape is an
        AlgebraError.  The layout is::

            {"carriers": {SORT: SIZE, ...},
             "tables": {OP: [{"args": [ELEMENT, ...], "result": ELEMENT}, ...], ...}}

        A sort left out of ``carriers`` has an empty carrier, each op's table
        lists every argument tuple exactly once, and a table for an op that
        the signature lacks is an error.
        """
        if not isinstance(data, dict):
            raise AlgebraError("an algebra must be a JSON object")
        carriers = _json_object(data, "carriers")
        sizes = [0] * len(sig.sorts)
        for name, n in carriers.items():
            sizes[sig.sort_named(name).id] = _json_int(n, f"carrier size of '{name}'")
        all_tables = _json_object(data, "tables")
        for name in all_tables:
            if name not in sig.op_by_name:
                raise AlgebraError(f"table for unknown operation '{name}'")
        tables: dict[int, dict[tuple, int]] = {}
        for op in sig.ops:
            entries = all_tables.get(op.name)
            if entries is None:
                raise AlgebraError(f"missing table for operation '{op.name}'")
            if not isinstance(entries, list):
                raise AlgebraError(f"table for '{op.name}' must be a list of entries")
            table: dict[tuple, int] = {}
            for e in entries:
                if not isinstance(e, dict) or not isinstance(e.get("args"), list):
                    raise AlgebraError(
                        f"table for '{op.name}' has an entry that is not an object "
                        f"with an 'args' list: {e!r}"
                    )
                where = f"in the table for '{op.name}'"
                args = tuple(_json_int(a, f"argument {where}") for a in e["args"])
                if args in table:
                    raise AlgebraError(f"table for '{op.name}' gives arguments {list(args)} twice")
                table[args] = _json_int(e.get("result"), f"result {where}")
            tables[op.id] = table
        return cls(sig, tuple(sizes), tables)

    def __repr__(self) -> str:
        return f"FiniteAlgebra({'+'.join(map(str, self.sizes))})"


def _json_object(data: dict, field: str) -> dict:
    value = data.get(field, {})
    if not isinstance(value, dict):
        raise AlgebraError(f"'{field}' must be a JSON object")
    return value


def _json_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise AlgebraError(f"{what} must be an integer, not {value!r}")
    return value


def one_element_algebra(sig: Signature) -> FiniteAlgebra:
    """The algebra with a single element per sort; satisfies every identity."""
    tables = {}
    for op in sig.ops:
        keys = itertools.product(*[range(1)] * op.arity)
        tables[op.id] = {tuple(k): 0 for k in keys}
    return FiniteAlgebra(sig, tuple(1 for _ in sig.sorts), tables)


def eval_term(alg: FiniteAlgebra, t: Term, asg: dict[SortedVar, int]) -> int:
    if t.is_var():
        if t.var not in asg:
            if alg.sizes[t.var.sort] == 0:
                raise EmptyCarrier(f"sort '{alg.sig.sorts[t.var.sort].name}' has no elements")
            raise AlgebraError(f"variable '{t.var.name}' has no assigned value")
        return asg[t.var]
    args = tuple(eval_term(alg, c, asg) for c in t.children)
    return alg.tables[t.op.id][args]


@dataclass(frozen=True)
class Counterexample:
    identity: Identity
    assignment: dict
    lhs_value: int
    rhs_value: int

    def describe(self) -> str:
        asg = ", ".join(f"{v.name}={e}" for v, e in self.assignment.items())
        return f"{self.identity!r} fails at [{asg}]: {self.lhs_value} != {self.rhs_value}"


NEST = 16  # loops per generated function; CPython nests at most 20 blocks
_compiled = itertools.count()  # numbers each code object's file name, for profiles
# identity -> its check, and the op ids of the tables it takes in order
_checks: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


@functools.cache
def compile_source(source: str, name: str):
    """The function ``name`` that ``source`` defines, its code named
    ``<name n>`` for profiles, once per distinct source.  Sources hold no
    name from a definition file.  Identity checks take their tables as
    arguments, so checks of one shape share a compile; a match kernel's
    source holds op and sort ids, so only axioms of one shape whose ids
    match as well share one."""
    namespace = {"product": itertools.product}
    exec(compile(source, f"<{name} {next(_compiled)}>", "exec"), namespace)
    return namespace[name]


def plan(t: Term, slot_of: dict[SortedVar, int], base: int, steps: list) -> int:
    """Compile a term into the steps that compute it from slot values.

    Variables read the slots ``slot_of`` gives them; each operation node,
    in post-order, appends one step ``(op, argument slots, result sort,
    slot)`` that writes a new slot, numbered ``base + len(steps)``.  Returns
    the slot that ends up holding the term's value.
    """
    if t.is_var():
        return slot_of[t.var]
    args = tuple(plan(c, slot_of, base, steps) for c in t.children)
    steps.append((t.op.id, args, t.op.result_sort, base + len(steps)))
    return steps[-1][3]


def tuple_source(names: list[str]) -> str:
    """Source of the tuple of ``names``."""
    return f"({names[0]},)" if len(names) == 1 else f"({', '.join(names)})"


def _check_source(ident: Identity) -> tuple[str, tuple[int, ...]]:
    """Source of ``check(sizes, t0, t1, ...)``: the identity as one loop
    nest, and the op ids whose tables ``t0, t1, ...`` are.

    Slot ``i`` below the number of declared variables holds variable ``i``
    in profile order, which ranges over ``range(sizes[i])``; each further
    slot holds one step of ``plan``, computed in the loop of its last
    variable, or before the loops when it is closed, so a repeated subterm
    is computed once per occurrence.  From the ``NEST``-th variable on, the
    variables share one ``product`` loop, which keeps their order.  The
    check returns the first failing assignment with both sides' values, or
    None.
    """
    vs = ident.vars.variables()
    loops = min(len(vs), NEST)
    slot_of = {v: i for i, v in enumerate(vs)}
    steps: list = []
    lhs = plan(ident.lhs, slot_of, len(vs), steps)
    rhs = plan(ident.rhs, slot_of, len(vs), steps)
    level = [min(i + 1, loops) for i in range(len(vs))]  # per slot: its loop, 0 before the loops
    blocks: list[list[str]] = [[] for _ in range(loops + 1)]
    ops: dict[int, int] = {}  # op id -> its table's argument number
    for op, args, _, slot in steps:
        level.append(max((level[a] for a in args), default=0))
        key = tuple_source([f"v{a}" for a in args])
        blocks[level[slot]].append(f"v{slot} = t{ops.setdefault(op, len(ops))}[{key}]")
    lines = [f"def check({', '.join(['sizes'] + [f't{k}' for k in range(len(ops))])}):"]
    lines += ["    " + line for line in blocks[0]]
    for i in range(loops):
        pad = "    " * (i + 1)
        if i + 1 < loops or loops == len(vs):
            lines.append(f"{pad}for v{i} in range(sizes[{i}]):")
        else:
            rest = range(i, len(vs))
            ranges = ", ".join(f"range(sizes[{j}])" for j in rest)
            lines.append(f"{pad}for {', '.join(f'v{j}' for j in rest)} in product({ranges}):")
        lines += [pad + "    " + line for line in blocks[i + 1]]
    pad = "    " * (loops + 1)
    values = tuple_source([f"v{i}" for i in range(len(vs))])
    lines.append(f"{pad}if v{lhs} != v{rhs}:")
    lines.append(f"{pad}    return {values}, v{lhs}, v{rhs}")
    return "\n".join(lines) + "\n", tuple(ops)


def satisfies_identity(alg: FiniteAlgebra, ident: Identity):
    """True, or the lexicographically first failing assignment.

    Vacuously true when a declared variable's sort has an empty carrier.
    The identity runs as one compiled loop nest (``_check_source``), one
    loop per declared variable in profile order, so the first failing
    iteration is the first failing assignment in that order.  Each identity
    is planned once and each shape compiled once.
    """
    got = _checks.get(ident)
    if got is None:
        source, ops = _check_source(ident)
        got = _checks[ident] = compile_source(source, "check"), ops
    check, ops = got
    vs = ident.vars.variables()
    failed = check([alg.sizes[v.sort] for v in vs], *[alg.tables[op] for op in ops])
    if failed is None:
        return True
    values, l, r = failed
    return Counterexample(ident, dict(zip(vs, values)), l, r)


def satisfies_all(alg: FiniteAlgebra, axioms):
    """Conjunction over a sequence of axioms, in order."""
    for ident in axioms:
        verdict = satisfies_identity(alg, ident)
        if verdict is not True:
            return verdict
    return True


class MorphismTable:
    """Per-sort element maps; sort-preserving by construction."""

    def __init__(self, source: FiniteAlgebra, target: FiniteAlgebra, maps: tuple[tuple[int, ...], ...]):
        self.source = source
        self.target = target
        self.maps = tuple(tuple(m) for m in maps)
        for s in source.sig.sorts:
            if len(self.maps[s.id]) != source.sizes[s.id]:
                raise AlgebraError(f"map for sort '{s.name}' has the wrong length")
            if any(not (0 <= v < target.sizes[s.id]) for v in self.maps[s.id]):
                raise SortViolation(f"map for sort '{s.name}' leaves the target carrier")

    def is_homomorphism(self) -> bool:
        """Commutes with every operation, table entry by table entry.

        Unary and binary ops index the argument maps straight into the
        target's table; other arities build each mapped key as a tuple.
        """
        maps = self.maps
        for op in self.source.sig.ops:
            src, dst = self.source.tables[op.id], self.target.tables[op.id]
            res_map = maps[op.result_sort]
            if op.arity == 2:
                m0, m1 = maps[op.arg_sorts[0]], maps[op.arg_sorts[1]]
                for (x, y), res in src.items():
                    if dst[m0[x], m1[y]] != res_map[res]:
                        return False
            elif op.arity == 1:
                m0 = maps[op.arg_sorts[0]]
                for (x,), res in src.items():
                    if dst[m0[x],] != res_map[res]:
                        return False
            else:
                for args, res in src.items():
                    if dst[tuple([maps[s][x] for x, s in zip(args, op.arg_sorts)])] != res_map[res]:
                        return False
        return True

    def is_bijective(self) -> bool:
        return all(
            len(set(m)) == len(m) == self.target.sizes[i] for i, m in enumerate(self.maps)
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MorphismTable)
            and self.source is other.source
            and self.target is other.target
            and self.maps == other.maps
        )

    def to_json_dict(self) -> dict:
        return {
            s.name: list(self.maps[s.id]) for s in self.source.sig.sorts
        }

    def __repr__(self) -> str:
        return f"MorphismTable({self.maps})"


def _steps(a: FiniteAlgebra, b: FiniteAlgebra) -> list[list[tuple]]:
    """Per sort ``s``, one step per op argument position of sort ``s``:
    ``(position, argument sorts, result sort, a's table, b's table)``."""
    steps: list[list[tuple]] = [[] for _ in a.sizes]
    for op in a.sig.ops:
        for i, s in enumerate(op.arg_sorts):
            steps[s].append((i, op.arg_sorts, op.result_sort, a.tables[op.id], b.tables[op.id]))
    return steps


def _close(
    steps: list[list[tuple]],
    maps: list[list[int]],
    used: list[set[int]],
    taken: list[list[int]],
    trail: list[tuple[int, int]],
    head: int,
    seeds: tuple[tuple[int, tuple[int], tuple[int]], ...] = (),
) -> bool:
    """Extend a closed partial map a -> b (-1 = unmapped) to a fixed point.

    The map was closed before ``trail[head:]`` was mapped: every element
    before ``head`` has been taken, and every entry over them has fired.
    The trail is the worklist: each ``(sort, element)`` is taken from it
    once, from ``trail[head]`` on, and appended to ``taken[sort]``, so the
    taken elements are the prefix of the trail before ``head``, per sort in
    trail order.  Taking ``(s, e)`` fires, for each op argument position of
    sort ``s`` (``steps[s]``, from ``_steps``), the table entries of ``a``
    with ``e`` there and taken elements at every other position, each entry
    once: the positions before it hold elements taken before ``e``, those
    after it any taken element.  A firing sends the entry's result to
    ``b``'s value at the images of its arguments, and each result so mapped
    is appended to ``trail`` in turn.  The ``seeds`` fire first, as
    ``(result sort, results in a, values in b)``.  False on a clash: a
    result already mapped elsewhere, or an image another element already
    took.  On True every mapped element has been taken, so every entry
    whose arguments are all mapped has fired.  The fixed point, and whether
    there is a clash, do not depend on the visiting order.
    """
    batch = seeds
    while True:
        for rs, results, values in batch:
            res_map, taken_images = maps[rs], used[rs]
            for res, v in zip(results, values):
                if res_map[res] == v:
                    continue
                if res_map[res] >= 0 or v in taken_images:
                    return False
                res_map[res] = v
                taken_images.add(v)
                trail.append((rs, res))
        if head == len(trail):
            return True
        s, e = trail[head]
        head += 1
        mine = taken[s]
        mine.append(e)
        me = maps[s][e]
        batch = []
        for pos, sorts, rs, ta, tb in steps[s]:
            if len(sorts) == 1:
                batch.append((rs, (ta[e,],), (tb[me,],)))
            elif len(sorts) == 2:
                if pos == 0:
                    ys, my = taken[sorts[1]], maps[sorts[1]]
                    batch.append((rs, [ta[e, y] for y in ys], [tb[me, my[y]] for y in ys]))
                else:
                    xs, mx = (mine[:-1] if sorts[0] == s else taken[sorts[0]]), maps[sorts[0]]
                    batch.append((rs, [ta[x, e] for x in xs], [tb[mx[x], me] for x in xs]))
            else:
                pools = [
                    (e,) if j == pos else mine[:-1] if j < pos and t == s else taken[t]
                    for j, t in enumerate(sorts)
                ]
                keys = list(itertools.product(*pools))
                images = [tuple([maps[t][x] for t, x in zip(sorts, key)]) for key in keys]
                batch.append((rs, [ta[k] for k in keys], [tb[k] for k in images]))


def _first_unmapped(maps: list[list[int]], s: int, e: int) -> tuple[int, int] | None:
    """The first ``(sort, element)`` from ``(s, e)`` on, in canonical order,
    that ``maps`` leaves unmapped (-1); None when every one is mapped."""
    for s in range(s, len(maps)):
        try:
            return s, maps[s].index(-1, e)
        except ValueError:
            e = 0
    return None


def find_isomorphism(a: FiniteAlgebra, b: FiniteAlgebra):
    """First sort-respecting bijective homomorphism under canonical order.

    Canonical order compares the per-sort maps lexicographically in
    ``(sort, element)`` order.  A homomorphism is fixed by its values on a
    generating set, so the search backtracks only over generator images:
    the generators are taken greedily in canonical order, each element not
    in the closure of those before it.  Every other element therefore lies
    in the closure of earlier generators, and its image follows from
    theirs; trying generator images in ascending order meets the maps in
    canonical order.  ``_close`` prunes each partial tuple of images and
    completes the map at the leaf.

    The generators are found during the search.  After a closure that
    succeeds, the mapped part of ``a`` is exactly the subalgebra generated
    by the constants and the generators placed so far, whatever their
    images; so the generator of each depth is the first unmapped element in
    canonical order, recorded the first time the search reaches that depth,
    and the search ends when every element is mapped.

    ``a`` is not indexed.  Each closure fires only the table entries whose
    arguments have all been taken from the trail of mapped elements, with
    at least one taken since the last closure, and reads them straight
    from ``a``'s and ``b``'s tables; nullary ops seed the first closure.
    The trail is both the worklist and the undo log, and undoing it also
    truncates the per-sort lists of taken elements.  The search keeps an
    explicit stack, one frame per placed generator, so its depth is not
    bounded by Python's recursion limit.
    """
    if a.sig is not b.sig and not a.sig.same_shape(b.sig):
        raise AlgebraError("isomorphism search needs a shared signature")
    if a.sizes != b.sizes:
        return None
    steps = _steps(a, b)
    constants = tuple(
        (op.result_sort, (a.tables[op.id][()],), (b.tables[op.id][()],))
        for op in a.sig.ops
        if not op.arg_sorts
    )
    maps = [[-1] * n for n in a.sizes]
    used = [set() for _ in a.sizes]
    taken: list[list[int]] = [[] for _ in a.sizes]
    trail: list[tuple[int, int]] = []

    def undo(mark: int):
        while len(trail) > mark:
            s, e = trail.pop()
            # a failed closure may leave elements on the trail untaken
            if taken[s] and taken[s][-1] == e:
                taken[s].pop()
            used[s].remove(maps[s][e])
            maps[s][e] = -1

    if not _close(steps, maps, used, taken, trail, 0, constants):
        return None
    gens: list[tuple[int, int]] = []
    # one frame per placed generator: the trail length before it, its image
    frames: list[tuple[int, int]] = []
    cand = 0
    while True:
        if len(frames) == len(gens):
            # first visit of this depth: its generator is the first element
            # that the constants and the generators placed so far leave unmapped
            gen = _first_unmapped(maps, *(gens[-1] if gens else (0, 0)))
            if gen is None:
                break
            gens.append(gen)
        s, e = gens[len(frames)]
        while cand < b.sizes[s] and cand in used[s]:
            cand += 1
        if cand == b.sizes[s]:
            if not frames:
                return None
            mark, last = frames.pop()
            undo(mark)
            cand = last + 1
            continue
        mark = len(trail)
        maps[s][e] = cand
        used[s].add(cand)
        trail.append((s, e))
        if _close(steps, maps, used, taken, trail, mark):
            frames.append((mark, cand))
            cand = 0
        else:
            undo(mark)
            cand += 1
    table = MorphismTable(a, b, tuple(tuple(m) for m in maps))
    assert table.is_homomorphism() and table.is_bijective()
    return table

