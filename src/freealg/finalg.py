"""Finite many-sorted algebras as explicit operation tables.

Carrier elements of sort s are the integers 0..size-1.  Tables are total
maps from argument tuples to results and are checked at construction.
Empty carriers are legal; identity satisfaction over them is vacuous.
"""

from __future__ import annotations

import functools
import itertools
import weakref
from dataclasses import dataclass

from .signature import ActionSplit, Signature
from .terms import GeneratorProfile, Identity, SortedVar, Term, free_vars


class AlgebraError(Exception):
    pass


class SortViolation(AlgebraError):
    pass


class MissingSort(AlgebraError):
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

        A sort left out of ``carriers`` has an empty carrier, and each op's
        table lists every argument tuple exactly once.
        """
        if not isinstance(data, dict):
            raise AlgebraError("an algebra must be a JSON object")
        carriers = _json_object(data, "carriers")
        sizes = [0] * len(sig.sorts)
        for name, n in carriers.items():
            sizes[sig.sort_named(name).id] = _json_int(n, f"carrier size of '{name}'")
        all_tables = _json_object(data, "tables")
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


class Evaluator:
    """Homomorphic extension of a generator assignment into a finite algebra.

    Agrees with the assignment on variables and commutes with every
    operation; memoized over the hash-consed term nodes.
    """

    def __init__(self, vars: GeneratorProfile, images: dict[SortedVar, int], target: FiniteAlgebra):
        self.target = target
        self.images = dict(images)
        for v in vars.variables():
            if target.sizes[v.sort] == 0:
                raise MissingSort(
                    f"target has an empty carrier for sort '{target.sig.sorts[v.sort].name}'"
                )
            if v not in self.images:
                raise SortViolation(f"no image for generator '{v.name}'")
            img = self.images[v]
            if not (0 <= img < target.sizes[v.sort]):
                raise SortViolation(
                    f"image of '{v.name}' is not an element of sort "
                    f"'{target.sig.sorts[v.sort].name}'"
                )
        self._memo: dict[Term, int] = {}

    def __call__(self, t: Term) -> int:
        memo = self._memo
        got = memo.get(t)
        if got is not None:
            return got
        if t.is_var():
            val = self.images[t.var]
        else:
            val = self.target.tables[t.op.id][tuple(self(c) for c in t.children)]
        memo[t] = val
        return val


@dataclass(frozen=True)
class Counterexample:
    identity: Identity
    assignment: dict
    lhs_value: int
    rhs_value: int

    def describe(self) -> str:
        asg = ", ".join(f"{v.name}={e}" for v, e in self.assignment.items())
        return f"{self.identity!r} fails at [{asg}]: {self.lhs_value} != {self.rhs_value}"


_NEST = 16  # loops per check; CPython nests at most 20 blocks
# identity -> its check, and the op ids of the tables it takes in order
_checks: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


@functools.cache
def _compile_check(source: str):
    """The check that ``source`` defines.  Identities of one shape share a
    source, whatever their ops, so each shape compiles once."""
    namespace = {"product": itertools.product}
    exec(compile(source, "<identity check>", "exec"), namespace)
    return namespace["check"]


def _tuple(names: list[str]) -> str:
    """Source of the tuple of ``names``."""
    return f"({names[0]},)" if len(names) == 1 else f"({', '.join(names)})"


def _check_source(ident: Identity) -> tuple[str, tuple[int, ...]]:
    """Source of ``check(sizes, t0, t1, ...)``: the identity as one loop
    nest, and the op ids whose tables ``t0, t1, ...`` are.

    Slot ``i`` below the number of declared variables holds variable ``i``
    in profile order, which ranges over ``range(sizes[i])``; each further
    slot holds one subterm, computed in the loop of its last variable, or
    before the loops when it is closed.  From the ``_NEST``-th variable on,
    the variables share one ``product`` loop, which keeps their order.  The
    check returns the first failing assignment with both sides' values, or
    None.
    """
    vs = ident.vars.variables()
    slot_of = {v: i for i, v in enumerate(vs)}
    loops = min(len(vs), _NEST)
    steps: list[list[str]] = [[] for _ in range(loops + 1)]  # closed terms, then by loop
    ops: dict[int, int] = {}  # op id -> its table's argument number
    made: dict[Term, tuple[int, int]] = {}  # subterm -> (slot, index into steps)

    def plan(t: Term) -> tuple[int, int]:
        if t.is_var():
            i = slot_of[t.var]
            return i, min(i + 1, loops)
        got = made.get(t)
        if got is None:
            args = [plan(c) for c in t.children]
            at = max((a for _, a in args), default=0)
            slot = len(vs) + len(made)
            table = ops.setdefault(t.op.id, len(ops))
            key = _tuple([f"v{i}" for i, _ in args])
            steps[at].append(f"v{slot} = t{table}[{key}]")
            got = made[t] = slot, at
        return got

    lhs, _ = plan(ident.lhs)
    rhs, _ = plan(ident.rhs)
    lines = [f"def check({', '.join(['sizes'] + [f't{k}' for k in range(len(ops))])}):"]
    lines += ["    " + line for line in steps[0]]
    for i in range(loops):
        pad = "    " * (i + 1)
        if i + 1 < loops or loops == len(vs):
            lines.append(f"{pad}for v{i} in range(sizes[{i}]):")
        else:
            rest = range(i, len(vs))
            ranges = ", ".join(f"range(sizes[{j}])" for j in rest)
            lines.append(f"{pad}for {', '.join(f'v{j}' for j in rest)} in product({ranges}):")
        lines += [pad + "    " + line for line in steps[i + 1]]
    pad = "    " * (loops + 1)
    values = _tuple([f"v{i}" for i in range(len(vs))])
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
        got = _checks[ident] = _compile_check(source), ops
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
        """Commutes with every operation, table entry by table entry."""
        for op in self.source.sig.ops:
            for args, res in self.source.tables[op.id].items():
                mapped = tuple([self.maps[s][a] for a, s in zip(args, op.arg_sorts)])
                if self.target.tables[op.id][mapped] != self.maps[op.result_sort][res]:
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


# A table entry of the source algebra: op id, the (sort, element) of each
# argument, and the (sort, element) of its result.
_Entry = tuple[int, tuple[tuple[int, int], ...], int, int]


def _use_lists(a: FiniteAlgebra) -> tuple[list[list[list[_Entry]]], tuple[_Entry, ...]]:
    """Index the table entries of ``a`` by the elements they read.

    ``uses[s][e]`` lists, once each, the entries with element ``e`` of sort
    ``s`` among their arguments (``mul(x, x)`` is listed once under ``x``);
    the tuple beside them holds the entries of nullary ops, which no use
    list reaches.
    """
    uses: list[list[list[_Entry]]] = [[[] for _ in range(n)] for n in a.sizes]
    constants: list[_Entry] = []
    for op in a.sig.ops:
        for args, res in a.tables[op.id].items():
            pairs = tuple(zip(op.arg_sorts, args))
            entry = (op.id, pairs, op.result_sort, res)
            for s, e in pairs:
                use = uses[s][e]
                if not use or use[-1] is not entry:
                    use.append(entry)
            if not pairs:
                constants.append(entry)
    return uses, tuple(constants)


def _close(
    tables: dict[int, dict[tuple, int]],
    uses: list[list[list[_Entry]]],
    maps: list[list[int]],
    used: list[set[int]],
    trail: list[tuple[int, int]],
    head: int,
    seeds: tuple[_Entry, ...] = (),
) -> bool:
    """Extend a closed partial map a -> b (-1 = unmapped) to a fixed point.

    ``tables`` are ``b``'s tables and ``uses`` the ``_use_lists`` of ``a``.
    The map was closed before ``trail[head:]`` was mapped, so only entries
    that read one of those elements, and the ``seeds``, can fire.  The
    trail is the worklist: each ``(sort, element)`` is taken from it once,
    and each of its entries whose arguments are all mapped sends its result
    to ``b``'s value at their images; each result so mapped is appended to
    ``trail`` in turn.  False on a clash: a result already mapped
    elsewhere, or an image another element already took.  The fixed point,
    and whether there is a clash, do not depend on the visiting order.
    """
    batch = seeds
    while True:
        for op_id, pairs, rs, res in batch:
            img = tuple([maps[s][e] for s, e in pairs])
            if -1 in img:
                continue
            v = tables[op_id][img]
            res_map = maps[rs]
            if res_map[res] == v:
                continue
            if res_map[res] >= 0 or v in used[rs]:
                return False
            res_map[res] = v
            used[rs].add(v)
            trail.append((rs, res))
        if head == len(trail):
            return True
        s, e = trail[head]
        head += 1
        batch = uses[s][e]


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

    After the size check, ``a`` is indexed once into use lists
    (``_use_lists``), so each closure visits only the table entries of the
    elements mapped since the last one; the trail of mapped elements is
    both the worklist and the undo log.  The search keeps an explicit
    stack, one frame per placed generator, so its depth is not bounded by
    Python's recursion limit.
    """
    if a.sig is not b.sig and not a.sig.same_shape(b.sig):
        raise AlgebraError("isomorphism search needs a shared signature")
    if a.sizes != b.sizes:
        return None
    uses, constants = _use_lists(a)
    maps = [[-1] * n for n in a.sizes]
    used = [set() for _ in a.sizes]
    trail: list[tuple[int, int]] = []

    def undo(mark: int):
        while len(trail) > mark:
            s, e = trail.pop()
            used[s].remove(maps[s][e])
            maps[s][e] = -1

    if not _close(b.tables, uses, maps, used, trail, 0, constants):
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
        if _close(b.tables, uses, maps, used, trail, mark):
            frames.append((mark, cand))
            cand = 0
        else:
            undo(mark)
            cand += 1
    table = MorphismTable(a, b, tuple(tuple(m) for m in maps))
    assert table.is_homomorphism() and table.is_bijective()
    return table


def assemble_trivial_action(
    full_sig: Signature,
    split: ActionSplit,
    h1: FiniteAlgebra,
    h2: FiniteAlgebra,
    s_var: SortedVar,
    s_term: Term,
) -> FiniteAlgebra:
    """Combine one-sorted algebras for the two parts with the action
    h1 o h2 = s(h2); the result is an algebra of the full signature."""
    if s_term.sort != 0 or any(v != s_var for v in free_vars(s_term)):
        raise SortViolation("the action term must be a second-part term in the single declared variable")
    sizes = [0, 0]
    sizes[split.sort1] = h1.sizes[0]
    sizes[split.sort2] = h2.sizes[0]
    tables: dict[int, dict[tuple, int]] = {}
    for ops, side in ((split.ops1, h1), (split.ops2, h2)):
        for op in ops:
            sub_op = side.sig.op_named(op.name)
            tables[op.id] = dict(side.tables[sub_op.id])
    act_table: dict[tuple, int] = {}
    for j in range(h2.sizes[0]):
        val = eval_term(h2, s_term, {s_var: j})
        for i in range(h1.sizes[0]):
            act_table[(i, j)] = val
    tables[split.action.id] = act_table
    return FiniteAlgebra(full_sig, tuple(sizes), tables)
