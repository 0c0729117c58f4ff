import ast
import gc
import hashlib
import itertools
import random
import re
from pathlib import Path

import pytest

from bruteforce import agrees_with_engine, bruteforce_free_algebra
from conftest import (
    GROUP_AXIOMS,
    GROUP_OPS,
    ORACLE_PROFILES,
    entry_models,
    load_entry_variety,
    make_axioms,
    make_variety,
    profile_of,
)
from corpus_reference import rows as corpus_rows
from freealg import egraph
from freealg.corpus import ENTRIES, INFINITE
from freealg.egraph import (
    Budget,
    BudgetExceeded,
    DEGENERATE,
    NONDEGENERATE,
    UNKNOWN,
    SaturationState,
    build_free_algebra,
    is_consequence,
    nondegeneracy_check,
)
from freealg.finalg import AlgebraError, compile_source, eval_term, satisfies_identity
from freealg.terms import Identity, TermArena, arena_of, parse_term, term_to_text
from term_order import reference_representatives, term_key


def zero_squares_variety():
    # commutative semigroups in which every square is one absorbing element;
    # (mul x x) = (mul y y) has a variable that its matched side lacks
    return make_variety(
        ["elem"],
        [("mul", ["elem", "elem"], "elem")],
        "zero-squares",
        [
            ([("x", "elem"), ("y", "elem"), ("z", "elem")], "(mul (mul x y) z)", "(mul x (mul y z))"),
            ([("x", "elem"), ("y", "elem")], "(mul x y)", "(mul y x)"),
            ([("x", "elem"), ("y", "elem")], "(mul x x)", "(mul y y)"),
            ([("x", "elem"), ("y", "elem")], "(mul x (mul y y))", "(mul y y)"),
        ],
    )


def ternary_boolean_groups():
    # boolean-groups plus a ternary op: no corpus op has arity 3, so only
    # here does rebuild repair keys of arity 3, some of them with a
    # repeated argument class
    return make_variety(
        ["elem"],
        [*GROUP_OPS, ("p", ["elem", "elem", "elem"], "elem")],
        "ternary-boolean-groups",
        [
            *GROUP_AXIOMS,
            ([("x", "elem")], "(mul x x)", "(e)"),
            ([("x", "elem"), ("y", "elem"), ("z", "elem")], "(p x y z)", "(mul x (mul y z))"),
        ],
    )


def collapse_variety():
    return make_variety(
        ["elem"],
        [("mul", ["elem", "elem"], "elem")],
        "collapse",
        [([("x1", "elem"), ("x2", "elem")], "x1", "x2")],
    )


def test_sets_free_algebra_is_the_generators(sets_variety):
    prof = profile_of(sets_variety, (3,))
    res = build_free_algebra(sets_variety, prof)
    assert res.algebra.sizes == (3,)
    assert sorted(res.gen_images.values()) == [0, 1, 2]
    for var in prof.variables():
        assert res.reps[0][res.gen_images[var]].var == var


def test_comm_idem_three_generators(comm_idem):
    prof = profile_of(comm_idem, (3,))
    res = build_free_algebra(comm_idem, prof)
    assert res.algebra.sizes == (7,)
    oracle = bruteforce_free_algebra(comm_idem, prof)
    assert oracle.stabilized
    assert oracle.n_classes_by_sort(1) == (7,)
    assert agrees_with_engine(oracle, res)


def test_automata_budget_exceeded():
    v = load_entry_variety("automata")
    prof = profile_of(v, (1, 1, 1))
    res = build_free_algebra(v, prof, Budget(max_classes=4000, max_rounds=48))
    assert isinstance(res, BudgetExceeded)
    assert res.limit == "rounds"
    res2 = build_free_algebra(v, prof, Budget(max_classes=50, max_rounds=48))
    assert isinstance(res2, BudgetExceeded)
    assert res2.limit == "classes"


def test_nondegeneracy_sets(sets_variety):
    assert nondegeneracy_check(sets_variety, 0).verdict == NONDEGENERATE


def test_nondegeneracy_collapse():
    v = collapse_variety()
    assert nondegeneracy_check(v, 0).verdict == DEGENERATE


def test_nondegeneracy_boolean(boolean_groups):
    assert nondegeneracy_check(boolean_groups, 0).verdict == NONDEGENERATE


def test_only_a_nondegenerate_run_returns_its_build(boolean_groups):
    report = nondegeneracy_check(boolean_groups, 0)
    assert report.build.algebra.sizes == (4,)
    assert report.build.stats.rounds[-1].nodes_created == 0
    degenerate = nondegeneracy_check(collapse_variety(), 0)
    assert degenerate.verdict == DEGENERATE and degenerate.build is None
    assert degenerate.detail.endswith("merged in round 1")  # stopped at the watched merge


def test_nondegeneracy_unknown_on_budget():
    semigroups = make_variety(
        ["elem"],
        [("mul", ["elem", "elem"], "elem")],
        "semigroups",
        [([("x", "elem"), ("y", "elem"), ("z", "elem")], "(mul (mul x y) z)", "(mul x (mul y z))")],
    )
    report = nondegeneracy_check(semigroups, 0, Budget(max_classes=500, max_rounds=8))
    assert report.verdict == UNKNOWN


def test_representatives_generator_and_constant(boolean_groups):
    prof = profile_of(boolean_groups, (2,))
    res = build_free_algebra(boolean_groups, prof)
    x1, x2 = prof.variables()
    assert res.reps[0][res.gen_images[x1]].var == x1
    # the class of x*x is the identity constant, whose minimal term is (e)
    sq = parse_term("(mul x1 x1)", boolean_groups.sig, prof)
    elem = eval_term(res.algebra, sq, res.gen_images)
    assert term_to_text(res.reps[0][elem]) == "(e)"


def test_representatives_prefer_sorted_product(comm_idem):
    prof = profile_of(comm_idem, (2,))
    res = build_free_algebra(comm_idem, prof)
    yx = parse_term("(mul x2 x1)", comm_idem.sig, prof)
    elem = eval_term(res.algebra, yx, res.gen_images)
    assert term_to_text(res.reps[0][elem]) == "(mul x1 x2)"


def test_determinism(comm_idem):
    prof = profile_of(comm_idem, (3,))
    a = build_free_algebra(comm_idem, prof)
    b = build_free_algebra(comm_idem, prof)
    assert a.algebra.sizes == b.algebra.sizes
    assert a.algebra.tables == b.algebra.tables
    assert [term_to_text(t) for col in a.reps for t in col] == [
        term_to_text(t) for col in b.reps for t in col
    ]
    assert a.gen_images == b.gen_images
    assert a.stats.to_json_dict() == b.stats.to_json_dict()


EXTRACTION_CASES = [
    *((name, counts) for _, name, counts, infinite in corpus_rows() if not infinite),
    (collapse_variety, (3,)),  # the generators merge into one class
    ("boolean-groups", (0,)),  # no generator: the constants make the classes
]


@pytest.mark.parametrize(
    "name,counts",
    EXTRACTION_CASES,
    ids=[f"{getattr(n, '__name__', n)}-{','.join(map(str, c))}" for n, c in EXTRACTION_CASES],
)
def test_extraction_agrees_with_the_term_building_fixpoint(monkeypatch, name, counts):
    # extraction compares keys and makes one term per class; the fixpoint
    # that makes a term per candidate must find the same representatives
    applied = []
    apply = TermArena.apply

    def apply_and_count(arena, op, children):
        applied.append(op)
        return apply(arena, op, children)

    extract = egraph.extract_representatives
    checked = []

    def extract_and_check(state):
        made = len(applied)
        keys, reps = extract(state)
        made = len(applied) - made
        assert reps == reference_representatives(state)
        assert keys == {root: term_key(t) for root, t in reps.items()}
        # one term per class whose representative is not a generator
        assert made == sum(not t.is_var() for t in reps.values())
        checked.append(state)
        return keys, reps

    monkeypatch.setattr(TermArena, "apply", apply_and_count)
    monkeypatch.setattr(egraph, "extract_representatives", extract_and_check)
    v = name() if callable(name) else load_entry_variety(name)
    res = build_free_algebra(v, profile_of(v, counts))
    [state] = checked
    assert set(res.gen_images) == set(state.gen_class)
    if name is collapse_variety:
        assert res.algebra.sizes == (1,) and res.reps[0][0].is_var()
    if name == "boolean-groups" and counts == (0,):
        assert [term_to_text(t) for t in res.reps[0]] == ["(e)"]


def test_extraction_runs_its_fixpoint_until_a_pass_changes_nothing():
    # the constant c joins the class of h(x) in a later table position than
    # f's key over that class, so the pass that lowers the class's best key
    # to c has already offered f(h(x)); only the next pass offers f(c)
    v = make_variety(
        ["elem"],
        [("h", ["elem"], "elem"), ("f", ["elem"], "elem"), ("c", [], "elem")],
        "unary-and-constant",
        [],
    )
    h, f, c = (op.id for op in v.sig.ops)
    prof = profile_of(v, (1,))
    state = SaturationState(v, prof)
    [x] = state.gen_class.values()
    p = state._node(h, (x,), 0)
    q = state._node(f, (p,), 0)
    state._union(p, state._node(c, (), 0))
    state.rebuild()
    keys, reps = egraph.extract_representatives(state)
    assert keys[q] == term_key(parse_term("(f (c))", v.sig, prof))
    assert keys == {root: term_key(t) for root, t in reps.items()}


def test_freezing_an_unsaturated_state_fails_the_table_check(boolean_groups):
    # freeze copies the table as it stands; the algebra's own check finds
    # the entries missing from a state that has not been saturated
    state = SaturationState(boolean_groups, profile_of(boolean_groups, (1,)))
    with pytest.raises(AlgebraError, match=r"^table for 'mul' has 0 entries, expected 1$"):
        egraph.freeze(state)


def _case_id(case):
    name, counts, _ = case
    return f"{getattr(name, '__name__', name)}-{','.join(map(str, counts))}"


INDEX_CASES = [
    ("elem-abelian-3", (2,), Budget()),
    ("semigroup-actions-trivial", (1, 1), ENTRIES["semigroup-actions-trivial"].infinite_budget),
    # rows on which rebuild itself forces many congruence merges
    ("boolean-groups", (3,), Budget()),
    ("lie-reps-null-f2", (2, 0), ENTRIES["lie-reps-null-f2"].infinite_budget),
    (ternary_boolean_groups, (2,), Budget()),
]


def index_case_variety(name):
    return name() if callable(name) else load_entry_variety(name)


def assert_indexes_match_a_fresh_scan(state):
    # rebuild repairs its indexes in place rather than rescanning, so after
    # every call they must equal a fresh scan of key2class
    nodes: dict[int, list[tuple]] = {}
    uses: dict[int, list[tuple]] = {}
    by_op: dict[int, list[tuple]] = {op.id: [] for op in state.sig.ops}
    by_sort: dict[int, set[int]] = {s.id: set() for s in state.sig.sorts}
    for key, cls in state.key2class.items():
        root = state.find(cls)
        assert key == (key[0],) + tuple(state.find(c) for c in key[1:])
        nodes.setdefault(root, []).append(key)
        by_op[key[0]].append(key)
        for c in set(key[1:]):
            uses.setdefault(c, []).append(key)
        by_sort[state.class_sort[root]].add(root)
    for cls in state.gen_class.values():
        root = state.find(cls)
        by_sort[state.class_sort[root]].add(root)
    assert {c: list(keys) for c, keys in state.class_nodes.items()} == nodes
    assert {c: list(keys) for c, keys in state._uses.items()} == uses
    assert {op: list(keys) for op, keys in state._by_op.items()} == by_op
    # every key's stamp is a generation that has been closed
    stamps = [g for keys in state._by_op.values() for g in keys.values()]
    assert all(type(g) is int and 0 < g <= state.generation for g in stamps)
    for sort, roots in by_sort.items():
        assert state.classes_of_sort(sort) == sorted(roots)


@pytest.mark.parametrize("name,counts,budget", INDEX_CASES, ids=map(_case_id, INDEX_CASES))
def test_rebuild_leaves_indexes_equal_to_a_fresh_scan(monkeypatch, name, counts, budget):
    rebuild = SaturationState.rebuild
    checked = []
    repaired = set()  # the shapes of the keys rebuild repairs: (arity, argument classes)

    def rebuild_and_check(state):
        for loser in state._losers:
            repaired.update((len(k) - 1, len(set(k[1:]))) for k in state._uses.get(loser, ()))
        rebuild(state)
        assert_indexes_match_a_fresh_scan(state)
        checked.append(state.round)

    monkeypatch.setattr(SaturationState, "rebuild", rebuild_and_check)
    v = index_case_variety(name)
    build_free_algebra(v, profile_of(v, counts), budget)
    assert len(set(checked)) > 1
    if name is ternary_boolean_groups:
        # ternary keys, with three argument classes and with a repeated one
        assert {(3, 3), (3, 2)} <= repaired


@pytest.mark.parametrize("name,counts,budget", INDEX_CASES, ids=map(_case_id, INDEX_CASES))
def test_grow_merges_nothing_and_enters_only_canonical_keys(monkeypatch, name, counts, budget):
    # grow runs right after its rebuild and only makes nodes in new classes,
    # so the keys it forms from the roots of each sort need no find
    grow, rebuild, enter = SaturationState.grow, SaturationState.rebuild, SaturationState._enter
    growing = []  # (merges_done, losers) once the rebuild inside grow is done
    entered = []

    def rebuild_and_mark(state):
        rebuild(state)
        if growing:
            growing[-1] = (state.merges_done, list(state._losers))

    def enter_and_check(state, key, cls):
        if growing:
            assert key not in state.key2class
            assert all(state.parent[x] == x for x in (cls, *key[1:]))
            entered.append(key)
        enter(state, key, cls)

    def grow_and_check(state):
        growing.append(None)
        try:
            return grow(state)
        finally:
            assert growing.pop() == (state.merges_done, state._losers)

    monkeypatch.setattr(SaturationState, "rebuild", rebuild_and_mark)
    monkeypatch.setattr(SaturationState, "_enter", enter_and_check)
    monkeypatch.setattr(SaturationState, "grow", grow_and_check)
    v = index_case_variety(name)
    build_free_algebra(v, profile_of(v, counts), budget)
    assert entered


def test_rebuild_puts_moved_keys_back_in_table_order():
    # rebuild moves a loser's keys to the end of its root's list and sorts
    # the lists it left out of order once, at the end: a root must be sorted
    # when its keys interleave with the loser's, and also when the loser was
    # itself left out of order earlier in the same rebuild
    v = make_variety(["elem"], [("f", ["elem"], "elem"), ("g", ["elem"], "elem")], "unary", [])
    f, g = (op.id for op in v.sig.ops)
    state = SaturationState(v, profile_of(v, (3,)))
    p, d, c = state.gen_class.values()
    state._make((g, d), 0, p)  # table position 1, in p
    a = state._node(g, (c,), 0)  # position 2
    b = state._node(f, (p,), 0)  # position 3
    state._make((f, d), 0, a)  # position 4
    state._make((f, c), 0, b)  # position 5
    state.rebuild()
    assert [list(state.class_nodes[x]) for x in (p, a, b)] == [[(g, d)], [(g, c), (f, d)], [(f, p), (f, c)]]
    state._union(d, c)  # repaired last: (g c) meets (g d), which merges a into p
    state._union(a, b)  # repaired first: a's keys and b's interleave
    state.rebuild()
    assert state.find(a) == state.find(b) == p
    assert list(state.key2class) == [(g, d), (f, p), (f, d)]
    nodes: dict[int, list[tuple]] = {}
    for key, cls in state.key2class.items():
        nodes.setdefault(state.find(cls), []).append(key)
    assert {x: list(keys) for x, keys in state.class_nodes.items()} == nodes
    assert list(state.class_nodes[p].values()) == [1, 3, 4]


def test_rebuild_restamps_exactly_the_changed_keys():
    # a key is new when its canonical form or its class's root changed
    v = make_variety(["elem"], [("f", ["elem"], "elem"), ("h", ["elem"], "elem")], "unary", [])
    f, h = (op.id for op in v.sig.ops)
    state = SaturationState(v, profile_of(v, (3,)))
    x1, x2, x3 = state.gen_class.values()
    state._node(f, (x2,), 0)
    hx1 = state._node(h, (x1,), 0)
    state._node(h, (x3,), 0)
    state.rebuild()
    before = state.generation
    state._union(x1, x2)  # (f x2) becomes (f x1), its class keeps its root
    state._union(x3, hx1)  # (h x1) keeps its form, its class's root becomes x3
    state.rebuild()
    assert state.generation == before + 1
    # the stamps live in the op index; a restamp keeps the key's place
    assert {op: list(keys.items()) for op, keys in state._by_op.items()} == {
        f: [((f, x1), before + 1)],
        h: [((h, x1), before + 1), ((h, x3), before)],
    }


def test_rebuild_drops_a_repaired_key_whose_form_is_in_its_own_class():
    # f(b) and g(b, c) share classes with f(a) and g(a, c); once a and b
    # merge, their repaired forms are already there, in the same classes,
    # so rebuild drops them and merges nothing
    v = make_variety(["elem"], [("f", ["elem"], "elem"), ("g", ["elem", "elem"], "elem")], "dup", [])
    f, g = (op.id for op in v.sig.ops)
    state = SaturationState(v, profile_of(v, (3,)))
    a, b, c = state.gen_class.values()
    x = state._node(f, (a,), 0)
    y = state._node(g, (a, c), 0)
    state._make((f, b), 0, x)
    state._make((g, b, c), 0, y)
    state.rebuild()  # table positions 1 to 4, all stamped with generation 1
    assert state._union(a, b)
    merges = state.merges_done
    state.rebuild()
    assert state.merges_done == merges
    assert list(state.key2class) == [(f, a), (g, a, c)]
    # the survivors keep their table positions and their stamps
    assert state.class_nodes == {x: {(f, a): 1}, y: {(g, a, c): 2}}
    assert state._by_op == {f: {(f, a): 1}, g: {(g, a, c): 1}}
    assert state._uses == {a: {(f, a): None, (g, a, c): None}, c: {(g, a, c): None}}
    assert_indexes_match_a_fresh_scan(state)


INDEXES = {"key2class", "class_nodes", "_by_op", "_uses"}


def removers(source: str, attrs=INDEXES) -> list[str]:
    """The definitions, as ``Class.function`` paths, that remove entries
    from an attribute in ``attrs`` or from a dict it holds, by ``pop``,
    ``popitem``, ``clear`` or ``del``.  Aliases resolve by name across the
    module: a name bound, by assignment or as a loop target, to such an
    attribute or to anything read from one stands for it everywhere."""
    tree = ast.parse(source)
    aliases: set[str] = set()

    def held(node) -> bool:
        while True:
            if isinstance(node, ast.Subscript):
                node = node.value
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                node = node.func.value
            elif isinstance(node, ast.Attribute):
                return node.attr in attrs or held(node.value)
            else:
                return isinstance(node, ast.Name) and node.id in aliases

    def bindings(node):
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign):
            targets, value = [node.target], node.value
        elif isinstance(node, ast.For):
            targets, value = [node.target], node.iter
        else:
            return
        for target in targets:
            if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple):
                yield from zip(target.elts, value.elts)
            else:
                yield target, value

    while True:
        new = {
            target.id
            for node in ast.walk(tree)
            for target, value in bindings(node)
            if isinstance(target, ast.Name) and target.id not in aliases and value is not None and held(value)
        }
        if not new:
            break
        aliases |= new
    found = set()
    stack = [(tree, "")]
    while stack:
        node, where = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                stack.append((child, f"{where}.{child.name}".lstrip(".")))
                continue
            if isinstance(child, ast.Delete) and any(held(t) for t in child.targets):
                found.add(where)
            elif (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr in ("pop", "popitem", "clear")
                and held(child.func.value)
            ):
                found.add(where)
            stack.append((child, where))
    return sorted(found)


def test_only_rebuild_takes_entries_out_of_the_table_and_its_indexes():
    # nodes are made only by _make, and leave only in rebuild
    assert removers(Path(egraph.__file__).read_text()) == ["SaturationState.rebuild"]


def test_scan_finds_every_removal():
    source = (
        "class S:\n"
        "    def direct(self, k):\n"
        "        del self.key2class[k]\n"
        "    def nested(self, k):\n"
        "        self._by_op[k[0]].pop(k)\n"
        "    def aliased(self, k):\n"
        "        losers, uses = self._losers, self._uses\n"
        "        losers.pop()\n"
        "        for c in k[1:]:\n"
        "            del uses[c][k]\n"
        "    def through_a_read(self, c):\n"
        "        nodes = self.class_nodes.get(c)\n"
        "        def inner(): nodes.clear()\n"
        "    def harmless(self, k):\n"
        "        self._losers.pop()\n"
        "        self.key2class[k] = 0\n"
        "        del self._sort_classes[0][k]\n"
        "def loop(state):\n"
        "    for nodes in state.class_nodes.values():\n"
        "        nodes.popitem()\n"
    )
    assert removers(source) == ["S.aliased", "S.direct", "S.nested", "S.through_a_read.inner", "loop"]


def test_one_union_closes_a_two_level_congruence_cascade():
    v = make_variety(["elem"], [("f", ["elem"], "elem"), ("g", ["elem"], "elem")], "unary", [])
    f, g = (op.id for op in v.sig.ops)
    state = SaturationState(v, profile_of(v, (2,)))
    a, b = state.gen_class.values()
    fa, fb = state._node(f, (a,), 0), state._node(f, (b,), 0)
    gfa, gfb = state._node(g, (fa,), 0), state._node(g, (fb,), 0)
    state.rebuild()
    assert state.n_live == 6
    assert state._union(a, b)
    state.rebuild()
    # (f b) meets (f a), and then (g (f b)) meets (g (f a))
    assert state.find(fa) == state.find(fb) != state.find(a)
    assert state.find(gfa) == state.find(gfb) != state.find(fa)
    assert (state.n_live, state.merges_done) == (3, 3)
    assert sorted(state.key2class) == [(f, a), (g, fa)]
    assert state.classes_of_sort(0) == [a, fa, gfa]


COMPLETENESS_CASES = [
    (name, counts, None)
    for name, entry in ENTRIES.items()
    for counts, sizes in entry.expected
    if sizes != INFINITE and sum(counts) <= 3
] + [
    ("semigroup-actions-trivial", (1, 1), None),
    (zero_squares_variety, (2,), (4,)),
    (zero_squares_variety, (3,), (8,)),
    (collapse_variety, (3,), (1,)),
]


@pytest.mark.parametrize("name,counts,sizes", COMPLETENESS_CASES, ids=map(_case_id, COMPLETENESS_CASES))
def test_semi_naive_matching_misses_nothing(monkeypatch, name, counts, sizes):
    # a pass with no merge ends the match loop; every query's kernel, run
    # over all its matches, must then find only instances that already
    # hold and need no new node
    match_pass = SaturationState.match_pass
    quiet = []

    def match_pass_and_check(state):
        merges, created = match_pass(state)
        if merges == 0:
            before = (state.nodes_created, state.merges_done)
            instances = state.instances
            for q in state._queries:
                pools = [state.classes_of_sort(s) for s in q.pools]
                q.kernel(state, -1, 0, pools)
                assert (state.nodes_created, state.merges_done) == before
            state.instances = instances
            quiet.append(state.round)
        return merges, created

    monkeypatch.setattr(SaturationState, "match_pass", match_pass_and_check)
    if callable(name):
        v, budget = name(), Budget()
    else:
        v, budget = load_entry_variety(name), ENTRIES[name].infinite_budget
    res = build_free_algebra(v, profile_of(v, counts), budget)
    if sizes is not None:
        assert res.algebra.sizes == sizes
    assert quiet


def cycle_40_variety():
    # (f^40 x) = x: each seed's join is deeper than one generated function
    return make_variety(
        ["elem"],
        [("f", ["elem"], "elem")],
        "cycle-40",
        [([("x", "elem")], "(f " * 40 + "x" + ")" * 40, "x")],
    )


MOVED_ROOT_CASES = [
    ("semigroup-actions-trivial", (1, 1), ENTRIES["semigroup-actions-trivial"].infinite_budget),
    ("group-reps-trivial-f2", (1, 0), ENTRIES["group-reps-trivial-f2"].infinite_budget),
    ("comm-idem-semigroups", (5,), Budget()),
    ("boolean-groups", (4,), Budget()),
    (cycle_40_variety, (1,), Budget()),
]


@pytest.mark.parametrize("name,counts,budget", MOVED_ROOT_CASES, ids=map(_case_id, MOVED_ROOT_CASES))
def test_skipping_moved_roots_changes_only_the_instance_count(monkeypatch, captured_states, name, counts, budget):
    # a kernel skips the matches whose only new atom is a root key that
    # moved class since the last pass; with mark at 0 no key counts as
    # moved, so each kernel matches as it would without the skip, and the
    # two builds must do the same work but for the instances skipped
    def build(v):
        """The build's results and work but its instances, and its
        instances per completed round and in all."""
        res = build_free_algebra(v, profile_of(v, counts), budget)
        state = captured_states[-1]
        if isinstance(res, BudgetExceeded):
            outcome = (res.limit, res.classes, res.rounds)
        else:
            outcome = (res.algebra.sizes, res.algebra.tables, res.gen_images, res.rep_strings())
        rounds = [r.to_json_dict() for r in res.stats.rounds]
        per_round = [r.pop("instances") for r in rounds]
        work = (state.nodes_created, state.merges_done, state.generation, rounds)
        return (outcome, work), per_round, state.instances

    load = name if callable(name) else lambda: load_entry_variety(name)
    skipping, skipped_rounds, skipped = build(load())
    unfiltered = load()
    for q in unfiltered._queries:
        monkeypatch.setattr(q, "kernel", lambda state, since, mark, pools, k=q.kernel: k(state, since, 0, pools))
    reference, reference_rounds, instances = build(unfiltered)
    assert skipping == reference
    assert all(a <= b for a, b in zip(skipped_rounds, reference_rounds, strict=True))
    assert skipped <= instances
    if name == "semigroup-actions-trivial":
        assert skipped < instances


BUDGET_TRIPS = [
    ("automata", (1, 1, 0), "rounds", 130, 64),
    ("automata", (1, 1, 1), "rounds", 131, 64),
    ("semigroup-actions-trivial", (1, 1), "classes", 4001, 8),
    ("group-reps-trivial-f2", (1, 0), "classes", 4001, 2),
    ("lie-reps-null-f2", (2, 0), "classes", 4001, 2),
]


@pytest.mark.parametrize(
    "name,counts,limit,classes,rounds",
    BUDGET_TRIPS,
    ids=[f"{n}-{','.join(map(str, c))}" for n, c, *_ in BUDGET_TRIPS],
)
def test_budget_trip_is_pinned(name, counts, limit, classes, rounds):
    v = load_entry_variety(name)
    res = build_free_algebra(v, profile_of(v, counts), ENTRIES[name].infinite_budget)
    assert isinstance(res, BudgetExceeded)
    assert (res.limit, res.classes, res.rounds) == (limit, classes, rounds)


TRIPPED_WORK = [
    ("automata", (1, 1, 0), 128, 0, 0, 128),
    ("automata", (1, 1, 1), 128, 0, 0, 128),
    ("semigroup-actions-trivial", (1, 1), 10048, 6049, 172768, 84),
    ("group-reps-trivial-f2", (1, 0), 20491, 16491, 27457, 156),
    ("lie-reps-null-f2", (2, 0), 13209, 9210, 5164, 76),
]


@pytest.mark.parametrize(
    "name,counts,nodes,merges,instances,generation",
    TRIPPED_WORK,
    ids=[f"{n}-{','.join(map(str, c))}" for n, c, *_ in TRIPPED_WORK],
)
def test_work_inside_the_tripping_round_is_pinned(captured_states, name, counts, nodes, merges, instances, generation):
    # BudgetExceeded.stats holds the completed rounds only; the work of the
    # round that trips shows in the state's own counters
    v = load_entry_variety(name)
    res = build_free_algebra(v, profile_of(v, counts), ENTRIES[name].infinite_budget)
    assert isinstance(res, BudgetExceeded)
    [state] = captured_states
    assert (state.nodes_created, state.merges_done, state.instances, state.generation) == (
        nodes,
        merges,
        instances,
        generation,
    )
    # every INFINITE row of the corpus is pinned here
    assert sorted(row[:2] for row in TRIPPED_WORK) == sorted(INFINITE_ROWS)


MAKE_SEQUENCES = [
    ("elem-abelian-3", (3,), Budget(), 20727, "6a2254245461ddde952ea140ad00218b6818c7c127f9e470561f98ecb9a33184"),
    (
        "lie-reps-null-f2",
        (2, 0),
        ENTRIES["lie-reps-null-f2"].infinite_budget,
        13209,
        "eee366b9232713a9582e25bf6b4a9d6da299774d32d09849ff66c92d34a564cd",
    ),
]


@pytest.mark.parametrize(
    "name,counts,budget,calls,digest",
    MAKE_SEQUENCES,
    ids=[f"{n}-{','.join(map(str, c))}" for n, c, *_ in MAKE_SEQUENCES],
)
def test_the_order_of_made_nodes_is_pinned(monkeypatch, name, counts, budget, calls, digest):
    # every node is made by _make, so the sequence of its (key, into)
    # arguments pins the order in which the join finds its matches and the
    # instances build, not only how many there are
    make = SaturationState._make
    seen = hashlib.sha256()
    made = []

    def make_and_record(state, key, sort, into=None):
        seen.update(repr((key, into)).encode())
        made.append(None)
        return make(state, key, sort, into)

    monkeypatch.setattr(SaturationState, "_make", make_and_record)
    v = load_entry_variety(name)
    build_free_algebra(v, profile_of(v, counts), budget)
    assert (len(made), seen.hexdigest()) == (calls, digest)


def test_kernels_compile_once_per_axiom_shape(captured_states):
    # the match plans belong to the variety: a second build of the same
    # variety reuses the first build's queries and neither compiles nor
    # looks up a kernel; a fresh copy of the variety plans its queries
    # again but reuses each kernel rather than compile it again
    v = load_entry_variety("boolean-groups")
    build_free_algebra(v, profile_of(v, (2,)))
    before = compile_source.cache_info()
    build_free_algebra(v, profile_of(v, (2,)))
    after = compile_source.cache_info()
    assert (after.misses, after.hits) == (before.misses, before.hits)
    first, second = captured_states
    assert len(first._queries) == len(v.axioms)
    assert all(a is b for a, b in zip(first._queries, second._queries, strict=True))
    copy = load_entry_variety("boolean-groups")
    build_free_algebra(copy, profile_of(copy, (2,)))
    again = compile_source.cache_info()
    assert again.misses == after.misses
    assert again.hits == after.hits + len(v.axioms)


def test_a_build_leaves_no_cyclic_garbage():
    v = load_entry_variety("elem-abelian-3")
    gc.collect()
    gc.disable()
    try:
        res = build_free_algebra(v, profile_of(v, (3,)))
        assert res.algebra.sizes == (27,)
        del res
        assert gc.collect() == 0
    finally:
        gc.enable()


def named_groups(elem, mul, inv, e):
    # groups of exponent 2 over the given sort and op names
    return make_variety(
        [elem],
        [(mul, [elem, elem], elem), (inv, [elem], elem), (e, [], elem)],
        "named-groups",
        [
            ([(x, elem) for x in xs], lhs, rhs)
            for xs, lhs, rhs in [
                ("xyz", f"({mul} ({mul} x y) z)", f"({mul} x ({mul} y z))"),
                ("x", f"({mul} ({e}) x)", "x"),
                ("x", f"({mul} x ({inv} x))", f"({e})"),
                ("x", f"({mul} x x)", f"({e})"),
            ]
        ],
    )


def test_kernel_source_holds_no_name_from_the_variety():
    plain = named_groups("elem", "mul", "inv", "e")
    # names that collide with the kernels' own local names
    clash = named_groups("state", "find", "table", "since")
    results = [build_free_algebra(v, profile_of(v, (2,))) for v in (plain, clash)]
    assert [r.algebra.sizes for r in results] == [(4,), (4,)]
    assert results[0].algebra.tables == results[1].algebra.tables

    def sources(v):
        return [q.source for q in SaturationState(v, profile_of(v, (2,)))._queries]

    names = {"elem", "mul", "inv", "e"}
    for source in sources(plain):
        words = set()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                words.add(node.id)
            elif isinstance(node, ast.arg):
                words.add(node.arg)
            elif isinstance(node, ast.Attribute):
                words.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                words.add(node.value)
        assert not words & names
    # renaming every sort and op leaves every kernel as it was
    assert sources(clash) == sources(plain)


def test_fully_bound_atoms_are_one_lookup():
    # in (mul (e) x) = x and (mul x (inv x)) = (e), once the mul key is
    # bound every argument of the e and inv atoms is bound: each is one
    # hash-cons lookup, never a loop over a class or a use list
    v = named_groups("elem", "mul", "inv", "e")
    mul, inv, e = (op.id for op in v.sig.ops)
    queries = SaturationState(v, profile_of(v, (2,)))._queries
    unit, inverse = queries[1].source, queries[2].source

    def looped_ops(source):
        # each loop over a class or a use list first checks its key's op
        loops = re.findall(r"for (k\d+) in (?:nodes|uses)\.get\(.*\n\s+if \1\[0\] != (\d+)", source)
        return {int(op) for _, op in loops}

    assert looped_ops(unit) <= {mul} and looped_ops(inverse) <= {mul}
    assert f"= ({e},)\n" in unit
    assert f"= ({inv}, v" in inverse
    # the stamps live in the op index; no kernel keeps a map of its own
    assert all("stamp" not in q.source for q in queries)
    # the class cap is checked where a node is made, not in the kernels
    for name in ("n_live", "max_classes", "_Tripped"):
        assert all(name not in q.source for q in queries)

    def loops_before_ready_lookups(source):
        # within one seed's join the levels nest in a single chain, so the
        # slots bound before a loop are those assigned on the lines above
        # it; no lookup inside the loop may have all its arguments among them
        late = []
        for block in re.split(r"\n(?=\s*for k\d+, gen in )", source):
            lines = block.splitlines()
            for i, line in enumerate(lines):
                if re.search(r"for k\d+ in (?:nodes|uses)\.get\(", line):
                    bound = {v for text in lines[:i] for v in re.findall(r"\b(v\d+) = ", text)}
                    for text in lines[i + 1 :]:
                        lookup = re.fullmatch(r"\s*k\d+ = \(\d+,\s?(.*)\)", text)
                        if lookup and set(filter(None, lookup[1].split(", "))) <= bound:
                            late.append((line.strip(), text.strip()))
        return late

    # the Jacobi identity: seed 0 loops over its two ladd keys, then
    # (br (br x y) z) and (br x y); with x, y and z bound, (br y z),
    # (br (br y z) x), (br z x) and (br (br z x) y) are lookups: 4 loops, not 6
    lie = load_entry_variety("lie-reps-null-f2")
    assert term_to_text(lie.axioms[10].lhs).startswith("(ladd (br (br x y) z) (ladd")
    jacobi = lie._queries[10].source
    assert len(re.findall(r"\bfor k\d+(?:, gen)? in ", jacobi[: jacobi.index("if since >= 0:")])) == 4
    for source in (*(q.source for q in queries), jacobi):
        assert loops_before_ready_lookups(source) == []


def test_patterns_deeper_than_one_generated_function():
    # (f^40 x) = x: each of the 40 seeds' joins nests 40 loops, more than
    # one function may hold, so it spans the kernel and two helpers
    v = make_variety(
        ["elem"],
        [("f", ["elem"], "elem")],
        "cycle-40",
        [([("x", "elem")], "(f " * 40 + "x" + ")" * 40, "x")],
    )
    res = build_free_algebra(v, profile_of(v, (1,)))
    assert res.algebra.sizes == (40,)
    [q] = SaturationState(v, profile_of(v, (1,)))._queries
    assert q.source.count("def join") == 2 * 40


def test_close_never_increases_classes(boolean_groups):
    prof = profile_of(boolean_groups, (3,))
    res = build_free_algebra(boolean_groups, prof)
    for r in res.stats.rounds:
        assert r.classes_end <= r.classes_after_grow


def test_budget_class_flag(boolean_groups):
    prof = profile_of(boolean_groups, (3,))
    res = build_free_algebra(boolean_groups, prof, Budget(max_classes=20, max_rounds=64))
    assert isinstance(res, BudgetExceeded)
    assert res.limit == "classes"
    assert res.classes > 20


@pytest.mark.parametrize("name", ["sets", "boolean-groups"])
def test_more_generators_than_the_class_cap_trip_at_round_zero(name):
    # each generator is a class: the build trips before its first round,
    # whether or not the signature has an operation to grow with
    v = load_entry_variety(name)
    for n, cap in ((11, 10), (3, 2)):
        res = build_free_algebra(v, profile_of(v, (n,)), Budget(max_classes=cap))
        assert isinstance(res, BudgetExceeded)
        assert (res.limit, res.classes, res.rounds, res.stats.rounds) == ("classes", n, 0, [])


def test_one_handler_builds_every_budget_trip():
    # every trip raises _Tripped, the round-0 class cap and the round limit
    # too, and the one except clause in _run makes its BudgetExceeded
    calls = [
        node
        for node in ast.walk(ast.parse(Path(egraph.__file__).read_text()))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "BudgetExceeded"
    ]
    assert len(calls) == 1


def test_as_many_generators_as_the_class_cap_still_build(sets_variety):
    res = build_free_algebra(sets_variety, profile_of(sets_variety, (10,)), Budget(max_classes=10))
    assert res.algebra.sizes == (10,)


def test_free_algebra_satisfies_axioms_everywhere():
    for name in ("boolean-groups", "f3-vector-spaces", "graphs"):
        v = load_entry_variety(name)
        counts = tuple(2 for _ in v.sig.sorts)
        res = build_free_algebra(v, profile_of(v, counts))
        from freealg.finalg import satisfies_all

        assert satisfies_all(res.algebra, v.axioms) is True


def test_soundness_spot_checks():
    # random terms evaluate to their class representative in every model
    rng = random.Random(2024)
    for name, profiles in ORACLE_PROFILES.items():
        v = load_entry_variety(name)
        models = entry_models(name, v)
        if not models:
            continue
        counts = profiles[0]
        prof = profile_of(v, counts)
        res = build_free_algebra(v, prof)
        if isinstance(res, BudgetExceeded):
            continue
        arena = arena_of(v.sig)
        gen_terms = [arena.var(x) for x in prof.variables()]
        by_sort = {}
        for t in gen_terms:
            by_sort.setdefault(t.sort, []).append(t)

        def rand_term(sort, depth):
            pool = by_sort.get(sort, [])
            ops = [o for o in v.sig.ops if o.result_sort == sort]
            growable = [
                o for o in ops if all(by_sort.get(s) or any(
                    c.result_sort == s and c.arity == 0 for c in v.sig.ops
                ) for s in o.arg_sorts)
            ]
            consts = [o for o in ops if o.arity == 0]
            if depth == 0 or (not growable and not consts) or (pool and rng.random() < 0.3):
                if pool and (not consts or rng.random() < 0.7):
                    return rng.choice(pool)
                if consts:
                    return arena.apply(rng.choice(consts), ())
                return rng.choice(pool) if pool else None
            op = rng.choice(growable or consts)
            children = []
            for s in op.arg_sorts:
                c = rand_term(s, depth - 1)
                if c is None:
                    return None
                children.append(c)
            return arena.apply(op, tuple(children))

        checked = 0
        attempts = 0
        while checked < 100 and attempts < 1000:
            attempts += 1
            sort = rng.randrange(len(v.sig.sorts))
            t = rand_term(sort, 3)
            if t is None:
                continue
            elem = eval_term(res.algebra, t, res.gen_images)
            rep = res.reps[t.sort][elem]
            ident = Identity(prof, t, rep)
            for model in models:
                assert satisfies_identity(model, ident) is True, (
                    f"{name}: merged pair {t!r} = {rep!r} fails in a model"
                )
            checked += 1
        assert checked >= 50, f"{name}: too few sampled merges"


def test_universal_property_exhaustive():
    # for every small model and every generator map, sending each class to
    # the evaluation of its representative is a homomorphism
    for name in ("left-zero", "boolean-groups", "f2-vector-spaces", "semigroup-actions-trivial"):
        v = load_entry_variety(name)
        models = [m for m in entry_models(name, v) if m.total_size() <= 8]
        counts = ORACLE_PROFILES[name][0]
        prof = profile_of(v, counts)
        res = build_free_algebra(v, prof)
        vs = prof.variables()
        for model in models:
            pools = [range(model.sizes[x.sort]) for x in vs]
            for combo in itertools.product(*pools):
                images = dict(zip(vs, combo))
                val = [
                    [None] * res.algebra.sizes[s.id] for s in v.sig.sorts
                ]
                for s in v.sig.sorts:
                    for e in range(res.algebra.sizes[s.id]):
                        val[s.id][e] = eval_term(model, res.reps[s.id][e], images)
                for var in vs:
                    assert val[var.sort][res.gen_images[var]] == images[var]
                for op in v.sig.ops:
                    for args, out in res.algebra.tables[op.id].items():
                        mapped = tuple(
                            val[s][a] for a, s in zip(args, op.arg_sorts)
                        )
                        assert model.tables[op.id][mapped] == val[op.result_sort][out]


def test_oracle_equivalence_smoke(boolean_groups):
    prof = profile_of(boolean_groups, (2,))
    res = build_free_algebra(boolean_groups, prof)
    oracle = bruteforce_free_algebra(boolean_groups, prof)
    assert oracle.stabilized
    assert oracle.n_classes_by_sort(1) == (4,)
    assert agrees_with_engine(oracle, res)


INFINITE_ROWS = [
    (name, counts)
    for name, entry in ENTRIES.items()
    for counts, sizes in entry.expected
    if sizes == INFINITE
]


@pytest.mark.parametrize(
    "name,counts", INFINITE_ROWS, ids=[f"{n}-{','.join(map(str, c))}" for n, c in INFINITE_ROWS]
)
def test_oracle_does_not_stabilize_on_infinite_row(name, counts):
    # the oracle stops on its height ceiling or its universe cap, and never
    # reports a closure with terms cut off as the free algebra
    v = load_entry_variety(name)
    oracle = bruteforce_free_algebra(v, profile_of(v, counts))
    assert not oracle.stabilized
    assert max(t.length for t in oracle.terms) == 8 or len(oracle.terms) == 30000


def test_consequence_checks(boolean_groups):
    comm = make_axioms(
        boolean_groups.sig,
        [([("x", "elem"), ("y", "elem")], "(mul x y)", "(mul y x)")],
    )[0]
    # exponent-2 groups are commutative, and the engine derives it
    assert is_consequence(boolean_groups, comm) == "yes"
    collapse = make_axioms(
        boolean_groups.sig, [([("x", "elem")], "x", "(e)")]
    )[0]
    assert is_consequence(boolean_groups, collapse) == "no"
    semigroups = make_variety(
        ["elem"],
        [("mul", ["elem", "elem"], "elem")],
        "semigroups",
        [([("x", "elem"), ("y", "elem"), ("z", "elem")], "(mul (mul x y) z)", "(mul x (mul y z))")],
    )
    comm2 = make_axioms(
        semigroups.sig, [([("x", "elem"), ("y", "elem")], "(mul x y)", "(mul y x)")]
    )[0]
    assert is_consequence(semigroups, comm2, Budget(max_classes=400, max_rounds=6)) == "unknown"


def test_a_watched_run_that_trips_while_resolving_reports_round_zero(boolean_groups, sets_variety):
    # resolving the watched sides makes their nodes, and a node past the
    # class cap trips before round 1: the run ends unknown, not in an error
    ident = make_axioms(
        boolean_groups.sig,
        [([("x1", "elem"), ("x2", "elem")], "(mul (mul x1 x2) (mul x2 x1))", "(mul (inv x1) (inv (inv x2)))")],
    )[0]
    for cap in (2, 4, 7):
        assert is_consequence(boolean_groups, ident, Budget(max_classes=cap)) == "unknown"
    # two watched generators are two classes, over a cap of one
    assert nondegeneracy_check(sets_variety, 0, Budget(max_classes=1)).verdict == UNKNOWN


def test_empty_profile_no_constants(sets_variety):
    res = build_free_algebra(sets_variety, profile_of(sets_variety, (0,)))
    assert res.algebra.sizes == (0,)


def test_constants_populate_empty_profile(boolean_groups):
    res = build_free_algebra(boolean_groups, profile_of(boolean_groups, (0,)))
    assert res.algebra.sizes == (1,)
    assert term_to_text(res.reps[0][0]) == "(e)"


def test_degenerate_output_is_legal():
    v = collapse_variety()
    for n in (1, 2, 3):
        res = build_free_algebra(v, profile_of(v, (n,)))
        assert res.algebra.sizes == (1,)
    res0 = build_free_algebra(v, profile_of(v, (0,)))
    assert res0.algebra.sizes == (0,)
