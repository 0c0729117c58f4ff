import ast
import dataclasses
import gc
import hashlib
import itertools
import operator
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
from freealg.corpus import ENTRIES, INFINITE, run_corpus
from freealg.egraph import (
    Budget,
    BudgetExceeded,
    DEGENERATE,
    NONDEGENERATE,
    UNKNOWN,
    SaturationState,
    VarietyDef,
    build_free_algebra,
    is_consequence,
    nondegeneracy_check,
)
from freealg.finalg import (
    AlgebraError,
    FiniteAlgebra,
    compile_source,
    eval_term,
    satisfies_all,
    satisfies_identity,
)
from freealg.signature import Op, Signature
from freealg.terms import GeneratorProfile, Identity, Term, TermArena, arena_of, parse_term, term_to_text
from term_order import reference_representatives, term_key
from test_saturation_memo import lie_sort1_part, null_mul_witness


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


def test_a_nondegenerate_run_serves_the_unwatched_build(boolean_groups, captured_states):
    # the watched generators make no node and never merge, so the run is
    # the unwatched build on its profile, and the memo serves it as one
    assert nondegeneracy_check(boolean_groups, 0).verdict == NONDEGENERATE
    res = build_free_algebra(boolean_groups, profile_of(boolean_groups, (2,)))
    assert len(captured_states) == 1
    assert res.algebra.sizes == (4,)
    assert res.stats.rounds[-1].nodes_created == 0


def test_a_degenerate_run_serves_no_build(captured_states):
    v = collapse_variety()
    degenerate = nondegeneracy_check(v, 0)
    assert degenerate.verdict == DEGENERATE
    assert degenerate.detail.endswith("merged in round 1")  # stopped at the watched merge
    profile = profile_of(v, (2,))
    assert (v._structure, profile.variables(), None, Budget()) not in egraph._saturated
    build_free_algebra(v, profile)
    assert len(captured_states) == 2


def test_a_watched_node_keeps_its_run_under_its_own_key(left_zero, captured_states):
    # watching (mul x y) makes a node before the first round, so the run is
    # not the unwatched build on x, y, and a build on that profile runs anew
    ident = make_axioms(left_zero.sig, [([("x", "elem"), ("y", "elem")], "(mul x y)", "y")])[0]
    assert is_consequence(left_zero, ident) == "no"
    (key,) = egraph._saturated
    assert isinstance(key[2][0], tuple) and key[2][1] == 1  # a node, and the generator y
    build_free_algebra(left_zero, ident.vars)
    assert len(captured_states) == 2


def test_a_renamed_structure_freezes_to_the_same_kept_outcome(monkeypatch):
    # the kept outcome holds no sort or op name, so the null-mul witness and
    # the lie-reps sort-1 part, which differ by their names alone, freeze
    # to equal outcomes, and each is kept as it was frozen
    frozen = []
    freeze = egraph.freeze
    monkeypatch.setattr(egraph, "freeze", lambda state: frozen.append(freeze(state)) or frozen[-1])
    kept = []
    for v in (null_mul_witness(), lie_sort1_part()):
        egraph._saturated.clear()
        build_free_algebra(v, profile_of(v, (2,)))
        kept += egraph._saturated.values()
    assert len(frozen) == 2 and all(map(operator.is_, kept, frozen))
    assert frozen[0] == frozen[1]


# what names a sort or an op, or holds what does
NAMED = (Term, Op, Signature, VarietyDef, GeneratorProfile, FiniteAlgebra)


def test_the_memo_keeps_nothing_that_holds_a_name():
    run_corpus()
    kinds = set()
    for kept in egraph._saturated.values():
        kinds.add(type(kept))
        seen, stack = set(), [kept]
        while stack:
            x = stack.pop()
            if id(x) in seen:
                continue
            seen.add(id(x))
            assert not isinstance(x, NAMED)
            if isinstance(x, dict):
                stack += [*x.keys(), *x.values()]
            elif isinstance(x, (tuple, list)):
                stack += x
            elif dataclasses.is_dataclass(x):
                stack += [getattr(x, f.name) for f in dataclasses.fields(x)]
    assert kinds == {tuple, BudgetExceeded, int}  # frozen states, trips and rounds


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
    # extraction compares keys and makes no term; the fixpoint that makes a
    # term per candidate must find the same representatives, and the result
    # must make them from their keys, in element order
    applied = []
    apply = TermArena.apply

    def apply_and_count(arena, op, children):
        applied.append(op)
        return apply(arena, op, children)

    extract = egraph.extract_representatives
    checked = []

    def extract_and_check(state):
        made = len(applied)
        keys = extract(state)
        assert len(applied) == made  # no term is made
        reference = reference_representatives(state)
        assert keys == {root: term_key(t) for root, t in reference.items()}
        checked.append((state, reference))
        return keys

    monkeypatch.setattr(TermArena, "apply", apply_and_count)
    monkeypatch.setattr(egraph, "extract_representatives", extract_and_check)
    v = name() if callable(name) else load_entry_variety(name)
    res = build_free_algebra(v, profile_of(v, counts))
    [(state, reference)] = checked
    assert res.reps == tuple(
        tuple(sorted((reference[r] for r in state.classes_of_sort(s.id)), key=term_key)) for s in v.sig.sorts
    )
    assert set(res.gen_images) == set(state.gen_class)
    if name is collapse_variety:
        assert res.algebra.sizes == (1,) and res.reps[0][0].is_var()
    if name == "boolean-groups" and counts == (0,):
        assert [term_to_text(t) for t in res.reps[0]] == ["(e)"]


@pytest.mark.parametrize(
    "name,counts",
    EXTRACTION_CASES,
    ids=[f"{getattr(n, '__name__', n)}-{','.join(map(str, c))}" for n, c in EXTRACTION_CASES],
)
def test_a_result_makes_each_distinct_term_once(monkeypatch, name, counts):
    # extraction builds each key from its children's best keys themselves,
    # so a result makes the term of each distinct key once, however many
    # representatives share it, on a miss and on a memo hit alike
    applied = []
    apply = TermArena.apply

    def apply_and_count(arena, op, children):
        applied.append(op)
        return apply(arena, op, children)

    monkeypatch.setattr(TermArena, "apply", apply_and_count)
    v = name() if callable(name) else load_entry_variety(name)
    for _ in range(2):  # a miss, then a hit
        applied.clear()
        res = build_free_algebra(v, profile_of(v, counts))
        # the arena makes each term once, so distinct terms are distinct objects
        distinct = set()
        stack = [t for col in res.reps for t in col]
        while stack:
            t = stack.pop()
            if not t.is_var() and id(t) not in distinct:
                distinct.add(id(t))
                stack.extend(t.children)
        assert len(applied) == len(distinct)


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
    keys = egraph.extract_representatives(state)
    assert keys[q] == term_key(parse_term("(f (c))", v.sig, prof))
    assert keys == {root: term_key(t) for root, t in reference_representatives(state).items()}


def test_freezing_an_unsaturated_state_fails_the_table_check(boolean_groups):
    # freeze copies the table as it stands; the algebra's own check, made
    # when the result is, finds the entries missing from a state that has
    # not been saturated
    profile = profile_of(boolean_groups, (1,))
    state = SaturationState(boolean_groups, profile)
    with pytest.raises(AlgebraError, match=r"^table for 'mul' has 0 entries, expected 1$"):
        egraph._result(egraph.freeze(state), boolean_groups, profile)


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
    # one clock: a key enters at its table position and is stamped then or
    # later, when it moves, and neither reading is past the clock
    stamps = {key: t for keys in state._by_op.values() for key, t in keys.items()}
    for keys in state.class_nodes.values():
        for key, position in keys.items():
            assert type(position) is int and 0 < position <= stamps[key] <= state.clock
        # each class's keys are in table order, and no two share a position
        positions = list(keys.values())
        assert all(a < b for a, b in itertools.pairwise(positions))
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
    # grow starts with no merge to repair and only makes nodes in new
    # classes, so the keys it forms from the roots of each sort need no find
    grow, enter = SaturationState.grow, SaturationState._enter
    growing = []  # merges_done as grow starts
    entered = []

    def enter_and_check(state, key, cls):
        if growing:
            assert key not in state.key2class
            assert all(state.parent[x] == x for x in (cls, *key[1:]))
            entered.append(key)
        enter(state, key, cls)

    def grow_and_check(state):
        assert not state._losers
        growing.append(state.merges_done)
        try:
            return grow(state)
        finally:
            assert growing.pop() == state.merges_done and not state._losers

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
    fx2 = state._node(f, (x2,), 0)
    hx1 = state._node(h, (x1,), 0)
    hx3 = state._node(h, (x3,), 0)  # table positions 1 to 3, stamped the same
    state.rebuild()
    before = state.clock
    assert before == 4
    state._union(x1, x2)  # (f x2) becomes (f x1), its class keeps its root
    state._union(x3, hx1)  # (h x1) keeps its form, its class's root becomes x3
    state.rebuild()
    # the rebuild ticks as it starts, moves (h x1) at that clock, and then
    # enters (f x1) at the next
    assert state.clock == before + 2
    # the stamps live in the op index; a restamp keeps the key's place
    assert {op: list(keys.items()) for op, keys in state._by_op.items()} == {
        f: [((f, x1), before + 2)],
        h: [((h, x1), before + 1), ((h, x3), 3)],
    }
    # a moved key keeps its table position; a key in a new form takes a new one
    assert state.class_nodes == {fx2: {(f, x1): before + 2}, x3: {(h, x1): 2}, hx3: {(h, x3): 3}}
    assert_indexes_match_a_fresh_scan(state)


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
    state.rebuild()  # table positions 1 to 4, stamped the same
    assert state._union(a, b)
    merges = state.merges_done
    state.rebuild()
    assert state.merges_done == merges
    assert list(state.key2class) == [(f, a), (g, a, c)]
    # the survivors keep their table positions and their stamps
    assert state.class_nodes == {x: {(f, a): 1}, y: {(g, a, c): 2}}
    assert state._by_op == {f: {(f, a): 1}, g: {(g, a, c): 2}}
    assert state._uses == {a: {(f, a): None, (g, a, c): None}, c: {(g, a, c): None}}
    assert_indexes_match_a_fresh_scan(state)


def test_a_key_entered_and_moved_in_one_rebuild_is_stamped_at_its_entry():
    # once a and b merge, (f b) re-enters as (f a) in class x, and then
    # (g b) meets (g a) in class w < x, so x merges into w within the same
    # rebuild: the key it just entered moves, and its stamp is the clock of
    # the move, not an earlier one, so its position is never past its stamp
    v = make_variety(["elem"], [("f", ["elem"], "elem"), ("g", ["elem"], "elem")], "unary", [])
    f, g = (op.id for op in v.sig.ops)
    state = SaturationState(v, profile_of(v, (2,)))
    a, b = state.gen_class.values()
    w = state._node(g, (a,), 0)
    x = state._node(f, (b,), 0)
    state._make((g, b), 0, x)
    state.rebuild()  # table positions 1 to 3, then the clock at 4
    assert state._union(a, b)
    state.rebuild()  # ticks to 5, enters (f a) at 6 and moves it at 6
    assert state.find(x) == w
    assert state.clock == 6
    assert state.class_nodes == {w: {(g, a): 1, (f, a): 6}}
    assert state._by_op == {f: {(f, a): 6}, g: {(g, a): 1}}
    assert_indexes_match_a_fresh_scan(state)


INDEXES = {"key2class", "class_nodes", "_by_op", "_uses"}


def removers(source: str, attrs=INDEXES) -> list[str]:
    """The definitions, as ``Class.function`` paths, that remove entries
    from an attribute in ``attrs`` or from a dict it holds, by ``pop``,
    ``popitem``, ``clear`` or ``del``.  Aliases resolve by name across the
    module: a name bound, by assignment or as a loop target, to such an
    attribute or to anything read from one stands for it everywhere."""
    return touching(source, attrs, removes)


def writers(source: str, attrs) -> list[str]:
    """The definitions, as in ``removers``, that change an attribute in
    ``attrs`` or a dict it holds: that remove from it, store into it by
    subscript, or call a method that adds to it.  Binding the attribute
    itself, as ``__init__`` does, makes it and is not a write to it."""

    def writes(node, held) -> bool:
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            return any(isinstance(t, ast.Subscript) and held(t.value) for t in targets)
        return removes(node, held) or (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("update", "setdefault", "append", "extend", "insert", "add")
            and held(node.func.value)
        )

    return touching(source, attrs, writes)


def removes(node, held) -> bool:
    if isinstance(node, ast.Delete):
        return any(held(t) for t in node.targets)
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("pop", "popitem", "clear")
        and held(node.func.value)
    )


def touching(source: str, attrs, touches) -> list[str]:
    """The definitions holding a node that ``touches(node, held)`` accepts,
    where ``held(expr)`` tells whether ``expr`` is an attribute in
    ``attrs``, anything read from one, or an alias of either."""
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
            if touches(child, held):
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


# the indexes a match kernel joins over
JOINED = {"class_nodes", "_by_op", "_uses"}


def test_only_rebuild_and_the_queue_write_the_indexes():
    # _enter only queues a key for the indexes; they change only where the
    # queue is indexed and in rebuild, so no index changes while a kernel's
    # join reads it and its instances make keys
    written = writers(Path(egraph.__file__).read_text(), JOINED)
    assert written == ["SaturationState._index", "SaturationState.rebuild"]


def test_scan_finds_every_write():
    source = (
        "class S:\n"
        "    def __init__(self):\n"
        "        self.class_nodes = {}\n"
        "    def stored(self, k):\n"
        "        self._by_op[k[0]][k] = 1\n"
        "    def counted(self, k):\n"
        "        self._by_op[k[0]][k] += 1\n"
        "    def aliased(self, k):\n"
        "        table, uses = self.key2class, self._uses\n"
        "        for c in k[1:]:\n"
        "            uses[c].setdefault(k)\n"
        "    def through_a_read(self, c):\n"
        "        keys = self.class_nodes.get(c)\n"
        "        def inner(more): keys.update(more)\n"
        "    def removed(self, k):\n"
        "        del self._uses[k[1]][k]\n"
        "    def harmless(self, k):\n"
        "        self._queued.append(k)\n"
        "        self.key2class[k] = 0\n"
        "        return self.class_nodes.get(k[1], {}).get(k)\n"
        "def loop(state, k):\n"
        "    for stamps in state._by_op.values():\n"
        "        stamps[k] = 0\n"
    )
    written = ["S.aliased", "S.counted", "S.removed", "S.stored", "S.through_a_read.inner", "loop"]
    assert writers(source, JOINED) == written


def test_a_key_made_outside_a_rebuild_is_indexed_by_the_next():
    # _make puts a key in the table and ticks the clock at once, but the
    # indexes stay as they were until the next rebuild indexes the queue
    v = make_variety(["elem"], [("f", ["elem"], "elem"), ("g", ["elem", "elem"], "elem")], "queued", [])
    f, g = (op.id for op in v.sig.ops)
    state = SaturationState(v, profile_of(v, (2,)))
    a, b = state.gen_class.values()
    x = state._node(f, (a,), 0)
    state.rebuild()

    def indexes():
        return [
            {c: list(keys.items()) for c, keys in index.items()}
            for index in (state.class_nodes, state._by_op, state._uses)
        ]

    before, clock = indexes(), state.clock
    y = state._make((g, a, x), 0)
    z = state._make((f, y), 0)
    assert state.key2class[(g, a, x)] == y and state.key2class[(f, y)] == z
    assert state.clock == clock + 2
    assert indexes() == before
    # y's class is merged away before its key, and the key over it, are
    # indexed: the rebuild indexes both first, then repairs (f y)
    assert state._union(b, y)
    state.rebuild()
    assert state.find(y) == b
    assert list(state.key2class) == [(f, a), (g, a, x), (f, b)]
    assert_indexes_match_a_fresh_scan(state)


def test_a_kernel_joins_no_key_that_its_own_instances_made():
    # in (f x (g x)) = (g (g x)), the instance of the match on (f x (g x))
    # makes (g (g x)) in the class of (f x (g x)), which completes a match
    # on the next f key, (f (g x) (f x (g x))); the kernel joins over the
    # indexes as they stood when it began, so that match waits for the
    # next pass, as it would if every match were found before any instance
    v = make_variety(
        ["elem"],
        [("f", ["elem", "elem"], "elem"), ("g", ["elem"], "elem")],
        "nested",
        [([("x", "elem")], "(f x (g x))", "(g (g x))")],
    )
    f, g = (op.id for op in v.sig.ops)
    state = SaturationState(v, profile_of(v, (1,)))
    [x] = state.gen_class.values()
    gx = state._node(g, (x,), 0)
    fx = state._node(f, (x, gx), 0)
    outer = state._node(f, (gx, fx), 0)
    state.rebuild()
    [q] = state._queries
    q.kernel(state, -1, [])
    assert state.instances == 1
    assert state.key2class[(g, gx)] == fx and (g, fx) not in state.key2class
    state.rebuild()
    q.kernel(state, -1, [])
    assert state.key2class[(g, fx)] == outer


def test_no_filtered_list_outlives_its_kernel_run():
    # in (f (g x) y) = x, the join reaches (g x) down from the f key's
    # first argument through the list of the class's g keys; the list is
    # filled on the kernel's first visit to the class and kept only for
    # that run, so a g key entered in the class between two runs is
    # joined by the second
    v = make_variety(
        ["elem"],
        [("f", ["elem", "elem"], "elem"), ("g", ["elem"], "elem")],
        "memo",
        [([("x", "elem"), ("y", "elem")], "(f (g x) y)", "x")],
    )
    f, g = (op.id for op in v.sig.ops)
    state = SaturationState(v, profile_of(v, (3,)))
    a, b, x = state.gen_class.values()
    fab = state._node(f, (a, b), 0)
    state.rebuild()
    [q] = state._queries
    assert "memo0 = {}" in q.source and "keys = memo0.get(v1)" in q.source
    query, fields = dict(vars(q)), set(vars(state))
    q.kernel(state, -1, [])
    assert state.instances == 0
    state._make((g, x), 0, a)
    state.rebuild()
    assert state.find(x) != state.find(fab)
    q.kernel(state, -1, [])
    assert state.instances == 1
    assert state.find(x) == state.find(fab)
    # the lists live in the kernel's locals, not on the state or the query
    assert vars(q) == query and set(vars(state)) == fields


def test_a_variable_that_no_side_reads_is_tested_not_looped():
    # z is declared in x = (f y (g (c))) but read by neither side: every
    # instance is the same whichever class z takes, so the kernel only
    # tests that z's pool is not empty, where x, which the other side
    # reads, loops over its pool
    ops = [("f", ["a", "a"], "a"), ("g", ["a"], "a"), ("c", [], "a")]
    unread, read = (
        make_variety(["a"], ops, "unread", [(declared, "x", "(f y (g (c)))")])._queries[0]
        for declared in ([("x", "a"), ("y", "a"), ("z", "a")], [("x", "a"), ("y", "a")])
    )
    assert unread.full and read.full
    assert (unread.pools, read.pools) == ([0, 0], [0])
    assert re.search(r"\n +for v\d+ in pools\[0\]:\n", read.source) and "product" not in read.source
    test = "    if not pools[1]:\n        return\n"
    assert unread.source.count("pools[") == 2 and test in unread.source
    assert unread.source.replace(test, "") == read.source


def test_an_unread_variable_of_an_empty_sort_makes_its_axiom_vacuous():
    # with z of sort b, f(x, y) = x holds only when b has an element: on
    # no b generator b stays empty, the axiom says nothing and the free
    # algebra on two a generators is infinite; on one b generator
    # f(x, y) = x collapses every f term, and h(z) is a third a element
    v = make_variety(
        ["a", "b"],
        [("f", ["a", "a"], "a"), ("h", ["b"], "a")],
        "empty-sort",
        [([("x", "a"), ("y", "a"), ("z", "b")], "(f x y)", "x")],
    )
    tripped = build_free_algebra(v, profile_of(v, (2, 0)), Budget(max_classes=500))
    assert isinstance(tripped, BudgetExceeded)
    res = build_free_algebra(v, profile_of(v, (2, 1)))
    assert res.algebra.sizes == (3, 1)
    assert satisfies_all(res.algebra, v.axioms) is True


def test_an_unread_variable_no_longer_stalls_the_build():
    # z is read by neither side: a loop over its pool would make each
    # instance of x = (f y (g (c))) once per class, and the build would
    # not end in minutes; with z only tested, that axiom and
    # x = (g (g x)) collapse the algebra at once
    v = make_variety(
        ["a"],
        [("f", ["a", "a"], "a"), ("g", ["a"], "a"), ("c", [], "a")],
        "stall",
        [
            ([("x", "a")], "x", "(g (g x))"),
            ([("x", "a"), ("y", "a"), ("z", "a")], "x", "(f y (g (c)))"),
        ],
    )
    res = build_free_algebra(v, profile_of(v, (2,)))
    assert res.algebra.sizes == (1,)


def test_no_kernel_holds_a_match_list():
    # each match builds its instance where the join finds it; the one list
    # a kernel fills is a class's index keys that pass a loop's filter,
    # one key at a time from the index it reads
    varieties = [load_entry_variety(name) for name in ENTRIES] + [cycle_40_variety()]
    for q in (q for v in varieties for q in v._queries):
        assert "found =" not in q.source
        appends = re.findall(r"\n( *)(.*\.append\(.*)", q.source)
        assert {line for _, line in appends} <= {"keys.append(k)"}
        fills = re.findall(r"\n( *)for k in (?:nodes|uses)\.get\(v\d+, \(\)\):\n\1    if .*:\n\1        keys.append\(k\)", q.source)
        assert len(fills) == len(appends)


def test_no_kernel_calls_find():
    # parent holds every class's root, so a kernel, and each helper its
    # join continues in, reads a root with one index
    varieties = [load_entry_variety(name) for name in ENTRIES] + [cycle_40_variety()]
    for q in (q for v in varieties for q in v._queries):
        assert "find" not in q.source


# every finite corpus row on at most 3 generators, and every INFINITE row
# under its cap
FLAT_CASES = [
    (name, counts, entry.infinite_budget if sizes == INFINITE else Budget())
    for name, entry in ENTRIES.items()
    for counts, sizes in entry.expected
    if sizes == INFINITE or sum(counts) <= 3
]


def assert_flat(state):
    # every id points straight at a root, and no id is below its root, so
    # each root is the least id of its class
    parent = state.parent
    assert [parent[p] for p in parent] == parent
    assert all(map(operator.le, parent, range(len(parent))))


@pytest.mark.parametrize("name,counts,budget", FLAT_CASES, ids=map(_case_id, FLAT_CASES))
def test_every_class_points_straight_at_the_least_id_of_its_class(monkeypatch, name, counts, budget):
    union, rebuild = SaturationState._union, SaturationState.rebuild

    def union_and_check(state, a, b):
        merged = union(state, a, b)
        assert_flat(state)
        return merged

    def rebuild_and_check(state):
        rebuild(state)
        assert_flat(state)
        # each root that won a merge holds exactly the other ids of its class
        absorbed: dict[int, list[int]] = {}
        for c, root in enumerate(state.parent):
            if c != root:
                absorbed.setdefault(root, []).append(c)
        assert {root: sorted(ids) for root, ids in state._absorbed.items()} == absorbed

    monkeypatch.setattr(SaturationState, "_union", union_and_check)
    monkeypatch.setattr(SaturationState, "rebuild", rebuild_and_check)
    v = load_entry_variety(name)
    build_free_algebra(v, profile_of(v, counts), budget)


def test_a_class_that_loses_takes_the_classes_it_absorbed_along():
    # c joins b, then b loses to a: c must point at a, not at b; then a
    # loses to w, and a, b and c all point at w
    v = make_variety(["elem"], [], "four", [])
    state = SaturationState(v, profile_of(v, (4,)))
    w, a, b, c = state.gen_class.values()
    assert state._union(b, c)
    assert state.parent == [w, a, b, b] and state._absorbed == {b: [c]}
    assert state._union(c, a)
    assert state.parent == [w, a, a, a] and not state._union(b, c)
    assert state._union(c, w)
    assert state.parent == [w, w, w, w] and list(state._absorbed) == [w]
    assert sorted(state._absorbed[w]) == [a, b, c]
    assert [state.find(x) for x in (w, a, b, c)] == [w] * 4
    assert (state.n_live, state.merges_done, state._losers) == (1, 3, [c, b, a])


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
                q.kernel(state, -1, pools)
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
    # moved class since the last pass; with seed 0's moved test read
    # against -1 no key counts as moved, so each reference kernel matches
    # as it would without the skip, and the two builds must do the same
    # work but for the instances skipped
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
        work = (state.nodes_created, state.merges_done, state.clock, rounds)
        return (outcome, work), per_round, state.instances

    load = name if callable(name) else lambda: load_entry_variety(name)
    skipping, skipped_rounds, skipped = build(load())
    unfiltered = load()
    moved = "nodes[v0][k0] <= since"
    for q in unfiltered._queries:
        # only seed 0 of a query that joins from a delta tests for moves
        assert q.source.count(moved) == (0 if q.full else 1)
        source = q.source.replace(moved, "nodes[v0][k0] <= -1")
        monkeypatch.setattr(q, "kernel", compile_source(source, "kernel"))
    # the two builds share a structure, so the second runs only once the
    # memo forgets the first
    egraph._saturated.clear()
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
    ("automata", (1, 1, 0), 128, 0, 0, 192),
    ("automata", (1, 1, 1), 128, 0, 0, 192),
    ("semigroup-actions-trivial", (1, 1), 10048, 6049, 172768, 10124),
    ("group-reps-trivial-f2", (1, 0), 20491, 16491, 27457, 21031),
    ("lie-reps-null-f2", (2, 0), 13209, 9210, 5164, 13488),
]


@pytest.mark.parametrize(
    "name,counts,nodes,merges,instances,clock",
    TRIPPED_WORK,
    ids=[f"{n}-{','.join(map(str, c))}" for n, c, *_ in TRIPPED_WORK],
)
def test_work_inside_the_tripping_round_is_pinned(captured_states, name, counts, nodes, merges, instances, clock):
    # BudgetExceeded.stats holds the completed rounds only; the work of the
    # round that trips shows in the state's own counters
    v = load_entry_variety(name)
    res = build_free_algebra(v, profile_of(v, counts), ENTRIES[name].infinite_budget)
    assert isinstance(res, BudgetExceeded)
    [state] = captured_states
    assert (state.nodes_created, state.merges_done, state.instances, state.clock) == (
        nodes,
        merges,
        instances,
        clock,
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


def test_a_variety_plans_once_and_a_copy_reuses_its_kernels(monkeypatch, captured_states):
    # the match plans are made once per axiom structure: a second build of
    # the same variety, and a build of a fresh copy of it, both get the
    # first build's queries, and neither compiles nor looks up a kernel
    v = load_entry_variety("boolean-groups")
    build_free_algebra(v, profile_of(v, (2,)))
    before = compile_source.cache_info()
    build_free_algebra(v, profile_of(v, (2,)))
    copy = load_entry_variety("boolean-groups")
    build_free_algebra(copy, profile_of(copy, (2,)))
    after = compile_source.cache_info()
    assert (after.misses, after.hits) == (before.misses, before.hits)
    first, *others = captured_states
    assert len(first._queries) == len(v.axioms)
    for other in others:
        assert all(a is b for a, b in zip(first._queries, other._queries, strict=True))

    # the key holds every field a query reads, and no name
    def queries(sorts, ops, specs):
        return make_variety(sorts, ops, "v", specs)._queries

    comm = [([("x", "a"), ("y", "a")], "(f x y)", "(f y x)")]
    f, g = ("f", ["a", "a"], "a"), ("g", ["a", "a"], "a")
    # the op id
    assert queries(["a"], [f, g], comm)[0] is not queries(["a"], [g, f], comm)[0]
    # each variable's position
    left = [([("x", "a"), ("y", "a")], "(f x y)", "(f x x)")]
    assert queries(["a"], [f], comm)[0] is not queries(["a"], [f], left)[0]
    # no name
    renamed = [([("u", "b"), ("w", "b")], "(h u w)", "(h w u)")]
    assert queries(["a"], [f, g], comm) == queries(["b"], [("h", ["b", "b"], "b"), ("k", ["b", "b"], "b")], renamed)
    # the sort of a declared variable that neither side uses: its pool
    unused = [[([("x", "a"), ("y", "a"), ("z", s)], "(f x y)", "(f y x)")] for s in "ab"]
    assert queries(["a", "b"], [f], unused[0])[0] is not queries(["a", "b"], [f], unused[1])[0]
    # an op's result sort
    to_b = ("f", ["a", "a"], "b")
    assert queries(["a", "b"], [f], comm)[0] is not queries(["a", "b"], [to_b], comm)[0]

    # over the whole corpus, each query served is the one its axiom plans,
    # and a query is made once for each distinct kernel source and pools
    monkeypatch.setattr(egraph, "_planned", {})
    made, served = [], []
    init, plan = egraph._Query.__init__, egraph.VarietyDef._queries.func

    def init_and_count(q, *args):
        init(q, *args)
        made.append((q.source, tuple(q.pools)))

    def plan_and_keep(variety):
        queries = plan(variety)
        served.extend(zip(variety.axioms, queries, strict=True))
        return queries

    monkeypatch.setattr(egraph._Query, "__init__", init_and_count)
    monkeypatch.setattr(egraph.VarietyDef, "_queries", property(plan_and_keep))
    run_corpus()
    monkeypatch.undo()
    assert served and len(made) < len(served)
    needed = set()
    for ax, q in served:
        pat, other = (ax.rhs, ax.lhs) if ax.rhs.length > ax.lhs.length else (ax.lhs, ax.rhs)
        fresh = egraph._Query(pat, other, ax.vars.variables())
        assert (fresh.source, fresh.pools, fresh.full) == (q.source, q.pools, q.full)
        needed.add((fresh.source, tuple(fresh.pools)))
    assert sorted(made) == sorted(needed)


GARBAGE_ROWS = list(corpus_rows())


@pytest.mark.parametrize("label,name,counts,infinite", GARBAGE_ROWS, ids=[r[0] for r in GARBAGE_ROWS])
def test_a_build_leaves_no_cyclic_garbage(label, name, counts, infinite):
    # _run pauses the cyclic collector, which loses nothing only while a
    # build makes no reference cycle, so that reference counting frees all
    # of it: on every corpus row, built or tripped
    v = load_entry_variety(name)
    prof = profile_of(v, counts)
    budget = ENTRIES[name].infinite_budget if infinite else None
    gc.collect()
    gc.disable()
    try:
        res = build_free_algebra(v, prof, budget)
        assert isinstance(res, BudgetExceeded) == infinite
        del res
        assert gc.collect() == 0
    finally:
        gc.enable()


class KernelFailed(Exception):
    pass


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("outcome", ["saturated", "trip", "watched", KernelFailed, KeyboardInterrupt])
def test_run_pauses_the_collector_and_restores_it(monkeypatch, outcome, enabled):
    # every kernel runs with the collector off, and however the run ends
    # the collector is as the caller left it
    v = load_entry_variety("boolean-groups")
    seen = []
    for q in v._queries:

        def kernel(state, since, pools, k=q.kernel):
            seen.append(gc.isenabled())
            if not isinstance(outcome, str):
                raise outcome
            return k(state, since, pools)

        monkeypatch.setattr(q, "kernel", kernel)
    (gc.enable if enabled else gc.disable)()
    try:
        if outcome == "watched":
            comm = make_axioms(v.sig, [([("x", "elem"), ("y", "elem")], "(mul x y)", "(mul y x)")])[0]
            assert is_consequence(v, comm) == "yes"
        elif isinstance(outcome, str):
            res = build_free_algebra(v, profile_of(v, (3,)), Budget(max_classes=20) if outcome == "trip" else None)
            assert isinstance(res, BudgetExceeded) == (outcome == "trip")
        else:
            with pytest.raises(outcome):
                build_free_algebra(v, profile_of(v, (3,)))
        assert gc.isenabled() == enabled
    finally:
        gc.enable()
    assert seen and not any(seen)


def test_only_run_switches_the_collector():
    # one place owns the collector's state: _run pauses it for a saturation
    # and turns it back on only if it was on
    def switches(node):
        return [
            ast.unparse(n.func)
            for n in ast.walk(node)
            if isinstance(n, ast.Call) and ast.unparse(n.func) in ("gc.disable", "gc.enable")
        ]

    trees = {path.name: ast.parse(path.read_text()) for path in Path(egraph.__file__).parent.glob("*.py")}
    assert not any(isinstance(n, ast.ImportFrom) and n.module == "gc" for t in trees.values() for n in ast.walk(t))
    (run,) = (n for n in ast.walk(trees["egraph.py"]) if isinstance(n, ast.FunctionDef) and n.name == "_run")
    assert sorted(switches(run)) == ["gc.disable", "gc.enable"]
    assert {name: switches(t) for name, t in trees.items() if switches(t)} == {"egraph.py": switches(run)}


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
        # each loop over a class or a use list reads the list of its keys
        # that pass its filter, which first checks the key's op
        loops = re.findall(r"for k in (?:nodes|uses)\.get\(.*\n\s+if k\[0\] == (\d+)", source)
        assert len(loops) == len(re.findall(r"for k\d+ in keys:", source))
        return {int(op) for op in loops}

    assert looped_ops(unit) == {mul} and looped_ops(inverse) <= {mul}
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
                if re.search(r"for k\d+ in keys:", line):
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
