import ast
import gc
import itertools
import random
import re

import pytest

from bruteforce import agrees_with_engine, bruteforce_free_algebra
from conftest import (
    ORACLE_PROFILES,
    entry_models,
    load_entry_variety,
    make_axioms,
    make_variety,
    profile_of,
)
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
from freealg.finalg import compile_source, eval_term, satisfies_identity
from freealg.terms import Identity, arena_of, parse_term, term_to_text


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


INDEX_CASES = [
    ("elem-abelian-3", (2,), Budget()),
    ("semigroup-actions-trivial", (1, 1), ENTRIES["semigroup-actions-trivial"].infinite_budget),
    # rows on which rebuild itself forces many congruence merges
    ("boolean-groups", (3,), Budget()),
    ("lie-reps-null-f2", (2, 0), ENTRIES["lie-reps-null-f2"].infinite_budget),
]


@pytest.mark.parametrize(
    "name,counts,budget",
    INDEX_CASES,
    ids=[f"{n}-{','.join(map(str, c))}" for n, c, _ in INDEX_CASES],
)
def test_rebuild_leaves_indexes_equal_to_a_fresh_scan(monkeypatch, name, counts, budget):
    # rebuild repairs its indexes in place rather than rescanning, so after
    # every call they must equal a fresh scan of key2class
    rebuild = SaturationState.rebuild
    checked = []

    def rebuild_and_check(state):
        rebuild(state)
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
        checked.append(state.round)

    monkeypatch.setattr(SaturationState, "rebuild", rebuild_and_check)
    v = load_entry_variety(name)
    build_free_algebra(v, profile_of(v, counts), budget)
    assert len(set(checked)) > 1


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


def _case_id(case):
    name, counts, _ = case
    return f"{getattr(name, '__name__', name)}-{','.join(map(str, counts))}"


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


def test_kernels_compile_once_per_axiom_shape(monkeypatch):
    # the match plans belong to the variety: a second build of the same
    # variety reuses the first build's queries and neither compiles nor
    # looks up a kernel; a fresh copy of the variety plans its queries
    # again but reuses each kernel rather than compile it again
    states = []
    init = SaturationState.__init__

    def init_and_keep(state, *args):
        init(state, *args)
        states.append(state)

    monkeypatch.setattr(SaturationState, "__init__", init_and_keep)
    v = load_entry_variety("boolean-groups")
    build_free_algebra(v, profile_of(v, (2,)))
    before = compile_source.cache_info()
    build_free_algebra(v, profile_of(v, (2,)))
    after = compile_source.cache_info()
    assert (after.misses, after.hits) == (before.misses, before.hits)
    first, second = states
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
    res = build_free_algebra(v, profile_of(v, (11,)), Budget(max_classes=10))
    assert isinstance(res, BudgetExceeded)
    assert (res.limit, res.classes, res.rounds, res.stats.rounds) == ("classes", 11, 0, [])


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
