import hashlib
import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cyclic_group, klein_four, make_axioms, make_variety
from freealg.corpus import load_entry_variety
from freealg.egraph import build_free_algebra
from freealg.finalg import (
    AlgebraError,
    Counterexample,
    FiniteAlgebra,
    MorphismTable,
    assemble_trivial_action,
    eval_term,
    find_isomorphism,
    one_element_algebra,
    satisfies_all,
    satisfies_identity,
)
from freealg.signature import Signature, classify_action_signature, restrict_to_part
from freealg.terms import GeneratorProfile, SortedVar, parse_term


def test_tables_must_be_total(boolean_groups):
    sig = boolean_groups.sig
    with pytest.raises(AlgebraError):
        FiniteAlgebra(sig, (2,), {sig.op_named("mul").id: {(0, 0): 0}})


def test_constant_needs_nonempty_carrier(boolean_groups):
    sig = boolean_groups.sig
    with pytest.raises(AlgebraError):
        FiniteAlgebra.make(sig, {"elem": 0}, {"mul": lambda x, y: 0, "inv": lambda x: 0, "e": lambda: 0})


def test_eval_constant_and_tables(boolean_groups):
    z2 = cyclic_group(boolean_groups.sig, 2)
    prof = GeneratorProfile.from_counts(boolean_groups.sig, {"elem": 1})
    e = parse_term("(e)", boolean_groups.sig, prof)
    assert eval_term(z2, e, {}) == 0
    x = prof.variables()[0]
    t = parse_term("(mul x1 (inv x1))", boolean_groups.sig, prof)
    assert eval_term(z2, t, {x: 1}) == 0


def test_eval_left_zero(left_zero):
    alg = FiniteAlgebra.make(left_zero.sig, {"elem": 2}, {"mul": lambda x, y: x})
    prof = GeneratorProfile.from_counts(left_zero.sig, {"elem": 2})
    t = parse_term("(mul x1 x2)", left_zero.sig, prof)
    a, b = prof.variables()
    assert eval_term(alg, t, {a: 0, b: 1}) == 0
    assert eval_term(alg, t, {a: 1, b: 0}) == 1


def test_eval_f2_plus():
    v = load_entry_variety("f2-vector-spaces")
    f2 = FiniteAlgebra.make(
        v.sig,
        {"v": 2},
        {"plus": lambda x, y: x ^ y, "zero": lambda: 0, "s0": lambda x: 0, "s1": lambda x: x},
    )
    prof = GeneratorProfile.from_counts(v.sig, {"v": 1})
    t = parse_term("(plus x1 x1)", v.sig, prof)
    assert eval_term(f2, t, {prof.variables()[0]: 1}) == 0


def test_satisfies_identity_z2(boolean_groups):
    z2 = cyclic_group(boolean_groups.sig, 2)
    square = [ax for ax in boolean_groups.axioms if "(mul x x)" in repr(ax)][0]
    assert satisfies_identity(z2, square) is True


def test_satisfies_identity_z4_counterexample(boolean_groups):
    z4 = cyclic_group(boolean_groups.sig, 4)
    square = [ax for ax in boolean_groups.axioms if "(mul x x)" in repr(ax)][0]
    cex = satisfies_identity(z4, square)
    assert isinstance(cex, Counterexample)
    # first failing assignment in lexicographic order: x=0 passes, x=1 fails
    assert list(cex.assignment.values()) == [1]
    assert cex.lhs_value == 2 and cex.rhs_value == 0


def test_vacuous_satisfaction_on_empty_carrier():
    v = make_variety(
        ["a", "b"],
        [("u", ["a"], "b")],
        "arrows",
        [([("x", "a"), ("y", "a")], "(u x)", "(u y)")],
    )
    alg = FiniteAlgebra(v.sig, (0, 3), {v.sig.op_named("u").id: {}})
    assert satisfies_all(alg, v) is True


def test_satisfies_all_first_counterexample(left_zero):
    alg = FiniteAlgebra.make(left_zero.sig, {"elem": 2}, {"mul": lambda x, y: x})
    comm = make_axioms(
        left_zero.sig, [([("x", "elem"), ("y", "elem")], "(mul x y)", "(mul y x)")]
    )
    cex = satisfies_all(alg, list(left_zero.axioms) + comm)
    assert isinstance(cex, Counterexample)
    assert list(cex.assignment.values()) == [0, 1]
    assert (cex.lhs_value, cex.rhs_value) == (0, 1)


def test_free_algebra_satisfies_own_axioms(comm_idem):
    prof = GeneratorProfile.from_counts(comm_idem.sig, {"elem": 3})
    res = build_free_algebra(comm_idem, prof)
    assert satisfies_all(res.algebra, comm_idem) is True


def test_z2_satisfies_boolean_axioms(boolean_groups):
    assert satisfies_all(cyclic_group(boolean_groups.sig, 2), boolean_groups) is True


# isomorphism search -------------------------------------------------------


def exhaustive_isos(a: FiniteAlgebra, b: FiniteAlgebra):
    """All sort-respecting bijective homomorphisms, by brute force."""
    if a.sizes != b.sizes:
        return []
    pools = [itertools.permutations(range(n)) for n in a.sizes]
    found = []
    for perms in itertools.product(*pools):
        table = MorphismTable(a, b, tuple(tuple(p) for p in perms))
        if table.is_homomorphism():
            found.append(table)
    return found


def test_identity_isomorphism(boolean_groups):
    z2 = cyclic_group(boolean_groups.sig, 2)
    iso = find_isomorphism(z2, z2)
    assert iso == MorphismTable.identity(z2)


def test_klein_presentations_isomorphic(boolean_groups):
    a = klein_four(boolean_groups.sig)
    b = klein_four(boolean_groups.sig, relabel=(2, 0, 3, 1))
    iso = find_isomorphism(a, b)
    assert iso is not None
    assert iso.is_homomorphism() and iso.is_bijective()
    assert exhaustive_isos(a, b)


def test_z4_vs_klein_not_isomorphic(boolean_groups):
    z4 = cyclic_group(boolean_groups.sig, 4)
    k4 = klein_four(boolean_groups.sig)
    assert find_isomorphism(z4, k4) is None
    assert exhaustive_isos(z4, k4) == []


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_iso_search_matches_exhaustive_search(data):
    # random one-sorted algebras with one binary op, carriers of size <= 3
    sig = Signature.make(["elem"], [("f", ["elem", "elem"], "elem")])
    n = data.draw(st.integers(min_value=1, max_value=3))
    def table(draw_label):
        return {
            (i, j): data.draw(st.integers(0, n - 1), label=f"{draw_label}{i}{j}")
            for i in range(n)
            for j in range(n)
        }
    a = FiniteAlgebra(sig, (n,), {0: table("a")})
    b = FiniteAlgebra(sig, (n,), {0: table("b")})
    mine = find_isomorphism(a, b)
    brute = exhaustive_isos(a, b)
    assert (mine is not None) == bool(brute)
    if mine is not None:
        assert mine.is_homomorphism() and mine.is_bijective()
        assert mine.maps == min(t.maps for t in brute)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_iso_search_is_first_in_canonical_order_two_sorted(data):
    # a constant and a binary op on "s", a cross-sort op (s, t) -> t; half
    # of the bs are relabelings of a, so most pairs are isomorphic
    sig = Signature.make(
        ["s", "t"],
        [("c", [], "s"), ("f", ["s", "s"], "s"), ("g", ["s", "t"], "t")],
    )
    sizes = (data.draw(st.integers(1, 3)), data.draw(st.integers(0, 3)))

    def random_algebra():
        tables = {}
        for op in sig.ops:
            keys = itertools.product(*(range(sizes[s]) for s in op.arg_sorts))
            res = st.integers(0, sizes[op.result_sort] - 1)
            tables[op.id] = {k: data.draw(res) for k in keys}
        return FiniteAlgebra(sig, sizes, tables)

    a = random_algebra()
    if data.draw(st.booleans(), label="relabel"):
        b = relabeled(a, [data.draw(st.permutations(range(n))) for n in sizes])
    else:
        b = random_algebra()
    mine = find_isomorphism(a, b)
    brute = exhaustive_isos(a, b)
    assert (mine is not None) == bool(brute)
    if mine is not None:
        assert mine.maps == min(t.maps for t in brute)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_iso_search_matches_exhaustive_search_on_forced_chains(data):
    # a constant, a unary op, a binary op and a second sort: the constant
    # seeds the closure, a successor forces chains as long as the carrier,
    # f(x, x) entries repeat an argument, and g reaches the second sort
    sig = Signature.make(
        ["s", "t"],
        [("c", [], "s"), ("u", ["s"], "s"), ("f", ["s", "s"], "s"), ("g", ["t", "s"], "t")],
    )
    n = data.draw(st.integers(1, 5), label="n")
    m = data.draw(st.integers(0, 3), label="m")
    elem = st.integers(0, n - 1)
    if data.draw(st.booleans(), label="successor"):
        u = {(x,): (x + 1) % n for x in range(n)}
    else:
        u = {(x,): data.draw(elem) for x in range(n)}
    # "diagonal" is the left projection except on f(x, x), so only the
    # entries that repeat an argument tell elements apart
    f_kind = data.draw(st.sampled_from(["random", "diagonal", "left", "constant"]), label="f")
    f = {}
    for x, y in itertools.product(range(n), repeat=2):
        if f_kind == "random" or (f_kind == "diagonal" and x == y):
            f[x, y] = data.draw(elem)
        else:
            f[x, y] = x if f_kind != "constant" else 0
    g = {(i, x): data.draw(st.integers(0, m - 1)) for i in range(m) for x in range(n)}
    c, u_op, f_op, g_op = sig.ops
    a = FiniteAlgebra(sig, (n, m), {c.id: {(): data.draw(elem)}, u_op.id: u, f_op.id: f, g_op.id: g})
    perms = [data.draw(st.permutations(range(k)), label=f"perm{s}") for s, k in enumerate(a.sizes)]
    b = relabeled(a, perms)
    if data.draw(st.booleans(), label="move the constant"):
        # usually a clash: the constant's chain meets an image already taken
        b.tables[c.id][()] = data.draw(elem, label="constant of b")
    mine = find_isomorphism(a, b)
    brute = exhaustive_isos(a, b)
    assert (mine is not None) == bool(brute)
    if mine is not None:
        assert mine.maps == min(t.maps for t in brute)


def relabeled(alg: FiniteAlgebra, perms) -> FiniteAlgebra:
    """The algebra with element e of sort s renamed perms[s][e]."""
    return FiniteAlgebra(alg.sig, alg.sizes, {
        op.id: {
            tuple(perms[s][x] for x, s in zip(args, op.arg_sorts)): perms[op.result_sort][res]
            for args, res in alg.tables[op.id].items()
        }
        for op in alg.sig.ops
    })


# (corpus entry, generator counts): free algebras of 16 to 27 elements
PINNED_SEARCHES = (
    ("boolean-groups", (4,)),
    ("elem-abelian-3", (3,)),
    ("f3-vector-spaces", (3,)),
    ("lie-reps-null-f2", (0, 3)),
)


def test_iso_search_returns_the_pinned_maps_on_corpus_algebras():
    # the canonical-first isomorphism from each free algebra to seeded
    # relabelings of it; the digest was taken from the full-scan closure
    digest = hashlib.sha256()
    for name, counts in PINNED_SEARCHES:
        v = load_entry_variety(name)
        prof = GeneratorProfile.from_counts(v.sig, {s.name: k for s, k in zip(v.sig.sorts, counts)})
        a = build_free_algebra(v, prof).algebra
        for r in range(4):
            rng = random.Random(f"{name} {counts} {r}")
            iso = find_isomorphism(a, relabeled(a, [rng.sample(range(k), k) for k in a.sizes]))
            digest.update(repr(iso.maps).encode())
    assert digest.hexdigest() == "6fe1eac1d79966c7c216cdc25683981e66565b3adbbb50ea47ad50770ca22d02"


def test_iso_search_depth_is_not_bounded_by_the_recursion_limit(sets_variety):
    # every element of a free set is a generator, one search frame each
    prof = GeneratorProfile.from_counts(sets_variety.sig, {"elem": 1100})
    a = build_free_algebra(sets_variety, prof).algebra
    assert find_isomorphism(a, a) == MorphismTable.identity(a)


def test_iso_search_respects_sorts(graphs_variety):
    sig = graphs_variety.sig
    a = FiniteAlgebra.make(sig, {"edge": 1, "vertex": 2}, {"h": lambda e: 0, "t": lambda e: 1})
    b = FiniteAlgebra.make(sig, {"edge": 1, "vertex": 2}, {"h": lambda e: 1, "t": lambda e: 0})
    iso = find_isomorphism(a, b)
    assert iso is not None
    assert iso.maps[sig.sort_named("vertex").id] == (1, 0)
    c = FiniteAlgebra.make(sig, {"edge": 1, "vertex": 2}, {"h": lambda e: 0, "t": lambda e: 0})
    assert find_isomorphism(a, c) is None


# trivial-action assembly ----------------------------------------------------


@pytest.fixture(scope="module")
def action_parts():
    v = load_entry_variety("semigroup-actions-trivial")
    split = classify_action_signature(v.sig)
    sub1, _ = restrict_to_part(v.sig, split, 1)
    sub2, _ = restrict_to_part(v.sig, split, 2)
    return v, split, sub1, sub2


def test_assemble_projection_action(action_parts):
    v, split, sub1, sub2 = action_parts
    h1 = FiniteAlgebra.make(sub1, {"s": 2}, {"mul": lambda x, y: x})
    h2 = FiniteAlgebra(sub2, (3,), {})
    w = SortedVar("w", 0)
    s_term = parse_term("w", sub2, GeneratorProfile.of_vars(sub2, [w]))
    out = assemble_trivial_action(v.sig, split, h1, h2, w, s_term)
    act = v.sig.op_named("act")
    for i in range(2):
        for j in range(3):
            assert out.tables[act.id][(i, j)] == j
    assert satisfies_all(out, v) is True


def test_assemble_null_action():
    v = load_entry_variety("lie-reps-null-f2")
    split = classify_action_signature(v.sig)
    sub1, _ = restrict_to_part(v.sig, split, 1)
    sub2, _ = restrict_to_part(v.sig, split, 2)
    h1 = one_element_algebra(sub1)
    # the 2-dimensional space over the two-element field
    h2 = FiniteAlgebra.make(
        sub2,
        {"v": 4},
        {"plus": lambda x, y: x ^ y, "zero": lambda: 0, "s0": lambda x: 0, "s1": lambda x: x},
    )
    w = SortedVar("w", 0)
    s_term = parse_term("(zero)", sub2, GeneratorProfile.of_vars(sub2, [w]))
    out = assemble_trivial_action(v.sig, split, h1, h2, w, s_term)
    act = v.sig.op_named("act")
    assert all(val == 0 for val in out.tables[act.id].values())
    assert satisfies_all(out, v) is True


def test_assemble_empty_second_sort(action_parts):
    v, split, sub1, sub2 = action_parts
    h1 = FiniteAlgebra.make(sub1, {"s": 2}, {"mul": lambda x, y: x})
    h2 = FiniteAlgebra(sub2, (0,), {})
    w = SortedVar("w", 0)
    s_term = parse_term("w", sub2, GeneratorProfile.of_vars(sub2, [w]))
    out = assemble_trivial_action(v.sig, split, h1, h2, w, s_term)
    assert out.sizes[split.sort2] == 0
    assert out.tables[v.sig.op_named("act").id] == {}
    assert satisfies_all(out, v) is True


def test_assemble_rejects_malformed_term(action_parts):
    from freealg.finalg import SortViolation

    v, split, sub1, sub2 = action_parts
    h1 = FiniteAlgebra.make(sub1, {"s": 1}, {"mul": lambda x, y: 0})
    h2 = FiniteAlgebra(sub2, (2,), {})
    w = SortedVar("w", 0)
    other = SortedVar("q", 0)
    stray = parse_term("q", sub2, GeneratorProfile.of_vars(sub2, [other]))
    with pytest.raises(SortViolation):
        assemble_trivial_action(v.sig, split, h1, h2, w, stray)


def test_assembly_always_lands_in_the_variety(action_parts):
    # every associative 2-element table glued to a small set with the
    # identity action satisfies all trivial-action axioms
    v, split, sub1, sub2 = action_parts
    w = SortedVar("w", 0)
    s_term = parse_term("w", sub2, GeneratorProfile.of_vars(sub2, [w]))
    assoc = make_axioms(
        sub1, [([("x", "s"), ("y", "s"), ("z", "s")], "(mul (mul x y) z)", "(mul x (mul y z))")]
    )
    count = 0
    for values in itertools.product(range(2), repeat=4):
        table = {(i, j): values[2 * i + j] for i in range(2) for j in range(2)}
        h1 = FiniteAlgebra(sub1, (2,), {0: table})
        if satisfies_all(h1, assoc) is not True:
            continue
        count += 1
        for set_size in (1, 2):
            h2 = FiniteAlgebra(sub2, (set_size,), {})
            out = assemble_trivial_action(v.sig, split, h1, h2, w, s_term)
            assert satisfies_all(out, v) is True
    assert count == 8  # the associative tables on two elements


def test_one_element_algebra_satisfies_everything():
    for name in ("boolean-groups", "lie-reps-null-f2", "group-reps-trivial-f2"):
        v = load_entry_variety(name)
        assert satisfies_all(one_element_algebra(v.sig), v) is True


def test_morphism_compose_and_identity(boolean_groups):
    z4 = cyclic_group(boolean_groups.sig, 4)
    z2 = cyclic_group(boolean_groups.sig, 2)
    phi = MorphismTable(z4, z2, ((0, 1, 0, 1),))
    ident = MorphismTable.identity(z4)
    assert phi.after(ident) == phi
    assert MorphismTable.identity(z2).after(phi) == phi
    with pytest.raises(AlgebraError):
        phi.after(phi)


def test_algebra_json_roundtrip(boolean_groups):
    z4 = cyclic_group(boolean_groups.sig, 4)
    data = json.loads(json.dumps(z4.to_json_dict()))
    back = FiniteAlgebra.from_json_dict(boolean_groups.sig, data)
    assert back.sizes == z4.sizes
    assert back.tables == z4.tables
