import gc
import hashlib
import itertools
import json
import math
import random
import re
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    F2,
    algebra_json,
    cyclic_group,
    klein_four,
    load_entry_variety,
    make_algebra,
    make_axioms,
    make_variety,
    profile_of,
)
from corpus_reference import rows
from freealg import finalg
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
from freealg.terms import GeneratorProfile, Identity, SortedVar, Term, arena_of, parse_term
from functor import identity_morphism


def test_tables_must_be_total(boolean_groups):
    sig = boolean_groups.sig
    with pytest.raises(AlgebraError):
        FiniteAlgebra(sig, (2,), {sig.op_named("mul").id: {(0, 0): 0}})


def test_constant_needs_nonempty_carrier(boolean_groups):
    sig = boolean_groups.sig
    with pytest.raises(AlgebraError):
        make_algebra(sig, {"elem": 0}, {"mul": lambda x, y: 0, "inv": lambda x: 0, "e": lambda: 0})


def test_eval_constant_and_tables(boolean_groups):
    z2 = cyclic_group(boolean_groups.sig, 2)
    prof = GeneratorProfile.from_counts(boolean_groups.sig, {"elem": 1})
    e = parse_term("(e)", boolean_groups.sig, prof)
    assert eval_term(z2, e, {}) == 0
    x = prof.variables()[0]
    t = parse_term("(mul x1 (inv x1))", boolean_groups.sig, prof)
    assert eval_term(z2, t, {x: 1}) == 0


def test_eval_left_zero(left_zero):
    alg = make_algebra(left_zero.sig, {"elem": 2}, {"mul": lambda x, y: x})
    prof = GeneratorProfile.from_counts(left_zero.sig, {"elem": 2})
    t = parse_term("(mul x1 x2)", left_zero.sig, prof)
    a, b = prof.variables()
    assert eval_term(alg, t, {a: 0, b: 1}) == 0
    assert eval_term(alg, t, {a: 1, b: 0}) == 1


def test_eval_f2_plus():
    v = load_entry_variety("f2-vector-spaces")
    f2 = make_algebra(v.sig, {"v": 2}, F2)
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
    # a repeated subterm, (inv x), is computed once per occurrence
    [inv_square] = make_axioms(
        boolean_groups.sig, [([("x", "elem")], "(mul (inv x) (inv x))", "(e)")]
    )
    assert finalg._check_source(inv_square)[0].count("t0[") == 2  # t0 is inv's table
    for ident in (square, inv_square):
        cex = satisfies_identity(z4, ident)
        assert isinstance(cex, Counterexample)
        # first failing assignment in lexicographic order: x=0 passes, x=1 fails
        assert list(cex.assignment.values()) == [1]
        assert cex.lhs_value == 2 and cex.rhs_value == 0
        assert_same_verdict(cex, interpreted_check(z4, ident))


def test_vacuous_satisfaction_on_empty_carrier():
    v = make_variety(
        ["a", "b"],
        [("u", ["a"], "b")],
        "arrows",
        [([("x", "a"), ("y", "a")], "(u x)", "(u y)")],
    )
    alg = FiniteAlgebra(v.sig, (0, 3), {v.sig.op_named("u").id: {}})
    assert satisfies_all(alg, v.axioms) is True


def test_satisfies_all_first_counterexample(left_zero):
    alg = make_algebra(left_zero.sig, {"elem": 2}, {"mul": lambda x, y: x})
    comm = make_axioms(
        left_zero.sig, [([("x", "elem"), ("y", "elem")], "(mul x y)", "(mul y x)")]
    )
    cex = satisfies_all(alg, list(left_zero.axioms) + comm)
    assert isinstance(cex, Counterexample)
    assert list(cex.assignment.values()) == [0, 1]
    assert (cex.lhs_value, cex.rhs_value) == (0, 1)


def interpreted_check(alg, ident):
    """Every assignment in lexicographic order, both sides interpreted: the
    first failing assignment with both values, or True."""
    vs = ident.vars.variables()
    for combo in itertools.product(*(range(alg.sizes[v.sort]) for v in vs)):
        asg = dict(zip(vs, combo))
        lhs, rhs = eval_term(alg, ident.lhs, asg), eval_term(alg, ident.rhs, asg)
        if lhs != rhs:
            return asg, lhs, rhs
    return True


def assert_same_verdict(got, want):
    if want is True:
        assert got is True
    else:
        asg, lhs, rhs = want
        assert isinstance(got, Counterexample)
        assert list(got.assignment.items()) == list(asg.items())
        assert (got.lhs_value, got.rhs_value) == (lhs, rhs)


# two sorts, the first possibly empty: a binary op, an op across the sorts
# each way round, and a constant of the second sort
CHECK_SIG = Signature.make(
    ["a", "b"],
    [("f", ["a", "a"], "a"), ("g", ["a"], "b"), ("h", ["b", "a"], "b"), ("c", [], "b")],
)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_compiled_check_matches_interpreted_check(data):
    sig = CHECK_SIG
    sizes = (data.draw(st.integers(0, 3), label="a"), data.draw(st.integers(1, 3), label="b"))
    tables = {}
    for op in sig.ops:
        keys = itertools.product(*(range(sizes[s]) for s in op.arg_sorts))
        res = st.integers(0, sizes[op.result_sort] - 1)
        tables[op.id] = {k: data.draw(res) for k in keys}
    alg = FiniteAlgebra(sig, sizes, tables)
    sorts = data.draw(st.lists(st.sampled_from([0, 1]), max_size=5), label="variables")
    vs = [SortedVar(f"x{i}", s) for i, s in enumerate(sorts)]
    arena = arena_of(sig)

    def term(sort, depth):
        # declared variables may go unused: each is only one of the choices
        options = [arena.var(v) for v in vs if v.sort == sort]
        options += [op for op in sig.ops if op.result_sort == sort and not op.arity]
        if depth and 0 in sorts:  # every op with arguments reads the first sort
            options += [op for op in sig.ops if op.result_sort == sort and op.arity]
        pick = data.draw(st.sampled_from(options))
        if isinstance(pick, Term):
            return pick
        return arena.apply(pick, tuple(term(s, depth - 1) for s in pick.arg_sorts))

    sort = data.draw(st.sampled_from([0, 1] if 0 in sorts else [1]), label="sort")
    ident = Identity(GeneratorProfile.of_vars(sig, vs), term(sort, 3), term(sort, 3))
    assert_same_verdict(satisfies_identity(alg, ident), interpreted_check(alg, ident))


def test_identities_of_one_shape_share_one_check_and_stay_collectable():
    v = make_variety(
        ["elem"],
        [("f", ["elem", "elem"], "elem"), ("g", ["elem", "elem"], "elem")],
        "two-semigroups",
        [
            ([("x", "elem"), ("y", "elem"), ("z", "elem")], "(f (f x y) z)", "(f x (f y z))"),
            ([("x", "elem"), ("y", "elem"), ("z", "elem")], "(g (g x y) z)", "(g x (g y z))"),
        ],
    )
    assert satisfies_all(one_element_algebra(v.sig), v.axioms) is True
    f_assoc, g_assoc = v.axioms
    assert finalg._checks[f_assoc][0] is finalg._checks[g_assoc][0]
    assert finalg._checks[f_assoc][1] != finalg._checks[g_assoc][1]
    source, _ = finalg._check_source(f_assoc)
    assert not re.search(r"\bf\b|\bx\b|elem", source)  # slots and table numbers only
    dead = weakref.ref(f_assoc)
    del v, f_assoc, g_assoc
    gc.collect()
    assert dead() is None


def right_chain(arena, op, terms):
    """``op(t1, op(t2, ... op(t_{n-1}, t_n)))``."""
    out = terms[-1]
    for t in reversed(terms[:-1]):
        out = arena.apply(op, (t, out))
    return out


def test_identity_with_24_variables(left_zero):
    sig = left_zero.sig
    mul = sig.op_named("mul")
    arena = arena_of(sig)
    vs = [SortedVar(f"x{i}", 0) for i in range(1, 25)]
    prof = GeneratorProfile.of_vars(sig, vs)
    xs = [arena.var(v) for v in vs]
    reversed_chain = Identity(prof, right_chain(arena, mul, xs), right_chain(arena, mul, xs[::-1]))
    assert satisfies_identity(one_element_algebra(sig), reversed_chain) is True
    # in the two-element left-zero band a chain is its first variable, so
    # the first failure sets x17, which the shared innermost loop ranges over
    band = make_algebra(sig, {"elem": 2}, {"mul": lambda x, y: x})
    moved = Identity(prof, xs[0], right_chain(arena, mul, [xs[16]] + xs[:16] + xs[17:]))
    cex = satisfies_identity(band, moved)
    assert list(cex.assignment.values()) == [0] * 16 + [1] + [0] * 7
    assert_same_verdict(cex, interpreted_check(band, moved))


def test_free_algebra_satisfies_own_axioms(comm_idem):
    prof = GeneratorProfile.from_counts(comm_idem.sig, {"elem": 3})
    res = build_free_algebra(comm_idem, prof)
    assert satisfies_all(res.algebra, comm_idem.axioms) is True


def test_z2_satisfies_boolean_axioms(boolean_groups):
    assert satisfies_all(cyclic_group(boolean_groups.sig, 2), boolean_groups.axioms) is True


# isomorphism search -------------------------------------------------------


def commutes(a: FiniteAlgebra, b: FiniteAlgebra, maps) -> bool:
    """Whether the per-sort ``maps`` send every table entry of ``a`` to
    the matching entry of ``b``; the oracle's own check, independent of
    ``MorphismTable.is_homomorphism``."""
    for op in a.sig.ops:
        for args, res in a.tables[op.id].items():
            image = tuple(maps[s][x] for x, s in zip(args, op.arg_sorts))
            if b.tables[op.id][image] != maps[op.result_sort][res]:
                return False
    return True


def exhaustive_isos(a: FiniteAlgebra, b: FiniteAlgebra):
    """All sort-respecting bijective homomorphisms, by brute force."""
    if a.sizes != b.sizes:
        return []
    pools = [itertools.permutations(range(n)) for n in a.sizes]
    return [
        MorphismTable(a, b, perms)
        for perms in itertools.product(*pools)
        if commutes(a, b, perms)
    ]


def test_identity_isomorphism(boolean_groups):
    z2 = cyclic_group(boolean_groups.sig, 2)
    iso = find_isomorphism(z2, z2)
    assert iso == identity_morphism(z2)


def test_klein_presentations_isomorphic(boolean_groups):
    a = klein_four(boolean_groups.sig)
    b = relabeled(a, [(2, 0, 3, 1)])
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
    a = random_algebra(data, sig, sizes)
    if data.draw(st.booleans(), label="relabel"):
        b = relabeled(a, [data.draw(st.permutations(range(n))) for n in sizes])
    else:
        b = random_algebra(data, sig, sizes)
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
        tables = dict(b.tables)
        tables[c.id] = {(): data.draw(elem, label="constant of b")}
        b = FiniteAlgebra(sig, b.sizes, tables)
    mine = find_isomorphism(a, b)
    brute = exhaustive_isos(a, b)
    assert (mine is not None) == bool(brute)
    if mine is not None:
        assert mine.maps == min(t.maps for t in brute)


# a constant of t, and a binary and a ternary op that feed each sort from
# the other, so the closure takes elements of s after elements of t; the
# two positions of sort s make it tell earlier taken elements from later ones
TERNARY_SIG = Signature.make(
    ["s", "t"],
    [("c", [], "t"), ("f", ["t", "s"], "s"), ("h", ["s", "t", "s"], "t")],
)


def random_algebra(data, sig, sizes) -> FiniteAlgebra:
    """An algebra of ``sig`` on carriers of ``sizes``, every entry drawn."""
    tables = {}
    for op in sig.ops:
        keys = itertools.product(*(range(sizes[s]) for s in op.arg_sorts))
        res = st.integers(0, sizes[op.result_sort] - 1)
        tables[op.id] = {k: data.draw(res) for k in keys}
    return FiniteAlgebra(sig, sizes, tables)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_iso_search_matches_exhaustive_search_with_a_ternary_op(data):
    sig = TERNARY_SIG
    sizes = (data.draw(st.integers(0, 5), label="s"), data.draw(st.integers(1, 3), label="t"))
    diagonal = data.draw(st.booleans(), label="diagonal")

    def draw_algebra():
        alg = random_algebra(data, sig, sizes)
        if not diagonal:
            return alg
        # f is its second argument, and h its middle one off the diagonal,
        # so only the entries h(x, y, x) tell the elements of s apart
        f, h = sig.op_named("f").id, sig.op_named("h").id
        tables = dict(alg.tables)
        tables[f] = {k: k[1] for k in alg.tables[f]}
        tables[h] = {k: v if k[0] == k[2] else k[1] for k, v in alg.tables[h].items()}
        return FiniteAlgebra(sig, sizes, tables)

    a = draw_algebra()
    if data.draw(st.booleans(), label="relabel"):
        b = relabeled(a, [data.draw(st.permutations(range(n))) for n in sizes])
    else:
        b = draw_algebra()
    mine = find_isomorphism(a, b)
    brute = exhaustive_isos(a, b)
    assert (mine is not None) == bool(brute)
    if mine is not None:
        assert mine.maps == min(t.maps for t in brute)


# one op of each arity, over two sorts of two and three elements
ARITY_SIG = Signature.make(
    ["s", "t"],
    [("c", [], "t"), ("u", ["s"], "t"), ("f", ["s", "t"], "s"), ("h", ["t", "s", "t"], "t")],
)


@pytest.mark.parametrize("name", ["c", "u", "f", "h"], ids=["nullary", "unary", "binary", "ternary"])
def test_is_homomorphism_rejects_each_broken_entry(name):
    rng = random.Random(name)
    sig = ARITY_SIG
    sizes = (2, 3)
    a = FiniteAlgebra(sig, sizes, {
        op.id: {
            k: rng.randrange(sizes[op.result_sort])
            for k in itertools.product(*(range(sizes[s]) for s in op.arg_sorts))
        }
        for op in sig.ops
    })
    perms = ((1, 0), (2, 0, 1))
    b = relabeled(a, perms)
    assert MorphismTable(a, b, perms).is_homomorphism()
    op = sig.op_named(name)
    n = sizes[op.result_sort]
    for key, value in b.tables[op.id].items():
        tables = dict(b.tables)
        tables[op.id] = {**b.tables[op.id], key: (value + 1) % n}
        broken = FiniteAlgebra(sig, sizes, tables)
        assert not MorphismTable(a, broken, perms).is_homomorphism(), key


def _validate_cases(op, sizes):
    """Each way one entry of ``op``'s table can break, as (label, change to
    the table, the message it must raise)."""
    key = tuple(0 for _ in op.arg_sorts)
    name = op.name
    yield "wrong arity", lambda t: t.update({key + (0,): t.pop(key)}), f"has a bad key {key + (0,)}"
    for pos, s in enumerate(op.arg_sorts):
        for bad in (-1, sizes[s]):
            broken = key[:pos] + (bad,) + key[pos + 1 :]
            yield (
                f"argument {pos} at {bad}",
                lambda t, b=broken: t.update({b: t.pop(key)}),
                f"has a bad key {broken}",
            )
    for bad in (-1, sizes[op.result_sort]):
        yield f"result at {bad}", lambda t, b=bad: t.update({key: b}), f"maps {key} outside the carrier"
    domain = math.prod(sizes[s] for s in op.arg_sorts)
    yield "missing entry", lambda t: t.pop(key), f"has {domain - 1} entries, expected {domain}"


VALIDATE_CASES = [
    (name, label, change, message)
    for name in ("c", "u", "f", "h")
    for label, change, message in _validate_cases(ARITY_SIG.op_named(name), (2, 3))
]


@pytest.mark.parametrize(
    "name,label,change,message",
    VALIDATE_CASES,
    ids=[f"{name}-{label.replace(' ', '-')}" for name, label, *_ in VALIDATE_CASES],
)
def test_validate_rejects_each_broken_entry(name, label, change, message):
    # the one op-closure check on every algebra: a key of the wrong arity,
    # an argument out of range at each position, a result out of range and
    # a missing entry each raise, naming the op and the entry
    sig = ARITY_SIG
    sizes = (2, 3)
    tables = {
        op.id: {k: 0 for k in itertools.product(*(range(sizes[s]) for s in op.arg_sorts))}
        for op in sig.ops
    }
    FiniteAlgebra(sig, sizes, tables)
    op = sig.op_named(name)
    change(tables[op.id])
    with pytest.raises(AlgebraError, match=re.escape(f"table for '{name}' {message}")):
        FiniteAlgebra(sig, sizes, tables)


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
        a = build_free_algebra(v, profile_of(v, counts)).algebra
        for r in range(4):
            rng = random.Random(f"{name} {counts} {r}")
            iso = find_isomorphism(a, relabeled(a, [rng.sample(range(k), k) for k in a.sizes]))
            digest.update(repr(iso.maps).encode())
    assert digest.hexdigest() == "6fe1eac1d79966c7c216cdc25683981e66565b3adbbb50ea47ad50770ca22d02"


def test_iso_search_depth_is_not_bounded_by_the_recursion_limit(sets_variety):
    # every element of a free set is a generator, one search frame each
    prof = GeneratorProfile.from_counts(sets_variety.sig, {"elem": 1100})
    a = build_free_algebra(sets_variety, prof).algebra
    assert find_isomorphism(a, a) == identity_morphism(a)


FINITE_ROWS = {label: (name, counts) for label, name, counts, infinite in rows() if not infinite}


@pytest.mark.parametrize("name, counts", list(FINITE_ROWS.values()), ids=list(FINITE_ROWS))
def test_iso_search_finds_relabelings_of_every_finite_corpus_algebra(name, counts):
    # every finite corpus algebra: each seeded relabeling is found, and on
    # small carriers the map is the canonical-first one of the exhaustive search
    v = load_entry_variety(name)
    a = build_free_algebra(v, profile_of(v, counts)).algebra
    few_maps = math.prod(math.factorial(n) for n in a.sizes) <= 720
    for r in range(5):
        rng = random.Random(f"{name} {counts} {r}")
        b = relabeled(a, [rng.sample(range(k), k) for k in a.sizes])
        iso = find_isomorphism(a, b)
        assert iso is not None
        if few_maps:
            assert iso.maps == min(t.maps for t in exhaustive_isos(a, b))


def test_iso_search_respects_sorts(graphs_variety):
    sig = graphs_variety.sig
    a = make_algebra(sig, {"edge": 1, "vertex": 2}, {"h": lambda e: 0, "t": lambda e: 1})
    b = make_algebra(sig, {"edge": 1, "vertex": 2}, {"h": lambda e: 1, "t": lambda e: 0})
    iso = find_isomorphism(a, b)
    assert iso is not None
    assert iso.maps[sig.sort_named("vertex").id] == (1, 0)
    c = make_algebra(sig, {"edge": 1, "vertex": 2}, {"h": lambda e: 0, "t": lambda e: 0})
    assert find_isomorphism(a, c) is None


# trivial-action assembly ----------------------------------------------------


@pytest.fixture(scope="module")
def action_parts():
    v = load_entry_variety("semigroup-actions-trivial")
    split = classify_action_signature(v.sig)
    sub1 = restrict_to_part(v.sig, split, 1)
    sub2 = restrict_to_part(v.sig, split, 2)
    return v, split, sub1, sub2


def test_assemble_projection_action(action_parts):
    v, split, sub1, sub2 = action_parts
    h1 = make_algebra(sub1, {"s": 2}, {"mul": lambda x, y: x})
    h2 = FiniteAlgebra(sub2, (3,), {})
    w = SortedVar("w", 0)
    s_term = parse_term("w", sub2, GeneratorProfile.of_vars(sub2, [w]))
    out = assemble_trivial_action(v.sig, split, h1, h2, w, s_term)
    act = v.sig.op_named("act")
    for i in range(2):
        for j in range(3):
            assert out.tables[act.id][(i, j)] == j
    assert satisfies_all(out, v.axioms) is True


def test_assemble_null_action():
    v = load_entry_variety("lie-reps-null-f2")
    split = classify_action_signature(v.sig)
    sub1 = restrict_to_part(v.sig, split, 1)
    sub2 = restrict_to_part(v.sig, split, 2)
    h1 = one_element_algebra(sub1)
    # the 2-dimensional space over the two-element field
    h2 = make_algebra(sub2, {"v": 4}, F2)
    w = SortedVar("w", 0)
    s_term = parse_term("(zero)", sub2, GeneratorProfile.of_vars(sub2, [w]))
    out = assemble_trivial_action(v.sig, split, h1, h2, w, s_term)
    act = v.sig.op_named("act")
    assert all(val == 0 for val in out.tables[act.id].values())
    assert satisfies_all(out, v.axioms) is True


def test_assemble_empty_second_sort(action_parts):
    v, split, sub1, sub2 = action_parts
    h1 = make_algebra(sub1, {"s": 2}, {"mul": lambda x, y: x})
    h2 = FiniteAlgebra(sub2, (0,), {})
    w = SortedVar("w", 0)
    s_term = parse_term("w", sub2, GeneratorProfile.of_vars(sub2, [w]))
    out = assemble_trivial_action(v.sig, split, h1, h2, w, s_term)
    assert out.sizes[split.sort2] == 0
    assert out.tables[v.sig.op_named("act").id] == {}
    assert satisfies_all(out, v.axioms) is True


def test_assemble_rejects_malformed_term(action_parts):
    from freealg.finalg import SortViolation

    v, split, sub1, sub2 = action_parts
    h1 = make_algebra(sub1, {"s": 1}, {"mul": lambda x, y: 0})
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
            assert satisfies_all(out, v.axioms) is True
    assert count == 8  # the associative tables on two elements


def test_one_element_algebra_satisfies_everything():
    for name in ("boolean-groups", "lie-reps-null-f2", "group-reps-trivial-f2"):
        v = load_entry_variety(name)
        assert satisfies_all(one_element_algebra(v.sig), v.axioms) is True


def test_algebra_json_roundtrip(boolean_groups):
    z4 = cyclic_group(boolean_groups.sig, 4)
    data = json.loads(json.dumps(algebra_json(z4)))
    back = FiniteAlgebra.from_json_dict(boolean_groups.sig, data)
    assert back.sizes == z4.sizes
    assert back.tables == z4.tables
