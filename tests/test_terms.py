import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruteforce import enumerate_terms, substitute
from conftest import load_entry_variety, make_algebra, make_axioms, profile_of
from freealg.certify import classify_action_signature, restrict_to_part
from freealg.corpus import hom_from_gen_images, load_entry
from freealg.egraph import build_free_algebra
from freealg.finalg import AlgebraError, MorphismTable, SortViolation, eval_term
from freealg.signature import Signature
from freealg.terms import (
    GeneratorProfile,
    Identity,
    SortedVar,
    SortError,
    TermError,
    UnboundVariable,
    alpha_key,
    arena_of,
    parse_term,
    term_to_text,
    transport_identity,
    transport_term,
)
from term_order import term_key


@pytest.fixture(scope="module")
def semigroup_sig():
    return Signature.make(["elem"], [("mul", ["elem", "elem"], "elem")])


@pytest.fixture(scope="module")
def xy(semigroup_sig):
    return GeneratorProfile.from_counts(semigroup_sig, {"elem": 2})


def test_parse_apply(semigroup_sig, xy):
    t = parse_term("(mul x1 x2)", semigroup_sig, xy)
    assert not t.is_var()
    assert t.op.name == "mul"
    assert t.sort == 0
    assert term_to_text(t) == "(mul x1 x2)"


def test_parse_nested_action_term():
    sig = load_entry_variety("group-reps-trivial-f2").sig
    prof = GeneratorProfile.from_counts(sig, {"g": 2, "v": 1})
    t = parse_term("(act g1 (act g2 v1))", sig, prof)
    assert t.sort == sig.sort_named("v").id
    assert t.length == 2


def test_parse_sort_error():
    sig = Signature.make(
        ["edge", "vertex"], [("h", ["edge"], "vertex")]
    )
    prof = GeneratorProfile.from_counts(sig, {"vertex": 1})
    with pytest.raises(SortError):
        parse_term("(h vertex1)", sig, prof)


def test_parse_unbound_and_unknown(semigroup_sig, xy):
    with pytest.raises(UnboundVariable):
        parse_term("(mul x1 y)", semigroup_sig, xy)
    with pytest.raises(TermError):
        parse_term("(nosuch x1)", semigroup_sig, xy)


def naive_length(t):
    if t.is_var() or not t.children:
        return 0
    return 1 + max(naive_length(c) for c in t.children)


def test_lengths(semigroup_sig, xy):
    x = parse_term("x1", semigroup_sig, xy)
    mul = parse_term("(mul x1 x2)", semigroup_sig, xy)
    nested = parse_term("(mul (mul x1 x2) x2)", semigroup_sig, xy)
    assert x.length == 0
    assert mul.length == 1
    assert nested.length == 2
    for t in (x, mul, nested):
        assert t.length == naive_length(t)


def test_constant_has_length_zero(boolean_groups):
    prof = GeneratorProfile.from_counts(boolean_groups.sig, {"elem": 0})
    e = parse_term("(e)", boolean_groups.sig, prof)
    assert e.length == 0


def test_hash_consing_identity(semigroup_sig, xy):
    a = parse_term("(mul x1 (mul x2 x2))", semigroup_sig, xy)
    b = parse_term("(mul x1 (mul x2 x2))", semigroup_sig, xy)
    assert a is b
    c = parse_term("(mul x1 x2)", semigroup_sig, xy)
    assert a is not c


@st.composite
def random_term_text(draw, depth=3):
    if depth == 0 or draw(st.booleans()):
        return draw(st.sampled_from(["x1", "x2"]))
    l = draw(random_term_text(depth=depth - 1))
    r = draw(random_term_text(depth=depth - 1))
    return f"(mul {l} {r})"


@given(random_term_text(), random_term_text())
@settings(max_examples=60, deadline=None)
def test_hash_consing_soundness(text_a, text_b):
    sig = Signature.make(["elem"], [("mul", ["elem", "elem"], "elem")])
    prof = GeneratorProfile.from_counts(sig, {"elem": 2})
    a = parse_term(text_a, sig, prof)
    b = parse_term(text_b, sig, prof)
    assert (a is b) == (text_a == text_b)


def test_substitute_identity_is_identity(semigroup_sig, xy):
    arena = arena_of(semigroup_sig)
    mapping = {v: arena.var(v) for v in xy.variables()}
    t = parse_term("(mul (mul x1 x2) x1)", semigroup_sig, xy)
    assert substitute(t, mapping, arena) is t


def test_extend_assignment_left_zero(left_zero):
    alg = make_algebra(left_zero.sig, {"elem": 2}, {"mul": lambda x, y: x})
    prof = GeneratorProfile.from_counts(left_zero.sig, {"elem": 2})
    images = dict(zip(prof.variables(), [0, 1]))
    assert eval_term(alg, parse_term("(mul x1 x2)", left_zero.sig, prof), images) == 0
    assert eval_term(alg, parse_term("(mul x2 x1)", left_zero.sig, prof), images) == 1


def test_extend_assignment_z2(boolean_groups):
    from conftest import cyclic_group

    z2 = cyclic_group(boolean_groups.sig, 2)
    prof = GeneratorProfile.from_counts(boolean_groups.sig, {"elem": 1})
    t = parse_term("(mul x1 x1)", boolean_groups.sig, prof)
    assert eval_term(z2, t, {prof.variables()[0]: 1}) == 0


def test_gen_image_maps_validate(boolean_groups, sets_variety):
    from conftest import cyclic_group

    z2 = cyclic_group(boolean_groups.sig, 2)
    with pytest.raises(SortViolation):
        MorphismTable(z2, z2, ((0, 2),))
    with pytest.raises(AlgebraError):
        MorphismTable(z2, z2, ((0,),))
    f1 = build_free_algebra(sets_variety, profile_of(sets_variety, (1,)))
    with pytest.raises(SortViolation):
        hom_from_gen_images(f1, f1, {f1.profile.variables()[0]: 5})
    # a representative that applies an op is evaluated only after the
    # images are checked against the target's carriers
    v = load_entry_variety("elem-abelian-3")
    g1 = build_free_algebra(v, profile_of(v, (1,)))
    with pytest.raises(SortViolation):
        hom_from_gen_images(g1, g1, {g1.profile.variables()[0]: 5})


def test_extension_uniqueness(boolean_groups):
    # the homomorphism extending a generator map sends each term's element
    # of the free algebra to that term's value under the map
    sig = boolean_groups.sig
    src = build_free_algebra(boolean_groups, profile_of(boolean_groups, (2,)))
    dst = build_free_algebra(boolean_groups, profile_of(boolean_groups, (1,)))
    images = dict(zip(src.profile.variables(), [1, 0]))
    table = hom_from_gen_images(src, dst, images)
    rng = random.Random(7)
    arena = arena_of(sig)
    vs = [arena.var(v) for v in src.profile.variables()]

    def rand_term(depth):
        if depth == 0 or rng.random() < 0.3:
            return rng.choice(vs)
        op = rng.choice(sig.ops)
        return arena.apply(op, tuple(rand_term(depth - 1) for _ in range(op.arity)))

    for _ in range(2000):
        t = rand_term(4)
        elem = eval_term(src.algebra, t, src.gen_images)
        assert table.maps[t.sort][elem] == eval_term(dst.algebra, t, images)


def test_is_sort1_pure_matches_sort_exhaustively(action_sig):
    # in an action-separated signature, first-sort terms are exactly the
    # terms built from first-class ops and first-sort generators, so the
    # action-split route selects its first-sort axioms by sort
    split = classify_action_signature(action_sig)
    ops1 = {o.id for o in split.ops1}

    def pure(t):
        if t.is_var():
            return t.var.sort == split.sort1
        return t.op.id in ops1 and all(map(pure, t.children))

    prof = GeneratorProfile.from_counts(action_sig, {"s": 1, "el": 1})
    terms = enumerate_terms(action_sig, prof, max_length=4)
    assert len(terms) > 1000
    for t in terms:
        assert pure(t) == (t.sort == split.sort1)


def test_length_monotone_under_substitution(comm_idem):
    # generator maps into a term algebra never shorten a term
    sig = comm_idem.sig
    arena = arena_of(sig)
    x_prof = GeneratorProfile.from_counts(sig, {"elem": 2})
    y_prof = GeneratorProfile.of_vars(sig, [SortedVar("y1", 0), SortedVar("y2", 0)])
    rng = random.Random(11)
    yvars = [arena.var(v) for v in y_prof.variables()]

    def rand_term(vs, depth):
        if depth == 0 or rng.random() < 0.4:
            return rng.choice(vs)
        return arena.apply(sig.ops[0], (rand_term(vs, depth - 1), rand_term(vs, depth - 1)))

    xvars = [arena.var(v) for v in x_prof.variables()]
    for _ in range(500):
        t = rand_term(xvars, 3)
        mapping = {v.var: rand_term(yvars, 2) for v in xvars}
        assert t.length <= substitute(t, mapping, arena).length


def test_alpha_key_quotient_by_renaming(semigroup_sig):
    ax1 = make_axioms(
        semigroup_sig, [([("x", "elem"), ("y", "elem")], "(mul x y)", "(mul y x)")]
    )[0]
    ax2 = make_axioms(
        semigroup_sig, [([("p", "elem"), ("q", "elem")], "(mul p q)", "(mul q p)")]
    )[0]
    ax3 = make_axioms(
        semigroup_sig, [([("x", "elem"), ("y", "elem")], "(mul x y)", "(mul x y)")]
    )[0]
    assert alpha_key(ax1) == alpha_key(ax2)
    assert alpha_key(ax1) != alpha_key(ax3)


def test_transport_identity(boolean_groups):
    other = Signature.make(
        ["elem"],
        [("mul", ["elem", "elem"], "elem"), ("inv", ["elem"], "elem"), ("e", [], "elem")],
    )
    for ax in boolean_groups.axioms:
        moved = transport_identity(ax, other)
        assert moved.vars.sig is other
        assert alpha_key(moved) == alpha_key(ax)


@pytest.mark.parametrize(
    "name", ["semigroup-actions-trivial", "group-reps-trivial-f2", "lie-reps-null-f2"]
)
def test_transport_term_round_trips_through_the_parts(name):
    # each part's sort is named after the sort it restricts, so a term goes
    # there and back to the same interned term
    v, cert = load_entry(name)
    split = classify_action_signature(v.sig)
    sub1 = restrict_to_part(v.sig, split, 1)
    sub2 = restrict_to_part(v.sig, split, 2)

    def round_trip(t, source, target):
        return transport_term(transport_term(t, source, target), target, source)

    def symbols(t):
        return {t.var.sort} if t.is_var() else {t.op.name}.union(*map(symbols, t.children))

    for part, axioms in ((sub1, cert.sort1_axioms), (sub2, cert.sort2_axioms)):
        for ax in axioms:
            assert round_trip(ax.lhs, part, v.sig) is ax.lhs
            assert round_trip(ax.rhs, part, v.sig) is ax.rhs
    assert round_trip(cert.s_term, sub2, v.sig) is cert.s_term
    # the variety's axioms over one part only; those with the action stay
    parts = {
        sub1: {split.sort1, *(o.name for o in split.ops1)},
        sub2: {split.sort2, *(o.name for o in split.ops2)},
    }
    one_part = 0
    for ax in v.axioms:
        for part, allowed in parts.items():
            if symbols(ax.lhs) | symbols(ax.rhs) <= allowed:
                one_part += 1
                assert round_trip(ax.lhs, v.sig, part) is ax.lhs
                assert round_trip(ax.rhs, v.sig, part) is ax.rhs
    assert one_part > 0


def test_term_key_orders_by_length(semigroup_sig, xy):
    x = parse_term("x1", semigroup_sig, xy)
    short = parse_term("(mul x1 x1)", semigroup_sig, xy)
    long = parse_term("(mul (mul x1 x1) x1)", semigroup_sig, xy)
    assert term_key(x) < term_key(short) < term_key(long)


def test_identity_validation(semigroup_sig, xy):
    lhs = parse_term("(mul x1 x2)", semigroup_sig, xy)
    sig2 = Signature.make(["a", "b"], [("u", ["a"], "b")])
    prof2 = GeneratorProfile.from_counts(sig2, {"a": 1})
    with pytest.raises(SortError):
        Identity(prof2, parse_term("a1", sig2, prof2), parse_term("(u a1)", sig2, prof2))
    small = GeneratorProfile.of_vars(semigroup_sig, [SortedVar("x1", 0)])
    with pytest.raises(UnboundVariable):
        Identity(small, lhs, lhs)


def test_a_sort_named_another_plus_a_dot_and_digits_keeps_the_plain_names():
    sig = Signature.make(["a", "a.1"], [])
    prof = GeneratorProfile.from_counts(sig, {"a": 11, "a.1": 1})
    assert [v.name for v in prof.variables()][-2:] == ["a11", "a.11"]


def test_a_sort_named_another_plus_digits_dots_every_generator_name():
    # "a" generator 11 and "a1" generator 1 would both be a11
    sig = Signature.make(["a", "a1", "a.1"], [])
    prof = GeneratorProfile.from_counts(sig, {"a": 11, "a1": 1, "a.1": 1})
    names = [v.name for v in prof.variables()]
    assert names[:2] == ["a.1", "a.2"] and names[-2:] == ["a1.1", "a.1.1"]
    assert len(set(names)) == 13
    # each name splits back into its sort and its number at its last dot
    for v in prof.variables():
        sort, k = v.name.rsplit(".", 1)
        assert sig.sort_named(sort).id == v.sort and prof.by_sort[v.sort][int(k) - 1] is v


def test_profile_uniqueness_checks(semigroup_sig):
    with pytest.raises(TermError):
        GeneratorProfile.of_vars(
            semigroup_sig, [SortedVar("x", 0), SortedVar("x", 0)]
        )
