"""The saturation memo: each structure is saturated once per process, and a
hit gives the outcome a fresh run gives, over the caller's names."""

import pytest

from conftest import make_axioms, make_variety, profile_of
from freealg import egraph
from freealg.certify import classify_action_signature, restrict_to_part
from freealg.corpus import ENTRIES, load_entry
from freealg.egraph import (
    Budget,
    BudgetExceeded,
    VarietyDef,
    build_free_algebra,
    is_consequence,
    nondegeneracy_check,
)
from freealg.finalg import FiniteAlgebra
from freealg.terms import GeneratorProfile, SortedVar


def outcome(res):
    """Everything a result holds, as copies."""
    if isinstance(res, BudgetExceeded):
        return (res.classes, res.rounds, res.limit, list(res.stats.rounds))
    tables = {op: dict(t) for op, t in res.algebra.tables.items()}
    return (
        res.variety,
        res.profile.variables(),
        res.algebra.sizes,
        tables,
        dict(res.gen_images),
        res.reps,
        res.rep_strings(),
        list(res.stats.rounds),
    )


def null_mul_witness():
    """The fujiwara witness of ``null-mul-f2``: the variety with its
    certificate's extra axioms, of which there are none."""
    v, cert = load_entry("null-mul-f2")
    return v.extended(cert.extra_axioms, "null-mul-f2#witness")


def lie_sort1_part():
    """The sort-1 witness of ``lie-reps-null-f2``'s action split: the same
    structure as ``null-mul-f2`` under other sort and op names."""
    v, cert = load_entry("lie-reps-null-f2")
    sub1 = restrict_to_part(v.sig, classify_action_signature(v.sig), 1)
    return VarietyDef(sub1, "lie-reps-null-f2#sort1", tuple(cert.sort1_axioms))


def test_a_renamed_structure_is_served_over_the_callers_names(monkeypatch, captured_states):
    witness, part = null_mul_witness(), lie_sort1_part()
    first = build_free_algebra(witness, profile_of(witness, (2,)))
    validated = []
    validate = FiniteAlgebra._validate

    def validate_and_count(alg):
        validated.append(alg)
        validate(alg)

    monkeypatch.setattr(FiniteAlgebra, "_validate", validate_and_count)
    profile = profile_of(part, (2,))
    hit = build_free_algebra(part, profile)
    assert len(captured_states) == 1
    # the hit's tables are new dicts, checked as any algebra's are
    assert validated == [hit.algebra]
    assert all(hit.algebra.tables[op] is not t for op, t in first.algebra.tables.items())
    egraph._saturated.clear()
    fresh = build_free_algebra(part, profile_of(part, (2,)))
    assert len(captured_states) == 2
    assert outcome(hit) == outcome(fresh)
    assert (hit.variety, hit.profile) == (part, profile) and hit.stats is not fresh.stats
    assert "(plus x1 x2)" in first.rep_strings()["v"]
    assert "(ladd x1 x2)" in hit.rep_strings()["L"]


# a theory whose free algebras are infinite, so that every build trips
# under a small budget, over two sorts to tell an op's sorts apart
OPS = [("f", ["a", "a"], "a"), ("h", ["a"], "a")]
AXIOMS = [
    ([("x", "a"), ("y", "a")], "(f x y)", "(f y x)"),
    ([("x", "a")], "(f x x)", "x"),
]
SMALL = Budget(max_classes=30, max_rounds=4)


def build(sorts=("a", "b"), ops=OPS, axioms=AXIOMS, names=("x1", "x2"), budget=SMALL):
    v = make_variety(list(sorts), ops, "v", axioms)
    profile = GeneratorProfile.of_vars(v.sig, [SortedVar(n, 0) for n in names])
    return build_free_algebra(v, profile, budget)


KEY_FIELDS = {
    "an op's argument sort": {"ops": [OPS[0], ("h", ["b"], "a")]},
    "an op's result sort": {"ops": [OPS[0], ("h", ["a"], "b")]},
    "the axiom order": {"axioms": AXIOMS[::-1]},
    "a declared sort": {"axioms": [([("x", "a"), ("y", "a"), ("z", "b")], "(f x y)", "(f y x)"), AXIOMS[1]]},
    "a generator name": {"names": ("x1", "x3")},
    "the budget": {"budget": Budget(max_classes=31, max_rounds=4)},
}


@pytest.mark.parametrize("change", KEY_FIELDS.values(), ids=KEY_FIELDS)
def test_changing_any_key_field_is_a_miss(captured_states, change):
    assert build() == build()
    assert len(captured_states) == 1
    build(**change)
    assert len(captured_states) == 2


def test_sort_and_op_names_stay_out_of_the_key(captured_states):
    renamed_ops = [("g", ["c", "c"], "c"), ("k", ["c"], "c")]
    renamed_axioms = [
        ([("u", "c"), ("w", "c")], "(g u w)", "(g w u)"),
        ([("u", "c")], "(g u u)", "u"),
    ]
    assert build() == build(sorts=("c", "d"), ops=renamed_ops, axioms=renamed_axioms)
    assert len(captured_states) == 1


def test_the_watched_pair_is_in_the_key(captured_states):
    v = make_variety(["a", "b"], OPS, "v", AXIOMS)
    comm, left = make_axioms(
        v.sig,
        [([("x", "a"), ("y", "a")], "(f x y)", "(f y x)"), ([("x", "a"), ("y", "a")], "(f x y)", "x")],
    )
    assert is_consequence(v, comm, SMALL) == is_consequence(v, comm, SMALL) == "yes"
    assert len(captured_states) == 1
    assert is_consequence(v, left, SMALL) == "unknown"
    assert len(captured_states) == 2
    # an unwatched build on the nondegeneracy run's profile is a run of its own
    nondegeneracy_check(v, 0, SMALL)
    build_free_algebra(v, GeneratorProfile.from_counts(v.sig, {"a": 2}), SMALL)
    assert len(captured_states) == 4


def test_editing_a_returned_outcome_leaves_the_next_hit_unchanged(captured_states):
    v = load_entry("boolean-groups")[0]
    res = build_free_algebra(v, profile_of(v, (2,)))
    kept = outcome(res)
    for _ in range(2):  # a miss's result, then a hit's
        for table in res.algebra.tables.values():
            table[next(iter(table))] = 0
            table[(99,) * 9] = 99
        res.gen_images.clear()
        res.stats.rounds.clear()
        res = build_free_algebra(v, profile_of(v, (2,)))
        assert outcome(res) == kept
    trip = build()
    tripped = outcome(trip)
    assert tripped[3]  # the trip has completed rounds to edit
    for _ in range(2):
        trip.classes, trip.limit = 0, "edited"
        trip.stats.rounds.clear()
        trip = build()
        assert outcome(trip) == tripped
    assert len(captured_states) == 2


class KernelFailed(Exception):
    pass


def test_a_run_that_raises_keeps_nothing(monkeypatch, captured_states):
    v = load_entry("boolean-groups")[0]

    def kernel(state, since, pools):
        raise KernelFailed

    query = v._queries[0]
    run = query.kernel
    monkeypatch.setattr(query, "kernel", kernel)
    with pytest.raises(KernelFailed):
        build_free_algebra(v, profile_of(v, (2,)))
    assert egraph._saturated == {}
    monkeypatch.setattr(query, "kernel", run)
    assert build_free_algebra(v, profile_of(v, (2,))).algebra.sizes == (4,)
    assert len(captured_states) == 2


def test_a_tripped_outcome_on_a_hit_equals_a_fresh_trip(captured_states):
    v = load_entry("lie-reps-null-f2")[0]
    budget = ENTRIES["lie-reps-null-f2"].infinite_budget
    first = build_free_algebra(v, profile_of(v, (2, 0)), budget)
    hit = build_free_algebra(v, profile_of(v, (2, 0)), budget)
    assert len(captured_states) == 1
    egraph._saturated.clear()
    fresh = build_free_algebra(v, profile_of(v, (2, 0)), budget)
    assert isinstance(hit, BudgetExceeded) and hit == fresh == first
    assert hit is not first and hit.stats is not first.stats
    assert (hit.limit, hit.classes, hit.rounds) == ("classes", 4001, 2)
