import itertools

import pytest

from conftest import GROUP_AXIOMS, GROUP_OPS, make_axioms, make_variety
from freealg.certify import (
    CERTIFIED,
    CERTIFIED_CONDITIONAL,
    NOT_APPLICABLE,
    REFUTED,
    UNKNOWN,
    ActionSplitCert,
    CertificateError,
    PerSortWitness,
    RefutedEvidence,
    certify_action_split,
    certify_empty_theory,
    certify_fujiwara,
    certify_per_sort,
    run_certificate,
)
from freealg.corpus import load_entry
from freealg.egraph import Budget, build_free_algebra
from freealg.finalg import MorphismTable, find_isomorphism
from freealg.signature import classify_action_signature, restrict_to_part
from freealg.terms import GeneratorProfile


def test_empty_theory_routes(sets_variety, graphs_variety):
    for v in (sets_variety, graphs_variety):
        report = certify_empty_theory(v)
        assert report.status == CERTIFIED
        assert report.rank == "unbounded"


def test_empty_theory_not_applicable():
    semigroups = make_variety(
        ["elem"],
        [("mul", ["elem", "elem"], "elem")],
        "semigroups",
        [([("x", "elem"), ("y", "elem"), ("z", "elem")], "(mul (mul x y) z)", "(mul x (mul y z))")],
    )
    assert certify_empty_theory(semigroups).status == NOT_APPLICABLE


def test_fujiwara_even_exponent_groups():
    # groups of exponent six, witnessed by the exponent-two extension:
    # free witness algebras have sizes 1, 2, 4, 8 and certify rank 3
    theta = make_variety(
        ["elem"],
        GROUP_OPS,
        "exp6-groups",
        GROUP_AXIOMS
        + [([("x", "elem")], "(mul x (mul x (mul x (mul x (mul x x)))))", "(e)")],
    )
    extra = make_axioms(theta.sig, [([("x", "elem")], "(mul x x)", "(e)")])
    report = certify_fujiwara(theta, extra, 3)
    assert report.status == CERTIFIED
    assert report.rank == 3
    sizes = {tuple(p.counts): p.sizes for p in report.profiles}
    assert sizes == {(0,): (1,), (1,): (2,), (2,): (4,), (3,): (8,)}
    assert all(not c.isomorphic for c in report.iso_checks)


def test_fujiwara_exponent_three_abelian():
    theta = make_variety(
        ["elem"],
        GROUP_OPS,
        "exp3-groups",
        GROUP_AXIOMS + [([("x", "elem")], "(mul x (mul x x))", "(e)")],
    )
    extra = make_axioms(theta.sig, [([("x", "elem"), ("y", "elem")], "(mul x y)", "(mul y x)")])
    report = certify_fujiwara(theta, extra, 2)
    assert report.status == CERTIFIED
    sizes = {tuple(p.counts): p.sizes for p in report.profiles}
    assert sizes == {(0,): (1,), (1,): (3,), (2,): (9,)}


def test_fujiwara_left_zero_witness():
    semigroups = make_variety(
        ["elem"],
        [("mul", ["elem", "elem"], "elem")],
        "semigroups",
        [([("x", "elem"), ("y", "elem"), ("z", "elem")], "(mul (mul x y) z)", "(mul x (mul y z))")],
    )
    extra = make_axioms(semigroups.sig, [([("x", "elem"), ("y", "elem")], "(mul x y)", "x")])
    report = certify_fujiwara(semigroups, extra, 3)
    assert report.status == CERTIFIED
    sizes = {tuple(p.counts): p.sizes for p in report.profiles}
    assert sizes == {(0,): (0,), (1,): (1,), (2,): (2,), (3,): (3,)}


def test_fujiwara_degenerate_witness(comm_idem):
    extra = make_axioms(comm_idem.sig, [([("x1", "elem"), ("x2", "elem")], "x1", "x2")])
    report = certify_fujiwara(comm_idem, extra, 2)
    assert report.status == UNKNOWN
    assert "degenerate" in report.detail


def test_fujiwara_budget_unknown():
    semigroups = make_variety(
        ["elem"],
        [("mul", ["elem", "elem"], "elem")],
        "semigroups",
        [([("x", "elem"), ("y", "elem"), ("z", "elem")], "(mul (mul x y) z)", "(mul x (mul y z))")],
    )
    report = certify_fujiwara(semigroups, [], 2, Budget(max_classes=300, max_rounds=6))
    assert report.status == UNKNOWN
    # the watched two-generator run trips first, so nothing is built
    assert report.nondegeneracy == {"elem": "unknown"}
    assert "undecided" in report.detail
    assert report.profiles == () and report.iso_checks == ()


def test_fujiwara_sweep_build_budget_unknown(boolean_groups):
    # the witness is nondegenerate within the budget, but its free algebra
    # on three generators is not; the sweep stops there, before any iso check
    report = certify_fujiwara(boolean_groups, [], 3, Budget(max_classes=100))
    assert report.status == UNKNOWN
    assert report.nondegeneracy == {"elem": "nondegenerate"}
    assert [p.counts for p in report.profiles] == [(0,), (1,), (2,), (3,)]
    assert report.profiles[-1].status == "budget"
    assert report.profiles[-1].sizes is None
    assert report.iso_checks == ()


def test_fujiwara_rank_monotone(boolean_groups):
    strength = {CERTIFIED: 2, CERTIFIED_CONDITIONAL: 2, UNKNOWN: 1, NOT_APPLICABLE: 1, "refuted": 0}
    low = certify_fujiwara(boolean_groups, [], 2)
    high = certify_fujiwara(boolean_groups, [], 3)
    assert strength[low.status] <= strength[high.status]
    assert low.status == high.status == CERTIFIED


def test_fujiwara_rank_validation(boolean_groups):
    with pytest.raises(CertificateError):
        certify_fujiwara(boolean_groups, [], 1)


def test_certified_report_is_recheckable(boolean_groups):
    # rebuild every profile pair with unequal counts and confirm non-isomorphism
    report = certify_fujiwara(boolean_groups, [], 2)
    assert report.status == CERTIFIED
    frees = {}
    for ev in report.profiles:
        prof = GeneratorProfile.from_counts(boolean_groups.sig, {"elem": ev.counts[0]})
        frees[ev.counts] = build_free_algebra(boolean_groups, prof)
    for a, b in itertools.combinations(frees, 2):
        if a != b:
            assert find_isomorphism(frees[a].algebra, frees[b].algebra) is None


def test_per_sort_one_sorted_matches_fujiwara(boolean_groups):
    fuji = certify_fujiwara(boolean_groups, [], 3)
    per = certify_per_sort(boolean_groups, {"elem": PerSortWitness((), 3)})
    assert per.status == fuji.status == CERTIFIED
    assert {tuple(p.counts) for p in per.profiles} == {tuple(p.counts) for p in fuji.profiles}


def test_per_sort_semigroup_actions():
    # general semigroup actions: left-zero witness for the semigroup sort,
    # trivial action witness for the set sort
    actions = make_variety(
        ["s", "el"],
        [("mul", ["s", "s"], "s"), ("act", ["s", "el"], "el")],
        "semigroup-actions",
        [
            ([("x", "s"), ("y", "s"), ("z", "s")], "(mul (mul x y) z)", "(mul x (mul y z))"),
            ([("x", "s"), ("y", "s"), ("u", "el")], "(act (mul x y) u)", "(act x (act y u))"),
        ],
    )
    lz = make_axioms(actions.sig, [([("x", "s"), ("y", "s")], "(mul x y)", "x")])
    trivial = make_axioms(actions.sig, [([("x", "s"), ("u", "el")], "(act x u)", "u")])
    report = certify_per_sort(
        actions, {"s": PerSortWitness(tuple(lz), 2), "el": PerSortWitness(tuple(trivial), 2)}
    )
    assert report.status == CERTIFIED
    assert report.rank == 2
    assert report.nondegeneracy == {"s": "nondegenerate", "el": "nondegenerate"}
    # each sort's sweep compares every pair on its own axis, and only those
    pairs = [(c.left, c.right) for c in report.iso_checks]
    assert pairs == [
        ((0, 0), (1, 0)),
        ((0, 0), (2, 0)),
        ((1, 0), (2, 0)),
        ((0, 0), (0, 1)),
        ((0, 0), (0, 2)),
        ((0, 1), (0, 2)),
    ]


def test_per_sort_missing_witness(graphs_variety):
    with pytest.raises(CertificateError):
        certify_per_sort(graphs_variety, {"edge": PerSortWitness((), 2)})


def test_action_split_corpus_certificates():
    for name in ("semigroup-actions-trivial", "group-reps-trivial-f2", "lie-reps-null-f2"):
        v, cert = load_entry(name)
        report = certify_action_split(v, cert)
        assert report.status == CERTIFIED_CONDITIONAL, (name, report.detail)
        assert report.rank == 3
        assert len(report.assumptions) == 2


def test_action_split_requires_action_shape(boolean_groups):
    v, cert = load_entry("semigroup-actions-trivial")
    with pytest.raises(CertificateError):
        certify_action_split(boolean_groups, cert)


def test_action_split_uncovered_sort1_axiom():
    # a witness that forgets associativity cannot cover the variety's
    # sort-1-pure axioms; the consequence check cannot confirm it either
    v, cert = load_entry("group-reps-trivial-f2")
    bad = ActionSplitCert(
        s_var=cert.s_var,
        s_term=cert.s_term,
        sort1_axioms=cert.sort1_axioms[-1:],  # only the exponent axiom
        sort1_rank=2,
        sort2_axioms=cert.sort2_axioms,
        sort2_rank=2,
        sample_h1=None,
    )
    report = certify_action_split(v, bad, Budget(max_classes=400, max_rounds=5))
    assert report.status == UNKNOWN
    assert "sort-1 witness" in report.detail


def test_action_split_unconfirmed_sort2_axiom():
    # an axiom that is not a consequence of the trivial-action extension
    v, cert = load_entry("semigroup-actions-trivial")
    split = classify_action_signature(v.sig)
    sub2, _ = restrict_to_part(v.sig, split, 2)
    fake = make_axioms(sub2, [([("u", "el"), ("w", "el")], "u", "w")])
    bad = ActionSplitCert(
        s_var=cert.s_var,
        s_term=cert.s_term,
        sort1_axioms=cert.sort1_axioms,
        sort1_rank=2,
        sort2_axioms=tuple(fake),
        sort2_rank=2,
        sample_h1=None,
    )
    report = certify_action_split(v, bad)
    assert report.status == UNKNOWN
    assert "second-sort axiom" in report.detail


def test_run_certificate_rank_cap(boolean_groups):
    from freealg.certify import FujiwaraCert

    cert = FujiwaraCert(extra_axioms=(), rank=3)
    report = run_certificate(boolean_groups, cert, rank_cap=2)
    assert report.rank == 2
    assert report.status == CERTIFIED


def test_degenerate_variety_never_certifies():
    v = make_variety(
        ["elem"],
        [("mul", ["elem", "elem"], "elem")],
        "collapse",
        [([("x1", "elem"), ("x2", "elem")], "x1", "x2")],
    )
    assert certify_empty_theory(v).status == NOT_APPLICABLE
    assert certify_fujiwara(v, [], 2).status == UNKNOWN
    assert certify_per_sort(v, {"elem": PerSortWitness((), 2)}).status == UNKNOWN
    with pytest.raises(CertificateError):
        certify_action_split(v, None)


def test_refuted_evidence_shape(boolean_groups):
    # the refuted payload embeds a serialized isomorphism between the
    # profiles; exercise the constructor and its JSON form directly since
    # honest routes never reach it
    from conftest import cyclic_group

    z2a = cyclic_group(boolean_groups.sig, 2)
    z2b = cyclic_group(boolean_groups.sig, 2)
    iso = find_isomorphism(z2a, z2b)
    ev = RefutedEvidence((1,), (2,), iso.to_json_dict())
    data = ev.to_json_dict()
    assert data["left"] == [1] and data["right"] == [2]
    assert data["isomorphism"] == {"elem": [0, 1]}


def test_sweep_stops_at_the_first_isomorphism(boolean_groups, monkeypatch):
    # no honest route finds an isomorphism between free algebras on
    # different profiles; a search that always answers reaches the branch
    monkeypatch.setattr(
        "freealg.certify.find_isomorphism", lambda a, b: MorphismTable.identity(a)
    )
    report = certify_fujiwara(boolean_groups, [], 2)
    assert report.status == REFUTED
    assert (report.refuted.left, report.refuted.right) == ((0,), (1,))
    assert [(c.left, c.right, c.isomorphic) for c in report.iso_checks] == [((0,), (1,), True)]
    data = report.to_json_dict()["refuted"]
    assert data["left"] == [0] and data["right"] == [1]
    assert "isomorphism" in data


def test_report_json_shape(boolean_groups):
    report = certify_fujiwara(boolean_groups, [], 2)
    data = report.to_json_dict()
    for key in ("status", "rank", "sorts", "profiles", "iso_matrix", "assumptions"):
        assert key in data
    assert data["status"] == "certified"
    assert all(set(c) == {"left", "right", "isomorphic"} for c in data["iso_matrix"])
