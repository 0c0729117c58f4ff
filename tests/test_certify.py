import gc
import itertools
from dataclasses import replace

import pytest

from conftest import GROUP_AXIOMS, GROUP_OPS, make_algebra, make_axioms, make_variety
from freealg.certify import (
    CERTIFIED,
    CERTIFIED_CONDITIONAL,
    NOT_APPLICABLE,
    REFUTED,
    UNKNOWN,
    ActionSplitCert,
    CertificateError,
    FujiwaraCert,
    RefutedEvidence,
    certify_action_split,
    certify_empty_theory,
    certify_fujiwara,
    certify_per_sort,
    classify_action_signature,
    restrict_to_part,
    run_certificate,
)
from freealg import certify
from freealg.corpus import ENTRIES, load_entry
from freealg.egraph import Budget, build_free_algebra
from freealg.finalg import find_isomorphism
from freealg.terms import GeneratorProfile, SortedVar, arena_of
from functor import identity_morphism


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
    assert all(not c.isomorphic for c in report.iso_matrix)


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
    assert report.profiles == () and report.iso_matrix == ()


def test_fujiwara_sweep_build_budget_unknown(boolean_groups):
    # the witness is nondegenerate within the budget, but its free algebra
    # on three generators is not; the sweep stops there, before any iso check
    report = certify_fujiwara(boolean_groups, [], 3, Budget(max_classes=100))
    assert report.status == UNKNOWN
    assert report.nondegeneracy == {"elem": "nondegenerate"}
    assert [p.counts for p in report.profiles] == [(0,), (1,), (2,), (3,)]
    assert report.profiles[-1].status == "budget"
    assert report.profiles[-1].sizes is None
    assert report.iso_matrix == ()


def test_fujiwara_rank_monotone(boolean_groups):
    strength = {CERTIFIED: 2, CERTIFIED_CONDITIONAL: 2, UNKNOWN: 1, NOT_APPLICABLE: 1, "refuted": 0}
    low = certify_fujiwara(boolean_groups, [], 2)
    high = certify_fujiwara(boolean_groups, [], 3)
    assert strength[low.status] <= strength[high.status]
    assert low.status == high.status == CERTIFIED


def test_fujiwara_rank_validation(boolean_groups):
    with pytest.raises(CertificateError):
        certify_fujiwara(boolean_groups, [], 1)


def test_per_sort_rank_validation(graphs_variety):
    witnesses = {"edge": FujiwaraCert((), 2), "vertex": FujiwaraCert((), 1)}
    with pytest.raises(CertificateError, match="rank >= 2"):
        certify_per_sort(graphs_variety, witnesses)


@pytest.mark.parametrize("field", ["sort1_rank", "sort2_rank"])
def test_action_split_rank_validation(field):
    v, cert = load_entry("semigroup-actions-trivial")
    with pytest.raises(CertificateError, match="rank >= 2"):
        certify_action_split(v, replace(cert, **{field: 1}))


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
    per = certify_per_sort(boolean_groups, {"elem": FujiwaraCert((), 3)})
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
        actions, {"s": FujiwaraCert(tuple(lz), 2), "el": FujiwaraCert(tuple(trivial), 2)}
    )
    assert report.status == CERTIFIED
    assert report.rank == 2
    assert report.nondegeneracy == {"s": "nondegenerate", "el": "nondegenerate"}
    # each sort's sweep compares every pair on its own axis, and only those
    pairs = [(c.left, c.right) for c in report.iso_matrix]
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
        certify_per_sort(graphs_variety, {"edge": FujiwaraCert((), 2)})


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
    sub2 = restrict_to_part(v.sig, split, 2)
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


def test_action_split_rejects_a_malformed_action_term_before_saturating(captured_states):
    # the action term must have the single sort (id 0) of the second part;
    # a term of sort id 1 in the full signature is refused before any
    # saturation runs
    v, cert = load_entry("semigroup-actions-trivial")
    u = arena_of(v.sig).var(SortedVar("u", 1))
    assert u.sort == 1
    with pytest.raises(CertificateError, match="second sort"):
        certify_action_split(v, replace(cert, s_term=u))
    assert captured_states == []


def test_action_split_rejects_a_stray_action_variable_before_saturating(captured_states):
    # the action term may read only its one declared variable; a second-sort
    # term in another variable is refused before any saturation runs
    v, cert = load_entry("semigroup-actions-trivial")
    sub2 = restrict_to_part(v.sig, classify_action_signature(v.sig), 2)
    stray = arena_of(sub2).var(SortedVar("q", 0))
    assert cert.s_var != stray.var
    with pytest.raises(CertificateError, match="only its variable 'w'"):
        certify_action_split(v, replace(cert, s_term=stray))
    assert captured_states == []


def test_action_split_sort2_sweep_budget_unknown():
    # the sort-1 leg and the consequence checks finish within the budget,
    # but the second-sort free algebra on four generators does not; the
    # sweep reports that trip, and the assembly check never runs
    v, cert = load_entry("group-reps-trivial-f2")
    report = certify_action_split(
        v, replace(cert, sort1_rank=2, sort2_rank=4), Budget(max_classes=80)
    )
    assert report.status == UNKNOWN
    assert report.nondegeneracy == {"g": "nondegenerate", "v": "nondegenerate"}
    assert [p.counts for p in report.profiles] == [(0,), (1,), (2,), (0,), (1,), (2,), (3,), (4,)]
    assert report.profiles[-1].status == "budget"
    assert "#sort2" in report.detail and "did not saturate" in report.detail
    assert report.assumptions == ()


def test_run_certificate_rank_cap(boolean_groups):
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
    assert certify_per_sort(v, {"elem": FujiwaraCert((), 2)}).status == UNKNOWN
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
        "freealg.certify.find_isomorphism", lambda a, b: identity_morphism(a)
    )
    report = certify_fujiwara(boolean_groups, [], 2)
    assert report.status == REFUTED
    assert (report.refuted.left, report.refuted.right) == ((0,), (1,))
    assert [(c.left, c.right, c.isomorphic) for c in report.iso_matrix] == [((0,), (1,), True)]
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


@pytest.mark.parametrize("name, states", [("elem-abelian-3", 3), ("lie-reps-null-f2", 13)])
def test_each_free_algebra_is_built_once_per_certificate(name, states, captured_states):
    # elem-abelian-3 (rank 2): one nondegeneracy run on (2,), whose algebra
    # the sweep takes, and builds of (0,) and (1,); lie-reps-null-f2: each
    # of its two witnesses' sweeps takes the algebra of its nondegeneracy run
    v, cert = load_entry(name)
    assert run_certificate(v, cert).certified
    made = [state.profile.counts() for state in captured_states]
    assert len(made) == states
    if name == "elem-abelian-3":
        assert made == [(2,), (0,), (1,)]


def test_nondegeneracy_runs_return_the_sweeps_build(monkeypatch):
    runs = []
    check = certify.nondegeneracy_check

    def recording(variety, sort, budget):
        report = check(variety, sort, budget)
        runs.append((variety, sort, budget, report))
        return report

    monkeypatch.setattr(certify, "nondegeneracy_check", recording)
    for name in ENTRIES:
        v, cert = load_entry(name)
        assert run_certificate(v, cert).certified
    assert len(runs) == 13  # every witness of every bundled certificate
    for variety, sort, budget, report in runs:
        got = report.build
        assert got is not None
        counts = [0] * len(variety.sig.sorts)
        counts[sort] = 2
        assert got.profile.counts() == tuple(counts)
        fresh = build_free_algebra(variety, got.profile, budget)
        assert got.algebra.sizes == fresh.algebra.sizes
        assert got.algebra.tables == fresh.algebra.tables
        assert got.gen_images == fresh.gen_images
        assert got.reps == fresh.reps
        assert got.stats == fresh.stats


def _swept(rank):
    """The profile evidence and iso checks of one clean one-sorted sweep."""
    profiles = [{"counts": [n], "sizes": [n], "status": "ok", "detail": ""} for n in range(rank + 1)]
    checks = [
        {"left": [p], "right": [q], "isomorphic": False}
        for p, q in itertools.combinations(range(rank + 1), 2)
    ]
    return profiles, checks


def _report_json(variety, sorts, rank, detail, route="action-split", status=UNKNOWN, **fields):
    return {
        "status": status,
        "rank": rank,
        "variety": variety,
        "route": route,
        "sorts": sorts,
        "nondegeneracy": {},
        "profiles": [],
        "iso_matrix": [],
        "assumptions": [],
        "refuted": None,
        "detail": detail,
        **fields,
    }


def test_failure_reports_are_pinned():
    # the whole report of each way a certificate can fail short of a budget,
    # character for character
    v, cert = load_entry("group-reps-trivial-f2")
    bad = replace(cert, sort1_axioms=cert.sort1_axioms[-1:], sort1_rank=2, sort2_rank=2)
    uncovered = certify_action_split(v, bad, Budget(max_classes=400, max_rounds=5))
    assert uncovered.to_json_dict() == _report_json(
        "group-reps-trivial-f2",
        ["g", "v"],
        2,
        "sort-1 witness does not cover the axiom (= (mul (mul x y) z) (mul x (mul y z))) "
        "(consequence check: unknown)",
    )

    v, cert = load_entry("semigroup-actions-trivial")
    split = classify_action_signature(v.sig)
    fake = make_axioms(restrict_to_part(v.sig, split, 2), [([("u", "el"), ("w", "el")], "u", "w")])
    bad = replace(cert, sort1_rank=2, sort2_axioms=tuple(fake), sort2_rank=2)
    unconfirmed = certify_action_split(v, bad)
    profiles, checks = _swept(2)
    assert unconfirmed.to_json_dict() == _report_json(
        "semigroup-actions-trivial",
        ["s", "el"],
        2,
        "second-sort axiom (= u w) is not a confirmed consequence of the trivial-action "
        "extension (consequence check: no)",
        nondegeneracy={"s": "nondegenerate"},
        profiles=profiles,
        iso_matrix=checks,
    )

    # (x y) z = x but x (y z) = 1 - x: the assembled algebra is not a semigroup
    sub1 = restrict_to_part(v.sig, split, 1)
    h1 = make_algebra(sub1, {"s": 2}, {"mul": lambda x, y: 1 - x})
    violated = certify_action_split(v, replace(cert, sample_h1=h1))
    profiles, checks = _swept(3)
    assert violated.to_json_dict() == _report_json(
        "semigroup-actions-trivial",
        ["s", "el"],
        3,
        "assembled trivial-action algebra violates the extension: "
        "(= (mul (mul x y) z) (mul x (mul y z))) fails at [x=0, y=0, z=0]: 0 != 1",
        nondegeneracy={"s": "nondegenerate", "el": "nondegenerate"},
        profiles=profiles * 2,
        iso_matrix=checks * 2,
    )

    semigroups = make_variety(
        ["elem"],
        [("mul", ["elem", "elem"], "elem")],
        "semigroups",
        [([("x", "elem"), ("y", "elem"), ("z", "elem")], "(mul (mul x y) z)", "(mul x (mul y z))")],
    )
    assert certify_empty_theory(semigroups).to_json_dict() == _report_json(
        "semigroups",
        ["elem"],
        None,
        "the variety has axioms; this route applies to empty theories only",
        route="empty-theory",
        status=NOT_APPLICABLE,
    )


@pytest.mark.parametrize("name", list(ENTRIES))
def test_a_certificate_leaves_no_cyclic_garbage(name):
    # the saturations pause the cyclic collector, so what a certificate
    # makes around them must be freed by reference counting too
    v, cert = load_entry(name)
    gc.collect()
    gc.disable()
    try:
        report = run_certificate(v, cert)
        del report
        assert gc.collect() == 0
    finally:
        gc.enable()
