"""Rank-bounded invariant-basis-number certificates.

Four routes are checked:

* ``empty-theory``: a variety with no axioms; term algebras on profiles
  with different per-sort generator counts are never isomorphic, so the
  certificate is unconditional and unbounded.
* ``fujiwara``: extend the variety's axioms with extra ones and verify, up
  to the declared rank, that the extension is nondegenerate, its free
  algebras are all finite, and free algebras on different profiles are
  non-isomorphic.  The quotient functor then transports an isomorphism of
  the parent's free algebras down to the extension, so equal ranks follow.
* ``per-sort``: one fujiwara-style witness per sort, swept along that
  sort's axis of profiles.
* ``action-split``: the two-sorted route for signatures with a single
  cross-sort action.  The first sort is handled by a one-sorted witness
  covering the variety's sort-1-pure axioms; the second by the
  trivial-action subvariety, a declared one-sorted axiom set whose
  consequence status is machine-checked and whose completeness is recorded
  as an explicit assumption in the verdict.

All certification is bounded: the report always names the rank, and a
budget exhaustion is an Unknown status, never a refutation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

from .egraph import (
    Budget,
    BudgetExceeded,
    CONSEQUENCE_YES,
    DEGENERATE,
    NONDEGENERATE,
    VarietyDef,
    build_free_algebra,
    is_consequence,
    nondegeneracy_check,
)
from .finalg import (
    FiniteAlgebra,
    assemble_trivial_action,
    find_isomorphism,
    one_element_algebra,
    satisfies_all,
)
from .signature import NotActionSeparable, classify_action_signature, restrict_to_part
from .terms import (
    GeneratorProfile,
    Identity,
    SortedVar,
    Term,
    alpha_key,
    arena_of,
    is_sort1_pure,
    transport_identity,
)

CERTIFIED = "certified"
CERTIFIED_CONDITIONAL = "certified_conditional"
REFUTED = "refuted"
UNKNOWN = "unknown"
NOT_APPLICABLE = "not_applicable"

UNBOUNDED = "unbounded"


class CertificateError(Exception):
    """Malformed certificate (wrong route, missing parts, bad terms)."""


@dataclass(frozen=True)
class EmptyTheoryCert:
    route = "empty-theory"


@dataclass(frozen=True)
class FujiwaraCert:
    extra_axioms: tuple[Identity, ...]
    rank: int
    route = "fujiwara"


@dataclass(frozen=True)
class PerSortWitness:
    extra_axioms: tuple[Identity, ...]
    rank: int


@dataclass(frozen=True)
class PerSortCert:
    witnesses: dict  # sort name -> PerSortWitness
    route = "per-sort"


@dataclass(frozen=True)
class ActionSplitCert:
    s_var: SortedVar  # over the sort-2 sub-signature
    s_term: Term
    sort1_axioms: tuple[Identity, ...]  # over the sort-1 sub-signature
    sort1_rank: int
    sort2_axioms: tuple[Identity, ...]  # over the sort-2 sub-signature
    sort2_rank: int
    sample_h1: FiniteAlgebra | None = None
    route = "action-split"


@dataclass
class ProfileEvidence:
    counts: tuple[int, ...]
    sizes: tuple[int, ...] | None
    status: str  # 'ok' or 'budget'
    detail: str = ""

    def to_json_dict(self) -> dict:
        return {
            "counts": list(self.counts),
            "sizes": None if self.sizes is None else list(self.sizes),
            "status": self.status,
            "detail": self.detail,
        }


@dataclass
class IsoCheck:
    left: tuple[int, ...]
    right: tuple[int, ...]
    isomorphic: bool

    def to_json_dict(self) -> dict:
        return {"left": list(self.left), "right": list(self.right), "isomorphic": self.isomorphic}


@dataclass
class RefutedEvidence:
    left: tuple[int, ...]
    right: tuple[int, ...]
    morphism_json: dict

    def to_json_dict(self) -> dict:
        return {"left": list(self.left), "right": list(self.right), "isomorphism": self.morphism_json}


@dataclass
class CertReport:
    status: str
    rank: object  # int, or the string 'unbounded'
    variety: str
    route: str
    sorts: tuple[str, ...]
    nondegeneracy: dict = field(default_factory=dict)
    profiles: tuple[ProfileEvidence, ...] = ()
    iso_checks: tuple[IsoCheck, ...] = ()
    assumptions: tuple[str, ...] = ()
    refuted: RefutedEvidence | None = None
    detail: str = ""

    @property
    def certified(self) -> bool:
        return self.status in (CERTIFIED, CERTIFIED_CONDITIONAL)

    def to_json_dict(self) -> dict:
        return {
            "status": self.status,
            "rank": self.rank,
            "variety": self.variety,
            "route": self.route,
            "sorts": list(self.sorts),
            "nondegeneracy": dict(self.nondegeneracy),
            "profiles": [p.to_json_dict() for p in self.profiles],
            "iso_matrix": [c.to_json_dict() for c in self.iso_checks],
            "assumptions": list(self.assumptions),
            "refuted": None if self.refuted is None else self.refuted.to_json_dict(),
            "detail": self.detail,
        }


def _axis_profiles(nsorts: int, sort: int, rank: int):
    for n in range(rank + 1):
        counts = [0] * nsorts
        counts[sort] = n
        yield tuple(counts)


def _grid_profiles(nsorts: int, rank: int):
    yield from itertools.product(range(rank + 1), repeat=nsorts)


def _settle(report: CertReport, status: str, detail: str) -> bool:
    report.status = status
    report.detail = detail
    return False


def _sweep(report: CertReport, variety: VarietyDef, profiles, check_sorts, budget: Budget) -> bool:
    """Nondegeneracy plus builds plus pairwise non-isomorphism evidence,
    written into the report; False once that evidence settles its verdict."""
    for s in check_sorts:
        nondeg = nondegeneracy_check(variety, s, budget)
        report.nondegeneracy[variety.sig.sorts[s].name] = nondeg.verdict
        if nondeg.verdict == DEGENERATE:
            return _settle(
                report, UNKNOWN, f"witness '{variety.name}' is degenerate: {nondeg.detail}"
            )
        if nondeg.verdict != NONDEGENERATE:
            return _settle(
                report, UNKNOWN, f"nondegeneracy of '{variety.name}' undecided: {nondeg.detail}"
            )
    sig = variety.sig
    builds: dict[tuple[int, ...], FiniteAlgebra] = {}
    for counts in profiles:
        prof = GeneratorProfile.from_counts(
            sig, {s.name: c for s, c in zip(sig.sorts, counts)}
        )
        res = build_free_algebra(variety, prof, budget)
        if isinstance(res, BudgetExceeded):
            report.profiles += (
                ProfileEvidence(counts, None, "budget", f"{res.limit} limit at round {res.rounds}"),
            )
            return _settle(
                report,
                UNKNOWN,
                f"free algebra of '{variety.name}' on [{counts}] did not saturate "
                f"({res.limit} limit)",
            )
        builds[counts] = res.algebra
        report.profiles += (ProfileEvidence(counts, res.algebra.sizes, "ok"),)
    for p, q in itertools.combinations(builds, 2):
        iso = find_isomorphism(builds[p], builds[q])
        report.iso_checks += (IsoCheck(p, q, iso is not None),)
        if iso is not None:
            assert iso.is_homomorphism() and iso.is_bijective()
            report.refuted = RefutedEvidence(p, q, iso.to_json_dict())
            return _settle(
                report,
                REFUTED,
                f"free algebras of '{variety.name}' on [{p}] and [{q}] are isomorphic",
            )
    return True


def certify_empty_theory(v: VarietyDef) -> CertReport:
    sorts = tuple(s.name for s in v.sig.sorts)
    if v.axioms:
        return CertReport(
            status=NOT_APPLICABLE,
            rank=None,
            variety=v.name,
            route="empty-theory",
            sorts=sorts,
            detail="the variety has axioms; this route applies to empty theories only",
        )
    return CertReport(
        status=CERTIFIED,
        rank=UNBOUNDED,
        variety=v.name,
        route="empty-theory",
        sorts=sorts,
        detail=(
            "term algebras are free for the empty theory and the term-length "
            "argument forces per-sort generator counts to agree under isomorphism"
        ),
    )


def certify_fujiwara(
    v: VarietyDef, extra_axioms, rank: int, budget: Budget | None = None
) -> CertReport:
    if rank < 2:
        raise CertificateError("fujiwara certificates need rank >= 2")
    budget = budget or Budget()
    delta = v.extended(extra_axioms, f"{v.name}#witness")
    report = CertReport(
        status=CERTIFIED,
        rank=rank,
        variety=v.name,
        route="fujiwara",
        sorts=tuple(s.name for s in v.sig.sorts),
        detail=(
            "the witness extension is nondegenerate with finite, pairwise "
            "non-isomorphic free algebras up to the rank; the quotient functor "
            "transports any isomorphism of the parent's free algebras to it"
        ),
    )
    _sweep(report, delta, _grid_profiles(len(v.sig.sorts), rank), range(len(v.sig.sorts)), budget)
    return report


def certify_per_sort(v: VarietyDef, witnesses: dict, budget: Budget | None = None) -> CertReport:
    """One witness extension per sort, swept along that sort's profile axis."""
    budget = budget or Budget()
    sig = v.sig
    resolved: dict[int, PerSortWitness] = {}
    for key, w in witnesses.items():
        sort = key if isinstance(key, int) else sig.sort_named(key).id
        resolved[sort] = w
    missing = [s.name for s in sig.sorts if s.id not in resolved]
    if missing:
        raise CertificateError(f"missing per-sort witness for sort(s): {', '.join(missing)}")
    for w in resolved.values():
        if w.rank < 2:
            raise CertificateError("per-sort certificates need rank >= 2")
    report = CertReport(
        status=CERTIFIED,
        rank=min(w.rank for w in resolved.values()),
        variety=v.name,
        route="per-sort",
        sorts=tuple(s.name for s in sig.sorts),
        detail=(
            "per-sort witness extensions distinguish generator counts at their "
            "sort; the quotient functor composes the per-sort evidence"
        ),
    )
    for s in sig.sorts:
        w = resolved[s.id]
        delta = v.extended(w.extra_axioms, f"{v.name}#{s.name}")
        if not _sweep(report, delta, _axis_profiles(len(sig.sorts), s.id, w.rank), [s.id], budget):
            break
    return report


def _covered_by(ax: Identity, axioms, variety: VarietyDef, budget: Budget) -> str:
    """Whether an identity appears among axioms (up to renaming) or is a
    bounded-saturation consequence of the variety."""
    key = alpha_key(ax)
    if any(alpha_key(b) == key for b in axioms):
        return CONSEQUENCE_YES
    return is_consequence(variety, ax, budget)


def certify_action_split(
    v: VarietyDef, cert: ActionSplitCert, budget: Budget | None = None
) -> CertReport:
    budget = budget or Budget()
    split = classify_action_signature(v.sig)
    if isinstance(split, NotActionSeparable):
        raise CertificateError(f"signature is not action-separated: {split.reason}")
    if cert.sort1_rank < 2 or cert.sort2_rank < 2:
        raise CertificateError("action-split certificates need rank >= 2")
    sig = v.sig
    sub1, _ = restrict_to_part(sig, split, 1)
    sub2, _ = restrict_to_part(sig, split, 2)
    sort_names = tuple(s.name for s in sig.sorts)
    report = CertReport(
        status=CERTIFIED_CONDITIONAL,
        rank=min(cert.sort1_rank, cert.sort2_rank),
        variety=v.name,
        route="action-split",
        sorts=sort_names,
        detail=(
            "first sort via a one-sorted witness covering the sort-1-pure "
            "axioms; second sort via the trivial-action subvariety and the "
            "declared second-sort axiom set"
        ),
    )

    # sort-1 leg: the witness must cover every sort-1-pure axiom of v, so
    # that it is a subvariety of the variety's syntactic first-sort theory.
    witness1 = VarietyDef(sub1, f"{v.name}#sort1", tuple(cert.sort1_axioms))
    for ax in v.axioms:
        if not (is_sort1_pure(ax.lhs, split) and is_sort1_pure(ax.rhs, split)):
            continue
        sub_ax = transport_identity(ax, sub1)
        verdict = _covered_by(sub_ax, witness1.axioms, witness1, budget)
        if verdict != CONSEQUENCE_YES:
            report.status = UNKNOWN
            report.detail = (
                f"sort-1 witness does not cover the axiom {ax!r} "
                f"(consequence check: {verdict})"
            )
            return report
    if not _sweep(report, witness1, _axis_profiles(1, 0, cert.sort1_rank), [0], budget):
        return report

    # sort-2 leg: extend v with the trivial-action identity for the declared
    # term, then check every declared second-sort axiom is a consequence.
    s_term = cert.s_term
    if s_term.sort != 0:
        raise CertificateError("the action term must have the second sort")
    full_arena = arena_of(sig)
    used = {cert.s_var.name}
    g_name = next(f"a{i}" for i in itertools.count(1) if f"a{i}" not in used)
    g_var = SortedVar(g_name, split.sort1)
    x2_full = SortedVar(cert.s_var.name, split.sort2)
    lift_map = {cert.s_var: full_arena.var(x2_full)}

    def lift(t: Term) -> Term:
        if t.is_var():
            return lift_map[t.var]
        return full_arena.apply(sig.op_named(t.op.name), tuple(lift(c) for c in t.children))

    tr_profile = GeneratorProfile.of_vars(sig, [g_var, x2_full])
    tr_act = Identity(
        tr_profile,
        full_arena.apply(split.action, (full_arena.var(g_var), full_arena.var(x2_full))),
        lift(s_term),
    )
    delta_v = v.extended([tr_act], f"{v.name}#trivial-action")
    witness2 = VarietyDef(sub2, f"{v.name}#sort2", tuple(cert.sort2_axioms))
    for ax in witness2.axioms:
        lifted = transport_identity(ax, sig)
        verdict = _covered_by(lifted, delta_v.axioms, delta_v, budget)
        if verdict != CONSEQUENCE_YES:
            report.status = UNKNOWN
            report.detail = (
                f"second-sort axiom {ax!r} is not a confirmed consequence of the "
                f"trivial-action extension (consequence check: {verdict})"
            )
            return report

    # assembly: any model of the declared parts, glued with the trivial
    # action, must satisfy the whole trivial-action extension.
    h1 = cert.sample_h1
    if h1 is None:
        h1 = one_element_algebra(sub1)
    for n in range(cert.sort2_rank + 1):
        prof = GeneratorProfile.from_counts(sub2, {sub2.sorts[0].name: n})
        res = build_free_algebra(witness2, prof, budget)
        if isinstance(res, BudgetExceeded):
            report.status = UNKNOWN
            report.detail = (
                f"second-sort free algebra on {n} generators did not saturate"
            )
            return report
        assembled = assemble_trivial_action(sig, split, h1, res.algebra, cert.s_var, cert.s_term)
        verdict = satisfies_all(assembled, delta_v.axioms)
        if verdict is not True:
            report.status = UNKNOWN
            report.detail = (
                "assembled trivial-action algebra violates the extension: "
                + verdict.describe()
            )
            return report

    if not _sweep(report, witness2, _axis_profiles(1, 0, cert.sort2_rank), [0], budget):
        return report

    report.assumptions = (
        "the declared second-sort axioms axiomatize the second-sort theory of "
        "the trivial-action subvariety completely",
        "the sort-1-pure axioms axiomatize the variety's full first-sort theory",
    )
    return report


def run_certificate(v: VarietyDef, cert, budget: Budget | None = None, rank_cap: int | None = None) -> CertReport:
    """Dispatch a parsed certificate; rank_cap only ever lowers ranks."""

    def cap(r: int) -> int:
        return r if rank_cap is None else min(r, rank_cap)

    if isinstance(cert, EmptyTheoryCert):
        return certify_empty_theory(v)
    if isinstance(cert, FujiwaraCert):
        return certify_fujiwara(v, cert.extra_axioms, cap(cert.rank), budget)
    if isinstance(cert, PerSortCert):
        capped = {k: replace(w, rank=cap(w.rank)) for k, w in cert.witnesses.items()}
        return certify_per_sort(v, capped, budget)
    if isinstance(cert, ActionSplitCert):
        capped = replace(cert, sort1_rank=cap(cert.sort1_rank), sort2_rank=cap(cert.sort2_rank))
        return certify_action_split(v, capped, budget)
    raise CertificateError(f"unknown certificate type {type(cert).__name__}")
