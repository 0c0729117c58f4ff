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
* ``per-sort``: one fujiwara witness (a ``FujiwaraCert``) per sort, swept
  along that sort's axis of profiles, with the same appeal to the quotient
  functor.
* ``action-split``: the two-sorted route for signatures with a single
  cross-sort action.  The first sort is handled by a one-sorted witness
  covering the variety's sort-1-pure axioms; the second by the
  trivial-action subvariety, a declared one-sorted axiom set whose
  consequence status is machine-checked and whose completeness is recorded
  as an explicit assumption in the verdict.

The package does not run the quotient functor that the fujiwara and
per-sort routes appeal to.  ``tests/functor.py`` builds it, and the tests
(acceptance criterion 8 among them) check its laws over every morphism
between small free algebras.

All certification is bounded: the report always names the rank, and a
budget exhaustion is an Unknown status, never a refutation.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass, field, replace

from .egraph import (
    Budget,
    BudgetExceeded,
    CONSEQUENCE_YES,
    DEGENERATE,
    NONDEGENERATE,
    FreeAlgebraResult,
    VarietyDef,
    build_free_algebra,
    is_consequence,
    nondegeneracy_check,
)
from .finalg import (
    FiniteAlgebra,
    eval_term,
    find_isomorphism,
    one_element_algebra,
    satisfies_all,
)
from .report import Report
from .sexpr import InputError
from .signature import Op, Signature
from .terms import (
    GeneratorProfile,
    Identity,
    SortedVar,
    Term,
    alpha_key,
    arena_of,
    free_vars,
    transport_identity,
    transport_term,
)

CERTIFIED = "certified"
CERTIFIED_CONDITIONAL = "certified_conditional"
REFUTED = "refuted"
UNKNOWN = "unknown"
NOT_APPLICABLE = "not_applicable"

UNBOUNDED = "unbounded"


class CertificateError(InputError):
    """Malformed certificate (wrong route, missing parts, bad terms)."""


@dataclass(frozen=True)
class EmptyTheoryCert:
    """The empty-theory route takes no parameters."""


@dataclass(frozen=True)
class FujiwaraCert:
    extra_axioms: tuple[Identity, ...]
    rank: int


@dataclass(frozen=True)
class PerSortCert:
    witnesses: dict  # sort name -> FujiwaraCert


@dataclass(frozen=True)
class ActionSplitCert:
    s_var: SortedVar  # over the sort-2 sub-signature
    s_term: Term
    sort1_axioms: tuple[Identity, ...]  # over the sort-1 sub-signature
    sort1_rank: int
    sort2_axioms: tuple[Identity, ...]  # over the sort-2 sub-signature
    sort2_rank: int
    sample_h1: FiniteAlgebra | None = None


@dataclass
class ProfileEvidence(Report):
    counts: tuple[int, ...]
    sizes: tuple[int, ...] | None
    status: str  # 'ok' or 'budget'
    detail: str = ""


@dataclass
class IsoCheck(Report):
    left: tuple[int, ...]
    right: tuple[int, ...]
    isomorphic: bool


@dataclass
class RefutedEvidence(Report):
    left: tuple[int, ...]
    right: tuple[int, ...]
    isomorphism: dict  # sort name -> the image of each element


@dataclass
class CertReport(Report):
    status: str
    rank: object  # int, or the string 'unbounded'
    variety: str
    route: str
    sorts: tuple[str, ...]
    nondegeneracy: dict = field(default_factory=dict)
    profiles: tuple[ProfileEvidence, ...] = ()
    iso_matrix: tuple[IsoCheck, ...] = ()
    assumptions: tuple[str, ...] = ()
    refuted: RefutedEvidence | None = None
    detail: str = ""

    @property
    def certified(self) -> bool:
        return self.status in (CERTIFIED, CERTIFIED_CONDITIONAL)


def _axis_profiles(nsorts: int, sort: int, rank: int):
    for n in range(rank + 1):
        counts = [0] * nsorts
        counts[sort] = n
        yield tuple(counts)


def _grid_profiles(nsorts: int, rank: int):
    yield from itertools.product(range(rank + 1), repeat=nsorts)


def _report(v: VarietyDef, route: str, status: str, rank, detail: str) -> CertReport:
    """A report on ``v`` with no evidence yet."""
    return CertReport(
        status=status,
        rank=rank,
        variety=v.name,
        route=route,
        sorts=tuple(s.name for s in v.sig.sorts),
        detail=detail,
    )


def _settle(report: CertReport, status: str, detail: str) -> None:
    report.status = status
    report.detail = detail


def _sweep(
    report: CertReport, variety: VarietyDef, profiles, check_sorts, budget: Budget | None
) -> dict[tuple[int, ...], FiniteAlgebra] | None:
    """Nondegeneracy plus builds plus pairwise non-isomorphism evidence,
    written into the report.  Returns the free algebras it built, keyed by
    profile counts, or None once that evidence settles the verdict.

    Each nondegeneracy run saturates the free algebra on two generators of
    its sort, under the same budget, and that algebra is the sweep's on the
    same profile (see ``nondegeneracy_check``), so the sweep takes it
    instead of building it again.  Ranks are at least 2, so every one of
    these profiles is swept."""
    done: dict[tuple[int, ...], FreeAlgebraResult] = {}
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
        done[nondeg.build.profile.counts()] = nondeg.build
    sig = variety.sig
    builds: dict[tuple[int, ...], FiniteAlgebra] = {}
    for counts in profiles:
        res = done.get(counts)
        if res is None:
            res = build_free_algebra(variety, GeneratorProfile.of_counts(sig, counts), budget)
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
        report.iso_matrix += (IsoCheck(p, q, iso is not None),)
        if iso is not None:
            report.refuted = RefutedEvidence(p, q, iso.to_json_dict())
            return _settle(
                report,
                REFUTED,
                f"free algebras of '{variety.name}' on [{p}] and [{q}] are isomorphic",
            )
    return builds


def certify_empty_theory(v: VarietyDef) -> CertReport:
    if v.axioms:
        return _report(
            v,
            "empty-theory",
            NOT_APPLICABLE,
            None,
            "the variety has axioms; this route applies to empty theories only",
        )
    return _report(
        v,
        "empty-theory",
        CERTIFIED,
        UNBOUNDED,
        "term algebras are free for the empty theory and the term-length "
        "argument forces per-sort generator counts to agree under isomorphism",
    )


def certify_fujiwara(
    v: VarietyDef, extra_axioms, rank: int, budget: Budget | None = None
) -> CertReport:
    if rank < 2:
        raise CertificateError("fujiwara certificates need rank >= 2")
    delta = v.extended(extra_axioms, f"{v.name}#witness")
    report = _report(
        v,
        "fujiwara",
        CERTIFIED,
        rank,
        "the witness extension is nondegenerate with finite, pairwise "
        "non-isomorphic free algebras up to the rank; the quotient functor "
        "transports any isomorphism of the parent's free algebras to it",
    )
    _sweep(report, delta, _grid_profiles(len(v.sig.sorts), rank), range(len(v.sig.sorts)), budget)
    return report


def certify_per_sort(v: VarietyDef, witnesses: dict, budget: Budget | None = None) -> CertReport:
    """One witness extension per sort, swept along that sort's profile axis."""
    sig = v.sig
    resolved = {sig.sort_named(name).id: w for name, w in witnesses.items()}
    missing = [s.name for s in sig.sorts if s.id not in resolved]
    if missing:
        raise CertificateError(f"missing per-sort witness for sort(s): {', '.join(missing)}")
    for w in resolved.values():
        if w.rank < 2:
            raise CertificateError("per-sort certificates need rank >= 2")
    report = _report(
        v,
        "per-sort",
        CERTIFIED,
        min(w.rank for w in resolved.values()),
        "per-sort witness extensions distinguish generator counts at their "
        "sort; the quotient functor composes the per-sort evidence",
    )
    for s in sig.sorts:
        w = resolved[s.id]
        delta = v.extended(w.extra_axioms, f"{v.name}#{s.name}")
        if _sweep(report, delta, _axis_profiles(len(sig.sorts), s.id, w.rank), [s.id], budget) is None:
            break
    return report


@dataclass(frozen=True)
class ActionSplit:
    """Two-sorted split: ops confined to one sort each plus a single action.

    The action has type (sort1, sort2; sort2); ops1/ops2/{action} partition
    the signature's operations.  So no first-sort op reads the second sort,
    and a term is sort-1-pure (uses only first-sort ops and variables)
    exactly when it has the first sort.
    """

    sort1: int
    sort2: int
    ops1: tuple[Op, ...]
    ops2: tuple[Op, ...]
    action: Op


def _not_separated(reason: str) -> CertificateError:
    return CertificateError(f"signature is not action-separated: {reason}")


def classify_action_signature(sig: Signature) -> ActionSplit:
    """Recognize the action-separated shape, deterministically; any other
    shape is a ``CertificateError`` that says why."""
    if len(sig.sorts) != 2:
        raise _not_separated(f"signature has {len(sig.sorts)} sorts, need exactly 2")
    single: dict[int, list[Op]] = {0: [], 1: []}
    cross: list[Op] = []
    for op in sig.ops:
        used = set(op.arg_sorts) | {op.result_sort}
        if len(used) == 1:
            single[used.pop()].append(op)
        else:
            cross.append(op)
    if not cross:
        raise _not_separated("no operation mixes the two sorts (no action)")
    if len(cross) > 1:
        raise _not_separated(f"operation '{cross[1].name}' is a second cross-sort operation")
    act = cross[0]
    if len(act.arg_sorts) != 2:
        raise _not_separated(f"cross-sort operation '{act.name}' is not binary")
    s1, s2 = act.arg_sorts
    if s1 == s2 or act.result_sort != s2:
        raise _not_separated(f"operation '{act.name}' does not have action type (1,2;2)")
    return ActionSplit(s1, s2, tuple(single[s1]), tuple(single[s2]), act)


_RESTRICTIONS: "weakref.WeakKeyDictionary[Signature, dict]" = weakref.WeakKeyDictionary()


def restrict_to_part(sig: Signature, split: ActionSplit, part: int) -> Signature:
    """One-sorted signature for one side of a split.

    Memoized per parent signature, so that the certificate parser and the
    route share one part-signature object: the witness axioms, the action
    term and a sample algebra are parsed over it, and the route builds its
    witness varieties and algebras over it.
    """
    cache = _RESTRICTIONS.setdefault(sig, {})
    key = (split.sort1, split.sort2, part)
    if key in cache:
        return cache[key]
    sort, ops = (split.sort1, split.ops1) if part == 1 else (split.sort2, split.ops2)
    name = sig.sorts[sort].name
    sub = Signature.make([name], [(o.name, [name] * o.arity, name) for o in ops])
    cache[key] = sub
    return sub


def assemble_trivial_action(
    full_sig: Signature,
    split: ActionSplit,
    h1: FiniteAlgebra,
    h2: FiniteAlgebra,
    s_var: SortedVar,
    s_term: Term,
) -> FiniteAlgebra:
    """Combine one-sorted algebras for the two parts with the action
    h1 o h2 = s(h2); the result is an algebra of the full signature.
    ``s_term`` is a second-part term in ``s_var`` alone, as
    ``certify_action_split`` checks before it saturates anything."""
    sizes = [0, 0]
    sizes[split.sort1] = h1.sizes[0]
    sizes[split.sort2] = h2.sizes[0]
    tables: dict[int, dict[tuple, int]] = {}
    for ops, side in ((split.ops1, h1), (split.ops2, h2)):
        for op in ops:
            sub_op = side.sig.op_named(op.name)
            tables[op.id] = dict(side.tables[sub_op.id])
    act_table: dict[tuple, int] = {}
    for j in range(h2.sizes[0]):
        val = eval_term(h2, s_term, {s_var: j})
        for i in range(h1.sizes[0]):
            act_table[(i, j)] = val
    tables[split.action.id] = act_table
    return FiniteAlgebra(full_sig, tuple(sizes), tables)


def _covers(
    report: CertReport, variety: VarietyDef, identities, budget: Budget | None, message: str
) -> bool:
    """Whether each identity, moved into the variety's signature, appears
    among its axioms (up to renaming) or is a bounded-saturation consequence
    of it.  The first one that is neither settles the report as unknown:
    the detail is ``message`` formatted with that identity, followed by the
    consequence verdict."""
    keys = {alpha_key(b) for b in variety.axioms}
    for ax in identities:
        moved = transport_identity(ax, variety.sig)
        if alpha_key(moved) in keys:
            continue
        verdict = is_consequence(variety, moved, budget)
        if verdict != CONSEQUENCE_YES:
            _settle(report, UNKNOWN, f"{message.format(ax)} (consequence check: {verdict})")
            return False
    return True


def certify_action_split(
    v: VarietyDef, cert: ActionSplitCert, budget: Budget | None = None
) -> CertReport:
    split = classify_action_signature(v.sig)
    if cert.sort1_rank < 2 or cert.sort2_rank < 2:
        raise CertificateError("action-split certificates need rank >= 2")
    if cert.s_term.sort != 0:
        raise CertificateError("the action term must have the second sort")
    if any(x != cert.s_var for x in free_vars(cert.s_term)):
        raise CertificateError(f"the action term may read only its variable '{cert.s_var.name}'")
    sig = v.sig
    sub1 = restrict_to_part(sig, split, 1)
    sub2 = restrict_to_part(sig, split, 2)
    report = _report(
        v,
        "action-split",
        CERTIFIED_CONDITIONAL,
        min(cert.sort1_rank, cert.sort2_rank),
        "first sort via a one-sorted witness covering the sort-1-pure "
        "axioms; second sort via the trivial-action subvariety and the "
        "declared second-sort axiom set",
    )

    # sort-1 leg: the witness must cover every sort-1-pure axiom of v, so
    # that it is a subvariety of the variety's syntactic first-sort theory.
    # Such an axiom reads no second-sort variable, and is taken without the
    # ones it declares: dropping an unused variable only strengthens it.
    witness1 = VarietyDef(sub1, f"{v.name}#sort1", tuple(cert.sort1_axioms))
    pure = (
        Identity(GeneratorProfile.of_vars(sig, ax.vars.by_sort[split.sort1]), ax.lhs, ax.rhs)
        for ax in v.axioms
        if ax.lhs.sort == split.sort1
    )
    if not _covers(report, witness1, pure, budget, "sort-1 witness does not cover the axiom {!r}"):
        return report
    if _sweep(report, witness1, _axis_profiles(1, 0, cert.sort1_rank), [0], budget) is None:
        return report

    # sort-2 leg: extend v with the trivial-action identity for the declared
    # term, then check every declared second-sort axiom is a consequence.
    arena = arena_of(sig)
    g_var = SortedVar("a2" if cert.s_var.name == "a1" else "a1", split.sort1)
    x2 = SortedVar(cert.s_var.name, split.sort2)
    tr_act = Identity(
        GeneratorProfile.of_vars(sig, [g_var, x2]),
        arena.apply(split.action, (arena.var(g_var), arena.var(x2))),
        transport_term(cert.s_term, sub2, sig),
    )
    delta_v = v.extended([tr_act], f"{v.name}#trivial-action")
    witness2 = VarietyDef(sub2, f"{v.name}#sort2", tuple(cert.sort2_axioms))
    if not _covers(
        report,
        delta_v,
        witness2.axioms,
        budget,
        "second-sort axiom {!r} is not a confirmed consequence of the trivial-action extension",
    ):
        return report
    builds = _sweep(report, witness2, _axis_profiles(1, 0, cert.sort2_rank), [0], budget)
    if builds is None:
        return report

    # assembly: any model of the declared parts, glued with the trivial
    # action, must satisfy the whole trivial-action extension.
    h1 = cert.sample_h1
    if h1 is None:
        h1 = one_element_algebra(sub1)
    for h2 in builds.values():
        assembled = assemble_trivial_action(sig, split, h1, h2, cert.s_var, cert.s_term)
        verdict = satisfies_all(assembled, delta_v.axioms)
        if verdict is not True:
            _settle(
                report,
                UNKNOWN,
                "assembled trivial-action algebra violates the extension: "
                + verdict.describe(),
            )
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
