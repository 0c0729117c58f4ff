"""The quotient functor between the free-algebra categories of a variety
and one of its subvarieties.

A subvariety is given syntactically: its axiom list extends the parent's.
The functor sends the free algebra on a profile to the subvariety's free
algebra on the same profile, and a morphism to the unique morphism
commuting with the two natural projections.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .egraph import Budget, BudgetExceeded, FreeAlgebraResult, VarietyDef, build_free_algebra
from .finalg import Evaluator, MorphismTable
from .terms import GeneratorProfile, SortedVar


class SubvarietyError(Exception):
    pass


class SaturationBudgetError(Exception):
    """A required free algebra did not saturate within the budget."""

    def __init__(self, variety: str, profile: str, outcome: BudgetExceeded):
        super().__init__(
            f"free algebra of '{variety}' on [{profile}] exceeded the budget "
            f"({outcome.limit}: {outcome.classes} classes, round {outcome.rounds})"
        )
        self.outcome = outcome


def build_or_raise(v: VarietyDef, profile: GeneratorProfile, budget: Budget) -> FreeAlgebraResult:
    res = build_free_algebra(v, profile, budget)
    if isinstance(res, BudgetExceeded):
        raise SaturationBudgetError(v.name, profile.describe(), res)
    return res


@dataclass(frozen=True)
class SubvarietyPair:
    """theta together with a delta whose axiom list extends theta's."""

    theta: VarietyDef
    delta: VarietyDef

    def __post_init__(self):
        if self.theta.sig is not self.delta.sig:
            raise SubvarietyError("the two varieties must share a signature")
        n = len(self.theta.axioms)
        if self.delta.axioms[:n] != self.theta.axioms:
            raise SubvarietyError("the subvariety's axioms must extend the parent's list")

    @classmethod
    def extend(cls, theta: VarietyDef, extra, name: str | None = None) -> "SubvarietyPair":
        return cls(theta, theta.extended(extra, name))


def hom_from_gen_images(
    src: FreeAlgebraResult, dst: FreeAlgebraResult, images: dict[SortedVar, int]
) -> MorphismTable:
    """Materialize the unique homomorphism extending a generator map.

    Each source class is sent to the evaluation of its representative term;
    freeness of the source makes this a homomorphism.
    """
    ev = Evaluator(src.profile, images, dst.algebra)
    maps = tuple(tuple(ev(rep) for rep in src.reps[s.id]) for s in src.variety.sig.sorts)
    table = MorphismTable(src.algebra, dst.algebra, maps)
    assert table.is_homomorphism(), "universal property violated"
    return table


def enumerate_homs(src: FreeAlgebraResult, dst: FreeAlgebraResult):
    """All homomorphisms src -> dst, via all sort-respecting generator maps."""
    vs = src.profile.variables()
    pools = [range(dst.algebra.sizes[v.sort]) for v in vs]
    out = []
    for combo in itertools.product(*pools):
        images = dict(zip(vs, combo))
        out.append((images, hom_from_gen_images(src, dst, images)))
    return out


@dataclass
class NaturalEpi:
    theta_free: FreeAlgebraResult
    delta_free: FreeAlgebraResult
    table: MorphismTable


def natural_epimorphism(
    pair: SubvarietyPair, profile: GeneratorProfile, budget: Budget | None = None
) -> NaturalEpi:
    """Projection of the free theta-algebra onto the free delta-algebra.

    Sends each class to the delta-class of its representative term, i.e. the
    homomorphism extending the delta generator images.
    """
    budget = budget or Budget()
    ftheta = build_or_raise(pair.theta, profile, budget)
    fdelta = build_or_raise(pair.delta, profile, budget)
    table = hom_from_gen_images(ftheta, fdelta, fdelta.gen_images)
    assert table.is_surjective(), "projection is not onto"
    for v, e in ftheta.gen_images.items():
        assert table(v.sort, e) == fdelta.gen_images[v]
    return NaturalEpi(ftheta, fdelta, table)


class DFunctor:
    """Object and morphism maps of the quotient functor, with caching.

    Profiles are keyed by their per-sort generator counts; equal counts give
    literally identical generator names, so cached results interchange.
    """

    def __init__(self, pair: SubvarietyPair, budget: Budget | None = None):
        self.pair = pair
        self.budget = budget or Budget()
        self._epis: dict[tuple[int, ...], NaturalEpi] = {}

    def epi(self, profile: GeneratorProfile) -> NaturalEpi:
        key = profile.counts()
        got = self._epis.get(key)
        if got is None:
            got = natural_epimorphism(self.pair, profile, self.budget)
            self._epis[key] = got
        return got

    def morphism(
        self, src: GeneratorProfile, dst: GeneratorProfile, phi: MorphismTable
    ) -> MorphismTable:
        """The unique phi* with epi_dst . phi = phi* . epi_src.

        Computed by pushing one preimage of each delta-class through phi and
        projecting; well-definedness over all preimages is asserted.
        """
        ex, ey = self.epi(src), self.epi(dst)
        sig = self.pair.theta.sig
        maps = []
        for s in sig.sorts:
            col = [-1] * ex.delta_free.algebra.sizes[s.id]
            for e in range(ex.theta_free.algebra.sizes[s.id]):
                d = ex.table(s.id, e)
                val = ey.table(s.id, phi(s.id, e))
                if col[d] < 0:
                    col[d] = val
                elif col[d] != val:
                    raise AssertionError(
                        "internal consistency failure: induced morphism not well defined"
                    )
            maps.append(tuple(col))
        out = MorphismTable(ex.delta_free.algebra, ey.delta_free.algebra, tuple(maps))
        assert out.is_homomorphism()
        return out


@dataclass
class FunctorialityReport:
    profiles: tuple[tuple[int, ...], ...]
    hom_counts: dict
    identity_checks: int
    composition_checks: int
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return {
            "profiles": [list(p) for p in self.profiles],
            "hom_counts": {str(k): v for k, v in self.hom_counts.items()},
            "identity_checks": self.identity_checks,
            "composition_checks": self.composition_checks,
            "violations": list(self.violations),
        }


def check_functoriality(
    pair: SubvarietyPair, profiles, budget: Budget | None = None
) -> FunctorialityReport:
    """Verify the functor laws pointwise over every generator-map morphism
    among the free algebras on the given profiles."""
    functor = DFunctor(pair, budget)
    violations: list[str] = []
    identity_checks = 0
    composition_checks = 0
    hom_counts: dict[tuple, int] = {}

    for p in profiles:
        epi = functor.epi(p)
        d_id = functor.morphism(p, p, MorphismTable.identity(epi.theta_free.algebra))
        identity_checks += 1
        if d_id != MorphismTable.identity(epi.delta_free.algebra):
            violations.append(f"D(id) != id on profile [{p.describe()}]")

    homs: dict[tuple[int, int], list[MorphismTable]] = {}
    for i, a in enumerate(profiles):
        for j, b in enumerate(profiles):
            fa, fb = functor.epi(a).theta_free, functor.epi(b).theta_free
            homs[(i, j)] = [t for _, t in enumerate_homs(fa, fb)]
            hom_counts[(a.counts(), b.counts())] = len(homs[(i, j)])

    for i, a in enumerate(profiles):
        for j, b in enumerate(profiles):
            for k, c in enumerate(profiles):
                for f in homs[(i, j)]:
                    df = functor.morphism(a, b, f)
                    for g in homs[(j, k)]:
                        dg = functor.morphism(b, c, g)
                        composition_checks += 1
                        if functor.morphism(a, c, g.after(f)) != dg.after(df):
                            violations.append(
                                f"D(g.f) != D(g).D(f) between profiles "
                                f"[{a.describe()}] -> [{b.describe()}] -> [{c.describe()}]"
                            )
    return FunctorialityReport(
        profiles=tuple(p.counts() for p in profiles),
        hom_counts=hom_counts,
        identity_checks=identity_checks,
        composition_checks=composition_checks,
        violations=tuple(violations),
    )
