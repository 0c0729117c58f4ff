"""The quotient functor between the free-algebra categories of a variety
and one of its subvarieties, and the morphism helpers it needs.

A subvariety is given syntactically: its axiom list extends the parent's.
The functor sends the free algebra on a profile to the subvariety's free
algebra on the same profile, and a morphism to the unique morphism
commuting with the two natural projections.  The fujiwara and per-sort
certificate routes appeal to it; the tests build it here and check its
laws.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from freealg.corpus import enumerate_homs, hom_from_gen_images
from freealg.egraph import BudgetExceeded, FreeAlgebraResult, VarietyDef, build_free_algebra
from freealg.finalg import AlgebraError, FiniteAlgebra, MorphismTable
from freealg.terms import GeneratorProfile


class SubvarietyError(Exception):
    pass


def identity_morphism(alg: FiniteAlgebra) -> MorphismTable:
    return MorphismTable(alg, alg, tuple(tuple(range(n)) for n in alg.sizes))


def compose(outer: MorphismTable, inner: MorphismTable) -> MorphismTable:
    """outer . inner (apply inner first)."""
    if inner.target is not outer.source:
        raise AlgebraError("morphisms are not composable")
    maps = tuple(tuple(outer.maps[s][v] for v in m) for s, m in enumerate(inner.maps))
    return MorphismTable(inner.source, outer.target, maps)


def is_surjective(table: MorphismTable) -> bool:
    return all(set(m) == set(range(n)) for m, n in zip(table.maps, table.target.sizes))


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
        return cls(theta, theta.extended(extra, name or f"{theta.name}+"))


class NaturalEpi(NamedTuple):
    theta_free: FreeAlgebraResult
    delta_free: FreeAlgebraResult
    table: MorphismTable


def natural_epimorphism(pair: SubvarietyPair, profile: GeneratorProfile) -> NaturalEpi:
    """Projection of the free theta-algebra onto the free delta-algebra.

    Sends each class to the delta-class of its representative term, i.e. the
    homomorphism extending the delta generator images.
    """
    ftheta = build_free_algebra(pair.theta, profile)
    fdelta = build_free_algebra(pair.delta, profile)
    assert not isinstance(ftheta, BudgetExceeded) and not isinstance(fdelta, BudgetExceeded)
    table = hom_from_gen_images(ftheta, fdelta, fdelta.gen_images)
    assert is_surjective(table), "projection is not onto"
    for v, e in ftheta.gen_images.items():
        assert table.maps[v.sort][e] == fdelta.gen_images[v]
    return NaturalEpi(ftheta, fdelta, table)


class DFunctor:
    """Object and morphism maps of the quotient functor, with caching.

    Profiles are keyed by their per-sort generator counts; equal counts give
    literally identical generator names, so cached results interchange.
    """

    def __init__(self, pair: SubvarietyPair):
        self.pair = pair
        self._epis: dict[tuple[int, ...], NaturalEpi] = {}

    def epi(self, profile: GeneratorProfile) -> NaturalEpi:
        key = profile.counts()
        got = self._epis.get(key)
        if got is None:
            got = natural_epimorphism(self.pair, profile)
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
                d = ex.table.maps[s.id][e]
                val = ey.table.maps[s.id][phi.maps[s.id][e]]
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
    hom_counts: dict
    identity_checks: int
    composition_checks: int
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def check_functoriality(pair: SubvarietyPair, profiles) -> FunctorialityReport:
    """Verify the functor laws pointwise over every generator-map morphism
    among the free algebras on the given profiles."""
    functor = DFunctor(pair)
    violations: list[str] = []
    identity_checks = 0
    composition_checks = 0

    for p in profiles:
        epi = functor.epi(p)
        d_id = functor.morphism(p, p, identity_morphism(epi.theta_free.algebra))
        identity_checks += 1
        if d_id != identity_morphism(epi.delta_free.algebra):
            violations.append(f"D(id) != id on profile [{p.describe()}]")

    homs = {
        (a.counts(), b.counts()): enumerate_homs(functor.epi(a).theta_free, functor.epi(b).theta_free)
        for a in profiles
        for b in profiles
    }
    for a in profiles:
        for b in profiles:
            for c in profiles:
                for f in homs[(a.counts(), b.counts())]:
                    df = functor.morphism(a, b, f)
                    for g in homs[(b.counts(), c.counts())]:
                        dg = functor.morphism(b, c, g)
                        composition_checks += 1
                        if functor.morphism(a, c, compose(g, f)) != compose(dg, df):
                            violations.append(
                                f"D(g.f) != D(g).D(f) between profiles "
                                f"[{a.describe()}] -> [{b.describe()}] -> [{c.describe()}]"
                            )
    return FunctorialityReport(
        hom_counts={key: len(tables) for key, tables in homs.items()},
        identity_checks=identity_checks,
        composition_checks=composition_checks,
        violations=tuple(violations),
    )
