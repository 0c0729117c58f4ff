import itertools

import pytest

from bruteforce import bruteforce_free_algebra
from conftest import GROUP_AXIOMS, GROUP_OPS, make_axioms, make_variety
from freealg.corpus import enumerate_homs, hom_from_gen_images
from freealg.egraph import VarietyDef
from freealg.finalg import MorphismTable, eval_term
from freealg.terms import GeneratorProfile, arena_of, term_key
from functor import (
    DFunctor,
    SubvarietyError,
    SubvarietyPair,
    check_functoriality,
    compose,
    identity_morphism,
    is_surjective,
    natural_epimorphism,
)


@pytest.fixture(scope="module")
def bands():
    return make_variety(
        ["elem"],
        [("mul", ["elem", "elem"], "elem")],
        "bands",
        [
            ([("x", "elem"), ("y", "elem"), ("z", "elem")], "(mul (mul x y) z)", "(mul x (mul y z))"),
            ([("x", "elem")], "(mul x x)", "x"),
        ],
    )


@pytest.fixture(scope="module")
def band_pair(bands):
    comm = make_axioms(
        bands.sig, [([("x", "elem"), ("y", "elem")], "(mul x y)", "(mul y x)")]
    )
    return SubvarietyPair.extend(bands, comm, "comm-bands")


def prof(v, n):
    return GeneratorProfile.from_counts(v.sig, {v.sig.sorts[0].name: n})


def test_pair_requires_prefix_extension(bands):
    comm = make_axioms(
        bands.sig, [([("x", "elem"), ("y", "elem")], "(mul x y)", "(mul y x)")]
    )
    with pytest.raises(SubvarietyError):
        SubvarietyPair(bands, VarietyDef(bands.sig, "not-an-extension", tuple(comm)))


def test_epi_identity_when_equal(bands):
    pair = SubvarietyPair.extend(bands, [], "same")
    epi = natural_epimorphism(pair, prof(bands, 2))
    assert epi.table.maps == identity_morphism(epi.theta_free.algebra).maps


def test_epi_bands_to_semilattices(band_pair, bands):
    # free band on two generators has 6 elements, its commutative quotient 3
    p = prof(bands, 2)
    oracle_theta = bruteforce_free_algebra(band_pair.theta, p)
    oracle_delta = bruteforce_free_algebra(band_pair.delta, p)
    assert oracle_theta.stabilized and oracle_delta.stabilized
    assert oracle_theta.n_classes_by_sort(1) == (6,)
    assert oracle_delta.n_classes_by_sort(1) == (3,)
    epi = natural_epimorphism(band_pair, p)
    assert epi.theta_free.algebra.sizes == (6,)
    assert epi.delta_free.algebra.sizes == (3,)
    assert is_surjective(epi.table)
    assert epi.table.is_homomorphism()


def test_epi_exponent_six_to_exponent_two():
    theta = make_variety(
        ["elem"],
        GROUP_OPS,
        "abelian-exp6",
        GROUP_AXIOMS
        + [
            ([("x", "elem"), ("y", "elem")], "(mul x y)", "(mul y x)"),
            (
                [("x", "elem")],
                "(mul x (mul x (mul x (mul x (mul x x)))))",
                "(e)",
            ),
        ],
    )
    square = make_axioms(theta.sig, [([("x", "elem")], "(mul x x)", "(e)")])
    pair = SubvarietyPair.extend(theta, square, "exp2")
    epi = natural_epimorphism(pair, prof(theta, 1))
    assert epi.theta_free.algebra.sizes == (6,)
    assert epi.delta_free.algebra.sizes == (2,)
    assert is_surjective(epi.table)


def test_epi_independent_of_representative_choice(band_pair, bands):
    # the members of a class are built from the members of other classes
    # through the op table; if every op(rep a1, ..., rep an) projects to the
    # image of its table entry, then by induction every member term of a
    # class projects to the class's image, not just its representative
    epi = natural_epimorphism(band_pair, prof(bands, 2))
    ftheta, fdelta = epi.theta_free, epi.delta_free
    arena = arena_of(bands.sig)
    not_reps = 0
    for op in bands.sig.ops:
        for args, res in ftheta.algebra.tables[op.id].items():
            t = arena.apply(op, tuple(ftheta.reps[s][a] for a, s in zip(args, op.arg_sorts)))
            image = eval_term(fdelta.algebra, t, fdelta.gen_images)
            assert image == epi.table.maps[op.result_sort][res]
            if term_key(t) != term_key(ftheta.reps[op.result_sort][res]):
                not_reps += 1
    assert not_reps > 0


def test_induced_identity_is_identity(band_pair, bands):
    p = prof(bands, 2)
    functor = DFunctor(band_pair)
    epi = functor.epi(p)
    out = functor.morphism(p, p, identity_morphism(epi.theta_free.algebra))
    assert out == identity_morphism(epi.delta_free.algebra)


def test_induced_swap_swaps_generators(band_pair, bands):
    p = prof(bands, 2)
    functor = DFunctor(band_pair)
    epi = functor.epi(p)
    x1, x2 = p.variables()
    images = {
        x1: epi.theta_free.gen_images[x2],
        x2: epi.theta_free.gen_images[x1],
    }
    phi = hom_from_gen_images(epi.theta_free, epi.theta_free, images)
    out = functor.morphism(p, p, phi)
    d = epi.delta_free
    assert out.maps[0][d.gen_images[x1]] == d.gen_images[x2]
    assert out.maps[0][d.gen_images[x2]] == d.gen_images[x1]


def test_induced_collapse_collapses(band_pair, bands):
    two, one = prof(bands, 2), prof(bands, 1)
    functor = DFunctor(band_pair)
    e2, e1 = functor.epi(two), functor.epi(one)
    x1, x2 = two.variables()
    y1 = one.variables()[0]
    images = {x1: e1.theta_free.gen_images[y1], x2: e1.theta_free.gen_images[y1]}
    phi = hom_from_gen_images(e2.theta_free, e1.theta_free, images)
    out = functor.morphism(two, one, phi)
    d2, d1 = e2.delta_free, e1.delta_free
    assert out.maps[0][d2.gen_images[x1]] == d1.gen_images[y1]
    assert out.maps[0][d2.gen_images[x2]] == d1.gen_images[y1]


def test_commuting_square_pointwise(band_pair, bands):
    two, one = prof(bands, 2), prof(bands, 1)
    functor = DFunctor(band_pair)
    ex, ey = functor.epi(two), functor.epi(one)
    for phi in enumerate_homs(ex.theta_free, ey.theta_free):
        star = functor.morphism(two, one, phi)
        assert compose(star, ex.table) == compose(ey.table, phi)


def test_induced_morphism_unique(band_pair, bands):
    # the only map delta_free(X) -> delta_free(Y) closing the square is phi*
    two, one = prof(bands, 2), prof(bands, 1)
    functor = DFunctor(band_pair)
    ex, ey = functor.epi(two), functor.epi(one)
    phi = enumerate_homs(ex.theta_free, ey.theta_free)[0]
    star = functor.morphism(two, one, phi)
    target = compose(ey.table, phi)
    nx = ex.delta_free.algebra.sizes[0]
    ny = ey.delta_free.algebra.sizes[0]
    matches = []
    for col in itertools.product(range(ny), repeat=nx):
        cand = MorphismTable(ex.delta_free.algebra, ey.delta_free.algebra, (col,))
        if compose(cand, ex.table) == target:
            matches.append(cand)
    assert matches == [star]


def test_functoriality_trivial_cases(band_pair, bands):
    report = check_functoriality(band_pair, [])
    assert report.ok and report.composition_checks == 0
    # one generator: the free band is a single idempotent, one endomorphism
    report1 = check_functoriality(band_pair, [prof(bands, 1)])
    assert report1.ok
    assert report1.hom_counts[((1,), (1,))] == 1


def test_functoriality_boolean_exhaustive(boolean_groups):
    # source category: boolean-group free algebras on at most two generators;
    # two target subvarieties, the variety itself and its collapse
    comm = make_axioms(
        boolean_groups.sig, [([("x", "elem"), ("y", "elem")], "(mul x y)", "(mul y x)")]
    )
    collapse = make_axioms(boolean_groups.sig, [([("x", "elem")], "x", "(e)")])
    profiles = [prof(boolean_groups, n) for n in (1, 2)]
    for extra in (comm, collapse):
        pair = SubvarietyPair.extend(boolean_groups, extra)
        report = check_functoriality(pair, profiles)
        assert report.ok
        assert report.hom_counts[((1,), (1,))] == 2
        assert report.hom_counts[((2,), (2,))] == 16
        assert report.composition_checks == sum(
            report.hom_counts[(a, b)] * report.hom_counts[(b, c)]
            for a in ((1,), (2,))
            for b in ((1,), (2,))
            for c in ((1,), (2,))
        )
