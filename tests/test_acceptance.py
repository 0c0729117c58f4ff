"""Acceptance suite: one test per criterion, exact integer expectations,
each with its stated wall-clock limit.  Run with ``pytest -s`` to see the
per-criterion summary lines.
"""

import itertools
import random
import time
from contextlib import contextmanager

import pytest

from bruteforce import agrees_with_engine, bruteforce_free_algebra, enumerate_terms, substitute
from conftest import ORACLE_PROFILES, make_axioms, make_variety, profile_of
from freealg.certify import (
    CERTIFIED,
    CERTIFIED_CONDITIONAL,
    CertificateError,
    FujiwaraCert,
    certify_action_split,
    certify_empty_theory,
    certify_fujiwara,
    certify_per_sort,
)
from freealg.cli import main
from freealg.corpus import load_entry, setcoup_swap_demo
from freealg.egraph import Budget, BudgetExceeded, build_free_algebra
from freealg.finalg import MorphismTable
from freealg.terms import GeneratorProfile, SortedVar, arena_of
from functor import SubvarietyPair, check_functoriality


@contextmanager
def criterion(num, label, limit):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} {label}: FAIL")
        raise
    elapsed = time.perf_counter() - t0
    print(f"ACCEPTANCE {num:02d} {label}: PASS ({elapsed:.2f}s / limit {limit}s)")
    assert elapsed < limit, f"criterion {num} exceeded its {limit}s budget"


def sizes_of(v, counts, budget=None):
    res = build_free_algebra(v, profile_of(v, counts), budget or Budget())
    assert not isinstance(res, BudgetExceeded)
    return res.algebra.sizes


def test_criterion_01_boolean_group_sizes():
    with criterion(1, "exponent-2 group free sizes 2^n", 10):
        v, _ = load_entry("boolean-groups")
        for n in range(1, 5):
            assert sizes_of(v, (n,)) == (2**n,)


def test_criterion_02_elementary_abelian_3_sizes():
    with criterion(2, "exponent-3 abelian free sizes 3^n", 10):
        v, _ = load_entry("elem-abelian-3")
        for n in range(1, 4):
            assert sizes_of(v, (n,)) == (3**n,)


def test_criterion_03_left_zero_sizes_and_homs():
    with criterion(3, "left-zero sizes n and all set maps homomorphic", 5):
        v, _ = load_entry("left-zero")
        frees = {}
        for n in range(1, 7):
            res = build_free_algebra(v, profile_of(v, (n,)))
            assert res.algebra.sizes == (n,)
            frees[n] = res
        for n in range(1, 4):
            alg = frees[n].algebra
            count = 0
            for col in itertools.product(range(n), repeat=n):
                table = MorphismTable(alg, alg, (col,))
                assert table.is_homomorphism()
                count += 1
            assert count == n**n


def test_criterion_04_comm_idem_sizes_with_oracle():
    with criterion(4, "idempotent commutative sizes 2^n - 1, oracle-confirmed", 30):
        v, _ = load_entry("comm-idem-semigroups")
        for n in range(1, 6):
            assert sizes_of(v, (n,)) == (2**n - 1,)
        for n in range(1, 4):
            prof = profile_of(v, (n,))
            res = build_free_algebra(v, prof)
            oracle = bruteforce_free_algebra(v, prof)
            assert oracle.stabilized
            assert oracle.n_classes_by_sort(1) == (2**n - 1,)
            assert agrees_with_engine(oracle, res)


def test_criterion_05_f2_spaces_and_null_multiplication():
    with criterion(5, "vector spaces and null multiplication over F2: 2^n", 10):
        for name in ("f2-vector-spaces", "null-mul-f2"):
            v, _ = load_entry(name)
            for n in range(1, 4):
                prof = profile_of(v, (n,))
                res = build_free_algebra(v, prof)
                assert res.algebra.sizes == (2**n,)
                if n <= 2:
                    oracle = bruteforce_free_algebra(v, prof)
                    assert oracle.stabilized
                    assert oracle.n_classes_by_sort(1) == (2**n,)
                    assert agrees_with_engine(oracle, res)


def test_criterion_06_graph_sizes_by_term_enumeration():
    with criterion(6, "graphs: e edges and v + 2e vertices", 5):
        v, _ = load_entry("graphs")
        for e in range(4):
            for n in range(4):
                prof = profile_of(v, (e, n))
                res = build_free_algebra(v, prof)
                assert res.algebra.sizes == (e, n + 2 * e)
                # independent count: no axioms, so distinct terms are elements
                terms = enumerate_terms(v.sig, prof, max_length=4)
                by_sort = [0, 0]
                for t in terms:
                    by_sort[t.sort] += 1
                assert tuple(by_sort) == (e, n + 2 * e)


def test_criterion_07_group_representations():
    with criterion(7, "trivial-action group representations: 2^|v| and certificate", 60):
        v, cert = load_entry("group-reps-trivial-f2")
        for m in range(1, 4):
            assert sizes_of(v, (0, m))[v.sig.sort_named("v").id] == 2**m
        report = certify_action_split(v, cert)
        assert report.status == CERTIFIED_CONDITIONAL
        assert report.rank == 3


def test_criterion_08_functoriality_exhaustive(boolean_groups):
    with criterion(8, "quotient functor laws over all morphisms, |X| <= 2", 30):
        comm = make_axioms(
            boolean_groups.sig,
            [([("x", "elem"), ("y", "elem")], "(mul x y)", "(mul y x)")],
        )
        pair = SubvarietyPair.extend(boolean_groups, comm)
        profiles = [
            GeneratorProfile.from_counts(boolean_groups.sig, {"elem": n}) for n in (0, 1, 2)
        ]
        report = check_functoriality(pair, profiles)
        assert report.ok
        assert report.identity_checks == 3
        # 1+2+4 elements across the three free algebras gives 9 homs per row
        assert report.composition_checks == sum(
            report.hom_counts[(a.counts(), b.counts())]
            * report.hom_counts[(b.counts(), c.counts())]
            for a in profiles
            for b in profiles
            for c in profiles
        )


def test_criterion_09_length_monotone_under_homomorphisms():
    with criterion(9, "term length never shrinks under generator maps", 10):
        rng = random.Random(90125)
        names = ("boolean-groups", "graphs", "semigroup-actions-trivial")
        pairs_per_sig = 10_000 // len(names) + 1
        checked = 0
        for name in names:
            v, _ = load_entry(name)
            sig = v.sig
            arena = arena_of(sig)
            src = GeneratorProfile.from_counts(sig, {s.name: 3 for s in sig.sorts})
            dst_vars = [SortedVar(f"y{k}_{s.name}", s.id) for s in sig.sorts for k in range(3)]
            src_pools: dict[int, list] = {}
            for var in src.variables():
                src_pools.setdefault(var.sort, []).append(arena.var(var))
            dst_pools: dict[int, list] = {}
            for var in dst_vars:
                dst_pools.setdefault(var.sort, []).append(arena.var(var))

            def rand_term(pools, sort, depth):
                gens = pools.get(sort, [])
                ops = [o for o in sig.ops if o.result_sort == sort]
                if depth <= 0 or not ops or (gens and rng.random() < 0.35):
                    if gens:
                        return rng.choice(gens)
                    consts = [o for o in ops if o.arity == 0]
                    if consts:
                        return arena.apply(rng.choice(consts), ())
                    return None
                op = rng.choice(ops)
                kids = []
                for s in op.arg_sorts:
                    k = rand_term(pools, s, depth - 1)
                    if k is None:
                        return None
                    kids.append(k)
                return arena.apply(op, tuple(kids))

            done = 0
            while done < pairs_per_sig:
                sort = rng.randrange(len(sig.sorts))
                t = rand_term(src_pools, sort, rng.randrange(1, 5))
                if t is None:
                    continue
                mapping = {}
                ok = True
                for var in src.variables():
                    image = rand_term(dst_pools, var.sort, rng.randrange(0, 3))
                    if image is None:
                        ok = False
                        break
                    mapping[var] = image
                if not ok:
                    continue
                image = substitute(t, mapping, arena)
                assert t.length <= image.length
                done += 1
                checked += 1
        assert checked >= 10_000


def test_criterion_10_oracle_equivalence():
    with criterion(10, "saturation equals brute-force closure on the corpus", 60):
        compared = 0
        for name, profiles in ORACLE_PROFILES.items():
            v, _ = load_entry(name)
            for counts in profiles:
                if any(c > 2 for c in counts):
                    continue
                prof = profile_of(v, counts)
                res = build_free_algebra(v, prof)
                assert not isinstance(res, BudgetExceeded), (name, counts)
                oracle = bruteforce_free_algebra(v, prof)
                assert oracle.stabilized, (name, counts)
                assert oracle.n_classes_by_sort(len(v.sig.sorts)) == res.algebra.sizes
                assert agrees_with_engine(oracle, res), (name, counts)
                compared += 1
        assert compared >= 20


def test_criterion_11_setcoup_swap_demo():
    with criterion(11, "sort-swap involution and one-generator asymmetry", 5):
        demo = setcoup_swap_demo()
        assert demo.objects_checked == 16
        assert demo.morphisms_checked == 3600
        assert demo.involution_ok
        assert demo.asymmetry_noniso
        assert demo.certificate_status == CERTIFIED
        assert demo.ok


def test_criterion_12_degeneracy_controls():
    with criterion(12, "collapsing variety: singleton sizes, no certificates", 5):
        collapse_specs = [
            (["elem"], [], "collapse-no-ops"),
            (["elem"], [("mul", ["elem", "elem"], "elem")], "collapse-with-op"),
        ]
        for sorts, ops, name in collapse_specs:
            v = make_variety(
                sorts, ops, name, [([("x1", "elem"), ("x2", "elem")], "x1", "x2")]
            )
            for n in range(4):
                sizes = sizes_of(v, (n,))
                assert all(s in (0, 1) for s in sizes)
            assert certify_empty_theory(v).status != CERTIFIED
            assert certify_fujiwara(v, [], 2).status not in (
                CERTIFIED,
                CERTIFIED_CONDITIONAL,
            )
            assert certify_per_sort(v, {"elem": FujiwaraCert((), 2)}).status not in (
                CERTIFIED,
                CERTIFIED_CONDITIONAL,
            )
            with pytest.raises(CertificateError):
                certify_action_split(v, None)


def test_criterion_13_full_corpus_command(tmp_path, capsys):
    with criterion(13, "corpus command passes with default budgets", 300):
        out = tmp_path / "corpus.json"
        code = main(["corpus", "--json", str(out)])
        stdout = capsys.readouterr().out
        assert code == 0, stdout
        assert "all entries pass" in stdout
