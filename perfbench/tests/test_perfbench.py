"""Self-tests for the benchmark: its checks reject corrupted results, its
tracer accounts for the traced time and tolerates missing hooks, and its
counters repeat exactly."""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from freealg import certify, corpus, egraph, finalg
from perfbench import calibrate, checks, trace, workloads
from perfbench.worker import run_items

ROOT = Path(__file__).resolve().parents[2]


def build(entry, counts, budget=None):
    variety, _ = corpus.load_entry(entry)
    return egraph.build_free_algebra(variety, workloads.profile_for(variety, counts), budget)


@pytest.fixture(scope="module")
def semilattice():
    """The free commutative idempotent semigroup on two generators: 3 elements."""
    return build("comm-idem-semigroups", (2,))


def test_finite_check_accepts_its_reference(semilattice):
    ref = checks.digest(checks.canonical_algebra(semilattice))
    checks.check_finite(semilattice, (3,), semilattice.variety.axioms, ref)


def test_finite_check_rejects_wrong_size(semilattice):
    ref = checks.digest(checks.canonical_algebra(semilattice))
    with pytest.raises(checks.CheckFailed, match="sizes"):
        checks.check_finite(semilattice, (4,), semilattice.variety.axioms, ref)


def test_finite_check_rejects_relabeled_representative(semilattice):
    ref = checks.digest(checks.canonical_algebra(semilattice))
    col = semilattice.reps[0]
    swapped = dataclasses.replace(semilattice, reps=((col[1], col[0]) + col[2:],))
    with pytest.raises(checks.CheckFailed, match="digest"):
        checks.check_finite(swapped, (3,), semilattice.variety.axioms, ref)


def test_finite_check_rejects_a_table_that_breaks_an_axiom(semilattice):
    alg = semilattice.algebra
    (mul,) = [op for op in alg.sig.ops if op.arity == 2]
    tables = dict(alg.tables)
    tables[mul.id] = {args: 0 if args == (1, 1) else res for args, res in alg.tables[mul.id].items()}
    broken = dataclasses.replace(semilattice, algebra=finalg.FiniteAlgebra(alg.sig, alg.sizes, tables))
    ref = checks.digest(checks.canonical_algebra(broken))
    with pytest.raises(checks.CheckFailed, match="axiom"):
        checks.check_finite(broken, (3,), semilattice.variety.axioms, ref)


def test_isomorphism_check_rejects_non_homomorphic_and_non_bijective_maps(semilattice):
    a = semilattice.algebra
    b = workloads.relabel(a, [[2, 0, 1]])
    iso = finalg.find_isomorphism(a, b)
    checks.check_isomorphism(iso, a, b)
    # the top element is the only one that absorbs both others; sending a
    # generator there and the top to a generator's image breaks 'mul'
    top = a.tables[[op for op in a.sig.ops if op.arity == 2][0].id][(0, 1)]
    gen = next(e for e in range(3) if e != top)
    m = list(iso.maps[0])
    m[top], m[gen] = m[gen], m[top]
    with pytest.raises(checks.CheckFailed, match="commute"):
        checks.check_isomorphism(SimpleNamespace(maps=(tuple(m),)), a, b)
    with pytest.raises(checks.CheckFailed, match="bijection"):
        checks.check_isomorphism(SimpleNamespace(maps=((0, 0, 0),)), a, b)
    with pytest.raises(checks.CheckFailed, match="no isomorphism"):
        checks.check_isomorphism(None, a, b)


def test_trip_check_rejects_a_row_that_saturates(semilattice):
    checks.check_trip(build("automata", (1, 1, 0), corpus.ENTRIES["automata"].infinite_budget))
    with pytest.raises(checks.CheckFailed, match="expected a budget trip"):
        checks.check_trip(semilattice)


def test_certificate_check_rejects_changed_reports():
    reference = workloads.load_reference("certify-corpus")
    variety, cert = corpus.load_entry("left-zero")
    report = certify.run_certificate(variety, cert)
    checks.check_certificate(report, 3, reference["left-zero"])
    with pytest.raises(checks.CheckFailed, match="rank"):
        checks.check_certificate(report, 4, reference["left-zero"])
    with pytest.raises(checks.CheckFailed, match="reference"):
        checks.check_certificate(report, 3, reference["sets"])
    low = certify.run_certificate(variety, cert, rank_cap=2)
    with pytest.raises(checks.CheckFailed, match="rank"):
        checks.check_certificate(low, 3, reference["left-zero"])


def test_every_item_has_a_reference():
    assert set(workloads.load_reference("saturate-finite")) == {
        i.label for i in workloads.SaturateFinite.ITEMS
    }
    assert set(workloads.load_reference("certify-corpus")) == {
        i.label for i in workloads.CertifyCorpus.ITEMS
    } == set(corpus.entry_names())


class SmallCertify(workloads.CertifyCorpus):
    ITEMS = tuple(i for i in workloads.CertifyCorpus.ITEMS if i.entry in ("sets", "left-zero", "comm-idem-semigroups"))


@pytest.fixture
def tracer():
    t = trace.Tracer()
    t.install()
    yield t
    t.uninstall()


def test_span_self_times_sum_to_the_traced_call_time(tracer):
    rows = run_items(SmallCertify(seed=5), tracer)
    assert [r["failed"] for r in rows] == [0, 0, 0]
    for r in rows:
        # the root span encloses the timed region, and the tracer's own
        # bookkeeping is the only time between them
        assert 0 <= r["span_self_s"] - r["wall_s"] <= 0.05 * r["wall_s"] + 1e-3
    layers = tracer.metrics()
    # one nondegeneracy run for each one-sorted fujiwara certificate
    assert layers["certify.nondeg_calls"] == 2 and layers["egraph.builds"] > 2
    assert layers["finalg.satisfies_s"] == 0, "output checks must stay untraced"


def test_tracer_restores_the_library_on_uninstall():
    before = (egraph.SaturationState.rebuild, certify.find_isomorphism, corpus.load_entry)
    t = trace.Tracer()
    t.install()
    assert egraph.SaturationState.rebuild is not before[0]
    t.uninstall()
    assert (egraph.SaturationState.rebuild, certify.find_isomorphism, corpus.load_entry) == before


def test_missing_hooks_make_their_metrics_absent(monkeypatch):
    renamed = {
        "SaturationState.rebuild": ("freealg.egraph", "SaturationState.rebuild_removed"),
        "load_entry": ("freealg.no_such_module", "load_entry"),
    }
    hooks = tuple((*renamed.get(path, (module, path)), span) for module, path, span in trace.HOOKS)
    monkeypatch.setattr(trace, "HOOKS", hooks)
    t = trace.Tracer()
    t.install()
    try:
        t.active = True
        build("boolean-groups", (1,))
        t.active = False
    finally:
        t.uninstall()
    layers = t.metrics()
    assert t.missing == [
        "freealg.egraph.SaturationState.rebuild_removed",
        "freealg.no_such_module.load_entry",
    ]
    for gone in ("egraph.rebuild_s", "egraph.rebuild_calls", "files.parse_s"):
        assert gone not in layers
    assert layers["egraph.match_passes"] > 0 and layers["egraph.builds"] == 1


COUNTERS = """
import json
from perfbench import trace, workloads
from freealg import certify, corpus, egraph
t = trace.Tracer(); t.install(); t.active = True
variety, _ = corpus.load_entry("group-reps-trivial-f2")
res = egraph.build_free_algebra(variety, workloads.profile_for(variety, (1, 0)),
                                corpus.ENTRIES["group-reps-trivial-f2"].infinite_budget)
stats_nodes = sum(r.nodes_created for r in res.stats.rounds)
trip = t.metrics()["egraph.nodes_created"]
del res
for name in ("left-zero", "comm-idem-semigroups", "f2-vector-spaces", "semigroup-actions-trivial"):
    variety, cert = corpus.load_entry(name)
    certify.run_certificate(variety, cert)
m = t.metrics()
print(json.dumps({k: v for k, v in m.items() if not k.endswith("_s")}
                 | {"stats_nodes": stats_nodes, "trip_nodes": trip, "records": len(t.records)}))
"""


def test_counters_repeat_across_hash_seeds_and_count_tripped_rounds():
    outs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
        proc = subprocess.run([sys.executable, "-c", COUNTERS], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        outs.append(json.loads(proc.stdout))
    assert outs[0] == outs[1]
    # every saturation state keeps its own record, even when a freed
    # state's id is reused by the next one
    assert outs[0]["records"] == outs[0]["egraph.builds"] > 2
    # the tripped round is missing from the build's stats, not from the counters
    assert outs[0]["trip_nodes"] > outs[0]["stats_nodes"]


def test_untraced_worker_imports_no_tracer():
    code = "import sys, perfbench.worker, perfbench.workloads; print('perfbench.trace' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.strip() == "False"


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify-corpus",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_monitor_spins_while_started_and_scales_by_its_spins():
    monitor = calibrate.Monitor()
    monitor.start()
    try:
        start = monitor.mark()
        deadline = time.perf_counter() + 0.5
        while time.perf_counter() < deadline:
            pass
        end = monitor.mark()
    finally:
        monitor.stop()
    spins, spent_wall, _ = end
    assert spins >= 3 and 0 < spent_wall < 0.5
    wall_f, cpu_f = monitor.scale(start, end)
    mean = sum(monitor.walls) / spins
    assert wall_f == pytest.approx(calibrate.REFERENCE_S / mean) and cpu_f > 0
    assert monitor.scale(end, end) is None
    time.sleep(3 * calibrate.TICK_S)
    assert len(monitor.walls) == spins, "a stopped monitor must not spin"
