"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Samples are fresh single-threaded worker processes (``perfbench/worker.py``),
run one after another, each setting the workload up and running its item
list once.  Samples start while the next one is expected to finish within
``--seconds``.  End-to-end metrics are medians over the samples.  With
``--trace 1`` every other sample is traced; the per-layer metrics are
medians over the traced samples and ``trace.overhead_ratio`` compares their
``wall_s`` with the untraced ones.

Every end-to-end time is at the reference host speed of
``perfbench/calibrate.py``: the untraced worker samples the host's speed
with a short spin every few hundredths of a second and scales its raw times
by it.  Raw wall times are printed on standard error beside them, and
``trace.overhead_ratio`` compares raw times.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; a readable summary goes to
standard error.  Metric names and units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_LIMIT_S = 170  # a run must end within 180 s, however slow a sample is


class SampleFailed(Exception):
    pass


def run_sample(workload: str, seed: int, trace: bool, timeout: float) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    cmd = [sys.executable, "-m", "perfbench.worker", "--workload", workload, "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise SampleFailed(f"sample did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise SampleFailed(f"worker exited with {proc.returncode}:\n{proc.stderr.strip()}")
    sample = json.loads(proc.stdout.strip().splitlines()[-1])
    sample["traced"] = trace
    return sample


def collect(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    start = time.perf_counter()
    samples: list[dict] = []
    longest = 0.0
    while True:
        t0 = time.perf_counter()
        traced = trace and len(samples) % 2 == 1
        samples.append(run_sample(workload, seed, traced, RUN_LIMIT_S - (t0 - start)))
        longest = max(longest, time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if elapsed + longest > RUN_LIMIT_S:
            break
        if trace and len(samples) < 2:
            continue
        if elapsed + longest > seconds:
            break
    if trace and len(samples) < 2:
        raise SampleFailed("no time left for a traced sample")
    return samples


def median_of(samples: list[dict], key: str) -> float:
    return statistics.median(s[key] for s in samples)


def end_to_end(spec: dict, samples: list[dict]) -> dict:
    plain = [s for s in samples if not s["traced"]]
    return {m["name"]: {"value": median_of(plain, m["name"]), "unit": m["unit"]} for m in spec["end_to_end"]}


def per_layer(spec: dict, samples: list[dict]) -> dict:
    plain = [s for s in samples if not s["traced"]]
    traced = [s for s in samples if s["traced"]]
    metrics = {}
    for m in spec["per_layer"]:
        name = m["name"]
        if name == "trace.overhead_ratio":
            value = median_of(traced, "raw_wall_s") / median_of(plain, "raw_wall_s")
        elif all(name in s["layers"] for s in traced):
            value = statistics.median(s["layers"][name] for s in traced)
        else:
            continue  # its hook is gone: the metric is absent, not zero
        metrics[name] = {"value": value, "unit": m["unit"]}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="run one benchmark workload")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload '{args.workload}'")
    # the build step of a pure-Python program: byte-compile once, so no
    # sample pays for compilation in its set-up time
    compileall.compile_dir(ROOT / "src", quiet=2)
    compileall.compile_dir(ROOT / "perfbench", quiet=2)
    try:
        samples = collect(args.workload, args.seed, args.seconds, bool(args.trace))
    except SampleFailed as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    metrics = per_layer(spec, samples) if args.trace else end_to_end(spec, samples)
    attempted = sum(r["calls"] for s in samples for r in s["items"])
    failed = sum(r["failed"] for s in samples for r in s["items"])

    log = sys.stderr
    print(f"{args.workload} seed {args.seed}: {len(samples)} samples "
          f"({sum(s['traced'] for s in samples)} traced)", file=log)
    for name, m in metrics.items():
        print(f"  {name:24} {m['value']:12.4f} {m['unit']}", file=log)
    print(f"  {'fail_ratio':24} {failed / attempted:12.4f} ({failed} of {attempted} calls)", file=log)
    plain = [s for s in samples if not s["traced"]]
    print("  untraced samples wall_s: " + " ".join(f"{s['wall_s']:.3f}" for s in plain), file=log)
    print("  untraced samples mean spin: " + " ".join(f"{s['spin_s'] * 1e3:.3f} ms ({s['spins']})" for s in plain), file=log)
    print("  samples raw wall_s: " + " ".join(f"{s['raw_wall_s']:.3f}" + "t" * s["traced"] for s in samples), file=log)
    if args.trace:
        missing = sorted({h for s in samples if s["traced"] for h in s["missing_hooks"]})
        print(f"  missing hooks: {', '.join(missing) or 'none'}", file=log)
    for s in samples:
        for r in s["items"]:
            if r["error"]:
                print(f"  FAILED {r['label']}: {r['error']}", file=log)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
