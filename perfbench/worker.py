"""One benchmark sample: a fresh process that sets a workload up, runs its
item list once and checks every output.

    PYTHONPATH=src:. python3 -m perfbench.worker --workload NAME --seed N [--trace]

Prints one JSON object as the last line of standard output.  Nothing is
warmed up: like a ``freealg`` command, the sample pays for imports and for
the cold per-signature term arenas.  The tracer is imported only with
``--trace``.

An untraced sample reports its times at the reference host speed: a
``perfbench.calibrate.Monitor`` spins every few hundredths of a second from
the first line on, and each raw time, less the time spent spinning, is
scaled by the mean spin time over the same interval.  A traced sample stops
the monitor before the tracer is installed, so spans hold no spins, and
reports raw times only.
"""

import time

from perfbench.calibrate import Monitor

MONITOR = Monitor()
if __name__ == "__main__":
    MONITOR.start()
T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def run_items(workload, tracer=None, monitor=None):
    """Time each library call; check its output outside the timed region.

    ``wall_s`` and ``cpu_s`` of a row are raw seconds, less any time the
    monitor spent spinning during the calls.
    """
    out = []
    for item in workload.items:
        row = {"label": item.label, "wall_s": 0.0, "cpu_s": 0.0, "calls": 0, "failed": 0, "error": None}
        if monitor is not None:
            row["start"] = monitor.mark()
        if tracer is not None:
            row["span_self_s"] = 0.0
        for call in workload.calls(item):
            if tracer is not None:
                before = tracer.total_self_time()
                tracer.active = True
                tracer.enter("bench.call")
            c0 = time.process_time()
            t0 = time.perf_counter()
            if monitor is not None:
                m0 = monitor.mark()
            try:
                result, raised = call.run(), None
            except Exception as e:  # an engine failure is a failed call, not a crash
                result, raised = None, e
            if monitor is not None:
                m1 = monitor.mark()
            t1 = time.perf_counter()
            c1 = time.process_time()
            if tracer is not None:
                tracer.exit()
                tracer.active = False
                row["span_self_s"] += tracer.total_self_time() - before
            row["wall_s"] += t1 - t0
            row["cpu_s"] += c1 - c0
            if monitor is not None:
                row["wall_s"] -= m1[1] - m0[1]
                row["cpu_s"] -= m1[2] - m0[2]
            row["calls"] += 1
            try:
                if raised is not None:
                    raise raised
                call.check(result)
            except Exception as e:
                row["failed"] += 1
                row["error"] = row["error"] or f"{type(e).__name__}: {e}"
        if monitor is not None:
            row["end"] = monitor.mark()
        out.append(row)
    return out


def main(argv=None) -> int:
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    monitor = None if args.trace else MONITOR
    if args.trace:
        MONITOR.stop()

    import freealg

    src = (ROOT / "src").resolve()
    if src not in Path(freealg.__file__).resolve().parents:
        raise SystemExit(f"freealg was imported from {freealg.__file__}, not from {src}")

    tracer = None
    if args.trace:
        from perfbench.trace import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.active = True
        tracer.enter("bench.setup")
    workload = WORKLOADS[args.workload](args.seed)
    if tracer is not None:
        tracer.exit()
        tracer.active = False
    setup_s = time.perf_counter() - T0
    setup_mark = MONITOR.mark()

    items = run_items(workload, tracer, monitor)
    raw_wall = sum(r["wall_s"] for r in items)
    sample = {
        "raw_wall_s": raw_wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "items": items,
    }
    if monitor is None:
        tracer.uninstall()
        sample["layers"] = tracer.metrics()
        sample["missing_hooks"] = tracer.missing
    else:
        monitor.stop()
        wall_f, cpu_f = monitor.scale(setup_mark)

        def at_reference(raw, start, end=None):
            # an interval too short to hold a spin takes the item list's factor
            return raw * (monitor.scale(start, end) or (wall_f,))[0]

        sample |= {
            "setup_s": at_reference(setup_s - setup_mark[1], (0, 0, 0), setup_mark),
            "wall_s": raw_wall * wall_f,
            "cpu_s": sum(r["cpu_s"] for r in items) * cpu_f,
            "slowest_item_s": max(at_reference(r["wall_s"], r["start"], r["end"]) for r in items),
            "spin_s": sum(monitor.walls) / len(monitor.walls),
            "spins": len(monitor.walls),
        }
    print(json.dumps(sample))
    return 0


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    finally:
        MONITOR.stop()
