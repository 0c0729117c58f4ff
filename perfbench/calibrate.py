"""Sampling how fast the host runs while the benchmark's calls run.

On a shared host the speed of one core changes within a second, by up to
two thirds, and the share of slow time drifts over minutes.  Raw times of
the same code measured at different moments therefore differ by more than a
regression bound.  ``Monitor`` runs a short fixed spin from a timer signal,
every ``TICK_S`` of wall time, in the middle of whatever the process is
doing, and records how long each spin took.  The mean spin time over an
interval estimates how slow the host was over it, and a raw time divided by
that mean and multiplied by ``REFERENCE_S`` is the time at the reference
speed.  The time spent in spins is subtracted from the raw times.

The spin does the kind of work the engine does (union-find over integer
ids, a hash-cons table keyed by tuples, interpreter-level loops) and calls
nothing in ``freealg``, so no change to the program can change its cost.

Stdlib only: the worker starts a monitor before it imports anything else.
"""

from __future__ import annotations

import gc
import random
import signal
import time

TICK_S = 0.02  # wall time between the end of one spin and the next

# The mean time of one spin on the host where the benchmark was defined
# (2-core x86-64 VM, CPython 3.11.7).  It only fixes the scale of the
# normalised times.
REFERENCE_S = 0.0016

STEPS = 800  # steps of one spin: short, so that many spins sample the host


def spin() -> int:
    n = 1000
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    table = {}
    rng = random.Random(7)
    for k in range(STEPS):
        a, b = rng.randrange(n), rng.randrange(n)
        key = (find(a), find(b))
        c = table.get(key)
        if c is None:
            table[key] = (a * b + k) % n
        else:
            ra, rc = find(c), find((a + b) % n)
            if ra != rc and k % 3 == 0:
                parent[ra] = rc
    return len(table)


class Monitor:
    """Spins every ``TICK_S`` while started and keeps each spin's time.

    ``spent_wall`` and ``spent_cpu`` are the seconds spent in the signal
    handler so far, so that a caller can take them out of its own timings.
    The collector is off during a spin: garbage the program left behind and
    collector settings it makes do not change the spin's cost.
    """

    def __init__(self):
        self.walls: list[float] = []
        self.cpus: list[float] = []
        self.spent_wall = 0.0
        self.spent_cpu = 0.0
        self._running = False
        self._previous = None

    def _tick(self, signum, frame) -> None:
        c0, t0 = time.process_time(), time.perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        spin()
        t1, c1 = time.perf_counter(), time.process_time()
        if enabled:
            gc.enable()
        self.walls.append(t1 - t0)
        self.cpus.append(c1 - c0)
        # one-shot timer, armed after the spin, so ticks never nest; a tick
        # that runs while stop() is under way must not arm it again
        if self._running:
            signal.setitimer(signal.ITIMER_REAL, TICK_S)
        self.spent_wall += time.perf_counter() - t0
        self.spent_cpu += time.process_time() - c0

    def start(self) -> None:
        self._running = True
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S)

    def stop(self) -> None:
        if not self._running:
            return
        self._running = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> tuple[int, float, float]:
        """Spins so far and seconds spent in them: a point to time from."""
        return len(self.walls), self.spent_wall, self.spent_cpu

    def scale(self, start: tuple[int, float, float], end: tuple[int, float, float] | None = None):
        """Factors that turn raw wall and CPU seconds measured between two
        marks into seconds at the reference speed, or None without a spin
        between them."""
        end = end or self.mark()
        walls, cpus = self.walls[start[0]:end[0]], self.cpus[start[0]:end[0]]
        if not walls:
            return None
        return REFERENCE_S * len(walls) / sum(walls), REFERENCE_S * len(cpus) / sum(cpus)
