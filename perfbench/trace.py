"""Span tracer for the benchmark's traced run.

The tracer wraps public functions of ``egraph``, ``certify``, ``finalg`` and
``corpus`` from outside the library, by replacing module and class
attributes.  Each wrapped call is a span; a span's self time is its
duration minus the durations of the spans it encloses.  A hook whose target
was renamed or deleted is skipped, and the metrics it feeds are reported as
absent.

``certify`` imports its helpers by name, so its spans wrap the names in the
``certify`` namespace; the ``finalg.*`` spans therefore count only calls made
from outside ``certify``.

E-graph counters are read from the live ``SaturationState`` whenever a
wrapped method returns or raises, so builds that trip a budget, whose
round is missing from ``BuildStats``, are still counted in full.  Summed
over all saturation states of the run:

* ``egraph.nodes_created``, ``egraph.merges``: the states' own counters;
  merges include those forced by congruence during rebuild;
* ``egraph.builds``: saturation states created (builds, nondegeneracy
  runs and consequence checks alike);
* ``egraph.peak_classes``: each state's highest observed live class count;
* ``egraph.kept_ratio``: live classes at the end / classes ever created
  (generators plus nodes).
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict

# (module, attribute path, span name); None marks the counting hook on
# SaturationState construction, which opens no span.
HOOKS = (
    ("freealg.egraph", "SaturationState.__init__", None),
    ("freealg.egraph", "SaturationState.grow", "egraph.grow"),
    ("freealg.egraph", "SaturationState.match_pass", "egraph.match"),
    ("freealg.egraph", "SaturationState.rebuild", "egraph.rebuild"),
    ("freealg.egraph", "freeze", "egraph.freeze"),
    ("freealg.egraph", "extract_representatives", "egraph.extract"),
    ("freealg.certify", "run_certificate", "certify.run"),
    ("freealg.certify", "nondegeneracy_check", "certify.nondeg"),
    ("freealg.certify", "build_free_algebra", "certify.build"),
    ("freealg.certify", "is_consequence", "certify.conseq"),
    ("freealg.certify", "find_isomorphism", "certify.iso"),
    ("freealg.certify", "satisfies_all", "certify.assembly"),
    ("freealg.finalg", "find_isomorphism", "finalg.iso"),
    ("freealg.finalg", "satisfies_all", "finalg.satisfies"),
    ("freealg.corpus", "load_entry", "files.parse"),
)

STATE_HOOK = "SaturationState.__init__"

# metric name -> (kind, span name); kind is 'self' (seconds) or 'calls'
SPAN_METRICS = {
    "egraph.grow_s": ("self", "egraph.grow"),
    "egraph.match_s": ("self", "egraph.match"),
    "egraph.rebuild_s": ("self", "egraph.rebuild"),
    "egraph.freeze_s": ("self", "egraph.freeze"),
    "egraph.extract_s": ("self", "egraph.extract"),
    "egraph.grow_calls": ("calls", "egraph.grow"),
    "egraph.match_passes": ("calls", "egraph.match"),
    "egraph.rebuild_calls": ("calls", "egraph.rebuild"),
    "certify.nondeg_s": ("self", "certify.nondeg"),
    "certify.nondeg_calls": ("calls", "certify.nondeg"),
    "certify.build_s": ("self", "certify.build"),
    "certify.build_calls": ("calls", "certify.build"),
    "certify.conseq_s": ("self", "certify.conseq"),
    "certify.conseq_calls": ("calls", "certify.conseq"),
    "certify.iso_s": ("self", "certify.iso"),
    "certify.iso_calls": ("calls", "certify.iso"),
    "certify.assembly_s": ("self", "certify.assembly"),
    "certify.self_s": ("self", "certify.run"),
    "finalg.iso_s": ("self", "finalg.iso"),
    "finalg.iso_calls": ("calls", "finalg.iso"),
    "finalg.satisfies_s": ("self", "finalg.satisfies"),
    "files.parse_s": ("self", "files.parse"),
}


def _resolve(module: str, path: str):
    """(owner, attribute, current value), or None if any step is missing."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    fn = getattr(owner, attr, None)
    if fn is None:
        return None
    return owner, attr, fn


class _StateRecord:
    __slots__ = ("values", "peak")

    def __init__(self):
        self.values = {}
        self.peak = 0


class Tracer:
    """Spans and e-graph counters for one traced process.

    Spans are recorded only while ``active`` is true, so the benchmark can
    leave its output checks untraced.
    """

    def __init__(self):
        self.active = False
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.records: list[_StateRecord] = []
        self._record_of: dict[int, _StateRecord] = {}  # by id() of a live state
        self.builds = 0
        self.missing: list[str] = []
        self._stack: list[list] = []  # [name, start, time in child spans]
        self._installed: list[tuple] = []
        self._hooked: set = set()

    # installation -------------------------------------------------------

    def install(self) -> None:
        for module, path, span in HOOKS:
            found = _resolve(module, path)
            if found is None:
                self.missing.append(f"{module}.{path}")
                continue
            owner, attr, fn = found
            if span is None:
                wrapper = self._wrap_state_init(fn)
            else:
                wrapper = self._wrap(span, fn, observe=path.startswith("SaturationState."))
            self._installed.append((owner, attr, fn))
            setattr(owner, attr, wrapper)
            self._hooked.add(span or STATE_HOOK)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._installed):
            setattr(owner, attr, fn)
        self._installed.clear()

    def _wrap(self, span: str, fn, observe: bool):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.enter(span)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit()
                if observe:
                    tracer.observe(args[0])

        return wrapper

    def _wrap_state_init(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(state, *args, **kwargs):
            fn(state, *args, **kwargs)
            if tracer.active:
                tracer.builds += 1
                tracer.new_record(state)
                tracer.observe(state)

        return wrapper

    # spans --------------------------------------------------------------

    def enter(self, span: str) -> None:
        self._stack.append([span, time.perf_counter(), 0.0])

    def exit(self) -> None:
        """Close the innermost span."""
        span, start, child = self._stack.pop()
        duration = time.perf_counter() - start
        self.self_time[span] += duration - child
        self.calls[span] += 1
        if self._stack:
            self._stack[-1][2] += duration

    def new_record(self, state) -> _StateRecord:
        # a freed state's id can be reused, so a record is never looked up
        # again once a new state has taken its id
        rec = self._record_of[id(state)] = _StateRecord()
        self.records.append(rec)
        return rec

    def observe(self, state) -> None:
        rec = self._record_of.get(id(state)) or self.new_record(state)
        for attr in ("nodes_created", "merges_done", "n_live", "parent"):
            value = getattr(state, attr, None)
            if value is not None:
                rec.values[attr] = len(value) if attr == "parent" else value
        rec.peak = max(rec.peak, rec.values.get("n_live", 0))

    # results ------------------------------------------------------------

    def total_self_time(self) -> float:
        return sum(self.self_time.values())

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric whose hooks and state attributes exist."""
        out: dict[str, float] = {}
        for name, (kind, span) in SPAN_METRICS.items():
            if span in self._hooked:
                out[name] = self.self_time[span] if kind == "self" else self.calls[span]
        if STATE_HOOK not in self._hooked:
            return out
        def total(attr):
            if any(attr not in r.values for r in self.records):
                return None
            return sum(r.values[attr] for r in self.records)

        out["egraph.builds"] = self.builds
        nodes, merges, live, ever = (total(a) for a in ("nodes_created", "merges_done", "n_live", "parent"))
        if nodes is not None:
            out["egraph.nodes_created"] = nodes
        if merges is not None:
            out["egraph.merges"] = merges
        if live is not None:
            out["egraph.peak_classes"] = sum(r.peak for r in self.records)
            if ever:
                out["egraph.kept_ratio"] = live / ever
        return out
