"""The corpus results that an engine change must leave as they are.

    PYTHONPATH=src python tests/corpus_reference.py

writes ``tests/corpus_reference.json``: for every finite ``expected`` row
of the corpus, the sizes, generator images, representatives and op tables
of its free algebra, and for every ``INFINITE`` row, built under the
entry's ``infinite_budget``, the ``(limit, classes, rounds)`` of its trip;
for every row, the per-round work counters (``BuildStats``) of its build or
its trip, so that an engine change which keeps the results but does other
work shows too; for every entry, the JSON report of its certificate; and
the report of the setcoup sort-swap demo.
``test_corpus_reference.py`` compares the engine against that file.
Rewrite it only for a change that is meant to alter results, and review
the diff: a rewrite prints the path of each value it changes, with the old
value and the new.
"""

from __future__ import annotations

import json
from pathlib import Path

from freealg.certify import run_certificate
from freealg.corpus import ENTRIES, INFINITE, load_entry, setcoup_swap_demo
from freealg.egraph import BudgetExceeded, build_free_algebra
from freealg.terms import GeneratorProfile

REFERENCE = Path(__file__).with_name("corpus_reference.json")


def row_label(name: str, counts) -> str:
    return f"{name} {','.join(map(str, counts))}"


def rows():
    """(label, name, counts, infinite) for every expected row, in corpus order."""
    for name, entry in ENTRIES.items():
        for counts, sizes in entry.expected:
            yield row_label(name, counts), name, counts, sizes == INFINITE


def row_result(name: str, counts, infinite: bool) -> dict:
    """What the reference holds for one row, as the engine builds it now."""
    v, _ = load_entry(name)
    prof = GeneratorProfile.of_counts(v.sig, counts)
    res = build_free_algebra(v, prof, ENTRIES[name].infinite_budget if infinite else None)
    if isinstance(res, BudgetExceeded):
        return {"trip": [res.limit, res.classes, res.rounds], "stats": res.stats.to_json_dict()}
    tables = res.algebra.tables
    return {
        "stats": res.stats.to_json_dict(),
        "sizes": list(res.algebra.sizes),
        "generator_images": {v.name: res.gen_images[v] for v in prof.variables()},
        "representatives": res.rep_strings(),
        # each op's results, in the sorted order of its argument tuples
        "tables": {op.name: [out for _, out in sorted(tables[op.id].items())] for op in v.sig.ops},
    }


def certificate_label(name: str) -> str:
    return f"{name} certificate"


def certificate_result(name: str) -> dict:
    """The entry's certificate report, as JSON would carry it."""
    return json.loads(json.dumps(run_certificate(*load_entry(name)).to_json_dict()))


SWAP_DEMO_LABEL = "setcoup swap demo"


def swap_demo_result() -> dict:
    """The setcoup sort-swap demo's report, as JSON would carry it."""
    return json.loads(json.dumps(setcoup_swap_demo().to_json_dict()))


ABSENT = object()  # the side of a changed leaf that lacks it


def shown(value) -> str:
    return "(absent)" if value is ABSENT else json.dumps(value)


def changed_leaves(old, new, path: str):
    """(path, old, new) for each leaf where two JSON values differ, in
    sorted key order; a side that lacks the leaf gives ``ABSENT``."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            step = f".{key}" if key.isidentifier() else f"[{json.dumps(key)}]"
            yield from changed_leaves(old.get(key, ABSENT), new.get(key, ABSENT), path + step)
    elif isinstance(old, list) and isinstance(new, list):
        for i in range(max(len(old), len(new))):
            pair = (old[i] if i < len(old) else ABSENT, new[i] if i < len(new) else ABSENT)
            yield from changed_leaves(*pair, f"{path}[{i}]")
    elif old != new:
        yield path, old, new


def main() -> None:
    data = {label: row_result(name, counts, inf) for label, name, counts, inf in rows()}
    data.update((certificate_label(name), certificate_result(name)) for name in ENTRIES)
    data[SWAP_DEMO_LABEL] = swap_demo_result()
    old = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    for label in sorted(old.keys() | data.keys()):
        leaves = changed_leaves(old.get(label, ABSENT), data.get(label, ABSENT), json.dumps(label))
        for path, was, now in leaves:
            print(f"{path}: {shown(was)} → {shown(now)}")
    REFERENCE.write_text(json.dumps(data, indent=0, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE} ({len(data)} rows)")


if __name__ == "__main__":
    main()
