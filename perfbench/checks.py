"""Output checks for the benchmark's items.

Every check compares a result with something the engine under test did not
produce: the corpus's hand-written expected sizes, reference digests and
reports committed with the benchmark, or the benchmark's own table walk.
A check raises ``CheckFailed`` on the first disagreement.
"""

from __future__ import annotations

import hashlib
import json

from freealg import egraph, finalg


class CheckFailed(Exception):
    """An item's output disagrees with its reference."""


def canonical_algebra(result) -> dict:
    """Sizes, generator images, representatives and op tables, keyed by name."""
    sig = result.variety.sig
    tables = result.algebra.tables
    return {
        "sizes": list(result.algebra.sizes),
        "generator_images": {v.name: result.gen_images[v] for v in result.profile.variables()},
        "representatives": result.rep_strings(),
        "tables": {
            op.name: [[list(args), res] for args, res in sorted(tables[op.id].items())]
            for op in sig.ops
        },
    }


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def check_finite(result, expected_sizes, axioms, reference_digest: str) -> None:
    """A saturated build: expected sizes, every axiom holds, reference digest."""
    if isinstance(result, egraph.BudgetExceeded):
        raise CheckFailed(f"budget exceeded ({result.limit}) on a finite row")
    sizes = tuple(result.algebra.sizes)
    if sizes != tuple(expected_sizes):
        raise CheckFailed(f"sizes {sizes}, expected {tuple(expected_sizes)}")
    verdict = finalg.satisfies_all(result.algebra, axioms)
    if verdict is not True:
        raise CheckFailed(f"axiom violated: {verdict.describe()}")
    got = digest(canonical_algebra(result))
    if got != reference_digest:
        raise CheckFailed(f"digest {got[:12]} differs from the reference {reference_digest[:12]}")


def check_trip(result) -> None:
    """A row whose free algebra is infinite must trip its budget."""
    if not isinstance(result, egraph.BudgetExceeded):
        raise CheckFailed(f"saturated with sizes {tuple(result.algebra.sizes)}; expected a budget trip")


def canonical_report(report) -> str:
    return json.dumps(report.to_json_dict(), sort_keys=True)


def check_certificate(report, rank, reference: dict) -> None:
    """Certified at the certificate's own rank, and the report is the reference."""
    if report.status not in ("certified", "certified_conditional"):
        raise CheckFailed(f"status {report.status}: {report.detail}")
    if report.rank != rank:
        raise CheckFailed(f"rank {report.rank}, the certificate declares {rank}")
    if canonical_report(report) != json.dumps(reference, sort_keys=True):
        raise CheckFailed("report differs from the committed reference")


def check_isomorphism(iso, a, b) -> None:
    """``iso`` maps a onto b bijectively and commutes with every op, entry by entry."""
    if iso is None:
        raise CheckFailed("no isomorphism found between an algebra and its relabeling")
    maps = iso.maps
    for s, n in enumerate(a.sizes):
        if sorted(maps[s]) != list(range(b.sizes[s])) or len(maps[s]) != n:
            raise CheckFailed(f"map on sort {s} is not a bijection")
    for op in a.sig.ops:
        target = b.tables[op.id]
        for args, res in a.tables[op.id].items():
            image = tuple(maps[s][x] for x, s in zip(args, op.arg_sorts))
            if target[image] != maps[op.result_sort][res]:
                raise CheckFailed(f"'{op.name}' does not commute at {args}")
