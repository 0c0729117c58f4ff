"""Write the reference outputs that the benchmark's checks compare against.

    PYTHONPATH=src:. python3 -m perfbench.make_reference

The committed files were written by the engine at the commit that added the
benchmark.  Rewrite them only for a change that is meant to alter results,
and review the diff: a speed-up must leave them unchanged.
"""

import json

from freealg import certify, corpus, egraph

from . import checks
from .workloads import REFERENCE_DIR, CertifyCorpus, SaturateFinite, profile_for


def main() -> None:
    digests = {}
    for item in SaturateFinite.ITEMS:
        variety, _ = corpus.load_entry(item.entry)
        result = egraph.build_free_algebra(variety, profile_for(variety, item.counts))
        digests[item.label] = checks.digest(checks.canonical_algebra(result))
    reports = {}
    for item in CertifyCorpus.ITEMS:
        variety, cert = corpus.load_entry(item.entry)
        reports[item.label] = certify.run_certificate(variety, cert).to_json_dict()
    for name, data in ((SaturateFinite.name, digests), (CertifyCorpus.name, reports)):
        path = REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
