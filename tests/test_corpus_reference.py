import json

import pytest

from corpus_reference import (
    REFERENCE,
    SWAP_DEMO_LABEL,
    certificate_label,
    certificate_result,
    row_result,
    rows,
    swap_demo_result,
)
from freealg.corpus import ENTRIES

ROWS = list(rows())
EXPECTED = json.loads(REFERENCE.read_text())


def test_reference_covers_every_corpus_row():
    labels = [label for label, *_ in ROWS] + [certificate_label(name) for name in ENTRIES]
    labels.append(SWAP_DEMO_LABEL)
    assert sorted(EXPECTED) == sorted(labels)


@pytest.mark.parametrize("label,name,counts,infinite", ROWS, ids=[r[0] for r in ROWS])
def test_corpus_row_matches_reference(label, name, counts, infinite):
    # sizes, generator images, representatives and tables of every finite
    # row, and the trip of every INFINITE row, as the reference recorded
    assert row_result(name, counts, infinite) == EXPECTED[label]


@pytest.mark.parametrize("name", list(ENTRIES))
def test_certificate_report_matches_reference(name):
    # verdict, rank, nondegeneracy, profile evidence, iso matrix,
    # assumptions and detail of every corpus certificate
    assert certificate_result(name) == EXPECTED[certificate_label(name)]


def test_swap_demo_report_matches_reference():
    # objects and morphisms checked, involution, asymmetry and certificate
    # of the setcoup sort-swap demo
    assert swap_demo_result() == EXPECTED[SWAP_DEMO_LABEL]
