import json

import pytest

from corpus_reference import REFERENCE, row_result, rows

ROWS = list(rows())
EXPECTED = json.loads(REFERENCE.read_text())


def test_reference_covers_every_corpus_row():
    assert sorted(EXPECTED) == sorted(label for label, *_ in ROWS)


@pytest.mark.parametrize("label,name,counts,infinite", ROWS, ids=[r[0] for r in ROWS])
def test_corpus_row_matches_reference(label, name, counts, infinite):
    # sizes, generator images, representatives and tables of every finite
    # row, and the trip of every INFINITE row, as the reference recorded
    assert row_result(name, counts, infinite) == EXPECTED[label]
