"""Every report encodes each dataclass field under its own name, and its JSON
survives a round trip.  The reports come from real runs, one case per kind
of report the CLI writes."""

import json
from dataclasses import fields

import pytest

from conftest import load_entry_variety, profile_of
from freealg.certify import REFUTED, certify_fujiwara, run_certificate
from freealg.corpus import load_entry, run_corpus
from freealg.egraph import Budget, BudgetExceeded, build_free_algebra
from freealg.report import Report
from functor import identity_morphism


def certified(monkeypatch):
    report = run_certificate(*load_entry("boolean-groups"))
    assert report.certified and report.iso_matrix
    return report


def refuted(monkeypatch):
    # as in test_sweep_stops_at_the_first_isomorphism: a search that always
    # answers is the only way to reach the refuted branch
    monkeypatch.setattr(
        "freealg.certify.find_isomorphism", lambda a, b: identity_morphism(a)
    )
    report = certify_fujiwara(load_entry_variety("boolean-groups"), [], 2)
    assert report.status == REFUTED
    return report


def budget_trip(monkeypatch):
    v = load_entry_variety("automata")
    res = build_free_algebra(v, profile_of(v, (1, 1, 1)), Budget(max_rounds=3))
    assert isinstance(res, BudgetExceeded) and len(res.stats.rounds) == 3
    return res


def corpus_entry_with_demo(monkeypatch):
    report = run_corpus(["setcoup"])
    data = report.to_json_dict()
    assert data["setcoup_demo"] == report.setcoup_demo.to_json_dict()
    assert data["entries"] == [report.entries[0].to_json_dict()]
    return report.entries[0], report.setcoup_demo


CASES = [certified, refuted, budget_trip, corpus_entry_with_demo]


def reports_in(value):
    """Every report in ``value``, nested ones included."""
    if isinstance(value, Report):
        yield value
        for f in fields(value):
            yield from reports_in(getattr(value, f.name))
    elif isinstance(value, (tuple, list)):
        for v in value:
            yield from reports_in(v)
    elif isinstance(value, dict):
        for v in value.values():
            yield from reports_in(v)


@pytest.mark.parametrize("make", CASES, ids=lambda f: f.__name__)
def test_each_report_encodes_its_fields_by_name(monkeypatch, make):
    for report in reports_in(make(monkeypatch)):
        data = report.to_json_dict()
        assert list(data) == [f.name for f in fields(report)], type(report).__name__
        assert json.loads(json.dumps(data)) == data


def test_the_cases_cover_every_report_class(monkeypatch):
    seen = {type(r) for make in CASES for r in reports_in(make(monkeypatch))}
    assert seen == set(Report.__subclasses__())
