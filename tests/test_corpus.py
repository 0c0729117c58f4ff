import pytest


from conftest import entry_models, serialize_variety
from freealg.corpus import (
    ENTRIES,
    INFINITE,
    entry_names,
    load_entry,
    run_corpus,
    run_entry,
)
from freealg.files import parse_variety_document
from freealg.finalg import satisfies_all
from freealg.terms import alpha_key


@pytest.fixture(scope="module")
def full_report():
    return run_corpus()


def test_every_entry_passes(full_report):
    for entry in full_report.entries:
        assert entry.ok, (entry.name, entry.messages, [r.to_json_dict() for r in entry.sizes])
    assert full_report.ok


def test_expected_sizes_exact(full_report):
    by_name = {e.name: e for e in full_report.entries}
    assert by_name["boolean-groups"].sizes[3].got == (16,)
    assert by_name["comm-idem-semigroups"].sizes[4].got == (31,)
    assert by_name["graphs"].sizes[2].got == (3, 9)
    assert by_name["group-reps-trivial-f2"].sizes[2].got == (1, 8)


def test_infinite_profiles_reproduce_budget(full_report):
    for entry in full_report.entries:
        spec = dict(ENTRIES[entry.name].expected)
        for row in entry.sizes:
            if spec[tuple(row.counts)] == INFINITE:
                assert row.got == "budget_exceeded"
                assert row.ok


def test_certificates_reach_declared_status(full_report):
    conditional = {"semigroup-actions-trivial", "group-reps-trivial-f2", "lie-reps-null-f2"}
    for entry in full_report.entries:
        if entry.name in conditional:
            assert entry.certificate_status == "certified_conditional"
        else:
            assert entry.certificate_status == "certified"


def test_models_satisfy_their_varieties():
    for name in entry_names():
        v, _ = load_entry(name)
        models = entry_models(name, v)
        assert models, f"{name} has no models"
        for model in models:
            assert satisfies_all(model, v.axioms) is True, name


def test_setcoup_swap_demo(full_report):
    demo = full_report.setcoup_demo
    assert demo is not None
    assert demo.objects_checked == 16
    assert demo.morphisms_checked == 3600
    assert demo.involution_ok
    assert demo.asymmetry_noniso
    assert demo.certificate_status == "certified"
    assert demo.ok


def test_unknown_entry_name():
    with pytest.raises(KeyError):
        run_corpus(["no-such-entry"])


def test_single_entry_run():
    res = run_entry("sets")
    assert res.ok
    assert res.certificate_status == "certified"


def test_entry_documents_roundtrip():
    for name in entry_names():
        v, cert = load_entry(name)
        text = serialize_variety(v)
        again = parse_variety_document(text)
        assert again.name == v.name
        assert again.sig.same_shape(v.sig)
        assert len(again.axioms) == len(v.axioms)
        for a, b in zip(again.axioms, v.axioms):
            assert alpha_key(a) == alpha_key(b)


def test_registry_is_complete():
    names = set(entry_names())
    assert {
        "sets",
        "graphs",
        "automata",
        "left-zero",
        "comm-idem-semigroups",
        "boolean-groups",
        "elem-abelian-3",
        "f2-vector-spaces",
        "f3-vector-spaces",
        "null-mul-f2",
        "semigroup-actions-trivial",
        "group-reps-trivial-f2",
        "lie-reps-null-f2",
        "setcoup",
    } == names
