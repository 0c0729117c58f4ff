import pytest

from conftest import load_entry_variety
from freealg.certify import (
    ActionSplit,
    CertificateError,
    classify_action_signature,
    restrict_to_part,
)
from freealg.sexpr import parse_one
from freealg.signature import DuplicateName, Signature, UnknownSort, validate_signature


def test_minimal_signature():
    sig = validate_signature(parse_one("(signature (sort elem) (op mul (elem elem) elem))"))
    assert len(sig.sorts) == 1
    assert len(sig.ops) == 1
    assert sig.op_named("mul").arity == 2
    assert sig.op_named("mul").result_sort == sig.sort_named("elem").id


def test_graph_signature():
    sig = validate_signature(
        parse_one(
            "(signature (sort edge) (sort vertex) (op h (edge) vertex) (op t (edge) vertex))"
        )
    )
    assert [s.name for s in sig.sorts] == ["edge", "vertex"]
    h = sig.op_named("h")
    assert h.arg_sorts == (sig.sort_named("edge").id,)
    assert h.result_sort == sig.sort_named("vertex").id


def test_unknown_sort_is_reported_with_location():
    with pytest.raises(UnknownSort) as e:
        validate_signature(parse_one("(signature (sort elem) (op f (foo) elem))"))
    assert "foo" in str(e.value)
    assert e.value.line is not None


def test_duplicate_names():
    with pytest.raises(DuplicateName):
        validate_signature(parse_one("(signature (sort a) (sort a))"))
    with pytest.raises(DuplicateName):
        validate_signature(parse_one("(signature (sort a) (op f (a) a) (op f () a))"))
    with pytest.raises(DuplicateName):
        Signature.make(["a", "a"], [])


def test_classify_semigroup_action():
    sig = Signature.make(
        ["s", "el"], [("mul", ["s", "s"], "s"), ("act", ["s", "el"], "el")]
    )
    split = classify_action_signature(sig)
    assert isinstance(split, ActionSplit)
    assert split.sort1 == sig.sort_named("s").id
    assert split.sort2 == sig.sort_named("el").id
    assert [o.name for o in split.ops1] == ["mul"]
    assert split.ops2 == ()
    assert split.action.name == "act"


def test_classify_rejects_three_sorts():
    sig = Signature.make(
        ["in", "state", "out"],
        [("step", ["in", "state"], "state"), ("emit", ["in", "state"], "out")],
    )
    with pytest.raises(
        CertificateError,
        match=r"^signature is not action-separated: signature has 3 sorts, need exactly 2$",
    ):
        classify_action_signature(sig)


def test_classify_rejects_one_sort():
    sig = Signature.make(["elem"], [("mul", ["elem", "elem"], "elem")])
    with pytest.raises(CertificateError, match=r"signature has 1 sorts, need exactly 2$"):
        classify_action_signature(sig)


def test_classify_rejects_second_cross_op():
    sig = Signature.make(
        ["a", "b"],
        [("act", ["a", "b"], "b"), ("other", ["b", "a"], "a")],
    )
    with pytest.raises(
        CertificateError, match=r"operation 'other' is a second cross-sort operation$"
    ):
        classify_action_signature(sig)


def test_classify_rejects_wrong_action_shape():
    sig = Signature.make(["a", "b"], [("u", ["a"], "b")])
    with pytest.raises(CertificateError, match=r"cross-sort operation 'u' is not binary$"):
        classify_action_signature(sig)
    # result sort must equal the second argument sort
    sig2 = Signature.make(["a", "b"], [("act", ["a", "b"], "a")])
    with pytest.raises(
        CertificateError, match=r"operation 'act' does not have action type \(1,2;2\)$"
    ):
        classify_action_signature(sig2)


def test_split_partitions_ops():
    for name in ("semigroup-actions-trivial", "group-reps-trivial-f2", "lie-reps-null-f2"):
        sig = load_entry_variety(name).sig
        split = classify_action_signature(sig)
        assert isinstance(split, ActionSplit)
        names = {o.name for o in split.ops1} | {o.name for o in split.ops2} | {split.action.name}
        assert names == {o.name for o in sig.ops}
        assert len(split.ops1) + len(split.ops2) + 1 == len(sig.ops)
        # deterministic and total
        again = classify_action_signature(sig)
        assert again == split


def test_restrict_to_part_shares_objects():
    sig = Signature.make(
        ["s", "el"], [("mul", ["s", "s"], "s"), ("act", ["s", "el"], "el")]
    )
    split = classify_action_signature(sig)
    sub_a = restrict_to_part(sig, split, 1)
    sub_b = restrict_to_part(sig, split, 1)
    assert sub_a is sub_b
    assert [s.name for s in sub_a.sorts] == ["s"]
    assert [o.name for o in sub_a.ops] == ["mul"]
    sub2 = restrict_to_part(sig, split, 2)
    assert sub2.ops == ()
