import pytest

from freealg.sexpr import SexprError, SList, parse_all, parse_one, unparse


def test_atoms_and_lists():
    forms = parse_all("(a b (c d) e)\nf")
    assert len(forms) == 2
    assert isinstance(forms[0], SList)
    assert forms[0][0].text == "a"
    assert isinstance(forms[0][2], SList)
    assert forms[1].text == "f"


def test_comments_and_locations():
    form = parse_one("; leading comment\n  (axiom x)")
    assert form.line == 2
    assert form[1].line == 2
    assert form[1].col > form.col


def test_unbalanced():
    with pytest.raises(SexprError):
        parse_all("(a (b)")
    with pytest.raises(SexprError):
        parse_all("a) b")
    with pytest.raises(SexprError):
        parse_all("   ")


def test_unparse_roundtrip():
    text = "(variety foo (axiom ((x elem)) (= (mul x x) x)))"
    assert unparse(parse_one(text)) == text


def test_parse_one_rejects_documents():
    with pytest.raises(SexprError):
        parse_one("(a) (b)")
