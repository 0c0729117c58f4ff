import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_only_space_tab_and_return_separate_atoms():
    # a vertical tab or form feed is part of an atom, as any other character
    # but the separators, the parentheses and ';'
    [form] = parse_all("(a\x0bb\x0c c)")
    assert [(x.text, x.col) for x in form] == [("a\x0bb\x0c", 1), ("c", 6)]


def test_unparse_roundtrip():
    text = "(variety foo (axiom ((x elem)) (= (mul x x) x)))"
    assert unparse(parse_one(text)) == text


def test_parse_one_rejects_documents():
    with pytest.raises(SexprError):
        parse_one("(a) (b)")


def _walk(forms):
    for form in forms:
        yield form
        if isinstance(form, SList):
            yield from _walk(form.items)


def _structure(form):
    if isinstance(form, SList):
        return tuple(_structure(x) for x in form.items)
    return form.text


_ATOMS = st.sampled_from(["a", "b", "ab", "b\x0ba"])
_GAPS = st.sampled_from(["", " ", "\t", "\r", "\n", "\x0b", "; c (a)\n", "\r\n\t"])


@st.composite
def _documents(draw):
    """Well-formed documents: balanced forms with any gaps between tokens."""
    forms = draw(st.lists(st.recursive(_ATOMS, lambda sub: st.lists(sub, max_size=4)), max_size=3))

    def render(form):
        if isinstance(form, str):
            return form
        return "(" + draw(_GAPS) + "".join(render(x) + draw(_GAPS) for x in form) + ")"

    return draw(_GAPS) + "".join(render(f) + draw(_GAPS) for f in forms)


_TEXTS = st.one_of(st.text(alphabet="()ab c;\n\t\r\x0b", max_size=60), _documents())


@settings(max_examples=200, deadline=None)
@given(_TEXTS)
def test_positions_and_unparse_hold_on_any_text(text):
    try:
        forms = parse_all(text)
    except SexprError:
        return
    lines = text.split("\n")
    for form in _walk(forms):
        code = lines[form.line - 1]
        if isinstance(form, SList):
            assert code[form.col] == "("
        else:
            assert code[form.col : form.col + len(form.text)] == form.text
    for form in forms:
        assert _structure(parse_one(unparse(form))) == _structure(form)


_COMMENTS = st.text(alphabet="()ab c;\t\r\x0b", max_size=8).map(lambda c: ";" + c)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.one_of(st.sampled_from([" ", "\t", "\r", "\n"]), _COMMENTS.map(lambda c: c + "\n"))),
    st.one_of(st.just(""), _COMMENTS),
)
def test_a_text_without_tokens_is_an_empty_document(pieces, last):
    with pytest.raises(SexprError) as e:
        parse_all("".join(pieces) + last)
    assert str(e.value) == "1:0: empty document"
