"""Small s-expression reader used by the variety and certificate file formats.

Atoms are bare symbols, lists are parenthesized, a ``;`` starts a comment
that runs to end of line.  Every parsed node keeps the line/column of its
first token so later validation stages can point at the offending form.
"""

from __future__ import annotations

import re
from dataclasses import dataclass


class InputError(Exception):
    """Malformed input: a message, after its ``line:col: `` when given."""

    def __init__(self, msg: str, line: int | None = None, col: int | None = None):
        super().__init__(msg if line is None else f"{line}:{col}: {msg}")
        self.msg = msg
        self.line = line
        self.col = col


class SexprError(InputError):
    """Syntax error with a source location."""


@dataclass(frozen=True)
class Atom:
    text: str
    line: int = 0
    col: int = 0

    def __str__(self) -> str:
        return self.text


@dataclass(frozen=True)
class SList:
    items: tuple
    line: int = 0
    col: int = 0

    def __len__(self) -> int:
        return len(self.items)

    def __getitem__(self, i):
        return self.items[i]

    def __iter__(self):
        return iter(self.items)


_TOKEN = re.compile(r"[()]|[^ \t\r();]+")


def _tokens(text: str):
    # split, not splitlines: only "\n" ends a line; "\x0b" and "\x0c" are atom text
    for line, code in enumerate(text.split("\n"), 1):
        for m in _TOKEN.finditer(code.partition(";")[0]):
            yield m.group(), line, m.start()


def parse_all(text: str) -> list:
    """Parse a document into a list of top-level Atom/SList forms."""
    stack: list[list] = []
    marks: list[tuple[int, int]] = []
    top: list = []
    for tok, line, col in _tokens(text):
        if tok == "(":
            stack.append([])
            marks.append((line, col))
        elif tok == ")":
            if not stack:
                raise SexprError("unexpected ')'", line, col)
            items = stack.pop()
            l, c = marks.pop()
            form = SList(tuple(items), l, c)
            (stack[-1] if stack else top).append(form)
        else:
            atom = Atom(tok, line, col)
            (stack[-1] if stack else top).append(atom)
    if stack:
        l, c = marks[-1]
        raise SexprError("unclosed '('", l, c)
    if not top:
        raise SexprError("empty document", 1, 0)
    return top


def parse_one(text: str):
    forms = parse_all(text)
    if len(forms) != 1:
        raise SexprError("expected a single form", forms[1].line, forms[1].col)
    return forms[0]


def unparse(form) -> str:
    """Render a form back to text."""
    if isinstance(form, Atom):
        return form.text
    return "(" + " ".join(unparse(x) for x in form.items) + ")"


def head(form) -> str:
    """Keyword of a list form, or '' when it is not a keyword list."""
    if isinstance(form, SList) and len(form) > 0 and isinstance(form[0], Atom):
        return form[0].text
    return ""


def expect_list(form, keyword: str) -> SList:
    if not isinstance(form, SList) or head(form) != keyword:
        raise SexprError(f"expected ({keyword} ...)", form.line, form.col)
    return form


def atom_text(form, what: str) -> str:
    if not isinstance(form, Atom):
        raise SexprError(f"expected {what}", form.line, form.col)
    return form.text
