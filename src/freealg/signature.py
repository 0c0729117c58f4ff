"""Sorted signatures: sort and operation declarations and validation.

After validation every sort and operation carries a dense integer id; the
rest of the library works with ids only.  Signatures are immutable once
built and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import sexpr
from .sexpr import Atom, SList


class SignatureError(sexpr.InputError):
    pass


class DuplicateName(SignatureError):
    pass


class UnknownSort(SignatureError):
    pass


@dataclass(frozen=True)
class Sort:
    id: int
    name: str


@dataclass(frozen=True)
class Op:
    id: int
    name: str
    arg_sorts: tuple[int, ...]
    result_sort: int

    @property
    def arity(self) -> int:
        return len(self.arg_sorts)


class Signature:
    """A validated set of sorts and typed operation symbols."""

    def __init__(self, sorts: tuple[Sort, ...], ops: tuple[Op, ...]):
        self.sorts = sorts
        self.ops = ops
        self.sort_by_name = {s.name: s for s in sorts}
        self.op_by_name = {o.name: o for o in ops}

    @classmethod
    def make(cls, sort_names, op_decls) -> "Signature":
        """Build from names: op_decls is (name, [arg sort names], result sort name)."""
        if not sort_names:
            raise SignatureError("a signature needs at least one sort")
        return _declare(sort_names, op_decls)

    def sort_named(self, name: str) -> Sort:
        try:
            return self.sort_by_name[name]
        except KeyError:
            raise UnknownSort(f"unknown sort '{name}'") from None

    def op_named(self, name: str) -> Op:
        try:
            return self.op_by_name[name]
        except KeyError:
            raise SignatureError(f"unknown operation '{name}'") from None

    def same_shape(self, other: "Signature") -> bool:
        return (
            [s.name for s in self.sorts] == [s.name for s in other.sorts]
            and [(o.name, o.arg_sorts, o.result_sort) for o in self.ops]
            == [(o.name, o.arg_sorts, o.result_sort) for o in other.ops]
        )

    def __repr__(self) -> str:
        return f"Signature({len(self.sorts)} sorts, {len(self.ops)} ops)"


def validate_signature(raw) -> Signature:
    """Parse and validate a ``(signature ...)`` form from a definition file."""
    form = sexpr.expect_list(raw, "signature")
    sort_decls: list[Atom] = []
    op_decls: list[tuple] = []
    for item in form.items[1:]:
        kind = sexpr.head(item)
        if kind == "sort":
            if len(item) != 2 or not isinstance(item[1], Atom):
                raise SignatureError("malformed sort declaration", item.line, item.col)
            sort_decls.append(item[1])
        elif kind == "op":
            if (
                len(item) != 4
                or not isinstance(item[1], Atom)
                or not isinstance(item[2], SList)
                or not isinstance(item[3], Atom)
            ):
                raise SignatureError("malformed op declaration", item.line, item.col)
            args = []
            for a in item[2]:
                if not isinstance(a, Atom):
                    raise SignatureError("op argument sorts must be names", item.line, item.col)
                args.append(a)
            op_decls.append((item[1], args, item[3]))
        else:
            raise SignatureError(
                f"unexpected form '{kind or '?'}' inside signature", item.line, item.col
            )
    if not sort_decls:
        raise SignatureError("signature declares no sorts", form.line, form.col)
    return _declare(sort_decls, op_decls)


def _declare(sort_names, op_decls) -> Signature:
    """Number the sorts and ops, rejecting duplicate and undeclared names.

    A name is a string, or an ``Atom`` (its ``str`` is its text) whose line
    and column the error carries.
    """
    ids: dict[str, int] = {}
    for name in sort_names:
        text = str(name)
        if not text:
            raise SignatureError("empty sort name")
        if text in ids:
            raise DuplicateName(f"duplicate sort '{text}'", *_at(name))
        ids[text] = len(ids)
    ops: list[Op] = []
    op_seen: set[str] = set()
    for name, args, res in op_decls:
        op_name = str(name)
        if op_name in op_seen:
            raise DuplicateName(f"duplicate operation '{op_name}'", *_at(name))
        op_seen.add(op_name)
        for a in [*args, res]:
            if str(a) not in ids:
                raise UnknownSort(
                    f"operation '{op_name}' refers to undeclared sort '{a}'", *_at(a)
                )
        ops.append(Op(len(ops), op_name, tuple(ids[str(a)] for a in args), ids[str(res)]))
    return Signature(tuple(Sort(i, n) for n, i in ids.items()), tuple(ops))


def _at(name) -> tuple:
    return (name.line, name.col) if isinstance(name, Atom) else ()

