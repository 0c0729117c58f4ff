"""Well-sorted terms over a signature: hash-consed construction, parsing,
the height-style length of each term, and generator profiles.

Terms are interned per signature: two structurally equal terms are the
same object, so identity comparison and dict keys are cheap everywhere
downstream.  The intern table is guarded by a lock; node ids are stable
once issued.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass

from . import sexpr
from .sexpr import Atom, SList
from .signature import Op, Signature, SignatureError


class TermError(sexpr.InputError):
    pass


class SortError(TermError):
    pass


class UnboundVariable(TermError):
    pass


@dataclass(frozen=True)
class SortedVar:
    name: str
    sort: int


class Term:
    """Either a variable or an operation applied to child terms.

    Sort and length are fixed at construction: variables and constants have
    length 0, an application has length 1 + max over child lengths.
    """

    __slots__ = ("uid", "op", "var", "children", "sort", "length", "__weakref__")

    def __init__(self, uid, op, var, children, sort, length):
        self.uid = uid
        self.op = op
        self.var = var
        self.children = children
        self.sort = sort
        self.length = length

    def is_var(self) -> bool:
        return self.var is not None

    def __repr__(self) -> str:
        return term_to_text(self)

    def __hash__(self) -> int:
        return self.uid

    def __eq__(self, other) -> bool:
        return self is other


class TermArena:
    """Per-signature intern table for terms."""

    def __init__(self, sig: Signature):
        self.sig = sig
        self._lock = threading.Lock()
        self._vars: dict[tuple[str, int], Term] = {}
        self._apps: dict[tuple, Term] = {}
        self._next = 0

    def _fresh(self, op, var, children, sort, length) -> Term:
        t = Term(self._next, op, var, children, sort, length)
        self._next += 1
        return t

    def var(self, v: SortedVar) -> Term:
        key = (v.name, v.sort)
        with self._lock:
            t = self._vars.get(key)
            if t is None:
                t = self._fresh(None, v, (), v.sort, 0)
                self._vars[key] = t
            return t

    def apply(self, op: Op, children: tuple[Term, ...]) -> Term:
        if len(children) != op.arity:
            raise SortError(f"operation '{op.name}' expects {op.arity} arguments, got {len(children)}")
        for i, (c, want) in enumerate(zip(children, op.arg_sorts)):
            if c.sort != want:
                raise SortError(
                    f"argument {i + 1} of '{op.name}' has sort "
                    f"'{self.sig.sorts[c.sort].name}', expected '{self.sig.sorts[want].name}'"
                )
        key = (op.id,) + tuple(c.uid for c in children)
        with self._lock:
            t = self._apps.get(key)
            if t is None:
                length = 0 if op.arity == 0 else 1 + max(c.length for c in children)
                t = self._fresh(op, None, children, op.result_sort, length)
                self._apps[key] = t
            return t


_ARENAS: "weakref.WeakKeyDictionary[Signature, TermArena]" = weakref.WeakKeyDictionary()
_ARENA_LOCK = threading.Lock()


def arena_of(sig: Signature) -> TermArena:
    with _ARENA_LOCK:
        a = _ARENAS.get(sig)
        if a is None:
            a = TermArena(sig)
            _ARENAS[sig] = a
        return a


class GeneratorProfile:
    """Per-sort ordered lists of sorted variables; names unique overall."""

    def __init__(self, sig: Signature, by_sort: dict[int, tuple[SortedVar, ...]]):
        self.sig = sig
        self.by_sort = {s.id: tuple(by_sort.get(s.id, ())) for s in sig.sorts}
        seen: set[str] = set()
        for s in sig.sorts:
            for v in self.by_sort[s.id]:
                if v.sort != s.id:
                    raise TermError(f"variable '{v.name}' listed under the wrong sort")
                if v.name in seen:
                    raise TermError(f"duplicate variable name '{v.name}'")
                seen.add(v.name)
        self._by_name = {v.name: v for vs in self.by_sort.values() for v in vs}

    @classmethod
    def from_counts(cls, sig: Signature, counts: dict[str, int]) -> "GeneratorProfile":
        by_sort: dict[int, tuple[SortedVar, ...]] = {}
        one_sorted = len(sig.sorts) == 1
        for name, n in counts.items():
            s = sig.sort_named(name)
            if n < 0:
                raise TermError(f"negative generator count for sort '{name}'")
            prefix = "x" if one_sorted else name
            by_sort[s.id] = tuple(SortedVar(f"{prefix}{k + 1}", s.id) for k in range(n))
        return cls(sig, by_sort)

    @classmethod
    def of_counts(cls, sig: Signature, counts) -> "GeneratorProfile":
        """The profile with ``counts[i]`` generators of the i-th sort."""
        return cls.from_counts(sig, {s.name: n for s, n in zip(sig.sorts, counts)})

    @classmethod
    def of_vars(cls, sig: Signature, vs) -> "GeneratorProfile":
        by_sort: dict[int, list[SortedVar]] = {}
        for v in vs:
            by_sort.setdefault(v.sort, []).append(v)
        return cls(sig, {k: tuple(v) for k, v in by_sort.items()})

    def variables(self) -> tuple[SortedVar, ...]:
        return tuple(v for s in self.sig.sorts for v in self.by_sort[s.id])

    def lookup(self, name: str) -> SortedVar | None:
        return self._by_name.get(name)

    def counts(self) -> tuple[int, ...]:
        return tuple(len(self.by_sort[s.id]) for s in self.sig.sorts)

    def describe(self) -> str:
        return ",".join(
            f"{s.name}={len(self.by_sort[s.id])}" for s in self.sig.sorts
        )

    def __repr__(self) -> str:
        return f"GeneratorProfile({self.describe()})"


@dataclass(frozen=True)
class Identity:
    """A pair of same-sort terms together with their declared variables."""

    vars: GeneratorProfile
    lhs: Term
    rhs: Term

    def __post_init__(self):
        if self.lhs.sort != self.rhs.sort:
            raise SortError("identity sides have different sorts")
        declared = set(self.vars.variables())
        for side in (self.lhs, self.rhs):
            for v in free_vars(side):
                if v not in declared:
                    raise UnboundVariable(f"variable '{v.name}' not declared in the identity")

    def __repr__(self) -> str:
        return f"(= {term_to_text(self.lhs)} {term_to_text(self.rhs)})"


def free_vars(t: Term):
    found: dict[SortedVar, None] = {}  # in order of first occurrence
    _collect_vars(t, found)
    return tuple(found)


# The term walkers recurse at module level and take their state as
# arguments: a nested function that calls itself through its closure cell
# is a reference cycle, left for the cyclic collector on every call.
def _collect_vars(t: Term, found: dict[SortedVar, None]) -> None:
    if t.is_var():
        found[t.var] = None
    else:
        for c in t.children:
            _collect_vars(c, found)


def term_to_text(t: Term) -> str:
    if t.is_var():
        return t.var.name
    if not t.children:
        return f"({t.op.name})"
    return "(" + t.op.name + " " + " ".join(term_to_text(c) for c in t.children) + ")"


def parse_term(text_or_form, sig: Signature, vars: GeneratorProfile) -> Term:
    """Parse ``var-name | (op-name term*)`` into a well-sorted term."""
    form = sexpr.parse_one(text_or_form) if isinstance(text_or_form, str) else text_or_form
    return _build_term(form, sig, vars, arena_of(sig))


def _build_term(f, sig: Signature, vars: GeneratorProfile, arena: TermArena) -> Term:
    if isinstance(f, Atom):
        v = vars.lookup(f.text)
        if v is None:
            raise UnboundVariable(f"unbound variable '{f.text}'", f.line, f.col)
        return arena.var(v)
    assert isinstance(f, SList)
    if len(f) == 0 or not isinstance(f[0], Atom):
        raise TermError("expected (op-name term*)", f.line, f.col)
    name = f[0].text
    try:
        op = sig.op_named(name)
    except SignatureError:
        raise TermError(f"unknown operation '{name}'", f[0].line, f[0].col) from None
    children = tuple(_build_term(c, sig, vars, arena) for c in f.items[1:])
    try:
        return arena.apply(op, children)
    except SortError as e:
        raise SortError(e.msg, f.line, f.col) from None


def alpha_key(ident: Identity):
    """Structure of an identity with variables numbered by first occurrence.

    Two identities get the same key exactly when one is a variable renaming
    of the other (ignoring declared-but-unused variables).
    """
    numbering: dict[SortedVar, int] = {}
    return (_alpha_walk(ident.lhs, numbering), _alpha_walk(ident.rhs, numbering))


def _alpha_walk(t: Term, numbering: dict[SortedVar, int]):
    if t.is_var():
        return ("v", t.var.sort, numbering.setdefault(t.var, len(numbering)))
    return ("o", t.op.name, tuple(_alpha_walk(c, numbering) for c in t.children))


def transport_term(t: Term, source: Signature, target: Signature) -> Term:
    """Rebuild a term of ``source`` in ``target``, matching sorts and ops by
    name and keeping variable names."""
    return _transport(t, source, target, arena_of(target))


def _transport(t: Term, source: Signature, target: Signature, arena: TermArena) -> Term:
    if t.is_var():
        return arena.var(_transport_var(t.var, source, target))
    return arena.apply(target.op_named(t.op.name), tuple(_transport(c, source, target, arena) for c in t.children))


def _transport_var(v: SortedVar, source: Signature, target: Signature) -> SortedVar:
    return SortedVar(v.name, target.sort_named(source.sorts[v.sort].name).id)


def transport_identity(ident: Identity, target: Signature) -> Identity:
    """Rebuild an identity in another signature, matching sorts/ops by name."""
    src = ident.vars.sig
    profile = GeneratorProfile.of_vars(
        target, [_transport_var(v, src, target) for v in ident.vars.variables()]
    )
    return Identity(
        profile, transport_term(ident.lhs, src, target), transport_term(ident.rhs, src, target)
    )
