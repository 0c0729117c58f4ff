"""Named example varieties with certificates, expected free-algebra sizes,
and small concrete models.

Each entry's definition and certificate live as ordinary text files under
``data/corpus`` and double as format documentation.  Expected sizes are
exact per-sort cardinalities; INFINITE marks profiles whose free algebras
never saturate, reproduced as a budget trip under the entry's cap.

One classical non-example is documented here but has no executable entry:
left modules over the ring of all linear operators of an
infinite-dimensional vector space lack the invariant-basis property (all
finitely generated free modules are isomorphic).  That construction is
not finitely presentable at desk scale.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from importlib import resources

from .certify import run_certificate
from .dfunctor import hom_from_gen_images
from .egraph import Budget, BudgetExceeded, VarietyDef, build_free_algebra
from .files import parse_certificate_document, parse_variety_document
from .finalg import FiniteAlgebra, find_isomorphism
from .terms import GeneratorProfile, term_profile_iso

INFINITE = "infinite"


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    expected: tuple  # ((counts, sizes-or-INFINITE), ...)
    oracle_profiles: tuple = ()
    notes: str = ""
    # cap applied when reproducing an expected-infinite profile, so the
    # corpus run stays fast; the default budget trips too, just slower
    infinite_budget: Budget = field(default=Budget(max_classes=4000, max_rounds=64))


ENTRIES: dict[str, CorpusEntry] = {}


def _entry(name, expected, oracle_profiles=(), notes=""):
    ENTRIES[name] = CorpusEntry(
        name=name,
        expected=tuple(expected),
        oracle_profiles=tuple(oracle_profiles),
        notes=notes,
    )


_entry(
    "sets",
    [((1,), (1,)), ((3,), (3,)), ((5,), (5,))],
    oracle_profiles=[(1,), (2,)],
    notes="free algebra on n generators is the n-element set",
)
_entry(
    "graphs",
    [((1, 1), (1, 3)), ((2, 1), (2, 5)), ((3, 3), (3, 9))],
    oracle_profiles=[(1, 1), (2, 2)],
    notes="edge sort keeps its generators; vertex sort gains a head and a tail per edge",
)
_entry(
    "automata",
    [((0, 2, 0), (0, 2, 0)), ((1, 1, 0), INFINITE), ((1, 1, 1), INFINITE)],
    notes="state terms nest without bound once an input generator exists",
)
_entry(
    "left-zero",
    [((n,), (n,)) for n in range(1, 7)],
    oracle_profiles=[(2,), (3,)],
    notes="free algebra is the generator set; every set map is a homomorphism",
)
_entry(
    "comm-idem-semigroups",
    [((n,), (2**n - 1,)) for n in range(1, 6)],
    oracle_profiles=[(1,), (2,), (3,)],
    notes="elements are nonempty generator subsets: 2^n - 1",
)
_entry(
    "boolean-groups",
    [((n,), (2**n,)) for n in range(1, 5)],
    oracle_profiles=[(1,), (2,)],
    notes="free algebra on n generators is the elementary abelian 2-group of rank n",
)
_entry(
    "elem-abelian-3",
    [((n,), (3**n,)) for n in range(1, 4)],
    oracle_profiles=[(1,), (2,)],
    notes="free algebra on n generators is the elementary abelian 3-group of rank n",
)
_entry(
    "f2-vector-spaces",
    [((n,), (2**n,)) for n in range(1, 4)],
    oracle_profiles=[(1,), (2,)],
    notes="free algebra on n generators is the n-dimensional space: 2^n vectors",
)
_entry(
    "f3-vector-spaces",
    [((n,), (3**n,)) for n in range(1, 4)],
    oracle_profiles=[(1,), (2,)],
    notes="free algebra on n generators has 3^n vectors",
)
_entry(
    "null-mul-f2",
    [((n,), (2**n,)) for n in range(1, 4)],
    oracle_profiles=[(1,), (2,)],
    notes="null multiplication adds nothing: plain 2^n vector spaces",
)
_entry(
    "semigroup-actions-trivial",
    [((0, 1), (0, 1)), ((0, 3), (0, 3)), ((1, 1), INFINITE)],
    oracle_profiles=[(0, 1), (0, 2)],
    notes="set sort stays free under the trivial action; semigroup sort is a free semigroup",
)
_entry(
    "group-reps-trivial-f2",
    [((0, 1), (1, 2)), ((0, 2), (1, 4)), ((0, 3), (1, 8)), ((1, 0), INFINITE)],
    oracle_profiles=[(0, 1), (0, 2)],
    notes="with no group generators the vector sort is the free vector space: 2^n",
)
_entry(
    "lie-reps-null-f2",
    [((0, 1), (1, 2)), ((0, 2), (1, 4)), ((0, 3), (1, 8)), ((1, 0), (2, 1)), ((2, 0), INFINITE)],
    oracle_profiles=[(0, 1), (1, 0)],
    notes="null action keeps the vector sort free; one Lie generator spans a 2-element line",
)
_entry(
    "setcoup",
    [((1, 0), (1, 0)), ((0, 1), (0, 1)), ((2, 3), (2, 3))],
    oracle_profiles=[(1, 1)],
    notes="free couple of sets is the pair of generator sets",
)


def entry_names() -> tuple[str, ...]:
    return tuple(ENTRIES)


def _data_text(filename: str) -> str:
    return resources.files("freealg").joinpath("data/corpus").joinpath(filename).read_text()


def load_entry(name: str):
    """(VarietyDef, Certificate) for a corpus entry."""
    if name not in ENTRIES:
        raise KeyError(name)
    v = parse_variety_document(_data_text(f"{name}.var"))
    cert = parse_certificate_document(_data_text(f"{name}.cert"), v)
    return v, cert


def load_entry_variety(name: str) -> VarietyDef:
    return load_entry(name)[0]


def _xor(x, y):
    return x ^ y


_MODEL_SPECS: dict[str, list] = {
    "sets": [({"elem": 2}, {})],
    "graphs": [({"edge": 1, "vertex": 2}, {"h": lambda e: 0, "t": lambda e: 1})],
    "automata": [
        ({"in": 1, "state": 1, "out": 1}, {"step": lambda i, s: 0, "emit": lambda i, s: 0})
    ],
    "left-zero": [({"elem": 2}, {"mul": lambda x, y: x})],
    "comm-idem-semigroups": [({"elem": 2}, {"mul": min})],
    "boolean-groups": [
        ({"elem": 2}, {"mul": _xor, "inv": lambda x: x, "e": lambda: 0}),
    ],
    "elem-abelian-3": [
        ({"elem": 3}, {"mul": lambda x, y: (x + y) % 3, "inv": lambda x: (-x) % 3, "e": lambda: 0}),
    ],
    "f2-vector-spaces": [
        ({"v": 2}, {"plus": _xor, "zero": lambda: 0, "s0": lambda x: 0, "s1": lambda x: x}),
    ],
    "f3-vector-spaces": [
        (
            {"v": 3},
            {
                "plus": lambda x, y: (x + y) % 3,
                "zero": lambda: 0,
                "s0": lambda x: 0,
                "s1": lambda x: x,
                "s2": lambda x: (2 * x) % 3,
            },
        ),
    ],
    "null-mul-f2": [
        (
            {"v": 2},
            {
                "plus": _xor,
                "zero": lambda: 0,
                "s0": lambda x: 0,
                "s1": lambda x: x,
                "mul": lambda x, y: 0,
            },
        ),
    ],
    "semigroup-actions-trivial": [
        ({"s": 1, "el": 2}, {"mul": lambda x, y: 0, "act": lambda x, u: u}),
    ],
    "group-reps-trivial-f2": [
        (
            {"g": 1, "v": 2},
            {
                "mul": lambda x, y: 0,
                "inv": lambda x: 0,
                "e": lambda: 0,
                "plus": _xor,
                "zero": lambda: 0,
                "s0": lambda x: 0,
                "s1": lambda x: x,
                "act": lambda x, u: u,
            },
        ),
    ],
    "lie-reps-null-f2": [
        (
            {"L": 1, "v": 2},
            {
                "ladd": lambda x, y: 0,
                "lzero": lambda: 0,
                "l0": lambda x: 0,
                "l1": lambda x: x,
                "br": lambda x, y: 0,
                "plus": _xor,
                "zero": lambda: 0,
                "s0": lambda x: 0,
                "s1": lambda x: x,
                "act": lambda x, u: 0,
            },
        ),
    ],
    "setcoup": [({"a": 2, "b": 1}, {})],
}


def entry_models(name: str, v: VarietyDef) -> list[FiniteAlgebra]:
    """Small concrete algebras of the entry's variety, for spot checks."""
    out = []
    for sizes, tables in _MODEL_SPECS.get(name, []):
        out.append(FiniteAlgebra.make(v.sig, sizes, tables))
    return out


@dataclass
class SizeRow:
    counts: tuple
    expected: object
    got: object
    ok: bool

    def to_json_dict(self) -> dict:
        return {
            "counts": list(self.counts),
            "expected": self.expected if self.expected == INFINITE else list(self.expected),
            "got": self.got if isinstance(self.got, str) else list(self.got),
            "ok": self.ok,
        }


@dataclass
class EntryResult:
    name: str
    sizes: list[SizeRow]
    cert_status: str
    cert_ok: bool
    messages: list[str]

    @property
    def ok(self) -> bool:
        return self.cert_ok and all(r.ok for r in self.sizes) and not self.messages

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "sizes": [r.to_json_dict() for r in self.sizes],
            "certificate_status": self.cert_status,
            "certificate_ok": self.cert_ok,
            "messages": list(self.messages),
            "ok": self.ok,
        }


@dataclass
class SwapReport:
    objects_checked: int
    morphisms_checked: int
    involution_ok: bool
    asymmetry_profiles: tuple
    asymmetry_noniso: bool
    certificate_status: str
    violations: list[str]

    @property
    def ok(self) -> bool:
        return (
            self.involution_ok
            and self.asymmetry_noniso
            and self.certificate_status == "certified"
            and not self.violations
        )

    def to_json_dict(self) -> dict:
        return {
            "objects_checked": self.objects_checked,
            "morphisms_checked": self.morphisms_checked,
            "involution_ok": self.involution_ok,
            "asymmetry_profiles": [list(p) for p in self.asymmetry_profiles],
            "asymmetry_noniso": self.asymmetry_noniso,
            "certificate_status": self.certificate_status,
            "violations": list(self.violations),
            "ok": self.ok,
        }


@dataclass
class CorpusReport:
    entries: list[EntryResult]
    swap: SwapReport | None = None

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries) and (self.swap is None or self.swap.ok)

    def to_json_dict(self) -> dict:
        out = {"entries": [e.to_json_dict() for e in self.entries], "ok": self.ok}
        if self.swap is not None:
            out["setcoup_demo"] = self.swap.to_json_dict()
        return out


def _profile_for(v: VarietyDef, counts) -> GeneratorProfile:
    return GeneratorProfile.from_counts(
        v.sig, {s.name: c for s, c in zip(v.sig.sorts, counts)}
    )


def run_entry(name: str, budget: Budget | None = None) -> EntryResult:
    budget = budget or Budget()
    entry = ENTRIES[name]
    v, cert = load_entry(name)
    rows: list[SizeRow] = []
    messages: list[str] = []
    for counts, expected in entry.expected:
        prof = _profile_for(v, counts)
        if expected == INFINITE:
            cap = Budget(
                max_classes=min(budget.max_classes, entry.infinite_budget.max_classes),
                max_rounds=min(budget.max_rounds, entry.infinite_budget.max_rounds),
            )
            res = build_free_algebra(v, prof, cap)
            got = "budget_exceeded" if isinstance(res, BudgetExceeded) else res.algebra.sizes
            rows.append(SizeRow(counts, INFINITE, got, isinstance(res, BudgetExceeded)))
        else:
            res = build_free_algebra(v, prof, budget)
            if isinstance(res, BudgetExceeded):
                rows.append(SizeRow(counts, expected, "budget_exceeded", False))
            else:
                got = res.algebra.sizes
                rows.append(SizeRow(counts, expected, got, got == tuple(expected)))
    report = run_certificate(v, cert, budget)
    cert_ok = report.certified
    if not cert_ok:
        messages.append(f"certificate: {report.status}: {report.detail}")
    return EntryResult(name, rows, report.status, cert_ok, messages)


def run_corpus(names=None, budget: Budget | None = None) -> CorpusReport:
    budget = budget or Budget()
    selected = list(ENTRIES) if not names else list(names)
    for n in selected:
        if n not in ENTRIES:
            raise KeyError(n)
    results = [run_entry(n, budget) for n in selected]
    swap = setcoup_swap_demo(budget) if "setcoup" in selected else None
    return CorpusReport(results, swap)


def setcoup_swap_demo(budget: Budget | None = None, max_count: int = 3) -> SwapReport:
    """The sort-swap functor on couples of sets: an involution that still
    moves the one-generator free algebra to a non-isomorphic one."""
    budget = budget or Budget()
    v, cert = load_entry("setcoup")
    sig = v.sig
    violations: list[str] = []

    frees = {}
    for m in range(max_count + 1):
        for n in range(max_count + 1):
            prof = _profile_for(v, (m, n))
            res = build_free_algebra(v, prof, budget)
            assert not isinstance(res, BudgetExceeded)
            frees[(m, n)] = res

    def swap(profile):
        return (profile[1], profile[0])

    objects_checked = 0
    for p in frees:
        objects_checked += 1
        if swap(swap(p)) != p:
            violations.append(f"object involution failed on {p}")
        if frees[swap(swap(p))].algebra.sizes != frees[p].algebra.sizes:
            violations.append(f"double swap changed the algebra on {p}")

    # a morphism F(A) -> F(C) is determined by a pair of generator-index
    # maps; the functor exchanges the two components and materializes on
    # the swapped objects
    def materialize(a, c, fa, fb):
        src, dst = frees[a], frees[c]
        images = {}
        for s, col in ((0, fa), (1, fb)):
            sort = sig.sorts[s]
            for k, var in enumerate(src.profile.by_sort[sort.id]):
                target_var = dst.profile.by_sort[sort.id][col[k]]
                images[var] = dst.gen_images[target_var]
        return hom_from_gen_images(src, dst, images)

    def extract_index_maps(table, a, c):
        src, dst = frees[a], frees[c]
        out = []
        for s in sig.sorts:
            back = {dst.gen_images[var]: k for k, var in enumerate(dst.profile.by_sort[s.id])}
            out.append(
                tuple(back[table(s.id, src.gen_images[var])] for var in src.profile.by_sort[s.id])
            )
        return tuple(out)

    def apply_swap(table, a, c):
        fa, fb = extract_index_maps(table, a, c)
        return materialize(swap(a), swap(c), fb, fa), swap(a), swap(c)

    def index_maps(a, c):
        k, l = a
        p, r = c
        for fa in itertools.product(range(p), repeat=k):
            for fb in itertools.product(range(r), repeat=l):
                yield (fa, fb)

    morphisms_checked = 0
    for a in frees:
        for c in frees:
            for fa, fb in index_maps(a, c):
                morphisms_checked += 1
                original = materialize(a, c, fa, fb)
                once, a1, c1 = apply_swap(original, a, c)
                twice, a2, c2 = apply_swap(once, a1, c1)
                if (a2, c2) != (a, c) or twice != original:
                    violations.append(f"morphism involution failed between {a} and {c}")

    left = frees[(1, 0)]
    right = frees[(0, 1)]
    profile_iso = term_profile_iso(left.profile, right.profile, sig)
    iso = find_isomorphism(left.algebra, right.algebra)
    asymmetry_ok = (not profile_iso) and iso is None
    report = run_certificate(v, cert, budget)
    return SwapReport(
        objects_checked=objects_checked,
        morphisms_checked=morphisms_checked,
        involution_ok=not violations,
        asymmetry_profiles=((1, 0), (0, 1)),
        asymmetry_noniso=asymmetry_ok,
        certificate_status=report.status,
        violations=violations,
    )
