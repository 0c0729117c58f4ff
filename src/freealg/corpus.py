"""Named example varieties with certificates and expected free-algebra
sizes, and the sort-swap demo on couples of sets.

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
from typing import ClassVar

from .certify import run_certificate
from .egraph import Budget, BudgetExceeded, FreeAlgebraResult, build_free_algebra
from .files import parse_certificate_document, parse_variety_document
from .finalg import MorphismTable, SortViolation, eval_term, find_isomorphism
from .report import Report, encode
from .terms import GeneratorProfile, SortedVar, term_profile_iso

INFINITE = "infinite"


@dataclass(frozen=True)
class CorpusEntry:
    expected: tuple  # ((counts, sizes-or-INFINITE), ...)
    # cap applied when reproducing an expected-infinite profile, so the
    # corpus run stays fast; the default budget trips too, just slower
    infinite_budget: ClassVar[Budget] = Budget(max_classes=4000, max_rounds=64)


ENTRIES: dict[str, CorpusEntry] = {}


def _entry(name, expected):
    ENTRIES[name] = CorpusEntry(tuple(expected))


# free algebra on n generators is the n-element set
_entry(
    "sets",
    [((1,), (1,)), ((3,), (3,)), ((5,), (5,))],
)
# edge sort keeps its generators; vertex sort gains a head and a tail per edge
_entry(
    "graphs",
    [((1, 1), (1, 3)), ((2, 1), (2, 5)), ((3, 3), (3, 9))],
)
# state terms nest without bound once an input generator exists
_entry(
    "automata",
    [((0, 2, 0), (0, 2, 0)), ((1, 1, 0), INFINITE), ((1, 1, 1), INFINITE)],
)
# free algebra is the generator set; every set map is a homomorphism
_entry(
    "left-zero",
    [((n,), (n,)) for n in range(1, 7)],
)
# elements are nonempty generator subsets: 2^n - 1
_entry(
    "comm-idem-semigroups",
    [((n,), (2**n - 1,)) for n in range(1, 6)],
)
# free algebra on n generators is the elementary abelian 2-group of rank n
_entry(
    "boolean-groups",
    [((n,), (2**n,)) for n in range(1, 5)],
)
# free algebra on n generators is the elementary abelian 3-group of rank n
_entry(
    "elem-abelian-3",
    [((n,), (3**n,)) for n in range(1, 4)],
)
# free algebra on n generators is the n-dimensional space: 2^n vectors
_entry(
    "f2-vector-spaces",
    [((n,), (2**n,)) for n in range(1, 4)],
)
# free algebra on n generators has 3^n vectors
_entry(
    "f3-vector-spaces",
    [((n,), (3**n,)) for n in range(1, 4)],
)
# null multiplication adds nothing: plain 2^n vector spaces
_entry(
    "null-mul-f2",
    [((n,), (2**n,)) for n in range(1, 4)],
)
# set sort stays free under the trivial action; semigroup sort is a free semigroup
_entry(
    "semigroup-actions-trivial",
    [((0, 1), (0, 1)), ((0, 3), (0, 3)), ((1, 1), INFINITE)],
)
# with no group generators the vector sort is the free vector space: 2^n
_entry(
    "group-reps-trivial-f2",
    [((0, 1), (1, 2)), ((0, 2), (1, 4)), ((0, 3), (1, 8)), ((1, 0), INFINITE)],
)
# null action keeps the vector sort free; one Lie generator spans a 2-element line
_entry(
    "lie-reps-null-f2",
    [((0, 1), (1, 2)), ((0, 2), (1, 4)), ((0, 3), (1, 8)), ((1, 0), (2, 1)), ((2, 0), INFINITE)],
)
# free couple of sets is the pair of generator sets
_entry(
    "setcoup",
    [((1, 0), (1, 0)), ((0, 1), (0, 1)), ((2, 3), (2, 3))],
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


@dataclass
class SizeRow(Report):
    counts: tuple
    expected: object
    got: object
    ok: bool


@dataclass
class EntryResult(Report):
    name: str
    sizes: list[SizeRow]
    certificate_status: str
    certificate_ok: bool
    messages: list[str]
    ok: bool = field(init=False)

    def __post_init__(self):
        self.ok = self.certificate_ok and all(r.ok for r in self.sizes) and not self.messages


@dataclass
class SwapReport(Report):
    objects_checked: int
    morphisms_checked: int
    involution_ok: bool
    asymmetry_profiles: tuple
    asymmetry_noniso: bool
    certificate_status: str
    violations: list[str]
    ok: bool = field(init=False)

    def __post_init__(self):
        self.ok = (
            self.involution_ok
            and self.asymmetry_noniso
            and self.certificate_status == "certified"
            and not self.violations
        )


@dataclass
class CorpusReport:
    entries: list[EntryResult]
    setcoup_demo: SwapReport | None = None

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries) and (
            self.setcoup_demo is None or self.setcoup_demo.ok
        )

    def to_json_dict(self) -> dict:
        """The demo is left out, not written as null, when it did not run:
        the schema allows ``setcoup_demo`` to be absent but not null."""
        out = {"entries": encode(self.entries), "ok": self.ok}
        if self.setcoup_demo is not None:
            out["setcoup_demo"] = self.setcoup_demo.to_json_dict()
        return out


def run_entry(name: str, budget: Budget | None = None) -> EntryResult:
    budget = budget or Budget()
    entry = ENTRIES[name]
    v, cert = load_entry(name)
    rows: list[SizeRow] = []
    messages: list[str] = []
    cap = Budget(
        max_classes=min(budget.max_classes, entry.infinite_budget.max_classes),
        max_rounds=min(budget.max_rounds, entry.infinite_budget.max_rounds),
    )
    for counts, expected in entry.expected:
        prof = GeneratorProfile.of_counts(v.sig, counts)
        infinite = expected == INFINITE
        res = build_free_algebra(v, prof, cap if infinite else budget)
        got = "budget_exceeded" if isinstance(res, BudgetExceeded) else res.algebra.sizes
        want = "budget_exceeded" if infinite else tuple(expected)
        rows.append(SizeRow(counts, expected, got, got == want))
    report = run_certificate(v, cert, budget)
    if not report.certified:
        messages.append(f"certificate: {report.status}: {report.detail}")
    return EntryResult(name, rows, report.status, report.certified, messages)


def run_corpus(names=None, budget: Budget | None = None) -> CorpusReport:
    selected = list(ENTRIES) if not names else list(names)
    for n in selected:
        if n not in ENTRIES:
            raise KeyError(n)
    results = [run_entry(n, budget) for n in selected]
    swap = setcoup_swap_demo(budget) if "setcoup" in selected else None
    return CorpusReport(results, swap)


def hom_from_gen_images(
    src: FreeAlgebraResult, dst: FreeAlgebraResult, images: dict[SortedVar, int]
) -> MorphismTable:
    """Materialize the unique homomorphism extending a generator map.

    Each source class is sent to the evaluation of its representative term;
    freeness of the source makes this a homomorphism.
    """
    for v, image in images.items():
        if not 0 <= image < dst.algebra.sizes[v.sort]:
            raise SortViolation(f"generator '{v.name}' maps outside the target carrier")
    maps = tuple(tuple(eval_term(dst.algebra, rep, images) for rep in reps) for reps in src.reps)
    table = MorphismTable(src.algebra, dst.algebra, maps)
    assert table.is_homomorphism(), "universal property violated"
    return table


def enumerate_homs(src: FreeAlgebraResult, dst: FreeAlgebraResult) -> list[MorphismTable]:
    """All homomorphisms src -> dst, one per sort-respecting generator map."""
    vs = src.profile.variables()
    pools = [range(dst.algebra.sizes[v.sort]) for v in vs]
    return [hom_from_gen_images(src, dst, dict(zip(vs, c))) for c in itertools.product(*pools)]


def setcoup_swap_demo(budget: Budget | None = None) -> SwapReport:
    """The sort-swap functor on couples of sets: an involution that still
    moves the one-generator free algebra to a non-isomorphic one.  It checks
    the free couples F(m, n) with m, n <= 3."""
    v, cert = load_entry("setcoup")
    sig = v.sig
    violations: list[str] = []

    frees = {}
    for m in range(4):
        for n in range(4):
            prof = GeneratorProfile.of_counts(v.sig, (m, n))
            res = build_free_algebra(v, prof, budget)
            assert not isinstance(res, BudgetExceeded)
            frees[(m, n)] = res

    def swap(pair):
        return (pair[1], pair[0])

    # in a free couple element k of each sort is generator k, so the functor
    # sends F(m, n) to F(n, m) and a morphism to its two maps exchanged
    for p, res in frees.items():
        if frees[swap(p)].algebra.sizes != res.algebra.sizes[::-1]:
            violations.append(f"swap did not exchange the carriers of {p}")

    homs = {(a, c): enumerate_homs(frees[a], frees[c]) for a in frees for c in frees}

    def apply_swap(table, a, c):
        return MorphismTable(
            frees[swap(a)].algebra, frees[swap(c)].algebra, (table.maps[1], table.maps[0])
        )

    for (a, c), hom_set in homs.items():
        swapped = [apply_swap(t, a, c) for t in hom_set]
        if not all(t.is_homomorphism() for t in swapped):
            violations.append(f"a swapped morphism from {a} to {c} is not a homomorphism")
        if sorted(t.maps for t in swapped) != sorted(t.maps for t in homs[(swap(a), swap(c))]):
            violations.append(f"swap does not biject the morphisms from {a} to {c} onto theirs")
        if any(apply_swap(t, swap(a), swap(c)) != f for f, t in zip(hom_set, swapped)):
            violations.append(f"morphism involution failed between {a} and {c}")

    left = frees[(1, 0)]
    right = frees[(0, 1)]
    profile_iso = term_profile_iso(left.profile, right.profile, sig)
    iso = find_isomorphism(left.algebra, right.algebra)
    asymmetry_ok = (not profile_iso) and iso is None
    report = run_certificate(v, cert, budget)
    return SwapReport(
        objects_checked=len(frees),
        morphisms_checked=sum(map(len, homs.values())),
        involution_ok=not violations,
        asymmetry_profiles=((1, 0), (0, 1)),
        asymmetry_noniso=asymmetry_ok,
        certificate_status=report.status,
        violations=violations,
    )
