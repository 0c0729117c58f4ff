"""Random one-sorted varieties: every build ends, and what saturates is right.

The varieties are drawn over ``f/2``, ``g/1`` and ``c/0``, with one to
three axioms of depth at most 2 and zero to two generators.  Each axiom
declares up to three variables and draws both sides from them, so the
draws include repeated variables, variables that only the other side reads,
variables that no side reads and bare-variable sides, which no bundled
axiom has.  There is no oracle here: a saturated result must satisfy its
axioms, and a second build, with the saturation memo emptied, must give
the same algebra.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_variety, profile_of
from freealg import egraph
from freealg.egraph import Budget, BudgetExceeded, FreeAlgebraResult, build_free_algebra
from freealg.finalg import satisfies_all

OPS = [("f", ["a", "a"], "a"), ("g", ["a"], "a"), ("c", [], "a")]
NAMES = ("x", "y", "z")
# small enough that a variety whose free algebra is infinite trips at once
BUDGET = Budget(max_classes=150, max_rounds=8)


def terms(names, depth: int):
    """Terms of depth at most ``depth`` over the variables ``names``."""
    leaves = st.sampled_from([*names, "(c)"])
    if depth == 0:
        return leaves
    sub = terms(names, depth - 1)
    return st.one_of(
        leaves,
        sub.map(lambda t: f"(g {t})"),
        st.tuples(sub, sub).map(lambda ts: f"(f {ts[0]} {ts[1]})"),
    )


@st.composite
def axioms(draw):
    names = NAMES[: draw(st.integers(0, 3))]
    return [(v, "a") for v in names], draw(terms(names, 2)), draw(terms(names, 2))


def outcome(res):
    """What a build gives, to compare two builds by."""
    if isinstance(res, BudgetExceeded):
        return res.to_json_dict()
    return (res.algebra.sizes, res.algebra.tables, res.gen_images, res.rep_strings(), res.stats.to_json_dict())


@given(st.lists(axioms(), min_size=1, max_size=3), st.integers(0, 2))
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
def test_every_random_build_ends_and_what_saturates_holds(specs, generators):
    v = make_variety(["a"], OPS, "random", specs)
    profile = profile_of(v, (generators,))
    res = build_free_algebra(v, profile, BUDGET)
    assert isinstance(res, (FreeAlgebraResult, BudgetExceeded))
    if isinstance(res, FreeAlgebraResult):
        assert satisfies_all(res.algebra, v.axioms) is True
    egraph._saturated.clear()
    assert outcome(build_free_algebra(v, profile, BUDGET)) == outcome(res)
