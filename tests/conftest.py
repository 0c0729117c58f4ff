import itertools
import sys
from operator import xor
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from freealg import egraph
from freealg.corpus import load_entry
from freealg.egraph import SaturationState, VarietyDef
from freealg.finalg import FiniteAlgebra
from freealg.signature import Signature
from freealg.terms import GeneratorProfile, Identity, SortedVar, parse_term, term_to_text


def load_entry_variety(name):
    return load_entry(name)[0]


def make_variety(sorts, ops, name, axiom_specs):
    """axiom_specs: [ ([(var, sort), ...], lhs_text, rhs_text), ... ]"""
    sig = Signature.make(sorts, ops)
    return VarietyDef(sig, name, tuple(make_axioms(sig, axiom_specs)))


def profile_of(v, counts):
    """The generator profile with ``counts[i]`` generators of sort ``i``."""
    return GeneratorProfile.of_counts(v.sig, counts)


def make_axioms(sig, axiom_specs):
    out = []
    for vars_spec, l, r in axiom_specs:
        prof = GeneratorProfile.of_vars(
            sig, [SortedVar(n, sig.sort_named(s).id) for n, s in vars_spec]
        )
        out.append(Identity(prof, parse_term(l, sig, prof), parse_term(r, sig, prof)))
    return out


GROUP_AXIOMS = [
    ([("x", "elem"), ("y", "elem"), ("z", "elem")], "(mul (mul x y) z)", "(mul x (mul y z))"),
    ([("x", "elem")], "(mul (e) x)", "x"),
    ([("x", "elem")], "(mul x (e))", "x"),
    ([("x", "elem")], "(mul x (inv x))", "(e)"),
    ([("x", "elem")], "(mul (inv x) x)", "(e)"),
]

GROUP_OPS = [("mul", ["elem", "elem"], "elem"), ("inv", ["elem"], "elem"), ("e", [], "elem")]


@pytest.fixture(autouse=True)
def fresh_saturations():
    """Each test starts with no saturation outcome memoized, as a fresh
    process does, so a test that spies on or patches the engine sees its
    builds run."""
    egraph._saturated.clear()


@pytest.fixture
def captured_states(monkeypatch):
    """Every ``SaturationState`` made while the test runs, in the order made."""
    states = []
    init = SaturationState.__init__

    def init_and_keep(state, *args):
        init(state, *args)
        states.append(state)

    monkeypatch.setattr(SaturationState, "__init__", init_and_keep)
    return states


@pytest.fixture(scope="session")
def boolean_groups():
    return load_entry_variety("boolean-groups")


@pytest.fixture(scope="session")
def comm_idem():
    return load_entry_variety("comm-idem-semigroups")


@pytest.fixture(scope="session")
def left_zero():
    return load_entry_variety("left-zero")


@pytest.fixture(scope="session")
def sets_variety():
    return load_entry_variety("sets")


@pytest.fixture(scope="session")
def graphs_variety():
    return load_entry_variety("graphs")


@pytest.fixture(scope="session")
def action_sig():
    return Signature.make(
        ["s", "el"],
        [("mul", ["s", "s"], "s"), ("act", ["s", "el"], "el")],
    )


def make_algebra(sig, sizes, tables):
    """An algebra from carrier sizes and one callable on element indices per
    op, both keyed by name."""
    size_vec = [0] * len(sig.sorts)
    for name, n in sizes.items():
        size_vec[sig.sort_named(name).id] = n
    out = {}
    for op in sig.ops:
        pools = [range(size_vec[s]) for s in op.arg_sorts]
        out[op.id] = {args: tables[op.name](*args) for args in itertools.product(*pools)}
    return FiniteAlgebra(sig, tuple(size_vec), out)


def algebra_json(alg):
    """The JSON object of an algebra file for ``alg``."""
    return {
        "carriers": {s.name: alg.sizes[s.id] for s in alg.sig.sorts},
        "tables": {
            op.name: [{"args": list(k), "result": v} for k, v in sorted(alg.tables[op.id].items())]
            for op in alg.sig.ops
        },
    }


def serialize_variety(v):
    """A variety document that parses back to ``v``."""
    sorts = v.sig.sorts
    lines = ["(signature"] + [f"  (sort {s.name})" for s in sorts]
    for o in v.sig.ops:
        args = " ".join(sorts[a].name for a in o.arg_sorts)
        lines.append(f"  (op {o.name} ({args}) {sorts[o.result_sort].name})")
    lines[-1] += ")"
    lines.append(f"(variety {v.name}")
    for ax in v.axioms:
        decls = " ".join(f"({x.name} {sorts[x.sort].name})" for x in ax.vars.variables())
        lines.append(f"  (axiom ({decls}) (= {term_to_text(ax.lhs)} {term_to_text(ax.rhs)}))")
    return "\n".join(lines) + ")\n"


# vector-space ops over the two-element field, on bit vectors of any width
F2 = {"plus": xor, "zero": lambda: 0, "s0": lambda x: 0, "s1": lambda x: x}

# one small model of each corpus entry's variety: carrier sizes and op tables
MODELS = {
    "sets": ({"elem": 2}, {}),
    "graphs": ({"edge": 1, "vertex": 2}, {"h": lambda e: 0, "t": lambda e: 1}),
    "automata": ({"in": 1, "state": 1, "out": 1}, {"step": lambda i, s: 0, "emit": lambda i, s: 0}),
    "left-zero": ({"elem": 2}, {"mul": lambda x, y: x}),
    "comm-idem-semigroups": ({"elem": 2}, {"mul": min}),
    "boolean-groups": ({"elem": 2}, {"mul": xor, "inv": lambda x: x, "e": lambda: 0}),
    "elem-abelian-3": (
        {"elem": 3},
        {"mul": lambda x, y: (x + y) % 3, "inv": lambda x: (-x) % 3, "e": lambda: 0},
    ),
    "f2-vector-spaces": ({"v": 2}, F2),
    "f3-vector-spaces": (
        {"v": 3},
        {
            "plus": lambda x, y: (x + y) % 3,
            "zero": lambda: 0,
            "s0": lambda x: 0,
            "s1": lambda x: x,
            "s2": lambda x: (2 * x) % 3,
        },
    ),
    "null-mul-f2": ({"v": 2}, {**F2, "mul": lambda x, y: 0}),
    "semigroup-actions-trivial": ({"s": 1, "el": 2}, {"mul": lambda x, y: 0, "act": lambda x, u: u}),
    "group-reps-trivial-f2": (
        {"g": 1, "v": 2},
        {**F2, "mul": lambda x, y: 0, "inv": lambda x: 0, "e": lambda: 0, "act": lambda x, u: u},
    ),
    "lie-reps-null-f2": (
        {"L": 1, "v": 2},
        {
            **F2,
            "ladd": lambda x, y: 0,
            "lzero": lambda: 0,
            "l0": lambda x: 0,
            "l1": lambda x: x,
            "br": lambda x, y: 0,
            "act": lambda x, u: 0,
        },
    ),
    "setcoup": ({"a": 2, "b": 1}, {}),
}


# the profiles on which each corpus entry's free algebra is checked against
# the brute-force oracle; automata has none
ORACLE_PROFILES = {
    "sets": [(1,), (2,)],
    "graphs": [(1, 1), (2, 2)],
    "left-zero": [(2,), (3,)],
    "comm-idem-semigroups": [(1,), (2,), (3,)],
    "boolean-groups": [(1,), (2,)],
    "elem-abelian-3": [(1,), (2,)],
    "f2-vector-spaces": [(1,), (2,)],
    "f3-vector-spaces": [(1,), (2,)],
    "null-mul-f2": [(1,), (2,)],
    "semigroup-actions-trivial": [(0, 1), (0, 2)],
    "group-reps-trivial-f2": [(0, 1), (0, 2)],
    "lie-reps-null-f2": [(0, 1), (1, 0)],
    "setcoup": [(1, 1)],
}


def entry_models(name, v):
    """Small concrete algebras of the entry's variety, for spot checks."""
    return [make_algebra(v.sig, *MODELS[name])]


def cyclic_group(sig, n):
    return make_algebra(
        sig,
        {"elem": n},
        {"mul": lambda x, y: (x + y) % n, "inv": lambda x: (-x) % n, "e": lambda: 0},
    )


def klein_four(sig):
    return make_algebra(sig, {"elem": 4}, {"mul": xor, "inv": lambda x: x, "e": lambda: 0})
