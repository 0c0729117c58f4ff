"""The canonical order on terms, and extraction by the term-building fixpoint.

``term_key`` is the order that representatives minimise: length first,
then variables before applications, then sort and name, or op and the
children's keys.  ``egraph.extract_representatives`` compares such keys
and makes no term: the result makes each class's term from its key.
``reference_representatives`` is the fixpoint it replaced: every pass makes
the term of every table key whose children have one, and each class keeps
the least by ``term_key``.  The two must agree on every class, since
``term_key`` is a total order and each class's least term is unique.
"""

from __future__ import annotations

import functools

from freealg.terms import arena_of


@functools.cache
def term_key(t):
    """Canonical ordering key: (length, kind, symbol, children)."""
    if t.is_var():
        return (0, 0, t.var.sort, t.var.name)
    return (t.length, 1, t.op.id, tuple(term_key(c) for c in t.children))


def reference_representatives(state) -> dict:
    """The least member term of each class, by the term-building fixpoint."""
    state.rebuild()
    arena = arena_of(state.sig)
    best = {}

    def offer(root, t) -> bool:
        cur = best.get(root)
        if cur is None or term_key(t) < term_key(cur):
            best[root] = t
            return True
        return False

    for v, cls in state.gen_class.items():
        offer(state.find(cls), arena.var(v))
    ops = state.sig.ops
    changed = True
    while changed:
        changed = False
        for key, cls in state.key2class.items():
            children = key[1:]
            if any(c not in best for c in children):
                continue
            t = arena.apply(ops[key[0]], tuple(best[c] for c in children))
            if offer(state.find(cls), t):
                changed = True
    return best
