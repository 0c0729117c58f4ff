"""Every name a module imports is read somewhere in that module, and every
definition in ``src/freealg`` runs for the ``freealg`` command or the
benchmark."""

import ast
from pathlib import Path

import pytest

from perfbench.trace import HOOKS
from test_egraph import writers

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "freealg").glob("*.py"))
MODULES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_read(path):
    assert unused_imports(path.read_text()) == []


def test_scan_finds_an_unread_import():
    source = "import os\nfrom x import y as z, w\nprint(w)\n"
    assert unused_imports(source) == ["os (line 1)", "z (line 2)"]


def reads(node) -> set[tuple[str | None, str]]:
    """What the code under ``node`` reads: ``(None, name)`` for a bare name,
    ``(owner, attr)`` for ``owner.attr``, with ``owner`` empty unless the
    attribute is read from a bare name."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.add((None, n.id))
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            out.add((getattr(n.value, "id", ""), n.attr))
    return out


def _bound(stmt) -> list[str]:
    """The names a top-level statement defines; none for one that only runs."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = getattr(stmt, "targets", [getattr(stmt, "target", None)])
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)) and all(isinstance(t, ast.Name) for t in targets):
        return [t.id for t in targets]
    return []


def unreached(sources: dict[str, str], roots) -> list[str]:
    """The definitions in the modules that nothing reachable from ``roots``
    (reads, as ``reads`` gives them) reads: top-level ones as ``module.name``,
    and methods of reached classes as ``module.Class.method``.

    A module-level statement that defines nothing runs on import, so its
    reads are roots too.  Resolution is by name: a name, bare or as an
    attribute, reaches every top-level definition so named.  A method of a
    reached class is reached by ``Class.method``, by ``x.method`` for any
    ``x`` that is no class of the modules, or, as a dunder, implicitly.
    """
    defs: dict[str, tuple[str, str | None, set]] = {}  # key -> (name, class, reads)
    read = set(roots)
    for module, text in sources.items():
        for stmt in ast.parse(text).body:
            if isinstance(stmt, ast.ClassDef):
                rest = [*stmt.decorator_list, *stmt.bases, *stmt.keywords]
                for n in stmt.body:
                    if isinstance(n, ast.FunctionDef):
                        defs[f"{module}.{stmt.name}.{n.name}"] = (n.name, stmt.name, reads(n))
                    else:
                        rest.append(n)
                defs[f"{module}.{stmt.name}"] = (stmt.name, None, set().union(*map(reads, rest)))
            elif _bound(stmt):
                defs.update((f"{module}.{name}", (name, None, reads(stmt))) for name in _bound(stmt))
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                read |= reads(stmt)
    classes = {cls for _, cls, _ in defs.values() if cls}
    reached: set[str] = set()

    def of_reached_class(key: str, cls: str | None) -> bool:
        return cls is None or key.rsplit(".", 1)[0] in reached

    while True:
        names = {n for _, n in read}
        loose = {n for owner, n in read if owner is not None and owner not in classes}

        def read_by_name(name: str, cls: str | None) -> bool:
            if name.startswith("__"):
                return True
            return name in names if cls is None else name in loose or (cls, name) in read

        new = {
            key
            for key, (name, cls, _) in defs.items()
            if key not in reached and of_reached_class(key, cls) and read_by_name(name, cls)
        }
        if not new:
            return sorted(k for k, (_, cls, _) in defs.items() if k not in reached and of_reached_class(k, cls))
        reached |= new
        for key in new:
            read |= defs[key][2]


def benchmark_reads() -> set:
    """What the benchmark's modules read, and the attribute paths that its
    tracer hooks by name."""
    out = {r for _, path, _ in HOOKS for r in reads(ast.parse(path, mode="eval"))}
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        out |= reads(ast.parse(path.read_text()))
    return out


def test_every_definition_runs_for_the_cli_or_the_benchmark():
    sources = {p.stem: p.read_text() for p in PACKAGE}
    assert unreached(sources, {(None, "entry")} | benchmark_reads()) == []


def test_scan_finds_an_unreached_definition():
    source = (
        "def used(): pass\n"
        "def unused(): pass\n"
        "def setup(): pass\n"
        "setup()\n"
        "class C:\n"
        "    def m(self): pass\n"
        "    def n(self): pass\n"
        "    def __repr__(self): pass\n"
        "def entry():\n"
        "    used()\n"
        "    C.n(C())\n"
    )
    assert unreached({"mod": source}, {(None, "entry")}) == ["mod.C.m", "mod.unused"]


def calling(matches, sources: dict[str, str]) -> list[str]:
    """The definitions holding a call whose callee ``matches``, as
    ``module.Class.function`` paths; module-level calls count as the module."""
    found = set()
    for module, text in sources.items():
        stack = [(ast.parse(text), module)]
        while stack:
            node, where = stack.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    stack.append((child, f"{where}.{child.name}"))
                    continue
                if isinstance(child, ast.Call) and matches(child.func):
                    found.add(where)
                stack.append((child, where))
    return sorted(found)


def callers(names: set[str], sources: dict[str, str]) -> list[str]:
    """The definitions that call a bare name in ``names``."""
    return calling(lambda f: getattr(f, "id", None) in names, sources)


def appenders(attr: str, sources: dict[str, str]) -> list[str]:
    """The definitions that call ``x.<attr>.append``, for any ``x``."""
    return calling(
        lambda f: isinstance(f, ast.Attribute)
        and f.attr == "append"
        and isinstance(f.value, ast.Attribute)
        and f.value.attr == attr,
        sources,
    )


def test_generated_code_is_compiled_in_one_place():
    sources = {p.stem: p.read_text() for p in PACKAGE}
    assert callers({"exec", "compile"}, sources) == ["finalg.compile_source"]


def test_match_kernels_are_planned_in_one_place():
    # every query comes through the per-structure cache, so no path plans
    # an axiom that the cache already holds
    sources = {p.stem: p.read_text() for p in PACKAGE}
    assert callers({"_Query"}, sources) == ["egraph.VarietyDef._queries"]


def test_saturations_are_run_in_one_place():
    # every run goes through the per-structure memo, so no path saturates
    # a structure that the memo already holds
    sources = {p.stem: p.read_text() for p in PACKAGE}
    assert callers({"SaturationState", "_run", "freeze"}, sources) == ["egraph._saturate"]


def test_free_algebra_results_are_made_in_one_place():
    # a miss and a hit alike make their result from the kept outcome
    sources = {p.stem: p.read_text() for p in PACKAGE}
    assert callers({"FreeAlgebraResult"}, sources) == ["egraph._result"]


def test_the_action_split_is_decomposed_in_one_place():
    # the parser and the route share one classification and one pair of
    # part signatures; only the route glues the parts back together
    sources = {p.stem: p.read_text() for p in PACKAGE}
    owners = ["certify.certify_action_split", "files.parse_certificate_document"]
    assert callers({"classify_action_signature", "restrict_to_part"}, sources) == owners
    assert callers({"assemble_trivial_action"}, sources) == ["certify.certify_action_split"]


def test_scan_finds_every_caller():
    source = (
        "import re\n"
        "re.compile('x')\n"
        "class C:\n"
        "    def m(self):\n"
        "        def inner(): exec('pass')\n"
        "def f(): return compile('1', '<f>', 'eval')\n"
        "exec('pass')\n"
    )
    assert callers({"exec", "compile"}, {"mod": source}) == ["mod", "mod.C.m.inner", "mod.f"]


def test_every_class_is_made_in_one_place():
    # generators and nodes alike get their class, its sort and its place
    # among its sort's roots from one method
    sources = {p.stem: p.read_text() for p in PACKAGE}
    assert appenders("parent", sources) == ["egraph.SaturationState._new_class"]


def test_parent_is_written_only_where_it_stays_flat():
    # a new class is its own root, and a merge points the loser and every
    # class it had absorbed at the winner; no other code writes parent, so
    # every id keeps pointing straight at its root
    written = {p.stem: writers(p.read_text(), {"parent"}) for p in PACKAGE}
    owners = ["SaturationState._new_class", "SaturationState._union"]
    assert {module: where for module, where in written.items() if where} == {"egraph": owners}


def test_scan_finds_every_appender():
    source = (
        "class S:\n"
        "    def make(self): self.parent.append(0)\n"
        "    def other(self): self.parents.append(0); parent.append(1); self.parent.extend([2])\n"
        "def grow(state):\n"
        "    def inner(): state.parent.append(1)\n"
    )
    assert appenders("parent", {"mod": source}) == ["mod.S.make", "mod.grow.inner"]
