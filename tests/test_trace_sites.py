"""The benchmark's traced call sites exist in the package, and flagify calls
the ones its metrics are derived from.

`perfbench/run.py --trace 1` wraps each (module, attribute) of its
TRACE_SITES list; a simplification that drops or renames one of those names
would otherwise surface only in a traced benchmark run. The list is read
from the file's syntax tree, so the script is neither imported nor run.
"""

import ast
import importlib
from pathlib import Path

import flagsphere
from flagsphere import grotzsch_graph, mycielskian

from test_readme import library_block

RUN_PY = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def trace_sites() -> list[tuple[str, str, str]]:
    for node in ast.parse(RUN_PY.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [
            getattr(t, "id", None) for t in node.targets
        ] == ["TRACE_SITES"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{RUN_PY} assigns no TRACE_SITES list")


def test_every_trace_site_resolves_to_a_callable():
    sites = trace_sites()
    assert sites
    missing = [
        (module, attr)
        for module, attr, _ in sites
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []


def test_every_import_is_used_or_a_trace_site():
    # a name a module imports but never reads is dead, unless the benchmark
    # wraps it there as a trace site
    traced = {(module, attr) for module, attr, _ in trace_sites()}
    unused = []
    for path in sorted(Path(flagsphere.__file__).parent.glob("*.py")):
        if path.stem == "__init__":
            continue
        module = f"flagsphere.{path.stem}"
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read and (module, name) not in traced:
                        unused.append((module, name))
    assert unused == []


def _names_read(tree: ast.AST) -> set[str]:
    """Every name a syntax tree reads, as a name, an attribute or an import."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
    return names


def test_every_module_level_name_is_reached_outside_the_tests():
    # a def or class of src/ that only tests reach belongs in tests/, or
    # nowhere; src/ reaches it from any other top-level statement, and the
    # benchmark, the scripts and the README example count as callers too
    repo = RUN_PY.parents[1]
    reached = {attr for _, attr, _ in trace_sites()}
    reached |= _names_read(ast.parse(library_block()))
    for path in [*repo.glob("perfbench/*.py"), *repo.glob("scripts/*.py")]:
        reached |= _names_read(ast.parse(path.read_text(encoding="utf-8")))
    defined = []
    for path in sorted(Path(flagsphere.__file__).parent.glob("*.py")):
        if path.stem == "__init__":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            is_def = isinstance(node, (ast.FunctionDef, ast.ClassDef))
            if is_def:
                defined.append((path.stem, node.name))
            # a definition's own body does not reach it
            reached |= _names_read(node) - ({node.name} if is_def else set())
    assert [(module, name) for module, name in defined if name not in reached] == []


def test_flagify_calls_the_traced_builder_primitives(monkeypatch):
    # perfbench derives the cascade counts from the flagify.subdivide_edge
    # spans, so every subdivision has to go through that module attribute
    flagify_module = importlib.import_module("flagsphere.flagify")
    calls = {"subdivide_edge": 0, "edge_link_structure": 0}
    for name in calls:
        real = getattr(flagify_module, name)

        def counting(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(flagify_module, name, counting)
    _, report, _ = flagify_module.flagify(mycielskian(grotzsch_graph()), 23)
    assert calls["subdivide_edge"] == report.subdivision_count == 235
    # one link per subdivision for its new empty triangles, plus one per
    # repair candidate tested
    assert calls["edge_link_structure"] == 334
