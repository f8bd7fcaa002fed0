"""The benchmark's traced call sites exist in the package.

`perfbench/run.py --trace 1` wraps each (module, attribute) of its
TRACE_SITES list; a simplification that drops or renames one of those names
would otherwise surface only in a traced benchmark run. The list is read
from the file's syntax tree, so the script is neither imported nor run.
"""

import ast
import importlib
from pathlib import Path

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
