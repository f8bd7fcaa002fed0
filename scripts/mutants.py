"""Mutation check: does tier-1 catch a fault in each fast path?

Each entry names a file, a snippet that occurs exactly once in it, and the
replacement that breaks the code. For each entry the script copies the
tree (src/ and the tests) into a temporary directory, applies the mutant
there, runs tier-1 with `-x` (without tests/test_mutants.py, which checks
the snippets) and prints the test that killed the mutant, or that it
survived. It exits 1 if any mutant survived. One mutant costs up to one
tier-1 run.

    python scripts/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 600


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root
    snippet: str
    replacement: str


GRAPHS = "src/flagsphere/graphs.py"
MUTANTS = [
    Mutant(
        "dsatur-carry-into-up-dropped",
        GRAPHS,
        "                up = up[:]\n"
        "                for j, x in enumerate(up):\n"
        "                    up[j], touched = x ^ touched, x & touched\n",
        "                pass\n",
    ),
    Mutant(
        "dsatur-up-shared",
        GRAPHS,
        "                up = up[:]\n",
        "",
    ),
    Mutant(
        "dsatur-left-not-decremented",
        GRAPHS,
        "push((i, num_used, left - 1, touched, p0, p1, p2, up, c))",
        "push((i, num_used, left, touched, p0, p1, p2, up, c))",
    ),
    Mutant(
        "dsatur-pick-skips-p0",
        GRAPHS,
        "            if x := pick & p0:\n                pick, s = x, s + 1\n",
        "",
    ),
    Mutant(
        "split-top-nodes-dropped",
        GRAPHS,
        "frontier, top = deeper, top + expanded",
        "frontier, top = deeper, top",
    ),
    Mutant(
        "split-overflow-as-exhausted",
        GRAPHS,
        "if colored is not None or before + roots > cap:",
        "if colored is not None:",
    ),
    Mutant(
        "split-first-coloring-to-finish",
        GRAPHS,
        "        mine = list(_share(nbr, k, frontier[::workers], cap))\n",
        "        mine = list(_share(nbr, k, frontier[::workers], cap))\n"
        "        for (before, _), (nodes, colored) in zip(frontier[::workers], mine):\n"
        "            if colored is not None:\n"
        "                return before + nodes, colored\n",
    ),
]


def run(mutant: Mutant) -> str:
    """'killed by <test>', 'killed (timeout)' or 'survived'."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(
            ROOT,
            tree,
            ignore=shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache"),
        )
        target = tree / mutant.path
        text = target.read_text(encoding="utf-8")
        if text.count(mutant.snippet) != 1:
            raise SystemExit(f"{mutant.name}: snippet does not occur exactly once in {mutant.path}")
        target.write_text(text.replace(mutant.snippet, mutant.replacement), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(tree / "src")}
        # test_mutants.py checks the snippets themselves, so it would kill every mutant
        argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                "--continue-on-collection-errors", "--ignore=tests/test_mutants.py"]
        try:
            done = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True,
                                  timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "killed (timeout)"
    if done.returncode == 0:
        return "survived"
    failed = [line.split()[1] for line in done.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))]
    return f"killed by {failed[0]}" if failed else f"killed (exit {done.returncode})"


def main() -> int:
    survived = 0
    for mutant in MUTANTS:
        outcome = run(mutant)
        survived += outcome == "survived"
        print(f"{mutant.name:32} {outcome}", flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
