"""Pooled forest-link fraction of random clique complexes beside the model value.

Runs the random-clique experiment at alpha=0.55, d=3 for seeds 1..S and
prints each seed's forest-link fraction f, the pooled mean and the exact
model value E[f] (`expected_forest_fraction` in tests/conftest.py). Too slow
for the test suite: one seed at n=5*10^4 takes several seconds.

    python scripts/pooled_forest_fraction.py                 # n=50000, seeds 1-8
    python scripts/pooled_forest_fraction.py --n 20000 --seeds 4
"""

from __future__ import annotations

import argparse
import math
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from conftest import expected_forest_fraction  # noqa: E402

from flagsphere.randomclique import RandomCliqueParams, run_experiment  # noqa: E402

ALPHA = 0.55


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=50_000)
    parser.add_argument("--seeds", type=int, default=8)
    args = parser.parse_args(argv)
    fractions = []
    for seed in range(1, args.seeds + 1):
        t0 = time.perf_counter()
        report = run_experiment(RandomCliqueParams(n=args.n, alpha=ALPHA, d=3, seed=seed))
        fractions.append(report["forest_fraction"])
        print(
            f"seed {seed}: f = {fractions[-1]:.5f}, {report['edge_count']} edges,"
            f" {time.perf_counter() - t0:.1f} s",
            flush=True,
        )
    pooled = sum(fractions) / len(fractions)
    spread = math.sqrt(sum((f - pooled) ** 2 for f in fractions) / max(len(fractions) - 1, 1))
    expected = expected_forest_fraction(args.n, ALPHA)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(
        f"n={args.n}, alpha={ALPHA}, d=3, seeds 1-{args.seeds}: pooled f = {pooled:.5f}"
        f" (per-seed SD {spread:.5f}, SE {spread / math.sqrt(len(fractions)):.5f}),"
        f" E[f] = {expected:.5f}; peak RSS {peak_mb:.0f} MB"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
