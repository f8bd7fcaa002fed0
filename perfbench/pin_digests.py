"""Record the SHA-256 of every output of each workload's chain at the pinned seed.

Usage (from the repository root): python3 perfbench/pin_digests.py

Run it only on a commit whose outputs are known good; run.py then checks
every run at the pinned seed against perfbench/digests.json.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402
from run import Loop  # noqa: E402


def main() -> int:
    pinned = {}
    for name in workloads.WORKLOADS:
        work = HERE.parent / ".bench_work" / f"pin-{name}-{os.getpid()}"
        work.mkdir(parents=True)
        os.chdir(work)
        try:
            chains, _ = workloads.setup(name, workloads.PINNED_SEED)
            loop = Loop(digests=True)
            for j, steps in enumerate(chains):
                loop.run_chain(f"chain{j}", steps)
        finally:
            os.chdir(HERE.parent)
            shutil.rmtree(work, ignore_errors=True)
        if loop.problems:
            print("\n".join(loop.problems), file=sys.stderr)
            return 1
        pinned[name] = loop.digests
        print(f"{name}: {len(loop.digests)} commands pinned", file=sys.stderr)
    (HERE / "digests.json").write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
