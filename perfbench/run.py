"""Closed-loop benchmark of the flagsphere CLI pipeline.

Usage (from the repository root):

    python3 perfbench/run.py --workload m6-sphere --seed 1 --seconds 40 --trace 0

One client runs the workload's command chain in sequence, each command a
call to `flagsphere.cli.main(argv)` in this process with stdout captured,
until the time budget is spent. Times are paced: rescaled to a fixed host
speed by a reference loop timed throughout (`pace.py`). With `--trace 0`
the last stdout line reports the end-to-end metrics; with `--trace 1` one
more chain runs with every layer's call sites wrapped in spans, and the
line reports the per-layer metrics. Metric names and units come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import spans as sp
from pace import Pacer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# set-up repeats: at least 5, over at least 2 s, so one fast or slow moment of
# the host does not decide a sub-millisecond set-up's median
SETUP_MIN_REPEATS, SETUP_MIN_SECONDS = 5, 2.0
# Python randomizes str hashing per process, and the program's speed depends on
# the dict layouts that gives (6% between fresh processes on m6-sphere, 2.5% with
# one fixed value); the run re-executes itself with this value before it starts
HASH_SEED = "0"

# (module, attribute, span name): each public call site a layer's callers use
TRACE_SITES = [
    ("flagsphere.cli", "read_complex", "io.read_complex"),
    ("flagsphere.cli", "read_graph", "io.read_graph"),
    ("flagsphere.cli", "read_trace", "io.read_trace"),
    ("flagsphere.cli", "write_complex", "io.write_complex"),
    ("flagsphere.cli", "write_trace", "io.write_trace"),
    ("flagsphere.cli", "write_coloring", "io.write_coloring"),
    ("flagsphere.io", "build_from_facets", "complexes.build_from_facets"),
    ("flagsphere.cyclic", "build_from_facets", "complexes.build_from_facets"),
    ("flagsphere.cli", "cyclic_4_sphere", "cyclic.cyclic_4_sphere"),
    ("flagsphere.flagify", "cyclic_4_sphere", "cyclic.cyclic_4_sphere"),
    ("flagsphere.flagify", "empty_triangles", "cyclic.empty_triangles"),
    ("flagsphere.cli", "flagify", "flagify.flagify"),
    ("flagsphere.flagify", "eliminate_round", "flagify.eliminate_round"),
    ("flagsphere.flagify", "is_triangle_free", "graphs.is_triangle_free"),
    ("flagsphere.flagify", "subdivide_edge", "complexes.subdivide_edge"),
    ("flagsphere.flagify", "edge_link_structure", "complexes.edge_link_structure"),
    ("flagsphere.cli", "replay", "complexes.replay"),
    ("flagsphere.complexes", "subdivide_edge", "complexes.subdivide_edge"),
    ("flagsphere.cli", "verify_closed_3_manifold", "complexes.verify_closed_3_manifold"),
    ("flagsphere.cli", "is_flag", "complexes.is_flag"),
    ("flagsphere.cli", "minimal_nonfaces", "complexes.minimal_nonfaces"),
    ("flagsphere.cli", "f_vector", "complexes.f_vector"),
    ("flagsphere.cli", "peel_color_3", "coloring.peel_color_3"),
    ("flagsphere.cli", "measure_alpha", "coloring.measure_alpha"),
    ("flagsphere.cli", "certify_lower_bound", "coloring.certify_lower_bound"),
    ("flagsphere.coloring", "is_flag", "complexes.is_flag"),
    ("flagsphere.coloring", "verify_closed_3_manifold", "complexes.verify_closed_3_manifold"),
    ("flagsphere.coloring", "f_vector", "complexes.f_vector"),
    ("flagsphere.coloring", "five_color_planar", "coloring.five_color_planar"),
    ("flagsphere.coloring", "greedy_degeneracy_color", "coloring.greedy_degeneracy_color"),
    ("flagsphere.coloring", "_k_colorable", "graphs.k_colorable"),
    ("flagsphere.coloring", "chromatic_number_exact", "graphs.chromatic_number_exact"),
    ("flagsphere.coloring", "greedy_independent_set", "graphs.greedy_independent_set"),
    ("flagsphere.coloring", "max_independent_set_exact", "graphs.max_independent_set_exact"),
    ("flagsphere.cli", "run_experiment", "randomclique.run_experiment"),
    ("flagsphere.randomclique", "sample_clique_complex", "randomclique.sample_clique_complex"),
    ("flagsphere.randomclique", "TruncatedCliqueComplex", "randomclique.TruncatedCliqueComplex"),
    ("flagsphere.randomclique", "forest_link_fraction", "randomclique.forest_link_fraction"),
    ("flagsphere.randomclique", "prune_bad_links", "randomclique.prune_bad_links"),
    ("flagsphere.randomclique", "_link_graph_acyclic", "randomclique.link_graph_acyclic"),
    ("flagsphere.randomclique", "greedy_independent_set", "graphs.greedy_independent_set"),
    ("flagsphere.randomclique", "max_independent_set_exact", "graphs.max_independent_set_exact"),
]

COMMAND_METRICS = {
    "flagify": "cli.flagify_s",
    "replay": "cli.replay_s",
    "verify": "cli.verify_s",
    "color": "cli.color_s",
    "certify": "cli.certify_s",
    "random-clique": "cli.random_clique_s",
}


def invoke(argv: list[str]) -> tuple[int, str, str]:
    """Run one CLI command in-process; returns exit code, stdout, stderr."""
    import flagsphere.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = flagsphere.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed operation, not the end of the run
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


class Loop:
    """Runs chains, checks each command and keeps the operation counts.

    With `digests` set, the SHA-256 of every command's stdout and files is
    recorded and, when `pinned` is given, compared with the pinned values.
    """

    def __init__(self, digests: bool = False, pinned: dict | None = None):
        self.digests: dict[str, dict[str, str]] | None = {} if digests else None
        self.pinned = pinned
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run_chain(self, name: str, steps, tracer=None) -> tuple[dict[str, tuple], float]:
        """Runs every step once; returns (start, end) per step label and CPU seconds."""
        spans: dict[str, tuple[float, float]] = {}
        cpu = 0.0
        for step in steps:
            gc.collect()
            c0 = time.process_time()
            t0 = time.perf_counter()
            if tracer is None:
                code, stdout, stderr = invoke(step.argv)
            else:
                with tracer.span("cli." + step.argv[0]):
                    code, stdout, stderr = invoke(step.argv)
            spans[step.label] = (t0, time.perf_counter())
            cpu += time.process_time() - c0
            self.attempted += 1
            key = f"{name}/{step.label}"
            problems = self._check(key, step, code, stdout, stderr)
            if problems:
                self.failed += 1
                self.problems.extend(f"{key}: {p}" for p in problems)
        return spans, cpu

    def _check(self, key: str, step, code: int, stdout: str, stderr: str) -> list[str]:
        from workloads import step_digests

        if code != 0:
            return [f"exit code {code}: {stderr.strip()[-200:]}"]
        try:
            step.report = json.loads(stdout)
            problems = step.check(step.report)
        except (ValueError, KeyError, TypeError, OSError) as exc:
            return [f"output unreadable: {type(exc).__name__}: {exc}"]
        if self.digests is not None:
            got = self.digests[key] = step_digests(step, stdout)
            want = self.pinned.get(key, {}) if self.pinned is not None else got
            bad = sorted(k for k in got.keys() | want.keys() if want.get(k) != got.get(k))
            if bad:
                problems.append(f"digest mismatch against the pinned values: {bad}")
        return problems


def chain_wall(walls: dict[str, float]) -> float:
    return sum(walls.values())


def pipeline(samples, inputs: int) -> float:
    """Mean over the workload's inputs of the median chain time of each input.

    Chain i ran input i % inputs.
    """
    return statistics.fmean(
        statistics.median(chain_wall(c) for c in samples[j::inputs]) for j in range(inputs)
    )


def end_to_end(setups, samples, inputs: int) -> dict[str, float]:
    return {
        "pipeline_s": pipeline(samples, inputs),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(workload, chains, built, samples, walls, cpus, pace, tracer) -> tuple[dict, list[str]]:
    """Per-layer metrics of the traced chain (the first input's), plus untraced medians.

    `chains` are the workload's command chains, `built` the input build times
    of every set-up; `samples` and `walls` the paced and the wall seconds per
    step label of every untraced chain run, `cpus` their CPU seconds and
    `pace` the host pace over the untraced runs.
    """
    from workloads import PEEL_X, PROCESS_LADDER, PROCESS_N, peel_bound

    recs = tracer.spans
    selfs = sp.self_times(recs)
    kids = sp.children_of(recs)
    problems: list[str] = []

    def total(name):
        return sum(r[sp.END] - r[sp.START] for r in recs if r[sp.NAME] == name)

    def calls(name):
        return sum(1 for r in recs if r[sp.NAME] == name)

    def child_spans(i, name):
        return [k for k in kids[i] if recs[k][sp.NAME] == name]

    m: dict[str, float] = {}
    layers = ("cli", "io", "cyclic", "flagify", "complexes", "coloring", "graphs", "randomclique")
    for layer in layers:
        m[f"{layer}.self_s"] = sum(
            s for r, s in zip(recs, selfs) if sp.layer_of(r[sp.NAME]) == layer
        )
    # nested spans make each command's layer self times add up to its traced wall time
    problems.extend(f"trace: {e}" for e in sp.nesting_errors(recs))

    chain_walls = [chain_wall(c) for c in walls]
    m["cli.pipeline_wall_s"] = statistics.median(chain_walls)
    m["cli.host_pace"] = pace
    m["cli.cpu_share"] = statistics.median(c / w for c, w in zip(cpus, chain_walls))
    for label, name in COMMAND_METRICS.items():
        m[name] = statistics.median(c.get(label, 0.0) for c in samples)

    steps = chains[0]
    by_label = {s.label: s for s in steps}

    m["io.read_complex_s"] = total("io.read_complex")
    m["io.read_complex_calls"] = calls("io.read_complex")
    m["io.write_complex_s"] = total("io.write_complex")
    m["io.complex_bytes"] = sum(
        os.path.getsize(f) for s in steps for f in s.files
        if s.argv[0] in ("cyclic", "flagify", "replay") and not f.startswith("trace")
    )
    m["cyclic.sphere_s"] = total("cyclic.cyclic_4_sphere")
    m["cyclic.empty_triangles_s"] = total("cyclic.empty_triangles")

    rounds = [i for i, r in enumerate(recs) if r[sp.NAME] == "flagify.eliminate_round"]
    cascade = [len(child_spans(i, "complexes.subdivide_edge")) for i in rounds]
    if any(c > 4 or c < 1 for c in cascade):
        problems.append(f"trace: a flagify round made {max(cascade)} subdivisions")
    m["flagify.rounds"] = len(rounds)
    m["flagify.subdivisions"] = sum(cascade)
    for k in range(1, 5):
        m[f"flagify.cascade_{k}"] = sum(1 for c in cascade if c == k)
    m["flagify.round_self_s"] = sum(selfs[i] for i in rounds)
    flagify_s = total("flagify.flagify")
    m["flagify.subdivisions_per_s"] = sum(cascade) / flagify_s if flagify_s else 0.0
    m["flagify.scaling_exponent"] = 0.0
    m["flagify.subdivision_exponent"] = 0.0
    if workload == "process-sphere":
        ladder = (*PROCESS_LADDER, PROCESS_N)
        labels = [f"flagify@{n}" for n in PROCESS_LADDER] + ["flagify"]
        times = [statistics.median(c[label] for c in samples) for label in labels]
        subs = [
            statistics.median(s.report["subdivision_count"] for c in chains for s in c
                              if s.label == label)
            for label in labels
        ]
        m["flagify.scaling_exponent"] = sp.log_log_slope(ladder, times)
        m["flagify.subdivision_exponent"] = sp.log_log_slope(ladder, subs)

    for short, name in (
        ("subdivide_edge", "complexes.subdivide_edge"),
        ("edge_link_structure", "complexes.edge_link_structure"),
        ("verify_manifold", "complexes.verify_closed_3_manifold"),
        ("is_flag", "complexes.is_flag"),
        ("minimal_nonfaces", "complexes.minimal_nonfaces"),
        ("f_vector", "complexes.f_vector"),
    ):
        m[f"complexes.{short}_s"] = total(name)
        m[f"complexes.{short}_calls"] = calls(name)

    peels = [i for i, r in enumerate(recs) if r[sp.NAME] == "coloring.peel_color_3"]
    peel_s = sum(recs[i][sp.END] - recs[i][sp.START] for i in peels)
    validate = sum(
        recs[k][sp.END] - recs[k][sp.START]
        for i in peels for k in kids[i]
        if recs[k][sp.NAME] in ("complexes.is_flag", "complexes.verify_closed_3_manifold")
    )
    m["coloring.peel_s"] = peel_s
    m["coloring.peel_self_s"] = sum(selfs[i] for i in peels)
    m["coloring.peel_validate_share"] = validate / peel_s if peel_s else 0.0
    m["coloring.five_color_patches"] = (
        sum(len(child_spans(i, "coloring.five_color_planar")) for i in peels) / len(peels)
        if peels else 0
    )
    color = by_label.get("color")
    vertices = color.report["vertices"] if color else 0
    m["coloring.colors"] = color.report["colors"] if color else 0
    m["coloring.bound_p5"] = peel_bound(5, PEEL_X, vertices) if color else 0
    m["coloring.colors_per_sqrt_v"] = m["coloring.colors"] / math.sqrt(vertices) if color else 0.0
    m["coloring.measure_alpha_s"] = total("coloring.measure_alpha")

    certify = by_label.get("certify")
    m["graphs.dsatur_s"] = total("graphs.chromatic_number_exact")
    m["graphs.dsatur_nodes"] = certify.report["solver_nodes"] if certify else 0
    m["graphs.dsatur_nodes_per_s"] = (
        m["graphs.dsatur_nodes"] / m["graphs.dsatur_s"] if m["graphs.dsatur_s"] else 0.0
    )
    m["graphs.greedy_independent_set_s"] = total("graphs.greedy_independent_set")
    m["graphs.input_build_s"] = statistics.median(built)

    experiment = by_label.get("random-clique")
    prunes = [i for i, r in enumerate(recs) if r[sp.NAME] == "randomclique.prune_bad_links"]
    m["randomclique.sample_s"] = total("randomclique.sample_clique_complex")
    m["randomclique.forest_fraction_s"] = total("randomclique.forest_link_fraction")
    m["randomclique.prune_s"] = total("randomclique.prune_bad_links")
    # a pass scans every link; each pass that removes vertices rebuilds the complex
    m["randomclique.prune_passes"] = sum(
        len(child_spans(i, "randomclique.TruncatedCliqueComplex")) + 1 for i in prunes
    )
    m["randomclique.removed"] = experiment.report["removed"] if experiment else 0
    m["randomclique.edges"] = experiment.report["edge_count"] if experiment else 0
    m["randomclique.triangles"] = experiment.report["face_counts"].get("3", 0) if experiment else 0
    link_s = m["randomclique.forest_fraction_s"] + m["randomclique.prune_s"]
    m["randomclique.links_per_s"] = (
        calls("randomclique.link_graph_acyclic") / link_s if link_s else 0.0
    )

    traced_wall = sum(r[sp.END] - r[sp.START] for r in recs if r[sp.PARENT] == -1)
    m["trace.overhead_s"] = traced_wall - statistics.median(chain_walls)
    return m, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "flagsphere" / "__init__.py").is_file():
        print(f"flagsphere sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    pinned = None
    if args.seed == workloads.PINNED_SEED:
        digests = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
        pinned = digests[args.workload]

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    os.chdir(work)
    pacer = Pacer()
    try:
        pacer.start()
        setups: list[tuple[float, float]] = []
        built: list[float] = []
        while len(setups) < SETUP_MIN_REPEATS or sum(b - a for a, b in setups) < SETUP_MIN_SECONDS:
            t0 = time.perf_counter()
            chains, build_s = workloads.setup(args.workload, args.seed)
            setups.append((t0, time.perf_counter()))
            built.append(build_s)

        loop = Loop(digests=pinned is not None, pinned=pinned)
        runs: list[dict[str, tuple[float, float]]] = []
        walls: list[dict[str, float]] = []
        cpus: list[float] = []
        start = time.perf_counter()
        # cycle through the inputs: at least one pass, then while a chain still fits
        while True:
            j = len(runs) % len(chains)
            spans, cpu = loop.run_chain(f"chain{j}", chains[j])
            runs.append(spans)
            walls.append({label: b - a for label, (a, b) in spans.items()})
            cpus.append(cpu)
            typical = statistics.median(chain_wall(c) for c in walls)
            if (len(runs) >= len(chains)
                    and time.perf_counter() - start + typical > args.seconds):
                break
        pacer.stop()
        samples = [{label: pacer.paced(a, b) for label, (a, b) in c.items()} for c in runs]
        setup_s = [pacer.paced(a, b) for a, b in setups]

        if args.trace:
            tracer = sp.Tracer()
            tracer.install(TRACE_SITES)
            try:
                loop.run_chain("chain0", chains[0], tracer)
            finally:
                tracer.restore()
            values, problems = per_layer(args.workload, chains, built, samples, walls, cpus,
                                         pacer.pace(), tracer)
            loop.problems.extend(problems)
            tracer.write(work.parent / f"spans-{args.workload}-{args.seed}.json")
            wanted = spec["per_layer"]
        else:
            values = end_to_end(setup_s, samples, len(chains))
            wanted = spec["end_to_end"]
    finally:
        pacer.stop()
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)

    for problem in loop.problems:
        print(problem, file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: chains of "
          + " ".join(f"{chain_wall(c):.3f}" for c in walls) + " s wall, "
          + " ".join(f"{chain_wall(c):.3f}" for c in samples) + f" s paced; pace {pacer.pace():.3f}",
          file=sys.stderr)
    metrics = {w["name"]: {"value": values[w["name"]], "unit": w["unit"]} for w in wanted}
    result = {
        "correct": not loop.problems,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.exit(main())
