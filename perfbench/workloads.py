"""Workload inputs, their CLI command chains and the checks on every output.

A workload's set-up builds its input files from the seed; each of its chains is a
list of CLI commands run in order in the working directory. Every command
is checked: exit code, the report it prints, the files it writes and, at
the pinned seed, the SHA-256 of all of them.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import random

from flagsphere import (
    Graph,
    RandomCliqueParams,
    chromatic_number_exact,
    mycielskian,
    triangle_free_process,
)
from flagsphere.io import write_graph
from flagsphere.randomclique import sample_gnp_edges

WORKLOADS = ("m6-sphere", "process-sphere", "random-clique")
PINNED_SEED = 1

PROCESS_N = 34
PROCESS_LADDER = (24, 29)
PROCESS_GRAPHS = 9
RANDOM_CLIQUE = {"n": 5000, "alpha": 0.55, "d": 3}
PEEL_X = math.sqrt(5.0)


@dataclass
class Step:
    """One CLI invocation; `check` returns a list of problems with its output."""

    label: str
    argv: list[str]
    check: object
    files: tuple[str, ...] = ()
    report: dict = field(default_factory=dict)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def step_digests(step: Step, stdout: str) -> dict[str, str]:
    out = {"stdout": sha256(stdout.encode("utf-8"))}
    for name in step.files:
        out[name] = sha256(Path(name).read_bytes())
    return out


# -- independent readers of the program's output files ---------------------------


def _data_lines(path: str):
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            yield line


def complex_edges(path: str) -> tuple[set[int], set[tuple[int, int]]]:
    """Vertices and edges of the facets in a complex file."""
    verts: set[int] = set()
    edges: set[tuple[int, int]] = set()
    for line in _data_lines(path):
        if line == "tags:":
            break
        facet = sorted(int(p) for p in line.split())
        verts.update(facet)
        for i, u in enumerate(facet):
            for v in facet[i + 1:]:
                edges.add((u, v))
    return verts, edges


def coloring_map(path: str) -> dict[int, int]:
    out: dict[int, int] = {}
    for line in _data_lines(path):
        v, c = (int(p) for p in line.split())
        out[v] = c
    return out


def peel_bound(p: int, x: float, vertices: int) -> int:
    """The peel coloring's budget ceil((p/x + x) * sqrt(V)) + 1."""
    return math.ceil((p / x + x) * math.sqrt(vertices)) + 1


# -- sphere chains -------------------------------------------------------------------


def _expect(problems: list[str], ok: bool, what: str) -> None:
    if not ok:
        problems.append(what)


def _flagify_step(label: str, n: int, graph: str, out: str, trace: str | None) -> Step:
    argv = ["flagify", "--graph", graph, "--n", str(n), "--out", out]
    if trace:
        argv += ["--trace", trace]

    def check(rep: dict) -> list[str]:
        p: list[str] = []
        bound = 4 * math.comb(n, 2) + n
        subs = rep["subdivision_count"]
        _expect(p, rep["bound"] == bound, f"bound {rep['bound']} != {bound}")
        _expect(p, rep["final_vertex_count"] == n + subs, "vertex accounting n + subdivisions")
        _expect(p, rep["final_vertex_count"] <= bound, "vertex count above bound")
        _expect(p, rep["round_count"] >= 1 and subs >= rep["round_count"], "round count")
        return p

    return Step(label, argv, check, (out, trace) if trace else (out,))


def sphere_chain(n: int, graph: Graph, k: int, seed: int, tag: str = "", ladder=()) -> list[Step]:
    """Ladder flagify points, then cyclic -> flagify -> replay -> verify -> color -> certify.

    Input graphs are read from graph<tag>.txt and graph<tag>_<m>.txt.
    """
    graph_file = f"graph{tag}.txt"
    steps = [
        _flagify_step(f"flagify@{m}", m, f"graph{tag}_{m}.txt", f"sphere{m}.txt", None)
        for m in ladder
    ]

    def check_cyclic(rep):
        p: list[str] = []
        _expect(p, rep["n"] == n and rep["facets"] == n * (n - 3) // 2, "cyclic facet count")
        return p

    steps.append(Step("cyclic", ["cyclic", "--n", str(n), "--out", "cyclic.txt"],
                      check_cyclic, ("cyclic.txt",)))
    flag = _flagify_step("flagify", n, graph_file, "sphere.txt", "trace.txt")
    steps.append(flag)

    def check_replay(rep):
        p: list[str] = []
        same = Path("replay.txt").read_bytes() == Path("sphere.txt").read_bytes()
        _expect(p, same, "replay output differs from flagify output")
        _expect(p, rep["events"] == flag.report.get("subdivision_count"), "replay event count")
        return p

    steps.append(Step("replay", ["replay", "--in", "cyclic.txt", "--trace", "trace.txt",
                                 "--out", "replay.txt"], check_replay, ("replay.txt",)))

    def check_verify(rep):
        p: list[str] = []
        vertices = flag.report.get("final_vertex_count")
        _expect(p, rep["is_flag"] is True, "not a flag complex")
        _expect(p, all(rep["manifold_checks"].values()), "manifold check failed")
        _expect(p, rep["empty_triangle_count"] == 0, "empty triangles left")
        _expect(p, rep["f_vector"][0] == vertices and rep["euler"] == 0, "f-vector")
        _expect(p, rep["chromatic_upper"] is not None, "no peel coloring in report")
        return p

    steps.append(Step("verify", ["verify", "--in", "sphere.txt", "--seed", str(seed)],
                      check_verify))

    def check_color(rep):
        p: list[str] = []
        verts, edges = complex_edges("sphere.txt")
        colors = coloring_map("coloring.txt")
        _expect(p, set(colors) == verts, "coloring does not cover the vertices")
        _expect(p, all(colors.get(u) != colors.get(v) for u, v in edges), "improper coloring")
        used = len(set(colors.values()))
        _expect(p, rep["colors"] == used and rep["vertices"] == len(verts), "color report")
        _expect(p, used <= peel_bound(5, PEEL_X, len(verts)), "colors above peel bound p=5")
        return p

    steps.append(Step("color", ["color", "--in", "sphere.txt", "--out", "coloring.txt"],
                      check_color, ("coloring.txt",)))

    def check_certify(rep):
        p: list[str] = []
        _expect(p, rep["certified"] is True and rep["k"] == k, f"not certified at k={k}")
        _expect(p, rep["graph"] == {"n": graph.n, "m": graph.edge_count}, "certified graph")
        return p

    steps.append(Step("certify", ["certify", "--in", "sphere.txt", "--graph", graph_file,
                                  "--k", str(k)], check_certify))
    return steps


# -- set-up: build the inputs and write their files -------------------------------------


def _mycielski_m6() -> Graph:
    g = Graph.single_edge()
    for _ in range(4):
        g = mycielskian(g)
    return g


def setup(workload: str, seed: int) -> tuple[list[list[Step]], float]:
    """Write the workload's input files into the working directory.

    Returns one command chain per input graph and the time spent building
    the input graphs.
    """
    t0 = time.perf_counter()
    if workload == "m6-sphere":
        g = _mycielski_m6()
        built = time.perf_counter() - t0
        write_graph(g, "graph.txt")
        return [sphere_chain(47, g, 6, seed)], built
    if workload == "process-sphere":
        # several graphs per run, so that one run's median does not hang on one draw
        inputs = []
        for j in range(PROCESS_GRAPHS):
            graph_seed = seed * 100 + j
            graphs = {m: triangle_free_process(m, graph_seed) for m in (*PROCESS_LADDER, PROCESS_N)}
            # certify at the exact chromatic number, which the graph determines
            inputs.append((graphs, chromatic_number_exact(graphs[PROCESS_N]).chi))
        built = time.perf_counter() - t0
        chains = []
        for j, (graphs, k) in enumerate(inputs):
            for m in PROCESS_LADDER:
                write_graph(graphs[m], f"graph{j}_{m}.txt")
            write_graph(graphs[PROCESS_N], f"graph{j}.txt")
            chains.append(sphere_chain(PROCESS_N, graphs[PROCESS_N], k, seed, str(j), PROCESS_LADDER))
        return chains, built
    if workload == "random-clique":
        params = dict(RANDOM_CLIQUE, seed=seed)
        # the program samples G(n, p) itself; build the same graph to check its edge count
        p = RandomCliqueParams(**params).p
        g = Graph(params["n"], sample_gnp_edges(params["n"], p, random.Random(seed)))
        built = time.perf_counter() - t0
        Path("params.json").write_text(json.dumps(params) + "\n", encoding="utf-8")
        return [[Step("random-clique", ["random-clique", "--config", "params.json"],
                      _random_clique_check(params, g.edge_count))]], built
    raise ValueError(f"unknown workload {workload!r}")


def _random_clique_check(params: dict, edges: int):
    def check(rep):
        p: list[str] = []
        n = params["n"]
        _expect(p, all(rep[key] == params[key] for key in params), "echoed parameters")
        faces = rep["face_counts"]
        _expect(p, rep["edge_count"] == edges, f"sampled {rep['edge_count']} edges, expected {edges}")
        _expect(p, faces["1"] == n and faces["2"] == edges, "face counts")
        _expect(p, 0.0 < rep["forest_fraction"] <= 1.0, "forest fraction out of range")
        _expect(p, rep["surviving_vertices"] == n - rep["removed"], "prune accounting")
        _expect(p, rep["greedy_alpha"] > 0 and rep["degenerate"] is False, "independence report")
        return p

    return check
