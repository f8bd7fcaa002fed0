"""Random clique complexes: sampling, forest-link census, pruning.

Samples G(n, p) with p = n^-alpha. The graph gives the vertices and edges of
its clique complex truncated at dimension d; one pass over the larger cliques
counts them without storing any and tests the link of every (d-3)-face for
a cycle: each d-clique is one link edge of each of its (d-2)-vertex subsets.
Reports what pruning removes and independence numbers against n^alpha * log n.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

from .errors import BadDimension, InvalidAlpha, SolverTimeout, TooSmall
from .graphs import (
    EXACT_ALPHA_LIMIT,
    Graph,
    cliques,
    greedy_independent_set,
    max_independent_set_exact,
)


@dataclass(frozen=True)
class RandomCliqueParams:
    n: int
    alpha: float
    d: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise TooSmall(f"need at least one vertex, got n={self.n}")
        if self.d < 3:
            raise BadDimension(f"dimension must be >= 3, got {self.d}")
        lo = 1.0 / (self.d - 1)
        hi = 1.0 / (self.d - 2)
        if not (lo < self.alpha < hi):
            raise InvalidAlpha(
                f"alpha must lie strictly in ({lo}, {hi}) for d={self.d}, got {self.alpha}"
            )

    @property
    def p(self) -> float:
        return self.n ** (-self.alpha)


class TruncatedCliqueComplex:
    """Clique complex of a graph with faces enumerated up to dimension d."""

    def __init__(self, graph: Graph, d: int):
        self.graph = graph
        self.d = d
        self.faces_by_size: dict[int, set[tuple[int, ...]]] = {1: {(v,) for v in range(graph.n)}}
        self.faces_by_size[2] = set(graph.edges)
        for clique in cliques({v: graph.neighbors(v) for v in range(graph.n)}, d + 1):
            self.faces_by_size.setdefault(len(clique), set()).add(clique)

    def faces(self, size: int) -> set[tuple[int, ...]]:
        return self.faces_by_size.get(size, set())

    def face_counts(self) -> dict[int, int]:
        return {k: len(v) for k, v in sorted(self.faces_by_size.items())}


def sample_gnp_edges(n: int, p: float, rng: random.Random) -> list[tuple[int, int]]:
    """Seeded G(n,p) edge sample via geometric jumps over the pair index k of
    (i, j), i < j, row by row; k only grows, so the row i walks along with it."""
    if n < 2 or p <= 0.0:
        return []
    if p >= 1.0:
        return list(itertools.combinations(range(n), 2))
    edges = []
    total = n * (n - 1) // 2
    logq = math.log1p(-p)
    k = -1
    i, row_end = 0, n - 1
    while True:
        r = rng.random()
        gap = int(math.log(1.0 - r) / logq) + 1 if r > 0.0 else 1
        k += gap
        if k >= total:
            break
        while k >= row_end:
            i += 1
            row_end += n - 1 - i
        edges.append((i, k - row_end + n))
    return edges


def sample_graph(params: RandomCliqueParams) -> Graph:
    """Sample G(n, n^-alpha) from the seed."""
    return Graph(params.n, sample_gnp_edges(params.n, params.p, random.Random(params.seed)))


def sample_clique_complex(params: RandomCliqueParams) -> tuple[Graph, TruncatedCliqueComplex]:
    """Sample G(n, n^-alpha) and its clique complex truncated at dimension d."""
    g = sample_graph(params)
    return g, TruncatedCliqueComplex(g, params.d)


# not called here; the census oracle and a perfbench/run.py trace site, bound for tests/conftest.py
def _link_graph_acyclic(g: Graph, face_vertices) -> bool:
    """Is the graph induced on the common neighborhood of `face_vertices` a forest?"""
    common = set.intersection(*(g.neighbors(v) for v in face_vertices))
    if not common:
        return True
    idx = {u: i for i, u in enumerate(sorted(common))}
    parent = list(range(len(idx)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u in idx:
        for w in g.neighbors(u):
            if w > u and w in idx:
                ru, rw = find(idx[u]), find(idx[w])
                if ru == rw:
                    return False
                parent[ru] = rw
    return True


def _root(parent: dict[int, int], x: int) -> int:
    """Union-find root of x by path splitting; roots are absent from `parent`."""
    while x in parent:
        up = parent[x]
        parent[x] = parent.get(up, up)
        x = up
    return x


def clique_census(g: Graph, d: int) -> tuple[dict[int, int], float, set[int]]:
    """Count the faces of the clique complex truncated at dimension d and test
    the link of every (d-3)-face, the (d-2)-cliques, in one clique pass.

    The link 1-skeleton of a face f has one edge, C - f, per d-clique C that
    contains f, so each d-clique feeds its pairs to per-face union-finds. Returns
    the face counts by size (1 and 2 always, larger sizes when present), the
    fraction of (d-3)-faces whose link is acyclic and the vertices of the rest.
    """
    counts = {1: g.n, 2: g.edge_count, **dict.fromkeys(range(3, d + 2), 0)}
    forests: dict[tuple[int, ...], dict[int, int]] = {}
    bad: set[tuple[int, ...]] = set()
    for clique in cliques({v: g.neighbors(v) for v in range(g.n)}, d + 1):
        counts[len(clique)] += 1
        if len(clique) != d:
            continue
        for u, w in itertools.combinations(clique, 2):
            face = tuple(x for x in clique if x != u and x != w)
            parent = forests.setdefault(face, {})
            ru, rw = _root(parent, u), _root(parent, w)
            if ru == rw:
                bad.add(face)
            else:
                parent[ru] = rw
    faces = counts[d - 2]
    fraction = (faces - len(bad)) / faces if faces else 1.0
    face_counts = {k: c for k, c in counts.items() if c or k <= 2}
    return face_counts, fraction, {v for face in bad for v in face}


def forest_link_fraction(cc: TruncatedCliqueComplex) -> float:
    """Fraction of (d-3)-dimensional faces whose link 1-skeleton is acyclic."""
    return clique_census(cc.graph, cc.d)[1]


def prune_bad_links(cc: TruncatedCliqueComplex) -> tuple[TruncatedCliqueComplex, int]:
    """Remove every vertex lying in a (d-3)-face with a cyclic link.

    One pass reaches the fixpoint. A surviving face has no removed vertex,
    so its link was a forest before pruning, and its pruned link is an
    induced subgraph of that forest: a forest again. Returns the complex of
    the graph induced on the survivors, relabelled 0..k-1 in order, and the
    number of removed vertices.
    """
    _, _, bad = clique_census(cc.graph, cc.d)
    keep = [v for v in range(cc.graph.n) if v not in bad]
    return TruncatedCliqueComplex(Graph.induced(cc.graph.neighbors, keep)[0], cc.d), len(bad)


def independence_bound_report(g: Graph, params: RandomCliqueParams) -> dict:
    """Greedy (and small-case exact) independence numbers with the
    first-moment reference curve n^alpha * ln n and the measured ratio."""
    greedy = greedy_independent_set(g, params.seed)
    exact: int | None = None
    if g.n <= EXACT_ALPHA_LIMIT:
        try:
            exact = len(max_independent_set_exact(g))
        except SolverTimeout:
            exact = None
    reference = params.n**params.alpha * math.log(params.n) if params.n > 1 else 0.0
    size = exact if exact is not None else len(greedy)
    degenerate = g.edge_count == 0
    return {
        "greedy_alpha": len(greedy),
        "exact_alpha": exact,
        "reference_curve": reference,
        "ratio": (size / reference) if reference > 0 else None,
        "degenerate": degenerate,
    }


def run_experiment(params: RandomCliqueParams) -> dict:
    """Full experiment for one (n, alpha, d, seed): sample, count faces and
    test every link in one clique pass, count what pruning removes."""
    g = sample_graph(params)
    face_counts, fraction, bad = clique_census(g, params.d)
    return {
        "n": params.n,
        "alpha": params.alpha,
        "d": params.d,
        "seed": params.seed,
        "edge_count": g.edge_count,
        "face_counts": face_counts,
        "forest_fraction": fraction,
        "removed": len(bad),
        "surviving_vertices": g.n - len(bad),
        **independence_bound_report(g, params),
    }
