"""Random clique complexes: sampling, forest-link measurement, pruning.

Samples the clique complex of G(n, p) with p = n^-alpha truncated at a
target dimension d, tests the link of every (d-3)-dimensional face once for
a cycle, prunes the vertices of the faces with cyclic links, and reports
independence numbers against the n^alpha * log n reference curve.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

from .errors import InvalidAlpha, SolverTimeout, TooSmall
from .graphs import Graph, cliques, greedy_independent_set, max_independent_set_exact


@dataclass(frozen=True)
class RandomCliqueParams:
    n: int
    alpha: float
    d: int = 3
    seed: int = 0

    def validate(self) -> None:
        if self.n < 1:
            raise TooSmall(f"need at least one vertex, got n={self.n}")
        if self.d < 3:
            raise InvalidAlpha(f"dimension must be >= 3, got {self.d}")
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
        self.faces_by_size: dict[int, set[frozenset[int]]] = {1: set(), 2: set()}
        adj = {v: graph.neighbors(v) for v in range(graph.n)}
        for clique in cliques(adj, d + 1):
            self.faces_by_size.setdefault(len(clique), set()).add(frozenset(clique))

    def faces(self, size: int) -> set[frozenset[int]]:
        return self.faces_by_size.get(size, set())

    def face_counts(self) -> dict[int, int]:
        return {k: len(v) for k, v in sorted(self.faces_by_size.items())}


def sample_gnp_edges(n: int, p: float, rng: random.Random) -> list[tuple[int, int]]:
    """Seeded G(n,p) edge sample via geometric jumps over the pair index."""
    if n < 2 or p <= 0.0:
        return []
    if p >= 1.0:
        return list(itertools.combinations(range(n), 2))
    edges = []
    total = n * (n - 1) // 2
    logq = math.log1p(-p)
    k = -1
    while True:
        r = rng.random()
        gap = int(math.log(1.0 - r) / logq) + 1 if r > 0.0 else 1
        k += gap
        if k >= total:
            break
        lo, hi = 0, n - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if (mid + 1) * n - (mid + 1) * (mid + 2) // 2 <= k:
                lo = mid + 1
            else:
                hi = mid
        i = lo
        j = k - (i * n - i * (i + 1) // 2) + i + 1
        edges.append((i, j))
    return edges


def sample_clique_complex(params: RandomCliqueParams) -> tuple[Graph, TruncatedCliqueComplex]:
    """Sample G(n, n^-alpha) and its clique complex truncated at dimension d."""
    params.validate()
    rng = random.Random(params.seed)
    g = Graph(params.n, sample_gnp_edges(params.n, params.p, rng))
    return g, TruncatedCliqueComplex(g, params.d)


def _link_graph_acyclic(g: Graph, face_vertices) -> bool:
    """Is the graph induced on the common neighborhood of `face_vertices` a forest?"""
    common: set[int] | None = None
    for v in face_vertices:
        nb = g.neighbors(v)
        common = set(nb) if common is None else common & nb
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


def _link_census(cc: TruncatedCliqueComplex) -> tuple[float, set[int]]:
    """Test the link of every (d-3)-dimensional face once.

    Those faces are the (d-2)-vertex cliques: the vertices for d=3. Returns
    the fraction of them whose link 1-skeleton is acyclic and the set of
    vertices lying in a face whose link has a cycle.
    """
    faces = cc.faces(cc.d - 2)
    bad_faces = 0
    bad_vertices: set[int] = set()
    for f in faces:
        if not _link_graph_acyclic(cc.graph, f):
            bad_faces += 1
            bad_vertices |= f
    fraction = (len(faces) - bad_faces) / len(faces) if faces else 1.0
    return fraction, bad_vertices


def forest_link_fraction(cc: TruncatedCliqueComplex) -> float:
    """Fraction of (d-3)-dimensional faces whose link 1-skeleton is acyclic."""
    return _link_census(cc)[0]


def prune_bad_links(cc: TruncatedCliqueComplex) -> tuple[TruncatedCliqueComplex, int]:
    """Remove every vertex lying in a (d-3)-face with a cyclic link.

    One pass reaches the fixpoint. A surviving face has no removed vertex,
    so its link was a forest before pruning, and its pruned link is an
    induced subgraph of that forest: a forest again. Returns the complex of
    the graph induced on the survivors, relabelled 0..k-1 in order, and the
    number of removed vertices.
    """
    _, bad = _link_census(cc)
    keep = [v for v in range(cc.graph.n) if v not in bad]
    index = {v: i for i, v in enumerate(keep)}
    edges = [(index[u], index[v]) for u, v in cc.graph.edges if u in index and v in index]
    return TruncatedCliqueComplex(Graph(len(keep), edges), cc.d), len(bad)


def independence_bound_report(
    g: Graph, params: RandomCliqueParams, exact_limit: int = 60
) -> dict:
    """Greedy (and small-case exact) independence numbers with the
    first-moment reference curve n^alpha * ln n and the measured ratio."""
    greedy = greedy_independent_set(g, params.seed)
    exact: int | None = None
    if g.n <= exact_limit:
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
    """Full experiment for one (n, alpha, d, seed): sample, test every link
    once, count what pruning removes."""
    g, cc = sample_clique_complex(params)
    fraction, bad = _link_census(cc)
    bounds = independence_bound_report(g, params)
    return {
        "n": params.n,
        "alpha": params.alpha,
        "d": params.d,
        "seed": params.seed,
        "edge_count": g.edge_count,
        "face_counts": cc.face_counts(),
        "forest_fraction": fraction,
        "removed": len(bad),
        "surviving_vertices": g.n - len(bad),
        "greedy_alpha": bounds["greedy_alpha"],
        "exact_alpha": bounds["exact_alpha"],
        "reference_curve": bounds["reference_curve"],
        "ratio": bounds["ratio"],
        "degenerate": bounds["degenerate"],
    }
