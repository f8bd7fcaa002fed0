"""Random clique complexes: sampling, forest-link census, pruning.

Samples G(n, p) with p = n^-alpha into forward rows, each vertex's larger
neighbours in increasing order, which hold the vertices and edges of its clique
complex truncated at dimension d. One walk over the larger cliques counts them
without storing any and tests each (d-3)-face's link for a cycle: each d-clique
is one link edge of each of its (d-2)-vertex subsets. Reports pruning and alpha.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from operator import itemgetter

from .errors import BadDimension, InvalidAlpha, SolverTimeout, TooLarge, TooSmall
from .graphs import (
    EXACT_ALPHA_LIMIT,
    MAX_VERTICES,
    Graph,
    cliques,
    forward_rows,
    greedy_independent_set,
    max_independent_set_exact,
)

# cap on the expected edge count (n has the Graph cap, graphs.MAX_VERTICES);
# n=10^5 at alpha=0.55 (8.9M edges) peaks near 250 MB
MAX_EDGES = 2 * 10**7


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
        if self.n > MAX_VERTICES or self.n * (self.n - 1) / 2 * self.p > MAX_EDGES:
            caps = f"{MAX_VERTICES} vertices and {MAX_EDGES} expected edges"
            raise TooLarge(f"n={self.n} at alpha={self.alpha} exceeds the caps of {caps}")
        # after the range checks, so a float past a cap is still TooLarge; a bool
        # is an int, and a float n or d within range would fail in the sampler
        for name in ("n", "d"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise TypeError(f"{name} must be an int, got {value!r}")

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
        for clique in cliques(forward_rows(graph.neighbors, range(graph.n)), d + 1):
            self.faces_by_size.setdefault(len(clique), set()).add(clique)

    def faces(self, size: int) -> set[tuple[int, ...]]:
        return self.faces_by_size.get(size, set())

    def face_counts(self) -> dict[int, int]:
        return {k: len(v) for k, v in sorted(self.faces_by_size.items())}


def sample_gnp_edges(n: int, p: float, rng: random.Random):
    """Seeded G(n,p) edges (i, j), i < j, yielded row by row via geometric jumps
    over their pair index k; k only grows, so the row i walks along with it."""
    if n < 2 or p <= 0.0:
        return
    if p >= 1.0:
        yield from itertools.combinations(range(n), 2)
        return
    total = n * (n - 1) // 2
    logq = math.log1p(-p)
    rand, log = rng.random, math.log
    k = -1
    i, row_end = 0, n - 1
    while True:
        r = rand()
        gap = int(log(1.0 - r) / logq) + 1 if r > 0.0 else 1
        k += gap
        if k >= total:
            break
        while k >= row_end:
            i += 1
            row_end += n - 1 - i
        yield i, k - row_end + n


def sample_rows(params: RandomCliqueParams) -> dict[int, tuple[int, ...]]:
    """Sample G(n, n^-alpha) from the seed as forward rows of the vertices 0..n-1."""
    ids = list(range(params.n))  # one int object per vertex, shared by the rows
    rows = dict.fromkeys(ids, ())
    edges = sample_gnp_edges(params.n, params.p, random.Random(params.seed))
    for i, row in itertools.groupby(edges, key=itemgetter(0)):
        rows[i] = tuple(ids[j] for _, j in row)
    return rows


def sample_clique_complex(params: RandomCliqueParams) -> tuple[Graph, TruncatedCliqueComplex]:
    """Sample G(n, n^-alpha) and its clique complex truncated at dimension d."""
    g = Graph(params.n, sample_gnp_edges(params.n, params.p, random.Random(params.seed)))
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


def clique_census(rows, d: int) -> tuple[dict[int, int], float, set[int]]:
    """Count the faces of the clique complex truncated at dimension d and test
    the link of every (d-3)-face, the (d-2)-cliques, in one walk over rows.

    The link 1-skeleton of a face f has one edge, C - f, per d-clique C that
    contains f, so each d-clique feeds its pairs to per-face union-finds. Returns
    the face counts by size (1 and 2 always, larger sizes when present), the
    fraction of (d-3)-faces whose link is acyclic and the vertices of the rest.
    """
    counts = {1: len(rows), 2: sum(map(len, rows.values())), **dict.fromkeys(range(3, d + 2), 0)}
    forests: dict[tuple[int, ...], dict[int, int]] = {}
    bad: set[tuple[int, ...]] = set()
    for clique in cliques(rows, d + 1):
        counts[len(clique)] += 1
        if len(clique) != d:
            continue
        # the i-th (d-2)-subset in lexicographic order misses the i-th pair from the end
        pairs = reversed(list(itertools.combinations(clique, 2)))
        for face, (u, w) in zip(itertools.combinations(clique, d - 2), pairs):
            parent = forests.setdefault(face, {})  # union-find; a root has no entry
            while u in parent:  # path halving: u and its parent move to the grandparent
                parent[u] = u = parent.get(parent[u], parent[u])
            while w in parent:
                parent[w] = w = parent.get(parent[w], parent[w])
            if u == w:
                bad.add(face)
            else:
                parent[u] = w
    faces = counts[d - 2]
    fraction = (faces - len(bad)) / faces if faces else 1.0
    face_counts = {k: c for k, c in counts.items() if c or k <= 2}
    return face_counts, fraction, {v for face in bad for v in face}


def forest_link_fraction(cc: TruncatedCliqueComplex) -> float:
    """Fraction of (d-3)-dimensional faces whose link 1-skeleton is acyclic."""
    return clique_census(forward_rows(cc.graph.neighbors, range(cc.graph.n)), cc.d)[1]


def prune_bad_links(cc: TruncatedCliqueComplex) -> tuple[TruncatedCliqueComplex, int]:
    """Remove every vertex lying in a (d-3)-face with a cyclic link.

    One pass reaches the fixpoint. A surviving face has no removed vertex,
    so its link was a forest before pruning, and its pruned link is an
    induced subgraph of that forest: a forest again. Returns the complex of
    the graph induced on the survivors, relabelled 0..k-1 in order, and the
    number of removed vertices.
    """
    _, _, bad = clique_census(forward_rows(cc.graph.neighbors, range(cc.graph.n)), cc.d)
    keep = [v for v in range(cc.graph.n) if v not in bad]
    return TruncatedCliqueComplex(Graph.induced(cc.graph.neighbors, keep)[0], cc.d), len(bad)


def independence_bound_report(rows, params: RandomCliqueParams) -> dict:
    """Greedy (and small-case exact) independence numbers of the graph with these
    forward rows, the first-moment reference curve n^alpha * ln n and the ratio."""
    greedy = greedy_independent_set(rows, params.seed)
    exact: int | None = None
    if len(rows) <= EXACT_ALPHA_LIMIT:
        edges = ((v, w) for v, row in rows.items() for w in row)
        try:
            exact = len(max_independent_set_exact(Graph(len(rows), edges)))
        except SolverTimeout:
            exact = None
    reference = params.n**params.alpha * math.log(params.n) if params.n > 1 else 0.0
    size = exact if exact is not None else len(greedy)
    degenerate = not any(rows.values())
    return {
        "greedy_alpha": len(greedy),
        "exact_alpha": exact,
        "reference_curve": reference,
        "ratio": (size / reference) if reference > 0 else None,
        "degenerate": degenerate,
    }


def run_experiment(params: RandomCliqueParams) -> dict:
    """Full experiment for one (n, alpha, d, seed): sample forward rows, count
    faces and test every link in one clique pass, count what pruning removes."""
    rows = sample_rows(params)
    face_counts, fraction, bad = clique_census(rows, params.d)
    return {
        "n": params.n,
        "alpha": params.alpha,
        "d": params.d,
        "seed": params.seed,
        "edge_count": face_counts[2],
        "face_counts": face_counts,
        "forest_fraction": fraction,
        "removed": len(bad),
        "surviving_vertices": params.n - len(bad),
        **independence_bound_report(rows, params),
    }
