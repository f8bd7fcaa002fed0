"""Simple undirected graphs: triangle-free generators and exact solvers.

Provides the embedded-graph side of the pipeline: Mycielski towers with
certified chromatic number, the seeded triangle-free process for larger
inputs, exact chromatic / independence solvers (DSATUR and bitset branch and
bound) with explored-node budgets so runs are reproducible, and `cliques`,
the one clique walk, which starts at triangles. `Graph` keeps each edge once,
in adjacency sets, and `Graph.induced` is the one way to relabel a vertex
subset to 0..k-1.
"""

from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass

from .errors import SolverTimeout

# largest vertex count whose independence number the reports solve exactly
EXACT_ALPHA_LIMIT = 60
# default explored-node cap of the solvers and of the CLI's --budget
NODE_BUDGET = 20_000_000


class Graph:
    """Simple undirected graph on vertices 0..n-1.

    Each edge is stored once, as a pair of entries in the adjacency sets.
    """

    __slots__ = ("n", "edge_count", "_adj")

    def __init__(self, vertex_count: int, edges):
        if vertex_count < 0:
            raise ValueError("vertex_count must be non-negative")
        self.n = vertex_count
        adj: list[set[int]] = [set() for _ in range(vertex_count)]
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ValueError(f"edge ({u}, {v}) out of range for n={vertex_count}")
            adj[u].add(v)
            adj[v].add(u)
        self._adj = adj
        self.edge_count = sum(map(len, adj)) // 2

    @classmethod
    def induced(cls, neighbors, vertices) -> tuple["Graph", list[int]]:
        """The subgraph induced on the distinct `vertices`, relabelled 0..k-1 in
        sorted order, and that sorted list, which maps the labels back.

        `neighbors(v)` returns the neighbour set of v. Each set is read once
        and a pair is an edge when the larger vertex is in the smaller one's
        set, so the cost is O(sum of degrees), not O(k^2).
        """
        order = sorted(vertices)
        index = {v: i for i, v in enumerate(order)}
        edges = [
            (i, index[u]) for i, v in enumerate(order) for u in neighbors(v) if u > v and u in index
        ]
        return cls(len(order), edges), order

    @property
    def edges(self) -> list[tuple[int, int]]:
        """Every edge as (u, v) with u < v, in sorted order; the list is built
        afresh from the adjacency on each call."""
        return [(u, v) for u, nbrs in enumerate(self._adj) for v in sorted(nbrs) if u < v]

    def neighbors(self, v: int) -> set[int]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj[u]

    def max_degree(self) -> int:
        return max((len(a) for a in self._adj), default=0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._adj == other._adj

    def __hash__(self):
        return hash((self.n, self.edge_count))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"

    # -- small constructors used across the test corpus ------------------------

    @classmethod
    def edgeless(cls, n: int) -> "Graph":
        return cls(n, [])

    @classmethod
    def single_edge(cls) -> "Graph":
        return cls(2, [(0, 1)])

    @classmethod
    def cycle(cls, n: int) -> "Graph":
        return cls(n, [(i, (i + 1) % n) for i in range(n)])

    @classmethod
    def complete(cls, n: int) -> "Graph":
        return cls(n, list(itertools.combinations(range(n), 2)))


@dataclass(frozen=True)
class Coloring:
    """Total vertex -> color mapping; color_count is the distinct-color count."""

    assignment: dict[int, int]
    color_count: int

    @classmethod
    def from_assignment(cls, assignment: dict[int, int]) -> "Coloring":
        return cls(assignment=dict(assignment), color_count=len(set(assignment.values())))


def is_proper_coloring(g: Graph, coloring: Coloring) -> bool:
    a = coloring.assignment
    return all(a[u] != a[v] for u, v in g.edges)


def is_triangle_free(g: Graph) -> bool:
    return all(not (g.neighbors(u) & g.neighbors(v)) for u, v in g.edges)


def cliques(adj, max_size: int):
    """Yield every clique of 3..max_size vertices once, as a sorted tuple.

    `adj` maps each vertex to its neighbor set; its vertices and edges are the
    cliques of sizes 1 and 2. A clique's candidates leave their set in
    increasing order before each extends it, so the set then holds only larger
    vertices, and its meet with the new vertex's neighbors is passed down: the
    search never revisits a clique (Chiba & Nishizeki, SIAM J. Comput. 1985).
    """
    for v in sorted(adj):
        stack = [((v,), {u for u in adj[v] if u > v})]
        while stack:
            clique, cand = stack.pop()
            for w in sorted(cand):
                cand.discard(w)
                grown = clique + (w,)
                if len(grown) > 2:
                    yield grown
                if len(grown) < max_size:
                    common = cand & adj[w]
                    if common:
                        stack.append((grown, common))


def smallest_last_order(g: Graph) -> list[tuple[int, int]]:
    """(remaining degree, vertex) in the order of repeatedly deleting a vertex
    of least (degree, id) (Matula & Beck, J. ACM 1983). Degrees only fall, so
    a vertex's live heap entry pops before its stale ones, which are skipped."""
    degree = [g.degree(v) for v in range(g.n)]
    heap = [(d, v) for v, d in enumerate(degree)]
    heapq.heapify(heap)
    deleted = [False] * g.n
    order: list[tuple[int, int]] = []
    while heap:
        d, v = heapq.heappop(heap)
        if deleted[v]:
            continue
        deleted[v] = True
        order.append((d, v))
        for u in g.neighbors(v):
            if not deleted[u]:
                degree[u] -= 1
                heapq.heappush(heap, (degree[u], u))
    return order


def mycielskian(g: Graph) -> Graph:
    """Mycielski construction: triangle-free preserving, chromatic number +1.

    Vertices 0..n-1 keep their edges, vertex n+i is the shadow of i (joined
    to i's neighbors), vertex 2n is the apex joined to all shadows.
    """
    n = g.n
    edges = g.edges
    for i in range(n):
        for j in g.neighbors(i):
            edges.append((n + i, j))
    apex = 2 * n
    edges.extend((n + i, apex) for i in range(n))
    return Graph(2 * n + 1, edges)


def grotzsch_graph() -> Graph:
    """Second Mycielski iterate of a single edge: 11 vertices, chromatic 4."""
    return mycielskian(mycielskian(Graph.single_edge()))


def triangle_free_process(n: int, seed: int) -> Graph:
    """Maximal triangle-free graph grown edge by edge in seeded random order.

    Each candidate edge is added unless it closes a triangle; one pass over
    a uniformly shuffled pair list is equivalent to drawing addable edges
    uniformly until none remain, because a rejected pair stays rejected.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = random.Random(seed)
    pairs = list(itertools.combinations(range(n), 2))
    rng.shuffle(pairs)
    adj: list[set[int]] = [set() for _ in range(n)]
    edges = []
    for u, v in pairs:
        if adj[u] & adj[v]:
            continue
        adj[u].add(v)
        adj[v].add(u)
        edges.append((u, v))
    return Graph(n, edges)


# -- exact chromatic number ----------------------------------------------------


@dataclass(frozen=True)
class ChromaticResult:
    """Outcome of the exact solver.

    Either chi and a witness coloring are set, or chi is None and the search
    proved that no coloring with the solver's `limit` colors exists.
    """

    chi: int | None
    coloring: Coloring | None
    nodes: int

    @property
    def exceeded_limit(self) -> bool:
        return self.chi is None


class _Budget:
    __slots__ = ("used", "cap")

    def __init__(self, cap: int):
        self.used = 0
        self.cap = cap

    def spend(self):
        self.used += 1
        if self.used > self.cap:
            raise SolverTimeout(f"node budget {self.cap} exceeded")


def _greedy_clique(g: Graph) -> list[int]:
    """Greedy clique from the highest-degree vertex; a chromatic lower bound."""
    if g.n == 0:
        return []
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    clique = [order[0]]
    common = set(g.neighbors(order[0]))
    for v in order[1:]:
        if v in common:
            clique.append(v)
            common &= g.neighbors(v)
    return clique


def _k_colorable(g: Graph, k: int, budget: _Budget) -> list[int] | None:
    """Complete DSATUR backtracking search for a proper k-coloring.

    Returns an assignment list or None after exhausting the (symmetry
    reduced) search space. New color indices are introduced in order, so
    permutations of the palette are explored once. Bit i of every mask is
    the i-th vertex by (-degree, id); has[c] holds the vertices with a
    neighbor colored c and bucket[s] the uncolored ones with s distinct
    neighbor colors, so the lowest bit of the top non-empty bucket is the
    DSATUR choice (Brelaz, Commun. ACM 1979).
    """
    n = g.n
    if n == 0:
        return []
    if k <= 0:
        return None
    order = sorted(range(n), key=lambda v: (-g.degree(v), v))
    rank = {v: i for i, v in enumerate(order)}
    nbr = [sum(1 << rank[u] for u in g.neighbors(v)) for v in order]
    has = [0] * k
    bucket = [0] * (k + 1)
    colors = [0] * n

    def shift(rest: int, s: int, step: int) -> None:
        # move each bit of `rest` one bucket by `step`, scanning from s against it
        while rest:
            moving = rest & bucket[s]
            bucket[s] ^= moving
            bucket[s + step] |= moving
            rest ^= moving
            s -= step

    def backtrack(num_used: int, uncolored: int) -> bool:
        budget.spend()
        if not uncolored:
            return True
        s = num_used
        while not bucket[s]:
            s -= 1
        bit = bucket[s] & -bucket[s]
        i = bit.bit_length() - 1
        bucket[s] ^= bit
        uncolored ^= bit
        free_nbrs = nbr[i] & uncolored
        for c in range(num_used + 1 if num_used < k else k):
            if has[c] & bit:
                continue
            colors[i] = c
            used = num_used if c < num_used else c + 1
            touched = free_nbrs & ~has[c]
            has[c] |= touched
            # touched vertices lack c, so their saturation is below `used`
            shift(touched, used - 1, 1)
            if backtrack(used, uncolored):
                return True
            has[c] ^= touched
            shift(touched, 1, -1)
        bucket[s] |= bit
        return False

    bucket[0] = (1 << n) - 1
    if backtrack(0, bucket[0]):
        return [colors[rank[v]] for v in range(n)]
    return None


def chromatic_number_exact(
    g: Graph, limit: int | None = None, node_budget: int = NODE_BUDGET
) -> ChromaticResult:
    """Exact chromatic number with witness, or proof that chi > limit.

    Tries k-colorability for k from a greedy-clique lower bound upward; each
    failed level is an exhausted search. With `limit` set, the search stops
    there and reports exceedance instead of chi. Raises SolverTimeout when
    the explored-node budget runs out.
    """
    budget = _Budget(node_budget)
    if g.n == 0:
        return ChromaticResult(chi=0, coloring=Coloring({}, 0), nodes=0)
    lb = max(1, len(_greedy_clique(g)))
    hi = limit if limit is not None else g.n
    for k in range(lb, hi + 1):
        found = _k_colorable(g, k, budget)
        if found is not None:
            assignment = {v: found[v] for v in range(g.n)}
            return ChromaticResult(
                chi=k, coloring=Coloring.from_assignment(assignment), nodes=budget.used
            )
    if limit is None:
        raise AssertionError("n colors always suffice")  # pragma: no cover
    return ChromaticResult(chi=None, coloring=None, nodes=budget.used)


# -- independent sets ----------------------------------------------------------


def max_independent_set_exact(g: Graph, node_budget: int = NODE_BUDGET) -> set[int]:
    """A maximum independent set via bitset branch and bound.

    Degree-0/1 vertices inside the candidate set are taken greedily (always
    safe), then branching removes a maximum-degree vertex or its closed
    neighborhood. Intended for graphs up to roughly 60 vertices.
    """
    n = g.n
    if n == 0:
        return set()
    nbr = [sum(1 << u for u in g.neighbors(v)) for v in range(n)]
    budget = _Budget(node_budget)

    # deterministic greedy start for the bound
    taken = 0
    blocked = 0
    for v in sorted(range(n), key=lambda v: (g.degree(v), v)):
        if not (blocked >> v) & 1:
            taken |= 1 << v
            blocked |= (1 << v) | nbr[v]
    best_mask = taken
    best_size = taken.bit_count()

    def bb(cand: int, cur_mask: int, cur_size: int):
        nonlocal best_mask, best_size
        budget.spend()
        while cand:
            # pull out candidate degrees; apply safe low-degree reductions
            reduced = False
            c = cand
            max_v = -1
            max_d = -1
            while c:
                v = (c & -c).bit_length() - 1
                c &= c - 1
                d = (nbr[v] & cand).bit_count()
                if d <= 1:
                    cand &= ~((1 << v) | nbr[v])
                    cur_mask |= 1 << v
                    cur_size += 1
                    reduced = True
                    break
                if d > max_d:
                    max_d = d
                    max_v = v
            if reduced:
                continue
            if cur_size + cand.bit_count() <= best_size:
                return
            v = max_v
            bb(cand & ~((1 << v) | nbr[v]), cur_mask | (1 << v), cur_size + 1)
            bb(cand & ~(1 << v), cur_mask, cur_size)
            return
        if cur_size > best_size:
            best_size = cur_size
            best_mask = cur_mask

    bb((1 << n) - 1, 0, 0)
    return {v for v in range(n) if (best_mask >> v) & 1}


def greedy_independent_set(g: Graph, seed: int) -> set[int]:
    """Maximal independent set from a seeded random vertex order."""
    rng = random.Random(seed)
    order = list(range(g.n))
    rng.shuffle(order)
    chosen: set[int] = set()
    blocked: set[int] = set()
    for v in order:
        if v not in blocked:
            chosen.add(v)
            blocked.add(v)
            blocked |= g.neighbors(v)
    return chosen


def is_independent_set(g: Graph, s: set[int]) -> bool:
    return all(not (g.neighbors(v) & s) for v in s)


def is_maximal_independent_set(g: Graph, s: set[int]) -> bool:
    if not is_independent_set(g, s):
        return False
    return all(v in s or (g.neighbors(v) & s) for v in range(g.n))
