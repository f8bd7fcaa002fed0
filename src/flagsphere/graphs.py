"""Simple undirected graphs: triangle-free generators and exact solvers.

Provides the embedded-graph side of the pipeline: Mycielski towers with
certified chromatic number, the seeded triangle-free process for larger
inputs, exact chromatic / independence solvers (DSATUR and bitset branch and
bound) with explored-node budgets so runs are reproducible (DSATUR splits
a large level across the process's CPUs and counts the same nodes), and
`_clique_walk`, the one clique walk, which starts at triangles and reads
forward rows; `cliques` lists its cliques.
`Graph` keeps each edge once, in adjacency sets, and `Graph.induced` is the
one way to relabel a vertex subset to 0..k-1.
"""

from __future__ import annotations

import contextlib
import heapq
import itertools
import marshal
import os
import random
import signal
import threading
from dataclasses import dataclass

from .errors import SolverTimeout, TooLarge

# largest vertex count whose independence number the reports solve exactly
EXACT_ALPHA_LIMIT = 60
# default explored-node cap of the solvers and of the CLI's --budget
NODE_BUDGET = 20_000_000
# most vertices a Graph takes, refused before its adjacency sets are built
MAX_VERTICES = 10**6
# nodes a level searches in one process before it restarts split across the CPUs
SPLIT_AFTER = 20_000
# the split search's top walk goes down to the first depth with this many
# roots, and at most this many levels
SPLIT_ROOTS = 64


class Graph:
    """Simple undirected graph on vertices 0..n-1.

    Each edge is stored once, as a pair of entries in the adjacency sets.
    """

    __slots__ = ("n", "edge_count", "_adj")

    def __init__(self, vertex_count: int, edges):
        if vertex_count < 0:
            raise ValueError("vertex_count must be non-negative")
        if vertex_count > MAX_VERTICES:
            raise TooLarge(f"{vertex_count} vertices exceed the cap of {MAX_VERTICES}")
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

    @property
    def color_count(self) -> int:
        return len(set(self.assignment.values()))


def is_triangle_free(g: Graph) -> bool:
    return all(not (g.neighbors(u) & g.neighbors(v)) for u, v in g.edges)


def forward_rows(neighbors, vertices) -> dict[int, tuple[int, ...]]:
    """Each vertex's forward row, the increasing tuple of its larger neighbours
    (`neighbors(v)` is v's neighbour set), keyed in increasing vertex order."""
    return {v: tuple(sorted(u for u in neighbors(v) if u > v)) for v in sorted(vertices)}


def _clique_walk(rows, max_size: int):
    """Yield (clique, cand) for every clique of 2..max_size-1 vertices that has
    common larger neighbours, cand being the set of them: the cliques one vertex
    larger that begin with `clique` are clique + (x,) for x in cand.

    `rows` maps each vertex, in increasing order, to its forward row; the
    vertices and edges are the cliques of sizes 1 and 2. A clique's candidates
    are the common larger neighbours of its vertices, so each clique is reached
    once, from its smallest vertex upward (Chiba & Nishizeki, SIAM J. Comput.
    1985). One set per vertex shrinks by intersection with rows; nothing sorts.
    A caller that only counts adds len(cand) and builds no tuple per clique.
    """
    for v, row in rows.items() if max_size > 2 else ():
        fv = set(row)
        for w in row:
            common = fv.intersection(rows[w])
            if not common:
                continue
            stack = [((v, w), common)]
            while stack:
                clique, cand = stack.pop()
                yield clique, cand
                if len(clique) + 1 < max_size:
                    for x in cand:
                        deeper = cand.intersection(rows[x])
                        if deeper:
                            stack.append((clique + (x,), deeper))


def cliques(rows, max_size: int):
    """Yield every clique of 3..max_size vertices once, as a sorted tuple, in
    the order of :func:`_clique_walk`."""
    for clique, cand in _clique_walk(rows, max_size):
        for x in cand:
            yield clique + (x,)


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
    proved that no coloring with `limit` colors exists, `limit` being the
    argument of `chromatic_number_exact`.
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
    reduced) search space; the search is `_dfs` from the state with no
    vertex colored. Nodes are counted on `budget`, so counts add up across
    calls, and a timeout leaves `used == cap + 1` (`used + 1` when the cap
    was already passed on entry).

    With more than one CPU to run on, a level that passes SPLIT_AFTER nodes
    restarts as `_split`, which searches the same tree across the CPUs and
    counts the same nodes; with one CPU, or with other threads running, the
    search never forks.
    """
    n = g.n
    if n == 0:
        return []
    if k <= 0:
        return None
    order = sorted(range(n), key=lambda v: (-g.degree(v), v))
    rank = {v: i for i, v in enumerate(order)}
    nbr = [sum(1 << rank[u] for u in g.neighbors(v)) for v in order]
    root = ([0] * k, 0, 0, 0, [0] * (k.bit_length() - 3), (1 << n) - 1, 0, [])
    cap = budget.cap - budget.used
    if cap > SPLIT_AFTER and (workers := _cpus()) > 1:
        nodes, colored = _dfs(nbr, k, root, SPLIT_AFTER)
        if nodes > SPLIT_AFTER:
            nodes, colored = _split(nbr, k, root, cap, workers)
    else:
        nodes, colored = _dfs(nbr, k, root, cap)
    budget.used += nodes
    if nodes > cap:
        raise SolverTimeout(f"node budget {budget.cap} exceeded")
    if colored is None:
        return None
    found = dict(colored)
    return [found[rank[v]] for v in range(n)]


def _cpus() -> int:
    """The number of processes a search may use: the CPUs this process may
    run on, or 1 while other threads run, since a fork copies only the
    calling thread."""
    if threading.active_count() > 1 or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _dfs(nbr: list[int], k: int, root: tuple, cap: int, frontier: list | None = None):
    """DSATUR from the state `root` to the end of its subtree, for at most `cap` nodes.

    Returns (nodes, colored): `colored` lists the (vertex index, color)
    pairs of the first coloring found, from the root's own path on, and is
    None when the subtree is exhausted or the cap was passed, which leaves
    nodes == cap + 1. Index i is the i-th vertex by (-degree, id) and bit i
    of every mask; nbr[i] is its neighbor mask. A state is (has, p0, p1, p2,
    up, uncolored, num_used, path): has[c] holds the vertices with a
    neighbor colored c; the saturation of each vertex, its number of
    distinct neighbor colors, is kept in binary: bit i of p0, p1, p2 and
    up[j] is bit 0, 1, 2 and 3 + j of vertex i's count (`up` is empty while
    k < 8); num_used colors are in use and `path` lists the (index, color)
    pairs that lead to the state. Descending the planes under `uncolored`
    leaves the vertices of highest saturation, and the lowest is the DSATUR
    choice (Brelaz 1979). New color indices are introduced in order, so
    permutations of the palette are explored once.

    The search is one loop over a stack of frames, one per colored vertex:
    its index, the colors in use before it, its open colors not yet tried,
    the neighbors its color touched, the planes before that touch and its
    color. A vertex has `top - s` open colors, top = min(num_used + 1, k)
    being the palette it may use and s its saturation, so a node with
    none, or a frame whose colors are all tried, backs out without scanning
    the palette. Coloring a vertex adds the touched mask to the planes by
    ripple carry, copying the shared `up` only when a carry passes p2;
    backing out restores has[c] by XOR and the saved planes.

    With `frontier` given, each node past the cap is appended there as a
    state instead of being searched, and the search backs out of it: with
    cap 1 the call lists the root's children in DFS order.
    """
    has, p0, p1, p2, up, uncolored, num_used, path = root
    has = has[:]
    frames: list[tuple] = []
    push, pop = frames.append, frames.pop
    nodes = 0
    while True:
        nodes += 1
        if nodes > cap:
            if frontier is None:
                return nodes, None
            frontier.append((has[:], p0, p1, p2, up, uncolored, num_used,
                             path + [(f[0], f[-1]) for f in frames]))
            left = 0
        elif not uncolored:
            return nodes, path + [(f[0], f[-1]) for f in frames]
        else:
            pick = uncolored
            s = 0
            if up:
                for j in range(len(up) - 1, -1, -1):
                    if x := pick & up[j]:
                        pick, s = x, s + (8 << j)
            if x := pick & p2:
                pick, s = x, s + 4
            if x := pick & p1:
                pick, s = x, s + 2
            if x := pick & p0:
                pick, s = x, s + 1
            bit = pick & -pick
            left = (num_used + 1 if num_used < k else k) - s
        if left:
            i = bit.bit_length() - 1
            uncolored ^= bit
            c = 0
        else:
            # no open color: undo frames until one has a color left to try
            while True:
                if not frames:
                    return nodes, None
                i, num_used, left, touched, p0, p1, p2, up, c = pop()
                if touched:
                    has[c] ^= touched
                if left:
                    break
                uncolored |= 1 << i
            bit = 1 << i
            c += 1
        while has[c] & bit:
            c += 1
        touched = nbr[i] & uncolored & ~has[c]
        push((i, num_used, left - 1, touched, p0, p1, p2, up, c))
        if c == num_used:
            num_used += 1
        if touched:
            has[c] |= touched
            # touched vertices lack c, so no count passes k and the carry
            # stays inside the planes
            p0, touched = p0 ^ touched, p0 & touched
            p1, touched = p1 ^ touched, p1 & touched
            p2, touched = p2 ^ touched, p2 & touched
            if touched:
                up = up[:]
                for j, x in enumerate(up):
                    up[j], touched = x ^ touched, x & touched


def _share(nbr: list[int], k: int, roots: list, cap: int):
    """Yield (nodes, colored) for each (before, state) of `roots` in turn,
    searched by `_dfs` on one cumulative cap, up to the first coloring or
    the first root that passes the cap."""
    for _, state in roots:
        nodes, colored = _dfs(nbr, k, state, cap)
        yield nodes, colored
        if colored is not None or nodes > cap:
            return
        cap -= nodes


def _split(nbr: list[int], k: int, root: tuple, cap: int, workers: int):
    """`_dfs(nbr, k, root, cap)`, its subtrees searched by `workers` processes.

    The top walk lists the tree level by level, each node's children by a
    one-node `_dfs`, down to the first depth with SPLIT_ROOTS roots; a
    coloring found on the way stays a root of one node. It goes at most
    SPLIT_ROOTS levels down, as a tree that narrow is mostly forced picks and
    each root copies its path, and stops early once its nodes pass the cap.
    Each root carries the number of top nodes DFS visits before it. An
    exhausted subtree has the same size in any search order (Rao & Kumar
    1987), so the roots are dealt out j mod W, to this process (j = 0) and to
    W - 1 forked children, and merged in DFS order: the count is the top
    nodes before the first coloring plus the sizes of the roots up to it,
    and that coloring is the witness. Each process stops at the first root
    that passes its cumulative cap, the level's whole `cap`; the merged
    count passes the cap there or before, so the merge stops there at the
    latest, as a timeout. A child leaves by os._exit, and every child is
    killed and reaped before this returns; when a fork fails, this process
    searches the level alone.
    """
    frontier, top = [(0, root)], 0
    for _ in range(SPLIT_ROOTS):
        if len(frontier) >= SPLIT_ROOTS or top > cap or not any(s[5] for _, s in frontier):
            break
        deeper, expanded = [], 0
        for before, state in frontier:
            if not state[5]:
                deeper.append((before + expanded, state))
                continue
            expanded += 1
            children: list[tuple] = []
            _dfs(nbr, k, state, 1, children)
            deeper.extend((before + expanded, child) for child in children)
        frontier, top = deeper, top + expanded
    workers = max(1, min(workers, len(frontier)))
    readers: list[tuple[int, object]] = []
    try:
        for p in range(1, workers):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to spare: search the level here
                os.close(r)
                os.close(w)
                return _dfs(nbr, k, root, cap)
            if pid == 0:
                code = 1
                try:
                    os.close(r)
                    with os.fdopen(w, "wb") as out:
                        for result in _share(nbr, k, frontier[p::workers], cap):
                            marshal.dump(result, out)
                            out.flush()
                    code = 0
                finally:
                    os._exit(code)
            readers.append((pid, os.fdopen(r, "rb")))
            os.close(w)
        mine = list(_share(nbr, k, frontier[::workers], cap))
        roots = 0
        for j, (before, _) in enumerate(frontier):
            p = j % workers
            nodes, colored = mine[j // workers] if p == 0 else marshal.load(readers[p - 1][1])
            roots += nodes
            if colored is not None or before + roots > cap:
                total = before + roots
                break
        else:
            total, colored = top + roots, None
        return (total, colored) if total <= cap else (cap + 1, None)
    finally:
        for pid, reader in readers:
            reader.close()
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


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
        return ChromaticResult(chi=0, coloring=Coloring({}), nodes=0)
    lb = max(1, len(_greedy_clique(g)))
    hi = limit if limit is not None else g.n
    for k in range(lb, hi + 1):
        found = _k_colorable(g, k, budget)
        if found is not None:
            assignment = {v: found[v] for v in range(g.n)}
            return ChromaticResult(
                chi=k, coloring=Coloring(assignment), nodes=budget.used
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


def greedy_independent_set(rows, seed: int) -> set[int]:
    """Maximal independent set of the graph with these forward rows, in a seeded random
    order of its vertices: v joins unless a smaller or a larger neighbour has joined; a
    joining vertex blocks its larger neighbours, and v checks its own row for the rest."""
    rng = random.Random(seed)
    order = list(rows)
    rng.shuffle(order)
    chosen: set[int] = set()
    blocked: set[int] = set()
    for v in order:
        if v not in blocked and chosen.isdisjoint(rows[v]):
            chosen.add(v)
            blocked.update(rows[v])
    return chosen
