"""Coloring machinery for flag 3-spheres and their skeletons.

The peel algorithm repeatedly colors and deletes the neighborhood of a
highest-degree vertex with a small planar palette while any degree exceeds
x*sqrt(n), then finishes the low-degree residual greedily in degeneracy
order. Planar neighborhoods are colored either by exhaustive 4-coloring
(small ones) or by the classical Kempe-chain 5-coloring.

Also provides exact-solver-backed chromatic lower-bound certificates.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .complexes import (
    FVector,
    SimplicialComplex,
    VerificationReport,
    clique_counts,
    is_flag,
    verify_closed_3_manifold,
)
# not called here; imported so perfbench/run.py can trace this call site
from .complexes import f_vector  # noqa: F401
from .errors import (
    CertificationFailed,
    NotFlag,
    NotManifold,
    NotPlanar,
    PlanarStrategyFailure,
    SolverTimeout,
    SubgraphMissing,
)
from .graphs import (
    EXACT_ALPHA_LIMIT,
    NODE_BUDGET,
    Coloring,
    Graph,
    _Budget,
    _cpus,
    _Forks,
    _k_colorable,
    chromatic_number_exact,
    greedy_independent_set,
    max_independent_set_exact,
    smallest_last_order,
)

DEFAULT_X = math.sqrt(5.0)
# explored-node cap of the exact 4-coloring of one peeled neighborhood
EXACT4_NODE_BUDGET = 500_000
# facets from which check_and_peel forks: below it a fork costs more than it saves
FORK_FACETS = 1_000


@dataclass(frozen=True)
class PeelParams:
    x: float = DEFAULT_X
    exact4_cap: int = 64
    allow_fallback: bool = True

    def __post_init__(self):
        if not 0 < self.x < math.inf:  # also rejects nan
            raise ValueError("x must be positive and finite")
        if self.exact4_cap < 0:
            raise ValueError(f"exact4_cap must be >= 0, got {self.exact4_cap}")


def greedy_degeneracy_color(g: Graph) -> Coloring:
    """Greedy coloring in degeneracy order; uses at most max-degree+1 colors."""
    assignment: dict[int, int] = {}
    for _, v in reversed(smallest_last_order(g)):
        used = {assignment[u] for u in g.neighbors(v) if u in assignment}
        c = 0
        while c in used:
            c += 1
        assignment[v] = c
    return Coloring(assignment)


def five_color_planar(g: Graph) -> Coloring:
    """Proper coloring of a planar graph with at most 5 colors.

    Vertices are stripped in min-degree order (planarity keeps this <= 5)
    and re-added greedily; a degree-5 vertex whose neighbors exhaust the
    palette is resolved by a Kempe two-color component swap, which must
    succeed for planar inputs.
    """
    stack = smallest_last_order(g)
    for d, _ in stack:
        if d > 5:
            raise NotPlanar(f"minimum degree {d} exceeds 5")

    assignment: dict[int, int] = {}

    def kempe_free_color(v: int) -> int:
        placed_nbrs = [u for u in sorted(g.neighbors(v)) if u in assignment]
        for i, ni in enumerate(placed_nbrs):
            for nj in placed_nbrs[i + 1 :]:
                ci, cj = assignment[ni], assignment[nj]
                if ci == cj:
                    continue
                component = {ni}
                frontier = [ni]
                reached = False
                while frontier:
                    cur = frontier.pop()
                    for u in g.neighbors(cur):
                        if u in assignment and u not in component and assignment[u] in (ci, cj):
                            component.add(u)
                            frontier.append(u)
                            if u == nj:
                                reached = True
                if reached:
                    continue
                for u in component:
                    assignment[u] = cj if assignment[u] == ci else ci
                return ci
        raise NotPlanar("no Kempe swap available; input cannot be planar")

    for _, v in reversed(stack):
        used = {assignment[u] for u in g.neighbors(v) if u in assignment}
        free = [c for c in range(5) if c not in used]
        assignment[v] = free[0] if free else kempe_free_color(v)
    return Coloring(assignment)


def _color_planar_patch(g: Graph, params: PeelParams) -> Coloring:
    """4-color one peeled neighborhood exactly within the caps of params, else
    5-color it by Kempe chains (PlanarStrategyFailure if fallback is off)."""
    found = None
    if g.n <= params.exact4_cap:
        try:
            found = _k_colorable(g, 4, _Budget(EXACT4_NODE_BUDGET))
        except SolverTimeout:
            pass
    if found is not None:
        return Coloring({v: found[v] for v in range(g.n)})
    if not params.allow_fallback:
        raise PlanarStrategyFailure(
            f"exact4 found no 4-coloring of a {g.n}-vertex neighborhood within its"
            f" caps of {params.exact4_cap} vertices and {EXACT4_NODE_BUDGET} search nodes"
        )
    return five_color_planar(g)


def peel_color_3(X: SimplicialComplex, params: PeelParams | None = None) -> Coloring:
    """Proper coloring of the 1-skeleton of a flag 3-sphere.

    While some vertex exceeds degree x*sqrt(n) (n = vertex count, fixed),
    its current neighborhood is colored with a fresh palette block and
    removed. The residual graph is colored greedily in degeneracy order.
    The total color count is at most ceil((p/x + x)*sqrt(n)) + 1 where p is
    the largest palette block used: 4 if every patch was 4-colored exactly,
    else 5.
    """
    if params is None:
        params = PeelParams()
    # a complex that is not 3-dimensional is NotFlag before it is WrongDimension
    if X.dimension != 3 and not is_flag(X):
        raise NotFlag("peel coloring requires a flag complex")
    checks, flag, coloring = check_and_peel(X, params)
    if not flag:
        raise NotFlag("peel coloring requires a flag complex")
    if not checks.passed:
        raise NotManifold("peel coloring requires a closed 3-manifold")
    return coloring


def check_and_peel(
    X: SimplicialComplex, params: PeelParams
) -> tuple[VerificationReport, bool, Coloring | None]:
    """X's closed-3-manifold checks, whether it is flag, and its peel coloring,
    which is None unless X is a flag closed 3-manifold (WrongDimension unless
    X is 3-dimensional).

    is_flag compares the clique counts with the manifold pass's f-vector. A
    3-complex of FORK_FACETS facets or more, with a second CPU to run on, is
    checked in two processes: a forked child runs the manifold pass while
    this one counts the cliques and peels before the checks are known. The
    peel runs only when the counts fit a flag closed 3-manifold, and its
    coloring, or its error, is used only when the checks pass; so every
    outcome and its precedence are those of the checks run first, then the
    peel.
    """
    coloring = error = None
    with _Forks() as forks:
        forked = (X.dimension == 3 and X.facet_count >= FORK_FACETS and _cpus() > 1
                  and forks.spawn(functools.partial(_send_checks, X)))
        if not forked:
            checks = verify_closed_3_manifold(X)
        counts = clique_counts(X)
        # the clique counts of a flag closed 3-manifold are its 2 f3 triangles
        # and f3 tetrahedra; any other counts mean the peel is not wanted
        if forked and counts == (2 * X.facet_count, X.facet_count):
            try:
                coloring = peel_color_unchecked(X, params)
            except Exception as exc:  # raised below, once the checks pass
                error = exc
        if forked:
            try:
                *passed, faces = forks.receive()
                checks = VerificationReport(*passed, FVector(faces))
            except EOFError:  # the child exited without its report
                checks = verify_closed_3_manifold(X)
    flag = is_flag(X, checks.f_vector, counts)
    if not (flag and checks.passed):
        return checks, flag, None
    if error is not None:
        raise error
    return checks, flag, peel_color_unchecked(X, params) if coloring is None else coloring


def _send_checks(X: SimplicialComplex, send) -> None:
    """The child's side of check_and_peel: the manifold pass's report."""
    checks = verify_closed_3_manifold(X)
    send((checks.two_faces_in_two_facets, checks.connected, checks.vertex_links_are_2_spheres,
          checks.euler_zero, checks.f_vector.counts))


def peel_color_unchecked(X: SimplicialComplex, params: PeelParams) -> Coloring:
    """The peel coloring of :func:`peel_color_3` for a complex the caller has
    already checked to be a flag closed 3-manifold."""
    n = X.vertex_count
    threshold = params.x * math.sqrt(n)
    live: dict[int, set[int]] = {v: set(X.neighbors(v)) for v in X.vertices}
    assignment: dict[int, int] = {}
    next_color = 0

    while True:
        v = max(live, key=lambda u: (len(live[u]), -u))
        if len(live[v]) <= threshold:
            break
        patch_graph, patch = Graph.induced(live.__getitem__, live[v])
        patch_coloring = _color_planar_patch(patch_graph, params)
        for i, u in enumerate(patch):
            assignment[u] = next_color + patch_coloring.assignment[i]
        next_color += patch_coloring.color_count
        for u in patch:
            for nb in live[u]:
                live[nb].discard(u)
            del live[u]

    # residual: degeneracy-order greedy on what is left
    residual_graph, residual = Graph.induced(live.__getitem__, live)
    res_coloring = greedy_degeneracy_color(residual_graph)
    for i, u in enumerate(residual):
        assignment[u] = next_color + res_coloring.assignment[i]
    return Coloring(assignment)


# -- chromatic lower-bound certification ----------------------------------------


def certify_lower_bound(
    X: SimplicialComplex, g: Graph, k: int, node_budget: int = NODE_BUDGET
) -> dict:
    """Certify chi(skeleton of X) >= k via an embedded subgraph; returns the
    report the certify command prints.

    Every edge of g must be present in X; the exact solver then proves g has
    no (k-1)-coloring by exhausting the search at k-1 colors, and chromatic
    number is monotone under subgraphs. A k < 2 certifies nothing: ValueError.
    """
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    for u, v in g.edges:
        if not X.has_edge(u, v):
            raise SubgraphMissing(f"edge ({u}, {v}) of the graph is not in the complex")
    result = chromatic_number_exact(g, limit=k - 1, node_budget=node_budget)
    if not result.exceeded_limit:
        raise CertificationFailed(
            f"graph is {result.chi}-colorable, cannot certify chi >= {k}"
        )
    return {
        "graph": {"n": g.n, "m": g.edge_count},
        "k": k,
        "certified": True,
        "solver_nodes": result.nodes,
        "witness_type": "exceedance",
    }


# -- independence measurements ----------------------------------------------------


def measure_alpha(
    X: SimplicialComplex, seed: int, node_budget: int = NODE_BUDGET
) -> dict:
    """Greedy lower bound on the independence number, exact value when the
    skeleton is small, and the conjectured ceil((f0+1)/6) reference, under
    the keys the verify command prints."""
    greedy = greedy_independent_set(X.rows, seed)
    exact: int | None = None
    if X.vertex_count <= EXACT_ALPHA_LIMIT:
        g, _ = Graph.induced(X.neighbors, X.vertices)
        try:
            exact = len(max_independent_set_exact(g, node_budget=node_budget))
        except SolverTimeout:
            exact = None
    return {
        "alpha_lower": len(greedy),
        "alpha_exact": exact,
        "conjecture_value": math.ceil((X.vertex_count + 1) / 6),
    }
