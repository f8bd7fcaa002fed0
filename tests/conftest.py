"""Shared fixtures: small reference complexes, graphs, and brute oracles."""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from pathlib import Path

import pytest

from flagsphere import (
    Coloring,
    Graph,
    SimplicialComplex,
    TruncatedCliqueComplex,
    build_from_facets,
    cyclic_4_sphere,
    f_vector,
    grotzsch_graph,
    minimal_nonfaces,
    mycielskian,
)
from flagsphere.complexes import VerificationReport, _connected
from flagsphere.errors import (
    BadDimension,
    FlagsphereError,
    ParseError,
    UnknownVertex,
    WrongDimension,
)
from flagsphere.graphs import forward_rows
from flagsphere.io import _data_lines
from flagsphere.randomclique import _link_graph_acyclic


# (n, seed) of the triangle-free process graphs in the flagify corpus
PROCESS_CASES = [
    (6, 1), (8, 2), (10, 3), (12, 4), (14, 5),
    (15, 6), (16, 7), (17, 8), (18, 9), (20, 10),
]

# complex files on the boundary of the 4-simplex (a 3-sphere, so `verify`
# reads them whole) whose tags break a rule of the ids: a position is id + 1,
# the steps run 1, 2, ... in id order, a parent edge is two smaller vertices,
# smaller first, and a "tags:" block tags every vertex
_SIMPLEX = "0 1 2 3\n0 1 2 4\n0 1 3 4\n0 2 3 4\n1 2 3 4\ntags:\n"
_FIRST_THREE = "0 original 1\n1 original 2\n2 original 3\n"
BAD_TAG_FILES = {
    "position-negative": _SIMPLEX + "0 original -5\n1 original 2\n2 original 3\n"
    "3 original 4\n4 original 5\n",
    "position-repeated": _SIMPLEX + "0 original 1\n1 original 2\n2 original 2\n"
    "3 original 4\n4 original 5\n",
    "subdiv-loop-on-non-vertices-step-0": _SIMPLEX + _FIRST_THREE
    + "3 subdiv 9 9 0\n4 original 5\n",
    "steps-out-of-id-order": _SIMPLEX + _FIRST_THREE + "3 subdiv 0 1 2\n4 subdiv 1 2 1\n",
    "parent-larger-first": _SIMPLEX + _FIRST_THREE + "3 original 4\n4 subdiv 2 1 1\n",
    # vertex 1 is missing, so the parent pair 0-1 is below 5 and in order
    "parent-not-a-vertex": "0 2 3 4\n0 2 3 5\n0 2 4 5\n0 3 4 5\n2 3 4 5\ntags:\n"
    "0 original 1\n2 original 3\n3 original 4\n4 original 5\n5 subdiv 0 1 1\n",
    "empty-tags-block": _SIMPLEX,
}


def simplex_boundary():
    """Boundary of the 4-simplex: all 4-subsets of {0..4}."""
    return build_from_facets(list(itertools.combinations(range(5), 4)))


def triangle_boundary():
    return build_from_facets([(0, 1), (1, 2), (2, 0)])


def octahedron_boundary():
    """Join of three 2-point complexes: pairs {0,1}, {2,3}, {4,5}."""
    return build_from_facets(
        [(a, b, c) for a in (0, 1) for b in (2, 3) for c in (4, 5)]
    )


def capped_triangle_sphere():
    """A non-flag 2-sphere without a 4-clique: two triangulated disks glued
    along the cycle 0-1-2, which leaves {0, 1, 2} an empty triangle.

    No vertex is adjacent to all of 0, 1, 2, so clique sizes alone do not
    show that it is not flag.
    """

    def disk(d, e, f):
        return [(0, 1, e), (0, e, d), (1, 2, f), (1, f, e), (2, 0, d), (2, d, f), (d, e, f)]

    return build_from_facets(disk(3, 4, 5) + disk(6, 7, 8))


def sixteen_cell():
    """Join of two 4-cycles: the flag 3-sphere on 8 vertices."""
    square1 = [(0, 1), (1, 2), (2, 3), (3, 0)]
    square2 = [(4, 5), (5, 6), (6, 7), (7, 4)]
    return build_from_facets([set(e1) | set(e2) for e1 in square1 for e2 in square2])


def icosahedron_graph():
    edges = [
        (0, 1), (0, 2), (0, 3), (0, 4), (0, 5),
        (1, 2), (2, 3), (3, 4), (4, 5), (5, 1),
        (1, 6), (2, 6), (2, 7), (3, 7), (3, 8),
        (4, 8), (4, 9), (5, 9), (5, 10), (1, 10),
        (6, 7), (7, 8), (8, 9), (9, 10), (10, 6),
        (6, 11), (7, 11), (8, 11), (9, 11), (10, 11),
    ]
    return Graph(12, edges)


def face_sets(faces) -> set[frozenset[int]]:
    """Sorted-tuple faces as frozensets, to compare them with set literals
    and with the set-based oracles below."""
    return {frozenset(f) for f in faces}


def _cofacets(X: SimplicialComplex, face):
    """The checked face as a set, and a lazy scan of its cofacets that tests one vertex first."""
    fs = frozenset(face)
    for v in fs:
        if v not in X._adj:
            raise UnknownVertex(f"vertex {v} not in complex")
    v = next(iter(fs), None)
    return fs, (f for f in X.facets if (v is None or v in f) and fs.issubset(f))


def is_face(X: SimplicialComplex, face) -> bool:
    """True iff the vertex set is contained in some facet."""
    return next(_cofacets(X, face)[1], None) is not None


def link(X: SimplicialComplex, face) -> SimplicialComplex:
    """Link of a face: the complex {sigma \\ f : f subset sigma in facets}.

    The link of a facet is the empty complex (is_empty reports it).
    Vertices keep their ambient ids and parents.
    """
    fs, cofacets = _cofacets(X, face)
    residues = {tuple([x for x in facet if x not in fs]) for facet in cofacets}
    if not residues:
        raise ValueError(f"{sorted(fs)} is not a face")
    if residues == {()}:
        return SimplicialComplex(frozenset(), {})
    verts = set().union(*residues)
    parents = {v: X.parents[v] for v in verts}
    return SimplicialComplex(frozenset(residues), parents)


def dominated_pair_scan(facets) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Oracle for build_from_facets' domination check: every pair of distinct
    facets in order of size, the first facet a larger one contains and the
    first such container, or None."""
    by_size = sorted(set([tuple(sorted(set(f))) for f in facets]), key=len)
    for i, small in enumerate(by_size):
        for big in by_size[i + 1 :]:
            if set(small) < set(big):
                return small, big
    return None


def read_complex_reference(path: str | Path) -> SimplicialComplex:
    """Oracle for io.read_complex: the reader as it was when it checked repeated
    ids and tag coverage itself, before build_from_facets took those checks.
    A position must be id + 1, the steps run 1, 2, ... in id order, and a
    "tags:" header makes the tag dict, empty or not, the complex's tags."""
    lines = _data_lines(path)
    facets: list[frozenset[int]] = []
    tags: dict[int, tuple[int, int] | None] = {}
    steps: list[tuple[int, int]] = []
    in_tags = False
    for line in lines:
        if line == "tags:":
            if in_tags:
                raise ParseError("duplicate tags: header")
            in_tags = True
            continue
        parts = line.split()
        if not in_tags:
            try:
                facets.append(frozenset(map(int, parts)))
            except ValueError as exc:
                raise ParseError(f"bad facet line {line!r}") from exc
            if len(facets[-1]) != len(parts):
                raise ParseError(f"facet line {line!r} repeats a vertex")
        else:
            try:
                vid = int(parts[0])
                kind = parts[1]
                if vid in tags:
                    raise ParseError(f"vertex {vid} tagged twice")
                if kind == "original" and len(parts) == 3:
                    if int(parts[2]) != vid + 1:
                        raise ParseError(f"vertex {vid} is not at position {vid + 1}")
                    tags[vid] = None
                elif kind == "subdiv" and len(parts) == 5:
                    tags[vid] = (int(parts[2]), int(parts[3]))
                    steps.append((vid, int(parts[4])))
                else:
                    raise ValueError
            except (ValueError, IndexError) as exc:
                raise ParseError(f"bad tag line {line!r}") from exc
    for rank, (vid, step) in enumerate(sorted(steps), 1):
        if step != rank:
            raise ParseError(f"subdivision vertex {vid} has step {step}, not {rank}")
    try:
        complex_ = build_from_facets(facets, tags if in_tags else None)
    except FlagsphereError as exc:
        # malformed file contents surface as a parse failure
        raise ParseError(f"invalid complex file: {exc}") from exc
    if in_tags:
        missing = set(complex_.vertices) - set(tags)
        extra = set(tags) - set(complex_.vertices)
        if missing or extra:
            raise ParseError(
                f"tag block incomplete: missing {sorted(missing)}, extra {sorted(extra)}"
            )
    return complex_


def empty_triangle_count_closed_form(n: int) -> int:
    """Count oracle for cyclic.empty_triangles: the independent 3-sets of an
    n-cycle number n(n-4)(n-5)/6."""
    return n * (n - 4) * (n - 5) // 6


def minimal_nonfaces_bruteforce(X, max_size: int) -> set[frozenset[int]]:
    """Oracle for minimal_nonfaces: test every vertex subset up to max_size.

    Small complexes only.
    """
    faces = {
        frozenset(sub)
        for facet in X.facets
        for k in range(1, len(facet) + 1)
        for sub in itertools.combinations(facet, k)
    }
    out: set[frozenset[int]] = set()
    for k in range(2, max_size + 1):
        for comb in itertools.combinations(X.vertices, k):
            s = frozenset(comb)
            if s not in faces and all(s - {x} in faces for x in s):
                out.add(s)
    return out


def faces_by_size_reference(X: SimplicialComplex, max_size: int) -> dict[int, set[frozenset[int]]]:
    """All faces of cardinality 1..max_size, enumerated from facet subsets."""
    out: dict[int, set[frozenset[int]]] = {k: set() for k in range(1, max_size + 1)}
    top = X.dimension + 1
    for facet in X.facets:
        fl = sorted(facet)
        for k in range(1, min(max_size, top) + 1):
            for sub in itertools.combinations(fl, k):
                out[k].add(frozenset(sub))
    return out


def derive_adjacency_reference(facets: frozenset[frozenset[int]]) -> dict[int, set[int]]:
    """Oracle for complexes._derive_adjacency: one add per ordered vertex pair
    of each facet."""
    adj: dict[int, set[int]] = {}
    for facet in facets:
        for v in facet:
            adj.setdefault(v, set())
        for u, v in itertools.combinations(facet, 2):
            adj[u].add(v)
            adj[v].add(u)
    return adj


def facet_incidence_reference(
    X: SimplicialComplex,
) -> tuple[dict[frozenset[int], int], dict[int, frozenset[frozenset[int]]]]:
    """One pass over the facets: how many facets contain each ridge, and each
    vertex's star as its facet residues (the facets of its link).

    The residues facet - {v} are exactly the ridges of the facet.
    """
    ridge_count: dict[frozenset[int], int] = {}
    star: dict[int, list[frozenset[int]]] = {v: [] for v in X.vertices}
    for facet in map(frozenset, X.facets):
        for v in facet:
            residue = facet - {v}
            ridge_count[residue] = ridge_count.get(residue, 0) + 1
            star[v].append(residue)
    return ridge_count, {v: frozenset(residues) for v, residues in star.items()}


def link_check_reference(triangles) -> bool:
    """Is this set of triangles a 2-sphere: a connected closed surface with
    euler 2 and no pinched vertex?

    Each residue t - {u} is the edge of t opposite u and holds u's two
    neighbours in t, so one pass counts the edges, builds the adjacency and
    collects the edges opposite each vertex u, which must form one cycle
    (u's link in the surface) where the surface is not pinched at u.
    """
    edge_count: dict[frozenset[int], int] = {}
    adj: dict[int, set[int]] = {}
    rings: dict[int, dict[int, set[int]]] = {}
    for t in triangles:
        for u in t:
            e = t - {u}
            edge_count[e] = edge_count.get(e, 0) + 1
            adj.setdefault(u, set()).update(e)
            a, b = e
            ring = rings.setdefault(u, {})
            ring.setdefault(a, set()).add(b)
            ring.setdefault(b, set()).add(a)
    return (
        all(c == 2 for c in edge_count.values())
        and _connected(adj, adj)
        and all(_connected(ring, ring) for ring in rings.values())
        and len(adj) - len(edge_count) + len(triangles) == 2
    )


def verify_closed_3_manifold_reference(X: SimplicialComplex) -> VerificationReport:
    """Oracle for verify_closed_3_manifold: every vertex link built as a set
    of frozenset triangles and checked on its own, and the euler
    characteristic read from the f-vector.

    (a) every 2-face lies in exactly two facets, (b) the complex is
    connected, (c) every vertex link is a 2-sphere: a connected closed
    surface, pinched at no vertex, with euler characteristic 2, (d) euler(X) = 0.
    """
    if X.dimension != 3:
        raise WrongDimension(f"expected a pure 3-complex, got dimension {X.dimension}")
    triangle_count, star = facet_incidence_reference(X)
    two_faces_ok = all(c == 2 for c in triangle_count.values())
    connected = _connected(X.vertices, X._adj)
    links_ok = all(link_check_reference(residues) for residues in star.values())
    fv = f_vector(X)
    return VerificationReport(
        two_faces_in_two_facets=two_faces_ok,
        connected=connected,
        vertex_links_are_2_spheres=links_ok,
        euler_zero=fv.euler == 0,
        f_vector=fv,
    )

def link_is_2_sphere_reference(triangles) -> bool:
    """Oracle for the manifold link check: build the link as a complex, then
    test its ridge counts, its connectivity, that each of its vertex links is
    connected (one cycle, so no pinched vertex) and the Euler characteristic
    of its f-vector."""
    lk = SimplicialComplex(
        frozenset(tuple(sorted(t)) for t in triangles),
        {u: None for t in triangles for u in t},
    )
    if lk.is_empty or lk.dimension != 2:
        return False
    ridge_count, _ = facet_incidence_reference(lk)
    if any(c != 2 for c in ridge_count.values()):
        return False
    if not _connected(lk.vertices, lk._adj):
        return False
    for u in lk.vertices:
        ring = link(lk, (u,))
        if not _connected(ring.vertices, ring._adj):
            return False
    return f_vector(lk).euler == 2


@dataclass(frozen=True)
class ReferenceState:
    """A snapshot between rounds of the reference flagify; never mutated."""

    complex: SimplicialComplex
    embedded: Graph
    events: tuple[tuple[int, int, int], ...]
    all_original: frozenset[frozenset[int]]
    rounds: int


def edge_link_structure_scan(X, edge) -> tuple[set[int], set[frozenset[int]]]:
    """Vertices and edges of the link of an edge, by a scan of every facet."""
    e = frozenset(edge)
    residues = [facet - e for facet in map(frozenset, X.facets) if e <= facet]
    assert residues, f"{sorted(e)} is not an edge"
    return set().union(*residues), set(residues)


def subdivide_edge_scan(X, edge) -> tuple[SimplicialComplex, int]:
    """Oracle for ComplexBuilder.subdivide: split every facet holding the
    edge, found by a scan of all facets, and rebuild the complex from the
    new facet list."""
    e = frozenset(edge)
    u, v = sorted(e)
    assert X.has_edge(u, v), f"{sorted(e)} is not an edge"
    w = max(X.parents) + 1
    facets = []
    for facet in map(frozenset, X.facets):
        if e <= facet:
            facets += [facet - {v} | {w}, facet - {u} | {w}]
        else:
            facets.append(facet)
    parents = {**X.parents, w: (u, v)}
    return build_from_facets(facets, parents), w


def _reference_cascade_pairs(X, edge) -> set[frozenset[int]]:
    verts, link_edges = edge_link_structure_scan(X, edge)
    ordered = sorted(verts)
    return {
        frozenset((x, y))
        for i, x in enumerate(ordered)
        for y in ordered[i + 1 :]
        if y in X.neighbors(x) and frozenset((x, y)) not in link_edges
    }


def reference_round(state: ReferenceState) -> ReferenceState:
    """One elimination round of the snapshot kernel that flagify replaced.

    Same rules as flagify.eliminate_round, computed the slow way: the target
    is a full-scan minimum, killed triangles come from a scan of the whole
    index, links from a scan of every facet, and each subdivision rebuilds
    the complex through subdivide_edge_scan.
    """
    g = state.embedded
    X = state.complex
    all_original = set(state.all_original)
    pending: set[frozenset[int]] = set()
    events = list(state.events)

    def protected(a, b):
        return a < g.n and b < g.n and g.has_edge(a, b)

    def subdivide(edge):
        nonlocal X
        assert len(events) - len(state.events) < 4, "more than 4 subdivisions in a round"
        born_pairs = _reference_cascade_pairs(X, edge)
        X, w = subdivide_edge_scan(X, edge)
        e = frozenset(edge)
        all_original.difference_update({t for t in all_original if e <= t})
        pending.difference_update({t for t in pending if e <= t})
        assert len(born_pairs) <= 2 and all(X.parents[x] is None for p in born_pairs for x in p)
        pending.update(pair | {w} for pair in born_pairs)
        events.append((*sorted(e), w))

    target = min(all_original, key=lambda t: tuple(sorted(t)))
    a, b, c = sorted(target)
    subdivide(next(e for e in ((a, b), (a, c), (b, c)) if not protected(*e)))
    assert target not in all_original
    while pending:
        t = min(pending, key=lambda s: tuple(sorted(s)))
        (w,) = [x for x in t if X.parents[x] is not None]
        o1, o2 = sorted(t - {w})
        candidates = [(w, o1), (w, o2)] + ([] if protected(o1, o2) else [(o1, o2)])
        subdivide(next(
            (f for f in candidates if not _reference_cascade_pairs(X, f)), candidates[0]
        ))
    return ReferenceState(X, g, tuple(events), frozenset(all_original), state.rounds + 1)


def reference_start(g: Graph, n: int) -> ReferenceState:
    """The reference state before the first round."""
    sphere = cyclic_4_sphere(n)
    # the sphere is 2-neighborly, so its minimal non-faces of size <= 3 are
    # the empty triangles; taking them from here, not from the closed form in
    # cyclic.empty_triangles, makes every flagify comparison check that too
    triangles = frozenset(face_sets(minimal_nonfaces(sphere, 3)))
    return ReferenceState(sphere, g, (), triangles, 0)


def flagify_reference(g: Graph, n: int) -> ReferenceState:
    """Oracle for flagify: rounds of reference_round until no empty triangle is left."""
    state = reference_start(g, n)
    while state.all_original:
        state = reference_round(state)
    return state


def events_of(state) -> tuple[tuple[int, int, int], ...]:
    """The (u, v, w) events of a flagify run so far, read off the parents of
    its fresh vertices: every id from the polytope's n on, in increasing order."""
    parents = state.builder.parents
    return tuple((*parents[w], w) for w in sorted(parents) if w >= state.n)


def k_colorable_reference(g: Graph, k: int, budget) -> list[int] | None:
    """Oracle for graphs._k_colorable: the set-based DSATUR search it replaced.

    Each node scans every uncolored vertex for the largest (saturation,
    degree, -id) and updates neighbor saturation sets one by one. It spends
    the budget at the same nodes, so node counts and timeouts must agree.
    """
    n = g.n
    if n == 0:
        return []
    if k <= 0:
        return None
    colors = [-1] * n
    sat: list[set[int]] = [set() for _ in range(n)]
    uncolored = set(range(n))

    def pick() -> int:
        return max(uncolored, key=lambda v: (len(sat[v]), g.degree(v), -v))

    def backtrack(num_used: int) -> bool:
        budget.spend()
        if not uncolored:
            return True
        v = pick()
        uncolored.discard(v)
        for c in range(min(k, num_used + 1)):
            if c in sat[v]:
                continue
            colors[v] = c
            touched = []
            for u in g.neighbors(v):
                if colors[u] == -1 and c not in sat[u]:
                    sat[u].add(c)
                    touched.append(u)
            if backtrack(max(num_used, c + 1)):
                return True
            for u in touched:
                sat[u].discard(c)
            colors[v] = -1
        uncolored.add(v)
        return False

    if backtrack(0):
        return colors[:]
    return None


def smallest_last_order_reference(g: Graph) -> list[tuple[int, int]]:
    """Oracle for graphs.smallest_last_order: a full min-scan of the remaining
    (degree, id) at every deletion."""
    remaining = {v: set(g.neighbors(v)) for v in range(g.n)}
    order = []
    while remaining:
        v = min(remaining, key=lambda u: (len(remaining[u]), u))
        order.append((len(remaining[v]), v))
        for u in remaining[v]:
            remaining[u].discard(v)
        del remaining[v]
    return order


def induced_subgraph_reference(neighbors, vertices) -> tuple[Graph, list[int]]:
    """Oracle for Graph.induced: the pair scan the peel once ran for each
    patch and the residual, which tests every pair of the sorted vertices."""
    order = sorted(vertices)
    index = {u: i for i, u in enumerate(order)}
    edges = [
        (index[a], index[b])
        for i, a in enumerate(order)
        for b in order[i + 1 :]
        if b in neighbors(a)
    ]
    return Graph(len(order), edges), order


def rows_of(g: Graph) -> dict[int, tuple[int, ...]]:
    """The forward rows of g's vertices 0..n-1."""
    return forward_rows(g.neighbors, range(g.n))


def greedy_independent_set_reference(g: Graph, seed: int) -> set[int]:
    """Oracle for graphs.greedy_independent_set: the same seeded order, each
    taken vertex blocking its whole neighbour set."""
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


def is_planar(g: Graph) -> bool:
    """Oracle for planarity: networkx's left-right planarity test."""
    import networkx as nx

    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return nx.check_planarity(h)[0]


def is_proper_coloring(g: Graph, coloring) -> bool:
    a = coloring.assignment
    return all(a[u] != a[v] for u, v in g.edges)


def check_proper_on_complex(X: SimplicialComplex, coloring: Coloring) -> bool:
    a = coloring.assignment
    return all(a[u] != a[v] for u, v in X.edges())


def cd_constant(d: int) -> float:
    """Dimension constant for the peel bound: 4 at d=3, then the recursion
    C_d = (C_{d-1}/(d-2))^{(d-2)/(d-1)} + C_{d-1} * ((d-2)/C_{d-1})^{1/(d-1)}."""
    if d < 3:
        raise BadDimension(f"defined for d >= 3, got {d}")
    c = 4.0
    for k in range(4, d + 1):
        c = (c / (k - 2)) ** ((k - 2) / (k - 1)) + c * ((k - 2) / c) ** (1.0 / (k - 1))
    return c


def palette_term(p: float, x: float) -> float:
    """Leading coefficient p/x + x of the color bound; minimized at x=sqrt(p)."""
    return p / x + x


def peel_color_bound(p: int, x: float, n: int) -> int:
    """Color budget ceil((p/x + x) * sqrt(n)) + 1 for palette size p."""
    return math.ceil(palette_term(p, x) * math.sqrt(n)) + 1


def is_independent_set(g: Graph, s: set[int]) -> bool:
    return all(not (g.neighbors(v) & s) for v in s)


def is_maximal_independent_set(g: Graph, s: set[int]) -> bool:
    if not is_independent_set(g, s):
        return False
    return all(v in s or (g.neighbors(v) & s) for v in range(g.n))


def max_degree(g: Graph) -> int:
    return max((g.degree(v) for v in range(g.n)), default=0)


def brute_chromatic(g: Graph, k_max: int | None = None) -> int:
    """Smallest k admitting a proper coloring, by trying all assignments."""
    if g.n == 0:
        return 0
    edges = sorted(g.edges)
    hi = k_max if k_max is not None else g.n
    for k in range(1, hi + 1):
        for assignment in itertools.product(range(k), repeat=g.n):
            if all(assignment[u] != assignment[v] for u, v in edges):
                return k
    raise AssertionError(f"not {hi}-colorable")


def brute_k_colorable(g: Graph, k: int) -> bool:
    edges = sorted(g.edges)
    return any(
        all(a[u] != a[v] for u, v in edges)
        for a in itertools.product(range(k), repeat=g.n)
    )


def brute_max_independent_set(g: Graph) -> int:
    best = 0
    for size in range(g.n, 0, -1):
        for comb in itertools.combinations(range(g.n), size):
            s = set(comb)
            if all(not (g.neighbors(v) & s) for v in s):
                return size
    return best


@functools.lru_cache(maxsize=None)
def forest_counts(m: int) -> tuple[int, ...]:
    """Labeled forests on m vertices by edge count: entry k counts k-edge ones.

    Recurrence on the tree that contains vertex 1: it spans vertex 1 and
    s-1 of the other m-1 vertices, is one of s^(s-2) labeled trees
    (Cayley), and the rest is a forest on the remaining m-s vertices.
    """
    if m == 0:
        return (1,)
    counts = [0] * m
    for s in range(1, m + 1):
        trees = math.comb(m - 1, s - 1) * s ** max(s - 2, 0)
        for k, rest in enumerate(forest_counts(m - s)):
            counts[k + s - 1] += trees * rest
    return tuple(counts)


def _log_sum_exp(logs: list[float]) -> float:
    top = max(logs)
    return top + math.log(sum(math.exp(x - top) for x in logs))


def gnp_forest_probability(m: int, p: float) -> float:
    """Chance that G(m, p) is a forest, summed over forest edge counts.

    The sum runs in log space: the counts pass the float range once m is
    past about 100.
    """
    if m < 3 or p <= 0.0:
        return 1.0
    if p >= 1.0:
        return 0.0
    pairs = m * (m - 1) // 2
    log_p, log_q = math.log(p), math.log1p(-p)
    return math.exp(_log_sum_exp([
        math.log(count) + k * log_p + (pairs - k) * log_q
        for k, count in enumerate(forest_counts(m))
    ]))


# Degrees less likely than this are left out of expected_forest_fraction.
_WEIGHT_CUTOFF = 1e-20


def expected_forest_fraction(n: int, alpha: float) -> float:
    """Exact E[forest_link_fraction] of the d=3 clique complex of G(n, n^-alpha).

    A vertex's degree is m ~ Bin(n-1, p) and, given its neighbours, its
    link is G(m, p); every vertex is alike, so the expected fraction is the
    chance that one vertex's link is a forest. Degrees whose probability is
    below _WEIGHT_CUTOFF are skipped, which moves the result by under
    n * _WEIGHT_CUTOFF.
    """
    if n < 4:
        return 1.0
    p = n ** (-alpha)
    log_p, log_q = math.log(p), math.log1p(-p)
    total = 0.0
    for m in range(n):
        weight = math.exp(
            math.log(math.comb(n - 1, m)) + m * log_p + (n - 1 - m) * log_q
        )
        if weight < _WEIGHT_CUTOFF:
            if m > (n - 1) * p:
                break  # past the mode the weights only shrink
            continue
        total += weight * gnp_forest_probability(m, p)
    return total


def sample_gnp_edges_bisect(n: int, p: float, rng: random.Random) -> list[tuple[int, int]]:
    """Oracle for randomclique.sample_gnp_edges: the same geometric jumps over
    the pair index, with the row of every pair found by bisection."""
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


def clique_census_scan(g: Graph, d: int) -> tuple[dict[int, int], float, set[int]]:
    """Oracle for randomclique.clique_census: store every face of the
    truncated complex, then test each (d-3)-face's link on its own by a
    union-find over its common neighbourhood."""
    cc = TruncatedCliqueComplex(g, d)
    faces = cc.faces(d - 2)
    bad = [f for f in faces if not _link_graph_acyclic(g, f)]
    fraction = (len(faces) - len(bad)) / len(faces) if faces else 1.0
    return cc.face_counts(), fraction, set().union(*bad)


def prune_bad_links_fixpoint(cc: TruncatedCliqueComplex) -> tuple[TruncatedCliqueComplex, int]:
    """Oracle for prune_bad_links: repeat whole passes, each over a rebuilt
    and relabelled complex, until no (d-3)-face has a cyclic link."""
    removed_total = 0
    current = cc
    while True:
        bad_vertices: set[int] = set()
        for f in current.faces(cc.d - 2):
            if not _link_graph_acyclic(current.graph, f):
                bad_vertices |= set(f)
        if not bad_vertices:
            return current, removed_total
        removed_total += len(bad_vertices)
        keep = [v for v in range(current.graph.n) if v not in bad_vertices]
        index = {v: i for i, v in enumerate(keep)}
        edges = [
            (index[u], index[v])
            for u, v in current.graph.edges
            if u in index and v in index
        ]
        current = TruncatedCliqueComplex(Graph(len(keep), edges), cc.d)


@pytest.fixture(scope="session")
def grotzsch():
    return grotzsch_graph()


@pytest.fixture(scope="session")
def m5(grotzsch):
    return mycielskian(grotzsch)
