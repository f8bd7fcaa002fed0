"""Facet-based pure simplicial complexes.

The central object is :class:`SimplicialComplex`: an antichain of equal-size
facets over integer vertex ids, with a derived vertex adjacency cache and a
provenance tag per vertex (original position vs. edge-subdivision vertex).
Complexes are immutable after construction. Long runs of edge subdivisions
go through :class:`ComplexBuilder`, a mutable copy whose vertex -> facets
stars are its one incidence record, frozen into a new complex at the end.
Every face is a sorted tuple of vertex ids. :func:`build_from_facets` sorts
outside facets once; every other face is made from sorted ones in order, so
no consumer sorts a facet again.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass

from .errors import (
    DominatedFacet,
    EmptyInput,
    InvariantViolation,
    NonPure,
    NotAFace,
    NotAnEdge,
    UnknownVertex,
    WrongDimension,
)
from .graphs import cliques


@dataclass(frozen=True)
class OriginalTag:
    """Vertex present in the initial complex, at a fixed 1-based position."""

    position: int


@dataclass(frozen=True)
class SubdivisionTag:
    """Vertex created by subdividing parent_edge; step is the 1-based event index."""

    parent_edge: tuple[int, int]
    step: int


VertexTag = OriginalTag | SubdivisionTag


@dataclass(frozen=True)
class FVector:
    counts: tuple[int, ...]

    @property
    def euler(self) -> int:
        return sum((-1) ** i * c for i, c in enumerate(self.counts))


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of the closed-3-manifold checks; passed iff all four hold.
    `f_vector` is the face count the checks read; it is not in as_dict."""

    two_faces_in_two_facets: bool
    connected: bool
    vertex_links_are_2_spheres: bool
    euler_zero: bool
    f_vector: FVector

    @property
    def passed(self) -> bool:
        return (
            self.two_faces_in_two_facets
            and self.connected
            and self.vertex_links_are_2_spheres
            and self.euler_zero
        )

    def as_dict(self) -> dict[str, bool]:
        return {
            "two_faces_in_two_facets": self.two_faces_in_two_facets,
            "connected": self.connected,
            "vertex_links_are_2_spheres": self.vertex_links_are_2_spheres,
            "euler_zero": self.euler_zero,
            "passed": self.passed,
        }


class SimplicialComplex:
    """Pure simplicial complex stored by its facets.

    Vertex ids are arbitrary non-negative integers (links keep the ambient
    ids of their parent complex). Facets are sorted vertex tuples of equal
    size forming an antichain; adjacency is derived from the facets. The
    constructor trusts its facets to be such tuples and checks nothing: for
    user data use :func:`build_from_facets`, which sorts and validates.
    """

    __slots__ = ("facets", "tags", "_adj", "_vertices")

    def __init__(
        self,
        facets: frozenset[tuple[int, ...]],
        tags: dict[int, VertexTag],
        adjacency: dict[int, set[int]] | None = None,
    ):
        self.facets = facets
        self.tags = tags
        if adjacency is None:
            adjacency = _derive_adjacency(facets)
        self._adj = adjacency
        self._vertices = tuple(sorted(self._adj))

    # -- basic queries --------------------------------------------------------

    @property
    def vertices(self) -> tuple[int, ...]:
        return self._vertices

    @property
    def vertex_count(self) -> int:
        return len(self._vertices)

    @property
    def facet_count(self) -> int:
        return len(self.facets)

    @property
    def dimension(self) -> int:
        """Dimension of the (pure) complex; -1 for the empty complex."""
        if not self.facets:
            return -1
        return len(next(iter(self.facets))) - 1

    @property
    def is_empty(self) -> bool:
        return not self.facets

    def neighbors(self, v: int) -> set[int]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return u in self._adj and v in self._adj[u]

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in self._vertices for v in sorted(self._adj[u]) if u < v]

    def is_original(self, v: int) -> bool:
        return isinstance(self.tags[v], OriginalTag)

    def subdivision_vertex_count(self) -> int:
        return sum(1 for t in self.tags.values() if isinstance(t, SubdivisionTag))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self.facets == other.facets and self.tags == other.tags

    def __hash__(self):
        return hash(self.facets)

    def __repr__(self) -> str:
        return (
            f"SimplicialComplex(vertices={self.vertex_count},"
            f" facets={self.facet_count}, dim={self.dimension})"
        )


def _derive_adjacency(facets: frozenset[tuple[int, ...]]) -> dict[int, set[int]]:
    adj: dict[int, set[int]] = {}
    for facet in facets:
        for v in facet:
            if v in adj:
                adj[v].update(facet)
            else:
                adj[v] = set(facet)
    for v, nbrs in adj.items():
        nbrs.discard(v)  # a vertex's neighbours are its facets' vertices but itself
    return adj


def _derive_star(facets) -> dict[int, set[tuple[int, ...]]]:
    star: dict[int, set[tuple[int, ...]]] = {}
    for facet in facets:
        for v in facet:
            star.setdefault(v, set()).add(facet)
    return star


class ComplexBuilder:
    """Mutable copy of a complex for long runs of edge subdivisions.

    It holds each vertex's star (its facets, as sorted tuples), the adjacency
    sets, the tags, the next free vertex id and the count of subdivision
    steps. The stars are the builder's one incidence record: the facet set
    is read from them. subdivide() costs O(size of the smaller endpoint
    star), where subdivide_edge() copies the whole complex; freeze()
    returns an immutable SimplicialComplex and leaves the builder usable.
    """

    __slots__ = ("star", "adj", "tags", "next_id", "steps")

    def __init__(self, X: SimplicialComplex):
        self.star = _derive_star(X.facets)
        self.adj = {v: set(nbrs) for v, nbrs in X._adj.items()}
        self.tags = dict(X.tags)
        self.next_id = max(X.tags) + 1 if X.tags else 0
        self.steps = X.subdivision_vertex_count()

    @property
    def facets(self) -> frozenset[tuple[int, ...]]:
        """Every facet: the union of the stars."""
        return frozenset().union(*self.star.values())

    def is_original(self, v: int) -> bool:
        return isinstance(self.tags[v], OriginalTag)

    def has_edge(self, u: int, v: int) -> bool:
        return u in self.adj and v in self.adj[u]

    def _edge_star(self, edge) -> tuple[int, int, set[tuple[int, ...]]]:
        """The checked pair u < v and the facets holding it: both stars' intersection."""
        e = sorted(set(edge))
        if len(e) != 2:
            raise NotAnEdge(f"{e} is not a vertex pair")
        u, v = e
        facets = self.star.get(u, set()) & self.star.get(v, set())
        if not facets:
            raise NotAnEdge(f"{e} is not an edge")
        return u, v, facets

    def edge_link_structure(self, edge) -> tuple[set[int], set[tuple[int, ...]]]:
        """Vertices and edges of the link of an edge (facet residues)."""
        u, v, facets = self._edge_star(edge)
        residues = {tuple([x for x in facet if x != u and x != v]) for facet in facets}
        return set().union(*residues), residues

    def subdivide(self, edge) -> int:
        """Subdivide an edge in place (see subdivide_edge); returns the new vertex."""
        u, v, facets = self._edge_star(edge)
        adj, star = self.adj, self.star
        w = self.next_id
        self.next_id += 1
        self.steps += 1
        self.tags[w] = SubdivisionTag(parent_edge=(u, v), step=self.steps)
        star[w] = set()
        for facet in facets:
            for x in facet:
                star[x].remove(facet)
            i, j = facet.index(u), facet.index(v)  # w > every id: halves stay sorted
            for half in (facet[:j] + facet[j + 1 :] + (w,), facet[:i] + facet[i + 1 :] + (w,)):
                for x in half:
                    star[x].add(half)
        adj[u].remove(v)
        adj[v].remove(u)
        adj[w] = set().union(*facets)
        for x in adj[w]:
            adj[x].add(w)
        return w

    def indexes_consistent(self) -> bool:
        """True iff the star and the adjacency equal a recomputation from the facets."""
        facets = self.facets
        return self.star == _derive_star(facets) and self.adj == _derive_adjacency(facets)

    def freeze(self) -> SimplicialComplex:
        """An immutable copy of the current complex."""
        return SimplicialComplex(
            self.facets,
            dict(self.tags),
            {v: set(nbrs) for v, nbrs in self.adj.items()},
        )


def build_from_facets(
    facets, tags: dict[int, VertexTag] | None = None
) -> SimplicialComplex:
    """Validate facets (nonempty, pure, antichain) and build a complex.

    Facets are any iterables of vertex ids, each sorted here into a tuple.
    Untagged vertices default to OriginalTag(position=id+1), matching the
    1-based position convention used in reports.
    """
    facet_tuples = [tuple(sorted(set(f))) for f in facets]
    if not facet_tuples:
        raise EmptyInput("no facets given")
    sizes = {len(f) for f in facet_tuples}
    if 0 in sizes:
        raise EmptyInput("empty facet given")
    unique = set(facet_tuples)
    if len(unique) != len(facet_tuples):
        raise DominatedFacet("duplicate facet given")
    if len(sizes) != 1:
        # a proper subset pair is reported as domination, not impurity
        by_size = sorted(unique, key=len)
        for i, small in enumerate(by_size):
            for big in by_size[i + 1 :]:
                if set(small) < set(big):
                    raise DominatedFacet(f"facet {list(small)} is contained in {list(big)}")
        raise NonPure(f"facet cardinalities {sorted(sizes)} are mixed")
    verts = sorted(set().union(*unique))
    if verts[0] < 0:
        raise UnknownVertex(f"negative vertex id {verts[0]}")
    full_tags: dict[int, VertexTag] = {}
    for v in verts:
        if tags is not None and v in tags:
            full_tags[v] = tags[v]
        else:
            full_tags[v] = OriginalTag(position=v + 1)
    return SimplicialComplex(frozenset(unique), full_tags)


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
    Vertices keep their ambient ids and tags.
    """
    fs, cofacets = _cofacets(X, face)
    residues = {tuple([x for x in facet if x not in fs]) for facet in cofacets}
    if not residues:
        raise NotAFace(f"{sorted(fs)} is not a face")
    if residues == {()}:
        return SimplicialComplex(frozenset(), {})
    verts = set().union(*residues)
    tags = {v: X.tags[v] for v in verts}
    return SimplicialComplex(frozenset(residues), tags)


def _faces(X: SimplicialComplex, k: int) -> set[tuple[int, ...]]:
    """All faces of cardinality k, as the sorted k-subsets of the facets."""
    return {sub for facet in X.facets for sub in itertools.combinations(facet, k)}


def minimal_nonfaces(X: SimplicialComplex, max_size: int) -> set[tuple[int, ...]]:
    """All inclusion-minimal non-faces of at most max_size vertices, as sorted tuples.

    Size-2 entries are the non-edges. A minimal non-face of size k >= 3 is a
    clique of the adjacency graph that is not a face but all of whose
    (k-1)-subsets are.
    """
    if max_size < 2:
        raise ValueError("max_size must be >= 2")
    result: set[tuple[int, ...]] = set()
    verts = X.vertices
    adj = X._adj
    for i, u in enumerate(verts):
        for v in verts[i + 1 :]:
            if v not in adj[u]:
                result.add((u, v))
    faces = {k: _faces(X, k) for k in range(2, min(max_size, X.dimension + 1) + 1)}
    for clique in cliques(adj, max_size):
        k = len(clique)
        if clique in faces.get(k, ()):
            continue
        base = faces.get(k - 1, ())
        if all(sub in base for sub in itertools.combinations(clique, k - 1)):
            result.add(clique)
    return result


def empty_triangles_of(X: SimplicialComplex) -> set[tuple[int, int, int]]:
    """The size-3 minimal non-faces as sorted tuples: 3-cliques of the
    1-skeleton that are not 2-faces."""
    return set(cliques(X._adj, 3)) - _faces(X, 3)


def is_flag(X: SimplicialComplex) -> bool:
    """True iff every clique of the 1-skeleton is a face.

    Every face is a clique, so X is flag exactly when it has as many
    k-cliques as k-faces for each 3 <= k <= dim+1 and no (dim+2)-clique.
    """
    if X.is_empty:
        return True
    top = X.dimension + 1
    counts = [0] * (top + 1)
    for clique in cliques(X._adj, top + 1):
        if len(clique) > top:
            return False
        counts[len(clique)] += 1
    return tuple(counts[3:]) == f_vector(X).counts[2:]


def subdivide_edge(X: SimplicialComplex, edge) -> tuple[SimplicialComplex, int]:
    """Subdivide an edge: facets {u,v}|s become {u,w}|s and {v,w}|s.

    The new vertex w gets the next free id and a SubdivisionTag. Facets not
    containing the edge are unchanged; {u,v} is a non-face of the result.
    Costs a copy of X; chains of subdivisions should use one ComplexBuilder.
    """
    builder = ComplexBuilder(X)
    w = builder.subdivide(edge)
    return builder.freeze(), w


def f_vector(X: SimplicialComplex) -> FVector:
    """Exact face counts per dimension.

    Vertices and edges are counted from the adjacency and the top faces are
    the facets; only the face sizes 3..dim are enumerated from facet subsets.
    """
    if X.is_empty:
        return FVector(counts=())
    top = X.dimension + 1
    counts = [X.vertex_count, sum(len(nbrs) for nbrs in X._adj.values()) // 2][: top - 1]
    counts += [len(_faces(X, k)) for k in range(3, top)]
    counts.append(X.facet_count)
    return FVector(counts=tuple(counts))


def _connected(vertices, adj) -> bool:
    verts = list(vertices)
    if not verts:
        return True
    seen = {verts[0]}
    stack = [verts[0]]
    while stack:
        v = stack.pop()
        for u in adj[v]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == len(verts)


def _facet_incidence(X: SimplicialComplex) -> tuple[Counter, dict[int, list[tuple[int, ...]]]]:
    """One pass over the sorted facets of a 3-complex: how many facets
    contain each ridge, and each vertex's star as its facet residues
    facet - {v} (the triangles of its link), which are the facet's ridges."""
    star: dict[int, list[tuple[int, ...]]] = {v: [] for v in X.vertices}
    ridges = []
    for facet in X.facets:
        a, b, c, d = facet
        for v, residue in ((a, (b, c, d)), (b, (a, c, d)), (c, (a, b, d)), (d, (a, b, c))):
            star[v].append(residue)
            ridges.append(residue)
    return Counter(ridges), star


def _link_is_2_sphere(neighbors: set[int], triangles) -> bool:
    """Is the link with these vertices and triangles a 2-sphere? Only for a
    complex whose ridges each lie in two facets: then each link edge lies in
    two triangles, so the link has 3F/2 edges. Each pass of the walk absorbs
    the triangles that share a side (link edge) with the component. A link so
    connected, pinched at k vertices, has euler <= 2 - k: 2 means a sphere."""
    faces = len(triangles)
    if len(neighbors) - 3 * faces // 2 + faces != 2:
        return False
    sides = [((a, b), (a, c), (b, c)) for a, b, c in triangles]
    component, rest = set(sides[0]), sides
    while True:
        left = []
        for t in rest:
            if component.isdisjoint(t):
                left.append(t)
            else:
                component.update(t)
        if len(left) in (0, len(rest)):
            return not left
        rest = left


def verify_closed_3_manifold(X: SimplicialComplex) -> VerificationReport:
    """Check the combinatorial closed-3-manifold conditions.

    (a) every 2-face lies in exactly two facets, (b) the complex is
    connected, (c) every vertex link is a 2-sphere: a closed surface,
    connected across its edges, with euler characteristic 2, (d) euler(X) = 0.
    """
    if X.dimension != 3:
        raise WrongDimension(f"expected a pure 3-complex, got dimension {X.dimension}")
    ridge_count, star = _facet_incidence(X)
    two_faces_ok = all(c == 2 for c in ridge_count.values())
    connected = _connected(X.vertices, X._adj)
    # a ridge in k != 2 facets is an edge in k triangles of its vertices' links
    links_ok = two_faces_ok and all(_link_is_2_sphere(X._adj[v], star[v]) for v in star)
    edge_count = sum(len(nbrs) for nbrs in X._adj.values()) // 2
    fv = FVector(counts=(X.vertex_count, edge_count, len(ridge_count), X.facet_count))
    return VerificationReport(
        two_faces_in_two_facets=two_faces_ok,
        connected=connected,
        vertex_links_are_2_spheres=links_ok,
        euler_zero=fv.euler == 0,
        f_vector=fv,
    )


def replay(initial: SimplicialComplex, trace: tuple) -> SimplicialComplex:
    """Re-apply a trace, the ordered (u, v, w) triples of subdivided edge u-v
    and assigned vertex w, on one builder; the assigned ids must match."""
    builder = ComplexBuilder(initial)
    for u, v, w in trace:
        got = builder.subdivide((u, v))
        if got != w:
            # id mismatch means the trace belongs to a different base complex
            raise InvariantViolation(f"replay assigned vertex {got}, trace expected {w}")
    return builder.freeze()
