"""Facet-based pure simplicial complexes.

The central object is :class:`SimplicialComplex`: an antichain of equal-size
facets over integer vertex ids, with a derived vertex adjacency cache and a
provenance tag per vertex (original position vs. edge-subdivision vertex).
Complexes are immutable after construction. Long runs of edge subdivisions
go through :class:`ComplexBuilder`, a mutable copy with a vertex -> facets
star index, which is frozen into a new complex once at the end.
"""

from __future__ import annotations

import itertools
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
    euler: int


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of the closed-3-manifold checks; passed iff all four hold."""

    two_faces_in_two_facets: bool
    connected: bool
    vertex_links_are_2_spheres: bool
    euler_zero: bool

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
    ids of their parent complex). Facets are frozensets of equal size
    forming an antichain; adjacency is derived from the facets. Do not call
    the constructor directly for user data, use :func:`build_from_facets`.
    """

    __slots__ = ("facets", "tags", "_adj", "_vertices")

    def __init__(
        self,
        facets: frozenset[frozenset[int]],
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


def _derive_adjacency(facets: frozenset[frozenset[int]]) -> dict[int, set[int]]:
    adj: dict[int, set[int]] = {}
    for facet in facets:
        for v in facet:
            adj.setdefault(v, set())
        for u, v in itertools.combinations(facet, 2):
            adj[u].add(v)
            adj[v].add(u)
    return adj


def _derive_star(facets) -> dict[int, set[frozenset[int]]]:
    star: dict[int, set[frozenset[int]]] = {}
    for facet in facets:
        for v in facet:
            star.setdefault(v, set()).add(facet)
    return star


class ComplexBuilder:
    """Mutable copy of a complex for long runs of edge subdivisions.

    It holds the facet set, each vertex's star (the facets containing it),
    the adjacency sets, the tags, the next free vertex id and the count of
    subdivision steps. subdivide() costs O(size of the edge's star), where
    subdivide_edge() copies the whole complex; freeze() returns an
    immutable SimplicialComplex and leaves the builder usable.
    """

    __slots__ = ("facets", "star", "adj", "tags", "next_id", "steps")

    def __init__(self, X: SimplicialComplex):
        self.facets = set(X.facets)
        self.star = _derive_star(X.facets)
        self.adj = {v: set(nbrs) for v, nbrs in X._adj.items()}
        self.tags = dict(X.tags)
        self.next_id = max(X.tags) + 1 if X.tags else 0
        self.steps = X.subdivision_vertex_count()

    def is_original(self, v: int) -> bool:
        return isinstance(self.tags[v], OriginalTag)

    def has_edge(self, u: int, v: int) -> bool:
        return u in self.adj and v in self.adj[u]

    def edge_link_structure(self, edge) -> tuple[set[int], set[frozenset[int]]]:
        """Vertices and edges of the link of an edge (facet residues), read
        from the smaller star of its two endpoints."""
        e = frozenset(edge)
        if len(e) != 2:
            raise NotAnEdge(f"{sorted(e)} is not a vertex pair")
        u, v = e
        smaller = min(self.star.get(u, ()), self.star.get(v, ()), key=len)
        residues = {facet - e for facet in smaller if e <= facet}
        if not residues:
            raise NotAnEdge(f"{sorted(e)} is not an edge")
        return set().union(*residues), residues

    def subdivide(self, edge) -> int:
        """Subdivide an edge in place (see subdivide_edge); returns the new vertex."""
        e = frozenset(edge)
        if len(e) != 2:
            raise NotAnEdge(f"{sorted(e)} is not a vertex pair")
        u, v = sorted(e)
        adj, star = self.adj, self.star
        if u not in adj or v not in adj[u]:
            raise NotAnEdge(f"({u}, {v}) is not an edge")
        w = self.next_id
        self.next_id += 1
        self.steps += 1
        self.tags[w] = SubdivisionTag(parent_edge=(u, v), step=self.steps)
        star[w] = set()
        link_verts: set[int] = set()
        for facet in [f for f in star[u] if v in f]:
            rest = facet - e
            self.facets.remove(facet)
            for x in facet:
                star[x].remove(facet)
            for half in (rest | {u, w}, rest | {v, w}):
                self.facets.add(half)
                for x in half:
                    star[x].add(half)
            link_verts |= rest
        adj[u].remove(v)
        adj[v].remove(u)
        adj[w] = {u, v} | link_verts
        for x in adj[w]:
            adj[x].add(w)
        return w

    def indexes_consistent(self) -> bool:
        """True iff the star and the adjacency equal a recomputation from the facets."""
        facets = frozenset(self.facets)
        return self.star == _derive_star(facets) and self.adj == _derive_adjacency(facets)

    def freeze(self) -> SimplicialComplex:
        """An immutable copy of the current complex."""
        return SimplicialComplex(
            frozenset(self.facets),
            dict(self.tags),
            {v: set(nbrs) for v, nbrs in self.adj.items()},
        )


def build_from_facets(
    facets, tags: dict[int, VertexTag] | None = None
) -> SimplicialComplex:
    """Validate facets (nonempty, pure, antichain) and build a complex.

    Untagged vertices default to OriginalTag(position=id+1), matching the
    1-based position convention used in reports.
    """
    facet_sets = [frozenset(f) for f in facets]
    if not facet_sets:
        raise EmptyInput("no facets given")
    sizes = {len(f) for f in facet_sets}
    if 0 in sizes:
        raise EmptyInput("empty facet given")
    unique = set(facet_sets)
    if len(unique) != len(facet_sets):
        raise DominatedFacet("duplicate facet given")
    if len(sizes) != 1:
        # a proper subset pair is reported as domination, not impurity
        by_size = sorted(unique, key=len)
        for i, small in enumerate(by_size):
            for big in by_size[i + 1 :]:
                if small < big:
                    raise DominatedFacet(
                        f"facet {sorted(small)} is contained in {sorted(big)}"
                    )
        raise NonPure(f"facet cardinalities {sorted(sizes)} are mixed")
    for f in facet_sets:
        for v in f:
            if v < 0:
                raise UnknownVertex(f"negative vertex id {v}")
    verts = sorted(set().union(*facet_sets))
    full_tags: dict[int, VertexTag] = {}
    for v in verts:
        if tags is not None and v in tags:
            full_tags[v] = tags[v]
        else:
            full_tags[v] = OriginalTag(position=v + 1)
    return SimplicialComplex(frozenset(unique), full_tags)


def _check_vertices_known(X: SimplicialComplex, face) -> frozenset[int]:
    fs = frozenset(face)
    for v in fs:
        if v not in X._adj:
            raise UnknownVertex(f"vertex {v} not in complex")
    return fs


def is_face(X: SimplicialComplex, face) -> bool:
    """True iff the vertex set is contained in some facet."""
    fs = _check_vertices_known(X, face)
    return any(fs <= facet for facet in X.facets)


def link(X: SimplicialComplex, face) -> SimplicialComplex:
    """Link of a face: the complex {sigma \\ f : f subset sigma in facets}.

    The link of a facet is the empty complex (is_empty reports it).
    Vertices keep their ambient ids and tags.
    """
    fs = _check_vertices_known(X, face)
    residues = {facet - fs for facet in X.facets if fs <= facet}
    if not residues:
        raise NotAFace(f"{sorted(fs)} is not a face")
    if residues == {frozenset()}:
        return SimplicialComplex(frozenset(), {})
    verts = set().union(*residues)
    tags = {v: X.tags[v] for v in verts}
    return SimplicialComplex(frozenset(residues), tags)


def _faces_by_size(X: SimplicialComplex, max_size: int) -> dict[int, set[frozenset[int]]]:
    """All faces of cardinality 1..max_size, enumerated from facet subsets."""
    out: dict[int, set[frozenset[int]]] = {k: set() for k in range(1, max_size + 1)}
    top = X.dimension + 1
    for facet in X.facets:
        fl = sorted(facet)
        for k in range(1, min(max_size, top) + 1):
            for sub in itertools.combinations(fl, k):
                out[k].add(frozenset(sub))
    return out


def minimal_nonfaces(X: SimplicialComplex, max_size: int) -> set[frozenset[int]]:
    """All inclusion-minimal non-faces with at most max_size vertices.

    Size-2 entries are the non-edges. A minimal non-face of size k >= 3 is a
    clique of the adjacency graph that is not a face but all of whose
    (k-1)-subsets are.
    """
    if max_size < 2:
        raise ValueError("max_size must be >= 2")
    result: set[frozenset[int]] = set()
    verts = X.vertices
    adj = X._adj
    for i, u in enumerate(verts):
        for v in verts[i + 1 :]:
            if v not in adj[u]:
                result.add(frozenset((u, v)))
    faces = _faces_by_size(X, min(max_size, X.dimension + 1))
    for clique in cliques(adj, max_size):
        if len(clique) < 3:
            continue
        cand = frozenset(clique)
        base = faces.get(len(cand) - 1, ())
        if cand not in faces.get(len(cand), ()) and all(cand - {x} in base for x in cand):
            result.add(cand)
    return result


def empty_triangles_of(X: SimplicialComplex) -> set[frozenset[int]]:
    """The size-3 minimal non-faces: 3-cliques of the 1-skeleton that are not 2-faces."""
    two_faces = {frozenset(t) for facet in X.facets for t in itertools.combinations(facet, 3)}
    return {frozenset(c) for c in cliques(X._adj, 3) if len(c) == 3} - two_faces


def is_flag(X: SimplicialComplex) -> bool:
    """True iff every clique of the 1-skeleton is a face.

    Every face is a clique, so X is flag exactly when it has as many
    k-cliques as k-faces for each k <= dim+1 and no (dim+2)-clique.
    """
    if X.is_empty:
        return True
    top = X.dimension + 1
    counts = [0] * (top + 1)
    for clique in cliques(X._adj, top + 1):
        if len(clique) > top:
            return False
        counts[len(clique)] += 1
    return tuple(counts[1:]) == f_vector(X).counts


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
        return FVector(counts=(), euler=0)
    top = X.dimension + 1
    counts = [X.vertex_count, sum(len(nbrs) for nbrs in X._adj.values()) // 2][: top - 1]
    for k in range(3, top):
        counts.append(
            len({sub for facet in X.facets for sub in itertools.combinations(sorted(facet), k)})
        )
    counts.append(X.facet_count)
    euler = sum((-1) ** i * c for i, c in enumerate(counts))
    return FVector(counts=tuple(counts), euler=euler)


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


def _facet_incidence(
    X: SimplicialComplex,
) -> tuple[dict[frozenset[int], int], dict[int, frozenset[frozenset[int]]]]:
    """One pass over the facets: how many facets contain each ridge, and each
    vertex's star as its facet residues (the facets of its link).

    The residues facet - {v} are exactly the ridges of the facet.
    """
    ridge_count: dict[frozenset[int], int] = {}
    star: dict[int, list[frozenset[int]]] = {v: [] for v in X.vertices}
    for facet in X.facets:
        for v in facet:
            residue = facet - {v}
            ridge_count[residue] = ridge_count.get(residue, 0) + 1
            star[v].append(residue)
    return ridge_count, {v: frozenset(residues) for v, residues in star.items()}


def _link_is_2_sphere(lk: SimplicialComplex) -> bool:
    """Combinatorial check: closed connected surface with euler 2."""
    if lk.is_empty or lk.dimension != 2:
        return False
    ridge_count, _ = _facet_incidence(lk)
    if any(c != 2 for c in ridge_count.values()):
        return False
    if not _connected(lk.vertices, lk._adj):
        return False
    fv = f_vector(lk)
    return fv.euler == 2


def verify_closed_3_manifold(X: SimplicialComplex) -> VerificationReport:
    """Check the combinatorial closed-3-manifold conditions.

    (a) every 2-face lies in exactly two facets, (b) the complex is
    connected, (c) every vertex link is a closed connected surface with
    euler characteristic 2, (d) euler(X) = 0.
    """
    if X.dimension != 3:
        raise WrongDimension(f"expected a pure 3-complex, got dimension {X.dimension}")
    triangle_count, star = _facet_incidence(X)
    two_faces_ok = all(c == 2 for c in triangle_count.values())
    connected = _connected(X.vertices, X._adj)
    links_ok = True
    for residues in star.values():
        lk = SimplicialComplex(residues, {u: X.tags[u] for r in residues for u in r})
        if not _link_is_2_sphere(lk):
            links_ok = False
            break
    euler_zero = f_vector(X).euler == 0
    return VerificationReport(
        two_faces_in_two_facets=two_faces_ok,
        connected=connected,
        vertex_links_are_2_spheres=links_ok,
        euler_zero=euler_zero,
    )


@dataclass(frozen=True)
class SubdivisionTrace:
    """Ordered log of subdivision events (edge endpoints, assigned vertex)."""

    events: tuple[tuple[int, int, int], ...]

    def __len__(self) -> int:
        return len(self.events)


def replay(initial: SimplicialComplex, trace: SubdivisionTrace) -> SimplicialComplex:
    """Re-apply a trace on one builder; the assigned ids must match the recorded ones."""
    builder = ComplexBuilder(initial)
    for u, v, w in trace.events:
        got = builder.subdivide((u, v))
        if got != w:
            # id mismatch means the trace belongs to a different base complex
            raise InvariantViolation(f"replay assigned vertex {got}, trace expected {w}")
    return builder.freeze()
