"""Facet-based pure simplicial complexes.

The central object is :class:`SimplicialComplex`: an antichain of equal-size
facets over integer vertex ids, with a derived vertex adjacency cache and a
parent map: None for an original vertex, the subdivided edge for the rest.
Complexes are immutable after construction. Long runs of edge subdivisions
go through :class:`ComplexBuilder`, a mutable copy whose vertex -> facets
stars are its one incidence record, frozen into a new complex at the end.
Every face is a sorted tuple of vertex ids. :func:`build_from_facets` sorts
outside facets once; every other face is made from sorted ones in order, so
no consumer sorts a facet again.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from dataclasses import dataclass

from .errors import (
    DominatedFacet,
    EmptyInput,
    InvariantViolation,
    NonPure,
    NotAnEdge,
    RepeatedVertex,
    UnknownVertex,
    WrongDimension,
)
from .graphs import _clique_walk, cliques, forward_rows


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
    `parents` maps each vertex to None (original) or to the edge (u, v),
    u < v, whose subdivision made it.
    """

    __slots__ = ("facets", "parents", "_adj", "_vertices", "_rows")

    def __init__(
        self,
        facets: frozenset[tuple[int, ...]],
        parents: dict[int, tuple[int, int] | None],
        adjacency: dict[int, set[int]] | None = None,
    ):
        self.facets = facets
        self.parents = parents
        if adjacency is None:
            adjacency = _derive_adjacency(facets)
        self._adj = adjacency
        self._vertices = tuple(sorted(self._adj))
        self._rows = None

    # -- basic queries --------------------------------------------------------

    @property
    def vertices(self) -> tuple[int, ...]:
        return self._vertices

    @property
    def rows(self) -> dict[int, tuple[int, ...]]:
        """The 1-skeleton's forward rows (graphs.forward_rows), built once."""
        if self._rows is None:
            self._rows = forward_rows(self.neighbors, self._vertices)
        return self._rows

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

    def has_edge(self, u: int, v: int) -> bool:
        return u in self._adj and v in self._adj[u]

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in self._vertices for v in sorted(self._adj[u]) if u < v]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self.facets == other.facets and self.parents == other.parents

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
    sets, the parents and the next free id, above every id, so ids run in step
    order. The stars are its one incidence record: the facets are read from
    them. subdivide() costs O(size of the smaller endpoint star), where
    subdivide_edge() copies the complex; freeze() returns an immutable copy.
    """

    __slots__ = ("star", "adj", "parents", "next_id")

    def __init__(self, X: SimplicialComplex):
        self.star = _derive_star(X.facets)
        self.adj = {v: set(nbrs) for v, nbrs in X._adj.items()}
        self.parents = dict(X.parents)
        self.next_id = X.vertices[-1] + 1 if X.vertices else 0

    @property
    def facets(self) -> frozenset[tuple[int, ...]]:
        """Every facet: the union of the stars."""
        return frozenset().union(*self.star.values())

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
        self.parents[w] = (u, v)
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
            dict(self.parents),
            {v: set(nbrs) for v, nbrs in self.adj.items()},
        )


def build_from_facets(
    facets, parents: dict[int, tuple[int, int] | None] | None = None
) -> SimplicialComplex:
    """Validate facets and parents and build a complex: the one check of complex
    data. Facets are any iterables of distinct ids, each sorted here into a
    tuple. Parents, when given, must name exactly the vertices, and a parent
    edge two vertices, smaller first, both below its child; without them every
    vertex is original.
    """
    facet_tuples = [tuple(sorted(f)) for f in facets]
    if not facet_tuples:
        raise EmptyInput("no facets given")
    for facet in facet_tuples:
        if len(set(facet)) != len(facet):
            raise RepeatedVertex(f"facet {list(facet)} repeats a vertex")
    sizes = {len(f) for f in facet_tuples}
    if 0 in sizes:
        raise EmptyInput("empty facet given")
    unique = frozenset(facet_tuples)
    if len(unique) != len(facet_tuples):
        raise DominatedFacet("duplicate facet given")
    if len(sizes) != 1:
        # a proper subset pair is reported as domination, not impurity; a facet
        # is tested only against the larger facets on its rarest vertex, in
        # by_size order, so the first container found is the first overall
        by_size = sorted(unique, key=len)
        holders: dict[int, list[tuple[int, ...]]] = {}
        for facet in by_size:
            for v in facet:
                holders.setdefault(v, []).append(facet)
        for small in by_size:
            for big in min((holders[v] for v in small), key=len):
                if len(big) > len(small) and set(small).issubset(big):
                    raise DominatedFacet(f"facet {list(small)} is contained in {list(big)}")
        raise NonPure(f"facet cardinalities {sorted(sizes)} are mixed")
    X = SimplicialComplex(unique, {})  # its parents are filled below, from its vertices
    verts = X.vertices
    if verts[0] < 0:
        raise UnknownVertex(f"negative vertex id {verts[0]}")
    if parents is None:
        parents = dict.fromkeys(verts)
    elif parents.keys() != set(verts):
        missing = sorted(set(verts).difference(parents))
        extra = sorted(set(parents).difference(verts))
        raise UnknownVertex(f"tags miss vertices {missing} and name non-vertices {extra}")
    for w, edge in parents.items():
        if edge is not None:
            u, v = edge
            if not (u < v < w and u in parents and v in parents):
                raise NotAnEdge(f"parent edge {[u, v]} of {w} is not two smaller vertices in order")
    X.parents.update((v, parents[v]) for v in verts)
    return X


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
    for clique in cliques(X.rows, max_size):
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
    return set(cliques(X.rows, 3)) - _faces(X, 3)


def clique_counts(X: SimplicialComplex) -> tuple[int, ...] | None:
    """The numbers of k-cliques of X's 1-skeleton for 3 <= k <= dim+1, or None
    when it has a (dim+2)-clique, which no face of X can be.

    The cliques are counted by the sizes of one walk's candidate sets, not
    listed, and the walk stops at the first (dim+2)-clique.
    """
    top = X.dimension + 1
    counts = [0] * (top + 1)
    for clique, cand in _clique_walk(X.rows, top + 1):
        if len(clique) == top:
            return None  # cand holds the last vertex of a (dim+2)-clique
        counts[len(clique) + 1] += len(cand)
    return tuple(counts[3:])


def is_flag(X: SimplicialComplex, f_vector: FVector | None = None, counts=False) -> bool:
    """True iff every clique of the 1-skeleton is a face.

    Every face is a clique, so X is flag exactly when it has as many
    k-cliques as k-faces for each 3 <= k <= dim+1 and no (dim+2)-clique.
    The clique counts are `counts`, X's `clique_counts` (None included) when
    the caller has them, else counted here; the face counts are `f_vector`,
    X's f-vector when the caller has it (the manifold pass's), else counted
    here.
    """
    if X.is_empty:
        return True
    if counts is False:
        counts = clique_counts(X)
    faces = f_vector.counts if f_vector is not None else _face_counts(X)
    return counts is not None and counts == faces[2:]


def subdivide_edge(X: SimplicialComplex, edge) -> tuple[SimplicialComplex, int]:
    """Subdivide an edge: facets {u,v}|s become {u,w}|s and {v,w}|s.

    The new vertex w gets the next free id and the parent edge (u, v). Facets
    not containing the edge are unchanged; {u,v} is a non-face of the result.
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
    return FVector(counts=_face_counts(X))


def _face_counts(X: SimplicialComplex) -> tuple[int, ...]:
    if X.is_empty:
        return ()
    top = X.dimension + 1
    counts = [X.vertex_count, sum(len(nbrs) for nbrs in X._adj.values()) // 2][: top - 1]
    counts += [len(_faces(X, k)) for k in range(3, top)]
    counts.append(X.facet_count)
    return tuple(counts)


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


# _JOINS[s][t] pairs the slots of ridge s (the facet but slot s) with those of ridge t
_RIDGE_SLOTS = ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))
_JOINS = tuple(tuple(tuple(zip(s, t)) for t in _RIDGE_SLOTS) for s in _RIDGE_SLOTS)


def verify_closed_3_manifold(X: SimplicialComplex) -> VerificationReport:
    """Check the combinatorial closed-3-manifold conditions.

    (a) every 2-face lies in exactly two facets, (b) the complex is
    connected, (c) every vertex link is a 2-sphere: a closed surface,
    connected across its edges, with euler characteristic 2, (d) euler(X) = 0.

    One union-find pass decides (a) and (c): facet i owns the slots 4i..4i+3,
    one per vertex, and the two facets of a ridge are joined slot for slot, so
    there are V classes iff every link is connected across its edges. Under
    (a) a link of F triangles on deg(v) vertices has euler deg(v) - F/2, and
    so connected but pinched at k vertices, euler <= 2 - k: 2 means a sphere.
    """
    if X.dimension != 3:
        raise WrongDimension(f"expected a pure 3-complex, got dimension {X.dimension}")
    parent = list(range(4 * X.facet_count))
    first: dict[tuple[int, ...], int] = {}  # ridge -> 4i+s of its first facet; -1 at two
    code = 0  # 4i+s: facet i's ridge without slot s
    for a, b, c, d in X.facets:
        for ridge in ((b, c, d), (a, c, d), (a, b, d), (a, b, c)):
            other = first.setdefault(ridge, code)
            if 0 <= other != code:
                first[ridge] = -1
                base, other_base = code & ~3, other & ~3
                for x, y in _JOINS[code & 3][other & 3]:
                    x += base
                    while parent[x] != x:  # find, halving the path
                        parent[x] = x = parent[parent[x]]
                    y += other_base
                    while parent[y] != y:
                        parent[y] = y = parent[parent[y]]
                    parent[x] = y
            code += 1
    # every ridge met a second facet, and the 4F sightings made 2F ridges: none met a third
    two_faces_ok = max(first.values()) < 0 and len(first) == len(parent) // 2
    classes = sum(map(operator.eq, parent, range(len(parent))))
    star = Counter(itertools.chain.from_iterable(X.facets))
    euler_2 = all(2 * len(nbrs) - star[v] == 4 for v, nbrs in X._adj.items())
    links_ok = two_faces_ok and classes == X.vertex_count and euler_2
    edge_count = sum(len(nbrs) for nbrs in X._adj.values()) // 2
    fv = FVector(counts=(X.vertex_count, edge_count, len(first), X.facet_count))
    return VerificationReport(
        two_faces_in_two_facets=two_faces_ok,
        connected=_connected(X.vertices, X._adj),
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
