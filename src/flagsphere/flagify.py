"""Edge-subdivision flagification of the cyclic 4-sphere around a graph.

Starting from the cyclic 4-sphere on n vertices with a triangle-free graph
G identified with original vertices 0..|G|-1, empty triangles are removed
by repeated edge subdivision, never subdividing an edge of G. Each round
subdivides one edge of an all-original empty triangle and then repairs the
at-most-two new empty triangles through the fresh vertex, restoring the
invariant that every empty triangle lies on original vertices. New empty
triangles after subdividing an edge f with fresh vertex w are exactly the
sets {w, x, y} where x and y lie on the link cycle of f, are adjacent in
the complex, but are not joined by a link edge. They are read after the
cut from the half-edge {u, w} of f = {u, v}, which has the link of f, and
kept in a set local to the round, which is done when the set is empty.

Index design. One FlagifyState is advanced in place for the whole run:
  * the complex is a ComplexBuilder, whose vertex -> facets star answers
    each link query and each subdivision in time proportional to a star;
  * the all-original empty triangles are not stored. Every face and edge
    a subdivision creates contains the fresh vertex, and edges between
    older vertices are only ever removed. So a triangle (a, b, c) of the
    cyclic sphere stays a non-face and is alive exactly while its three
    edges exist in the builder, and a dead one never comes back. One
    forward pass over the lexicographic stream cyclic.empty_triangles(n)
    that skips dead entries always stops at the smallest live one, the
    next round's target.

A round performs at most four subdivisions and a run needs at most
4*C(n,2) in total; hard guards (4 per round, 5*C(n,2) overall) raise
InvariantViolation with the recent event trail instead of looping. The
run's trace is a plain tuple of its events in order: (u, v, w) for edge
u-v subdivided by fresh vertex w, read off the tags of w = n, n+1, ... (the
builder issues ids in step order); complexes.replay re-applies it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .complexes import ComplexBuilder, SimplicialComplex, empty_triangles_of
from .cyclic import cyclic_4_sphere, empty_triangles
from .errors import InvariantViolation, NotTriangleFree, TooFewPolytopeVertices
from .graphs import Graph, is_triangle_free

# the builder's in-place primitives under the names perfbench/run.py traces:
# subdivide_edge(builder, edge) -> fresh vertex, and
# edge_link_structure(builder, edge) -> (link vertices, link edges)
subdivide_edge = ComplexBuilder.subdivide
edge_link_structure = ComplexBuilder.edge_link_structure

Triangle = tuple[int, int, int]


class FlagifyState:
    """A flagify run between rounds; eliminate_round advances it in place.

    `rest` streams, in lexicographic order, the empty triangles of the cyclic
    sphere on `n` vertices after `target`, which is None once the stream is
    spent; every one before `target` is dead, and one is live while its three
    edges exist. Between rounds every empty triangle is all-original, that is
    on the ids below `n`. After an InvariantViolation the state is not usable.
    """

    __slots__ = ("builder", "embedded", "n", "rest", "target", "rounds")

    def __init__(self, builder: ComplexBuilder, embedded: Graph, n: int):
        self.builder = builder
        self.embedded = embedded
        self.n = n
        self.rest = empty_triangles(n)
        self.target: Triangle | None = next(self.rest, None)
        self.rounds = 0

    @property
    def subdivision_count(self) -> int:
        return self.builder.next_id - self.n

    @property
    def all_original(self) -> set[Triangle]:
        """The live all-original empty triangles from `target` on (none once
        it is None), re-derived from the closed form."""
        adj, target = self.builder.adj, self.target
        return {t for t in empty_triangles(self.n) if target and t >= target and _alive(adj, t)}


@dataclass(frozen=True)
class FlagifyReport:
    final_vertex_count: int
    subdivision_count: int
    round_count: int
    bound: int


def vertex_bound(n: int) -> int:
    """Worst-case final vertex count: 4*C(n,2) + n."""
    return 4 * math.comb(n, 2) + n


def embed(g: Graph, n: int) -> FlagifyState:
    """Place a triangle-free graph on the first |G| original vertices.

    The cyclic sphere's 1-skeleton is complete, so the identity map always
    realizes every edge of G.
    """
    if not is_triangle_free(g):
        raise NotTriangleFree("embedded graph must be triangle-free")
    if g.n > n:
        raise TooFewPolytopeVertices(f"graph has {g.n} vertices, polytope only {n}")
    return FlagifyState(ComplexBuilder(cyclic_4_sphere(n)), g, n)


def _alive(adj: dict[int, set[int]], t: Triangle) -> bool:
    """Is a listed all-original triangle still empty: are its edges all there?"""
    a, b, c = t
    return b in adj[a] and c in adj[a] and c in adj[b]


def _cascade_pairs(builder: ComplexBuilder, edge) -> set[tuple[int, int]]:
    """Pairs on the link cycle of `edge` that are adjacent in the complex but
    not link-adjacent: the empty-triangle partners a fresh vertex on `edge`
    gets, or, for a half-edge u-w, has got."""
    verts, link_edges = edge_link_structure(builder, edge)
    adj = builder.adj
    near = {(x, y) for x, y in itertools.combinations(sorted(verts), 2) if y in adj[x]}
    return near - link_edges


def _in_embedded(g: Graph, a: int, b: int) -> bool:
    return a < g.n and b < g.n and g.has_edge(a, b)


def _events(state: FlagifyState) -> tuple[tuple[int, int, int], ...]:
    """The run's (u, v, w) events so far, read off the tags of w = n, n+1, ..."""
    tags = state.builder.tags
    return tuple((*tags[w].parent_edge, w) for w in range(state.n, state.builder.next_id))


def _trail(state: FlagifyState) -> str:
    return ", ".join(f"{u}-{v}->{w}" for u, v, w in _events(state)[-6:])


def _subdivide(
    state: FlagifyState, edge: tuple[int, int], round_start: int, pending: set[Triangle]
) -> None:
    """Subdivide, update the round's `pending` triangles, enforce the local laws."""
    if state.subdivision_count - round_start >= 4:
        raise InvariantViolation(
            f"repair cascade exceeds 4 subdivisions in one round; trail: {_trail(state)}"
        )
    builder = state.builder
    w = subdivide_edge(builder, edge)
    u, v = sorted(edge)
    # the half-edge u-w has the old edge's link, read from w's small star
    born_pairs = _cascade_pairs(builder, (u, w))
    pending -= {t for t in pending if u in t and v in t}
    if len(born_pairs) > 2:
        raise InvariantViolation(
            f"subdividing {[u, v]} created {len(born_pairs)} empty triangles; "
            f"trail: {_trail(state)}"
        )
    for x, y in born_pairs:
        # w is the largest id so far, so the sorted triangle ends with it
        if not (x < state.n and y < state.n):
            raise InvariantViolation(
                f"new empty triangle {[x, y, w]} has a non-original partner; "
                f"trail: {_trail(state)}"
            )
        pending.add((x, y, w))


def _next_target(state: FlagifyState) -> Triangle | None:
    """The lexicographically smallest live all-original empty triangle, or
    None when none is left; advances the stream onto it."""
    adj, rest, target = state.builder.adj, state.rest, state.target
    while target is not None and not _alive(adj, target):
        target = next(rest, None)
    state.target = target
    return target


def eliminate_round(state: FlagifyState) -> FlagifyState:
    """Destroy one all-original empty triangle and repair the fallout, in
    place; returns the same state.

    Selection is deterministic: the lexicographically smallest all-original
    empty triangle, then its lexicographically smallest edge outside the
    embedded graph. Repairs prefer a spoke through the fresh vertex whose
    subdivision provably creates nothing new; when no candidate is safe the
    first spoke is taken anyway, which is the four-subdivision pattern.
    """
    target = _next_target(state)
    if target is None:
        raise InvariantViolation("no empty triangle left to eliminate")
    g = state.embedded
    round_start = state.subdivision_count
    a, b, c = target
    primary = next(
        (e for e in ((a, b), (a, c), (b, c)) if not _in_embedded(g, *e)),
        None,
    )
    if primary is None:
        # triangle-free embedded graphs always leave at least one free edge
        raise InvariantViolation(f"all edges of {list(target)} are protected")
    pending: set[Triangle] = set()
    _subdivide(state, primary, round_start, pending)
    if _alive(state.builder.adj, target):
        raise InvariantViolation(f"primary triangle {list(target)} survived")

    while pending:
        o1, o2, w = min(pending)
        candidates = [(w, o1), (w, o2)]
        if not _in_embedded(g, o1, o2):
            candidates.append((o1, o2))
        chosen = next(
            (f for f in candidates if not _cascade_pairs(state.builder, f)),
            candidates[0],
        )
        _subdivide(state, chosen, round_start, pending)

    state.rounds += 1
    return state


def audit_state(state: FlagifyState) -> bool:
    """Cross-check every index against a full recomputation: the builder's
    star and adjacency against its facets, and the live triangles from the
    target on against the size-3 minimal non-faces, which also checks that
    every empty triangle is all-original and that the stream skipped no live
    one; plus survival of every embedded edge."""
    builder = state.builder
    if not builder.indexes_consistent():
        return False
    if empty_triangles_of(builder.freeze()) != state.all_original:
        return False
    return all(builder.has_edge(u, v) for u, v in state.embedded.edges)


def flagify(
    g: Graph,
    n: int,
    audit: bool = False,
) -> tuple[SimplicialComplex, FlagifyReport, tuple[tuple[int, int, int], ...]]:
    """Run elimination rounds to completion; returns the flag 3-sphere, the
    report and the trace of (u, v, w) events.

    With audit=True every round is followed by a full index recomputation;
    a mismatch raises InvariantViolation instead of continuing on a corrupt
    index.
    """
    state = embed(g, n)
    max_subdivisions = 5 * math.comb(n, 2)
    while _next_target(state) is not None:
        state = eliminate_round(state)
        if state.subdivision_count > max_subdivisions:
            raise InvariantViolation(
                f"total subdivisions exceeded guard {max_subdivisions}"
            )
        if audit and not audit_state(state):
            raise InvariantViolation(f"audit failed after round {state.rounds}")
    complex_ = state.builder.freeze()
    report = FlagifyReport(
        final_vertex_count=complex_.vertex_count,
        subdivision_count=state.subdivision_count,
        round_count=state.rounds,
        bound=vertex_bound(n),
    )
    if report.final_vertex_count > report.bound:
        raise InvariantViolation(
            f"vertex count {report.final_vertex_count} exceeds bound {report.bound}"
        )
    return complex_, report, _events(state)
