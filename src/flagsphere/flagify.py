"""Edge-subdivision flagification of the cyclic 4-sphere around a graph.

Starting from the cyclic 4-sphere on n vertices with a triangle-free graph
G identified with original vertices 0..|G|-1, empty triangles are removed
by repeated edge subdivision, never subdividing an edge of G. Each round
subdivides one edge of an all-original empty triangle and then repairs the
at-most-two new empty triangles through the fresh vertex, restoring the
invariant that every empty triangle lies on original vertices. New empty
triangles after subdividing an edge f with fresh vertex w are exactly the
sets {w, x, y} where x and y lie on the link cycle of f, are adjacent in
the complex, but are not joined by a link edge; the index is maintained
incrementally from that local rule and can be audited against a full
recomputation.

A round performs at most four subdivisions and a run needs at most
4*C(n,2) in total; hard guards (4 per round, 5*C(n,2) overall) raise
InvariantViolation with the recent event trail instead of looping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .complexes import (
    SimplicialComplex,
    SubdivisionTrace,
    edge_link_structure,
    empty_triangles_of,
    subdivide_edge,
)
from .cyclic import cyclic_4_sphere, empty_triangles
from .errors import InvariantViolation, NotTriangleFree, TooFewPolytopeVertices
from .graphs import Graph, is_triangle_free


@dataclass(frozen=True)
class FlagifyState:
    """Snapshot between rounds; complexes and index sets are never mutated."""

    complex: SimplicialComplex
    embedded: Graph
    events: tuple[tuple[int, int, int], ...]
    all_original: frozenset[frozenset[int]]
    with_subdivision: frozenset[frozenset[int]]
    rounds: int
    base_n: int

    @property
    def trace(self) -> SubdivisionTrace:
        return SubdivisionTrace(events=self.events)

    @property
    def subdivision_count(self) -> int:
        return len(self.events)

    @property
    def empty_triangle_count(self) -> int:
        return len(self.all_original) + len(self.with_subdivision)


@dataclass(frozen=True)
class FlagifyReport:
    final_vertex_count: int
    subdivision_count: int
    round_count: int
    bound: int

    def as_dict(self) -> dict[str, int]:
        return {
            "final_vertex_count": self.final_vertex_count,
            "subdivision_count": self.subdivision_count,
            "round_count": self.round_count,
            "bound": self.bound,
        }


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
    sphere = cyclic_4_sphere(n)
    index = frozenset(empty_triangles(sphere))
    return FlagifyState(
        complex=sphere.complex,
        embedded=g,
        events=(),
        all_original=index,
        with_subdivision=frozenset(),
        rounds=0,
        base_n=n,
    )


def _cascade_pairs(X: SimplicialComplex, edge) -> set[frozenset[int]]:
    """Pairs on the link cycle of `edge` that would become empty-triangle
    partners of the fresh vertex: adjacent in the complex, not link-adjacent."""
    verts, link_edges = edge_link_structure(X, edge)
    pairs: set[frozenset[int]] = set()
    ordered = sorted(verts)
    for i, x in enumerate(ordered):
        nx = X.neighbors(x)
        for y in ordered[i + 1 :]:
            if y not in nx:
                continue
            pair = frozenset((x, y))
            if pair not in link_edges:
                pairs.add(pair)
    return pairs


def _in_embedded(g: Graph, a: int, b: int) -> bool:
    return a < g.n and b < g.n and g.has_edge(a, b)


class _Round:
    """Working storage for one elimination round."""

    def __init__(self, state: FlagifyState):
        self.state = state
        self.complex = state.complex
        self.all_original = set(state.all_original)
        self.with_subdivision = set(state.with_subdivision)
        self.events = list(state.events)
        self.subdivisions_this_round = 0

    def _trail(self) -> str:
        return ", ".join(f"{u}-{v}->{w}" for u, v, w in self.events[-6:])

    def subdivide(self, edge: tuple[int, int]) -> int:
        """Subdivide, update the incremental index, and enforce the local laws."""
        if self.subdivisions_this_round >= 4:
            raise InvariantViolation(
                f"repair cascade exceeds 4 subdivisions in one round; trail: {self._trail()}"
            )
        born_pairs = _cascade_pairs(self.complex, edge)
        new_complex, w = subdivide_edge(self.complex, edge)
        e = frozenset(edge)
        killed = {t for t in self.all_original if e <= t}
        killed_sub = {t for t in self.with_subdivision if e <= t}
        self.all_original -= killed
        self.with_subdivision -= killed_sub
        born = {pair | {w} for pair in born_pairs}
        if len(born) > 2:
            raise InvariantViolation(
                f"subdividing {sorted(e)} created {len(born)} empty triangles; "
                f"trail: {self._trail()}"
            )
        for t in born:
            others = t - {w}
            if not all(self.complex.is_original(x) for x in others):
                raise InvariantViolation(
                    f"new empty triangle {sorted(t)} has a non-original partner; "
                    f"trail: {self._trail()}"
                )
        self.with_subdivision |= born
        self.complex = new_complex
        u, v = sorted(e)
        self.events.append((u, v, w))
        self.subdivisions_this_round += 1
        return w

    def finish(self) -> FlagifyState:
        if self.with_subdivision:
            raise InvariantViolation(
                f"round ended with subdivision-vertex empty triangles "
                f"{sorted(sorted(t) for t in self.with_subdivision)}; trail: {self._trail()}"
            )
        return FlagifyState(
            complex=self.complex,
            embedded=self.state.embedded,
            events=tuple(self.events),
            all_original=frozenset(self.all_original),
            with_subdivision=frozenset(),
            rounds=self.state.rounds + 1,
            base_n=self.state.base_n,
        )


def eliminate_round(state: FlagifyState) -> FlagifyState:
    """Destroy one all-original empty triangle and repair the fallout.

    Selection is deterministic: the lexicographically smallest all-original
    empty triangle, then its lexicographically smallest edge outside the
    embedded graph. Repairs prefer a spoke through the fresh vertex whose
    subdivision provably creates nothing new; when no candidate is safe the
    first spoke is taken anyway, which is the four-subdivision pattern.
    """
    if state.with_subdivision:
        raise InvariantViolation("round must start with all empty triangles original")
    if not state.all_original:
        raise InvariantViolation("no empty triangle left to eliminate")
    work = _Round(state)
    g = state.embedded

    target = min(state.all_original, key=lambda t: tuple(sorted(t)))
    a, b, c = sorted(target)
    primary = next(
        (e for e in ((a, b), (a, c), (b, c)) if not _in_embedded(g, *e)),
        None,
    )
    if primary is None:
        # triangle-free embedded graphs always leave at least one free edge
        raise InvariantViolation(f"all edges of {sorted(target)} are protected")
    work.subdivide(primary)
    if target in work.all_original:
        raise InvariantViolation(f"primary triangle {sorted(target)} survived")

    while work.with_subdivision:
        t = min(work.with_subdivision, key=lambda s: tuple(sorted(s)))
        subs = [x for x in t if not work.complex.is_original(x)]
        if len(subs) != 1:
            raise InvariantViolation(
                f"indexed triangle {sorted(t)} has {len(subs)} subdivision vertices"
            )
        w = subs[0]
        o1, o2 = sorted(t - {w})
        candidates = [(w, o1), (w, o2)]
        if not _in_embedded(g, o1, o2):
            candidates.append((o1, o2))
        chosen = next(
            (f for f in candidates if not _cascade_pairs(work.complex, f)),
            candidates[0],
        )
        work.subdivide(chosen)

    return work.finish()


def audit_state(state: FlagifyState) -> bool:
    """Recompute the size-3 minimal non-faces and cross-check the index,
    the all-original invariant, and survival of every embedded edge."""
    fresh = empty_triangles_of(state.complex)
    indexed = set(state.all_original) | set(state.with_subdivision)
    if fresh != indexed:
        return False
    if state.with_subdivision:
        return False
    for t in state.all_original:
        if not all(state.complex.is_original(v) for v in t):
            return False
    return all(state.complex.has_edge(u, v) for u, v in state.embedded.edges)


def flagify(
    g: Graph,
    n: int,
    audit: bool = False,
) -> tuple[SimplicialComplex, FlagifyReport, SubdivisionTrace]:
    """Run elimination rounds to completion and return the flag 3-sphere.

    With audit=True every round is followed by a full index recomputation;
    a mismatch raises InvariantViolation instead of continuing on a corrupt
    index.
    """
    state = embed(g, n)
    max_subdivisions = 5 * math.comb(n, 2)
    while state.all_original:
        state = eliminate_round(state)
        if state.subdivision_count > max_subdivisions:
            raise InvariantViolation(
                f"total subdivisions exceeded guard {max_subdivisions}"
            )
        if audit and not audit_state(state):
            raise InvariantViolation(f"audit failed after round {state.rounds}")
    report = FlagifyReport(
        final_vertex_count=state.complex.vertex_count,
        subdivision_count=state.subdivision_count,
        round_count=state.rounds,
        bound=vertex_bound(n),
    )
    if report.final_vertex_count != n + report.subdivision_count:
        raise InvariantViolation("vertex accounting mismatch")
    if report.final_vertex_count > report.bound:
        raise InvariantViolation(
            f"vertex count {report.final_vertex_count} exceeds bound {report.bound}"
        )
    return state.complex, report, state.trace
