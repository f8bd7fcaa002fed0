"""Flagification: embedding, rounds, audits, bounds, trace replay."""

import importlib
import math
import tracemalloc

import pytest

from flagsphere import (
    Graph,
    audit_state,
    cyclic_4_sphere,
    eliminate_round,
    embed,
    flagify,
    is_flag,
    minimal_nonfaces,
    replay,
    verify_closed_3_manifold,
    vertex_bound,
)
from flagsphere.errors import (
    InvariantViolation,
    NotTriangleFree,
    TooFewPolytopeVertices,
)
from flagsphere.graphs import triangle_free_process

from conftest import events_of

# the package re-exports the function flagify under the module's name
flagify_module = importlib.import_module("flagsphere.flagify")


def _put_back_a_replaced_facet(state):
    """Leave a stale entry in a star: a facet the first subdivision u-v -> w
    replaced goes back into u's star."""
    u, v, w = events_of(state)[0]
    star = state.builder.star[u]
    stale = next(tuple(sorted(frozenset(f) - {w} | {v})) for f in star if w in f)
    assert stale not in state.builder.facets
    star.add(stale)


class TestEmbed:
    def test_c5_into_6(self):
        state = embed(Graph.cycle(5), 6)
        assert len(state.all_original) == 2

    def test_triangle_rejected(self):
        with pytest.raises(NotTriangleFree):
            embed(Graph.complete(3), 8)

    def test_too_few_polytope_vertices(self):
        with pytest.raises(TooFewPolytopeVertices):
            embed(Graph.cycle(8), 6)

    def test_edgeless_ok(self):
        state = embed(Graph.edgeless(6), 6)
        assert state.embedded.edge_count == 0

    def test_embedded_edges_present(self):
        state = embed(Graph.cycle(5), 7)
        assert all(state.builder.has_edge(u, v) for u, v in state.embedded.edges)

    def test_memory_is_not_cubic(self):
        # the sphere has O(n^2) faces but n(n-4)(n-5)/6 empty triangles
        # (280,840 at n=120); a state that held them all would peak near 20 MB
        tracemalloc.start()
        try:
            embed(Graph(1, []), 120)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000


class TestEliminateRound:
    def test_round_requires_empty_triangle(self):
        state = embed(Graph.edgeless(6), 6)
        state = eliminate_round(state)
        state = eliminate_round(state)
        assert not state.all_original
        with pytest.raises(InvariantViolation):
            eliminate_round(state)

    def test_round_makes_progress_and_audits(self):
        state = embed(Graph.cycle(5), 8)
        while state.all_original:
            count = len(state.all_original)
            subs = state.subdivision_count
            assert eliminate_round(state) is state  # advanced in place
            assert len(state.all_original) < count
            assert 1 <= state.subdivision_count - subs <= 4
            assert audit_state(state)

    def test_destroyed_primary_edges_never_return(self):
        state = embed(Graph.edgeless(8), 8)
        destroyed = []
        while state.all_original:
            before_events = state.subdivision_count
            state = eliminate_round(state)
            u, v, _ = events_of(state)[before_events]  # primary edge of the round
            destroyed.append((u, v))
            assert all(not state.builder.has_edge(a, b) for a, b in destroyed)


class TestAudit:
    def test_fresh_state_passes(self):
        assert audit_state(embed(Graph.cycle(5), 6))

    def test_corrupted_index_fails(self):
        tampered = embed(Graph.cycle(5), 8)
        tampered.target = next(tampered.rest)  # skips the live target (0, 2, 4)
        assert not audit_state(tampered)

    def test_stale_star_entry_fails(self):
        state = eliminate_round(embed(Graph.cycle(5), 8))
        assert audit_state(state)
        _put_back_a_replaced_facet(state)
        assert not audit_state(state)

    def test_stale_adjacency_fails(self):
        state = eliminate_round(embed(Graph.cycle(5), 8))
        u, v, _ = events_of(state)[0]
        state.builder.adj[u].add(v)
        assert not audit_state(state)

    def test_cursor_past_a_live_triangle_fails(self):
        # the stream loses round 3's target (0, 4, 6); rounds 1 and 2 never
        # reach it, and round 3 moves past it while it is still live
        state = embed(Graph.cycle(5), 8)
        state.rest = (t for t in state.rest if t != (0, 4, 6))
        for _ in range(2):
            assert audit_state(eliminate_round(state))
        assert not audit_state(eliminate_round(state))

    def test_corrupted_star_entry_makes_flagify_raise(self, monkeypatch):
        real_round = flagify_module.eliminate_round

        def corrupting_round(state):
            state = real_round(state)
            if state.rounds == 1:
                _put_back_a_replaced_facet(state)
            return state

        monkeypatch.setattr(flagify_module, "eliminate_round", corrupting_round)
        with pytest.raises(InvariantViolation, match="audit failed after round 1"):
            flagify(Graph.cycle(5), 8, audit=True)


class TestFlagify:
    @pytest.mark.parametrize(
        "graph,n",
        [
            (Graph.cycle(5), 6),
            (Graph.edgeless(6), 6),
            (Graph.cycle(7), 9),
        ],
    )
    def test_output_is_flag_manifold_with_subgraph(self, graph, n):
        X, report, trace = flagify(graph, n, audit=True)
        assert is_flag(X)
        assert verify_closed_3_manifold(X).passed
        assert all(X.has_edge(u, v) for u, v in graph.edges)
        assert report.final_vertex_count <= vertex_bound(n)
        assert report.round_count <= math.comb(n, 2)
        assert report.subdivision_count <= 4 * math.comb(n, 2)

    def test_no_size_three_plus_nonfaces(self):
        X, _, _ = flagify(Graph.cycle(5), 6)
        assert all(len(f) == 2 for f in minimal_nonfaces(X, 5))

    def test_trace_replays_to_same_complex(self):
        X, _, trace = flagify(Graph.cycle(5), 7)
        base = cyclic_4_sphere(7)
        assert replay(base, trace) == X

    def test_deterministic(self):
        a = flagify(Graph.cycle(5), 7)
        b = flagify(Graph.cycle(5), 7)
        assert a[0] == b[0]
        assert a[2] == b[2]

    @pytest.mark.parametrize("seed", (1, 2, 3))
    def test_process_graphs(self, seed):
        g = triangle_free_process(10, seed)
        X, report, _ = flagify(g, 10, audit=True)
        assert is_flag(X)
        assert all(X.has_edge(u, v) for u, v in g.edges)
        assert report.final_vertex_count <= vertex_bound(10)

    def test_original_adjacency_contains_graph(self):
        g = triangle_free_process(9, 4)
        X, _, _ = flagify(g, 9)
        for u, v in g.edges:
            assert X.has_edge(u, v)
            assert X.is_original(u) and X.is_original(v)

    def test_path_with_two_protected_edges_in_one_triangle(self):
        # 1-indexed positions 1,3,5 form an empty triangle of the n=6 sphere;
        # a path through them protects two of its three edges
        g = Graph(5, [(0, 2), (2, 4)])
        X, _, _ = flagify(g, 6, audit=True)
        assert is_flag(X)
        assert X.has_edge(0, 2) and X.has_edge(2, 4)


class TestRepairPatterns:
    def test_four_cycle_link_with_free_diagonals(self):
        # protecting (0,2) and (2,4) forces the first round onto edge (0,4),
        # whose link in the n=8 sphere is a 4-cycle of originals with both
        # diagonals present; a safe diagonal subdivision shortens the repair
        g = Graph(5, [(0, 2), (2, 4)])
        state = embed(g, 8)
        state = eliminate_round(state)
        assert 2 <= state.subdivision_count <= 4
        assert audit_state(state)

    def test_four_subdivision_pattern_when_diagonals_protected(self):
        # same forced edge, but the link diagonals {1,7} and {3,5} belong to
        # the embedded graph, so both repairs must go through the fresh
        # vertex's spokes: the full four-subdivision round
        g = Graph(8, [(0, 2), (2, 4), (1, 7), (3, 5)])
        state = embed(g, 8)
        state = eliminate_round(state)
        assert state.subdivision_count == 4
        assert audit_state(state)
        # finish the run: protected edges survive to the flag complex
        X, report, _ = flagify(g, 8, audit=True)
        assert is_flag(X)
        assert all(X.has_edge(u, v) for u, v in g.edges)
