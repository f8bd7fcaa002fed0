"""Graph generators and exact solvers against brute-force oracles."""

import itertools
import random

import pytest

from flagsphere import (
    Graph,
    chromatic_number_exact,
    greedy_independent_set,
    grotzsch_graph,
    is_triangle_free,
    max_independent_set_exact,
    mycielskian,
    triangle_free_process,
)
from flagsphere.errors import SolverTimeout, TooLarge
from flagsphere.graphs import MAX_VERTICES, cliques

from conftest import (
    brute_chromatic,
    brute_max_independent_set,
    is_independent_set,
    is_maximal_independent_set,
    is_proper_coloring,
    rows_of,
)


def test_vertex_count_over_the_cap_is_refused():
    with pytest.raises(TooLarge):
        Graph(MAX_VERTICES + 1, [])


def random_graph(n: int, p: float, seed: int) -> Graph:
    rng = random.Random(seed)
    edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
    return Graph(n, edges)


class TestMycielskian:
    def test_single_edge_gives_five_cycle(self):
        c = mycielskian(Graph.single_edge())
        assert c.n == 5 and c.edge_count == 5
        assert all(c.degree(v) == 2 for v in range(5))
        assert chromatic_number_exact(c).chi == 3

    def test_grotzsch(self):
        g = grotzsch_graph()
        assert g.n == 11
        assert is_triangle_free(g)
        assert chromatic_number_exact(g).chi == 4
        assert chromatic_number_exact(g).chi == brute_chromatic(g)

    def test_m5(self, m5):
        assert m5.n == 23
        assert is_triangle_free(m5)
        assert chromatic_number_exact(m5).chi == 5

    @pytest.mark.parametrize("seed", range(4))
    def test_preserves_triangle_freeness(self, seed):
        g = triangle_free_process(9, seed)
        assert is_triangle_free(mycielskian(g))

    def test_increments_chromatic_number(self):
        g = Graph.cycle(5)
        for _ in range(2):
            chi = chromatic_number_exact(g).chi
            g = mycielskian(g)
            assert chromatic_number_exact(g).chi == chi + 1


class TestTriangleFreeProcess:
    def test_tiny_cases(self):
        assert triangle_free_process(2, 0).edge_count == 1
        g3 = triangle_free_process(3, 5)
        assert g3.edge_count == 2  # any third edge closes a triangle

    @pytest.mark.parametrize("seed", (1, 2, 3))
    def test_triangle_free_and_maximal(self, seed):
        g = triangle_free_process(50, seed)
        assert is_triangle_free(g)
        for u, v in itertools.combinations(range(g.n), 2):
            if not g.has_edge(u, v):
                assert g.neighbors(u) & g.neighbors(v), (u, v)

    def test_deterministic(self):
        assert triangle_free_process(30, 7) == triangle_free_process(30, 7)
        assert triangle_free_process(50, 2026).edge_count == 291  # pinned


class TestChromaticExact:
    def test_named_graphs(self):
        assert chromatic_number_exact(Graph.cycle(5)).chi == 3
        assert chromatic_number_exact(Graph.complete(4)).chi == 4
        assert chromatic_number_exact(Graph.edgeless(6)).chi == 1

    def test_witness_is_proper(self):
        for g in (Graph.cycle(7), grotzsch_graph(), Graph.complete(5)):
            res = chromatic_number_exact(g)
            assert is_proper_coloring(g, res.coloring)
            assert res.coloring.color_count == res.chi

    @pytest.mark.parametrize("seed", range(12))
    def test_against_bruteforce_random(self, seed):
        n = 4 + seed % 5
        g = random_graph(n, 0.45, seed)
        assert chromatic_number_exact(g).chi == brute_chromatic(g)

    def test_limit_exceedance(self):
        res = chromatic_number_exact(Graph.complete(5), limit=4)
        assert res.exceeded_limit and res.chi is None

    def test_limit_not_exceeded_returns_exact(self):
        res = chromatic_number_exact(Graph.cycle(5), limit=4)
        assert res.chi == 3 and not res.exceeded_limit

    def test_budget_exhaustion_raises(self, m5):
        with pytest.raises(SolverTimeout):
            chromatic_number_exact(m5, limit=4, node_budget=10)

    def test_search_depth_has_no_recursion_limit(self):
        # each colored vertex is one level of the search: 3,000 levels deep
        path = Graph(3000, [(i, i + 1) for i in range(2999)])
        res = chromatic_number_exact(path)
        assert (res.chi, res.nodes) == (2, 3001)
        assert is_proper_coloring(path, res.coloring)


class TestIndependentSets:
    def test_named_graphs(self):
        assert len(max_independent_set_exact(Graph.cycle(5))) == 2
        assert len(max_independent_set_exact(Graph.complete(5))) == 1
        for n in (4, 5, 8, 9):
            assert len(max_independent_set_exact(Graph.cycle(n))) == n // 2

    def test_result_is_independent(self):
        for seed in range(5):
            g = random_graph(12, 0.3, seed)
            s = max_independent_set_exact(g)
            assert is_independent_set(g, s)

    @pytest.mark.parametrize("seed", range(8))
    def test_against_bruteforce_random(self, seed):
        g = random_graph(10, 0.35, 100 + seed)
        assert len(max_independent_set_exact(g)) == brute_max_independent_set(g)

    def test_greedy_maximal(self):
        assert len(greedy_independent_set(rows_of(Graph.complete(5)), 3)) == 1
        assert len(greedy_independent_set(rows_of(Graph.edgeless(7)), 3)) == 7
        s = greedy_independent_set(rows_of(Graph.cycle(6)), 9)
        assert len(s) >= 2
        assert is_maximal_independent_set(Graph.cycle(6), s)

    @pytest.mark.parametrize("seed", range(5))
    def test_greedy_maximal_random(self, seed):
        g = random_graph(25, 0.2, 50 + seed)
        assert is_maximal_independent_set(g, greedy_independent_set(rows_of(g), seed))

    def test_greedy_deterministic(self):
        g = random_graph(30, 0.2, 1)
        assert greedy_independent_set(rows_of(g), 4) == greedy_independent_set(rows_of(g), 4)


class TestGraphBasics:
    def test_rejects_loops_and_range(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 0)])
        with pytest.raises(ValueError):
            Graph(3, [(0, 3)])

    def test_triangle_scan(self):
        assert is_triangle_free(Graph.cycle(5))
        assert not is_triangle_free(Graph.complete(3))

    def test_cliques_extend_by_common_neighbours_only(self):
        # K4 minus the edge 1-3: 3 is a larger neighbour of 0 and 2 but not of 1,
        # so (0, 1, 2) must not grow into (0, 1, 2, 3)
        g = Graph(4, [(0, 1), (0, 2), (1, 2), (0, 3), (2, 3)])
        assert sorted(cliques(rows_of(g), 4)) == [(0, 1, 2), (0, 2, 3)]
        assert sorted(cliques(rows_of(Graph.complete(5)), 4)) == sorted(
            c for k in (3, 4) for c in itertools.combinations(range(5), k)
        )
