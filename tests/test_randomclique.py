"""Random clique complexes: sampling determinism, links, pruning, reports."""

import hashlib
import itertools
import json
import math
import tracemalloc
from collections import Counter, deque

import pytest

from flagsphere import (
    Graph,
    RandomCliqueParams,
    TruncatedCliqueComplex,
    forest_link_fraction,
    prune_bad_links,
    randomclique,
    run_experiment,
    sample_clique_complex,
)
from flagsphere.errors import BadDimension, InvalidAlpha, TooLarge, TooSmall
from flagsphere.randomclique import clique_census, independence_bound_report

from conftest import expected_forest_fraction, forest_counts, prune_bad_links_fixpoint, rows_of

# (n, alpha, d, seed): SHA-256 of json.dumps(run_experiment(...), sort_keys=True,
# indent=2), computed with the prune loop that repeated whole passes to a
# fixpoint and re-tested every link in each of them. n=200 at d=4 removes
# 5 vertices. Never regenerate them to make a change pass.
GOLDEN_REPORTS = {
    (300, 0.55, 3, 1): "d06006ab2b1c33e9b59870bb389a0ff59c5d23e7573184761747a5fee5b7e675",
    (300, 0.55, 3, 2): "7d4e4f317b25a27548f0ea3a0625e096d728f8b86dbafb6cb223fa576cbb39a0",
    (300, 0.55, 3, 3): "99c755b0b92e1fc98e934eae9eb4bb68aa586e81d225d4e9bd749bb96cb86714",
    (200, 0.45, 4, 2): "db67bc2ba6503714beb387afafce4384438bc6caa7c6ecd5491174b5d41a41d8",
}


def is_forest_by_bfs(vertices, adjacent) -> bool:
    """A graph is a forest iff #edges = #vertices - #components (BFS count)."""
    vertices = set(vertices)
    edges = sum(1 for u, w in itertools.combinations(vertices, 2) if adjacent(u, w))
    components = 0
    unseen = set(vertices)
    while unseen:
        components += 1
        queue = deque([unseen.pop()])
        while queue:
            u = queue.popleft()
            found = {w for w in unseen if adjacent(u, w)}
            unseen -= found
            queue.extend(found)
    return edges == len(vertices) - components


class TestParams:
    def test_valid_band_for_d3(self):
        RandomCliqueParams(n=10, alpha=0.55, d=3, seed=1)
        RandomCliqueParams(n=10, alpha=0.99, d=3, seed=1)

    @pytest.mark.parametrize("alpha", (0.5, 1.0, 0.3, 1.7))
    def test_invalid_alpha_d3(self, alpha):
        with pytest.raises(InvalidAlpha):
            RandomCliqueParams(n=10, alpha=alpha, d=3, seed=1)

    def test_d4_band(self):
        RandomCliqueParams(n=10, alpha=0.4, d=4, seed=1)
        with pytest.raises(InvalidAlpha):
            RandomCliqueParams(n=10, alpha=0.6, d=4, seed=1)

    @pytest.mark.parametrize("n", (0, -3))
    def test_no_vertices_too_small(self, n):
        with pytest.raises(TooSmall):
            RandomCliqueParams(n=n, alpha=0.55, d=3, seed=1)

    @pytest.mark.parametrize("d", (2, 0))
    def test_dimension_below_three(self, d):
        with pytest.raises(BadDimension):
            RandomCliqueParams(n=10, alpha=0.55, d=d, seed=1)

    @pytest.mark.parametrize("field,value", [("n", 50.0), ("n", True), ("d", 3.0)])
    def test_non_integer_size_is_refused(self, field, value):
        with pytest.raises(TypeError, match=f"^{field} must be an int"):
            RandomCliqueParams(**(dict(n=50, alpha=0.55, d=3, seed=1) | {field: value}))

    @pytest.mark.parametrize("n", (10**30, 1e30, 10**7, 500_000))
    def test_oversized_input_is_refused(self, n):
        # 10**7 is over the vertex cap; 500,000 is over the expected-edge cap only
        with pytest.raises(TooLarge):
            RandomCliqueParams(n=n, alpha=0.55, d=3, seed=1)


class TestSampling:
    @pytest.mark.parametrize("n,seed", [(10, 1), (13, 2), (15, 3)])
    def test_faces_match_bruteforce_cliques(self, n, seed):
        params = RandomCliqueParams(n=n, alpha=0.55, d=3, seed=seed)
        g, cc = sample_clique_complex(params)
        for size in range(1, 5):
            brute = {
                frozenset(c)
                for c in itertools.combinations(range(n), size)
                if all(g.has_edge(a, b) for a, b in itertools.combinations(c, 2))
            }
            assert {frozenset(f) for f in cc.faces(size)} == brute

    def test_deterministic(self):
        params = RandomCliqueParams(n=40, alpha=0.55, d=3, seed=9)
        g1, _ = sample_clique_complex(params)
        g2, _ = sample_clique_complex(params)
        assert g1 == g2

    def test_truncation(self):
        cc = TruncatedCliqueComplex(Graph.complete(6), 3)
        assert max(cc.faces_by_size) == 4  # cliques capped at d+1 vertices

    def test_census_counts_isolated_vertices_and_edges_from_the_graph(self):
        # sizes 1 and 2 are read from n and the edge count, not from the clique walk
        assert clique_census(rows_of(Graph(5, [(0, 1)])), 3)[0] == {1: 5, 2: 1}


class TestForestLinks:
    def test_edgeless_all_forests(self):
        assert forest_link_fraction(TruncatedCliqueComplex(Graph.edgeless(5), 3)) == 1.0

    def test_k5_truncated_all_cyclic(self):
        cc = TruncatedCliqueComplex(Graph.complete(5), 3)
        assert forest_link_fraction(cc) == 0.0

    def test_d4_uses_edge_links(self):
        cc = TruncatedCliqueComplex(Graph.complete(6), 4)
        assert forest_link_fraction(cc) == 0.0  # edge links contain K4

    @pytest.mark.parametrize("seed", (1, 2, 3))
    def test_matches_bfs_count_on_samples(self, seed):
        params = RandomCliqueParams(n=300, alpha=0.55, d=3, seed=seed)
        g, cc = sample_clique_complex(params)
        good = sum(
            1 for v in range(g.n) if is_forest_by_bfs(g.neighbors(v), g.has_edge)
        )
        assert good < g.n  # some link has a cycle, so the check has teeth
        assert forest_link_fraction(cc) == good / g.n


class TestForestOracle:
    """The exact model of 7a/7b against every graph on up to six vertices."""

    @staticmethod
    def all_graphs(n):
        """Every graph on range(n), as (edge count, adjacency test)."""
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            edges = {pair for i, pair in enumerate(pairs) if mask >> i & 1}
            yield len(edges), lambda u, w, e=edges: (min(u, w), max(u, w)) in e

    @pytest.mark.parametrize("m", range(7))
    def test_forest_counts_match_enumeration(self, m):
        counts = [0] * max(m, 1)
        for edge_count, adjacent in self.all_graphs(m):
            if is_forest_by_bfs(range(m), adjacent):
                counts[edge_count] += 1
        assert forest_counts(m) == tuple(counts)
        if m:
            assert forest_counts(m)[-1] == m ** max(m - 2, 0)  # Cayley

    @pytest.mark.parametrize("alpha", (0.55, 0.8))
    @pytest.mark.parametrize("n", range(1, 7))
    def test_expected_fraction_matches_enumeration(self, n, alpha):
        p = n ** (-alpha)
        pairs = n * (n - 1) // 2
        expected = 0.0
        for edge_count, adjacent in self.all_graphs(n):
            good = sum(
                1
                for v in range(n)
                if is_forest_by_bfs([u for u in range(n) if adjacent(u, v)], adjacent)
            )
            weight = p**edge_count * (1 - p) ** (pairs - edge_count)
            expected += weight * good / n
        assert math.isclose(expected_forest_fraction(n, alpha), expected, abs_tol=1e-12)


class TestPrune:
    def test_forest_complex_unchanged(self):
        g = Graph(6, [(0, 1), (1, 2), (3, 4)])
        cc = TruncatedCliqueComplex(g, 3)
        pruned, removed = prune_bad_links(cc)
        assert removed == 0 and pruned.graph.n == 6

    def test_k5_removed_entirely(self):
        pruned, removed = prune_bad_links(TruncatedCliqueComplex(Graph.complete(5), 3))
        assert removed == 5 and pruned.graph.n == 0

    @pytest.mark.parametrize("key", sorted(GOLDEN_REPORTS))
    def test_one_pass_equals_the_fixpoint(self, key):
        n, alpha, d, seed = key
        _, cc = sample_clique_complex(RandomCliqueParams(n=n, alpha=alpha, d=d, seed=seed))
        pruned, removed = prune_bad_links(cc)
        oracle, oracle_removed = prune_bad_links_fixpoint(cc)
        assert removed == oracle_removed > 0
        assert pruned.graph == oracle.graph

    @pytest.mark.parametrize("seed", (1, 2))
    def test_sampled_postcondition(self, seed):
        params = RandomCliqueParams(n=500, alpha=0.55, d=3, seed=seed)
        _, cc = sample_clique_complex(params)
        pruned, removed = prune_bad_links(cc)
        assert forest_link_fraction(pruned) == 1.0
        assert removed >= 0


class TestIndependenceReport:
    def test_edgeless_degenerate(self):
        params = RandomCliqueParams(n=5, alpha=0.55, d=3, seed=1)
        rep = independence_bound_report(rows_of(Graph.edgeless(5)), params)
        assert rep["degenerate"]

    def test_complete_graph(self):
        params = RandomCliqueParams(n=30, alpha=0.55, d=3, seed=1)
        rep = independence_bound_report(rows_of(Graph.complete(30)), params)
        assert rep["exact_alpha"] == 1

    def test_pinned_n300_regression(self):
        # exact search is out of reach at this size (solver budget blows);
        # the greedy ratio is the pinned regression value
        params = RandomCliqueParams(n=300, alpha=0.55, d=3, seed=1)
        g, _ = sample_clique_complex(params)
        assert g.edge_count == 1944
        rep = independence_bound_report(rows_of(g), params)
        assert rep["exact_alpha"] is None
        assert rep["greedy_alpha"] == 62
        assert abs(rep["ratio"] - 0.4718587848) < 1e-9


class TestExperiment:
    def test_report_fields_and_determinism(self):
        params = RandomCliqueParams(n=80, alpha=0.55, d=3, seed=2)
        rep1 = run_experiment(params)
        rep2 = run_experiment(params)
        assert rep1 == rep2
        for key in (
            "forest_fraction",
            "removed",
            "greedy_alpha",
            "exact_alpha",
            "reference_curve",
        ):
            assert key in rep1
        assert 0.0 <= rep1["forest_fraction"] <= 1.0

    @pytest.mark.parametrize("key", sorted(GOLDEN_REPORTS))
    def test_golden_report_bytes(self, key):
        n, alpha, d, seed = key
        report = run_experiment(RandomCliqueParams(n=n, alpha=alpha, d=d, seed=seed))
        text = json.dumps(report, sort_keys=True, indent=2)
        assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_REPORTS[key]

    @pytest.mark.parametrize("key", [(300, 0.55, 3, 1), (200, 0.45, 4, 2)])
    def test_one_clique_pass_and_no_complex(self, key, monkeypatch):
        calls = Counter()

        def counting(name):
            original = getattr(randomclique, name)

            def wrapped(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(randomclique, name, wrapped)

        for name in ("TruncatedCliqueComplex", "_link_graph_acyclic", "cliques"):
            counting(name)
        report = run_experiment(RandomCliqueParams(*key))
        assert report["removed"] > 0  # some link has a cycle
        assert calls["TruncatedCliqueComplex"] == calls["_link_graph_acyclic"] == 0
        assert calls["cliques"] == 1

    def test_sample_and_census_stay_compact(self):
        # forward rows of shared ints and one set per walked vertex; an edge
        # list plus a Graph of adjacency sets peaked at about 7 MB on this input
        tracemalloc.start()
        try:
            run_experiment(RandomCliqueParams(2000, 0.55, 3, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3_000_000
