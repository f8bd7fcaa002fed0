"""Coloring: dimension constants, planar colorings, peeling, certificates."""

import math

import pytest

from flagsphere import (
    Graph,
    PeelParams,
    certify_lower_bound,
    chromatic_number_exact,
    cyclic_4_sphere,
    five_color_planar,
    flagify,
    greedy_degeneracy_color,
    grotzsch_graph,
    measure_alpha,
    mycielskian,
    peel_color_3,
    triangle_free_process,
)
from flagsphere import coloring
from flagsphere.errors import (
    BadDimension,
    CertificationFailed,
    NotFlag,
    NotManifold,
    NotPlanar,
    PlanarStrategyFailure,
    SubgraphMissing,
)

from conftest import (
    PROCESS_CASES,
    cd_constant,
    check_proper_on_complex,
    icosahedron_graph,
    is_planar,
    is_proper_coloring,
    max_degree,
    palette_term,
    peel_color_bound,
    sixteen_cell,
    simplex_boundary,
)


class TestCdConstant:
    def test_base_case(self):
        assert cd_constant(3) == 4.0

    def test_d4_closed_form(self):
        expected = 2 ** (2 / 3) + 4 * 2 ** (-1 / 3)
        assert abs(cd_constant(4) - expected) <= 1e-12 * expected

    def test_d5_closed_form(self):
        # one more recursion step collapses to 4*sqrt(2)
        expected = 4 * math.sqrt(2)
        assert abs(cd_constant(5) - expected) <= 1e-12 * expected

    def test_monotone_to_ten(self):
        t = {d: cd_constant(d) for d in range(3, 11)}
        assert all(t[d] < t[d + 1] for d in range(3, 10))

    def test_bad_dimension(self):
        with pytest.raises(BadDimension):
            cd_constant(2)


class TestPaletteTerm:
    @pytest.mark.parametrize("p", (4, 5))
    def test_argmin_at_sqrt_p(self, p):
        best = palette_term(p, math.sqrt(p))
        xs = [0.25 + 0.05 * i for i in range(120)]
        assert all(palette_term(p, x) >= best - 1e-12 for x in xs)

    def test_four_palette_minimum(self):
        assert palette_term(4, 2.0) == 4.0  # 4*sqrt(n) total at x=2


class TestFiveColor:
    def test_k4(self):
        g = Graph.complete(4)
        assert is_planar(g)
        col = five_color_planar(g)
        assert is_proper_coloring(g, col)
        assert col.color_count == 4

    def test_icosahedron(self):
        g = icosahedron_graph()
        assert is_planar(g)
        col = five_color_planar(g)
        assert is_proper_coloring(g, col)
        assert col.color_count <= 5

    def test_empty_graph(self):
        assert five_color_planar(Graph.edgeless(0)).color_count == 0
        assert five_color_planar(Graph.edgeless(3)).color_count == 1

    def test_k5_uses_five(self):
        g = Graph.complete(5)
        col = five_color_planar(g)  # not planar, but still 5-colorable
        assert is_proper_coloring(g, col) and col.color_count == 5

    def test_k5_rejected_by_the_planarity_oracle(self):
        assert not is_planar(Graph.complete(5))

    def test_kempe_swap_resolves_a_full_palette(self, monkeypatch):
        """The smallest-last order never leaves a vertex with five colored
        neighbors in five colors, so force one: on networkx's icosahedron, this
        removal order gets first-free 5-coloring stuck."""
        import networkx as nx

        g = Graph(12, list(nx.icosahedral_graph().edges()))
        order = [9, 1, 10, 6, 7, 3, 5, 0, 8, 4, 2, 11]
        first_free: dict[int, int] = {}
        for v in reversed(order):
            used = {first_free[u] for u in g.neighbors(v) if u in first_free}
            free = [c for c in range(5) if c not in used]
            if not free:
                break
            first_free[v] = free[0]
        assert len(first_free) < g.n  # first-free fails, so the swap must run
        monkeypatch.setattr(coloring, "smallest_last_order", lambda _: [(5, v) for v in order])
        col = five_color_planar(g)
        assert is_proper_coloring(g, col)
        assert col.color_count <= 5

    def test_k6_fails_loudly(self):
        with pytest.raises(NotPlanar):
            five_color_planar(Graph.complete(6))
        # K7 is refused before any coloring, by its minimum degree
        with pytest.raises(NotPlanar, match="minimum degree 6 exceeds 5"):
            five_color_planar(Graph.complete(7))


class TestGreedyDegeneracy:
    def test_cases(self):
        assert greedy_degeneracy_color(Graph.cycle(5)).color_count <= 3
        assert greedy_degeneracy_color(Graph.complete(5)).color_count == 5
        star = Graph(10, [(0, i) for i in range(1, 10)])
        assert greedy_degeneracy_color(star).color_count == 2

    def test_bounded_by_max_degree_plus_one(self):
        import random as _r

        rng = _r.Random(5)
        import itertools as _it

        edges = [e for e in _it.combinations(range(18), 2) if rng.random() < 0.25]
        g = Graph(18, edges)
        col = greedy_degeneracy_color(g)
        assert is_proper_coloring(g, col)
        assert col.color_count <= max_degree(g) + 1


def _peel_recording_patches(X, params):
    """peel_color_3 with every neighborhood graph it colors recorded."""
    patches = []
    inner = coloring._color_planar_patch

    def record(g, params):
        patches.append(g)
        return inner(g, params)

    coloring._color_planar_patch = record
    try:
        return peel_color_3(X, params), patches
    finally:
        coloring._color_planar_patch = inner


_M5 = mycielskian(grotzsch_graph())
# spheres whose default peel colors several patches
PATCH_CASES = [("M5", _M5, 23), ("M6", mycielskian(_M5), 47)] + [
    (f"process-{n}-{seed}", triangle_free_process(n, seed), n) for n, seed in PROCESS_CASES[-3:]
]


class TestPeel:
    def test_params_validated(self):
        with pytest.raises(ValueError):
            PeelParams(x=0.0)
        with pytest.raises(ValueError):
            PeelParams(x=float("nan"))  # would never peel a vertex
        with pytest.raises(ValueError):
            PeelParams(x=float("inf"))  # an infinite color bound
        with pytest.raises(ValueError):
            PeelParams(exact4_cap=-5)  # would act as a cap of 0

    def test_sixteen_cell(self):
        X = sixteen_cell()
        col = peel_color_3(X)
        assert check_proper_on_complex(X, col)
        assert col.color_count <= peel_color_bound(5, math.sqrt(5), 8)
        assert col.color_count == 4  # complete 4-partite skeleton

    def test_flagified_c5(self):
        X, _, _ = flagify(Graph.cycle(5), 6)
        col = peel_color_3(X)
        assert check_proper_on_complex(X, col)
        n = X.vertex_count
        assert col.color_count <= peel_color_bound(5, math.sqrt(5), n)

    def test_not_flag_rejected(self):
        with pytest.raises(NotFlag):
            peel_color_3(cyclic_4_sphere(6))

    def test_not_manifold_rejected(self):
        sq1 = [(0, 1), (1, 2), (2, 3), (3, 0)]
        sq2 = [(4, 5), (5, 6), (6, 7), (7, 4)]
        facets = [set(a) | set(b) for a in sq1 for b in sq2]
        shifted = [{v + 8 for v in f} for f in facets]
        from flagsphere import build_from_facets

        disconnected = build_from_facets(facets + shifted)
        with pytest.raises(NotManifold):
            peel_color_3(disconnected)

    def test_strict_exact4_cap_failure(self, grotzsch):
        X, _, _ = flagify(grotzsch, 11)
        params = PeelParams(x=1.0, exact4_cap=0, allow_fallback=False)
        with pytest.raises(PlanarStrategyFailure):
            peel_color_3(X, params)

    def test_vertex_at_the_threshold_is_not_peeled(self, grotzsch):
        # x·√n equals the largest degree in floats: that vertex stays in the
        # residual, and a threshold one float lower peels it
        X, _, _ = flagify(grotzsch, 11)
        n = X.vertex_count
        top = max(len(X.neighbors(v)) for v in X.vertices)
        x = top / math.sqrt(n)
        assert x * math.sqrt(n) == top
        assert _peel_recording_patches(X, PeelParams(x=x))[1] == []
        assert _peel_recording_patches(X, PeelParams(x=math.nextafter(x, 0)))[1]

    def test_exact4_timeout_falls_back_to_five_colors(self, monkeypatch):
        # every patch of the M5 sphere is 4-colored exactly under the default
        # budget; a budget of one node times each search out
        X, _, _ = flagify(_M5, 23)
        monkeypatch.setattr(coloring, "EXACT4_NODE_BUDGET", 1)
        col = peel_color_3(X)
        assert check_proper_on_complex(X, col)
        assert col.color_count <= peel_color_bound(5, math.sqrt(5), X.vertex_count)
        with pytest.raises(PlanarStrategyFailure):
            peel_color_3(X, PeelParams(allow_fallback=False))

    def test_strategies_all_proper(self, grotzsch):
        X, _, _ = flagify(grotzsch, 11)
        n = X.vertex_count
        # cap 0 skips the exact 4-coloring, so every patch takes the 5-coloring
        for cap, p in ((64, 4), (0, 5)):
            params = PeelParams(x=2.0, exact4_cap=cap)
            col, patches = _peel_recording_patches(X, params)
            assert check_proper_on_complex(X, col)
            assert col.color_count <= peel_color_bound(p, 2.0, n)
            assert patches and all(is_planar(g) for g in patches)

    @pytest.mark.parametrize(
        "g,n", [case[1:] for case in PATCH_CASES], ids=[case[0] for case in PATCH_CASES]
    )
    def test_peeled_patches_are_planar(self, g, n):
        """In a flag 3-sphere a patch is an induced subgraph of a vertex link's
        1-skeleton, a triangulated 2-sphere, so it must be planar."""
        X, _, _ = flagify(g, n)
        col, patches = _peel_recording_patches(X, PeelParams())
        assert check_proper_on_complex(X, col)
        assert patches and all(is_planar(p) for p in patches)


class TestCertify:
    def test_grotzsch_four(self, grotzsch):
        X, _, _ = flagify(grotzsch, 11)
        report = certify_lower_bound(X, grotzsch, 4)
        assert report["certified"] and report["witness_type"] == "exceedance"
        # an independent rerun of the (k-1)-colorability search
        assert chromatic_number_exact(grotzsch, limit=report["k"] - 1).exceeded_limit

    def test_trivial_k2(self):
        X, _, _ = flagify(Graph.cycle(5), 6)
        assert certify_lower_bound(X, Graph.cycle(5), 2)["certified"]

    def test_subgraph_missing(self):
        X = sixteen_cell()
        with pytest.raises(SubgraphMissing):
            certify_lower_bound(X, Graph(3, [(0, 2)]), 2)  # antipodal non-edge

    def test_subgraph_missing_names_the_lexicographically_first_edge(self):
        g = Graph(8, [(5, 7), (4, 6), (1, 3)])  # three antipodal non-edges
        with pytest.raises(SubgraphMissing, match=r"edge \(1, 3\)"):
            certify_lower_bound(sixteen_cell(), g, 2)

    def test_certification_failed_when_colorable(self):
        X, _, _ = flagify(Graph.cycle(5), 6)
        with pytest.raises(CertificationFailed):
            certify_lower_bound(X, Graph.cycle(5), 4)  # chi(C5)=3


class TestMeasureAlpha:
    def test_simplex_boundary(self):
        rep = measure_alpha(simplex_boundary(), seed=1)
        assert rep["alpha_exact"] == 1 and rep["alpha_lower"] == 1
        assert rep["conjecture_value"] == 1

    def test_sixteen_cell(self):
        rep = measure_alpha(sixteen_cell(), seed=3)
        assert rep["alpha_exact"] == 2
        assert rep["conjecture_value"] == 2
        assert rep["alpha_exact"] >= rep["alpha_lower"] or rep["alpha_lower"] <= 2

    def test_exact_skipped_on_large(self):
        # the cyclic sphere's 1-skeleton is complete: alpha is 1 up to the limit
        assert coloring.EXACT_ALPHA_LIMIT == 60
        assert measure_alpha(cyclic_4_sphere(60), seed=1)["alpha_exact"] == 1
        assert measure_alpha(cyclic_4_sphere(61), seed=1)["alpha_exact"] is None

    def test_skeleton_graph_roundtrip(self):
        X = sixteen_cell()
        g, verts = Graph.induced(X.neighbors, X.vertices)
        assert g.n == 8 and verts == list(range(8))
        assert g.edge_count == len(X.edges())


def test_certified_lower_at_most_peel_upper(grotzsch):
    X, _, _ = flagify(grotzsch, 11)
    upper = peel_color_3(X).color_count
    report = certify_lower_bound(X, grotzsch, 4)
    assert report["k"] <= upper
