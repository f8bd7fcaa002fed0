"""Core data model: construction, faces, links, non-faces, subdivision."""

import itertools
import random
import time

import pytest

from flagsphere import (
    OriginalTag,
    SubdivisionTag,
    build_from_facets,
    cyclic_4_sphere,
    f_vector,
    is_flag,
    minimal_nonfaces,
    replay,
    subdivide_edge,
    verify_closed_3_manifold,
)
from flagsphere.errors import (
    DominatedFacet,
    EmptyInput,
    NonPure,
    NotAnEdge,
    RepeatedVertex,
    UnknownVertex,
    WrongDimension,
)

from conftest import (
    capped_triangle_sphere,
    face_sets,
    is_face,
    link,
    minimal_nonfaces_bruteforce,
    octahedron_boundary,
    simplex_boundary,
    triangle_boundary,
)


class TestBuild:
    def test_simplex_boundary(self):
        bd = simplex_boundary()
        assert f_vector(bd).counts == (5, 10, 10, 5)
        assert f_vector(bd).euler == 0

    def test_triangle_boundary(self):
        tri = triangle_boundary()
        assert f_vector(tri).counts == (3, 3)
        assert f_vector(tri).euler == 0

    def test_dominated_facet(self):
        with pytest.raises(DominatedFacet):
            build_from_facets([(0, 1, 2), (0, 1, 2, 3)])

    def test_duplicate_facet(self):
        with pytest.raises(DominatedFacet):
            build_from_facets([(0, 1, 2), (2, 1, 0)])

    def test_outside_facets_are_sorted_once(self):
        X = build_from_facets([[3, 1, 2], (2, 0, 3), {0, 1, 3}, iter([2, 1, 0])])
        assert X.facets == frozenset({(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)})
        with pytest.raises(DominatedFacet, match="duplicate"):
            build_from_facets([[3, 1, 2, 0], [0, 1, 2, 3]])

    def test_non_pure(self):
        with pytest.raises(NonPure):
            build_from_facets([(0, 1), (2, 3, 4)])

    def test_one_stray_facet_is_found_without_a_pairwise_scan(self):
        # 7,020 facets plus a stray triangle: comparing every pair took seconds
        facets = sorted(cyclic_4_sphere(120).facets) + [(0, 2, 10**6)]
        start = time.perf_counter()
        with pytest.raises(NonPure):
            build_from_facets(facets)
        assert time.perf_counter() - start < 1.0

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            build_from_facets([])

    def test_facet_with_a_repeated_vertex(self):
        with pytest.raises(RepeatedVertex, match="repeats a vertex"):
            build_from_facets([[0, 0, 1, 2, 3], [1, 2, 3, 4]])
        with pytest.raises(RepeatedVertex):
            build_from_facets([(0, 1, 2), (2, 3, 3)])

    def test_tags_missing_a_vertex(self):
        tags = {v: OriginalTag() for v in range(4)}
        with pytest.raises(UnknownVertex, match=r"miss vertices \[4\]"):
            build_from_facets([(0, 1, 2, 3), (1, 2, 3, 4)], tags)

    def test_tag_for_a_vertex_in_no_facet(self):
        tags = {v: OriginalTag() for v in (0, 1, 2, 3, 9)}
        with pytest.raises(UnknownVertex, match=r"non-vertices \[9\]"):
            build_from_facets([(0, 1, 2, 3)], tags)

    def test_adjacency_matches_facet_cover(self):
        oct_ = octahedron_boundary()
        for u, v in itertools.combinations(oct_.vertices, 2):
            covered = any({u, v} <= frozenset(f) for f in oct_.facets)
            assert oct_.has_edge(u, v) == covered

    def test_default_tags_are_original_positions(self):
        tri = triangle_boundary()
        assert tri.tags == {v: OriginalTag() for v in tri.vertices}

    @pytest.mark.parametrize(
        "parent_edge",
        [(2, 1), (1, 1), (0, 4), (-1, 2), (2, 5), (3, 6)],
        ids=["larger-first", "loop", "non-vertex", "negative", "child-in-pair", "above-child"],
    )
    def test_parent_edge_must_be_two_smaller_vertices_in_order(self, parent_edge):
        # vertex 5 is subdivision-tagged; its parents must be vertices below 5 (4 is none)
        facets = [(0, 1, 2, 5), (1, 2, 3, 5), (0, 2, 3, 6), (1, 3, 5, 6)]
        tags = {v: OriginalTag() for v in (0, 1, 2, 3, 6)}
        tags[5] = SubdivisionTag(parent_edge=parent_edge)
        with pytest.raises(NotAnEdge, match="parent edge"):
            build_from_facets(facets, tags)


class TestIsFace:
    def test_examples(self):
        bd = simplex_boundary()
        assert is_face(bd, (0, 1, 2))
        assert not is_face(bd, (0, 1, 2, 3, 4))
        assert not is_face(triangle_boundary(), (0, 1, 2))

    def test_unknown_vertex(self):
        with pytest.raises(UnknownVertex):
            is_face(triangle_boundary(), (0, 9))


class TestLink:
    def test_edge_link_in_simplex_boundary(self):
        lk = link(simplex_boundary(), (0, 1))
        assert face_sets(lk.facets) == {frozenset({2, 3}), frozenset({2, 4}), frozenset({3, 4})}

    def test_cyclic_edge_link_is_small_cycle(self):
        X = cyclic_4_sphere(6)
        lk = link(X, (0, 3))  # non-adjacent pair on the 6-cycle
        assert lk.dimension == 1
        assert all(len(lk.neighbors(v)) == 2 for v in lk.vertices)
        assert len(lk.vertices) <= 4

    def test_facet_link_is_empty(self):
        bd = simplex_boundary()
        lk = link(bd, (0, 1, 2, 3))
        assert lk.is_empty

    def test_not_a_face(self):
        with pytest.raises(ValueError):
            link(triangle_boundary(), (0, 1, 2))


class TestMinimalNonfaces:
    def test_simplex_boundary(self):
        assert face_sets(minimal_nonfaces(simplex_boundary(), 5)) == {frozenset(range(5))}

    def test_cyclic_six(self):
        X = cyclic_4_sphere(6)
        assert face_sets(minimal_nonfaces(X, 3)) == {frozenset({0, 2, 4}), frozenset({1, 3, 5})}

    def test_flag_complex_has_only_nonedges(self):
        oct_ = octahedron_boundary()
        assert all(len(f) == 2 for f in minimal_nonfaces(oct_, 4))

    @pytest.mark.parametrize("seed", range(6))
    def test_agrees_with_bruteforce_after_random_subdivisions(self, seed):
        rng = random.Random(seed)
        X = cyclic_4_sphere(6)
        for _ in range(3):
            X, _ = subdivide_edge(X, rng.choice(X.edges()))
        assert X.vertex_count <= 12
        assert face_sets(minimal_nonfaces(X, 5)) == minimal_nonfaces_bruteforce(X, 5)

    def test_agrees_with_bruteforce_small_corpus(self):
        for X in (
            simplex_boundary(),
            triangle_boundary(),
            octahedron_boundary(),
            capped_triangle_sphere(),
        ):
            assert face_sets(minimal_nonfaces(X, 5)) == minimal_nonfaces_bruteforce(X, 5)


class TestIsFlag:
    def test_triangle_boundary_not_flag(self):
        assert not is_flag(triangle_boundary())

    def test_octahedron_flag(self):
        assert is_flag(octahedron_boundary())

    @pytest.mark.parametrize("n", range(6, 10))
    def test_cyclic_not_flag(self, n):
        assert not is_flag(cyclic_4_sphere(n))

    def test_equivalence_with_nonface_sizes(self):
        for X in (
            triangle_boundary(),
            octahedron_boundary(),
            simplex_boundary(),
            capped_triangle_sphere(),
            cyclic_4_sphere(7),
        ):
            mnf = minimal_nonfaces(X, X.dimension + 2)
            assert is_flag(X) == all(len(f) == 2 for f in mnf)


class TestSubdivideEdge:
    def test_simplex_boundary_nonfaces(self):
        Y, w = subdivide_edge(simplex_boundary(), (0, 1))
        assert w == 5
        assert face_sets(minimal_nonfaces(Y, 4)) == {
            frozenset({0, 1}),
            frozenset({w, 2, 3, 4}),
        }
        assert Y.tags[w] == SubdivisionTag(parent_edge=(0, 1))

    def test_triangle_becomes_square(self):
        Y, w = subdivide_edge(triangle_boundary(), (0, 1))
        assert Y.facet_count == 4
        assert all(len(Y.neighbors(v)) == 2 for v in Y.vertices)
        assert not Y.has_edge(0, 1)

    def test_facet_count_identity(self):
        oct_ = octahedron_boundary()
        for e in [(0, 2), (2, 4), (1, 5)]:
            containing = sum(1 for f in oct_.facets if set(e) <= set(f))
            Y, _ = subdivide_edge(oct_, e)
            assert Y.facet_count == oct_.facet_count + containing
            assert Y.vertex_count == oct_.vertex_count + 1

    def test_not_an_edge(self):
        with pytest.raises(NotAnEdge):
            subdivide_edge(octahedron_boundary(), (0, 1))  # antipodal pair

    def test_ids_never_reused(self):
        X = cyclic_4_sphere(6)
        X1, w1 = subdivide_edge(X, (0, 2))
        X2, w2 = subdivide_edge(X1, (1, 3))
        assert (w1, w2) == (6, 7)
        assert (X2.tags[w1], X2.tags[w2]) == (SubdivisionTag((0, 2)), SubdivisionTag((1, 3)))


class TestFVector:
    def test_cyclic_six(self):
        fv = f_vector(cyclic_4_sphere(6))
        assert fv.counts[3] == 9
        assert fv.counts[1] == 15
        assert fv.euler == 0

    def test_octahedron(self):
        fv = f_vector(octahedron_boundary())
        assert fv.counts == (6, 12, 8)
        assert fv.euler == 2


class TestManifoldVerification:
    def test_simplex_boundary_passes(self):
        assert verify_closed_3_manifold(simplex_boundary()).passed

    def test_subdivision_preserves_manifold(self):
        rng = random.Random(11)
        X = simplex_boundary()
        for _ in range(5):
            X, _ = subdivide_edge(X, rng.choice(X.edges()))
            assert verify_closed_3_manifold(X).passed

    def test_disjoint_union_fails_connectivity(self):
        facets = list(itertools.combinations(range(5), 4)) + list(
            itertools.combinations(range(5, 10), 4)
        )
        X = build_from_facets(facets)
        report = verify_closed_3_manifold(X)
        assert not report.connected
        assert not report.passed

    def test_wedge_fails_links_and_euler(self):
        # two boundaries of the 4-simplex glued at vertex 0: the link of 0 is
        # two disjoint 2-spheres, and euler = 0 + 0 - 1
        facets = list(itertools.combinations(range(5), 4)) + list(
            itertools.combinations((0, 5, 6, 7, 8), 4)
        )
        report = verify_closed_3_manifold(build_from_facets(facets))
        assert report.two_faces_in_two_facets and report.connected
        assert not report.vertex_links_are_2_spheres
        assert not report.euler_zero

    def test_wrong_dimension(self):
        with pytest.raises(WrongDimension):
            verify_closed_3_manifold(octahedron_boundary())


class TestTraceReplay:
    def test_replay_reproduces_subdivisions(self):
        rng = random.Random(3)
        X0 = cyclic_4_sphere(7)
        X = X0
        events = []
        for _ in range(6):
            e = rng.choice(X.edges())
            X, w = subdivide_edge(X, e)
            u, v = sorted(e)
            events.append((u, v, w))
        trace = tuple(events)
        assert replay(X0, trace) == X

    def test_empty_trace_is_identity(self):
        X = cyclic_4_sphere(6)
        assert replay(X, ()) == X

    def test_replay_nonedge_fails(self):
        X = cyclic_4_sphere(6)
        Y, _ = subdivide_edge(X, (0, 2))
        with pytest.raises(NotAnEdge):
            replay(Y, ((0, 2, 99),))


class TestSubdivisionDeltaLaw:
    """Safe form of the new-nonface law, small randomized sample.

    Every new minimal non-face besides the destroyed edge contains the
    fresh vertex and respects the prior size cap. Size-2 newcomers are
    exactly the fresh vertex's non-edges (partners outside the closed star
    of the subdivided edge); the tau-condition is a top-size statement and
    is checked on the size-3 newcomers.

    The full thousand-event run lives in the acceptance suite; this keeps a
    quick version in the unit tests.
    """

    def test_law_on_short_walks(self):
        checked_top = 0
        checked_pairs = 0
        for n in (6, 7, 8):
            for seed in range(4):
                rng = random.Random(1000 * n + seed)
                X = cyclic_4_sphere(n)
                before = face_sets(minimal_nonfaces(X, 5))
                for _ in range(4):
                    edge = rng.choice(X.edges())
                    u, v = sorted(edge)
                    prior_max = max(len(f) for f in before)
                    star = set().union(*(f for f in X.facets if frozenset(edge) <= frozenset(f)))
                    Y, w = subdivide_edge(X, edge)
                    after = face_sets(minimal_nonfaces(Y, 5))
                    fresh = after - before
                    for nf in fresh:
                        if nf == frozenset({u, v}):
                            continue
                        assert w in nf
                        assert len(nf) <= prior_max
                        if len(nf) == 2:
                            (z,) = nf - {w}
                            assert z not in star
                            checked_pairs += 1
                        else:
                            tau = nf - {w}
                            assert not is_face(X, tau | {u}) or not is_face(
                                X, tau | {v}
                            )
                            checked_top += 1
                    X, before = Y, after
        assert checked_top > 0 and checked_pairs > 0
