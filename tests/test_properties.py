"""Property tests: the fast paths against brute-force and snapshot oracles.

Examples are derandomized with a fixed count, so every run checks the same
inputs.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from flagsphere import (
    ComplexBuilder,
    Graph,
    build_from_facets,
    cyclic_4_sphere,
    f_vector,
    flagify,
    is_flag,
    link,
    minimal_nonfaces,
    subdivide_edge,
    triangle_free_process,
)
from flagsphere.complexes import _facet_incidence, _faces_by_size, empty_triangles_of
from flagsphere.graphs import cliques

from conftest import flagify_reference, minimal_nonfaces_bruteforce

fixed = settings(derandomize=True, max_examples=40, deadline=None, database=None)


@st.composite
def subdivided_spheres(draw):
    """A cyclic 4-sphere on 6..9 vertices after a random edge-subdivision
    sequence; half of the sequences start with a full flagify run, so flag
    complexes are drawn too."""
    n = draw(st.integers(6, 9))
    if draw(st.booleans()):
        X, _, _ = flagify(Graph.edgeless(0), n)
    else:
        X = cyclic_4_sphere(n).complex
    for _ in range(draw(st.integers(0, 5))):
        edges = X.edges()
        X, _ = subdivide_edge(X, edges[draw(st.integers(0, len(edges) - 1))])
    return X


@fixed
@given(subdivided_spheres())
def test_nonfaces_flagness_and_empty_triangles_match_the_oracle(X):
    oracle = minimal_nonfaces_bruteforce(X, 5)
    assert minimal_nonfaces(X, 5) == oracle
    assert is_flag(X) == all(len(f) == 2 for f in oracle)
    assert empty_triangles_of(X) == {f for f in oracle if len(f) == 3}


@fixed
@given(subdivided_spheres())
def test_star_residues_are_the_vertex_links(X):
    _, star = _facet_incidence(X)
    assert set(star) == set(X.vertices)
    for v in X.vertices:
        assert star[v] == link(X, (v,)).facets


@st.composite
def small_graphs(draw):
    """Adjacency of a random graph on at most 8 vertices with arbitrary ids."""
    vertices = sorted(draw(st.sets(st.integers(0, 30), max_size=8)))
    pairs = list(itertools.combinations(vertices, 2))
    chosen = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    adj = {v: set() for v in vertices}
    for (u, v), keep in zip(pairs, chosen):
        if keep:
            adj[u].add(v)
            adj[v].add(u)
    return adj


@fixed
@given(small_graphs(), st.integers(1, 9))
def test_cliques_match_all_vertex_subsets(adj, max_size):
    listed = list(cliques(adj, max_size))
    expected = {
        sub
        for k in range(1, max_size + 1)
        for sub in itertools.combinations(sorted(adj), k)
        if all(v in adj[u] for u, v in itertools.combinations(sub, 2))
    }
    assert len(listed) == len(set(listed))
    assert set(listed) == expected


@fixed
@given(st.integers(7, 14), st.integers(0, 10**6))
def test_flagify_matches_the_snapshot_reference(n, seed):
    g = triangle_free_process(n, seed)
    X, report, trace = flagify(g, n)
    reference = flagify_reference(g, n)
    assert trace.events == reference.events
    assert report.round_count == reference.rounds
    assert X == reference.complex


def _indexes_from_facets(facets):
    star, adj = {}, {}
    for facet in facets:
        for v in facet:
            star.setdefault(v, set()).add(facet)
            adj.setdefault(v, set()).update(facet - {v})
    return star, adj


@fixed
@given(subdivided_spheres(), st.lists(st.integers(0, 10**6), max_size=12))
def test_builder_walk_keeps_its_indexes_and_matches_the_functional_chain(X, picks):
    builder = ComplexBuilder(X)
    for pick in picks:
        edges = X.edges()
        edge = edges[pick % len(edges)]
        X, w = subdivide_edge(X, edge)
        assert builder.subdivide(edge) == w
        assert (builder.star, builder.adj) == _indexes_from_facets(builder.facets)
        assert builder.indexes_consistent()
    assert builder.freeze() == X
    assert builder.freeze().edges() == X.edges()


@st.composite
def pure_complexes(draw):
    """A pure complex of dimension 0..3 on at most 7 vertices."""
    pool = list(itertools.combinations(range(7), draw(st.integers(1, 4))))
    return build_from_facets(
        draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12, unique=True))
    )


@fixed
@given(st.one_of(pure_complexes(), subdivided_spheres()))
def test_f_vector_matches_the_face_enumeration(X):
    top = X.dimension + 1
    faces = _faces_by_size(X, top)
    counts = tuple(len(faces[k]) for k in range(1, top + 1))
    assert f_vector(X).counts == counts
    assert f_vector(X).euler == sum((-1) ** i * c for i, c in enumerate(counts))
