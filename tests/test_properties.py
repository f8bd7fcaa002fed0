"""Property tests: the clique-based fast paths against brute-force oracles.

Examples are derandomized with a fixed count, so every run checks the same
inputs.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from flagsphere import (
    Graph,
    cyclic_4_sphere,
    flagify,
    is_flag,
    link,
    minimal_nonfaces,
    subdivide_edge,
)
from flagsphere.complexes import _facet_incidence, empty_triangles_of
from flagsphere.graphs import cliques

from conftest import minimal_nonfaces_bruteforce

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
