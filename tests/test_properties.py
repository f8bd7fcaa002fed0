"""Property tests: the fast paths against brute-force and snapshot oracles.

Examples are derandomized with a fixed count, so every run checks the same
inputs.
"""

import contextlib
import errno
import io
import itertools
import json
import os
import random
import subprocess
import sys
import tempfile
import threading
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flagsphere import (
    ComplexBuilder,
    Graph,
    build_from_facets,
    chromatic_number_exact,
    cyclic_4_sphere,
    eliminate_round,
    embed,
    f_vector,
    flagify,
    graphs,
    is_flag,
    minimal_nonfaces,
    mycielskian,
    subdivide_edge,
    triangle_free_process,
)
from flagsphere.cli import main
from flagsphere.complexes import (
    _derive_adjacency,
    _faces,
    empty_triangles_of,
    verify_closed_3_manifold,
)
from flagsphere.errors import (
    DominatedFacet,
    InvariantViolation,
    NonPure,
    ParseError,
    SolverTimeout,
)
from flagsphere.graphs import (
    _Budget,
    _greedy_clique,
    _k_colorable,
    cliques,
    forward_rows,
    greedy_independent_set,
    smallest_last_order,
)
from flagsphere.io import read_complex, write_complex
from flagsphere.randomclique import (
    RandomCliqueParams,
    clique_census,
    sample_clique_complex,
    sample_gnp_edges,
)

from conftest import (
    clique_census_scan,
    derive_adjacency_reference,
    dominated_pair_scan,
    capped_triangle_sphere,
    events_of,
    face_sets,
    faces_by_size_reference,
    facet_incidence_reference,
    flagify_reference,
    greedy_independent_set_reference,
    induced_subgraph_reference,
    k_colorable_reference,
    link,
    link_check_reference,
    link_is_2_sphere_reference,
    minimal_nonfaces_bruteforce,
    octahedron_boundary,
    read_complex_reference,
    reference_round,
    reference_start,
    rows_of,
    sample_gnp_edges_bisect,
    simplex_boundary,
    sixteen_cell,
    sixteen_cells_glued,
    smallest_last_order_reference,
    subdivide_edge_scan,
    triangle_boundary,
    verify_closed_3_manifold_reference,
)

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
        X = cyclic_4_sphere(n)
    for _ in range(draw(st.integers(0, 5))):
        edges = X.edges()
        X, _ = subdivide_edge(X, edges[draw(st.integers(0, len(edges) - 1))])
    return X


@fixed
@given(subdivided_spheres())
def test_nonfaces_flagness_and_empty_triangles_match_the_oracle(X):
    oracle = minimal_nonfaces_bruteforce(X, 5)
    assert face_sets(minimal_nonfaces(X, 5)) == oracle
    assert is_flag(X) == all(len(f) == 2 for f in oracle)
    assert empty_triangles_of(X) == {tuple(sorted(f)) for f in oracle if len(f) == 3}


# distinct facets of 1..5 vertices on 0..7, of mixed sizes in most draws
facet_lists = st.lists(
    st.sets(st.integers(0, 7), min_size=1, max_size=5), min_size=1, max_size=12, unique_by=frozenset
)


@fixed
@given(facet_lists)
def test_dominated_facet_is_the_pair_the_pairwise_scan_finds(facets):
    pair = dominated_pair_scan(facets)
    try:
        build_from_facets(facets)
    except DominatedFacet as exc:
        assert pair is not None
        assert str(exc) == f"facet {list(pair[0])} is contained in {list(pair[1])}"
    except NonPure:
        assert pair is None
    else:
        assert pair is None and len({len(f) for f in facets}) == 1


@fixed
@given(subdivided_spheres())
def test_star_residues_are_the_vertex_links(X):
    ridge_count, star = facet_incidence_reference(X)
    assert sum(ridge_count.values()) == 4 * X.facet_count
    assert set(star) == set(X.vertices)
    for v in X.vertices:
        assert star[v] == face_sets(link(X, (v,)).facets)


@st.composite
def triangle_sets(draw):
    """Triangles on at most 7 vertices, or a vertex link of a subdivided
    sphere with up to two triangles dropped or added, so both answers occur."""
    if draw(st.booleans()):
        pool = [frozenset(t) for t in itertools.combinations(range(7), 3)]
        return frozenset(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=14)))
    X = draw(subdivided_spheres())
    _, star = facet_incidence_reference(X)
    triangles = set(star[draw(st.sampled_from(X.vertices))])
    for _ in range(draw(st.integers(0, 2))):
        t = frozenset(draw(st.sets(st.sampled_from(X.vertices), min_size=3, max_size=3)))
        triangles ^= {t}
    return frozenset(triangles)


# the 7-vertex torus on 4..10: every edge lies in two triangles and every
# vertex link is one hexagon, so only its euler characteristic, 7 - 21 + 14 = 0,
# tells it from a sphere
TORUS = frozenset(
    frozenset(4 + (i + k) % 7 for k in ks) for i in range(7) for ks in ((0, 1, 3), (0, 2, 3))
)
# a tetrahedron boundary beside the torus: V - E + F = 2 + 0, so only the
# connectivity check rejects it
SPHERE_AND_TORUS = TORUS | {frozenset(t) for t in itertools.combinations(range(4), 3)}

# two octahedra with the poles 0 and 1 in common (rings 2-5 and 6-9): every
# edge lies in two triangles, the union is connected through its vertices and
# V - E + F = 10 - 24 + 16 = 2, but it is two spheres pinched at two points,
# so only a walk across shared edges rejects it
PINCHED_SPHERES = frozenset(
    frozenset((pole, ring[i], ring[(i + 1) % 4]))
    for ring in ((2, 3, 4, 5), (6, 7, 8, 9))
    for i in range(4)
    for pole in (0, 1)
)


@fixed
@given(triangle_sets())
@example(SPHERE_AND_TORUS)
@example(PINCHED_SPHERES)
@example(TORUS)
def test_link_sphere_check_matches_the_complex_oracle(triangles):
    expected = link_is_2_sphere_reference(triangles)
    assert link_check_reference(triangles) == expected
    edge_count = Counter(frozenset(e) for t in triangles for e in itertools.combinations(t, 2))
    if all(c == 2 for c in edge_count.values()):
        # the suspension has every ridge in two facets, and its links are the
        # triangles at each apex and the suspended vertex links of the triangles,
        # which are all 2-spheres exactly when the triangles are one
        top = max(set().union(*triangles))
        suspension = build_from_facets(
            [t | {apex} for t in triangles for apex in (top + 1, top + 2)]
        )
        assert verify_closed_3_manifold(suspension).vertex_links_are_2_spheres == expected
    else:
        assert not expected


# the suspension of TORUS: every ridge lies in two facets, the complex is
# connected and every link is connected across its edges, but each apex
# link has euler 0
SUSPENDED_TORUS = build_from_facets([t | {apex} for t in TORUS for apex in (11, 12)])
# the suspension of SPHERE_AND_TORUS: every ridge lies in two facets and
# every link of a surface vertex is a 2-sphere, but each apex link is
# disconnected
SUSPENDED_SPHERE_AND_TORUS = build_from_facets(
    [t | {apex} for t in SPHERE_AND_TORUS for apex in (11, 12)]
)
# the suspension of PINCHED_SPHERES (32 facets): a flag complex, connected,
# with every ridge in two facets, euler 0 and every vertex link connected
# with euler 2, but the links of 0, 1 and both apexes are pinched
PINCHED_SUSPENSION = build_from_facets(
    [t | {apex} for t in PINCHED_SPHERES for apex in (10, 11)]
)

# three discs, the cones from 3, 4 and 5 over the triangle boundary 0-1-2,
# suspended from 6 and 7: each ridge {i, j, apex} on that boundary lies in
# three facets and every other ridge in two, so only the ridge count, 33
# against the 2F = 36 of a closed complex, rejects it
SUSPENDED_THREE_DISCS = build_from_facets(
    [
        (i, j, cone, apex)
        for i, j in ((0, 1), (0, 2), (1, 2))
        for cone in (3, 4, 5)
        for apex in (6, 7)
    ]
)


@st.composite
def nearly_spheres(draw):
    """A subdivided sphere, or one with a facet dropped or a facet added."""
    X = draw(subdivided_spheres())
    change = draw(st.sampled_from(("none", "drop", "add")))
    facets = sorted(tuple(sorted(f)) for f in X.facets)
    if change == "drop":
        facets.remove(draw(st.sampled_from(facets)))
    elif change == "add":
        pool = list(X.vertices) + [max(X.vertices) + 1]
        extra = draw(st.sets(st.sampled_from(pool), min_size=4, max_size=4))
        facets = sorted(set(facets) | {tuple(sorted(extra))})
    return build_from_facets(facets)


@fixed
@given(nearly_spheres())
@example(SUSPENDED_SPHERE_AND_TORUS)
@example(PINCHED_SUSPENSION)
@example(SUSPENDED_TORUS)
@example(SUSPENDED_THREE_DISCS)
def test_manifold_report_matches_the_reference(X):
    assert verify_closed_3_manifold(X) == verify_closed_3_manifold_reference(X)


@st.composite
def pure_3_complexes(draw):
    """A pure 3-complex that may fail the manifold checks: a nearly-sphere, a
    cyclic sphere, a flagify run stopped after a few rounds, or up to 12
    random tetrahedra on 7 vertices."""
    kind = draw(st.sampled_from(("nearly", "cyclic", "mid-flagify", "random")))
    if kind == "nearly":
        return draw(nearly_spheres())
    if kind == "cyclic":
        return cyclic_4_sphere(draw(st.integers(6, 10)))
    if kind == "mid-flagify":
        n = draw(st.integers(6, 8))
        state = embed(triangle_free_process(n, draw(st.integers(0, 10**6))), n)
        for _ in range(draw(st.integers(0, 4))):
            if state.all_original:
                eliminate_round(state)
        return state.builder.freeze()
    pool = list(itertools.combinations(range(7), 4))
    facets = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12, unique=True))
    return build_from_facets(facets)


@fixed
@given(pure_3_complexes())
@example(SUSPENDED_SPHERE_AND_TORUS)
@example(PINCHED_SUSPENSION)
@example(SUSPENDED_TORUS)
@example(SUSPENDED_THREE_DISCS)
@example(sixteen_cells_glued())
def test_manifold_pass_f_vector_is_exact_and_is_flag_may_trust_it(X):
    fv = verify_closed_3_manifold(X).f_vector
    assert fv == f_vector(X)
    flag = all(len(f) == 2 for f in minimal_nonfaces_bruteforce(X, 5))
    assert is_flag(X, fv) == is_flag(X) == flag


def test_suspended_sphere_and_torus_fails_only_the_link_check():
    report = verify_closed_3_manifold(SUSPENDED_SPHERE_AND_TORUS)
    assert report.two_faces_in_two_facets and report.connected and report.euler_zero
    assert not report.vertex_links_are_2_spheres


def test_pinched_suspension_is_not_a_manifold_and_color_refuses_it(tmp_path, capsys):
    X = PINCHED_SUSPENSION
    assert X.facet_count == 32 and is_flag(X)
    report = verify_closed_3_manifold(X)
    assert report.two_faces_in_two_facets and report.connected and report.euler_zero
    assert not report.vertex_links_are_2_spheres and not report.passed
    path = tmp_path / "pinched.txt"
    write_complex(X, path)
    assert main(["color", "--in", str(path)]) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("NotManifold:")


@fixed
@given(subdivided_spheres())
def test_verify_reports_every_empty_triangle(X):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "complex.txt"
        write_complex(X, path)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["verify", "--in", str(path), "--seed", "1"]) == 0
    assert json.loads(out.getvalue())["empty_triangle_count"] == len(empty_triangles_of(X))


CORRUPTIONS = (
    "drop-line", "copy-line", "tags-header", "set-token", "drop-token", "add-token",
    "garbage-token", "reverse-tokens",
)


@st.composite
def corrupted_complex_files(draw):
    """The write_complex text of a subdivided sphere with one line corrupted:
    dropped, copied, preceded by a "tags:" header, or with one token set to an
    id in -1..V+1 (a repeated, negative, new or untagged id), dropped, added,
    made non-numeric, or with its tokens reversed."""
    X = draw(subdivided_spheres())
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "complex.txt"
        write_complex(X, path)
        lines = path.read_text(encoding="utf-8").splitlines()
    i = draw(st.integers(1, len(lines) - 1))  # line 0 is the header comment
    parts = lines[i].split()
    j = draw(st.integers(0, len(parts) - 1))
    new_id = str(draw(st.integers(-1, max(X.vertices) + 1)))
    kind = draw(st.sampled_from(CORRUPTIONS))
    if kind == "drop-line":
        del lines[i]
    elif kind == "copy-line":
        lines.insert(i, lines[i])
    elif kind == "tags-header":
        lines.insert(i, "tags:")
    else:
        if kind == "set-token":
            parts[j] = new_id
        elif kind == "drop-token":
            del parts[j]
        elif kind == "add-token":
            parts.insert(j, new_id)
        elif kind == "garbage-token":
            parts[j] = "x"
        else:
            parts.reverse()
        lines[i] = " ".join(parts)
    return "\n".join(lines) + "\n"


def _read_or_refuse(reader, path):
    """The complex a reader returns, or ParseError if it refuses the file."""
    try:
        return reader(path)
    except ParseError:
        return ParseError


@fixed
@given(subdivided_spheres())
def test_complex_file_round_trip_writes_the_same_bytes(X):
    # the positions and steps in the file are derived from the ids on writing
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "first.txt", Path(tmp) / "second.txt"
        write_complex(X, first)
        Y = read_complex(first)
        write_complex(Y, second)
        assert Y == X and Y.vertices == X.vertices
        assert first.read_bytes() == second.read_bytes()


@fixed
@given(corrupted_complex_files())
def test_reader_agrees_with_its_reference_on_corrupted_files(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "complex.txt"
        path.write_text(text, encoding="utf-8")
        assert _read_or_refuse(read_complex, path) == _read_or_refuse(read_complex_reference, path)


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
    # sizes 1 and 2 are the graph's vertices and edges, which the walk never yields
    listed = list(cliques(forward_rows(adj.__getitem__, adj), max_size))
    expected = {
        sub
        for k in range(3, max_size + 1)
        for sub in itertools.combinations(sorted(adj), k)
        if all(v in adj[u] for u, v in itertools.combinations(sub, 2))
    }
    assert all(len(c) >= 3 for c in listed)
    assert len(listed) == len(set(listed))
    assert set(listed) == expected


@fixed
@given(st.integers(7, 14), st.integers(0, 10**6))
def test_flagify_matches_the_snapshot_reference(n, seed):
    g = triangle_free_process(n, seed)
    X, report, trace = flagify(g, n)
    reference = flagify_reference(g, n)
    assert trace == reference.events
    assert report["round_count"] == reference.rounds
    assert X == reference.complex


@fixed
@given(st.integers(7, 12), st.integers(0, 10**6))
def test_derived_live_triangles_match_the_reference_set_after_every_round(n, seed):
    g = triangle_free_process(n, seed)
    state = embed(g, n)
    reference = reference_start(g, n)
    assert {frozenset(t) for t in state.all_original} == reference.all_original
    while reference.all_original:
        eliminate_round(state)
        reference = reference_round(reference)
        assert events_of(state) == reference.events
        assert {frozenset(t) for t in state.all_original} == reference.all_original
    with pytest.raises(InvariantViolation, match="no empty triangle left"):
        eliminate_round(state)


def _indexes_from_facets(facets):
    star, adj = {}, {}
    for facet in facets:
        for v in facet:
            star.setdefault(v, set()).add(facet)
            adj.setdefault(v, set()).update(frozenset(facet) - {v})
    return star, adj


@st.composite
def induced_cases(draw):
    """Adjacency with arbitrary ids and an empty, full or random vertex subset,
    listed in a drawn order."""
    adj = draw(small_graphs())
    vertices = sorted(adj)
    chosen = draw(st.lists(st.booleans(), min_size=len(vertices), max_size=len(vertices)))
    subset = draw(st.sampled_from(
        ([], vertices, [v for v, keep in zip(vertices, chosen) if keep])
    ))
    return adj, draw(st.permutations(subset))


@fixed
@given(induced_cases())
def test_induced_subgraph_matches_the_pair_scan(case):
    adj, vertices = case
    assert Graph.induced(adj.__getitem__, vertices) == induced_subgraph_reference(
        adj.__getitem__, vertices
    )


@st.composite
def edge_lists(draw):
    """A vertex count and an edge list that may repeat and reverse pairs."""
    n = draw(st.integers(0, 12))
    if n < 2:
        return n, []
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    return n, draw(st.lists(pair, max_size=40))


@fixed
@given(edge_lists())
def test_graph_keeps_each_edge_once_in_sorted_order(case):
    n, edge_list = case
    g = Graph(n, edge_list)
    assert g.edges == sorted({(min(e), max(e)) for e in edge_list})
    assert g.edge_count == len(g.edges)
    assert Graph(g.n, g.edges) == g
    twice = Graph(n, [(v, u) for u, v in edge_list] + edge_list)
    assert twice == g and hash(twice) == hash(g)
    assert Graph(n + 1, edge_list) != g


@fixed
@given(subdivided_spheres(), st.lists(st.integers(0, 10**6), max_size=12))
def test_builder_walk_keeps_its_indexes_and_matches_the_functional_chain(X, picks):
    builder = ComplexBuilder(X)
    for pick in picks:
        edges = X.edges()
        edge = edges[pick % len(edges)]
        assert subdivide_edge(X, edge) == subdivide_edge_scan(X, edge)
        X, w = subdivide_edge_scan(X, edge)
        assert builder.subdivide(edge) == w
        assert (builder.star, builder.adj) == _indexes_from_facets(builder.facets)
        assert builder.indexes_consistent()
    assert builder.freeze() == X
    assert builder.freeze().edges() == X.edges()


@st.composite
def spheres_and_flagified_graphs(draw):
    """A small sphere of the conftest, or the flag 3-sphere flagify builds
    around a triangle-free process graph."""
    if draw(st.booleans()):
        spheres = (triangle_boundary, octahedron_boundary, capped_triangle_sphere,
                   simplex_boundary, sixteen_cell)
        return draw(st.sampled_from(spheres))()
    n = draw(st.integers(6, 12))
    X, _, _ = flagify(triangle_free_process(n, draw(st.integers(0, 10**6))), n)
    return X


def _sorted_tuples(faces) -> bool:
    return all(type(f) is tuple and f == tuple(sorted(set(f))) for f in faces)


@fixed
@given(
    spheres_and_flagified_graphs(),
    st.lists(st.integers(0, 10**6), max_size=8),
    st.integers(0, 10**6),
)
def test_every_face_is_a_sorted_tuple(X, picks, seed):
    # n=40 at alpha=0.4 has about 100 triangles and a few 4-cliques
    _, cc = sample_clique_complex(RandomCliqueParams(n=40, alpha=0.4, d=4, seed=seed))
    assert all(_sorted_tuples(cc.faces(k)) for k in range(1, 6))
    assert _sorted_tuples(X.facets)
    assert all(_sorted_tuples(link(X, (v,)).facets) for v in X.vertices)
    assert _sorted_tuples(minimal_nonfaces(X, 4))
    assert _sorted_tuples(empty_triangles_of(X))
    builder = ComplexBuilder(X)
    for pick in picks:
        edges = builder.freeze().edges()
        edge = edges[pick % len(edges)]
        assert _sorted_tuples(builder.edge_link_structure(edge)[1])
        builder.subdivide(edge)
    assert all(_sorted_tuples(star) for star in builder.star.values())
    for edge in builder.freeze().edges():
        assert _sorted_tuples(builder.edge_link_structure(edge)[1])


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
    faces = faces_by_size_reference(X, top)
    counts = tuple(len(faces[k]) for k in range(1, top + 1))
    assert f_vector(X).counts == counts
    assert f_vector(X).euler == sum((-1) ** i * c for i, c in enumerate(counts))


@fixed
@given(st.one_of(pure_complexes(), subdivided_spheres()), st.integers(1, 5))
def test_faces_are_the_sorted_facet_subsets(X, k):
    faces = _faces(X, k)
    assert all(list(f) == sorted(f) for f in faces)
    assert {frozenset(f) for f in faces} == faces_by_size_reference(X, k)[k]


@fixed
@given(st.one_of(pure_complexes(), subdivided_spheres()))
def test_derived_adjacency_matches_the_pairwise_adds(X):
    assert _derive_adjacency(X.facets) == derive_adjacency_reference(X.facets)


@st.composite
def solver_graphs(draw):
    """A random graph on at most 14 vertices, or a triangle-free process
    graph on at most 24."""
    if draw(st.booleans()):
        return triangle_free_process(draw(st.integers(1, 24)), draw(st.integers(0, 10**6)))
    n = draw(st.integers(0, 14))
    pairs = list(itertools.combinations(range(n), 2))
    chosen = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [pair for pair, keep in zip(pairs, chosen) if keep])


def _search(solver, g, k, cap, used=0):
    """A solver's result, or "timeout", with the nodes spent, from `used` on."""
    budget = _Budget(cap)
    budget.used = used
    try:
        found = solver(g, k, budget)
    except SolverTimeout:
        found = "timeout"
    return found, budget.used


@fixed
@given(solver_graphs())
def test_bitset_dsatur_matches_the_set_based_search(g):
    for k in range(7):
        assert _search(_k_colorable, g, k, 10**5) == _search(k_colorable_reference, g, k, 10**5)


@fixed
@given(solver_graphs().filter(lambda g: g.n > 0), st.integers(0, 23))
def test_bitset_dsatur_times_out_at_the_same_node(g, cap):
    cap %= g.n  # a coloring takes n + 1 nodes: no search below can find one
    for k in range(1, 7):
        found, used = _search(_k_colorable, g, k, cap)
        assert (found, used) == _search(k_colorable_reference, g, k, cap)
        assert found is None or (found == "timeout" and used == cap + 1)


@pytest.mark.parametrize("name,k", [("grotzsch", 3), ("grotzsch", 4), ("m5", 4), ("m5", 5)])
def test_bitset_dsatur_matches_the_set_based_search_on_deep_trees(name, k, request):
    # 27, 12, 896 and 24 nodes: deeper backtracking than the property graphs
    g = request.getfixturevalue(name)
    assert _search(_k_colorable, g, k, 10**7) == _search(k_colorable_reference, g, k, 10**7)


@pytest.mark.parametrize("name,k,stride", [("grotzsch", 3, 1), ("grotzsch", 4, 1), ("m5", 4, 3)])
def test_bitset_dsatur_times_out_at_the_same_node_in_deep_trees(name, k, stride, request):
    # caps across the whole search, so some timeouts land inside deep
    # backtracks, where exhausted frames back out without a palette scan
    g = request.getfixturevalue(name)
    full = _search(k_colorable_reference, g, k, 10**7)
    for cap in range(0, full[1] + 1, stride):
        found, used = _search(_k_colorable, g, k, cap)
        assert (found, used) == _search(k_colorable_reference, g, k, cap)
        assert (found, used) == (full if cap == full[1] else ("timeout", cap + 1))


def test_bitset_dsatur_times_out_deep_in_the_m6_search(m5):
    budget = _Budget(200_000)
    with pytest.raises(SolverTimeout):
        _k_colorable(mycielskian(m5), 5, budget)
    assert budget.used == 200_001


@st.composite
def dense_graphs(draw):
    """A graph on 8 to 14 vertices that misses at most n of its edges."""
    n = draw(st.integers(8, 14))
    pairs = list(itertools.combinations(range(n), 2))
    missing = draw(st.sets(st.sampled_from(pairs), max_size=n))
    return Graph(n, [pair for pair in pairs if pair not in missing])


@fixed
@given(dense_graphs(), st.integers(0, 300))
@example(Graph.complete(8), 6)
@example(Graph.complete(9), 6)
def test_bitset_dsatur_matches_the_set_based_search_on_wide_palettes(g, cap):
    # k = 8 and 9 keep saturations in a fourth bit plane, up[0]
    for k in range(7, 10):
        assert _search(_k_colorable, g, k, 10**5) == _search(k_colorable_reference, g, k, 10**5)
        assert _search(_k_colorable, g, k, cap) == _search(k_colorable_reference, g, k, cap)


@st.composite
def near_complete_graphs(draw):
    """A graph on 17 to 20 vertices that misses at most 3 of its edges."""
    n = draw(st.integers(17, 20))
    pairs = list(itertools.combinations(range(n), 2))
    missing = draw(st.sets(st.sampled_from(pairs), max_size=3))
    return Graph(n, [pair for pair in pairs if pair not in missing])


@settings(fixed, max_examples=10)
@given(near_complete_graphs())
@example(Graph.complete(17))
@example(Graph.complete(18))
def test_bitset_dsatur_matches_the_set_based_search_on_upper_planes(g):
    # at k = 16-18 a count carries from 15 to 16: through p0, p1, p2 and
    # up[0] into up[1]; every cap puts timeouts on both sides of the carry
    for k in range(16, 19):
        full = _search(k_colorable_reference, g, k, 10**5)
        assert _search(_k_colorable, g, k, 10**5) == full
        for cap in range(full[1]):
            assert _search(_k_colorable, g, k, cap) == _search(k_colorable_reference, g, k, cap)


@pytest.mark.parametrize(
    "name,j,k,stride", [("grotzsch", 5, 8, 1), ("grotzsch", 6, 9, 1), ("m5", 4, 8, 60)]
)
def test_bitset_dsatur_backtracks_over_upper_plane_carries(name, j, k, stride, request):
    # H joined with K_j needs chi(H) + j colors and is refuted at k, one
    # below: the clique's colors push counts to 8 and more, into `up`, and
    # H's own backtracking undoes those carries
    h = request.getfixturevalue(name)
    g = Graph(h.n + j, [*h.edges, *((u, v) for u in range(h.n, h.n + j) for v in range(u))])
    full = _search(k_colorable_reference, g, k, 10**5)
    assert full[0] is None and _search(_k_colorable, g, k, 10**5) == full
    for cap in range(0, full[1], stride):
        assert _search(_k_colorable, g, k, cap) == _search(k_colorable_reference, g, k, cap)


@contextlib.contextmanager
def _split_small(workers, after=3, roots=4):
    """Levels split after `after` nodes into `roots` roots, over `workers`
    processes, whatever the host's CPU count; yields the list of `_split` calls."""
    splits = []
    split = graphs._split

    def spy(*args):
        splits.append(args[3:])
        return split(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphs, "SPLIT_AFTER", after)
        mp.setattr(graphs, "SPLIT_ROOTS", roots)
        mp.setattr(graphs, "_cpus", lambda: workers)
        mp.setattr(graphs, "_split", spy)
        yield splits


@fixed
@given(solver_graphs(), st.integers(0, 300), st.integers(0, 310))
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_split_dsatur_matches_the_set_based_search(workers, g, cap, used):
    # the full budget, a random cap, and a budget that has spent `used` of
    # it, up to past the cap; W = 1 never forks, W = 3 is more than 2 CPUs
    for k in range(1, 7):
        for c, u in ((10**5, 0), (cap, 0), (cap, used)):
            expected = _search(k_colorable_reference, g, k, c, u)
            with _split_small(workers):
                assert _search(_k_colorable, g, k, c, u) == expected


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize(
    "name,k,stride", [("grotzsch", 3, 1), ("grotzsch", 4, 1), ("m5", 4, 7), ("m5", 5, 1)]
)
def test_split_dsatur_counts_every_cap_like_the_set_based_search(workers, name, k, stride, request):
    # exhausted (grotzsch at 3, m5 at 4) and colorable levels, split into 4 or
    # more roots, a timeout at every cap in reach and one past it
    g = request.getfixturevalue(name)
    full = _search(k_colorable_reference, g, k, 10**7)
    for cap in [*range(0, full[1] + 1, stride), full[1] + 1]:
        expected = _search(k_colorable_reference, g, k, cap)
        with _split_small(workers, after=5) as splits:
            assert _search(_k_colorable, g, k, cap) == expected
        assert len(splits) == (cap > 5)


def test_split_walk_goes_split_roots_levels_down_a_narrow_tree(monkeypatch):
    # a path at k = 2 is one forced pick per level; walking all n levels
    # would copy a path per level, quadratic in n
    g = Graph(300, [(i, i + 1) for i in range(299)])
    walked = []
    dfs = graphs._dfs

    def spy(nbr, k, state, cap, frontier=None):
        if frontier is not None:
            walked.append(len(state[7]))
        return dfs(nbr, k, state, cap, frontier)

    monkeypatch.setattr(graphs, "_dfs", spy)
    with _split_small(2, after=10, roots=4) as splits:
        assert _search(_k_colorable, g, 2, 10**5) == _search(k_colorable_reference, g, 2, 10**5)
    assert len(splits) == 1 and walked == [0, 1, 2, 3]


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _forks(monkeypatch):
    """Counts os.fork calls in this process."""
    forks = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return forks


def test_split_search_leaves_no_process_running(m5, monkeypatch):
    forks = _forks(monkeypatch)
    with _split_small(3, after=10):
        assert _search(_k_colorable, m5, 4, 10**5) == (None, 896)
        _no_child_left()
        assert _search(_k_colorable, m5, 4, 500) == ("timeout", 501)
        _no_child_left()
    assert len(forks) == 4


def test_split_search_reaps_its_children_when_the_callers_share_raises(m5, monkeypatch):
    forks = _forks(monkeypatch)
    caller, share = os.getpid(), graphs._share

    def failing(*args):
        if os.getpid() == caller:
            raise RuntimeError("caller's share")
        return share(*args)

    monkeypatch.setattr(graphs, "_share", failing)
    with _split_small(3, after=10), pytest.raises(RuntimeError, match="caller's share"):
        _k_colorable(m5, 4, _Budget(10**5))
    assert len(forks) == 2
    _no_child_left()


@pytest.mark.parametrize("failing", [1, 2])
def test_split_search_runs_in_this_process_when_a_fork_fails(failing, m5, monkeypatch):
    # each search's failing-th fork raises as at a process limit; a child
    # forked before it is reaped
    forks, fork = [], os.fork

    def limited():
        forks.append(None)
        if len(forks) == failing:
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
        return fork()

    monkeypatch.setattr(os, "fork", limited)
    with _split_small(3, after=10) as splits:
        for cap, expected in ((10**5, (None, 896)), (500, ("timeout", 501))):
            forks.clear()
            assert _search(_k_colorable, m5, 4, cap) == expected
            assert len(forks) == failing
            _no_child_left()
    assert len(splits) == 2


def test_one_cpu_runs_the_search_in_one_process_with_the_same_output(m5):
    # the process pins itself to one CPU; os.fork would fail the run
    code = (
        "import os, sys\n"
        "from flagsphere import graphs\n"
        "from flagsphere.graphs import Graph, chromatic_number_exact\n"
        "if sys.argv[1] == 'pinned':\n"
        "    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        "    os.fork = None\n"
        "graphs.SPLIT_AFTER, graphs.SPLIT_ROOTS = 10, 4\n"
        "g = Graph(%d, %r)\n"
        "r = chromatic_number_exact(g)\n"
        "print(r.chi, r.nodes, sorted(r.coloring.assignment.items()))\n"
    ) % (m5.n, m5.edges)
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    runs = [
        subprocess.run([sys.executable, "-c", code, mode], capture_output=True, text=True,
                       env=env, check=True).stdout
        for mode in ("pinned", "free")
    ]
    assert runs[0] == runs[1] and runs[0].startswith("5 959 ")


def test_a_process_with_other_threads_searches_in_one_process():
    # a fork copies only the calling thread, so a second thread turns the split off
    cpus = len(os.sched_getaffinity(0))
    assert graphs._cpus() == cpus
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert graphs._cpus() == 1
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert graphs._cpus() == cpus


def _levels(g, limit, cap):
    """chromatic_number_exact's (chi, nodes), or ("timeout", None)."""
    try:
        result = chromatic_number_exact(g, limit, node_budget=cap)
    except SolverTimeout:
        return "timeout", None
    return result.chi, result.nodes


def _levels_reference(g, limit, cap):
    """_levels rebuilt from the oracle: k_colorable_reference from the
    greedy-clique bound up to `limit` (n when None), all on one budget."""
    if g.n == 0:
        return 0, 0
    budget = _Budget(cap)
    for k in range(max(1, len(_greedy_clique(g))), (g.n if limit is None else limit) + 1):
        try:
            if k_colorable_reference(g, k, budget) is not None:
                return k, budget.used
        except SolverTimeout:
            return "timeout", None
    return None, budget.used


@fixed
@given(solver_graphs(), st.one_of(st.none(), st.integers(0, 6)), st.integers(0, 300))
def test_chromatic_levels_count_nodes_on_one_budget(g, limit, cap):
    expected = _levels_reference(g, limit, cap)
    assert _levels(g, limit, cap) == expected
    if expected[0] != "timeout" and expected[1]:
        # exactly the reference's total suffices, even when earlier levels spent most of it
        nodes = expected[1]
        assert _levels(g, limit, nodes) == expected
        assert _levels(g, limit, nodes - 1) == ("timeout", None)


@fixed
@given(solver_graphs())
def test_smallest_last_heap_matches_the_min_scan(g):
    assert smallest_last_order(g) == smallest_last_order_reference(g)


@st.composite
def census_graphs(draw):
    """A graph on at most 14 vertices whose edge density is drawn too, so
    links with and without cycles both occur at every d."""
    n = draw(st.integers(0, 14))
    density = draw(st.integers(0, 10))
    pairs = list(itertools.combinations(range(n), 2))
    levels = draw(st.lists(st.integers(0, 9), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [pair for pair, level in zip(pairs, levels) if level < density])


@fixed
@given(census_graphs(), st.sampled_from((3, 4, 5)))
@example(Graph.edgeless(0), 3)
@example(Graph.edgeless(9), 4)
@example(Graph.complete(5), 3)
@example(Graph.complete(9), 5)
def test_clique_census_matches_the_per_face_scan(g, d):
    assert clique_census(rows_of(g), d) == clique_census_scan(g, d)


@st.composite
def graphs_with_isolated_vertices(draw):
    """A graph on at most 30 vertices, a drawn number of them isolated, with
    its labels permuted so the isolated ones fall anywhere."""
    n = draw(st.integers(0, 30))
    linked = n - draw(st.integers(0, n))
    density = draw(st.integers(0, 10))
    pairs = list(itertools.combinations(range(linked), 2))
    levels = draw(st.lists(st.integers(0, 9), min_size=len(pairs), max_size=len(pairs)))
    label = draw(st.permutations(range(n)))
    return Graph(n, [(label[u], label[v]) for (u, v), lv in zip(pairs, levels) if lv < density])


@fixed
@given(graphs_with_isolated_vertices(), st.integers(0, 2**32))
@example(Graph.edgeless(0), 0)
@example(Graph.edgeless(6), 3)
@example(Graph.complete(7), 5)
def test_row_greedy_matches_the_neighbour_set_greedy(g, seed):
    oracle = greedy_independent_set_reference(g, seed)
    assert greedy_independent_set(rows_of(g), seed) == oracle
    # an increasing relabelling (as measure_alpha's sphere ids) picks the image set
    rows = {3 * v + 7: tuple(3 * u + 7 for u in row) for v, row in rows_of(g).items()}
    assert greedy_independent_set(rows, seed) == {3 * v + 7 for v in oracle}


@fixed
@given(
    st.integers(0, 80),
    st.sampled_from((0.0, 1e-3, 0.1, 0.5, 0.999, 1.0)),
    st.integers(0, 2**32),
)
def test_row_walking_sampler_matches_the_bisection(n, p, seed):
    assert list(sample_gnp_edges(n, p, random.Random(seed))) == sample_gnp_edges_bisect(
        n, p, random.Random(seed)
    )


def test_a_failing_property_test_is_reported_not_swallowed(tmp_path):
    """Under the repo's pytest settings a failing @given test counts as one
    failure. Reporting it makes hypothesis import libcst, whose
    DeprecationWarning the "error" filter would otherwise turn into an
    INTERNALERROR that ends the whole session."""
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, settings, strategies as st\n\n\n"
        "@settings(database=None, derandomize=True, max_examples=5)\n"
        "@given(st.integers(0, 9))\n"
        "def test_fails(x):\n"
        "    assert x < 0\n"
    )
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(config),
         "--rootdir", str(tmp_path), str(tmp_path / "test_fails.py")],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    output = done.stdout + done.stderr
    assert done.returncode == 1, output
    assert "1 failed" in done.stdout and "INTERNALERROR" not in output
