"""Cyclic 4-sphere generation against closed forms and brute force."""

import itertools

import pytest

from flagsphere import cyclic_4_sphere, empty_triangles, minimal_nonfaces, verify_closed_3_manifold
from flagsphere.complexes import empty_triangles_of
from flagsphere.cyclic import empty_triangle_count_closed_form
from flagsphere.errors import TooSmall

from conftest import face_sets, minimal_nonfaces_bruteforce


def test_too_small():
    with pytest.raises(TooSmall):
        cyclic_4_sphere(5)


@pytest.mark.parametrize("n", range(6, 15))
def test_facet_count_closed_form(n):
    s = cyclic_4_sphere(n)
    assert s.facet_count == n * (n - 3) // 2


@pytest.mark.parametrize("n", range(6, 15))
def test_two_neighborly(n):
    s = cyclic_4_sphere(n)
    assert len(s.edges()) == n * (n - 1) // 2


def test_facets_are_disjoint_domino_pairs():
    n = 8
    s = cyclic_4_sphere(n)
    dominoes = {frozenset((i, (i + 1) % n)) for i in range(n)}
    for facet in s.facets:
        pairs = [
            (a, b)
            for a, b in itertools.combinations(sorted(facet), 2)
            if frozenset((a, b)) in dominoes
        ]
        assert any(
            frozenset(p) | frozenset(q) == frozenset(facet) and not (set(p) & set(q))
            for p in pairs
            for q in pairs
        )


@pytest.mark.parametrize("n", (6, 7, 9))
def test_manifold_verification(n):
    assert verify_closed_3_manifold(cyclic_4_sphere(n)).passed


def test_empty_triangles_n6():
    assert empty_triangles(6) == [(0, 2, 4), (1, 3, 5)]


@pytest.mark.parametrize("n", range(6, 41))
def test_closed_form_lists_the_clique_scan_in_order(n):
    s = cyclic_4_sphere(n)
    triangles = empty_triangles(n)
    assert triangles == sorted(empty_triangles_of(s))
    assert len(triangles) == n * (n - 4) * (n - 5) // 6


@pytest.mark.parametrize("n", range(6, 15))
def test_empty_triangle_count(n):
    assert len(empty_triangles(n)) == empty_triangle_count_closed_form(n)


def test_count_n8_is_sixteen():
    assert len(empty_triangles(8)) == 16


@pytest.mark.parametrize("n", range(6, 15))
def test_no_empty_triangle_contains_adjacent_pair(n):
    adjacent = {frozenset((i, (i + 1) % n)) for i in range(n)}
    for tri in empty_triangles(n):
        for pair in itertools.combinations(sorted(tri), 2):
            assert frozenset(pair) not in adjacent


@pytest.mark.parametrize("n", range(6, 15))
def test_only_minimal_nonfaces_are_triangles(n):
    mnf = minimal_nonfaces(cyclic_4_sphere(n), 5)
    assert mnf and all(len(f) == 3 for f in mnf)


@pytest.mark.parametrize("n", (6, 7, 8))
def test_nonfaces_match_bruteforce(n):
    X = cyclic_4_sphere(n)
    assert face_sets(minimal_nonfaces(X, 5)) == minimal_nonfaces_bruteforce(X, 5)


@pytest.mark.parametrize("n", range(6, 15))
def test_per_edge_empty_triangle_count_linear(n):
    per_edge: dict[frozenset, int] = {}
    for tri in empty_triangles(n):
        for pair in itertools.combinations(sorted(tri), 2):
            key = frozenset(pair)
            per_edge[key] = per_edge.get(key, 0) + 1
    assert max(per_edge.values(), default=0) <= n
