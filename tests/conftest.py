"""Shared fixtures: small reference complexes, graphs, and brute oracles."""

from __future__ import annotations

import functools
import itertools
import math

import pytest

from flagsphere import Graph, build_from_facets, grotzsch_graph, mycielskian


def simplex_boundary():
    """Boundary of the 4-simplex: all 4-subsets of {0..4}."""
    return build_from_facets(list(itertools.combinations(range(5), 4)))


def triangle_boundary():
    return build_from_facets([(0, 1), (1, 2), (2, 0)])


def octahedron_boundary():
    """Join of three 2-point complexes: pairs {0,1}, {2,3}, {4,5}."""
    return build_from_facets(
        [(a, b, c) for a in (0, 1) for b in (2, 3) for c in (4, 5)]
    )


def capped_triangle_sphere():
    """A non-flag 2-sphere without a 4-clique: two triangulated disks glued
    along the cycle 0-1-2, which leaves {0, 1, 2} an empty triangle.

    No vertex is adjacent to all of 0, 1, 2, so clique sizes alone do not
    show that it is not flag.
    """

    def disk(d, e, f):
        return [(0, 1, e), (0, e, d), (1, 2, f), (1, f, e), (2, 0, d), (2, d, f), (d, e, f)]

    return build_from_facets(disk(3, 4, 5) + disk(6, 7, 8))


def sixteen_cell():
    """Join of two 4-cycles: the flag 3-sphere on 8 vertices."""
    square1 = [(0, 1), (1, 2), (2, 3), (3, 0)]
    square2 = [(4, 5), (5, 6), (6, 7), (7, 4)]
    return build_from_facets([set(e1) | set(e2) for e1 in square1 for e2 in square2])


def icosahedron_graph():
    edges = [
        (0, 1), (0, 2), (0, 3), (0, 4), (0, 5),
        (1, 2), (2, 3), (3, 4), (4, 5), (5, 1),
        (1, 6), (2, 6), (2, 7), (3, 7), (3, 8),
        (4, 8), (4, 9), (5, 9), (5, 10), (1, 10),
        (6, 7), (7, 8), (8, 9), (9, 10), (10, 6),
        (6, 11), (7, 11), (8, 11), (9, 11), (10, 11),
    ]
    return Graph(12, edges)


def minimal_nonfaces_bruteforce(X, max_size: int) -> set[frozenset[int]]:
    """Oracle for minimal_nonfaces: test every vertex subset up to max_size.

    Small complexes only.
    """
    faces = {
        frozenset(sub)
        for facet in X.facets
        for k in range(1, len(facet) + 1)
        for sub in itertools.combinations(facet, k)
    }
    out: set[frozenset[int]] = set()
    for k in range(2, max_size + 1):
        for comb in itertools.combinations(X.vertices, k):
            s = frozenset(comb)
            if s not in faces and all(s - {x} in faces for x in s):
                out.add(s)
    return out


def brute_chromatic(g: Graph, k_max: int | None = None) -> int:
    """Smallest k admitting a proper coloring, by trying all assignments."""
    if g.n == 0:
        return 0
    edges = sorted(g.edges)
    hi = k_max if k_max is not None else g.n
    for k in range(1, hi + 1):
        for assignment in itertools.product(range(k), repeat=g.n):
            if all(assignment[u] != assignment[v] for u, v in edges):
                return k
    raise AssertionError(f"not {hi}-colorable")


def brute_k_colorable(g: Graph, k: int) -> bool:
    edges = sorted(g.edges)
    return any(
        all(a[u] != a[v] for u, v in edges)
        for a in itertools.product(range(k), repeat=g.n)
    )


def brute_max_independent_set(g: Graph) -> int:
    best = 0
    for size in range(g.n, 0, -1):
        for comb in itertools.combinations(range(g.n), size):
            s = set(comb)
            if all(not (g.neighbors(v) & s) for v in s):
                return size
    return best


@functools.lru_cache(maxsize=None)
def forest_counts(m: int) -> tuple[int, ...]:
    """Labeled forests on m vertices by edge count: entry k counts k-edge ones.

    Recurrence on the tree that contains vertex 1: it spans vertex 1 and
    s-1 of the other m-1 vertices, is one of s^(s-2) labeled trees
    (Cayley), and the rest is a forest on the remaining m-s vertices.
    """
    if m == 0:
        return (1,)
    counts = [0] * m
    for s in range(1, m + 1):
        trees = math.comb(m - 1, s - 1) * s ** max(s - 2, 0)
        for k, rest in enumerate(forest_counts(m - s)):
            counts[k + s - 1] += trees * rest
    return tuple(counts)


def _log_sum_exp(logs: list[float]) -> float:
    top = max(logs)
    return top + math.log(sum(math.exp(x - top) for x in logs))


def gnp_forest_probability(m: int, p: float) -> float:
    """Chance that G(m, p) is a forest, summed over forest edge counts.

    The sum runs in log space: the counts pass the float range once m is
    past about 100.
    """
    if m < 3 or p <= 0.0:
        return 1.0
    if p >= 1.0:
        return 0.0
    pairs = m * (m - 1) // 2
    log_p, log_q = math.log(p), math.log1p(-p)
    return math.exp(_log_sum_exp([
        math.log(count) + k * log_p + (pairs - k) * log_q
        for k, count in enumerate(forest_counts(m))
    ]))


# Degrees less likely than this are left out of expected_forest_fraction.
_WEIGHT_CUTOFF = 1e-20


def expected_forest_fraction(n: int, alpha: float) -> float:
    """Exact E[forest_link_fraction] of the d=3 clique complex of G(n, n^-alpha).

    A vertex's degree is m ~ Bin(n-1, p) and, given its neighbours, its
    link is G(m, p); every vertex is alike, so the expected fraction is the
    chance that one vertex's link is a forest. Degrees whose probability is
    below _WEIGHT_CUTOFF are skipped, which moves the result by under
    n * _WEIGHT_CUTOFF.
    """
    if n < 4:
        return 1.0
    p = n ** (-alpha)
    log_p, log_q = math.log(p), math.log1p(-p)
    total = 0.0
    for m in range(n):
        weight = math.exp(
            math.log(math.comb(n - 1, m)) + m * log_p + (n - 1 - m) * log_q
        )
        if weight < _WEIGHT_CUTOFF:
            if m > (n - 1) * p:
                break  # past the mode the weights only shrink
            continue
        total += weight * gnp_forest_probability(m, p)
    return total


@pytest.fixture(scope="session")
def grotzsch():
    return grotzsch_graph()


@pytest.fixture(scope="session")
def m5(grotzsch):
    return mycielskian(grotzsch)
