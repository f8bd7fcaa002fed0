"""Boundary complex of the cyclic 4-polytope, generated combinatorially.

Facets come from the dimension-4 form of Gale's evenness condition: every
facet is the union of two disjoint "dominoes", i.e. pairs of cyclically
adjacent vertices on the n-cycle. The 1-skeleton is complete (2-neighborly)
and the only minimal non-faces are the empty triangles: 3-sets containing
no cyclically adjacent pair, listed from that closed form as sorted tuples.

Vertices are 0-indexed internally; reports and tags use 1-based positions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import SimplicialComplex, build_from_facets
from .errors import TooSmall


@dataclass(frozen=True)
class CyclicSphere:
    n: int
    complex: SimplicialComplex


def cyclic_4_sphere(n: int) -> CyclicSphere:
    """Build the boundary of the cyclic 4-polytope on n >= 6 vertices.

    Facet count is n(n-3)/2: one facet per pair of dominoes that are
    non-adjacent on the cycle of dominoes.
    """
    if n < 6:
        raise TooSmall(f"cyclic 4-sphere needs n >= 6, got {n}")
    dominoes = [frozenset((i, (i + 1) % n)) for i in range(n)]
    facets = []
    for i in range(n):
        for j in range(i + 1, n):
            if dominoes[i] & dominoes[j]:
                continue
            facets.append(dominoes[i] | dominoes[j])
    return CyclicSphere(n=n, complex=build_from_facets(facets))


def empty_triangles(sphere: CyclicSphere) -> list[tuple[int, int, int]]:
    """The size-3 minimal non-faces: independent 3-sets of the n-cycle, as
    sorted tuples in lexicographic order. No two of i < j < k are adjacent,
    and i = 0 with k = n-1 would be the wrap-around pair."""
    n = sphere.n
    return [
        (i, j, k)
        for i in range(n)
        for j in range(i + 2, n)
        for k in range(j + 2, n - (i == 0))
    ]


def empty_triangle_count_closed_form(n: int) -> int:
    """Number of independent 3-sets on an n-cycle: n(n-4)(n-5)/6."""
    return n * (n - 4) * (n - 5) // 6
