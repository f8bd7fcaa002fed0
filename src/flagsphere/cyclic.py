"""Boundary complex of the cyclic 4-polytope, generated combinatorially.

Facets come from the dimension-4 form of Gale's evenness condition: every
facet is the union of two disjoint "dominoes", i.e. pairs of cyclically
adjacent vertices on the n-cycle. The 1-skeleton is complete (2-neighborly)
and the only minimal non-faces are the empty triangles: 3-sets containing
no cyclically adjacent pair, generated from that closed form (a function of
n alone) as sorted tuples. The sphere is a plain SimplicialComplex.

Vertices are 0-indexed internally; reports and files give v the position v + 1.
"""

from __future__ import annotations

from collections.abc import Iterator

from .complexes import SimplicialComplex, build_from_facets
from .errors import TooLarge, TooSmall

# most polytope vertices, refused before any facet is built: n(n-3)/2 = 498,500
# facets, while M10's flagify runs at n=767
MAX_N = 1000


def cyclic_4_sphere(n: int) -> SimplicialComplex:
    """Build the boundary of the cyclic 4-polytope on n >= 6 vertices.

    Facet count is n(n-3)/2: one facet per pair of dominoes that are
    non-adjacent on the cycle of dominoes.
    """
    if n < 6:
        raise TooSmall(f"cyclic 4-sphere needs n >= 6, got {n}")
    if n > MAX_N:
        raise TooLarge(f"cyclic 4-sphere takes n <= {MAX_N}, got {n}")
    dominoes = [frozenset((i, (i + 1) % n)) for i in range(n)]
    facets = []
    for i in range(n):
        for j in range(i + 1, n):
            if dominoes[i] & dominoes[j]:
                continue
            facets.append(dominoes[i] | dominoes[j])
    return build_from_facets(facets)


def empty_triangles(n: int) -> Iterator[tuple[int, int, int]]:
    """The size-3 minimal non-faces of the cyclic 4-sphere on n vertices:
    independent 3-sets of the n-cycle, yielded one at a time as sorted tuples
    in lexicographic order. No two of i < j < k are adjacent, and i = 0 with
    k = n-1 would be the wrap-around pair."""
    return (
        (i, j, k)
        for i in range(n)
        for j in range(i + 2, n)
        for k in range(j + 2, n - (i == 0))
    )
