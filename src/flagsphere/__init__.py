"""Flag triangulations of the 3-sphere with prescribed triangle-free subgraphs.

Construction by edge subdivision of cyclic 4-polytope boundaries, chromatic
lower-bound certification, a peel-based coloring upper bound, and random
clique-complex experiments.
"""

from .complexes import (
    ComplexBuilder,
    FVector,
    OriginalTag,
    SimplicialComplex,
    SubdivisionTag,
    VerificationReport,
    build_from_facets,
    f_vector,
    is_flag,
    minimal_nonfaces,
    replay,
    subdivide_edge,
    verify_closed_3_manifold,
)
from .coloring import (
    AlphaReport,
    CertificateReport,
    PeelParams,
    certify_lower_bound,
    five_color_planar,
    greedy_degeneracy_color,
    measure_alpha,
    peel_color_3,
)
from .cyclic import cyclic_4_sphere, empty_triangles
from .flagify import (
    FlagifyReport,
    FlagifyState,
    audit_state,
    eliminate_round,
    embed,
    flagify,
    vertex_bound,
)
from .graphs import (
    ChromaticResult,
    Coloring,
    Graph,
    chromatic_number_exact,
    greedy_independent_set,
    grotzsch_graph,
    is_triangle_free,
    max_independent_set_exact,
    mycielskian,
    triangle_free_process,
)
from .randomclique import (
    RandomCliqueParams,
    TruncatedCliqueComplex,
    forest_link_fraction,
    prune_bad_links,
    run_experiment,
    sample_clique_complex,
)

__version__ = "0.1.0"
