"""Golden hashes: flagify complex and trace bytes, flagify, certify and verify
reports and peel colorings are pinned.

The flagify SHA-256 values were computed with the snapshot-per-round
flagify kernel that preceded the indexed builder, before that kernel
changed. The certify and coloring values were computed with the set-based
DSATUR search and the min-scan smallest-last order, before either changed;
the M7 coloring value with the heap order, before the peel built its patch
and residual graphs with `Graph.induced`. The `verify` stdout values were
computed with the frozenset-per-link manifold check and the empty-triangle
scan on every input, before the one-pass check replaced them. The `flagify`
stdout values were computed while the flagify, certify and alpha reports were
still dataclasses, before they became the plain dicts the commands print.
Any change to the selection order, the repair rule, vertex numbering, the
solver's search order or the file formats shows up here. Never regenerate
them to make a change pass.
"""

import contextlib
import hashlib
import io

import pytest

from flagsphere import Graph, build_from_facets, cyclic_4_sphere, flagify, grotzsch_graph
from flagsphere import mycielskian, replay
from flagsphere import chromatic_number_exact, peel_color_3, triangle_free_process
from flagsphere.cli import main
from flagsphere.io import write_coloring, write_complex, write_graph, write_trace

from conftest import PROCESS_CASES

# label: (sha256 of the write_complex bytes, sha256 of the write_trace bytes)
GOLDEN = {
    "C5": ("35034d1ac9dc2704673f3d9263ba0cf71c5c860dc742644a51d69953c2744441",
           "afc228c3da615cb3f4da77e20f9e50921c422c8ab7e5f88cfd3ebc897a658e21"),
    "grotzsch": ("45fcf5ffcfb35046df20b6576dad617f48306ebe92f6f14dbaca9ce63b655cf3",
                 "ff36157e1683c7a3d0cc6b376c0cabaac5b8cbf34e4d6c9989085eca697bd4ac"),
    "M5": ("040f1e7f807dfc02657bc4c20d6e78993ec92d8eb6c6a3bc3955eff379a43349",
           "cf6b5312b0e04b5bea0e7793abf0b1cfb57af0f60a49b1eb4bfaa31cd3f49f98"),
    "process-6-1": ("f3c79804ed1b27767ad8421fd64c86e628d04dbccb20703638c9c8864501aaaf",
                    "041e33a13baff006e53e3e90025c338c577a639061e591521930075a3312aba8"),
    "process-8-2": ("3bb03888bb30b2fd591b004e355233effdc1db45e917de99fe423df3d6cba260",
                    "55f1a569ff100229c35bf88bf57712545739faa3942b63187ed24a3b7e21ef36"),
    "process-10-3": ("25174223f27495823319310585eda16c1da6c235e20c4aafcc8720cec74bb499",
                     "65ac2184f5bf2b87da30c2367035eae58b7b145508885306beaa2fee44338d8a"),
    "process-12-4": ("a3dd80c833decd8ae5a6c68678c54ab03f54553ac7c8907e0b8800b204649c63",
                     "335fed944f2ce0aac3df0ada19452d09470d94e10f40f55a803f8e78593d9110"),
    "process-14-5": ("a313cca2e10f23ff456723096cdec022f201e3bf8312b632f1df84ae3733ffc1",
                     "6f37f4f5eb8d80a4f46b2ae36f47700127585eae01cd0a0412169a48e9ee8e23"),
    "process-15-6": ("5b754c8daa9e1e24fd528d8c31a3aa895227eec21e35735821048e3d57f25067",
                     "6a58562b6130b4c242426f2d59fca99d69d6f2565e33862d54bce371cdcd2c5d"),
    "process-16-7": ("73547b7734e6ace81c6b404e343dfe631ff46a329f2df6af32d26d78772cc3e4",
                     "09c6f5013c7092254a5bccb638292cd28b60c2967ef6ece6b36bc172d19eb044"),
    "process-17-8": ("0b37b99c3987ac9e9fc33b302595c2f684dc5aaf40512445c664448e131e6a3a",
                     "8d1e7bc36f1575ec10c8d3252cd320a682efc09820e498759a7f516507cda05a"),
    "process-18-9": ("c7124f5991c116f91cc469e3bded2e485c66751f2fdbefa6738b13a1f57e5429",
                     "db04ddf907744ee0438204a09974b25f5d91b685b275843b222f324219f3b647"),
    "process-20-10": ("ff6d791cdd303ef800007f64662f2fd7aa7ac1aba02879083a40554b2528ec94",
                      "5fff509f008c2103e27d83c5c848cd855cd26af6d17782d983c1cb7562b21ee8"),
}


# label: sha256 of the `flagify` stdout
FLAGIFY_REPORT_GOLDEN = {
    "C5": "bf2b17c0cc4a433d33dd956e39066f5200775a2cff11562378406f9f847f3b04",
    "grotzsch": "f5abbbdd46822227c713f6a29cd49037b1f24da37cacf41b02b025aa9daeb66a",
    "M5": "4c7e0ecf005227ca582419982c7679851d1bf5cd95064e783c45f9120fc52315",
    "process-6-1": "bf2b17c0cc4a433d33dd956e39066f5200775a2cff11562378406f9f847f3b04",
    "process-8-2": "3b4f93cbb38189823bdc0e11665ac8c736958731964a7ee0aee2f56e27b68392",
    "process-10-3": "0ae0ac061a8bd5f78782744b84cff4b9506c4980ab27a9b5ddc61963c9f35978",
    "process-12-4": "152e7b0e85990f63850b27c7b9a4aa88461e94db94f67cab1cb1fbcf7acb6ce4",
    "process-14-5": "07759e8a785d48a4f859cb448c9196042dc1b34a49f15d76a677fcef0918af38",
    "process-15-6": "d165a37a5e11992d092ad47a02cdde69c306e4210ca1735e70f6c949a1f9e3f1",
    "process-16-7": "39216ec0f118f9693ed3e01a98838f0a411f2cb73017fe31863619a01da79e32",
    "process-17-8": "e3c5c71682b0e85753beb18199bd342a9413b78cd9e246e73b2e65d6c1f0af19",
    "process-18-9": "55a64c322d22081d2cb1cfda2e2c107f3b65f4c5280812049fbc8a5d7d44546a",
    "process-20-10": "94b25c503baf2f77ab87c198963e6f013ecabe98de024045ff0e4953c31d3072",
}

# label: sha256 of the `certify --k chi` stdout, which holds solver_nodes
CERTIFY_GOLDEN = {
    "grotzsch": "a6a64277f2179f2766b5e9a4b0e8c8efc6cfd0a8f5f661a07ed1dfe0c79d12cf",
    "M5": "8166ae467803245e337c26541e2993a1788b6834b11aa3ebe307b8e773b2f8fd",
}

# label: sha256 of the write_coloring bytes of peel_color_3 with default
# parameters; every one of these peels colors exact4 patches
COLORING_GOLDEN = {
    "M5": "d959608d7027d7000b3a04613c881821f2b1d33d78e89f94fe5f11b41e44a4eb",
    "M6": "16e50a43cc5ba5950c91ca62d46f9e1d89e45e08018c64b6aec8ca3d90a0377e",
    "M7": "2725dcda40135038815c8c1483cbcb51f5bc9c8b1509c9bcc0dc9111bd04c080",
    "process-17-8": "735eaef69ddf61df30bdb865e3e98e3bca37d7fcad5a348630125a3759bac461",
    "process-18-9": "ca9213bbdc9ecc57c46d7cf30bbffa6fa57bc556c29819d0a3f2a999131d7b6c",
    "process-20-10": "21aa0c4debd1f2780ac070a246520c55c006ffd7a37276b78bfd59e9043ebf5c",
}


def _graph(label: str) -> Graph:
    if label == "C5":
        return Graph.cycle(5)
    if label == "grotzsch":
        return grotzsch_graph()
    if label == "M5":
        return mycielskian(grotzsch_graph())
    if label == "M6":
        return mycielskian(mycielskian(grotzsch_graph()))
    if label == "M7":
        return mycielskian(mycielskian(mycielskian(grotzsch_graph())))
    _, n, seed = label.split("-")
    return triangle_free_process(int(n), int(seed))


CASES = [("C5", 6), ("grotzsch", 11), ("M5", 23)]
CASES += [(f"process-{n}-{seed}", n) for n, seed in PROCESS_CASES]


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("label,n", CASES, ids=[label for label, _ in CASES])
def test_flagify_bytes_match_the_golden_hashes(label, n, tmp_path):
    X, _, trace = flagify(_graph(label), n)
    write_complex(X, tmp_path / "complex.txt")
    write_trace(trace, tmp_path / "trace.txt")
    assert (_sha256(tmp_path / "complex.txt"), _sha256(tmp_path / "trace.txt")) == GOLDEN[label]
    # the replayed trace writes the same bytes
    write_complex(replay(cyclic_4_sphere(n), trace), tmp_path / "replay.txt")
    assert (tmp_path / "replay.txt").read_bytes() == (tmp_path / "complex.txt").read_bytes()


@pytest.mark.parametrize("label,n", CASES, ids=[label for label, _ in CASES])
def test_flagify_report_matches_the_golden_hash(label, n, tmp_path):
    write_graph(_graph(label), tmp_path / "graph.txt")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([
            "flagify", "--graph", str(tmp_path / "graph.txt"), "--n", str(n),
            "--out", str(tmp_path / "complex.txt"),
        ])
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == FLAGIFY_REPORT_GOLDEN[label]


@pytest.mark.parametrize("label,n,k", [("grotzsch", 11, 4), ("M5", 23, 5)])
def test_certify_report_matches_the_golden_hash(label, n, k, tmp_path):
    g = _graph(label)
    X, _, _ = flagify(g, n)
    write_complex(X, tmp_path / "complex.txt")
    write_graph(g, tmp_path / "graph.txt")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([
            "certify", "--in", str(tmp_path / "complex.txt"),
            "--graph", str(tmp_path / "graph.txt"), "--k", str(k),
        ])
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == CERTIFY_GOLDEN[label]


COLORING_CASES = [("M5", 23), ("M6", 47), ("M7", 95), ("process-17-8", 17),
                  ("process-18-9", 18), ("process-20-10", 20)]


@pytest.mark.parametrize("label,n", COLORING_CASES, ids=[label for label, _ in COLORING_CASES])
def test_peel_coloring_bytes_match_the_golden_hash(label, n, tmp_path):
    X, _, _ = flagify(_graph(label), n)
    write_coloring(peel_color_3(X), tmp_path / "coloring.txt")
    assert _sha256(tmp_path / "coloring.txt") == COLORING_GOLDEN[label]


def test_m6_exceedance_search_node_count():
    m6 = _graph("M6")
    assert chromatic_number_exact(m6, limit=5).nodes == 450198


def _sixteen_cell_facets():
    sq1 = [(0, 1), (1, 2), (2, 3), (3, 0)]
    sq2 = [(4, 5), (5, 6), (6, 7), (7, 4)]
    return [sorted(set(a) | set(b)) for a in sq1 for b in sq2]


def _verify_input(label: str):
    """The complex a verify pin reads: a flagified sphere or a failing input."""
    if label == "cyclic-7":
        return cyclic_4_sphere(7)  # not flag
    if label == "two-16-cells":
        facets = _sixteen_cell_facets()
        return build_from_facets(facets + [[v + 8 for v in f] for f in facets])
    if label == "16-cell-minus-facet":
        return build_from_facets(_sixteen_cell_facets()[1:])  # ridges in one facet
    n = dict(COLORING_CASES)[label]
    X, _, _ = flagify(_graph(label), n)
    return X


# label: sha256 of the `verify --seed 1` stdout
VERIFY_GOLDEN = {
    "M5": "9eb125495a23e1eb53aa0b98a01aedf92e381c8a83cb0663fe28272a4fdecceb",
    "M6": "b3d74cfb51cc143c74afcca6989dfcc26f334169b077a715cde28304227b143c",
    "process-17-8": "71d901327f982d94d7a8a7496abf5b9b105a1d67913ef07edfee2cf9866431f3",
    "process-18-9": "71c9d89ddfccf99180453d1fb0dca0b14c533d02879650ed48a8cd2f308dbbc6",
    "process-20-10": "03eb1b9f5b19128eefc22c4830d940a668df0b1f3902eed503ffc5cfeab9fa34",
    "cyclic-7": "f0bbd5f619d1fdc95f120f321e2d069abf89ddef66b4b2e8ecfb87628b79304f",
    "two-16-cells": "dcf12b03cd9af91a74b973c5f43638e11bcb1a4ece10c574a774cf0f7c62fec4",
    "16-cell-minus-facet": "24245a30bf78d4a9e5db295cd0bef1447d037727efc3de304369ae7ab92fd677",
}


@pytest.mark.parametrize("label", list(VERIFY_GOLDEN))
def test_verify_report_matches_the_golden_hash(label, tmp_path):
    write_complex(_verify_input(label), tmp_path / "complex.txt")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify", "--in", str(tmp_path / "complex.txt"), "--seed", "1"])
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == VERIFY_GOLDEN[label]
