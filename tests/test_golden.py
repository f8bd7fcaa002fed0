"""Golden hashes of the flagify corpus: complex and trace bytes are pinned.

The SHA-256 values were computed with the snapshot-per-round flagify kernel
that preceded the indexed builder, before that kernel changed. Any change to
the selection order, the repair rule, vertex numbering or the file formats
shows up here. Never regenerate them to make a change pass.
"""

import hashlib

import pytest

from flagsphere import Graph, cyclic_4_sphere, flagify, grotzsch_graph, mycielskian, replay
from flagsphere import triangle_free_process
from flagsphere.io import write_complex, write_trace

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


def _graph(label: str) -> Graph:
    if label == "C5":
        return Graph.cycle(5)
    if label == "grotzsch":
        return grotzsch_graph()
    if label == "M5":
        return mycielskian(grotzsch_graph())
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
    write_complex(replay(cyclic_4_sphere(n).complex, trace), tmp_path / "replay.txt")
    assert (tmp_path / "replay.txt").read_bytes() == (tmp_path / "complex.txt").read_bytes()
