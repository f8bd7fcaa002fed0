"""File formats: round trips, determinism, parse failures."""

import pytest

from flagsphere import (
    Graph,
    SimplicialComplex,
    cyclic_4_sphere,
    flagify,
    grotzsch_graph,
    mycielskian,
    subdivide_edge,
    triangle_free_process,
)
from flagsphere.errors import ParseError, UnknownVertex
from flagsphere.io import (
    read_complex,
    read_graph,
    read_trace,
    write_coloring,
    write_complex,
    write_graph,
    write_trace,
)

from conftest import BAD_TAG_FILES, PROCESS_CASES, read_complex_reference


def test_complex_roundtrip_with_subdivision_tags(tmp_path):
    X, _ = subdivide_edge(cyclic_4_sphere(7), (0, 2))
    path = tmp_path / "c.txt"
    write_complex(X, path)
    assert read_complex(path) == X


def test_complex_writer_refuses_a_vertex_without_parent_entry(tmp_path):
    # the trusting constructor takes a parent map that misses vertices
    X, _ = subdivide_edge(SimplicialComplex(cyclic_4_sphere(6).facets, {}), (0, 1))
    path = tmp_path / "c.txt"
    with pytest.raises(UnknownVertex, match=r"vertices \[0, 1, 2, 3, 4, 5\] have no parent"):
        write_complex(X, path)
    assert not path.exists()


def test_complex_writer_deterministic(tmp_path):
    X = cyclic_4_sphere(8)
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    write_complex(X, a)
    write_complex(X, b)
    assert a.read_bytes() == b.read_bytes()


def test_complex_comments_ignored(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("# comment\n0 1 2\n1 2 3\n# another\n")
    X = read_complex(path)
    assert X.facet_count == 2


def test_complex_mixed_sizes_is_parse_error(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0 1 2\n0 1\n")
    with pytest.raises(ParseError):
        read_complex(path)


def test_complex_incomplete_tags_rejected(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0 1 2\ntags:\n0 original 1\n1 original 2\n")
    with pytest.raises(ParseError):
        read_complex(path)



def test_complex_facet_with_a_repeated_vertex_rejected(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0 1 2 3\n0 1 2 4 4\n")
    with pytest.raises(ParseError, match="repeats a vertex"):
        read_complex(path)


def test_complex_tag_for_a_vertex_in_no_facet_rejected(tmp_path):
    path = tmp_path / "bad.txt"
    tags = "".join(f"{v} original {v + 1}\n" for v in range(3))
    path.write_text(f"0 1 2\ntags:\n{tags}9 original 10\n")
    with pytest.raises(ParseError, match=r"\[9\]"):
        read_complex(path)


def test_complex_vertex_tagged_twice_rejected(tmp_path):
    path = tmp_path / "bad.txt"
    tags = "".join(f"{v} original {v + 1}\n" for v in range(4))
    path.write_text(f"0 1 2 3\n1 2 3 4\ntags:\n{tags}4 original 5\n4 original 9\n")
    with pytest.raises(ParseError, match="tagged twice"):
        read_complex(path)

def test_complex_garbage_rejected(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0 1 two\n")
    with pytest.raises(ParseError):
        read_complex(path)


def test_graph_roundtrip(tmp_path):
    g = grotzsch_graph()
    path = tmp_path / "g.txt"
    write_graph(g, path)
    assert read_graph(path) == g


def test_graph_header_mismatch(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("3 2\n0 1\n")
    with pytest.raises(ParseError):
        read_graph(path)


def test_graph_repeated_edge_rejected(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("6 2\n0 2\n2 0\n")
    with pytest.raises(ParseError, match="repeats an edge"):
        read_graph(path)


def test_complex_negative_vertex_rejected(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0 1 2\n-1 1 2\n")
    with pytest.raises(ParseError, match="negative vertex id -1"):
        read_complex(path)


def test_graph_out_of_range_edge(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("3 1\n0 5\n")
    with pytest.raises(ParseError):
        read_graph(path)


def test_trace_roundtrip(tmp_path):
    _, _, trace = flagify(Graph.cycle(5), 7)
    path = tmp_path / "t.txt"
    write_trace(trace, path)
    assert read_trace(path) == trace


def test_trace_bad_line(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("subdiv 0 1 2\n")
    with pytest.raises(ParseError):
        read_trace(path)


def test_coloring_roundtrip(tmp_path):
    from flagsphere.coloring import greedy_degeneracy_color

    col = greedy_degeneracy_color(grotzsch_graph())
    path = tmp_path / "col.txt"
    write_coloring(col, path)
    comment, *lines = path.read_text(encoding="utf-8").splitlines()
    assert comment.startswith("#")
    # one "vertex color" line per vertex, in increasing vertex order
    pairs = [tuple(map(int, line.split())) for line in lines]
    assert pairs == sorted(col.assignment.items())


# every file here is malformed: the reader and its reference oracle both refuse it
MALFORMED_COMPLEX_FILES = {
    "repeated-id": "0 1 2 3\n1 2 3 3\n",
    "repeated-id-mixed-sizes": "0 1 2 3\n0 1 2 4 4\n",
    "missing-tag": "0 1 2\ntags:\n0 original 1\n1 original 2\n",
    "extra-tag": "0 1 2\ntags:\n0 original 1\n1 original 2\n2 original 3\n9 original 10\n",
    "mixed-sizes": "0 1 2\n3 4\n",
    "duplicate-facet-reordered": "0 1 2\n2 0 1\n",
    "dominated-facet": "0 1 2 3\n1 2 3\n",
    "negative-id": "0 1 2\n-1 1 2\n",
    "garbage-token": "0 1 two\n",
    "bad-tag-line": "0 1 2\ntags:\n0 original 1\n1 original 2\n2 subdiv 0 1\n",
    "tagged-twice": "0 1 2\ntags:\n0 original 1\n1 original 2\n2 original 3\n2 original 3\n",
    "tags-before-facets": "tags:\n0 original 1\n1 original 2\n2 original 3\n",
    "empty": "",
    "only-comments": "# no facets\n",
    "second-tags-header": "0 1 2\ntags:\n0 original 1\n1 original 2\n2 original 3\ntags:\n",
    **BAD_TAG_FILES,
}


@pytest.mark.parametrize("text", MALFORMED_COMPLEX_FILES.values(), ids=MALFORMED_COMPLEX_FILES)
def test_reader_and_reference_refuse_the_malformed_corpus(tmp_path, text):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(ParseError):
        read_complex_reference(path)
    with pytest.raises(ParseError):
        read_complex(path)


# ids are ASCII decimals: int() would also take these spellings, so each file
# below would otherwise read as a valid complex, graph or trace
_SIMPLEX_HEAD = "0 1 2 3\n0 1 2 4\n0 1 3 4\n0 2 3 4\n"
INTEGER_SPELLINGS = {
    "complex-underscore": (read_complex, _SIMPLEX_HEAD + "1 2 3 1_0\n"),
    "complex-plus": (read_complex, _SIMPLEX_HEAD + "1 2 3 +4\n"),
    "complex-arabic-indic-digit": (read_complex, _SIMPLEX_HEAD + "1 2 3 ٤\n"),
    "complex-no-break-space": (read_complex, _SIMPLEX_HEAD + "1 2 3\u00a04\n"),
    "complex-tag-plus": (
        read_complex,
        _SIMPLEX_HEAD + "1 2 3 4\ntags:\n"
        + "".join(f"{v} original {v + 1}\n" for v in range(4)) + "4 original +5\n",
    ),
    "graph-underscore": (read_graph, "11 1\n0 1_0\n"),
    "graph-plus": (read_graph, "+3 1\n0 1\n"),
    "graph-arabic-indic-digit": (read_graph, "3 1\n0 ١\n"),
    "trace-underscore": (read_trace, "subdiv 0 1 -> 1_0\n"),
    "trace-plus": (read_trace, "subdiv 0 +1 -> 6\n"),
    "trace-arabic-indic-digit": (read_trace, "subdiv 0 1 -> ٦\n"),
}


@pytest.mark.parametrize("reader,text", INTEGER_SPELLINGS.values(), ids=INTEGER_SPELLINGS)
def test_reader_refuses_integer_spellings_the_formats_do_not_have(tmp_path, reader, text):
    path = tmp_path / "bad.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError, match="bad characters"):
        reader(path)


# the flagify inputs of the golden corpus: (label, graph, n)
GOLDEN_CORPUS = [
    ("C5", Graph.cycle(5), 6),
    ("grotzsch", grotzsch_graph(), 11),
    ("M5", mycielskian(grotzsch_graph()), 23),
] + [(f"process-{n}-{seed}", triangle_free_process(n, seed), n) for n, seed in PROCESS_CASES]


WELL_FORMED_COMPLEX_FILES = {
    "unsorted-with-comments": "# header\n3 1 0 2\n\n  4 2 1 3  \n# between\n0 4 2 1\n",
    "no-tag-block": "0 1 2\n1 2 3\n",
    "comment-with-any-characters": "# ٤ 1_0 +4\n0 1 2\n1 2 3\n",
    "subdivision-tags": (
        "0 1 2\n1 2 3\ntags:\n3 subdiv 0 2 1\n0 original 1\n2 original 3\n1 original 2\n"
    ),
}


@pytest.mark.parametrize("label", WELL_FORMED_COMPLEX_FILES)
def test_reader_and_reference_agree_on_well_formed_files(tmp_path, label):
    path = tmp_path / "c.txt"
    path.write_text(WELL_FORMED_COMPLEX_FILES[label], encoding="utf-8")
    X, reference = read_complex(path), read_complex_reference(path)
    assert X == reference and X.vertices == reference.vertices


@pytest.mark.parametrize("label,g,n", GOLDEN_CORPUS, ids=[label for label, _, _ in GOLDEN_CORPUS])
def test_reader_and_reference_agree_on_the_golden_corpus(tmp_path, label, g, n):
    X, _, _ = flagify(g, n)
    path = tmp_path / f"{label}.txt"
    write_complex(X, path)
    assert read_complex(path) == read_complex_reference(path) == X
