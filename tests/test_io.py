"""File formats: round trips, determinism, parse failures."""

import pytest

from flagsphere import Graph, cyclic_4_sphere, flagify, grotzsch_graph, subdivide_edge
from flagsphere.errors import ParseError
from flagsphere.io import (
    read_complex,
    read_graph,
    read_trace,
    write_coloring,
    write_complex,
    write_graph,
    write_trace,
)


def test_complex_roundtrip_with_subdivision_tags(tmp_path):
    X, _ = subdivide_edge(cyclic_4_sphere(7), (0, 2))
    path = tmp_path / "c.txt"
    write_complex(X, path)
    assert read_complex(path) == X


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
