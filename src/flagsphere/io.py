"""Text file formats for complexes, graphs, traces, and colorings.

All formats allow '#' comment lines. Writers are deterministic: facets and
edges are emitted in lexicographic order so reruns produce byte-identical
files.
"""

from __future__ import annotations

from pathlib import Path

from .complexes import (
    OriginalTag,
    SimplicialComplex,
    SubdivisionTag,
    build_from_facets,
)
from .errors import FlagsphereError, ParseError
from .graphs import Coloring, Graph


def _data_lines(text: str) -> list[str]:
    out = []
    for raw in text.splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            out.append(line)
    return out


# -- complex files --------------------------------------------------------------
# facet lines: space-separated decimal vertex ids, one facet per line
# optional trailing block: a "tags:" line, then one line per vertex, either
#   "<id> original <position>"  or  "<id> subdiv <u> <v> <step>"


def write_complex(X: SimplicialComplex, path: str | Path) -> None:
    lines = ["# flagsphere complex: one facet per line"]
    for facet in sorted(X.facets):
        lines.append(" ".join(str(v) for v in facet))
    lines.append("tags:")
    for v in X.vertices:
        tag = X.tags[v]
        if isinstance(tag, OriginalTag):
            lines.append(f"{v} original {tag.position}")
        else:
            u, w = tag.parent_edge
            lines.append(f"{v} subdiv {u} {w} {tag.step}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_complex(path: str | Path) -> SimplicialComplex:
    lines = _data_lines(Path(path).read_text(encoding="utf-8"))
    facets: list[frozenset[int]] = []
    tags: dict[int, object] = {}
    in_tags = False
    for line in lines:
        if line == "tags:":
            if in_tags:
                raise ParseError("duplicate tags: header")
            in_tags = True
            continue
        parts = line.split()
        if not in_tags:
            try:
                facets.append(frozenset(map(int, parts)))
            except ValueError as exc:
                raise ParseError(f"bad facet line {line!r}") from exc
            if len(facets[-1]) != len(parts):
                raise ParseError(f"facet line {line!r} repeats a vertex")
        else:
            try:
                vid = int(parts[0])
                kind = parts[1]
                if vid in tags:
                    raise ParseError(f"vertex {vid} tagged twice")
                if kind == "original" and len(parts) == 3:
                    tags[vid] = OriginalTag(position=int(parts[2]))
                elif kind == "subdiv" and len(parts) == 5:
                    tags[vid] = SubdivisionTag(
                        parent_edge=(int(parts[2]), int(parts[3])), step=int(parts[4])
                    )
                else:
                    raise ValueError
            except (ValueError, IndexError) as exc:
                raise ParseError(f"bad tag line {line!r}") from exc
    try:
        complex_ = build_from_facets(facets, tags if tags else None)
    except FlagsphereError as exc:
        # malformed file contents surface as a parse failure
        raise ParseError(f"invalid complex file: {exc}") from exc
    if tags:
        missing = set(complex_.vertices) - set(tags)
        extra = set(tags) - set(complex_.vertices)
        if missing or extra:
            raise ParseError(
                f"tag block incomplete: missing {sorted(missing)}, extra {sorted(extra)}"
            )
    return complex_


# -- graph files -----------------------------------------------------------------
# first data line "n m", then m lines "u v" with 0-indexed endpoints


def write_graph(g: Graph, path: str | Path) -> None:
    lines = ["# flagsphere graph: 'n m' then one edge per line"]
    lines.append(f"{g.n} {g.edge_count}")
    for u, v in g.edges:
        lines.append(f"{u} {v}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_graph(path: str | Path) -> Graph:
    lines = _data_lines(Path(path).read_text(encoding="utf-8"))
    if not lines:
        raise ParseError("empty graph file")
    try:
        n, m = (int(p) for p in lines[0].split())
    except ValueError as exc:
        raise ParseError(f"bad graph header {lines[0]!r}") from exc
    if len(lines) - 1 != m:
        raise ParseError(f"header declares {m} edges, file has {len(lines) - 1}")
    edges = []
    for line in lines[1:]:
        try:
            u, v = (int(p) for p in line.split())
        except ValueError as exc:
            raise ParseError(f"bad edge line {line!r}") from exc
        edges.append((u, v))
    try:
        g = Graph(n, edges)
    except ValueError as exc:
        raise ParseError(f"invalid graph file: {exc}") from exc
    if g.edge_count != m:
        raise ParseError(f"graph file repeats an edge: {g.edge_count} distinct of {m} listed")
    return g


# -- trace files -----------------------------------------------------------------
# one event per line: "subdiv u v -> w" in application order


def write_trace(trace: tuple[tuple[int, int, int], ...], path: str | Path) -> None:
    lines = ["# flagsphere subdivision trace"]
    for u, v, w in trace:
        lines.append(f"subdiv {u} {v} -> {w}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_trace(path: str | Path) -> tuple[tuple[int, int, int], ...]:
    events = []
    for line in _data_lines(Path(path).read_text(encoding="utf-8")):
        parts = line.split()
        if len(parts) != 5 or parts[0] != "subdiv" or parts[3] != "->":
            raise ParseError(f"bad trace line {line!r}")
        try:
            events.append((int(parts[1]), int(parts[2]), int(parts[4])))
        except ValueError as exc:
            raise ParseError(f"bad trace line {line!r}") from exc
    return tuple(events)


# -- coloring files ---------------------------------------------------------------
# one line per vertex: "vertexId colorId"


def write_coloring(coloring: Coloring, path: str | Path) -> None:
    lines = ["# flagsphere coloring: vertexId colorId"]
    for v in sorted(coloring.assignment):
        lines.append(f"{v} {coloring.assignment[v]}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_coloring(path: str | Path) -> Coloring:
    assignment: dict[int, int] = {}
    for line in _data_lines(Path(path).read_text(encoding="utf-8")):
        try:
            v, c = (int(p) for p in line.split())
        except ValueError as exc:
            raise ParseError(f"bad coloring line {line!r}") from exc
        if v in assignment:
            raise ParseError(f"vertex {v} colored twice")
        assignment[v] = c
    return Coloring.from_assignment(assignment)
