"""Text file formats for complexes, graphs, traces, and colorings.

All formats allow '#' comment lines. Writers are deterministic: facets and
edges are emitted in lexicographic order so reruns produce byte-identical
files.
"""

from __future__ import annotations

from pathlib import Path

from .complexes import SimplicialComplex, build_from_facets
from .errors import FlagsphereError, ParseError, UnknownVertex
from .graphs import Coloring, Graph


def _data_lines(path: str | Path) -> list[str]:
    """The file's lines, stripped, without blank and '#' lines; bytes that are
    not UTF-8 are a ParseError, and so is a data line that is not ASCII or has
    a '_' or '+', which int() would take in a number the formats do not have."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}") from exc
    out = []
    for raw in text.splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            if not raw.isascii() or "_" in line or "+" in line:
                raise ParseError(f"bad characters in line {line!r}")
            out.append(line)
    return out


# -- complex files --------------------------------------------------------------
# facet lines: space-separated decimal vertex ids, one facet per line
# optional trailing block: a "tags:" line, then one line per vertex, either
#   "<id> original <position>"  or  "<id> subdiv <u> <v> <step>"
# the ids fix the rest: a position is id + 1 and the steps run 1, 2, ... in id order;
# a complex keeps only X.parents: None for "original", (u, v) for "subdiv u v"


def write_complex(X: SimplicialComplex, path: str | Path) -> None:
    missing = [v for v in X.vertices if v not in X.parents]
    if missing:
        raise UnknownVertex(f"vertices {missing} have no parent entry")
    template = " ".join(["%d"] * (X.dimension + 1))
    lines = ["# flagsphere complex: one facet per line"]
    lines += [template % facet for facet in sorted(X.facets)]
    lines.append("tags:")
    step = 0
    for v in X.vertices:
        edge = X.parents[v]
        if edge is None:
            lines.append(f"{v} original {v + 1}")
        else:
            step += 1
            lines.append(f"{v} subdiv {edge[0]} {edge[1]} {step}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_complex(path: str | Path) -> SimplicialComplex:
    """Tokenise a complex file for build_from_facets, the one check of complex data.
    Only a line off the format above, a second "tags:" header or a repeated tag is refused here."""
    facets: list[tuple[int, ...]] = []
    parents: dict[int, tuple[int, int] | None] = {}
    steps: dict[int, int] = {}
    in_tags = False
    for line in _data_lines(path):
        if line == "tags:":
            if in_tags:
                raise ParseError("duplicate tags: header")
            in_tags = True
            continue
        parts = line.split()
        if not in_tags:
            try:
                facets.append(tuple(map(int, parts)))
            except ValueError as exc:
                raise ParseError(f"bad facet line {line!r}") from exc
        else:
            try:
                vid = int(parts[0])
                kind = parts[1]
                if vid in parents:
                    raise ParseError(f"vertex {vid} tagged twice")
                if kind == "original" and len(parts) == 3 and int(parts[2]) == vid + 1:
                    parents[vid] = None
                elif kind == "subdiv" and len(parts) == 5:
                    parents[vid] = (int(parts[2]), int(parts[3]))
                    steps[vid] = int(parts[4])
                else:
                    raise ValueError
            except (ValueError, IndexError) as exc:
                raise ParseError(f"bad tag line {line!r}") from exc
    if [steps[v] for v in sorted(steps)] != list(range(1, len(steps) + 1)):
        raise ParseError("subdivision steps do not run 1, 2, ... in id order")
    try:
        return build_from_facets(facets, parents if in_tags else None)
    except FlagsphereError as exc:
        # malformed file contents surface as a parse failure
        raise ParseError(f"invalid complex file: {exc}") from exc


# -- graph files -----------------------------------------------------------------
# first data line "n m", then m lines "u v" with 0-indexed endpoints


def write_graph(g: Graph, path: str | Path) -> None:
    lines = ["# flagsphere graph: 'n m' then one edge per line"]
    lines.append(f"{g.n} {g.edge_count}")
    for u, v in g.edges:
        lines.append(f"{u} {v}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_graph(path: str | Path) -> Graph:
    lines = _data_lines(path)
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
    for line in _data_lines(path):
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
