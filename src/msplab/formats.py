"""Plain-text instance and graph formats.

Instance documents are line oriented::

    # comment
    msp 1
    stages 3
    vertex S 0
    vertex a 1
    edge 0 S a 1
    eset a 0 2 5

Canonical form sorts vertices by (stage, name), edges by id (ids are dense in
(stage, source, target) order), eset members ascending, one eset line per
non-source vertex.  ``serialize(parse(doc))`` is the canonical form of any
valid document, and two structurally equal graphs serialize to identical
bytes.

Undirected graphs are one ``u v`` edge per line with positive integer
vertices, plus an optional ``vertices N`` header so isolated vertices
survive a round trip.  The header may appear once, N must be positive, and
no endpoint may exceed it; without it, N is the largest endpoint.

Integers in both formats are ASCII digits with an optional leading minus:
``+3``, ``1_0`` and non-ASCII digits are ``E_BAD_INT``.

Both parsers reject a stage count or vertex count above :data:`MAX_COUNT`
with ``E_TOO_LARGE`` before anything is sized by it, so a few bytes of
input cannot ask for gigabytes.
"""

from __future__ import annotations

import re

from .model import GraphStructureError, MultistageGraph, edge_ids
from .reduction import UndirectedGraph


# Largest stage count of an instance and largest vertex count of an
# undirected graph.  Of the graphs of order 1,000, ``reduce_hc_to_msp``
# builds only those with at most 134 edges, all at the pivot (see
# ``reduction.MAX_REDUCTION_BITS``): about 10^6 staged vertices, 0.6 GB.  A
# 1,000-stage chain takes the solver seconds.
MAX_COUNT = 1000


class InstanceParseError(ValueError):
    def __init__(self, code: str, message: str, line: int | None = None, column: int | None = None):
        self.code = code
        self.line = line
        self.column = column
        where = "" if line is None else f" (line {line}" + (
            f", column {column})" if column is not None else ")"
        )
        super().__init__(f"{code}: {message}{where}")


def _tokenize(text: str):
    """Yield (line number, column of first token, tokens) for meaningful lines."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        stripped = line.strip()
        if not stripped:
            continue
        yield lineno, line.index(stripped[0]) + 1, stripped.split()


_INT = re.compile(r"-?[0-9]+")


def _int_field(token: str, what: str, lineno: int) -> int:
    """``token`` as an integer, spelled in ASCII digits with an optional minus."""
    try:
        if _INT.fullmatch(token):
            return int(token)
    except ValueError:  # more digits than int() converts
        pass
    raise InstanceParseError("E_BAD_INT", f"{what} must be an integer, got {token!r}", lineno)


def _check_count(count: int, what: str, lineno: int | None = None) -> None:
    if count > MAX_COUNT:
        raise InstanceParseError("E_TOO_LARGE", f"{what} {count} exceeds {MAX_COUNT}", lineno)


def parse_instance(text: str) -> MultistageGraph:
    """Strict parse of an instance document.

    Syntax problems raise :class:`InstanceParseError` with a code and line;
    structural questions beyond representability (multiple sources, stage
    skew, missing edge sets) are left to ``validate``.
    """
    lines = list(_tokenize(text))
    if not lines:
        raise InstanceParseError("E_EMPTY", "no content")
    lineno, col, tokens = lines[0]
    if tokens != ["msp", "1"]:
        raise InstanceParseError("E_BAD_HEADER", "first directive must be 'msp 1'", lineno, col)

    stages: int | None = None
    vertices: dict[str, int] = {}  # name -> stage
    edges_by_fileid: dict[int, tuple[str, str, int]] = {}
    eset_lines: dict[str, tuple[int, list[int]]] = {}  # vertex -> (line, members)

    for lineno, col, tokens in lines[1:]:
        directive, args = tokens[0], tokens[1:]
        if directive == "stages":
            if stages is not None:
                raise InstanceParseError("E_DUPLICATE_STAGES", "stages given twice", lineno)
            if len(args) != 1:
                raise InstanceParseError("E_SYNTAX", "stages takes one argument", lineno)
            stages = _int_field(args[0], "stage count", lineno)
            _check_count(stages, "stage count", lineno)
        elif directive == "vertex":
            if len(args) != 2:
                raise InstanceParseError("E_SYNTAX", "vertex takes NAME STAGE", lineno)
            name, stage = args[0], _int_field(args[1], "vertex stage", lineno)
            if name in vertices:
                raise InstanceParseError("E_DUPLICATE_VERTEX", f"vertex {name!r} declared twice", lineno)
            vertices[name] = stage
        elif directive == "edge":
            if len(args) != 4:
                raise InstanceParseError("E_SYNTAX", "edge takes ID FROM TO STAGE", lineno)
            fileid = _int_field(args[0], "edge id", lineno)
            if fileid in edges_by_fileid:
                raise InstanceParseError("E_DUPLICATE_EDGE", f"edge id {fileid} declared twice", lineno)
            stage = _int_field(args[3], "edge stage", lineno)
            edges_by_fileid[fileid] = (args[1], args[2], stage)
        elif directive == "eset":
            if not args:
                raise InstanceParseError("E_SYNTAX", "eset takes VERTEX [ID...]", lineno)
            if args[0] in eset_lines:
                raise InstanceParseError("E_DUPLICATE_ESET", f"eset for {args[0]!r} given twice", lineno)
            eset_lines[args[0]] = lineno, [_int_field(t, "edge id", lineno) for t in args[1:]]
        else:
            raise InstanceParseError("E_SYNTAX", f"unknown directive {directive!r}", lineno, col)

    if stages is None:
        raise InstanceParseError("E_MISSING_STAGES", "no stages directive")

    esets: dict[str, list[tuple[str, str, int]]] = {}
    for vname, (lineno, members) in eset_lines.items():
        if vname not in vertices:
            raise InstanceParseError("E_UNKNOWN_VERTEX", f"eset for undeclared vertex {vname!r}", lineno)
        triples = []
        for fileid in members:
            if fileid not in edges_by_fileid:
                raise InstanceParseError("E_UNKNOWN_EDGE", f"eset references unknown edge id {fileid}", lineno)
            triples.append(edges_by_fileid[fileid])
        esets[vname] = triples

    try:
        return MultistageGraph(stages, vertices.items(), edges_by_fileid.values(), esets)
    except GraphStructureError as exc:
        raise InstanceParseError("E_STRUCTURE", str(exc)) from exc


def serialize_instance(g: MultistageGraph) -> str:
    """Canonical document for a graph (requires token-safe vertex names)."""
    for name in g.vertex_names():
        if not name or any(ch.isspace() for ch in name) or "#" in name:
            raise ValueError(f"vertex name {name!r} cannot be serialized")
    out = ["msp 1", f"stages {g.stage_count}"]
    for stage in range(g.stage_count + 1):
        for name in g.stage_vertex_names(stage):
            out.append(f"vertex {name} {stage}")
    for eid in range(g.edge_count):
        src, dst, stage = g.edge_triple(eid)
        out.append(f"edge {eid} {src} {dst} {stage}")
    for stage in range(g.stage_count + 1):
        for name in g.stage_vertex_names(stage):
            if g.has_eset(name):
                members = " ".join(str(i) for i in edge_ids(g.eset(name)))
                out.append(f"eset {name} {members}".rstrip())
    return "\n".join(out) + "\n"


def parse_ugraph(text: str) -> UndirectedGraph:
    """Parse the undirected edge-list format."""
    declared_n: int | None = None
    pairs: list[tuple[int, int]] = []
    max_seen = max_line = 0
    for lineno, col, tokens in _tokenize(text):
        if tokens[0] == "vertices":
            if declared_n is not None:
                raise InstanceParseError("E_DUPLICATE_VERTICES", "vertices given twice", lineno)
            if len(tokens) != 2:
                raise InstanceParseError("E_SYNTAX", "vertices takes one count", lineno)
            declared_n = _int_field(tokens[1], "vertex count", lineno)
            if declared_n < 1:
                raise InstanceParseError("E_BAD_VERTEX", "the vertex count must be positive", lineno)
            _check_count(declared_n, "vertex count", lineno)
            continue
        if len(tokens) != 2:
            raise InstanceParseError("E_SYNTAX", "expected 'u v' edge line", lineno, col)
        u = _int_field(tokens[0], "vertex", lineno)
        v = _int_field(tokens[1], "vertex", lineno)
        if u < 1 or v < 1:
            raise InstanceParseError("E_BAD_VERTEX", "vertices are positive integers", lineno)
        if u == v:
            raise InstanceParseError("E_SELF_LOOP", f"self-loop at {u}", lineno)
        lo, hi = min(u, v), max(u, v)
        _check_count(hi, "vertex", lineno)
        pairs.append((lo, hi))
        if hi > max_seen:
            max_seen, max_line = hi, lineno
    if declared_n is not None and max_seen > declared_n:
        raise InstanceParseError("E_BAD_VERTEX", f"vertex {max_seen} above the declared {declared_n}", max_line)
    n = max_seen if declared_n is None else declared_n
    if n == 0:
        raise InstanceParseError("E_EMPTY", "no content")
    return UndirectedGraph.from_pairs(n, pairs)


def serialize_ugraph(ug: UndirectedGraph) -> str:
    out = [f"vertices {ug.n}"]
    out.extend(f"{u} {v}" for u, v in sorted(ug.edges))
    return "\n".join(out) + "\n"
