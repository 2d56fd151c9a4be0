"""Hamilton circuit -> multistage simple path transformation.

An undirected graph of order n becomes an n-stage labeled multistage graph:
pick a pivot vertex, make stage copies (u, l) of every other vertex u for
stages 1..n-1, route every non-pivot edge in both directions between all
consecutive internal stages, and attach the pivot's edges at stage 1 and
stage n.  The edge set of (u, l) excludes every edge incident to an earlier
copy of u, which permits u at stage l while forbidding it at earlier stages;
a simple path in the result is exactly a Hamilton circuit of the input read
through the stage copies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .model import AbnormalTerminationError, EdgeTriple, MultistageGraph


class ReductionError(ValueError):
    pass


class LiftError(ValueError):
    pass


@dataclass(frozen=True)
class UndirectedGraph:
    """Simple undirected graph on vertices 1..n."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop at {u}")
            if not (1 <= u < v <= self.n):
                raise ValueError(f"edge ({u}, {v}) not normalized within 1..{self.n}")

    @staticmethod
    def from_pairs(n: int, pairs) -> "UndirectedGraph":
        return UndirectedGraph(n, frozenset(tuple(sorted(p)) for p in pairs))

    def vertices(self) -> tuple[int, ...]:
        return tuple(range(1, self.n + 1))

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges

    def adjacency(self) -> dict[int, tuple[int, ...]]:
        adj: dict[int, list[int]] = {v: [] for v in self.vertices()}
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return {v: tuple(sorted(ws)) for v, ws in adj.items()}


@dataclass
class ReductionMap:
    """Bookkeeping for mapping witnesses back from the staged graph."""

    pivot: int
    forward: dict[tuple[int, int], str]  # (source vertex, stage) -> staged name
    stats: dict[str, int]
    graph: MultistageGraph
    _backward: dict[str, int] = field(default_factory=dict)

    def source_vertex_of(self, staged_name: str) -> int:
        return self._backward[staged_name]


def _staged_name(u: int, stage: int) -> str:
    return f"{u}@{stage}"


def reduce_hc_to_msp(
    ug: UndirectedGraph, pivot: int | None = None
) -> tuple[MultistageGraph, ReductionMap]:
    """Transform a Hamilton-circuit instance into a simple-path instance.

    The pivot defaults to the lowest-numbered vertex.  Requires n >= 3 (no
    shorter circuit exists).  The result has (n-1)^2 internal vertices and at
    most 2*n^3 edges.
    """
    n = ug.n
    if n < 3:
        raise ReductionError(f"order {n} < 3: no circuit possible")
    if pivot is None:
        pivot = ug.vertices()[0]
    if not (1 <= pivot <= n):
        raise ReductionError(f"pivot {pivot} not a vertex")

    stages = n
    others = [u for u in ug.vertices() if u != pivot]
    source = _staged_name(pivot, 0)
    sink = _staged_name(pivot, stages)
    vertices: list[tuple[str, int]] = [(source, 0), (sink, stages)]
    forward: dict[tuple[int, int], str] = {(pivot, 0): source, (pivot, stages): sink}
    for u in others:
        for stage in range(1, stages):
            name = _staged_name(u, stage)
            vertices.append((name, stage))
            forward[(u, stage)] = name

    edges: list[EdgeTriple] = []
    for a, b in sorted(ug.edges):
        if a == pivot or b == pivot:
            other = b if a == pivot else a
            edges.append((source, _staged_name(other, 1), 1))
            edges.append((_staged_name(other, stages - 1), sink, stages))
        else:
            for stage in range(2, stages):
                edges.append((_staged_name(a, stage - 1), _staged_name(b, stage), stage))
                edges.append((_staged_name(b, stage - 1), _staged_name(a, stage), stage))

    skeleton = MultistageGraph(stages, vertices, edges, {})
    full = skeleton.full_mask
    eset_masks: dict[str, int] = {sink: full}
    for u in others:
        excluded = 0
        for stage in range(1, stages):
            name = _staged_name(u, stage)
            eset_masks[name] = full & ~excluded
            excluded |= skeleton.in_edges(name) | skeleton.out_edges(name)
    graph = skeleton.replace_esets(eset_masks)

    internal = (n - 1) * (n - 1)
    if graph.vertex_count() != internal + 2:
        raise AbnormalTerminationError(
            f"reduction of order {n} has {graph.vertex_count()} vertices, not {internal + 2}"
        )
    if graph.edge_count > 2 * n**3:
        raise AbnormalTerminationError(
            f"reduction of order {n} has {graph.edge_count} edges, over {2 * n**3}"
        )
    stats = {
        "order": n,
        "internal_vertices": internal,
        "vertices": graph.vertex_count(),
        "edges": graph.edge_count,
    }
    rmap = ReductionMap(pivot=pivot, forward=forward, stats=stats, graph=graph)
    rmap._backward = {name: u for (u, _), name in forward.items()}
    return graph, rmap


def lift_path(rmap: ReductionMap, path: Sequence[str]) -> tuple[int, ...]:
    """Map a verified simple path of the reduced graph (vertex names,
    source to sink) back to a circuit.

    Rejects paths that fail verification.  The result is
    (pivot, u_1, ..., u_{n-1}, pivot).
    """
    from .oracle import PathStructureError, verify_simple_path

    try:
        ok = verify_simple_path(rmap.graph, path)
    except PathStructureError as exc:
        raise LiftError(f"not a source-to-sink staged path: {exc}") from exc
    if not ok:
        raise LiftError("path is not a simple path of the reduced graph")
    circuit = [rmap.pivot]
    for name in path[1:-1]:
        circuit.append(rmap.source_vertex_of(name))
    circuit.append(rmap.pivot)
    return tuple(circuit)
