"""Ground-truth exponential searchers.

``oracle_simple_path`` decides simple-path existence in a labeled multistage
graph by depth-first search with incremental prefix-containment pruning: a
prefix dies as soon as the newest vertex's edge set misses any prefix edge,
which is exactly the membership rule applied as the path grows.

``oracle_hamilton`` is a plain backtracking Hamilton-circuit search over an
undirected graph.  Both are correctness benchmarks, not performance
contenders; each carries a dual budget (node-expansion cap and optional
wall-clock cap, whichever trips first) and reports YES with a verifiable
witness, NO on exhaustion, or TIMEOUT.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

from .model import MultistageGraph, validate
from .reduction import UndirectedGraph
from .zh import NO, YES, InvalidGraphError

TIMEOUT = "TIMEOUT"


class PathStructureError(ValueError):
    """A candidate path is not even a source-to-sink staged path."""


@dataclass(frozen=True)
class SearchBudget:
    max_nodes: int = 10_000_000
    max_seconds: float | None = None

    def check(self) -> None:
        if self.max_nodes < 1:
            raise ValueError("max_nodes must be at least 1")
        if self.max_seconds is not None and not self.max_seconds >= 0:
            raise ValueError("max_seconds must be at least 0")


@dataclass
class OracleResult:
    answer: str  # YES | NO | TIMEOUT
    witness: tuple | None
    nodes_expanded: int
    budget_used: float  # seconds


def verify_simple_path(g: MultistageGraph, path: Sequence[str]) -> bool:
    """True iff ``path`` (vertex names, source to sink) satisfies the
    prefix-containment rule at every vertex.

    Raises :class:`PathStructureError` if the path is not an edge-connected,
    stage-monotone source-to-sink path.
    """
    if len(path) != g.stage_count + 1:
        raise PathStructureError(f"path visits {len(path)} vertices, need {g.stage_count + 1}")
    if path[0] != g.source_name():
        raise PathStructureError(f"path starts at {path[0]!r}, not the source")
    if path[-1] != g.sink_name():
        raise PathStructureError(f"path ends at {path[-1]!r}, not the sink")
    prefix = 0
    for stage in range(1, g.stage_count + 1):
        try:
            eid = g.edge_id(path[stage - 1], path[stage], stage)
        except KeyError:
            raise PathStructureError(
                f"no stage-{stage} edge {path[stage - 1]!r} -> {path[stage]!r}"
            ) from None
        prefix |= 1 << eid
        if not g.has_eset(path[stage]):
            return False
        if prefix & ~g.eset(path[stage]):
            return False
    return True


def oracle_simple_path(
    g: MultistageGraph, budget: SearchBudget | None = None
) -> OracleResult:
    """Exhaustive simple-path search, first witness in ascending edge-id order."""
    report = validate(g)
    if not report.ok:
        raise InvalidGraphError(report)
    budget = budget or SearchBudget()
    started = time.perf_counter()
    deadline = None if budget.max_seconds is None else started + budget.max_seconds

    out_mask = g._out_mask
    eto = g._eto
    esets = g._esets
    vnames = g._vnames
    last = g.stage_count
    expanded = 0
    # Depth-first search with an explicit stack: path[i] is the stage-i vertex,
    # prefixes[i] the edges leading to it, untried[i] its out-edges not yet tried.
    path = [g._stage_vertices[0][0]]
    prefixes = [0]
    untried: list[int] = []
    while path:
        if len(untried) < len(path):  # the newest vertex is not expanded yet
            expanded += 1
            if expanded > budget.max_nodes or (
                deadline is not None and expanded % 1024 == 0 and time.perf_counter() > deadline
            ):
                return OracleResult(TIMEOUT, None, expanded, time.perf_counter() - started)
            if len(path) - 1 == last:
                witness = tuple(vnames[i] for i in path)
                return OracleResult(YES, witness, expanded, time.perf_counter() - started)
            untried.append(out_mask[path[-1]])
        m = untried[-1]
        prefix = prefixes[-1]
        while m:
            low = m & -m
            m ^= low
            wi = eto[low.bit_length() - 1]
            if not (prefix | low) & ~esets[wi]:
                untried[-1] = m
                path.append(wi)
                prefixes.append(prefix | low)
                break
        else:
            untried.pop()
            path.pop()
            prefixes.pop()
    return OracleResult(NO, None, expanded, time.perf_counter() - started)


def verify_hamilton_circuit(ug: UndirectedGraph, circuit) -> bool:
    """True iff ``circuit`` visits every vertex exactly once and closes."""
    seq = list(circuit)
    if len(seq) != ug.n + 1 or seq[0] != seq[-1]:
        return False
    if sorted(seq[:-1]) != sorted(ug.vertices()):
        return False
    return all(ug.has_edge(a, b) for a, b in zip(seq, seq[1:]))


def oracle_hamilton(ug: UndirectedGraph, budget: SearchBudget | None = None) -> OracleResult:
    """Backtracking Hamilton-circuit search anchored at the lowest vertex."""
    budget = budget or SearchBudget()
    started = time.perf_counter()
    deadline = None if budget.max_seconds is None else started + budget.max_seconds
    expanded = 0
    if ug.n < 3:
        return OracleResult(NO, None, 0, time.perf_counter() - started)

    adjacency = ug.adjacency()
    anchor = ug.vertices()[0]
    # Backtracking with an explicit stack: untried[i] iterates the neighbours
    # of path[i] not yet tried.
    path = [anchor]
    used = {anchor}
    untried: list = []
    while path:
        if len(untried) < len(path):  # the newest vertex is not expanded yet
            expanded += 1
            if expanded > budget.max_nodes or (
                deadline is not None and expanded % 1024 == 0 and time.perf_counter() > deadline
            ):
                return OracleResult(TIMEOUT, None, expanded, time.perf_counter() - started)
            v = path[-1]
            if len(path) == ug.n:
                if anchor in adjacency[v]:
                    witness = (*path, anchor)
                    return OracleResult(YES, witness, expanded, time.perf_counter() - started)
                untried.append(iter(()))
            else:
                untried.append(iter(adjacency[v]))
        for w in untried[-1]:
            if w not in used:
                path.append(w)
                used.add(w)
                break
        else:
            untried.pop()
            used.discard(path.pop())
    return OracleResult(NO, None, expanded, time.perf_counter() - started)
