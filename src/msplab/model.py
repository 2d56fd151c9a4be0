"""Labeled multistage graph data model.

A multistage graph is a staged DAG with a unique source at stage 0 and a
unique sink at stage L.  Every edge crosses exactly one stage boundary, and
every vertex except the source carries an *edge set*: a subset of the graph's
edges used by the simple-path membership rule.

Edge sets are represented as int bitmasks over dense edge ids.  Ids are
assigned at construction time in (stage, source-name, target-name)
lexicographic order, so ids are contiguous per stage and every set operation
is deterministic.  The graph is immutable after construction and safe to
share across threads.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping

EdgeSet = int  # bitmask over dense edge ids

EdgeTriple = tuple[str, str, int]  # (source name, target name, stage)


class GraphStructureError(ValueError):
    """Raised when candidate data cannot be represented as a graph at all."""


class AbnormalTerminationError(RuntimeError):
    """An internal invariant failed: a fixpoint overran its proven sweep
    bound, a reachable set grew, or a construction broke its size bound.
    All solver state shrinks monotonically, so this signals an
    implementation bug, not a hard instance."""


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[tuple[str, str, str], ...]  # (code, location, message)

    @property
    def ok(self) -> bool:
        return not self.violations


def edge_set(ids: Iterable[int]) -> EdgeSet:
    """Bitmask from an iterable of edge ids."""
    mask = 0
    for i in ids:
        mask |= 1 << i
    return mask


def edge_ids(mask: EdgeSet) -> list[int]:
    """Ascending edge ids of a bitmask."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class MultistageGraph:
    """Immutable staged DAG with per-vertex edge sets.

    ``vertices`` are (name, stage) pairs, ``edges`` are (src, dst, stage)
    triples, ``esets`` maps vertex names to iterables of edge triples.
    Construction rejects only what cannot be represented (duplicate names,
    parallel edges, unknown endpoints, stages out of range); everything else
    is a matter for :func:`validate`.
    """

    __slots__ = (
        "stage_count",
        "_vnames",
        "_vindex",
        "_vstage",
        "_stage_vertices",
        "_efrom",
        "_eto",
        "_estage",
        "_etriples",
        "_eindex",
        "_out_mask",
        "_in_mask",
        "_stage_end",
        "_esets",
        "edge_count",
        "full_mask",
    )

    def __init__(
        self,
        stage_count: int,
        vertices: Iterable[tuple[str, int]],
        edges: Iterable[EdgeTriple],
        esets: Mapping[str, Iterable[EdgeTriple]],
    ):
        if stage_count < 1:
            raise GraphStructureError(f"stage count must be >= 1, got {stage_count}")

        vlist = sorted(set(vertices), key=lambda p: (p[1], p[0]))
        vindex = {n: i for i, (n, _) in enumerate(vlist)}
        if len(vindex) != len(vlist):
            counts = Counter(n for n, _ in vlist)
            dupes = sorted(n for n, c in counts.items() if c > 1)
            raise GraphStructureError(f"duplicate vertex names: {dupes}")
        for name, stage in vlist:
            if not (0 <= stage <= stage_count):
                raise GraphStructureError(
                    f"vertex {name!r} at stage {stage} outside [0, {stage_count}]"
                )

        elist = sorted(edges, key=lambda t: (t[2], t[0], t[1]))
        seen_pairs: set[tuple[str, str]] = set()
        efrom, eto = [], []
        for src, dst, stage in elist:
            if (src, dst) in seen_pairs:
                raise GraphStructureError(f"parallel edge {src!r} -> {dst!r}")
            seen_pairs.add((src, dst))
            if src not in vindex:
                raise GraphStructureError(f"edge references unknown vertex {src!r}")
            if dst not in vindex:
                raise GraphStructureError(f"edge references unknown vertex {dst!r}")
            if not (1 <= stage <= stage_count):
                raise GraphStructureError(
                    f"edge {src!r}->{dst!r} stage {stage} outside [1, {stage_count}]"
                )
            efrom.append(vindex[src])
            eto.append(vindex[dst])
        eindex = {t: i for i, t in enumerate(elist)}

        eset_masks: list[int | None] = [None] * len(vlist)
        for vname, triples in esets.items():
            if vname not in vindex:
                raise GraphStructureError(f"edge set for unknown vertex {vname!r}")
            mask = 0
            for t in triples:
                if t not in eindex:
                    raise GraphStructureError(
                        f"edge set of {vname!r} references unknown edge {t!r}"
                    )
                mask |= 1 << eindex[t]
            eset_masks[vindex[vname]] = mask
        self._fill(stage_count, vindex, [s for _, s in vlist], eindex, efrom, eto, eset_masks)

    @classmethod
    def _from_tables(
        cls,
        stage_count: int,
        vindex: dict[str, int],
        vstage: list[int],
        eindex: dict[EdgeTriple, int],
        efrom: list[int],
        eto: list[int],
        esets: list[EdgeSet | None],
    ) -> "MultistageGraph":
        """A graph built from data already in id order, unchecked: what
        ``__init__`` builds once its checks pass (see ``_fill``)."""
        g = object.__new__(cls)
        g._fill(stage_count, vindex, vstage, eindex, efrom, eto, esets)
        return g

    def _fill(self, stage_count, vindex, vstage, eindex, efrom, eto, esets) -> None:
        """Set every slot from id-ordered data: ``vindex`` maps the vertex
        names, in id order (by stage, then name), to their ids, ``vstage``
        gives each id's stage, ``eindex`` maps the edge triples, in id order
        (by stage, source name, target name), to their ids, ``efrom`` and
        ``eto`` give each edge's endpoint ids, and ``esets`` each vertex's
        edge-set mask (None for none).  The one place the derived tables
        are computed."""
        self.stage_count = stage_count
        self._vnames = tuple(vindex)
        self._vindex = vindex
        self._vstage = tuple(vstage)
        stage_vertices: list[list[int]] = [[] for _ in range(stage_count + 1)]
        for i, s in enumerate(vstage):
            stage_vertices[s].append(i)
        self._stage_vertices = tuple(map(tuple, stage_vertices))

        self._etriples = tuple(eindex)
        self._eindex = eindex
        self._efrom = tuple(efrom)
        self._eto = tuple(eto)
        self._estage = tuple(t[2] for t in self._etriples)
        m = len(efrom)
        self.edge_count = m
        self.full_mask = (1 << m) - 1

        out_mask = [0] * len(vstage)
        in_mask = [0] * len(vstage)
        bit = 1
        for f, t in zip(efrom, eto):
            out_mask[f] |= bit
            in_mask[t] |= bit
            bit <<= 1
        self._out_mask = tuple(out_mask)
        self._in_mask = tuple(in_mask)

        # edges are id-sorted by stage, so each stage is a contiguous id range
        self._stage_end = tuple([bisect_right(self._estage, k) for k in range(stage_count + 2)])
        self._esets = tuple(esets)

    # -- vertices and edges: names and dense ids ----------------------------

    def vertex_names(self) -> tuple[str, ...]:
        return self._vnames

    def vertex_count(self) -> int:
        return len(self._vnames)

    def stage_vertex_names(self, stage: int) -> tuple[str, ...]:
        return tuple(self._vnames[i] for i in self._stage_vertices[stage])

    def edge_id(self, src: str, dst: str, stage: int) -> int:
        return self._eindex[(src, dst, stage)]

    def edge_triple(self, eid: int) -> EdgeTriple:
        return self._etriples[eid]

    def has_eset(self, name: str) -> bool:
        return self._esets[self._vindex[name]] is not None

    def eset(self, name: str) -> EdgeSet:
        mask = self._esets[self._vindex[name]]
        if mask is None:
            raise KeyError(f"vertex {name!r} has no edge set")
        return mask

    def source_name(self) -> str:
        (idx,) = self._stage_vertices[0]
        return self._vnames[idx]

    def sink_name(self) -> str:
        (idx,) = self._stage_vertices[self.stage_count]
        return self._vnames[idx]

    def span_mask(self, i: int, j: int) -> EdgeSet:
        """Mask of all edge ids with stage in [i, j] (empty if i > j)."""
        lo = max(i, 1)
        hi = min(j, self.stage_count)
        if lo > hi:
            return 0
        a = self._stage_end[lo - 1]
        b = self._stage_end[hi]
        return ((1 << (b - a)) - 1) << a

    def out_edges(self, name: str) -> EdgeSet:
        return self._out_mask[self._vindex[name]]

    def in_edges(self, name: str) -> EdgeSet:
        return self._in_mask[self._vindex[name]]

    def replace_esets(self, esets: Mapping[str, EdgeSet]) -> "MultistageGraph":
        """Copy of this graph with edge sets replaced by the given masks.

        Structure (and therefore edge ids) is unchanged; masks must fit the
        edge universe.
        """
        clone = object.__new__(MultistageGraph)
        for slot in MultistageGraph.__slots__:
            setattr(clone, slot, getattr(self, slot))
        new_masks: list[int | None] = [None] * len(self._vnames)
        for vname, mask in esets.items():
            if vname not in self._vindex:
                raise GraphStructureError(f"edge set for unknown vertex {vname!r}")
            if mask & ~self.full_mask:
                raise GraphStructureError(f"edge set of {vname!r} outside edge universe")
            new_masks[self._vindex[vname]] = mask
        clone._esets = tuple(new_masks)
        return clone

    def document_data(
        self,
    ) -> tuple[list[tuple[str, int]], list[EdgeTriple], dict[str, list[EdgeTriple]]]:
        """Plain (vertices, edges, esets-as-triples) copies, for editing."""
        vertices = [(n, self._vstage[i]) for i, n in enumerate(self._vnames)]
        edges = list(self._etriples)
        esets = {}
        for i, mask in enumerate(self._esets):
            if mask is not None:
                esets[self._vnames[i]] = [self._etriples[e] for e in edge_ids(mask)]
        return vertices, edges, esets

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultistageGraph):
            return NotImplemented
        return (
            self.stage_count == other.stage_count
            and self._vnames == other._vnames
            and self._vstage == other._vstage
            and self._etriples == other._etriples
            and self._esets == other._esets
        )

    def __hash__(self) -> int:
        return hash((self.stage_count, self._vnames, self._etriples, self._esets))

    def __repr__(self) -> str:
        return (
            f"MultistageGraph(stages={self.stage_count}, "
            f"|V|={len(self._vnames)}, |E|={self.edge_count})"
        )


def validate(g: MultistageGraph) -> ValidationReport:
    """Check the four structural properties of a labeled multistage graph.

    Reports every violation; never mutates the graph.  Codes:
    NO_SOURCE / MULTI_SOURCE, NO_SINK / MULTI_SINK, STAGE_SKEW,
    MISSING_ESET, SOURCE_HAS_ESET.
    """
    violations: list[tuple[str, str, str]] = []
    n0 = len(g._stage_vertices[0])
    if n0 == 0:
        violations.append(("NO_SOURCE", "stage 0", "stage 0 has no vertex"))
    elif n0 > 1:
        names = ", ".join(g.stage_vertex_names(0))
        violations.append(("MULTI_SOURCE", "stage 0", f"stage 0 has {n0} vertices: {names}"))
    nl = len(g._stage_vertices[g.stage_count])
    if nl == 0:
        violations.append(("NO_SINK", f"stage {g.stage_count}", "final stage has no vertex"))
    elif nl > 1:
        names = ", ".join(g.stage_vertex_names(g.stage_count))
        violations.append(
            ("MULTI_SINK", f"stage {g.stage_count}", f"final stage has {nl} vertices: {names}")
        )
    for i in range(g.edge_count):
        src, dst, stage = g._etriples[i]
        if g._vstage[g._efrom[i]] != stage - 1 or g._vstage[g._eto[i]] != stage:
            violations.append(
                (
                    "STAGE_SKEW",
                    f"edge {src}->{dst}",
                    f"stage-{stage} edge must go from stage {stage - 1} to {stage}, "
                    f"got {g._vstage[g._efrom[i]]} to {g._vstage[g._eto[i]]}",
                )
            )
    for i, name in enumerate(g._vnames):
        if g._vstage[i] == 0:
            if g._esets[i] is not None:
                violations.append(
                    ("SOURCE_HAS_ESET", f"vertex {name}", "stage-0 vertex carries an edge set")
                )
        elif g._esets[i] is None:
            violations.append(("MISSING_ESET", f"vertex {name}", "vertex has no edge set"))
    return ValidationReport(tuple(violations))
