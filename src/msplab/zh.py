"""Staged fixpoint solver for the multistage simple-path decision problem.

The solver seeds per-edge reachable sets, then sweeps stages 1..L-1: contract
each stage edge's reachable set against the others, contract each stage
vertex's edge set, then re-limit every earlier reachable set through the
stage's contracted edge sets.  Sweeps repeat until no reachable set changes,
and the answer is YES exactly when the sink's edge set, contracted against
the final reachable sets, is nonempty.

Shrunken per-vertex edge sets persist across sweeps (all state is monotone
decreasing, which is what bounds the number of sweeps).  The run is fully
deterministic: edges ascend by id, vertices by (stage, name), and every
fixpoint applies deletions batch-wise per sweep.

:func:`zh_solve` is the one entry point.  Given a ``trace`` list it also
appends one event per reachable-set initialization and per deletion, which
:func:`replay_trace` folds back into the final reachable sets.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

from .model import AbnormalTerminationError, EdgeSet, MultistageGraph, edge_ids, validate
from .operators import OperatorCaches, _tidy_idx, change, init_all

YES = "YES"
NO = "NO"


class InvalidGraphError(ValueError):
    """The input graph fails structural validation."""

    def __init__(self, report):
        self.report = report
        codes = ", ".join(sorted({c for c, _, _ in report.violations}))
        super().__init__(f"invalid multistage graph: {codes}")


@dataclass
class ZhMetrics:
    outer_sweeps: int = 0
    operator_calls: dict[str, int] = field(default_factory=dict)
    edges_deleted: int = 0
    wall_time: float = 0.0


@dataclass
class ZhResult:
    answer: str  # YES | NO
    final_comp_ed: EdgeSet
    metrics: ZhMetrics
    reach: list[EdgeSet] = field(default_factory=list)  # final reachable sets, by edge id


def zh_solve(
    g: MultistageGraph,
    *,
    trace: list[dict[str, Any]] | None = None,
) -> ZhResult:
    """Decide simple-path existence; YES iff the final contraction of the
    sink's edge set is nonempty.

    The outer sweeps are capped by the proven monotone bound, one more than
    the total size of the initial reachable sets; exceeding it raises
    :class:`AbnormalTerminationError`.  Events are appended to ``trace``
    when it is given.
    """
    started = time.perf_counter()
    report = validate(g)
    if not report.ok:
        raise InvalidGraphError(report)

    r = init_all(g)
    if trace is not None:
        for eid, mask in enumerate(r.entries):
            trace.append({"event": "r_init", "edge": eid, "value": edge_ids(mask)})

    caches = OperatorCaches(g, r)
    esets = caches.esets
    stage_limit = g.stage_count  # loop covers stages 1..L-1
    stage_vertices = g._stage_vertices
    stage_end = g._stage_end
    entries = r.entries
    sink_idx = stage_vertices[g.stage_count][0]
    change_calls = 0
    limit_ops = 0

    def record_shrink(eid: int, prev: int) -> None:
        trace.append(
            {
                "event": "r_shrink",
                "sweep": sweeps,
                "stage": stage,
                "edge": eid,
                "removed": edge_ids(prev & ~entries[eid]),
            }
        )

    sweep_bound = 1 + sum(m.bit_count() for m in entries)
    sweeps = 0
    while True:
        sweeps += 1
        if sweeps > sweep_bound:
            raise AbnormalTerminationError(
                f"no fixpoint after {sweeps - 1} sweeps (bound {sweep_bound})"
            )
        deleted_before = r.bits_deleted
        for stage in range(1, stage_limit):
            # contract each stage edge's reachable set
            for eid in range(stage_end[stage - 1], stage_end[stage]):
                prev = entries[eid]
                change(r, eid, g, caches)
                change_calls += 1
                if trace is not None and entries[eid] != prev:
                    record_shrink(eid, prev)
            # contract each stage vertex's edge set; shrunken values persist
            for vi in stage_vertices[stage]:
                new = caches.comp_of(vi)
                if new != esets[vi]:
                    if trace is not None:
                        trace.append(
                            {
                                "event": "eset_shrink",
                                "sweep": sweeps,
                                "stage": stage,
                                "vertex": g._vnames[vi],
                                "removed": edge_ids(esets[vi] & ~new),
                            }
                        )
                    esets[vi] = new
            # re-limit every reachable set of stage <= current stage.  Each
            # esets[v] of this stage is now comp(v), a fixpoint of comp's
            # step under the current map, so it is comp(esets[v], v) too.  A
            # re-limit removes only bits on no head -> v path inside comp(v),
            # so no comp(v) changes and one set of lane tables serves the stage
            keep = None
            for eid in range(stage_end[stage]):
                cur = entries[eid]
                if not cur:
                    continue
                limit_ops += 1
                if keep is None:
                    keep, losers = limit_tables(caches, stage)
                if not losers >> eid & 1:
                    continue  # the union covers cur's window, and cur is already tidy
                window = g.span_mask(g._estage[eid] + 1, stage)
                kept = cur & ~window
                m = cur & window
                while m:
                    low = m & -m
                    m ^= low
                    if keep[low.bit_length() - 1] >> eid & 1:
                        kept |= low
                new = _tidy_idx(g, kept, g._eto[eid], sink_idx)
                if r.set_entry(eid, new) and trace is not None:
                    record_shrink(eid, cur)
        if r.bits_deleted == deleted_before:
            break

    final = caches.comp_of(sink_idx)  # stage-L edge sets are never touched above
    metrics = ZhMetrics(
        outer_sweeps=sweeps,
        operator_calls={
            "change": change_calls,
            "comp": caches.comp_runs,
            "comp_warm": caches.comp_warm,
            "comp_settled": caches.comp_settled,
            "comp_cache_hits": caches.comp_hits,
            "guard_certified": caches.guard_certified,
            "limit": limit_ops,
        },
        edges_deleted=r.bits_deleted,
        wall_time=time.perf_counter() - started,
    )
    return ZhResult(
        answer=YES if final else NO, final_comp_ed=final, metrics=metrics, reach=entries
    )


def limit_tables(caches: OperatorCaches, stage: int) -> tuple[list[int], int]:
    """Lane tables of the re-limit step at ``stage``.

    ``caches.esets[v]`` must be comp(v) for the stage's vertices v.  For
    every edge f of stage <= ``stage``, ``keep[f]`` is the set of lanes ec
    with f in the union over v of tidy(R(ec) & comp(v), head(ec), v), given
    f in R(ec).  ``losers`` is the set of edges ec of earlier stages for
    which that union misses some member of R(ec) up to ``stage``.  Edges of
    ``stage`` itself have an empty window and never lose.
    """
    g = caches.graph
    efrom = g._efrom
    eto = g._eto
    esets = caches.esets
    top = g._stage_end[stage]
    keep = [0] * top
    for vi in g._stage_vertices[stage]:
        ceb = esets[vi]
        fwd, back = caches.mid_tidy(vi, ceb, stage)
        m = ceb
        while m:
            low = m & -m
            f = low.bit_length() - 1
            m ^= low
            keep[f] |= fwd[efrom[f]] & back[eto[f]]
    holders = caches.r.holders
    losers = 0
    for f in range(g._stage_end[1], top):
        losers |= holders[f] & ~keep[f]
    return keep, losers & ((1 << g._stage_end[stage - 1]) - 1)


def replay_trace(g: MultistageGraph, events: list[dict[str, Any]]) -> list[EdgeSet]:
    """Reconstruct final reachable sets from a trace's init and deletion events."""
    masks = [0] * g.edge_count
    for ev in events:
        if ev["event"] == "r_init":
            masks[ev["edge"]] = sum(1 << i for i in ev["value"])
        elif ev["event"] == "r_shrink":
            masks[ev["edge"]] &= ~sum(1 << i for i in ev["removed"])
    return masks
