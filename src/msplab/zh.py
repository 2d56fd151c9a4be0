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
from .operators import OperatorCaches, _trim, change, init_all

YES = "YES"
NO = "NO"


class InvalidGraphError(ValueError):
    """The input graph fails structural validation; the text lists each
    violation of ``report`` on its own line as ``CODE at where: message``."""

    def __init__(self, report):
        self.report = report
        lines = "".join(f"\n  {code} at {where}: {msg}" for code, where, msg in report.violations)
        super().__init__(f"instance fails validation:{lines}")


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

    initial_bits = sum(m.bit_count() for m in entries)
    live = 0  # the edges whose entries are nonempty
    for eid, mask in enumerate(entries):
        if mask:
            live |= 1 << eid
    sweep_bound = 1 + initial_bits
    sweeps = 0
    while True:
        sweeps += 1
        if sweeps > sweep_bound:
            raise AbnormalTerminationError(
                f"no fixpoint after {sweeps - 1} sweeps (bound {sweep_bound})"
            )
        logged = len(r.log)
        for stage in range(1, stage_limit):
            # contract each stage edge's reachable set; change of an empty
            # entry returns it unchanged, so only the live ones are walked
            first = stage_end[stage - 1]
            m = live >> first & (1 << stage_end[stage] - first) - 1
            while m:
                low = m & -m
                m ^= low
                eid = first + low.bit_length() - 1
                prev = entries[eid]
                change(r, eid, g, caches)
                change_calls += 1
                if entries[eid] != prev:
                    if not entries[eid]:
                        live ^= 1 << eid
                    if trace is not None:
                        record_shrink(eid, prev)
            # contract each stage vertex's edge set; shrunken values persist
            for vi in stage_vertices[stage]:
                if not esets[vi]:
                    continue  # comp of the empty set is empty
                new = caches.comp_value(esets[vi], vi)
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
            held = (live & (1 << stage_end[stage]) - 1).bit_count()
            if not held:
                continue
            limit_ops += held
            keep, losers = limit_tables(caches, stage)
            # every other live entry is covered by the union over its window
            # and already tidy; losers holds live entries alone, each tidy,
            # so the re-limit peels off only what its lost bits cut
            while losers:
                ebit = losers & -losers
                losers ^= ebit
                eid = ebit.bit_length() - 1
                cur = entries[eid]
                window = g.span_mask(g._estage[eid] + 1, stage)
                kept = cur & ~window
                m = cur & window
                while m:
                    low = m & -m
                    m ^= low
                    if keep[low.bit_length() - 1] >> eid & 1:
                        kept |= low
                new = _trim(g, kept, cur & ~kept, g._eto[eid], sink_idx)
                if r.set_entry(eid, new):
                    if not new:
                        live ^= ebit
                    if trace is not None:
                        record_shrink(eid, cur)
        if len(r.log) == logged:
            break

    final = caches.comp_value(esets[sink_idx], sink_idx)  # never touched above
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
        edges_deleted=initial_bits - sum(m.bit_count() for m in entries),
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
        fwd, back = caches.mid_tidy(vi, ceb, stage, 1)
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
