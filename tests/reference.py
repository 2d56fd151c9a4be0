"""Literal-transcription reference implementations, used only by tests.

Everything here works on explicit (src, dst, stage) triples, dict edge sets
and recursive path enumeration.  It is deliberately naive: operator semantics
transcribed step by step, no bitmasks, no caching, comp recomputed at every
use.  Exponential in places; feed it small graphs only.

The two pinned conventions match the production operators: an edge ending at
the target vertex is exempt from comp's path test, and change on a stage-1
edge skips the keep-guard.  Deletions are collected per sweep and applied at
sweep end.
"""

from __future__ import annotations

from msplab.model import MultistageGraph

Triple = tuple[str, str, int]


class RefGraph:
    def __init__(self, g: MultistageGraph):
        vertices, edges, esets = g.document_data()
        self.stages = g.stage_count
        self.vstage = dict(vertices)
        self.by_stage: dict[int, list[str]] = {k: [] for k in range(self.stages + 1)}
        for name, stage in vertices:
            self.by_stage[stage].append(name)
        for names in self.by_stage.values():
            names.sort()
        self.edges: list[Triple] = sorted(edges, key=lambda t: (t[2], t[0], t[1]))
        self.esets: dict[str, frozenset[Triple]] = {
            name: frozenset(ts) for name, ts in esets.items()
        }
        self.out: dict[str, list[Triple]] = {name: [] for name, _ in vertices}
        for t in self.edges:
            self.out[t[0]].append(t)
        self.source = self.by_stage[0][0]
        self.sink = self.by_stage[self.stages][0]


def all_paths(rg: RefGraph, u: str, v: str, allowed: frozenset[Triple]) -> list[tuple[Triple, ...]]:
    """All u -> v paths whose every edge lies in ``allowed``."""
    if u == v:
        return [()]
    found = []
    for t in rg.out[u]:
        if t in allowed:
            for rest in all_paths(rg, t[1], v, allowed):
                found.append((t,) + rest)
    return found


def has_path(rg: RefGraph, u: str, v: str, allowed: frozenset[Triple]) -> bool:
    if u == v:
        return True
    return any(t in allowed and has_path(rg, t[1], v, allowed) for t in rg.out[u])


def tidy_ref(rg: RefGraph, es: frozenset[Triple], u: str, v: str) -> frozenset[Triple]:
    kept: set[Triple] = set()
    if u == v:
        return frozenset()
    for path in all_paths(rg, u, v, es):
        kept.update(path)
    return frozenset(kept)


def init_ref(rg: RefGraph, e: Triple) -> frozenset[Triple]:
    collected = frozenset(
        t
        for t in rg.edges
        if t[2] > 1 and e in rg.esets.get(t[0], frozenset()) and e in rg.esets.get(t[1], frozenset())
    )
    return tidy_ref(rg, collected, e[1], rg.sink)


def init_all_ref(rg: RefGraph) -> dict[Triple, frozenset[Triple]]:
    return {e: init_ref(rg, e) for e in rg.edges}


def comp_ref(
    rg: RefGraph,
    es: frozenset[Triple],
    v: str,
    reach: dict[Triple, frozenset[Triple]],
) -> frozenset[Triple]:
    working = frozenset(es)
    while True:
        before = working
        dels = set()
        for t in working:
            if t[1] == v:
                continue
            if not has_path(rg, t[1], v, reach[t] & working):
                dels.add(t)
        working = working - dels
        working = tidy_ref(rg, working, rg.source, v)
        if working == before:
            return working


def comp_inplace_ref(
    rg: RefGraph,
    es: frozenset[Triple],
    v: str,
    reach: dict[Triple, frozenset[Triple]],
    descending: bool = False,
) -> frozenset[Triple]:
    """``comp`` with each deletion applied as soon as it is found, sweeping
    members in ascending (or descending) edge order instead of batching
    deletions per sweep; for confluence checks against the batch operator."""
    order = list(reversed(rg.edges)) if descending else rg.edges
    working = frozenset(es)
    while True:
        before = working
        for t in order:
            if t not in working or t[1] == v:
                continue
            if not has_path(rg, t[1], v, reach[t] & working):
                working = working - {t}
        working = tidy_ref(rg, working, rg.source, v)
        if working == before:
            return working


def change_ref(
    rg: RefGraph,
    reach: dict[Triple, frozenset[Triple]],
    e: Triple,
    esets: dict[str, frozenset[Triple]] | None = None,
) -> frozenset[Triple]:
    if esets is None:
        esets = rg.esets
    u, v, stage = e
    cur = reach[e]
    if stage == 1:
        cur = tidy_ref(rg, cur, v, rg.sink)
        reach[e] = cur
        return cur
    while True:
        before = cur
        dels = set()
        for cand in cur:
            if not (stage < cand[2] <= rg.stages):
                continue
            b = cand[1]
            contracted_b = comp_ref(rg, esets[b], b, reach)
            anchor = set()
            for ec in rg.edges:
                if ec[2] >= stage:
                    continue
                tided = tidy_ref(rg, reach[ec] & contracted_b, ec[1], b)
                if e in tided and cand in tided:
                    anchor.add(ec)
            guard = comp_ref(rg, tidy_ref(rg, frozenset(anchor), rg.source, u), u, reach)
            if not guard:
                dels.add(cand)
        cur = cur - dels
        cur = tidy_ref(rg, cur, v, rg.sink)
        if cur == before:
            break
    reach[e] = cur
    return cur


def slice_ref(rg: RefGraph, es: frozenset[Triple], i: int, j: int) -> frozenset[Triple]:
    return frozenset(t for t in es if i <= t[2] <= j)


def zh_ref(rg: RefGraph) -> tuple[str, frozenset[Triple]]:
    reach = init_all_ref(rg)
    esets = dict(rg.esets)
    while True:
        before = dict(reach)
        for stage in range(1, rg.stages):
            for e in rg.edges:
                if e[2] == stage:
                    change_ref(rg, reach, e, esets)
            for v in rg.by_stage[stage]:
                esets[v] = comp_ref(rg, esets[v], v, reach)
            for e in rg.edges:
                if e[2] > stage:
                    continue
                union: set[Triple] = set()
                for v in rg.by_stage[stage]:
                    contracted = comp_ref(rg, esets[v], v, reach)
                    union |= tidy_ref(rg, reach[e] & contracted, e[1], v)
                kept = (reach[e] - slice_ref(rg, reach[e], e[2] + 1, stage)) | slice_ref(
                    rg, frozenset(union), e[2] + 1, stage
                )
                reach[e] = tidy_ref(rg, kept, e[1], rg.sink)
        if reach == before:
            break
    final = comp_ref(rg, rg.esets[rg.sink], rg.sink, reach)
    return ("YES" if final else "NO", final)


def simple_paths_ref(rg: RefGraph) -> list[tuple[str, ...]]:
    """All simple paths (membership rule checked at every vertex), full enumeration."""
    results = []
    for path in all_paths(rg, rg.source, rg.sink, frozenset(rg.edges)):
        prefix: set[Triple] = set()
        ok = True
        for t in path:
            prefix.add(t)
            if not prefix <= rg.esets.get(t[1], frozenset()):
                ok = False
                break
        if ok:
            results.append((rg.source,) + tuple(t[1] for t in path))
    return results


def reachable_paths_ref(rg: RefGraph, e: Triple) -> list[tuple[Triple, ...]]:
    """All head -> sink paths along which every visited vertex's edge set carries e."""
    found = []
    for path in all_paths(rg, e[1], rg.sink, frozenset(rg.edges)):
        if not path:
            continue
        if all(
            e in rg.esets.get(t[0], frozenset()) and e in rg.esets.get(t[1], frozenset())
            for t in path
        ):
            found.append(path)
    return found
