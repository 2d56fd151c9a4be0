"""The four basic set operators of the staged fixpoint solver.

* ``tidy(es, u, v)`` restricts an edge set to the edges lying on at least one
  u -> v path whose edges all stay inside the set.
* ``init_all`` seeds the per-edge reachable sets: for an edge e, the edges
  of every e.dst -> sink path along which both endpoints of each visited
  edge carry e in their edge sets.  With every edge e as a bit lane, one
  forward and one backward lane pass towards the sink (``_forward_lanes``,
  ``_backward_lanes``) find them for all edges at once.
* ``comp`` contracts an edge set against the reachable sets until stable.
  Each sweep tests every member at once with the lane tables' backward
  pass (``_backward_lanes``) from the target over the transposed map
  ``ReachMap.holders``, seeded with the tested members as bit lanes
  (multi-source traversal after Then et al., PVLDB 8(4), 2014); member f
  passes iff the pass carries lane f to f's head.  Its result is the
  greatest fixpoint of a monotone, deflationary step, so once the
  reachable sets shrink, the new result lies inside the old one (Tarski,
  Pacific J. Math. 5(2), 1955): ``start=`` resumes from an earlier
  result.  A member's test reads only its own reachable set and the working
  set, so after a shrink only the members whose reachable sets changed can
  fail; ``lanes=`` names them (``ReachMap.edge_stamps`` tells which), and
  the first sweep tests those alone (semi-naive evaluation, Bancilhon &
  Ramakrishnan, SIGMOD 1986).  A sweep that deletes nothing from a set
  already tidy skips the tidy step.
* ``change`` contracts one reachable set against all the others until stable.
  Its anchors come from lane tables: for a target vertex b and edge set es,
  one forward and one backward pass over ``holders`` with every edge ec as
  a bit lane give tidy(R(ec) & es, head(ec), b) for all ec at once.
  ``OperatorCaches.mid_tidy`` keeps one pair of tables per target, which
  the solver's re-limit step reads too.  Edge ids ascend by stage, so each
  pass is one walk over the set bits of es, ascending forward and
  descending backward.  The keep-guard asks whether comp(T, u) is empty
  for an anchor set T.  ``comp``'s step does not depend on its input set
  and ends with the source tidy, so every fixpoint inside T lies inside
  tidy(T, source, u): the guard tidies nothing first, and a nonempty
  result W found at u that is still a fixpoint lies inside comp(T, u)
  whenever T holds W (Tarski again), so such a T passes with no ``comp``
  lookup (``OperatorCaches.fixpoints``).

Two conventions the operator definitions leave open are pinned here:

* In ``comp``, an edge ending exactly at the target vertex passes the
  path-existence test unconditionally (a zero-length path cannot be
  represented as a nonempty edge set); it remains subject to the tidy step.
* In ``change`` on a stage-1 edge there are no earlier-stage edges to anchor
  the keep-guard, so the guard is vacuously satisfied and only the final tidy
  applies.

Deletions inside each fixpoint sweep are collected and applied at sweep end
(ascending edge-id order), so results do not depend on iteration order.
``change`` writes its result back into the reachable map; the other
operators are pure functions of their inputs.  ``OperatorCaches`` holds a
solver run's per-vertex edge sets and the caches above, each judged stale
by ``ReachMap.changed_since``.
"""

from __future__ import annotations

from .model import AbnormalTerminationError, EdgeSet, MultistageGraph


def _reach(g: MultistageGraph, mask: int, xi: int, stages, near: list[int], far: list[int]) -> int:
    """The union of ``far[w]`` over ``xi`` and the vertices w it reaches
    along ``mask`` edges, visiting ``stages`` in order: w is reached when
    ``mask & near[w]`` meets the union so far.  Forward from ``xi``, ``near,
    far = in_mask, out_mask``; backward to it, the other way round."""
    stage_vertices = g._stage_vertices
    acc = far[xi]
    for k in stages:
        avail = mask & acc
        if not avail:
            break
        hit = False
        for wi in stage_vertices[k]:
            if avail & near[wi]:
                acc |= far[wi]
                hit = True
        if not hit:
            break
    return acc


def _tidy_idx(g: MultistageGraph, es: int, ui: int, vi: int) -> int:
    if not es or ui == vi:
        return 0
    vstage = g._vstage
    su = vstage[ui]
    sv = vstage[vi]
    if su >= sv:
        return 0
    in_mask = g._in_mask
    out_acc = _reach(g, es, ui, range(su + 1, sv + 1), in_mask, g._out_mask)
    if not es & out_acc & in_mask[vi]:  # early exit only: the result below is exact
        return 0
    in_acc = _reach(g, es, vi, range(sv - 1, su - 1, -1), g._out_mask, in_mask)
    return es & out_acc & in_acc


def _forward_lanes(g: MultistageGraph, holders: list[int], es: int, vi: int) -> list[int]:
    """fwd[x] for the vertices x of stages 1 .. stage(vi)-1: the lanes ec
    (one per edge) whose head reaches x along edges of R(ec) & es; 0
    elsewhere.

    Edge ids ascend by stage, so one ascending walk over the edges of ``es``
    into those stages finishes every fwd[x] before an edge leaves x.
    Stage-1 edges leave the source, which no lane reaches.
    """
    stage = g._vstage[vi]
    n = len(g._vstage)
    if stage < 2:
        return [0] * n
    lo = g._stage_vertices[stage][0]  # vertex indices ascend by stage
    fwd = list(g._in_mask[:lo])  # lanes whose head is x
    fwd += [0] * (n - lo)
    efrom = g._efrom
    eto = g._eto
    stage_end = g._stage_end
    m = es & (1 << stage_end[stage - 1]) - (1 << stage_end[1])
    while m:
        low = m & -m
        f = low.bit_length() - 1
        m ^= low
        fwd[eto[f]] |= holders[f] & fwd[efrom[f]]
    return fwd


def _backward_lanes(
    g: MultistageGraph, holders: list[int], es: int, vi: int, seed: int = -1
) -> list[int]:
    """back[x] for the vertices x of stages 1 .. stage(vi)-1: the lanes ec
    of ``seed`` for which x reaches ``vi`` along edges of R(ec) & es
    (back[vi] = ``seed``, all lanes by default; 0 elsewhere).

    Edge ids ascend by stage, so one descending walk over the edges of
    ``es`` out of those stages finishes every back[x] before an edge enters
    x.
    """
    stage = g._vstage[vi]
    back = [0] * len(g._vstage)
    back[vi] = seed
    if stage < 2:
        return back
    efrom = g._efrom
    eto = g._eto
    stage_end = g._stage_end
    m = es & ((1 << stage_end[stage - 1]) - (1 << stage_end[1]) | g._in_mask[vi])
    while m:
        f = m.bit_length() - 1
        m ^= 1 << f
        back[efrom[f]] |= holders[f] & back[eto[f]]
    return back


def tidy(es: EdgeSet, u: str, v: str, g: MultistageGraph) -> EdgeSet:
    """Edges of ``es`` on at least one u -> v path contained in ``es``.

    Returns the empty set when u = v (a zero-length path carries no edges).
    Linear in the number of edges.
    """
    return _tidy_idx(g, es, g._vindex[u], g._vindex[v])


def _transpose(masks: list[int]) -> list[int]:
    """out[f]: the indices i whose ``masks[i]`` holds bit f, for a map from
    edges to edge sets."""
    out = [0] * len(masks)
    for i, mask in enumerate(masks):
        ibit = 1 << i
        while mask:
            low = mask & -mask
            out[low.bit_length() - 1] |= ibit
            mask ^= low
    return out


class ReachMap:
    """Mutable map from each edge to its current reachable edge set.

    ``entries[e]`` is the reachable set of edge e and ``holders[f]`` its
    transpose: the edges whose reachable set contains f.  Built from
    ``holders`` alone (``ReachMap(holders=..., estage=...)``).  Entries only
    ever shrink after initialization, so ``bits_deleted`` (the bits removed
    so far) grows on every change, and keeping ``holders`` current costs at
    most the size of the initial map over a whole run.  ``edge_stamps[e]``
    is ``bits_deleted`` after the last change to entry e, and ``stamps[k]``
    the same for the entries of stage k (``estage[e]`` is edge e's stage,
    ``stage_edges[k]`` the edges of stage k), which ``changed_since`` reads.
    """

    __slots__ = (
        "entries",
        "holders",
        "bits_deleted",
        "estage",
        "stamps",
        "edge_stamps",
        "stage_edges",
    )

    def __init__(self, *, holders: list[int], estage: tuple[int, ...]):
        self.entries = _transpose(holders)
        self.holders = holders
        self.bits_deleted = 0
        self.estage = estage
        self.stamps = [0] * (max(estage, default=0) + 1)
        self.edge_stamps = [0] * len(holders)
        stage_edges = [0] * len(self.stamps)
        for eid, k in enumerate(estage):
            stage_edges[k] |= 1 << eid
        self.stage_edges = stage_edges

    def set_entry(self, eid: int, mask: int) -> bool:
        old = self.entries[eid]
        if mask == old:
            return False
        if mask & ~old:
            raise AbnormalTerminationError(f"reachable set of edge {eid} would grow")
        self.entries[eid] = mask
        removed = old & ~mask
        self.bits_deleted += removed.bit_count()
        self.stamps[self.estage[eid]] = self.edge_stamps[eid] = self.bits_deleted
        holders = self.holders
        ebit = 1 << eid
        while removed:
            low = removed & -removed
            holders[low.bit_length() - 1] ^= ebit
            removed ^= low
        return True

    def changed_since(self, k: int, t: int) -> int:
        """The edges of every stage <= ``k`` (``k`` >= 0) with an entry
        changed since ``bits_deleted`` was ``t``: they hold every such
        changed edge, and are 0 exactly when no entry of those stages
        changed.

        It returns that span, not a flag, because ``OperatorCaches.comp_value``
        scans only the span's edges for dirty lanes: a flag followed by a
        scan of every edge up to stage ``k`` made hc-reduced's perfbench
        ``norm_wall_s`` 17% slower (4 of 4 paired runs, 2-core machine)."""
        if t == self.bits_deleted:
            return 0
        stamps = self.stamps[: k + 1]
        if max(stamps) <= t:
            return 0
        span = 0
        stage_edges = self.stage_edges
        for s, stamp in enumerate(stamps):
            if stamp > t:
                span |= stage_edges[s]
        return span


def init_all(g: MultistageGraph) -> ReachMap:
    """Reachable set of every edge.

    For edge e: the edges (of stage > 1) whose both endpoints carry e in
    their edge sets, tidied from e's head to the sink.  All at once: with
    both[f] the edges carried by both endpoints of f, one forward and one
    backward lane pass over ``both`` towards the sink give every tidy as a
    bit lane, exactly as ``mid_tidy``'s tables do.
    """
    m = g.edge_count
    esets = g._esets
    efrom = g._efrom
    eto = g._eto
    both = [0] * m  # the transpose of the untidied sets
    for f in range(g._stage_end[1], m):
        ma = esets[efrom[f]]
        mb = esets[eto[f]]
        if ma is not None and mb is not None:
            both[f] = ma & mb
    sink = g._stage_vertices[g.stage_count][0]
    fwd = _forward_lanes(g, both, g.full_mask, sink)
    back = _backward_lanes(g, both, g.full_mask, sink)
    holders = [both[f] & fwd[efrom[f]] & back[eto[f]] for f in range(m)]
    return ReachMap(holders=holders, estage=g._estage)


def comp(
    es: EdgeSet,
    v: str,
    r: ReachMap,
    g: MultistageGraph,
    *,
    start: EdgeSet | None = None,
    lanes: EdgeSet | None = None,
) -> EdgeSet:
    """Contract ``es`` against the reachable sets, targeting vertex ``v``.

    Repeats two steps until stable: delete every member edge whose reachable
    set, intersected with the working set and tidied from the edge's head to
    ``v``, witnesses no path to ``v`` (members ending at ``v`` are exempt);
    then tidy the working set from the source to ``v``.

    ``start``, if given, is an earlier result of ``comp`` for the same ``es``
    and ``v`` under reachable sets that have only shrunk since.  The working
    set then begins there instead of at ``es``: the result is the greatest
    fixpoint of a monotone, deflationary step, so it lies inside ``start``
    and iterating from either reaches the same set.

    ``lanes``, if given, is a subset of ``start``: the members whose
    reachable sets may have lost a bit inside ``start`` since it was
    computed.  A member's test reads only its own reachable set and the
    working set, so every other member of ``start`` still passes, and the
    first sweep tests ``lanes`` alone, walking only the edges their
    reachable sets hold.  Later sweeps test every member.
    """
    vi = g._vindex[v]
    src = g._stage_vertices[0][0]
    holders = r.holders
    eto = g._eto
    working = es if start is None else start
    if working & ~es:
        raise AbnormalTerminationError("comp start lies outside its edge set")
    if lanes is None:
        lanes, support = working, -1
    else:
        if start is None or lanes & ~start:
            raise AbnormalTerminationError("comp lanes lie outside its start")
        support = 0  # the edges whose holders carry a tested lane
        entries = r.entries
        m = lanes
        while m:
            low = m & -m
            support |= entries[low.bit_length() - 1]
            m ^= low
    tidied = start is not None  # a result of comp is already tidy
    bound = es.bit_count() + 1
    sweeps = 0
    while True:
        sweeps += 1
        if sweeps > bound:
            raise AbnormalTerminationError(f"comp exceeded {bound} sweeps")
        before = working
        # val[x]: the tested members whose reachable set, cut down to the
        # working set, carries a path from x to v
        val = _backward_lanes(g, holders, working & support, vi, lanes)
        # a tested member f passes iff its head carries lane f; val[v] holds
        # every lane, so members ending at v are exempt
        dead = 0
        m = lanes
        while m:
            low = m & -m
            m ^= low
            if not val[eto[low.bit_length() - 1]] & low:
                dead |= low
        working &= ~dead  # untested members stay
        if working != before or not tidied:  # tidy is idempotent
            working = _tidy_idx(g, working, src, vi)
            tidied = True
        if working == before:
            if working & ~es:
                raise AbnormalTerminationError("comp grew its input edge set")
            return working
        lanes, support = working, -1


def change(
    r: ReachMap,
    eid: int,
    g: MultistageGraph,
    caches: "OperatorCaches | None" = None,
) -> EdgeSet:
    """Contract the reachable set of edge e (id ``eid``) against all the
    others.

    For each member edge of the set beyond e's stage, the member is kept only
    if some earlier-stage edge set T anchors it: T holds the edges whose
    reachable sets (cut down to the member's head vertex) witness a path
    carrying both e and the member, and T contracted at e's tail must be
    nonempty.  A T that holds a nonempty contraction result already found
    at e's tail, and still a fixpoint there, passes without contracting; a
    nonempty contraction joins those results.
    After each sweep the set is tidied from e's head to the sink.  Repeats
    until stable and writes the result back into ``r``.

    ``caches`` supplies the current per-vertex edge sets and shares
    contraction results, found fixpoints and lane tables across calls within
    one solver run (defaults to fresh caches over ``g`` and ``r``).
    """
    if caches is None:
        caches = OperatorCaches(g, r)
    efrom = g._efrom
    eto = g._eto
    holders = r.holders
    stage = g._estage[eid]
    ui = efrom[eid]
    vi = eto[eid]
    sink = g._stage_vertices[g.stage_count][0]

    cur = r.entries[eid]
    if stage <= 1:
        r.set_entry(eid, _tidy_idx(g, cur, vi, sink))
        return r.entries[eid]

    bound = cur.bit_count() + 1
    sweeps = 0
    earlier = (1 << g._stage_end[stage - 1]) - 1  # the anchors: edges of stages < stage
    ebit = 1 << eid
    found = None  # caches.fixpoints(ui), fetched at the first guard
    while True:
        sweeps += 1
        if sweeps > bound:
            raise AbnormalTerminationError(f"change exceeded {bound} sweeps")
        before = cur
        cands = cur & g.span_mask(stage + 1, g.stage_count)
        if cands:
            per_b: dict[int, list[int]] = {}
            m = cands
            while m:
                low = m & -m
                kid = low.bit_length() - 1
                m ^= low
                per_b.setdefault(eto[kid], []).append(kid)
            dels = 0
            for bi in sorted(per_b):
                ceb = caches.comp_of(bi)
                # anchors ec with e in tidy(R(ec) & ceb, head(ec), bi)
                anchored = 0
                if ceb & ebit:
                    fwd, back = caches.mid_tidy(bi, ceb, stage)
                    anchored = holders[eid] & earlier & fwd[ui] & back[vi]
                if not anchored:
                    for kid in per_b[bi]:
                        dels |= 1 << kid
                    continue
                for kid in per_b[bi]:
                    kbit = 1 << kid
                    # T: the anchors whose tidied set also holds the member
                    t_mask = anchored & holders[kid] & fwd[efrom[kid]] if ceb & kbit else 0
                    if not t_mask:
                        dels |= kbit
                        continue
                    if found is None:  # r changes only at e's entry below, so it stays valid
                        found = caches.fixpoints(ui)
                    for w in found:
                        if w & t_mask == w:  # a fixpoint inside T: the guard holds
                            caches.guard_certified += 1
                            break
                    else:
                        w = caches.comp_value(t_mask, ui)
                        if w:
                            found.append(w)
                        else:
                            dels |= kbit
            cur &= ~dels
        cur = _tidy_idx(g, cur, vi, sink)
        if cur == before:
            return cur
        r.set_entry(eid, cur)


class OperatorCaches:
    """The solver's per-vertex edge sets and the result caches shared across
    operator calls in one run.

    ``esets[v]`` starts as vertex v's edge set in the graph (0 for the
    source); the solver shrinks it in place, and ``comp_of(v)`` contracts it.

    One rule judges staleness: each record notes ``r.bits_deleted`` when it
    was last known exact and stands while ``r.changed_since(k, stamp)`` is 0
    for the highest stage k whose entries it read: stage(v) - 1 for a
    ``comp`` result at v and for the fixpoints found there (``fixpoints``;
    members ending at v are exempt from the test), the highest stage of
    the exact lanes for lane tables (``mid_tidy``).  No record holds a
    value of ``r.entries``: a ``comp`` entry is its result and its stamp.
    A run from a stale ``comp`` result reads only the entries of the
    members it tests, so only the members whose ``r.edge_stamps`` are
    newer than the entry's stamp (its dirty lanes) can fail, and they lie
    in the stages ``changed_since`` returns, the only members scanned.
    With no dirty lane the result stands, otherwise ``comp`` re-runs from
    the result testing those lanes first (``start``, ``lanes``).
    """

    __slots__ = (
        "graph",
        "r",
        "esets",
        "_comp",
        "_lanes",
        "comp_runs",
        "comp_warm",
        "comp_settled",
        "comp_hits",
        "_found",
        "guard_certified",
    )

    def __init__(self, graph: MultistageGraph, r: ReachMap):
        self.graph = graph
        self.r = r
        self.esets = [m if m is not None else 0 for m in graph._esets]  # by vertex index
        # (vi, es) -> [result, stamp]
        self._comp: dict[tuple[int, int], list] = {}
        # bi -> ((fwd, back), es, stamp when built)
        self._lanes: dict[int, tuple] = {}
        self.comp_runs = 0
        self.comp_warm = 0  # the runs of comp that started from a cached result
        self.comp_settled = 0  # stale entries none of whose members changed
        self.comp_hits = 0
        # vi -> [nonempty comp results found at vi, stamp]
        self._found: dict[int, list] = {}
        self.guard_certified = 0  # change keep-guards answered from _found

    def comp_value(self, es: int, vi: int) -> int:
        r = self.r
        g = self.graph
        hit = self._comp.get((vi, es))
        if hit is None:
            result = comp(es, g._vnames[vi], r, g)
            self._comp[vi, es] = [result, r.bits_deleted]
            self.comp_runs += 1
            return result
        result, stamp = hit
        span = r.changed_since(g._vstage[vi] - 1, stamp)
        if span:
            hit[1] = r.bits_deleted
            # every member changed since stamp lies in span; the members
            # ending at vi, exempt from the test, lie in vi's stage outside it
            stamps = r.edge_stamps
            dirty = 0
            m = result & span
            while m:
                low = m & -m
                m ^= low
                if stamps[low.bit_length() - 1] > stamp:
                    dirty |= low
            if dirty:
                new = comp(es, g._vnames[vi], r, g, start=result, lanes=dirty)
                self.comp_runs += 1
                self.comp_warm += 1
                hit[0] = new
                return new
            self.comp_settled += 1
        self.comp_hits += 1
        return result

    def comp_of(self, vi: int) -> int:
        return self.comp_value(self.esets[vi], vi)

    def mid_tidy(self, bi: int, es: int, stage: int) -> tuple[list[int], list[int]]:
        """Lane tables ``(fwd, back)`` of ``es`` towards vertex ``bi``, exact
        for the lanes (edge ids) of the stages below ``stage``.

        Lane ec walks R(ec) & es: f is in tidy(R(ec) & es, head(ec), bi) iff
        f is in es and bit ec is in holders[f] & fwd[efrom[f]] & back[eto[f]].
        One pair is kept per ``bi``, exact for every lane when built; a lane
        reads only its own entry, so the pair stays exact for those lanes
        while ``es`` and the entries of stages below ``stage`` do.
        """
        r = self.r
        g = self.graph
        hit = self._lanes.get(bi)
        if hit is not None and hit[1] == es and not r.changed_since(stage - 1, hit[2]):
            return hit[0]
        tables = (_forward_lanes(g, r.holders, es, bi), _backward_lanes(g, r.holders, es, bi))
        self._lanes[bi] = (tables, es, r.bits_deleted)
        return tables

    def fixpoints(self, vi: int) -> list[int]:
        """The nonempty ``comp`` results found at vertex ``vi`` that are
        still fixpoints of its step; callers append the ones they find.

        A member's test reads only its own entry, and every tested member
        of a result at ``vi`` is an edge of a stage below stage(``vi``), so
        the list stays exact while the entries of those stages do.
        """
        r = self.r
        hit = self._found.get(vi)
        if hit is not None and not r.changed_since(self.graph._vstage[vi] - 1, hit[1]):
            hit[1] = r.bits_deleted
            return hit[0]
        found: list[int] = []
        self._found[vi] = [found, r.bits_deleted]
        return found
