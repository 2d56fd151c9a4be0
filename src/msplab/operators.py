"""The four basic set operators of the staged fixpoint solver.

* ``tidy(es, u, v)`` restricts an edge set to the edges lying on at least one
  u -> v path whose edges all stay inside the set.
* ``init_all`` seeds the per-edge reachable sets: for an edge e, the edges
  of every e.dst -> sink path along which both endpoints of each visited
  edge carry e in their edge sets.
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
  set, so after a shrink only the members whose reachable sets lost a bit
  inside that result can fail; ``lanes=`` names them, and the first sweep
  tests those alone (semi-naive evaluation, Bancilhon & Ramakrishnan,
  SIGMOD 1986).  ``OperatorCaches.comp_value`` settles a stale entry with
  no such member without a run and re-runs the others that way.  A sweep
  that deletes nothing from a set already tidy skips the tidy step.
* ``change`` contracts one reachable set against all the others until stable.
  Its anchors come from lane tables: for a target vertex b and edge set es,
  one forward and one backward pass over ``holders`` with every edge ec as
  a bit lane give tidy(R(ec) & es, head(ec), b) for all ec at once.
  ``OperatorCaches.mid_tidy`` keeps one pair of tables per target, which
  the solver's re-limit step reads too.  Edge ids ascend by stage, so each
  pass is one walk over the set bits of es, ascending forward and
  descending backward.  The keep-guard asks whether comp(tidy(T, source,
  u), u) is empty for an anchor set T.  The step that ``comp`` iterates
  does not depend on its input set, so a nonempty result W found at u that
  is still a fixpoint lies inside comp of every set holding it (Tarski
  again): a T that holds such a W passes without a ``comp`` lookup
  (``OperatorCaches.fixpoints``).

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
operators are pure functions of their inputs.
"""

from __future__ import annotations

from operator import itemgetter

from .model import AbnormalTerminationError, EdgeRef, EdgeSet, MultistageGraph, VertexId, edge_ids


def _vertex_index(g: MultistageGraph, v) -> int:
    if isinstance(v, VertexId):
        return g._vindex[v.name]
    return g._vindex[v]


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


def tidy(es: EdgeSet, u, v, g: MultistageGraph) -> EdgeSet:
    """Edges of ``es`` on at least one u -> v path contained in ``es``.

    Returns the empty set when u = v (a zero-length path carries no edges).
    Linear in the number of edges.
    """
    return _tidy_idx(g, es, _vertex_index(g, u), _vertex_index(g, v))


def init_reachable(g: MultistageGraph, e: EdgeRef | int) -> EdgeSet:
    """Initial reachable set of edge ``e``, as :func:`init_all` computes it."""
    return init_all(g).get(e)


class ReachMap:
    """Mutable map from each edge to its current reachable edge set.

    ``entries[e]`` is the reachable set of edge e and ``holders[f]`` its
    transpose: the edges whose reachable set contains f.  Entries only ever
    shrink after initialization, so ``bits_deleted`` (the bits removed so
    far) grows on every change, an entry that changed never returns to an
    earlier value, and keeping ``holders`` current costs at most the size of
    the initial map over a whole run.
    """

    __slots__ = ("entries", "holders", "bits_deleted")

    def __init__(self, entries: list[int]):
        self.entries = entries
        holders = [0] * len(entries)
        for eid, mask in enumerate(entries):
            ebit = 1 << eid
            while mask:
                low = mask & -mask
                holders[low.bit_length() - 1] |= ebit
                mask ^= low
        self.holders = holders
        self.bits_deleted = 0

    def get(self, e: EdgeRef | int) -> EdgeSet:
        return self.entries[e.id if isinstance(e, EdgeRef) else e]

    def set_entry(self, eid: int, mask: int) -> bool:
        old = self.entries[eid]
        if mask == old:
            return False
        if mask & ~old:
            raise AbnormalTerminationError(f"reachable set of edge {eid} would grow")
        self.entries[eid] = mask
        removed = old & ~mask
        self.bits_deleted += removed.bit_count()
        holders = self.holders
        ebit = 1 << eid
        while removed:
            low = removed & -removed
            holders[low.bit_length() - 1] ^= ebit
            removed ^= low
        return True


def init_all(g: MultistageGraph) -> ReachMap:
    """Reachable set of every edge.

    For edge e: the edges (of stage > 1) whose both endpoints carry e in
    their edge sets, tidied from e's head to the sink.
    """
    m = g.edge_count
    esets = g._esets
    efrom = g._efrom
    eto = g._eto
    collected = [0] * m
    for f in range(g._stage_end[1], g.edge_count):
        ma = esets[efrom[f]]
        mb = esets[eto[f]]
        if ma is None or mb is None:
            continue
        both = ma & mb
        fbit = 1 << f
        while both:
            low = both & -both
            collected[low.bit_length() - 1] |= fbit
            both ^= low
    sink = g._stage_vertices[g.stage_count][0]
    entries = [_tidy_idx(g, collected[e], eto[e], sink) for e in range(m)]
    return ReachMap(entries)


def comp(
    es: EdgeSet,
    v,
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
    vi = _vertex_index(g, v)
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
    e: EdgeRef | int,
    g: MultistageGraph,
    caches: "OperatorCaches | None" = None,
) -> EdgeSet:
    """Contract the reachable set of edge ``e`` against all the others.

    For each member edge of the set beyond e's stage, the member is kept only
    if some earlier-stage edge set T anchors it: T holds the edges whose
    reachable sets (cut down to the member's head vertex) witness a path
    carrying both ``e`` and the member, and T, tidied to source -> e.src and
    contracted at e.src, must be nonempty.  A T that holds a nonempty
    contraction result already found at e.src, and still a fixpoint there,
    passes without contracting; a nonempty contraction joins those results.
    After each sweep the set is tidied from e's head to the sink.  Repeats
    until stable and writes the result back into ``r``.

    ``caches`` supplies the current per-vertex edge sets and shares
    contraction results, found fixpoints and lane tables across calls within
    one solver run (defaults to fresh caches over the graph's own edge sets).
    """
    eid = e.id if isinstance(e, EdgeRef) else e
    if caches is None:
        caches = OperatorCaches(g, r, [m if m is not None else 0 for m in g._esets])
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
    lanes_hi = g._stage_end[stage - 1]  # the anchors: edge ids with stage < stage
    earlier = (1 << lanes_hi) - 1
    ebit = 1 << eid
    found = caches.fixpoints(ui)  # r changes only at e's entry below, so found stays valid
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
                    fwd, back = caches.mid_tidy(bi, ceb, lanes_hi)
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
                    for w in found:
                        if w & t_mask == w:  # a fixpoint inside T: the guard holds
                            caches.guard_certified += 1
                            break
                    else:
                        w = caches.comp_value(caches.source_tidy(t_mask, ui), ui)
                        if w:
                            found.append(w)
                        else:
                            dels |= kbit
            cur &= ~dels
        cur = _tidy_idx(g, cur, vi, sink)
        if cur == before:
            return cur
        r.set_entry(eid, cur)


def _reader(ids: list[int]):
    """A function returning the tuple of ``entries[i]`` for ``i`` in ``ids``
    (``itemgetter`` over a single id returns the value itself)."""
    if len(ids) > 1:
        return itemgetter(*ids)
    if ids:
        (i,) = ids
        return lambda entries: (entries[i],)
    return lambda entries: ()


class OperatorCaches:
    """Validated result caches shared across operator calls in one run.

    A cached ``comp`` result or lane table is reused only while the
    reachable-set entries and edge-set masks it read are unchanged.  Entries
    only shrink and never return to an earlier value, so comparing them by
    value makes every hit exact.  A ``comp`` run from its cached result
    reads only the entries of the result's members, so a ``comp`` entry
    keeps an ``operator.itemgetter`` over those and the values it read, and
    checking it is one call.  When they have changed, only the members
    whose entries lost a bit inside the result (its dirty lanes) can fail:
    with none the result stands, otherwise ``comp`` re-runs from the result
    testing those lanes first (``start``, ``lanes``).  Source tidies of
    anchor sets depend on the graph alone and are memoized outright.

    Per vertex it also keeps the nonempty ``comp`` results that ``change``'s
    keep-guards found there (``fixpoints``), validated like the lane tables:
    by ``r.bits_deleted``, or else by the entries of the edges up to the
    vertex's stage, the only ones a result there reads.
    """

    __slots__ = (
        "graph",
        "r",
        "esets",
        "_comp",
        "_lanes",
        "_source_tidy",
        "comp_runs",
        "comp_warm",
        "comp_settled",
        "comp_hits",
        "_found",
        "guard_certified",
    )

    def __init__(self, graph: MultistageGraph, r: ReachMap, esets: list[int]):
        self.graph = graph
        self.r = r
        self.esets = esets  # by vertex index; shared, caller-mutated
        # (vi, es) -> [result, r.bits_deleted when last valid, ids of result,
        #              reader of those entries, their values then]
        self._comp: dict[tuple[int, int], list] = {}
        # bi -> [(fwd, back), es, r.bits_deleted when built, entries[:hi] when built]
        self._lanes: dict[int, list] = {}
        # (vi, es) -> tidy(es, source, vi)
        self._source_tidy: dict[tuple[int, int], int] = {}
        self.comp_runs = 0
        self.comp_warm = 0  # the runs of comp that started from a cached result
        self.comp_settled = 0  # stale entries that had no dirty lane
        self.comp_hits = 0
        # vi -> [nonempty comp results found at vi, r.bits_deleted when last
        #        valid, entries[:hi] when found]
        self._found: dict[int, list] = {}
        self.guard_certified = 0  # change keep-guards answered from _found

    def comp_value(self, es: int, vi: int) -> int:
        r = self.r
        g = self.graph
        hit = self._comp.get((vi, es))
        if hit is None:
            result = comp(es, g._vnames[vi], r, g)
            self._comp[vi, es] = self._comp_entry(result)
            self.comp_runs += 1
            return result
        if hit[1] != r.bits_deleted:
            hit[1] = r.bits_deleted
            result, _, ids, read, old = hit
            seen = read(r.entries)
            if seen != old:
                hit[4] = seen
                dirty = 0
                for eid, was, now in zip(ids, old, seen):
                    if was != now and (was ^ now) & result:
                        dirty |= 1 << eid
                if dirty:
                    new = comp(es, g._vnames[vi], r, g, start=result, lanes=dirty)
                    self.comp_runs += 1
                    self.comp_warm += 1
                    if new != result:
                        self._comp[vi, es] = self._comp_entry(new)
                    return new
                self.comp_settled += 1
        self.comp_hits += 1
        return hit[0]

    def _comp_entry(self, result: int) -> list:
        ids = edge_ids(result)
        read = _reader(ids)
        return [result, self.r.bits_deleted, ids, read, read(self.r.entries)]

    def comp_of(self, vi: int) -> int:
        return self.comp_value(self.esets[vi], vi)

    def mid_tidy(self, bi: int, es: int, hi: int) -> tuple[list[int], list[int]]:
        """Lane tables ``(fwd, back)`` of ``es`` towards vertex ``bi``, exact
        for the lanes (edge ids) below ``hi``.

        Lane ec walks R(ec) & es: f is in tidy(R(ec) & es, head(ec), bi) iff
        f is in es and bit ec is in holders[f] & fwd[efrom[f]] & back[eto[f]].
        One pair is kept per ``bi``; a lane reads only its own entry, so the
        pair stays exact while ``es`` and the entries below ``hi`` do.
        """
        r = self.r
        hit = self._lanes.get(bi)
        if hit is not None and hit[1] == es:
            if hit[2] == r.bits_deleted:
                return hit[0]
            seen = hit[3]
            if hi <= len(seen) and r.entries[:hi] == seen[:hi]:
                return hit[0]
        g = self.graph
        tables = (_forward_lanes(g, r.holders, es, bi), _backward_lanes(g, r.holders, es, bi))
        self._lanes[bi] = [tables, es, r.bits_deleted, r.entries[:hi]]
        return tables

    def fixpoints(self, vi: int) -> list[int]:
        """The nonempty ``comp`` results found at vertex ``vi`` that are
        still fixpoints of its step; callers append the ones they find.

        A member's test reads only its own entry, and every member of a
        result at ``vi`` is an edge of a stage up to stage(``vi``), so the
        list stays exact while the entries of those edges do.
        """
        r = self.r
        g = self.graph
        hit = self._found.get(vi)
        if hit is not None:
            if hit[1] == r.bits_deleted:
                return hit[0]
            if r.entries[: len(hit[2])] == hit[2]:
                hit[1] = r.bits_deleted
                return hit[0]
        found: list[int] = []
        self._found[vi] = [found, r.bits_deleted, r.entries[: g._stage_end[g._vstage[vi]]]]
        return found

    def source_tidy(self, es: int, vi: int) -> int:
        """tidy(es, source, vi), memoized."""
        key = (vi, es)
        result = self._source_tidy.get(key)
        if result is None:
            g = self.graph
            result = self._source_tidy[key] = _tidy_idx(g, es, g._stage_vertices[0][0], vi)
        return result
