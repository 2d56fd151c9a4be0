"""The four basic set operators of the staged fixpoint solver.

* ``tidy(es, u, v)`` restricts an edge set to the edges lying on at least one
  u -> v path whose edges all stay inside the set.  A set that was tidy and
  has lost some edges is re-tidied by peeling (``_trim``), which checks
  only the ends of the removed edges and of the edges that go after them.
  Only a tidy whose input was tidy before its deletions may peel:
  ``comp``'s after a sweep that deletes, ``change``'s from its second sweep
  on and the solver's re-limit step.  ``comp``'s cold start and
  ``change``'s first sweep tidy in full, since their input may be untidy.
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
  passes iff the pass carries lane f to f's head, which one mask step
  checks for all the members sharing that head.  Its result is the
  greatest fixpoint of a monotone, deflationary step, so once the
  reachable sets shrink, the new result lies inside the old one (Tarski,
  Pacific J. Math. 5(2), 1955): ``start=`` resumes from an earlier
  result.  A member's test reads only its own reachable set inside the
  working set, so after a shrink only the members whose reachable sets
  lost a bit inside the old result can fail; ``lanes=`` names them
  (``ReachMap.lost_within`` tells which), and the first sweep tests those
  alone (semi-naive evaluation, Bancilhon & Ramakrishnan, SIGMOD 1986).
  Every fixpoint of the step is tidy, so a cold run starts from the tidy of
  its edge set from the source to the target; the working set is then
  always tidy, a sweep that deletes nothing skips the tidy step, one that
  deletes peels, and an empty working set is returned at once, with no
  lane pass.
* ``change`` contracts one reachable set against all the others until stable.
  Its anchors come from lane tables: for a target vertex b and edge set es,
  one forward and one backward pass over ``holders`` with every edge ec as
  a bit lane give tidy(R(ec) & es, head(ec), b) for all ec at once.
  ``OperatorCaches.mid_tidy`` keeps one pair of tables per target, which
  the solver's re-limit step reads too.  Edge ids ascend by stage, so each
  pass is one walk over the set bits of es, ascending forward and
  descending backward, byte by byte through a table of each byte's
  set-bit offsets: a set bit costs a few small-int operations, where
  peeling it off the mask costs three on integers as wide as the graph.
  A forward row at stage k reads only the edges of
  stages <= k, a backward row only those of stages > k, so both passes
  are recomputed only where a change can reach (Ramalingam & Reps, TCS
  158, 1996).  The backward table is built only down to the stage its
  caller reads (``change`` on a stage-s edge reads it at stage s alone)
  and extended by the missing stages when a deeper request comes.  After
  a shrink, the forward pass resumes at the lowest stage holding a walked
  edge that left es or whose ``holders`` changed, and the backward table
  keeps its rows at and above the highest such stage.  A pair found still
  exact for the lanes below stage s at log length t is marked so, and
  ``change`` on an edge of a stage up to s reads it in place while the
  log stays at t.  The keep-guard
  asks whether comp(T, u) is empty for an anchor set T.  ``comp``'s step
  does not depend on its input set and ends with the source tidy, so
  every fixpoint inside T lies inside tidy(T, source, u): ``comp`` starts
  from that tidy itself, so the guard tidies nothing first.  A nonempty
  result W found at u that is still a fixpoint lies inside comp(T, u)
  whenever T holds W (Tarski again), so such a T passes with no ``comp``
  lookup (``OperatorCaches.fixpoints``).  Every T of a ``change`` call
  lies inside e's anchors, ``holders[e]`` cut to the earlier stages, so
  the call keeps only the found fixpoints inside that set and tries first
  the one that answered the last guard.

Two conventions the operator definitions leave open are pinned here:

* In ``comp``, an edge ending exactly at the target vertex passes the
  path-existence test unconditionally (a zero-length path cannot be
  represented as a nonempty edge set); it remains subject to the tidy step.
* In ``change`` on a stage-1 edge there are no earlier-stage edges to anchor
  the keep-guard, so the guard is vacuously satisfied: the mask of members
  to test is empty, and only the final tidy applies.

Deletions inside each fixpoint sweep are collected and applied at sweep end
(ascending edge-id order), so results do not depend on iteration order.
``change`` writes its result back into the reachable map; the other
operators are pure functions of their inputs.  ``OperatorCaches`` holds a
solver run's per-vertex edge sets and the caches above.  Each cache record
reads the entries only inside a set it holds, so it is judged stale by the
bits those entries lost inside that set (``ReachMap.lost_within``), the
semi-naive rule applied to the record itself: a shrink that misses the set
leaves the record exact.
"""

from __future__ import annotations

from bisect import bisect_left

from .model import AbnormalTerminationError, EdgeSet, MultistageGraph

# _BYTE_BITS[b]: the offsets of the set bits of byte b, ascending, through
# which the lane passes walk an edge mask byte by byte; _BYTE_BITS_DOWN holds
# them descending
_BYTE_BITS = tuple(tuple(j for j in range(8) if b >> j & 1) for b in range(256))
_BYTE_BITS_DOWN = tuple(bits[::-1] for bits in _BYTE_BITS)


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


def _trim(g: MultistageGraph, es: int, removed: int, ui: int, vi: int) -> int:
    """tidy(``es``, ui, vi), given that ``es | removed`` is tidy from ui to
    vi and ``es & removed`` is empty, by peeling.

    In a DAG, an edge lies on a ui -> vi path iff its tail is ui or has an
    in-edge on one and its head is vi or has an out-edge on one.  In a tidy
    set every vertex but ui and vi has both, so after a deletion only the
    ends of the removed edges can lose one: a head x != vi left with no
    in-edge loses its out-edges, a tail y != ui left with no out-edge its
    in-edges, and those edges are removed in turn (Italiano, IPL 28(1),
    1988).  Each edge enters the worklist at most once.

    It first returns 0 when ``es`` keeps no edge out of ui or none into vi.
    The full tidy finds that empty result in one step, where peeling would
    take the set apart edge by edge, and after a deleting ``comp`` sweep
    most tidies end empty (4,942 of 5,362 on the first 3,000 default
    campaign seeds, whose ``zh_solve`` time is 5% higher without this
    exit).
    """
    out_mask = g._out_mask
    in_mask = g._in_mask
    if not es & out_mask[ui] or not es & in_mask[vi]:
        return 0
    efrom = g._efrom
    eto = g._eto
    work = removed
    while work:
        low = work & -work
        work ^= low
        f = low.bit_length() - 1
        x = eto[f]
        if x != vi and not es & in_mask[x]:
            drop = es & out_mask[x]
            es ^= drop
            work |= drop
        y = efrom[f]
        if y != ui and not es & out_mask[y]:
            drop = es & in_mask[y]
            es ^= drop
            work |= drop
    return es


def _forward_lanes(
    g: MultistageGraph,
    holders: list[int],
    es: int,
    vi: int,
    fwd: list[int] | None = None,
    low: int = 1,
) -> list[int]:
    """fwd[x] for the vertices x of stages 1 .. stage(vi)-1: the lanes ec
    (one per edge) whose head reaches x along edges of R(ec) & es; 0
    elsewhere.

    Edge ids ascend by stage, so one ascending walk over the edges of ``es``
    into those stages finishes every fwd[x] before an edge leaves x.
    Stage-1 edges leave the source, which no lane reaches.

    fwd[x] reads only ``es`` and ``holders`` on the edges of stages up to
    stage(x).  Given ``fwd``, a table towards ``vi`` whose rows of the
    stages below ``low`` still hold, the pass resumes there: it recomputes
    the rows of stages ``low`` .. stage(vi)-1 in place, walking only the
    edges of those stages.
    """
    vstage = g._vstage
    stage = vstage[vi]
    if fwd is None:
        fwd = [0] * len(vstage)
        low = 1
    if low >= stage:
        return fwd
    a = bisect_left(vstage, low)  # vertex indices ascend by stage
    b = bisect_left(vstage, stage)
    fwd[a:b] = g._in_mask[a:b]  # lanes whose head is x
    m = es & (1 << g._stage_end[stage - 1]) - (1 << g._stage_end[max(low, 2) - 1])
    if not m:
        return fwd
    efrom = g._efrom
    eto = g._eto
    f0 = (m & -m).bit_length() - 1  # the walk starts at the lowest set bit
    m >>= f0
    for byte in m.to_bytes((m.bit_length() + 7) >> 3, "little"):
        if byte:
            for j in _BYTE_BITS[byte]:
                f = f0 + j
                fwd[eto[f]] |= holders[f] & fwd[efrom[f]]
        f0 += 8
    return fwd


def _backward_lanes(
    g: MultistageGraph,
    holders: list[int],
    es: int,
    vi: int,
    seed: int = -1,
    depth: int = 1,
    back: list[int] | None = None,
    top: int = 0,
) -> list[int]:
    """back[x] for the vertices x of stages ``depth`` .. stage(vi)-1 (1 by
    default): the lanes ec of ``seed`` for which x reaches ``vi`` along
    edges of R(ec) & es (back[vi] = ``seed``, all lanes by default; 0
    elsewhere).

    Edge ids ascend by stage, so one descending walk over the edges of
    ``es`` out of those stages finishes every back[x] before an edge enters
    x; it walks only the edges of stages above ``depth``.

    back[x] reads only ``es`` and ``holders`` on the edges of stages above
    stage(x).  Given ``back``, a table towards ``vi`` whose rows of stages
    ``top`` and up still hold, the pass extends it downwards: it recomputes
    the rows of stages ``depth`` .. ``top``-1 in place, walking only the
    edges of stages ``depth``+1 .. ``top``; ``top`` above stage(vi) would
    clear back[vi], and raises.
    """
    vstage = g._vstage
    stage = vstage[vi]
    if back is None:
        back = [0] * len(vstage)
        back[vi] = seed
        top = stage
    elif top > stage:
        raise AbnormalTerminationError(f"backward table kept from stage {top}, above {stage}")
    elif depth < top:
        a = bisect_left(vstage, depth)  # vertex indices ascend by stage
        b = bisect_left(vstage, top)
        back[a:b] = [0] * (b - a)
    if depth >= top:
        return back
    stage_end = g._stage_end
    if top < stage:
        m = es & (1 << stage_end[top]) - (1 << stage_end[depth])
    else:  # of the edges of vi's stage, only those entering vi
        m = es & ((1 << stage_end[stage - 1]) - (1 << stage_end[depth]) | g._in_mask[vi])
    if not m:
        return back
    efrom = g._efrom
    eto = g._eto
    low = (m & -m).bit_length() - 1
    m >>= low
    nbytes = (m.bit_length() + 7) >> 3
    f0 = low + 8 * (nbytes - 1)  # the walk starts at the highest byte
    for byte in m.to_bytes(nbytes, "big"):
        if byte:
            for j in _BYTE_BITS_DOWN[byte]:
                f = f0 + j
                back[efrom[f]] |= holders[f] & back[eto[f]]
        f0 -= 8
    return back


def tidy(es: EdgeSet, u: str, v: str, g: MultistageGraph) -> EdgeSet:
    """Edges of ``es`` on at least one u -> v path contained in ``es``.

    Returns the empty set when u = v (a zero-length path carries no edges).
    Linear in the number of edges.
    """
    return _tidy_idx(g, es, g._vindex[u], g._vindex[v])


def _transpose(masks: list[int]) -> list[int]:
    """out[f]: the indices i whose ``masks[i]`` holds bit f, for a map from
    edges to edge sets.  Each mask is walked byte by byte from its lowest set
    bit, as the lane passes walk theirs."""
    out = [0] * len(masks)
    for i, mask in enumerate(masks):
        if not mask:
            continue
        ibit = 1 << i
        f0 = (mask & -mask).bit_length() - 1
        mask >>= f0
        for byte in mask.to_bytes((mask.bit_length() + 7) >> 3, "little"):
            if byte:
                for j in _BYTE_BITS[byte]:
                    out[f0 + j] |= ibit
            f0 += 8
    return out


class ReachMap:
    """Mutable map from each edge to its current reachable edge set.

    ``entries[e]`` is the reachable set of edge e and ``holders[f]`` its
    transpose: the edges whose reachable set contains f.  Built from
    ``holders`` alone (``ReachMap(holders=..., estage=...)``).  Entries only
    ever shrink after initialization, so keeping ``holders`` current costs
    at most the size of the initial map over a whole run.  ``log`` lists
    every change as ``(1 << e, the bits removed from entry e)``, and its
    length is the one clock: a reader notes ``len(log)`` as t, and
    ``log[t:]`` are the changes made since, which ``lost_within`` and
    ``removed_since`` walk.  ``stamps[k]`` is ``len(log)`` after the last
    change to an entry of stage k (``estage[e]`` is edge e's stage), which
    ``changed_since`` reads.
    """

    __slots__ = ("entries", "holders", "estage", "stamps", "log")

    def __init__(self, *, holders: list[int], estage: tuple[int, ...]):
        self.entries = _transpose(holders)
        self.holders = holders
        self.estage = estage
        self.stamps = [0] * (max(estage, default=0) + 1)
        self.log: list[tuple[int, int]] = []

    def set_entry(self, eid: int, mask: int) -> bool:
        old = self.entries[eid]
        if mask == old:
            return False
        if mask & ~old:
            raise AbnormalTerminationError(f"reachable set of edge {eid} would grow")
        self.entries[eid] = mask
        removed = old & ~mask
        ebit = 1 << eid
        log = self.log
        log.append((ebit, removed))
        self.stamps[self.estage[eid]] = len(log)
        holders = self.holders
        while removed:
            low = removed & -removed
            holders[low.bit_length() - 1] ^= ebit
            removed ^= low
        return True

    def changed_since(self, k: int, t: int) -> bool:
        """Whether an entry of a stage <= ``k`` (``k`` >= 0) changed since
        the log held ``t`` changes."""
        return t != len(self.log) and max(self.stamps[: k + 1]) > t

    def lost_within(self, members: int, t: int, within: int) -> int:
        """The edges of ``members`` whose entry lost a bit of ``within``
        since the log held ``t`` changes.  It walks those changes, not the
        members, so it costs little for a recent ``t``."""
        if not members:
            return 0
        lost = 0
        for ebit, removed in self.log[t:]:
            if removed & within and members & ebit:
                lost |= ebit
        return lost

    def removed_since(self, t: int) -> int:
        """The bits removed from any entry since the log held ``t``
        changes: the edges f whose ``holders[f]`` changed since then."""
        removed = 0
        for _, bits in self.log[t:]:
            removed |= bits
        return removed


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

    The result is the greatest fixpoint inside ``es`` of a monotone,
    deflationary step, so iterating from any set between it and ``es``
    reaches it.  Every fixpoint of the step is tidy, so the result lies
    inside tidy(es, source, v), and the working set begins there: a set
    whose tidy is empty returns 0 with no lane pass.  ``start``, if given,
    is where it begins instead: a subset of ``es``, tidy from the source to
    ``v``, that holds the result, such as that tidy or an earlier result
    for the same ``es`` and ``v`` under reachable sets that have only
    shrunk since.  A sweep that deletes re-tidies the working set by
    peeling off what its deletions cut (``_trim``), which is exact only
    because the set it deleted from was tidy: the peel relies on ``start``
    being tidy.

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
    in_mask = g._in_mask
    if start is None:
        if lanes is not None:
            raise AbnormalTerminationError("comp lanes lie outside its start")
        start = _tidy_idx(g, es, src, vi)  # every fixpoint of the step is tidy
    elif start & ~es:
        raise AbnormalTerminationError("comp start lies outside its edge set")
    working = start
    if lanes is None:
        lanes, support = working, -1
    else:
        if lanes & ~start:
            raise AbnormalTerminationError("comp lanes lie outside its start")
        support = 0  # the edges whose holders carry a tested lane
        entries = r.entries
        m = lanes
        while m:
            low = m & -m
            support |= entries[low.bit_length() - 1]
            m ^= low
    if not working:
        return 0
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
        # a tested member f passes iff its head x carries lane f, tested for
        # all of x's members at once; val[v] holds every lane, so members
        # ending at v are exempt
        passed = 0
        m = lanes
        while m:
            x = eto[m.bit_length() - 1]
            heads = m & in_mask[x]
            m ^= heads
            passed |= heads & val[x]
        working &= ~lanes | passed  # untested members stay
        if working != before:  # the working set starts tidy, and tidy is idempotent
            working = _trim(g, working, before & ~working, src, vi)
        if working == before or not working:
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

    For each member edge of the set beyond e's stage (none on a stage-1
    edge), the member is kept only if some earlier-stage edge set T anchors
    it: T holds the edges whose reachable sets (cut down to the member's
    head vertex) witness a path carrying both e and the member, and T
    contracted at e's tail must be nonempty.  A T that holds a nonempty
    contraction result already found at e's tail, and still a fixpoint
    there, passes without contracting; a nonempty contraction joins those
    results.  Every T lies inside e's anchors, ``holders[eid]`` cut to the
    stages below e's, so only the results inside them are tried, the one
    that answered the last guard first.  After each sweep the set is tidied
    from e's head to the sink: in full after sweep 1, since the entry may be
    untidy, and by peeling off what the sweep's deletions cut after later
    sweeps, which start from the last sweep's tidy result (``_trim``); a
    later sweep that deletes nothing ends the call.  Repeats until stable
    and writes the result back into ``r``.

    A sweep walks the head vertices b of the members in index order and
    takes each one's members as the mask ``cands & in_mask[b]``.  A group
    with no anchor goes out whole, as do its members outside comp(b); only
    those inside comp(b) are tested one by one.  r does not change within a
    sweep, so a ``comp`` record for (b, esets[b]) stamped ``len(r.log)`` is
    current and read as it is; so are lane tables towards b over comp(b)
    whose back rows reach e's stage, when ``mid_tidy`` stamped them
    ``len(r.log)`` or found them exact then for the lanes below a stage at
    or above e's.  Only otherwise is ``comp_value`` or ``mid_tidy`` called.
    Such a read is no ``comp_value`` lookup, so it counts no ``comp_hits``.

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
    bound = cur.bit_count() + 1
    sweeps = 0
    earlier = (1 << g._stage_end[stage - 1]) - 1  # the anchors: edges of stages < stage
    later = g.span_mask(stage + 1, g.stage_count) if stage > 1 else 0  # the members to test
    ebit = 1 << eid
    estage = g._estage
    in_mask = g._in_mask
    stage_vertices = g._stage_vertices
    esets = caches.esets
    comp_recs = caches._comp
    lane_recs = caches._lanes
    log = r.log
    # caches.fixpoints(ui) and the ones of them inside holders[eid] & earlier,
    # the only ones that can lie inside a T; fetched at the first guard
    found = inside = None
    certifier = -1  # the fixpoint that answered the last guard (-1 lies in no T)
    while True:
        sweeps += 1
        if sweeps > bound:
            raise AbnormalTerminationError(f"change exceeded {bound} sweeps")
        before = cur
        cands = cur & later
        dels = 0
        if cands:
            now = len(log)  # r changes only at e's entry below
            exact = (now, stage)  # a lane record (t, s) at least this has t = now, s >= stage
            # the head vertices in index order; vertex indices ascend by stage
            first = stage_vertices[estage[(cands & -cands).bit_length() - 1]][0]
            last = stage_vertices[estage[cands.bit_length() - 1]][-1]
            for bi in range(first, last + 1):
                group = cands & in_mask[bi]
                if not group:
                    continue
                # current cache records are read as they are, with no lookup
                eb = esets[bi]
                rec = comp_recs.get((bi, eb))
                ceb = rec[0] if rec is not None and rec[1] == now else caches.comp_value(eb, bi)
                if not ceb & ebit:
                    dels |= group
                    continue
                rec = lane_recs.get(bi)
                if rec is not None and rec[4] >= exact and rec[1] == ceb and rec[3] <= stage:
                    fwd, back = rec[0]
                else:
                    fwd, back = caches.mid_tidy(bi, ceb, stage, stage)
                # anchors ec with e in tidy(R(ec) & ceb, head(ec), bi)
                anchored = holders[eid] & earlier & fwd[ui] & back[vi]
                if not anchored:
                    dels |= group
                    continue
                dels |= group & ~ceb
                m = group & ceb
                while m:
                    kbit = m & -m
                    kid = kbit.bit_length() - 1
                    m ^= kbit
                    # T: the anchors whose tidied set also holds the member
                    t_mask = anchored & holders[kid] & fwd[efrom[kid]]
                    if not t_mask:
                        dels |= kbit
                        continue
                    if found is None:  # r changes only at e's entry below, so both stay valid
                        found = caches.fixpoints(ui)
                        anchors = holders[eid] & earlier
                        inside = [w for w in found if w & anchors == w]
                    if certifier & t_mask == certifier:
                        caches.guard_certified += 1
                        continue
                    for w in inside:
                        if w & t_mask == w:  # a fixpoint inside T: the guard holds
                            caches.guard_certified += 1
                            certifier = w
                            break
                    else:
                        w = caches.comp_value(t_mask, ui)
                        if w:
                            found.append(w)
                            inside.append(w)
                            certifier = w
                        else:
                            dels |= kbit
        if sweeps == 1:  # the entry may be untidy
            cur = _tidy_idx(g, cur & ~dels, vi, sink)
        elif dels:  # the last sweep left cur tidy
            cur = _trim(g, cur & ~dels, dels, vi, sink)
        if cur == before:
            return cur
        r.set_entry(eid, cur)


class OperatorCaches:
    """The solver's per-vertex edge sets and the result caches shared across
    operator calls in one run.

    ``esets[v]`` starts as vertex v's edge set in the graph (0 for the
    source), which the solver shrinks in place to its ``comp_value``.

    One rule judges staleness.  Each record reads the entries of some edges
    only inside a set X it holds: a ``comp`` result W at v reads R(f) & W
    for its members f (X = W; members ending at v are exempt from the
    test), so does a fixpoint W found at v (``fixpoints``), and lane ec of
    the tables towards b reads R(ec) & es (``mid_tidy``; X = es).  Each
    record stamps ``len(r.log)`` when it was last known exact, and
    ``r.lost_within`` picks the edges it read whose entries lost a bit
    inside X since then (``r.changed_since`` first passes over a record
    none of whose stages changed; lane tables ask ``r.removed_since``
    instead, see ``mid_tidy``).  A nonempty W at v is tidy from the
    source to v, so its tested members are its edges outside v's stage,
    ``W & ~in_mask[v]``.  With none, every read is as before,
    so the record is still exact and is re-stamped: W is still a fixpoint
    of comp's step (whose tidy reads no entry), and still the greatest
    inside the ``comp`` key's edge set, since that can only shrink as
    entries do.  No record holds a value of ``r.entries``: a ``comp`` entry
    is its result and its stamp.
    A stale ``comp`` entry with no such member settles (``comp_settled``);
    otherwise ``comp`` re-runs from the result, testing those members
    first (``start``, ``lanes``).  A found fixpoint with such a member is
    dropped, and lane tables with such a lane are recomputed from the
    lowest stage the loss can reach.  A cold ``comp``
    result is also entered under its own value, since comp of a fixpoint is
    itself.

    ``comp_hits`` (``operator_calls["comp_cache_hits"]``) counts the hits
    made inside ``comp_value`` alone: every ``comp_value`` call that runs no
    ``comp``.  ``change`` reads records already stamped ``len(r.log)``
    directly, with no call, and those reads are not lookups.
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
        # bi -> [(fwd, back), es, stamp, the lowest stage back holds at,
        #        (t, s): at log length t the pair is exact for the lanes below s]
        self._lanes: dict[int, list] = {}
        self.comp_runs = 0
        self.comp_warm = 0  # the runs of comp that started from a cached result
        self.comp_settled = 0  # stale entries none of whose members lost a bit inside
        self.comp_hits = 0
        # vi -> [nonempty comp results found at vi, stamp]
        self._found: dict[int, list] = {}
        self.guard_certified = 0  # change keep-guards answered from _found

    def comp_value(self, es: int, vi: int) -> int:
        """comp(``es``, v) for the vertex v of index ``vi``, under the
        current reachable sets.

        A key seen before returns its record once it is brought up to date
        by the rule above: as it is while no entry it read lost a bit inside
        the result (a hit, counted in ``comp_hits``; ``comp_settled`` too if
        the record's stages changed), else by a ``comp`` re-run from the
        result that tests the members whose entries lost one.  A new key
        runs ``comp`` cold and enters the result under the key and under
        its own value.
        """
        r = self.r
        g = self.graph
        hit = self._comp.get((vi, es))
        if hit is None:
            result = comp(es, g._vnames[vi], r, g)
            self._comp[vi, es] = [result, len(r.log)]
            self._comp[vi, result] = [result, len(r.log)]  # comp of a fixpoint is itself
            self.comp_runs += 1
            return result
        result, stamp = hit
        if r.changed_since(g._vstage[vi] - 1, stamp):
            hit[1] = len(r.log)
            # the members ending at vi are exempt from the test
            dirty = r.lost_within(result & ~g._in_mask[vi], stamp, result)
            if dirty:
                new = comp(es, g._vnames[vi], r, g, start=result, lanes=dirty)
                self.comp_runs += 1
                self.comp_warm += 1
                hit[0] = new
                return new
            self.comp_settled += 1
        self.comp_hits += 1
        return result

    def mid_tidy(self, bi: int, es: int, stage: int, depth: int) -> tuple[list[int], list[int]]:
        """Lane tables ``(fwd, back)`` of ``es`` towards vertex ``bi``, exact
        for the lanes (edge ids) of the stages below ``stage``: ``fwd`` at
        every vertex, ``back`` at the vertices of stages ``depth`` and up.

        Lane ec walks R(ec) & es: f is in tidy(R(ec) & es, head(ec), bi) iff
        f is in es and bit ec is in holders[f] & fwd[efrom[f]] & back[eto[f]].
        ``change`` on an edge of stage s reads back only at the edge's head,
        so it asks for depth s; the re-limit step asks for depth 1.

        One pair is kept per ``bi``, with the lowest stage its back rows
        reach; a deeper request extends back by the missing stages alone.
        The pair is exact for every lane when stamped; a lane reads only its
        own entry inside ``es``, so the pair stays exact for the lanes of
        stages below ``stage`` while ``es`` does and their entries lose no
        bit of it.  Such a pair is returned as it is, and the record notes
        (t, s): at log length t it is exact for the lanes below stage s,
        the highest such stage proven at t, and ``change`` reads it in place
        while that covers its stage.  Otherwise the edges the passes walk
        that changed since the stamp are those that left or joined ``es``
        and those whose ``holders`` changed (``r.removed_since``).  With
        none the pair is re-stamped as it is, because later calls may ask
        for every lane.  Else fwd resumes at the lowest stage holding a
        changed edge, and back keeps its rows of the stages at or above the
        highest one.
        """
        r = self.r
        g = self.graph
        now = len(r.log)
        rec = self._lanes.get(bi)
        if rec is None:
            tables = (
                _forward_lanes(g, r.holders, es, bi),
                _backward_lanes(g, r.holders, es, bi, depth=depth),
            )
            self._lanes[bi] = [tables, es, now, depth, (now, g.stage_count + 1)]
            return tables
        tables, old, t, top, exact = rec  # back holds at the stages top and up
        if old == es and not r.changed_since(stage - 1, t):
            if exact < (now, stage):
                rec[4] = now, stage
        else:
            walked = g.span_mask(2, g._vstage[bi] - 1) | g._in_mask[bi]
            changed = (old ^ es | r.removed_since(t) & es) & walked
            if changed:
                estage = g._estage
                fwd, back = tables
                low = estage[(changed & -changed).bit_length() - 1]
                _forward_lanes(g, r.holders, es, bi, fwd, low)
                top = rec[3] = max(top, estage[changed.bit_length() - 1])
                tables = (fwd, back)
            rec[:3] = tables, es, now
            rec[4] = now, g.stage_count + 1
        if depth < top:
            _backward_lanes(g, r.holders, es, bi, depth=depth, back=tables[1], top=top)
            rec[3] = depth
        return tables

    def fixpoints(self, vi: int) -> list[int]:
        """The nonempty ``comp`` results found at vertex ``vi`` that are
        still fixpoints of its step; callers append the ones they find.

        A member's test reads only its own entry inside the result, and
        every tested member of a result at ``vi`` is an edge of a stage
        below stage(``vi``), so a result stays a fixpoint while none of
        those members loses a bit inside it; the others are dropped.  One
        ``r.lost_within`` over the union of the list names the suspects,
        the members that lost a bit inside the union; only the results
        holding a suspect are asked about again.
        """
        r = self.r
        hit = self._found.get(vi)
        if hit is None:
            found: list[int] = []
            self._found[vi] = [found, len(r.log)]
            return found
        found, t = hit
        if found and r.changed_since(self.graph._vstage[vi] - 1, t):
            union = 0
            for w in found:
                union |= w
            suspects = r.lost_within(union & ~self.graph._in_mask[vi], t, union)
            if suspects:
                found[:] = [
                    w for w in found if not (w & suspects and r.lost_within(w & suspects, t, w))
                ]
        hit[1] = len(r.log)
        return found
