from __future__ import annotations

import subprocess
import sys

import pytest

from msplab.lab import gen_ugraph
from msplab.model import AbnormalTerminationError, edge_ids, edge_set, validate
from msplab.operators import (
    OperatorCaches,
    ReachMap,
    _backward_lanes,
    _forward_lanes,
    change,
    comp,
    init_all,
    tidy,
)
from msplab.reduction import reduce_hc_to_msp

from . import reference as ref
from .conftest import CHAIN_EDGES, CHAIN_VERTICES, E1, E2, E3, mk_graph, random_graph


def triples_of(g, mask):
    return frozenset(g.edge_triple(i) for i in edge_ids(mask))


def mask_of(g, triples):
    return edge_set(g.edge_id(*t) for t in triples)


# -- tidy ------------------------------------------------------------------


def test_tidy_keeps_full_chain(chain_c):
    assert tidy(chain_c.full_mask, "S", "D", chain_c) == chain_c.full_mask


def test_tidy_drops_dangling_edge():
    dangling = ("a", "c", 2)
    g = mk_graph(
        3,
        CHAIN_VERTICES + [("c", 2)],
        CHAIN_EDGES + [dangling],
        {"a": [], "b": [], "c": [], "D": []},
    )
    result = tidy(g.full_mask, "S", "D", g)
    assert triples_of(g, result) == frozenset(CHAIN_EDGES)
    # confirmed by explicit path enumeration
    rg = ref.RefGraph(g)
    assert triples_of(g, result) == ref.tidy_ref(rg, frozenset(rg.edges), "S", "D")


def test_tidy_empty_and_self(chain_c):
    assert tidy(0, "S", "D", chain_c) == 0
    assert tidy(chain_c.full_mask, "b", "b", chain_c) == 0


def test_tidy_matches_reference_on_random_graphs():
    import random

    for seed in range(40):
        g = random_graph(seed, stages=3 + seed % 3)
        rg = ref.RefGraph(g)
        rnd = random.Random(1000 + seed)
        names = list(g.vertex_names())
        stage = dict(g.document_data()[0])
        for _ in range(6):
            es = rnd.randrange(g.full_mask + 1) if g.full_mask else 0
            u = rnd.choice(names)
            v = rnd.choice(names)
            if stage[u] > stage[v]:
                u, v = v, u
            got = tidy(es, u, v, g)
            want = ref.tidy_ref(rg, triples_of(g, es), u, v)
            assert triples_of(g, got) == want, (seed, u, v, edge_ids(es))


def test_tidy_contraction_and_idempotence():
    import random

    for seed in range(25):
        g = random_graph(seed)
        rnd = random.Random(seed)
        es = rnd.randrange(g.full_mask + 1) if g.full_mask else 0
        once = tidy(es, "S", "D", g)
        assert once & ~es == 0
        assert tidy(once, "S", "D", g) == once


# -- init ------------------------------------------------------------------


def test_init_examples_chain(chain_c):
    entries = init_all(chain_c).entries
    assert triples_of(chain_c, entries[0]) == {E2, E3}
    assert triples_of(chain_c, entries[1]) == {E3}
    assert entries[2] == 0


def test_init_example_chain_cprime(chain_cprime):
    assert init_all(chain_cprime).entries[0] == 0
    # no reachable path of e1 makes it to the sink
    rg = ref.RefGraph(chain_cprime)
    assert ref.reachable_paths_ref(rg, E1) == []


def test_init_all_chain(chain_c):
    r = init_all(chain_c)
    assert [triples_of(chain_c, m) for m in r.entries] == [{E2, E3}, {E3}, set()]


def test_init_all_empty_esets():
    g = mk_graph(3, CHAIN_VERTICES, CHAIN_EDGES, {"a": [], "b": [], "D": []})
    assert init_all(g).entries == [0, 0, 0]


def test_init_full_esets_is_paths_to_sink():
    for seed in range(15):
        g = random_graph(seed, eset_p=2.0)  # every edge set is the universe
        rg = ref.RefGraph(g)
        r = init_all(g)
        for eid in range(g.edge_count):
            want = set()
            for path in ref.reachable_paths_ref(rg, g.edge_triple(eid)):
                want.update(path)
            assert triples_of(g, r.entries[eid]) == want


def test_init_matches_definition_everywhere():
    for seed in range(25):
        g = random_graph(seed, stages=3 + seed % 2)
        rg = ref.RefGraph(g)
        entries = init_all(g).entries
        for eid in range(g.edge_count):
            got = triples_of(g, entries[eid])
            want = set()
            for path in ref.reachable_paths_ref(rg, g.edge_triple(eid)):
                want.update(path)
            assert got == want, (seed, g.edge_triple(eid))


def test_init_stage_soundness():
    for seed in range(20):
        g = random_graph(seed)
        r = init_all(g)
        for eid in range(g.edge_count):
            floor = g.edge_triple(eid)[2]
            for member in edge_ids(r.entries[eid]):
                assert g.edge_triple(member)[2] > floor


def test_init_all_holders_and_short_and_long_graphs():
    """``init_all`` builds the transpose too, matches the definition on
    one- and two-stage graphs and where a vertex has no edge set, and on
    a long chain with full edge sets reaches every later edge."""
    graphs = [random_graph(seed, stages=1 + seed % 2, eset_p=0.8) for seed in range(20)]
    for seed in range(20):
        vertices, edges, esets = random_graph(seed, stages=3 + seed % 2, eset_p=0.9).document_data()
        names = sorted(esets)
        del esets[names[seed % len(names)]]  # a non-source vertex with no edge set
        graphs.append(mk_graph(3 + seed % 2, vertices, edges, esets))
    assert any(None in g._esets[1:] for g in graphs)
    for gi, g in enumerate(graphs):
        rg = ref.RefGraph(g)
        r = init_all(g)
        want = ref.init_all_ref(rg)
        assert [triples_of(g, m) for m in r.entries] == [want[t] for t in rg.edges], gi
        assert r.holders == [
            edge_set(e for e, m in enumerate(r.entries) if m >> f & 1) for f in range(g.edge_count)
        ]

    names = ["S", *(f"c{i}" for i in range(1, 150)), "D"]
    edges = [(names[k - 1], names[k], k) for k in range(1, 151)]
    g = mk_graph(150, [(name, k) for k, name in enumerate(names)], edges, {n: edges for n in names[1:]})
    r = init_all(g)
    assert r.entries == [g.full_mask & ~((2 << e) - 1) for e in range(150)]
    assert r.holders == [(1 << f) - 1 for f in range(150)]


# -- comp ------------------------------------------------------------------


def test_comp_chain_examples(chain_c, chain_cprime):
    r = init_all(chain_c)
    assert comp(chain_c.eset("D"), "D", r, chain_c) == chain_c.full_mask
    rp = init_all(chain_cprime)
    assert comp(chain_cprime.eset("D"), "D", rp, chain_cprime) == 0
    assert comp(0, "D", r, chain_c) == 0


def test_comp_matches_reference_on_random_graphs():
    import random

    for seed in range(30):
        g = random_graph(seed, stages=3 + seed % 3)
        rg = ref.RefGraph(g)
        r = init_all(g)
        reach = {g.edge_triple(i): triples_of(g, m) for i, m in enumerate(r.entries)}
        rnd = random.Random(2000 + seed)
        for name in g.vertex_names():
            if name == "S":
                continue
            es = g.eset(name) if rnd.random() < 0.5 else rnd.randrange(g.full_mask + 1)
            got = comp(es, name, r, g)
            want = ref.comp_ref(rg, triples_of(g, es), name, reach)
            assert triples_of(g, got) == want, (seed, name, edge_ids(es))


def transpose(entries):
    holders = [0] * len(entries)
    for eid, mask in enumerate(entries):
        for f in edge_ids(mask):
            holders[f] |= 1 << eid
    return holders


def test_comp_matches_reference_as_entries_shrink():
    """``comp`` reads ``ReachMap.holders``, which ``set_entry`` keeps the
    transpose of the entries.  Shrink every entry a few bits at a time until
    the map is empty; the transpose and ``comp`` must stay exact throughout,
    also on Hamilton-circuit reductions, whose many stages make long
    backward passes.  A run warm-started from the result the same query
    gave before the shrinks must reach the same set, also when its first
    sweep tests only the members whose entries lost a bit inside that
    result (``lanes``)."""
    import random

    graphs = [random_graph(seed, stages=3 + seed % 5, max_width=4) for seed in range(40)]
    graphs += [reduce_hc_to_msp(gen_ugraph(5, 0.6, seed))[0] for seed in range(6)]
    checked = warm_moved = lanes_moved = lanes_partial = 0
    for gi, g in enumerate(graphs):
        rg = ref.RefGraph(g)
        rnd = random.Random(4000 + gi)
        r = init_all(g)
        targets = g.vertex_names()[1:]
        previous = {}  # (name, es) -> (result of comp, entries) before the latest shrinks
        while True:
            assert r.holders == transpose(r.entries), gi
            reach = {g.edge_triple(i): triples_of(g, m) for i, m in enumerate(r.entries)}
            for name in rnd.sample(targets, min(3, len(targets))):
                es = g.eset(name) if rnd.random() < 0.5 else g.full_mask
                got = comp(es, name, r, g)
                want = ref.comp_ref(rg, triples_of(g, es), name, reach)
                assert triples_of(g, got) == want, (gi, name, edge_ids(es))
                checked += bool(got)
                if (name, es) in previous:
                    start, then = previous[name, es]
                    warm = comp(es, name, r, g, start=start)
                    assert triples_of(g, warm) == want, (gi, name, edge_ids(es), edge_ids(start))
                    warm_moved += warm != start
                    dirty = edge_set(
                        ec for ec in edge_ids(start) if (then[ec] ^ r.entries[ec]) & start
                    )
                    got_lanes = comp(es, name, r, g, start=start, lanes=dirty)
                    assert triples_of(g, got_lanes) == want, (gi, name, edge_ids(dirty))
                    lanes_moved += got_lanes != start
                    lanes_partial += 0 < dirty != start and got_lanes != start
                previous[name, es] = got, list(r.entries)
            held = [eid for eid, m in enumerate(r.entries) if m]
            if not held:
                break
            eid = rnd.choice(held)
            bits = edge_ids(r.entries[eid])
            drop = edge_set(rnd.sample(bits, min(len(bits), rnd.randint(1, 3))))
            assert r.set_entry(eid, r.entries[eid] & ~drop)
    assert checked > 100 and warm_moved > 20 and lanes_moved > 20 and lanes_partial > 10


def test_comp_tidies_an_untidy_set_whose_first_sweep_deletes_nothing():
    """Two routes S -> a -> D and S -> b -> D; the edge set misses S -> b.
    No member fails the path test (b -> D ends at the target), so the first
    sweep deletes nothing, yet b -> D lies on no S -> D path inside the set
    and the tidy step must still remove it, cold or warm."""
    vertices = [("S", 0), ("a", 1), ("b", 1), ("D", 2)]
    edges = [("S", "a", 1), ("S", "b", 1), ("a", "D", 2), ("b", "D", 2)]
    g = mk_graph(2, vertices, edges, {"a": edges, "b": edges, "D": edges})
    r = init_all(g)
    es = mask_of(g, [("S", "a", 1), ("a", "D", 2), ("b", "D", 2)])
    want = mask_of(g, [("S", "a", 1), ("a", "D", 2)])
    rg = ref.RefGraph(g)
    reach = {g.edge_triple(i): triples_of(g, m) for i, m in enumerate(r.entries)}
    assert ref.comp_ref(rg, triples_of(g, es), "D", reach) == triples_of(g, want)
    assert comp(es, "D", r, g) == want
    assert comp(es, "D", r, g, start=want) == want
    assert comp(es, "D", r, g, start=0) == 0


def test_comp_rejects_a_start_outside_its_edge_set(chain_c):
    r = init_all(chain_c)
    es = chain_c.eset("D")
    with pytest.raises(AbnormalTerminationError):
        comp(es & ~1, "D", r, chain_c, start=es)


def test_comp_rejects_lanes_outside_its_start(chain_c):
    r = init_all(chain_c)
    es = chain_c.eset("D")
    with pytest.raises(AbnormalTerminationError):
        comp(es, "D", r, chain_c, lanes=1)
    with pytest.raises(AbnormalTerminationError):
        comp(es, "D", r, chain_c, start=es & ~1, lanes=1)
    assert comp(es, "D", r, chain_c, start=es, lanes=0) == es


def test_comp_contraction_idempotence_and_bound():
    import random

    for seed in range(25):
        g = random_graph(seed)
        r = init_all(g)
        rnd = random.Random(seed)
        for name in g.vertex_names():
            if name == "S":
                continue
            es = rnd.randrange(g.full_mask + 1) if g.full_mask else 0
            once = comp(es, name, r, g)
            assert once & ~es == 0
            assert comp(once, name, r, g) == once


def test_comp_deletion_scheduling_is_confluent_here():
    """Batch and in-place (both directions) reach the same fixpoint on a
    thousand random instances; a divergence would be a reportable finding."""
    divergences = []
    for seed in range(1000):
        g = random_graph(seed, stages=3 + seed % 3, max_width=2, edge_p=0.8)
        rg = ref.RefGraph(g)
        r = init_all(g)
        reach = {g.edge_triple(i): triples_of(g, m) for i, m in enumerate(r.entries)}
        es = g.eset("D")
        results = {
            triples_of(g, comp(es, "D", r, g)),
            ref.comp_inplace_ref(rg, triples_of(g, es), "D", reach),
            ref.comp_inplace_ref(rg, triples_of(g, es), "D", reach, descending=True),
        }
        if len(results) != 1:
            divergences.append(seed)
    assert divergences == []


# -- change ----------------------------------------------------------------


def test_change_chain_keeps_candidate(chain_c):
    r = init_all(chain_c)
    result = change(r, 1, chain_c)
    assert triples_of(chain_c, result) == {E3}
    assert r.entries[1] == result


def test_change_stage1_tidies_only(chain_c):
    r = init_all(chain_c)
    before = r.entries[0]
    assert change(r, 0, chain_c) == before  # already tidy


def test_change_empty_entry(chain_cprime):
    r = init_all(chain_cprime)
    assert r.entries[0] == 0
    assert change(r, 0, chain_cprime) == 0


def test_change_matches_reference_on_random_graphs():
    for seed in range(25):
        g = random_graph(seed, stages=3 + seed % 3, max_width=2)
        rg = ref.RefGraph(g)
        r = init_all(g)
        reach = {g.edge_triple(i): triples_of(g, m) for i, m in enumerate(r.entries)}
        for eid in range(g.edge_count):
            got = change(r, eid, g)
            want = ref.change_ref(rg, reach, g.edge_triple(eid))
            assert triples_of(g, got) == want, (seed, g.edge_triple(eid))


def test_change_result_within_prior_entry():
    for seed in range(25):
        g = random_graph(seed)
        r = init_all(g)
        for eid in range(g.edge_count):
            prior = r.entries[eid]
            assert change(r, eid, g) & ~prior == 0


# -- operator caches -------------------------------------------------------


def lane_tidy(g, r, tables, es, ec):
    """tidy(R(ec) & es, head(ec), bi), read back from the lane tables that
    ``OperatorCaches.mid_tidy(bi, es, stage)`` returned."""
    fwd, back = tables
    vidx = {name: i for i, name in enumerate(g.vertex_names())}
    ends = [(vidx[src], vidx[dst]) for src, dst, _ in map(g.edge_triple, edge_ids(es))]
    return edge_set(
        f
        for f, (a, b) in zip(edge_ids(es), ends)
        if (r.holders[f] & fwd[a] & back[b]) >> ec & 1
    )


def test_operator_caches_stay_exact_as_entries_shrink():
    """Cached comp results and lane tables always equal fresh ones while
    reachable-set entries shrink, whether or not the cached call read them.
    Some stale comp entries must settle without a run (every shrink of the
    entries they read missed the cached result) and some must re-run."""
    import random

    hits = changed = lane_hits = warm = settled = 0
    for seed in range(40):
        g = random_graph(seed, stages=3 + seed % 3, eset_p=0.9)
        if not g.full_mask:
            continue
        rnd = random.Random(3000 + seed)
        r = init_all(g)
        names = g.vertex_names()
        caches = OperatorCaches(g, r)
        vis = range(1, len(names))
        comp_queries = [(g.full_mask, vi) for vi in vis] + [(g.eset(names[vi]), vi) for vi in vis]
        read = 0  # edges whose entries the edge-set queries read
        for vi in vis:
            read |= g.eset(names[vi])
        # one edge set per target; each table is asked for some lanes, then all
        mid_queries = [
            (bi, ceb, stage)
            for bi in vis
            for ceb in (g.full_mask if bi % 2 else rnd.randrange(g.full_mask + 1),)
            for stage in (rnd.randrange(1, g.stage_count + 2), g.stage_count + 1)
        ]
        last = None
        last_tables = {}
        for step in range(12):
            seen = []
            for es, vi in comp_queries:
                seen.append(caches.comp_value(es, vi))
                assert seen[-1] == comp(es, names[vi], r, g), (seed, step)
            for bi, ceb, stage in mid_queries:
                tables = caches.mid_tidy(bi, ceb, stage)
                lane_hits += tables is last_tables.get(bi)
                last_tables[bi] = tables
                for ec in range(g._stage_end[stage - 1]):  # the lanes of stages < stage
                    seen.append(lane_tidy(g, r, tables, ceb, ec))
                    want = tidy(r.entries[ec] & ceb, g.edge_triple(ec)[1], names[bi], g)
                    assert seen[-1] == want, (seed, step, bi, ec)
            changed += last is not None and seen != last
            last = seen
            # shrink entries, alternating between edges the edge-set queries
            # read and the rest
            for eid in edge_ids(read if step % 2 else g.full_mask & ~read):
                keep = rnd.randrange(g.full_mask + 1)
                r.set_entry(eid, r.entries[eid] & (keep | keep >> 1))
        hits += caches.comp_hits
        warm += caches.comp_warm
        settled += caches.comp_settled
        assert caches.comp_settled <= caches.comp_hits
    assert hits > 0 and changed > 0 and lane_hits > 0 and warm > 0 and settled > 0


def test_comp_cache_picks_the_changed_members_as_dirty_lanes(monkeypatch):
    """A stale ``comp`` entry re-runs with exactly the members of its result
    not ending at v whose entries changed after it (edge stamps newer than
    its stamp) as lanes, and with none it counts one ``comp_settled``."""
    import random

    from msplab import operators

    lanes_seen = []
    real_comp = operators.comp

    def spy(es, v, r, g, **kw):
        lanes_seen.append(kw.get("lanes"))
        return real_comp(es, v, r, g, **kw)

    monkeypatch.setattr(operators, "comp", spy)
    graphs = [random_graph(seed, stages=3 + seed % 3, eset_p=0.9) for seed in range(25)]
    graphs += [reduce_hc_to_msp(gen_ugraph(5, 0.6, seed))[0] for seed in range(4)]
    dirty_runs = settled = 0
    for gi, g in enumerate(graphs):
        rnd = random.Random(7000 + gi)
        r = init_all(g)
        names = g.vertex_names()
        caches = OperatorCaches(g, r)
        vis = range(1, len(names))
        queries = [(g.full_mask, vi) for vi in vis] + [(g.eset(names[vi]), vi) for vi in vis]
        for step in range(10):
            for es, vi in queries:
                entry = caches._comp.get((vi, es))
                lanes_seen.clear()
                settled_before = caches.comp_settled
                if entry is None:
                    caches.comp_value(es, vi)
                    assert lanes_seen == [None]
                    continue
                result, stamp = entry
                stale = bool(r.changed_since(g._vstage[vi] - 1, stamp))
                want = edge_set(
                    f for f in edge_ids(result & ~g._in_mask[vi]) if r.edge_stamps[f] > stamp
                )
                assert caches.comp_value(es, vi) == real_comp(es, names[vi], r, g), (gi, step)
                if want:
                    assert stale and lanes_seen == [want], (gi, step, vi)
                    dirty_runs += 1
                else:
                    assert lanes_seen == []
                    assert caches.comp_settled == settled_before + stale
                    settled += stale
            held = [eid for eid, m in enumerate(r.entries) if m]
            for eid in rnd.sample(held, min(len(held), 3)):
                drop = 1 << rnd.choice(edge_ids(r.entries[eid]))
                r.set_entry(eid, r.entries[eid] & ~drop)
    assert dirty_runs > 0 and settled > 0


# Two routes from a1 to y, one through e = u->v; a2 reaches y only through e.
ROUTES_VERTICES = [("S", 0), ("a1", 1), ("a2", 1), ("u", 2), ("w", 2), ("v", 3), ("z", 3), ("y", 4), ("D", 5)]
ROUTES_EDGES = [
    ("S", "a1", 1),
    ("S", "a2", 1),
    ("a1", "u", 2),
    ("a2", "u", 2),
    ("a1", "w", 2),
    ("u", "v", 3),
    ("w", "z", 3),
    ("v", "y", 4),
    ("z", "y", 4),
    ("y", "D", 5),
]


def test_change_matches_reference_as_entries_shrink():
    """``change`` reuses the lane tables one ``OperatorCaches`` keeps across
    calls.  With entries shrunk between calls, every result must still equal
    ``reference.change_ref`` on the current map.

    The routes graph pins the two facts the tables must get right.  Once
    R(S->a2) loses y->D, only S->a1 can anchor y->D for e = u->v; once
    R(S->a1) also loses v->y, S->a1 still reaches y through w but e no
    longer does, so y->D has no anchor left and e's set empties, while
    comp(D) stays the same and a stale table would still hold S->a1.
    """
    import random

    g = mk_graph(
        5,
        ROUTES_VERTICES,
        ROUTES_EDGES,
        {name: ROUTES_EDGES for name, stage in ROUTES_VERTICES if stage},
    )
    rg = ref.RefGraph(g)
    r = init_all(g)
    caches = OperatorCaches(g, r)
    e = g.edge_id("u", "v", 3)
    results = []
    for lane, lost in [(None, None), (("S", "a2", 1), ("y", "D", 5)), (("S", "a1", 1), ("v", "y", 4))]:
        if lane is not None:
            lid = g.edge_id(*lane)
            assert r.set_entry(lid, r.entries[lid] & ~(1 << g.edge_id(*lost)))
        reach = {g.edge_triple(i): triples_of(g, m) for i, m in enumerate(r.entries)}
        want = ref.change_ref(rg, reach, g.edge_triple(e))
        results.append(triples_of(g, change(r, e, g, caches)))
        assert results[-1] == want, lane
    assert results == [{("v", "y", 4), ("y", "D", 5)}] * 2 + [set()]

    # universal edge sets keep many members, so the anchors matter
    graphs = [random_graph(seed, stages=3 + seed % 4, eset_p=2.0) for seed in range(30)]
    graphs += [reduce_hc_to_msp(gen_ugraph(5, 0.6, seed))[0] for seed in range(6)]
    kept = 0
    for gi, g in enumerate(graphs):
        rg = ref.RefGraph(g)
        rnd = random.Random(5000 + gi)
        r = init_all(g)
        caches = OperatorCaches(g, r)
        later = [eid for eid in range(g.edge_count) if g.edge_triple(eid)[2] > 1]
        for _ in range(min(3 * len(later), 40)):
            eid = rnd.choice(later)
            reach = {g.edge_triple(i): triples_of(g, m) for i, m in enumerate(r.entries)}
            want = ref.change_ref(rg, reach, g.edge_triple(eid))
            got = change(r, eid, g, caches)
            assert triples_of(g, got) == want, (gi, g.edge_triple(eid))
            assert r.entries[eid] == got
            kept += bool(got)
            # now and then drop one bit of some entry
            held = [other for other, m in enumerate(r.entries) if m]
            if held and rnd.random() < 0.4:
                other = rnd.choice(held)
                drop = 1 << rnd.choice(edge_ids(r.entries[other]))
                r.set_entry(other, r.entries[other] & ~drop)
    assert kept > 100


# Two routes from a to u; e = u->v reaches D through v, and u->v' is a
# second way on to D that keeps the anchors' rivals alive in comp(D).
POOL_VERTICES = [("S", 0), ("a", 1), ("c", 2), ("c2", 2), ("u", 3), ("v", 4), ("v2", 4), ("D", 5)]
POOL_EDGES = [
    ("S", "a", 1),
    ("a", "c", 2),
    ("a", "c2", 2),
    ("c", "u", 3),
    ("c2", "u", 3),
    ("u", "v", 4),
    ("u", "v2", 4),
    ("v", "D", 5),
    ("v2", "D", 5),
]


def test_change_forgets_found_fixpoints_once_their_entries_shrink():
    """``change`` answers a keep-guard from a fixpoint found earlier at the
    same vertex only while the entries it read stand.

    For e = u->v the anchors of v->D are S->a, a->c and c->u (R(a->c2) and
    R(c2->u) miss u->v), and their source tidy W = {S->a, a->c, c->u} is a
    fixpoint at u.  Once R(S->a) loses c->u, S->a still anchors v->D through
    c2, so the anchor set still holds W, but W fails at u and the guard's
    comp is empty: v->D must go.  A pool that kept W would keep it.
    """
    g = mk_graph(
        5, POOL_VERTICES, POOL_EDGES, {name: POOL_EDGES for name, stage in POOL_VERTICES if stage}
    )
    rg = ref.RefGraph(g)
    r = init_all(g)
    names = g.vertex_names()
    caches = OperatorCaches(g, r)
    for lane, lost in [
        (("a", "c2", 2), [("u", "v", 4), ("v", "D", 5)]),
        (("c2", "u", 3), [("u", "v", 4), ("v", "D", 5)]),
    ]:
        lid = g.edge_id(*lane)
        assert r.set_entry(lid, r.entries[lid] & ~mask_of(g, lost))
    e = g.edge_id("u", "v", 4)
    results = []
    for lost in [None, ("c", "u", 3)]:
        if lost is not None:
            lid = g.edge_id("S", "a", 1)
            assert r.set_entry(lid, r.entries[lid] & ~mask_of(g, [lost]))
        reach = {g.edge_triple(i): triples_of(g, m) for i, m in enumerate(r.entries)}
        want = ref.change_ref(rg, reach, g.edge_triple(e))
        results.append(triples_of(g, change(r, e, g, caches)))
        assert results[-1] == want, lost
    assert results == [{("v", "D", 5)}, set()]
    w = mask_of(g, [("S", "a", 1), ("a", "c", 2), ("c", "u", 3)])
    assert caches.comp_value(w, names.index("u")) == 0


def test_caches_ignore_entries_of_the_target_stage(chain_c):
    """A ``comp`` result at v, and a fixpoint found there, read only the
    entries of stages below stage(v): members ending at v are exempt from
    the test.  Shrinking an entry of v's own stage leaves both standing with
    no re-check; shrinking one below it makes both stale."""
    r = init_all(chain_c)
    names = chain_c.vertex_names()
    bi = names.index("b")
    caches = OperatorCaches(chain_c, r)
    s_a, a_b = chain_c.edge_id("S", "a", 1), chain_c.edge_id("a", "b", 2)
    want = mask_of(chain_c, [("S", "a", 1), ("a", "b", 2)])
    assert caches.comp_value(chain_c.full_mask, bi) == want
    caches.fixpoints(bi).append(want)
    assert r.set_entry(a_b, 0)  # stage 2, the stage of b
    assert caches.comp_value(chain_c.full_mask, bi) == want
    assert (caches.comp_runs, caches.comp_warm, caches.comp_settled) == (1, 0, 0)
    assert caches.comp_hits == 1
    assert caches.fixpoints(bi) == [want]
    assert r.set_entry(s_a, 0)  # stage 1: S->a no longer reaches b
    assert caches.comp_value(chain_c.full_mask, bi) == 0
    assert (caches.comp_runs, caches.comp_warm) == (2, 1)
    assert caches.fixpoints(bi) == []


def test_found_fixpoints_certify_every_superset():
    """The lemma behind ``change``'s pool of found fixpoints: for a nonempty
    W = comp(X, u) under the current entries and any T that holds W,
    comp(tidy(T, source, u), u) holds W too."""
    import random

    graphs = [random_graph(seed, stages=3 + seed % 4, eset_p=2.0) for seed in range(30)]
    graphs += [reduce_hc_to_msp(gen_ugraph(5, 0.6, seed))[0] for seed in range(4)]
    certified = 0
    for gi, g in enumerate(graphs):
        rnd = random.Random(6000 + gi)
        r = init_all(g)
        source, *targets = g.vertex_names()
        for _ in range(12):
            name = rnd.choice(targets)
            x = g.full_mask if rnd.random() < 0.5 else rnd.randrange(g.full_mask + 1)
            w = comp(x, name, r, g)
            for _ in range(4 if w else 0):
                t = w | rnd.randrange(g.full_mask + 1)
                got = comp(tidy(t, source, name, g), name, r, g)
                assert got & w == w, (gi, name, edge_ids(w), edge_ids(t))
                certified += 1
            held = [eid for eid, m in enumerate(r.entries) if m]
            if held:
                eid = rnd.choice(held)
                r.set_entry(eid, r.entries[eid] & ~(1 << rnd.choice(edge_ids(r.entries[eid]))))
    assert certified > 200


def test_comp_needs_no_source_tidy_first():
    """The lemma behind ``change``'s keep-guard asking comp(T, u) with no
    tidy of its own: comp's step ends with the source tidy, so every
    fixpoint inside T lies inside tidy(T, source, u), and comp(T, u) equals
    comp(tidy(T, source, u), u)."""
    import random

    graphs = [random_graph(seed, stages=3 + seed % 4, eset_p=2.0) for seed in range(30)]
    graphs += [reduce_hc_to_msp(gen_ugraph(5, 0.6, seed))[0] for seed in range(4)]
    checked = kept = untidy = 0
    for gi, g in enumerate(graphs):
        rnd = random.Random(7000 + gi)
        r = init_all(g)
        source, *targets = g.vertex_names()
        for _ in range(12):
            name = rnd.choice(targets)
            t = g.full_mask
            if rnd.random() < 0.5:
                t &= rnd.randrange(g.full_mask + 1) | rnd.randrange(g.full_mask + 1)
            tidied = tidy(t, source, name, g)
            got = comp(t, name, r, g)
            assert got == comp(tidied, name, r, g), (gi, name, edge_ids(t))
            checked += 1
            kept += bool(got)
            untidy += bool(got) and tidied != t
            held = [eid for eid, m in enumerate(r.entries) if m]
            if held:
                eid = rnd.choice(held)
                r.set_entry(eid, r.entries[eid] & ~(1 << rnd.choice(edge_ids(r.entries[eid]))))
    assert checked > 300 and kept > 50 and untidy > 20, (checked, kept, untidy)


# -- lane passes -----------------------------------------------------------


def test_lane_passes_match_their_definition():
    """``_forward_lanes`` and ``_backward_lanes`` walk edges, not vertices.
    Against the definition, vertex by vertex over the stages 1 .. stage(v)-1:
    fwd[x] holds the lanes ec whose head reaches x along R(ec) & es, back[x]
    the lanes ec of the seed for which x reaches v along R(ec) & es;
    back[v] is the seed, and every other vertex holds no lane."""
    import random

    def reached(g, allowed, start, forward):
        """Vertices reached from ``start`` along ``allowed`` edges, forward
        or backward."""
        seen = {start}
        frontier = [start]
        while frontier:
            x = frontier.pop()
            for f in edge_ids(allowed):
                a, b = g.edge_triple(f)[0], g.edge_triple(f)[1]
                if not forward:
                    a, b = b, a
                if a == x and b not in seen:
                    seen.add(b)
                    frontier.append(b)
        return seen

    graphs = [
        random_graph(seed, stages=3 + seed % 5, max_width=4, eset_p=2.0) for seed in range(30)
    ]
    graphs += [reduce_hc_to_msp(gen_ugraph(4 + seed % 2, 0.6, seed))[0] for seed in range(4)]
    checked = 0
    for gi, g in enumerate(graphs):
        rnd = random.Random(7000 + gi)
        r = init_all(g)
        for eid, m in enumerate(r.entries):
            if m and rnd.random() < 0.3:
                r.set_entry(eid, m & rnd.randrange(g.full_mask + 1))
        names = g.vertex_names()
        stage = dict(g.document_data()[0])
        for _ in range(5):
            vi = rnd.randrange(len(names))
            vstage = stage[names[vi]]
            es = g.full_mask if rnd.random() < 0.3 else rnd.randrange(g.full_mask + 1)
            seed = -1 if rnd.random() < 0.5 else rnd.randrange(g.full_mask + 1)
            fwd = _forward_lanes(g, r.holders, es, vi)
            back = _backward_lanes(g, r.holders, es, vi, seed)
            lanes = range(g.edge_count)
            heads = [reached(g, r.entries[ec] & es, g.edge_triple(ec)[1], True) for ec in lanes]
            tails = [reached(g, r.entries[ec] & es, names[vi], False) for ec in lanes]
            for xi, x in enumerate(names):
                want_fwd = want_back = 0
                if 1 <= stage[x] < vstage:
                    want_fwd = edge_set(ec for ec in lanes if x in heads[ec])
                    want_back = edge_set(ec for ec in edge_ids(seed & g.full_mask) if x in tails[ec])
                elif xi == vi:
                    want_back = seed
                assert fwd[xi] == want_fwd, (gi, names[vi], x)
                assert back[xi] == want_back, (gi, names[vi], x)
                checked += bool(want_fwd) + bool(want_back)
    assert checked > 500


# -- reach map -------------------------------------------------------------


def test_reachmap_bits_deleted_stamps_changes(chain_c):
    """``bits_deleted`` counts the bits removed so far; a shrink stamps its
    own edge and that edge's stage alone with the new count, and a no-op
    stamps nothing."""
    r = init_all(chain_c)
    assert [chain_c.edge_triple(eid)[2] for eid in range(3)] == [1, 2, 3]
    assert r.bits_deleted == 0
    assert r.stamps == [0, 0, 0, 0]
    assert r.edge_stamps == [0, 0, 0]
    assert not r.set_entry(0, r.entries[0])
    assert r.bits_deleted == 0
    assert r.stamps == [0, 0, 0, 0]
    assert r.edge_stamps == [0, 0, 0]
    removed = r.entries[0].bit_count()
    assert r.set_entry(0, 0)
    assert r.bits_deleted == removed == 2
    assert r.stamps == [0, 2, 0, 0]
    assert r.edge_stamps == [2, 0, 0]
    assert r.set_entry(1, 0)
    assert r.bits_deleted == 3
    assert r.stamps == [0, 2, 3, 0]
    assert r.edge_stamps == [2, 3, 0]
    assert not r.set_entry(1, 0)
    assert r.stamps == [0, 2, 3, 0]
    assert r.edge_stamps == [2, 3, 0]
    assert r.changed_since(0, 0) == 0 and r.changed_since(1, 0) == 0b001
    assert r.changed_since(1, 2) == 0 and r.changed_since(2, 2) == 0b010
    assert r.changed_since(3, 3) == 0
    assert r.changed_since(3, 0) == 0b011
    # only a stage above k changed since t, and t is not the current count
    r = init_all(chain_c)
    assert r.set_entry(1, 0)
    assert r.changed_since(1, 0) == 0 and r.changed_since(2, 0) == 0b010


def test_reachmap_is_built_from_holders_alone():
    """``ReachMap(holders=..., estage=...)`` derives ``entries`` as the
    transpose of ``holders``; a positional call fails instead of reading
    one table as the other."""
    import random

    for seed in range(20):
        g = random_graph(seed)
        rnd = random.Random(seed)
        holders = [rnd.randrange(g.full_mask + 1) for _ in range(g.edge_count)]
        r = ReachMap(holders=holders, estage=g._estage)
        assert r.holders is holders
        assert r.entries == [
            edge_set(f for f in range(g.edge_count) if holders[f] >> e & 1)
            for e in range(g.edge_count)
        ]
        assert r.bits_deleted == 0 and not any(r.stamps) and not any(r.edge_stamps)
        with pytest.raises(TypeError):
            ReachMap(holders, g._estage)


def test_reachmap_rejects_growth(chain_c):
    r = init_all(chain_c)
    with pytest.raises(AbnormalTerminationError):
        r.set_entry(2, chain_c.full_mask)


def test_reachmap_rejects_growth_under_optimization():
    """The shrink-only rule is an explicit check, so ``python -O`` keeps it."""
    script = (
        "from msplab.model import AbnormalTerminationError, MultistageGraph\n"
        "from msplab.operators import init_all\n"
        "g = MultistageGraph(1, [('S', 0), ('D', 1)], [('S', 'D', 1)], {'D': []})\n"
        "r = init_all(g)\n"
        "try:\n"
        "    r.set_entry(0, 1)\n"
        "except AbnormalTerminationError:\n"
        "    print('rejected')\n"
    )
    done = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.strip() == "rejected"


def test_operators_do_not_touch_the_graph(chain_c):
    snapshot = chain_c.document_data()
    r = init_all(chain_c)
    comp(chain_c.full_mask, "D", r, chain_c)
    change(r, 1, chain_c)
    tidy(chain_c.full_mask, "S", "D", chain_c)
    assert chain_c.document_data() == snapshot
    assert validate(chain_c).ok
