from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msplab.lab import GenShape, gen_msp, gen_ugraph
from msplab.model import AbnormalTerminationError, edge_ids, edge_set, validate
from msplab.operators import (
    OperatorCaches,
    ReachMap,
    _backward_lanes,
    _forward_lanes,
    _tidy_idx,
    _transpose,
    _trim,
    change,
    comp,
    init_all,
    tidy,
)
from msplab.reduction import reduce_hc_to_msp

from . import reference as ref
from .conftest import CHAIN_EDGES, CHAIN_VERTICES, E1, E2, E3, mk_graph, random_graph

FIXTURES = Path(__file__).parent / "fixtures"


def triples_of(g, mask):
    return frozenset(g.edge_triple(i) for i in edge_ids(mask))


def mask_of(g, triples):
    return edge_set(g.edge_id(*t) for t in triples)


def gap_graph(seed, stages, gap):
    """``random_graph`` with universal edge sets, less the vertices of stage
    ``gap`` and every edge touching them: an empty middle stage, as
    ``gen_msp`` can draw."""
    vertices, edges, esets = random_graph(seed, stages=stages, eset_p=2.0).document_data()
    gone = {name for name, stage in vertices if stage == gap}
    edges = [t for t in edges if gone.isdisjoint(t[:2])]
    return mk_graph(
        stages,
        [v for v in vertices if v[0] not in gone],
        edges,
        {name: [t for t in es if t in edges] for name, es in esets.items() if name not in gone},
    )


def long_chain(length):
    """Width-1 chain S, c1, ..., D of ``length`` stages, every edge set full."""
    names = ["S", *(f"c{i}" for i in range(1, length)), "D"]
    edges = [(names[k - 1], names[k], k) for k in range(1, length + 1)]
    return mk_graph(
        length, [(name, k) for k, name in enumerate(names)], edges, dict.fromkeys(names[1:], edges)
    )


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


@given(st.data())
def test_trim_equals_a_full_tidy(data):
    """Peeling a tidy set S after removing R from it gives the full tidy of
    S & ~R: from the source to the sink and between inner vertices, with R
    a drawn subset of S, every edge out of ui, every edge into vi, a whole
    stage, or S itself."""
    draw = data.draw
    if draw(st.booleans()):  # one edge per stage: every removal cuts the chain
        g = long_chain(draw(st.integers(10, 40)))
    else:
        g = random_graph(
            draw(st.integers(0, 10**6)),
            stages=draw(st.integers(3, 7)),
            max_width=draw(st.integers(2, 5)),
            edge_p=draw(st.sampled_from([0.8, 0.5, 1.0])),
        )
    last = len(g._vstage) - 1
    if draw(st.booleans()):
        ui, vi = 0, last
    else:
        ui, vi = sorted(draw(st.lists(st.integers(0, last), min_size=2, max_size=2)))
    es = g.full_mask if draw(st.booleans()) else draw(st.integers(0, g.full_mask))
    s = _tidy_idx(g, es, ui, vi)
    removed = draw(st.integers(0, g.full_mask)) & s
    case = draw(st.sampled_from(["subset", "out of ui", "into vi", "stage", "all"]))
    if case == "out of ui":
        removed |= s & g._out_mask[ui]
    elif case == "into vi":
        removed |= s & g._in_mask[vi]
    elif case == "stage":
        k = draw(st.integers(1, g.stage_count))
        removed |= s & g.span_mask(k, k)
    elif case == "all":
        removed = s
    assert _trim(g, s & ~removed, removed, ui, vi) == _tidy_idx(g, s & ~removed, ui, vi)


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

    g = long_chain(150)
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
    ``OperatorCaches.mid_tidy(bi, es, stage, depth)`` returned; only its
    edges of stages ``depth`` and up are exact."""
    fwd, back = tables
    vidx = {name: i for i, name in enumerate(g.vertex_names())}
    ends = [(vidx[src], vidx[dst]) for src, dst, _ in map(g.edge_triple, edge_ids(es))]
    return edge_set(
        f
        for f, (a, b) in zip(edge_ids(es), ends)
        if (r.holders[f] & fwd[a] & back[b]) >> ec & 1
    )


def changed_entries(history, r, t, members):
    """The edges of ``members`` whose entry changed since ``r.log`` held
    ``t`` changes, read from ``history`` (see ``lost_since``)."""
    return edge_set(f for f in edge_ids(members) if history[t][f] != r.entries[f])


def lost_since(g, r, history, t, members, within):
    """The edges of ``members`` whose entry lost a bit of ``within`` since
    ``r.log`` held ``t`` changes, read from ``history`` (a copy of
    ``r.entries`` for every length of ``r.log`` so far)."""
    return edge_set(f for f in edge_ids(members) if history[t][f] & ~r.entries[f] & within)


def test_operator_caches_stay_exact_as_entries_shrink():
    """Cached comp results, lane tables and found fixpoints always equal
    fresh ones while reachable-set entries shrink, whether or not the cached
    call read them.  Each of the three records must be kept at least once
    although an entry it read changed, because every shrink of that entry
    missed the record's set; some comp entries must also re-run.

    Each lane-table query also draws a depth, full depth included: for
    every lane below its stage, the tables must give a fresh tidy on every
    edge of the stages from that depth up, and equal fresh lane passes at
    every vertex they cover.  Tables must be extended downwards and resumed
    after a shrink, not only rebuilt, and the graphs include empty middle
    stages."""
    import random

    hits = changed = lane_hits = warm = 0
    comp_missed = lanes_missed = found_missed = extended = resumed = 0
    graphs = [random_graph(seed, stages=3 + seed % 3, eset_p=0.9) for seed in range(40)]
    graphs += [gap_graph(seed, stages=5 + seed % 2, gap=2 + seed % 3) for seed in range(6)]
    for seed, g in enumerate(graphs):
        if not g.full_mask:
            continue
        rnd = random.Random(3000 + seed)
        r = init_all(g)
        history = {0: list(r.entries)}
        names = g.vertex_names()
        caches = OperatorCaches(g, r)
        vis = range(1, len(names))
        comp_queries = [(g.full_mask, vi) for vi in vis] + [(g.eset(names[vi]), vi) for vi in vis]
        read = 0  # edges whose entries the edge-set queries read
        for vi in vis:
            read |= g.eset(names[vi])
        # one edge set per target; each table is asked for some lanes, then
        # all, each time at a depth drawn from 1 .. stage(bi); every other
        # step the edge set loses some edges, as comp results do
        mid_sets = {bi: g.full_mask if bi % 2 else rnd.randrange(g.full_mask + 1) for bi in vis}
        last = None
        last_tables = {}
        for step in range(12):
            seen = []
            for es, vi in comp_queries:
                entry = caches._comp.get((vi, es))
                moved = entry is not None and changed_entries(
                    history, r, entry[1], entry[0] & ~g._in_mask[vi]
                )
                settled = caches.comp_settled
                seen.append(caches.comp_value(es, vi))
                assert seen[-1] == comp(es, names[vi], r, g), (seed, step)
                comp_missed += moved and caches.comp_settled > settled
            for bi in vis:
                if step % 2:
                    mid_sets[bi] &= rnd.randrange(g.full_mask + 1) | rnd.randrange(g.full_mask + 1)
                ceb = mid_sets[bi]
                for stage in (rnd.randrange(1, g.stage_count + 2), g.stage_count + 1):
                    depth = rnd.randrange(1, g._vstage[bi] + 1)
                    hit = caches._lanes.get(bi)
                    kept = hit[0] if hit is not None else None
                    stale = hit is not None and hit[1] == ceb
                    stale = stale and r.changed_since(stage - 1, hit[2])
                    extended += hit is not None and depth < hit[3]
                    tables = caches.mid_tidy(bi, ceb, stage, depth)
                    lane_hits += tables is last_tables.get(bi)
                    lanes_missed += bool(stale) and tables is kept
                    resumed += kept is not None and tables is not kept
                    last_tables[bi] = tables
                    above = g.span_mask(depth, g.stage_count)
                    lanes = (1 << g._stage_end[stage - 1]) - 1  # the lanes of stages < stage
                    for ec in edge_ids(lanes):
                        seen.append(lane_tidy(g, r, tables, ceb & above, ec))
                        want = tidy(r.entries[ec] & ceb, g.edge_triple(ec)[1], names[bi], g)
                        assert seen[-1] == want & above, (seed, step, bi, ec)
                    fresh_fwd = _forward_lanes(g, r.holders, ceb, bi)
                    fresh_back = _backward_lanes(g, r.holders, ceb, bi)
                    for x in range(len(names)):
                        assert tables[0][x] & lanes == fresh_fwd[x] & lanes, (seed, step, bi, x)
                        if g._vstage[x] >= depth:
                            assert tables[1][x] & lanes == fresh_back[x] & lanes, (seed, step, x)
            for vi in vis:
                hit = caches._found.get(vi)
                before, t = (list(hit[0]), hit[1]) if hit is not None else ([], 0)
                found = caches.fixpoints(vi)
                tested = ~g._in_mask[vi]  # members ending at vi are exempt
                assert found == [
                    w for w in before if not lost_since(g, r, history, t, w & tested, w)
                ], (seed, step, vi)
                for w in found:
                    assert comp(w, names[vi], r, g) == w, (seed, step, vi)
                    found_missed += bool(changed_entries(history, r, t, w & tested))
                for es in (es for es, vj in comp_queries if vj == vi):
                    w = caches.comp_value(es, vi)
                    if w and w not in found:
                        found.append(w)
            changed += last is not None and seen != last
            last = seen
            # shrink entries, alternating between edges the edge-set queries
            # read and the rest
            for eid in edge_ids(read if step % 2 else g.full_mask & ~read):
                keep = rnd.randrange(g.full_mask + 1)
                r.set_entry(eid, r.entries[eid] & (keep | keep >> 1))
                history[len(r.log)] = list(r.entries)
        hits += caches.comp_hits
        warm += caches.comp_warm
        assert caches.comp_settled <= caches.comp_hits
    assert hits > 0 and changed > 0 and lane_hits > 0 and warm > 0
    assert comp_missed > 0 and lanes_missed > 0 and found_missed > 0
    assert extended > 0 and resumed > 0


def test_comp_cache_picks_the_changed_members_as_dirty_lanes(monkeypatch):
    """A stale ``comp`` entry re-runs with exactly the members of its result
    not ending at v whose entries lost a bit inside the result since its
    stamp as lanes.  With none it counts one ``comp_settled``, also when
    some of its members' entries changed outside the result."""
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
    dirty_runs = settled = missed = 0
    for gi, g in enumerate(graphs):
        rnd = random.Random(7000 + gi)
        r = init_all(g)
        history = {0: list(r.entries)}
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
                stale = r.changed_since(g._vstage[vi] - 1, stamp)
                tested = result & ~g._in_mask[vi]
                want = lost_since(g, r, history, stamp, tested, result)
                moved = bool(changed_entries(history, r, stamp, tested))
                assert caches.comp_value(es, vi) == real_comp(es, names[vi], r, g), (gi, step)
                if want:
                    assert stale and lanes_seen == [want], (gi, step, vi)
                    dirty_runs += 1
                else:
                    assert lanes_seen == []
                    assert caches.comp_settled == settled_before + stale
                    settled += stale
                    missed += moved
            held = [eid for eid, m in enumerate(r.entries) if m]
            for eid in rnd.sample(held, min(len(held), 3)):
                drop = 1 << rnd.choice(edge_ids(r.entries[eid]))
                r.set_entry(eid, r.entries[eid] & ~drop)
                history[len(r.log)] = list(r.entries)
    assert dirty_runs > 0 and settled > 0 and missed > 0


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


def test_change_reads_current_cache_records_without_a_lookup(monkeypatch):
    """Within one log length ``change`` reads the ``comp`` records and lane
    tables it finds current as they are: a second call on the same edge
    makes no ``comp_value`` and no ``mid_tidy`` call, and counts no
    ``comp_hits``.  Lane tables over another edge set than comp(b) are
    not read.  Once an entry loses a bit inside some head vertex's
    comp result, that record goes through ``comp_value`` again, and the
    result still equals ``reference.change_ref``."""
    g = long_chain(50)
    rg = ref.RefGraph(g)
    r = init_all(g)
    caches = OperatorCaches(g, r)
    calls = []
    real_value, real_tidy = OperatorCaches.comp_value, OperatorCaches.mid_tidy

    def comp_value(self, es, vi):
        calls.append(("comp_value", vi))
        return real_value(self, es, vi)

    def mid_tidy(self, bi, es, stage, depth):
        calls.append(("mid_tidy", bi))
        return real_tidy(self, bi, es, stage, depth)

    monkeypatch.setattr(OperatorCaches, "comp_value", comp_value)
    monkeypatch.setattr(OperatorCaches, "mid_tidy", mid_tidy)
    e = g.edge_id("c9", "c10", 10)
    first = change(r, e, g, caches)
    assert first == g.span_mask(11, 50) and calls and not r.log
    calls.clear()
    hits = caches.comp_hits
    assert change(r, e, g, caches) == first
    assert calls == [] and caches.comp_hits == hits and not r.log

    bi = g.vertex_names().index("c20")
    ceb = caches._comp[bi, caches.esets[bi]][0]
    lost = g.edge_id("c19", "c20", 20)
    assert ceb >> lost & 1
    # current lane tables over another edge set than comp(b) are not read
    caches.mid_tidy(bi, ceb & ~(1 << lost), 10, 10)
    calls.clear()
    assert change(r, e, g, caches) == first
    assert calls == [("mid_tidy", bi)]

    s_c1 = g.edge_id("S", "c1", 1)
    assert r.set_entry(s_c1, r.entries[s_c1] & ~(1 << lost))
    reach = {g.edge_triple(i): triples_of(g, m) for i, m in enumerate(r.entries)}
    want = ref.change_ref(rg, reach, g.edge_triple(e))
    assert triples_of(g, change(r, e, g, caches)) == want == set()
    assert ("comp_value", bi) in calls


def ladder(length):
    """Stages 1 .. ``length``-1 of width two (a_k, b_k), every edge between
    consecutive stages, every edge set full: each edge reaches the sink
    along many routes."""
    names = [["S"], *([f"a{k}", f"b{k}"] for k in range(1, length)), ["D"]]
    vertices = [(name, k) for k, row in enumerate(names) for name in row]
    edges = [(x, y, k) for k in range(1, length + 1) for x in names[k - 1] for y in names[k]]
    return mk_graph(length, vertices, edges, {name: edges for name, k in vertices if k})


def test_change_reads_stage_exact_lane_tables_in_place(monkeypatch):
    """Once ``mid_tidy`` has found a pair of lane tables still exact for the
    lanes below stage s at the current log length, ``change`` on another
    edge of stage s reads the pair in place with no ``mid_tidy`` call.  The
    record covers no higher stage, and a loss in an entry below s makes
    ``change`` call ``mid_tidy`` again.  Every result equals
    ``reference.change_ref``."""
    g = ladder(7)
    rg = ref.RefGraph(g)
    r = init_all(g)
    caches = OperatorCaches(g, r)
    calls = []
    real_tidy = OperatorCaches.mid_tidy

    def mid_tidy(self, bi, es, stage, depth):
        calls.append(bi)
        return real_tidy(self, bi, es, stage, depth)

    monkeypatch.setattr(OperatorCaches, "mid_tidy", mid_tidy)

    def checked_change(triple):
        eid = g.edge_id(*triple)
        reach = {g.edge_triple(i): triples_of(g, m) for i, m in enumerate(r.entries)}
        want = ref.change_ref(rg, reach, triple)
        calls.clear()
        got = change(r, eid, g, caches)
        assert triples_of(g, got) == want == triples_of(g, r.entries[eid]), triple
        assert got.bit_count() > 4, triple  # the routes keep members to anchor
        return list(calls)

    def thin(triple, lost):
        eid = g.edge_id(*triple)
        assert r.set_entry(eid, r.entries[eid] & ~mask_of(g, [lost]))

    e1, e2, e3 = ("a2", "a3", 3), ("b2", "b3", 3), ("a3", "a4", 4)
    assert checked_change(e1)  # builds a pair per head vertex, exact for every lane
    thin(e3, ("a5", "b6", 6))  # stage 4: every lane below stage 3 stands
    t = len(r.log)
    assert checked_change(e1)  # proves each pair exact below stage 3 at t
    assert checked_change(e2) == [] and len(r.log) == t  # read in place
    assert checked_change(e3)  # the record covers no stage above 3
    thin(("S", "a1", 1), ("a4", "b5", 5))  # a lane below stage 3 loses a bit
    assert checked_change(e2)


def test_change_matches_reference_on_wide_stages():
    """Shapes with a stage of width 12, where ``v1_10`` sorts, and takes its
    vertex id, before ``v1_2``: ``change`` on every edge in turn, all
    through one ``OperatorCaches``, equals ``reference.change_ref`` on the
    same, shrinking map."""
    kept = 0
    for seed in (0, 2, 4, 5, 6, 8):
        g = gen_msp(GenShape(4, (1, 12, 3, 2, 1), 0.8, 0.8, seed))
        names = g.vertex_names()
        assert names.index("v1_10") < names.index("v1_2"), seed
        rg = ref.RefGraph(g)
        r = init_all(g)
        caches = OperatorCaches(g, r)
        reach = {g.edge_triple(i): triples_of(g, m) for i, m in enumerate(r.entries)}
        for eid in range(g.edge_count):
            got = change(r, eid, g, caches)
            want = ref.change_ref(rg, reach, g.edge_triple(eid))
            assert triples_of(g, got) == want, (seed, g.edge_triple(eid))
            kept += bool(got)
    assert kept > 0


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


def test_comp_cache_enters_a_cold_result_under_its_own_value(chain_c):
    """comp of a fixpoint is itself, so after a cold run the result, asked
    for as an edge set, is a cache hit and not a second run."""
    r = init_all(chain_c)
    caches = OperatorCaches(chain_c, r)
    bi = chain_c.vertex_names().index("b")
    want = caches.comp_value(chain_c.full_mask, bi)
    assert want == mask_of(chain_c, [("S", "a", 1), ("a", "b", 2)])
    assert caches.comp_value(want, bi) == want == comp(want, "b", r, chain_c)
    assert (caches.comp_runs, caches.comp_hits) == (1, 1)


def test_lane_tables_are_restamped_only_when_every_lane_stands(chain_c):
    """``mid_tidy`` keeps a stamp-stale pair of tables, and re-stamps it,
    when no lane lost a bit of its edge set.  A loss in a lane above the
    stages asked for keeps the pair from being re-stamped, so it is brought
    up to date and a later call for every lane reads the new entries."""
    r = init_all(chain_c)
    caches = OperatorCaches(chain_c, r)
    names = chain_c.vertex_names()
    bi, di = names.index("b"), names.index("D")
    e1, e2, e3 = (chain_c.edge_id(*e) for e in (E1, E2, E3))
    at_b = caches.mid_tidy(bi, 1 << e1, 2, 1)
    at_d = caches.mid_tidy(di, 1 << e3, 3, 1)
    assert r.set_entry(e1, 1 << e3)  # R(S->a) loses a->b, outside both sets
    assert caches.mid_tidy(bi, 1 << e1, 2, 1) is at_b
    assert caches._lanes[bi][2] == len(r.log)
    assert r.set_entry(e2, 0)  # R(a->b) loses b->D, inside the set at D
    assert caches.mid_tidy(di, 1 << e3, 2, 1) is not at_d  # asks for lane S->a only
    assert lane_tidy(chain_c, r, caches.mid_tidy(di, 1 << e3, 3, 1), 1 << e3, e2) == 0


def test_lane_tables_extend_downwards_and_resume_above_a_change():
    """A bounded pair covers back only from its depth up; a deeper request
    walks just the missing stages, and a shrink that misses the walked
    edges below the changed stage keeps those rows.  On the chain with
    every edge set full, towards D: back at depth 2 walks b->D alone."""
    g = mk_graph(3, CHAIN_VERTICES, CHAIN_EDGES, {n: CHAIN_EDGES for n, _ in CHAIN_VERTICES[1:]})
    r = init_all(g)
    caches = OperatorCaches(g, r)
    names = g.vertex_names()
    ai, bi, di = (names.index(n) for n in ("a", "b", "D"))
    e1, e2, e3 = (g.edge_id(*e) for e in (E1, E2, E3))
    fwd, back = tables = caches.mid_tidy(di, g.full_mask, 3, 2)
    assert caches._lanes[di][3] == 2 and back[ai] == 0  # stage 1 not walked yet
    assert back[bi] == r.holders[e3] == (1 << e1) | (1 << e2)
    assert caches.mid_tidy(di, g.full_mask, 3, 1) is tables  # extended in place
    assert caches._lanes[di][3] == 1 and back[ai] == (1 << e1)  # R(S->a) holds a->b and b->D
    stamp = caches._lanes[di][2]
    assert r.set_entry(e2, 0)  # R(a->b) loses b->D: holders[b->D] changes, stage 3
    resumed = caches.mid_tidy(di, g.full_mask, 3, 2)
    assert resumed is not tables and resumed[0] is fwd and caches._lanes[di][2] > stamp
    assert caches._lanes[di][3] == 2 and back[bi] == 1 << e1  # stage 1 left for later
    assert fwd == _forward_lanes(g, r.holders, g.full_mask, di)
    caches.mid_tidy(di, g.full_mask, 3, 1)
    assert back == _backward_lanes(g, r.holders, g.full_mask, di)


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
    """The lemma behind a cold ``comp`` starting from tidy(T, source, u),
    so that ``change``'s keep-guard tidies nothing first: comp's step ends
    with the source tidy, so every fixpoint inside T lies inside
    tidy(T, source, u), and comp(T, u) equals comp(tidy(T, source, u), u).
    ``comp`` does that tidy itself, so both sides are also checked against
    ``reference.comp_ref``, which starts from T."""
    import random

    graphs = [random_graph(seed, stages=3 + seed % 4, eset_p=2.0) for seed in range(30)]
    graphs += [reduce_hc_to_msp(gen_ugraph(5, 0.6, seed))[0] for seed in range(4)]
    checked = kept = untidy = 0
    for gi, g in enumerate(graphs):
        rnd = random.Random(7000 + gi)
        rg = ref.RefGraph(g)
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
            reach = {g.edge_triple(i): triples_of(g, m) for i, m in enumerate(r.entries)}
            want = ref.comp_ref(rg, triples_of(g, t), name, reach)
            assert triples_of(g, got) == want == ref.comp_ref(
                rg, triples_of(g, tidied), name, reach
            ), (gi, name, edge_ids(t))
            checked += 1
            kept += bool(got)
            untidy += bool(got) and tidied != t
            held = [eid for eid, m in enumerate(r.entries) if m]
            if held:
                eid = rnd.choice(held)
                r.set_entry(eid, r.entries[eid] & ~(1 << rnd.choice(edge_ids(r.entries[eid]))))
    assert checked > 300 and kept > 50 and untidy > 20, (checked, kept, untidy)


def test_cold_comp_tests_only_members_of_the_source_tidy(monkeypatch):
    """A cold ``comp`` starts from tidy(es, source, v): no lane pass seeds a
    member outside it, and a set whose tidy is empty makes no lane pass at
    all.  ``reference.comp_ref``, which starts from es, agrees on both."""
    import random

    from msplab import operators

    seeds = []
    real_backward = operators._backward_lanes

    def spy(g, holders, es, vi, seed=-1, *args, **kwargs):
        seeds.append(seed)
        return real_backward(g, holders, es, vi, seed, *args, **kwargs)

    monkeypatch.setattr(operators, "_backward_lanes", spy)
    graphs = [random_graph(seed, stages=3 + seed % 4, eset_p=2.0) for seed in range(25)]
    graphs += [reduce_hc_to_msp(gen_ugraph(5, 0.6, seed))[0] for seed in range(3)]
    empty = untidy = 0
    for gi, g in enumerate(graphs):
        rnd = random.Random(9000 + gi)
        rg = ref.RefGraph(g)
        r = init_all(g)
        reach = {g.edge_triple(i): triples_of(g, m) for i, m in enumerate(r.entries)}
        source, *targets = g.vertex_names()
        for name in targets:
            for _ in range(3):
                es = rnd.randrange(g.full_mask + 1) | rnd.randrange(g.full_mask + 1)
                tidied = tidy(es, source, name, g)
                seeds.clear()
                got = comp(es, name, r, g)
                want = ref.comp_ref(rg, triples_of(g, es), name, reach)
                assert triples_of(g, got) == want, (gi, name, edge_ids(es))
                assert all(seed & ~tidied == 0 for seed in seeds), (gi, name, edge_ids(es))
                if not tidied:
                    assert seeds == [] and got == 0, (gi, name, edge_ids(es))
                    empty += 1
                else:
                    assert seeds, (gi, name, edge_ids(es))
                    untidy += tidied != es
    assert empty > 100 and untidy > 100, (empty, untidy)


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


def test_lane_passes_resume_and_extend():
    """After random shrinks of the entries and of ``es``, a forward table
    resumed at the lowest stage k holding a changed edge equals a fresh one
    at every vertex, and a backward table kept from the stages at or above
    the highest such stage, then extended down to a drawn depth, equals a
    fresh one at every vertex of the stages it covers.  A bounded backward
    pass covers its depth.  Graphs with an empty middle stage included."""
    import random

    graphs = [
        random_graph(seed, stages=3 + seed % 5, max_width=4, eset_p=2.0) for seed in range(30)
    ]
    graphs += [gap_graph(seed, stages=5 + seed % 3, gap=1 + seed % 4) for seed in range(12)]
    resumed = extended = 0
    for gi, g in enumerate(graphs):
        rnd = random.Random(8000 + gi)
        r = init_all(g)
        vstage = g._vstage
        for _ in range(6):
            vi = rnd.randrange(1, len(vstage))
            stage = vstage[vi]
            es = g.full_mask if rnd.random() < 0.5 else rnd.randrange(g.full_mask + 1)
            d0 = rnd.randrange(1, stage + 1)
            fwd = _forward_lanes(g, r.holders, es, vi)
            back = _backward_lanes(g, r.holders, es, vi, depth=d0)
            full = _backward_lanes(g, r.holders, es, vi)
            assert [b for b, s in zip(back, vstage) if s >= d0] == [
                b for b, s in zip(full, vstage) if s >= d0
            ], (gi, vi, d0)
            before = list(r.holders)
            for eid, m in enumerate(r.entries):
                if m and rnd.random() < 0.2:
                    r.set_entry(eid, m & rnd.randrange(g.full_mask + 1))
            new_es = es & (rnd.randrange(g.full_mask + 1) | rnd.randrange(g.full_mask + 1))
            if rnd.random() < 0.3:
                new_es = es
            changed = edge_set(
                f
                for f in edge_ids(g.span_mask(1, stage))
                if (es ^ new_es) >> f & 1 or new_es >> f & 1 and before[f] != r.holders[f]
            )
            k = g._estage[edge_ids(changed)[0]] if changed else stage
            top = max(d0, g._estage[edge_ids(changed)[-1]] if changed else 0)
            assert _forward_lanes(g, r.holders, new_es, vi, fwd, k) is fwd
            assert fwd == _forward_lanes(g, r.holders, new_es, vi), (gi, vi, k)
            depth = rnd.randrange(1, stage + 1)
            got = _backward_lanes(g, r.holders, new_es, vi, depth=depth, back=back, top=top)
            assert got is back
            full = _backward_lanes(g, r.holders, new_es, vi)
            low = min(depth, top)
            assert [b for b, s in zip(back, vstage) if s >= low] == [
                b for b, s in zip(full, vstage) if s >= low
            ], (gi, vi, depth, top)
            resumed += 1 < k < stage
            extended += depth < top < stage
            with pytest.raises(AbnormalTerminationError):
                _backward_lanes(g, r.holders, new_es, vi, back=back, top=stage + 1)
    assert resumed > 20 and extended > 10, (resumed, extended)


def plain_lanes(g, holders, es, vi, seed=-1, depth=1):
    """Both lane passes as a plain walk over every edge id, one bit test per
    edge: ``_forward_lanes(g, holders, es, vi)`` and
    ``_backward_lanes(g, holders, es, vi, seed, depth)`` by their docstrings."""
    vstage, estage, efrom, eto = g._vstage, g._estage, g._efrom, g._eto
    stage = vstage[vi]
    fwd = [g._in_mask[x] if 1 <= s < stage else 0 for x, s in enumerate(vstage)]
    back = [0] * len(vstage)
    back[vi] = seed
    for f in range(g.edge_count):
        if es >> f & 1 and 2 <= estage[f] < stage:
            fwd[eto[f]] |= holders[f] & fwd[efrom[f]]
    for f in reversed(range(g.edge_count)):
        if es >> f & 1 and depth < estage[f] and (estage[f] < stage or eto[f] == vi):
            back[efrom[f]] |= holders[f] & back[eto[f]]
    return fwd, back


def check_lanes_against_a_plain_walk(g, r, es, vi, seed, d0, low, top, depth, drop, thin):
    """Fresh passes equal ``plain_lanes``.  Then ``es`` loses ``drop`` and
    the entries lose ``thin``, both inside the stages ``low`` .. ``top``:
    the forward table resumed at ``low`` equals a fresh plain walk, and the
    backward table built at depth ``d0`` <= ``top`` and extended from ``top``
    down to ``depth`` equals one on every vertex of the stages from
    min(``depth``, ``top``) up."""
    vstage = g._vstage
    fwd = _forward_lanes(g, r.holders, es, vi)
    back = _backward_lanes(g, r.holders, es, vi, seed, depth=d0)
    want_fwd, want_back = plain_lanes(g, r.holders, es, vi, seed, d0)
    assert fwd == want_fwd
    assert back == want_back
    span = g.span_mask(low, top)
    assert drop & ~span == 0 and thin & ~span == 0
    for eid, m in enumerate(r.entries):
        r.set_entry(eid, m & ~thin)
    es &= ~drop
    want_fwd, want_back = plain_lanes(g, r.holders, es, vi, seed)
    assert _forward_lanes(g, r.holders, es, vi, fwd, low) is fwd
    assert fwd == want_fwd
    got = _backward_lanes(g, r.holders, es, vi, seed, depth, back, top)
    assert got is back
    held = min(depth, top)
    assert [b for b, s in zip(back, vstage) if s >= held] == [
        b for b, s in zip(want_back, vstage) if s >= held
    ]


@given(st.data())
def test_lane_passes_equal_a_plain_per_edge_walk(data):
    """``_forward_lanes`` and ``_backward_lanes`` walk their edge mask byte by
    byte; on drawn graphs, masks, seeds, depths and shrinks they equal a
    plain per-edge walk, resumed forward and extended backward too.  Each
    mask starts at a drawn bit, so its lowest set bit need not be
    byte-aligned, and a drawn byte of it is cleared."""
    draw = data.draw
    if draw(st.booleans()):  # one edge per stage: each byte spans eight stages
        g = long_chain(draw(st.integers(10, 40)))
    else:
        g = random_graph(
            draw(st.integers(0, 10**6)),
            stages=draw(st.integers(3, 7)),
            max_width=draw(st.integers(2, 5)),
            edge_p=draw(st.sampled_from([0.8, 0.5, 1.0])),
            eset_p=draw(st.sampled_from([2.0, 0.6, 0.9])),
        )
    r = init_all(g)
    vi = len(g._vstage) - 1 - draw(st.integers(0, len(g._vstage) - 2))  # the sink first
    stage = g._vstage[vi]
    es = g.full_mask if draw(st.booleans()) else draw(st.integers(0, g.full_mask))
    es &= -1 << draw(st.integers(0, 11))  # the walk starts at any bit
    if g.edge_count >= 24:
        es &= ~(0xFF << 8 * draw(st.integers(1, g.edge_count // 8 - 1)))  # a zero byte inside
    seed = draw(st.one_of(st.just(-1), st.integers(0, g.full_mask)))
    top = stage - draw(st.integers(0, stage - 1))
    d0 = draw(st.integers(1, top))
    low = draw(st.integers(1, top))
    depth = draw(st.integers(1, stage))
    span = g.span_mask(low, top)
    drop = draw(st.integers(0, g.full_mask)) & span
    thin = draw(st.integers(0, g.full_mask)) & span
    check_lanes_against_a_plain_walk(g, r, es, vi, seed, d0, low, top, depth, drop, thin)


def test_lane_passes_equal_a_plain_per_edge_walk_on_a_wide_graph():
    """The same check on a graph of 1,032 edges, whose masks span 129 bytes:
    a full mask, and masks whose lowest set bit is not byte-aligned and that
    hold runs of zero bytes, towards vertices of several stages.  On a long
    chain each byte spans eight stages, so the order of the walk inside a
    byte matters."""
    import random

    chain = long_chain(30)
    r = init_all(chain)
    for vi in (len(chain._vstage) - 1, 20):
        for es in (chain.full_mask, chain.full_mask & ~(1 << 25), chain.full_mask & -1 << 3):
            fresh = _forward_lanes(chain, r.holders, es, vi), _backward_lanes(chain, r.holders, es, vi)
            assert fresh == plain_lanes(chain, r.holders, es, vi)

    g = gen_msp(GenShape(9, (1,) + (12,) * 8 + (1,), 1.0, 0.9, 0))
    assert g.edge_count > 1000
    rnd = random.Random(11)
    gaps = (0xFFFF << 200) | (0xFF << 480) | (0xFFFFFF << 800)  # zero bytes inside
    masks = [g.full_mask, g.full_mask & -1 << 13 & ~gaps, rnd.getrandbits(1032) & -1 << 5 & ~gaps]
    for es in masks[1:]:
        low_bit = (es & -es).bit_length() - 1
        assert low_bit % 8 and all(es >> 8 * k & 0xFF == 0 for k in (25, 26, 60, 100, 101, 102))
    sink = len(g._vstage) - 1
    targets = [sink, g.vertex_names().index("v5_3"), g.vertex_names().index("v8_10")]
    checked = 0
    for es in masks:
        for vi in targets:
            r = init_all(g)
            stage = g._vstage[vi]
            top, low = stage - 2, 3
            drop = rnd.getrandbits(1032) & g.span_mask(low, top)
            thin = rnd.getrandbits(1032) & g.span_mask(low, top)
            seed = -1 if vi == sink else rnd.getrandbits(1032)
            check_lanes_against_a_plain_walk(g, r, es, vi, seed, 2, low, top, 1, drop, thin)
            checked += 1
    assert checked == 9


# -- reach map -------------------------------------------------------------


def test_reachmap_stamps_changes_by_log_position(chain_c):
    """``len(r.log)`` is the one clock.  A shrink logs its edge and the bits
    it removed, and stamps that edge's stage alone with the new log length;
    a no-op logs and stamps nothing.  ``changed_since`` is a flag."""
    r = init_all(chain_c)
    assert [chain_c.edge_triple(eid)[2] for eid in range(3)] == [1, 2, 3]
    assert r.stamps == [0, 0, 0, 0]
    assert r.log == []
    assert not r.set_entry(0, r.entries[0])
    assert r.stamps == [0, 0, 0, 0]
    assert r.log == []
    assert r.set_entry(0, 0)
    assert r.stamps == [0, 1, 0, 0]
    assert r.log == [(0b001, 0b110)]
    assert r.set_entry(1, 0)
    assert r.stamps == [0, 1, 2, 0]
    assert r.log == [(0b001, 0b110), (0b010, 0b100)]
    assert not r.set_entry(1, 0)
    assert r.stamps == [0, 1, 2, 0]
    assert len(r.log) == 2
    assert r.removed_since(0) == 0b110 and r.removed_since(1) == 0b100
    assert r.removed_since(2) == 0
    assert r.lost_within(0b011, 0, 0b100) == 0b011 and r.lost_within(0b011, 1, 0b010) == 0
    assert r.changed_since(0, 0) is False and r.changed_since(1, 0) is True
    assert r.changed_since(1, 1) is False and r.changed_since(2, 1) is True
    assert r.changed_since(3, 2) is False
    assert r.changed_since(3, 0) is True
    # only a stage above k changed since t, and t is not the current length
    r = init_all(chain_c)
    assert r.set_entry(1, 0)
    assert r.changed_since(1, 0) is False and r.changed_since(2, 0) is True


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
        assert not any(r.stamps) and r.log == []
        with pytest.raises(TypeError):
            ReachMap(holders, g._estage)


def test_transpose_walks_wide_masks_byte_by_byte():
    """``_transpose`` walks each mask byte by byte from its lowest set bit;
    on a 1,032-edge map, masks full, holding runs of zero bytes, starting
    off a byte boundary and ending off one, it equals a per-bit transpose."""
    import random

    g = gen_msp(GenShape(9, (1,) + (12,) * 8 + (1,), 1.0, 0.9, 0))
    m = g.edge_count
    assert m > 1000
    rnd = random.Random(5)
    gaps = (0xFFFF << 200) | (0xFF << 480) | (0xFFFFFF << 800)  # zero bytes inside
    masks = [g.full_mask, g.full_mask & ~gaps, 0, 1 << m - 1, 0b101 << 9]
    masks += [rnd.getrandbits(m) & -1 << rnd.randrange(1, 20) & ~gaps for _ in range(m - 6)]
    masks.append(g.full_mask >> 3)
    assert len(masks) == m
    ends = {mask.bit_length() % 8 for mask in masks if mask}
    assert ends - {0}
    assert _transpose(masks) == transpose(masks)
    holders = init_all(g).holders
    assert _transpose(_transpose(holders)) == holders


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


# -- the assumptions under the caches ------------------------------------------


def test_comp_is_monotone_in_the_edge_set_and_the_reachable_sets():
    """comp(es1; R1) lies inside comp(es2; R2) whenever es1 lies inside es2
    and every entry of R1 inside the same entry of R2: the assumption under
    ``comp``'s warm starts and ``OperatorCaches.fixpoints`` (Tarski,
    Pacific J. Math. 5(2), 1955), checked for ``comp`` and ``comp_ref``."""
    import random

    compared = strict = 0
    for seed in range(60):
        g = random_graph(seed, stages=3 + seed % 3)
        rg = ref.RefGraph(g)
        rnd = random.Random(8000 + seed)
        full = init_all(g).entries

        def thin(m):
            """``m`` with each bit kept at odds of 3 in 4."""
            return m & (rnd.randrange(g.full_mask + 1) | rnd.randrange(g.full_mask + 1))

        for _ in range(4):
            r2 = [thin(m) for m in full]
            r1 = [thin(m) for m in r2]
            maps = [ReachMap(holders=transpose(r), estage=g._estage) for r in (r1, r2)]
            reaches = [
                {g.edge_triple(i): triples_of(g, m) for i, m in enumerate(r)} for r in (r1, r2)
            ]
            for name in g.vertex_names()[1:]:
                es2 = g.eset(name) if rnd.random() < 0.5 else rnd.randrange(g.full_mask + 1)
                es1 = thin(es2)
                low = comp(es1, name, maps[0], g)
                high = comp(es2, name, maps[1], g)
                assert low & ~high == 0, (seed, name, edge_ids(es1), edge_ids(es2))
                low_ref = ref.comp_ref(rg, triples_of(g, es1), name, reaches[0])
                high_ref = ref.comp_ref(rg, triples_of(g, es2), name, reaches[1])
                assert low_ref <= high_ref, (seed, name)
                compared += bool(low)
                strict += low != high
    assert compared > 100 and strict > 30


def sweep_ref(rg, reach, esets):
    """One sweep of ``reference.zh_ref``'s loop body from the state
    (``reach``, ``esets``), composed from ``change_ref``, ``comp_ref``,
    ``tidy_ref`` and ``slice_ref`` exactly as ``zh_ref`` composes them; the
    inputs are left untouched."""
    reach, esets = dict(reach), dict(esets)
    for stage in range(1, rg.stages):
        for e in rg.edges:
            if e[2] == stage:
                ref.change_ref(rg, reach, e, esets)
        for v in rg.by_stage[stage]:
            esets[v] = ref.comp_ref(rg, esets[v], v, reach)
        for e in rg.edges:
            if e[2] > stage:
                continue
            union: set = set()
            for v in rg.by_stage[stage]:
                contracted = ref.comp_ref(rg, esets[v], v, reach)
                union |= ref.tidy_ref(rg, reach[e] & contracted, e[1], v)
            kept = (reach[e] - ref.slice_ref(rg, reach[e], e[2] + 1, stage)) | ref.slice_ref(
                rg, frozenset(union), e[2] + 1, stage
            )
            reach[e] = ref.tidy_ref(rg, kept, e[1], rg.sink)
    return reach, esets


def state_cells(reach, esets):
    """The members of a state's entries and edge sets, as (part, key, member)."""
    return {("reach", k, t) for k, ts in reach.items() for t in ts} | {
        ("eset", k, t) for k, ts in esets.items() for t in ts
    }


def state_of(cells, reach, esets):
    """``(reach, esets)`` cut down to ``cells``."""
    return tuple(
        {k: frozenset(t for t in ts if (part, k, t) in cells) for k, ts in state.items()}
        for part, state in (("reach", reach), ("eset", esets))
    )


def test_the_reference_sweep_is_monotone():
    """X <= Y <= (init_all_ref, the graph's edge sets) gives sweep(X) <=
    sweep(Y), entry by entry and edge set by edge set, for one sweep of the
    literal step: the assumption under warm starts and fixpoint
    certificates (Tarski, Pacific J. Math. 5(2), 1955).  Y thins the top
    state, and X drops one to three members of Y.  Some draws must give a
    strictly smaller sweep(X), and some a difference beyond the members
    dropped, or the check would be vacuous."""
    seen = {"strict": 0, "beyond": 0}

    @settings(max_examples=300)
    @given(st.data())
    def compare_sweeps(data):
        draw = data.draw
        g = random_graph(  # dense edge sets, so a dropped member can propagate
            draw(st.integers(0, 10**6)),
            stages=draw(st.integers(3, 5)),
            max_width=draw(st.sampled_from([3, 4])),
            eset_p=draw(st.sampled_from([0.9, 1.0])),
        )
        rg = ref.RefGraph(g)
        top = (ref.init_all_ref(rg), dict(rg.esets))
        rnd = draw(st.randoms(use_true_random=False))
        keep = draw(st.sampled_from([1.0, 0.9, 0.7]))
        y_cells = {c for c in sorted(state_cells(*top)) if rnd.random() < keep}
        x_cells = y_cells - set(rnd.sample(sorted(y_cells), min(len(y_cells), rnd.randint(1, 3))))
        y, x = state_of(y_cells, *top), state_of(x_cells, *top)
        low, high = sweep_ref(rg, *x), sweep_ref(rg, *y)
        for low_part, high_part in zip(low, high):
            for k, ts in low_part.items():
                assert ts <= high_part[k], (g, k)
        seen["strict"] += low != high
        seen["beyond"] += state_cells(*low) != state_cells(*high) & x_cells

    compare_sweeps()
    assert seen["strict"] > 100 and seen["beyond"] > 20, seen


def test_reachable_sets_stay_tidy_through_the_solver(monkeypatch):
    """Every entry equals tidy(entry, head, sink) after ``init_all``, after
    every ``change`` inside ``zh_solve`` and in its final ``reach``, so a
    stage-1 ``change`` there, which only tidies, never shrinks an entry."""
    from msplab import zh

    def untidy(g, entries):
        sink = g.sink_name()
        return [
            eid
            for eid, m in enumerate(entries)
            if m != tidy(m, g.edge_triple(eid)[1], sink, g)
        ]

    real_init, real_change = zh.init_all, zh.change
    calls = []

    def checked_init(g):
        r = real_init(g)
        assert untidy(g, r.entries) == []
        return r

    def checked_change(r, eid, g, caches=None):
        before = r.entries[eid]
        result = real_change(r, eid, g, caches)
        assert untidy(g, r.entries) == [], eid
        if g._estage[eid] == 1:
            assert result == before, eid
        calls.append(g._estage[eid])
        return result

    monkeypatch.setattr(zh, "init_all", checked_init)
    monkeypatch.setattr(zh, "change", checked_change)
    graphs = [random_graph(seed, stages=3 + seed % 4, eset_p=0.9) for seed in range(30)]
    graphs += [reduce_hc_to_msp(gen_ugraph(n, 0.6, seed))[0] for n in (5, 6) for seed in range(3)]
    graphs += [gap_graph(seed, 5, 2) for seed in range(3)]
    for g in graphs:
        assert untidy(g, zh.zh_solve(g).reach) == []
    assert calls.count(1) > 40 and len(calls) > 400


def test_every_trim_meets_its_precondition(monkeypatch):
    """Each peel inside ``zh_solve`` (``comp`` after a deleting sweep,
    ``change`` from its second sweep on, the re-limit step) starts from a
    set that was tidy before its removed edges left, and returns the full
    tidy of what is left."""
    from msplab import operators, zh
    from msplab.formats import parse_instance

    real_trim = operators._trim
    sites = {}

    def checked_trim(g, es, removed, ui, vi):
        assert es & removed == 0
        assert _tidy_idx(g, es | removed, ui, vi) == es | removed
        result = real_trim(g, es, removed, ui, vi)
        assert result == _tidy_idx(g, es, ui, vi)
        site = sys._getframe(1).f_code.co_name
        sites[site] = sites.get(site, 0) + 1
        return result

    monkeypatch.setattr(operators, "_trim", checked_trim)
    monkeypatch.setattr(zh, "_trim", checked_trim)
    graphs = [random_graph(seed, stages=3 + seed % 4, edge_p=1.0, eset_p=0.9) for seed in range(20)]
    # two of the few small graphs on which a change sweep after the first deletes
    graphs += [random_graph(seed, 8, 5, 0.7, 0.95) for seed in (135, 163)]
    graphs += [reduce_hc_to_msp(gen_ugraph(n, 0.6, seed))[0] for n in (5, 6) for seed in range(3)]
    graphs += [long_chain(50), parse_instance((FIXTURES / "j5_a0_sink81.msp").read_text())]
    for g in graphs:
        zh.zh_solve(g)
    assert sites["comp"] > 300 and sites["zh_solve"] > 50 and sites["change"] >= 2, sites
