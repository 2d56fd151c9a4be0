from __future__ import annotations

import dataclasses
import itertools

import pytest

from msplab.lab import GenShape, gen_msp, gen_ugraph
from msplab.model import edge_ids, edge_set, validate
from msplab.operators import OperatorCaches, init_all, tidy
from msplab.oracle import oracle_hamilton, oracle_simple_path
from msplab.reduction import UndirectedGraph, reduce_hc_to_msp
from msplab.zh import (
    NO,
    YES,
    InvalidGraphError,
    limit_tables,
    replay_trace,
    zh_solve,
)

from . import reference as ref
from .conftest import CHAIN_EDGES, CHAIN_VERTICES, mk_graph, random_graph


def test_chain_c_yes_full_set(chain_c):
    result = zh_solve(chain_c)
    assert result.answer == YES
    assert result.final_comp_ed == chain_c.full_mask
    assert result.metrics.outer_sweeps >= 1


def test_chain_cprime_no_empty_set(chain_cprime):
    result = zh_solve(chain_cprime)
    assert result.answer == NO
    assert result.final_comp_ed == 0


def test_reduced_triangle_yes():
    from msplab.reduction import UndirectedGraph, reduce_hc_to_msp

    k3 = UndirectedGraph.from_pairs(3, [(1, 2), (1, 3), (2, 3)])
    g, _ = reduce_hc_to_msp(k3, pivot=1)
    assert zh_solve(g).answer == YES


def test_invalid_graph_rejected():
    g = mk_graph(3, CHAIN_VERTICES, CHAIN_EDGES, {"a": [], "b": []})  # sink eset missing
    assert not validate(g).ok
    with pytest.raises(InvalidGraphError):
        zh_solve(g)


def test_matches_reference_solver_on_random_instances():
    for seed in range(30):
        g = random_graph(seed, stages=3 + seed % 3, max_width=2)
        result = zh_solve(g)
        answer, final = ref.zh_ref(ref.RefGraph(g))
        assert result.answer == answer, seed
        assert frozenset(g.edge_triple(i) for i in edge_ids(result.final_comp_ed)) == final


def test_matches_reference_solver_on_small_reductions():
    """Answer and final set equal the reference solver's on the reduction of
    every graph of order 4 and of a few random graphs of order 5."""
    pairs = list(itertools.combinations(range(1, 5), 2))
    graphs = [
        UndirectedGraph.from_pairs(4, [p for i, p in enumerate(pairs) if bits >> i & 1])
        for bits in range(1 << len(pairs))
    ]
    graphs += [gen_ugraph(5, 0.6, seed) for seed in range(6)]
    answers = set()
    for ug in graphs:
        g, _ = reduce_hc_to_msp(ug)
        result = zh_solve(g)
        answer, final = ref.zh_ref(ref.RefGraph(g))
        assert result.answer == answer, ug
        assert frozenset(g.edge_triple(i) for i in edge_ids(result.final_comp_ed)) == final, ug
        answers.add(answer)
    assert answers == {YES, NO}


def test_matches_reference_solver_on_wide_stages():
    """Shapes with a stage of width 12, where ``v1_10`` sorts, and takes its
    vertex id, before ``v1_2``: answer and final set equal the reference
    solver's, with both answers among them."""
    answers = set()
    for seed in (0, 2, 4, 5, 6, 8):
        g = gen_msp(GenShape(4, (1, 12, 3, 2, 1), 0.8, 0.8, seed))
        names = g.vertex_names()
        assert names.index("v1_10") < names.index("v1_2"), seed
        result = zh_solve(g)
        answer, final = ref.zh_ref(ref.RefGraph(g))
        assert result.answer == answer, seed
        assert frozenset(g.edge_triple(i) for i in edge_ids(result.final_comp_ed)) == final, seed
        answers.add(answer)
    assert answers == {YES, NO}


def test_limit_tables_match_per_vertex_tidy():
    """On shrunk random states, at every stage, the re-limit losers are the
    edges whose set loses a window bit to the union of per-vertex tidies
    through the stage's contracted edge sets, and ``keep`` spells out that
    union for every edge."""
    import random

    graphs = [random_graph(seed, stages=3 + seed % 4, eset_p=0.9) for seed in range(30)]
    graphs += [reduce_hc_to_msp(gen_ugraph(5, 0.6, seed))[0] for seed in range(3)]
    losers_seen = 0
    for gi, g in enumerate(graphs):
        rnd = random.Random(6000 + gi)
        r = init_all(g)
        names = g.vertex_names()
        vstage = dict(g.document_data()[0])
        caches = OperatorCaches(g, r)
        for _ in range(3):
            for stage in range(1, g.stage_count):
                vis = [vi for vi, name in enumerate(names) if vstage[name] == stage]
                comps = [caches.comp_value(caches.esets[vi], vi) for vi in vis]
                for vi, ceb in zip(vis, comps):
                    caches.esets[vi] = ceb
                keep, losers = limit_tables(caches, stage)
                for eid in range(g.edge_count):
                    cur = r.entries[eid]
                    _, head, estage = g.edge_triple(eid)
                    if estage > stage:
                        continue
                    union = 0
                    for vi, ceb in zip(vis, comps):
                        union |= tidy(cur & ceb, head, names[vi], g)
                    window = g.span_mask(estage + 1, stage)
                    lost = bool(cur & window & ~union)
                    assert bool(losers >> eid & 1) == lost, (gi, stage, eid)
                    losers_seen += lost
                    kept = edge_set(f for f in edge_ids(cur & window) if keep[f] >> eid & 1)
                    assert kept == union & window, (gi, stage, eid)
            # shrink about half the entries
            for eid in range(g.edge_count):
                if r.entries[eid] and rnd.random() < 0.5:
                    keep_bits = rnd.randrange(g.full_mask + 1)
                    r.set_entry(eid, r.entries[eid] & (keep_bits | keep_bits >> 1))
    assert losers_seen > 100


def test_relimit_edge_sets_are_their_own_contractions(monkeypatch):
    """When ``zh_solve`` builds the re-limit tables of a stage, each stage
    vertex's stored edge set is already comp(v) under the current map, so
    the re-limit step may read it instead of contracting again."""
    from msplab import zh

    real = zh.limit_tables
    checked = []

    def spy(caches, stage):
        for vi in caches.graph._stage_vertices[stage]:
            assert caches.comp_value(caches.esets[vi], vi) == caches.esets[vi], (stage, vi)
            checked.append(caches.esets[vi])
        return real(caches, stage)

    monkeypatch.setattr(zh, "limit_tables", spy)
    graphs = [random_graph(seed, stages=3 + seed % 4, eset_p=0.9) for seed in range(30)]
    graphs += [reduce_hc_to_msp(gen_ugraph(n, 0.6, seed))[0] for n in (5, 6) for seed in range(3)]
    graphs.append(reduce_hc_to_msp(generalized_petersen(5, 2))[0])
    for g in graphs:
        zh_solve(g)
    assert len(checked) > 300 and sum(map(bool, checked)) > 150


def test_necessity_on_random_instances():
    """Wherever exhaustive search finds a simple path, the solver says YES."""
    disagreements = []
    for seed in range(400):
        g = random_graph(seed, stages=3 + seed % 4, max_width=3, edge_p=0.7, eset_p=0.5)
        orc = oracle_simple_path(g)
        if orc.answer == "YES" and zh_solve(g).answer != YES:
            disagreements.append(seed)
    assert disagreements == []


def test_monotone_state_and_determinism(chain_c):
    first = zh_solve(chain_c)
    second = zh_solve(chain_c)
    assert first.answer == second.answer
    assert first.final_comp_ed == second.final_comp_ed
    assert first.metrics.outer_sweeps == second.metrics.outer_sweeps
    assert first.metrics.operator_calls == second.metrics.operator_calls
    assert first.metrics.edges_deleted == second.metrics.edges_deleted


def test_determinism_on_random_instances():
    for seed in range(10):
        g = random_graph(seed, stages=4, max_width=3)
        a = zh_solve(g)
        b = zh_solve(g)
        assert (a.answer, a.final_comp_ed, a.metrics.outer_sweeps) == (
            b.answer,
            b.final_comp_ed,
            b.metrics.outer_sweeps,
        )
        assert a.metrics.operator_calls == b.metrics.operator_calls


def test_trace_chain_c_no_deletions(chain_c):
    trace = []
    result = zh_solve(chain_c, trace=trace)
    assert result.answer == YES
    assert [ev for ev in trace if ev["event"] == "r_shrink"] == []


def test_trace_chain_cprime_empty_init(chain_cprime):
    trace = []
    zh_solve(chain_cprime, trace=trace)
    inits = {ev["edge"]: ev["value"] for ev in trace if ev["event"] == "r_init"}
    assert inits[0] == []


def test_trace_replay_reproduces_final_state():
    for seed in range(15):
        g = random_graph(seed, stages=4, max_width=3)
        trace = []
        result, traced = zh_solve(g), zh_solve(g, trace=trace)
        assert traced.answer == result.answer
        assert replay_trace(g, trace) == result.reach


def test_edges_deleted_is_the_initial_bits_minus_the_final_ones():
    """``metrics.edges_deleted`` is the bits of the trace's ``r_init``
    events minus the bits of the final reachable sets, and so the bits its
    deletion events remove, on reductions of order 4-6 and on campaign
    instances."""
    from msplab.lab import CampaignConfig, gen_msp, shape_for_seed

    config = CampaignConfig()
    graphs = [reduce_hc_to_msp(gen_ugraph(n, 0.5, seed))[0] for n in range(4, 7) for seed in (0, 1)]
    graphs += [gen_msp(shape_for_seed(config, seed)) for seed in range(300)]
    deleted = 0
    for g in graphs:
        trace = []
        result = zh_solve(g, trace=trace)
        initial = sum(len(ev["value"]) for ev in trace if ev["event"] == "r_init")
        removed = sum(len(ev["removed"]) for ev in trace if ev["event"] == "r_shrink")
        final = sum(m.bit_count() for m in result.reach)
        assert result.metrics.edges_deleted == initial - final == removed
        deleted += removed
    assert deleted > 0


def test_solver_never_grows_state():
    from msplab.operators import init_all

    for seed in range(10):
        g = random_graph(seed, stages=4, max_width=3)
        r0 = init_all(g).entries
        reach = zh_solve(g).reach
        for eid in range(g.edge_count):
            assert reach[eid] & ~r0[eid] == 0


def test_zh_result_shape(chain_c):
    result = zh_solve(chain_c)
    assert dataclasses.is_dataclass(result)
    assert (result.answer == YES) == (result.final_comp_ed != 0)
    assert result.metrics.wall_time >= 0.0


def generalized_petersen(n: int, k: int) -> UndirectedGraph:
    """GP(n, k): outer cycle 1..n, spokes i -> n+i, inner star polygon step k."""
    pairs = []
    for i in range(n):
        pairs.append((1 + i, 1 + (i + 1) % n))
        pairs.append((1 + i, 1 + n + i))
        pairs.append((1 + n + i, 1 + n + (i + k) % n))
    return UndirectedGraph.from_pairs(2 * n, pairs)


@pytest.mark.parametrize("n, answer", [(5, NO), (6, YES), (7, YES)])
def test_sparse_generalized_petersen_reductions(n, answer):
    """Cubic graphs reduce to long, sparse instances on which ``comp`` re-runs
    from stale cache entries most; GP(n, 2) is non-Hamiltonian exactly when
    n = 5 (mod 6) (Alspach, JCTB 34, 1983), and GP(5, 2) is the Petersen graph."""
    ug = generalized_petersen(n, 2)
    assert len(ug.edges) == 3 * n
    assert oracle_hamilton(ug).answer == answer
    g, _ = reduce_hc_to_msp(ug)
    assert zh_solve(g).answer == answer


def test_metrics_count_warm_started_comp_runs():
    g, _ = reduce_hc_to_msp(gen_ugraph(8, 0.5, 0))
    calls = zh_solve(g).metrics.operator_calls
    assert 0 < calls["comp_warm"] <= calls["comp"]
    assert 0 < calls["comp_settled"] <= calls["comp_cache_hits"]
    # keep-guards of change answered by a fixpoint found earlier, with no
    # comp lookup
    assert 0 < calls["guard_certified"]


def test_change_runs_only_on_nonempty_entries(monkeypatch):
    """``zh_solve`` skips ``change`` on an empty entry, which ``change``
    would return unchanged, and ``operator_calls["change"]`` counts the calls
    it makes, on reductions of order 4-7 and on campaign instances."""
    from msplab import zh
    from msplab.lab import CampaignConfig, gen_msp, shape_for_seed

    calls = []
    real_change = zh.change

    def spy(r, eid, g, caches=None):
        assert r.entries[eid], eid
        calls.append(eid)
        return real_change(r, eid, g, caches)

    monkeypatch.setattr(zh, "change", spy)
    config = CampaignConfig()
    graphs = [reduce_hc_to_msp(gen_ugraph(n, 0.5, seed))[0] for n in range(4, 8) for seed in (0, 1)]
    graphs += [gen_msp(shape_for_seed(config, seed)) for seed in range(300)]
    skipped = 0
    for g in graphs:
        calls.clear()
        metrics = zh_solve(g).metrics
        assert metrics.operator_calls["change"] == len(calls)
        # without the skip, every sweep calls change on each edge of stages < L
        skipped += metrics.outer_sweeps * g._stage_end[g.stage_count - 1] - len(calls)
    assert skipped > 1000, skipped
