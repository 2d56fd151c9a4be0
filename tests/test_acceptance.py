"""Acceptance suite: every criterion prints one pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The heavyweight pieces
(10k-instance necessity sweep, the exhaustive order-4/5/6 reduction sweep and
the 100k-instance campaign) use both cores; the whole suite is a few minutes
of wall time.
"""

from __future__ import annotations

import itertools
import math
import random
import statistics
from contextlib import contextmanager
from multiprocessing import Pool

import pytest

from msplab.lab import (
    BUG_NECESSITY,
    CampaignConfig,
    GenShape,
    gen_msp,
    run_differential,
    vec_metric,
)
from msplab.formats import parse_instance, serialize_instance
from msplab.model import edge_ids, validate
from msplab.operators import change, comp, init_all, tidy
from msplab.oracle import SearchBudget, oracle_hamilton, oracle_simple_path
from msplab.reduction import UndirectedGraph, reduce_hc_to_msp
from msplab.zh import zh_solve

from .conftest import mk_graph, CHAIN_VERTICES, CHAIN_EDGES, E1, E2, E3


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"\nACCEPTANCE {number} ({name}): PASS")


def _sweep_reduction(args):
    n, bits = args
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    ug = UndirectedGraph.from_pairs(n, [p for i, p in enumerate(pairs) if bits >> i & 1])
    ham = oracle_hamilton(ug).answer
    reduced, _ = reduce_hc_to_msp(ug)
    msp = oracle_simple_path(reduced).answer
    zh = zh_solve(reduced).answer
    return n, bits, ham, msp, zh


@pytest.fixture(scope="session")
def exhaustive_reductions():
    """(n, bits, ham, msp-oracle, zh) for every graph of order 3..6."""
    tasks = []
    for n in (3, 4, 5, 6):
        tasks.extend((n, bits) for bits in range(1 << (n * (n - 1) // 2)))
    with Pool(2) as pool:
        return pool.map(_sweep_reduction, tasks, chunksize=256)


def campaign_config(instances: int, workers: int = 2, seed: int = 0) -> CampaignConfig:
    return CampaignConfig(
        instances=instances,
        seed=seed,
        stages_min=4,
        stages_max=12,
        width_max=6,
        edge_density=0.5,
        eset_densities=(0.3, 0.5, 0.8),
        oracle_max_nodes=10_000_000,
        workers=workers,
    )


def test_criterion_1_necessity(exhaustive_reductions):
    with criterion(1, "necessity"):
        report = run_differential(campaign_config(instances=10_000))
        assert report.totals[BUG_NECESSITY] == 0, report.totals
        assert sum(report.totals.values()) == 10_000
        misses = [
            (n, bits)
            for n, bits, ham, msp, zh in exhaustive_reductions
            if n >= 4 and msp == "YES" and zh != "YES"
        ]
        assert misses == [], f"necessity violated on {len(misses)} reductions: {misses[:5]}"


def test_criterion_2_reduction_equivalence(exhaustive_reductions):
    with criterion(2, "reduction equivalence"):
        mismatches = [
            (n, bits, ham, msp)
            for n, bits, ham, msp, _ in exhaustive_reductions
            if ham != msp
        ]
        assert mismatches == [], f"{len(mismatches)} mismatches: {mismatches[:5]}"
        # the solver's verdict on a reduction must match in both directions
        disagreements = [
            (n, bits, msp, zh)
            for n, bits, _, msp, zh in exhaustive_reductions
            if n >= 4 and zh != msp
        ]
        assert disagreements == [], (
            f"zh disagrees with the oracle on {len(disagreements)} reductions: "
            f"{disagreements[:5]}"
        )
        assert len(exhaustive_reductions) == 8 + 64 + 1024 + 32768


def test_criterion_3_reduction_size():
    with criterion(3, "reduction size"):
        rnd = random.Random(303)
        for n in range(3, 31):
            pairs = [
                p for p in itertools.combinations(range(1, n + 1), 2) if rnd.random() < 0.5
            ]
            g, rmap = reduce_hc_to_msp(UndirectedGraph.from_pairs(n, pairs))
            assert rmap.stats["internal_vertices"] == (n - 1) * (n - 1)
            assert g.vertex_count() == (n - 1) * (n - 1) + 2
            assert g.edge_count <= 2 * n**3


SHAPE_CLASSES = {
    "narrow_sparse": GenShape(6, (1, 2, 2, 2, 2, 2, 1), 0.5, 0.3, seed=41),
    "narrow_dense": GenShape(6, (1, 2, 2, 2, 2, 2, 1), 0.9, 0.8, seed=42),
    "wide_sparse": GenShape(4, (1, 5, 5, 5, 1), 0.4, 0.3, seed=43),
    "wide_dense": GenShape(4, (1, 5, 5, 5, 1), 0.8, 0.8, seed=44),
}


def test_criterion_4_operator_properties():
    with criterion(4, "operator properties"):
        for label, base in SHAPE_CLASSES.items():
            rnd = random.Random(base.seed)
            instances = []
            for k in range(20):
                g = gen_msp(
                    GenShape(
                        base.stages,
                        base.widths,
                        base.edge_density,
                        base.eset_density,
                        seed=base.seed * 1000 + k,
                    )
                )
                instances.append((g, init_all(g)))
            for i in range(1000):
                g, r = instances[i % len(instances)]
                names = g.vertex_names()
                es = rnd.randrange(g.full_mask + 1) if g.full_mask else 0
                u = rnd.choice(names)
                v = rnd.choice(names)
                if g.vertex(u).stage > g.vertex(v).stage:
                    u, v = v, u
                tided = tidy(es, u, v, g)
                assert tided & ~es == 0, label
                assert tidy(tided, u, v, g) == tided, label
                target = v if v != g.source_name() else g.sink_name()
                contracted = comp(es, target, r, g)
                assert contracted & ~es == 0, label
                assert comp(contracted, target, r, g) == contracted, label
                if g.edge_count:
                    eid = rnd.randrange(g.edge_count)
                    prior = r.get(eid)
                    assert change(r, eid, g) & ~prior == 0, label


def test_criterion_5_micro_fixtures():
    with criterion(5, "hand-traced micro fixtures"):
        chain_c = mk_graph(
            3, CHAIN_VERTICES, CHAIN_EDGES, {"a": [E1], "b": [E1, E2], "D": [E1, E2, E3]}
        )
        chain_cp = mk_graph(
            3, CHAIN_VERTICES, CHAIN_EDGES, {"a": [E1], "b": [E1, E2], "D": [E2, E3]}
        )
        result = zh_solve(chain_c)
        assert result.answer == "YES"
        assert edge_ids(result.final_comp_ed) == [0, 1, 2]
        assert oracle_simple_path(chain_c).answer == "YES"

        result = zh_solve(chain_cp)
        assert result.answer == "NO"
        assert result.final_comp_ed == 0
        assert oracle_simple_path(chain_cp).answer == "NO"

        k3, _ = reduce_hc_to_msp(
            UndirectedGraph.from_pairs(3, [(1, 2), (1, 3), (2, 3)]), pivot=1
        )
        assert zh_solve(k3).answer == "YES"
        assert oracle_simple_path(k3).answer == "YES"

        p3, _ = reduce_hc_to_msp(UndirectedGraph.from_pairs(3, [(1, 2), (2, 3)]), pivot=1)
        assert zh_solve(p3).answer == "NO"
        assert oracle_simple_path(p3).answer == "NO"


def test_criterion_6_campaign_100k(tmp_path_factory):
    with criterion(6, "100k-instance campaign"):
        out_dir = tmp_path_factory.mktemp("campaign100k")
        report = run_differential(campaign_config(instances=100_000), out_dir=out_dir)
        assert report.wall_time < 3600.0, f"campaign took {report.wall_time:.0f}s"
        assert sum(report.totals.values()) == 100_000
        assert report.totals[BUG_NECESSITY] == 0, report.totals
        # findings (if reality produced any) are archived, re-runnable, minimized
        for finding_id in report.findings:
            folder = out_dir / "archive" / finding_id
            g = parse_instance((folder / "instance.msp").read_text())
            zh_again = zh_solve(g)
            orc_again = oracle_simple_path(g, SearchBudget(max_nodes=10_000_000))
            if finding_id.startswith("candidate_counterexample"):
                assert zh_again.answer == "YES" and orc_again.answer == "NO"
                small = parse_instance((folder / "minimized.msp").read_text())
                assert validate(small).ok
                assert vec_metric(small) <= vec_metric(g)
        print(
            f"\ncampaign totals: {report.totals}; wall {report.wall_time:.0f}s; "
            f"findings: {len(report.findings)}"
        )


def test_criterion_7_scaling_smoke():
    with criterion(7, "polynomial scaling smoke test"):
        edges, seconds = [], []
        for width in (2, 3, 4, 5, 7):
            shape = GenShape(
                stages=6,
                widths=(1, *(width,) * 5, 1),
                edge_density=1.0,
                eset_density=0.5,
                seed=0,
            )
            g = gen_msp(shape)
            times = sorted(zh_solve(g).metrics.wall_time for _ in range(3))
            edges.append(g.edge_count)
            seconds.append(max(times[1], 1e-9))
        slope = statistics.linear_regression(
            [math.log(e) for e in edges], [math.log(t) for t in seconds]
        ).slope
        growth = edges[-1] / edges[0]
        assert growth >= 8.0, f"edge growth only {growth:.1f}x"
        assert slope < 9.0, f"log-log slope {slope:.2f}"


def test_criterion_8_determinism():
    with criterion(8, "determinism"):
        for seed in (0, 7, 99):
            shape = GenShape(6, (1, 4, 3, 4, 3, 4, 1), 0.6, 0.5, seed=seed)
            assert serialize_instance(gen_msp(shape)) == serialize_instance(gen_msp(shape))
        first = run_differential(campaign_config(instances=2_000, workers=1))
        second = run_differential(campaign_config(instances=2_000, workers=1))
        parallel = run_differential(campaign_config(instances=2_000, workers=2))
        assert first.comparable() == second.comparable() == parallel.comparable()
