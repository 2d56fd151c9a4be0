"""Golden digest of the solver's outputs on a fixed corpus.

The corpus is:

* the Hamilton-circuit reductions of ``gen_ugraph(n, 0.5, s)`` for n 4-7 and
  s 0-3, with pivots 1 and n;
* the reductions of GP(5,2) and GP(6,2), built with networkx;
* the first 300 seeds of the default campaign.

For each instance, ``zh_solve``'s answer, ``final_comp_ed``, ``reach``,
trace and ``outer_sweeps`` go into one sha256 as sorted-key JSON.  Any
change to the solver's caches or operators must leave that digest alone.
A change that alters these outputs on purpose updates ``DIGEST`` and says
so in CHANGES.md.  The test is skipped where networkx is not installed.

``COUNTS_DIGEST`` pins the solver's work on the same corpus: one sha256 over
every ``operator_calls`` entry and the ``edges_deleted`` value of each
instance.  A change that only makes the solver faster must leave both
digests alone; one that changes how much work it does on purpose updates
``COUNTS_DIGEST`` and says so in CHANGES.md.

``GEN_DIGEST`` pins the generator the same way: one sha256 over the
serialized ``gen_msp`` instances of the first 3,000 default campaign seeds,
of shapes with widths of 11 or more (where ``v1_10`` sorts before ``v1_2``,
so edge ids do not follow vertex indices), and of every pairing of edge and
edge-set densities 0, 0.5 and 1.  It needs no networkx.  A change that
alters the generator's draws on purpose updates ``GEN_DIGEST`` and says so
in CHANGES.md.

``CAMPAIGN_DIGEST`` pins what campaigns write: one sha256 over the relative
path and bytes of every file under three campaigns' output directories,
except ``report.txt``, which holds the wall time.  The campaigns are 40
seeds with a one-node oracle budget (UNKNOWN findings), the same run on two
workers, and 12 seeds with empty edge sets and a solver stubbed to YES, so
that every finding is a candidate counterexample and is minimized.  A change
that alters the archive, ``report.jsonl`` or ``progress.json`` on purpose
updates ``CAMPAIGN_DIGEST`` and says so in CHANGES.md.

``MINIMIZED_DIGEST`` pins the minimizer the same way, on 20 seeds with
empty edge sets and a solver stubbed to say YES only on graphs of at least
four edges.  Minimization then stops at graphs of four edges or more, and
which ones it keeps depends on the minimizer's move order, the position it
resumes from after each accepted move, and its budget.
"""

from __future__ import annotations

import hashlib
import itertools
import json

import pytest

from msplab import lab
from msplab.formats import serialize_instance
from msplab.lab import (
    CampaignConfig,
    GenShape,
    gen_msp,
    gen_ugraph,
    run_differential,
    shape_for_seed,
)
from msplab.reduction import UndirectedGraph, reduce_hc_to_msp
from msplab.zh import ZhMetrics, ZhResult, zh_solve

DIGEST = "637e334a870883a2a7d943f0daf979ebf6c1f7daca4fe047a3a4c06b5e1d16af"
GEN_DIGEST = "512cc01d166180f49e1a3d8906681de3c48ab871caf80249ba81a61bc02d347f"
CAMPAIGN_DIGEST = "3a83513aa6c6ca82fa28bba835fe70f77feb9cdb7cdf818a5738d8ed015c0d42"
MINIMIZED_DIGEST = "f7d8f00931b8b108a7372bebfbc9bb0d3cc692685d4535cff527041509b8e539"
COUNTS_DIGEST = "2599ae788418333d89bc592a685ff911da0ea8b5ddbb27394632ec0cea7f8855"


def corpus():
    nx = pytest.importorskip("networkx")
    for n in range(4, 8):
        for s in range(4):
            ug = gen_ugraph(n, 0.5, s)
            for pivot in (1, n):
                yield f"hc/{n}/{s}/{pivot}", reduce_hc_to_msp(ug, pivot)[0]
    for n in (5, 6):
        gp = nx.generalized_petersen_graph(n, 2)
        pairs = sorted((u + 1, v + 1) for u, v in gp.edges)
        ug = UndirectedGraph.from_pairs(gp.number_of_nodes(), pairs)
        yield f"gp/{n}/2", reduce_hc_to_msp(ug)[0]
    config = CampaignConfig()
    for seed in range(300):
        yield f"campaign/{seed}", gen_msp(shape_for_seed(config, seed))


def test_solver_outputs_match_golden_digest():
    h = hashlib.sha256()
    for name, g in corpus():
        trace: list = []
        result = zh_solve(g, trace=trace)
        record = {
            "name": name,
            "answer": result.answer,
            "final_comp_ed": result.final_comp_ed,
            "reach": result.reach,
            "trace": trace,
            "outer_sweeps": result.metrics.outer_sweeps,
        }
        h.update(json.dumps(record, sort_keys=True).encode())
    assert h.hexdigest() == DIGEST


def test_solver_counts_match_golden_digest():
    h = hashlib.sha256()
    for name, g in corpus():
        metrics = zh_solve(g).metrics
        record = {
            "name": name,
            "operator_calls": metrics.operator_calls,
            "edges_deleted": metrics.edges_deleted,
        }
        h.update(json.dumps(record, sort_keys=True).encode())
    assert h.hexdigest() == COUNTS_DIGEST


def gen_corpus():
    config = CampaignConfig()
    for seed in range(3000):
        yield shape_for_seed(config, seed)
    for seed in (0, 1, 2, 3, -1, 2**64 + 3):
        yield GenShape(3, (1, 12, 11, 1), 0.4, 0.5, seed)
        yield GenShape(4, (1, 14, 3, 13, 1), 0.3, 0.8, seed)
        yield GenShape(5, (1, 11, 11, 11, 11, 1), 0.25, 0.3, seed)
    for seed, (p, q) in enumerate(itertools.product((0.0, 0.5, 1.0), repeat=2)):
        yield GenShape(4, (1, 3, 11, 2, 1), p, q, seed)
        yield GenShape(1, (1, 1), p, q, seed)


def test_generator_output_matches_golden_digest():
    h = hashlib.sha256()
    for shape in gen_corpus():
        h.update(serialize_instance(gen_msp(shape)).encode())
    assert h.hexdigest() == GEN_DIGEST


def campaign_config(**kw) -> CampaignConfig:
    base = dict(stages_min=3, stages_max=5, width_max=3, edge_density=0.7)
    return CampaignConfig(**{**base, **kw})


def test_campaign_outputs_match_golden_digest(tmp_path, monkeypatch):
    runs = {
        "unknown-serial": campaign_config(instances=40, oracle_max_nodes=1),
        "unknown-parallel": campaign_config(instances=40, oracle_max_nodes=1, workers=2),
    }
    for name, config in runs.items():
        run_differential(config, out_dir=tmp_path / name)
    monkeypatch.setattr(
        lab,
        "zh_solve",
        lambda g, opts=None: ZhResult("YES", g.full_mask, ZhMetrics(outer_sweeps=1)),
    )
    config = campaign_config(instances=12, eset_densities=(0.0,), minimize_budget=60)
    run_differential(config, out_dir=tmp_path / "minimized")
    assert output_digest(tmp_path) == CAMPAIGN_DIGEST


def test_minimized_findings_match_golden_digest(tmp_path, monkeypatch):
    def zh_solve_stub(g, opts=None):
        if g.edge_count >= 4:
            return ZhResult("YES", g.full_mask, ZhMetrics(outer_sweeps=1))
        return ZhResult("NO", 0, ZhMetrics(outer_sweeps=1))

    monkeypatch.setattr(lab, "zh_solve", zh_solve_stub)
    config = campaign_config(instances=20, eset_densities=(0.0,), minimize_budget=60)
    run_differential(config, out_dir=tmp_path)
    assert len(list(tmp_path.rglob("minimized.msp"))) == 7
    assert output_digest(tmp_path) == MINIMIZED_DIGEST


def output_digest(root) -> str:
    """One sha256 over the relative path and bytes of every file under
    ``root`` but ``report.txt``."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        if path.name != "report.txt":
            h.update(path.relative_to(root).as_posix().encode() + b"\0")
            h.update(path.read_bytes() + b"\0")
    return h.hexdigest()
