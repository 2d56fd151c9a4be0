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
"""

from __future__ import annotations

import hashlib
import json

import pytest

from msplab.lab import CampaignConfig, gen_msp, gen_ugraph, shape_for_seed
from msplab.reduction import UndirectedGraph, reduce_hc_to_msp
from msplab.zh import zh_solve

DIGEST = "637e334a870883a2a7d943f0daf979ebf6c1f7daca4fe047a3a4c06b5e1d16af"


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
