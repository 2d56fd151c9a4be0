"""The benchmark's hooks into msplab still resolve.

``perfbench/`` times the program from outside: its tracer replaces module and
class attributes with timing wrappers, and its workloads read named
``operator_calls`` counts.  An API cut that removes one of them breaks
``perfbench/run.py --trace 1`` without failing any other test, so these
tests import the benchmark's own modules and check them against the package.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

from msplab import zh

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MODULES = ("tracing", "workloads")


@pytest.fixture
def bench(monkeypatch):
    """The benchmark's ``tracing`` and ``workloads`` modules, imported from
    ``perfbench/`` and dropped from ``sys.modules`` again afterwards."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in MODULES:
        monkeypatch.delitem(sys.modules, name, raising=False)
    yield tuple(importlib.import_module(name) for name in MODULES)
    for name in MODULES:
        sys.modules.pop(name, None)


def test_every_traced_boundary_resolves(bench, chain_c):
    tracing, _ = bench
    tracer = tracing.Tracer()
    for owner, attr, name, _, _ in tracing._boundaries(tracer):
        assert callable(getattr(owner, attr, None)), (owner.__name__, attr, name)
    with tracing.tracing(tracer):
        assert zh.zh_solve(chain_c).answer == "YES"
    traced = {tracer.names[i] for i in tracer.name}
    assert {"zh.zh_solve", "operators.init_all", "operators.change", "operators.comp"} <= traced


def test_every_counted_call_is_reported(bench, chain_c):
    _, workloads = bench
    calls = zh.zh_solve(chain_c).metrics.operator_calls
    assert set(workloads.COUNTED_CALLS) <= set(calls)


def test_traced_counts_match_the_solver_counts(bench, chain_c):
    """The benchmark's ``--trace 1`` cross-check, per instance over a small
    corpus: spans of ``zh.change`` equal ``operator_calls["change"]``, spans
    of ``operators.comp`` equal ``comp``, and ``comp_value`` lookups less
    ``comp`` runs equal ``comp_cache_hits``."""
    from msplab.lab import CampaignConfig, gen_msp, gen_ugraph, shape_for_seed
    from msplab.reduction import reduce_hc_to_msp

    tracing, _ = bench
    config = CampaignConfig()
    graphs = [chain_c]
    graphs += [reduce_hc_to_msp(gen_ugraph(n, 0.5, seed))[0] for n in (5, 6, 7) for seed in (0, 1)]
    graphs += [gen_msp(shape_for_seed(config, seed)) for seed in range(60)]
    tracer = tracing.Tracer()
    totals = dict.fromkeys(("change", "comp", "comp_cache_hits"), 0)
    with tracing.tracing(tracer):
        for g in graphs:
            first = len(tracer.name)
            calls = zh.zh_solve(g).metrics.operator_calls
            names = [tracer.names[i] for i in tracer.name[first:]]
            lookups = names.count("operators.comp_value")
            runs = names.count("operators.comp")
            assert names.count("operators.change") == calls["change"], g.vertex_names()
            assert runs == calls["comp"], g.vertex_names()
            assert lookups - runs == calls["comp_cache_hits"], g.vertex_names()
            for key in totals:
                totals[key] += calls[key]
    assert all(totals.values()), totals
