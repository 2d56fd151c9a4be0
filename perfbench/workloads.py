"""The benchmark's three workloads, built only from msplab's public functions.

Every workload runs a pinned set of instances.  Solver time on one
Hamilton-circuit reduction ranges over two orders of magnitude between graph
seeds (0.01 s to 6 s at orders 7-9), so a seed-chosen instance set would
measure the draw rather than the program; the ``--seed`` of a run instead
fixes the order in which the pinned instances run.  Pinning also lets
``pinned.json`` hold the answer and final contracted set of every instance a
run can meet.

A pass solves every instance once and checks every verdict it produces.
Program functions are always called through their module attributes
(``zh.zh_solve``, ``oracle.oracle_hamilton`` ...) so that a traced pass sees
them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial

from msplab import lab, oracle, reduction, zh
from msplab.model import MultistageGraph

from tracing import Tracer, patched

# Instances per workload.  "full" is what the benchmark measures; "smoke" is
# a seconds-long variant for the benchmark's smoke test.
SIZES = {
    "full": {
        # the ROADMAP's pinned reductions: orders 7-9, graph seeds 0 and 1
        "hc": [(7, 0), (7, 1), (8, 0), (8, 1), (9, 0), (9, 1)],
        "chain": [50, 100, 150],
        "campaign": (3000, 300),  # first seeds of the campaign, chunk size
    },
    "smoke": {
        "hc": [(6, 0), (6, 1)],
        "chain": [5, 10],
        "campaign": (50, 25),
    },
}

BUDGET = oracle.SearchBudget(max_nodes=10_000_000)
# ZhMetrics.operator_calls entries that are real counts; "init_reachable" is
# set to the edge count, so init_all calls are counted at the span instead
COUNTED_CALLS = ("change", "comp", "comp_cache_hits", "limit")


@dataclass
class Solved:
    """One instance solved once: the program's outputs and the check's verdict."""

    key: str
    edges: int
    answer: str
    final: int
    counts: dict[str, int]
    zh_s: float
    error: str | None = None

    def output(self) -> tuple:
        """Everything the program decided; must repeat exactly across passes."""
        return (self.key, self.answer, self.final, tuple(sorted(self.counts.items())))

    def record(self) -> dict:
        return {"key": self.key, "edges": self.edges, "answer": self.answer, **self.counts}


def _solved(key: str, g: MultistageGraph, result, oracle_answers: dict[str, str]) -> Solved:
    m = result.metrics
    counts = {name: m.operator_calls[name] for name in COUNTED_CALLS}
    counts["outer_sweeps"] = m.outer_sweeps
    counts["edges_deleted"] = m.edges_deleted
    error = None
    for name, answer in oracle_answers.items():
        if answer == oracle.TIMEOUT:
            error = f"{name} timed out"
        elif answer != result.answer:
            error = f"zh_solve {result.answer} but {name} {answer}"
    final = result.final_comp_ed
    return Solved(key, g.edge_count, result.answer, final, counts, m.wall_time, error)


def _failed(key: str, error: str) -> Solved:
    return Solved(key, 0, "FAILED", 0, {}, 0.0, error)


def _raised(key: str, exc: Exception) -> Solved:
    return _failed(key, f"raised {type(exc).__name__}: {exc}")


class Workload:
    """Pinned inputs, solved in units: one instance, or one campaign chunk."""

    name = ""
    inputs: list[tuple]

    def solve(self, *item_and_tracer) -> list[Solved]:
        """Solve one input item; the tracer, if any, comes last."""
        raise NotImplementedError

    def units(self) -> list:
        """Callables ``unit(tracer) -> list[Solved]``, in this run's order."""
        return [partial(self.solve, *item) for item in self.inputs]

    def run_pass(self, tracer: Tracer | None = None) -> list[Solved]:
        return [s for unit in self.units() for s in unit(tracer)]


class HcReduced(Workload):
    """Hamilton-circuit reductions: reduce, solve, and check against both oracles."""

    name = "hc-reduced"

    def __init__(self, sizes: dict, seed: int):
        self.inputs = [
            (i, f"hc/{n}/{s}", lab.gen_ugraph(n, 0.5, s)) for i, (n, s) in enumerate(sizes["hc"])
        ]
        random.Random(seed).shuffle(self.inputs)

    @staticmethod
    def solve(i: int, key: str, ug, tracer: Tracer | None) -> list[Solved]:
        if tracer is not None:
            tracer.current_instance = i
        try:
            g, _ = reduction.reduce_hc_to_msp(ug)
            result = zh.zh_solve(g)
            path = oracle.oracle_simple_path(g, BUDGET)
            circuit = oracle.oracle_hamilton(ug, BUDGET)
        except Exception as exc:  # a raising instance is a failed one; keep going
            return [_raised(key, exc)]
        answers = {"oracle_simple_path": path.answer, "oracle_hamilton": circuit.answer}
        return [_solved(key, g, result, answers)]


def chain(length: int) -> MultistageGraph:
    """Width-1 chain of ``length`` stages whose every edge set is all edges."""
    names = ["S", *(f"c{i}" for i in range(1, length)), "D"]
    vertices = [(name, stage) for stage, name in enumerate(names)]
    edges = [(names[k - 1], names[k], k) for k in range(1, length + 1)]
    skeleton = MultistageGraph(length, vertices, edges, {})
    return skeleton.replace_esets({name: skeleton.full_mask for name in names[1:]})


class ChainLong(Workload):
    """Long trivial-YES chains: all re-limit and ``change`` anchor work."""

    name = "chain-long"

    def __init__(self, sizes: dict, seed: int):
        self.inputs = [(length, f"chain/{length}", chain(length)) for length in sizes["chain"]]
        random.Random(seed).shuffle(self.inputs)

    @staticmethod
    def solve(length: int, key: str, g: MultistageGraph, tracer: Tracer | None) -> list[Solved]:
        if tracer is not None:
            tracer.current_instance = length
        try:
            result = zh.zh_solve(g)
            path = oracle.oracle_simple_path(g, BUDGET)
        except Exception as exc:
            return [_raised(key, exc)]
        return [_solved(key, g, result, {"oracle_simple_path": path.answer})]


def campaign_config(first_seed: int, instances: int) -> lab.CampaignConfig:
    """The default campaign, every field spelled out so later default changes
    do not move the benchmark; serial, because a 2-core pool would measure
    the scheduler."""
    return lab.CampaignConfig(
        instances=instances,
        seed=first_seed,
        stages_min=4,
        stages_max=12,
        width_max=6,
        edge_density=0.5,
        eset_densities=(0.3, 0.5, 0.8),
        oracle_max_nodes=10_000_000,
        workers=1,
        minimize_budget=120,
    )


class CampaignDefault(Workload):
    """``run_differential`` over the first campaign seeds, in seed-ordered chunks."""

    name = "campaign-default"

    def __init__(self, sizes: dict, seed: int):
        total, self.chunk = sizes["campaign"]
        self.inputs = [(start,) for start in range(0, total, self.chunk)]
        random.Random(seed).shuffle(self.inputs)

    def solve(self, start: int, tracer: Tracer | None) -> list[Solved]:
        keys = [f"campaign/{seed}" for seed in range(start, start + self.chunk)]
        solves, searches = [], []
        solve, search = lab.zh_solve, lab.oracle_simple_path

        def capture_solve(g, *args, **kwargs):
            result = solve(g, *args, **kwargs)
            solves.append((g, result))
            return result

        def capture_search(g, *args, **kwargs):
            result = search(g, *args, **kwargs)
            searches.append(result.answer)
            return result

        captures = [(lab, "zh_solve", capture_solve), (lab, "oracle_simple_path", capture_search)]
        try:
            with patched(captures):
                report = lab.run_differential(campaign_config(start, self.chunk))
        except Exception as exc:
            return [_raised(key, exc) for key in keys]
        # without an output directory nothing is minimized, so each seed runs
        # the solver and the oracle exactly once, in seed order
        if len(solves) != self.chunk or len(searches) != self.chunk:
            error = f"{len(solves)} solves, {len(searches)} searches for {self.chunk} seeds"
            return [_failed(key, error) for key in keys]
        out = [
            _solved(key, g, result, {"oracle_simple_path": answer})
            for key, (g, result), answer in zip(keys, solves, searches)
        ]
        agreed = report.totals[lab.AGREE_YES] + report.totals[lab.AGREE_NO]
        if agreed != sum(1 for s in out if s.error is None):
            for s in out:
                s.error = s.error or f"campaign report counts {agreed} agreements"
        return out


WORKLOADS = {w.name: w for w in (HcReduced, ChainLong, CampaignDefault)}
