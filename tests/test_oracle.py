from __future__ import annotations

import sys
from dataclasses import replace

import pytest

from msplab.oracle import (
    NO,
    TIMEOUT,
    YES,
    PathStructureError,
    SearchBudget,
    oracle_hamilton,
    oracle_simple_path,
    verify_hamilton_circuit,
    verify_simple_path,
)
from msplab.reduction import UndirectedGraph
from msplab.zh import InvalidGraphError

from . import reference as ref
from .conftest import CHAIN_VERTICES, mk_graph, random_graph


def test_chain_c_witness(chain_c):
    result = oracle_simple_path(chain_c)
    assert result.answer == YES
    assert result.witness == ("S", "a", "b", "D")


def test_chain_cprime_no(chain_cprime):
    result = oracle_simple_path(chain_cprime)
    assert result.answer == NO
    assert result.witness is None


def test_empty_stage_means_no():
    g = mk_graph(
        3,
        CHAIN_VERTICES,
        [("S", "a", 1), ("b", "D", 3)],  # nothing crosses stage 2
        {"a": [], "b": [], "D": []},
    )
    assert oracle_simple_path(g).answer == NO


def test_verify_simple_path_examples(chain_c, chain_cprime):
    assert verify_simple_path(chain_c, ["S", "a", "b", "D"]) is True
    assert verify_simple_path(chain_cprime, ["S", "a", "b", "D"]) is False
    with pytest.raises(PathStructureError):
        verify_simple_path(chain_c, ["S", "a", "D"])


def test_verify_simple_path_needs_an_edge_set_at_every_vertex(chain_c):
    vertices, edges, esets = chain_c.document_data()
    del esets["b"]
    assert verify_simple_path(mk_graph(3, vertices, edges, esets), ["S", "a", "b", "D"]) is False


def test_oracle_refuses_an_invalid_graph():
    g = mk_graph(1, [("S", 0), ("D", 1)], [("S", "D", 1)], {})  # the sink has no edge set
    with pytest.raises(InvalidGraphError) as err:
        oracle_simple_path(g)
    assert err.value.report.violations == (("MISSING_ESET", "vertex D", "vertex has no edge set"),)
    assert str(err.value).splitlines() == [
        "instance fails validation:",
        "  MISSING_ESET at vertex D: vertex has no edge set",
    ]


def test_verify_rejects_wrong_endpoints(chain_c):
    with pytest.raises(PathStructureError):
        verify_simple_path(chain_c, ["a", "a", "b", "D"])
    with pytest.raises(PathStructureError):
        verify_simple_path(chain_c, ["S", "a", "b", "b"])
    with pytest.raises(PathStructureError):
        verify_simple_path(chain_c, ["S", "b", "a", "D"])


def test_pre_simple_variant_relaxes_late_stages(chain_cprime):
    # the only containment failure of chain C' is at the sink (stage L),
    # and the rule is checked through stage L, so the path is rejected
    assert verify_simple_path(chain_cprime, ["S", "a", "b", "D"]) is False


def test_every_yes_witness_verifies():
    for seed in range(60):
        g = random_graph(seed, stages=3 + seed % 4)
        result = oracle_simple_path(g)
        if result.answer == YES:
            assert verify_simple_path(g, result.witness) is True


def test_no_matches_exhaustive_enumeration():
    for seed in range(60):
        g = random_graph(seed, stages=3 + seed % 3)
        result = oracle_simple_path(g)
        paths = ref.simple_paths_ref(ref.RefGraph(g))
        assert (result.answer == YES) == bool(paths), seed
        if paths:
            assert result.witness == paths[0]  # first in ascending edge order


def test_budget_monotonicity():
    for seed in range(40):
        g = random_graph(seed, stages=4)
        full = oracle_simple_path(g)
        assert full.answer in (YES, NO)
        for cap in (1, 2, 5, full.nodes_expanded):
            capped = oracle_simple_path(g, SearchBudget(max_nodes=cap))
            if capped.answer != TIMEOUT:
                assert capped.answer == full.answer
        bigger = oracle_simple_path(g, SearchBudget(max_nodes=full.nodes_expanded * 2 + 10))
        assert bigger.answer == full.answer
        assert bigger.nodes_expanded == full.nodes_expanded


def test_deterministic_node_counts():
    for seed in range(10):
        g = random_graph(seed)
        a = oracle_simple_path(g)
        b = oracle_simple_path(g)
        assert (a.answer, a.witness, a.nodes_expanded) == (b.answer, b.witness, b.nodes_expanded)


def test_hamilton_triangle_and_path_graph():
    k3 = UndirectedGraph.from_pairs(3, [(1, 2), (1, 3), (2, 3)])
    result = oracle_hamilton(k3)
    assert result.answer == YES
    assert result.witness == (1, 2, 3, 1)
    p3 = UndirectedGraph.from_pairs(3, [(1, 2), (2, 3)])
    assert oracle_hamilton(p3).answer == NO
    k4 = UndirectedGraph.from_pairs(4, [(a, b) for a in range(1, 5) for b in range(a + 1, 5)])
    assert oracle_hamilton(k4).answer == YES


def test_hamilton_witnesses_verify():
    import itertools
    import random

    rnd = random.Random(7)
    for n in (4, 5, 6):
        for _ in range(30):
            pairs = [p for p in itertools.combinations(range(1, n + 1), 2) if rnd.random() < 0.5]
            ug = UndirectedGraph.from_pairs(n, pairs)
            result = oracle_hamilton(ug)
            if result.answer == YES:
                assert verify_hamilton_circuit(ug, result.witness)


@pytest.mark.parametrize(
    "circuit",
    [
        (1, 2, 3, 4, 2),  # does not close
        (1, 2, 3),  # too short
        (1, 2, 4, 2, 1),  # a vertex twice, one missing
        (1, 3, 2, 4, 1),  # 1 - 3 is no edge
    ],
)
def test_verify_hamilton_circuit_rejects(circuit):
    c4 = UndirectedGraph.from_pairs(4, [(1, 2), (2, 3), (3, 4), (1, 4), (2, 4)])
    assert verify_hamilton_circuit(c4, (1, 2, 3, 4, 1))
    assert not verify_hamilton_circuit(c4, circuit)


def test_hamilton_small_orders_are_no():
    assert oracle_hamilton(UndirectedGraph.from_pairs(1, [])).answer == NO
    assert oracle_hamilton(UndirectedGraph.from_pairs(2, [(1, 2)])).answer == NO


def test_hamilton_timeout():
    k8 = UndirectedGraph.from_pairs(
        8, [(a, b) for a in range(1, 9) for b in range(a + 1, 9)]
    )
    assert oracle_hamilton(k8, SearchBudget(max_nodes=3)).answer == TIMEOUT


@pytest.mark.parametrize(
    "budget",
    [
        {"max_nodes": 0},
        {"max_nodes": -3},
        {"max_seconds": -1.0},
        {"max_seconds": float("nan")},
    ],
)
def test_searches_refuse_a_bad_budget(budget):
    """A budget that could not search cannot be built, so no search can
    take one: a node cap below 1 or a negative or NaN time cap raises
    instead of answering TIMEOUT after one node or YES on a search too
    short to read the clock, as the CLI's exit 4 for the same budgets says.
    ``dataclasses.replace`` checks the same rules."""
    with pytest.raises(ValueError, match="must be at least"):
        SearchBudget(**budget)
    with pytest.raises(ValueError, match="must be at least"):
        replace(SearchBudget(), **budget)


def test_long_searches_leave_the_recursion_limit_alone():
    """Both searches keep their stack on the heap: a 2,000-deep search needs
    no process-wide recursion limit change."""
    stages = 2000
    names = ["S"] + [f"v{k}" for k in range(1, stages)] + ["D"]
    chain = mk_graph(
        stages,
        [(name, k) for k, name in enumerate(names)],
        [(names[k - 1], names[k], k) for k in range(1, stages + 1)],
        {},
    ).replace_esets({name: (1 << k) - 1 for k, name in enumerate(names) if k})
    cycle = UndirectedGraph.from_pairs(stages, [(k, k % stages + 1) for k in range(1, stages + 1)])
    limit = sys.getrecursionlimit()
    path = oracle_simple_path(chain)
    assert (path.answer, path.witness, path.nodes_expanded) == (YES, tuple(names), stages + 1)
    circuit = oracle_hamilton(cycle)
    assert circuit.answer == YES
    assert circuit.witness == (*range(1, stages + 1), 1)
    assert circuit.nodes_expanded == stages
    assert sys.getrecursionlimit() == limit
