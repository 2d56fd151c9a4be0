from __future__ import annotations

import itertools
import time
from pathlib import Path

import pytest

from msplab.formats import parse_ugraph
from msplab.lab import gen_ugraph
from msplab.model import validate
from msplab.oracle import (
    YES,
    oracle_hamilton,
    oracle_simple_path,
    verify_hamilton_circuit,
    verify_simple_path,
)
from msplab.reduction import (
    MAX_REDUCTION_BITS,
    LiftError,
    ReductionError,
    UndirectedGraph,
    lift_path,
    _staged_edge_count,
    reduce_hc_to_msp,
)

K3 = UndirectedGraph.from_pairs(3, [(1, 2), (1, 3), (2, 3)])
P3 = UndirectedGraph.from_pairs(3, [(1, 2), (2, 3)])


def all_graphs(n):
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    for bits in range(1 << len(pairs)):
        yield UndirectedGraph.from_pairs(n, [p for i, p in enumerate(pairs) if bits >> i & 1])


def test_triangle_reduction_structure():
    g, rmap = reduce_hc_to_msp(K3, pivot=1)
    assert validate(g).ok
    assert g.vertex_count() == 6  # 4 internal + source + sink
    assert g.edge_count == 6
    assert rmap.stats["internal_vertices"] == 4
    result = oracle_simple_path(g)
    assert result.answer == YES
    assert result.witness == ("1@0", "2@1", "3@2", "1@3")


def test_triangle_edge_sets_strip_earlier_copies():
    g, _ = reduce_hc_to_msp(K3, pivot=1)
    full = g.full_mask
    assert g.eset("2@1") == full
    assert g.eset("1@3") == full
    stripped = g.eset("2@2")
    assert stripped == full & ~(g.in_edges("2@1") | g.out_edges("2@1"))
    assert stripped != full


def test_path_graph_reduction_has_no_simple_path():
    g, _ = reduce_hc_to_msp(P3, pivot=1)
    with pytest.raises(KeyError):
        g.edge_id("3@2", "1@3", 3)  # vertex 3 is not adjacent to the pivot
    assert oracle_simple_path(g).answer == "NO"


def test_internal_vertex_count_formula():
    import random

    rnd = random.Random(5)
    for n in range(3, 31):
        pairs = [p for p in itertools.combinations(range(1, n + 1), 2) if rnd.random() < 0.4]
        ug = UndirectedGraph.from_pairs(n, pairs)
        g, rmap = reduce_hc_to_msp(ug)
        assert g.vertex_count() == (n - 1) * (n - 1) + 2
        assert g.edge_count <= 2 * n**3
        assert rmap.stats["edges"] == g.edge_count


def complete_graph(n):
    return UndirectedGraph.from_pairs(n, itertools.combinations(range(1, n + 1), 2))


def test_staged_edge_count_matches_the_built_reductions():
    """The size check's edge count is the built graph's, on the golden
    corpus's reductions and on J5's (978 edges)."""
    nx = pytest.importorskip("networkx")
    cases = [(gen_ugraph(n, 0.5, s), p) for n in range(4, 8) for s in range(4) for p in (1, n)]
    for n in (5, 6):
        gp = nx.generalized_petersen_graph(n, 2)
        cases.append((UndirectedGraph.from_pairs(2 * n, ((u + 1, v + 1) for u, v in gp.edges)), 1))
    j5 = parse_ugraph((Path(__file__).parent / "fixtures" / "j5.graph").read_text())
    cases.append((j5, 1))
    for ug, pivot in cases:
        assert _staged_edge_count(ug, pivot) == reduce_hc_to_msp(ug, pivot)[0].edge_count
    assert _staged_edge_count(j5, 1) == 978


def test_oversize_reductions_refused_before_building():
    """K_20 (2.2M edge-set bits) reduces; K_50 (2.7 * 10^8) and K_1000
    (about 10^15, which would exhaust memory) are refused at once."""
    assert 19**2 * reduce_hc_to_msp(complete_graph(20))[0].edge_count <= MAX_REDUCTION_BITS
    with pytest.raises(ReductionError, match="271,298,594 edge-set bits"):
        reduce_hc_to_msp(complete_graph(50))
    k1000 = complete_graph(1000)
    started = time.perf_counter()
    with pytest.raises(ReductionError, match="edge-set bits"):
        reduce_hc_to_msp(k1000)
    assert time.perf_counter() - started < 1.0


def test_small_orders_rejected():
    with pytest.raises(ReductionError):
        reduce_hc_to_msp(UndirectedGraph.from_pairs(2, [(1, 2)]))
    with pytest.raises(ReductionError):
        reduce_hc_to_msp(UndirectedGraph.from_pairs(1, []))


@pytest.mark.parametrize("pivot", [0, -1, 4])
def test_pivot_outside_the_vertices_rejected(pivot):
    with pytest.raises(ReductionError, match=f"pivot {pivot} not a vertex"):
        reduce_hc_to_msp(K3, pivot)


def test_equivalence_exhaustive_n4():
    for ug in all_graphs(4):
        reduced, _ = reduce_hc_to_msp(ug)
        assert oracle_hamilton(ug).answer == oracle_simple_path(reduced).answer


def test_pivot_invariance_on_connected_samples():
    import random

    rnd = random.Random(11)
    for n in (4, 5):
        for _ in range(20):
            pairs = [p for p in itertools.combinations(range(1, n + 1), 2) if rnd.random() < 0.6]
            ug = UndirectedGraph.from_pairs(n, pairs)
            answers = {
                oracle_simple_path(reduce_hc_to_msp(ug, pivot=p)[0]).answer
                for p in ug.vertices()
            }
            assert len(answers) == 1


def test_lift_triangle_witness():
    _, rmap = reduce_hc_to_msp(K3, pivot=1)
    assert lift_path(rmap, ["1@0", "2@1", "3@2", "1@3"]) == (1, 2, 3, 1)


def test_lift_round_trip_k4_and_random():
    import random

    rnd = random.Random(3)
    for n in (4, 5, 6):
        for _ in range(15):
            pairs = [p for p in itertools.combinations(range(1, n + 1), 2) if rnd.random() < 0.6]
            ug = UndirectedGraph.from_pairs(n, pairs)
            reduced, rmap = reduce_hc_to_msp(ug)
            result = oracle_simple_path(reduced)
            if result.answer == YES:
                circuit = lift_path(rmap, result.witness)
                assert verify_hamilton_circuit(ug, circuit)


def test_lift_rejects_bad_paths():
    _, rmap = reduce_hc_to_msp(K3, pivot=1)
    with pytest.raises(LiftError):
        lift_path(rmap, ["1@0", "2@1", "1@3"])  # skips a stage
    with pytest.raises(LiftError):
        lift_path(rmap, ["1@0", "2@1", "2@2", "1@3"])  # no such stage-2 edge


def test_lift_rejects_non_simple_path():
    # a staged path that revisits copies of vertex 2 walks fine but fails
    # the containment rule, so lifting must refuse it
    ug = UndirectedGraph.from_pairs(4, [(1, 2), (2, 3), (3, 4), (1, 4), (2, 4)])
    reduced, rmap = reduce_hc_to_msp(ug, pivot=1)
    path = ["1@0", "2@1", "4@2", "2@3", "1@4"]
    assert verify_simple_path(reduced, path) is False
    with pytest.raises(LiftError):
        lift_path(rmap, path)


def test_undirected_graph_invariants():
    with pytest.raises(ValueError):
        UndirectedGraph.from_pairs(3, [(1, 1)])
    with pytest.raises(ValueError):
        UndirectedGraph.from_pairs(3, [(1, 4)])
    ug = UndirectedGraph.from_pairs(3, [(2, 1), (1, 2)])
    assert len(ug.edges) == 1
    assert ug.adjacency()[1] == (2,)
