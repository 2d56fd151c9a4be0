from __future__ import annotations

import itertools
import json
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msplab import lab
from msplab.formats import MAX_COUNT, parse_instance, parse_ugraph, serialize_instance
from msplab.lab import (
    AGREE_NO,
    AGREE_YES,
    BUG_NECESSITY,
    CANDIDATE_COUNTEREXAMPLE,
    UNKNOWN,
    CampaignConfig,
    GenShape,
    classify,
    gen_msp,
    gen_ugraph,
    minimize,
    run_differential,
    run_instance,
    shape_for_seed,
    vec_metric,
)
from msplab.model import MultistageGraph, edge_ids, validate
from msplab.oracle import SearchBudget, oracle_hamilton, oracle_simple_path
from msplab.reduction import UndirectedGraph, reduce_hc_to_msp
from msplab.zh import InvalidGraphError, zh_solve

from . import reference as ref
from .conftest import CHAIN_EDGES, CHAIN_VERTICES, mk_graph

FIXTURES = Path(__file__).parent / "fixtures"


def small_shape(seed, eset_density=0.5):
    return GenShape(
        stages=4, widths=(1, 3, 2, 3, 1), edge_density=0.7, eset_density=eset_density, seed=seed
    )


# -- generator ---------------------------------------------------------------


def test_same_seed_same_bytes():
    a = gen_msp(small_shape(7))
    b = gen_msp(small_shape(7))
    assert serialize_instance(a) == serialize_instance(b)
    c = gen_msp(small_shape(8))
    assert serialize_instance(a) != serialize_instance(c)


def test_generated_instances_validate_and_are_pruned():
    for seed in range(25):
        g = gen_msp(small_shape(seed))
        assert validate(g).ok
        # every vertex and edge survives only on a source-to-sink route
        from msplab.operators import tidy

        assert tidy(g.full_mask, "S", "D", g) == g.full_mask
        for name in g.vertex_names():
            if name in ("S", "D"):
                continue
            assert g.in_edges(name) and g.out_edges(name)
        # pruning keeps in-degrees >= 1, so the complexity vector is non-negative
        assert all(x >= 0 for x in vec_metric(g))


def test_density_zero_means_no_everywhere():
    g = gen_msp(small_shape(3, eset_density=0.0))
    assert all(not g.eset(n) for n in g.vertex_names() if n != "S")
    assert zh_solve(g).answer == "NO"
    assert oracle_simple_path(g).answer == "NO"


@pytest.mark.parametrize("density", [-0.1, 1.5, float("nan")])
def test_densities_outside_the_unit_interval_rejected(density):
    makers = (lambda: replace(small_shape(0), edge_density=density), lambda: small_shape(0, density))
    for make in makers:
        with pytest.raises(ValueError, match="outside \\[0, 1\\]"):
            make()
    with pytest.raises(ValueError, match="outside \\[0, 1\\]"):
        gen_ugraph(5, density, 0)


def test_vec_metric_refuses_an_invalid_graph():
    g = mk_graph(1, [("S", 0), ("D", 1)], [("S", "D", 1)], {})  # the sink has no edge set
    with pytest.raises(InvalidGraphError, match="MISSING_ESET at vertex D"):
        vec_metric(g)


def test_density_one_makes_any_route_simple():
    for seed in range(10):
        g = gen_msp(small_shape(seed, eset_density=1.0))
        expects = "YES" if g.edge_count else "NO"
        assert oracle_simple_path(g).answer == expects
        assert zh_solve(g).answer == expects


MASK64 = (1 << 64) - 1


def fresh_stream(seed: int, stream: int) -> np.random.Generator:
    """A newly built Philox generator keyed [seed mod 2**64, stream]: what
    ``lab._stream`` must draw like, built without it."""
    key = np.array([seed & MASK64, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def set_based_gen_msp(shape: GenShape) -> MultistageGraph:
    """The generator written over name sets and candidate triples, kept as
    the oracle that the mask-based ``gen_msp`` must match byte for byte."""
    stages = shape.stages
    names: list[list[str]] = []
    for stage, width in enumerate(shape.widths):
        if stage == 0:
            names.append(["S"])
        elif stage == stages:
            names.append(["D"])
        else:
            names.append([f"v{stage}_{i}" for i in range(width)])

    candidates: list[tuple[str, str, int]] = []
    for stage in range(1, stages + 1):
        for src in names[stage - 1]:
            for dst in names[stage]:
                candidates.append((src, dst, stage))
    coins = fresh_stream(shape.seed, lab._STREAM_EDGES).random(len(candidates))
    sampled = [t for t, c in zip(candidates, coins) if c < shape.edge_density]

    fwd = {"S"}
    per_stage_out: dict[int, list[tuple[str, str]]] = {k: [] for k in range(1, stages + 1)}
    for src, dst, stage in sampled:
        per_stage_out[stage].append((src, dst))
    for stage in range(1, stages + 1):
        fwd.update(dst for src, dst in per_stage_out[stage] if src in fwd)
    bwd = {"D"}
    for stage in range(stages, 0, -1):
        bwd.update(src for src, dst in per_stage_out[stage] if dst in bwd)
    kept_edges = [t for t in sampled if t[0] in fwd and t[1] in bwd]
    kept_names = {n for t in kept_edges for n in (t[0], t[1])} | {"S", "D"}
    vertices = [
        (n, stage) for stage, row in enumerate(names) for n in row if n in kept_names
    ]

    skeleton = MultistageGraph(stages, vertices, kept_edges, {})
    nonsource = [
        name
        for stage in range(1, stages + 1)
        for name in skeleton.stage_vertex_names(stage)
    ]
    m = skeleton.edge_count
    coins = fresh_stream(shape.seed, lab._STREAM_ESETS).random((len(nonsource), m))
    esets = {}
    for i, name in enumerate(nonsource):
        packed = np.packbits((coins[i] < shape.eset_density).astype(np.uint8), bitorder="little")
        esets[name] = int.from_bytes(packed.tobytes(), "little")
    return skeleton.replace_esets(esets)


densities = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
seeds = st.one_of(
    st.integers(-(2**80), -1), st.integers(0, 2**64 - 1), st.integers(2**64, 2**80)
)


@st.composite
def gen_shapes(draw):
    stages = draw(st.integers(1, 6))
    inner = draw(st.lists(st.integers(1, 14), min_size=stages - 1, max_size=stages - 1))
    return GenShape(stages, (1, *inner, 1), draw(densities), draw(densities), draw(seeds))


@settings(max_examples=200)
@given(gen_shapes())
def test_gen_msp_matches_the_set_based_generator(shape):
    g = gen_msp(shape)
    want = set_based_gen_msp(shape)
    assert g == want
    assert serialize_instance(g) == serialize_instance(want)


def assert_same_tables(g: MultistageGraph, want: MultistageGraph) -> None:
    """Every slot equal, dicts in the same key order too: ``==`` compares
    only names, stages, triples and edge sets."""
    for slot in MultistageGraph.__slots__:
        got, expected = getattr(g, slot), getattr(want, slot)
        assert type(got) is type(expected) and got == expected, slot
        if isinstance(got, dict):
            assert list(got.items()) == list(expected.items()), slot


@settings(max_examples=200)
@given(gen_shapes())
def test_gen_msp_fills_every_table_as_the_constructor_does(shape):
    """``gen_msp`` builds its graph from id-ordered tables, not through the
    constructor; every table matches the constructor's on the same data,
    also where names such as ``v1_10`` sort before ``v1_2``."""
    g = gen_msp(shape)
    assert_same_tables(g, MultistageGraph(g.stage_count, *g.document_data()))


def test_default_seeds_fill_every_table_as_the_constructor_does():
    for seed in range(300):
        g = gen_msp(shape_for_seed(CampaignConfig(), seed))
        assert_same_tables(g, MultistageGraph(g.stage_count, *g.document_data()))


@given(seeds)
def test_shape_widths_are_plain_ints(seed):
    shape = shape_for_seed(CampaignConfig(), seed)
    assert all(type(w) is int for w in shape.widths)
    assert type(shape.stages) is int


def test_stream_draws_like_a_fresh_philox():
    """``_stream`` re-keys one generator per thread; every stream still draws
    what a newly built Philox with the same key draws, also right after an
    earlier stream was left with a buffered 32-bit half or mid-buffer."""

    def leave_scalar_integer():
        lab._stream(11, 3).integers(0, 10)  # keeps the other 32-bit half

    def leave_odd_random():
        lab._stream(12, 2).random(3)  # stops mid-way through a 4-word block

    for leave in (lambda: None, leave_scalar_integer, leave_odd_random):
        for seed in (0, 1, 2**63, 2**64 + 5, -1):
            for stream in range(1, 5):
                leave()
                rng, want = lab._stream(seed, stream), fresh_stream(seed, stream)
                assert int(rng.integers(0, 7)) == int(want.integers(0, 7))
                assert np.array_equal(rng.integers(1, 1000, size=5), want.integers(1, 1000, size=5))
                assert np.array_equal(rng.random(4), want.random(4))
                leave()
                got = lab._stream(seed, stream).random(9)
                assert np.array_equal(got, fresh_stream(seed, stream).random(9))


def test_threads_generate_what_a_serial_run_does():
    """Each thread keeps its own generator: two threads running ``gen_msp``
    at once, switching as often as the interpreter allows, give the serial
    run's instances."""
    config = CampaignConfig()
    seed_ranges = (range(200), range(200, 400))
    serial = [[gen_msp(shape_for_seed(config, s)) for s in seeds] for seeds in seed_ranges]
    results: list[list[MultistageGraph]] = [[], []]
    start = threading.Barrier(2, timeout=60)

    def run(i):
        start.wait()
        results[i] = [gen_msp(shape_for_seed(config, s)) for s in seed_ranges[i]]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == serial


def test_campaign_builds_at_most_one_philox(monkeypatch):
    """A serial campaign re-keys one generator rather than building a Philox
    per stream (2-3 streams per seed)."""
    built = []
    philox = np.random.Philox

    def counting(*args, **kwargs):
        built.append(1)
        return philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting)
    report = run_differential(CampaignConfig(instances=300))
    assert report.totals[BUG_NECESSITY] == 0
    assert len(built) <= 1


def test_campaign_builds_each_instance_once(monkeypatch):
    """A serial campaign builds each generated instance once, from its
    id-ordered tables: the constructor runs only for bare graphs, at most
    once per stage count (the cache may hold them already), and no edge
    sets are swapped in afterwards."""
    built, swapped = [], []
    init, replace_esets = MultistageGraph.__init__, MultistageGraph.replace_esets

    def counting_init(self, stage_count, vertices, edges, esets):
        edges = list(edges)
        built.append((stage_count, len(edges)))
        init(self, stage_count, vertices, edges, esets)

    def counting_replace(self, esets):
        swapped.append(1)
        return replace_esets(self, esets)

    monkeypatch.setattr(MultistageGraph, "__init__", counting_init)
    monkeypatch.setattr(MultistageGraph, "replace_esets", counting_replace)
    report = run_differential(CampaignConfig(instances=300))
    assert report.totals[BUG_NECESSITY] == 0
    assert all(m == 0 for _, m in built)
    assert len({stages for stages, _ in built}) == len(built)
    assert not swapped


def test_no_path_draws_share_one_bare_graph():
    """Every seed whose draw leaves no path gets the one bare graph of its
    stage count."""
    graphs = [gen_msp(shape_for_seed(CampaignConfig(), s)) for s in range(60)]
    bare = [g for g in graphs if not g.edge_count]
    assert len(bare) > 1
    for g in bare:
        stages = g.stage_count
        assert g is gen_msp(GenShape(stages, (1,) * (stages + 1), 0.0, 0.5, seed=1))
        assert g == MultistageGraph(stages, [("S", 0), ("D", stages)], [], {"D": ()})


def test_unsatisfiable_shape_rejected():
    with pytest.raises(ValueError, match="zero-width"):
        GenShape(3, (1, 0, 2, 1), 0.5, 0.5, seed=1)
    with pytest.raises(ValueError):
        GenShape(3, (1, 2, 1), 0.5, 0.5, seed=1)
    with pytest.raises(ValueError):
        GenShape(3, (2, 1, 1, 1), 0.5, 0.5, seed=1)


def test_shape_check_reports_a_zero_width_before_an_oversize_one():
    """A ``GenShape`` tests the widths' minimum before their maximum."""
    with pytest.raises(ValueError, match="zero-width"):
        GenShape(3, (1, 0, MAX_COUNT + 1, 1), 0.5, 0.5, seed=1)
    with pytest.raises(ValueError, match=f"at most {MAX_COUNT}"):
        GenShape(3, (1, 2, MAX_COUNT + 1, 1), 0.5, 0.5, seed=1)


def test_generators_stop_at_the_parsers_limit():
    """A count above ``formats.MAX_COUNT`` would make a file the parsers
    reject with E_TOO_LARGE, so the generators and campaigns refuse it."""
    GenShape(MAX_COUNT, (1,) * (MAX_COUNT + 1), 0.5, 0.5, seed=1)
    GenShape(2, (1, MAX_COUNT, 1), 0.5, 0.5, seed=1)
    CampaignConfig(stages_max=MAX_COUNT, width_max=1)
    CampaignConfig(stages_min=1, stages_max=2, width_max=MAX_COUNT)
    too_many = [
        lambda: GenShape(MAX_COUNT + 1, (1,) * (MAX_COUNT + 2), 0.5, 0.5, seed=1),
        lambda: GenShape(2, (1, MAX_COUNT + 1, 1), 0.5, 0.5, seed=1),
        lambda: gen_msp(GenShape(2, (1, 10**8, 1), 0.5, 0.5, seed=1)),
        lambda: gen_ugraph(MAX_COUNT + 1, 0.5, 0),
        lambda: CampaignConfig(stages_max=MAX_COUNT + 1),
        lambda: CampaignConfig(width_max=10**9),
    ]
    for make in too_many:
        with pytest.raises(ValueError, match=str(MAX_COUNT)):
            make()


def test_generator_draw_is_capped():
    """A shape whose edge-set draw could exceed ``lab.MAX_DRAW_CELLS``
    (non-source vertices x candidate edges) is refused before anything is
    drawn, and so is a campaign whose largest shape could."""
    assert 1001 * 2000 <= lab.MAX_DRAW_CELLS  # (1, MAX_COUNT, 1) passes above
    for make in [
        lambda: gen_msp(GenShape(3, (1, MAX_COUNT, MAX_COUNT, 1), 0.5, 0.5, seed=1)),
        lambda: CampaignConfig(stages_max=MAX_COUNT, width_max=MAX_COUNT),
        # widths (1, 6 x 140, 1): 841 vertices x 5,016 edges
        lambda: CampaignConfig(stages_max=141, width_max=6),
    ]:
        with pytest.raises(ValueError, match="cells exceeds"):
            make()
    CampaignConfig(stages_max=140, width_max=6)  # 835 x 4,980 cells


@pytest.mark.parametrize(
    "value, bad, message",
    [
        (small_shape(0), {"widths": (1, 3, 1)}, "widths must have length 5"),
        (small_shape(0), {"stages": 0}, "need 1 to"),
        (CampaignConfig(), {"instances": -1}, "instances must be at least 0"),
        (CampaignConfig(), {"stages_min": 13}, "stages_min <= stages_max"),
        (CampaignConfig(), {"workers": 0}, "workers must be at least 1"),
    ],
)
def test_values_recheck_their_fields_under_replace(value, bad, message):
    """``dataclasses.replace`` builds a new value, so it meets the same
    checks as the constructor, and a value that exists is valid (densities
    and budgets are checked the same way in their own tests)."""
    with pytest.raises(ValueError, match=message):
        replace(value, **bad)


def test_gen_ugraph_extremes_and_determinism():
    assert gen_ugraph(5, 1.0, 1).edges == UndirectedGraph.from_pairs(
        5, itertools.combinations(range(1, 6), 2)
    ).edges
    empty = gen_ugraph(5, 0.0, 1)
    assert not empty.edges
    from msplab.oracle import oracle_hamilton

    assert oracle_hamilton(empty).answer == "NO"
    assert gen_ugraph(7, 0.4, 9).edges == gen_ugraph(7, 0.4, 9).edges
    assert gen_ugraph(7, 0.4, 9).edges != gen_ugraph(7, 0.4, 10).edges


# -- classification ----------------------------------------------------------


@pytest.mark.parametrize(
    "zh,orc,kind",
    [
        ("YES", "YES", AGREE_YES),
        ("NO", "NO", AGREE_NO),
        ("NO", "YES", BUG_NECESSITY),
        ("YES", "NO", CANDIDATE_COUNTEREXAMPLE),
        ("YES", "TIMEOUT", UNKNOWN),
        ("NO", "TIMEOUT", UNKNOWN),
    ],
)
def test_classify_table(zh, orc, kind):
    assert classify(zh, orc) == kind


def test_j5_reduction_holds_the_pinned_finding():
    """Flower snark J5 as numbered in ``j5_a0_sink81.msp``'s header: cubic,
    non-Hamiltonian, and its pivot-1 reduction contains every vertex and
    edge of the pinned finding."""
    ug = parse_ugraph((FIXTURES / "j5.graph").read_text())
    assert ug.n == 20 and len(ug.edges) == 30
    assert all(len(nbrs) == 3 for nbrs in ug.adjacency().values())
    assert oracle_hamilton(ug).answer == "NO"
    big, _ = reduce_hc_to_msp(ug, pivot=1)
    assert (big.vertex_count(), big.edge_count) == (363, 978)
    finding = parse_instance((FIXTURES / "j5_a0_sink81.msp").read_text())
    assert set(finding.vertex_names()) <= set(big.vertex_names())
    triples = {big.edge_triple(i) for i in range(big.edge_count)}
    assert {finding.edge_triple(i) for i in range(finding.edge_count)} <= triples


def test_j5_finding_is_a_candidate_counterexample():
    """The pinned J5 finding (its recipe is in the fixture's header): the
    solver says YES on an instance with no simple path."""
    g = parse_instance((FIXTURES / "j5_a0_sink81.msp").read_text())
    assert (g.vertex_count(), g.edge_count) == (67, 81)
    zh_answer = zh_solve(g).answer
    oracle_answer = oracle_simple_path(g).answer
    assert (zh_answer, oracle_answer) == ("YES", "NO")
    assert classify(zh_answer, oracle_answer) == CANDIDATE_COUNTEREXAMPLE


def test_j5_finding_holds_under_the_literal_operators():
    """``tests/reference.py``'s literal transcription, with no mask, cache
    or lane table, also says YES on the pinned J5 finding, with the same
    81-edge final set as ``zh_solve`` (about 10 s)."""
    g = parse_instance((FIXTURES / "j5_a0_sink81.msp").read_text())
    result = zh_solve(g)
    answer, final = ref.zh_ref(ref.RefGraph(g))
    assert answer == result.answer == "YES"
    assert final == {g.edge_triple(e) for e in edge_ids(result.final_comp_ed)}
    assert len(final) == 81


def test_j5_pivot_a0_fails_self_reduction():
    """The full J5 reduction with pivot a0 (vertex 1): the solver says YES
    with a final set of 144 edges while the oracle says NO, and cutting the
    sink's edge set down to any one of its three stage-1 edges gives NO each
    time, though a correct YES is the OR of those restrictions."""
    ug = parse_ugraph((FIXTURES / "j5.graph").read_text())
    g, _ = reduce_hc_to_msp(ug, pivot=1)
    result = zh_solve(g)
    assert result.answer == "YES"
    assert result.final_comp_ed.bit_count() == 144
    assert oracle_simple_path(g).answer == "NO"
    stage1, sink = g.span_mask(1, 1), g.sink_name()
    assert stage1.bit_count() == 3
    esets = {name: g.eset(name) for name in g.vertex_names() if g.has_eset(name)}
    for e in edge_ids(stage1):
        cut = g.replace_esets({**esets, sink: g.eset(sink) & ~(stage1 ^ 1 << e)})
        assert zh_solve(cut).answer == "NO"


# -- complexity vector ---------------------------------------------------------


def test_vec_chain_is_zero(chain_c):
    assert vec_metric(chain_c) == (0, 0, 0)


def test_vec_counts_extra_indegree():
    second = [("S", "c", 1), ("c", "b", 2)]
    g = mk_graph(
        3,
        CHAIN_VERTICES + [("c", 1)],
        CHAIN_EDGES + second,
        {"a": [], "c": [], "b": [], "D": []},
    )
    assert vec_metric(g) == (0, 1, 0)


def test_vec_of_reduced_triangle_stable():
    a = vec_metric(reduce_hc_to_msp(UndirectedGraph.from_pairs(3, [(1, 2), (1, 3), (2, 3)]))[0])
    b = vec_metric(reduce_hc_to_msp(UndirectedGraph.from_pairs(3, [(1, 2), (1, 3), (2, 3)]))[0])
    assert a == b == (0, 0, 0)


# -- minimizer -----------------------------------------------------------------


def _fan_graph(lanes=5):
    """``lanes`` parallel lanes into two collectors: 2 * ``lanes`` stage-2 edges."""
    vertices = [("S", 0)] + [(f"u{i}", 1) for i in range(lanes)]
    vertices += [("w0", 2), ("w1", 2), ("D", 3)]
    edges = [("S", f"u{i}", 1) for i in range(lanes)]
    edges += [(f"u{i}", w, 2) for i in range(lanes) for w in ("w0", "w1")]
    edges += [("w0", "D", 3), ("w1", "D", 3)]
    esets = {name: [] for name, stage in vertices if stage > 0}
    return mk_graph(3, vertices, edges, esets)


def _two_stage2_edges(g):
    return g.span_mask(2, 2).bit_count() >= 2


def test_minimizer_on_synthetic_predicate():
    for lanes, budget in ((5, 4000), (30, 200)):
        small = minimize(_fan_graph(lanes), _two_stage2_edges, budget=budget)
        assert _two_stage2_edges(small)
        assert validate(small).ok
        assert small.span_mask(2, 2).bit_count() == 2
        # locally minimal: every single move now breaks the predicate or validity
        for move in lab._candidates(small):
            assert not _two_stage2_edges(move())


def test_minimizer_fixpoint_returns_input():
    g = _fan_graph()
    small = minimize(g, _two_stage2_edges, budget=4000)
    again = minimize(small, _two_stage2_edges, budget=4000)
    assert again == small


def test_minimizer_never_increases_vec():
    g = _fan_graph()
    small = minimize(g, _two_stage2_edges, budget=4000)
    assert vec_metric(small) <= vec_metric(g)


def test_minimizer_rejects_false_predicate(chain_c):
    with pytest.raises(ValueError):
        minimize(chain_c, lambda g: False, budget=10)


def test_minimizer_respects_budget():
    g = _fan_graph()
    evals = []

    def counting(h):
        evals.append(1)
        return _two_stage2_edges(h)

    minimize(g, counting, budget=5)
    assert len(evals) == 5


def test_merge_move_unifies_equal_eset_siblings():
    vertices = [("S", 0), ("x", 1), ("y", 1), ("D", 2)]
    edges = [("S", "x", 1), ("S", "y", 1), ("x", "D", 2), ("y", "D", 2)]
    esets = {"x": [], "y": [], "D": edges}
    g = mk_graph(2, vertices, edges, esets)
    moves = list(lab._candidates(g))
    assert len(moves) == 4 + 2 + 4 + 1  # edges, inner vertices, D's members, a merge
    merged = moves[-1]()  # merges come last
    assert validate(merged).ok
    assert merged.vertex_count() == 3
    assert merged.edge_count == 2  # redirected duplicates collapse


def test_no_move_raises_vec():
    """x and y have equal (empty) edge sets but no common in-neighbour, so
    merging them would raise stage 2's component from 0 to 1; no such merge
    is a move."""
    vertices = [("S", 0), ("a", 1), ("b", 1), ("x", 2), ("y", 2), ("D", 3)]
    edges = [("S", "a", 1), ("S", "b", 1), ("a", "x", 2), ("b", "y", 2)]
    edges += [("x", "D", 3), ("y", "D", 3)]
    esets = {"a": [("S", "a", 1)], "b": [("S", "b", 1)], "x": [], "y": [], "D": []}
    g = mk_graph(3, vertices, edges, esets)
    assert vec_metric(g) == (0, 0, 0)
    moves = list(lab._candidates(g))
    assert len(moves) == 6 + 4 + 2  # edges, inner vertices, members: no merge
    for move in moves:
        candidate = move()
        if validate(candidate).ok:
            assert vec_metric(candidate) <= vec_metric(g)


# -- campaigns ------------------------------------------------------------------


def tiny_config(**kw):
    base = dict(
        instances=60,
        seed=0,
        stages_min=3,
        stages_max=5,
        width_max=3,
        edge_density=0.7,
        eset_densities=(0.5, 0.8),
        oracle_max_nodes=100_000,
        workers=1,
    )
    base.update(kw)
    return CampaignConfig(**base)


def test_shapes_are_deterministic_per_seed():
    cfg = tiny_config()
    assert shape_for_seed(cfg, 5) == shape_for_seed(cfg, 5)
    assert shape_for_seed(cfg, 5) != shape_for_seed(cfg, 6)
    for seed in range(20):
        shape = shape_for_seed(cfg, seed)
        assert cfg.stages_min <= shape.stages <= cfg.stages_max
        assert all(w <= cfg.width_max for w in shape.widths)
        assert shape.eset_density in cfg.eset_densities


def test_config_text_round_trip():
    for cfg in (tiny_config(workers=2), tiny_config(edge_density=1e-05)):
        assert CampaignConfig.from_text(cfg.to_text()) == cfg
    assert "edge_density = 1e-05\n" in tiny_config(edge_density=1e-05).to_text()
    with pytest.raises(ValueError):
        CampaignConfig.from_text("nonsense = 1\n")
    with pytest.raises(ValueError, match="line 2: expected 'key = value'"):
        CampaignConfig.from_text("instances = 5\ninstances 5\n")
    parsed = CampaignConfig.from_text("# comment\ninstances = 5\neset_densities = 0.25,0.75\n")
    assert parsed.instances == 5
    assert parsed.eset_densities == (0.25, 0.75)


def test_campaign_totals_conserve():
    report = run_differential(tiny_config())
    assert sum(report.totals.values()) == report.instances == 60
    assert report.totals[BUG_NECESSITY] == 0
    assert report.seed_first == 0 and report.seed_last == 59


@pytest.mark.parametrize(
    "bad, match",
    [
        ({"instances": -5}, "instances"),
        ({"stages_min": 0}, "stages_min"),
        ({"workers": 0}, "workers"),
        ({"eset_densities": ()}, "eset_densities"),
    ],
)
def test_campaign_refuses_a_bad_config_before_writing(tmp_path, bad, match):
    """``run_differential`` checks its config before it creates the output
    directory: no report for -5 instances, no silent run with no stage or
    no worker, and no numpy error from an empty density list."""
    out = tmp_path / "out"
    with pytest.raises(ValueError, match=match):
        run_differential(tiny_config(**bad), out_dir=out)
    assert not out.exists()


def test_campaign_rerun_identical():
    a = run_differential(tiny_config())
    b = run_differential(tiny_config())
    assert a.comparable() == b.comparable()


def test_campaign_parallel_matches_serial():
    serial = run_differential(tiny_config(instances=40))
    parallel = run_differential(tiny_config(instances=40, workers=2))
    assert serial.comparable() == parallel.comparable()


def test_campaign_archives_unknowns_and_rerun_matches(tmp_path):
    # a one-node oracle budget forces TIMEOUT (UNKNOWN) onto every instance
    # whose search survives the root expansion
    cfg = tiny_config(instances=12, oracle_max_nodes=1)
    report = run_differential(cfg, out_dir=tmp_path)
    assert report.totals[UNKNOWN] > 0
    non_agree = report.instances - report.totals[AGREE_YES] - report.totals[AGREE_NO]
    assert len(report.findings) == non_agree
    for finding_id in report.findings:
        folder = tmp_path / "archive" / finding_id
        g = parse_instance((folder / "instance.msp").read_text())
        meta = json.loads((folder / "meta.json").read_text())
        zh_detail = json.loads((folder / "zh.json").read_text())
        again_zh = zh_solve(g)
        again_orc = oracle_simple_path(
            g, SearchBudget(max_nodes=meta["config"]["oracle_max_nodes"])
        )
        assert again_zh.answer == zh_detail["answer"]
        assert classify(again_zh.answer, again_orc.answer) == meta["kind"]
    assert (tmp_path / "report.txt").exists()
    summary = [
        json.loads(line)
        for line in (tmp_path / "report.jsonl").read_text().splitlines()
    ]
    assert summary[-1]["record"] == "summary"
    assert summary[-1]["totals"][UNKNOWN] == report.totals[UNKNOWN]


def test_campaign_counts_unwritable_findings_as_io_errors(tmp_path):
    (tmp_path / "archive").write_text("not a directory\n")
    report = run_differential(tiny_config(instances=12, oracle_max_nodes=1), out_dir=tmp_path)
    assert report.findings
    assert report.io_errors == len(report.findings)
    assert f"io errors      {report.io_errors}" in report.to_table()


def test_campaign_resume_from_checkpoint(tmp_path):
    cfg = tiny_config(instances=30)
    full = run_differential(cfg, out_dir=tmp_path / "full")

    # reconstruct the checkpoint a crash after 20 instances would leave behind
    partial_dir = tmp_path / "partial"
    partial_dir.mkdir()
    totals = {kind: 0 for kind in lab.VERDICT_KINDS}
    findings = []
    for seed in range(20):
        kind, files = run_instance(cfg, seed)
        totals[kind] += 1
        if files is not None:
            findings.append(f"{kind.lower()}-{seed}")
    lab._write_progress(
        partial_dir,
        {
            "config": {
                k: (list(v) if isinstance(v, tuple) else v)
                for k, v in lab.asdict(cfg).items()
            },
            "done": 20,
            "totals": totals,
            "findings": findings,
        },
    )
    resumed = run_differential(cfg, out_dir=partial_dir, resume=True)
    assert resumed.comparable() == full.comparable()


def test_campaign_resume_accepts_another_worker_count(tmp_path, monkeypatch):
    """The worker count does not shape a campaign, so a checkpoint written
    by one worker resumes on two to the report an uninterrupted run gives;
    any other difference is still refused."""
    cfg = tiny_config(instances=30)
    full = run_differential(cfg)
    real = lab.run_instance

    def interrupted(config, seed):
        if seed == 25:
            raise RuntimeError("interrupted")
        return real(config, seed)

    monkeypatch.setattr(lab, "PROGRESS_EVERY", 10)
    monkeypatch.setattr(lab, "run_instance", interrupted)
    with pytest.raises(RuntimeError, match="interrupted"):
        run_differential(cfg, out_dir=tmp_path)
    monkeypatch.setattr(lab, "run_instance", real)
    progress = json.loads((tmp_path / "progress.json").read_text())
    assert (progress["done"], progress["config"]["workers"]) == (20, 1)
    resumed = run_differential(replace(cfg, workers=2), out_dir=tmp_path, resume=True)
    assert resumed.comparable() == full.comparable()
    with pytest.raises(ValueError, match="different configuration"):
        run_differential(replace(cfg, workers=2, seed=1), out_dir=tmp_path, resume=True)


def test_campaign_resume_rejects_config_drift(tmp_path):
    cfg = tiny_config(instances=10)
    run_differential(cfg, out_dir=tmp_path)
    other = tiny_config(instances=11)
    with pytest.raises(ValueError, match="different configuration"):
        run_differential(other, out_dir=tmp_path, resume=True)


def test_campaign_counterexample_path_is_archived_and_minimized(tmp_path, monkeypatch):
    """Plumbing check with a stubbed solver verdict: a YES/NO disagreement is
    archived with a minimized instance whose vector never exceeds the input's."""

    from msplab.zh import ZhMetrics, ZhResult

    monkeypatch.setattr(
        lab,
        "zh_solve",
        lambda g, opts=None: ZhResult("YES", g.full_mask, ZhMetrics(outer_sweeps=1)),
    )
    cfg = tiny_config(instances=6, eset_densities=(0.0,), minimize_budget=60)
    report = run_differential(cfg, out_dir=tmp_path)
    assert report.totals[CANDIDATE_COUNTEREXAMPLE] == 6
    for finding_id in report.findings:
        folder = tmp_path / "archive" / finding_id
        big = parse_instance((folder / "instance.msp").read_text())
        small = parse_instance((folder / "minimized.msp").read_text())
        assert validate(small).ok
        assert oracle_simple_path(small).answer == "NO"
        if len(vec_metric(small)) == len(vec_metric(big)):
            assert vec_metric(small) <= vec_metric(big)
