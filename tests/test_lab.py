from __future__ import annotations

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msplab import lab
from msplab.formats import MAX_COUNT, parse_instance, serialize_instance
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
from msplab.model import MultistageGraph, validate
from msplab.oracle import SearchBudget, oracle_simple_path
from msplab.reduction import UndirectedGraph, reduce_hc_to_msp
from msplab.zh import zh_solve

from .conftest import CHAIN_EDGES, CHAIN_VERTICES, mk_graph


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


def test_density_one_makes_any_route_simple():
    for seed in range(10):
        g = gen_msp(small_shape(seed, eset_density=1.0))
        expects = "YES" if g.edge_count else "NO"
        assert oracle_simple_path(g).answer == expects
        assert zh_solve(g).answer == expects


def set_based_gen_msp(shape: GenShape) -> MultistageGraph:
    """The generator written over name sets and candidate triples, kept as
    the oracle that the mask-based ``gen_msp`` must match byte for byte."""
    shape.check()
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
    coins = lab._stream(shape.seed, lab._STREAM_EDGES).random(len(candidates))
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
    coins = lab._stream(shape.seed, lab._STREAM_ESETS).random((len(nonsource), m))
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


@given(seeds)
def test_shape_widths_are_plain_ints(seed):
    shape = shape_for_seed(CampaignConfig(), seed)
    assert all(type(w) is int for w in shape.widths)
    assert type(shape.stages) is int


def test_unsatisfiable_shape_rejected():
    with pytest.raises(ValueError, match="zero-width"):
        GenShape(3, (1, 0, 2, 1), 0.5, 0.5, seed=1).check()
    with pytest.raises(ValueError):
        GenShape(3, (1, 2, 1), 0.5, 0.5, seed=1).check()
    with pytest.raises(ValueError):
        GenShape(3, (2, 1, 1, 1), 0.5, 0.5, seed=1).check()


def test_generators_stop_at_the_parsers_limit():
    """A count above ``formats.MAX_COUNT`` would make a file the parsers
    reject with E_TOO_LARGE, so the generators and campaigns refuse it."""
    GenShape(MAX_COUNT, (1,) * (MAX_COUNT + 1), 0.5, 0.5, seed=1).check()
    GenShape(2, (1, MAX_COUNT, 1), 0.5, 0.5, seed=1).check()
    CampaignConfig(stages_max=MAX_COUNT, width_max=1).check()
    CampaignConfig(stages_min=1, stages_max=2, width_max=MAX_COUNT).check()
    too_many = [
        lambda: GenShape(MAX_COUNT + 1, (1,) * (MAX_COUNT + 2), 0.5, 0.5, seed=1).check(),
        lambda: GenShape(2, (1, MAX_COUNT + 1, 1), 0.5, 0.5, seed=1).check(),
        lambda: gen_msp(GenShape(2, (1, 10**8, 1), 0.5, 0.5, seed=1)),
        lambda: gen_ugraph(MAX_COUNT + 1, 0.5, 0),
        lambda: CampaignConfig(stages_max=MAX_COUNT + 1).check(),
        lambda: CampaignConfig(width_max=10**9).check(),
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
        lambda: CampaignConfig(stages_max=MAX_COUNT, width_max=MAX_COUNT).check(),
        # widths (1, 6 x 140, 1): 841 vertices x 5,016 edges
        lambda: CampaignConfig(stages_max=141, width_max=6).check(),
    ]:
        with pytest.raises(ValueError, match="cells exceeds"):
            make()
    CampaignConfig(stages_max=140, width_max=6).check()  # 835 x 4,980 cells


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


class _Stub:
    def __init__(self, answer):
        self.answer = answer


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
    verdict = classify(_Stub(zh), _Stub(orc))
    assert verdict.kind == kind
    assert (verdict.zh, verdict.oracle) == (zh, orc)


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


def _fan_graph():
    """Five parallel lanes into two collectors: ten stage-2 edges."""
    vertices = [("S", 0)] + [(f"u{i}", 1) for i in range(5)] + [("w0", 2), ("w1", 2), ("D", 3)]
    edges = [("S", f"u{i}", 1) for i in range(5)]
    edges += [(f"u{i}", w, 2) for i in range(5) for w in ("w0", "w1")]
    edges += [("w0", "D", 3), ("w1", "D", 3)]
    esets = {name: [] for name, stage in vertices if stage > 0}
    return mk_graph(3, vertices, edges, esets)


def _two_stage2_edges(g):
    return g.span_mask(2, 2).bit_count() >= 2


def test_minimizer_on_synthetic_predicate():
    g = _fan_graph()
    small = minimize(g, _two_stage2_edges, budget=4000)
    assert _two_stage2_edges(small)
    assert validate(small).ok
    assert small.span_mask(2, 2).bit_count() == 2
    # locally minimal: every single move now breaks the predicate or validity
    for move in lab._enumerate_moves(small):
        assert not _two_stage2_edges(lab._apply_move(small, move))


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
    merged = lab._apply_move(g, ("merge", "x", "y"))
    assert validate(merged).ok
    assert merged.vertex_count() == 3
    assert merged.edge_count == 2  # redirected duplicates collapse


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
    parsed = CampaignConfig.from_text("# comment\ninstances = 5\neset_densities = 0.25,0.75\n")
    assert parsed.instances == 5
    assert parsed.eset_densities == (0.25, 0.75)


def test_campaign_totals_conserve():
    report = run_differential(tiny_config())
    assert sum(report.totals.values()) == report.instances == 60
    assert report.totals[BUG_NECESSITY] == 0
    assert report.seed_first == 0 and report.seed_last == 59


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
        assert classify(again_zh, again_orc).kind == meta["kind"]
    assert (tmp_path / "report.txt").exists()
    summary = [
        json.loads(line)
        for line in (tmp_path / "report.jsonl").read_text().splitlines()
    ]
    assert summary[-1]["record"] == "summary"
    assert summary[-1]["totals"][UNKNOWN] == report.totals[UNKNOWN]


def test_campaign_resume_from_checkpoint(tmp_path):
    cfg = tiny_config(instances=30)
    full = run_differential(cfg, out_dir=tmp_path / "full", progress_every=10)

    # reconstruct the checkpoint a crash after 20 instances would leave behind
    partial_dir = tmp_path / "partial"
    partial_dir.mkdir()
    totals = {kind: 0 for kind in lab.VERDICT_KINDS}
    findings = []
    for seed in range(20):
        record = run_instance(cfg, seed)
        totals[record["kind"]] += 1
        if record["kind"] not in (AGREE_YES, AGREE_NO):
            findings.append(f"{record['kind'].lower()}-{seed}")
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


def test_campaign_resume_rejects_config_drift(tmp_path):
    cfg = tiny_config(instances=10)
    run_differential(cfg, out_dir=tmp_path, progress_every=5)
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
