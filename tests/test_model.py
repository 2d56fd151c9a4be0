from __future__ import annotations

import re
from dataclasses import fields

import pytest
from hypothesis import given
from hypothesis import strategies as st

from msplab.model import (
    GraphStructureError,
    MultistageGraph,
    ValidationReport,
    edge_ids,
    edge_set,
    validate,
)

from .conftest import CHAIN_EDGES, CHAIN_VERTICES, mk_graph


def test_minimal_legal_graph_validates(chain_c):
    report = validate(chain_c)
    assert report.ok
    assert report.violations == ()
    assert chain_c.source_name() == "S"
    assert chain_c.sink_name() == "D"


def test_validation_report_is_ok_exactly_when_it_lists_nothing():
    """``ok`` is read off ``violations``, so a report cannot say ok while
    it lists a violation."""
    assert [f.name for f in fields(ValidationReport)] == ["violations"]
    assert ValidationReport(()).ok
    assert not ValidationReport((("NO_SINK", "stage 3", "final stage has no vertex"),)).ok


def test_two_sources_reported():
    g = mk_graph(
        3,
        CHAIN_VERTICES + [("S2", 0)],
        CHAIN_EDGES,
        {"a": [CHAIN_EDGES[0]], "b": [], "D": []},
    )
    report = validate(g)
    assert not report.ok
    assert "MULTI_SOURCE" in {c for c, _, _ in report.violations}


def test_stage_skew_reported():
    # a sits at stage 0, so a stage-2 edge out of it skews
    g = mk_graph(
        2,
        [("a", 0), ("b", 2), ("c", 1)],
        [("a", "b", 2), ("a", "c", 1)],
        {"b": [], "c": []},
    )
    report = validate(g)
    codes = {c for c, _, _ in report.violations}
    assert "STAGE_SKEW" in codes
    skew = [v for v in report.violations if v[0] == "STAGE_SKEW"]
    assert len(skew) == 1  # only the a->b edge skews


def test_missing_and_source_esets_reported():
    g = mk_graph(
        1,
        [("S", 0), ("D", 1)],
        [("S", "D", 1)],
        {"S": [("S", "D", 1)]},
    )
    codes = {c for c, _, _ in validate(g).violations}
    assert codes == {"SOURCE_HAS_ESET", "MISSING_ESET"}


@pytest.mark.parametrize(
    "stages,vertices,edges,esets,message",
    [
        (0, [("S", 0)], [], {}, "stage count must be >= 1"),
        (1, [("S", 0), ("D", 2)], [], {}, "outside [0, 1]"),
        (1, [("S", 0), ("D", -1)], [], {}, "outside [0, 1]"),
        (1, [("S", 0), ("D", 1)], [("S", "D", 2)], {}, "stage 2 outside [1, 1]"),
        (1, [("S", 0), ("D", 1)], [("S", "D", 0)], {}, "stage 0 outside [1, 1]"),
        (1, [("S", 0), ("D", 1)], [], {"Q": []}, "edge set for unknown vertex 'Q'"),
        (1, [("S", 0), ("D", 1)], [], {"D": [("S", "D", 1)]}, "references unknown edge"),
    ],
)
def test_unrepresentable_graphs_rejected(stages, vertices, edges, esets, message):
    with pytest.raises(GraphStructureError, match=re.escape(message)):
        MultistageGraph(stages, vertices, edges, esets)


def test_edge_set_lookups_and_replacements_refuse_what_is_not_there(chain_c):
    with pytest.raises(KeyError, match="no edge set"):
        chain_c.eset("S")
    with pytest.raises(GraphStructureError, match="unknown vertex 'Q'"):
        chain_c.replace_esets({"Q": 0})
    with pytest.raises(GraphStructureError, match="outside edge universe"):
        chain_c.replace_esets({"D": chain_c.full_mask + 1})


@pytest.mark.parametrize(
    "vertices,violation",
    [
        ([("D", 1)], ("NO_SOURCE", "stage 0", "stage 0 has no vertex")),
        ([("S", 0)], ("NO_SINK", "stage 1", "final stage has no vertex")),
        (
            [("S", 0), ("D", 1), ("D2", 1)],
            ("MULTI_SINK", "stage 1", "final stage has 2 vertices: D, D2"),
        ),
    ],
)
def test_missing_and_extra_terminals_reported(vertices, violation):
    esets = {name: [] for name, stage in vertices if stage}
    report = validate(mk_graph(1, vertices, [], esets))
    assert not report.ok
    assert report.violations == (violation,)


def test_validate_is_pure(chain_cprime):
    first = validate(chain_cprime)
    second = validate(chain_cprime)
    assert first == second


def test_dense_ids_follow_stage_then_names():
    g = mk_graph(
        2,
        [("S", 0), ("y", 1), ("x", 1), ("D", 2)],
        [("y", "D", 2), ("S", "x", 1), ("S", "y", 1), ("x", "D", 2)],
        {"x": [], "y": [], "D": []},
    )
    assert [g.edge_triple(i) for i in range(4)] == [
        ("S", "x", 1),
        ("S", "y", 1),
        ("x", "D", 2),
        ("y", "D", 2),
    ]


def test_parallel_edges_rejected():
    with pytest.raises(GraphStructureError, match="parallel"):
        mk_graph(
            1,
            [("S", 0), ("D", 1)],
            [("S", "D", 1), ("S", "D", 1)],
            {"D": []},
        )


def test_duplicate_vertex_names_rejected():
    with pytest.raises(GraphStructureError, match="duplicate"):
        mk_graph(1, [("S", 0), ("S", 1)], [], {})


def test_duplicate_names_listed_once_each_sorted():
    vertices = [("S", 0), ("D", 4)] + [(n, k) for n in ("y", "x") for k in (1, 2, 3)]
    with pytest.raises(GraphStructureError) as err:
        MultistageGraph(4, vertices, [], {})
    assert str(err.value) == "duplicate vertex names: ['x', 'y']"


def test_eset_may_hold_edges_off_any_source_path():
    # dangling edge a->c is accepted inside esets as-is
    dangling = ("a", "c", 2)
    g = mk_graph(
        3,
        CHAIN_VERTICES + [("c", 2)],
        CHAIN_EDGES + [dangling],
        {"a": CHAIN_EDGES, "b": [dangling], "c": [], "D": [dangling]},
    )
    assert validate(g).ok
    assert g.eset("b") == edge_set([g.edge_id(*dangling)])


def test_stage_slice_examples(chain_c):
    """A stage slice of ``es`` is ``es & span_mask(i, j)``."""
    es = chain_c.full_mask
    assert edge_ids(es & chain_c.span_mask(2, 3)) == [1, 2]
    assert chain_c.span_mask(3, 2) == 0
    assert chain_c.span_mask(1, 3) == es
    assert chain_c.span_mask(0, 4) == es  # bounds outside [1, L] are clamped


@given(data=st.data())
def test_stage_slice_concatenation(data, sample_graph_pool):
    """Slices [i, j] and [j + 1, k] split slice [i, k]; a slice with i > j
    is empty, so either side may be."""
    g = data.draw(st.sampled_from(sample_graph_pool))
    es = data.draw(st.integers(min_value=0, max_value=g.full_mask))
    stages = g.stage_count
    i = data.draw(st.integers(min_value=1, max_value=stages))
    k = data.draw(st.integers(min_value=i - 1, max_value=stages))
    j = data.draw(st.integers(min_value=i - 1, max_value=k))
    left = es & g.span_mask(i, j)
    right = es & g.span_mask(j + 1, k)
    assert left | right == es & g.span_mask(i, k)
    assert left & right == 0
    if i > j:
        assert left == 0
    if i > k:
        assert g.span_mask(i, k) == 0


def test_replace_esets_keeps_structure(chain_c):
    swapped = chain_c.replace_esets({"a": 0, "b": 0, "D": chain_c.full_mask})
    assert swapped.edge_count == chain_c.edge_count
    assert swapped.eset("a") == 0
    assert swapped.eset("D") == chain_c.full_mask
    assert chain_c.eset("a") != 0  # original untouched


def test_graph_equality_and_document_round(chain_c):
    vertices, edges, esets = chain_c.document_data()
    rebuilt = MultistageGraph(chain_c.stage_count, vertices, edges, esets)
    assert rebuilt == chain_c
