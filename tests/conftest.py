from __future__ import annotations

import pytest
from hypothesis import HealthCheck, settings

from msplab.model import MultistageGraph

pytest_plugins = ["pytester"]

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


def mk_graph(stages, vertices, edges, esets) -> MultistageGraph:
    return MultistageGraph(stages, vertices, edges, esets)


CHAIN_VERTICES = [("S", 0), ("a", 1), ("b", 2), ("D", 3)]
E1 = ("S", "a", 1)
E2 = ("a", "b", 2)
E3 = ("b", "D", 3)
CHAIN_EDGES = [E1, E2, E3]


@pytest.fixture
def chain_c() -> MultistageGraph:
    """Three-stage chain whose edge sets admit the full chain as a simple path."""
    return mk_graph(
        3,
        CHAIN_VERTICES,
        CHAIN_EDGES,
        {"a": [E1], "b": [E1, E2], "D": [E1, E2, E3]},
    )


@pytest.fixture
def chain_cprime() -> MultistageGraph:
    """Same chain, but the sink's edge set misses the stage-1 edge: no simple path."""
    return mk_graph(
        3,
        CHAIN_VERTICES,
        CHAIN_EDGES,
        {"a": [E1], "b": [E1, E2], "D": [E2, E3]},
    )


def random_graph(seed, stages=4, max_width=3, edge_p=0.7, eset_p=0.6) -> MultistageGraph:
    """Small random instance built with stdlib randomness, for tests only.

    Kept independent of the package's own generator so operator tests do not
    lean on the code they help validate.
    """
    import random

    rng = random.Random(seed)
    widths = [1] + [rng.randint(1, max_width) for _ in range(stages - 1)] + [1]
    vertices: list[tuple[str, int]] = []
    for stage, width in enumerate(widths):
        if stage == 0:
            vertices.append(("S", 0))
        elif stage == stages:
            vertices.append(("D", stages))
        else:
            vertices.extend((f"v{stage}_{i}", stage) for i in range(width))
    by_stage: dict[int, list[str]] = {}
    for name, stage in vertices:
        by_stage.setdefault(stage, []).append(name)
    edges = []
    for stage in range(1, stages + 1):
        for src in by_stage[stage - 1]:
            for dst in by_stage[stage]:
                if rng.random() < edge_p:
                    edges.append((src, dst, stage))
    esets = {}
    for name, stage in vertices:
        if stage == 0:
            continue
        esets[name] = [t for t in edges if rng.random() < eset_p]
    return mk_graph(stages, vertices, edges, esets)


@pytest.fixture(scope="session")
def sample_graph_pool() -> list[MultistageGraph]:
    return [random_graph(seed, stages=3 + seed % 3) for seed in range(6)]
