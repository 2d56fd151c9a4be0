"""Solver laboratory for the multistage-graph simple path problem."""

from .model import (
    AbnormalTerminationError,
    EdgeRef,
    EdgeSet,
    MultistageGraph,
    ValidationReport,
    VertexId,
    edge_ids,
    edge_set,
    stage_slice,
    validate,
)
from .operators import ReachMap, change, comp, init_all, init_reachable, tidy
from .zh import NO, YES, InvalidGraphError, ZhMetrics, ZhResult, replay_trace, zh_solve

__all__ = [
    "NO",
    "YES",
    "AbnormalTerminationError",
    "EdgeRef",
    "EdgeSet",
    "InvalidGraphError",
    "MultistageGraph",
    "ReachMap",
    "ValidationReport",
    "VertexId",
    "ZhMetrics",
    "ZhResult",
    "change",
    "comp",
    "edge_ids",
    "edge_set",
    "init_all",
    "init_reachable",
    "replay_trace",
    "stage_slice",
    "tidy",
    "validate",
    "zh_solve",
]
