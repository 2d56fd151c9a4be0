"""Solver laboratory for the multistage-graph simple path problem."""

from .model import (
    AbnormalTerminationError,
    EdgeSet,
    MultistageGraph,
    ValidationReport,
    edge_ids,
    edge_set,
    validate,
)
from .operators import ReachMap, change, comp, init_all, tidy
from .zh import NO, YES, InvalidGraphError, ZhMetrics, ZhResult, replay_trace, zh_solve

__all__ = [
    "NO",
    "YES",
    "AbnormalTerminationError",
    "EdgeSet",
    "InvalidGraphError",
    "MultistageGraph",
    "ReachMap",
    "ValidationReport",
    "ZhMetrics",
    "ZhResult",
    "change",
    "comp",
    "edge_ids",
    "edge_set",
    "init_all",
    "replay_trace",
    "tidy",
    "validate",
    "zh_solve",
]
