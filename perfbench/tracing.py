"""Spans around msplab's layer boundaries, recorded from outside the package.

The benchmark never edits ``src/msplab``.  It replaces, for the duration of a
traced pass, the module and class attributes through which the program calls
one layer from another (``msplab.zh.change``, ``OperatorCaches.comp_value``,
``msplab.lab.gen_msp`` ...) with wrappers that time each call.  A wrapper
passes its arguments and result through untouched.

Each call becomes one span: layer name, start, end, parent span, instance id
and two integers a layer may fill in (bits in and out for ``comp`` and
``change``, nodes expanded for the oracles, edges generated for
``gen_msp``).  Spans live in typed arrays until the pass ends, then
:func:`save_spans` writes them out and :func:`layer_metrics` turns them into
per-layer numbers, so every per-layer figure can be recomputed from the
written file.
"""

from __future__ import annotations

import contextlib
import json
import time
from array import array
from pathlib import Path

import numpy as np

import msplab.lab
import msplab.operators
import msplab.oracle
import msplab.reduction
import msplab.zh
from msplab.operators import OperatorCaches

_perf = time.perf_counter


class Tracer:
    """In-memory span store shared by every wrapper of one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.instance = array("q")
        self.start = array("d")
        self.end = array("d")
        self.n_in = array("q")
        self.n_out = array("q")
        self.stack: list[int] = []
        self.current_instance = -1

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, on_call=None, on_return=None):
        """Wrap ``fn`` so each call records one span named ``name``.

        ``on_call(args)`` runs before the call and returns the span's
        ``n_in``; ``on_return(args, result)`` returns its ``n_out``.
        """
        nid = self.name_id(name)
        stack = self.stack
        names, parents, instances = self.name, self.parent, self.instance
        starts, ends, ins, outs = self.start, self.end, self.n_in, self.n_out

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ins.append(on_call(args) if on_call is not None else 0)
            instances.append(self.current_instance)
            outs.append(0)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _perf()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if on_return is not None:
                outs[idx] = on_return(args, result)
            return result

        return traced


def _bits(mask: int) -> int:
    return mask.bit_count()


def _gen_msp_call(tracer: Tracer):
    def on_call(args):
        tracer.current_instance = args[0].seed  # a campaign instance starts here
        return 0

    return on_call


def _boundaries(tracer: Tracer):
    """(owner, attribute, span name, on_call, on_return) for every wrapped call."""
    return [
        (msplab.lab, "gen_msp", "lab.gen_msp", _gen_msp_call(tracer), lambda a, r: r.edge_count),
        (msplab.reduction, "reduce_hc_to_msp", "reduction.reduce_hc_to_msp", None, None),
        (msplab.zh, "zh_solve", "zh.zh_solve", lambda a: a[0].edge_count, None),
        (msplab.lab, "zh_solve", "zh.zh_solve", lambda a: a[0].edge_count, None),
        (msplab.zh, "validate", "model.validate", None, None),
        (msplab.oracle, "validate", "model.validate", None, None),
        (msplab.zh, "init_all", "operators.init_all", None, None),
        (
            msplab.zh,
            "change",
            "operators.change",
            lambda a: _bits(a[0].entries[a[1]]),
            lambda a, r: _bits(r),
        ),
        (OperatorCaches, "comp_value", "operators.comp_value", None, None),
        (OperatorCaches, "mid_tidy", "operators.mid_tidy", None, None),
        (msplab.operators, "comp", "operators.comp", lambda a: _bits(a[0]), lambda a, r: _bits(r)),
        (
            msplab.oracle,
            "oracle_simple_path",
            "oracle.oracle_simple_path",
            None,
            lambda a, r: r.nodes_expanded,
        ),
        (
            msplab.lab,
            "oracle_simple_path",
            "oracle.oracle_simple_path",
            None,
            lambda a, r: r.nodes_expanded,
        ),
        (
            msplab.oracle,
            "oracle_hamilton",
            "oracle.oracle_hamilton",
            None,
            lambda a, r: r.nodes_expanded,
        ),
    ]


@contextlib.contextmanager
def patched(replacements):
    """Set ``owner.attr = value`` for each triple, restoring on exit."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


@contextlib.contextmanager
def tracing(tracer: Tracer):
    """Route every layer boundary through ``tracer`` while the block runs."""
    replacements = [
        (owner, attr, tracer.wrap(getattr(owner, attr), name, on_call, on_return))
        for owner, attr, name, on_call, on_return in _boundaries(tracer)
    ]
    with patched(replacements):
        yield tracer


def spans_of(tracer: Tracer) -> dict:
    """The tracer's spans as numpy arrays, plus the list of layer names."""
    return {
        "names": tracer.names,
        "name": np.frombuffer(tracer.name, dtype=np.int32),
        "parent": np.frombuffer(tracer.parent, dtype=np.int32),
        "instance": np.frombuffer(tracer.instance, dtype=np.int64),
        "start": np.frombuffer(tracer.start, dtype=np.float64),
        "end": np.frombuffer(tracer.end, dtype=np.float64),
        "n_in": np.frombuffer(tracer.n_in, dtype=np.int64),
        "n_out": np.frombuffer(tracer.n_out, dtype=np.int64),
    }


def save_spans(path: Path, spans: dict, extra: dict) -> None:
    """Write spans plus ``extra`` so :func:`layer_metrics` can be rerun on the file."""
    arrays = {key: value for key, value in spans.items() if key != "names"}
    np.savez(
        path,
        names=np.array(json.dumps(spans["names"])),
        extra=np.array(json.dumps(extra)),
        **arrays,
    )


def load_spans(path: Path) -> tuple[dict, dict]:
    with np.load(path) as data:
        spans = {key: data[key] for key in data.files if key not in ("names", "extra")}
        spans["names"] = json.loads(str(data["names"]))
        extra = json.loads(str(data["extra"]))
    return spans, extra


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: dict, extra: dict) -> dict[str, float]:
    """Per-layer figures of one traced pass, from its spans and program counts.

    ``extra["instances"]`` holds one record per solved instance with the
    counts the solver reports in ``ZhMetrics``.  Span durations are rescaled
    to nominal machine speed by ``extra["speed_factor"]``, the traced pass's
    corrected over raw wall time, so they add up with ``extra["untraced_wall_s"]``
    and ``extra["traced_wall_s"]``, the corrected pass times whose difference
    is the tracing overhead.  ``extra["ref_slice_s"]`` is the run's median
    yardstick slice.  Spans also contain the yardstick sampler's ticks, about
    1-2% of their time.
    """
    names = spans["names"]
    name = spans["name"]
    parent = spans["parent"]
    dur = (spans["end"] - spans["start"]) * extra["speed_factor"]
    child = np.zeros(len(dur))
    nested = parent >= 0
    np.add.at(child, parent[nested], dur[nested])
    self_time = dur - child

    def select(layer: str):
        return name == names.index(layer) if layer in names else np.zeros(len(name), bool)

    def calls(layer):
        return int(select(layer).sum())

    def seconds(layer):
        return float(dur[select(layer)].sum())

    def self_seconds(layer):
        return float(self_time[select(layer)].sum())

    def shrink(layer):
        sel = select(layer)
        bits_in = int(spans["n_in"][sel].sum())
        return _ratio(bits_in - int(spans["n_out"][sel].sum()), bits_in)

    def nodes(layer):
        return int(spans["n_out"][select(layer)].sum())

    inst = extra["instances"]
    nonempty = [r for r in inst if r["edges"] > 0]
    lookups = calls("operators.comp_value")
    metrics = {
        "instances": len(inst),
        "operators.comp.calls": calls("operators.comp"),
        "operators.comp.s": seconds("operators.comp"),
        "operators.comp.shrink_ratio": shrink("operators.comp"),
        "operators.comp_cache.lookups": lookups,
        "operators.comp_cache.hit_ratio": _ratio(lookups - calls("operators.comp"), lookups),
        "operators.change.calls": calls("operators.change"),
        "operators.change.s": seconds("operators.change"),
        "operators.change.self_s": self_seconds("operators.change"),
        "operators.change.shrink_ratio": shrink("operators.change"),
        "operators.mid_tidy.calls": calls("operators.mid_tidy"),
        "operators.mid_tidy.s": seconds("operators.mid_tidy"),
        "operators.init_all.calls": calls("operators.init_all"),
        "operators.init_all.s": seconds("operators.init_all"),
        "zh.zh_solve.calls": calls("zh.zh_solve"),
        "zh.zh_solve.s": seconds("zh.zh_solve"),
        "zh.zh_solve.self_s": self_seconds("zh.zh_solve"),
        "zh.limit_ops": sum(r["limit"] for r in inst),
        "zh.outer_sweeps": sum(r["outer_sweeps"] for r in inst),
        "zh.bits_deleted": sum(r["edges_deleted"] for r in inst),
        "zh.no_deletion_share": _ratio(
            sum(1 for r in nonempty if r["edges_deleted"] == 0), len(nonempty)
        ),
        "zh.yes_count": sum(1 for r in inst if r["answer"] == "YES"),
        "lab.gen_msp.calls": calls("lab.gen_msp"),
        "lab.gen_msp.s": seconds("lab.gen_msp"),
        "lab.empty_share": _ratio(len(inst) - len(nonempty), len(inst)),
        "model.validate.calls": calls("model.validate"),
        "model.validate.s": seconds("model.validate"),
        "reduction.reduce_hc_to_msp.calls": calls("reduction.reduce_hc_to_msp"),
        "reduction.reduce_hc_to_msp.s": seconds("reduction.reduce_hc_to_msp"),
        "trace.untraced_wall_s": extra["untraced_wall_s"],
        "trace.traced_wall_s": extra["traced_wall_s"],
        "trace.overhead_s": extra["traced_wall_s"] - extra["untraced_wall_s"],
        "machine.ref_slice_ms": extra["ref_slice_s"] * 1000,
    }
    for oracle in ("oracle.oracle_simple_path", "oracle.oracle_hamilton"):
        metrics[f"{oracle}.calls"] = calls(oracle)
        metrics[f"{oracle}.s"] = seconds(oracle)
        metrics[f"{oracle}.nodes"] = nodes(oracle)
    return metrics


def count_mismatches(metrics: dict, extra: dict) -> list[str]:
    """Where the span counts in ``metrics`` disagree with the solver's own
    ``ZhMetrics`` counts.

    Any mismatch means a wrapper changed what the program did, or a counter
    does not count what it claims to.
    """
    inst = extra["instances"]
    expected = {
        "zh.zh_solve.calls": len(inst),
        "operators.init_all.calls": len(inst),
        "operators.comp.calls": sum(r["comp"] for r in inst),
        "operators.change.calls": sum(r["change"] for r in inst),
    }
    hits = sum(r["comp_cache_hits"] for r in inst)
    problems = [
        f"{key}: spans {metrics[key]} != solver {value}"
        for key, value in expected.items()
        if metrics[key] != value
    ]
    span_hits = metrics["operators.comp_cache.lookups"] - metrics["operators.comp.calls"]
    if span_hits != hits:
        problems.append(f"comp cache hits: spans {span_hits} != solver {hits}")
    return problems
