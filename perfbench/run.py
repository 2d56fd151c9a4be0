#!/usr/bin/env python3
"""msplab benchmark runner.

    python3 perfbench/run.py --workload hc-reduced --seed 1 --seconds 40 --trace 0

Workloads (see ``workloads.py``): ``hc-reduced``, ``chain-long`` and
``campaign-default``.  A run repeats fixed-work passes over the workload's
pinned instances until ``--seconds`` is spent and checks every verdict
against the oracles and against ``pinned.json``.  The last line of standard
output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Every time the benchmark reports is in nominal-speed seconds: wall time
rescaled by the machine speed that ``yardstick.py`` samples before, during
and after each unit of work, because the shared sandbox's own speed drifts
by more than the bounds.  Raw wall times are kept in the written result.

With ``--trace 0`` the metrics are the end-to-end ones:

* ``norm_wall_s``: median corrected wall time of one pass;
* ``size_exponent``: log-log slope of corrected ``zh_solve`` time against
  edge count over the workload's instances (the chain exponent on
  ``chain-long``);
* ``setup_s``: median over five corrected set-ups (this process and four
  fresh interpreters) of importing msplab, loading the record and building
  inputs;
* ``peak_rss_mb``: peak resident memory of the run.

With ``--trace 1`` half the time runs untraced passes, then one pass runs
with every layer boundary wrapped (``tracing.py``), and the metrics are the
per-layer ones of that pass.  Its spans are written to
``perfbench/out/<workload>.spans.npz``; ``python3 perfbench/run.py --spans
FILE`` recomputes the per-layer numbers from such a file.

The line before the result records the environment (Python, nproc, git
commit, digest of ``src/msplab``); every result is also written to
``perfbench/out/``.  ``python3 perfbench/pin.py`` regenerates ``pinned.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from yardstick import Sampler, Yardstick, speed_factor

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 4


def import_program():
    """Import msplab from this checkout's ``src``, never from anywhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    import msplab

    origin = Path(msplab.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise SystemExit(f"msplab imported from {origin}, not from this checkout")


def environment() -> dict:
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else None
        commit = ref
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "msplab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


@dataclass
class Pass:
    """One fixed-work pass: raw and speed-corrected wall time, yardstick slices."""

    wall_s: float
    norm_s: float
    slices: list[float]


def run_pass(workload, stick: Yardstick, tracer=None) -> tuple[Pass, list]:
    """Solve every unit while sampling the yardstick.

    Each unit's wall time, less the sampler's own time, is rescaled by the
    machine speed sampled before, during and after it; so is each instance's
    ``zh_solve`` time.
    """
    sampler = Sampler(stick)
    before = stick.slice_s()
    slices = [before]
    wall = norm = 0.0
    solved = []
    with sampler.running():
        for unit in workload.units():
            seen, stolen = len(sampler.slices), sampler.stolen_s
            t0 = time.perf_counter()
            out = unit(tracer)
            t1 = time.perf_counter()
            spent = (t1 - t0) - (sampler.stolen_s - stolen)
            during = sampler.slices[seen:]
            after = stick.slice_s()
            factor = speed_factor([before, *during, after])
            wall += spent
            norm += spent * factor
            for s in out:
                s.zh_s *= factor
            solved += out
            slices += [*during, after]
            before = after
    return Pass(wall, norm, slices), solved


class Checker:
    """Checks each pass as it ends and keeps only what the metrics need.

    An instance fails when an oracle disagrees or times out, the program
    raises, or its (answer, final contracted set) differs from the record
    pinned at the benchmark's defining commit.  Every pass does identical
    work, so its program outputs and counts must equal the first pass's.
    """

    def __init__(self, pinned: dict):
        self.pinned = pinned
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.reference = None
        self.passes = 0
        self.edges: dict[str, int] = {}
        self.zh_s: dict[str, list[float]] = {}

    def add(self, solved) -> None:
        self.passes += 1
        outputs = sorted(s.output() for s in solved)
        if self.reference is None:
            self.reference = outputs
        elif outputs != self.reference:
            self.problems.append(f"pass {self.passes}: outputs or counts differ from pass 1")
        for s in solved:
            self.attempted += 1
            error = s.error
            pinned = self.pinned.get(s.key)
            if error is None and pinned != [s.answer, hex(s.final)]:
                error = f"answer {s.answer} final {hex(s.final)} differs from pinned {pinned}"
            if error is not None:
                self.failed += 1
                self.problems.append(f"{s.key}: {error}")
            elif s.edges > 0:
                self.edges[s.key] = s.edges
                self.zh_s.setdefault(s.key, []).append(s.zh_s)

    def size_exponent(self) -> float:
        """Slope of log(median corrected zh_solve time) against log(edge count)."""
        import numpy as np

        keys = sorted(self.zh_s)
        xs = np.log([self.edges[k] for k in keys])
        ys = np.log([statistics.median(self.zh_s[k]) for k in keys])
        return float(np.polyfit(xs, ys, 1)[0])


def timed_passes(workload, stick: Yardstick, budget_s: float, checker: Checker) -> list[Pass]:
    """Run and check passes until the next would overrun ``budget_s`` (at least one)."""
    passes = []
    began = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        done, solved = run_pass(workload, stick)
        checker.add(solved)
        passes.append(done)
        t1 = time.perf_counter()
        if (t1 - began) + (t1 - t0) > budget_s:
            return passes


def setup_probes(args, stick: Yardstick) -> list[float]:
    """Speed-corrected set-up times of fresh interpreters doing only set-up."""
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", "1", "--trace", "0", "--sizes", args.sizes, "--setup-probe",
    ]  # fmt: skip
    times = []
    for _ in range(SETUP_PROBES):
        before = stick.slice_s()
        done = subprocess.run(command, capture_output=True, text=True, timeout=120, check=True)
        raw = float(done.stdout.strip().splitlines()[-1])
        times.append(raw * speed_factor([before, stick.slice_s()]))
    return times


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def layer_unit(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    return "count"


def run(args) -> int:
    began = time.perf_counter()
    import_program()
    import workloads

    pinned = json.loads((HERE / "pinned.json").read_text(encoding="utf-8"))
    workload = workloads.WORKLOADS[args.workload](workloads.SIZES[args.sizes], args.seed)
    setup_s = time.perf_counter() - began
    if args.setup_probe:
        print(repr(setup_s))
        return 0

    import tracing

    stick = Yardstick()
    setup_s *= speed_factor([stick.slice_s()])
    env = environment()
    checker = Checker(pinned)
    budget = args.seconds / 2 if args.trace else args.seconds
    passes = timed_passes(workload, stick, budget, checker)
    untraced = statistics.median(p.norm_s for p in passes)

    OUT.mkdir(exist_ok=True)
    if args.trace:
        tracer = tracing.Tracer()
        with tracing.tracing(tracer):
            traced, solved = run_pass(workload, stick, tracer)
        checker.add(solved)
        passes.append(traced)
        extra = {
            "instances": [s.record() for s in solved],
            "untraced_wall_s": untraced,
            "traced_wall_s": traced.norm_s,
            "speed_factor": traced.norm_s / traced.wall_s,
            "ref_slice_s": statistics.median(x for p in passes for x in p.slices),
        }
        spans = tracing.spans_of(tracer)
        tracing.save_spans(OUT / f"{args.workload}.spans.npz", spans, extra)
        layers = tracing.layer_metrics(spans, extra)
        checker.problems += tracing.count_mismatches(layers, extra)
        metrics = {name: metric(value, layer_unit(name)) for name, value in layers.items()}
    else:
        setups = [setup_s, *setup_probes(args, stick)]
        metrics = {
            "norm_wall_s": metric(untraced, "s"),
            "size_exponent": metric(checker.size_exponent(), "1"),
            "setup_s": metric(statistics.median(setups), "s"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    problems = checker.problems
    result = {
        "correct": not problems,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }
    for problem in problems[:20]:
        print(f"check: {problem}", file=sys.stderr)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "sizes": args.sizes,
        "environment": env,
        "passes": [
            {"wall_s": p.wall_s, "norm_wall_s": p.norm_s, "ref_slices_s": p.slices} for p in passes
        ],
        "zh_s": checker.zh_s,
        "problems": problems,
        "result": result,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


def recompute(path: str) -> int:
    """Print the per-layer metrics recomputed from a written spans file."""
    sys.path.insert(0, str(ROOT / "src"))
    import tracing

    spans, extra = tracing.load_spans(Path(path))
    print(json.dumps(tracing.layer_metrics(spans, extra), indent=1))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=["hc-reduced", "chain-long", "campaign-default"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--sizes", choices=["full", "smoke"], default="full")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--spans", help="recompute per-layer metrics from a spans file")
    args = parser.parse_args(argv)
    if args.spans:
        return recompute(args.spans)
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
