"""Instance generation, differential campaigns and counterexample minimization.

The generator is a seeded, counter-based sampler (keyed streams of a Philox
generator), so instances are a pure function of (shape, seed), shardable
across workers, and byte-identical across platforms.  A campaign streams
seeds through the staged solver and the exact oracle, classifies every pair
of verdicts, archives every disagreement together with both outputs, and
greedily minimizes candidate counterexamples under a per-stage in-degree
order.

A candidate counterexample (solver YES, exhaustive search NO) is a result to
report, never a crash; a necessity violation (solver NO, search YES) is an
implementation bug by construction and campaigns count it fatally.
"""

from __future__ import annotations

import json
import os
import re
import time
from dataclasses import asdict, dataclass, field, replace
from functools import reduce
from multiprocessing import Pool
from operator import mul, or_
from pathlib import Path

import numpy as np

from .formats import MAX_COUNT, _int_field, parse_instance, serialize_instance
from .model import MultistageGraph, edge_ids, validate
from .oracle import TIMEOUT, SearchBudget, oracle_simple_path
from .reduction import UndirectedGraph
from .zh import NO, YES, zh_solve

AGREE_YES = "AGREE_YES"
AGREE_NO = "AGREE_NO"
BUG_NECESSITY = "BUG_NECESSITY"
CANDIDATE_COUNTEREXAMPLE = "CANDIDATE_COUNTEREXAMPLE"
UNKNOWN = "UNKNOWN"
VERDICT_KINDS = (AGREE_YES, AGREE_NO, BUG_NECESSITY, CANDIDATE_COUNTEREXAMPLE, UNKNOWN)

_MASK64 = (1 << 64) - 1
_STREAM_EDGES = 1
_STREAM_ESETS = 2
_STREAM_UGRAPH = 3
_STREAM_SHAPE = 4
# Largest edge-set draw gen_msp may make, in (non-source vertex, candidate
# edge) cells before repair: one 8-byte double and one 1-byte flag per cell,
# 36 MiB at the cap.  The widest shape the parsers read, (1, 1000, 1), draws
# 1,001 x 2,000 cells.
MAX_DRAW_CELLS = 1 << 22


def _stream(seed: int, stream: int) -> np.random.Generator:
    key = np.array([seed & _MASK64, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# -- generation --------------------------------------------------------------


def _check_draw(widths: tuple[int, ...]) -> None:
    """Refuse ``widths`` whose worst-case edge-set draw exceeds the cap."""
    cells = sum(widths[1:]) * sum(map(mul, widths, widths[1:]))
    if cells > MAX_DRAW_CELLS:
        raise ValueError(f"edge-set draw of {cells:,} cells exceeds {MAX_DRAW_CELLS:,}")


@dataclass(frozen=True)
class GenShape:
    stages: int
    widths: tuple[int, ...]  # length stages+1, widths[0] == widths[-1] == 1
    edge_density: float
    eset_density: float
    seed: int

    def check(self) -> None:
        if not 1 <= self.stages <= MAX_COUNT:
            raise ValueError(f"need 1 to {MAX_COUNT} stages")
        if len(self.widths) != self.stages + 1:
            raise ValueError(f"widths must have length {self.stages + 1}")
        if self.widths[0] != 1 or self.widths[-1] != 1:
            raise ValueError("outer stages hold exactly one vertex")
        if any(w < 1 for w in self.widths):
            raise ValueError("unsatisfiable shape: zero-width stage")
        if any(w > MAX_COUNT for w in self.widths):
            raise ValueError(f"need widths of at most {MAX_COUNT}")
        for p in (self.edge_density, self.eset_density):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"density {p} outside [0, 1]")
        _check_draw(self.widths)


def gen_msp(shape: GenShape) -> MultistageGraph:
    """Stage-layered random instance; identical shape+seed gives identical bytes.

    The edge stream draws one double per candidate edge in (stage, source
    index, target index) order and keeps those below the edge density.  The
    graph is repaired to the vertices and edges on source-to-sink paths.
    Only if an edge is left is the edge-set stream created: one row per
    non-source vertex in id order (by stage, then name), one double per edge
    id, a member wherever the double is below the eset density.
    """
    shape.check()
    stages, widths = shape.stages, shape.widths
    size = sum(a * b for a, b in zip(widths, widths[1:]))
    draws = _stream(shape.seed, _STREAM_EDGES).random(size)
    bits = int.from_bytes(np.packbits(draws < shape.edge_density, bitorder="little"), "little")
    # forward: rows[k - 1][a] masks the kept stage-k targets of vertex a of
    # stage k - 1 (0 unless a is reachable); no path means no edge survives
    rows, reach = [], 1
    for k in range(1, stages + 1):
        w, full = widths[k], (1 << widths[k]) - 1
        row = [bits >> (a * w) & full if reach >> a & 1 else 0 for a in range(widths[k - 1])]
        bits >>= widths[k - 1] * w
        reach = reduce(or_, row)
        if not reach:
            return MultistageGraph(stages, [("S", 0), ("D", stages)], [], {"D": ()})
        rows.append(row)

    # backward from the sink: keep the edges into vertices that reach it
    names, vertices, edges = {0: "D"}, [("D", stages)], []
    for k in range(stages, 0, -1):
        live, src_names = sum(1 << b for b in names), {}
        for a, targets in enumerate(rows[k - 1]):
            targets &= live
            if targets:
                src = src_names[a] = f"v{k - 1}_{a}" if k > 1 else "S"
                vertices.append((src, k - 1))
                while targets:
                    low = targets & -targets
                    edges.append((src, names[low.bit_length() - 1], k))
                    targets ^= low
        names = src_names

    g = MultistageGraph(stages, vertices, edges, {})
    nonsource, m = g.vertex_names()[1:], g.edge_count
    draws = _stream(shape.seed, _STREAM_ESETS).random((len(nonsource), m))
    bits = int.from_bytes(np.packbits(draws < shape.eset_density, bitorder="little"), "little")
    return g.replace_esets({v: bits >> (i * m) & g.full_mask for i, v in enumerate(nonsource)})


def gen_ugraph(n: int, q: float, seed: int) -> UndirectedGraph:
    """Each vertex pair present independently with probability q."""
    if not 3 <= n <= MAX_COUNT:
        raise ValueError(f"need 3 to {MAX_COUNT} vertices")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"edge probability {q} outside [0, 1]")
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    coins = _stream(seed, _STREAM_UGRAPH).random(len(pairs))
    return UndirectedGraph.from_pairs(n, [p for p, c in zip(pairs, coins) if c < q])


# -- verdicts ----------------------------------------------------------------


@dataclass(frozen=True)
class Verdict:
    kind: str
    zh: str
    oracle: str


def classify(zh_result, oracle_result) -> Verdict:
    """Classify a solver/oracle pair for one instance.

    A necessity violation is fatal for the implementation (the YES direction
    is proven); a candidate counterexample is archived and minimized, never
    raised.
    """
    zh_answer = zh_result.answer
    oracle_answer = oracle_result.answer
    if oracle_answer == TIMEOUT:
        kind = UNKNOWN
    elif zh_answer == YES and oracle_answer == YES:
        kind = AGREE_YES
    elif zh_answer == NO and oracle_answer == NO:
        kind = AGREE_NO
    elif zh_answer == NO and oracle_answer == YES:
        kind = BUG_NECESSITY
    else:
        kind = CANDIDATE_COUNTEREXAMPLE
    return Verdict(kind=kind, zh=zh_answer, oracle=oracle_answer)


# -- graph complexity order ---------------------------------------------------


def vec_metric(g: MultistageGraph) -> tuple[int, ...]:
    """Per-stage sum of (in-degree - 1); the final component is always 0.

    Vectors of graphs with equal stage counts compare lexicographically as
    plain tuples."""
    report = validate(g)
    if not report.ok:
        raise ValueError(f"vec_metric needs a valid graph: {report.violations}")
    comps = []
    for stage in range(1, g.stage_count):
        total = 0
        for name in g.stage_vertex_names(stage):
            total += g.in_edges(name).bit_count() - 1
        comps.append(total)
    comps.append(0)
    return tuple(comps)


# -- minimization -------------------------------------------------------------


def _graph_sort_key(g: MultistageGraph):
    vertices, edges, esets = g.document_data()
    return (
        vec_metric(g),
        g.edge_count,
        g.vertex_count(),
        tuple(edges),
        tuple(sorted((v, tuple(ts)) for v, ts in esets.items())),
    )


def _apply_move(g: MultistageGraph, move) -> MultistageGraph:
    vertices, edges, esets = g.document_data()
    kind = move[0]
    if kind == "drop_edge":
        t = move[1]
        edges = [e for e in edges if e != t]
        esets = {v: [e for e in ts if e != t] for v, ts in esets.items()}
    elif kind == "drop_vertex":
        name = move[1]
        vertices = [(n, s) for n, s in vertices if n != name]
        gone = {e for e in edges if name in (e[0], e[1])}
        edges = [e for e in edges if e not in gone]
        esets = {v: [e for e in ts if e not in gone] for v, ts in esets.items() if v != name}
    elif kind == "drop_member":
        vname, t = move[1], move[2]
        esets = dict(esets)
        esets[vname] = [e for e in esets[vname] if e != t]
    elif kind == "merge":
        keep, drop = move[1], move[2]

        def rename(e):
            src = keep if e[0] == drop else e[0]
            dst = keep if e[1] == drop else e[1]
            return (src, dst, e[2])

        vertices = [(n, s) for n, s in vertices if n != drop]
        edges = sorted({rename(e) for e in edges})
        esets = {
            v: sorted({rename(e) for e in ts})
            for v, ts in esets.items()
            if v != drop
        }
    else:
        raise ValueError(f"unknown move {kind!r}")
    return MultistageGraph(g.stage_count, vertices, edges, esets)


def _enumerate_moves(g: MultistageGraph):
    source, sink = g.source_name(), g.sink_name()
    for eid in range(g.edge_count):
        yield ("drop_edge", g.edge_triple(eid))
    for name in g.vertex_names():
        if name not in (source, sink):
            yield ("drop_vertex", name)
    for name in g.vertex_names():
        if g.has_eset(name):
            for eid in edge_ids(g.eset(name)):
                yield ("drop_member", name, g.edge_triple(eid))
    for stage in range(1, g.stage_count):
        row = g.stage_vertex_names(stage)
        for i, keep in enumerate(row):
            for drop in row[i + 1 :]:
                if g.has_eset(keep) and g.has_eset(drop) and g.eset(keep) == g.eset(drop):
                    yield ("merge", keep, drop)


def minimize(g: MultistageGraph, predicate, budget: int = 500) -> MultistageGraph:
    """Greedy shrink of ``g`` under moves that keep ``predicate`` true.

    Moves: drop an edge, drop an internal vertex with its incident edges,
    drop one member from one edge set, merge same-stage vertices with equal
    edge sets.  Each round evaluates the predicate on every single-move
    variant (up to ``budget`` evaluations overall) and applies the accepted
    variant with the lexicographically least in-degree vector.  The result
    still satisfies the predicate and is locally minimal under the move set
    unless the budget ran out first.
    """
    if not predicate(g):
        raise ValueError("predicate does not hold on the input")
    evals = 1
    while evals < budget:
        accepted = []
        for move in _enumerate_moves(g):
            if evals >= budget:
                break
            candidate = _apply_move(g, move)
            evals += 1
            if predicate(candidate):
                accepted.append(candidate)
        if not accepted:
            break
        g = min(accepted, key=_graph_sort_key)
    return g


# -- campaigns ----------------------------------------------------------------


_FLOAT = re.compile(r"-?([0-9]+(\.[0-9]*)?|\.[0-9]+)([eE][-+]?[0-9]+)?")


def _float_field(token: str, what: str, lineno: int) -> float:
    """``token`` as a float, spelled in ASCII decimal or exponent form with
    an optional minus (the integer fields' rule, so no ``0_5`` or non-ASCII
    digits)."""
    if not _FLOAT.fullmatch(token):
        raise ValueError(f"line {lineno}: {what} must be a number, got {token!r}")
    return float(token)


@dataclass(frozen=True)
class CampaignConfig:
    instances: int = 1000
    seed: int = 0
    stages_min: int = 4
    stages_max: int = 12
    width_max: int = 6
    edge_density: float = 0.5
    eset_densities: tuple[float, ...] = (0.3, 0.5, 0.8)
    oracle_max_nodes: int = 10_000_000
    workers: int = 1
    minimize_budget: int = 120

    def check(self) -> None:
        if self.instances < 0:
            raise ValueError("instances must be at least 0")
        if not 1 <= self.stages_min <= self.stages_max <= MAX_COUNT:
            raise ValueError(f"need 1 <= stages_min <= stages_max <= {MAX_COUNT}")
        if not 1 <= self.width_max <= MAX_COUNT:
            raise ValueError(f"need 1 <= width_max <= {MAX_COUNT}")
        _check_draw((1, *(self.width_max,) * (self.stages_max - 1), 1))  # the largest shape
        if not self.eset_densities:
            raise ValueError("eset_densities is empty")
        for p in (self.edge_density, *self.eset_densities):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"density {p} outside [0, 1]")
        for key in ("oracle_max_nodes", "workers", "minimize_budget"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be at least 1")

    def to_text(self) -> str:
        lines = []
        for key, value in asdict(self).items():
            if isinstance(value, tuple):
                value = ",".join(str(v) for v in value)
            lines.append(f"{key} = {value}")
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text: str) -> "CampaignConfig":
        fields = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"line {lineno}: expected 'key = value'")
            key, _, value = (part.strip() for part in line.partition("="))
            if key in fields:
                raise ValueError(f"line {lineno}: repeated campaign option {key!r}")
            fields[key] = lineno, value
        defaults = CampaignConfig()
        kwargs = {}
        for key, (lineno, value) in fields.items():
            if not hasattr(defaults, key):
                raise ValueError(f"unknown campaign option {key!r}")
            current = getattr(defaults, key)
            if isinstance(current, tuple):
                kwargs[key] = tuple(_float_field(v.strip(), key, lineno) for v in value.split(","))
            elif isinstance(current, float):
                kwargs[key] = _float_field(value, key, lineno)
            else:
                kwargs[key] = _int_field(value, key, lineno)
        config = replace(defaults, **kwargs)
        config.check()
        return config


def shape_for_seed(config: CampaignConfig, seed: int) -> GenShape:
    """Deterministic per-seed shape drawn from the configured ranges."""
    rng = _stream(seed, _STREAM_SHAPE)
    stages = int(rng.integers(config.stages_min, config.stages_max + 1))
    widths = (1, *rng.integers(1, config.width_max + 1, size=stages - 1).tolist(), 1)
    density = config.eset_densities[int(rng.integers(0, len(config.eset_densities)))]
    return GenShape(
        stages=stages,
        widths=widths,
        edge_density=config.edge_density,
        eset_density=density,
        seed=seed,
    )


@dataclass
class CampaignReport:
    totals: dict[str, int]
    instances: int
    seed_first: int
    seed_last: int
    config: dict
    findings: list[str] = field(default_factory=list)
    io_errors: int = 0
    wall_time: float = 0.0

    def to_table(self) -> str:
        rows = [
            f"instances      {self.instances}",
            f"seeds          {self.seed_first}..{self.seed_last}",
        ]
        rows.extend(f"{kind:<22} {self.totals.get(kind, 0)}" for kind in VERDICT_KINDS)
        rows.append(f"findings       {len(self.findings)}")
        if self.io_errors:
            rows.append(f"io errors      {self.io_errors}")
        rows.append(f"wall time      {self.wall_time:.1f}s")
        return "\n".join(rows) + "\n"

    def comparable(self) -> dict:
        """Report content that must match across reruns: everything except
        timing and execution knobs (worker count does not shape instances)."""
        config = {k: v for k, v in self.config.items() if k != "workers"}
        return {
            "totals": self.totals,
            "instances": self.instances,
            "seed_first": self.seed_first,
            "seed_last": self.seed_last,
            "config": config,
            "findings": self.findings,
        }


def run_instance(config: CampaignConfig, seed: int) -> dict:
    """Generate, solve both ways and classify one seed (worker unit)."""
    shape = shape_for_seed(config, seed)
    g = gen_msp(shape)
    zh_result = zh_solve(g)
    oracle_result = oracle_simple_path(g, SearchBudget(max_nodes=config.oracle_max_nodes))
    verdict = classify(zh_result, oracle_result)
    record = {
        "seed": seed,
        "kind": verdict.kind,
        "zh": verdict.zh,
        "oracle": verdict.oracle,
    }
    if verdict.kind not in (AGREE_YES, AGREE_NO):
        record["instance"] = serialize_instance(g)
        record["zh_detail"] = {
            "answer": zh_result.answer,
            "final_comp_ed": edge_ids(zh_result.final_comp_ed),
            "outer_sweeps": zh_result.metrics.outer_sweeps,
        }
        record["oracle_detail"] = {
            "answer": oracle_result.answer,
            "witness": list(oracle_result.witness) if oracle_result.witness else None,
            "nodes_expanded": oracle_result.nodes_expanded,
        }
    return record


def counterexample_predicate(oracle_max_nodes: int):
    """Predicate that holds on a candidate counterexample: solver YES, and
    exhaustive search within ``oracle_max_nodes`` expansions NO."""
    budget = SearchBudget(max_nodes=oracle_max_nodes)
    budget.check()

    def predicate(g: MultistageGraph) -> bool:
        if zh_solve(g).answer != YES:
            return False
        return oracle_simple_path(g, budget).answer == NO

    return predicate


class _Archive:
    """Single-consumer archive writer; one directory per finding."""

    def __init__(self, root: Path):
        self.root = root
        self.io_errors = 0

    def write(self, finding_id: str, files: dict[str, str]) -> None:
        directory = self.root / finding_id
        for attempt in (1, 2):  # transient failures retried once
            try:
                directory.mkdir(parents=True, exist_ok=True)
                for name, content in files.items():
                    (directory / name).write_text(content, encoding="utf-8")
                return
            except OSError:
                if attempt == 2:
                    self.io_errors += 1


def _progress_path(out_dir: Path) -> Path:
    return out_dir / "progress.json"


def _write_progress(out_dir: Path, state: dict) -> None:
    path = _progress_path(out_dir)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(state, sort_keys=True), encoding="utf-8")
    os.replace(tmp, path)


def _read_progress(path: Path, config_echo: dict, instances: int) -> tuple[int, dict, list]:
    """``done``, ``totals`` and ``findings`` of the checkpoint at ``path``,
    which must be one this campaign (``config_echo``, ``instances``) wrote."""
    try:
        state = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"unreadable progress file {path}: {exc}") from exc
    if not isinstance(state, dict) or "config" not in state:
        raise ValueError(f"unreadable progress file {path}: not a checkpoint")
    if state["config"] != config_echo:
        raise ValueError("resume requested with a different configuration")
    done = state.get("done")
    totals = state.get("totals")
    findings = state.get("findings")
    if not (
        type(done) is int
        and 0 <= done <= instances
        and isinstance(totals, dict)
        and set(totals) == set(VERDICT_KINDS)
        and all(type(n) is int and n >= 0 for n in totals.values())
        and sum(totals.values()) == done
        and isinstance(findings, list)
        and all(isinstance(f, str) for f in findings)
    ):
        raise ValueError(f"unreadable progress file {path}: not a checkpoint of this campaign")
    return done, {kind: totals[kind] for kind in VERDICT_KINDS}, findings


def run_differential(
    config: CampaignConfig,
    out_dir: str | Path | None = None,
    resume: bool = False,
    progress_every: int = 500,
) -> CampaignReport:
    """Run a differential campaign over ``config.instances`` seeds.

    With ``out_dir`` set, every non-agreeing verdict is archived (instance,
    both solver outputs, metadata; candidate counterexamples also get a
    minimized variant), progress is checkpointed so an interrupted campaign
    resumes from the last completed chunk (a checkpoint of another config,
    or one not of the shape this function writes, raises ``ValueError``),
    and the final report is written as both a table and line-delimited
    records.  Parallel and serial runs produce identical reports because
    instances are independent and merged in seed order.
    """
    started = time.perf_counter()
    out_path = Path(out_dir) if out_dir is not None else None
    config_echo = {
        k: (list(v) if isinstance(v, tuple) else v) for k, v in asdict(config).items()
    }
    totals = {kind: 0 for kind in VERDICT_KINDS}
    findings: list[str] = []
    done = 0

    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)
        progress = _progress_path(out_path)
        if resume and progress.exists():
            done, totals, findings = _read_progress(progress, config_echo, config.instances)
        archive = _Archive(out_path / "archive")
    else:
        archive = None

    seeds = range(config.seed + done, config.seed + config.instances)
    predicate = counterexample_predicate(config.oracle_max_nodes)

    def handle(record: dict) -> None:
        nonlocal done
        totals[record["kind"]] += 1
        done += 1
        if record["kind"] not in (AGREE_YES, AGREE_NO):
            finding_id = f"{record['kind'].lower()}-{record['seed']}"
            findings.append(finding_id)
            if archive is not None:
                files = {
                    "instance.msp": record["instance"],
                    "zh.json": json.dumps(record["zh_detail"], sort_keys=True) + "\n",
                    "oracle.json": json.dumps(record["oracle_detail"], sort_keys=True) + "\n",
                    "meta.json": json.dumps(
                        {
                            "id": finding_id,
                            "seed": record["seed"],
                            "kind": record["kind"],
                            "config": config_echo,
                        },
                        sort_keys=True,
                    )
                    + "\n",
                }
                if record["kind"] == CANDIDATE_COUNTEREXAMPLE:
                    small = minimize(
                        parse_instance(record["instance"]),
                        predicate,
                        budget=config.minimize_budget,
                    )
                    files["minimized.msp"] = serialize_instance(small)
                archive.write(finding_id, files)
        if out_path is not None and (done % progress_every == 0 or done == config.instances):
            _write_progress(
                out_path,
                {
                    "config": config_echo,
                    "done": done,
                    "totals": totals,
                    "findings": findings,
                },
            )

    if config.workers > 1 and len(seeds) > 0:
        with Pool(config.workers) as pool:
            for record in pool.imap(
                _worker, ((config, seed) for seed in seeds), chunksize=64
            ):
                handle(record)
    else:
        for seed in seeds:
            handle(run_instance(config, seed))

    report = CampaignReport(
        totals=totals,
        instances=config.instances,
        seed_first=config.seed,
        seed_last=config.seed + config.instances - 1,
        config=config_echo,
        findings=findings,
        io_errors=archive.io_errors if archive is not None else 0,
        wall_time=time.perf_counter() - started,
    )
    if out_path is not None:
        (out_path / "report.txt").write_text(report.to_table(), encoding="utf-8")
        with (out_path / "report.jsonl").open("w", encoding="utf-8") as fh:
            for finding_id in report.findings:
                fh.write(json.dumps({"record": "finding", "id": finding_id}) + "\n")
            fh.write(
                json.dumps({"record": "summary", **report.comparable()}, sort_keys=True) + "\n"
            )
    return report


def _worker(args) -> dict:
    config, seed = args
    return run_instance(config, seed)
