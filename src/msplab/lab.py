"""Instance generation, differential campaigns and counterexample minimization.

The generator is a seeded, counter-based sampler (keyed streams of a Philox
generator), so instances are a pure function of (shape, seed), shardable
across workers, and byte-identical across platforms.  Each thread re-keys one
Philox generator per stream rather than building a new one, and every seed
whose draw leaves no source-to-sink path gets the same shared bare graph for
its stage count.  Any other seed's repaired graph is emitted in id order and
built once from those tables, with no constructor sort and no edge-set
copy.  A campaign streams seeds through the staged solver and the
exact oracle, classifies every pair of verdicts, archives every disagreement
together with both outputs, and greedily minimizes candidate
counterexamples, applying the first move that keeps the finding.

A candidate counterexample (solver YES, exhaustive search NO) is a result to
report, never a crash; a necessity violation (solver NO, search YES) is an
implementation bug by construction and campaigns count it fatally.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
from dataclasses import asdict, dataclass, field, replace
from functools import lru_cache, partial, reduce
from itertools import combinations
from multiprocessing import Pool
from operator import mul, or_
from pathlib import Path

import numpy as np

from .formats import MAX_COUNT, _int_field, parse_instance, serialize_instance
from .model import MultistageGraph, edge_ids, validate
from .oracle import DEFAULT_MAX_NODES, TIMEOUT, SearchBudget, oracle_simple_path
from .reduction import UndirectedGraph
from .zh import NO, YES, InvalidGraphError, zh_solve

AGREE_YES = "AGREE_YES"
AGREE_NO = "AGREE_NO"
BUG_NECESSITY = "BUG_NECESSITY"
CANDIDATE_COUNTEREXAMPLE = "CANDIDATE_COUNTEREXAMPLE"
UNKNOWN = "UNKNOWN"
VERDICT_KINDS = (AGREE_YES, AGREE_NO, BUG_NECESSITY, CANDIDATE_COUNTEREXAMPLE, UNKNOWN)
# A campaign with an output directory checkpoints after every this many
# instances, and after the last.
PROGRESS_EVERY = 500

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


_per_thread = threading.local()


def _stream(seed: int, stream: int) -> np.random.Generator:
    """A generator that draws exactly what a fresh
    ``Philox(key=[seed mod 2**64, stream])`` would.

    Philox is counter-based, so a stream is its key and counter: each thread
    builds one generator, on its first call, and every call re-keys it with
    a zero counter and an empty buffer.  The generator returned is valid
    only until the next ``_stream`` call on the same thread.
    """
    rng = getattr(_per_thread, "rng", None)
    if rng is None:
        rng = _per_thread.rng = np.random.Generator(np.random.Philox(key=0))
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": (seed & _MASK64, stream)},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


# -- generation --------------------------------------------------------------


def _check_draw(widths: tuple[int, ...]) -> None:
    """Refuse ``widths`` whose worst-case edge-set draw exceeds the cap."""
    cells = sum(widths[1:]) * sum(map(mul, widths, widths[1:]))
    if cells > MAX_DRAW_CELLS:
        raise ValueError(f"edge-set draw of {cells:,} cells exceeds {MAX_DRAW_CELLS:,}")


@dataclass(frozen=True)
class GenShape:
    """A generator shape; one ``gen_msp`` could not draw raises ``ValueError``."""

    stages: int
    widths: tuple[int, ...]  # length stages+1, widths[0] == widths[-1] == 1
    edge_density: float
    eset_density: float
    seed: int

    def __post_init__(self) -> None:
        if not 1 <= self.stages <= MAX_COUNT:
            raise ValueError(f"need 1 to {MAX_COUNT} stages")
        if len(self.widths) != self.stages + 1:
            raise ValueError(f"widths must have length {self.stages + 1}")
        if self.widths[0] != 1 or self.widths[-1] != 1:
            raise ValueError("outer stages hold exactly one vertex")
        if min(self.widths) < 1:
            raise ValueError("unsatisfiable shape: zero-width stage")
        if max(self.widths) > MAX_COUNT:
            raise ValueError(f"need widths of at most {MAX_COUNT}")
        for p in (self.edge_density, self.eset_density):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"density {p} outside [0, 1]")
        _check_draw(self.widths)


@lru_cache(maxsize=64)
def _bare_graph(stages: int) -> MultistageGraph:
    """Source and sink with no edge: one shared, immutable graph per stage
    count (bounded, since a bare graph holds O(stages) tuples)."""
    return MultistageGraph(stages, [("S", 0), ("D", stages)], [], {"D": ()})


@lru_cache(maxsize=64)
def _name_order(width: int) -> tuple[int, ...]:
    """Indices of a stage of ``width`` vertices in the order of their names
    ``v{k}_{a}``: index order up to width 10, then ``10`` sorts before
    ``2`` (bounded like ``_bare_graph``)."""
    return tuple(sorted(range(width), key=str))


def gen_msp(shape: GenShape) -> MultistageGraph:
    """Stage-layered random instance; identical shape+seed gives identical bytes.

    The edge stream draws one double per candidate edge in (stage, source
    index, target index) order and keeps those below the edge density.  The
    graph is repaired to the vertices and edges on source-to-sink paths; if
    none is left, the result is the bare source/sink graph, one shared
    object per stage count.  Only if an edge is left is the edge-set stream
    created: one row per non-source vertex in id order (by stage, then
    name), one double per edge id, a member wherever the double is below the
    eset density.  The repaired graph is emitted in id order, vertices by
    (stage, name) and edges by (stage, source name, target name), and built
    once from those tables, with no sort or lookup by name.
    """
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
            return _bare_graph(stages)
        rows.append(row)

    # backward from the sink: live[k] masks the stage-k vertices on a path
    live = [0] * stages + [1]
    for k in range(stages, 0, -1):
        live[k - 1] = sum(1 << a for a, targets in enumerate(rows[k - 1]) if targets & live[k])

    # vertices in id order: ids[k] lists the live stage-k vertices by name,
    # as (index in the stage, vertex id, name)
    ids, n = [((0, 0, "S"),)], 1
    for k in range(1, stages):
        order = [a for a in _name_order(widths[k]) if live[k] >> a & 1]
        ids.append([(a, n + i, f"v{k}_{a}") for i, a in enumerate(order)])
        n += len(order)
    ids.append(((0, n, "D"),))
    n += 1
    vindex = {name: i for stage_ids in ids for _, i, name in stage_ids}
    vstage = [k for k, stage_ids in enumerate(ids) for _ in stage_ids]

    triples, efrom, eto = [], [], []
    for k in range(1, stages + 1):
        row, heads = rows[k - 1], ids[k]
        for a, i, src in ids[k - 1]:
            targets = row[a]
            for b, j, dst in heads:
                if targets >> b & 1:
                    triples.append((src, dst, k))
                    efrom.append(i)
                    eto.append(j)
    eindex = {t: e for e, t in enumerate(triples)}

    m = len(efrom)
    draws = _stream(shape.seed, _STREAM_ESETS).random((n - 1, m))
    bits = int.from_bytes(np.packbits(draws < shape.eset_density, bitorder="little"), "little")
    full = (1 << m) - 1
    esets = [None] + [bits >> (i * m) & full for i in range(n - 1)]
    return MultistageGraph._from_tables(stages, vindex, vstage, eindex, efrom, eto, esets)


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


def classify(zh_answer: str, oracle_answer: str) -> str:
    """The verdict kind of a solver/oracle answer pair for one instance.

    A necessity violation is fatal for the implementation (the YES direction
    is proven); a candidate counterexample is archived and minimized, never
    raised.
    """
    if oracle_answer == TIMEOUT:
        return UNKNOWN
    if zh_answer == YES and oracle_answer == YES:
        return AGREE_YES
    if zh_answer == NO and oracle_answer == NO:
        return AGREE_NO
    if zh_answer == NO and oracle_answer == YES:
        return BUG_NECESSITY
    return CANDIDATE_COUNTEREXAMPLE


# -- graph complexity order ---------------------------------------------------


def vec_metric(g: MultistageGraph) -> tuple[int, ...]:
    """Per-stage sum of (in-degree - 1); the final component is always 0.

    Vectors of graphs with equal stage counts compare lexicographically as
    plain tuples."""
    report = validate(g)
    if not report.ok:
        raise InvalidGraphError(report)
    comps = []
    for stage in range(1, g.stage_count):
        total = 0
        for name in g.stage_vertex_names(stage):
            total += g.in_edges(name).bit_count() - 1
        comps.append(total)
    comps.append(0)
    return tuple(comps)


# -- minimization -------------------------------------------------------------


def _candidates(g: MultistageGraph):
    """Every move of ``minimize`` on ``g``, in the order ``minimize`` lists
    them; a move is a function of no arguments that builds its graph."""
    vertices, edges, esets = g.document_data()
    build = partial(MultistageGraph, g.stage_count)

    def drop(names, gone=()):
        gone = {*gone, *(e for e in edges if e[0] in names or e[1] in names)}
        return build(
            [(n, s) for n, s in vertices if n not in names],
            [e for e in edges if e not in gone],
            {v: [e for e in ts if e not in gone] for v, ts in esets.items() if v not in names},
        )

    def drop_member(name, t):
        return build(vertices, edges, {**esets, name: [e for e in esets[name] if e != t]})

    def merge(keep, other):
        def rename(e):
            return (keep if e[0] == other else e[0], keep if e[1] == other else e[1], e[2])

        return build(
            [(n, s) for n, s in vertices if n != other],
            sorted({rename(e) for e in edges}),
            {v: sorted({rename(e) for e in ts}) for v, ts in esets.items() if v != other},
        )

    for t in edges:
        yield partial(drop, (), {t})
    for name, _ in vertices:
        if name not in (g.source_name(), g.sink_name()):
            yield partial(drop, (name,))
    for name, members in esets.items():
        for t in members:
            yield partial(drop_member, name, t)
    preds: dict[str, set[str]] = {}
    for src, dst, _ in edges:
        preds.setdefault(dst, set()).add(src)
    for stage in range(1, g.stage_count):
        row = [name for name in g.stage_vertex_names(stage) if g.has_eset(name)]
        for keep, other in combinations(row, 2):
            if g.eset(keep) == g.eset(other) and preds.get(keep, set()) & preds.get(other, set()):
                yield partial(merge, keep, other)


def minimize(g: MultistageGraph, predicate, budget: int = 500) -> MultistageGraph:
    """Greedy shrink of ``g`` under moves that keep ``predicate`` true.

    Moves, in this order: drop an edge, drop an internal vertex with its
    incident edges, drop one member from one edge set, merge same-stage
    vertices with equal edge sets and a common in-neighbour.  A merge
    changes its stage's ``vec_metric`` component by 1 - |common
    in-neighbours| and can only lower later ones, so no merge raises the
    vector.  The first move that keeps the predicate is applied, and the
    next try is the move at the same position in the new graph's list,
    wrapping to the front at its end (ddmin's first-accepted rule, one move
    at a time).  The predicate runs at most ``budget`` times, the input's
    check included.  The result still satisfies the predicate and is locally
    minimal under the move set unless the budget ran out first: the run ends
    when a full pass accepts nothing.
    """
    if not predicate(g):
        raise ValueError("predicate does not hold on the input")
    evals, pos = 1, 0
    while True:
        moves = list(enumerate(_candidates(g)))
        for pos, move in moves[pos:] + moves[:pos]:
            if evals >= budget:
                return g
            evals += 1
            candidate = move()
            if predicate(candidate):
                g = candidate
                break
        else:
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
    """A campaign's settings; settings outside README's rules raise ``ValueError``."""

    instances: int = 1000
    seed: int = 0
    stages_min: int = 4
    stages_max: int = 12
    width_max: int = 6
    edge_density: float = 0.5
    eset_densities: tuple[float, ...] = (0.3, 0.5, 0.8)
    oracle_max_nodes: int = DEFAULT_MAX_NODES
    workers: int = 1
    minimize_budget: int = 120

    def __post_init__(self) -> None:
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
        return replace(defaults, **kwargs)


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


def _campaign_shape(config_echo: dict) -> dict:
    """The keys of a config echo that shape a campaign's instances and
    verdicts: all but ``workers``, which only parallelizes the same seeds."""
    return {k: v for k, v in config_echo.items() if k != "workers"}


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
        timing and the worker count (see ``_campaign_shape``)."""
        return {
            "totals": self.totals,
            "instances": self.instances,
            "seed_first": self.seed_first,
            "seed_last": self.seed_last,
            "config": _campaign_shape(self.config),
            "findings": self.findings,
        }


def run_instance(config: CampaignConfig, seed: int) -> tuple[str, dict[str, str] | None]:
    """Generate, solve both ways and classify one seed (worker unit).

    Returns the verdict kind and, unless both sides agree, the finding's
    archive files: the instance and both outputs, serialized."""
    g = gen_msp(shape_for_seed(config, seed))
    zh_result = zh_solve(g)
    oracle_result = oracle_simple_path(g, SearchBudget(max_nodes=config.oracle_max_nodes))
    kind = classify(zh_result.answer, oracle_result.answer)
    if kind in (AGREE_YES, AGREE_NO):
        return kind, None
    zh_detail = {
        "answer": zh_result.answer,
        "final_comp_ed": edge_ids(zh_result.final_comp_ed),
        "outer_sweeps": zh_result.metrics.outer_sweeps,
    }
    oracle_detail = {
        "answer": oracle_result.answer,
        "witness": list(oracle_result.witness) if oracle_result.witness else None,
        "nodes_expanded": oracle_result.nodes_expanded,
    }
    return kind, {
        "instance.msp": serialize_instance(g),
        "zh.json": json.dumps(zh_detail, sort_keys=True) + "\n",
        "oracle.json": json.dumps(oracle_detail, sort_keys=True) + "\n",
    }


def counterexample_predicate(oracle_max_nodes: int):
    """Predicate that holds on a candidate counterexample: solver YES, and
    exhaustive search within ``oracle_max_nodes`` expansions NO."""
    budget = SearchBudget(max_nodes=oracle_max_nodes)

    def predicate(g: MultistageGraph) -> bool:
        if zh_solve(g).answer != YES:
            return False
        return oracle_simple_path(g, budget).answer == NO

    return predicate


def _archive(directory: Path, files: dict[str, str]) -> bool:
    """Write ``files`` into ``directory``, retrying once after a failure;
    whether the files were written."""
    for _ in range(2):
        try:
            directory.mkdir(parents=True, exist_ok=True)
            for name, content in files.items():
                (directory / name).write_text(content, encoding="utf-8")
            return True
        except OSError:
            pass
    return False


def _write_progress(out_dir: Path, state: dict) -> None:
    path = out_dir / "progress.json"
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(state, sort_keys=True), encoding="utf-8")
    os.replace(tmp, path)


def _read_progress(path: Path, config_echo: dict, instances: int) -> tuple[int, dict, list]:
    """``done``, ``totals`` and ``findings`` of the checkpoint at ``path``,
    which this campaign (``config_echo`` but ``workers``, ``instances``) wrote."""
    try:
        state = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"unreadable progress file {path}: {exc}") from exc
    if not isinstance(state, dict) or not isinstance(state.get("config"), dict):
        raise ValueError(f"unreadable progress file {path}: not a checkpoint")
    if _campaign_shape(state["config"]) != _campaign_shape(config_echo):
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
        and len(findings) == done - totals[AGREE_YES] - totals[AGREE_NO]
    ):
        raise ValueError(f"unreadable progress file {path}: not a checkpoint of this campaign")
    return done, {kind: totals[kind] for kind in VERDICT_KINDS}, findings


def run_differential(
    config: CampaignConfig,
    out_dir: str | Path | None = None,
    resume: bool = False,
) -> CampaignReport:
    """Run a differential campaign over ``config.instances`` seeds.

    With ``out_dir`` set, every non-agreeing verdict is archived (instance,
    both solver outputs, metadata; candidate counterexamples also get a
    minimized variant), progress is checkpointed every ``PROGRESS_EVERY``
    instances so an interrupted campaign resumes from the last checkpoint
    (a checkpoint of a config that differs in more than ``workers``, or one
    not of the shape this function writes, raises ``ValueError``), and the
    final report is written as both a table and line-delimited records.
    Parallel and serial runs produce identical reports because instances
    are independent and merged in seed order.
    """
    started = time.perf_counter()
    out_path = Path(out_dir) if out_dir is not None else None
    config_echo = {
        k: (list(v) if isinstance(v, tuple) else v) for k, v in asdict(config).items()
    }
    totals = {kind: 0 for kind in VERDICT_KINDS}
    findings: list[str] = []
    done = io_errors = 0

    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)
        progress = out_path / "progress.json"
        if resume and progress.exists():
            done, totals, findings = _read_progress(progress, config_echo, config.instances)

    seeds = range(config.seed + done, config.seed + config.instances)
    predicate = counterexample_predicate(config.oracle_max_nodes)

    def handle(seed: int, kind: str, files: dict[str, str] | None) -> None:
        nonlocal done, io_errors
        totals[kind] += 1
        done += 1
        if files is not None:
            finding_id = f"{kind.lower()}-{seed}"
            findings.append(finding_id)
            if out_path is not None:
                meta = {"id": finding_id, "seed": seed, "kind": kind, "config": config_echo}
                files["meta.json"] = json.dumps(meta, sort_keys=True) + "\n"
                if kind == CANDIDATE_COUNTEREXAMPLE:
                    g = parse_instance(files["instance.msp"])
                    small = minimize(g, predicate, budget=config.minimize_budget)
                    files["minimized.msp"] = serialize_instance(small)
                io_errors += not _archive(out_path / "archive" / finding_id, files)
        if out_path is not None and (done % PROGRESS_EVERY == 0 or done == config.instances):
            _write_progress(
                out_path,
                {
                    "config": config_echo,
                    "done": done,
                    "totals": totals,
                    "findings": findings,
                },
            )

    work = partial(run_instance, config)
    if config.workers > 1 and len(seeds) > 0:
        with Pool(config.workers) as pool:
            for seed, result in zip(seeds, pool.imap(work, seeds, chunksize=64)):
                handle(seed, *result)
    else:
        for seed in seeds:
            handle(seed, *work(seed))

    report = CampaignReport(
        totals=totals,
        instances=config.instances,
        seed_first=config.seed,
        seed_last=config.seed + config.instances - 1,
        config=config_echo,
        findings=findings,
        io_errors=io_errors,
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
