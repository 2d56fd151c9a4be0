"""Command-line surface.

Exit codes (also in ``--help``): 0 the command ran (YES/NO verdicts are
ordinary output, not failures), 2 usage error, 3 file error, 4 format error,
5 the instance failed structural validation, 6 internal abnormality.
``--machine`` emits one JSON record on stdout instead of human text.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .formats import (
    InstanceParseError,
    parse_instance,
    parse_ugraph,
    serialize_instance,
    serialize_ugraph,
)
from .lab import (
    CampaignConfig,
    GenShape,
    bench_scaling,
    counterexample_predicate,
    gen_msp,
    gen_ugraph,
    minimize,
    run_differential,
)
from .model import edge_ids, validate
from .oracle import SearchBudget, oracle_simple_path
from .zh import AbnormalTerminationError, InvalidGraphError, zh_solve

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_FILE = 3
EXIT_FORMAT = 4
EXIT_INVALID = 5
EXIT_INTERNAL = 6

ARCHIVE_ENV = "MSPLAB_ARCHIVE"

_EPILOG = """\
exit codes:
  0  command ran (verdicts YES/NO are results, not errors)
  2  usage error
  3  file error
  4  format error (parse failure, bad config)
  5  instance failed validation
  6  internal abnormality (a solver invariant failed)

environment:
  MSPLAB_ARCHIVE   default output directory for 'fuzz'
"""


class _CliFailure(Exception):
    def __init__(self, status: int, message: str):
        self.status = status
        self.message = message


def _read_text(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise _CliFailure(EXIT_FILE, f"cannot read {path}: {exc}") from exc


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise _CliFailure(EXIT_FILE, f"cannot write {path}: {exc}") from exc


def _load_instance(path: str):
    try:
        g = parse_instance(_read_text(path))
    except InstanceParseError as exc:
        raise _CliFailure(EXIT_FORMAT, str(exc)) from exc
    report = validate(g)
    if not report.ok:
        lines = "\n".join(f"  {code} at {where}: {msg}" for code, where, msg in report.violations)
        raise _CliFailure(EXIT_INVALID, f"instance fails validation:\n{lines}")
    return g


def _emit(args, machine_record: dict, human: str) -> None:
    if args.machine:
        print(json.dumps(machine_record, sort_keys=True))
    else:
        print(human)


def _cmd_solve(args) -> int:
    g = _load_instance(args.instance)
    trace = [] if args.trace else None
    result = zh_solve(g, trace=trace)
    if args.trace:
        _write_text(args.trace, "".join(json.dumps(ev, sort_keys=True) + "\n" for ev in trace))
    size = result.final_comp_ed.bit_count()
    _emit(
        args,
        {
            "command": "solve",
            "answer": result.answer,
            "final_set_size": size,
            "final_set": edge_ids(result.final_comp_ed),
            "outer_sweeps": result.metrics.outer_sweeps,
        },
        f"{result.answer}\nfinal set size: {size}",
    )
    return EXIT_OK


def _cmd_oracle(args) -> int:
    budget = SearchBudget(max_nodes=args.max_nodes, max_seconds=args.max_seconds)
    try:
        budget.check()
    except ValueError as exc:
        raise _CliFailure(EXIT_FORMAT, f"bad search budget: {exc}") from exc
    g = _load_instance(args.instance)
    result = oracle_simple_path(g, budget)
    witness = " ".join(result.witness) if result.witness else None
    _emit(
        args,
        {
            "command": "oracle",
            "answer": result.answer,
            "witness": list(result.witness) if result.witness else None,
            "nodes_expanded": result.nodes_expanded,
        },
        result.answer + (f"\nwitness: {witness}" if witness else ""),
    )
    return EXIT_OK


def _cmd_reduce(args) -> int:
    try:
        ug = parse_ugraph(_read_text(args.graph))
    except InstanceParseError as exc:
        raise _CliFailure(EXIT_FORMAT, str(exc)) from exc
    from .reduction import ReductionError, reduce_hc_to_msp

    try:
        g, rmap = reduce_hc_to_msp(ug, args.pivot)
    except ReductionError as exc:
        raise _CliFailure(EXIT_FORMAT, str(exc)) from exc
    _write_text(args.output, serialize_instance(g))
    if args.machine:
        print(json.dumps({"command": "reduce", **rmap.stats}, sort_keys=True))
    return EXIT_OK


def _cmd_gen_msp(args) -> int:
    try:
        widths = tuple(int(w) for w in args.widths.split(","))
        shape = GenShape(
            stages=len(widths) - 1,
            widths=widths,
            edge_density=args.edge_density,
            eset_density=args.eset_density,
            seed=args.seed,
        )
        shape.check()
    except ValueError as exc:
        raise _CliFailure(EXIT_FORMAT, f"bad shape: {exc}") from exc
    _write_text(args.output, serialize_instance(gen_msp(shape)))
    return EXIT_OK


def _cmd_gen_graph(args) -> int:
    try:
        ug = gen_ugraph(args.vertices, args.edge_prob, args.seed)
    except ValueError as exc:
        raise _CliFailure(EXIT_FORMAT, str(exc)) from exc
    _write_text(args.output, serialize_ugraph(ug))
    return EXIT_OK


def _cmd_fuzz(args) -> int:
    try:
        config = CampaignConfig.from_text(_read_text(args.config))
    except ValueError as exc:
        raise _CliFailure(EXIT_FORMAT, f"bad campaign config: {exc}") from exc
    out_dir = args.out or os.environ.get(ARCHIVE_ENV)
    report = run_differential(config, out_dir=out_dir, resume=args.resume)
    if args.machine:
        print(json.dumps({"command": "fuzz", **report.comparable()}, sort_keys=True))
    else:
        print(report.to_table(), end="")
    return EXIT_OK


def _cmd_minimize(args) -> int:
    try:
        predicate = counterexample_predicate(args.oracle_max_nodes)
    except ValueError as exc:
        raise _CliFailure(EXIT_FORMAT, f"bad search budget: {exc}") from exc
    g = _load_instance(args.instance)
    if not predicate(g):
        raise _CliFailure(
            EXIT_INVALID, "instance is not a candidate counterexample (need solver YES, search NO)"
        )
    small = minimize(g, predicate, budget=args.budget)
    _write_text(args.output, serialize_instance(small))
    return EXIT_OK


def _cmd_bench(args) -> int:
    try:
        widths = tuple(int(w) for w in args.widths.split(","))
        rows, slope = bench_scaling(widths=widths, stages=args.stages, reps=args.reps)
    except ValueError as exc:
        raise _CliFailure(EXIT_FORMAT, f"bad bench input: {exc}") from exc
    if args.machine:
        print(json.dumps({"command": "bench", "rows": rows, "slope": slope}, sort_keys=True))
    else:
        for row in rows:
            print(
                f"width {row['width']:>3}  |V| {row['vertices']:>5}  |E| {row['edges']:>6}  "
                f"{row['seconds'] * 1000:9.2f} ms  {row['answer']}"
            )
        print(f"log-log slope: {slope:.2f}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="msplab",
        description="Multistage simple-path solver laboratory",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run the staged fixpoint solver on an instance")
    p.add_argument("instance", help="instance file, or - for stdin")
    p.add_argument("--machine", action="store_true")
    p.add_argument(
        "--trace", metavar="PATH", help="write per-deletion records as JSON lines (- for stdout)"
    )
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("oracle", help="exact search for a simple path")
    p.add_argument("instance", help="instance file, or - for stdin")
    p.add_argument("--max-nodes", type=int, default=10_000_000)
    p.add_argument("--max-seconds", type=float, default=None)
    p.add_argument("--machine", action="store_true")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("reduce", help="transform an undirected graph into an instance")
    p.add_argument("graph", help="edge-list file, or - for stdin")
    p.add_argument("--pivot", type=int, default=None)
    p.add_argument("-o", "--output", default=None, help="output file (default stdout)")
    p.add_argument("--machine", action="store_true")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("gen-msp", help="generate a random instance")
    p.add_argument("--widths", required=True, help="per-stage vertex counts, e.g. 1,3,3,1")
    p.add_argument("--edge-density", type=float, default=0.5)
    p.add_argument("--eset-density", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_gen_msp)

    p = sub.add_parser("gen-graph", help="generate a random undirected graph")
    p.add_argument("--vertices", type=int, required=True)
    p.add_argument("--edge-prob", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_gen_graph)

    p = sub.add_parser("fuzz", help="run a differential campaign")
    p.add_argument("--config", required=True, help="campaign config file (key = value lines)")
    p.add_argument("--out", default=None, help=f"output directory (default ${ARCHIVE_ENV})")
    p.add_argument("--resume", action="store_true", help="continue from the last checkpoint")
    p.add_argument("--machine", action="store_true")
    p.set_defaults(func=_cmd_fuzz)

    p = sub.add_parser("minimize", help="shrink a candidate counterexample")
    p.add_argument("instance", help="instance file, or - for stdin")
    p.add_argument("--budget", type=int, default=500, help="max predicate evaluations")
    p.add_argument("--oracle-max-nodes", type=int, default=10_000_000)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_minimize)

    p = sub.add_parser("bench", help="wall-time scaling study over growing instances")
    p.add_argument("--widths", default="2,3,4,6")
    p.add_argument("--stages", type=int, default=6)
    p.add_argument("--reps", type=int, default=3)
    p.add_argument("--machine", action="store_true")
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CliFailure as failure:
        print(f"msplab: {failure.message}", file=sys.stderr)
        return failure.status
    except InvalidGraphError as exc:
        print(f"msplab: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except AbnormalTerminationError as exc:
        print(f"msplab: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except BrokenPipeError:
        return EXIT_FILE


if __name__ == "__main__":
    sys.exit(main())
