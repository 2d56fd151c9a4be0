from __future__ import annotations

import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from msplab import lab
from msplab.cli import (
    EXIT_FILE,
    EXIT_FORMAT,
    EXIT_INTERNAL,
    EXIT_INVALID,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from msplab.formats import parse_instance, parse_ugraph
from msplab.model import AbnormalTerminationError
from msplab.zh import zh_solve

FIXTURES = Path(__file__).parent / "fixtures"


def run_cli(capsys, *argv):
    status = main(list(argv))
    out = capsys.readouterr()
    return status, out.out, out.err


def test_solve_fixture_prints_verdict_and_size(capsys):
    status, out, _ = run_cli(capsys, "solve", str(FIXTURES / "chain_c.msp"))
    assert status == EXIT_OK
    assert out.splitlines() == ["YES", "final set size: 3"]


def test_solve_no_instance_still_exits_zero(capsys):
    status, out, _ = run_cli(capsys, "solve", str(FIXTURES / "chain_cprime.msp"))
    assert status == EXIT_OK
    assert out.splitlines()[0] == "NO"


def test_solve_machine_record(capsys):
    status, out, _ = run_cli(capsys, "solve", "--machine", str(FIXTURES / "chain_c.msp"))
    assert status == EXIT_OK
    record = json.loads(out)
    assert record["answer"] == "YES"
    assert record["final_set"] == [0, 1, 2]


def test_solve_trace_written(capsys, tmp_path):
    trace_path = tmp_path / "trace.jsonl"
    status, _, _ = run_cli(
        capsys, "solve", "--trace", str(trace_path), str(FIXTURES / "chain_cprime.msp")
    )
    assert status == EXIT_OK
    events = [json.loads(line) for line in trace_path.read_text().splitlines()]
    assert {"event": "r_init", "edge": 0, "value": []} in events


def test_solve_trace_unwritable_exits_file_error(capsys, tmp_path):
    trace_path = tmp_path / "missing-dir" / "trace.jsonl"
    status, out, err = run_cli(
        capsys, "solve", "--trace", str(trace_path), str(FIXTURES / "chain_c.msp")
    )
    assert status == EXIT_FILE
    assert out == ""
    assert f"cannot write {trace_path}" in err


def test_solve_trace_dash_goes_to_stdout(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    status, out, _ = run_cli(capsys, "solve", "--trace", "-", str(FIXTURES / "chain_cprime.msp"))
    assert status == EXIT_OK
    lines = out.splitlines()
    events = [json.loads(line) for line in lines[:-2]]
    assert {"event": "r_init", "edge": 0, "value": []} in events
    assert lines[-2:] == ["NO", "final set size: 0"]
    assert not (tmp_path / "-").exists()


def test_oracle_reports_witness(capsys):
    status, out, _ = run_cli(capsys, "oracle", "--machine", str(FIXTURES / "chain_c.msp"))
    assert status == EXIT_OK
    assert json.loads(out)["witness"] == ["S", "a", "b", "D"]


def test_reduce_then_solve_pipe(capsys, tmp_path):
    out_file = tmp_path / "k3.msp"
    status, _, _ = run_cli(
        capsys, "reduce", str(FIXTURES / "k3.graph"), "--pivot", "1", "-o", str(out_file)
    )
    assert status == EXIT_OK
    status, out, _ = run_cli(capsys, "solve", str(out_file))
    assert status == EXIT_OK
    assert out.splitlines()[0] == "YES"


def test_reduce_p3_solves_no(capsys, tmp_path):
    out_file = tmp_path / "p3.msp"
    assert run_cli(capsys, "reduce", str(FIXTURES / "p3.graph"), "-o", str(out_file))[0] == EXIT_OK
    status, out, _ = run_cli(capsys, "oracle", str(out_file))
    assert status == EXIT_OK
    assert out.splitlines()[0] == "NO"


def test_reduce_machine_record_is_its_stats(capsys, tmp_path):
    out_file = tmp_path / "k3.msp"
    status, out, _ = run_cli(
        capsys, "reduce", str(FIXTURES / "k3.graph"), "--machine", "-o", str(out_file)
    )
    assert status == EXIT_OK
    g = parse_instance(out_file.read_text())
    record = json.loads(out)
    assert record.pop("command") == "reduce"
    assert record == {
        "order": 3,
        "internal_vertices": 4,
        "vertices": g.vertex_count(),
        "edges": g.edge_count,
    }


@pytest.mark.parametrize(
    "graph,argv,message",
    [
        ("1 2\n2 3\n1 3\n", ["--pivot", "4"], "pivot 4 not a vertex"),
        ("1 2\n2 3\n1 3\n", ["--pivot", "0"], "pivot 0 not a vertex"),
        ("1 2\n2 x\n", [], "E_BAD_INT"),
    ],
)
def test_reduce_bad_pivot_or_graph_exits_format_error(capsys, tmp_path, graph, argv, message):
    path = tmp_path / "in.graph"
    path.write_text(graph)
    status, out, err = run_cli(capsys, "reduce", str(path), *argv)
    assert status == EXIT_FORMAT
    assert message in err and out == ""


def test_reduce_refuses_an_oversize_reduction(capsys, tmp_path):
    """K_60 would reduce to 3,481 internal vertices with 198,594-bit edge
    sets; the reduction refuses it before building it, as a format error."""
    path, target = tmp_path / "k60.graph", tmp_path / "k60.msp"
    path.write_text("".join(f"{a} {b}\n" for a in range(1, 61) for b in range(a + 1, 61)))
    status, out, err = run_cli(capsys, "reduce", str(path), "-o", str(target))
    assert status == EXIT_FORMAT
    assert "edge-set bits, over 268,435,456" in err
    assert out == "" and not target.exists()


def test_instance_read_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO((FIXTURES / "chain_c.msp").read_text()))
    status, out, _ = run_cli(capsys, "solve", "-")
    assert status == EXIT_OK
    assert out.splitlines()[0] == "YES"


@pytest.mark.parametrize("command", ["solve", "oracle", "minimize"])
def test_invalid_instance_lists_every_violation(capsys, tmp_path, command):
    path = tmp_path / "invalid.msp"
    path.write_text("msp 1\nstages 1\nvertex S 0\nvertex S2 0\nvertex D 1\nedge 0 S D 1\n")
    status, out, err = run_cli(capsys, command, str(path))
    assert status == EXIT_INVALID
    assert out == ""
    assert err == (
        "msplab: instance fails validation:\n"
        "  MULTI_SOURCE at stage 0: stage 0 has 2 vertices: S, S2\n"
        "  MISSING_ESET at vertex D: vertex has no edge set\n"
    )


def test_stdin_pipe_through_processes(tmp_path):
    reduced = subprocess.run(
        [sys.executable, "-m", "msplab.cli", "reduce", str(FIXTURES / "k3.graph")],
        capture_output=True,
        text=True,
        check=True,
    )
    solved = subprocess.run(
        [sys.executable, "-m", "msplab.cli", "solve", "-"],
        input=reduced.stdout,
        capture_output=True,
        text=True,
        check=True,
    )
    assert solved.stdout.splitlines()[0] == "YES"


def test_gen_msp_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.msp", tmp_path / "b.msp"
    for target in (a, b):
        status, _, _ = run_cli(
            capsys, "gen-msp", "--widths", "1,3,3,1", "--seed", "11", "-o", str(target)
        )
        assert status == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_gen_graph_and_reduce_round(capsys, tmp_path):
    graph_file = tmp_path / "g.graph"
    status, _, _ = run_cli(
        capsys, "gen-graph", "--vertices", "5", "--edge-prob", "0.8", "--seed", "3",
        "-o", str(graph_file),
    )
    assert status == EXIT_OK
    status, _, _ = run_cli(capsys, "reduce", str(graph_file), "-o", str(tmp_path / "g.msp"))
    assert status == EXIT_OK


def test_fuzz_writes_report_and_archive(capsys, tmp_path):
    config = tmp_path / "campaign.cfg"
    config.write_text(
        "instances = 25\nseed = 0\nstages_min = 3\nstages_max = 4\nwidth_max = 3\n"
        "edge_density = 0.7\neset_densities = 0.5,0.8\noracle_max_nodes = 100000\nworkers = 1\n"
    )
    out_dir = tmp_path / "campaign-out"
    status, out, _ = run_cli(
        capsys, "fuzz", "--config", str(config), "--out", str(out_dir), "--machine"
    )
    assert status == EXIT_OK
    record = json.loads(out)
    assert record["instances"] == 25
    assert sum(record["totals"].values()) == 25
    assert (out_dir / "report.txt").exists()
    assert (out_dir / "report.jsonl").exists()


def test_fuzz_default_out_from_environment(capsys, tmp_path, monkeypatch):
    config = tmp_path / "campaign.cfg"
    config.write_text("instances = 5\nstages_min = 3\nstages_max = 3\nwidth_max = 2\n")
    monkeypatch.setenv("MSPLAB_ARCHIVE", str(tmp_path / "env-out"))
    status, _, _ = run_cli(capsys, "fuzz", "--config", str(config))
    assert status == EXIT_OK
    assert (tmp_path / "env-out" / "report.txt").exists()


@pytest.mark.parametrize(
    "lines",
    [
        "instances = -5",
        "stages_min = 9\nstages_max = 4",
        "stages_min = 0",
        "width_max = 0",
        "eset_densities = 1.5",
        "edge_density = -0.1",
        "oracle_max_nodes = 0",
        "workers = 0",
        "minimize_budget = 0",
        "stages_max = 1001",
        "width_max = 1001",
        "instances = 5\ninstances = 7",
        "instances = 1_0",
        "instances = +4",
        "instances = \u0663",
        "edge_density = \u0660.\u0665",
        "edge_density = 0_5e-1",
        "eset_densities = 0.3,\u0660.\u0665",
    ],
)
def test_fuzz_bad_campaign_config_exits_format_error(capsys, tmp_path, lines):
    config = tmp_path / "campaign.cfg"
    config.write_text(lines + "\n", encoding="utf-8")
    status, _, err = run_cli(capsys, "fuzz", "--config", str(config), "--out", str(tmp_path / "out"))
    assert status == EXIT_FORMAT
    assert "bad campaign config" in err
    assert not (tmp_path / "out").exists()


def run_small_campaign(capsys, tmp_path, *argv):
    config = tmp_path / "campaign.cfg"
    if not config.exists():
        config.write_text("instances = 5\nstages_min = 3\nstages_max = 3\nwidth_max = 2\n")
    return run_cli(capsys, "fuzz", "--config", str(config), "--out", str(tmp_path / "out"), *argv)


def test_fuzz_resume_with_another_config_exits_format_error(capsys, tmp_path):
    assert run_small_campaign(capsys, tmp_path)[0] == EXIT_OK
    (tmp_path / "campaign.cfg").write_text("instances = 5\nstages_min = 3\nstages_max = 4\n")
    status, out, err = run_small_campaign(capsys, tmp_path, "--resume")
    assert status == EXIT_FORMAT
    assert out == ""
    assert err.strip() == (
        "msplab: cannot resume campaign: resume requested with a different configuration"
    )


def test_fuzz_resume_from_a_truncated_checkpoint_exits_format_error(capsys, tmp_path):
    assert run_small_campaign(capsys, tmp_path)[0] == EXIT_OK
    progress = tmp_path / "out" / "progress.json"
    progress.write_text(progress.read_text()[:20])
    status, out, err = run_small_campaign(capsys, tmp_path, "--resume")
    assert status == EXIT_FORMAT
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "unreadable progress file" in err


def _with_totals(state, **changes):
    return {**state, "totals": {**state["totals"], **changes}}


@pytest.mark.parametrize(
    "damage",
    [
        lambda state: {},
        lambda state: [1],
        lambda state: {**state, "config": [5]},
        lambda state: {**state, "done": "5"},
        lambda state: _with_totals({**state, "done": 7}, AGREE_NO=state["totals"]["AGREE_NO"] + 2),
        lambda state: {**state, "done": -1},
        lambda state: {**state, "done": True},
        lambda state: _with_totals(state, AGREE_NO=2.5),
        lambda state: _with_totals(state, AGREE_NO=state["totals"]["AGREE_NO"] + 1),
        lambda state: {**state, "totals": {"AGREE_NO": 5}},
        lambda state: {**state, "totals": [5]},
        lambda state: {**state, "findings": "none"},
        lambda state: {**state, "findings": [1]},
        lambda state: {
            **state,
            "totals": {**dict.fromkeys(state["totals"], 0), "UNKNOWN": 5},
            "findings": [],
        },
    ],
    ids=[
        "empty-dict",
        "list",
        "config-not-dict",
        "done-not-int",
        "done-past-instances",
        "done-negative",
        "done-bool",
        "total-not-int",
        "totals-miss-done",
        "totals-missing-kinds",
        "totals-not-dict",
        "findings-not-list",
        "finding-not-str",
        "findings-miss-totals",
    ],
)
def test_fuzz_resume_from_a_misshapen_checkpoint_exits_format_error(capsys, tmp_path, damage):
    """A checkpoint that parses but is not one this campaign wrote is
    refused like an unparsable one, before any instance runs."""
    assert run_small_campaign(capsys, tmp_path)[0] == EXIT_OK
    progress = tmp_path / "out" / "progress.json"
    state = json.loads(progress.read_text())
    assert state["done"] == 5
    progress.write_text(json.dumps(damage(state)))
    status, out, err = run_small_campaign(capsys, tmp_path, "--resume")
    assert status == EXIT_FORMAT
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "unreadable progress file" in err


def test_fuzz_resume_without_an_output_directory_exits_usage_error(capsys, tmp_path, monkeypatch):
    """With neither ``--out`` nor ``MSPLAB_ARCHIVE`` there is no checkpoint
    to resume from, so ``--resume`` is refused before any seed runs."""
    monkeypatch.delenv("MSPLAB_ARCHIVE", raising=False)
    monkeypatch.setattr(lab, "gen_msp", None)  # a seed that runs would raise
    config = tmp_path / "campaign.cfg"
    config.write_text("instances = 5\n")
    status, out, err = run_cli(capsys, "fuzz", "--config", str(config), "--resume")
    assert status == EXIT_USAGE
    assert out == ""
    assert err.strip() == "msplab: --resume needs --out or $MSPLAB_ARCHIVE to resume from"


def test_fuzz_treats_an_empty_archive_variable_as_unset(capsys, tmp_path, monkeypatch):
    """``MSPLAB_ARCHIVE=`` names no directory: a campaign writes nothing into
    the working directory, and ``--resume`` has nowhere to resume from."""
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    monkeypatch.setenv("MSPLAB_ARCHIVE", "")
    config = tmp_path / "campaign.cfg"
    config.write_text("instances = 3\nstages_min = 3\nstages_max = 3\nwidth_max = 2\n")
    status, out, _ = run_cli(capsys, "fuzz", "--config", str(config), "--machine")
    assert status == EXIT_OK
    assert json.loads(out)["instances"] == 3
    assert list(cwd.iterdir()) == []
    status, out, err = run_cli(capsys, "fuzz", "--config", str(config), "--resume")
    assert status == EXIT_USAGE
    assert out == ""
    assert err.strip() == "msplab: --resume needs --out or $MSPLAB_ARCHIVE to resume from"
    assert list(cwd.iterdir()) == []


def test_fuzz_out_naming_a_file_exits_file_error(capsys, tmp_path):
    (tmp_path / "out").write_text("not a directory\n")
    status, out, err = run_small_campaign(capsys, tmp_path)
    assert status == EXIT_FILE
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "cannot write campaign output" in err


@pytest.mark.parametrize(
    "argv,most,too_many,parse",
    [
        (
            ["gen-msp", "--eset-density", "0", "--widths"],
            ",".join(["1"] * 1001),
            ",".join(["1"] * 1002),
            parse_instance,
        ),
        (["gen-graph", "--edge-prob", "0", "--vertices"], "1000", "1001", parse_ugraph),
        # a stage wider than the parsers' count is refused before anything is built
        (["gen-msp", "--widths"], "1,1000,1", "1,100000000,1", parse_instance),
    ],
)
def test_generators_write_only_what_the_parsers_read(capsys, tmp_path, argv, most, too_many, parse):
    """The largest counts the parsers accept are generated; one more is a
    format error with no output, not a file that ``solve`` or ``reduce``
    would reject."""
    target = tmp_path / "out.txt"
    assert run_cli(capsys, *argv, most, "-o", str(target))[0] == EXIT_OK
    parse(target.read_text())
    target.unlink()
    status, out, err = run_cli(capsys, *argv, too_many, "-o", str(target))
    assert status == EXIT_FORMAT
    assert "1000" in err
    assert out == "" and not target.exists()


@pytest.mark.parametrize("budget", ["0", "-3"])
def test_minimize_bad_budget_exits_format_error(capsys, budget):
    status, out, err = run_cli(capsys, "minimize", "--budget", budget, str(FIXTURES / "chain_c.msp"))
    assert status == EXIT_FORMAT
    assert "bad budget" in err
    assert out == ""


def test_minimize_rejects_non_counterexample(capsys):
    status, _, err = run_cli(capsys, "minimize", str(FIXTURES / "chain_c.msp"))
    assert status == EXIT_INVALID
    assert "not a candidate counterexample" in err


def test_minimize_checks_its_input_once(capsys, monkeypatch):
    calls = []

    def counting(g, **kwargs):
        calls.append(g)
        return zh_solve(g, **kwargs)

    monkeypatch.setattr(lab, "zh_solve", counting)
    argv = ["minimize", "--budget", "1", str(FIXTURES / "j5_a0_sink81.msp")]
    status, out, _ = run_cli(capsys, *argv)
    assert status == EXIT_OK
    assert len(calls) == 1
    assert parse_instance(out) == calls[0]  # the budget allows no move


def test_minimize_abnormal_termination_exits_internal(capsys, monkeypatch):
    def overrun(g, **kwargs):
        raise AbnormalTerminationError("no fixpoint after 0 sweeps (bound 0)")

    monkeypatch.setattr(lab, "zh_solve", overrun)
    status, _, err = run_cli(capsys, "minimize", str(FIXTURES / "chain_c.msp"))
    assert status == EXIT_INTERNAL
    assert "no fixpoint" in err


@pytest.mark.parametrize(
    "widths", ["1,x,1", "1,0,1", "1", "1,\u0663,1", "1, +2 ,1", "1,1_0,1"]
)
def test_gen_msp_bad_shape_exits_format_error(capsys, tmp_path, widths):
    """A width that is not an integer in ASCII digits with an optional
    minus (the instance files' rule), a zero-width stage or a one-item
    width list (no stage at all) is a format error with no output."""
    target = tmp_path / "out.msp"
    status, out, err = run_cli(capsys, "gen-msp", "--widths", widths, "-o", str(target))
    assert status == EXIT_FORMAT
    assert "bad shape" in err
    assert out == "" and not target.exists()


def test_gen_msp_refuses_an_oversized_draw_before_drawing(capsys, tmp_path, monkeypatch):
    """Four 1,000-wide stages would make the edge-set draw ask numpy for
    gigabytes; the shape check refuses them before any stream is drawn."""

    def no_draw(*args):
        raise AssertionError("gen-msp drew before checking the shape")

    monkeypatch.setattr(lab, "_stream", no_draw)
    target = tmp_path / "out.msp"
    widths = "1,1000,1000,1000,1000,1"
    status, out, err = run_cli(capsys, "gen-msp", "--widths", widths, "-o", str(target))
    assert status == EXIT_FORMAT
    assert "bad shape" in err and "cells exceeds" in err
    assert len(err.splitlines()) == 1  # a message, not a traceback
    assert out == "" and not target.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["oracle", "--max-nodes", "0"],
        ["oracle", "--max-nodes", "-1"],
        ["oracle", "--max-seconds", "-1"],
        ["oracle", "--max-seconds", "nan"],
        ["minimize", "--oracle-max-nodes", "0"],
    ],
)
def test_bad_search_budget_exits_format_error(capsys, argv):
    """A budget that cannot search is an input error, not a TIMEOUT or a
    verdict on the instance."""
    status, out, err = run_cli(capsys, *argv, str(FIXTURES / "chain_c.msp"))
    assert status == EXIT_FORMAT
    assert "bad search budget" in err
    assert out == ""


@pytest.mark.parametrize(
    "flag,value,answer", [("--max-nodes", "1", "TIMEOUT"), ("--max-seconds", "0", "YES")]
)
def test_smallest_search_budgets_are_accepted(capsys, flag, value, answer):
    status, out, _ = run_cli(capsys, "oracle", flag, value, str(FIXTURES / "chain_c.msp"))
    assert status == EXIT_OK
    assert out.splitlines()[0] == answer


def test_exit_codes_for_bad_inputs(capsys, tmp_path):
    status, _, err = run_cli(capsys, "solve", str(tmp_path / "missing.msp"))
    assert status == EXIT_FILE
    bad = tmp_path / "bad.msp"
    bad.write_text("not an instance\n")
    status, _, err = run_cli(capsys, "solve", str(bad))
    assert status == EXIT_FORMAT
    invalid = tmp_path / "invalid.msp"
    invalid.write_text("msp 1\nstages 1\nvertex S 0\nvertex D 1\n")  # sink eset missing
    status, _, err = run_cli(capsys, "solve", str(invalid))
    assert status == EXIT_INVALID
    assert "MISSING_ESET" in err


def test_solve_rejects_a_huge_stage_count_as_a_format_error(capsys, tmp_path):
    """A few bytes must not size per-stage tables by a count they declare."""
    huge = tmp_path / "huge.msp"
    huge.write_text("msp 1\nstages 99999999999\nvertex S 0\n")
    status, _, err = run_cli(capsys, "solve", str(huge))
    assert status == EXIT_FORMAT
    assert "E_TOO_LARGE" in err


def test_usage_error_exit_code(capsys):
    # a missing instance argument; an unknown subcommand
    for argv in (["solve"], ["bench"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
