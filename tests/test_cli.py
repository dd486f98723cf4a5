import errno
import json
import os
from pathlib import Path

import pytest

from mfopt.cli import main
from mfopt.tasks import TspInstance

from conftest import format_tsplib


@pytest.fixture
def env_file(tmp_path):
    import numpy as np
    a = TspInstance(name="sq", coords=np.array(
        [[0.0, 0.0], [10.0, 0.0], [10.0, 10.0], [0.0, 10.0]]))
    b = TspInstance(name="ln", coords=np.array(
        [[float(i), 0.0] for i in range(5)]))
    (tmp_path / "sq.tsp").write_text(format_tsplib(a))
    (tmp_path / "ln.tsp").write_text(format_tsplib(b))
    cfg = tmp_path / "env.json"
    cfg.write_text(json.dumps({"name": "cli_env",
                               "instances": ["sq.tsp", "ln.tsp"]}))
    return cfg


def test_run_subcommand(env_file, tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["run", str(env_file), "--engine", "MFEA", "--budget", "300",
               "--pop", "10", "--outdir", str(out)])
    assert rc == 0
    captured = capsys.readouterr().out
    assert "best cost" in captured
    assert list(out.glob("cli_env__MFEA__single.jsonl"))


def test_run_is_repetition_zero_of_bench(tmp_path, capsys):
    flags = ["--budget", "1000", "--pop", "20", "--seed", "7", "--outdir", str(tmp_path)]
    assert main(["run", "TE_4_3", "--engine", "MFEA", *flags]) == 0
    assert main(["bench", "TE_4_3", "--engines", "MFEA", "--reps", "1", *flags]) == 0
    single = (tmp_path / "TE_4_3__MFEA__single.jsonl").read_bytes()
    assert single == (tmp_path / "TE_4_3__MFEA__rep000.jsonl").read_bytes()


def _bench_then_report(env_file, out, engines):
    # Engines run in one fixed order, once each, so report rebuilds the
    # table bench wrote byte for byte.
    rc = main(["bench", str(env_file), "--budget", "300", "--pop", "10",
               "--reps", "2", "--outdir", str(out), *engines])
    assert rc == 0
    first = (out / "summary.csv").read_text()
    assert "cli_env" in first

    rc = main(["report", str(env_file), "--outdir", str(out)])
    assert rc == 0
    assert (out / "summary.csv").read_text() == first


def test_bench_and_report_subcommands(env_file, tmp_path, capsys):
    _bench_then_report(env_file, tmp_path / "out", [])


@pytest.mark.parametrize("engines", [
    ["dMFEA-II", "MFEA"], ["MFEA", "MFEA"], ["MFEA"],
], ids=" ".join)
def test_bench_and_report_engine_orders(engines, env_file, tmp_path, capsys):
    _bench_then_report(env_file, tmp_path / "out", ["--engines", *engines])


def test_missing_subcommand_errors():
    with pytest.raises(SystemExit):
        main([])


@pytest.mark.parametrize("argv", [
    ["run", "TE_99"],
    ["run", "TE_4_1", "--pop", "7"],
    ["run", "TE_4_1", "--budget", "10"],
    ["bench", "TE_4_1", "--rmp-init", "1.5"],
    ["bench", "TE_4_1", "--reps", "0"],
    ["report", "TE_99"],
], ids=" ".join)
def test_bad_input_is_a_usage_error(argv, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--outdir", str(tmp_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1].startswith("mfopt: error: ")


def test_non_numeric_engine_flag_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "TE_4_1", "--pm", "x", "--outdir", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "argument --pm: invalid float value: 'x'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "bench"])
@pytest.mark.parametrize("outdir", ["file", "file/x"])
def test_unusable_outdir_is_a_usage_error(command, outdir, tmp_path, capsys, monkeypatch):
    (tmp_path / "file").write_text("")
    searched = []
    monkeypatch.setattr("mfopt.harness._run_one", lambda *a: searched.append(a))
    monkeypatch.setattr("mfopt.cli.run_experiment", lambda *a: searched.append(a))
    with pytest.raises(SystemExit) as exc:
        main([command, "TE_4_1", "--budget", "800", "--outdir", str(tmp_path / outdir)])
    assert exc.value.code == 2
    assert not searched  # refused before any search
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1].startswith("mfopt: error: cannot create output directory ")


@pytest.mark.parametrize("command", ["run", "bench", "report"])
def test_unwritable_output_is_a_usage_error(command, tmp_path, capsys, monkeypatch):
    # The file the command writes is a directory: exit 2 with one line naming it,
    # and run and bench refuse it before their search.
    flags = ["--budget", "200", "--pop", "20", "--outdir", str(tmp_path)]
    blocked = tmp_path / ("TE_4_3__MFEA__single.jsonl" if command == "run" else "summary.csv")
    if command == "report":  # traces to report on
        assert main(["bench", "TE_4_3", "--reps", "2", *flags]) == 0
        blocked.unlink()
        flags = flags[-2:]
    blocked.mkdir()
    searched = []
    if command == "run":
        monkeypatch.setattr("mfopt.harness._run_one", lambda *a: searched.append(a))
    argv = {"run": ["--engine", "MFEA"], "bench": ["--reps", "2"], "report": []}[command]
    with pytest.raises(SystemExit) as exc:
        main([command, "TE_4_3", *argv, *flags])
    assert exc.value.code == 2
    assert not searched
    if command == "bench":  # no trace written before the refusal
        assert not list(tmp_path.glob("*.jsonl"))
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1] == f"mfopt: error: cannot write {blocked}: Is a directory"


def test_bench_aggregates_only_the_traces_it_wrote(tmp_path, capsys):
    # bench reads back the rep000 and rep001 traces it wrote, so stale rep002..rep005
    # traces from an earlier --reps 6 bench leave its table as in a clean directory.
    # report still merges such files through its rep* glob (ROADMAP item 4).
    flags = ["--budget", "200", "--pop", "20", "--outdir"]
    assert main(["bench", "TE_4_3", "--reps", "6", *flags, str(tmp_path / "stale")]) == 0
    assert (tmp_path / "stale" / "TE_4_3__MFEA__rep005.jsonl").exists()
    for outdir in ("stale", "clean"):
        assert main(["bench", "TE_4_3", "--reps", "2", *flags, str(tmp_path / outdir)]) == 0
    clean = (tmp_path / "clean" / "summary.csv").read_text()
    assert (tmp_path / "stale" / "summary.csv").read_text() == clean
    assert main(["report", "TE_4_3", "--outdir", str(tmp_path / "stale")]) == 0
    assert (tmp_path / "stale" / "summary.csv").read_text() != clean


def _vrp(dimension, edge_weight_type="EUC_2D"):
    """CVRP file text: node 1 is the depot, nodes 2..dimension customers."""
    nodes = range(1, dimension + 1)
    return "\n".join([
        "NAME : small", "TYPE : CVRP", f"DIMENSION : {dimension}",
        f"EDGE_WEIGHT_TYPE : {edge_weight_type}", "CAPACITY : 10",
        "NODE_COORD_SECTION", *(f"{i} {i} 0" for i in nodes),
        "DEMAND_SECTION", *(f"{i} {int(i > 1)}" for i in nodes),
        "DEPOT_SECTION", "1", "-1", "EOF", ""])


BAD_INSTANCES = {
    "bad.tsp": "NAME: bad\nTYPE: TSP\n",
    "geo.vrp": _vrp(3, "GEO"),
    "negative.vrp": _vrp(-1),
    "depot.vrp": _vrp(1),
    "one.vrp": _vrp(2),
    "repeated_demand.vrp": _vrp(3).replace("\n3 1\n", "\n3 1\n3 2\n"),
    "repeated_node.vrp": _vrp(3).replace("\n3 3 0\n", "\n2 3 0\n"),
    "nan.vrp": _vrp(3).replace("\n2 2 0\n", "\n2 nan 0\n"),
    "inf.vrp": _vrp(3).replace("\n2 2 0\n", "\n2 2 inf\n"),
    "1e400.vrp": _vrp(3).replace("\n2 2 0\n", "\n2 1e400 0\n"),
    "repeated_section.vrp": _vrp(3).replace(
        "DEMAND_SECTION", "NODE_COORD_SECTION\n1 1 0\n2 2 0\n3 3 0\nDEMAND_SECTION"),
    "repeated_keyword.vrp": _vrp(3).replace("CAPACITY : 10", "CAPACITY : 10\nCAPACITY : 3"),
    "depot_demand.vrp": _vrp(3).replace("\n1 0\n", "\n1 2\n"),
    "good.vrp": _vrp(3),
}


@pytest.mark.parametrize("spec", [
    {"name": "x"},
    {"name": "x", "instances": []},
    {"name": "x", "instances": ["missing.tsp"]},
    {"name": "x", "instances": ["bad.tsp"]},
    b'{"instances": ["bad.tsp"]',
    b"\xff\xfe",
    "directory",
    "unreadable",
    {"name": "x", "instances": ["geo.vrp"]},
    {"name": "x", "instances": ["negative.vrp"]},
    {"name": "x", "instances": ["depot.vrp"]},
    {"name": "x", "instances": ["one.vrp"]},
    {"name": "x", "instances": ["repeated_demand.vrp"]},
    {"name": "x", "instances": ["repeated_node.vrp"]},
    {"name": "x", "instances": ["nan.vrp"]},
    {"name": "x", "instances": ["inf.vrp"]},
    {"name": "x", "instances": ["1e400.vrp"]},
    {"name": "x", "instances": ["repeated_section.vrp"]},
    {"name": "x", "instances": ["repeated_keyword.vrp"]},
    {"name": "x", "instances": ["depot_demand.vrp"]},
    {"name": "a/b", "instances": ["good.vrp"]},
    {"name": 7, "instances": ["good.vrp"]},
    {"name": "", "instances": ["good.vrp"]},
    {"name": "rep[1]", "instances": ["good.vrp"]},
], ids=["no instances", "empty instances", "missing instance file",
        "malformed instance file", "JSON syntax error", "not UTF-8", "directory",
        "unreadable file", "GEO CVRP", "negative DIMENSION", "depot-only CVRP",
        "one-customer CVRP", "repeated demand id", "repeated node id",
        "nan coordinate", "inf coordinate", "1e400 coordinate", "repeated section",
        "repeated keyword", "depot demand", "name with /",
        "non-string name", "empty name", "name with glob characters"])
def test_bad_environment_file_is_a_usage_error(spec, tmp_path, capsys, monkeypatch):
    for name, text in BAD_INSTANCES.items():
        (tmp_path / name).write_text(text)
    cfg = tmp_path / "env.json"
    if spec == "directory":
        cfg.mkdir()
    elif isinstance(spec, bytes):
        cfg.write_bytes(spec)
    else:
        cfg.write_text(json.dumps(spec))
    if spec == "unreadable":
        # File modes do not stop a superuser from reading, so deny the read here.
        read_text = Path.read_text

        def denied(path, *args, **kwargs):
            if path == cfg:
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))
            return read_text(path, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", denied)
    with pytest.raises(SystemExit) as exc:
        main(["run", str(cfg), "--outdir", str(tmp_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1].startswith(f"mfopt: error: {cfg}: ")
    assert err.count("mfopt: error:") == 1


def _three_costs(text):
    *head, last = text.splitlines()
    record = json.loads(last)
    record["best_costs"] = record["best_costs"][:3]
    return "\n".join([*head, json.dumps(record)]) + "\n"


def _first_cost(value):
    def damage(text):
        *head, last = text.splitlines()
        record = json.loads(last)
        record["best_costs"][0] = value
        return "\n".join([*head, json.dumps(record)]) + "\n"
    return damage


@pytest.mark.parametrize("damage, traces", [
    (lambda text: "", 1),
    (lambda text: '{"gen": 0}\n', 1),
    (lambda text: text[:-2], 1),
    (_three_costs, 1),
    (_three_costs, 2),
    (_first_cost(None), 1),
    (_first_cost("12"), 1),
    (_first_cost(True), 1),
    (_first_cost(float("inf")), 1),
], ids=["empty", "unknown field", "truncated JSON", "3 costs in one trace",
        "3 costs in both traces", "null cost", "string cost", "true cost",
        "Infinity cost"])
def test_damaged_trace_is_a_usage_error(damage, traces, tmp_path, capsys):
    assert main(["bench", "TE_4_1", "--budget", "100", "--pop", "10", "--reps", "2",
                 "--outdir", str(tmp_path)]) == 0
    paths = sorted(tmp_path.glob("TE_4_1__MFEA__rep*.jsonl"))[:traces]
    for path in paths:
        path.write_text(damage(path.read_text()))
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["report", "TE_4_1", "--outdir", str(tmp_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("mfopt: error:") == 1
    assert err.splitlines()[-1].startswith(f"mfopt: error: {paths[0]}: ")
