import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mfopt.cli import main
from mfopt.engines import EngineConfig
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


def test_run_needs_only_numpy(tmp_path):
    # pyproject.toml lists numpy alone, so a run must not import a test package.
    code = ("import sys\n"
            "class Refuse:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name.split('.')[0] in {'scipy', 'hypothesis', 'pytest', '_pytest'}:\n"
            "            raise ImportError(f'{name} is refused')\n"
            "sys.meta_path.insert(0, Refuse())\n"
            "from mfopt.cli import main\n"
            "sys.exit(main(['run', 'TE_4_1', '--budget', '2000', '--pop', '20', '--outdir', '.']))\n")
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert list(tmp_path.glob("TE_4_1__dMFEA_II__single.jsonl"))


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


def test_every_engine_flag_reaches_its_field(tmp_path, monkeypatch):
    # Each flag spelled out with its own value, not read from cli.ENGINE_FLAGS,
    # so a flag wired to another field fails.
    class Searched(Exception):
        pass

    configs = []

    def record(engine, tasks, config, seed_seq):
        configs.append(config)
        raise Searched

    monkeypatch.setattr("mfopt.harness._run_one", record)
    with pytest.raises(Searched):
        main(["run", "TE_4_1", "--budget", "1234", "--pop", "12", "--seed", "5", "--w", "0.3",
              "--pm", "0.4", "--rmp", "0.6", "--rmp-init", "0.7", "--delta-inc", "0.8",
              "--delta-dec", "0.9", "--outdir", str(tmp_path)])
    (config,) = configs
    assert vars(config) == vars(EngineConfig(
        eval_budget=1234, population_size=12, seed=5, w=0.3, p_m=0.4, rmp_scalar=0.6,
        rmp_init=0.7, delta_inc=0.8, delta_dec=0.9))


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


@pytest.mark.parametrize("case", ["run", "bench", "report", "late"])
def test_unwritable_output_is_a_usage_error(case, tmp_path, capsys, monkeypatch):
    # The file the command writes is a directory: exit 2 with one line naming it,
    # before any search or write. report writes summary.csv before results.json.
    # Late: run's trace is a dangling link into a missing directory, which only the
    # write after the search finds; that too is one line and exit 2.
    command = "run" if case == "late" else case
    flags = ["--budget", "200", "--pop", "20", "--outdir", str(tmp_path)]
    blocked = tmp_path / {"run": "TE_4_3__MFEA__single.jsonl", "bench": "summary.csv",
                          "report": "results.json"}[command]
    if command == "report":  # traces to report on, and a summary it must leave alone
        assert main(["bench", "TE_4_3", "--reps", "2", *flags]) == 0
        blocked.unlink()
        (tmp_path / "summary.csv").write_text("stub\n")
        flags = flags[-2:]
    if case == "late":
        blocked.symlink_to(tmp_path / "missing" / "trace.jsonl")
    else:
        blocked.mkdir()
    searched = []
    if case == "run":
        monkeypatch.setattr("mfopt.harness._run_one", lambda *a: searched.append(a))
    argv = {"run": ["--engine", "MFEA"], "bench": ["--reps", "2"], "report": []}[command]
    with pytest.raises(SystemExit) as exc:
        main([command, "TE_4_3", *argv, *flags])
    assert exc.value.code == 2
    assert not searched
    if command == "bench":  # no trace written before the refusal
        assert not list(tmp_path.glob("*.jsonl"))
    if command == "report":
        assert (tmp_path / "summary.csv").read_text() == "stub\n"
    err = capsys.readouterr().err
    assert "Traceback" not in err
    reason = "No such file or directory" if case == "late" else "Is a directory"
    assert err.splitlines()[-1] == f"mfopt: error: cannot write {blocked}: {reason}"


def test_bench_aggregates_only_the_traces_it_wrote(tmp_path, capsys):
    # bench reads back the rep000 and rep001 traces it wrote, so stale rep002..rep005
    # traces from an earlier --reps 6 bench leave its table as in a clean directory.
    # report still merges such files through its rep* glob (ROADMAP item 5).
    flags = ["--budget", "200", "--pop", "20", "--outdir"]
    assert main(["bench", "TE_4_3", "--reps", "6", *flags, str(tmp_path / "stale")]) == 0
    assert (tmp_path / "stale" / "TE_4_3__MFEA__rep005.jsonl").exists()
    for outdir in ("stale", "clean"):
        assert main(["bench", "TE_4_3", "--reps", "2", *flags, str(tmp_path / outdir)]) == 0
    clean = (tmp_path / "clean" / "summary.csv").read_text()
    assert (tmp_path / "stale" / "summary.csv").read_text() == clean
    assert main(["report", "TE_4_3", "--outdir", str(tmp_path / "stale")]) == 0
    assert (tmp_path / "stale" / "summary.csv").read_text() != clean


def _vrp(dimension):
    """CVRP file text: node 1 is the depot, nodes 2..dimension customers."""
    nodes = range(1, dimension + 1)
    return "\n".join([
        "NAME : small", "TYPE : CVRP", f"DIMENSION : {dimension}",
        "EDGE_WEIGHT_TYPE : EUC_2D", "CAPACITY : 10",
        "NODE_COORD_SECTION", *(f"{i} {i} 0" for i in nodes),
        "DEMAND_SECTION", *(f"{i} {int(i > 1)}" for i in nodes),
        "DEPOT_SECTION", "1", "-1", "EOF", ""])


# One bad instance per error source of load_environment, a ParseError from the
# parser and a ValueError from CvrpInstance, and a good one for the name cases.
# test_parsers and test_tasks name each kind of bad file.
BAD_INSTANCES = {
    "bad.tsp": "NAME: bad\nTYPE: TSP\n",
    "one.vrp": _vrp(2),
    "good.vrp": _vrp(3),
    "wide.vrp": _vrp(3).replace("3 3 0", "3 5e18 0"),  # costs past 2**53
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
    {"name": "x", "instances": ["one.vrp"]},
    {"name": "a/b", "instances": ["good.vrp"]},
    {"name": 7, "instances": ["good.vrp"]},
    {"name": "", "instances": ["good.vrp"]},
    {"name": "rep[1]", "instances": ["good.vrp"]},
    {"name": "x", "instances": ["wide.vrp"]},
], ids=["no instances", "empty instances", "missing instance file",
        "malformed instance file", "JSON syntax error", "not UTF-8", "directory",
        "unreadable file", "one-customer CVRP", "name with /",
        "non-string name", "empty name", "name with glob characters",
        "costs past 2**53"])
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
