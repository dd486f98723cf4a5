import json

import numpy as np
import pytest

from mfopt.engines import EngineConfig, RunTrace
from mfopt.harness import (
    BUILTIN_ENVIRONMENTS,
    KNOWN_OPTIMA,
    ExperimentPlan,
    emit_report,
    load_environment,
    reaggregate,
    repetition_seed,
    run_experiment,
)
from mfopt.tasks import CvrpInstance, TspInstance

from conftest import format_tsplib, format_vrp


class TestEnvironments:
    def test_builtin_names_and_sizes(self):
        assert set(BUILTIN_ENVIRONMENTS) == {
            "TE_4_1", "TE_4_2", "TE_4_3", "TE_4_4", "TE_8"}
        for name, files in BUILTIN_ENVIRONMENTS.items():
            assert len(files) == (8 if name == "TE_8" else 4)

    def test_load_te_4_1(self):
        env = load_environment("TE_4_1")
        assert env.task_names == ["berlin52", "eil51", "st70", "eil76"]
        assert all(isinstance(t, TspInstance) for t in env.tasks)
        assert env.d_max == 76

    def test_load_te_4_2_is_cvrp(self):
        env = load_environment("TE_4_2")
        assert all(isinstance(t, CvrpInstance) for t in env.tasks)
        # customer counts: depot excluded from the instance dimension
        assert [t.dimension for t in env.tasks] == [49, 49, 54, 54]

    def test_te_8_mixes_kinds(self):
        env = load_environment("TE_8")
        kinds = [type(t).__name__ for t in env.tasks]
        assert kinds.count("TspInstance") == 4
        assert kinds.count("CvrpInstance") == 4

    def test_every_instance_has_known_optimum(self):
        env = load_environment("TE_8")
        for t in env.tasks:
            assert t.name in KNOWN_OPTIMA

    def test_config_file_environment(self, tmp_path, square_tsp, tiny_cvrp):
        (tmp_path / "sq.tsp").write_text(format_tsplib(square_tsp))
        (tmp_path / "cr.vrp").write_text(format_vrp(tiny_cvrp))
        cfg = tmp_path / "env.json"
        cfg.write_text(json.dumps(
            {"name": "custom", "instances": ["sq.tsp", "cr.vrp"]}))
        env = load_environment(str(cfg))
        assert env.name == "custom"
        assert env.d_max == 4
        assert isinstance(env.tasks[0], TspInstance)
        assert isinstance(env.tasks[1], CvrpInstance)

    def test_unknown_environment(self):
        with pytest.raises(ValueError):
            load_environment("TE_99")


class TestSeeding:
    def test_paired_across_engines(self):
        a = repetition_seed(0, "MFEA", 3)
        b = repetition_seed(0, "dMFEA-II", 3)
        # both engines draw the same stream for a given repetition
        assert np.random.default_rng(a).integers(1 << 30) == \
            np.random.default_rng(b).integers(1 << 30)

    def test_distinct_across_repetitions(self):
        a = repetition_seed(0, "MFEA", 0)
        b = repetition_seed(0, "MFEA", 1)
        assert np.random.default_rng(a).integers(1 << 30) != \
            np.random.default_rng(b).integers(1 << 30)


def tiny_plan(tmp_path, square_tsp, line_tsp, reps=3):
    from mfopt.harness import Environment
    env = Environment(name="tinyenv", tasks=[square_tsp, line_tsp])
    return ExperimentPlan(
        environment=env, repetitions=reps, output_dir=tmp_path,
        config=EngineConfig(population_size=10, eval_budget=300, seed=0))


class TestExperiment:
    def test_run_and_report(self, tmp_path, square_tsp, line_tsp):
        plan = tiny_plan(tmp_path, square_tsp, line_tsp)
        rows = run_experiment(plan)
        # 2 engines x 2 instances
        assert len(rows) == 4
        assert {r.engine for r in rows} == {"MFEA", "dMFEA-II"}
        traces = list(tmp_path.glob("tinyenv__*__rep*.jsonl"))
        assert len(traces) == 6  # 2 engines x 3 repetitions
        paths = emit_report(rows, tmp_path)
        text = paths["summary"].read_text()
        assert text.splitlines()[0] == \
            "environment,engine,instance,mean,std,wilcoxon,optimum"
        assert len(text.splitlines()) == 5
        results = json.loads(paths["results"].read_text())
        assert len(results) == 4

    def test_plan_config_reaches_every_run(self, tmp_path, square_tsp, line_tsp):
        plan = tiny_plan(tmp_path, square_tsp, line_tsp)
        plan.config = EngineConfig(population_size=10, eval_budget=300,
                                   rmp_init=0.5, rmp_floor=0.5)
        plan.engines = ("dMFEA-II",)
        run_experiment(plan)
        traces = sorted(tmp_path.glob("tinyenv__dMFEA_II__rep*.jsonl"))
        assert len(traces) == 3
        for path in traces:
            for rec in RunTrace.from_jsonl(path.read_text()).records:
                assert (np.array(rec.rmp) >= 0.5).all()

    def test_wilcoxon_marker_needs_both_engines(self, tmp_path, square_tsp,
                                                line_tsp):
        plan = tiny_plan(tmp_path, square_tsp, line_tsp)
        plan.engines = ("MFEA",)
        rows = run_experiment(plan)
        assert all(r.wilcoxon == "n/a" for r in rows)

    def test_plan_validation(self, tmp_path, square_tsp, line_tsp):
        with pytest.raises(ValueError):
            tiny_plan(tmp_path, square_tsp, line_tsp, reps=0)
        plan = tiny_plan(tmp_path, square_tsp, line_tsp)
        for engines in [("MFEA", "nope"), ()]:
            with pytest.raises(ValueError):
                ExperimentPlan(environment=plan.environment,
                               engines=engines, output_dir=tmp_path)
        # A fractional or bool repetition count, and a budget below P x K (10 x 2),
        # fail when the plan is built, before run_experiment makes its directory.
        out = tmp_path / "never_made"
        for bad in [dict(repetitions=2.5), dict(repetitions=True),
                    dict(config=EngineConfig(population_size=10, eval_budget=19))]:
            with pytest.raises(ValueError, match="repetitions|budget"):
                ExperimentPlan(environment=plan.environment, output_dir=out, **bad)
            assert not out.exists()

    def test_empty_report_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_report([], tmp_path)

    def test_reaggregate_missing_traces(self, tmp_path):
        with pytest.raises(ValueError):
            reaggregate(tmp_path, "TE_4_1")
