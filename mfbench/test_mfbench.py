"""Tests of the benchmark itself: tiny workloads, output checks, tracing hygiene.

    python -m pytest mfbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]

import mfopt  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "tsp4": workloads.EngineWorkload("TE_4_1", budget=1_200),
    "cvrp4": workloads.EngineWorkload("TE_4_2", budget=1_200),
    "bench8": workloads.CliWorkload("TE_8", budget=2_000, reps=2),
}


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(workloads, "WORKLOADS", TINY)
    monkeypatch.setattr(workloads, "SETUP_REPEATS", 2)


def _targets():
    return [(owner, attr) for owner, attr, _ in tracer.SPAN_TARGETS] + list(tracer.COUNT_TARGETS)


@pytest.mark.parametrize("name", sorted(TINY))
def test_untraced_run_passes_every_check(tiny, tmp_path, name):
    result = workloads.measure(name, seed=7, seconds=0, workdir=tmp_path)
    assert result["errors"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    metrics = result["metrics"]
    assert set(metrics) == set(workloads.END_TO_END)
    assert all(m["value"] > 0 for m in metrics.values())
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_reproduces_untraced_run(tiny, tmp_path, name):
    spans = tmp_path / "spans.npz"
    result = workloads.measure_traced(name, seed=7, seconds=0, workdir=tmp_path,
                                      spans_path=spans)
    assert result["errors"] == []
    assert result["correct"] and result["failed"] == 0
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert set(metrics) == set(workloads.PER_LAYER)
    assert metrics["tracing.accounted_share"] == pytest.approx(1.0, abs=0.02)
    cost = "tasks.cvrp_cost.calls" if name == "cvrp4" else "tasks.tsp_cost.calls"
    assert metrics[cost] > 0
    with np.load(spans) as saved:
        assert len(saved["name_id"]) == len(saved["start"]) > 0


def test_tracer_restores_every_patched_attribute():
    before = [tracer._attr(owner, attr) for owner, attr in _targets()]
    t = tracer.Tracer()
    with pytest.raises(RuntimeError):
        with t.installed():
            during = [tracer._attr(owner, attr) for owner, attr in _targets()]
            assert all(d is not b for d, b in zip(during, before))
            raise RuntimeError("boom")
    after = [tracer._attr(owner, attr) for owner, attr in _targets()]
    assert all(a is b for a, b in zip(after, before))


def test_engine_timers_restore_the_harness_engines():
    before = (mfopt.harness.run_mfea, mfopt.harness.run_dmfea2)
    with workloads.engine_timers({}):
        assert mfopt.harness.run_mfea is not before[0]
    assert (mfopt.harness.run_mfea, mfopt.harness.run_dmfea2) == before


def test_self_times_add_up_to_the_root_spans():
    t = tracer.Tracer()
    inner = t.wrap("tasks.inner", lambda: sum(range(1000)))
    outer = t.wrap("engines.run", lambda: [inner() for _ in range(3)])
    outer()
    ids, parent, start, end, self_t = t.arrays()
    assert list(parent) == [-1, 0, 0, 0]
    assert self_t.sum() == pytest.approx(end[0] - start[0])


def test_checks_reject_broken_outputs():
    env = mfopt.load_environment("TE_4_1")
    config = mfopt.EngineConfig(eval_budget=1_000, seed=3)
    best, trace = mfopt.run_dmfea2(env.tasks, config)
    assert workloads.check_engine_run(env.tasks, best, trace, config, adaptive=True) == []

    best[0].genome = best[0].genome.copy()
    best[0].genome[0] = best[0].genome[1]
    trace.records[-1].best_costs[1] += 1e6
    trace.records[-1].rmp[0][1] = 0.0
    errors = " | ".join(workloads.check_engine_run(env.tasks, best, trace, config,
                                                   adaptive=True))
    assert "not a permutation" in errors
    assert "best cost increased" in errors
    assert "rmp not symmetric" in errors
    assert "final best costs differ" in errors
    assert workloads.check_trace(trace, trace.to_jsonl(), 10, True, 0.1) != []


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for key, table in (("end_to_end", workloads.END_TO_END),
                       ("per_layer", workloads.PER_LAYER)):
        declared = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        assert declared == table
