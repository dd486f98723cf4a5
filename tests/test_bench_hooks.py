"""The benchmark tracer (``mfbench/tracer.py``) wraps mfopt attributes by
name. A rename in ``src/`` must fail here, not only in the benchmark's own
tests."""

import importlib.util
from pathlib import Path

from mfopt.engines import EngineConfig, run_dmfea2
from mfopt.harness import load_environment

TRACER = Path(__file__).resolve().parents[1] / "mfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("mfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_resolves():
    tracer = _load_tracer()
    targets = [(owner, attr) for owner, attr, _ in tracer.SPAN_TARGETS]
    targets += list(tracer.COUNT_TARGETS)
    missing = [f"{owner.__name__}.{attr}" for owner, attr in targets
               if not callable(getattr(owner, attr, None))]
    assert not missing, f"mfbench/tracer.py wraps attributes that are gone: {missing}"


def test_dynamic_ox_spans_count_the_inter_task_children():
    # Only inter-task dOX children go through engines.dynamic_ox (intra-task
    # ones are generation records), and each updates one matrix cell, so the
    # per-layer operators.dynamic_ox.* metrics describe exactly those children.
    tracer = _load_tracer().Tracer()
    config = EngineConfig(population_size=40, eval_budget=2_000, seed=3)
    with tracer.installed():
        tracer.engine_run(run_dmfea2, "dmfea2")(load_environment("TE_8").tasks, config)
    spans = tracer.layer_metrics(iterations=1, traced_wall=1.0)["operators.dynamic_ox.calls"]
    assert spans == tracer.inter_updates > 0
