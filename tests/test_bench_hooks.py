"""The benchmark tracer (``mfbench/tracer.py``) wraps mfopt attributes by
name. A rename in ``src/`` must fail here, not only in the benchmark's own
tests."""

import importlib.util
from pathlib import Path

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
