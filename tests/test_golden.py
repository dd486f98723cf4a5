"""Equivalence gate: seeded runs of both engines and a small ``mfopt bench``
must reproduce the SHA-256 digests recorded in ``golden/digests.json``.

A change that is meant to alter seeded output regenerates the digests with
``PYTHONPATH=src python tests/test_golden.py``, which prints the keys whose
digest changed, and lists those keys in CHANGES.md.
"""

import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np

from mfopt.cli import main
from mfopt.engines import EngineConfig, run_dmfea2, run_mfea
from mfopt.harness import load_environment

DIGESTS = Path(__file__).parent / "golden" / "digests.json"

# Odd budgets make the last generation stop after the first child of a
# pair, so these keys gate the per-child budget cut of both engines. With
# seed 0, dMFEA-II cuts a same-skill pair at TE_8/1013 and TE_4_1/1005, and
# an inter- or intra-task pair at the other two.
ODD_BUDGET_RUNS = (("TE_8", 1001), ("TE_8", 1013), ("TE_4_1", 1005), ("TE_4_3", 1003))

# Even budgets only: an odd budget changes where a run stops.
BENCH_ARGV = ["bench", "TE_4_3", "--reps", "2", "--budget", "1000",
              "--pop", "20", "--seed", "7"]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def golden_digests(workdir: Path) -> dict[str, str]:
    digests = {}
    runs = [(env_name, 1000, "") for env_name in ("TE_4_1", "TE_4_2", "TE_8")]
    runs += [(env_name, budget, f"__budget{budget}") for env_name, budget in ODD_BUDGET_RUNS]
    for env_name, budget, suffix in runs:
        tasks = load_environment(env_name).tasks
        config = EngineConfig(population_size=20, eval_budget=budget)
        for label, runner in (("MFEA", run_mfea), ("dMFEA_II", run_dmfea2)):
            _, trace = runner(tasks, config, np.random.default_rng(0))
            digests[f"{env_name}__{label}{suffix}.jsonl"] = _sha256(trace.to_jsonl().encode())

    assert main(BENCH_ARGV + ["--outdir", str(workdir)]) == 0
    for path in sorted(workdir.glob("*.jsonl")) + [workdir / "summary.csv"]:
        digests[f"bench/{path.name}"] = _sha256(path.read_bytes())
    return digests


def test_seeded_outputs_match_golden_digests(tmp_path):
    expected = json.loads(DIGESTS.read_text())
    assert golden_digests(tmp_path) == expected


if __name__ == "__main__":
    old = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        new = golden_digests(Path(tmp))
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(new, indent=2, sort_keys=True) + "\n")
    changed = sorted(k for k in old.keys() | new.keys() if old.get(k) != new.get(k))
    print(f"wrote {DIGESTS}: {len(changed)} of {len(new)} digests changed")
    for key in changed:
        print(f"  {key}")
