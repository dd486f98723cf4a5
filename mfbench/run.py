"""Benchmark of the mfopt package, built from the ``src/`` tree beside it.

One workload, one run; the last line of standard output is the result:

    python3 mfbench/run.py --workload tsp4 --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics with no instrumentation;
``--trace 1`` reports the per-layer metrics from a separately traced run.
Every workload, both ways, each in a fresh process, with a readable table
and the results written to ``mfbench/results/latest.json``:

    python3 mfbench/run.py --all --seconds 30

Exit status is 0 only when a result was printed; a failed output check is
reported in the result (``correct`` false, ``failed`` > 0), not by status.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("tsp4", "cvrp4", "bench8")


def _use_source_tree() -> None:
    """Import mfopt from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "mfopt" / "__init__.py").is_file():
        raise SystemExit(f"mfbench: no mfopt sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import mfopt
    if Path(mfopt.__file__).resolve().parent != SRC / "mfopt":
        raise SystemExit(f"mfbench: imported mfopt from {mfopt.__file__}, not {SRC}")


def _git_commit() -> str:
    """HEAD of the checkout, read without running git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_facts(seed: int) -> dict:
    import numpy
    import scipy
    import mfopt
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mfopt": mfopt.__version__,
        "commit": _git_commit(),
        "seed": seed,
    }


def run_one(args) -> int:
    import workloads

    workdir = BENCH_DIR / ".work"
    workdir.mkdir(exist_ok=True)
    try:
        if args.trace:
            result = workloads.measure_traced(
                args.workload, args.seed, args.seconds, workdir,
                spans_path=BENCH_DIR / "results" / f"spans_{args.workload}.npz")
        else:
            result = workloads.measure(args.workload, args.seed, args.seconds, workdir)
    finally:
        if not any(workdir.iterdir()):
            workdir.rmdir()
    for error in result.pop("errors"):
        print(f"check failed: {error}", file=sys.stderr)
    raw = result.pop("raw")
    if raw:
        print("raw " + json.dumps(raw))
    print("facts " + json.dumps(machine_facts(args.seed)))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload untraced and traced, each in a fresh process."""
    results = {}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            results.setdefault(name, {})["traced" if trace else "untraced"] = result
            fail_rate = result["failed"] / result["attempted"]
            print(f"{name} trace={trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} fail_rate={fail_rate:g}")
            for metric, m in result["metrics"].items():
                print(f"  {name:7s} {metric:34s} {m['value']:14.6g} {m['unit']}")
    out = BENCH_DIR / "results" / "latest.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"facts": machine_facts(args.seed), "results": results},
                              indent=2) + "\n")
    print(f"results written to {out}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--all", action="store_true", help="run every workload, both ways")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    _use_source_tree()
    return run_all(args) if args.all else run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
