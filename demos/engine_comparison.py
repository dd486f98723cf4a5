"""Baseline vs adaptive engine on the full eight-instance benchmark.

Runs both engines with paired seeds, prints per-instance means and the
rank-sum verdicts. With the default reduced budget this takes a couple of
minutes; raise --budget/--reps to approach a full benchmark run.

    python demos/engine_comparison.py [--budget N] [--reps R]
"""

import argparse

from mfopt import EngineConfig, load_environment
from mfopt.harness import ExperimentPlan, run_experiment


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--budget", type=int, default=50_000)
    ap.add_argument("--reps", type=int, default=5)
    ap.add_argument("--outdir", default="results_demo")
    args = ap.parse_args()

    env = load_environment("TE_8")
    plan = ExperimentPlan(
        environment=env, repetitions=args.reps, output_dir=args.outdir,
        config=EngineConfig(eval_budget=args.budget, seed=0))
    rows = run_experiment(plan)

    print(f"\n{'instance':12} {'engine':10} {'mean':>10} {'std':>9} "
          f"{'optimum':>8}  rank-sum")
    for r in rows:
        print(f"{r.instance:12} {r.engine:10} {r.mean:>10.1f} {r.std:>9.1f} "
              f"{r.optimum:>8}  {r.wilcoxon}")
    print(f"\ntraces and summary written to {args.outdir}/")


if __name__ == "__main__":
    main()
