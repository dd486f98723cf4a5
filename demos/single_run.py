"""Solve four TSP instances at once with one population.

Runs the adaptive engine on the built-in TE_4_1 environment (berlin52,
eil51, st70, eil76 sharing a 76-gene permutation space) and prints the
per-task convergence together with the final gaps to the published optima.

    python demos/single_run.py [--budget N] [--seed S]
"""

import argparse

from mfopt import EngineConfig, load_environment, run_dmfea2
from mfopt.harness import KNOWN_OPTIMA


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--budget", type=int, default=100_000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    env = load_environment("TE_4_1")
    cfg = EngineConfig(eval_budget=args.budget, seed=args.seed)
    print(f"environment {env.name}: {', '.join(env.task_names)} "
          f"(unified space of {env.d_max} genes)")

    best, trace = run_dmfea2(env.tasks, cfg)

    # print roughly ten evenly spaced snapshots of the best-so-far costs
    step = max(1, len(trace.records) // 10)
    header = f"{'evals':>8} " + "".join(f"{n:>12}" for n in env.task_names)
    print(header)
    for rec in trace.records[:-1:step] + trace.records[-1:]:
        print(f"{rec.evaluations:>8} "
              + "".join(f"{c:>12.0f}" for c in rec.best_costs))

    print("\nfinal results:")
    for task, result in zip(env.tasks, best):
        opt = KNOWN_OPTIMA[task.name]
        gap = 100.0 * (result.cost - opt) / opt
        print(f"  {task.name:10s} best {result.cost:8.0f}   "
              f"optimum {opt:6d}   gap {gap:5.1f}%")


if __name__ == "__main__":
    main()
