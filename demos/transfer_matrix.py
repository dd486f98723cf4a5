"""Watch the inter-task transfer matrix learn which tasks help each other.

Runs the adaptive engine on TE_4_3 (two TSP + two CVRP instances) and
prints snapshots of the mating-probability matrix. Entries between tasks
that exchange useful genetic material stay high; pairs whose transfers
keep failing decay toward the 0.1 floor. The diagonal stays at 1: as in
MFEA-II, a task always mates with itself, and only the inter-task entries
are learned.

    python demos/transfer_matrix.py [--budget N]
"""

import argparse

import numpy as np

from mfopt import EngineConfig, load_environment, run_dmfea2


def show(matrix, names):
    width = max(len(n) for n in names)
    print(" " * (width + 1) + "".join(f"{n:>10}" for n in names))
    for name, row in zip(names, matrix):
        print(f"{name:>{width}} " + "".join(f"{v:>10.3f}" for v in row))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--budget", type=int, default=60_000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    env = load_environment("TE_4_3")
    best, trace = run_dmfea2(env.tasks, EngineConfig(
        eval_budget=args.budget, seed=args.seed))

    snapshots = np.linspace(0, len(trace.records) - 1, 4).astype(int)
    for i in snapshots:
        rec = trace.records[i]
        print(f"\nafter {rec.evaluations} evaluations:")
        show(rec.rmp, env.task_names)

    print("\nbest costs:", {t.name: r.cost for t, r in zip(env.tasks, best)})


if __name__ == "__main__":
    main()
