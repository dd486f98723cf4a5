"""Command line front end.

Subcommands:
  run     one engine on one environment: repetition 0 of the bench plan
  bench   full experiment plan (both engines, repeated seeded runs)
  report  re-aggregate persisted traces into summary tables
"""

from __future__ import annotations

import argparse
import logging
from pathlib import Path

from .engines import EngineConfig
from .harness import (
    ENGINES,
    ExperimentPlan,
    emit_report,
    load_environment,
    reaggregate,
    run_experiment,
    run_repetition,
)

# (flag, EngineConfig field, help); each flag's type and default come from
# the field's default, so EngineConfig stays the one source of truth.
ENGINE_FLAGS = (
    ("--budget", "eval_budget", "objective evaluation budget per run"),
    ("--pop", "population_size", "population size"),
    ("--seed", "seed", "base seed"),
    ("--w", "w", "dOX window fraction (dMFEA-II)"),
    ("--pm", "p_m", "mutation probability (dMFEA-II)"),
    ("--rmp", "rmp_scalar", "scalar RMP (MFEA)"),
    ("--rmp-init", "rmp_init", "initial transfer-matrix value (dMFEA-II)"),
    ("--delta-inc", "delta_inc", "transfer-matrix growth factor (dMFEA-II)"),
    ("--delta-dec", "delta_dec", "transfer-matrix decay factor (dMFEA-II)"),
)


def _add_engine_flags(p: argparse.ArgumentParser) -> None:
    for flag, name, help_text in ENGINE_FLAGS:
        default = getattr(EngineConfig, name)
        p.add_argument(flag, dest=name, type=type(default), default=default,
                       metavar=flag[2:].upper().replace("-", "_"), help=help_text)
    p.add_argument("--outdir", type=Path, default=ExperimentPlan.output_dir)


def _config(args) -> EngineConfig:
    return EngineConfig(**{name: getattr(args, name) for _, name, _ in ENGINE_FLAGS})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mfopt",
        description="Permutation-based evolutionary multitasking benchmarks")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="single run of one engine")
    p_run.add_argument("environment", help="built-in name (TE_4_1 .. TE_8) or config file")
    p_run.add_argument("--engine", dest="engines", nargs=1, choices=ENGINES, default=["dMFEA-II"])
    p_run.set_defaults(reps=1)
    _add_engine_flags(p_run)

    p_bench = sub.add_parser("bench", help="full repeated-run experiment")
    p_bench.add_argument("environment")
    p_bench.add_argument("--engines", nargs="+", choices=ENGINES,
                         default=list(ENGINES))
    p_bench.add_argument("--reps", type=int, default=ExperimentPlan.repetitions)
    _add_engine_flags(p_bench)

    p_rep = sub.add_parser("report", help="re-aggregate persisted traces")
    p_rep.add_argument("environment")
    p_rep.add_argument("--outdir", type=Path, default=ExperimentPlan.output_dir)

    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")

    # Bad parameters, environments, trace sets and output directories are
    # usage errors: exit 2 with a one-line message rather than a traceback.
    try:
        if args.command == "report":
            rows = reaggregate(args.outdir, args.environment)
        else:
            plan = ExperimentPlan(
                config=_config(args), environment=load_environment(args.environment),
                engines=tuple(args.engines), repetitions=args.reps, output_dir=args.outdir)
            args.outdir.mkdir(parents=True, exist_ok=True)
    except ValueError as exc:
        parser.error(str(exc))
    except OSError as exc:
        parser.error(f"cannot create output directory {args.outdir}: {exc.strerror}")

    if args.command == "run":
        env, (engine,) = plan.environment, plan.engines
        best, trace_path = run_repetition(plan, engine, 0, "single")
        for task, result in zip(env.tasks, best):
            print(f"{env.name} {engine} {task.name}: best cost {result.cost:g}")
        print(f"trace written to {trace_path}")
        return 0

    if args.command == "bench":
        rows = run_experiment(plan)
    paths = emit_report(rows, args.outdir)
    for r in rows:
        print(f"{r.environment} {r.engine:9s} {r.instance:10s} "
              f"mean={r.mean:10.2f} std={r.std:8.2f} {r.wilcoxon}")
    print(f"summary written to {paths['summary']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
