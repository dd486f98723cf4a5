"""Experiment orchestration: benchmark environments, repeated seeded runs
of both engines, and summary-table report emission.

Built-in environments mirror the standard TSP/CVRP multitasking setups:
four 4-task environments plus TE_8 with all eight instances. Instance
files are bundled under ``mfopt/data``.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import math
import numbers
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from . import parsers
from .engines import EngineConfig, RunTrace, run_dmfea2, run_mfea
from .stats import Direction, SampleSet, ranksum_test, summarize

log = logging.getLogger(__name__)

ENGINES = ("MFEA", "dMFEA-II")
BENCH_RUN = "rep{:03d}"  # the ``run`` of a bench repetition's trace_filename
REPORT_FILES = ("summary.csv", "results.json")  # what emit_report writes, in order

# Bundled instance files per environment; each file's TYPE header gives its kind.
BUILTIN_ENVIRONMENTS = {
    "TE_4_1": ["berlin52.tsp", "eil51.tsp", "st70.tsp", "eil76.tsp"],
    "TE_4_2": ["P-n50-k7.vrp", "P-n50-k8.vrp", "P-n55-k7.vrp", "P-n55-k8.vrp"],
    "TE_4_3": ["eil51.tsp", "berlin52.tsp", "P-n50-k7.vrp", "P-n50-k8.vrp"],
    "TE_4_4": ["st70.tsp", "eil76.tsp", "P-n55-k7.vrp", "P-n55-k8.vrp"],
    "TE_8": ["berlin52.tsp", "eil51.tsp", "st70.tsp", "eil76.tsp",
             "P-n50-k7.vrp", "P-n50-k8.vrp", "P-n55-k7.vrp", "P-n55-k8.vrp"],
}

# Published best-known values, reported alongside means for reference.
KNOWN_OPTIMA = {
    "berlin52": 7542, "eil51": 426, "st70": 675, "eil76": 538,
    "P-n50-k7": 554, "P-n50-k8": 629, "P-n55-k7": 568, "P-n55-k8": 598,
}


@dataclass
class Environment:
    name: str
    tasks: list  # TspInstance | CvrpInstance

    @property
    def d_max(self) -> int:
        return max(t.dimension for t in self.tasks)

    @property
    def task_names(self) -> list[str]:
        return [t.name for t in self.tasks]


@dataclass
class ExperimentPlan:
    """Every engine x repetition of one environment, engines kept in ``ENGINES``
    order without repeats; each run gets ``config`` unchanged and a stream
    paired across engines from ``config.seed``. Checked on construction."""
    environment: Environment
    engines: tuple[str, ...] = ENGINES
    repetitions: int = 20
    output_dir: Path = Path("results")
    config: EngineConfig = field(default_factory=EngineConfig)

    def __post_init__(self):
        self.output_dir = Path(self.output_dir)
        reps = self.repetitions
        if isinstance(reps, bool) or not isinstance(reps, numbers.Integral) or reps < 1:
            raise ValueError(f"repetitions must be a positive integer, got {reps!r}")
        if not self.engines or not set(self.engines) <= set(ENGINES):
            raise ValueError(f"engines must name one or more of {ENGINES}, got {self.engines!r}")
        self.engines = tuple(e for e in ENGINES if e in self.engines)
        self.config.check_init_budget(len(self.environment.tasks))


@dataclass
class ReportRow:
    environment: str
    engine: str
    instance: str
    mean: float
    std: float
    wilcoxon: str  # "significant" | "not_significant" | "n/a"
    optimum: float | None


def load_environment(name_or_path: str) -> Environment:
    """Build an environment from a built-in name or a JSON config file.

    A config file lists instance paths, relative to its own directory:
    ``{"name": "...", "instances": ["a.tsp", "b.vrp", ...]}``.
    """
    path = Path(name_or_path)
    if name_or_path in BUILTIN_ENVIRONMENTS:
        folder = resources.files("mfopt.data")
        spec = {"name": name_or_path, "instances": BUILTIN_ENVIRONMENTS[name_or_path]}
    elif not path.exists():
        raise ValueError(f"unknown environment {name_or_path!r} "
                         f"(not a built-in name or config file)")
    else:
        folder = path.parent
        try:
            spec = json.loads(path.read_text())
        except OSError as exc:  # a directory, or no permission to read
            raise ValueError(f"{path}: cannot read environment file: {exc.strerror}") from exc
        except ValueError as exc:  # not UTF-8, or not JSON
            raise ValueError(f"{path}: not a JSON environment file: {exc}") from exc
    instances = spec.get("instances") if isinstance(spec, dict) else None
    if (not isinstance(instances, list) or not instances
            or not all(isinstance(p, str) for p in instances)):
        raise ValueError(f"{path}: 'instances' must be a non-empty list "
                         f"of instance file paths")
    # The name prefixes every trace file name and report's glob over them.
    name = spec.get("name", path.stem)
    if not isinstance(name, str) or not name or any(c in name for c in "/\\*?[]"):
        raise ValueError(f"{path}: 'name' must be a non-empty string without "
                         f"/, \\ or *?[], got {name!r}")
    tasks = []
    for instance in instances:
        try:
            tasks.append(parsers.parse_problem((folder / instance).read_text()))
        except OSError as exc:
            raise ValueError(f"{path}: cannot read instance {folder / instance}: "
                             f"{exc.strerror}") from exc
        except ValueError as exc:
            raise ValueError(f"{path}: bad instance {folder / instance}: {exc}") from exc
    return Environment(name=name, tasks=tasks)


def repetition_seed(base_seed: int, engine: str, repetition: int) -> np.random.SeedSequence:
    """Deterministic per-repetition stream; both engines share the same
    entropy for a given repetition index, giving paired seeds."""
    return np.random.SeedSequence(entropy=base_seed, spawn_key=(repetition,))


def _run_one(engine: str, tasks, config: EngineConfig, seed_seq) -> tuple[list, RunTrace]:
    return (run_dmfea2 if engine == "dMFEA-II" else run_mfea)(tasks, config, seed_seq)


def trace_filename(env: str, engine: str, run: str) -> str:
    """Name of one run's JSONL trace; ``run`` is ``rep007``, ``single``,
    or the glob pattern ``rep*`` matching every repetition."""
    return f"{env}__{engine.replace('-', '_')}__{run}.jsonl"


def run_repetition(plan: ExperimentPlan, engine: str, rep: int, run: str) -> tuple[list, Path]:
    """Run repetition ``rep`` of ``engine`` under ``plan``, write its trace named
    for ``run`` (see ``trace_filename``), and return the best per task and its path."""
    env = plan.environment
    best, trace = _run_one(engine, env.tasks, plan.config,
                           repetition_seed(plan.config.seed, engine, rep))
    path = plan.output_dir / trace_filename(env.name, engine, run)
    path.write_text(trace.to_jsonl())
    log.info("%s %s %s: %s", env.name, engine, run, [b.cost for b in best])
    return best, path


def run_experiment(plan: ExperimentPlan) -> list[ReportRow]:
    """Run and trace every engine x repetition of the plan; aggregate as ``reaggregate`` does."""
    plan.output_dir.mkdir(parents=True, exist_ok=True)
    return aggregate_rows(plan.environment, {
        engine: [run_repetition(plan, engine, rep, BENCH_RUN.format(rep))[1]
                 for rep in range(plan.repetitions)]
        for engine in plan.engines})


def aggregate_rows(env: Environment, traces: dict[str, list[Path]]) -> list[ReportRow]:
    """One row per engine of ``traces``, in its order, and task, from its trace files'
    final best costs; with both engines and at least two repetitions each, every row
    of a task carries whether dMFEA-II beats MFEA there by the rank-sum test."""
    finals = {engine: np.array([_final_costs(p, len(env.tasks)) for p in paths])
              for engine, paths in traces.items()}
    markers = ["n/a"] * len(env.tasks)
    if len(finals) == 2 and all(costs.shape[0] >= 2 for costs in finals.values()):
        for k in range(len(env.tasks)):
            verdict = ranksum_test(SampleSet(finals["dMFEA-II"][:, k]),
                                   SampleSet(finals["MFEA"][:, k]))
            markers[k] = ("significant" if verdict.direction is Direction.A_BETTER
                          else "not_significant")
    rows = []
    for engine, costs in finals.items():
        for k, task in enumerate(env.tasks):
            mean, std = summarize(SampleSet(costs[:, k]))
            rows.append(ReportRow(
                environment=env.name, engine=engine, instance=task.name,
                mean=mean, std=std, wilcoxon=markers[k],
                optimum=KNOWN_OPTIMA.get(task.name),
            ))
    return rows


def emit_report(rows: list[ReportRow], output_dir: Path) -> dict[str, Path]:
    """Write the delimiter-separated summary table and a structured JSON
    results file. Returns the paths written."""
    if not rows:
        raise ValueError("no rows to report")
    output_dir = Path(output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)

    csv_path, json_path = (output_dir / name for name in REPORT_FILES)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["environment", "engine", "instance", "mean", "std",
                     "wilcoxon", "optimum"])
    for r in rows:
        writer.writerow([r.environment, r.engine, r.instance,
                         f"{r.mean:.4f}", f"{r.std:.4f}", r.wilcoxon,
                         "" if r.optimum is None else r.optimum])
    csv_path.write_text(buf.getvalue())

    json_path.write_text(json.dumps([r.__dict__ for r in rows], indent=2) + "\n")
    return {"summary": csv_path, "results": json_path}


def _final_costs(path: Path, n_tasks: int) -> np.ndarray:
    """The last record's best costs in one trace file; a file that cannot be
    read or parsed, or that has other than ``n_tasks`` finite numbers as
    costs, is a ValueError naming it."""
    try:
        costs = RunTrace.from_jsonl(path.read_text()).final_best_costs()
        if not all(type(c) in (int, float) and math.isfinite(c) for c in costs):
            raise ValueError(f"best costs must be finite numbers, got {costs!r}")
        costs = np.array(costs, dtype=float)
        if costs.shape != (n_tasks,):
            raise ValueError(f"{costs.size} best costs for {n_tasks} tasks")
    except (OSError, OverflowError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None
    return costs


def reaggregate(output_dir: Path, environment: str) -> list[ReportRow]:
    """Rebuild report rows from persisted trace files."""
    output_dir = Path(output_dir)
    env = load_environment(environment)
    traces = {engine: paths for engine in ENGINES
              if (paths := sorted(output_dir.glob(trace_filename(env.name, engine, "rep*"))))}
    if not traces:
        raise ValueError(f"no traces for {environment} under {output_dir}")
    return aggregate_rows(env, traces)
