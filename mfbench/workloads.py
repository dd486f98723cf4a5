"""The benchmark's workloads, output checks and metric tables.

Every workload is a closed loop of iterations in one process: an iteration
starts when the previous one ends and the loop runs until the measuring
window closes (at least ``MIN_ITERATIONS`` times). Iteration 0 always runs
at the workload's fixed seed, so the solution-gap metrics are exact from
run to run; later iterations take seeds derived from ``--seed``.

Only public entry points are driven: ``load_environment``, ``run_mfea`` /
``run_dmfea2`` and ``mfopt.cli.main``.
"""

from __future__ import annotations

import contextlib
import functools
import io
import resource
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import mfopt.cli
import mfopt.harness
from mfopt import EngineConfig, RunTrace, is_valid_genome, load_environment, project
from mfopt.harness import KNOWN_OPTIMA

from tracer import Tracer

FIXED_SEED = 0
MIN_ITERATIONS = 2
SETUP_REPEATS = 21
REFERENCE_S = 0.02
ENGINES = (("mfea", mfopt.run_mfea), ("dmfea2", mfopt.run_dmfea2))

# name -> (unit, better). The end-to-end table is what an untraced run
# reports, the per-layer table what a traced run reports.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "evals_per_s": ("1/s", "higher"),
    "mfea.evals_per_s": ("1/s", "higher"),
    "dmfea2.evals_per_s": ("1/s", "higher"),
    "mfea.gap_pct": ("%", "lower"),
    "dmfea2.gap_pct": ("%", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

PER_LAYER = {
    "parsers.parse_ms": ("ms", "lower"),
    "parsers.share": ("ratio", "lower"),
    "tasks.tsp_cost.calls": ("count", "lower"),
    "tasks.tsp_cost.us": ("us", "lower"),
    "tasks.cvrp_cost.calls": ("count", "lower"),
    "tasks.cvrp_cost.us": ("us", "lower"),
    "tasks.project.us": ("us", "lower"),
    "tasks.share": ("ratio", "lower"),
    "tasks.repeat_eval_share": ("ratio", "lower"),
    "operators.order_crossover.calls": ("count", "lower"),
    "operators.order_crossover.us": ("us", "lower"),
    "operators.dynamic_ox.calls": ("count", "lower"),
    "operators.dynamic_ox.us": ("us", "lower"),
    "operators.two_opt.calls": ("count", "lower"),
    "operators.two_opt.us": ("us", "lower"),
    "operators.share": ("ratio", "lower"),
    "core.assign_ranks.calls": ("count", "lower"),
    "core.assign_ranks.us": ("us", "lower"),
    "core.elitist_select.us": ("us", "lower"),
    "core.evaluate_skill_task.self_us": ("us", "lower"),
    "core.evaluate_all_tasks.us": ("us", "lower"),
    "core.share": ("ratio", "lower"),
    "engines.generation_ms.p50": ("ms", "lower"),
    "engines.generation_ms.p90": ("ms", "lower"),
    "engines.self_share": ("ratio", "lower"),
    "engines.transfer_success_ratio": ("ratio", "higher"),
    "engines.inter_transfer_share": ("ratio", "higher"),
    "harness.run_one.count": ("count", "lower"),
    "harness.trace_write_ms": ("ms", "lower"),
    "harness.trace_bytes": ("bytes", "lower"),
    "harness.report_ms": ("ms", "lower"),
    "harness.share": ("ratio", "lower"),
    "stats.ranksum.calls": ("count", "lower"),
    "stats.ranksum.us": ("us", "lower"),
    "stats.share": ("ratio", "lower"),
    "cli.self_ms": ("ms", "lower"),
    "cli.share": ("ratio", "lower"),
    "tracing.accounted_share": ("ratio", "higher"),
    "tracing.overhead_s": ("s", "lower"),
}


def iteration_seed(workload_seed: int, i: int) -> int:
    if i == 0:
        return FIXED_SEED
    return int(np.random.SeedSequence([workload_seed, i]).generate_state(1)[0])


def gap_pct(task_names, costs) -> float:
    """Mean over tasks of 100 * (cost - known optimum) / optimum."""
    return float(np.mean([100.0 * (c - KNOWN_OPTIMA[n]) / KNOWN_OPTIMA[n]
                          for n, c in zip(task_names, costs)]))


# -- timing --------------------------------------------------------------------

class _Member:
    __slots__ = ("genome", "costs")

    def __init__(self, genome, costs):
        self.genome = genome
        self.costs = costs


def _kernel_seconds() -> float:
    """Time of a fixed miniature of the engines' work, written without any
    mfopt code: permutations, projection by mask, tour length by fancy
    indexing, per-member objects and rank-based truncation."""
    t0 = time.perf_counter()
    idx = np.arange(76)
    dist = (idx[:, None] * 7 + idx[None, :] * 13) % 97
    keys = (idx * 7919) % 76
    pop = []
    for i in range(600):
        genome = np.argsort((keys + i) % 76, kind="stable") + 1
        tour = genome[genome <= 51] - 1
        member = _Member(genome, np.full(4, np.inf))
        member.costs[i % 4] = float(dist[tour[:-1], tour[1:]].sum() + dist[tour[-1], tour[0]])
        pop.append(member)
        if len(pop) == 40:
            order = np.argsort(np.array([m.costs.min() for m in pop]), kind="stable")
            pop = [pop[j] for j in order[:20]]
    return time.perf_counter() - t0


class RefClock:
    """Converts measured durations to reference seconds.

    On a shared 2-vCPU host the speed of one process swings by up to 2x
    within a minute while it keeps its CPU (CPU time tracks wall time), so
    raw timings of one run do not repeat in the next. Each measured interval
    is scaled by ``REFERENCE_S`` over the mean time of the calibration
    kernel run right before and right after it, which cancels the host's
    speed. ``measure`` must be called right after the interval ends, and
    the interval must start right after the previous ``measure``.
    """

    def __init__(self):
        self._before = _kernel_seconds()

    def measure(self, raw: float) -> float:
        after = _kernel_seconds()
        scaled = raw * 2.0 * REFERENCE_S / (self._before + after)
        self._before = after
        return scaled


# -- output checks -----------------------------------------------------------

def check_trace(trace: RunTrace, text: str, budget: int, adaptive: bool,
                rmp_floor: float) -> list[str]:
    """Invariants every persisted trace must satisfy."""
    errors = []
    if RunTrace.from_jsonl(text).to_jsonl() != text:
        errors.append("trace does not round-trip through RunTrace.from_jsonl")
    if trace.records[-1].evaluations > budget:
        errors.append(f"spent {trace.records[-1].evaluations} of budget {budget}")
    best = np.array([r.best_costs for r in trace.records])
    if (np.diff(best, axis=0) > 0).any():
        errors.append("a per-task best cost increased")
    for r in trace.records:
        if (r.rmp is None) == adaptive:
            errors.append(f"generation {r.generation}: rmp presence is wrong")
            break
        if adaptive:
            m = np.array(r.rmp)
            if not np.array_equal(m, m.T) or (m < rmp_floor).any() or (m > 1.0).any():
                errors.append(f"generation {r.generation}: rmp not symmetric in [floor, 1]")
                break
    return errors


def check_engine_run(tasks, best, trace: RunTrace, config: EngineConfig,
                     adaptive: bool) -> list[str]:
    """Checks on one engine run's returned solutions and trace."""
    d_max = max(t.dimension for t in tasks)
    errors = check_trace(trace, trace.to_jsonl(), config.eval_budget, adaptive,
                         config.rmp_floor)
    for task, result in zip(tasks, best, strict=True):
        if len(result.genome) != d_max or not is_valid_genome(result.genome):
            errors.append(f"{task.name}: genome is not a permutation of 1..{d_max}")
        elif task.cost(project(result.genome, task.dimension)) != result.cost:
            errors.append(f"{task.name}: reported cost does not match its genome")
    if trace.final_best_costs() != [b.cost for b in best]:
        errors.append("trace's final best costs differ from the returned ones")
    return errors


# -- iterations ----------------------------------------------------------------

@dataclass
class Iteration:
    """One iteration's timings, evaluations and what equivalence compares."""
    wall: float                      # reference seconds
    raw_wall: float                  # seconds
    engine_wall: dict[str, float]    # reference seconds
    engine_evals: dict[str, int]
    gaps: dict[str, float]
    runs: int
    failed_runs: int
    errors: list[str]
    fingerprint: object


@dataclass(frozen=True)
class EngineWorkload:
    """One seeded run of MFEA and then one of dMFEA-II on an environment."""
    environment: str
    budget: int

    def run(self, env, seed: int, clock: RefClock, tracer: Tracer | None = None,
            workdir=None) -> Iteration:
        config = EngineConfig(eval_budget=self.budget, seed=seed)
        walls, evals, gaps, errors, fingerprint = {}, {}, {}, [], []
        failed, raw_wall = 0, 0.0
        for engine, fn in ENGINES:
            instrument = contextlib.nullcontext()
            if tracer is not None:
                fn, instrument = tracer.engine_run(fn, engine), tracer.installed()
            with instrument:
                t0 = time.perf_counter()
                best, trace = fn(env.tasks, config)
                raw = time.perf_counter() - t0
            raw_wall += raw
            walls[engine] = clock.measure(raw)
            evals[engine] = trace.records[-1].evaluations
            gaps[engine] = gap_pct(env.task_names, [b.cost for b in best])
            run_errors = check_engine_run(env.tasks, best, trace, config,
                                          engine == "dmfea2")
            failed += bool(run_errors)
            errors += [f"{engine}: {e}" for e in run_errors]
            fingerprint.append(([b.cost for b in best],
                                [b.genome.tobytes() for b in best], trace.to_jsonl()))
        return Iteration(sum(walls.values()), raw_wall, walls, evals, gaps, len(ENGINES),
                         failed, errors, fingerprint)


@contextlib.contextmanager
def engine_timers(walls: dict[str, float]):
    """Time each engine run made inside ``mfopt bench``.

    The harness looks ``run_mfea`` / ``run_dmfea2`` up on its own module;
    these two timers are the only wrappers of an untraced run.
    """
    def timed(engine, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                walls[engine] = walls.get(engine, 0.0) + time.perf_counter() - t0
        return wrapper

    saved = {attr: getattr(mfopt.harness, attr) for attr in ("run_mfea", "run_dmfea2")}
    try:
        mfopt.harness.run_mfea = timed("mfea", saved["run_mfea"])
        mfopt.harness.run_dmfea2 = timed("dmfea2", saved["run_dmfea2"])
        yield walls
    finally:
        for attr, original in saved.items():
            setattr(mfopt.harness, attr, original)


@dataclass(frozen=True)
class CliWorkload:
    """``mfopt bench`` over both engines, then ``mfopt report`` on its outdir."""
    environment: str
    budget: int
    reps: int

    def run(self, env, seed: int, clock: RefClock, tracer: Tracer | None = None,
            workdir=None) -> Iteration:
        outdir = Path(tempfile.mkdtemp(dir=workdir))
        try:
            return self._run(env, seed, clock, tracer, outdir)
        finally:
            shutil.rmtree(outdir)

    def _run(self, env, seed, clock, tracer, outdir) -> Iteration:
        bench = ["bench", self.environment, "--reps", str(self.reps), "--budget",
                 str(self.budget), "--seed", str(seed), "--outdir", str(outdir)]
        report = ["report", self.environment, "--outdir", str(outdir)]
        main = mfopt.cli.main
        walls: dict[str, float] = {}
        if tracer is None:
            instrument = functools.partial(engine_timers, walls)
        else:
            main, instrument = tracer.wrap("cli.main", main), tracer.installed
        with contextlib.redirect_stdout(io.StringIO()), instrument():
            t0 = time.perf_counter()
            main(bench)
            raw_bench = time.perf_counter() - t0
        bench_wall = clock.measure(raw_bench)
        bench_summary = (outdir / "summary.csv").read_bytes()
        with contextlib.redirect_stdout(io.StringIO()), instrument():
            t0 = time.perf_counter()
            main(report)
            raw_report = time.perf_counter() - t0
        report_wall = clock.measure(raw_report)
        # Engine runs inside bench take the scale of the whole bench call.
        walls = {e: w * bench_wall / raw_bench for e, w in walls.items()}

        errors, failed = [], 0
        if (outdir / "summary.csv").read_bytes() != bench_summary:
            errors.append("report: summary.csv differs from the one bench wrote")
            failed += 1
        evals, finals = {}, {}
        rmp_floor = EngineConfig().rmp_floor
        for engine, prefix in (("mfea", "MFEA"), ("dmfea2", "dMFEA_II")):
            paths = sorted(outdir.glob(f"{env.name}__{prefix}__rep*.jsonl"))
            if len(paths) != self.reps:
                errors.append(f"{engine}: {len(paths)} traces for {self.reps} repetitions")
                failed += abs(self.reps - len(paths))
            evals[engine], finals[engine] = 0, []
            for p in paths:
                text = p.read_text()
                trace = RunTrace.from_jsonl(text)
                evals[engine] += trace.records[-1].evaluations
                finals[engine].append(trace.final_best_costs())
                run_errors = check_trace(trace, text, self.budget, engine == "dmfea2",
                                         rmp_floor)
                failed += bool(run_errors)
                errors += [f"{p.name}: {e}" for e in run_errors]
        fingerprint = {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}
        gaps = {e: gap_pct(env.task_names, np.mean(f, axis=0)) for e, f in finals.items()}
        runs = 2 * self.reps + 1
        return Iteration(bench_wall + report_wall, raw_bench + raw_report, walls, evals,
                         gaps, runs, min(failed, runs), errors, fingerprint)


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "tsp4": EngineWorkload("TE_4_1", budget=8_000),
    "cvrp4": EngineWorkload("TE_4_2", budget=8_000),
    "bench8": CliWorkload("TE_8", budget=6_000, reps=3),
}


# -- measuring -----------------------------------------------------------------

def _median(values) -> float:
    return float(statistics.median(values))


def _loop(seconds: float, step) -> list:
    """Closed loop: call ``step(i)`` back to back until the window closes."""
    out = []
    deadline = time.perf_counter() + seconds
    while len(out) < MIN_ITERATIONS or time.perf_counter() < deadline:
        out.append(step(len(out)))
    return out


def measure(name: str, seed: int, seconds: float, workdir: Path) -> dict:
    """Untraced run: end-to-end metrics and output checks."""
    workload = WORKLOADS[name]
    clock = RefClock()
    setup, raw_setup = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        env = load_environment(workload.environment)
        raw_setup.append(time.perf_counter() - t0)
        setup.append(clock.measure(raw_setup[-1]))

    its = _loop(seconds, lambda i: workload.run(env, iteration_seed(seed, i), clock,
                                                workdir=workdir))
    errors = [e for it in its for e in it.errors]
    metrics = {
        "setup_s": _median(setup),
        "wall_s": _median(it.wall for it in its),
        "evals_per_s": _median(sum(it.engine_evals.values()) / it.wall for it in its),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    for engine, _ in ENGINES:
        metrics[f"{engine}.evals_per_s"] = _median(
            it.engine_evals[engine] / it.engine_wall[engine] for it in its)
        metrics[f"{engine}.gap_pct"] = its[0].gaps[engine]
    result = _result(metrics, END_TO_END, its, errors)
    result["raw"] = {
        "setup_s": _median(raw_setup),
        "wall_s": _median(it.raw_wall for it in its),
        "evals_per_s": _median(sum(it.engine_evals.values()) / it.raw_wall for it in its),
    }
    return result


def measure_traced(name: str, seed: int, seconds: float, workdir: Path,
                   spans_path: Path | None = None) -> dict:
    """Traced run: per-layer metrics, plus an untraced twin of every
    iteration at the same seed whose results the traced one must equal."""
    workload = WORKLOADS[name]
    setup_tracer = Tracer()
    with setup_tracer.installed():
        for _ in range(SETUP_REPEATS):
            env = mfopt.harness.load_environment(workload.environment)

    tracer = Tracer()
    clock = RefClock()

    def step(i):
        s = iteration_seed(seed, i)
        plain = workload.run(env, s, clock, workdir=workdir)
        traced = workload.run(env, s, clock, tracer=tracer, workdir=workdir)
        if traced.fingerprint != plain.fingerprint:
            traced.errors.append("traced results differ from the untraced run")
            traced.failed_runs = traced.runs
        return plain, traced

    pairs = _loop(seconds, step)
    its = [traced for _, traced in pairs]
    errors = [e for it in its for e in it.errors]
    metrics = tracer.layer_metrics(len(its), sum(it.raw_wall for it in its))
    metrics["parsers.parse_ms"] = (setup_tracer.seconds("parsers.parse_problem")
                                   / SETUP_REPEATS * 1e3)
    metrics["tracing.overhead_s"] = _median(t.wall - p.wall for p, t in pairs)
    if spans_path is not None:
        tracer.write(spans_path)
    return _result(metrics, PER_LAYER, its, errors)


def _result(metrics: dict, table: dict, its, errors) -> dict:
    missing = set(table) ^ set(metrics)
    if missing:
        raise RuntimeError(f"metric tables out of sync: {sorted(missing)}")
    attempted = sum(it.runs for it in its)
    failed = sum(it.failed_runs for it in its)
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": table[k][0]} for k in table},
        "errors": errors,
        "raw": {},
    }
