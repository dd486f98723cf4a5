"""Span recording around calls into mfopt's layers, from outside the package.

Wrappers are installed on the module attribute each caller looks up and
restored on exit, so tracing never leaks into an untraced run. Spans are
kept in flat in-memory arrays (name id, parent index, start, end) and are
only aggregated or written once the run is over. Wrappers draw nothing from
any RNG, so a traced run must reproduce the untraced one exactly.
"""

from __future__ import annotations

import contextlib
import functools
import time
from array import array
from pathlib import Path

import numpy as np

import mfopt.cli
import mfopt.core
import mfopt.engines
import mfopt.harness
import mfopt.parsers
import mfopt.tasks

# (owner, attribute, span name). ``owner`` is the module (or class) whose
# attribute the caller resolves at call time: ``engines`` imports its
# operators and core helpers by name, ``cli`` imports the harness entry
# points by name, and ``harness`` imports ``ranksum_test`` and the engines.
SPAN_TARGETS = (
    (mfopt.parsers, "parse_problem", "parsers.parse_problem"),
    (mfopt.tasks, "tsp_cost", "tasks.tsp_cost"),
    (mfopt.tasks, "cvrp_cost", "tasks.cvrp_cost"),
    (mfopt.tasks, "project", "tasks.project"),
    (mfopt.engines, "order_crossover", "operators.order_crossover"),
    (mfopt.engines, "dynamic_ox", "operators.dynamic_ox"),
    (mfopt.engines, "two_opt", "operators.two_opt"),
    (mfopt.engines, "evaluate_all_tasks", "core.evaluate_all_tasks"),
    (mfopt.engines, "evaluate_skill_task", "core.evaluate_skill_task"),
    (mfopt.engines, "assign_ranks_and_fitness", "core.assign_ranks"),
    (mfopt.core, "assign_ranks_and_fitness", "core.assign_ranks"),
    (mfopt.engines, "elitist_select", "core.elitist_select"),
    (mfopt.engines.RunTrace, "to_jsonl", "harness.trace_serialize"),
    (mfopt.harness, "run_mfea", "engines.run"),
    (mfopt.harness, "run_dmfea2", "engines.run"),
    (mfopt.harness, "_run_one", "harness.run_one"),
    (mfopt.harness, "repetition_seed", "harness.repetition_seed"),
    (mfopt.harness, "aggregate_rows", "harness.aggregate_rows"),
    (mfopt.harness, "ranksum_test", "stats.ranksum"),
    (mfopt.harness, "load_environment", "harness.load_environment"),
    (mfopt.cli, "load_environment", "harness.load_environment"),
    (mfopt.cli, "run_experiment", "harness.run_experiment"),
    (mfopt.cli, "emit_report", "harness.emit_report"),
    (mfopt.cli, "reaggregate", "harness.reaggregate"),
)

# Counted, not timed: the adaptive engine's per-transfer matrix update.
COUNT_TARGETS = ((mfopt.engines, "rmp_update"),)

ENGINE_OF = {"run_mfea": "mfea", "run_dmfea2": "dmfea2"}


def _attr(owner, name):
    # A class attribute is read from __dict__ so the plain function, not a
    # bound or wrapped view of it, is what gets restored.
    return owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)


class Tracer:
    """Records spans and per-run counters while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.engine = None
        self._seen: set[int] = set()
        self.evaluations = 0
        self.repeat_evaluations = 0
        self.trace_bytes = 0
        self.dmfea2_children = 0
        self.inter_updates = 0
        self.inter_positive = 0

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, before=None, after=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``before(args)`` runs before the span opens and ``after(args,
        result)`` after it closes, so their cost is not charged to ``fn``.
        """
        nid = self._id(name)
        ids, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            i = len(ids)
            ids.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _begin_run(self, engine: str):
        def before(args):
            self.engine = engine
            self._seen = set()
        return before

    def _after_cost(self, args, result):
        perm, inst = args[0], args[1]
        key = hash((id(inst), perm.tobytes()))
        self.evaluations += 1
        if key in self._seen:
            self.repeat_evaluations += 1
        else:
            self._seen.add(key)

    def _after_skill_eval(self, args, result):
        if self.engine == "dmfea2":
            self.dmfea2_children += 1

    def _after_serialize(self, args, result):
        self.trace_bytes += len(result.encode())

    def _counted_rmp_update(self, fn):
        @functools.wraps(fn)
        def wrapper(m, i, j, transfer_positive):
            if i != j:
                self.inter_updates += 1
                self.inter_positive += bool(transfer_positive)
            return fn(m, i, j, transfer_positive)
        return wrapper

    def engine_run(self, fn, engine: str):
        """Span for one engine run called directly by the benchmark."""
        return self.wrap("engines.run", fn, before=self._begin_run(engine))

    @contextlib.contextmanager
    def installed(self):
        """Install every wrapper; restore the original attributes on exit."""
        saved = []
        try:
            for owner, attr, name in SPAN_TARGETS:
                original = _attr(owner, attr)
                saved.append((owner, attr, original))
                before = after = None
                if attr in ENGINE_OF:
                    before = self._begin_run(ENGINE_OF[attr])
                elif attr in ("tsp_cost", "cvrp_cost"):
                    after = self._after_cost
                elif attr == "evaluate_skill_task":
                    after = self._after_skill_eval
                elif attr == "to_jsonl":
                    after = self._after_serialize
                setattr(owner, attr, self.wrap(name, original, before, after))
            for owner, attr in COUNT_TARGETS:
                original = _attr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self._counted_rmp_update(original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def arrays(self):
        """Spans as numpy arrays: name id, parent index, start, end, self time."""
        ids = np.frombuffer(self.name_id, dtype=np.int32).copy()
        parent = np.frombuffer(self.parent, dtype=np.int32).copy()
        start = np.frombuffer(self.start, dtype=np.float64).copy()
        end = np.frombuffer(self.end, dtype=np.float64).copy()
        dur = end - start
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=dur[has_parent],
                               minlength=len(dur))
        return ids, parent, start, end, dur - children

    def write(self, path: Path) -> None:
        ids, parent, start, end, _ = self.arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), name_id=ids, parent=parent,
                 start=start, end=end)

    def seconds(self, name: str) -> float:
        """Total inclusive time of the spans called ``name``."""
        ids, _, start, end, _ = self.arrays()
        nid = self._ids.get(name)
        return float((end - start)[ids == nid].sum()) if nid is not None else 0.0

    def layer_metrics(self, iterations: int, traced_wall: float) -> dict[str, float]:
        """Per-layer figures; counts and totals are per workload iteration.

        ``*.us`` is the mean inclusive time per call, ``*.self_us`` the mean
        time not covered by child spans, and ``*.share`` a layer's total
        self time over the traced wall time.
        """
        ids, _, start, end, self_t = self.arrays()
        n_names = len(self.names)
        calls = np.bincount(ids, minlength=n_names)
        total = np.bincount(ids, weights=end - start, minlength=n_names)
        self_total = np.bincount(ids, weights=self_t, minlength=n_names)
        it = float(iterations)

        def n_calls(name):
            nid = self._ids.get(name)
            return int(calls[nid]) if nid is not None else 0

        def secs(name, times=total):
            nid = self._ids.get(name)
            return float(times[nid]) if nid is not None else 0.0

        def us(name, times=total):
            c = n_calls(name)
            return secs(name, times) / c * 1e6 if c else 0.0

        def share(layer):
            return sum(float(self_total[i]) for i, nm in enumerate(self.names)
                       if nm.split(".", 1)[0] == layer) / traced_wall

        def ratio(num, den):
            return num / den if den else 0.0

        gen = self._generation_seconds(ids, end)
        return {
            "parsers.share": share("parsers"),
            "tasks.tsp_cost.calls": n_calls("tasks.tsp_cost") / it,
            "tasks.tsp_cost.us": us("tasks.tsp_cost"),
            "tasks.cvrp_cost.calls": n_calls("tasks.cvrp_cost") / it,
            "tasks.cvrp_cost.us": us("tasks.cvrp_cost"),
            "tasks.project.us": us("tasks.project"),
            "tasks.share": share("tasks"),
            "tasks.repeat_eval_share": ratio(self.repeat_evaluations, self.evaluations),
            "operators.order_crossover.calls": n_calls("operators.order_crossover") / it,
            "operators.order_crossover.us": us("operators.order_crossover"),
            "operators.dynamic_ox.calls": n_calls("operators.dynamic_ox") / it,
            "operators.dynamic_ox.us": us("operators.dynamic_ox"),
            "operators.two_opt.calls": n_calls("operators.two_opt") / it,
            "operators.two_opt.us": us("operators.two_opt"),
            "operators.share": share("operators"),
            "core.assign_ranks.calls": n_calls("core.assign_ranks") / it,
            "core.assign_ranks.us": us("core.assign_ranks"),
            "core.elitist_select.us": us("core.elitist_select"),
            "core.evaluate_skill_task.self_us": us("core.evaluate_skill_task", self_total),
            "core.evaluate_all_tasks.us": us("core.evaluate_all_tasks"),
            "core.share": share("core"),
            "engines.generation_ms.p50": float(np.percentile(gen, 50)) * 1e3 if gen.size else 0.0,
            "engines.generation_ms.p90": float(np.percentile(gen, 90)) * 1e3 if gen.size else 0.0,
            "engines.self_share": share("engines"),
            "engines.transfer_success_ratio": ratio(self.inter_positive, self.inter_updates),
            "engines.inter_transfer_share": ratio(self.inter_updates, self.dmfea2_children),
            "harness.run_one.count": n_calls("harness.run_one") / it,
            # Serialisation plus run_experiment's own time, which is the
            # file writes once every call it makes is a span of its own.
            "harness.trace_write_ms": (secs("harness.trace_serialize")
                                       + secs("harness.run_experiment", self_total)) / it * 1e3,
            "harness.trace_bytes": self.trace_bytes / it,
            "harness.report_ms": (secs("harness.emit_report")
                                  + secs("harness.reaggregate")) / it * 1e3,
            "harness.share": share("harness"),
            "stats.ranksum.calls": n_calls("stats.ranksum") / it,
            "stats.ranksum.us": us("stats.ranksum"),
            "stats.share": share("stats"),
            "cli.self_ms": secs("cli.main", self_total) / it * 1e3,
            "cli.share": share("cli"),
            "tracing.accounted_share": float(self_t.sum()) / traced_wall,
        }

    def _generation_seconds(self, ids, end) -> np.ndarray:
        """Time between consecutive survivor selections within one engine run."""
        run_id, sel_id = self._ids.get("engines.run"), self._ids.get("core.elitist_select")
        if run_id is None or sel_id is None:
            return np.empty(0)
        runs = np.flatnonzero(ids == run_id)
        sel = np.flatnonzero(ids == sel_id)
        if sel.size < 2:
            return np.empty(0)
        owner = np.searchsorted(runs, sel, side="right") - 1
        same_run = owner[1:] == owner[:-1]
        return (end[sel[1:]] - end[sel[:-1]])[same_run]
