"""Generational loops for multifactorial search.

Two engines share one outer loop: the baseline MFEA with a scalar random
mating probability, and the adaptive dMFEA-II whose mating probabilities
live in a learned symmetric K x K matrix updated online from the outcome
of each transfer (child better or worse than the parent whose skill task
it inherited).

Each engine is a generator of a generation's children, pair by pair, as (child,
skill, cost); the loop takes as many as the budget allows, so a child's draws are
made only if the budget takes it. A dMFEA-II inter-task child is a genome, costed
before the next draw because its cost updates a matrix cell; every other child is
a record with cost ``UNEVALUATED``. That marker alone decides which children the
loop builds (all records in one ``build_children`` call) and costs (one ``evaluate_skills``).
"""

from __future__ import annotations

import json
import logging
import numbers
from dataclasses import dataclass, field, fields
from functools import partial
from itertools import islice

import numpy as np

from .core import (
    UNEVALUATED,
    Population,
    assign_ranks_and_fitness,
    elitist_select,
    evaluate_all_tasks,
    evaluate_skill_task,
    evaluate_skills,
    random_genome,
)
from .operators import (_dox_window, _two_points, build_children, dynamic_ox, gene_positions,
                        two_opt, window_length)
from .operators import order_crossover  # noqa: F401  unused here; mfbench's tracer wraps it by name

log = logging.getLogger(__name__)


@dataclass
class EngineConfig:
    """Every engine parameter with its default and valid range; the
    command line and experiment plans take their values from here."""
    population_size: int = 200
    eval_budget: int = 600_000
    rmp_scalar: float = 0.9      # MFEA only
    rmp_init: float = 0.95       # dMFEA-II initial inter-task matrix value
    p_m: float = 0.2
    w: float = 0.5               # dOX cutting-window fraction
    delta_inc: float = 0.99
    delta_dec: float = 0.99
    rmp_floor: float = 0.1
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):  # each takes its default's type, as on the command line
            value, whole = getattr(self, f.name), type(f.default) is int
            kind, noun = (numbers.Integral, "an integer") if whole else (numbers.Real, "a real number")
            if isinstance(value, bool) or not isinstance(value, kind):  # a bool is neither
                raise ValueError(f"{f.name} must be {noun}, got {value!r}")
        # Written so that NaN fails every range check.
        checks = (
            (self.population_size >= 2 and self.population_size % 2 == 0,
             f"population size must be even and at least 2 (offspring are "
             f"paired), got {self.population_size}"),
            (0 <= self.rmp_scalar <= 1, f"rmp_scalar must be in [0, 1], got {self.rmp_scalar}"),
            (0 <= self.p_m <= 1, f"p_m must be in [0, 1], got {self.p_m}"),
            (0 < self.w <= 1, f"w must be in (0, 1], got {self.w}"),
            (0 < self.delta_inc <= 1, f"delta_inc must be in (0, 1], got {self.delta_inc}"),
            (0 < self.delta_dec <= 1, f"delta_dec must be in (0, 1], got {self.delta_dec}"),
            (0 <= self.rmp_floor <= self.rmp_init <= 1,
             f"need 0 <= rmp_floor <= rmp_init <= 1, got rmp_floor="
             f"{self.rmp_floor} and rmp_init={self.rmp_init}"),
            (self.seed >= 0, f"seed must be non-negative, got {self.seed}"),
        )
        for ok, message in checks:
            if not ok:
                raise ValueError(message)

    def check_init_budget(self, k_tasks: int) -> None:
        """Raise unless the budget covers evaluating the initial population
        on all ``k_tasks`` tasks."""
        init_cost = self.population_size * k_tasks
        if self.eval_budget < init_cost:
            raise ValueError(f"budget {self.eval_budget} cannot cover "
                             f"initialization ({init_cost} evaluations)")


@dataclass
class RmpMatrix:
    """Symmetric matrix of inter-task mating probabilities.

    Entries stay in [floor, 1.0]; the floor keeps a minimum level of
    knowledge exchange between any two tasks.
    """
    entries: np.ndarray
    delta_inc: float
    delta_dec: float
    floor: float

    @classmethod
    def initial(cls, k_tasks: int, value: float, delta_inc: float, delta_dec: float,
                floor: float = EngineConfig.rmp_floor) -> "RmpMatrix":
        # As in MFEA-II, a task always mates with itself: only off-diagonal entries learn.
        return cls(entries=np.where(np.eye(k_tasks, dtype=bool), 1.0, value),
                   delta_inc=delta_inc, delta_dec=delta_dec, floor=floor)

    def get(self, i: int, j: int) -> float:
        return self.entries.item(i, j)


def rmp_update(m: RmpMatrix, i: int, j: int, transfer_positive: bool) -> RmpMatrix:
    """Apply one transfer outcome to entry (i, j), mirroring (j, i).

    Positive transfer divides by delta_inc (clamped at 1.0); negative
    multiplies by delta_dec (clamped at the floor).
    """
    entry = m.entries.item(i, j)
    if transfer_positive:  # as min(1.0, entry / delta_inc), with no overflow past 1
        entry = 1.0 if entry >= m.delta_inc else entry / m.delta_inc
    else:
        entry = max(m.floor, entry * m.delta_dec)
    m.entries[i, j] = m.entries[j, i] = entry
    return m


def transfer_outcome(child_cost: float, parent_cost: float) -> bool:
    """True iff the child strictly improves on the parent's cost for the
    skill task the child inherited. Equal cost counts as negative."""
    return child_cost < parent_cost


@dataclass
class GenerationRecord:
    generation: int
    evaluations: int
    best_costs: list[float]
    rmp: list[list[float]] | None = None


@dataclass
class RunTrace:
    records: list[GenerationRecord] = field(default_factory=list)

    def to_jsonl(self) -> str:
        return "".join(json.dumps(vars(r)) + "\n" for r in self.records)

    @classmethod
    def from_jsonl(cls, text: str) -> "RunTrace":
        """Parse a trace; an empty text or a bad record is a ValueError,
        the latter naming its line."""
        records = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            try:
                if line.strip():
                    records.append(GenerationRecord(**json.loads(line)))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"line {lineno}: bad trace record: {exc}") from None
        if not records:
            raise ValueError("empty trace")
        return cls(records)

    def final_best_costs(self) -> list[float]:
        return self.records[-1].best_costs


@dataclass
class TaskResult:
    cost: float
    genome: np.ndarray


class _Draws:
    """A Generator's two scalar calls in a run's pair loop, ``integers(n)`` and ``random()``:
    its bit generator's own C calls, ``next_uint32`` under numpy's arithmetic (Lemire's method)
    and ``next_double`` itself, so values and state equal numpy's. The calls skip numpy's
    per-generator lock: share no Generator across threads during a run."""
    def __init__(self, rng):
        bits, self._rng = rng.bit_generator.ctypes, rng  # the C state lives as long as rng
        self._u32 = partial(bits.next_uint32, bits.state_address)
        self.random = partial(bits.next_double, bits.state_address)

    def integers(self, n):
        if n == 1:
            return 0
        m = self._u32() * n
        while m & 0xFFFFFFFF < n and m & 0xFFFFFFFF < (0x100000000 - n) % n:  # numpy's test order
            m = self._u32() * n
        return m >> 32


def _evolve(tasks, config: EngineConfig, rng, children, rmp: RmpMatrix | None = None):
    """The one outer loop. ``children(pop, order, draws)`` is the engine, a generator of a
    generation's children in pair ``order``; ``rmp``, if any, is snapshotted in each record."""
    rng = np.random.default_rng(config.seed if rng is None else rng)
    k_tasks = len(tasks)
    config.check_init_budget(k_tasks)
    # Freeing a 1 MiB block makes glibc raise its heap-trim threshold to 2 MiB,
    # so each generation's 0.1-0.3 MB temporaries stop faulting fresh pages in.
    np.empty(1 << 17)

    d_max = max(t.dimension for t in tasks)
    genomes = np.array([random_genome(d_max, rng) for _ in range(config.population_size)])
    pop = assign_ranks_and_fitness(Population(genomes, evaluate_all_tasks(genomes, tasks)))
    evaluations = config.population_size * k_tasks

    # Each task's best so far: with fewer members than tasks, selection can drop it.
    best, kept = pop.costs.min(axis=0), pop.genomes[pop.costs.argmin(axis=0)]
    trace = RunTrace()
    draws = _Draws(rng)  # the pair loop's scalar draws; permutations come from rng itself
    while True:
        trace.records.append(GenerationRecord(len(trace.records), evaluations, best.tolist(),
                                              None if rmp is None else rmp.entries.tolist()))
        if evaluations >= config.eval_budget:
            return [TaskResult(float(c), g.copy()) for c, g in zip(best, kept)], trace
        order = rng.permutation(len(pop.costs)).tolist()
        # Lazy children: a child's draws are made only if the budget takes it.
        made = list(islice(children(pop, order, draws), config.eval_budget - evaluations))
        built, skills, child_costs = zip(*made)
        skills, child_costs = np.array(skills), np.array(child_costs)
        deferred = child_costs == UNEVALUATED  # the records
        offspring = np.empty((len(made), d_max), dtype=np.int64)
        fixed, pos = np.flatnonzero(~deferred), np.flatnonzero(deferred)
        offspring[fixed] = np.reshape([built[r] for r in fixed], (-1, d_max))
        offspring[pos] = build_children(pop.genomes, [built[r] for r in pos])
        child_costs[deferred] = evaluate_skills(offspring[deferred], skills[deferred], tasks)
        costs = np.full((len(made), k_tasks), UNEVALUATED)
        costs[np.arange(len(made)), skills] = child_costs
        evaluations += len(made)
        found = costs.min(axis=0)
        better = found < best
        best[better], kept[better] = found[better], offspring[costs[:, better].argmin(axis=0)]
        pop = elitist_select(pop, Population(offspring, costs), config.population_size)


def _mfea_children(pop, order, rng, config):
    """The baseline scalar-RMP scheme; yields (record, skill, UNEVALUATED) per child."""
    skill_of, n = pop.skill.tolist(), pop.genomes.shape[1]
    for ia, ib in zip(order[::2], order[1::2]):
        ta, tb = skill_of[ia], skill_of[ib]
        if ta != tb and rng.random() > config.rmp_scalar:
            # An empty window keeps each parent whole: each child is a 2-opt mutant.
            for p, t in ((ia, ta), (ib, tb)):
                yield (p, p, 0, 0, *_two_points(n, rng), 0), t, UNEVALUATED
            continue
        lo, hi = _two_points(n + 1, rng)  # the OX pair: each child keeps one parent's segment
        for p, q in ((ia, ib), (ib, ia)):
            skill = ta if ta == tb or rng.random() < 0.5 else tb
            yield (p, q, lo, hi, 0, 0, 1), skill, UNEVALUATED


def _other_member(bucket, idx, r):
    """The ``r``-th member other than ``idx`` of the sorted ``bucket``, which holds ``idx``."""
    return bucket[r] if bucket[r] < idx else bucket[r + 1]


def _dmfea2_children(pop, order, rng, config, tasks, rmp):
    """The adaptive matrix scheme, intra-task mates drawn from the skill ``buckets``; yields
    (genome, skill, cost) per inter-task child, after its update, and (record, skill,
    UNEVALUATED) per other child."""
    skill_of, n = pop.skill.tolist(), pop.genomes.shape[1]
    dims = [t.dimension for t in tasks]
    buckets = [np.flatnonzero(pop.skill == t).tolist() for t in range(len(tasks))]
    where = gene_positions(pop.genomes)
    # Intra-task dOX windows: the unit diagonal is never updated, so one length per task.
    lengths = [window_length(config.w, rmp.get(t, t), d, n) for t, d in enumerate(dims)]
    for ia, ib in zip(order[::2], order[1::2]):
        ta, tb = skill_of[ia], skill_of[ib]
        if ta == tb:
            lo, hi = _two_points(n + 1, rng)
            for a, b in ((ia, ib), (ib, ia)):
                move = _two_points(n, rng) if rng.random() < config.p_m else (0, 0)
                yield (a, b, lo, hi, *move, 1), ta, UNEVALUATED
            continue

        entry = rmp.get(ta, tb)
        if rng.random() <= entry:
            # Inter-task parent-centric crossover; each child updates (ta, tb) by whether
            # it beats the parent whose skill task it inherited.
            for dominant, donor, d_k in ((ia, ib, dims[ta]), (ib, ia, dims[tb])):
                genome = dynamic_ox(pop.genomes[dominant], pop.genomes[donor], entry,
                                    config.w, d_k, rng, positions=where[donor])
                genome = two_opt(genome, rng) if rng.random() < config.p_m else genome
                skill = ta if rng.random() < 0.5 else tb
                cost = evaluate_skill_task(genome, skill, tasks)
                parent = ia if skill == ta else ib
                rmp_update(rmp, ta, tb, transfer_outcome(cost, pop.costs[parent, skill]))
                yield genome, skill, cost
            continue

        # Intra-task branch: each parent crosses with a random same-skill mate at
        # its diagonal entry, fixed at 1, and updates no matrix cell.
        for idx, t in ((ia, ta), (ib, tb)):
            bucket = buckets[t]
            if len(bucket) == 1:
                log.info("no same-skill mate for task %d; falling back to 2-opt", t)
                yield (idx, idx, 0, 0, *_two_points(n, rng), 0), t, UNEVALUATED  # 2-opted
                continue
            mate = _other_member(bucket, idx, int(rng.integers(len(bucket) - 1)))
            lo, hi, swap = _dox_window(pop.genomes[idx], where[mate], lengths[t], rng)
            move = _two_points(n, rng) if rng.random() < config.p_m else (0, 0)
            yield (idx, idx if swap else mate, lo, hi, *move, 0), t, UNEVALUATED


def run_mfea(tasks, config: EngineConfig,
             rng: np.random.Generator | np.random.SeedSequence | int | None = None):
    """Baseline multifactorial loop with a fixed scalar mating probability."""
    return _evolve(tasks, config, rng, partial(_mfea_children, config=config))


def run_dmfea2(tasks, config: EngineConfig,
               rng: np.random.Generator | np.random.SeedSequence | int | None = None):
    """Adaptive loop: learned transfer matrix plus dynamic parent-centric
    crossover sized by its entries."""
    rmp = RmpMatrix.initial(len(tasks), config.rmp_init, config.delta_inc,
                            config.delta_dec, config.rmp_floor)
    return _evolve(tasks, config, rng,
                   partial(_dmfea2_children, config=config, tasks=tasks, rmp=rmp), rmp)
