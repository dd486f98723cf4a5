"""Generational loops for multifactorial search.

Two engines share one outer loop: the baseline MFEA with a scalar random
mating probability, and the adaptive dMFEA-II whose mating probabilities
live in a learned symmetric K x K matrix updated online from the outcome
of each transfer (child better or worse than the parent whose skill task
it inherited).

A generation draws each child as (child, skill, cost). A dMFEA-II child whose
cost updates a matrix cell is a genome, costed before the next draw; every other
child is a record with cost ``UNEVALUATED``. That marker alone decides which
children the loop builds (in one OX and 2-opt batch) and costs (per skill task).
"""

from __future__ import annotations

import json
import logging
import numbers
from dataclasses import dataclass, field, fields
from itertools import chain, islice

import numpy as np

from .core import (
    UNEVALUATED,
    Population,
    assign_ranks_and_fitness,
    elitist_select,
    evaluate_all_tasks,
    evaluate_skill_task,
    random_genome,
)
from .operators import CrossoverWindow, _two_points, dynamic_ox, order_crossover, two_opt

log = logging.getLogger(__name__)


@dataclass
class EngineConfig:
    """Every engine parameter with its default and valid range; the
    command line and experiment plans take their values from here."""
    population_size: int = 200
    eval_budget: int = 600_000
    rmp_scalar: float = 0.9      # MFEA only
    rmp_init: float = 0.95       # dMFEA-II initial matrix value
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
        return cls(entries=np.full((k_tasks, k_tasks), value),
                   delta_inc=delta_inc, delta_dec=delta_dec, floor=floor)

    def get(self, i: int, j: int) -> float:
        return float(self.entries[i, j])


def rmp_update(m: RmpMatrix, i: int, j: int, transfer_positive: bool) -> RmpMatrix:
    """Apply one transfer outcome to entry (i, j), mirroring (j, i).

    Positive transfer divides by delta_inc (clamped at 1.0); negative
    multiplies by delta_dec (clamped at the floor).
    """
    entry = m.entries[i, j]
    if transfer_positive:
        entry = min(1.0, entry / m.delta_inc)
    else:
        entry = max(m.floor, entry * m.delta_dec)
    m.entries[i, j] = entry
    m.entries[j, i] = entry
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


def _best_per_task(pop: Population) -> list[TaskResult]:
    return [TaskResult(cost=float(pop.costs[i, k]), genome=pop.genomes[i].copy())
            for k, i in enumerate(pop.costs.argmin(axis=0))]


def _record(generation: int, evaluations: int, pop: Population,
            rmp: RmpMatrix | None) -> GenerationRecord:
    return GenerationRecord(
        generation=generation,
        evaluations=evaluations,
        best_costs=pop.costs.min(axis=0).tolist(),
        rmp=None if rmp is None else rmp.entries.tolist(),
    )


def _evolve(tasks, config: EngineConfig, rng, adaptive: bool):
    rng = np.random.default_rng(config.seed if rng is None else rng)
    k_tasks = len(tasks)
    dims = [t.dimension for t in tasks]
    config.check_init_budget(k_tasks)
    # Freeing a 1 MiB block makes glibc raise its heap-trim threshold to 2 MiB,
    # so each generation's 0.1-0.3 MB temporaries stop faulting fresh pages in.
    np.empty(1 << 17)

    d_max = max(dims)
    genomes = np.array([random_genome(d_max, rng) for _ in range(config.population_size)])
    pop = assign_ranks_and_fitness(Population(genomes, evaluate_all_tasks(genomes, tasks)))
    evaluations = config.population_size * k_tasks
    rmp = RmpMatrix.initial(k_tasks, config.rmp_init, config.delta_inc,
                            config.delta_dec, config.rmp_floor) if adaptive else None

    trace = RunTrace([_record(0, evaluations, pop, rmp)])
    while evaluations < config.eval_budget:
        order = rng.permutation(len(pop.costs)).tolist()
        buckets = [np.flatnonzero(pop.skill == t) for t in range(k_tasks)] if adaptive else None
        skill_of = pop.skill.tolist()
        pairs = (_dmfea2_pair(pop, ia, ib, skill_of, buckets, rmp, dims, config, tasks, rng)
                 if adaptive else _mfea_pair(ia, ib, skill_of, d_max, config, rng)
                 for ia, ib in zip(order[::2], order[1::2]))
        # Lazy children: the budget binds per child, so an odd remainder cuts a pair.
        children = list(islice(chain.from_iterable(pairs), config.eval_budget - evaluations))
        built, skills, child_costs = zip(*children)
        skills, child_costs = np.array(skills), np.array(child_costs)
        # Children 2p and 2p + 1 come from parent pair p. A record (a, b, lo, hi, i, j)
        # is the OX child of pair (a, b) over [lo, hi) that keeps a's segment if even
        # and b's if odd, then 2-opt (i, j) if i < j. Records draw nothing, so all are
        # built here, a kernel row per pair, then costed one batch per skill task.
        deferred = child_costs == UNEVALUATED  # the records
        offspring = np.empty((len(children), d_max), dtype=np.int64)
        pos = np.flatnonzero(deferred)
        if pos.size:
            a, b, lo, hi, i, j = np.array([built[r] for r in pos]).T
            first = np.diff(pos // 2, prepend=-1) > 0
            kept, other = order_crossover(pop.genomes[a[first]], pop.genomes[b[first]],
                                          CrossoverWindow(lo[first], hi[first] - lo[first]))
            offspring[pos] = np.stack((kept, other), axis=1)[np.cumsum(first) - 1, pos % 2]
            offspring[pos[i < j]] = two_opt(offspring[pos[i < j]], i[i < j], j[i < j])
        for r in np.flatnonzero(~deferred):
            offspring[r] = built[r]
        for t in np.unique(skills[deferred]):
            rows = deferred & (skills == t)
            child_costs[rows] = evaluate_skill_task(offspring[rows], t, tasks)
        costs = np.full((len(children), k_tasks), UNEVALUATED)
        costs[np.arange(len(children)), skills] = child_costs
        evaluations += len(children)
        pop = elitist_select(pop, Population(offspring, costs), config.population_size)
        trace.records.append(_record(len(trace.records), evaluations, pop, rmp))

    return _best_per_task(pop), trace


def _mfea_pair(ia, ib, skill_of, n, config, rng):
    """One parent pair under the baseline scalar-RMP scheme; returns
    (record, skill, UNEVALUATED) per child."""
    ta, tb = skill_of[ia], skill_of[ib]
    if ta != tb and rng.random() > config.rmp_scalar:
        # A full window keeps each parent whole: each child is a 2-opt mutant.
        return [((ia, ib, 0, n, *_two_points(n, rng)), t, UNEVALUATED) for t in (ta, tb)]
    record = (ia, ib, *_two_points(n + 1, rng), 0, 0)
    if ta != tb:
        ta, tb = ta if rng.random() < 0.5 else tb, ta if rng.random() < 0.5 else tb
    return (record, ta, UNEVALUATED), (record, tb, UNEVALUATED)


def _other_member(bucket, idx, r):
    """The ``r``-th member other than ``idx`` of the sorted ``bucket``, which holds ``idx``."""
    return bucket[r] if bucket[r] < idx else bucket[r + 1]


def _dmfea2_pair(pop, ia, ib, skill_of, buckets, rmp, dims, config, tasks, rng):
    """One parent pair under the adaptive matrix scheme, mates drawn from the
    skill ``buckets``; yields (record, skill, UNEVALUATED) per child that updates
    no matrix cell and (genome, skill, cost) per dOX child, after its update."""

    def costed(genome, skill, parent, cell):
        # A dOX child updates its matrix cell by whether it beats ``parent``,
        # the parent whose skill task it inherited.
        cost = evaluate_skill_task(genome, skill, tasks)
        rmp_update(rmp, *cell, transfer_outcome(cost, pop.costs[parent, skill]))
        return genome, skill, cost

    ta, tb = skill_of[ia], skill_of[ib]
    n = pop.genomes.shape[1]
    if ta == tb:
        lo, hi = _two_points(n + 1, rng)
        for _ in range(2):
            move = _two_points(n, rng) if rng.random() < config.p_m else (0, 0)
            yield (ia, ib, lo, hi, *move), ta, UNEVALUATED
        return

    entry = rmp.get(ta, tb)
    if rng.random() <= entry:
        # Inter-task parent-centric crossover; both children update (ta, tb).
        for dominant, donor, d_k in ((ia, ib, dims[ta]), (ib, ia, dims[tb])):
            genome = dynamic_ox(pop.genomes[dominant], pop.genomes[donor], entry,
                                config.w, d_k, rng)
            genome = two_opt(genome, rng=rng) if rng.random() < config.p_m else genome
            skill = ta if rng.random() < 0.5 else tb
            yield costed(genome, skill, ia if skill == ta else ib, (ta, tb))
        return

    # Intra-task branch: each parent crosses with a random same-skill mate
    # and updates the diagonal entry of its own task.
    for idx, t in ((ia, ta), (ib, tb)):
        bucket = buckets[t]
        if len(bucket) == 1:
            log.info("no same-skill mate for task %d; falling back to 2-opt", t)
            yield (ia, ib, 0, n, *_two_points(n, rng)), t, UNEVALUATED  # the parent, 2-opted
            continue
        mate = _other_member(bucket, idx, int(rng.integers(len(bucket) - 1)))
        genome = dynamic_ox(pop.genomes[idx], pop.genomes[mate], rmp.get(t, t),
                            config.w, dims[t], rng)
        genome = two_opt(genome, rng=rng) if rng.random() < config.p_m else genome
        yield costed(genome, t, idx, (t, t))


def run_mfea(tasks, config: EngineConfig, rng: np.random.Generator | None = None):
    """Baseline multifactorial loop with a fixed scalar mating probability."""
    return _evolve(tasks, config, rng, adaptive=False)


def run_dmfea2(tasks, config: EngineConfig, rng: np.random.Generator | None = None):
    """Adaptive loop: learned transfer matrix plus dynamic parent-centric
    crossover sized by its entries."""
    return _evolve(tasks, config, rng, adaptive=True)
