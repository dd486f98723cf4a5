"""Generational loops for multifactorial search.

Two engines share one outer loop: the baseline MFEA with a scalar random
mating probability, and the adaptive dMFEA-II whose mating probabilities
live in a learned symmetric K x K matrix updated online from the outcome
of each transfer (child better or worse than the parent whose skill task
it inherited).
"""

from __future__ import annotations

import json
import logging
import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .core import (
    EvalCounter,
    Individual,
    Population,
    assign_ranks_and_fitness,
    elitist_select,
    evaluate_all_tasks,
    evaluate_skill_task,
    random_genome,
)
from .operators import dynamic_ox, order_crossover, two_opt

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


@dataclass
class RmpMatrix:
    """Symmetric matrix of inter-task mating probabilities.

    Entries stay in [floor, 1.0]; the floor keeps a minimum level of
    knowledge exchange between any two tasks.
    """
    entries: np.ndarray
    delta_inc: float = EngineConfig.delta_inc
    delta_dec: float = EngineConfig.delta_dec
    floor: float = EngineConfig.rmp_floor

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


def transfer_outcome(child: Individual, parent: Individual) -> bool:
    """True iff the child strictly improves on the parent's cost for the
    skill task the child inherited. Equal cost counts as negative."""
    k = child.skill_factor
    parent_cost = parent.factorial_costs[k]
    if not math.isfinite(parent_cost):
        log.info("parent has no cost on task %d; counting transfer as positive", k)
        return True
    return child.factorial_costs[k] < parent_cost


@dataclass
class GenerationRecord:
    generation: int
    evaluations: int
    best_costs: list[float]
    rmp: list[list[float]] | None = None

    def to_json(self) -> str:
        return json.dumps({
            "generation": self.generation,
            "evaluations": self.evaluations,
            "best_costs": self.best_costs,
            "rmp": self.rmp,
        })

    @classmethod
    def from_json(cls, line: str) -> "GenerationRecord":
        d = json.loads(line)
        return cls(**d)


@dataclass
class RunTrace:
    records: list[GenerationRecord] = field(default_factory=list)

    def append(self, rec: GenerationRecord) -> None:
        self.records.append(rec)

    def to_jsonl(self) -> str:
        return "".join(r.to_json() + "\n" for r in self.records)

    @classmethod
    def from_jsonl(cls, text: str) -> "RunTrace":
        return cls([GenerationRecord.from_json(line)
                    for line in text.splitlines() if line.strip()])

    def final_best_costs(self) -> list[float]:
        return self.records[-1].best_costs


@dataclass
class TaskResult:
    cost: float
    genome: np.ndarray


def _best_per_task(pop: Population, tasks) -> list[TaskResult]:
    out = []
    for k in range(len(tasks)):
        costs = [m.factorial_costs[k] for m in pop.members]
        i = int(np.argmin(costs))
        out.append(TaskResult(cost=float(costs[i]), genome=pop.members[i].genome.copy()))
    return out


def _init_population(tasks, config, rng, d_max, counter) -> Population:
    members = []
    for _ in range(config.population_size):
        ind = Individual.fresh(random_genome(d_max, rng), len(tasks))
        evaluate_all_tasks(ind, tasks, counter)
        members.append(ind)
    pop = Population(members, len(tasks))
    return assign_ranks_and_fitness(pop)


def _maybe_mutate(genome: np.ndarray, p_m: float, rng) -> np.ndarray:
    if rng.random() < p_m:
        return two_opt(genome, rng=rng)
    return genome


def _evolve(tasks, config: EngineConfig, rng, adaptive: bool):
    rng = np.random.default_rng(config.seed if rng is None else rng)
    k_tasks = len(tasks)
    dims = [t.dimension for t in tasks]
    d_max = max(dims)
    init_cost = config.population_size * k_tasks
    if config.eval_budget < init_cost:
        raise ValueError(
            f"budget {config.eval_budget} cannot cover initialization "
            f"({init_cost} evaluations)")

    counter = EvalCounter(config.eval_budget)
    pop = _init_population(tasks, config, rng, d_max, counter)
    rmp = RmpMatrix.initial(k_tasks, config.rmp_init, config.delta_inc,
                            config.delta_dec, config.rmp_floor) if adaptive else None

    trace = RunTrace()
    trace.append(GenerationRecord(
        generation=0,
        evaluations=counter.count,
        best_costs=[pop.best_cost(k) for k in range(k_tasks)],
        rmp=rmp.entries.tolist() if adaptive else None,
    ))

    generation = 0
    while not counter.exhausted:
        generation += 1
        offspring: list[Individual] = []
        by_skill: dict[int, list[int]] = {}
        for i, m in enumerate(pop.members):
            by_skill.setdefault(m.skill_factor, []).append(i)

        order = rng.permutation(len(pop.members))
        for a in range(0, len(order) - 1, 2):
            if counter.exhausted:
                break
            pa = pop.members[order[a]]
            pb = pop.members[order[a + 1]]
            if adaptive:
                kids = _dmfea2_pair(pa, pb, order[a], order[a + 1], pop, by_skill,
                                    rmp, dims, config, tasks, counter, rng)
            else:
                kids = _mfea_pair(pa, pb, config, tasks, counter, rng)
            # Children come lazily: the budget binds per child, odd ones too.
            for child in kids:
                offspring.append(child)
                if counter.exhausted:
                    break

        pop = elitist_select(pop, Population(offspring, k_tasks),
                             config.population_size)
        trace.append(GenerationRecord(
            generation=generation,
            evaluations=counter.count,
            best_costs=[pop.best_cost(k) for k in range(k_tasks)],
            rmp=rmp.entries.tolist() if adaptive else None,
        ))

    return _best_per_task(pop, tasks), trace


def _make_child(genome: np.ndarray, skill: int, tasks, counter) -> Individual:
    child = Individual.fresh(genome, len(tasks))
    child.skill_factor = skill
    return evaluate_skill_task(child, tasks, counter)


def _mfea_pair(pa, pb, config, tasks, counter, rng) -> Iterator[Individual]:
    """One parent pair under the baseline scalar-RMP scheme."""
    if pa.skill_factor == pb.skill_factor:
        ga, gb = order_crossover(pa.genome, pb.genome, rng=rng)
        skills = (pa.skill_factor, pa.skill_factor)
    elif rng.random() <= config.rmp_scalar:
        ga, gb = order_crossover(pa.genome, pb.genome, rng=rng)
        skills = (pa.skill_factor if rng.random() < 0.5 else pb.skill_factor,
                  pa.skill_factor if rng.random() < 0.5 else pb.skill_factor)
    else:
        ga = two_opt(pa.genome, rng=rng)
        gb = two_opt(pb.genome, rng=rng)
        skills = (pa.skill_factor, pb.skill_factor)
    yield _make_child(ga, skills[0], tasks, counter)
    yield _make_child(gb, skills[1], tasks, counter)


def _dmfea2_pair(pa, pb, ia, ib, pop, by_skill, rmp, dims, config, tasks,
                 counter, rng) -> Iterator[Individual]:
    """One parent pair under the adaptive matrix scheme."""
    ta, tb = pa.skill_factor, pb.skill_factor
    if ta == tb:
        ga, gb = order_crossover(pa.genome, pb.genome, rng=rng)
        ga = _maybe_mutate(ga, config.p_m, rng)
        gb = _maybe_mutate(gb, config.p_m, rng)
        yield _make_child(ga, ta, tasks, counter)
        yield _make_child(gb, ta, tasks, counter)
        return

    if rng.random() <= rmp.get(ta, tb):
        # Inter-task parent-centric crossover; both children update (ta, tb).
        entry = rmp.get(ta, tb)
        for dominant, donor, d_k in ((pa, pb, dims[ta]), (pb, pa, dims[tb])):
            genome = dynamic_ox(dominant.genome, donor.genome, entry,
                                config.w, d_k, rng)
            genome = _maybe_mutate(genome, config.p_m, rng)
            skill = ta if rng.random() < 0.5 else tb
            child = _make_child(genome, skill, tasks, counter)
            skill_parent = pa if skill == ta else pb
            rmp_update(rmp, ta, tb, transfer_outcome(child, skill_parent))
            yield child
        return

    # Intra-task branch: each parent crosses with a random same-skill mate
    # and updates the diagonal entry of its own task.
    for parent, idx in ((pa, ia), (pb, ib)):
        t = parent.skill_factor
        mates = [i for i in by_skill.get(t, []) if i != idx]
        if not mates:
            log.info("no same-skill mate for task %d; falling back to 2-opt", t)
            genome = two_opt(parent.genome, rng=rng)
            yield _make_child(genome, t, tasks, counter)
            continue
        mate = pop.members[mates[int(rng.integers(len(mates)))]]
        genome = dynamic_ox(parent.genome, mate.genome, rmp.get(t, t),
                            config.w, dims[t], rng)
        genome = _maybe_mutate(genome, config.p_m, rng)
        child = _make_child(genome, t, tasks, counter)
        rmp_update(rmp, t, t, transfer_outcome(child, parent))
        yield child


def run_mfea(tasks, config: EngineConfig, rng: np.random.Generator | None = None):
    """Baseline multifactorial loop with a fixed scalar mating probability."""
    return _evolve(tasks, config, rng, adaptive=False)


def run_dmfea2(tasks, config: EngineConfig, rng: np.random.Generator | None = None):
    """Adaptive loop: learned transfer matrix plus dynamic parent-centric
    crossover sized by its entries."""
    return _evolve(tasks, config, rng, adaptive=True)
