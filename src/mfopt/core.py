"""Unified permutation search space and multifactorial bookkeeping.

Individuals live in a single permutation space of size ``d_max`` shared by
every task. Each one carries a vector of factorial costs (one per task,
possibly unevaluated), the per-task ranks derived from the population, a
scalar fitness (reciprocal of the best rank) and a skill factor (the task
on which the individual ranks best).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Cost placeholder for tasks an individual was never evaluated on.
# Treated as +inf when ranking, so unevaluated individuals sort last.
UNEVALUATED = math.inf


def random_genome(d_max: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform random permutation of {1..d_max}."""
    return rng.permutation(d_max).astype(np.int64) + 1


def is_valid_genome(order: np.ndarray) -> bool:
    """True iff ``order`` is a permutation of {1..len(order)}."""
    n = len(order)
    if n == 0:
        return False
    return bool(np.array_equal(np.sort(order), np.arange(1, n + 1)))


class EvalCounter:
    """Counts objective function evaluations against a budget."""

    def __init__(self, limit: int):
        self.limit = int(limit)
        self.count = 0

    def spend(self, n: int = 1) -> None:
        self.count += n

    @property
    def exhausted(self) -> bool:
        return self.count >= self.limit


@dataclass
class Individual:
    genome: np.ndarray
    factorial_costs: np.ndarray          # length K, UNEVALUATED where unknown
    factorial_ranks: np.ndarray | None = None
    scalar_fitness: float = 0.0
    skill_factor: int = -1

    @classmethod
    def fresh(cls, genome: np.ndarray, k_tasks: int) -> "Individual":
        return cls(genome=genome, factorial_costs=np.full(k_tasks, UNEVALUATED))


@dataclass
class Population:
    members: list[Individual]
    k_tasks: int

    def __len__(self) -> int:
        return len(self.members)

    def best_cost(self, task: int) -> float:
        """Lowest known factorial cost on ``task`` across the population."""
        return min(m.factorial_costs[task] for m in self.members)


def evaluate_all_tasks(ind: Individual, tasks, budget: EvalCounter) -> Individual:
    """Evaluate ``ind`` on every task, spending one evaluation per task.

    Used for the initial population only; offspring are evaluated
    selectively on their skill task.
    """
    from .tasks import project

    for k, task in enumerate(tasks):
        perm = project(ind.genome, task.dimension)
        ind.factorial_costs[k] = task.cost(perm)
    budget.spend(len(tasks))
    return ind


def evaluate_skill_task(ind: Individual, tasks, budget: EvalCounter) -> Individual:
    """Evaluate ``ind`` only on its skill task (selective evaluation)."""
    from .tasks import project

    k = ind.skill_factor
    task = tasks[k]
    ind.factorial_costs[k] = task.cost(project(ind.genome, task.dimension))
    budget.spend(1)
    return ind


def assign_ranks_and_fitness(pop: Population) -> Population:
    """Recompute factorial ranks, scalar fitness and skill factor in place.

    Per task, members sorted by ascending cost get ranks 1..P; cost ties
    break toward the lower population index (stable sort). Unevaluated
    costs rank last. Skill-factor ties break toward the lower task index.
    """
    if not pop.members:
        raise ValueError("cannot rank an empty population")
    p = len(pop.members)
    k_tasks = pop.k_tasks
    ranks = np.empty((p, k_tasks), dtype=np.int64)
    for k in range(k_tasks):
        costs = np.array([m.factorial_costs[k] for m in pop.members])
        order = np.argsort(costs, kind="stable")
        ranks[order, k] = np.arange(1, p + 1)
    for i, m in enumerate(pop.members):
        m.factorial_ranks = ranks[i]
        best = int(np.argmin(ranks[i]))  # argmin takes the lowest task index on ties
        m.skill_factor = best
        m.scalar_fitness = 1.0 / ranks[i, best]
    return pop


def elitist_select(current: Population, offspring: Population, p_size: int) -> Population:
    """Keep the ``p_size`` best individuals of current + offspring by scalar fitness.

    Ranks and fitness are recomputed over the union before selecting.
    Fitness ties at the cut break toward the lower union index, so the
    incumbent population wins ties against offspring.
    """
    union = Population(current.members + offspring.members, current.k_tasks)
    if len(union) < p_size:
        raise ValueError(f"union of size {len(union)} cannot fill {p_size} survivors")
    assign_ranks_and_fitness(union)
    fitness = np.array([m.scalar_fitness for m in union.members])
    order = np.argsort(-fitness, kind="stable")[:p_size]
    survivors = [union.members[i] for i in sorted(order)]
    out = Population(survivors, current.k_tasks)
    return assign_ranks_and_fitness(out)
