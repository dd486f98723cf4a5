"""Unified permutation search space and multifactorial bookkeeping.

Every task shares one permutation space of size ``d_max``. A population of
P members over K tasks is held as arrays, one row per member:

- ``genomes``: P x d_max int64, each row a permutation of {1..d_max};
- ``costs``: P x K factorial costs, ``UNEVALUATED`` where a member was
  never evaluated on a task;
- ``ranks``: P x K factorial ranks, each column a permutation of 1..P;
- ``skill``: the evaluated task on which each member ranks best (its
  skill factor);
- ``fitness``: the reciprocal of that best rank (scalar fitness).

The last three are derived from ``costs`` by ``assign_ranks_and_fitness``.

Evaluation has one seam: ``evaluate_skills`` costs each row of a genome matrix
on its own skill task, with one cost call per TSP task and one ``tasks.cvrp_split``
over every CVRP row; ``engines`` says how a generation uses it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tasks

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


@dataclass
class Population:
    genomes: np.ndarray                 # P x d_max
    costs: np.ndarray                   # P x K, UNEVALUATED where unknown
    ranks: np.ndarray | None = None     # P x K
    skill: np.ndarray | None = None     # P
    fitness: np.ndarray | None = None   # P


def evaluate_all_tasks(genomes: np.ndarray, problems) -> np.ndarray:
    """n x K costs of a genome matrix, one call per task: the initial population's."""
    return np.column_stack([evaluate_skills(genomes, np.full(len(genomes), k), problems)
                            for k in range(len(problems))])


def evaluate_skills(genomes: np.ndarray, skills: np.ndarray, problems) -> np.ndarray:
    """Each row's cost on its own task ``skills[r]``, every CVRP row in one ``cvrp_split``."""
    costs = np.empty(len(genomes))
    split = np.array([isinstance(t, tasks.CvrpInstance) for t in problems])[skills]
    for t in np.unique(skills[~split]):
        costs[skills == t] = evaluate_skill_task(genomes[skills == t], t, problems)
    if split.any():  # a TSP-only batch skips the split's set-up
        found, which = np.unique(skills[split], return_inverse=True)
        costs[split] = tasks.cvrp_split(genomes[split], which, [problems[k] for k in found])
    return costs


def evaluate_skill_task(genomes: np.ndarray, skill: int, problems):
    """Cost on task ``skill`` of one genome (a float; an inter-task child) or of each matrix row."""
    task = problems[skill]
    return task.cost(tasks.project(genomes, task.dimension))


def assign_ranks_and_fitness(pop: Population) -> Population:
    """Recompute factorial ranks, scalar fitness and skill factor in place.

    Per task, members sorted by ascending cost get ranks 1..P; cost ties
    break toward the lower population index (stable sort). Unevaluated
    costs rank last. Skill factor and fitness come from a member's best
    rank among the tasks it was evaluated on; skill-factor ties break
    toward the lower task index.
    """
    p, k_tasks = pop.costs.shape
    if p == 0:
        raise ValueError("cannot rank an empty population")
    order = np.argsort(pop.costs, axis=0, kind="stable")
    pop.ranks = np.empty((p, k_tasks), dtype=np.int64)
    pop.ranks[order, np.arange(k_tasks)] = np.arange(1, p + 1)[:, None]
    # A rank on an unevaluated task says nothing about the member, yet in a
    # small population "last" can beat its rank on an evaluated task.
    evaluated = np.where(np.isfinite(pop.costs), pop.ranks, p + 1)
    pop.skill = evaluated.argmin(axis=1)  # argmin takes the lowest task on ties
    pop.fitness = 1.0 / evaluated.min(axis=1)
    return pop


def elitist_select(current: Population, offspring: Population, p_size: int) -> Population:
    """Keep the ``p_size`` best individuals of current + offspring by scalar fitness.

    Ranks and fitness are recomputed over the union before selecting.
    Fitness ties at the cut break toward the lower union index, so the
    incumbent population wins ties against offspring.
    """
    union = Population(np.vstack([current.genomes, offspring.genomes]),
                       np.vstack([current.costs, offspring.costs]))
    if len(union.costs) < p_size:
        raise ValueError(f"union of size {len(union.costs)} cannot fill {p_size} survivors")
    assign_ranks_and_fitness(union)
    keep = np.sort(np.argsort(-union.fitness, kind="stable")[:p_size])
    return assign_ranks_and_fitness(Population(union.genomes[keep], union.costs[keep]))
