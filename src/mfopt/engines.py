"""Generational loops for multifactorial search.

Two engines share one outer loop: the baseline MFEA with a scalar random
mating probability, and the adaptive dMFEA-II whose mating probabilities
live in a learned symmetric K x K matrix updated online from the outcome
of each transfer (child better or worse than the parent whose skill task
it inherited).

Each engine draws a generation in full, as arrays, and returns its children in pair order, as
many as the budget takes. dMFEA-II's inter-task child is a genome, costed as it is made because
its cost updates a matrix cell; every other child is a record row, cost ``UNEVALUATED``, built by
one ``build_children`` (which decides dOX's no-change swap) and costed by one ``batch_costs``.
"""

from __future__ import annotations

import json
import logging
import numbers
from dataclasses import dataclass, field, fields
from functools import partial
from types import SimpleNamespace

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
from .operators import _point_pairs, build_children, dynamic_ox, two_opt, window_length
from .tasks import batch_costs
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


def rmp_update(m: RmpMatrix, i: int, j: int, transfer_positive: bool) -> None:
    """Apply one transfer outcome to off-diagonal entry (i, j) in place, mirroring (j, i).

    Positive transfer divides by delta_inc (clamped at 1.0); negative
    multiplies by delta_dec (clamped at the floor).
    """
    if i == j:  # the unit diagonal does not learn; dOX sizes its intra-task windows from it
        raise ValueError(f"rmp_update: ({i}, {j}) is a diagonal cell")
    entry = m.entries.item(i, j)
    if transfer_positive:  # as min(1.0, entry / delta_inc), with no overflow past 1
        entry = 1.0 if entry >= m.delta_inc else entry / m.delta_inc
    else:
        entry = max(m.floor, entry * m.delta_dec)
    m.entries[i, j] = m.entries[j, i] = entry


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


def _evolve(tasks, config: EngineConfig, rng, children, rmp: RmpMatrix | None = None):
    """The one outer loop. ``children(pop, order, rng, left=n)`` is the engine, a generation's first
    ``n`` children as (records, skills, costs, genomes); ``rmp``, if any, is in each record."""
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
    while True:
        trace.records.append(GenerationRecord(len(trace.records), evaluations, best.tolist(),
                                              None if rmp is None else rmp.entries.tolist()))
        if evaluations >= config.eval_budget:
            return [TaskResult(float(c), g.copy()) for c, g in zip(best, kept)], trace
        order = rng.permutation(len(pop.costs))
        records, skills, child_costs, genomes = children(pop, order, rng,
                                                         left=config.eval_budget - evaluations)
        deferred = child_costs == UNEVALUATED  # the records' rows
        offspring = np.empty((len(skills), d_max), dtype=np.int64)
        offspring[~deferred] = np.reshape(genomes, (-1, d_max))
        offspring[deferred] = block = build_children(pop.genomes, records)
        child_costs[deferred] = batch_costs(block, skills[deferred], tasks)
        costs = np.full((len(skills), k_tasks), UNEVALUATED)
        costs[np.arange(len(skills)), skills] = child_costs
        evaluations += len(skills)
        found = costs.min(axis=0)
        better = found < best
        best[better], kept[better] = found[better], offspring[costs[:, better].argmin(axis=0)]
        pop = elitist_select(pop, Population(offspring, costs), config.population_size)


def _mfea_children(pop, order, rng, *, left, config):
    """The baseline scalar-RMP scheme. A generation draws in full, as arrays in this order: P/2
    transfer uniforms, P/2 OX cut pairs over range(n + 1), P 2-opt pairs over range(n) and P
    skill coins; ``left`` cuts the children it builds. A pair of one skill, or whose uniform is
    at most ``rmp_scalar``, crosses: each child keeps its parent's segment and takes its mate's
    skill if its coin is below 0.5. Any other pair makes 2-opt mutants on their own skills."""
    n, half = pop.genomes.shape[1], len(order) // 2
    transfer = rng.random(half)
    cuts = np.repeat(_point_pairs(n + 1, half, rng), 2, axis=1)  # one window per pair
    moves = _point_pairs(n, 2 * half, rng)
    coins = rng.random(2 * half) < 0.5
    mates = order.reshape(-1, 2)[:, ::-1].ravel()
    own, other = pop.skill[order], pop.skill[mates]
    ox = np.repeat(transfer <= config.rmp_scalar, 2) | (own == other)
    records = np.column_stack((order, np.where(ox, mates, order), *(cuts * ox), *(moves * ~ox), ox,
                               np.zeros_like(ox)))
    skills = np.where(ox & coins, other, own)
    return records[:left], skills[:left], np.full(len(order), UNEVALUATED)[:left], []


def _mates(skill, order, ranks):
    """Each ``order`` member's ``ranks``-th other member of its skill bucket, in index order (for
    a member alone in its skill, any member)."""
    counts = np.bincount(skill)
    members, first = np.argsort(skill, kind="stable"), np.cumsum(counts) - counts
    rank = np.argsort(members) - first[skill]  # each member's place in its bucket
    return members.take(first[skill[order]] + ranks + (ranks >= rank[order]), mode="clip")


def _dmfea2_children(pop, order, rng, *, left, config, tasks, rmp):
    """The adaptive matrix scheme. A generation draws in full, as arrays in this order: P/2
    transfer uniforms, P/2 OX cut pairs over range(n + 1), P ``p_m`` coins, P 2-opt pairs over
    range(n), P mate ranks over each bucket's size less 1 (at least 1), P dOX window starts over
    n - L_t + 1, P swap starts over n - 1, P skill coins and 5P uniforms; ``left`` cuts the
    children it builds. A pair of one skill crosses by OX. A pair of two skills whose uniform is
    at most its live entry makes two dOX children, each costed at once to update the entry; only
    this walk is sequential, its draws int(u * m) over the 5P block. Any other child crosses by
    dOX with a same-skill mate (window length L_t per task: the diagonal stays 1; its swap start
    if the window keeps the mate's order), or if alone in its skill is a 2-opt mutant. A coin
    below p_m adds a 2-opt move."""
    n, size, half = pop.genomes.shape[1], len(order), len(order) // 2
    own, counts = pop.skill[order], np.bincount(pop.skill, minlength=len(tasks))
    span = np.array([window_length(config.w, rmp.get(k, k), t.dimension, n)
                     for k, t in enumerate(tasks)])[own]
    transfer = rng.random(half).tolist()
    cuts = np.repeat(_point_pairs(n + 1, half, rng), 2, axis=1)  # one window per pair
    mutate, moves = rng.random(size) < config.p_m, _point_pairs(n, size, rng)
    mates = _mates(pop.skill, order, rng.integers(np.maximum(counts[own] - 1, 1)))
    starts, swaps = rng.integers(n - span + 1), rng.integers(n - 1, size=size)
    coins, block = rng.random(size) < 0.5, iter(rng.random(5 * size).tolist())
    walk = SimpleNamespace(integers=lambda m: int(next(block) * m))  # the operators' one call
    skill_of, pairs = pop.skill.tolist(), order.reshape(-1, 2)
    partner = pairs[:, ::-1].ravel()
    same, lone = own == pop.skill[partner], counts[own] == 1  # a lone member's pair has two skills
    skills, costs, genomes = own.copy(), np.full(size, UNEVALUATED), []
    for k in np.flatnonzero(~same[:left:2]).tolist():
        ia, ib = pairs[k].tolist()
        ta, tb = skill_of[ia], skill_of[ib]
        if transfer[k] > (entry := rmp.get(ta, tb)):
            continue
        # A child's transfer is positive iff it beats the parent whose skill it took; a tie is not.
        for c, dominant, donor, t in ((2 * k, ia, ib, ta), (2 * k + 1, ib, ia, tb))[:left - 2 * k]:
            genome = dynamic_ox(pop.genomes[dominant], pop.genomes[donor], entry, config.w,
                                tasks[t].dimension, walk)
            genome = two_opt(genome, walk) if mutate[c] else genome
            skills[c] = skill = ta if coins[c] else tb
            costs[c] = cost = evaluate_skill_task(genome, skill, tasks)
            rmp_update(rmp, ta, tb, cost < pop.costs[ia if skill == ta else ib, skill])
            genomes.append(genome)
    dox = ~same & ~lone  # intra-task dOX rows
    records = np.column_stack((order, np.where(same, partner, np.where(dox, mates, order)),
                               *np.where(dox, (starts, starts + span), cuts * same),
                               *(moves * (mutate | lone)), same, swaps * dox))
    kept = costs[:left] == UNEVALUATED
    if alone := sorted(set(own[:left][lone[:left] & kept].tolist())):
        log.info("no same-skill mate for tasks %s; falling back to 2-opt", alone)
    return records[:left][kept], skills[:left], costs[:left], genomes


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
