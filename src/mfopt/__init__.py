"""Permutation-based evolutionary multitasking.

One population, many tasks: a unified permutation space hosts TSP and
CVRP instances simultaneously, solved by the baseline multifactorial
engine (scalar mating probability) or its adaptive variant with a learned
inter-task transfer matrix and dynamic parent-centric crossover.
"""

from .core import (
    UNEVALUATED,
    Population,
    assign_ranks_and_fitness,
    elitist_select,
    evaluate_all_tasks,
    is_valid_genome,
    random_genome,
)
from .engines import (
    EngineConfig,
    RmpMatrix,
    RunTrace,
    rmp_update,
    run_dmfea2,
    run_mfea,
    transfer_outcome,
)
from .harness import (
    BUILTIN_ENVIRONMENTS,
    Environment,
    ExperimentPlan,
    emit_report,
    load_environment,
    run_experiment,
)
from .operators import dynamic_ox, order_crossover, two_opt, window_length
from .parsers import euc2d_distance, parse_problem
from .stats import SampleSet, ranksum_test, summarize
from .tasks import CvrpInstance, TspInstance, cvrp_cost, project, tsp_cost

__version__ = "0.1.0"
