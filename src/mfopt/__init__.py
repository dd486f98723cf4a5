"""Permutation-based evolutionary multitasking.

One population, many tasks: a unified permutation space hosts TSP and
CVRP instances simultaneously, solved by the baseline multifactorial
engine (scalar mating probability) or its adaptive variant with a learned
inter-task transfer matrix and dynamic parent-centric crossover.
"""

from .core import is_valid_genome
from .engines import EngineConfig, RunTrace, run_dmfea2, run_mfea
from .harness import load_environment
from .tasks import project

__version__ = "0.1.0"
