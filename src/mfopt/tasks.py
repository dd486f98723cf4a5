"""TSP and CVRP task definitions over the unified permutation space.

Each task exposes ``dimension`` and ``cost(perm)``; the engine projects
unified genomes down to the task's dimension before evaluating. Both take
one genome (a float cost) or a matrix of one per row (a vector). Distances
follow the TSPLIB EUC_2D convention (nearest integer, half up), which is
what the published optima of the bundled instances assume.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def _euc2d_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise EUC_2D distances between coordinate arrays (n,2) and (m,2)."""
    diff = a[:, None, :] - b[None, :, :]
    return np.floor(np.sqrt((diff ** 2).sum(axis=2)) + 0.5).astype(np.int64)


def project(genomes: np.ndarray, dimension: int) -> np.ndarray:
    """Project unified genomes, one or one per row, onto a task's dimension.

    Keeps each row's values {1..dimension} in genome order. A row holds
    exactly ``dimension`` of them, so each result row is a permutation of
    {1..dimension}.
    """
    if dimension > genomes.shape[-1]:
        raise ValueError(f"task dimension {dimension} exceeds d_max {genomes.shape[-1]}")
    return genomes[genomes <= dimension].reshape(genomes.shape[:-1] + (dimension,))


@dataclass
class TspInstance:
    name: str
    coords: np.ndarray  # (dimension, 2)
    _dist: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.coords = np.asarray(self.coords, dtype=float)
        if self.dimension < 3:
            raise ValueError("TSP instance needs at least 3 cities")
        self._dist = _euc2d_matrix(self.coords, self.coords)

    @property
    def dimension(self) -> int:
        return len(self.coords)

    def cost(self, perm: np.ndarray):
        return tsp_cost(perm, self)


def tsp_cost(perm: np.ndarray, inst: TspInstance):
    """Closed-tour length of each ``perm`` row (1-based city ids) on ``inst``."""
    idx = perm - 1
    d = inst._dist
    total = d[idx[..., :-1], idx[..., 1:]].sum(axis=-1) + d[idx[..., -1], idx[..., 0]]
    return float(total) if perm.ndim == 1 else total.astype(float)


@dataclass
class CvrpInstance:
    name: str
    depot_coord: tuple[float, float]
    customer_coords: np.ndarray  # (dimension, 2)
    demands: np.ndarray          # (dimension,)
    capacity: int
    _dist: np.ndarray = field(init=False, repr=False)
    _depot_dist: np.ndarray = field(init=False, repr=False)
    # Python-int copies of (_dist, _depot_dist, demands, capacity) for
    # cvrp_cost: list indexing is several times cheaper than numpy scalars.
    _lists: tuple = field(init=False, repr=False)

    def __post_init__(self):
        self.customer_coords = np.asarray(self.customer_coords, dtype=float)
        self.demands = np.asarray(self.demands, dtype=np.int64)
        if len(self.demands) != len(self.customer_coords):
            raise ValueError("demand count does not match customer count")
        if (self.demands > self.capacity).any():
            raise ValueError("a single customer demand exceeds vehicle capacity")
        if self.dimension < 2:
            raise ValueError(f"CVRP instance needs at least 2 customers, got {self.dimension}")
        self._dist = _euc2d_matrix(self.customer_coords, self.customer_coords)
        depot = np.asarray([self.depot_coord], dtype=float)
        self._depot_dist = _euc2d_matrix(depot, self.customer_coords)[0]
        self._lists = (self._dist.tolist(), self._depot_dist.tolist(),
                       self.demands.tolist(), int(self.capacity))

    @property
    def dimension(self) -> int:
        return len(self.customer_coords)

    def cost(self, perm: np.ndarray):
        return cvrp_cost(perm, self)


def cvrp_cost(perm: np.ndarray, inst: CvrpInstance):
    """Total routed distance of the greedy capacity decoding of each ``perm`` row.

    Greedy left to right: a route closes whenever the next customer would
    exceed capacity, and each route runs depot -> first -> ... -> last ->
    depot. Summed in Python ints row by row without building routes; the
    route-building ``cvrp_decode`` in ``tests/test_tasks.py`` is its
    reference.
    """
    dist, depot, demands, cap = inst._lists
    rows = (perm - 1).tolist()
    costs = []
    for idx in (rows if perm.ndim > 1 else (rows,)):
        prev = idx[0]
        total = depot[prev]
        load = demands[prev]
        for c in idx[1:]:
            q = demands[c]
            if load + q > cap:
                total += depot[prev] + depot[c]
                load = q
            else:
                total += dist[prev][c]
                load += q
            prev = c
        costs.append(float(total + depot[prev]))
    return np.array(costs) if perm.ndim > 1 else costs[0]
