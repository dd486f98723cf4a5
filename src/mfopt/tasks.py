"""TSP and CVRP task definitions over the unified permutation space.

Each task exposes ``dimension`` and ``cost(perm)``; the engine projects
unified genomes down to the task's dimension before evaluating. Both take
one genome (a float cost) or a matrix of one per row (a vector). Distances
follow the TSPLIB EUC_2D convention (nearest integer, half up), which is
what the published optima of the bundled instances assume.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np


def _points(value, what: str, ndim: int) -> np.ndarray:
    """``value`` as floats, (x, y) rows if ``ndim`` is 2 or one (x, y) pair if 1; any other
    shape is a ValueError naming ``what``."""
    points = np.asarray(value, dtype=float)
    if points.ndim != ndim or points.shape[-1:] != (2,):
        raise ValueError(f"{what} must be {'(n, 2)' if ndim == 2 else '(x, y)'}, "
                         f"got shape {points.shape}")
    return points


def _euc2d_matrix(points: np.ndarray, first: int, name: str) -> np.ndarray:
    """EUC_2D distances between the (x, y) rows of ``points``, row k being city first + k;
    a NaN or infinite coordinate is a ValueError naming the first such city. So is a span
    at which a cost, at most 2 (len(points) + 1) distances, could reach 2**53 and stop being
    exact in int64 and as a float; that one names instance ``name``."""
    if not np.isfinite(points).all():
        k = np.flatnonzero(~np.isfinite(points).all(axis=1))[0]
        raise ValueError(f"city {first + k} has a non-finite coordinate: {points[k].tolist()}")
    half = points.max(axis=0) / 2 - points.min(axis=0) / 2  # halved, so it cannot overflow
    if np.hypot(*half) + 0.25 >= 2**51 / (len(points) + 1):  # each distance <= 2 hypot + 0.5
        raise ValueError(f"instance {name!r} is too wide: a cost could reach 2**53 and be inexact")
    diff = points[:, None, :] - points[None, :, :]
    return np.floor(np.sqrt((diff ** 2).sum(axis=2)) + 0.5).astype(np.int64)


def project(genomes: np.ndarray, dimension: int) -> np.ndarray:
    """Project unified genomes, one or one per row, onto a task's dimension.

    Keeps each row's values {1..dimension} in genome order. A row holds
    exactly ``dimension`` of them, so each result row is a permutation of
    {1..dimension}.
    """
    if dimension > genomes.shape[-1]:
        raise ValueError(f"task dimension {dimension} exceeds d_max {genomes.shape[-1]}")
    kept = genomes[genomes <= dimension]
    return kept if genomes.ndim == 1 else kept.reshape(genomes.shape[:-1] + (dimension,))


@dataclass
class TspInstance:
    name: str
    coords: np.ndarray  # (dimension, 2)
    _dist: np.ndarray = field(init=False, repr=False)  # by city id; row and column 0 unused

    def __post_init__(self):
        self.coords = _points(self.coords, "coords", 2)
        if self.dimension < 3:
            raise ValueError("TSP instance needs at least 3 cities")
        self._dist = np.zeros((self.dimension + 1,) * 2, dtype=np.int64)
        self._dist[1:, 1:] = _euc2d_matrix(self.coords, 1, self.name)

    @property
    def dimension(self) -> int:
        return len(self.coords)

    def cost(self, perm: np.ndarray):
        return tsp_cost(perm, self)


def tsp_cost(perm: np.ndarray, inst: TspInstance):
    """Closed-tour length of each ``perm`` row (1-based city ids) on ``inst``."""
    d = inst._dist
    total = d[perm[..., :-1], perm[..., 1:]].sum(axis=-1) + d[perm[..., -1], perm[..., 0]]
    return float(total) if perm.ndim == 1 else total.astype(float)


@dataclass
class CvrpInstance:
    name: str
    depot_coord: tuple[float, float]
    customer_coords: np.ndarray  # (dimension, 2)
    demands: np.ndarray          # (dimension,)
    capacity: int
    # (distances, depot distances, demands, capacity) by customer id, the depot being 0, as Python
    # ints for cvrp_cost: list indexing is several times cheaper than numpy scalars.
    _lists: tuple = field(init=False, repr=False)

    def __post_init__(self):
        self.customer_coords = _points(self.customer_coords, "customer_coords", 2)
        depot = _points(self.depot_coord, "depot_coord", 1)
        if isinstance(self.capacity, bool) or not isinstance(self.capacity, numbers.Integral):
            raise ValueError(f"capacity must be an integer, got {self.capacity!r}")
        self.demands = np.asarray(self.demands)
        if not np.issubdtype(self.demands.dtype, np.integer):
            raise ValueError(f"demands must be integers, got dtype {self.demands.dtype}")
        if len(self.demands) != len(self.customer_coords):
            raise ValueError("demand count does not match customer count")
        bad = np.flatnonzero((self.demands < 0) | (self.demands > self.capacity))
        if bad.size:
            raise ValueError(f"demands[{bad[0]}] = {self.demands[bad[0]]} is outside "
                             f"[0, {self.capacity}]")
        if self.dimension < 2:
            raise ValueError(f"CVRP instance needs at least 2 customers, got {self.dimension}")
        dist = _euc2d_matrix(np.vstack((depot, self.customer_coords)), 0, self.name).tolist()
        self._lists = (dist, dist[0], [0, *self.demands.tolist()], int(self.capacity))

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
    rows = perm.tolist()
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
