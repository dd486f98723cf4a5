from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfopt.harness import load_environment
from mfopt.parsers import euc2d_distance
from mfopt.tasks import (
    CvrpInstance,
    TspInstance,
    cvrp_cost,
    project,
    tsp_cost,
)

permutations = st.integers(min_value=2, max_value=40).flatmap(
    lambda n: st.permutations(list(range(1, n + 1))))


@dataclass
class RoutePlan:
    routes: list[np.ndarray]  # 1-based customer indices per vehicle route
    total_distance: float


def cvrp_decode(perm: np.ndarray, inst: CvrpInstance) -> RoutePlan:
    """Split a customer permutation into capacity-feasible routes.

    Greedy left-to-right: accumulate demand and close the current route
    whenever the next customer would exceed capacity (this is where the
    route-separating zeros are inserted). Distance per route is
    depot -> first -> ... -> last -> depot. The reference that tests check
    ``cvrp_cost`` against.
    """
    demands = inst.demands
    cap = inst.capacity
    routes: list[np.ndarray] = []
    total = 0
    start = 0
    load = 0
    idx = perm - 1
    for pos, c in enumerate(idx):
        q = demands[c]
        if load + q > cap:
            routes.append(perm[start:pos])
            total += _route_distance(idx[start:pos], inst)
            start = pos
            load = 0
        load += q
    routes.append(perm[start:])
    total += _route_distance(idx[start:], inst)
    return RoutePlan(routes=routes, total_distance=float(total))


def _route_distance(idx: np.ndarray, inst: CvrpInstance) -> int:
    # Measured from the coordinates, independently of the instance's own tables.
    stops = [inst.depot_coord, *inst.customer_coords[idx].tolist(), inst.depot_coord]
    return sum(euc2d_distance(a, b) for a, b in zip(stops, stops[1:]))


class TestProject:
    def test_keeps_order(self):
        g = np.array([5, 2, 7, 1, 4, 6, 3])
        assert list(project(g, 4)) == [2, 1, 4, 3]
        assert list(project(g, 7)) == list(g)
        assert list(project(g, 1)) == [1]

    def test_dimension_too_large(self):
        with pytest.raises(ValueError):
            project(np.array([2, 1]), 3)

    @given(permutations, st.integers(min_value=1, max_value=40))
    @settings(max_examples=100, deadline=None)
    def test_projection_is_valid_and_idempotent(self, perm, dim):
        g = np.array(perm)
        dim = min(dim, len(g))
        p = project(g, dim)
        assert sorted(p) == list(range(1, dim + 1))
        assert np.array_equal(project(p, dim), p)


class TestTsp:
    def test_square_perimeter(self, square_tsp):
        assert tsp_cost(np.array([1, 2, 3, 4]), square_tsp) == 40.0
        # Crossing diagonals: 2 * (10 + 14), with hypot(10,10) = 14.14 -> 14.
        assert tsp_cost(np.array([1, 3, 2, 4]), square_tsp) == 48.0

    def test_rotation_and_reversal_invariance(self, line_tsp, rng):
        base = rng.permutation(5) + 1
        c = tsp_cost(base, line_tsp)
        assert tsp_cost(np.roll(base, 2), line_tsp) == c
        assert tsp_cost(base[::-1].copy(), line_tsp) == c

    def test_needs_three_cities(self):
        with pytest.raises(ValueError):
            TspInstance(name="tiny", coords=np.zeros((2, 2)))

    def test_distance_rounding_half_up(self):
        # hypot = 0.5 exactly must round to 1, not 0.
        inst = TspInstance(name="r", coords=np.array(
            [[0.0, 0.0], [0.5, 0.0], [0.0, 5.0]]))
        assert inst._dist[0, 1] == 1

    @given(st.integers(min_value=0, max_value=2 ** 31), permutations)
    @settings(max_examples=50, deadline=None)
    def test_tour_cost_invariances(self, seed, perm):
        rng = np.random.default_rng(seed)
        n = len(perm)
        if n < 3:
            return
        inst = TspInstance(name="rand", coords=rng.uniform(0, 100, (n, 2)))
        p = np.array(perm)
        c = tsp_cost(p, inst)
        assert c == tsp_cost(np.roll(p, 1), inst)
        assert c == tsp_cost(p[::-1].copy(), inst)
        assert c >= 0


class TestCvrp:
    def test_decode_splits_on_capacity(self, tiny_cvrp):
        plan = cvrp_decode(np.array([1, 2, 3, 4]), tiny_cvrp)
        assert [list(r) for r in plan.routes] == [[1, 2], [3, 4]]
        # Each route: 10 out + 14 across + 10 back = 34.
        assert plan.total_distance == 68.0

    def test_cost_matches_decode(self, tiny_cvrp, rng):
        for _ in range(20):
            perm = rng.permutation(4) + 1
            assert cvrp_cost(perm, tiny_cvrp) == \
                cvrp_decode(perm, tiny_cvrp).total_distance

    @pytest.mark.parametrize("name", ["P-n50-k7", "P-n50-k8", "P-n55-k7", "P-n55-k8"])
    def test_cost_matches_decode_on_bundled(self, name):
        inst = next(t for t in load_environment("TE_4_2").tasks if t.name == name)
        rng = np.random.default_rng(0)
        identity = np.arange(1, inst.dimension + 1)
        perms = [identity, identity[::-1].copy()]
        perms += [rng.permutation(inst.dimension) + 1 for _ in range(2000)]
        for perm in perms:
            assert cvrp_cost(perm, inst) == cvrp_decode(perm, inst).total_distance

    def test_single_route_when_capacity_suffices(self, tiny_cvrp):
        big = CvrpInstance(
            name="big", depot_coord=tiny_cvrp.depot_coord,
            customer_coords=tiny_cvrp.customer_coords,
            demands=tiny_cvrp.demands, capacity=100)
        plan = cvrp_decode(np.array([1, 2, 3, 4]), big)
        assert len(plan.routes) == 1

    def test_demand_exceeding_capacity_rejected(self):
        with pytest.raises(ValueError):
            CvrpInstance(name="bad", depot_coord=(0, 0),
                         customer_coords=np.array([[1.0, 0.0]]),
                         demands=np.array([11]), capacity=10)

    @pytest.mark.parametrize("n", [0, 1])
    def test_too_few_customers_rejected(self, n):
        with pytest.raises(ValueError, match="at least 2 customers"):
            CvrpInstance(name="small", depot_coord=(0, 0),
                         customer_coords=np.zeros((n, 2)),
                         demands=np.ones(n, dtype=int), capacity=10)

    def test_demand_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            CvrpInstance(name="bad", depot_coord=(0, 0),
                         customer_coords=np.array([[1.0, 0.0], [2.0, 0.0]]),
                         demands=np.array([1]), capacity=10)

    @given(st.integers(min_value=0, max_value=2 ** 31), permutations)
    @settings(max_examples=50, deadline=None)
    def test_decode_soundness(self, seed, perm):
        # Every customer appears in exactly one route and no route
        # exceeds capacity; decoded total matches the fast cost path.
        rng = np.random.default_rng(seed)
        n = len(perm)
        cap = 50
        inst = CvrpInstance(
            name="rand", depot_coord=(50.0, 50.0),
            customer_coords=rng.uniform(0, 100, (n, 2)),
            demands=rng.integers(1, cap + 1, n), capacity=cap)
        p = np.array(perm)
        plan = cvrp_decode(p, inst)
        flat = np.concatenate([r for r in plan.routes if len(r)])
        assert sorted(flat) == list(range(1, n + 1))
        for route in plan.routes:
            if len(route):
                assert inst.demands[route - 1].sum() <= cap
        assert plan.total_distance == cvrp_cost(p, inst)
