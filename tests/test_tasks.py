import itertools
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
    batch_costs,
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
    ``cvrp_cost`` and ``batch_costs`` against.
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


def tour_length(perm: np.ndarray, inst: TspInstance) -> float:
    """Closed-tour length summed from the coordinates with ``euc2d_distance``, independently
    of the instance's own table: the reference for ``tsp_cost`` and ``batch_costs``."""
    stops = inst.coords[perm - 1].tolist()
    return float(sum(euc2d_distance(a, b) for a, b in zip(stops, stops[1:] + stops[:1])))


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

    def test_needs_three_cities(self):
        with pytest.raises(ValueError):
            TspInstance(name="tiny", coords=np.zeros((2, 2)))

    @pytest.mark.parametrize("coords, match", [
        *(([[0, 0], [0, 0], [0, bad], [0, 0]], "city 3 has a non-finite coordinate")
          for bad in (np.nan, np.inf, -np.inf)),
        # Unchecked, this instance costs the tour [1, 2, 3] as 22.0, from 3-D distances.
        ([[0, 0, 0], [3, 0, 4], [0, 0, 10]], r"coords must be \(n, 2\), got shape \(3, 3\)"),
        ([[0], [3], [5]], r"coords must be \(n, 2\), got shape \(3, 1\)"),
        ([0, 3, 5, 9], r"coords must be \(n, 2\), got shape \(4,\)"),
        # Unchecked, 5e18 costs a tour -1.37568e+18 (an int64 sum wraps), 1e19 casts to
        # INT64_MIN distances and 1e200 overflows when squared.
        *(([[0, 0], [big, 0], [0, big]], r"instance 'bad' is too wide: .* 2\*\*53")
          for big in (5e18, 1e19, 1e200)),
    ], ids=["nan", "inf", "-inf", "three columns", "one column", "1-D", "5e18", "1e19", "1e200"])
    def test_non_finite_coordinate_rejected(self, coords, match):
        # The parser refuses such a file; the class must too, not cast NaN
        # into integer distances nor cost points of another shape. The message
        # names the city id or the field.
        with pytest.raises(ValueError, match=match):
            TspInstance(name="bad", coords=coords)

    def test_distance_rounding_half_up(self):
        # hypot = 0.5 exactly must round to 1, not 0: 1 + 5 + 5, not 0 + 5 + 5.
        inst = TspInstance(name="r", coords=np.array(
            [[0.0, 0.0], [0.5, 0.0], [0.0, 5.0]]))
        assert tsp_cost(np.array([1, 2, 3]), inst) == 11.0

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
        assert c == tour_length(p, inst)
        assert c == tsp_cost(np.roll(p, 1), inst)
        assert c == tsp_cost(p[::-1].copy(), inst)
        assert c >= 0
        # Kernel rows: the same tour rotated and reversed, and another one.
        rows = np.array([p, np.roll(p, 1), p[::-1], rng.permutation(n) + 1])
        assert batch_costs(rows, np.zeros(4, dtype=int), [inst]).tolist() == [
            c, c, c, tour_length(rows[3], inst)]

    @pytest.mark.parametrize("name", ["berlin52", "eil51", "st70", "eil76"])
    def test_cost_matches_coordinates_on_bundled(self, name):
        inst = next(t for t in load_environment("TE_4_1").tasks if t.name == name)
        rng = np.random.default_rng(0)
        identity = np.arange(1, inst.dimension + 1)
        perms = np.array([identity, identity[::-1],
                          *(rng.permutation(inst.dimension) + 1 for _ in range(500))])
        expected = [tour_length(perm, inst) for perm in perms]
        assert [tsp_cost(perm, inst) for perm in perms] == expected
        assert batch_costs(perms, np.zeros(len(perms), dtype=int), [inst]).tolist() == expected


class TestCvrp:
    def test_decode_splits_on_capacity(self, tiny_cvrp):
        plan = cvrp_decode(np.array([1, 2, 3, 4]), tiny_cvrp)
        assert [list(r) for r in plan.routes] == [[1, 2], [3, 4]]
        # Each route: 10 out + 14 across + 10 back = 34.
        assert plan.total_distance == 68.0

    @pytest.mark.parametrize("name", ["P-n50-k7", "P-n50-k8", "P-n55-k7", "P-n55-k8"])
    def test_cost_matches_decode_on_bundled(self, name):
        inst = next(t for t in load_environment("TE_4_2").tasks if t.name == name)
        rng = np.random.default_rng(0)
        identity = np.arange(1, inst.dimension + 1)
        perms = np.array([identity, identity[::-1],
                          *(rng.permutation(inst.dimension) + 1 for _ in range(2000))])
        expected = [cvrp_decode(perm, inst).total_distance for perm in perms]
        assert [cvrp_cost(perm, inst) for perm in perms] == expected
        assert batch_costs(perms, np.zeros(len(perms), dtype=int), [inst]).tolist() == expected

    def test_single_route_when_capacity_suffices(self, tiny_cvrp):
        big = CvrpInstance(
            name="big", depot_coord=tiny_cvrp.depot_coord,
            customer_coords=tiny_cvrp.customer_coords,
            demands=tiny_cvrp.demands, capacity=100)
        plan = cvrp_decode(np.array([1, 2, 3, 4]), big)
        assert len(plan.routes) == 1

    @pytest.mark.parametrize("demands, capacity, match", [
        ([6, 11, 8], 10, r"demands\[1\] = 11 is outside \[0, 10\]"),
        # Unchecked, this instance costs the tour [1, 2, 3] as one route with load 9.
        ([-5, 8, 6], 10, r"demands\[0\] = -5 is outside \[0, 10\]"),
        # Unchecked, the first demand decodes as 2.
        ([2.7, 5, 1], 10, "demands must be integers, got dtype float64"),
        ([2, 5, 1], np.nan, "capacity must be an integer, got nan"),
        ([2, 5, 1], "10", "capacity must be an integer, got '10'"),
        ([2, 5, 1], True, "capacity must be an integer, got True"),
        # Unchecked, a batch of 2**31 such rows would wrap batch_costs' int64 prefix loads.
        ([2**31, 2**31, 0], 2**31,
         r"instance 'bad' has a total demand of 2\*\*32 or more"),
    ], ids=["over capacity", "negative", "fractional demand", "NaN capacity", "string capacity",
            "bool capacity", "total demand 2**32"])
    def test_demand_outside_range_rejected(self, demands, capacity, match):
        # As the parser does, naming the first bad demand, or the field whose
        # type the parser would refuse.
        with pytest.raises(ValueError, match=match):
            CvrpInstance(name="bad", depot_coord=(0, 0),
                         customer_coords=np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]),
                         demands=np.array(demands), capacity=capacity)

    @pytest.mark.parametrize("depot, customers, match", [
        ((np.nan, 0.0), [[1, 1], [1, 0]], "city 0 has a non-finite coordinate"),
        ((0.0, 0.0), [[1, 1], [1, np.inf]], "city 2 has a non-finite coordinate"),
        ((0, 0, 0), [[1, 1], [1, 0]], r"depot_coord must be \(x, y\), got shape \(3,\)"),
        ((0, 0), [[1, 1, 0], [1, 0, 0]],
         r"customer_coords must be \(n, 2\), got shape \(2, 3\)"),
        *(((0, 0), [[big, 0], [0, big]], r"instance 'bad' is too wide: .* 2\*\*53")
          for big in (5e18, 1e19, 1e200)),
    ], ids=["depot", "customer", "three-entry depot", "three-column customers",
            "5e18", "1e19", "1e200"])
    def test_non_finite_coordinate_rejected(self, depot, customers, match):
        # The depot is city 0 and customer k is city k, as in the cost tables;
        # points of another shape are refused by field.
        with pytest.raises(ValueError, match=match):
            CvrpInstance(name="bad", depot_coord=depot, customer_coords=customers,
                         demands=np.array([1, 1]), capacity=10)

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


def reference_cost(genome: np.ndarray, inst) -> float:
    """The cost of ``genome``'s projection on ``inst``, by ``tour_length`` or ``cvrp_decode``."""
    perm = project(genome, inst.dimension)
    if isinstance(inst, TspInstance):
        return tour_length(perm, inst)
    return cvrp_decode(perm, inst).total_distance


class TestCvrpSplit:
    """``batch_costs`` costs every row of a batch, across TSP and CVRP instances, as
    ``tour_length`` or ``cvrp_decode`` costs the row's projection on its own instance. The
    class keeps the name of the CVRP split that ``batch_costs`` replaced."""

    @pytest.mark.parametrize("rows", [0, 1, 2, 57, 300])
    def test_matches_decode_on_bundled_mixed_batches(self, rows):
        # Unified genomes as wide as TE_8's widest instance, each row on a random one of its
        # eight, of its four TSP instances or of its four CVRP instances.
        bundled = load_environment("TE_8").tasks
        tours = [k for k, inst in enumerate(bundled) if isinstance(inst, TspInstance)]
        routes = [k for k in range(len(bundled)) if k not in tours]
        rng = np.random.default_rng(rows)
        width = max(inst.dimension for inst in bundled)
        genomes = np.array([rng.permutation(width) + 1 for _ in range(rows)]).reshape(rows, width)
        for kinds in (tours + routes, tours, routes):
            which = rng.choice(kinds, size=rows)
            costs = batch_costs(genomes, which, bundled)
            assert costs.shape == (rows,) and costs.dtype == float
            assert costs.tolist() == [reference_cost(g, bundled[w]) for g, w in zip(genomes, which)]

    @pytest.mark.parametrize("demands, capacity", [
        ([4, 6, 3, 7, 10], 10),  # loads exactly at capacity, which make no break
        ([9, 9, 9, 9, 9], 9),  # every demand equals the capacity: single-customer routes
        ([5, 0, 5, 0, 0], 5),  # zero demands, also right after a full route
        ([0, 0, 0, 0, 0], 1),  # one route of zero load
        ([3, 1, 4, 1, 5], 2**63),  # capacities past int64, which no load reaches
        ([3, 1, 4, 1, 5], 2**70),
    ], ids=["load at capacity", "demand at capacity", "zero demands", "all zero", "2**63 capacity",
            "2**70 capacity"])
    def test_edge_loads_match_decode(self, tiny_cvrp, square_tsp, demands, capacity):
        # Every order of five customers, alternating in one batch with the four-customer
        # tiny_cvrp and the four-city square_tsp, so every break position is met, a tour's
        # zero demands sit between routes and the rows' tables differ in size.
        inst = CvrpInstance(name="edge", depot_coord=(1.0, 2.0),
                            customer_coords=np.array([[9, 0], [0, 7], [-6, -1], [3, -8], [5, 5]]),
                            demands=np.array(demands), capacity=capacity)
        instances = [inst, tiny_cvrp, square_tsp]
        genomes = np.array(list(itertools.permutations(range(1, 6))))
        which = np.arange(len(genomes)) % 3
        expected = [reference_cost(g, instances[w]) for g, w in zip(genomes, which)]
        assert batch_costs(genomes, which, instances).tolist() == expected

    @pytest.mark.parametrize("kind", [TspInstance, CvrpInstance], ids=["tsp", "cvrp"])
    def test_narrow_genomes_rejected(self, kind):
        # 40-gene rows on TE_4_3, whose instances have 49 to 52 cities or customers, as
        # project refuses one such genome.
        bundled = load_environment("TE_4_3").tasks
        k = next(k for k, inst in enumerate(bundled) if isinstance(inst, kind))
        genomes = np.tile(np.arange(1, 41), (3, 1))
        match = f"task dimension {bundled[k].dimension} exceeds d_max 40"
        with pytest.raises(ValueError, match=match):
            batch_costs(genomes, np.full(3, k), bundled)
