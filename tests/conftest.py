import numpy as np
import pytest

from mfopt.tasks import CvrpInstance, TspInstance

# One "criterion N: PASS/FAIL" line per acceptance check, echoed into the
# terminal summary so verdicts are visible even for passing tests.
acceptance_log: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if acceptance_log:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_log:
            terminalreporter.write_line(line)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def square_tsp():
    # Unit square scaled by 10: optimal tour is the perimeter, length 40.
    return TspInstance(name="square4", coords=np.array(
        [[0.0, 0.0], [10.0, 0.0], [10.0, 10.0], [0.0, 10.0]]))


@pytest.fixture
def line_tsp():
    # Five collinear cities at x = 0, 1, 2, 3, 4; optimal closed tour = 8.
    return TspInstance(name="line5", coords=np.array(
        [[float(i), 0.0] for i in range(5)]))


@pytest.fixture
def tiny_cvrp():
    # Depot at origin, four customers on the axes, capacity forces two
    # customers per route.
    return CvrpInstance(
        name="cross4",
        depot_coord=(0.0, 0.0),
        customer_coords=np.array(
            [[10.0, 0.0], [0.0, 10.0], [-10.0, 0.0], [0.0, -10.0]]),
        demands=np.array([5, 5, 5, 5]),
        capacity=10,
    )


def format_tsplib(inst: TspInstance) -> str:
    """Serialize a TSP instance back to TSPLIB text (round-trip inverse)."""
    lines = [
        f"NAME: {inst.name}",
        "TYPE: TSP",
        f"DIMENSION: {inst.dimension}",
        "EDGE_WEIGHT_TYPE: EUC_2D",
        "NODE_COORD_SECTION",
    ]
    lines += [f"{i + 1} {x:g} {y:g}" for i, (x, y) in enumerate(inst.coords)]
    lines.append("EOF")
    return "\n".join(lines) + "\n"


def format_vrp(inst: CvrpInstance) -> str:
    """Serialize a CVRP instance back to Augerat-style text."""
    lines = [
        f"NAME : {inst.name}",
        "TYPE : CVRP",
        f"DIMENSION : {inst.dimension + 1}",
        "EDGE_WEIGHT_TYPE : EUC_2D",
        f"CAPACITY : {inst.capacity}",
        "NODE_COORD_SECTION",
        f" 1 {inst.depot_coord[0]:g} {inst.depot_coord[1]:g}",
    ]
    lines += [
        f" {i + 2} {x:g} {y:g}" for i, (x, y) in enumerate(inst.customer_coords)
    ]
    lines.append("DEMAND_SECTION")
    lines.append(" 1 0")
    lines += [f" {i + 2} {q}" for i, q in enumerate(inst.demands)]
    lines += ["DEPOT_SECTION", " 1", " -1", "EOF"]
    return "\n".join(lines) + "\n"
