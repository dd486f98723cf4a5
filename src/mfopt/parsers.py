"""TSPLIB / Augerat benchmark file parsing.

Only the EUC_2D distance convention is supported: distances are Euclidean
lengths rounded to the nearest integer (half up). The published optima of
the bundled instances (e.g. 7542 for berlin52) are only attainable under
this integer rounding.
"""

from __future__ import annotations

import enum
import logging
import math
from dataclasses import dataclass

import numpy as np

from .tasks import CvrpInstance, TspInstance

log = logging.getLogger(__name__)

_KNOWN_KEYS = {
    "NAME", "TYPE", "COMMENT", "DIMENSION", "EDGE_WEIGHT_TYPE", "CAPACITY",
}
_SECTIONS = {"NODE_COORD_SECTION", "DEMAND_SECTION", "DEPOT_SECTION"}


class ProblemKind(enum.Enum):
    TSPLIB_TSP = "tsp"
    AUGERAT_VRP = "vrp"


@dataclass
class RawProblemFile:
    path: str
    kind: ProblemKind
    text: str


class ParseError(ValueError):
    """Malformed benchmark file; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def euc2d_distance(a, b) -> int:
    """TSPLIB EUC_2D distance: Euclidean length rounded half up."""
    return int(math.hypot(a[0] - b[0], a[1] - b[1]) + 0.5)


def _scan(text: str):
    """Split a TSPLIB-style file into header fields and section bodies."""
    headers: dict[str, str] = {}
    sections: dict[str, list[tuple[int, str]]] = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line == "EOF":
            break
        word = line.split(":")[0].split()[0] if line else ""
        if word in _SECTIONS:
            current = word
            sections[current] = []
            continue
        if ":" in line and not line[0].isdigit() and not line.startswith("-"):
            key, value = (part.strip() for part in line.split(":", 1))
            if key not in _KNOWN_KEYS:
                log.warning("ignoring unknown header keyword %r (line %d)", key, lineno)
                continue
            headers[key] = value
            current = None
            continue
        if current is None:
            raise ParseError(f"unexpected content {line!r}", lineno)
        sections[current].append((lineno, line))
    return headers, sections


def _require(headers: dict, key: str) -> str:
    if key not in headers:
        raise ParseError(f"missing required header {key}")
    return headers[key]


def _number(text: str, kind, what: str, line: int | None = None):
    """``kind(text)`` (``int`` or ``float``), or a ParseError naming ``what``."""
    try:
        return kind(text)
    except ValueError:
        raise ParseError(f"{what} is not {'an integer' if kind is int else 'a number'}: "
                         f"{text!r}", line) from None


def _read_coords(section, dimension: int) -> np.ndarray:
    coords = np.full((dimension, 2), np.nan)
    seen = 0
    for lineno, line in section:
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(f"expected 'id x y', got {line!r}", lineno)
        node = _number(parts[0], int, "node id", lineno)
        if not 1 <= node <= dimension:
            raise ParseError(f"node id {node} outside 1..{dimension}", lineno)
        coords[node - 1] = (_number(parts[1], float, "x coordinate", lineno),
                            _number(parts[2], float, "y coordinate", lineno))
        seen += 1
    if seen != dimension or np.isnan(coords).any():
        raise ParseError(
            f"NODE_COORD_SECTION has {seen} entries, DIMENSION says {dimension}",
            section[-1][0] if section else None,
        )
    return coords


def parse_tsplib(text: str) -> TspInstance:
    """Parse a TSPLIB .tsp file (TYPE: TSP, EDGE_WEIGHT_TYPE: EUC_2D)."""
    headers, sections = _scan(text)
    ptype = _require(headers, "TYPE")
    if ptype != "TSP":
        raise ParseError(f"expected TYPE: TSP, got {ptype!r}")
    ewt = _require(headers, "EDGE_WEIGHT_TYPE")
    if ewt != "EUC_2D":
        raise ParseError(f"unsupported EDGE_WEIGHT_TYPE {ewt!r} (only EUC_2D)")
    dimension = _number(_require(headers, "DIMENSION"), int, "DIMENSION")
    if "NODE_COORD_SECTION" not in sections:
        raise ParseError("missing NODE_COORD_SECTION")
    coords = _read_coords(sections["NODE_COORD_SECTION"], dimension)
    return TspInstance(name=headers.get("NAME", "unnamed"), coords=coords)


def parse_vrp(text: str) -> CvrpInstance:
    """Parse an Augerat-style .vrp file (TYPE: CVRP)."""
    headers, sections = _scan(text)
    ptype = _require(headers, "TYPE")
    if ptype != "CVRP":
        raise ParseError(f"expected TYPE: CVRP, got {ptype!r}")
    capacity = _number(_require(headers, "CAPACITY"), int, "CAPACITY")
    dimension = _number(_require(headers, "DIMENSION"), int, "DIMENSION")
    for sec in ("NODE_COORD_SECTION", "DEMAND_SECTION", "DEPOT_SECTION"):
        if sec not in sections:
            raise ParseError(f"missing {sec}")
    coords = _read_coords(sections["NODE_COORD_SECTION"], dimension)

    demands = np.full(dimension, -1, dtype=np.int64)
    for lineno, line in sections["DEMAND_SECTION"]:
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"expected 'id demand', got {line!r}", lineno)
        node = _number(parts[0], int, "node id", lineno)
        q = _number(parts[1], int, "demand", lineno)
        if not 1 <= node <= dimension:
            raise ParseError(f"node id {node} outside 1..{dimension}", lineno)
        if q < 0:
            raise ParseError(f"negative demand {q}", lineno)
        if q > capacity:
            raise ParseError(f"demand {q} exceeds capacity {capacity}", lineno)
        demands[node - 1] = q
    if (demands < 0).any():
        raise ParseError(f"DEMAND_SECTION does not cover all {dimension} nodes")

    depot_ids = [_number(line.split()[0], int, "depot id", lineno)
                 for lineno, line in sections["DEPOT_SECTION"]]
    depot_ids = [d for d in depot_ids if d != -1]
    if len(depot_ids) != 1:
        raise ParseError(f"expected exactly one depot, got {depot_ids}")
    depot = depot_ids[0]

    customer_mask = np.ones(dimension, dtype=bool)
    customer_mask[depot - 1] = False
    return CvrpInstance(
        name=headers.get("NAME", "unnamed"),
        depot_coord=tuple(coords[depot - 1]),
        customer_coords=coords[customer_mask],
        demands=demands[customer_mask],
        capacity=capacity,
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


def load_problem(path: str) -> RawProblemFile:
    """Read a benchmark file, inferring its kind from the declared TYPE."""
    with open(path) as f:
        text = f.read()
    headers, _ = _scan(text)
    ptype = _require(headers, "TYPE")
    if ptype == "TSP":
        kind = ProblemKind.TSPLIB_TSP
    elif ptype == "CVRP":
        kind = ProblemKind.AUGERAT_VRP
    else:
        raise ParseError(f"unsupported TYPE {ptype!r}")
    return RawProblemFile(path=path, kind=kind, text=text)


def parse_problem(raw: RawProblemFile):
    """Dispatch a raw file to the matching parser."""
    if raw.kind is ProblemKind.TSPLIB_TSP:
        return parse_tsplib(raw.text)
    return parse_vrp(raw.text)
