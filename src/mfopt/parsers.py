"""TSPLIB / Augerat benchmark file parsing.

Only the EUC_2D distance convention is supported: distances are Euclidean
lengths rounded to the nearest integer (half up). The published optima of
the bundled instances (e.g. 7542 for berlin52) are only attainable under
this integer rounding.
"""

from __future__ import annotations

import logging
import math

import numpy as np

from .tasks import CvrpInstance, TspInstance

log = logging.getLogger(__name__)

_KNOWN_KEYS = {
    "NAME", "TYPE", "COMMENT", "DIMENSION", "EDGE_WEIGHT_TYPE", "CAPACITY",
}
_SECTIONS = {"NODE_COORD_SECTION", "DEMAND_SECTION", "DEPOT_SECTION"}


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
    """Split a TSPLIB-style file into header fields and section bodies; a
    header keyword or section that appears twice is a ParseError."""
    headers: dict[str, str] = {}
    sections: dict[str, list[tuple[int, str]]] = {}
    first: dict[str, int] = {}  # line of each keyword and section header
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line == "EOF":
            break
        word = (line.split(":")[0].split() or [""])[0]
        if word in _SECTIONS:
            if first.setdefault(word, lineno) != lineno:
                raise ParseError(f"{word} repeats line {first[word]}", lineno)
            current = word
            sections[current] = []
            continue
        if ":" in line and not line[0].isdigit() and not line.startswith("-"):
            key, value = (part.strip() for part in line.split(":", 1))
            if key not in _KNOWN_KEYS:
                log.warning("ignoring unknown header keyword %r (line %d)", key, lineno)
                continue
            if first.setdefault(key, lineno) != lineno:
                raise ParseError(f"{key} repeats line {first[key]}", lineno)
            headers[key] = value
            current = None
            continue
        if current is None:
            raise ParseError(f"unexpected content {line!r}", lineno)
        sections[current].append((lineno, line))
    return headers, sections


def _require(fields: dict, key: str, what: str = "required header"):
    if key not in fields:
        raise ParseError(f"missing {what} {key}")
    return fields[key]


def _number(text: str, kind, what: str, line: int | None = None):
    """``kind(text)`` (``int`` or ``float``) if finite, or a ParseError naming ``what``."""
    try:
        value = kind(text)
        if kind is int or math.isfinite(value):
            return value
    except ValueError:
        pass
    raise ParseError(f"{what} is not {'an integer' if kind is int else 'a finite number'}: "
                     f"{text!r}", line)


def _read_nodes(sections, name: str, fields: tuple[str, ...], kind, dimension: int):
    """A node section's ``fields`` by node id, and the index of each node's line
    in the section. Each line is an id and the fields; every id in 1..dimension
    appears exactly once and every field is a finite number of ``kind``."""
    section = _require(sections, name, "section")
    rows = [line.split() for _, line in section]
    try:
        table = np.array(rows, dtype=kind).reshape(len(rows), 1 + len(fields))
        ids = np.array([row[0] for row in rows], dtype=np.int64)
        order = np.argsort(ids)
        if (len(rows) == dimension and np.isfinite(table).all()
                and np.array_equal(ids[order], np.arange(1, dimension + 1))):
            return table[order, 1:], order
    except (ValueError, OverflowError):
        pass
    seen: dict[int, int] = {}
    for (lineno, line), row in zip(section, rows):  # name the first bad line
        if len(row) != 1 + len(fields):
            raise ParseError(f"expected node id, {', '.join(fields)}; got {line!r}", lineno)
        node = _number(row[0], int, "node id", lineno)
        for what, text in zip(fields, row[1:]):
            _number(text, kind, what, lineno)
        if not 1 <= node <= dimension:
            raise ParseError(f"node id {node} outside 1..{dimension}", lineno)
        if node in seen:
            raise ParseError(f"node id {node} repeats line {seen[node]}", lineno)
        seen[node] = lineno
    missing = next((node for node in range(1, dimension + 1) if node not in seen), None)
    raise ParseError(f"{name} has no node {missing}" if missing
                     else f"{name} has a number outside the 64-bit range")


def parse_problem(text: str) -> TspInstance | CvrpInstance:
    """Parse a TSPLIB .tsp or Augerat .vrp file; its TYPE header says which.

    Both kinds need EDGE_WEIGHT_TYPE: EUC_2D, a positive DIMENSION and a
    NODE_COORD_SECTION. A CVRP adds CAPACITY, a DEMAND_SECTION and one
    depot in its DEPOT_SECTION; the depot is not a customer.
    """
    headers, sections = _scan(text)
    ptype = _require(headers, "TYPE")
    if ptype not in ("TSP", "CVRP"):
        raise ParseError(f"unsupported TYPE {ptype!r} (expected TSP or CVRP)")
    ewt = _require(headers, "EDGE_WEIGHT_TYPE")
    if ewt != "EUC_2D":
        raise ParseError(f"unsupported EDGE_WEIGHT_TYPE {ewt!r} (only EUC_2D)")
    dimension = _number(_require(headers, "DIMENSION"), int, "DIMENSION")
    if dimension < 1:
        raise ParseError(f"DIMENSION must be a positive integer, got {dimension}")
    coords, _ = _read_nodes(sections, "NODE_COORD_SECTION",
                            ("x coordinate", "y coordinate"), float, dimension)
    name = headers.get("NAME", "unnamed")
    if ptype == "TSP":
        return TspInstance(name=name, coords=coords)

    capacity = _number(_require(headers, "CAPACITY"), int, "CAPACITY")
    demands, where = _read_nodes(sections, "DEMAND_SECTION", ("demand",), int, dimension)
    demands = demands[:, 0]
    bad = np.flatnonzero((demands < 0) | (demands > capacity))
    if bad.size:
        q, lineno = demands[bad[0]], sections["DEMAND_SECTION"][where[bad[0]]][0]
        raise ParseError(f"negative demand {q}" if q < 0
                         else f"demand {q} exceeds capacity {capacity}", lineno)

    depots = [(lineno, _number(line.split()[0], int, "depot id", lineno))
              for lineno, line in _require(sections, "DEPOT_SECTION", "section")]
    depots = [(lineno, d) for lineno, d in depots if d != -1]
    if len(depots) != 1:
        raise ParseError(f"expected exactly one depot, got {[d for _, d in depots]}")
    lineno, depot = depots[0]
    if not 1 <= depot <= dimension:
        raise ParseError(f"depot id {depot} outside 1..{dimension}", lineno)
    if demands[depot - 1]:
        raise ParseError(f"depot demand must be 0, got {demands[depot - 1]}",
                         sections["DEMAND_SECTION"][where[depot - 1]][0])

    return CvrpInstance(
        name=name,
        depot_coord=tuple(coords[depot - 1]),
        customer_coords=np.delete(coords, depot - 1, axis=0),
        demands=np.delete(demands, depot - 1),
        capacity=capacity,
    )
