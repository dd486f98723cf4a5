"""Variation operators: Order Crossover, its dynamic parent-centric
variant (dOX) whose transfer volume is driven by the adaptive transfer
matrix, and 2-opt segment reversal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CrossoverWindow:
    """Contiguous cutting window [start, start + length) over a genome.

    Windows never wrap: start is drawn from [0, d_max - length].
    """
    start: int
    length: int

    def __post_init__(self):
        if self.length < 1:
            raise ValueError("window length must be >= 1")
        if self.start < 0:
            raise ValueError("window start must be >= 0")


def _two_points(n: int, rng: np.random.Generator) -> tuple[int, int]:
    """Two distinct points of range(n), ascending, drawn with exactly the bits
    of ``sorted(rng.choice(n, 2, replace=False))``: numpy's Floyd sample, then
    the one draw that its two-element shuffle spends."""
    a = int(rng.integers(n - 1))
    b = int(rng.integers(n))
    b = n - 1 if b == a else b
    rng.integers(2)
    return (a, b) if a < b else (b, a)


def _ox_child(keeper: np.ndarray, filler: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """One OX child: keeper's segment [lo, hi), remaining positions filled
    left-to-right with the absent values in filler's cyclic order starting
    just after the segment."""
    segment = keeper[lo:hi]
    in_segment = np.zeros(len(keeper) + 1, dtype=bool)
    in_segment[segment] = True
    fill = np.concatenate((filler[hi:], filler[:hi]))
    fill = fill[~in_segment[fill]]
    return np.concatenate((fill[:lo], segment, fill[lo:]))


def order_crossover(
    a: np.ndarray,
    b: np.ndarray,
    window: CrossoverWindow | None = None,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Order Crossover between two permutations of the same length.

    Child 1 keeps ``a``'s segment inside the window and takes the rest
    from ``b``; child 2 is the symmetric case.
    """
    if len(a) != len(b):
        raise ValueError("parents must share d_max")
    if window is not None:
        lo, hi = window.start, window.start + window.length
    elif rng is not None:
        lo, hi = _two_points(len(a) + 1, rng)
    else:
        raise ValueError("need a window or an rng to draw one")
    if hi > len(a):
        raise ValueError("window exceeds genome bounds")
    return _ox_child(a, b, lo, hi), _ox_child(b, a, lo, hi)


def window_length(w: float, rmp_entry: float, d_k: int, d_max: int) -> int:
    """Cutting-window size for dOX: w * rmp * d_k, rounded half up.

    Floored at 1 gene and capped at d_max - 1 so the receiving parent
    always contributes at least one position.
    """
    raw = math.floor(w * rmp_entry * d_k + 0.5)
    return max(1, min(raw, d_max - 1))


def two_opt(
    genome: np.ndarray,
    i: int | None = None,
    j: int | None = None,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Reverse the segment between positions i and j inclusive.

    With no explicit (i, j), a random pair with i < j is drawn; i == j is
    rejected so the move always changes the genome.
    """
    n = len(genome)
    if i is None or j is None:
        if rng is None:
            raise ValueError("need explicit (i, j) or an rng")
        i, j = _two_points(n, rng)
    if not 0 <= i < j < n:
        raise ValueError(f"need 0 <= i < j < {n}, got ({i}, {j})")
    out = genome.copy()
    out[i:j + 1] = out[i:j + 1][::-1]
    return out


def dynamic_ox(
    dominant: np.ndarray,
    donor: np.ndarray,
    rmp_entry: float,
    w: float,
    d_k: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Dynamic parent-centric OX.

    The child equals the dominant parent outside a cutting window of
    length w * rmp * d_k; inside the window the dominant's genes are
    re-ordered to follow their relative order in the donor, so the amount
    of transferred material scales with the learned transfer probability.
    If the donor imposes no change, one adjacent 2-opt swap guarantees the
    child differs from the dominant parent.
    """
    n = len(dominant)
    length = window_length(w, rmp_entry, d_k, n)
    lo = int(rng.integers(0, n - length + 1))
    segment = dominant[lo:lo + length]
    in_segment = np.zeros(n + 1, dtype=bool)
    in_segment[segment] = True
    reordered = donor[in_segment[donor]]
    if reordered.tolist() == segment.tolist():
        i = int(rng.integers(0, n - 1))
        return two_opt(dominant, i, i + 1)
    child = dominant.copy()
    child[lo:lo + length] = reordered
    return child
