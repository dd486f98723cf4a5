"""Variation operators: Order Crossover, its dynamic parent-centric
variant (dOX) whose transfer volume is driven by the adaptive transfer
matrix, and 2-opt segment reversal.
"""

from __future__ import annotations

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


def draw_window(d_max: int, rng: np.random.Generator) -> CrossoverWindow:
    """Random window between two distinct cut points in [0, d_max]."""
    i, j = sorted(rng.choice(d_max + 1, size=2, replace=False).tolist())
    return CrossoverWindow(start=i, length=j - i)


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
    if window is None:
        if rng is None:
            raise ValueError("need a window or an rng to draw one")
        window = draw_window(len(a), rng)
    lo, hi = window.start, window.start + window.length
    if hi > len(a):
        raise ValueError("window exceeds genome bounds")
    return _ox_child(a, b, lo, hi), _ox_child(b, a, lo, hi)


def window_length(w: float, rmp_entry: float, d_k: int, d_max: int) -> int:
    """Cutting-window size for dOX: w * rmp * d_k, rounded half up.

    Floored at 1 gene and capped at d_max - 1 so the receiving parent
    always contributes at least one position.
    """
    raw = int(np.floor(w * rmp_entry * d_k + 0.5))
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
        i, j = sorted(rng.choice(n, size=2, replace=False).tolist())
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
    if (reordered == segment).all():
        i = int(rng.integers(0, n - 1))
        return two_opt(dominant, i, i + 1)
    child = dominant.copy()
    child[lo:lo + length] = reordered
    return child
