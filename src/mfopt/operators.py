"""Variation operators: Order Crossover, its dynamic parent-centric
variant (dOX) whose transfer volume is driven by the adaptive transfer
matrix, and 2-opt segment reversal. OX and 2-opt also take genome matrices,
one window or point pair per row, so the engines build a generation's OX
and 2-opt children with one call of each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


@dataclass(frozen=True)
class CrossoverWindow:
    """Contiguous cutting window [start, start + length) over a genome.

    Windows never wrap: start is drawn from [0, d_max - length].
    """
    start: int | np.ndarray
    length: int | np.ndarray

    def __post_init__(self):
        if np.min(self.length) < 1 or np.min(self.start) < 0:
            raise ValueError(f"need window start >= 0 and length >= 1, got {self}")


def _two_points(n: int, rng: np.random.Generator) -> tuple[int, int]:
    """Two distinct points of range(n), ascending, drawn with exactly the bits
    of ``sorted(rng.choice(n, 2, replace=False))``: numpy's Floyd sample, then
    the one draw that its two-element shuffle spends."""
    a = int(rng.integers(n - 1))
    b = int(rng.integers(n))
    b = n - 1 if b == a else b
    rng.integers(2)
    return (a, b) if a < b else (b, a)


def order_crossover(
    a: np.ndarray,
    b: np.ndarray,
    window: CrossoverWindow | None = None,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Order Crossover between two permutations of the same length.

    Child 1 keeps ``a``'s segment inside the window and takes the rest
    from ``b``; child 2 is the symmetric case. Parent matrices are crossed
    row by row in one batch, under a window of per-row arrays.
    """
    if np.shape(a) != np.shape(b):
        raise ValueError("parents must share d_max")
    n = np.shape(a)[-1]
    if window is None and rng is None:
        raise ValueError("need a window or an rng to draw one")
    lo, hi = (window.start, window.start + window.length) if window else _two_points(n + 1, rng)
    if np.max(hi) > n:
        raise ValueError("window exceeds genome bounds")
    # Row r of child keeps keep[r][lo:hi] and fills the rest from fill[r] (cyclic from hi).
    keep, fill = np.array((a, b)).reshape(-1, n), np.array((b, a)).reshape(-1, n)
    lo, hi = np.array((lo, lo)).ravel(), np.array((hi, hi)).ravel()
    rows, pos = np.arange(len(keep))[:, None], np.arange(n)
    inside = (lo[:, None] <= pos) & (pos < hi[:, None])
    in_segment = np.zeros((len(keep), n + 1), dtype=bool)
    in_segment[rows, keep] = inside
    fill = sliding_window_view(np.hstack((fill, fill)), n, axis=1)[rows[:, 0], hi]
    child = keep.copy()
    child[~inside] = fill[~in_segment.ravel()[fill + (n + 1) * rows]]
    return tuple(child.reshape((2,) + np.shape(a)))


def window_length(w: float, rmp_entry: float, d_k: int, d_max: int) -> int:
    """Cutting-window size for dOX: w * rmp * d_k, rounded half up.

    Floored at 1 gene and capped at d_max - 1 so the receiving parent
    always contributes at least one position.
    """
    raw = math.floor(w * rmp_entry * d_k + 0.5)
    return max(1, min(raw, d_max - 1))


def two_opt(
    genome: np.ndarray,
    i: int | np.ndarray | None = None,
    j: int | np.ndarray | None = None,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Reverse the segment between positions i and j inclusive.

    With no explicit (i, j), a random pair with i < j is drawn; i == j is
    rejected so the move always changes the genome. A genome matrix takes
    arrays i and j and reverses one segment per row.
    """
    n = genome.shape[-1]
    if (i is None) != (j is None) or (i is None and rng is None):
        raise ValueError("need both i and j, or neither and an rng")
    if i is None:
        i, j = _two_points(n, rng)
    if genome.ndim > 1:
        rows = [two_opt(row, a, b) for row, a, b in zip(genome, i, j, strict=True)]
        return np.array(rows, dtype=genome.dtype).reshape(genome.shape)
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
        lo = int(rng.integers(0, n - 1))  # the 2-opt move (lo, lo + 1) instead
        length, reordered = 2, dominant[lo:lo + 2][::-1]
    child = dominant.copy()
    child[lo:lo + length] = reordered
    return child
