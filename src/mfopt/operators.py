"""Variation operators: Order Crossover, dynamic parent-centric OX (dOX),
whose window is sized by the adaptive transfer matrix and which swaps two adjacent genes
instead when the donor keeps the window's genes in order, and 2-opt. Each takes one genome
(OX a pair); ``build_children`` is the batch, one child per record over a genome matrix: it
builds the crossover windows with one gene-keyed table, makes dOX's no-change swap in each row
the window pass left unchanged, then reverses each 2-opt segment by index. Where an operator
takes an ``rng``, it calls only ``rng.integers(n)``, so a ``Generator`` and dMFEA-II's inter-task
walk over a block of uniforms serve alike; the engines draw a generation's points as arrays
with ``_point_pairs``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


@dataclass(frozen=True)
class CrossoverWindow:
    """Contiguous cutting window [start, start + length) over a genome; it never wraps."""
    start: int
    length: int

    def __post_init__(self):
        if self.length < 1 or self.start < 0:
            raise ValueError(f"need window start >= 0 and length >= 1, got {self}")


def _two_points(n: int, rng: np.random.Generator) -> tuple[int, int]:
    """Two distinct points of range(n), ascending, with exactly the bits of numpy's
    ``sorted(rng.choice(n, 2, replace=False))``: Floyd's sample by ``integers(n - 1)`` and
    ``integers(n)``, then ``integers(2**32)``, which spends its shuffle's one 32-bit word."""
    a = int(rng.integers(n - 1))
    b = int(rng.integers(n))
    b = n - 1 if b == a else b
    rng.integers(2**32)
    return (a, b) if a < b else (b, a)


def _point_pairs(n: int, size: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """``size`` pairs of distinct points of range(n) as (lower, higher) arrays, by Floyd's rule:
    ``integers(n - 1, size)``, then ``integers(n, size)`` with a repeat taken as n - 1."""
    a, b = rng.integers(n - 1, size=size), rng.integers(n, size=size)
    b[b == a] = n - 1
    return np.minimum(a, b), np.maximum(a, b)


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
    if np.ndim(a) != 1 or np.shape(a) != np.shape(b):
        raise ValueError(f"order_crossover takes two 1-D genomes of one length, "
                         f"got shapes {np.shape(a)} and {np.shape(b)}")
    n = len(a)
    if window is None and rng is None:
        raise ValueError("need a window or an rng to draw one")
    lo, hi = (window.start, window.start + window.length) if window else _two_points(n + 1, rng)
    if hi > n:
        raise ValueError("window exceeds genome bounds")
    return tuple(build_children(np.array((a, b)), [(x, 1 - x, lo, hi, 0, 0, 1, 0) for x in (0, 1)]))


def window_length(w: float, rmp_entry: float, d_k: int, d_max: int) -> int:
    """Cutting-window size for dOX: w * rmp * d_k, rounded half up.

    Floored at 1 gene and capped at d_max - 1 so the receiving parent
    always contributes at least one position.
    """
    raw = math.floor(w * rmp_entry * d_k + 0.5)
    return max(1, min(raw, d_max - 1))


def two_opt(genome: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Reverse the segment between two drawn positions i < j inclusive, so the move always
    changes the genome."""
    if genome.ndim != 1:
        raise ValueError(f"two_opt takes one genome, got shape {genome.shape}")
    i, j = _two_points(len(genome), rng)
    out = genome.copy()
    out[i:j + 1] = out[i:j + 1][::-1]
    return out


def dynamic_ox(dominant: np.ndarray, donor: np.ndarray, rmp_entry: float, w: float, d_k: int,
               rng: np.random.Generator) -> np.ndarray:
    """Dynamic parent-centric OX.

    The child equals the dominant parent outside a cutting window of length w * rmp * d_k;
    inside the window the dominant's genes are re-ordered to follow their relative order in
    the donor, so the amount of transferred material scales with the learned transfer
    probability. If the donor imposes no change, one adjacent 2-opt swap at a freshly drawn
    position makes the child differ, as ``build_children`` does at a record's swap start.
    """
    if dominant.ndim != 1 or dominant.shape != donor.shape:
        raise ValueError(f"dynamic_ox takes two 1-D genomes of one length, "
                         f"got shapes {dominant.shape} and {donor.shape}")
    n = len(dominant)
    length = window_length(w, rmp_entry, d_k, n)
    where = np.empty(n + 1, dtype=np.int64)  # where[g]: the position of gene g in the donor
    where[donor] = np.arange(n)
    child, at = dominant.copy(), -1
    lo = int(rng.integers(n - length + 1))
    for p in where[dominant[lo:lo + length]].tolist():  # rising up to a descent
        if p < at:
            window = child[lo:lo + length]
            window[:] = window[where[window].argsort()]
            return child
        at = p
    lo = int(rng.integers(n - 1))  # the donor keeps the window's order: swap two genes
    child[lo:lo + 2] = child[lo + 1], child[lo]
    return child


def build_children(genomes: np.ndarray, records) -> np.ndarray:
    """One child per row ``(a, b, lo, hi, i, j, ox, s)`` of the (m, 8) ``records`` over
    ``genomes``: genome a with its genes in [lo, hi), or outside it if ox, put in the order
    they take in b (read cyclically from hi if ox); if ox is clear and that non-empty window
    comes out unchanged, dOX's no-change swap of positions s and s + 1; then 2-opted at (i, j)
    if i < j. One gene-keyed table builds the windows; [i, j] is reversed by index."""
    if np.size(records) and np.shape(records)[1:] != (8,):
        raise ValueError(f"records are rows of 8 columns, got shape {np.shape(records)}")
    n = genomes.shape[1]
    a, b, lo, hi, i, j, ox, s = np.asarray(records, np.int64).reshape(-1, 8).T
    cycled = sliding_window_view(np.hstack((genomes, genomes)), n, axis=1)
    donors = cycled[b, hi * ox]  # row b, read from hi if ox
    cols = np.arange(n)
    inside = (cols >= lo[:, None]) ^ (cols >= hi[:, None]) ^ ox.astype(bool)[:, None]
    children = genomes[a]
    chosen = np.zeros(children.size + len(children), dtype=bool)  # by gene, row by row
    keys = (n + 1) * np.arange(len(children))[:, None]  # row r's gene g is entry (n + 1) r + g
    chosen[children + keys] = inside
    children[inside] = donors[chosen[donors + keys]]
    d = np.flatnonzero((ox == 0) & (lo < hi))  # dOX rows: swap s, s + 1 if the window kept order
    d = d[(children[d] == genomes[a[d]]).all(axis=1), None]
    children[d, s[d] + (0, 1)] = children[d, s[d] + (1, 0)]
    m = np.flatnonzero(i < j)  # 2-opt: position c of [i, j] takes the gene at i + j - c
    i, j = i[m, None], j[m, None]
    children[m] = children[m[:, None], np.where((i <= cols) & (cols <= j), i + j - cols, cols)]
    return children
