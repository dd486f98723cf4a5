"""Run-level summary statistics and the Wilcoxon rank-sum test used to
compare final best costs of the two engines across repeated runs.

Midranks and the tie correction are computed in numpy; the tests check
them bit for bit against scipy's ``rankdata`` and ``tiecorrect``."""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

# One-sided 5 % (two-sided 90 %) critical value of the normal z; equals
# scipy.stats.norm.ppf(0.95) to the last bit.
CRITICAL_Z = 1.6448536269514722


@dataclass
class SampleSet:
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        nan = np.flatnonzero(np.isnan(self.values))
        if nan.size:
            raise ValueError(f"sample value at index {nan[0]} is NaN")


class Direction(enum.Enum):
    A_BETTER = "A_better"
    B_BETTER = "B_better"
    NONE = "none"


@dataclass
class TestVerdict:
    z_value: float
    direction: Direction

    @property
    def significant(self) -> bool:
        return self.direction is not Direction.NONE


def summarize(s: SampleSet) -> tuple[float, float]:
    """Mean and sample standard deviation (n-1 denominator)."""
    v = s.values
    if v.size == 0:
        raise ValueError("empty sample")
    std = float(v.std(ddof=1)) if v.size > 1 else 0.0
    return float(v.mean()), std


def midranks(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """1-based ranks where each tie group shares its mean rank, and the
    size of each tie group."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    counts = np.diff(starts, append=ordered.size)
    ranks = np.empty(ordered.size)
    ranks[order] = np.repeat(starts + 1 + (counts - 1) / 2, counts)
    return ranks, counts


def ranksum_test(a: SampleSet, b: SampleSet) -> TestVerdict:
    """Wilcoxon rank-sum with midrank ties and tie-corrected normal z.

    z < 0 means sample A tends to have lower values (better, for costs).
    Significant when |z| reaches ``CRITICAL_Z`` (1.645, one-sided 5 %).
    """
    x, y = a.values, b.values
    if x.size == 0 or y.size == 0:
        raise ValueError("both samples must be non-empty")
    n, m = x.size, y.size
    ranks, ties = midranks(np.concatenate([x, y]))
    w = ranks[:n].sum()
    mean_w = n * (n + m + 1) / 2.0
    t, size = ties.astype(float), float(n + m)
    tie_correction = 1.0 - (t ** 3 - t).sum() / (size ** 3 - size)
    var_w = n * m / 12.0 * (n + m + 1) * tie_correction
    z = float((w - mean_w) / np.sqrt(var_w)) if var_w > 0 else 0.0
    direction = (Direction.A_BETTER if z <= -CRITICAL_Z
                 else Direction.B_BETTER if z >= CRITICAL_Z else Direction.NONE)
    return TestVerdict(z_value=z, direction=direction)
