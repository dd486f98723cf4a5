"""Run-level summary statistics and the Wilcoxon rank-sum test used to
compare final best costs of the two engines across repeated runs."""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
from scipy.stats import norm, rankdata, tiecorrect

# One-sided 5 % (two-sided 90 %) critical value of the normal z, 1.6448...
CRITICAL_Z = float(norm.ppf(0.95))


@dataclass
class SampleSet:
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)


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


def ranksum_test(a: SampleSet, b: SampleSet) -> TestVerdict:
    """Wilcoxon rank-sum with midrank ties and tie-corrected normal z.

    z < 0 means sample A tends to have lower values (better, for costs).
    Significant when |z| reaches ``CRITICAL_Z`` (1.645, one-sided 5 %).
    """
    x, y = a.values, b.values
    if x.size == 0 or y.size == 0:
        raise ValueError("both samples must be non-empty")
    n, m = x.size, y.size
    ranks = rankdata(np.concatenate([x, y]))  # midranks for ties
    w = ranks[:n].sum()
    mean_w = n * (n + m + 1) / 2.0
    var_w = n * m / 12.0 * (n + m + 1) * tiecorrect(ranks)
    z = float((w - mean_w) / np.sqrt(var_w)) if var_w > 0 else 0.0
    direction = (Direction.A_BETTER if z <= -CRITICAL_Z
                 else Direction.B_BETTER if z >= CRITICAL_Z else Direction.NONE)
    return TestVerdict(z_value=z, direction=direction)
