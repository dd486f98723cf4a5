import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfopt.stats import (
    CRITICAL_Z,
    Direction,
    SampleSet,
    midranks,
    ranksum_test,
    summarize,
)


class TestSummarize:
    def test_mean_and_sample_std(self):
        mean, std = summarize(SampleSet([2.0, 4.0, 6.0]))
        assert mean == 4.0
        assert std == pytest.approx(2.0)  # ddof = 1

    def test_single_value(self):
        assert summarize(SampleSet([5.0])) == (5.0, 0.0)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            summarize(SampleSet([]))

    def test_nan_refused(self):
        with pytest.raises(ValueError, match="index 1 is NaN"):
            summarize(SampleSet([1.0, np.nan, 3.0, np.nan]))


class TestCriticalZ:
    def test_ninety_percent(self):
        from scipy.stats import norm

        assert CRITICAL_Z == float(norm.ppf(0.95))


# Integers from a small range tie heavily; infinities must still be ranked.
heavy_ties = st.lists(st.one_of(st.integers(min_value=0, max_value=6),
                                st.sampled_from([-np.inf, np.inf])),
                      min_size=1, max_size=30)


class TestMidranksAgainstScipy:
    @given(heavy_ties, heavy_ties)
    @settings(max_examples=300, deadline=None)
    def test_ranks_and_z_bit_exact(self, xs, ys):
        from scipy.stats import rankdata, tiecorrect

        x, y = np.array(xs, float), np.array(ys, float)
        pooled = np.concatenate([x, y])
        ranks = rankdata(pooled)
        assert np.array_equal(midranks(pooled)[0], ranks)
        n, m = x.size, y.size
        var_w = n * m / 12.0 * (n + m + 1) * tiecorrect(ranks)
        z = (float((ranks[:n].sum() - n * (n + m + 1) / 2.0) / np.sqrt(var_w))
             if var_w > 0 else 0.0)
        assert ranksum_test(SampleSet(x), SampleSet(y)).z_value == z


class TestRanksum:
    def test_clearly_separated_samples(self):
        a = SampleSet([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0])
        b = SampleSet([101.0, 102.0, 103.0, 104.0, 105.0, 106.0, 107.0, 108.0])
        v = ranksum_test(a, b)
        assert v.direction is Direction.A_BETTER
        assert v.significant
        assert v.z_value < -1.645
        v2 = ranksum_test(b, a)
        assert v2.direction is Direction.B_BETTER
        assert v2.z_value == pytest.approx(-v.z_value)

    def test_identical_samples_not_significant(self):
        a = SampleSet([3.0, 3.0, 3.0])
        v = ranksum_test(a, SampleSet([3.0, 3.0, 3.0]))
        assert not v.significant
        assert v.direction is Direction.NONE

    def test_matches_scipy(self):
        from scipy.stats import norm, ranksums

        rng = np.random.default_rng(7)
        for _ in range(50):
            x = rng.normal(0, 1, 12)
            y = rng.normal(0.5, 1, 15)
            v = ranksum_test(SampleSet(x), SampleSet(y))
            # scipy's ranksums reports the same statistic (no tie
            # correction needed: continuous samples are tie-free).
            assert v.z_value == pytest.approx(ranksums(x, y).statistic)
            assert norm.cdf(v.z_value) == pytest.approx(
                ranksums(x, y, alternative="less").pvalue)

    def test_empty_sample_raises(self):
        with pytest.raises(ValueError):
            ranksum_test(SampleSet([]), SampleSet([1.0]))

    @pytest.mark.parametrize("a, b", [([4.0, 5.0, np.nan], [1.0, 2.0, 3.0]),
                                      ([1.0, 2.0, 3.0], [4.0, 5.0, np.nan])])
    def test_nan_refused(self, a, b):
        with pytest.raises(ValueError, match="index 2 is NaN"):
            ranksum_test(SampleSet(a), SampleSet(b))
