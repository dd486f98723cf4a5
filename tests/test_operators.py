import copy
import itertools
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mfopt.operators import (
    CrossoverWindow,
    _point_pairs,
    _two_points,
    build_children,
    dynamic_ox,
    order_crossover,
    two_opt,
    window_length,
)

from test_acceptance import reference_ox

BIT_GENERATORS = [np.random.PCG64, np.random.PCG64DXSM, np.random.Philox, np.random.SFC64,
                  np.random.MT19937]


def _same_state(a, b):
    """Bit-generator states and draw calls compared recursively, since they hold arrays
    (Philox's state does)."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    if isinstance(a, (tuple, list)):
        return type(a) is type(b) and len(a) == len(b) and all(map(_same_state, a, b))
    return np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b


def reverse(genome, i, j):
    """The genome with its positions i..j inclusive in reverse order: a 2-opt move's oracle."""
    return np.concatenate((genome[:i], genome[i:j + 1][::-1], genome[j + 1:]))


def reference_dynamic_ox(dominant, donor, rmp_entry, w, d_k, rng):
    """Independent dOX reference with the same draws: refill the window with
    its genes in the order a scan of the donor meets them, and fall back to an
    adjacent swap when the whole child equals the dominant parent."""
    n = len(dominant)
    length = window_length(w, rmp_entry, d_k, n)
    lo = int(rng.integers(n - length + 1))
    hi = lo + length
    child = dominant.copy()
    window = set(child[lo:hi].tolist())
    child[lo:hi] = [g for g in donor.tolist() if g in window]
    if np.array_equal(child, dominant):
        i = int(rng.integers(n - 1))
        child = reverse(child, i, i + 1)
    return child


class TestWindow:
    def test_bad_windows_rejected(self):
        with pytest.raises(ValueError):
            CrossoverWindow(start=0, length=0)
        with pytest.raises(ValueError):
            CrossoverWindow(start=-1, length=2)

    def test_draw_window_bounds(self, rng):
        # order_crossover's own window is sorted(rng.choice(n + 1, 2)): two
        # distinct cut points in [0, n], child 1 keeping a's segment.
        a, b = np.arange(1, 9), np.arange(8, 0, -1)
        for _ in range(200):
            lo, hi = sorted(copy.deepcopy(rng).choice(9, 2, replace=False).tolist())
            assert 0 <= lo < hi <= 8
            c1, c2 = order_crossover(a, b, rng=rng)
            assert list(c1) == reference_ox(a, b, lo, hi)
            assert list(c2) == reference_ox(b, a, lo, hi)

    def test_window_length_formula(self):
        # 0.5 * 0.9 * 52 = 23.4 -> 23;  0.5 * 0.95 * 51 = 24.225 -> 24
        assert window_length(0.5, 0.9, 52, 76) == 23
        assert window_length(0.5, 0.95, 51, 76) == 24
        # half-up rounding: 0.5 * 0.1 * 70 = 3.5 -> 4
        assert window_length(0.5, 0.1, 70, 76) == 4
        # floor at one gene and cap below the genome size
        assert window_length(0.5, 0.1, 4, 76) == 1
        assert window_length(1.0, 1.0, 76, 76) == 75


class TestTwoPoints:
    @given(st.integers(min_value=0, max_value=2 ** 32 - 1),
           st.integers(min_value=2, max_value=25_000),
           st.sampled_from(BIT_GENERATORS))
    @example(seed=0, n=2, bits=np.random.PCG64)
    @settings(max_examples=300, deadline=None)
    def test_spends_the_bits_of_rng_choice(self, seed, n, bits):
        # Same points and same generator state afterwards, so swapping rng.choice for the
        # helper leaves every seeded run unchanged.
        rng, ref = np.random.Generator(bits(seed)), np.random.Generator(bits(seed))
        for _ in range(3):
            assert _two_points(n, rng) == tuple(sorted(ref.choice(n, 2, replace=False).tolist()))
        assert _same_state(rng.bit_generator.state, ref.bit_generator.state)
        assert rng.random() == ref.random()
        assert rng.integers(n) == ref.integers(n)


class TestPointPairs:
    @pytest.mark.parametrize("n", [2, 3, 53, 2**32])
    def test_pairs_are_distinct_ascending_and_in_range(self, n):
        lo, hi = _point_pairs(n, 20_000, np.random.default_rng(n))
        assert lo.shape == hi.shape == (20_000,)
        assert ((0 <= lo) & (lo < hi) & (hi < n)).all()

    def test_pairs_are_uniform_over_the_pairs(self):
        # Floyd's rule gives each of the n(n - 1)/2 pairs of range(n) the same chance.
        from scipy.stats import chisquare
        n, size = 7, 42_000
        lo, hi = _point_pairs(n, size, np.random.default_rng(11))
        pairs = np.bincount(lo * n + hi, minlength=n * n).reshape(n, n)[np.triu_indices(n, 1)]
        assert pairs.sum() == size  # every pair is ascending
        assert chisquare(pairs).pvalue > 0.01


class TestOrderCrossover:
    def test_hand_example(self):
        a = np.arange(1, 9)
        b = a[::-1].copy()
        w = CrossoverWindow(start=3, length=2)
        c1, c2 = order_crossover(a, b, window=w)
        assert list(c1) == [3, 2, 1, 4, 5, 8, 7, 6]
        assert list(c2) == [6, 7, 8, 5, 4, 1, 2, 3]

    def test_length_mismatch(self, rng):
        with pytest.raises(ValueError):
            order_crossover(np.arange(1, 5), np.arange(1, 6), rng=rng)

    def test_needs_window_or_rng(self):
        with pytest.raises(ValueError, match="need a window or an rng"):
            order_crossover(np.arange(1, 5), np.arange(1, 5))

    def test_window_out_of_bounds(self):
        with pytest.raises(ValueError):
            order_crossover(np.arange(1, 5), np.arange(1, 5),
                            window=CrossoverWindow(start=3, length=2))

    def test_exhaustive_against_reference_small(self):
        # Every parent pair and window for n = 4: exact agreement.
        n = 4
        perms = [np.array(p) for p in itertools.permutations(range(1, n + 1))]
        for a in perms:
            for b in perms:
                for lo in range(n):
                    for length in range(1, n - lo + 1):
                        w = CrossoverWindow(start=lo, length=length)
                        c1, c2 = order_crossover(a, b, window=w)
                        assert list(c1) == reference_ox(a, b, lo, lo + length)
                        assert list(c2) == reference_ox(b, a, lo, lo + length)

    def test_bad_matrix_windows(self, rng):
        # Parent matrices are refused whatever the window; the batch is build_children.
        gen = np.random.default_rng(0)
        a, b = np.array([gen.permutation(8) + 1 for _ in range(4)]).reshape(2, 2, 8)
        for kwargs in (dict(window=CrossoverWindow(0, 2)), dict(rng=rng)):
            with pytest.raises(ValueError, match="two 1-D genomes of one length"):
                order_crossover(a, b, **kwargs)
        with pytest.raises(ValueError, match="two 1-D genomes of one length"):
            order_crossover(a[0], b, window=CrossoverWindow(0, 2))


class TestTwoOpt:
    def test_random_move_always_changes(self, rng):
        # The segment between _two_points' draws on a twin generator, reversed:
        # the move always changes the genome and spends exactly those draws.
        twin = copy.deepcopy(rng)
        for n in (2, 3, 15, 76):
            g = np.random.default_rng(n).permutation(n) + 1
            for _ in range(100):
                child = two_opt(g, rng)
                assert np.array_equal(child, reverse(g, *_two_points(n, twin)))
                assert not np.array_equal(child, g)
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_refuses_a_genome_matrix(self, rng):
        # Rows would be reversed as genes; the batch is build_children.
        genomes = np.tile(np.arange(1, 6), (3, 1))
        with pytest.raises(ValueError, match="one genome"):
            two_opt(genomes, rng)


class TestDynamicOx:
    def test_window_reordered_by_donor(self):
        # Window [1, 4) of dominant holds (2, 3, 4); the donor orders
        # those values 4, 3, 2, so the child's window becomes (4, 3, 2).
        dom = np.array([1, 2, 3, 4, 5])
        don = np.array([5, 4, 3, 2, 1])

        class FixedRng:
            def integers(self, n):
                return 1  # window start

            def random(self):  # pragma: no cover - not used here
                return 0.0

        child = dynamic_ox(dom, don, rmp_entry=0.6, w=1.0, d_k=5,
                           rng=FixedRng())
        # window_length(1.0, 0.6, 5, 5) = 3 -> window [1, 4)
        assert list(child) == [1, 4, 3, 2, 5]

    @given(st.integers(min_value=0, max_value=2 ** 31), st.booleans())
    @example(seed=0, same_parents=True)
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, seed, same_parents):
        # Same child and same RNG state afterwards, so the engines' draw
        # order is unchanged; identical parents force the fallback swap.
        gen = np.random.default_rng(seed)
        n = int(gen.integers(2, 60))
        dom = gen.permutation(n) + 1
        don = dom.copy() if same_parents else gen.permutation(n) + 1
        d_k = int(gen.integers(1, n + 1))
        entry, w = float(gen.uniform(0.0, 1.0)), float(gen.uniform(0.1, 1.0))
        rng, ref_rng = (np.random.default_rng(seed + 1) for _ in range(2))
        child = dynamic_ox(dom, don, entry, w, d_k, rng)
        expected = reference_dynamic_ox(dom, don, entry, w, d_k, ref_rng)
        assert np.array_equal(child, expected)
        assert rng.random() == ref_rng.random()

    def test_mixed_dtypes_still_change_the_child(self):
        # An int32 donor against an int64 dominant: the no-change test must
        # compare values, not bytes, or the guard swap is skipped.
        dom = np.arange(1, 11, dtype=np.int64)
        for seed in range(50):
            child = dynamic_ox(dom, dom.astype(np.int32), 0.5, 0.5, 10,
                               np.random.default_rng(seed))
            assert not np.array_equal(child, dom)

    def test_refuses_a_matrix_or_parents_of_two_lengths(self, rng):
        # Parents of two lengths are not one gene set, and a matrix is not one genome: each
        # is refused with both shapes named, as order_crossover refuses them.
        dom = np.arange(1, 6)
        for dominant, donor in ((dom, np.arange(1, 8)), (dom, np.arange(1, 4)),
                                (np.tile(dom, (2, 1)), dom), (dom, np.tile(dom, (2, 1))),
                                (np.tile(dom, (2, 1)), np.tile(dom, (2, 1)))):
            with pytest.raises(ValueError, match=re.escape(f"{dominant.shape} and {donor.shape}")):
                dynamic_ox(dominant, donor, 0.5, 0.5, 5, rng)


class TestBuildChildren:
    def test_no_records_build_no_children(self):
        # A dMFEA-II generation whose children are all inter-task has no records.
        genomes = np.array([np.arange(1, 7), np.arange(6, 0, -1)])
        children = build_children(genomes, [])
        assert children.shape == (0, 6) and children.dtype == genomes.dtype

    def test_refuses_records_not_eight_columns_wide(self):
        # A (7, 8) block read as rows of 7 would be 8 wrong children; a block of any other
        # width, one bare row or a stack of blocks is refused, and only [] may hold no row.
        genomes = np.array([np.arange(1, 7), np.arange(6, 0, -1)])
        row = (0, 1, 1, 4, 2, 5, 0, 3)
        assert build_children(genomes, [row] * 7).shape == (7, 6)
        for records in ([row[:7]] * 8, [row + (0,)] * 7, row, [[row] * 2] * 2):
            with pytest.raises(ValueError, match="rows of 8 columns"):
                build_children(genomes, records)
        assert build_children(genomes, np.empty((0, 8), np.int64)).shape == (0, 6)

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1),
           st.integers(min_value=2, max_value=80), st.integers(min_value=1, max_value=16))
    @example(seed=0, n=2, m=1)
    @example(seed=1, n=80, m=12)
    @settings(max_examples=300, deadline=None)
    def test_mixed_batch_rows_match_their_references(self, seed, n, m):
        # One batch of every record kind the engines draw, in random order:
        # OX pairs, dOX children (no-change swaps and one-gene windows
        # included), 2-opt-only children and empty-window fallbacks, each kind
        # with or without a 2-opt move: a random one, one over the whole
        # genome, or an adjacent one. A row that makes no no-change swap has a
        # random swap start. Row k equals its record's reference, and the
        # batch leaves its genomes as they were.
        gen = np.random.default_rng(seed)
        rng, ref_rng = (np.random.default_rng(seed + 1) for _ in range(2))
        pool = [gen.permutation(n) + 1 for _ in range(m)]
        genomes = np.array(pool + pool)  # row m + p is a twin of row p
        before = genomes.copy()

        def move(optional=True):  # a random, whole-genome or adjacent move, or none
            i = int(gen.integers(n - 1))
            moves = [_two_points(n, gen), (0, n - 1), (i, i + 1)] + [(0, 0)] * optional
            return moves[int(gen.integers(len(moves)))]

        def ox_window():  # a random window, one at 0, one ending at n, or of length n - 1 or n
            windows = [_two_points(n + 1, gen), (0, int(gen.integers(1, n + 1))),
                       (int(gen.integers(n)), n), (0, n - 1), (1, n), (0, n)]
            return windows[int(gen.integers(len(windows)))]

        def anywhere():  # a swap start that no row but a no-change dOX row reads
            return int(gen.integers(n - 1))

        rows = []  # (record, reference child before its move)
        for _ in range(m):
            p, q = (int(x) for x in gen.integers(2 * m, size=2))
            kind = int(gen.integers(5))
            if kind == 0 and p != q:  # an OX pair
                lo, hi = ox_window()
                rows.append(((p, q, lo, hi, *move(), 1, anywhere()),
                             reference_ox(genomes[p], genomes[q], lo, hi)))
                rows.append(((q, p, lo, hi, *move(), 1, anywhere()),
                             reference_ox(genomes[q], genomes[p], lo, hi)))
            elif kind in (1, 2):  # dOX, against a random mate or against the twin
                q = (p + m) % (2 * m) if kind == 2 else q
                d_k, entry = int(gen.integers(1, n + 1)), float(gen.uniform(0.1, 1.0))
                w = 0.05 if gen.random() < 0.2 else float(gen.uniform(0.1, 1.0))
                length, drawn = window_length(w, entry, d_k, n), []
                logged = SimpleNamespace(  # rng, keeping each draw
                    integers=lambda k: drawn.append(int(rng.integers(k))) or drawn[-1])
                dynamic_ox(genomes[p], genomes[q], entry, w, d_k, logged)  # a swap draws twice
                start, s = drawn[0], drawn[1] if len(drawn) == 2 else anywhere()
                child = reference_dynamic_ox(genomes[p], genomes[q], entry, w, d_k, ref_rng)
                rows.append(((p, q, start, start + length, *move(), 0, s), child))
            elif kind == 3:  # a 2-opt-only child, as MFEA and the no-mate fallback draw it
                rows.append(((p, p, 0, 0, *move(optional=False), 0, anywhere()), genomes[p]))
            else:  # an empty window anywhere, with any donor
                lo = int(gen.integers(n + 1))
                rows.append(((p, q, lo, lo, *move(), 0, anywhere()), genomes[p]))
        rows = [rows[k] for k in gen.permutation(len(rows))]
        children = build_children(genomes, [record for record, _ in rows])
        assert children.shape == (len(rows), n)
        for child, ((*_, i, j, _, _), reference) in zip(children, rows):
            expected = reverse(np.array(reference), i, j) if i < j else np.array(reference)
            assert np.array_equal(child, expected)
        assert np.array_equal(genomes, before)
        assert rng.random() == ref_rng.random()
