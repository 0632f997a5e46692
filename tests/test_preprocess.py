import numpy as np
import pytest

from hloblab.errors import InsufficientHistory, MissingClass, SeriesTooShort, ShapeMismatch
from hloblab.lob import LobSeries, StockMeta, mid_price_series, synthesize_lob
from hloblab.preprocess import (
    STD_FLOOR,
    UNLABELED,
    DayWindows,
    LabeledWindow,
    balanced_sample,
    build_windows,
    compute_norm_stats,
    join_windows,
    label_series,
    label_to_class,
    normalize_day,
    sequential_batches,
)
from reference_ops import norm_stats

META = StockMeta(ticker="TEST")
THETA = META.tick_units


def synth_days(n, regime="sparse", base_seed=0):
    return [synthesize_lob(seed=base_seed + i, n_events=50, regime=regime,
                           meta=META, day=f"1970-01-{i + 1:02d}")
            for i in range(n)]


class TestClassMapping:
    def test_round_trip(self):
        labels = np.array([1, -1, 0, 0, 1])
        np.testing.assert_array_equal(np.array([-1, 0, 1])[label_to_class(labels)], labels)
        assert [label_to_class(l) for l in (-1, 0, 1)] == [0, 1, 2]


class TestNormStats:
    def test_requires_five_days(self):
        with pytest.raises(InsufficientHistory):
            compute_norm_stats(synth_days(4))
        with pytest.raises(InsufficientHistory):
            compute_norm_stats(synth_days(6))

    def test_constant_feature_floored(self):
        days = synth_days(5)
        for d in days:
            d.book[:, 1] = 42  # pin one volume column
        stats = compute_norm_stats(days)
        assert stats.mean[1] == 42.0
        assert stats.std[1] == STD_FLOOR

    def test_pm_one_feature(self):
        days = synth_days(5)
        for d in days:
            d.book[0::2, 1] = 1
            d.book[1::2, 1] = -1
        stats = compute_norm_stats(days)
        assert stats.mean[1] == 0.0
        assert stats.std[1] == 1.0

    def test_matches_two_pass_oracle(self):
        days = synth_days(5)
        stats = compute_norm_stats(days)
        stacked = np.concatenate([d.book for d in days]).astype(np.float64)
        mean = stacked.sum(axis=0) / len(stacked)
        var = ((stacked - mean) ** 2).sum(axis=0) / len(stacked)
        np.testing.assert_allclose(stats.mean, mean, atol=1e-10)
        np.testing.assert_allclose(stats.std, np.sqrt(var), atol=1e-10)

    def test_provenance_recorded(self):
        days = synth_days(5)
        stats = compute_norm_stats(days)
        assert stats.source_days == tuple(d.day for d in days)


class TestNormStatsStreamed:
    """The streamed stats equal the stacked oracle's bytes."""

    @staticmethod
    def _days(rng, lengths, low, high):
        return [LobSeries(meta=META, day=f"1970-01-{i + 1:02d}",
                          book=rng.integers(low, high, size=(n, 40), dtype=np.int64))
                for i, n in enumerate(lengths)]

    @staticmethod
    def _assert_bytes_equal(days):
        got, want = compute_norm_stats(days), norm_stats(days)
        assert got.mean.tobytes() == want.mean.tobytes()
        assert got.std.tobytes() == want.std.tobytes()
        assert got.source_days == want.source_days

    @pytest.mark.parametrize("seed", range(20))
    def test_uneven_books(self, seed):
        rng = np.random.default_rng(seed)
        lengths = rng.integers(1, 400, size=5)
        lengths[seed % 5] = 1   # a one-row day, in every position
        self._assert_bytes_equal(self._days(rng, lengths, -10**6, 10**6))

    @pytest.mark.parametrize("seed", range(10))
    def test_sums_beyond_2_53(self, seed):
        # column sums, and sums of squared deviations, past float64's exact
        # integers, so the order of the additions shows in the low bits
        rng = np.random.default_rng(100 + seed)
        days = self._days(rng, rng.integers(1, 300, size=5), -2**60, 2**60)
        assert np.abs(np.concatenate([d.book for d in days]).astype(float)
                      .sum(axis=0)).max() > 2.0**53
        self._assert_bytes_equal(days)

    def test_all_one_row_days(self):
        self._assert_bytes_equal(self._days(np.random.default_rng(7), [1] * 5, -5, 5))

    def test_negative_and_constant_columns(self):
        days = self._days(np.random.default_rng(8), [3, 1, 50, 7, 2], -10**9, 0)
        for d in days:
            d.book[:, 5] = -3   # floored std
        self._assert_bytes_equal(days)

    def test_synthetic_days(self):
        self._assert_bytes_equal(synth_days(5, base_seed=11))


class TestNormalizeDay:
    def test_raw_equals_mean_gives_zero(self):
        days = synth_days(5)
        stats = compute_norm_stats(days)
        target = synthesize_lob(seed=50, n_events=50, regime="sparse", meta=META, day="1970-01-06")
        target.book[:] = np.round(stats.mean).astype(np.int64)
        stats2 = type(stats)(mean=target.book[0].astype(np.float64),
                             std=np.ones(40), source_days=stats.source_days)
        np.testing.assert_array_equal(normalize_day(target, stats2), 0.0)

    def test_raw_equals_mean_plus_std_gives_one(self):
        days = synth_days(5)
        stats = compute_norm_stats(days)
        target = synthesize_lob(seed=50, n_events=50, regime="sparse", meta=META, day="1970-01-06")
        target.book[:] = 7
        stats2 = type(stats)(mean=np.full(40, 3.0), std=np.full(40, 4.0),
                             source_days=stats.source_days)
        np.testing.assert_array_equal(normalize_day(target, stats2), 1.0)

    def test_matches_oracle(self):
        days = synth_days(5)
        stats = compute_norm_stats(days)
        target = synthesize_lob(seed=50, n_events=50, regime="sparse", meta=META, day="1970-01-06")
        out = normalize_day(target, stats)
        oracle = (target.book.astype(np.float64) - stats.mean) / stats.std
        np.testing.assert_allclose(out, oracle, atol=1e-10)

    def test_leakage_guard(self):
        days = synth_days(5)
        stats = compute_norm_stats(days)
        with pytest.raises(ValueError, match="leakage"):
            normalize_day(days[2], stats)


class TestLabelSeries:
    def test_up_one_tick(self):
        # mid 100.00 -> 100.02 with theta = 0.01: change >= +theta
        mids_x2 = np.array([2 * 1000000, 2 * 1000200, 2 * 1000200])
        labels = label_series(mids_x2, horizon=1, tick_units=THETA)
        assert labels[0] == 1

    def test_boundary_exactly_theta_is_up(self):
        mids_x2 = np.array([2000000, 2000000 + 2 * THETA])
        assert label_series(mids_x2, 1, THETA)[0] == 1

    def test_boundary_exactly_minus_theta_is_down(self):
        mids_x2 = np.array([2000000, 2000000 - 2 * THETA])
        assert label_series(mids_x2, 1, THETA)[0] == -1

    def test_half_tick_inside_band_is_stable(self):
        # a half-tick move: delta_x2 = theta < 2 theta
        mids_x2 = np.array([2000000, 2000000 + THETA])
        assert label_series(mids_x2, 1, THETA)[0] == 0

    def test_no_change_is_stable(self):
        mids_x2 = np.array([2000000, 2000000])
        assert label_series(mids_x2, 1, THETA)[0] == 0

    def test_tail_unlabeled(self):
        mids_x2 = 2000000 + np.zeros(10, np.int64)
        labels = label_series(mids_x2, 3, THETA)
        assert np.all(labels[:7] == 0)
        assert np.all(labels[7:] == UNLABELED)

    def test_too_short(self):
        with pytest.raises(SeriesTooShort):
            label_series(np.zeros(5, np.int64), 5, THETA)

    def test_anti_symmetry_random_paths(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            steps = rng.integers(-300, 301, 30)
            mids_x2 = 2000000 + 2 * np.cumsum(steps)
            horizon = int(rng.integers(1, 10))
            fwd = label_series(mids_x2, horizon, THETA)
            # reflect the path around its start: deltas flip sign
            rev = label_series(2 * 2000000 - mids_x2, horizon, THETA)
            mask = fwd != UNLABELED
            np.testing.assert_array_equal(rev[mask], -fwd[mask])
            np.testing.assert_array_equal(rev[~mask], UNLABELED)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(1)
        mids_x2 = 2000000 + 2 * np.cumsum(rng.integers(-150, 151, 40))
        horizon = 4
        labels = label_series(mids_x2, horizon, THETA)
        for t in range(len(mids_x2) - horizon):
            delta = (mids_x2[t + horizon] - mids_x2[t]) / 2
            if delta >= THETA:
                expect = 1
            elif delta <= -THETA:
                expect = -1
            else:
                expect = 0
            assert labels[t] == expect


class TestBuildWindows:
    def test_exactly_one_window(self):
        normalized = np.zeros((100, 40))
        labels = np.zeros(100, np.int64)
        windows = build_windows(normalized, labels, "d")
        assert len(windows) == 1
        assert windows[0].origin == 99

    def test_99_rows_zero_windows(self):
        assert len(build_windows(np.zeros((99, 40)), np.zeros(99, np.int64), "d")) == 0

    def test_150_rows_51_windows(self):
        windows = build_windows(np.zeros((150, 40)), np.zeros(150, np.int64), "d")
        assert len(windows) == 51
        assert [w.origin for w in windows] == list(range(99, 150))

    def test_unlabeled_dropped(self):
        labels = np.zeros(150, np.int64)
        labels[140:] = UNLABELED
        windows = build_windows(np.zeros((150, 40)), labels, "d")
        assert [w.origin for w in windows] == list(range(99, 140))

    def test_window_contents_and_label_alignment(self):
        normalized = np.arange(150 * 40, dtype=np.float64).reshape(150, 40)
        labels = np.tile([-1, 0, 1], 50).astype(np.int64)
        windows = build_windows(normalized, labels, day="d")
        for w in windows:
            np.testing.assert_array_equal(
                w.features, normalized[w.origin - 99: w.origin + 1])
            assert w.label == labels[w.origin]


def reference_windows(normalized, labels, day, window_len=100):
    """The per-window loop ``build_windows`` replaced: one object per labelled row."""
    return [LabeledWindow(features=normalized[end - window_len + 1:end + 1],
                          label=int(labels[end]), day=day, origin=end)
            for end in range(window_len - 1, len(labels)) if labels[end] != UNLABELED]


def assert_same_windows(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.label, g.day, g.origin) == (w.label, w.day, w.origin)
        assert type(g.label) is int and type(g.origin) is int
        np.testing.assert_array_equal(g.features, w.features)
        assert np.shares_memory(g.features, w.features)


class TestDayWindows:
    @staticmethod
    def day(n, unlabeled):
        rng = np.random.default_rng(n)
        normalized = rng.standard_normal((n, 40))
        labels = rng.integers(-1, 2, n)
        labels[unlabeled] = UNLABELED
        return normalized, labels

    @pytest.mark.parametrize("unlabeled", [
        slice(140, None),              # the horizon tail
        np.r_[110:117, 130, 149],      # a gap in the middle, and the last row
        slice(0, 0),                   # every row labelled
    ])
    def test_views_match_the_per_window_loop(self, unlabeled):
        normalized, labels = self.day(150, unlabeled)
        got = build_windows(normalized, labels, "d", 100)
        assert got.ends.dtype == got.labels.dtype == np.int64
        assert_same_windows(list(got), reference_windows(normalized, labels, "d"))
        assert_same_windows([got[i] for i in range(-len(got), 0)],
                            reference_windows(normalized, labels, "d"))

    def test_index_out_of_range(self):
        windows = build_windows(np.zeros((5, 40)), np.zeros(5, np.int64), "d", 3)
        with pytest.raises(IndexError):
            windows[3]

    def test_batch_gather_stacks_the_views(self):
        normalized, labels = self.day(60, np.r_[20:25, 55:60])
        windows = build_windows(normalized, labels, "d", 7)
        idx = np.random.default_rng(1).permutation(len(windows))[:13]
        np.testing.assert_array_equal(windows.features(idx),
                                      np.stack([windows[i].features for i in idx]))

    def test_join_lays_days_end_to_end(self):
        a = build_windows(*self.day(30, slice(27, None)), "d1", 7)
        b = build_windows(*self.day(20, np.r_[9, 18:20]), "d2", 7)
        joined = join_windows([a, b])
        assert len(joined) == len(a) + len(b)
        idx = np.arange(len(joined))
        np.testing.assert_array_equal(
            joined.features(idx),
            np.stack([w.features for w in list(a) + list(b)]))
        np.testing.assert_array_equal(joined.labels, np.r_[a.labels, b.labels])
        assert join_windows([a]) is a

    def test_join_keeps_each_day_through_its_last_window_end(self):
        # horizon tails of 3 rows; d2 is shorter than a window and d4 has
        # only unlabelled rows past its first window's end
        a = build_windows(*self.day(30, slice(27, None)), "d1", 7)
        empty = build_windows(*self.day(5, slice(2, None)), "d2", 7)
        b = build_windows(*self.day(20, np.r_[9, 17:20]), "d3", 7)
        none = build_windows(*self.day(12, slice(4, None)), "d4", 7)
        assert (len(empty), len(none)) == (0, 0)
        joined = join_windows([a, empty, b, none])
        np.testing.assert_array_equal(joined.rows, np.concatenate([a.rows[:27], b.rows[:17]]))
        np.testing.assert_array_equal(joined.ends, np.r_[a.ends, 27 + b.ends])
        np.testing.assert_array_equal(joined.labels, np.r_[a.labels, b.labels])

    def test_join_records_each_days_window_count(self):
        # a day's own set, built or constructed, is one day of all its
        # windows; a join names its days in order with their counts, 0 too
        a = build_windows(*self.day(30, slice(27, None)), "d1", 7)
        empty = build_windows(*self.day(5, slice(2, None)), "d2", 7)
        b = DayWindows("d3", np.zeros((9, 40)), np.array([6, 8]), np.array([1, -1]), 7)
        assert (a.day_sizes, empty.day_sizes, b.day_sizes) == ((21,), (0,), (2,))
        joined = join_windows([a, empty, b])
        assert (joined.day, joined.day_sizes) == ("d1,d2,d3", (21, 0, 2))
        twice = join_windows([joined, a])
        assert (twice.day, twice.day_sizes) == ("d1,d2,d3,d1", (21, 0, 2, 21))

    @pytest.mark.parametrize("shape", [(8, 40), (7, 39)])
    def test_join_of_different_shapes_rejected(self, shape):
        window_len, width = shape
        a = build_windows(np.zeros((20, 40)), np.zeros(20, np.int64), "d1", 7)
        b = build_windows(np.zeros((20, width)), np.zeros(20, np.int64), "d2", window_len)
        with pytest.raises(ShapeMismatch):
            join_windows([a, b])


class TestBalancedSample:
    @staticmethod
    def pool(counts):
        return np.repeat(np.array([-1, 0, 1]), counts)

    def test_per_class_counts_with_cap(self):
        pool = self.pool((7000, 6000, 5500))
        idx = balanced_sample(pool, cap=5000, rng_seed=0)
        assert len(idx) == 15000
        chosen_labels = pool[idx].tolist()
        for lab in (-1, 0, 1):
            assert chosen_labels.count(lab) == 5000
        assert len(set(idx.tolist())) == len(idx)  # without replacement

    def test_least_class_bounds(self):
        pool = self.pool((100, 200, 300))
        idx = balanced_sample(pool, cap=5000, rng_seed=0)
        chosen_labels = pool[idx].tolist()
        for lab in (-1, 0, 1):
            assert chosen_labels.count(lab) == 100

    def test_deterministic(self):
        pool = self.pool((50, 60, 70))
        np.testing.assert_array_equal(balanced_sample(pool, 30, rng_seed=7),
                                      balanced_sample(pool, 30, rng_seed=7))

    def test_missing_class(self):
        pool = self.pool((10, 0, 10))
        with pytest.raises(MissingClass) as err:
            balanced_sample(pool, 5, rng_seed=0)
        assert err.value.class_label == 0

    def test_empty_pool(self):
        with pytest.raises(MissingClass):
            balanced_sample(np.array([], np.int64), 5, rng_seed=0)


class TestSequentialBatches:
    def test_65_items(self):
        batches = list(sequential_batches(list(range(65)), 32))
        assert [len(b) for b in batches] == [32, 32, 1]
        assert [x for b in batches for x in b] == list(range(65))

    def test_empty(self):
        assert list(sequential_batches([], 32)) == []

    def test_exact_single_batch(self):
        batches = list(sequential_batches(list(range(32)), 32))
        assert batches == [list(range(32))]
