"""The eval path over overlapping windows against the per-window forward.

``evaluate`` and ``validation_loss`` read each window from the days' joined
rows and compute the heads once per row of a chunk's slice
(``HlobModel.head_sequences``); the tests here check them against
``HlobModel.forward(train=False)`` on the same windows and batches, and the
blocked heads on the head pool against one block run serially.
"""

import sys
import threading

import numpy as np
import pytest

from hloblab import engine
from hloblab import model as model_mod
from hloblab import train as train_mod
from hloblab.engine import Tensor, softmax_cross_entropy
from hloblab.errors import ShapeMismatch
from hloblab.infonet import assemble_head_inputs, build_tmfg, extract_simplices
from hloblab.model import HlobConfig, HlobModel
from hloblab.preprocess import UNLABELED, DayWindows, build_windows, label_to_class
from hloblab.train import evaluate, validation_loss


def complex20():
    w = np.random.default_rng(0).random((20, 20))
    w = (w + w.T) / 2
    np.fill_diagonal(w, 0.0)
    return extract_simplices(build_tmfg(w))


COMPLEX = complex20()
SMALL = dict(channels=4, head_widths=(136, 312, 216), lstm_hidden=4)


def day_windows(rng, day, n, t_len):
    """n consecutive windows of one random day, as ``build_windows`` makes them."""
    rows = rng.standard_normal((n + t_len - 1, 40))
    labels = np.array([rng.integers(-1, 2) for _ in range(n)], np.int64)
    return DayWindows(day, rows, np.arange(t_len - 1, n + t_len - 1), labels, t_len)


def subset(windows, keep):
    """The windows ``keep`` of a day, over the same rows."""
    return DayWindows(windows.day, windows.rows, windows.ends[keep],
                      windows.labels[keep], windows.window_len)


def views(days):
    return [w for d in days for w in d]


# The layout before window ends were kept: runs were found by comparing the
# rows of neighbouring windows. Kept here as the reference for the layout
# that eval takes from the joined rows of days that build_windows makes.
def reference_origins(windows):
    shape = windows[0].features.shape
    if any(w.features.shape != shape for w in windows):
        raise ShapeMismatch("windows differ in shape")
    steps = [1 if np.array_equal(prev.features[1:], cur.features[:-1]) else shape[0]
             for prev, cur in zip(windows, windows[1:])]
    return np.concatenate([[0], np.cumsum(steps, dtype=np.int64)])


def reference_rows(windows, origins):
    t_len, width = windows[0].features.shape
    starts = origins - origins[0]
    rows = np.empty((starts[-1] + t_len, width), windows[0].features.dtype)
    for w, start in zip(windows, starts):
        rows[start:start + t_len] = w.features
    return rows


class LayoutProbe:
    """Stands in for the model and records what each eval chunk hands the heads."""

    def __init__(self):
        self.calls = []

    def head_sequences(self, row_inputs, origins, t_len):
        self.calls.append((row_inputs, origins))
        return np.zeros((len(origins), t_len, 96))

    def classify(self, seq):
        return np.zeros((len(seq), 3))


def layout(days):
    """The head inputs and window origins eval lays out for ``days`` in one chunk."""
    probe = LayoutProbe()
    list(train_mod._eval_batches(probe, days, COMPLEX, 10**6))
    [(row_inputs, origins)] = probe.calls
    return row_inputs, origins


def assert_reference_layout(days):
    windows = views(days)
    row_inputs, origins = layout(days)
    want = reference_origins(windows)
    np.testing.assert_array_equal(origins, want)
    for got, ref in zip(row_inputs, assemble_head_inputs(reference_rows(windows, want),
                                                         COMPLEX)):
        np.testing.assert_array_equal(got, ref)
    return origins


def assert_window_rows(days):
    """Each window's head inputs are the laid-out rows from its origin on;
    returns the origins."""
    windows = views(days)
    row_inputs, origins = layout(days)
    index = origins[:, None] + np.arange(windows[0].features.shape[0])
    feats = np.stack([w.features for w in windows])
    for got, want in zip(row_inputs, assemble_head_inputs(feats, COMPLEX)):
        np.testing.assert_array_equal(got[index], want)
    return origins


def reference_logits(model, windows, batch_size):
    """Per-window forward, batch by batch in list order."""
    out = []
    for lo in range(0, len(windows), batch_size):
        feats = np.stack([w.features for w in windows[lo:lo + batch_size]])
        out.append(model.forward(assemble_head_inputs(feats, COMPLEX)).data)
    return np.concatenate(out)


def run_logits(model, days, batch_size):
    windows = views(days)
    batches = list(train_mod._eval_batches(model, days, COMPLEX, batch_size))
    assert [len(b) for b, _ in batches] == \
        [len(windows[lo:lo + batch_size]) for lo in range(0, len(windows), batch_size)]
    for lo, (labels, _) in zip(range(0, len(windows), batch_size), batches):
        assert labels.tolist() == [w.label for w in windows[lo:lo + batch_size]]
    return np.concatenate([logits for _, logits in batches])


def check_logits(model, days, batch_size, tol=1e-12):
    got = run_logits(model, days, batch_size)
    want = reference_logits(model, views(days), batch_size)
    assert got.dtype == want.dtype
    assert max_rel(got, want) < tol


def max_rel(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


class TestWindowRows:
    def test_one_day_is_one_run(self):
        days = [day_windows(np.random.default_rng(1), "d1", 7, 5)]
        origins = assert_reference_layout(days)
        np.testing.assert_array_equal(origins, np.arange(7))
        assert len(layout(days)[0][0]) == 11

    def test_runs_break_at_a_gap_and_a_new_day(self):
        # windows of a day read its rows wherever they are, across a gap;
        # the next day's rows follow the day's last window end
        rng = np.random.default_rng(2)
        a = day_windows(rng, "d1", 6, 5)
        b = day_windows(rng, "d2", 4, 5)
        days = [subset(a, np.r_[0:3, 4:6]), b]   # a[3] skipped: a[4] shares rows with a[2]
        origins = assert_window_rows(days)
        np.testing.assert_array_equal(origins, [0, 1, 2, 4, 5, 10, 11, 12, 13])
        assert len(layout(days)[0][0]) == 10 + 8

    def test_runs_of_one(self):
        rng = np.random.default_rng(3)
        one_day = subset(day_windows(rng, "d1", 9, 4), np.r_[0, 2, 4, 8])
        days = [one_day] + [day_windows(rng, f"s{i}", 1, 4) for i in range(3)]
        origins = assert_window_rows(days)
        np.testing.assert_array_equal(origins, [0, 2, 4, 8, 12, 16, 20])

    def test_a_new_day_starts_a_run_even_when_its_rows_repeat(self):
        # the second day's window has the rows of the first day's window
        # shifted by one, which comparing rows took for a continued run
        a = day_windows(np.random.default_rng(3), "d1", 2, 4)
        days = [subset(a, [0]), DayWindows("d2", a.rows[1:], np.array([3]), a.labels[1:], 4)]
        assert reference_origins(views(days)).tolist() == [0, 1]
        np.testing.assert_array_equal(layout(days)[1], [0, 4])
        model = HlobModel(HlobConfig(window_len=4, **SMALL), seed=1, dtype=np.float64)
        check_logits(model, days, 2)

    def test_built_days_with_horizon_tails_and_an_empty_day(self):
        # each day's unlabelled tail rows are left out of the joined rows,
        # and a day shorter than a window adds none, so the windows of
        # build_windows lie as the runs of shared rows did
        rng = np.random.default_rng(16)
        t_len, horizon = 5, 3

        def built(day, n_rows):
            labels = rng.integers(-1, 2, n_rows)
            labels[n_rows - horizon:] = UNLABELED
            return build_windows(rng.standard_normal((n_rows, 40)), labels, day, t_len)

        days = [built("d1", 12), built("d2", 4), built("d3", 9), built("d4", 7)]
        assert [len(d) for d in days] == [5, 0, 2, 0]
        origins = assert_reference_layout(days)
        np.testing.assert_array_equal(origins, [0, 1, 2, 3, 4, 9, 10])
        assert len(layout(days)[0][0]) == 9 + 6
        model = HlobModel(HlobConfig(window_len=t_len, **SMALL), seed=2, dtype=np.float64)
        check_logits(model, days, 3)

    def test_windows_of_different_length_rejected(self):
        rng = np.random.default_rng(4)
        days = [day_windows(rng, "d1", 2, 5), day_windows(rng, "d2", 2, 6)]
        with pytest.raises(ShapeMismatch):
            layout(days)
        with pytest.raises(ShapeMismatch):
            evaluate(HlobModel(HlobConfig(window_len=5, **SMALL), seed=0), days, COMPLEX)


class TestRunLogits:
    @pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-6)])
    def test_full_model_matches_forward(self, dtype, tol):
        rng = np.random.default_rng(5)
        model = HlobModel(HlobConfig(), seed=1, dtype=dtype)
        check_logits(model, [day_windows(rng, "d1", 45, 100)], 16, tol)

    @pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-6)])
    @pytest.mark.parametrize("batch_size", [7, 33])
    def test_batch_wide_lstm_with_batches_that_do_not_divide_a_chunk(
            self, monkeypatch, dtype, tol, batch_size):
        # chunks of at most 40 windows: 35 or 33 in whole batches, and the
        # last chunk ends in a short batch
        monkeypatch.setattr(train_mod, "EVAL_WINDOWS", 40)
        rng = np.random.default_rng(12)
        model = HlobModel(HlobConfig(window_len=30), seed=6, dtype=dtype)
        for q in model.lstm.parameters():   # trained LSTMs have non-zero biases
            q.data = q.data + dtype(0.3) * rng.standard_normal(q.data.shape).astype(dtype)
        check_logits(model, [day_windows(rng, "d1", 100, 30)], batch_size, tol)

    def test_head_sequences_match_forward_heads(self):
        rng = np.random.default_rng(6)
        model = HlobModel(HlobConfig(window_len=20), seed=2, dtype=np.float64)
        windows = day_windows(rng, "d1", 9, 20)
        seq = model.head_sequences(assemble_head_inputs(windows.rows, COMPLEX),
                                   windows.ends - 19, 20)
        feats = windows.features(np.arange(9))
        heads = []
        for head, arr in zip(model.heads, assemble_head_inputs(feats, COMPLEX)):
            heads.append(head.forward(Tensor(arr), model.config, False,
                                      None).data)
        want = np.concatenate(heads, axis=2)
        assert seq.shape == (9, 20, 96)
        assert max_rel(seq, want) < 1e-12

    def test_float32_head_sequences_equal_forward_bit_for_bit(self):
        # the default model (T = 100): a run of 41 windows, a run broken by
        # a gap and by a new day, and runs of one
        rng = np.random.default_rng(14)
        model = HlobModel(HlobConfig(), seed=10)
        a = day_windows(rng, "d1", 8, 100)
        days = [day_windows(rng, "d0", 41, 100), subset(a, np.r_[0:3, 5:8]),
                day_windows(rng, "d2", 2, 100)]
        days += [day_windows(rng, f"s{i}", 1, 100) for i in range(3)]
        row_inputs, origins = layout(days)
        assert np.count_nonzero(np.diff(origins) != 1) == 6
        seq = model.head_sequences(row_inputs, origins, 100)
        feats = np.stack([w.features for w in views(days)])
        for head, arr, part in zip(model.heads, assemble_head_inputs(feats, COMPLEX),
                                   np.split(seq, 3, axis=2)):
            want = head.forward(Tensor(arr.astype(np.float32)),
                                model.config, False, None).data
            assert part.dtype == want.dtype == np.float32
            for got_window, want_window in zip(part, want):
                np.testing.assert_array_equal(got_window, want_window)

    @pytest.mark.parametrize("n", [1, 2, 5, 8, 9])
    def test_float32_head_sequences_of_small_chunks_equal_forward(self, n):
        # the default model on one run of n windows, as eval's last chunk
        # of a day holds (eval-scan ends in 9); a GEMM over a few dozen
        # rows of width 1,728 rounds unlike a taller one, so edge rows must
        # come from the products of the whole row table
        rng = np.random.default_rng(20 + n)
        model = HlobModel(HlobConfig(), seed=10)
        windows = day_windows(rng, "d1", n, 100)
        seq = model.head_sequences(assemble_head_inputs(windows.rows, COMPLEX),
                                   windows.ends - 99, 100)
        feats = windows.features(np.arange(n))
        for head, arr, part in zip(model.heads, assemble_head_inputs(feats, COMPLEX),
                                   np.split(seq, 3, axis=2)):
            want = head.forward(Tensor(arr.astype(np.float32)),
                                model.config, False, None).data
            assert part.dtype == want.dtype == np.float32
            np.testing.assert_array_equal(part, want)

    def test_time_convolutions_run_only_over_shared_rows(self, monkeypatch):
        # every head layer runs tape-free over one row table, and the edge
        # rows come from the table's per-tap products: no taped convolution
        # and no Tensor
        model = HlobModel(HlobConfig(window_len=30, **SMALL), seed=5, dtype=np.float64)
        windows = day_windows(np.random.default_rng(15), "d1", 6, 30)
        pads, tensors = [], []
        conv_windows = engine.conv_leaky_windows
        tensor_init = Tensor.__init__

        def recorder(rows, shared, index, weight, bias, slope, time_pad):
            pads.append(tuple(time_pad))
            return conv_windows(rows, shared, index, weight, bias, slope, time_pad)

        def taped(*args, **kwargs):
            raise AssertionError("conv_leaky_cl called in eval")

        def counted_init(tensor, *args, **kwargs):
            tensors.append(tensor)
            tensor_init(tensor, *args, **kwargs)

        monkeypatch.setattr(engine, "conv_leaky_windows", recorder)
        monkeypatch.setattr(engine, "conv_leaky_cl", taped)
        monkeypatch.setattr(Tensor, "__init__", counted_init)
        model.head_sequences(assemble_head_inputs(windows.rows, COMPLEX),
                             windows.ends - 29, 30)
        assert pads == [(0, 0), (0, 0), (1, 2), (1, 2), (0, 0)] * 3
        assert tensors == []

    def test_broken_runs(self):
        # a run broken by a window that does not overlap its neighbour and by
        # a change of day; batches of 4 straddle both breaks
        rng = np.random.default_rng(7)
        model = HlobModel(HlobConfig(window_len=30, **SMALL), seed=3, dtype=np.float64)
        a = day_windows(rng, "d1", 12, 30)
        stray = day_windows(rng, "d9", 1, 30)
        b = day_windows(rng, "d2", 9, 30)
        days = [subset(a, slice(0, 5)), stray, subset(a, slice(5, None)), b]
        np.testing.assert_array_equal(
            assert_window_rows(days),
            [0, 1, 2, 3, 4, 34] + list(range(69, 76)) + list(range(105, 114)))
        check_logits(model, days, 4)

    def test_runs_of_one(self):
        # no two windows overlap: every window is its own run
        rng = np.random.default_rng(8)
        model = HlobModel(HlobConfig(window_len=30, **SMALL), seed=4, dtype=np.float64)
        days = [day_windows(rng, f"d{i}", 1, 30) for i in range(7)]
        np.testing.assert_array_equal(assert_reference_layout(days), 30 * np.arange(7))
        check_logits(model, days, 3)

    @pytest.mark.parametrize("cap, value", [
        ("EVAL_WINDOWS", 8),   # chunks of 2 batches
        ("EVAL_ROWS", 40),     # 3 batches along a run, 1 of separate windows
        ("EVAL_ROWS", 1),      # one batch when even that does not fit
    ])
    def test_chunks_keep_batches_and_values(self, monkeypatch, cap, value):
        # runs restart at each chunk; batches and values do not change
        monkeypatch.setattr(train_mod, cap, value)
        rng = np.random.default_rng(9)
        model = HlobModel(HlobConfig(window_len=30, **SMALL), seed=5, dtype=np.float64)
        days = ([day_windows(rng, "d1", 23, 30)]
                + [day_windows(rng, f"s{i}", 1, 30) for i in range(4)]
                + [day_windows(rng, "d2", 5, 30)])
        check_logits(model, days, 3)

    def test_chunk_sizes(self, monkeypatch):
        calls = []
        model = HlobModel(HlobConfig(window_len=30, **SMALL), seed=5, dtype=np.float64)
        sequences = model.head_sequences

        def counted(rows, origins, t_len):
            calls.append((len(origins), len(rows[0])))
            return sequences(rows, origins, t_len)

        monkeypatch.setattr(model, "head_sequences", counted)
        monkeypatch.setattr(train_mod, "EVAL_WINDOWS", 8)
        monkeypatch.setattr(train_mod, "EVAL_ROWS", 64)
        rng = np.random.default_rng(10)
        days = ([day_windows(rng, "d1", 23, 30)]
                + [day_windows(rng, f"s{i}", 1, 30) for i in range(4)])
        list(train_mod._eval_batches(model, days, COMPLEX, 3))
        # (windows, distinct rows): 2 batches per chunk along the run, the
        # run's end with the first separate window (64 rows), then one
        # batch of 3 separate windows, as 2 batches would pass 64 rows
        assert calls == [(6, 35), (6, 35), (6, 35), (6, 64), (3, 90)]

    @pytest.mark.parametrize("t_len", [1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
    def test_short_windows_whose_edges_overlap(self, t_len):
        # below 7 rows no row of time2 is free of padding; at 5 the start
        # and end edge rows overlap
        rng = np.random.default_rng(10 + t_len)
        model = HlobModel(HlobConfig(window_len=t_len), seed=6, dtype=np.float64)
        check_logits(model, [day_windows(rng, "d1", 11, t_len)], 4)

    def test_window_len_400(self):
        rng = np.random.default_rng(11)
        model = HlobModel(HlobConfig(window_len=400, **SMALL), seed=7, dtype=np.float64)
        check_logits(model, [day_windows(rng, "d1", 6, 400)], 4)


def blocked_days(rng):
    """A run of 7 windows, a run of 4 that starts at a change of day, and a
    window that shares no rows with any other: 12 windows of 100 rows."""
    return [day_windows(rng, "d0", 7, 100), day_windows(rng, "d1", 4, 100),
            day_windows(rng, "s0", 1, 100)]


class TestHeadBlocks:
    @staticmethod
    def unblocked(monkeypatch, model, row_inputs, origins):
        monkeypatch.setattr(model_mod, "EVAL_BLOCK", len(origins))
        return model.head_sequences(row_inputs, origins, 100)

    def test_float32_sequences_equal_the_unblocked_for_every_block_size(self, monkeypatch):
        monkeypatch.setattr(engine, "HEAD_WORKERS", 1)
        model = HlobModel(HlobConfig(), seed=11)
        row_inputs, origins = layout(blocked_days(np.random.default_rng(40)))
        assert np.flatnonzero(np.diff(origins) != 1).tolist() == [6, 10]
        want = self.unblocked(monkeypatch, model, row_inputs, origins)
        assert want.dtype == np.float32 and want.shape == (12, 100, 96)
        # caps of 1 to 11 windows: 12, 6, 4, 3, 3, 2, ... blocks
        for block in range(1, len(origins)):
            monkeypatch.setattr(model_mod, "EVAL_BLOCK", block)
            np.testing.assert_array_equal(
                model.head_sequences(row_inputs, origins, 100), want, err_msg=str(block))

    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    def test_any_pool_size_gives_the_same_bits(self, monkeypatch, head_pool, workers):
        model = HlobModel(HlobConfig(), seed=12)
        row_inputs, origins = layout(blocked_days(np.random.default_rng(41)))
        want = self.unblocked(monkeypatch, model, row_inputs, origins)
        assert head_pool.blocks == 0
        monkeypatch.setattr(engine, "HEAD_WORKERS", workers)
        interval = sys.getswitchinterval()
        # switch threads often, so that blocks interleave as much as they can
        sys.setswitchinterval(1e-5)
        try:
            for block in (6, 5, 4):
                monkeypatch.setattr(model_mod, "EVAL_BLOCK", block)
                before = head_pool.blocks
                np.testing.assert_array_equal(
                    model.head_sequences(row_inputs, origins, 100), want)
                # the caller runs the first group of blocks, the pool the others
                assert head_pool.blocks - before == workers - 1
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("workers, sizes", [
        (1, [104, 104, 104, 104, 105]),
        (2, [86, 87, 87, 87, 87, 87]),
        (3, [86, 87, 87, 87, 87, 87]),
        (4, [65] * 7 + [66]),
    ])
    def test_blocks_are_capped_and_even_per_thread(self, monkeypatch, workers, sizes):
        # eval-scan's 521 windows in one chunk, the short batch of 9 with them
        monkeypatch.setattr(engine, "HEAD_WORKERS", workers)
        model = HlobModel(HlobConfig(window_len=5, **SMALL), seed=5)
        row_inputs, origins = layout([day_windows(np.random.default_rng(46), "d1", 521, 5)])
        blocks = []
        forward_rows = model_mod._Head.forward_rows

        def recorded(head, rows, at, t_len, slope):
            if head is model.heads[0]:
                blocks.append((len(at), len(rows)))
            return forward_rows(head, rows, at, t_len, slope)

        monkeypatch.setattr(model_mod._Head, "forward_rows", recorded)
        model.head_sequences(row_inputs, origins, 5)
        # each block reads the rows of its own windows and no others
        assert sorted(blocks) == [(size, size + 4) for size in sizes]

    def test_a_chunk_below_the_gate_stays_serial(self, monkeypatch, head_pool):
        monkeypatch.setattr(engine, "HEAD_WORKERS", 4)
        monkeypatch.setattr(model_mod, "EVAL_BLOCK", 2)
        days = [day_windows(np.random.default_rng(42), "d1", 8, 5)]
        model = HlobModel(HlobConfig(window_len=5, **SMALL), seed=5)
        row_inputs, origins = layout(days)
        # 4 blocks of 2 windows: 12 input rows of width 664 and 8 (5, 12)
        # sequences, a few thousand elements a block
        model.head_sequences(row_inputs, origins, 5)
        assert head_pool.blocks == 0
        check_logits(model, days, 3, tol=1e-6)
        assert head_pool.blocks == 0

    def test_a_pool_block_exception_reaches_evaluate(self, monkeypatch, head_pool):
        monkeypatch.setattr(engine, "HEAD_WORKERS", 2)
        monkeypatch.setattr(model_mod, "EVAL_BLOCK", 4)
        forward_rows = model_mod._Head.forward_rows
        caller = threading.current_thread()

        def failing(head, *args):
            if threading.current_thread() is not caller:
                raise FloatingPointError("block on a pool thread")
            return forward_rows(head, *args)

        monkeypatch.setattr(model_mod._Head, "forward_rows", failing)
        model = HlobModel(HlobConfig(), seed=13)
        with pytest.raises(FloatingPointError, match="pool thread"):
            evaluate(model, blocked_days(np.random.default_rng(43)), COMPLEX)
        assert head_pool.blocks == 1


class TestShortLastBatch:
    @staticmethod
    def chunks(monkeypatch, days, batch_size):
        """(windows, distinct rows) of each head call and the height of each
        classify stack of one eval pass, with its logits."""
        model = HlobModel(HlobConfig(window_len=30, **SMALL), seed=5, dtype=np.float64)
        heads, stacks = [], []
        sequences, classify = model.head_sequences, model.classify

        def counted_heads(rows, origins, t_len):
            heads.append((len(origins), len(rows[0])))
            return sequences(rows, origins, t_len)

        def counted_classify(seq):
            stacks.append(len(seq))
            return classify(seq)

        monkeypatch.setattr(model, "head_sequences", counted_heads)
        monkeypatch.setattr(model, "classify", counted_classify)
        logits = run_logits(model, days, batch_size)
        assert max_rel(logits, reference_logits(model, views(days), batch_size)) < 1e-12
        return heads, stacks

    def test_joins_the_chunk_before_when_the_rows_allow(self, monkeypatch):
        monkeypatch.setattr(train_mod, "EVAL_WINDOWS", 8)
        days = [day_windows(np.random.default_rng(44), "d1", 10, 30)]
        heads, stacks = self.chunks(monkeypatch, days, 3)
        # 2 batches, then the third with the short batch of 1 in one head
        # call; classify still runs the third batch and the short one apart
        assert heads == [(6, 35), (4, 33)]
        assert stacks == [6, 3, 1]

    def test_stays_apart_when_the_rows_do_not_allow(self, monkeypatch):
        monkeypatch.setattr(train_mod, "EVAL_WINDOWS", 8)
        monkeypatch.setattr(train_mod, "EVAL_ROWS", 60)
        rng = np.random.default_rng(45)
        days = [day_windows(rng, "d1", 9, 30), day_windows(rng, "d2", 1, 30)]
        heads, stacks = self.chunks(monkeypatch, days, 3)
        # the last window starts a new run: 32 + 30 rows would pass 60
        assert heads == [(6, 35), (3, 32), (1, 30)]
        assert stacks == [6, 3, 1]


class TestEvaluateAndValidation:
    def test_evaluate_predictions(self):
        rng = np.random.default_rng(12)
        model = HlobModel(HlobConfig(window_len=30, **SMALL), seed=8, dtype=np.float64)
        days = [day_windows(rng, "d1", 11, 30), day_windows(rng, "d2", 6, 30)]
        report = evaluate(model, days, COMPLEX, batch_size=5)
        windows = views(days)
        # 17 windows in batches of 5: the last batch is short
        want_preds = reference_logits(model, windows, 5).argmax(axis=1) - 1
        labels = [w.label for w in windows]
        assert report.confusion.sum() == 17
        np.testing.assert_array_equal(
            report.confusion, train_mod.confusion_matrix(labels, want_preds))

    def test_validation_loss_is_the_window_weighted_mean(self):
        rng = np.random.default_rng(13)
        model = HlobModel(HlobConfig(window_len=30, **SMALL), seed=9, dtype=np.float64)
        day = day_windows(rng, "d1", 10, 30)
        windows = views([day])
        logits = reference_logits(model, windows, 4)
        ids = np.array([label_to_class(w.label) for w in windows])
        want = sum(float(softmax_cross_entropy(Tensor(logits[lo:lo + 4]),
                                               ids[lo:lo + 4]).data) * len(ids[lo:lo + 4])
                   for lo in range(0, 10, 4)) / 10
        assert validation_loss(model, [day], COMPLEX, 4) == pytest.approx(want, rel=1e-12)
