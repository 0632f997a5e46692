"""The eval path over runs of overlapping windows against the per-window forward.

``evaluate`` and ``validation_loss`` compute the heads once per distinct row
(``HlobModel.head_sequences``); every test here checks them against
``HlobModel.forward(train=False)`` on the same windows and batches.
"""

import numpy as np
import pytest

from hloblab import train as train_mod
from hloblab.engine import Tensor, softmax_cross_entropy
from hloblab.errors import ShapeMismatch
from hloblab.infonet import assemble_head_inputs, build_tmfg, extract_simplices
from hloblab.model import HlobConfig, HlobModel
from hloblab.preprocess import LabeledWindow, label_to_class, window_origins, window_rows
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
    return [LabeledWindow(features=rows[i:i + t_len], label=int(rng.integers(-1, 2)),
                          day=day, origin=i + t_len - 1)
            for i in range(n)]


def layout(windows):
    origins = window_origins(windows)
    return window_rows(windows, origins), origins


def reference_logits(model, windows, batch_size):
    """Per-window forward, batch by batch in list order."""
    out = []
    for lo in range(0, len(windows), batch_size):
        feats = np.stack([w.features for w in windows[lo:lo + batch_size]])
        out.append(model.forward(assemble_head_inputs(feats, COMPLEX)).data)
    return np.concatenate(out)


def run_logits(model, windows, batch_size):
    batches = list(train_mod._eval_batches(model, windows, COMPLEX, batch_size))
    assert [len(b) for b, _ in batches] == \
        [len(windows[lo:lo + batch_size]) for lo in range(0, len(windows), batch_size)]
    for lo, (batch, _) in zip(range(0, len(windows), batch_size), batches):
        assert batch == windows[lo:lo + batch_size]
    return np.concatenate([logits.data for _, logits in batches])


def max_rel(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


class TestWindowRows:
    def test_one_day_is_one_run(self):
        windows = day_windows(np.random.default_rng(1), "d1", 7, 5)
        rows, origins = layout(windows)
        assert rows.shape == (11, 40)
        np.testing.assert_array_equal(origins, np.arange(7))
        for w, o in zip(windows, origins):
            np.testing.assert_array_equal(rows[o:o + 5], w.features)

    def test_runs_break_at_a_gap_and_a_new_day(self):
        rng = np.random.default_rng(2)
        a = day_windows(rng, "d1", 6, 5)
        b = day_windows(rng, "d2", 4, 5)
        windows = a[:3] + a[4:] + b     # a[3] skipped: a[4] does not overlap a[2]
        rows, origins = layout(windows)
        np.testing.assert_array_equal(origins, [0, 1, 2, 7, 8, 13, 14, 15, 16])
        assert rows.shape == (7 + 6 + 8, 40)
        for w, o in zip(windows, origins):
            np.testing.assert_array_equal(rows[o:o + 5], w.features)

    def test_equal_rows_join_the_run_whatever_the_day(self):
        # runs are found from the data alone: shared rows are shared values
        a = day_windows(np.random.default_rng(3), "d1", 2, 4)
        moved = LabeledWindow(a[1].features, 1, "d2", 3)
        origins = window_origins([a[0], moved])
        np.testing.assert_array_equal(origins, [0, 1])

    def test_windows_of_different_length_rejected(self):
        rng = np.random.default_rng(4)
        with pytest.raises(ShapeMismatch):
            window_origins(day_windows(rng, "d1", 2, 5) + day_windows(rng, "d2", 2, 6))


class TestRunLogits:
    @pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-6)])
    def test_full_model_matches_forward(self, dtype, tol):
        rng = np.random.default_rng(5)
        model = HlobModel(HlobConfig(), seed=1, dtype=dtype)
        windows = day_windows(rng, "d1", 45, 100)
        got = run_logits(model, windows, 16)
        want = reference_logits(model, windows, 16)
        assert got.dtype == want.dtype == dtype
        assert max_rel(got, want) < tol

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
        windows = day_windows(rng, "d1", 100, 30)
        got = run_logits(model, windows, batch_size)
        want = reference_logits(model, windows, batch_size)
        assert got.dtype == want.dtype == dtype
        assert max_rel(got, want) < tol

    def test_head_sequences_match_forward_heads(self):
        rng = np.random.default_rng(6)
        model = HlobModel(HlobConfig(window_len=20), seed=2, dtype=np.float64)
        windows = day_windows(rng, "d1", 9, 20)
        rows, origins = layout(windows)
        seq = model.head_sequences(assemble_head_inputs(rows, COMPLEX), origins, 20)
        feats = np.stack([w.features for w in windows])
        heads = []
        for head, arr in zip(model.heads, assemble_head_inputs(feats, COMPLEX)):
            heads.append(head.forward(Tensor(arr[:, None]), model.config, False,
                                      None).data)
        want = np.concatenate(heads, axis=2)
        assert seq.shape == (9, 20, 96)
        assert max_rel(seq, want) < 1e-12

    def test_broken_runs(self):
        # a run broken by a window that does not overlap its neighbour and by
        # a change of day; batches of 4 straddle both breaks
        rng = np.random.default_rng(7)
        model = HlobModel(HlobConfig(window_len=30, **SMALL), seed=3, dtype=np.float64)
        a = day_windows(rng, "d1", 12, 30)
        stray = day_windows(rng, "d9", 1, 30)
        b = day_windows(rng, "d2", 9, 30)
        windows = a[:5] + stray + a[5:] + b
        np.testing.assert_array_equal(
            window_origins(windows),
            [0, 1, 2, 3, 4, 34] + list(range(64, 71)) + list(range(100, 109)))
        assert max_rel(run_logits(model, windows, 4),
                       reference_logits(model, windows, 4)) < 1e-12

    def test_runs_of_one(self):
        # no two windows overlap: every window is its own run
        rng = np.random.default_rng(8)
        model = HlobModel(HlobConfig(window_len=30, **SMALL), seed=4, dtype=np.float64)
        windows = [day_windows(rng, f"d{i}", 1, 30)[0] for i in range(7)]
        np.testing.assert_array_equal(window_origins(windows), 30 * np.arange(7))
        assert max_rel(run_logits(model, windows, 3),
                       reference_logits(model, windows, 3)) < 1e-12

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
        windows = (day_windows(rng, "d1", 23, 30)
                   + [day_windows(rng, f"s{i}", 1, 30)[0] for i in range(4)]
                   + day_windows(rng, "d2", 5, 30))
        assert max_rel(run_logits(model, windows, 3),
                       reference_logits(model, windows, 3)) < 1e-12

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
        windows = (day_windows(rng, "d1", 23, 30)
                   + [day_windows(rng, f"s{i}", 1, 30)[0] for i in range(4)])
        list(train_mod._eval_batches(model, windows, COMPLEX, 3))
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
        windows = day_windows(rng, "d1", 11, t_len)
        assert max_rel(run_logits(model, windows, 4),
                       reference_logits(model, windows, 4)) < 1e-12

    def test_window_len_400(self):
        rng = np.random.default_rng(11)
        model = HlobModel(HlobConfig(window_len=400, **SMALL), seed=7, dtype=np.float64)
        windows = day_windows(rng, "d1", 6, 400)
        assert max_rel(run_logits(model, windows, 4),
                       reference_logits(model, windows, 4)) < 1e-12


class TestEvaluateAndValidation:
    def test_evaluate_loss_history_and_predictions(self):
        rng = np.random.default_rng(12)
        model = HlobModel(HlobConfig(window_len=30, **SMALL), seed=8, dtype=np.float64)
        windows = day_windows(rng, "d1", 11, 30) + day_windows(rng, "d2", 6, 30)
        report = evaluate(model, windows, COMPLEX, batch_size=5)
        want_losses, want_preds = [], []
        for lo in range(0, len(windows), 5):
            batch = windows[lo:lo + 5]
            logits = reference_logits(model, batch, 5)
            ids = np.array([label_to_class(w.label) for w in batch])
            want_losses.append(float(softmax_cross_entropy(Tensor(logits), ids).data))
            want_preds.extend(logits.argmax(axis=1) - 1)
        # 17 windows in batches of 5: the last batch is short
        assert len(report.loss_history) == 4
        np.testing.assert_allclose(report.loss_history, want_losses, rtol=1e-12)
        labels = [w.label for w in windows]
        assert report.confusion.sum() == 17
        np.testing.assert_array_equal(
            report.confusion, train_mod.confusion_matrix(labels, want_preds))

    def test_validation_loss_is_the_window_weighted_mean(self):
        rng = np.random.default_rng(13)
        model = HlobModel(HlobConfig(window_len=30, **SMALL), seed=9, dtype=np.float64)
        windows = day_windows(rng, "d1", 10, 30)
        logits = reference_logits(model, windows, 4)
        ids = np.array([label_to_class(w.label) for w in windows])
        want = sum(float(softmax_cross_entropy(Tensor(logits[lo:lo + 4]),
                                               ids[lo:lo + 4]).data) * len(ids[lo:lo + 4])
                   for lo in range(0, 10, 4)) / 10
        assert validation_loss(model, windows, COMPLEX, 4) == pytest.approx(want, rel=1e-12)
