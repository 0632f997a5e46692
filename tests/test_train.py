import dataclasses
import inspect
import json
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from test_cli import DAYS, write_config

from hloblab import cli, engine, pipeline, preprocess
from hloblab import train as train_mod
from hloblab.config import RunConfig
from hloblab.errors import EmptyDataset, LengthMismatch, NonFiniteLoss
from hloblab.infonet import SimplicialComplex, build_tmfg, extract_simplices
from hloblab.model import HlobConfig, HlobModel, save_checkpoint
from hloblab.preprocess import DayWindows, join_windows
from hloblab.train import (
    EvalReport,
    TrainConfig,
    _epoch_should_stop,
    confusion_matrix,
    emit_report,
    evaluate,
    f1_macro,
    mcc_multiclass,
    round_trip_stats,
    train,
    validation_loss,
)

TINY_CONFIG = HlobConfig(window_len=10, channels=4, head_widths=(8, 6, 4),
                         arities=(4, 3, 2), cardinalities=(1, 1, 1),
                         lstm_hidden=4)

TINY_COMPLEX = SimplicialComplex(
    tetrahedra=np.array([[0, 1, 2, 3]]),
    triangles=np.array([[0, 1, 2]]),
    edges=np.array([[0, 1]]),
)


def tiny_model(seed=0):
    return HlobModel(TINY_CONFIG, seed=seed, dtype=np.float64)


EMPTY = DayWindows("e1", np.empty((0, 40)), np.empty(0, np.int64),
                   np.empty(0, np.int64), 10)


def make_windows(rng, n, day, label_cycle=(-1, 0, 1), signal=0.0, length=10):
    """n windows that share no rows, laid end to end over the day's rows."""
    labels = np.array([label_cycle[i % len(label_cycle)] for i in range(n)], np.int64)
    rows = [rng.standard_normal((length, 40)) + signal * label for label in labels]
    return DayWindows(day, np.concatenate(rows), length * np.arange(n) + length - 1,
                      labels, length)


class TestEarlyStopper:
    def test_strictly_decreasing_never_fires(self):
        best = []
        loss = 10.0
        for _ in range(100):
            loss -= 0.01
            best.append(loss)
            assert not _epoch_should_stop(best, patience=15, delta=0.003)

    def test_constant_fires_at_16(self):
        best = []
        for epoch in range(1, 30):
            best.append(1.0)
            if _epoch_should_stop(best, patience=15, delta=0.003):
                assert epoch == 16
                break
        else:
            pytest.fail("stopper never fired")

    def test_improvement_exactly_delta_keeps_going(self):
        # improvement of exactly delta over the patience span is enough
        best = [1.0 - 0.0002 * e for e in range(17)]
        assert not _epoch_should_stop(best, patience=15, delta=0.003)

    def test_sub_delta_improvement_fires(self):
        best = [1.0 - 0.0001 * e for e in range(17)]
        assert _epoch_should_stop(best, patience=15, delta=0.003)


class TestTrainLoop:
    def test_constant_val_loss_stops_at_epoch_16(self):
        rng = np.random.default_rng(0)
        train_days = make_windows(rng, 12, "d1")
        val = make_windows(rng, 6, "v1")
        # lr 0 and wd 0 freeze the model, so validation loss is constant
        config = TrainConfig(lr=0.0, weight_decay=0.0, max_epochs=100,
                             balanced_cap=4, seed=1)
        model = tiny_model()
        _, history = train(model, train_days, val, TINY_COMPLEX, config)
        assert history["stopped_epoch"] == 16
        assert len(history["val_loss"]) == 16
        assert len(set(history["val_loss"])) == 1

    def test_best_state_restored(self):
        rng = np.random.default_rng(1)
        train_days = make_windows(rng, 12, "d1")
        val = make_windows(rng, 6, "v1")
        config = TrainConfig(lr=1e-3, max_epochs=3, balanced_cap=4, seed=2)
        model = tiny_model()
        state, history = train(model, train_days, val, TINY_COMPLEX, config)
        best_epoch = int(np.argmin(history["val_loss"]))
        # restored parameters reproduce the best epoch's validation loss
        assert validation_loss(model, val, TINY_COMPLEX, 32) == \
            pytest.approx(history["val_loss"][best_epoch], abs=1e-12)
        for p in model.parameters():
            np.testing.assert_array_equal(p.data, state[p.name][0])

    def test_deterministic_runs(self):
        def run():
            rng = np.random.default_rng(2)
            train_days = make_windows(rng, 12, "d1")
            val = make_windows(rng, 6, "v1")
            config = TrainConfig(lr=1e-3, max_epochs=2, balanced_cap=4, seed=3)
            model = tiny_model()
            train(model, train_days, val, TINY_COMPLEX, config)
            return [p.data.copy() for p in model.parameters()]

        for a, b in zip(run(), run()):
            np.testing.assert_array_equal(a, b)

    def test_non_finite_loss_stops_before_the_step(self):
        rng = np.random.default_rng(1)
        train_days = make_windows(rng, 12, "d1")
        val = make_windows(rng, 6, "v1")
        config = TrainConfig(lr=1e-3, max_epochs=3, balanced_cap=4, seed=2)
        model = tiny_model()
        model.out_b.data[1] = np.nan
        before = {p.name: p.data.copy() for p in model.parameters()}
        with pytest.raises(NonFiniteLoss) as err:
            train(model, train_days, val, TINY_COMPLEX, config)
        assert (err.value.epoch, err.value.batch) == (1, 1)
        assert "at epoch 1, batch 1" in str(err.value)
        for p in model.parameters():
            np.testing.assert_array_equal(p.data, before[p.name])

    def test_day_missing_class_skipped(self, caplog):
        rng = np.random.default_rng(3)
        good = make_windows(rng, 12, "d1")
        bad = make_windows(rng, 8, "d2", label_cycle=(1, 1))
        val = make_windows(rng, 6, "v1")
        config = TrainConfig(lr=1e-3, max_epochs=1, balanced_cap=4, seed=4)
        with caplog.at_level("WARNING", logger="hloblab.train"):
            train(tiny_model(), join_windows([good, bad]), val, TINY_COMPLEX,
                  config)
        assert "skipping day d2" in caplog.text

    def test_all_days_missing_class(self):
        rng = np.random.default_rng(4)
        bad = make_windows(rng, 8, "d1", label_cycle=(1,))
        val = make_windows(rng, 6, "v1")
        config = TrainConfig(lr=1e-3, max_epochs=1, balanced_cap=4)
        with pytest.raises(EmptyDataset):
            train(tiny_model(), bad, val, TINY_COMPLEX, config)

    def test_empty_inputs(self):
        with pytest.raises(EmptyDataset):
            train(tiny_model(), EMPTY, EMPTY, TINY_COMPLEX, TrainConfig())

    def test_long_window_trains(self):
        # the unrolled LSTM puts thousands of nodes in a chain; backward
        # must order them without recursing once per node
        rng = np.random.default_rng(7)
        config = HlobConfig(window_len=400, channels=4, head_widths=(8, 6, 4),
                            arities=(4, 3, 2), cardinalities=(1, 1, 1),
                            lstm_hidden=4)
        model = HlobModel(config, seed=0, dtype=np.float64)
        train_days = make_windows(rng, 3, "d1", length=400)
        val = make_windows(rng, 3, "v1", length=400)
        before = [p.data.copy() for p in model.parameters()]
        _, history = train(model, train_days, val, TINY_COMPLEX,
                           TrainConfig(lr=1e-3, max_epochs=1, balanced_cap=1,
                                       seed=8))
        assert len(history["val_loss"]) == 1
        assert np.isfinite(history["val_loss"][0])
        assert any(not np.array_equal(b, p.data)
                   for b, p in zip(before, model.parameters()))

    def test_learns_separable_toy_set(self):
        rng = np.random.default_rng(5)
        train_days = make_windows(rng, 30, "d1", signal=2.0)
        val = make_windows(rng, 9, "v1", signal=2.0)
        config = TrainConfig(lr=1e-2, max_epochs=50, balanced_cap=10, seed=6)
        model = tiny_model()
        train(model, train_days, val, TINY_COMPLEX, config)
        report = evaluate(model, train_days, TINY_COMPLEX)
        accuracy = np.trace(report.confusion) / report.confusion.sum()
        assert accuracy >= 0.95


class TestEngineOpsUsed:
    def test_every_public_op_runs(self, monkeypatch):
        """Training and evaluation call every public engine function but the
        gradient checker and the three that size the head pool at import."""
        public = {name for name, fn in vars(engine).items()
                  if inspect.isfunction(fn) and fn.__module__ == engine.__name__
                  and not name.startswith("_")}
        called = set()

        def recorder(name, fn):
            def wrapped(*args, **kwargs):
                called.add(name)
                return fn(*args, **kwargs)
            return wrapped

        # calls from inside engine resolve through the module too
        for name in public:
            monkeypatch.setattr(engine, name, recorder(name, getattr(engine, name)))
        rng = np.random.default_rng(9)
        train_days = make_windows(rng, 12, "d1")
        val = make_windows(rng, 6, "v1")
        model = tiny_model()
        train(model, train_days, val, TINY_COMPLEX,
              TrainConfig(lr=1e-3, max_epochs=1, balanced_cap=4, seed=1))
        evaluate(model, val, TINY_COMPLEX)
        assert public - called == {"grad_check", "cpu_count"}


class TestHeadThreads:
    def test_one_and_two_workers_train_identically(self, tmp_path, monkeypatch, head_pool):
        cfg_path = str(write_config(tmp_path, **{"synth.n_events": "220",
                                                 "window_len": "20"}))
        for verb in ("synth", "ingest", "mi", "tmfg"):
            assert cli.dispatch([verb, "--config", cfg_path]) == 0, verb
        cfg = RunConfig.load(cfg_path)
        complex_ = pipeline.load_simplices(cfg)
        train_windows = join_windows([pipeline.windows_for_day(cfg, d)
                                      for d in cfg["split.train"]])
        val = join_windows([pipeline.windows_for_day(cfg, d)
                            for d in cfg["split.validation"]])
        config = dataclasses.replace(pipeline.train_config(cfg), lr=1e-3,
                                     max_epochs=2, batch_size=8, balanced_cap=4)

        def run(workers):
            monkeypatch.setattr(engine, "HEAD_WORKERS", workers)
            model = HlobModel(pipeline.hlob_config(cfg), seed=config.seed)
            state, history = train(model, train_windows, val, complex_, config)
            path = tmp_path / f"model_{workers}.ckpt"
            save_checkpoint(model, path)
            return state, history, path.read_bytes()

        state_1, history_1, ckpt_1 = run(1)
        assert head_pool.blocks == 0
        state_2, history_2, ckpt_2 = run(2)
        assert head_pool.blocks > 0
        assert history_2 == history_1
        assert ckpt_2 == ckpt_1
        assert state_2.keys() == state_1.keys()
        for name, arrays in state_1.items():
            for got, want in zip(state_2[name], arrays):
                np.testing.assert_array_equal(got, want)


class TestSplitsJoinedOnce:
    def test_train_holds_no_day_rows_and_joins_each_split_once(self, tmp_path, monkeypatch):
        """``run_train`` joins each split once, and when ``train`` starts no
        day's own rows of a multi-day split are alive, so the training rows
        are held once; three epochs of validation join nothing again."""
        days = DAYS + ["1970-01-10"]
        cfg_path = str(write_config(tmp_path, days=",".join(days), **{
            "split.train": f"{days[6]},{days[5]}", "split.validation": f"{days[7]},{days[8]}",
            "split.test": days[9], "synth.n_events": "220", "window_len": "20",
            "train.max_epochs": "3", "train.batch_size": "8", "train.balanced_cap": "4"}))
        for verb in ("synth", "ingest", "mi", "tmfg"):
            assert cli.dispatch([verb, "--config", cfg_path]) == 0, verb
        day_rows, joins, alive = [], [], []
        windows_for_day, join, train_fn = (pipeline.windows_for_day, preprocess.join_windows,
                                           train_mod.train)

        def windowed(cfg, day):
            windows = windows_for_day(cfg, day)
            day_rows.append(weakref.ref(windows.rows))
            return windows

        def joined(windows):
            joins.append([w.day for w in windows])
            return join(windows)

        def started(*args):
            alive.extend(ref() is not None for ref in day_rows)
            return train_fn(*args)

        monkeypatch.setattr(pipeline, "windows_for_day", windowed)
        monkeypatch.setattr(preprocess, "join_windows", joined)
        monkeypatch.setattr(train_mod, "train", started)
        pipeline.run_train(RunConfig.load(cfg_path))
        assert alive == [False] * 4
        assert joins == [days[5:7], days[7:9]]
        assert len(json.loads((tmp_path / "out" / "history.json").read_text())["val_loss"]) == 3


class TestTrainStepMemory:
    def test_batch_32_step_peak(self):
        """One default-model batch-32 train step (forward, backward, AdamW)
        allocates under 108 MB at its peak: about 70 MB at one head worker,
        79 MB at two and 95 MB at four, as each pool block has its own
        scratch. With conv_pv's output and the LeakyReLU masks on the tape
        it took about 406 MB; a new input-gradient buffer in each time
        layer and spent nodes held until backward returned took it to about
        194 MB, conv_simplex's output on the tape to about 177 MB,
        conv_time2's to about 129 MB, and each head in two nodes, with the
        (N, T, cardinality x 32) gradient between them, to about 105 MB."""
        config = HlobConfig()
        model = HlobModel(config, seed=0)
        optimizer = engine.AdamW(model.parameters())
        rng = np.random.default_rng(5)
        inputs = [rng.standard_normal((32, config.window_len, width), np.float32)
                  for width in config.head_widths]
        labels = rng.integers(0, config.n_classes, 32)
        tracemalloc.start()
        try:
            logits = model.forward(inputs, train=True, rng=np.random.default_rng(6))
            engine.softmax_cross_entropy(logits, labels).backward()
            optimizer.step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 108 * 2**20, f"{peak / 2**20:.1f} MB"

    def test_train_feeds_a_batch_32_step_under_122_mb(self):
        """``train`` on 33 float64 windows of the default model (a batch-32
        step, a batch-1 step and validation) allocates under 122 MB at its
        peak: about 89 MB at one head worker, 98 MB at two and 113 MB at
        four. Gathering the head inputs in float64, a new input-gradient
        buffer in each time layer and spent nodes held until backward
        returned took it to about 213 MB, conv_simplex's output on the tape
        to about 196 MB, conv_time2's to about 148 MB, and each head in two
        nodes, with the (N, T, cardinality x 32) gradient between them, to
        about 124 MB."""
        config = HlobConfig()
        model = HlobModel(config, seed=0)
        w = np.random.default_rng(0).random((20, 20))
        np.fill_diagonal(w, 0.0)
        complex_ = extract_simplices(build_tmfg((w + w.T) / 2))
        rng = np.random.default_rng(5)

        def day(name, n):
            t_len = config.window_len
            return DayWindows(name, rng.standard_normal((n + t_len - 1, 40)),
                              np.arange(t_len - 1, n + t_len - 1),
                              np.resize(np.array([-1, 0, 1]), n), t_len)

        train_days, val_days = day("d1", 33), day("d2", 4)
        tracemalloc.start()
        try:
            train(model, train_days, val_days, complex_, TrainConfig(max_epochs=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 122 * 2**20, f"{peak / 2**20:.1f} MB"


class TestConfusionAndScores:
    FIXTURE = np.array([[50, 10, 5], [8, 60, 7], [4, 9, 47]])

    def test_confusion_layout(self):
        c = confusion_matrix([-1, -1, 0, 1], [-1, 1, 0, 0])
        expect = np.zeros((3, 3), int)
        expect[0, 0] = 1  # true -1 predicted -1
        expect[0, 2] = 1  # true -1 predicted +1
        expect[1, 1] = 1
        expect[2, 1] = 1
        np.testing.assert_array_equal(c, expect)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            confusion_matrix([1], [1, 0])

    def test_perfect_predictions(self):
        c = confusion_matrix([-1, 0, 1] * 5, [-1, 0, 1] * 5)
        assert f1_macro(c) == 1.0
        assert mcc_multiclass(c) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("confusion, bound", [
        (np.diag([1, 1, 1]), 1.0), (np.diag([1, 0, 3]), 1.0), (np.diag([4, 4, 1]), 1.0),
        (np.array([[0, 1, 0], [3, 0, 0], [0, 0, 0]]), -1.0),
    ])
    def test_mcc_stays_within_its_bounds(self, confusion, bound):
        # unclipped, each reads 2**-52 past its bound, which report rejects
        assert mcc_multiclass(confusion) == bound

    def test_degenerate_single_column_mcc_zero(self):
        c = confusion_matrix([-1, 0, 1] * 4, [1] * 12)
        assert mcc_multiclass(c) == 0.0

    def test_fixture_matches_hand_oracle(self):
        c = self.FIXTURE
        # independent per-class F1 from precision/recall
        f1s = []
        for k in range(3):
            tp = c[k, k]
            precision = tp / c[:, k].sum()
            recall = tp / c[k, :].sum()
            f1s.append(2 * precision * recall / (precision + recall))
        assert f1_macro(c) == pytest.approx(sum(f1s) / 3, abs=1e-10)

        # independent Gorodkin MCC via the covariance formulation
        s = c.sum()
        cov_xy = sum(c[k, k] * s - c[k, :].sum() * c[:, k].sum()
                     for k in range(3)) - (np.trace(c) * s
                                           - np.trace(c) * s)  # zero
        num = np.trace(c) * s - sum(int(c[k, :].sum()) * int(c[:, k].sum())
                                    for k in range(3))
        den = math.sqrt(s * s - sum(int(c[:, k].sum()) ** 2
                                    for k in range(3))) \
            * math.sqrt(s * s - sum(int(c[k, :].sum()) ** 2
                                    for k in range(3)))
        assert mcc_multiclass(c) == pytest.approx(num / den, abs=1e-10)
        assert -1.0 <= mcc_multiclass(c) <= 1.0

    def test_mcc_permutation_invariance(self):
        rng = np.random.default_rng(6)
        labels = rng.integers(-1, 2, 60)
        preds = rng.integers(-1, 2, 60)
        base = mcc_multiclass(confusion_matrix(labels, preds))
        perm = {-1: 0, 0: 1, 1: -1}
        permuted = mcc_multiclass(confusion_matrix(
            [perm[v] for v in labels], [perm[v] for v in preds]))
        assert permuted == pytest.approx(base, abs=1e-12)

    def test_f1_from_raw_equals_matrix_path(self):
        rng = np.random.default_rng(7)
        labels = rng.integers(-1, 2, 100).tolist()
        preds = rng.integers(-1, 2, 100).tolist()
        c = confusion_matrix(labels, preds)
        # recompute per class from raw streams
        scores = []
        for lab in (-1, 0, 1):
            tp = sum(1 for l, p in zip(labels, preds) if l == p == lab)
            fp = sum(1 for l, p in zip(labels, preds) if l != lab and p == lab)
            fn = sum(1 for l, p in zip(labels, preds) if l == lab and p != lab)
            denom = 2 * tp + fp + fn
            scores.append(2 * tp / denom if denom else 0.0)
        assert f1_macro(c) == pytest.approx(np.mean(scores), abs=1e-12)


def round_trip_oracle(predictions, labels):
    """Independent scan: opener at non-stable, closer at opposite sign,
    and the closer immediately reopens."""
    trips = []
    opener = None
    for i, p in enumerate(predictions):
        if p == 0:
            continue
        if opener is None:
            opener = i
        elif predictions[i] * predictions[opener] < 0:
            trips.append((opener, i))
            opener = i
    tt = len(trips)
    correct = sum(1 for o, c in trips
                  if labels[o] == predictions[o] and labels[c] == predictions[c])
    return (correct / tt if tt else 0.0), tt


class TestRoundTripStats:
    def test_single_correct_trip(self):
        assert round_trip_stats([1, -1], [1, -1]) == (1.0, 1)

    def test_all_stable(self):
        assert round_trip_stats([0, 0, 0], [1, -1, 0]) == (0.0, 0)

    def test_closer_reopens(self):
        # +1 -1 +1: two round trips sharing the middle prediction
        p_t, tt = round_trip_stats([1, -1, 1], [1, -1, 1])
        assert tt == 2
        assert p_t == 1.0

    def test_twenty_element_fixture(self):
        preds = [1, 0, 0, -1, -1, 1, 0, 1, -1, 0,
                 0, 1, 1, -1, 0, 0, 1, 0, -1, 1]
        labels = [1, 0, 1, -1, 0, 1, 1, 0, -1, -1,
                  0, 1, -1, -1, 1, 0, 0, 0, -1, 1]
        assert round_trip_stats(preds, labels) == \
            round_trip_oracle(preds, labels)

    def test_random_sequences_match_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            n = int(rng.integers(1, 40))
            preds = rng.integers(-1, 2, n).tolist()
            labels = rng.integers(-1, 2, n).tolist()
            assert round_trip_stats(preds, labels) == \
                round_trip_oracle(preds, labels)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            round_trip_stats([1], [1, 0])


class TestEvaluate:
    def test_report_invariants(self):
        rng = np.random.default_rng(9)
        windows = make_windows(rng, 20, "t1")
        report = evaluate(tiny_model(), windows, TINY_COMPLEX)
        assert report.confusion.sum() == 20
        assert 0.0 <= report.f1_macro <= 1.0
        assert -1.0 <= report.mcc <= 1.0
        assert 0.0 <= report.p_t <= 1.0
        assert report.tt >= 0

    def test_empty(self):
        with pytest.raises(EmptyDataset):
            evaluate(tiny_model(), EMPTY, TINY_COMPLEX)


def make_report(ticker, year, f1, mcc, p_t, tt, horizon=10):
    return EvalReport(f1_macro=f1, mcc=mcc, p_t=p_t, tt=tt,
                      confusion=np.zeros((3, 3), np.int64), ticker=ticker,
                      year=year, horizon=horizon)


class TestEmitReport:
    def test_single_report(self, tmp_path):
        emit_report([make_report("SYN", "1970", 0.5, 0.2, 0.6, 7)], tmp_path)
        lines = (tmp_path / "metrics_h10.csv").read_text().splitlines()
        assert lines[0] == "ticker,year,f1,mcc,p_t,tt"
        assert lines[1].startswith("SYN,1970,0.5,0.2,0.6,7")
        assert lines[2].startswith("SYN,avg,")
        assert len(lines) == 3

    def test_yearly_average(self, tmp_path):
        reports = [make_report("SYN", str(y), f1, 0.0, 0.0, 0)
                   for y, f1 in zip((1970, 1971, 1972), (0.3, 0.5, 0.7))]
        emit_report(reports, tmp_path)
        lines = (tmp_path / "metrics_h10.csv").read_text().splitlines()
        avg = [l for l in lines if ",avg," in l][0]
        assert float(avg.split(",")[2]) == pytest.approx(0.5, abs=1e-12)

    def test_quadrant_thresholds_percentile_oracle(self, tmp_path):
        rng = np.random.default_rng(10)
        tts = rng.integers(0, 100, 8).tolist()
        pts = rng.random(8).tolist()
        reports = [make_report("SYN", str(1970 + i), 0.0, 0.0, pt, tt)
                   for i, (tt, pt) in enumerate(zip(tts, pts))]
        emit_report(reports, tmp_path)
        lines = (tmp_path / "quadrants_h10.csv").read_text().splitlines()
        tt_line = [l for l in lines if l.startswith("threshold_tt_p25")][0]
        pt_line = [l for l in lines if l.startswith("threshold_pt_p75")][0]
        # independent linear-interpolation percentile
        def pct(values, q):
            v = sorted(values)
            pos = (len(v) - 1) * q / 100
            lo = int(math.floor(pos))
            hi = int(math.ceil(pos))
            return v[lo] + (v[hi] - v[lo]) * (pos - lo)
        assert float(tt_line.split(",")[3]) == pytest.approx(pct(tts, 25),
                                                             abs=1e-10)
        assert float(pt_line.split(",")[4]) == pytest.approx(pct(pts, 75),
                                                             abs=1e-10)

    def test_manifest_written(self, tmp_path):
        emit_report([make_report("SYN", "1970", 0.5, 0.2, 0.6, 7)], tmp_path,
                    config_digest="abc", seed=9)
        import json
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        assert manifest["config_digest"] == "abc"
        assert manifest["seed"] == 9
        # no wall-clock field: every artifact under out_dir is deterministic
        assert set(manifest) == {"config_digest", "seed", "n_reports", "horizons"}
