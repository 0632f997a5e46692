import decimal
import errno
import pathlib

import numpy as np
import pytest

from hloblab import engine
from hloblab.engine import Tensor
from hloblab.errors import ConfigInconsistent, DigestMismatch, IoFailure, NonFiniteLogit
from hloblab.infonet import assemble_head_inputs, build_tmfg, extract_simplices
from hloblab.model import (
    HEAD_NAMES,
    HlobConfig,
    HlobModel,
    load_checkpoint,
    predict_proba,
    save_checkpoint,
)
from reference_ops import conv2d

EXPECTED_COUNTS = {
    "head.tetra.conv_pv": 96,
    "head.tri.conv_pv": 96,
    "head.edge.conv_pv": 96,
    "head.tetra.block2": 12_384,
    "head.tri.block2": 11_360,
    "head.edge.block2": 10_336,
    "head.tetra.conv_mix": 17_440,
    "head.tri.conv_mix": 53_280,
    "head.edge.conv_mix": 55_328,
    "lstm": 16_640,
    "output": 99,
    "total": 177_155,
}


def small_model(dtype=np.float64, seed=0):
    return HlobModel(HlobConfig(), seed=seed, dtype=dtype)


def random_inputs(rng, n=1, dtype=np.float64):
    cfg = HlobConfig()
    return [rng.standard_normal((n, cfg.window_len, w)).astype(dtype)
            for w in cfg.head_widths]


def zero_biases(model):
    for p in model.parameters():
        if p.name.endswith("bias") or ".b_" in p.name:
            p.data = np.zeros_like(p.data)


class TestConfig:
    def test_defaults_consistent(self):
        cfg = HlobConfig()
        assert cfg.head_widths == (136, 312, 216)
        assert cfg.lstm_input == 96

    def test_width_cardinality_mismatch(self):
        with pytest.raises(ConfigInconsistent):
            HlobConfig(head_widths=(136, 312, 218))

    def test_digest_stable_and_sensitive(self):
        assert HlobConfig().digest() == HlobConfig().digest()
        assert HlobConfig().digest() != HlobConfig(dropout_rate=0.5).digest()


class TestParameterCounts:
    def test_exact_audit(self):
        table = dict(small_model().param_count_table())
        assert table == EXPECTED_COUNTS

    def test_total_is_sum(self):
        model = small_model()
        assert sum(p.data.size for p in model.parameters()) == 177_155

    def test_unique_parameter_names(self):
        names = [p.name for p in small_model().parameters()]
        assert len(names) == len(set(names))


class TestShapeCascade:
    def test_per_head_width_cascade(self):
        cfg = HlobConfig()
        model = small_model()
        cascades = {"tetra": (136, 68, 17, 1), "tri": (312, 156, 52, 1),
                    "edge": (216, 108, 54, 1)}
        for head, arity in zip(model.heads, cfg.arities):
            w0, w1, w2, w3 = cascades[head.name]
            x = Tensor(np.zeros((1, 1, 100, w0)))

            def conv(t, pair, **kw):
                w, b = pair
                return conv2d(t, w.tensor, b.tensor, **kw)

            h = conv(x, head.conv_pv, stride=(1, 2))
            assert h.shape == (1, 32, 100, w1)
            h = conv(h, head.conv_simplex, stride=(1, arity))
            assert h.shape == (1, 32, 100, w2)
            h = conv(h, head.conv_time1, padding=((1, 2), (0, 0)))
            assert h.shape == (1, 32, 100, w2)  # time extent preserved
            h = conv(h, head.conv_time2, padding=((1, 2), (0, 0)))
            assert h.shape == (1, 32, 100, w2)
            h = conv(h, head.conv_mix)
            assert h.shape == (1, 32, 100, w3)

    def test_concatenated_sequence_and_logits(self):
        model = small_model()
        rng = np.random.default_rng(0)
        inputs = random_inputs(rng, n=2)
        outs = [head.forward(Tensor(arr), model.config, False, None)
                for head, arr in zip(model.heads, inputs)]
        seq = engine.concat(outs, axis=2)
        assert seq.shape == (2, 100, 96)
        logits = model.forward(inputs)
        assert logits.shape == (2, 3)


class TestForward:
    def test_zero_inputs_zero_biases_uniform(self):
        model = small_model()
        zero_biases(model)
        cfg = model.config
        logits = model.forward([np.zeros((1, 100, w)) for w in cfg.head_widths])
        assert np.all(logits.data == logits.data[0, 0])
        np.testing.assert_allclose(predict_proba(logits.data)[0], 1 / 3, atol=1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        inputs = random_inputs(rng)
        a = small_model().forward(inputs).data
        b = small_model().forward(inputs).data
        np.testing.assert_array_equal(a, b)

    def test_train_mode_dropout_changes_output(self):
        rng = np.random.default_rng(3)
        inputs = random_inputs(rng)
        model = small_model()
        eval_out = model.forward(inputs).data
        train_out = model.forward(inputs, train=True,
                                  rng=np.random.default_rng(0)).data
        assert not np.array_equal(eval_out, train_out)


class TestPredictProba:
    def test_uniform(self):
        np.testing.assert_allclose(predict_proba(np.zeros((1, 3))), 1 / 3,
                                   atol=1e-12)

    def test_large_logit_no_overflow(self):
        p = predict_proba(np.array([[1000.0, 0.0, 0.0]]))
        np.testing.assert_allclose(p, [[1.0, 0.0, 0.0]], atol=1e-12)

    def test_matches_high_precision_oracle(self):
        rng = np.random.default_rng(4)
        logits = rng.standard_normal((20, 3))
        p = predict_proba(logits)
        decimal.getcontext().prec = 50
        for row, prow in zip(logits, p):
            exps = [decimal.Decimal(float(v)).exp() for v in row]
            total = sum(exps)
            for e, got in zip(exps, prow):
                assert abs(float(e / total) - got) < 1e-12

    def test_shift_invariance(self):
        rng = np.random.default_rng(5)
        logits = rng.standard_normal((10, 3))
        np.testing.assert_allclose(predict_proba(logits),
                                   predict_proba(logits + 123.456), atol=1e-9)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(6)
        p = predict_proba(rng.standard_normal((50, 3)) * 10)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-6)

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteLogit):
            predict_proba(np.array([[np.nan, 0.0, 0.0]]))


class TestGatherGradientConsistency:
    def test_duplicated_feature_gradient_sums(self):
        # a book column feeding several simplex slots must receive the sum
        # of the per-slot gradients
        rng = np.random.default_rng(7)
        w = rng.random((20, 20))
        w = (w + w.T) / 2
        np.fill_diagonal(w, 0.0)
        complex_ = extract_simplices(build_tmfg(w))
        model = small_model()
        window = rng.standard_normal((100, 40))
        labels = np.array([1])

        def loss_of(window_arr):
            inputs = assemble_head_inputs(window_arr[None], complex_)
            logits = model.forward(list(inputs))
            return engine.softmax_cross_entropy(logits, labels)

        # analytic: gradient w.r.t. each head input, scattered back by the
        # gather indices
        inputs = [Tensor(np.asarray(a), requires_grad=True)
                  for a in assemble_head_inputs(window[None], complex_)]
        engine.softmax_cross_entropy(model.forward(inputs), labels).backward()

        from hloblab.infonet import head_column_indices
        grad_window = np.zeros((100, 40))
        for x, idx in zip(inputs, head_column_indices(complex_)):
            for slot, col in enumerate(idx):
                grad_window[:, col] += x.grad[0, :, slot]

        # finite differences on a few coordinates with large gradient
        flat_order = np.argsort(np.abs(grad_window).reshape(-1))[-8:]
        h = 1e-4
        base = window.copy()
        for flat in flat_order:
            t, col = np.unravel_index(flat, (100, 40))
            base[t, col] += h
            f_plus = float(loss_of(base).data.reshape(()))
            base[t, col] -= 2 * h
            f_minus = float(loss_of(base).data.reshape(()))
            base[t, col] += h
            numeric = (f_plus - f_minus) / (2 * h)
            analytic = grad_window[t, col]
            denom = max(abs(numeric), abs(analytic), 1e-12)
            assert abs(numeric - analytic) / denom < 1e-5


def tape_nodes(root):
    """Number of tape nodes reachable from ``root``."""
    seen, todo = {id(root)}, [root]
    while todo:
        for p in todo.pop()._parents:
            if id(p) not in seen:
                seen.add(id(p))
                todo.append(p)
    return len(seen)


class TestTape:
    def test_train_step_puts_under_100_nodes_on_the_tape(self):
        # one fused node per head layer and one for the whole LSTM
        model = HlobModel(HlobConfig(), seed=0)
        inputs = random_inputs(np.random.default_rng(13), n=32, dtype=np.float32)
        logits = model.forward(inputs, train=True, rng=np.random.default_rng(14))
        loss = engine.softmax_cross_entropy(logits, np.arange(32) % 3)
        assert tape_nodes(loss) < 100
        loss.backward()
        assert all(p.tensor.grad is not None for p in model.parameters())


class TestCheckpoint:
    def test_round_trip_bit_identical(self, tmp_path):
        model = small_model(dtype=np.float32)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        loaded, header = load_checkpoint(path, expected_config=model.config)
        rng = np.random.default_rng(8)
        inputs = random_inputs(rng, dtype=np.float32)
        np.testing.assert_array_equal(model.forward(inputs).data,
                                      loaded.forward(inputs).data)
        assert header["config_digest"] == model.config.digest()

    def test_optimizer_moments_preserved(self, tmp_path):
        model = small_model(dtype=np.float32)
        opt = engine.AdamW(model.parameters())
        for p in model.parameters():
            p.tensor.grad = np.ones_like(p.data)
        opt.step()
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path, optimizer=opt)
        loaded, header = load_checkpoint(path)
        assert header["optimizer_t"] == 1
        for p, q in zip(model.parameters(), loaded.parameters()):
            np.testing.assert_array_equal(p.m, q.m)
            np.testing.assert_array_equal(p.v, q.v)

    def test_truncated_file(self, tmp_path):
        model = small_model(dtype=np.float32)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(IoFailure):
            load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 64)
        with pytest.raises(IoFailure):
            load_checkpoint(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoFailure):
            load_checkpoint(tmp_path / "absent.ckpt")

    def test_failed_write_keeps_old_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "model.ckpt"
        save_checkpoint(small_model(dtype=np.float32), path)
        old = path.read_bytes()

        def disk_full(self, data):
            with open(self, "wb") as fh:
                fh.write(memoryview(data)[: len(data) // 2])
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(pathlib.Path, "write_bytes", disk_full)
        with pytest.raises(IoFailure):
            save_checkpoint(HlobModel(HlobConfig(), seed=9), path)
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]

    def test_config_drift_digest_mismatch(self, tmp_path):
        model = small_model(dtype=np.float32)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        other = HlobConfig(dropout_rate=0.5)
        with pytest.raises(DigestMismatch):
            load_checkpoint(path, expected_config=other)
