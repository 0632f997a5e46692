import os
import sys
import warnings

import numpy as np
import pytest

from hloblab import engine
from hloblab.engine import (
    AdamW,
    LstmParams,
    Parameter,
    Tensor,
    conv_leaky_cl,
    dense,
    dropout,
    grad_check,
    lstm,
    lstm_last,
    softmax,
    softmax_cross_entropy,
)
from hloblab.errors import BadLabel, ShapeMismatch
from hloblab.model import HlobConfig, _Head
from reference_ops import conv2d, leaky_relu, mul, reshape


def tensor64(rng, shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


class TestTapeBasics:
    def test_add_mul_chain(self):
        a = Tensor(np.array([2.0]), requires_grad=True)
        b = Tensor(np.array([3.0]), requires_grad=True)
        out = mul(engine.add(a, b), b)  # (a+b)*b = 15
        out.backward()
        assert out.data == 15.0
        assert a.grad == 3.0       # d/da = b
        assert b.grad == 8.0       # d/db = a + 2b

    def test_backward_requires_scalar(self):
        x = Tensor(np.zeros((2, 2)), requires_grad=True)
        with pytest.raises(ShapeMismatch):
            engine.add(x, x).backward()

    def test_shared_node_accumulates(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        out = engine.add(mul(x, x), x)  # x^2 + x
        out.backward()
        assert x.grad == 7.0

    def test_broadcast_bias_gradient(self):
        x = Tensor(np.ones((4, 3)), requires_grad=True)
        b = Tensor(np.zeros(3), requires_grad=True)
        s = engine.add(x, b)
        loss = engine.matmul(reshape(s, (1, 12)),
                             reshape(s, (12, 1)))
        loss.backward()
        np.testing.assert_allclose(b.grad, 2.0 * 4 * np.ones(3))


class TestGradCheck:
    @staticmethod
    def sum_sq(x):
        flat = reshape(x, (1, x.data.size))
        return engine.matmul(flat, engine.transpose(flat))

    def test_analytic_quadratic(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        err = grad_check(self.sum_sq, x, h=1e-4)
        assert err < 1e-8
        np.testing.assert_allclose(x.grad, [2.0, 4.0], atol=1e-12)

    def test_constant_function(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        err = grad_check(lambda t: mul(Tensor(np.array(0.0)), self.sum_sq(t)), x)
        assert err == 0.0


class TestConv2d:
    def test_head_geometry(self):
        x = Tensor(np.zeros((1, 1, 100, 136)))
        w = Tensor(np.zeros((32, 1, 1, 2)))
        b = Tensor(np.zeros(32))
        assert conv2d(x, w, b, stride=(1, 2)).shape == (1, 32, 100, 68)

    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((2, 1, 5, 6)))
        w = Tensor(np.ones((1, 1, 1, 1)))
        b = Tensor(np.zeros(1))
        np.testing.assert_array_equal(conv2d(x, w, b).data, x.data)

    def test_forward_matches_naive_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 3, 6, 7))
        w = rng.standard_normal((4, 3, 2, 3))
        b = rng.standard_normal(4)
        out = conv2d(Tensor(x), Tensor(w), Tensor(b), stride=(2, 2),
                     padding=(1, 1)).data
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        for n in range(2):
            for o in range(4):
                for i in range(out.shape[2]):
                    for j in range(out.shape[3]):
                        patch = xp[n, :, 2 * i:2 * i + 2, 2 * j:2 * j + 3]
                        expect = (patch * w[o]).sum() + b[o]
                        assert out[n, o, i, j] == pytest.approx(expect,
                                                                rel=1e-12)

    def test_asymmetric_time_padding_preserves_extent(self):
        x = Tensor(np.zeros((1, 32, 100, 17)))
        w = Tensor(np.zeros((32, 32, 4, 1)))
        b = Tensor(np.zeros(32))
        out = conv2d(x, w, b, padding=((1, 2), (0, 0)))
        assert out.shape == (1, 32, 100, 17)

    def test_gradients_input_weight_bias(self):
        rng = np.random.default_rng(2)
        x = tensor64(rng, (1, 2, 5, 6))
        w = tensor64(rng, (3, 2, 2, 2))
        b = tensor64(rng, (3,))

        # symmetric padding with a time stride, and one-sided time padding
        # with a width stride
        for stride, padding in (((2, 1), (1, 0)), ((1, 2), ((1, 0), (0, 0)))):
            def loss_x(t):
                return TestGradCheck.sum_sq(conv2d(t, w, b, stride=stride,
                                                   padding=padding))

            def loss_w(t):
                return TestGradCheck.sum_sq(conv2d(x, t, b, stride=stride,
                                                   padding=padding))

            def loss_b(t):
                return TestGradCheck.sum_sq(conv2d(x, w, t, stride=stride,
                                                   padding=padding))

            assert grad_check(loss_x, x) < 1e-6, stride
            assert grad_check(loss_w, w) < 1e-6, stride
            assert grad_check(loss_b, b) < 1e-6, stride

    def test_channel_mismatch(self):
        with pytest.raises(ShapeMismatch):
            conv2d(Tensor(np.zeros((1, 2, 4, 4))),
                   Tensor(np.zeros((1, 3, 2, 2))), Tensor(np.zeros(1)))


def max_rel(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


class TestConvLeakyChannelsLast:
    # (input width, in channels, kernel (kh, kw), time padding) of the five
    # layers of the "tri" head, whose oracle is conv2d followed by leaky_relu
    HEAD_LAYERS = {
        "conv_pv": (312, 1, (1, 2), (0, 0)),
        "conv_simplex": (156, 32, (1, 3), (0, 0)),
        "conv_time1": (52, 32, (4, 1), (1, 2)),
        "conv_time2": (52, 32, (4, 1), (1, 2)),
        "conv_mix": (52, 32, (1, 52), (0, 0)),
    }

    @pytest.mark.parametrize("layer", sorted(HEAD_LAYERS))
    def test_matches_conv2d_then_leaky_relu(self, layer):
        width, c, (kh, kw), pad = self.HEAD_LAYERS[layer]
        rng = np.random.default_rng(20)
        x_cl = rng.standard_normal((2, 100, width, c))
        w_data = rng.standard_normal((32, c, kh, kw)) / np.sqrt(c * kh * kw)
        b_data = rng.standard_normal(32)

        x = Tensor(x_cl.reshape(2, 100, width * c), requires_grad=True)
        w = Tensor(w_data.copy(), requires_grad=True)
        b = Tensor(b_data.copy(), requires_grad=True)
        out = conv_leaky_cl(x, w, b, 0.01, pad)
        TestGradCheck.sum_sq(out).backward()

        xr = Tensor(x_cl.transpose(0, 3, 1, 2).copy(), requires_grad=True)
        wr = Tensor(w_data.copy(), requires_grad=True)
        br = Tensor(b_data.copy(), requires_grad=True)
        ref = leaky_relu(conv2d(xr, wr, br, stride=(1, kw),
                                padding=(pad, (0, 0))), 0.01)
        TestGradCheck.sum_sq(ref).backward()

        assert out.shape == (2, 100, width // kw * 32)
        assert max_rel(out.data.reshape(2, 100, width // kw, 32).transpose(0, 3, 1, 2),
                       ref.data) < 1e-12
        assert max_rel(x.grad.reshape(x_cl.shape).transpose(0, 3, 1, 2), xr.grad) < 1e-12
        assert max_rel(w.grad, wr.grad) < 1e-12
        assert max_rel(b.grad, br.grad) < 1e-12

    def test_gradients_with_time_padding(self):
        rng = np.random.default_rng(21)
        x = tensor64(rng, (2, 5, 12))
        w = tensor64(rng, (4, 3, 4, 2))
        b = tensor64(rng, (4,))

        def loss(xt, wt, bt):
            return TestGradCheck.sum_sq(conv_leaky_cl(xt, wt, bt, 0.01, (1, 2)))

        assert grad_check(lambda t: loss(t, w, b), x) < 1e-6
        assert grad_check(lambda t: loss(x, t, b), w) < 1e-6
        assert grad_check(lambda t: loss(x, w, t), b) < 1e-6

    def test_width_not_tiled_by_kernel(self):
        with pytest.raises(ShapeMismatch):
            conv_leaky_cl(Tensor(np.zeros((1, 3, 10))),
                          Tensor(np.zeros((1, 2, 1, 2))), Tensor(np.zeros(1)),
                          0.01)

    def test_channel_mismatch(self):
        with pytest.raises(ShapeMismatch):
            conv_leaky_cl(Tensor(np.zeros((1, 3, 8))),
                          Tensor(np.zeros((1, 3, 1, 2))), Tensor(np.zeros(1)),
                          0.01)

    def test_row_width_not_whole_kernel_columns(self):
        # 12 columns are whole kernels of width 4 and whole pairs of
        # channels, but not whole 4 x 2 kernel columns
        with pytest.raises(ShapeMismatch, match="row width 12"):
            conv_leaky_cl(Tensor(np.zeros((1, 3, 12))),
                          Tensor(np.zeros((1, 2, 1, 4))), Tensor(np.zeros(1)),
                          0.01)

    @pytest.mark.parametrize("kh, kw, own, time_pad, out_rows", [
        # time2: rows 0, 5 and 6 are each window's own (time1's edge rows)
        pytest.param(4, 1, [0, 5, 6], (1, 2), [0, 1, 3, 4, 5, 6], id="1"),
        pytest.param(4, 2, [0, 5, 6], (1, 2), [0, 1, 3, 4, 5, 6], id="2"),
        # conv_pv and conv_simplex: every row shared
        pytest.param(1, 2, [], (0, 0), [], id="no-edge"),
        # conv_mix: time2's edge rows, its kernel as wide as the row
        pytest.param(1, 4, [0, 1, 3, 4, 5, 6], (0, 0), [0, 1, 3, 4, 5, 6], id="mix"),
    ])
    def test_windows_over_shared_rows_match_each_window(self, kh, kw, own,
                                                        time_pad, out_rows):
        # 7-row windows over a 12-row shared run, from starts that overlap,
        # leave a gap and repeat, and a single window; each window's rows in
        # ``own`` follow the run in the row table
        rng = np.random.default_rng(22)
        t_len, shared = 7, 12
        w = rng.standard_normal((5, 3, kh, kw))
        b = rng.standard_normal(5)
        # start -1 only where row 0 is an own row
        for starts in ([-1, 0, 4, 4], [-1]) if 0 in own else ([0, 1, 5, 5], [5]):
            n = len(starts)
            rows = rng.standard_normal((shared + n * len(own), 4, 3))
            index = np.array(starts)[:, None] + np.arange(t_len)
            index[:, own] = shared + np.arange(n * len(own)).reshape(n, len(own))
            got, got_shared, got_index = engine.conv_leaky_windows(
                rows, shared, index, w, b, 0.01, time_pad)
            assert got_shared == shared - kh + 1
            assert got_index.shape == (n, t_len)
            np.testing.assert_array_equal(
                np.flatnonzero((got_index >= got_shared).any(axis=0)), out_rows)
            for i in range(n):
                want = conv_leaky_cl(Tensor(rows[index[i]].reshape(1, t_len, -1)),
                                     Tensor(w), Tensor(b), 0.01, time_pad).data[0]
                np.testing.assert_array_equal(got[got_index[i]].reshape(want.shape), want)

    def test_head_dropout_mask_keeps_nchw_draw(self):
        cfg = HlobConfig()
        head = _Head("tri", 3, 52, cfg, np.random.default_rng(0), np.float64)
        x = Tensor(np.random.default_rng(1).standard_normal((2, 100, 312)))
        kept = head.forward(x, cfg, train=True, rng=np.random.default_rng(2))
        full = head.forward(x, cfg, train=False, rng=None)
        # the draw of the NCHW head: one uniform per (N, C, T, 1) unit
        keep = np.random.default_rng(2).random((2, 32, 100, 1)) >= cfg.dropout_rate
        mask = keep.astype(np.float64) / (1.0 - cfg.dropout_rate)
        expect = full.data * mask[..., 0].transpose(0, 2, 1)
        assert kept.shape == (2, 100, 32)
        np.testing.assert_array_equal(kept.data, expect)


def held_arrays(fn):
    """The arrays a backward closure holds, through the closures, layers and
    containers it holds in turn (not through the Tensors it reads)."""
    found, seen, stack = [], set(), [fn]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            found.append(obj)
        elif callable(obj) and getattr(obj, "__closure__", None):
            stack.extend(cell.cell_contents for cell in obj.__closure__)
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif isinstance(obj, engine._ConvLayer):
            stack.extend(vars(obj).values())
    return found


class TestLeadingLayer:
    """``conv_leaky_cl(..., first=(weight, bias))``: a head's conv_pv run
    inside its conv_simplex node."""

    @staticmethod
    def pair_arrays(arity, dtype, main_kernel=None, n=5, t_len=100, card=10, seed=40):
        """x, the leading (conv_pv) weight and bias, the main layer's weight
        and bias (conv_simplex, or a ``main_kernel`` (kh, kw)), and an
        upstream gradient for the main layer's output."""
        kh, kw = (1, arity) if main_kernel is None else main_kernel
        rng = np.random.default_rng(seed)
        width = card * arity * 2
        arrays = [rng.standard_normal((n, t_len, width)),
                  rng.standard_normal((32, 1, 1, 2)) / np.sqrt(2),
                  rng.standard_normal(32),
                  rng.standard_normal((32, 32, kh, kw)) / np.sqrt(32 * kh * kw),
                  rng.standard_normal(32)]
        # a main time kernel runs over (1, 2) padding, which keeps T
        upstream = rng.standard_normal((n * t_len * (width // 2 // kw) * 32, 1))
        return [a.astype(dtype) for a in arrays], upstream.astype(dtype)

    @staticmethod
    def run(arrays, upstream, paired, time_pad=(0, 0), x_grad=True):
        """The output, then the gradients of x and the four parameters."""
        x, w0, b0, w1, b1 = (Tensor(a.copy(), requires_grad=i > 0 or x_grad)
                             for i, a in enumerate(arrays))
        if paired:
            out = conv_leaky_cl(x, w1, b1, 0.01, time_pad, first=(w0, b0))
        else:
            out = conv_leaky_cl(conv_leaky_cl(x, w0, b0, 0.01), w1, b1, 0.01, time_pad)
        engine.matmul(reshape(out, (1, out.data.size)), Tensor(upstream)).backward()
        return out.data, x.grad, w0.grad, b0.grad, w1.grad, b1.grad

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("arity", [2, 3, 4])
    def test_equals_two_chained_nodes(self, arity, dtype, monkeypatch, head_pool):
        arrays, upstream = self.pair_arrays(arity, dtype)
        monkeypatch.setattr(engine, "HEAD_WORKERS", 1)
        chained = self.run(arrays, upstream, paired=False)
        assert head_pool.blocks == 0
        interval = sys.getswitchinterval()
        # switch threads often, so that blocks interleave as much as they can
        sys.setswitchinterval(1e-5)
        try:
            for workers in (1, 2, 3, 4):
                monkeypatch.setattr(engine, "HEAD_WORKERS", workers)
                for got, want in zip(self.run(arrays, upstream, paired=True), chained):
                    assert got.dtype == want.dtype
                    assert np.array_equal(got, want)
        finally:
            sys.setswitchinterval(interval)
        # forward and backward each hand all blocks but the first to the pool
        assert head_pool.blocks == sum(2 * (w - 1) for w in (2, 3, 4))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_time_kernel_main_layer(self, workers, monkeypatch, head_pool):
        # a padded 4 x 1 main layer reads the leading layer's output rows
        # through its taps' shifted spans
        monkeypatch.setattr(engine, "HEAD_WORKERS", workers)
        arrays, upstream = self.pair_arrays(2, np.float64, main_kernel=(4, 1))
        chained = self.run(arrays, upstream, paired=False, time_pad=(1, 2))
        for got, want in zip(self.run(arrays, upstream, True, (1, 2)), chained):
            assert np.array_equal(got, want)

    def test_input_without_gradient(self):
        # training's head inputs are plain arrays: only the four parameters
        # take gradients, and the leading layer's still come back
        arrays, upstream = self.pair_arrays(3, np.float32, n=2, t_len=20)
        got = self.run(arrays, upstream, paired=True, x_grad=False)
        want = self.run(arrays, upstream, paired=False, x_grad=False)
        assert got[1] is None and want[1] is None
        for g, w in zip(got[2:], want[2:]):
            assert np.array_equal(g, w)

    def test_one_tape_node(self):
        arrays, _ = self.pair_arrays(2, np.float32, n=1, t_len=4)
        x, w0, b0, w1, b1 = (Tensor(a) for a in arrays)
        out = conv_leaky_cl(x, w1, b1, 0.01, first=(w0, b0))
        assert out._parents == (x, w0, b0, w1, b1)
        assert out.shape == (1, 4, 10 * 32)

    def test_backward_holds_no_mask_or_leading_output(self):
        arrays, _ = self.pair_arrays(3, np.float32, main_kernel=(4, 1), n=2, t_len=6)
        x, w0, b0, w1, b1 = (Tensor(a, requires_grad=True) for a in arrays)
        lead_size = 2 * 6 * 30 * 32
        for out in (conv_leaky_cl(x, w0, b0, 0.01),
                    conv_leaky_cl(x, w1, b1, 0.01, (1, 2), first=(w0, b0))):
            held = held_arrays(out._backward)
            assert not [a.shape for a in held if a.dtype == bool]
        # the pair holds its own output, and no other array the size of conv_pv's
        assert not [a.shape for a in held
                    if a.size >= lead_size and not np.shares_memory(a, out.data)]

    def test_leading_outputs_not_main_channels(self):
        # 4 outputs of 4 columns are 16 columns, whole 2 x 2 kernel columns,
        # but the main layer reads 2 channels
        with pytest.raises(ShapeMismatch, match="leading layer has 4 outputs"):
            conv_leaky_cl(Tensor(np.zeros((1, 3, 8))), Tensor(np.zeros((1, 2, 1, 2))),
                          Tensor(np.zeros(1)), 0.01,
                          first=(Tensor(np.zeros((4, 1, 1, 2))), Tensor(np.zeros(4))))

    def test_leading_row_width_not_whole_kernel_columns(self):
        with pytest.raises(ShapeMismatch, match="row width 12"):
            conv_leaky_cl(Tensor(np.zeros((1, 3, 12))), Tensor(np.zeros((1, 2, 1, 2))),
                          Tensor(np.zeros(1)), 0.01,
                          first=(Tensor(np.zeros((2, 2, 1, 4))), Tensor(np.zeros(2))))

    def test_leading_output_not_whole_main_kernel_columns(self):
        # 4 columns of 3 leading outputs are 12, not whole 3 x 3 kernel columns
        with pytest.raises(ShapeMismatch, match="row width 12"):
            conv_leaky_cl(Tensor(np.zeros((1, 3, 8))), Tensor(np.zeros((1, 3, 1, 3))),
                          Tensor(np.zeros(1)), 0.01,
                          first=(Tensor(np.zeros((3, 1, 1, 2))), Tensor(np.zeros(3))))

    def test_leading_layer_with_a_time_kernel(self):
        with pytest.raises(ShapeMismatch, match="single time tap"):
            conv_leaky_cl(Tensor(np.zeros((1, 3, 8))), Tensor(np.zeros((1, 2, 1, 2))),
                          Tensor(np.zeros(1)), 0.01,
                          first=(Tensor(np.zeros((2, 1, 2, 2))), Tensor(np.zeros(2))))


def serial_conv_leaky_cl(x, w, b, slope, time_pad, g):
    """The single-loop ``conv_leaky_cl``: output and the x, w, b gradients
    for the upstream gradient ``g``, with every sum in its add order."""
    n, t_len, width = x.shape
    o, c, kh, kw = w.shape
    pb, pa = time_pad
    t_out, wo, k = t_len + pb + pa - kh + 1, width // (kw * c), kw * c
    xs = x.reshape(n, t_len * wo, k)
    taps = [w[:, :, i, :].transpose(2, 1, 0).reshape(k, o) for i in range(kh)]

    def spans(i):
        lo, hi = max(0, pb - i), min(t_out, t_len + pb - i)
        return (slice(lo * wo, hi * wo), slice((lo + i - pb) * wo, (hi + i - pb) * wo))

    y = np.empty((n, t_out * wo, o), x.dtype)
    for s in range(n):
        y[s] = b
        for i in range(kh):
            out_r, in_r = spans(i)
            y[s, out_r] += (xs[s] @ taps[i])[in_r]
        np.maximum(y[s], y[s] * slope, out=y[s])
    g = g.reshape(y.shape)
    gb, gw, gx = np.zeros(o, x.dtype), np.zeros((kh, k, o), x.dtype), np.zeros_like(xs)
    for s in range(n):
        gz = (y[s] >= 0).astype(x.dtype)
        gz *= 1.0 - slope
        gz += slope
        gz *= g[s]
        gb += gz.sum(axis=0)
        for i in range(kh):
            out_r, in_r = spans(i)
            gw[i] += xs[s, in_r].T @ gz[out_r]
            gx[s, in_r] += (gz @ taps[i].T)[out_r]
    return (y.reshape(n, t_out, wo * o), gx.reshape(x.shape),
            gw.reshape(kh, kw, c, o).transpose(3, 2, 0, 1), gb)


class TestHeadThreads:
    HEAD_LAYERS = TestConvLeakyChannelsLast.HEAD_LAYERS

    @staticmethod
    def layer_arrays(layer, n, t_len=100, seed=30):
        width, c, (kh, kw), pad = TestHeadThreads.HEAD_LAYERS[layer]
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, t_len, width * c), np.float32)
        w = rng.standard_normal((32, c, kh, kw), np.float32) / np.float32(np.sqrt(c * kh * kw))
        b = rng.standard_normal(32, np.float32)
        return x, w, b, pad

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 32])
    @pytest.mark.parametrize("layer", sorted(HEAD_LAYERS))
    def test_any_pool_size_is_bit_identical(self, layer, n, monkeypatch, head_pool):
        x_data, w_data, b_data, pad = self.layer_arrays(layer, n)
        upstream = None

        def run(workers):
            nonlocal upstream
            monkeypatch.setattr(engine, "HEAD_WORKERS", workers)
            x, w, b = (Tensor(a.copy(), requires_grad=True)
                       for a in (x_data, w_data, b_data))
            out = conv_leaky_cl(x, w, b, 0.01, pad)
            if upstream is None:
                rng = np.random.default_rng(31)
                upstream = Tensor(rng.standard_normal((out.data.size, 1), np.float32))
            # a random upstream gradient: d loss / d out = upstream
            engine.matmul(reshape(out, (1, out.data.size)), upstream).backward()
            return out.data, x.grad, w.grad, b.grad

        serial = run(1)
        for got, want in zip(serial, serial_conv_leaky_cl(
                x_data, w_data, b_data, 0.01, pad, upstream.data)):
            np.testing.assert_array_equal(got, want)
        interval = sys.getswitchinterval()
        # switch threads often, so that blocks interleave as much as they can
        sys.setswitchinterval(1e-5)
        try:
            for workers in (2, 3, 4):
                for got, want in zip(run(workers), serial):
                    np.testing.assert_array_equal(got, want)
        finally:
            sys.setswitchinterval(interval)
        # forward and backward each hand all blocks but the first to the pool
        assert head_pool.blocks == sum(2 * (min(w, n) - 1) for w in (2, 3, 4))

    @pytest.mark.parametrize("cpus", [1, 2, 3, 8])
    def test_pool_size_rule(self, cpus):
        def workers(**environ):
            return engine.head_workers(cpus, engine.blas_threads(environ, cpus))

        # OpenBLAS then uses a thread per CPU, which leaves none for the pool
        assert workers() == 1
        assert workers(OPENBLAS_NUM_THREADS="1") == min(4, cpus)
        assert workers(OMP_NUM_THREADS="2") == max(1, cpus // 2)
        assert workers(GOTO_NUM_THREADS="1", OMP_NUM_THREADS=str(cpus)) == min(4, cpus)
        assert workers(OPENBLAS_NUM_THREADS=str(cpus), OMP_NUM_THREADS="1") == 1
        for ignored in ("0", "-1", "two", "1.5", ""):
            assert workers(OPENBLAS_NUM_THREADS=ignored) == 1
            assert workers(OPENBLAS_NUM_THREADS=ignored, OMP_NUM_THREADS="1") == min(4, cpus)

    def test_module_pool_size_follows_the_environment(self):
        assert engine.CPUS == engine.cpu_count() >= 1
        assert engine.BLAS_THREADS == engine.blas_threads(os.environ, engine.CPUS)
        assert engine.HEAD_WORKERS == engine.head_workers(engine.CPUS, engine.BLAS_THREADS)

    def test_small_samples_stay_serial(self, monkeypatch, head_pool):
        monkeypatch.setattr(engine, "HEAD_WORKERS", 4)
        # a 9-row window, as training on short windows runs it
        x, w, b, pad = self.layer_arrays("conv_time1", 32, t_len=9)
        conv_leaky_cl(Tensor(x), Tensor(w), Tensor(b), 0.01, pad)
        assert head_pool.blocks == 0
        x, w, b, pad = self.layer_arrays("conv_time1", 32)
        conv_leaky_cl(Tensor(x), Tensor(w), Tensor(b), 0.01, pad)
        assert head_pool.blocks == 3

    def test_a_worker_block_exception_reaches_the_caller(self, monkeypatch, head_pool):
        monkeypatch.setattr(engine, "HEAD_WORKERS", 2)
        ran = []

        def body(lo, hi):
            if lo > 0:
                raise ValueError(f"block from {lo}")
            ran.append((lo, hi))

        with pytest.raises(ValueError, match="block from 2"):
            engine._sample_blocks(body, 4, engine.MIN_THREADED_SAMPLE)
        assert ran == [(0, 2)]
        assert head_pool.blocks == 1


class TestLeakyRelu:
    def test_values(self):
        out = leaky_relu(Tensor(np.array([1.0, -1.0])), 0.01)
        np.testing.assert_allclose(out.data, [1.0, -0.01])

    def test_zero_subgradient_one(self):
        x = Tensor(np.array([0.0]), requires_grad=True)
        out = leaky_relu(x, 0.01)
        assert out.data == 0.0
        mul(out, Tensor(np.array(1.0))).backward()
        assert x.grad == 1.0

    def test_gradient_away_from_kink(self):
        rng = np.random.default_rng(3)
        data = rng.standard_normal(20)
        data[np.abs(data) < 0.1] += 0.2  # keep clear of the kink
        x = Tensor(data, requires_grad=True)
        err = grad_check(lambda t: TestGradCheck.sum_sq(leaky_relu(t, 0.01)), x)
        assert err < 1e-6


class TestLstm:
    def test_parameter_count(self):
        p = LstmParams("lstm", 96, 32, np.random.default_rng(0))
        assert sum(q.data.size for q in p.parameters()) == 16640
        assert 4 * 32 * (96 + 32) + 8 * 32 == 16640

    def test_zero_weights_zero_outputs(self):
        p = LstmParams("lstm", 3, 2, np.random.default_rng(0), np.float64)
        for q in p.parameters():
            q.data = np.zeros_like(q.data)
        out, h = lstm(Tensor(np.ones((1, 4, 3))), p)
        np.testing.assert_array_equal(out.data, 0.0)
        np.testing.assert_array_equal(h.data, 0.0)

    def test_forward_matches_naive_recurrence(self):
        rng = np.random.default_rng(4)
        p = LstmParams("lstm", 2, 2, rng, np.float64)
        x = rng.standard_normal((1, 3, 2))
        out, h_t = lstm(Tensor(x), p)

        def sig(a):
            return 1.0 / (1.0 + np.exp(-a))

        h = np.zeros(2)
        c = np.zeros(2)
        for t in range(3):
            gates = p.w_ih.data @ x[0, t] + p.b_ih.data \
                + p.w_hh.data @ h + p.b_hh.data
            i_g, f_g = sig(gates[0:2]), sig(gates[2:4])
            g_g, o_g = np.tanh(gates[4:6]), sig(gates[6:8])
            c = f_g * c + i_g * g_g
            h = o_g * np.tanh(c)
            np.testing.assert_allclose(out.data[0, t], h, atol=1e-12)
        np.testing.assert_allclose(h_t.data[0], h, atol=1e-12)

    def test_bptt_gradients(self):
        rng = np.random.default_rng(5)
        p = LstmParams("lstm", 2, 2, rng, np.float64)
        x = tensor64(rng, (1, 3, 2))

        def loss(t):
            _, h = lstm(t, p)
            return TestGradCheck.sum_sq(h)

        assert grad_check(loss, x) < 1e-6

        def loss_w(t):
            p.w_hh.tensor = t
            _, h = lstm(x, p)
            return TestGradCheck.sum_sq(h)

        w = Tensor(p.w_hh.data.copy(), requires_grad=True)
        assert grad_check(loss_w, w) < 1e-6

    def test_input_size_mismatch(self):
        p = LstmParams("lstm", 3, 2, np.random.default_rng(0))
        with pytest.raises(ShapeMismatch):
            lstm(Tensor(np.zeros((1, 4, 5))), p)
        with pytest.raises(ShapeMismatch):
            lstm_last(np.zeros((1, 4, 5)), p)


def _sigmoid(x):
    s = 1.0 / (1.0 + np.exp(-x.data))
    out = Tensor(s, parents=(x,))
    out._backward = lambda g: x._accumulate(g * s * (1.0 - s))
    return out


def _tanh(x):
    t = np.tanh(x.data)
    out = Tensor(t, parents=(x,))
    out._backward = lambda g: x._accumulate(g * (1.0 - t * t))
    return out


def _take(x, index, axis):
    """x[..., index, ...] along one axis, dropping that axis."""
    out = Tensor(np.take(x.data, index, axis=axis), parents=(x,))

    def backward(g):
        if x.requires_grad:
            full = np.zeros_like(x.data)
            np.moveaxis(full, axis, 0)[index] = g
            x._accumulate(full)

    out._backward = backward
    return out


def _cols(x, lo, hi):
    out = Tensor(x.data[:, lo:hi], parents=(x,))

    def backward(g):
        full = np.zeros_like(x.data)
        full[:, lo:hi] = g
        x._accumulate(full)

    out._backward = backward
    return out


def _stack(tensors, axis):
    out = Tensor(np.stack([t.data for t in tensors], axis=axis), parents=tuple(tensors))

    def backward(g):
        for i, t in enumerate(tensors):
            t._accumulate(np.take(g, i, axis=axis))

    out._backward = backward
    return out


def reference_lstm(x, params):
    """The LSTM composed of per-step tape primitives, as the fused op replaced."""
    n, t_len, _ = x.data.shape
    hs = params.hidden_size
    h = Tensor(np.zeros((n, hs), x.data.dtype))
    c = Tensor(np.zeros((n, hs), x.data.dtype))
    w_ih_t = engine.transpose(params.w_ih.tensor)
    w_hh_t = engine.transpose(params.w_hh.tensor)
    outputs = []
    for t in range(t_len):
        gates = engine.add(
            engine.add(engine.matmul(_take(x, t, 1), w_ih_t), params.b_ih.tensor),
            engine.add(engine.matmul(h, w_hh_t), params.b_hh.tensor))
        i_g = _sigmoid(_cols(gates, 0, hs))
        f_g = _sigmoid(_cols(gates, hs, 2 * hs))
        g_g = _tanh(_cols(gates, 2 * hs, 3 * hs))
        o_g = _sigmoid(_cols(gates, 3 * hs, 4 * hs))
        c = engine.add(mul(f_g, c), mul(i_g, g_g))
        h = mul(o_g, _tanh(c))
        outputs.append(h)
    return _stack(outputs, axis=1), h


class TestFusedLstm:
    """The fused op against the per-step composition it replaced."""

    @staticmethod
    def params(dtype, i_size=6, hs=4, seed=30):
        rng = np.random.default_rng(seed)
        p = LstmParams("lstm", i_size, hs, rng, dtype)
        p.b_ih.data = (0.5 * rng.standard_normal(4 * hs)).astype(dtype)
        p.b_hh.data = (0.5 * rng.standard_normal(4 * hs)).astype(dtype)
        return p

    @staticmethod
    def grads(fn, x_data, p, which, weights):
        """Output ``which`` of ``fn`` and the gradients of sum(weights * it)."""
        x = Tensor(x_data.copy(), requires_grad=True)
        for q in p.parameters():
            q.tensor.grad = None
        out = fn(x, p)[which]
        flat = reshape(mul(out, Tensor(weights)), (1, -1))
        engine.matmul(flat, Tensor(np.ones((flat.shape[1], 1), x_data.dtype))).backward()
        return out.data.copy(), [x.grad] + [q.tensor.grad.copy() for q in p.parameters()]

    @pytest.mark.parametrize("which", [0, 1])
    def test_matches_composition_float64(self, which):
        p = self.params(np.float64)
        rng = np.random.default_rng(31)
        x = rng.standard_normal((5, 9, 6))
        weights = rng.standard_normal((5, 9, 4) if which == 0 else (5, 4))
        out, grads = self.grads(lstm, x, p, which, weights)
        ref_out, ref_grads = self.grads(reference_lstm, x, p, which, weights)
        assert max_rel(out, ref_out) < 1e-12
        for name, g, ref in zip(["x", "w_ih", "w_hh", "b_ih", "b_hh"], grads, ref_grads):
            assert g.shape == ref.shape, name
            assert max_rel(g, ref) < 1e-12, name

    def test_float32_weight_gradients_bit_identical(self):
        # the input-side terms are summed in the composition's order, so a
        # float32 train step updates the weights exactly as it did
        p = self.params(np.float32, i_size=96, hs=32)
        rng = np.random.default_rng(32)
        x = rng.standard_normal((32, 100, 96)).astype(np.float32)
        weights = rng.standard_normal((32, 32)).astype(np.float32)
        out, grads = self.grads(lstm, x, p, 1, weights)
        ref_out, ref_grads = self.grads(reference_lstm, x, p, 1, weights)
        np.testing.assert_array_equal(out, ref_out)
        assert max_rel(grads[0], ref_grads[0]) < 1e-6
        for g, ref in zip(grads[1:], ref_grads[1:]):
            np.testing.assert_array_equal(g, ref)

    @pytest.mark.parametrize("which", [0, 1])
    def test_gradcheck_every_input(self, which):
        p = self.params(np.float64, i_size=3, hs=2)
        rng = np.random.default_rng(33)
        x = tensor64(rng, (2, 4, 3))

        def loss(t):
            return TestGradCheck.sum_sq(lstm(t, p)[which])

        assert grad_check(loss, x) < 1e-6
        for q in p.parameters():
            def loss_q(t, q=q):
                q.tensor = t
                return TestGradCheck.sum_sq(lstm(x, p)[which])

            assert grad_check(loss_q, Tensor(q.data.copy(), requires_grad=True)) < 1e-6, \
                q.name

    def test_one_tape_node(self):
        p = self.params(np.float64)
        x = Tensor(np.ones((2, 50, 6)), requires_grad=True)
        _, h_last = lstm(x, p)
        assert set(map(id, h_last._parents)) == \
            {id(x)} | {id(q.tensor) for q in p.parameters()}

    def test_last_state_without_tape(self):
        p = self.params(np.float64)
        x = np.random.default_rng(34).standard_normal((12, 7, 6))
        _, h_last = lstm(Tensor(x), p)
        np.testing.assert_array_equal(lstm_last(x, p), h_last.data)
        # rows are independent: a stack of batches gives each batch's rows
        split = np.concatenate([lstm_last(x[:4], p), lstm_last(x[4:], p)])
        assert max_rel(lstm_last(x, p), split) < 1e-12


    def test_saturated_gates_raise_no_overflow_warning(self):
        # pre-activations of +-1e3 put exp past float32's range; the sigmoid
        # is then exactly 0 or 1 and must not warn
        p = self.params(np.float32)
        p.w_ih.data = np.zeros_like(p.w_ih.data)
        p.b_ih.data = np.where(np.arange(16) % 2, 1e3, -1e3).astype(np.float32)
        x = np.ones((3, 5, 6), np.float32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            outputs, h_last = lstm(Tensor(x), p)
            h = lstm_last(x, p)
        for state in (outputs.data, h):
            assert np.all(np.isfinite(state))
        np.testing.assert_array_equal(h, h_last.data)


class TestDense:
    def test_identity_weight(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        w = Tensor(np.eye(3))
        b = Tensor(np.array([1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(dense(x, w, b).data,
                                      x.data + b.data)

    def test_parameter_count(self):
        assert 3 * 32 + 3 == 99

    def test_gradient(self):
        rng = np.random.default_rng(6)
        x = tensor64(rng, (2, 4))
        w = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal(3), requires_grad=True)
        assert grad_check(lambda t: TestGradCheck.sum_sq(dense(t, w, b)), x) < 1e-6
        assert grad_check(lambda t: TestGradCheck.sum_sq(dense(x, t, b)), w) < 1e-6


class TestDropout:
    def test_eval_identity(self):
        x = Tensor(np.ones((5, 5)))
        assert dropout(x, 0.35, train=False, rng=None) is x

    def test_rate_zero_identity(self):
        x = Tensor(np.ones((5, 5)))
        assert dropout(x, 0.0, train=True,
                       rng=np.random.default_rng(0)) is x

    def test_survivor_fraction(self):
        rng = np.random.default_rng(7)
        x = Tensor(np.ones(1_000_000))
        out = dropout(x, 0.35, train=True, rng=rng)
        frac = np.count_nonzero(out.data) / x.data.size
        assert abs(frac - 0.65) < 0.005

    def test_inverted_scaling(self):
        rng = np.random.default_rng(8)
        x = Tensor(np.ones(1000))
        out = dropout(x, 0.35, train=True, rng=rng)
        survivors = out.data[out.data != 0]
        np.testing.assert_allclose(survivors, 1.0 / 0.65, atol=1e-12)

    def test_bad_rate(self):
        with pytest.raises(ValueError):
            dropout(Tensor(np.ones(3)), 1.0, train=True)


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        loss = softmax_cross_entropy(Tensor(np.zeros((4, 3))),
                                     np.zeros(4, int))
        assert float(loss.data) == pytest.approx(np.log(3.0), abs=1e-12)

    def test_large_logit_no_overflow(self):
        loss = softmax_cross_entropy(Tensor(np.array([[1000.0, 0.0, 0.0]])),
                                     np.array([0]))
        assert float(loss.data) == pytest.approx(0.0, abs=1e-10)

    def test_bad_label(self):
        with pytest.raises(BadLabel):
            softmax_cross_entropy(Tensor(np.zeros((1, 3))), np.array([3]))

    def test_gradient_formula(self):
        rng = np.random.default_rng(9)
        logits = Tensor(rng.standard_normal((5, 3)), requires_grad=True)
        labels = np.array([0, 1, 2, 1, 0])
        softmax_cross_entropy(logits, labels).backward()
        p = softmax(logits.data)
        p[np.arange(5), labels] -= 1.0
        np.testing.assert_allclose(logits.grad, p / 5, atol=1e-12)

    def test_finite_difference(self):
        rng = np.random.default_rng(10)
        logits = tensor64(rng, (4, 3))
        labels = np.array([0, 2, 1, 1])
        err = grad_check(lambda t: softmax_cross_entropy(t, labels), logits)
        assert err < 1e-6


class TestSoftmax:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(11)
        p = softmax(rng.standard_normal((10, 3)))
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(p > 0)


class TestAdamW:
    def test_one_step_hand_value(self):
        p = Parameter("p", np.array([1.0]))
        p.tensor.grad = np.array([1.0])
        opt = AdamW([p], lr=6e-5, beta1=0.90, beta2=0.95, eps=1e-8,
                    weight_decay=0.01)
        opt.step()
        # bias correction at t=1 makes m_hat = v_hat = g; update =
        # lr * (1/(1+eps) + wd * 1)
        expect = 1.0 - 6e-5 * (1.0 / (1.0 + 1e-8) + 0.01)
        assert p.data[0] == pytest.approx(expect, abs=1e-15)
        assert p.data[0] == pytest.approx(0.99993940, abs=5e-9)

    def test_zero_grad_zero_wd_fixed_point(self):
        p = Parameter("p", np.array([1.5]))
        p.tensor.grad = np.array([0.0])
        AdamW([p], weight_decay=0.0).step()
        assert p.data[0] == 1.5

    def test_wd_zero_reduces_to_adam(self):
        rng = np.random.default_rng(12)
        data = rng.standard_normal(4)
        g = rng.standard_normal(4)

        p1 = Parameter("p", data.copy())
        p1.tensor.grad = g.copy()
        AdamW([p1], lr=1e-3, weight_decay=0.0).step()

        # plain Adam by hand
        m = 0.1 * g
        v = 0.05 * g * g
        m_hat = m / 0.1
        v_hat = v / 0.05
        expect = data - 1e-3 * m_hat / (np.sqrt(v_hat) + 1e-8)
        np.testing.assert_allclose(p1.data, expect, atol=1e-15)

    def test_decoupled_decay_direction(self):
        p = Parameter("p", np.array([10.0]))
        p.tensor.grad = np.array([0.0])
        AdamW([p], lr=1e-2, weight_decay=0.1).step()
        assert p.data[0] == pytest.approx(10.0 * (1 - 1e-2 * 0.1), abs=1e-12)


class TestDeterminism:
    def test_forward_bit_identical(self):
        def run():
            rng = np.random.default_rng(0)
            x = Tensor(rng.standard_normal((1, 2, 6, 6)))
            w = Tensor(rng.standard_normal((3, 2, 2, 2)))
            b = Tensor(rng.standard_normal(3))
            return conv2d(x, w, b, stride=(2, 2)).data

        np.testing.assert_array_equal(run(), run())
