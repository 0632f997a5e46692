"""The head ops' contracts, each checked by one function.

``tests/test_engine_properties.py`` runs these checks over generated shapes,
and ``tests/test_engine.py`` over the model's own head shapes.
"""

import sys
from dataclasses import dataclass

import numpy as np
import pytest

from hloblab import engine
from hloblab.engine import Tensor, conv_leaky_cl, conv_leaky_windows, lstm, lstm_last
from reference_ops import conv2d, leaky_relu, reshape

SLOPE = 0.01


def segments(layers, cut):
    """``layers`` as one segment, or two cut before layer ``cut`` > 0."""
    return [s for s in (layers[:cut], layers[cut:]) if s]


@dataclass
class Chain:
    """Arrays of a conv chain: the (N, T, W*C) input, each layer's weight,
    bias and time padding, where :func:`segments` cuts it, and a gradient
    for the last layer's output."""

    x: np.ndarray
    layers: list
    cut: int
    upstream: np.ndarray

    @classmethod
    def of(cls, x, layers, cut, rng):
        """The chain of ``layers`` over ``x``, with an upstream gradient of
        the last output's shape drawn from ``rng``."""
        t_len, cols = x.shape[1], x.shape[2] // layers[0][0].shape[1]
        for w, _, (before, after) in layers:
            t_len, cols = t_len + before + after - w.shape[2] + 1, cols // w.shape[3]
        upstream = rng.standard_normal((len(x), t_len, cols * w.shape[0])).astype(x.dtype)
        return cls(x, layers, cut, upstream)

    def tensors(self, x_grad=True):
        """Fresh tensors of ``x`` and of each layer's parameters."""
        x = Tensor(self.x.copy(), requires_grad=x_grad)
        layers = [(Tensor(w.copy(), requires_grad=True), Tensor(b.copy(), requires_grad=True),
                   pad) for w, b, pad in self.layers]
        return x, layers


def backprop(out, g):
    """Run the tape's backward into everything ``out`` reads, ``g`` being
    the gradient of ``out``."""
    engine.matmul(reshape(out, (1, out.data.size)), Tensor(g.reshape(-1, 1))).backward()


def gradients(x, layers):
    return [x.grad] + [p.grad for w, b, _ in layers for p in (w, b)]


def assert_bits_equal(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if w is None:
            assert g is None
        else:
            assert g.dtype == w.dtype
            np.testing.assert_array_equal(g, w)


def check_one_node_per_layer(chain, head_pool, pools=(1,), x_grad=True):
    """``conv_leaky_cl`` over ``chain``'s segments equals one node per layer
    bit for bit, in its output and every gradient, at each head pool in
    ``pools``, with every sample large enough to hand to the pool. It leaves
    its handed gradient and its output as they were, and writes its input
    gradient into its own array. Returns the output and gradients."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "MIN_THREADED_SAMPLE", 0)
        mp.setattr(engine, "HEAD_WORKERS", 1)
        x, layers = chain.tensors(x_grad)
        out = x
        for layer in layers:
            out = conv_leaky_cl(out, [[layer]], SLOPE)
        backprop(out, chain.upstream)
        want = [out.data] + gradients(x, layers)

        for pool in pools:
            mp.setattr(engine, "HEAD_WORKERS", pool)
            x, layers = chain.tensors(x_grad)
            blocks = head_pool.blocks
            out = conv_leaky_cl(x, segments(layers, chain.cut), SLOPE)
            out_data, backward = out.data.copy(), out._backward

            def spent_backward(g, backward=backward, x=x):
                handed = g.copy()
                backward(g)
                np.testing.assert_array_equal(g, handed)
                assert x.grad is None or not np.shares_memory(x.grad, g)

            out._backward = spent_backward
            interval = sys.getswitchinterval()
            # switch threads often, so that blocks interleave as much as they can
            sys.setswitchinterval(1e-5)
            try:
                backprop(out, chain.upstream)
            finally:
                sys.setswitchinterval(interval)
            np.testing.assert_array_equal(out.data, out_data)
            # forward and backward each hand all blocks but the first to the pool
            assert head_pool.blocks - blocks == 2 * (min(pool, len(chain.x)) - 1)
            assert_bits_equal([out.data] + gradients(x, layers), want)
            assert (x.grad is None) is not x_grad
    return want


def nchw(a, channels):
    """A channels-last (N, T, W*C) array as (N, C, T, W)."""
    n, t, width = a.shape
    return a.reshape(n, t, width // channels, channels).transpose(0, 3, 1, 2)


def check_nchw_reference(chain):
    """In float64, ``conv_leaky_cl`` over ``chain`` agrees with the NCHW
    ``conv2d`` and ``leaky_relu`` to 1e-12, output and every gradient."""
    x, layers = chain.tensors()
    out = conv_leaky_cl(x, segments(layers, chain.cut), SLOPE)
    backprop(out, chain.upstream)

    c_in, c_out = chain.layers[0][0].shape[1], chain.layers[-1][0].shape[0]
    ref_x = Tensor(nchw(chain.x, c_in).copy(), requires_grad=True)
    _, ref_layers = chain.tensors()
    ref = ref_x
    for w, b, pad in ref_layers:
        ref = leaky_relu(conv2d(ref, w, b, stride=(1, w.data.shape[3]), padding=(pad, (0, 0))),
                         SLOPE)
    backprop(ref, nchw(chain.upstream, c_out).copy())

    for got, want in zip([nchw(out.data, c_out), nchw(x.grad, c_in)] + gradients(x, layers)[1:],
                         [ref.data] + gradients(ref_x, ref_layers)):
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())


@dataclass
class WindowSet:
    """(M, W, C) rows, the first ``shared`` of them a run, and the (N, T)
    ``index`` of each window's rows, with the layers to run over them."""

    rows: np.ndarray
    shared: int
    index: np.ndarray
    layers: list


def assert_window_form(rows, shared, index, index_in, shared_in, kh, before):
    """The output's form, the one the next layer takes: each row past the
    run is one window's own, each window's rows in the run are consecutive,
    and an output row is every window's own exactly where one of its taps
    reaches a window's padding or own input row, and in the run elsewhere."""
    own = np.sort(index[index >= shared])
    np.testing.assert_array_equal(own, np.arange(shared, len(rows)))
    for window in index:
        in_run = window < shared
        assert len(set((window - np.arange(len(window)))[in_run].tolist())) <= 1
    t_in = index_in.shape[1]
    for r, column in enumerate(index.T):
        reaches = any(not 0 <= q < t_in or (index_in[:, q] >= shared_in).any()
                      for q in range(r - before, r - before + kh))
        assert (column >= shared).all() if reaches else (column < shared).all()


def check_windows(windows, slope):
    """``conv_leaky_windows``, layer after layer, gives each window the rows
    of ``conv_leaky_cl`` over that window, bit for bit, and hands the next
    layer a row table of the same form. Returns the last layer's (rows,
    shared, index)."""
    rows, shared, index = windows.rows, windows.shared, windows.index
    for w, b, pad in windows.layers:
        kh, shared_in, index_in = w.shape[2], shared, index
        rows, shared, index = conv_leaky_windows(rows, shared, index, w, b, slope, pad)
        assert shared == max(0, shared_in - kh + 1)
        assert_window_form(rows, shared, index, index_in, shared_in, kh, pad[0])
    layers = [(Tensor(w), Tensor(b), pad) for w, b, pad in windows.layers]
    t_len = windows.index.shape[1]
    for i, window in enumerate(windows.index):
        x = Tensor(windows.rows[window].reshape(1, t_len, -1))
        want = conv_leaky_cl(x, [layers], slope).data[0]
        got = rows[index[i]]
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got.reshape(want.shape), want)
    return rows, shared, index


def lstm_gradients(params, parts, masks, upstream):
    """h_T and the gradients of each part and each parameter."""
    for q in params.parameters():
        q.grad = None
    tensors = [Tensor(p.copy(), requires_grad=True) for p in parts]
    out = lstm(tensors, params, masks)
    backprop(out, upstream)
    return out.data, [t.grad for t in tensors], [q.grad for q in params.parameters()]


def check_lstm_parts(params, parts, masks, upstream):
    """``lstm`` over ``parts``, with their ``masks`` or none, equals one part
    multiplied by its masks beforehand, bit for bit, in h_T and every
    gradient, and ``lstm_last`` equals that h_T."""
    out, part_grads, param_grads = lstm_gradients(params, parts, masks, upstream)
    ones = [np.ones((), parts[0].dtype)] * len(parts)
    premasked = np.concatenate([p * m for p, m in zip(parts, masks or ones)], axis=2)
    want, (grad,), want_param_grads = lstm_gradients(params, [premasked], None, upstream)
    bounds = np.cumsum([0] + [p.shape[2] for p in parts]).tolist()
    assert_bits_equal([out] + part_grads + param_grads,
                      [want] + [grad[:, :, lo:hi] * m for lo, hi, m in
                                zip(bounds, bounds[1:], masks or ones)] + want_param_grads)
    steps = np.ascontiguousarray(premasked.transpose(1, 0, 2))
    assert_bits_equal([lstm_last(steps, params)], [out])
