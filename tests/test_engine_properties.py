"""Properties of the head ops over generated shapes.

A head's kernel widths, arities and row widths come from the simplicial
complex, so ``conv_leaky_cl``, ``conv_leaky_windows`` and ``lstm`` are
checked here over generated chains, window sets and part splits, not only
the model's own shapes. Each property runs a fixed number of examples from
a derandomized generator, so a run checks the same shapes every time.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from head_checks import (SLOPE, Chain, WindowSet, check_lstm_parts, check_nchw_reference,
                         check_one_node_per_layer, check_windows, segments)
from hloblab.engine import LstmParams, Tensor, conv_leaky_cl, conv_leaky_windows, lstm, lstm_last
from hloblab.errors import ShapeMismatch


def examples(n):
    # the head_pool fixture is shared by a test's examples, which read the
    # blocks handed to it as differences
    return settings(derandomize=True, max_examples=n, deadline=None, database=None,
                    suppress_health_check=[HealthCheck.too_slow,
                                           HealthCheck.function_scoped_fixture])


DTYPES = (np.float32, np.float64)


@st.composite
def layer_stack(draw, t_len, dtypes=DTYPES):
    """(dtype, seed, input columns and channels, layer geometry): 1-3
    layers of kernel height 1-4 over any time padding of 0-4 rows a side
    that leaves one output row or more, kernel widths 1-4 that tile their
    row, 1-5 channels in and out; the last layer's output has 1-3 columns."""
    dtype = draw(st.sampled_from(dtypes))
    n_layers = draw(st.integers(1, 3))
    kws = draw(st.lists(st.integers(1, 4), min_size=n_layers, max_size=n_layers))
    channels = draw(st.lists(st.integers(1, 5), min_size=n_layers + 1, max_size=n_layers + 1))
    cols = draw(st.integers(1, 3)) * int(np.prod(kws))
    geometry, t = [], t_len
    for kw, c, o in zip(kws, channels, channels[1:]):
        kh = draw(st.integers(1, 4))
        before = draw(st.integers(0, 4))
        after = draw(st.integers(max(0, kh - t - before), 4))
        geometry.append(((o, c, kh, kw), (before, after)))
        t += before + after - kh + 1
    return dtype, draw(st.integers(0, 2**32 - 1)), cols, channels[0], geometry


def layer_arrays(rng, geometry, dtype, exact=False):
    """Each layer's (weight, bias, time padding). ``exact`` weights are -1, 0
    or 1 and biases whole numbers from -2 to 2: over inputs of whole numbers
    from -2 to 2, three such layers with a LeakyReLU slope of 0.5 keep every
    product and sum exact in float32, whatever order a GEMM adds them in."""
    if exact:
        return [(rng.integers(-1, 2, shape).astype(dtype),
                 rng.integers(-2, 3, shape[0]).astype(dtype), pad) for shape, pad in geometry]
    return [((rng.standard_normal(shape) / np.sqrt(np.prod(shape[1:]))).astype(dtype),
             rng.standard_normal(shape[0]).astype(dtype), pad) for shape, pad in geometry]


@st.composite
def chains(draw, dtypes=DTYPES):
    """A :class:`Chain` of 1-4 samples of 1-8 rows over a :func:`layer_stack`,
    cut into one segment or two."""
    n, t_len = draw(st.integers(1, 4)), draw(st.integers(1, 8))
    dtype, seed, cols, c, geometry = draw(layer_stack(t_len, dtypes))
    cut = draw(st.integers(0, len(geometry) - 1))
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, t_len, cols * c)).astype(dtype)
    return Chain.of(x, layer_arrays(rng, geometry, dtype), cut, rng)


@examples(400)
@given(chain=chains(), pool=st.integers(1, 4), x_grad=st.booleans())
def test_chain_is_one_node_per_layer_bit_for_bit(chain, pool, x_grad, head_pool):
    check_one_node_per_layer(chain, head_pool, (pool,), x_grad)


@examples(200)
@given(chain=chains(dtypes=(np.float64,)))
def test_chain_agrees_with_nchw_reference(chain):
    check_nchw_reference(chain)


@st.composite
def window_sets(draw):
    """1-5 windows of 1-8 rows over a run of 0-12 rows, from starts that
    overlap, leave gaps or repeat. A window's row off the run is its own,
    and so is any other row drawn own; the own rows follow the run in the
    table in window order. Rows and layers are :func:`layer_arrays`'
    ``exact`` values."""
    t_len, shared = draw(st.integers(1, 8)), draw(st.integers(0, 12))
    dtype, seed, cols, c, geometry = draw(layer_stack(t_len))
    starts = draw(st.lists(st.integers(-t_len, shared), min_size=1, max_size=5))
    index = np.add.outer(starts, np.arange(t_len))
    m = shared
    for window in index:
        own = (window < 0) | (window >= shared) | np.array(
            draw(st.lists(st.booleans(), min_size=t_len, max_size=t_len)))
        window[own] = m + np.arange(own.sum())
        m += own.sum()
    rng = np.random.default_rng(seed)
    rows = rng.integers(-2, 3, (m, cols, c)).astype(dtype)
    return WindowSet(rows, shared, index, layer_arrays(rng, geometry, dtype, exact=True))


# a GEMM's row may round differently with the count of rows around it (a
# one-row product takes another BLAS path), so the window sets' values are
# exact: equal bits then mean the same rows, taps, padding and bias
EXACT_SLOPE = 0.5


@examples(300)
@given(windows=window_sets())
def test_windows_equal_conv_leaky_cl_on_each_window(windows):
    check_windows(windows, EXACT_SLOPE)


@st.composite
def lstm_inputs(draw):
    """LSTM parameters of hidden size 1-4 over 1-3 parts of 1-5 columns,
    (N, T) of 1-4 x 1-6, each with a mask of dropout rate 0.35 or none,
    and a gradient for h_T."""
    dtype = draw(st.sampled_from(DTYPES))
    n, t_len, hs = draw(st.integers(1, 4)), draw(st.integers(1, 6)), draw(st.integers(1, 4))
    widths = draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
    masked = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    params = LstmParams("lstm", sum(widths), hs, rng, dtype)
    for q in (params.b_ih, params.b_hh):
        q.data = (0.5 * rng.standard_normal(4 * hs)).astype(dtype)
    parts = [rng.standard_normal((n, t_len, w)).astype(dtype) for w in widths]
    masks = [((rng.random(p.shape) >= 0.35) / (1 - 0.35)).astype(dtype)
             for p in parts] if masked else None
    return params, parts, masks, rng.standard_normal((n, hs)).astype(dtype)


@examples(300)
@given(inputs=lstm_inputs())
def test_lstm_parts_equal_one_premasked_part(inputs):
    check_lstm_parts(*inputs)


MISFITS = ("bias", "channels", "kernel width", "kernel height")


def misfit(windows, kind, at):
    """``windows.layers`` with layer ``at`` made not to fit ``kind``, and the
    message it must raise; None where ``kind`` cannot be made there."""
    layers = list(windows.layers)
    w, b, pad = layers[at]
    o, c, kh, kw = w.shape
    t_len, cols = windows.index.shape[1], windows.rows.shape[1]
    for w_before, _, (before, after) in layers[:at]:
        t_len, cols = t_len + before + after - w_before.shape[2] + 1, cols // w_before.shape[3]
    if kind == "bias":
        layers[at] = (w, np.zeros(o + 1, b.dtype), pad)
        return layers, "bias shape"
    if kind == "channels":
        layers[at] = (np.zeros((o, c + 1, kh, kw), w.dtype), b, pad)
        return layers, f"reads {c + 1} channels, its input has {c}"
    if kind == "kernel width":
        # wider than the row, so no count of its columns makes the row
        layers[at] = (np.zeros((o, c, kh, cols + 1), w.dtype), b, pad)
        return layers, f"row width {cols * c} not a multiple of kernel width {cols + 1}"
    layers[at] = (np.zeros((o, c, t_len + sum(pad) + 1, kw), w.dtype), b, pad)
    return layers, "kernel longer than padded time axis"


@examples(200)
@given(windows=window_sets(), kind=st.sampled_from(MISFITS), data=st.data())
def test_misfit_shape_raises_shape_mismatch(windows, kind, data):
    at = data.draw(st.integers(0, len(windows.layers) - 1))
    layers, message = misfit(windows, kind, at)
    with pytest.raises(ShapeMismatch, match=f"conv_leaky_windows {message}"):
        rows, shared, index = windows.rows, windows.shared, windows.index
        for w, b, pad in layers:
            rows, shared, index = conv_leaky_windows(rows, shared, index, w, b, SLOPE, pad)
    x = Tensor(windows.rows[windows.index].reshape(windows.index.shape + (-1,)))
    layers = [(Tensor(w), Tensor(b), pad) for w, b, pad in layers]
    # the flat rows of conv_leaky_cl hide the first layer's channel count
    if kind != "channels" or at > 0:
        cut = data.draw(st.integers(0, len(layers) - 1))
        with pytest.raises(ShapeMismatch, match=f"conv_leaky_cl layer {at} {message}"):
            conv_leaky_cl(x, segments(layers, cut), SLOPE)
    empty = data.draw(st.sampled_from([[], [[]], [layers, []], [[], layers]]))
    with pytest.raises(ShapeMismatch, match="conv_leaky_cl needs one or more non-empty"):
        conv_leaky_cl(x, empty, SLOPE)


@examples(100)
@given(inputs=lstm_inputs(), data=st.data())
def test_lstm_misfit_shape_raises_shape_mismatch(inputs, data):
    params, parts, _, _ = inputs
    # one part one longer along N or T than the others, or one more input
    # column than the parameters take
    bad = data.draw(st.integers(0, len(parts) - 1))
    axis = data.draw(st.sampled_from([0, 1, 2] if len(parts) > 1 else [2]))
    shape = list(parts[bad].shape)
    shape[axis] += 1
    tensors = [Tensor(np.zeros(shape) if i == bad else p) for i, p in enumerate(parts)]
    with pytest.raises(ShapeMismatch, match="differ in" if axis < 2 else "input size"):
        lstm(tensors, params)
    with pytest.raises(ShapeMismatch, match="input size"):
        lstm_last(np.zeros((shape[1], shape[0], params.input_size + 1)), params)
