"""Minimal dense-tensor engine with reverse-mode differentiation.

Supplies exactly the layers the classifier needs: a fused channels-last
convolution + LeakyReLU over the heads' (N, T, W*C) rows, optionally led
by a second such layer in the same tape node (plus a tape-free form over a
table of distinct rows and an index map of each window's rows into it,
which runs every head layer in eval), concat, a single-layer LSTM
as one fused op with hand-written backpropagation through time (plus a
tape-free forward for eval), dense (add, matmul and transpose), inverted
dropout as one tape node, stabilized softmax cross-entropy, an AdamW step
with decoupled weight decay, and a central finite-difference gradient
checker. Convolution weights are (O, C, kh, kw).

``conv_leaky_cl`` keeps for backward only what the tape holds anyway: its
output gives the LeakyReLU's sign, and a leading layer's output, never
kept, is computed again one sample at a time. It runs its per-sample loop
over contiguous blocks of samples on a small thread pool (numpy releases
the interpreter lock in matmul and in ufuncs over large arrays). Forward
samples are independent. In backward each block writes its samples' input
gradients and one weight and bias gradient partial per sample, and the
calling thread adds the partials in sample order, so every result is
bit-identical whatever the pool size. Eval's tape-free heads
(``HlobModel.head_sequences``) run their blocks of windows on the same
pool, each block writing its own windows' sequences. The pool has
``HEAD_WORKERS`` threads, including the caller: ``min(4, cpus //
blas_threads)``, so that the head blocks and the BLAS threads together do
not oversubscribe the CPUs the process may run on.

Training runs in float32 by default; gradient-check suites build in float64
for finite-difference headroom.
"""

from __future__ import annotations

import concurrent.futures
import os

import numpy as np

from .errors import BadLabel, ShapeMismatch


class Tensor:
    """Dense n-d array participating in a reverse-mode tape."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, parents=(), backward_fn=None):
        self.data = np.asarray(data)
        self.grad = None
        self.requires_grad = requires_grad or any(p.requires_grad for p in parents)
        self._parents = parents
        self._backward = backward_fn

    @property
    def shape(self):
        return self.data.shape

    def backward(self):
        if self.data.size != 1:
            raise ShapeMismatch("backward() requires a scalar")
        # depth-first post-order, kept on an explicit stack so that a deep
        # graph cannot exhaust Python's recursion limit
        order = []
        seen = {id(self)}
        stack = [(self, iter(self._parents))]
        while stack:
            node, parents = stack[-1]
            for p in parents:
                if id(p) not in seen:
                    seen.add(id(p))
                    stack.append((p, iter(p._parents)))
                    break
            else:
                stack.pop()
                order.append(node)
        for node in order:
            node.grad = None
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
            if node._parents:
                # intermediate: its gradient and closure (which may hold
                # large buffers such as convolution patches) are spent
                node.grad = None
                node._parents = ()
                node._backward = None

    def _accumulate(self, g, owned=False):
        """Add ``g`` to the gradient; an ``owned`` array is fresh and is kept
        rather than copied when it is the first contribution."""
        if self.grad is None:
            if owned and g.dtype == self.data.dtype:
                self.grad = g
            else:
                self.grad = np.array(g, dtype=self.data.dtype)
        else:
            self.grad += g


def _unbroadcast(g, shape):
    """Reduce a gradient back to a broadcast operand's shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def add(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data + b.data, parents=(a, b))

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.shape))

    out._backward = backward
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape[-1] != b.data.shape[0]:
        raise ShapeMismatch(f"matmul {a.shape} @ {b.shape}")
    out = Tensor(a.data @ b.data, parents=(a, b))

    def backward(g):
        if a.requires_grad:
            a._accumulate(g @ b.data.T)
        if b.requires_grad:
            b._accumulate(a.data.T @ g)

    out._backward = backward
    return out


def concat(tensors, axis: int) -> Tensor:
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis),
                 parents=tuple(tensors))
    offsets = np.cumsum([0] + [t.data.shape[axis] for t in tensors])

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                t._accumulate(g[tuple(idx)])

    out._backward = backward
    return out


# the environment variables OpenBLAS reads its thread count from, in its order
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
MAX_HEAD_WORKERS = 4
# a sample of fewer input plus output elements than this runs serially:
# handing it to another thread costs more than its GEMMs (training on short
# windows)
MIN_THREADED_SAMPLE = 1 << 16


def cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity masks on this platform
        return os.cpu_count() or 1


def blas_threads(environ, cpus: int) -> int:
    """OpenBLAS's thread count: the first positive integer among
    ``BLAS_THREAD_VARS``, else its default of one thread per CPU."""
    for var in BLAS_THREAD_VARS:
        try:
            threads = int(environ.get(var, ""))
        except ValueError:
            continue
        if threads > 0:
            return threads
    return cpus


def head_workers(cpus: int, blas: int) -> int:
    """Threads for the head convolutions, the calling thread included."""
    return max(1, min(MAX_HEAD_WORKERS, cpus // blas))


CPUS = cpu_count()
BLAS_THREADS = blas_threads(os.environ, CPUS)
HEAD_WORKERS = head_workers(CPUS, BLAS_THREADS)
_pool: concurrent.futures.ThreadPoolExecutor | None = None


def _sample_blocks(body, n: int, sample_elements: int) -> None:
    """Run ``body(lo, hi)`` over samples [0, n) in contiguous blocks.

    A sample is whatever unit ``body`` takes: a batch sample of
    ``conv_leaky_cl``, or a block of eval windows. The calling thread runs
    the first block and the head pool the others, when there are
    ``n >= 2`` samples of at least ``MIN_THREADED_SAMPLE`` input plus
    output elements each; otherwise one call covers all of them. Once
    every block has finished, the exception of the first block that raised
    is raised.
    """
    global _pool
    workers = min(HEAD_WORKERS, n) if sample_elements >= MIN_THREADED_SAMPLE else 1
    if workers <= 1:
        body(0, n)
        return
    if _pool is None:
        # threads start on demand, so a smaller HEAD_WORKERS starts fewer
        _pool = concurrent.futures.ThreadPoolExecutor(
            MAX_HEAD_WORKERS - 1, thread_name_prefix="hloblab-heads")
    bounds = [n * b // workers for b in range(workers + 1)]
    futures = [_pool.submit(body, lo, hi) for lo, hi in zip(bounds[1:-1], bounds[2:])]
    try:
        body(0, bounds[1])
    finally:
        concurrent.futures.wait(futures)
    for future in futures:
        future.result()


def _tap_matrices(weight: np.ndarray) -> list[np.ndarray]:
    """Each time tap i of (O, C, kh, kw) weights as a (kw*C, O) matrix, its
    rows ordered like a channels-last input row reshaped to (W/kw, kw*C)."""
    o, c, kh, kw = weight.shape
    return [weight[:, :, i, :].transpose(2, 1, 0).reshape(kw * c, o)
            for i in range(kh)]


class _ConvLayer:
    """One channels-last convolution + LeakyReLU of :func:`conv_leaky_cl`,
    run one sample's rows at a time.

    A sample's input is its (T*W/kw, kw*C) rows and its output the
    (To*W/kw, O) rows. Backward writes the sample's bias gradient and
    per-tap weight gradient as partials, which :meth:`add_partials` sums.
    """

    def __init__(self, weight: Tensor, bias: Tensor, slope: float, time_pad,
                 t_len: int, width: int, in_dtype):
        o, c, kh, kw = weight.data.shape
        pb, pa = time_pad
        k = kw * c
        if bias.data.shape != (o,):
            raise ShapeMismatch(f"conv_leaky_cl bias shape {bias.data.shape}, expected ({o},)")
        if width % k != 0:
            raise ShapeMismatch(f"conv_leaky_cl row width {width} not a multiple of "
                                f"kernel width {kw} x {c} channels")
        t_out = t_len + pb + pa - kh + 1
        if t_out < 1:
            raise ShapeMismatch("kernel longer than padded time axis")
        wo = width // k
        self.weight, self.bias, self.slope = weight, bias, slope
        self.taps = _tap_matrices(weight.data)
        self.dtype = np.result_type(in_dtype, self.taps[0])
        self.plain = kh == 1 and pb == pa == 0
        self.t_out, self.width_out = t_out, wo * o
        self.rows_in = (t_len * wo, k)
        self.rows_out = (t_out * wo, o)
        self.spans = []
        for i in range(kh):
            # the output and input rows of a sample that tap i connects
            lo, hi = max(0, pb - i), min(t_out, t_len + pb - i)
            self.spans.append((slice(lo * wo, hi * wo),
                               slice((lo + i - pb) * wo, (hi + i - pb) * wo)))
        self.gb_parts = self.gw_parts = None

    def tap_buffer(self, dtype, backward=False):
        """Scratch for one tap's product: (T*W/kw, O) in forward,
        (To*W/kw, kw*C) in backward; a plain layer needs none."""
        if self.plain:
            return None
        if backward:
            return np.empty((self.rows_out[0], self.rows_in[1]), dtype)
        return np.empty((self.rows_in[0], self.rows_out[1]), dtype)

    def forward(self, xs, ys, tap_out) -> None:
        """Write the LeakyReLU of sample rows ``xs``' convolution to ``ys``."""
        if self.plain:
            np.matmul(xs, self.taps[0], out=ys)
            ys += self.bias.data
        else:
            ys[...] = self.bias.data
            for tap, (out_r, in_r) in zip(self.taps, self.spans):
                np.matmul(xs, tap, out=tap_out)
                ys[out_r] += tap_out[in_r]
        np.maximum(ys, ys * self.slope, out=ys)

    def start_backward(self, n: int, dtype) -> None:
        """Make the per-sample partials of the parameters that need gradients."""
        o = self.rows_out[1]
        self.gb_parts = np.empty((n, o), dtype) if self.bias.requires_grad else None
        self.gw_parts = (np.empty((n, len(self.taps), self.rows_in[1], o), dtype)
                         if self.weight.requires_grad else None)

    def backward(self, s: int, xs, ys, g, gz, gx, tap_out) -> None:
        """Sample ``s``'s partials, and its input gradient into ``gx`` unless
        that is None, from its input rows ``xs``, its output ``ys`` and the
        output's gradient ``g``. ``gz`` (To*W/kw, O) and ``tap_out``
        (:meth:`tap_buffer`) are scratch.

        The LeakyReLU's derivative is taken as 1 where the output is >= 0,
        -0.0 included, and ``slope`` elsewhere, NaN included; with a
        positive slope the output has its input's sign.
        """
        np.greater_equal(ys, 0, out=gz)
        gz *= 1.0 - self.slope
        gz += self.slope
        gz *= g
        if self.gb_parts is not None:
            self.gb_parts[s] = gz.sum(axis=0)
        if self.gw_parts is not None:
            for i, (out_r, in_r) in enumerate(self.spans):
                self.gw_parts[s, i] = xs[in_r].T @ gz[out_r]
        if gx is None:
            return
        if self.plain:
            np.matmul(gz, self.taps[0].T, out=gx)
        else:
            gx[...] = 0
            for tap, (out_r, in_r) in zip(self.taps, self.spans):
                np.matmul(gz, tap.T, out=tap_out)
                gx[in_r] += tap_out[out_r]

    def add_partials(self) -> None:
        """Add each parameter's partials in sample order into its gradient."""
        o, c, kh, kw = self.weight.data.shape
        for param, parts in ((self.bias, self.gb_parts), (self.weight, self.gw_parts)):
            if parts is None:
                continue
            total = np.zeros(parts.shape[1:], parts.dtype)
            for part in parts:
                total += part
            if param is self.weight:
                total = total.reshape(kh, kw, c, o).transpose(3, 2, 0, 1)
            param._accumulate(total)
        self.gb_parts = self.gw_parts = None


def conv_leaky_cl(x: Tensor, weight: Tensor, bias: Tensor, slope: float,
                  time_pad=(0, 0), first=None) -> Tensor:
    """LeakyReLU of a channels-last convolution, fused into one tape node.

    ``x`` is (N, T, W*C): each time row holds W columns of C channels, C
    read from ``weight`` (O, C, kh, kw). The kernel tiles W with stride kw;
    along T it slides at stride 1 over ``time_pad`` = (before, after)
    zeros. Each of the kh time taps is one GEMM over a sample's
    (T*W/kw, kw*C) rows, shift-added into the (N, To, W/kw*O) output, the
    layout the next layer takes, so no padded copy or patch matrix is built.
    Backward keeps no LeakyReLU mask: the output it holds has the sign.

    ``first`` = (weight, bias) of an unpadded kh = 1 layer puts that layer,
    with its own LeakyReLU, in front of this one in the same node: it reads
    ``x``, and the main layer reads its output, which is made one sample at
    a time in a scratch buffer and never kept. Backward runs the leading
    layer again on each sample before the two layers' backward steps. The
    output and every gradient equal those of two chained nodes bit for bit.

    Forward and backward run over contiguous sample blocks, on the head
    pool when the samples are large enough (see ``_sample_blocks``).
    Backward writes each sample's bias gradient and per-tap weight gradient
    as its own partial, and adds the partials into zeroed sums in sample
    order afterwards, which is the add order of a single serial loop.
    """
    n, t_len, width = x.data.shape
    lead = None
    if first is not None:
        if first[0].data.shape[2] != 1:
            raise ShapeMismatch(f"conv_leaky_cl leading kernel {first[0].data.shape[2:]}, "
                                "expected a single time tap")
        lead = _ConvLayer(*first, slope, (0, 0), t_len, width, x.data.dtype)
        o0, c = lead.rows_out[1], weight.data.shape[1]
        if o0 != c:
            raise ShapeMismatch(f"conv_leaky_cl leading layer has {o0} outputs, "
                                f"the main layer reads {c} channels")
        width = lead.width_out
    main = _ConvLayer(weight, bias, slope, time_pad, t_len, width,
                      x.data.dtype if lead is None else lead.dtype)
    # the work runs one sample at a time so that each GEMM's output, the
    # shift-adds and the LeakyReLU passes over it stay in cache
    xs = x.data.reshape((n,) + (main if lead is None else lead).rows_in)
    y = np.empty((n,) + main.rows_out, main.dtype)
    sample_elements = xs[0].size + y[0].size + (0 if lead is None else t_len * width)

    def lead_rows(s, h):
        """Sample ``s``'s leading-layer output, written to ``h``, as the main
        layer's input rows."""
        lead.forward(xs[s], h, None)
        return h.reshape(main.rows_in)

    def forward_block(lo, hi):
        tap_out = main.tap_buffer(y.dtype)
        h = None if lead is None else np.empty(lead.rows_out, lead.dtype)
        for s in range(lo, hi):
            main.forward(xs[s] if lead is None else lead_rows(s, h), y[s], tap_out)

    _sample_blocks(forward_block, n, sample_elements)
    parents = (x, weight, bias) if lead is None else (x, *first, weight, bias)
    out = Tensor(y.reshape(n, main.t_out, main.width_out), parents=parents)

    def backward(g):
        g = g.reshape(y.shape)
        gx = np.empty(xs.shape, g.dtype) if x.requires_grad else None
        main.start_backward(n, g.dtype)
        if lead is not None:
            lead.start_backward(n, g.dtype)

        def backward_block(lo, hi):
            gz = np.empty(main.rows_out, g.dtype)
            tap_out = main.tap_buffer(g.dtype, backward=True)
            if lead is not None:
                h = np.empty(lead.rows_out, lead.dtype)
                # the main layer's input gradient, and the leading layer's gz
                gh, gz_lead = (np.empty(lead.rows_out, g.dtype) for _ in range(2))
            for s in range(lo, hi):
                gx_s = None if gx is None else gx[s]
                if lead is None:
                    main.backward(s, xs[s], y[s], g[s], gz, gx_s, tap_out)
                    continue
                main.backward(s, lead_rows(s, h), y[s], g[s], gz,
                              gh.reshape(main.rows_in), tap_out)
                lead.backward(s, xs[s], h, gh, gz_lead, gx_s, None)

        _sample_blocks(backward_block, n, sample_elements)
        main.add_partials()
        if lead is not None:
            lead.add_partials()
        if gx is not None:
            x._accumulate(gx.reshape(x.data.shape), owned=True)

    out._backward = backward
    return out


def dense(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine map of (N,I) by (O,I) weights."""
    if x.data.shape[-1] != weight.data.shape[1]:
        raise ShapeMismatch(f"dense {x.shape} with weight {weight.shape}")
    return add(matmul(x, transpose(weight)), bias)


def transpose(x: Tensor) -> Tensor:
    out = Tensor(x.data.T, parents=(x,))

    def backward(g):
        if x.requires_grad:
            x._accumulate(g.T)

    out._backward = backward
    return out


def dropout(x: Tensor, rate: float, train: bool,
            rng: np.random.Generator | None = None, draw_axes=None) -> Tensor:
    """Inverted dropout: identity in eval mode, rescaled mask in train mode.

    ``draw_axes`` draws the mask over ``x``'s axes in that order and
    transposes it back, so a layout change can keep the random stream.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate {rate} outside [0, 1)")
    if not train or rate == 0.0:
        return x
    if rng is None:
        rng = np.random.default_rng()
    axes = tuple(range(x.data.ndim)) if draw_axes is None else tuple(draw_axes)
    keep = rng.random(tuple(x.shape[a] for a in axes)) >= rate
    mask = keep.transpose(np.argsort(axes)).astype(x.data.dtype) / (1.0 - rate)
    out = Tensor(x.data * mask, parents=(x,))

    def backward(g):
        if x.requires_grad:
            x._accumulate(g * mask, owned=True)

    out._backward = backward
    return out


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_cross_entropy(logits: Tensor, class_ids: np.ndarray) -> Tensor:
    """Mean negative log-softmax of the true class, max-subtraction stabilized."""
    class_ids = np.asarray(class_ids)
    n, k = logits.data.shape
    if class_ids.shape != (n,):
        raise ShapeMismatch(f"labels shape {class_ids.shape}, logits {logits.shape}")
    if np.any((class_ids < 0) | (class_ids >= k)):
        raise BadLabel(f"class ids must be in [0, {k})")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(z).sum(axis=1))
    loss = float(np.mean(logsumexp - z[np.arange(n), class_ids]))
    out = Tensor(np.array(loss, dtype=logits.data.dtype), parents=(logits,))

    def backward(g):
        if logits.requires_grad:
            p = softmax(logits.data)
            p[np.arange(n), class_ids] -= 1.0
            logits._accumulate(g * p / n)

    out._backward = backward
    return out


class Parameter:
    """A named trainable tensor with AdamW moment buffers."""

    def __init__(self, name: str, data: np.ndarray):
        self.name = name
        self.tensor = Tensor(data, requires_grad=True)
        self.m = np.zeros_like(data)
        self.v = np.zeros_like(data)

    @property
    def data(self):
        return self.tensor.data

    @data.setter
    def data(self, value):
        self.tensor.data = value


def uniform_init(rng: np.random.Generator, shape, fan_in: int, dtype) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


class AdamW:
    """Adam with decoupled weight decay and bias-corrected moments."""

    def __init__(self, params: list[Parameter], lr: float = 6e-5,
                 beta1: float = 0.90, beta2: float = 0.95,
                 eps: float = 1e-8, weight_decay: float = 0.01):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0

    def step(self):
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for p in self.params:
            g = p.tensor.grad
            if g is None:
                g = np.zeros_like(p.data)
            p.m = self.beta1 * p.m + (1.0 - self.beta1) * g
            p.v = self.beta2 * p.v + (1.0 - self.beta2) * g * g
            m_hat = p.m / bc1
            v_hat = p.v / bc2
            p.data = p.data - self.lr * (
                m_hat / (np.sqrt(v_hat) + self.eps) + self.weight_decay * p.data
            )


class LstmParams:
    """Single-layer LSTM weights in gate order (i, f, g, o), two bias vectors."""

    def __init__(self, name: str, input_size: int, hidden_size: int,
                 rng: np.random.Generator, dtype=np.float32):
        h = hidden_size
        self.input_size = input_size
        self.hidden_size = h
        self.w_ih = Parameter(f"{name}.w_ih",
                              uniform_init(rng, (4 * h, input_size), input_size, dtype))
        self.w_hh = Parameter(f"{name}.w_hh",
                              uniform_init(rng, (4 * h, h), h, dtype))
        self.b_ih = Parameter(f"{name}.b_ih", np.zeros(4 * h, dtype))
        self.b_hh = Parameter(f"{name}.b_hh", np.zeros(4 * h, dtype))

    def parameters(self) -> list[Parameter]:
        return [self.w_ih, self.w_hh, self.b_ih, self.b_hh]


def lstm(x: Tensor, params: LstmParams) -> tuple[Tensor, Tensor]:
    """Run a single-layer LSTM over (N, T, I); returns (outputs, h_T).

    The forward keeps the gate activations (T, N, 4H), the cell states and
    tanh(c); backward is hand-written backpropagation through time over them
    (Greff et al., arXiv:1503.04069). Each returned tensor is one tape node
    whose backward runs that BPTT from its own gradient, so a loss that reads
    only ``h_T`` puts a single LSTM node on the tape.
    """
    n, t_len, i_size = x.data.shape
    if i_size != params.input_size:
        raise ShapeMismatch(f"lstm input size {i_size}, expected {params.input_size}")
    hs = params.hidden_size
    w_ih, w_hh = params.w_ih.data, params.w_hh.data
    dtype = x.data.dtype
    act = np.empty((t_len, n, 4 * hs), dtype)
    # c[t + 1] and h[t + 1] are the states after step t; row 0 is the zero start
    c = np.zeros((t_len + 1, n, hs), dtype)
    h = np.zeros((t_len + 1, n, hs), dtype)
    tanh_c = np.empty((t_len, n, hs), dtype)
    x_steps = _time_major(x.data)
    for t in range(t_len):
        _lstm_step(x_steps[t], h[t], c[t], params, act[t], c[t + 1], tanh_c[t],
                   h[t + 1])

    def bptt(dh_seq, dh_last):
        """Accumulate the gradients of one upstream (the other is None)."""
        dgates = np.empty_like(act)
        dh = np.zeros((n, hs), dtype) if dh_last is None else dh_last
        dc = np.zeros((n, hs), dtype)
        dact = np.empty((n, 4 * hs), dtype)
        # the weight gradients accumulate transposed, (I, 4H) and (H, 4H)
        gw_ih = np.zeros((i_size, 4 * hs), dtype)
        gw_hh = np.zeros((hs, 4 * hs), dtype)
        gb_ih = np.zeros(4 * hs, dtype)
        gb_hh = np.zeros(4 * hs, dtype)
        for t in reversed(range(t_len)):
            if dh_seq is not None:
                dh = dh + dh_seq[:, t]
            a, tc, dg = act[t], tanh_c[t], dgates[t]
            dc = dc + dh * a[:, 3 * hs:] * (1.0 - tc * tc)
            # upstream of each gate activation, then through its nonlinearity
            np.multiply(dc, a[:, 2 * hs:3 * hs], out=dact[:, :hs])
            np.multiply(dc, c[t], out=dact[:, hs:2 * hs])
            np.multiply(dc, a[:, :hs], out=dact[:, 2 * hs:3 * hs])
            np.multiply(dh, tc, out=dact[:, 3 * hs:])
            np.multiply(dact, a, out=dg)
            dg *= 1.0 - a
            g_gate = a[:, 2 * hs:3 * hs]
            np.multiply(dact[:, 2 * hs:3 * hs], 1.0 - g_gate * g_gate,
                        out=dg[:, 2 * hs:3 * hs])
            gw_hh += h[t].T @ dg
            gb_hh += dg.sum(axis=0)
            dh = dg @ w_hh
            dc = dc * a[:, hs:2 * hs]
        # the input-side terms add up in the order the per-step tape
        # composition added them, which keeps trained weights bit-identical
        # to it: time order from h_T, reverse time from the outputs
        for t in range(t_len) if dh_seq is None else reversed(range(t_len)):
            gw_ih += x_steps[t].T @ dgates[t]
            gb_ih += dgates[t].sum(axis=0)
        if x.requires_grad:
            gx = (dgates.reshape(t_len * n, 4 * hs) @ w_ih).reshape(t_len, n, i_size)
            x._accumulate(gx.transpose(1, 0, 2))
        for p, g in ((params.w_ih, gw_ih.T), (params.w_hh, gw_hh.T),
                     (params.b_ih, gb_ih), (params.b_hh, gb_hh)):
            if p.tensor.requires_grad:
                p.tensor._accumulate(g, owned=True)

    parents = (x,) + tuple(p.tensor for p in params.parameters())
    outputs = Tensor(h[1:].transpose(1, 0, 2), parents=parents,
                     backward_fn=lambda g: bptt(g, None))
    h_last = Tensor(h[t_len], parents=parents,
                    backward_fn=lambda g: bptt(None, g))
    return outputs, h_last


def lstm_last(x: np.ndarray, params: LstmParams) -> np.ndarray:
    """The final hidden state (N, H) of :func:`lstm` over (N, T, I), with no tape.

    Only the current step's state is kept, so a batch of any size costs
    (N, 4H) of scratch beside the (T, N, I) time-major copy of ``x``.
    """
    n, t_len, i_size = x.shape
    if i_size != params.input_size:
        raise ShapeMismatch(f"lstm input size {i_size}, expected {params.input_size}")
    hs = params.hidden_size
    act = np.empty((n, 4 * hs), x.dtype)
    tanh_c = np.empty((n, hs), x.dtype)
    h = np.zeros((n, hs), x.dtype)
    c = np.zeros((n, hs), x.dtype)
    for x_t in _time_major(x):
        _lstm_step(x_t, h, c, params, act, c, tanh_c, h)
    return h


def _time_major(x: np.ndarray) -> np.ndarray:
    """(N, T, I) as a contiguous (T, N, I) copy, so each step's rows are adjacent."""
    return np.ascontiguousarray(x.transpose(1, 0, 2))


def _lstm_step(x_t, h, c, params: LstmParams, act, c_out, tanh_c, h_out) -> None:
    """One LSTM step from state (h, c) on input x_t, all (N, .) arrays.

    Writes the gate activations (i, f, g, o) to ``act`` (N, 4H) and the new
    cell state, its tanh and the new hidden state to the three (N, H)
    outputs, which may be ``h`` and ``c`` themselves. The gate
    pre-activation adds in the order (x_t W_ih^T + b_ih) + (h W_hh^T + b_hh).
    """
    hs = c.shape[1]
    np.add(x_t @ params.w_ih.data.T + params.b_ih.data,
           h @ params.w_hh.data.T + params.b_hh.data, out=act)
    # exp overflows to inf below about -88 in float32, and 1 / inf is the
    # sigmoid's exact limit 0
    with np.errstate(over="ignore"):
        for block in (act[:, :2 * hs], act[:, 3 * hs:]):
            block[...] = 1.0 / (1.0 + np.exp(-block))
    g_gate = act[:, 2 * hs:3 * hs]
    g_gate[...] = np.tanh(g_gate)
    np.multiply(act[:, hs:2 * hs], c, out=c_out)
    c_out += act[:, :hs] * g_gate
    np.tanh(c_out, out=tanh_c)
    np.multiply(act[:, 3 * hs:], tanh_c, out=h_out)


def conv_leaky_windows(rows: np.ndarray, shared: int, index: np.ndarray,
                       weight: np.ndarray, bias: np.ndarray, slope: float, time_pad
                       ) -> tuple[np.ndarray, int, np.ndarray]:
    """:func:`conv_leaky_cl` over N windows that share rows, with no tape.

    ``rows`` is an (M, W, C) table of every distinct input row and ``index``
    the (N, T) map of the windows onto it: window i's row r is
    ``rows[index[i, r]]``. The first ``shared`` rows are a run that the
    windows share; any other row is one window's own, and each window's
    shared rows are consecutive in the run. The output comes in the same
    form, ``(rows, shared, index)``: first the unpadded convolution of the
    run, then, for each output row whose taps reach a window's zero padding
    or an own row, that row of every window.

    Each tap is one GEMM over all M rows; the run's outputs add shifted
    slices of the product, and the other output rows gather theirs through
    ``index``. Every output row starts at the bias and adds its taps in
    order, skipping those on padding, which is :func:`conv_leaky_cl`'s add
    order: each window's rows are bit-identical to it.
    """
    m, w_, c = rows.shape
    o, _, kh, kw = weight.shape
    before, after = time_pad
    n, t_len = index.shape
    wo, k = w_ // kw, kw * c
    t_out = t_len + before + after - kh + 1
    # the output rows whose taps reach padding or an own row of some window
    away = np.pad((index >= shared).any(axis=0), time_pad, constant_values=True)
    edge_rows = np.flatnonzero(
        np.lib.stride_tricks.sliding_window_view(away, kh).any(axis=1))
    n_out = max(0, shared - kh + 1)
    out = np.empty((n_out + len(edge_rows) * n, wo, o), np.result_type(rows, weight))
    out[...] = bias
    run_out = out[:n_out]
    edge_out = out[n_out:].reshape(len(edge_rows), n, wo, o)
    product = np.empty((m, wo, o), out.dtype)
    for i, tap in enumerate(_tap_matrices(weight)):
        np.matmul(rows.reshape(m * wo, k), tap, out=product.reshape(m * wo, o))
        run_out += product[i:i + n_out]
        for y, r in zip(edge_out, (edge_rows + i - before).tolist()):
            if 0 <= r < t_len:
                y += product[index[:, r]]
    # free the product before the LeakyReLU's temporaries, and take those
    # one slab at a time, to keep the peak memory down
    del product
    for y in (run_out, *edge_out):
        np.maximum(y, y * slope, out=y)
    # the run's output row j reads input rows j to j + kh - 1, so a window's
    # output row r off the edges is the run's at its input row r - before
    out_index = np.pad(index, ((0, 0), time_pad))[:, :t_out]
    out_index[:, edge_rows] = np.arange(n_out, len(out)).reshape(-1, n).T
    return out, n_out, out_index


def grad_check(f, x: Tensor, h: float = 1e-4, coords=None) -> float:
    """Max relative error between reverse-mode and central finite differences.

    ``coords`` optionally restricts the check to a subset of flat indices of
    ``x`` (finite differences cost two evaluations per coordinate).
    """
    x.requires_grad = True
    out = f(x)
    out.backward()
    analytic = np.zeros_like(x.data) if x.grad is None else x.grad.copy()

    flat = x.data.reshape(-1)
    if coords is None:
        coords = range(flat.size)
    max_err = 0.0
    for i in coords:
        orig = flat[i]
        flat[i] = orig + h
        f_plus = float(f(x).data.reshape(()))
        flat[i] = orig - h
        f_minus = float(f(x).data.reshape(()))
        flat[i] = orig
        numeric = (f_plus - f_minus) / (2.0 * h)
        a = float(analytic.reshape(-1)[i])
        denom = max(abs(a), abs(numeric), 1e-12)
        max_err = max(max_err, abs(a - numeric) / denom)
    return max_err
