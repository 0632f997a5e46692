"""Minimal dense-tensor engine with reverse-mode differentiation.

Supplies exactly the layers the classifier needs: chains of fused
channels-last convolution + LeakyReLU layers over the heads' (N, T, W*C)
rows as one tape node (plus a tape-free form of one layer over a table of
distinct rows and an index map of each window's rows into it, which runs
every head layer in eval), a single-layer LSTM's final hidden
state as one fused op with hand-written backpropagation through time, which
takes the heads' outputs as they are and writes them side by side, each
times its inverted-dropout mask in training, into the time-major layout its
steps read (plus a tape-free forward for eval, which reads time-major input
in place), dense (add, matmul and transpose), stabilized softmax
cross-entropy, an AdamW step with decoupled weight decay, and a central
finite-difference gradient checker. Convolution weights are (O, C, kh, kw).

``conv_leaky_cl`` keeps for backward its input, its output, which gives the
last LeakyReLU's sign, and the last output of each chain (segment) but the
last, in a private buffer. The other layers' outputs, never kept, are
computed again one sample at a time from the kept output before them, and
the gradient between two layers passes in per-sample scratch, never as a
whole-batch array. ``Tensor.backward`` releases each node once its
backward has run, so a spent activation and its closure's buffers are
freed during the backward pass, not after it. ``conv_leaky_cl`` runs its
per-sample loop
over contiguous blocks of samples on a small thread pool (numpy releases
the interpreter lock in matmul and in ufuncs over large arrays). Forward
samples are independent. In backward each block writes its samples' input
gradients and one weight and bias gradient partial per sample, and the
calling thread adds the partials in sample order, so every result is
bit-identical whatever the pool size. Eval's tape-free heads
(``HlobModel.head_sequences``) run their blocks of windows on the same
pool, each block writing its own windows' sequences. The pool has
``HEAD_WORKERS`` threads, including the caller: one per CPU the process
may run on, at most 4. Importing the package pins OpenBLAS to one thread,
so the pool's threads do not share the CPUs with BLAS threads.

Training runs in float32 by default, and ``train`` casts the book rows to
the model's dtype before the head gather, so no float64 head input is made;
gradient-check suites build in float64 for finite-difference headroom.
"""

from __future__ import annotations

import concurrent.futures
import os

import numpy as np

from .errors import BadLabel, ShapeMismatch


class Tensor:
    """Dense n-d array participating in a reverse-mode tape."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, parents=()):
        self.data = np.asarray(data)
        self.grad = None
        self.requires_grad = requires_grad or any(p.requires_grad for p in parents)
        self._parents = parents
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    def backward(self):
        """Reverse-mode gradients of this scalar into every tensor it reads.

        Each node's backward is handed the node's own gradient, which is
        dropped after the call. A spent node drops its gradient, parents
        and closure, and the walk lets go of it, so an intermediate tensor,
        its data and the buffers its closure held are freed before this
        returns; one the caller holds keeps its data.
        """
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
        # popping, not iterating, leaves ``order`` no reference to a spent node
        while order:
            node = order.pop()
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


CPUS = cpu_count()
HEAD_WORKERS = min(MAX_HEAD_WORKERS, CPUS)
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

    @staticmethod
    def geometry(weight_shape, bias_shape, time_pad, t_len: int, width: int,
                 where: str, channels=None) -> tuple[int, int, int]:
        """(To, W/kw, kw*C) of a layer of (O, C, kh, kw) weights over rows of
        ``width`` = W*C, ``channels`` = C when the caller knows it.

        A shape that does not fit raises :class:`ShapeMismatch`, its message
        led by ``where``: a bias that is not (O,), input of other than C
        channels, a width that is not whole kernel columns of kw x C, or a
        kernel that leaves no output row.
        """
        o, c, kh, kw = weight_shape
        k = kw * c
        if bias_shape != (o,):
            raise ShapeMismatch(f"{where} bias shape {bias_shape}, expected ({o},)")
        if channels not in (None, c):
            raise ShapeMismatch(f"{where} reads {c} channels, its input has {channels}")
        if width % k != 0:
            raise ShapeMismatch(f"{where} row width {width} not a multiple of "
                                f"kernel width {kw} x {c} channels")
        t_out = t_len + sum(time_pad) - kh + 1
        if t_out < 1:
            raise ShapeMismatch(f"{where} kernel longer than padded time axis")
        return t_out, width // k, k

    def __init__(self, weight: Tensor, bias: Tensor, slope: float, time_pad,
                 t_len: int, width: int, in_dtype, where: str, channels=None):
        t_out, wo, k = self.geometry(weight.data.shape, bias.data.shape, time_pad,
                                     t_len, width, where, channels)
        o, _, kh, _ = weight.data.shape
        pb, pa = time_pad
        self.weight, self.bias, self.slope = weight, bias, slope
        self.taps = _tap_matrices(weight.data)
        self.dtype = np.result_type(in_dtype, self.taps[0])
        self.plain = kh == 1 and pb == pa == 0
        self.t_out, self.width_out = t_out, wo * o
        self.rows_in = (t_len * wo, k)
        self.rows_out = (t_out * wo, o)
        self.spans = []
        for i in range(kh):
            # the output and input rows of a sample that tap i connects; a
            # tap that reaches only padding connects none
            lo = max(0, pb - i)
            hi = max(lo, min(t_out, t_len + pb - i))
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
        output's gradient ``g``. ``gz`` (To*W/kw, O), which may be ``ys``
        itself, takes the LeakyReLU's gradient; ``tap_out``
        (:meth:`tap_buffer`) is scratch.

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


def conv_leaky_cl(x: Tensor, segments, slope: float) -> Tensor:
    """Chains of channels-last convolutions, each followed by a LeakyReLU,
    fused into one tape node.

    ``x`` is (N, T, W*C): each time row holds W columns of C channels.
    ``segments`` is a sequence of layer chains, each
    ((weight, bias, time_pad), ...); their layers run in order: the first
    reads ``x``, each next one the previous one's output, C read from its
    ``weight`` (O, C, kh, kw). A kernel tiles W with stride kw; along T it
    slides at stride 1 over ``time_pad`` = (before, after) zeros. Each of
    the kh time taps is one GEMM over a sample's (T*W/kw, kw*C) rows,
    shift-added into the (To, W/kw*O) output rows, the layout the next
    layer takes, so no padded copy or patch matrix is built. The node's
    output is the last layer's, (N, To, W/kw*O).

    The node keeps its input, its output and, in a private buffer, the last
    output of each segment but the last: a checkpoint (Chen et al.,
    arXiv:1604.06174). Every other layer's output is made one sample at a
    time in scratch and never kept. Backward works one sample at a time:
    for each segment from the last, it makes the segment's outputs again
    from the kept output before it, then runs each layer's backward step in
    reverse order, handing the gradient between layers in per-sample
    scratch. A layer's output is spent once the next layer has taken its
    weight partials and its LeakyReLU mask has been read, so every layer
    but the last writes its LeakyReLU gradient over it; the handed gradient
    and the node's output stay as they were. The output and every gradient
    equal those of one node per layer bit for bit.

    Forward and backward run over contiguous sample blocks, on the head
    pool when the samples are large enough (see ``_sample_blocks``); each
    block has its own scratch and tap buffers. Backward writes each sample's
    bias gradient and per-tap weight gradient as its own partial, and adds
    the partials into zeroed sums in sample order afterwards, which is the
    add order of a single serial loop.
    """
    if not segments or not all(segments):
        raise ShapeMismatch("conv_leaky_cl needs one or more non-empty segments")
    layers = [layer for segment in segments for layer in segment]
    n, t_len, width = x.data.shape
    convs, dtype = [], x.data.dtype
    for i, (w, b, time_pad) in enumerate(layers):
        convs.append(_ConvLayer(w, b, slope, time_pad, t_len, width, dtype,
                                f"conv_leaky_cl layer {i}",
                                convs[-1].rows_out[1] if convs else None))
        t_len, width, dtype = convs[-1].t_out, convs[-1].width_out, convs[-1].dtype
    last = convs[-1]
    # (first layer, one past the last layer) of each segment
    ends = np.cumsum([len(segment) for segment in segments]).tolist()
    bounds = list(zip([0] + ends, ends))
    # the work runs one sample at a time so that each GEMM's output, the
    # shift-adds and the LeakyReLU passes over it stay in cache
    xs = x.data.reshape((n,) + convs[0].rows_in)
    y = np.empty((n,) + last.rows_out, last.dtype)
    # each segment's last output but the last segment's, for every sample
    kept = {end - 1: np.empty((n,) + convs[end - 1].rows_out, convs[end - 1].dtype)
            for end in ends[:-1]}
    sample_elements = xs[0].size + sum(layer.t_out * layer.width_out for layer in convs)

    def block_rows(s, hs):
        """Sample ``s``'s output buffer of each layer: a kept row, ``hs``'
        scratch or ``y``'s row; and each layer's input rows, the sample's
        own or the previous layer's output as this layer takes it."""
        outs = [kept[i][s] if i in kept else hs[i] for i in range(len(convs) - 1)]
        outs.append(y[s])
        return outs, [xs[s]] + [h.reshape(after.rows_in)
                                for h, after in zip(outs, convs[1:])]

    def scratch():
        """Per-block output buffers of the layers whose outputs are not kept."""
        return {i: np.empty(layer.rows_out, layer.dtype)
                for i, layer in enumerate(convs[:-1]) if i not in kept}

    def forward_block(lo, hi):
        tap_outs = [layer.tap_buffer(layer.dtype) for layer in convs]
        hs = scratch()
        for s in range(lo, hi):
            outs, rows = block_rows(s, hs)
            for layer, x_rows, h, tap_out in zip(convs, rows, outs, tap_outs):
                layer.forward(x_rows, h, tap_out)

    _sample_blocks(forward_block, n, sample_elements)
    parents = (x, *(p for w, b, _ in layers for p in (w, b)))
    out = Tensor(y.reshape(n, last.t_out, last.width_out), parents=parents)

    def backward(g):
        g = g.reshape(y.shape)
        gx = np.empty(xs.shape, g.dtype) if x.requires_grad else None
        for layer in convs:
            layer.start_backward(n, g.dtype)

        def backward_block(lo, hi):
            hs = scratch()
            tap_outs = {i: convs[i].tap_buffer(convs[i].dtype) for i in hs}
            tap_ins = [layer.tap_buffer(g.dtype, backward=True) for layer in convs]
            # each leading layer's output gradient, which is the input
            # gradient of the layer after it; the last layer's LeakyReLU
            # gradient, which may not go over the node's output
            ghs = [np.empty(layer.rows_out, g.dtype) for layer in convs[:-1]]
            gz = np.empty(last.rows_out, g.dtype)
            grads_in = [None] + [h.reshape(after.rows_in) for h, after in zip(ghs, convs[1:])]
            for s in range(lo, hi):
                outs, rows = block_rows(s, hs)
                out_grads = ghs + [g[s]]
                grads_in[0] = None if gx is None else gx[s]
                for first, end in reversed(bounds):
                    for i in range(first, end - 1):
                        convs[i].forward(rows[i], outs[i], tap_outs[i])
                    for i in reversed(range(first, end)):
                        convs[i].backward(s, rows[i], outs[i], out_grads[i],
                                          gz if convs[i] is last else outs[i],
                                          grads_in[i], tap_ins[i])

        _sample_blocks(backward_block, n, sample_elements)
        for layer in convs:
            layer.add_partials()
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


class Parameter(Tensor):
    """A named trainable tensor with AdamW moment buffers."""

    __slots__ = ("name", "m", "v")

    def __init__(self, name: str, data: np.ndarray):
        super().__init__(data, requires_grad=True)
        self.name = name
        self.m = np.zeros_like(data)
        self.v = np.zeros_like(data)


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
            g = p.grad
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


def lstm(parts, params: LstmParams, masks=None) -> Tensor:
    """The final hidden state h_T (N, H) of a single-layer LSTM over the
    (N, T, I_k) tensors ``parts`` side by side, as one tape node; the model
    passes its heads' outputs and reads no other step's output.

    The parts are written once into the time-major (T, N, I) array the steps
    read, and backward hands each part its columns of the input gradient.
    ``masks``, one array of its part's shape per part, multiplies each part
    as it is written and each part's gradient columns (the model's inverted
    dropout), so a masked part costs no copy of its own.
    The forward keeps the gate activations (T, N, 4H), the cell states and
    tanh(c); backward is hand-written backpropagation through time over them
    (Greff et al., arXiv:1503.04069), starting from h_T's gradient.
    """
    lead = parts[0].data.shape[:2]
    if any(p.data.ndim != 3 or p.data.shape[:2] != lead for p in parts):
        raise ShapeMismatch(f"lstm input parts {[p.shape for p in parts]} differ in (N, T)")
    n, t_len = lead
    bounds = np.cumsum([0] + [p.data.shape[2] for p in parts]).tolist()
    i_size = bounds[-1]
    if i_size != params.input_size:
        raise ShapeMismatch(f"lstm input size {i_size}, expected {params.input_size}")
    # times 1, an unmasked part and its gradient are copied exactly
    masks = [1] * len(parts) if masks is None else masks
    dtype = np.result_type(*(p.data for p in parts))
    x_steps = np.empty((t_len, n, i_size), dtype)
    for p, mask, lo, hi in zip(parts, masks, bounds[:-1], bounds[1:], strict=True):
        np.multiply(p.data, mask, out=x_steps[:, :, lo:hi].transpose(1, 0, 2))
    hs = params.hidden_size
    w_ih, w_hh = params.w_ih.data, params.w_hh.data
    act = np.empty((t_len, n, 4 * hs), dtype)
    # c[t + 1] and h[t + 1] are the states after step t; row 0 is the zero start
    c = np.zeros((t_len + 1, n, hs), dtype)
    h = np.zeros((t_len + 1, n, hs), dtype)
    tanh_c = np.empty((t_len, n, hs), dtype)
    for t in range(t_len):
        _lstm_step(x_steps[t], h[t], c[t], params, act[t], c[t + 1], tanh_c[t],
                   h[t + 1])
    out = Tensor(h[t_len], parents=(*parts, *params.parameters()))

    def backward(dh):
        dgates = np.empty_like(act)
        dc = np.zeros((n, hs), dtype)
        dact = np.empty((n, 4 * hs), dtype)
        # the weight gradients accumulate transposed, (I, 4H) and (H, 4H)
        gw_ih = np.zeros((i_size, 4 * hs), dtype)
        gw_hh = np.zeros((hs, 4 * hs), dtype)
        gb_ih = np.zeros(4 * hs, dtype)
        gb_hh = np.zeros(4 * hs, dtype)
        for t in reversed(range(t_len)):
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
        # the input-side terms add up in time order, as the per-step tape
        # composition added them, which keeps trained weights bit-identical
        for t in range(t_len):
            gw_ih += x_steps[t].T @ dgates[t]
            gb_ih += dgates[t].sum(axis=0)
        if any(p.requires_grad for p in parts):
            gx = (dgates.reshape(t_len * n, 4 * hs) @ w_ih).reshape(t_len, n, i_size)
            for p, mask, lo, hi in zip(parts, masks, bounds[:-1], bounds[1:]):
                if p.requires_grad:
                    p._accumulate(gx[:, :, lo:hi].transpose(1, 0, 2) * mask, owned=True)
        for p, g in ((params.w_ih, gw_ih.T), (params.w_hh, gw_hh.T),
                     (params.b_ih, gb_ih), (params.b_hh, gb_hh)):
            if p.requires_grad:
                p._accumulate(g, owned=True)

    out._backward = backward
    return out


def lstm_last(x: np.ndarray, params: LstmParams) -> np.ndarray:
    """The final hidden state (N, H) of :func:`lstm` over the time-major
    (T, N, I) array ``x``, read in place, with no tape.

    Only the current step's state is kept, so a batch of any size costs
    (N, 4H) of scratch.
    """
    t_len, n, i_size = x.shape
    if i_size != params.input_size:
        raise ShapeMismatch(f"lstm input size {i_size}, expected {params.input_size}")
    hs = params.hidden_size
    act = np.empty((n, 4 * hs), x.dtype)
    tanh_c = np.empty((n, hs), x.dtype)
    h = np.zeros((n, hs), x.dtype)
    c = np.zeros((n, hs), x.dtype)
    for x_t in x:
        _lstm_step(x_t, h, c, params, act, c, tanh_c, h)
    return h


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
    order: each window's rows are bit-identical to it wherever the BLAS
    rounds a GEMM row the same whatever the rows around it, as it does at
    the model's shapes (a product of one row may take another path).
    Shapes are checked as :func:`conv_leaky_cl` checks a layer's.
    """
    m, w_, c = rows.shape
    o, _, kh, _ = weight.shape
    before = time_pad[0]
    n, t_len = index.shape
    t_out, wo, k = _ConvLayer.geometry(weight.shape, bias.shape, time_pad, t_len,
                                       w_ * c, "conv_leaky_windows", c)
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


def grad_check(f, x: Tensor, h: float = 1e-4, top: int | None = None) -> float:
    """Max relative error between reverse-mode and central finite differences.

    ``top=k`` checks only the k flat coordinates of ``x`` with the largest
    analytic gradient (finite differences cost two evaluations of ``f`` per
    coordinate, and cannot resolve a near-zero gradient's relative error);
    the default checks every coordinate.
    """
    x.requires_grad = True
    out = f(x)
    out.backward()
    analytic = (np.zeros_like(x.data) if x.grad is None else x.grad.copy()).reshape(-1)

    flat = x.data.reshape(-1)
    coords = range(flat.size) if top is None else np.argsort(np.abs(analytic))[-top:]
    max_err = 0.0
    for i in coords:
        orig = flat[i]
        flat[i] = orig + h
        f_plus = float(f(x).data.reshape(()))
        flat[i] = orig - h
        f_minus = float(f(x).data.reshape(()))
        flat[i] = orig
        numeric = (f_plus - f_minus) / (2.0 * h)
        a = float(analytic[i])
        denom = max(abs(a), abs(numeric), 1e-12)
        max_err = max(max_err, abs(a - numeric) / denom)
    return max_err
