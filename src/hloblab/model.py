"""Three-head convolutional + LSTM + linear mid-price change classifier.

Each head consumes one flattened simplicial tensor (tetrahedra, triangles,
edges). A (1x2)/stride-(1x2) convolution first merges each (price, volume)
pair, a stride-arity convolution merges each simplex, two time-axis (4x1)
convolutions (zero-padded to preserve the 100-step extent) model short-range
temporal structure, and a (1 x head-cardinality) convolution with dropout
mixes across simplices. Every convolution is followed by a LeakyReLU; the
heads run channels-last on (N, T, width*C) rows, the layout one fused
``engine.conv_leaky_cl`` tape node takes and returns, so the (N, T, width)
input and the last layer's (N, T, C) output need no reshape. A head is one
such node of two segments: the first three layers, then the last two. The
node keeps the first time layer's output in a private buffer and the mix's
as its own; every other output, the (price, volume) layer's (16 times its
input and the largest array a head makes) included, is made one sample at
a time, made again in backward from the head input or from the kept
output, and never kept. No gradient the size of a head's layer output
passes between tape nodes. Weights keep the (O, C, kh, kw) convolution
layout.
``_Head.layers`` lists the five layers once, for both the taped pass and
the eval pass.
The three (100 x 32) head outputs go as they are to a 32-unit LSTM
(``engine.lstm``), which reads them side by side as one (100 x 96) sequence
and whose final state a linear layer maps to the three class logits.

Overlapping windows share rows, and in eval mode only the rows next to a
window's ends see its zero padding, so :meth:`HlobModel.head_sequences`
runs every head layer with no tape over one table of distinct rows and an
index map of each window's rows into it (``engine.conv_leaky_windows``).
The table's shared rows are convolved once; the rows next to each
window's ends follow as that window's own rows, which add up their taps
from the same per-tap products and leave out the taps on padding.
Eval windows go through the heads in blocks of at most ``EVAL_BLOCK``
windows, one table per block, and the blocks run on the head pool.
:meth:`HlobModel.classify` then runs the LSTM and the output layer on those
sequences without a tape.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass

import numpy as np

from . import engine
from .engine import LstmParams, Parameter, Tensor
from .errors import ConfigInconsistent, DigestMismatch, IoFailure, NonFiniteLogit
from .files import read_json, write_atomic

HEAD_NAMES = ("tetra", "tri", "edge")

CHECKPOINT_MAGIC = b"HLOBCKPT"
# the header keys that load_checkpoint and the eval stage read
CHECKPOINT_HEADER_FIELDS = {"config": dict, "config_digest": str, "seed": int,
                            "dtype": str, "extra": dict, "entries": list}
CHECKPOINT_DTYPES = ("float32", "float64")
# the keys of each entry in a checkpoint header's table
CHECKPOINT_ENTRY_KEYS = ("name", "shape", "dtype", "offset", "nbytes")

# the two time convolutions: kernel length and (before, after) zero padding,
# which keeps the window's extent
TIME_KERNEL = 4
TIME_PAD = (1, 2)

# The most windows one block of head_sequences takes. Each block's row
# tables, per-tap products and edge rows grow with its windows, and the head
# pool runs several blocks at once. Evaluating a 521-window day at 1 BLAS
# thread on 2 cores, this cap (6 blocks of 86-87 windows on 2 threads)
# peaked at 95-97 MB RSS (tracemalloc 42-43 MB) against 121 MB (72 MB) for
# the whole chunk serially, and a cap of 260 (2 blocks) at 102-103 MB
# (51-52 MB) for no more speed: the cap, not the pool, keeps the memory
# down. A cap of 64 was slower, as each block convolves again the rows it
# shares with the next.
EVAL_BLOCK = 128


@dataclass(frozen=True)
class HlobConfig:
    window_len: int = 100
    channels: int = 32
    head_widths: tuple[int, int, int] = (136, 312, 216)
    arities: tuple[int, int, int] = (4, 3, 2)
    cardinalities: tuple[int, int, int] = (17, 52, 54)
    dropout_rate: float = 0.35
    lstm_hidden: int = 32
    n_classes: int = 3
    leaky_slope: float = 0.01

    def __post_init__(self):
        for width, arity, card in zip(self.head_widths, self.arities,
                                      self.cardinalities):
            if width != card * arity * 2:
                raise ConfigInconsistent(
                    f"head width {width} != {card} * {arity} * 2")

    @property
    def lstm_input(self) -> int:
        return self.channels * len(self.head_widths)

    def digest(self) -> str:
        payload = json.dumps(asdict(self), sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()


class _Head:
    """One convolutional head over a flattened simplicial input."""

    def __init__(self, name: str, arity: int, cardinality: int,
                 config: HlobConfig, rng: np.random.Generator, dtype):
        c = config.channels
        self.name = name

        def conv_param(layer, out_c, in_c, kh, kw):
            fan_in = in_c * kh * kw
            w = Parameter(f"head.{name}.{layer}.weight",
                          engine.uniform_init(rng, (out_c, in_c, kh, kw), fan_in, dtype))
            b = Parameter(f"head.{name}.{layer}.bias",
                          engine.uniform_init(rng, (out_c,), fan_in, dtype))
            return w, b

        self.conv_pv = conv_param("conv_pv", c, 1, 1, 2)
        self.conv_simplex = conv_param("conv_simplex", c, c, 1, arity)
        self.conv_time1 = conv_param("conv_time1", c, c, TIME_KERNEL, 1)
        self.conv_time2 = conv_param("conv_time2", c, c, TIME_KERNEL, 1)
        self.conv_mix = conv_param("conv_mix", c, c, 1, cardinality)

    def layers(self):
        """Each layer in order: name, (weight, bias), (before, after) time padding."""
        return [("conv_pv", self.conv_pv, (0, 0)),
                ("conv_simplex", self.conv_simplex, (0, 0)),
                ("conv_time1", self.conv_time1, TIME_PAD),
                ("conv_time2", self.conv_time2, TIME_PAD),
                ("conv_mix", self.conv_mix, (0, 0))]

    def parameters(self) -> list[Parameter]:
        return [p for _, (w, b), _ in self.layers() for p in (w, b)]

    def forward(self, x: Tensor, config: HlobConfig, train: bool,
                rng: np.random.Generator | None) -> Tensor:
        """Outputs (N, T, C) of (N, T, width) inputs, in one tape node of
        two segments: conv_pv, conv_simplex and conv_time1, then conv_time2
        and conv_mix. The node keeps conv_time1's output as its checkpoint
        and the mix's as its own; the other layers' outputs are made again
        in backward, from the head input or from conv_time1's output, so
        backward makes no layer's output twice."""
        layers = [(weight, bias, time_pad) for _, (weight, bias), time_pad in self.layers()]
        x = engine.conv_leaky_cl(x, (layers[:3], layers[3:]), config.leaky_slope)
        return engine.dropout(x, config.dropout_rate, train, rng)

    def forward_rows(self, rows: np.ndarray, origins: np.ndarray, t_len: int,
                     slope: float) -> np.ndarray:
        """Eval-mode outputs (N, T, C) of the windows ``rows[o:o + t_len]``.

        ``rows`` is (R, width) and ``origins`` the N window starts. Each
        layer runs with no tape over one table of distinct rows and an
        (N, T) map of each window's rows into it
        (``engine.conv_leaky_windows``). The table starts with the shared
        rows, convolved once, unpadded; the rows that see a window's zero
        padding (time1 rows {0, T-2, T-1}, time2 and mix rows {0, 1,
        T-4..T-1}) follow as each window's own, added up from the same
        per-tap products, so no row is convolved twice.
        """
        rows, shared = rows[:, :, None], len(rows)
        index = origins[:, None] + np.arange(t_len)
        for _, (weight, bias), time_pad in self.layers():
            rows, shared, index = engine.conv_leaky_windows(
                rows, shared, index, weight.data, bias.data, slope, time_pad)
        return rows[index, 0]


class HlobModel:
    """The assembled classifier with named, serializable parameters."""

    def __init__(self, config: HlobConfig, seed: int, dtype=np.float32):
        self.config = config
        self.seed = seed
        self.dtype = dtype
        rng = np.random.default_rng(seed)
        self.heads = [
            _Head(name, arity, card, config, rng, dtype)
            for name, arity, card in zip(HEAD_NAMES, config.arities,
                                         config.cardinalities)
        ]
        self.lstm = LstmParams("lstm", config.lstm_input, config.lstm_hidden,
                               rng, dtype)
        fan_in = config.lstm_hidden
        self.out_w = Parameter("output.weight",
                               engine.uniform_init(rng, (config.n_classes, fan_in),
                                                   fan_in, dtype))
        self.out_b = Parameter("output.bias",
                               engine.uniform_init(rng, (config.n_classes,),
                                                   fan_in, dtype))

    def parameters(self) -> list[Parameter]:
        params: list[Parameter] = []
        for head in self.heads:
            params.extend(head.parameters())
        params.extend(self.lstm.parameters())
        params.extend([self.out_w, self.out_b])
        return params

    def forward(self, inputs, train: bool = False,
                rng: np.random.Generator | None = None) -> Tensor:
        """(N, 3) logits of the three (N, 100, width) head inputs, arrays or Tensors."""
        head_outputs = [head.forward(x if isinstance(x, Tensor)
                                     else Tensor(np.asarray(x, self.dtype)),
                                     self.config, train, rng)
                        for head, x in zip(self.heads, inputs)]
        h_final = engine.lstm(head_outputs, self.lstm)
        return engine.dense(h_final, self.out_w, self.out_b)

    def classify(self, seq: np.ndarray) -> np.ndarray:
        """Eval-mode (N, 3) logits of (N, T, 96) head sequences, with no tape.

        The LSTM (``engine.lstm_last``) and the output layer run over all N
        rows at once. Rows do not mix, so this equals running the rows batch
        by batch, up to the rounding a GEMM of another height may choose.
        """
        h_final = engine.lstm_last(seq, self.lstm)
        return h_final @ self.out_w.data.T + self.out_b.data

    def head_sequences(self, row_inputs, origins, window_len: int) -> np.ndarray:
        """Eval-mode (N, T, 96) head sequences of windows given as rows.

        ``row_inputs`` are the three heads' (R, width) inputs, one row per
        book row, and window i is rows ``origins[i]`` to
        ``origins[i] + window_len - 1``. Windows may share rows. The windows
        run in contiguous blocks of at most ``EVAL_BLOCK`` and of nearly
        equal size: each block's heads run over the slice of rows its
        windows read, so a row shared within a block is convolved once, and
        one shared by two blocks once in each. The blocks run on the head
        pool (``engine._sample_blocks``) and write their disjoint slices of
        the output. Every window's sequence is bit-identical whatever the
        blocks and the pool size, and equals the head outputs of
        :meth:`forward` in eval mode, side by side.
        """
        origins = np.asarray(origins, np.int64)
        row_inputs = [np.asarray(rows, self.dtype) for rows in row_inputs]
        n, c = len(origins), self.config.channels
        out = np.empty((n, window_len, c * len(self.heads)), self.dtype)
        slope = self.config.leaky_slope

        # the fewest blocks of at most EVAL_BLOCK windows, and when there
        # are several, a multiple of the pool size, so that the pool threads
        # get the same number of windows give or take one per block
        blocks = -(-n // EVAL_BLOCK)
        if blocks > 1:
            blocks += -blocks % engine.HEAD_WORKERS
        bounds = [n * b // blocks for b in range(blocks + 1)]

        def run_blocks(first, last):
            for lo, hi in zip(bounds[first:last], bounds[first + 1:last + 1]):
                at = origins[lo:hi]
                start, stop = at.min(), at.max() + window_len
                for k, (head, rows) in enumerate(zip(self.heads, row_inputs)):
                    out[lo:hi, :, k * c:(k + 1) * c] = head.forward_rows(
                        rows[start:stop], at - start, window_len, slope)

        block_elements = (sum(rows.size for rows in row_inputs) + out.size) // blocks
        engine._sample_blocks(run_blocks, blocks, block_elements)
        return out

    def param_count_table(self) -> list[tuple[str, int]]:
        """Per-component trainable parameter counts, plus the total."""
        rows: list[tuple[str, int]] = []
        for head in self.heads:
            counts = {layer: w.data.size + b.data.size
                      for layer, (w, b), _ in head.layers()}
            rows.append((f"head.{head.name}.conv_pv", counts["conv_pv"]))
            rows.append((f"head.{head.name}.block2",
                         counts["conv_simplex"] + counts["conv_time1"]
                         + counts["conv_time2"]))
            rows.append((f"head.{head.name}.conv_mix", counts["conv_mix"]))
        rows.append(("lstm", sum(p.data.size for p in self.lstm.parameters())))
        rows.append(("output", self.out_w.data.size + self.out_b.data.size))
        rows.append(("total", sum(p.data.size for p in self.parameters())))
        return rows


def predict_proba(logits: np.ndarray) -> np.ndarray:
    """Stabilized softmax over an array of logits; rows sum to 1."""
    if not np.all(np.isfinite(logits)):
        raise NonFiniteLogit("logits contain non-finite values")
    return engine.softmax(logits)


def save_checkpoint(model: HlobModel, path, optimizer: engine.AdamW | None = None,
                    extra: dict | None = None) -> None:
    """Write parameters (and optimizer moments) as little-endian payloads.

    Layout: magic, 8-byte header length, JSON header, then raw buffers in
    header order. The file is replaced atomically (see :func:`write_atomic`).
    """
    entries = []
    buffers = []
    offset = 0

    def push(name, arr):
        nonlocal offset
        arr = np.ascontiguousarray(arr)
        raw = arr.astype(arr.dtype.newbyteorder("<")).tobytes()
        entries.append({"name": name, "shape": list(arr.shape),
                        "dtype": str(arr.dtype), "offset": offset,
                        "nbytes": len(raw)})
        buffers.append(raw)
        offset += len(raw)

    for p in model.parameters():
        push(p.name, p.data)
        push(p.name + "#m", p.m)
        push(p.name + "#v", p.v)

    header = {
        "config": asdict(model.config),
        "config_digest": model.config.digest(),
        "seed": model.seed,
        "dtype": str(np.dtype(model.dtype)),
        "optimizer_t": optimizer.t if optimizer is not None else 0,
        "extra": extra or {},
        "entries": entries,
    }
    blob = json.dumps(header, sort_keys=True).encode()
    try:
        write_atomic(path, b"".join([CHECKPOINT_MAGIC, len(blob).to_bytes(8, "little"),
                                     blob, *buffers]))
    except OSError as exc:
        raise IoFailure(str(exc)) from exc


def _config_from_header(path, header: dict) -> HlobConfig:
    """The :class:`HlobConfig` a checkpoint header stores, checked field by field.

    The stored fields must be exactly the dataclass's, each of its default's
    type (a tuple as a JSON list of ints of the same length), and they must
    hash to the header's ``config_digest``; otherwise :class:`IoFailure`.
    """
    stored = header["config"]
    defaults = asdict(HlobConfig())
    for key in sorted(set(stored) ^ set(defaults)):
        why = "unknown" if key in stored else "missing"
        raise IoFailure(f"corrupt {path}: config field '{key}' is {why}")
    fields = {}
    for key, default in defaults.items():
        value = stored[key]
        if isinstance(default, tuple):
            ok = (isinstance(value, list) and len(value) == len(default)
                  and all(type(v) is int for v in value))
        elif isinstance(default, float):
            ok = type(value) in (int, float)
        else:
            ok = type(value) is type(default)
        if not ok:
            raise IoFailure(f"corrupt {path}: config field '{key}' is not of "
                            f"type {type(default).__name__}, got {value!r}")
        fields[key] = tuple(value) if isinstance(default, tuple) else value
    try:
        config = HlobConfig(**fields)
    except ConfigInconsistent as exc:
        raise IoFailure(f"corrupt {path}: {exc}") from None
    if config.digest() != header["config_digest"]:
        raise IoFailure(f"corrupt {path}: config does not match its config_digest")
    return config


def load_checkpoint(path, expected_config: HlobConfig | None = None
                    ) -> tuple[HlobModel, dict]:
    """Rebuild a model bit-exactly from a checkpoint file.

    Anything the format can tell is wrong raises :class:`IoFailure` (see
    :func:`_load_payload`); a flipped payload byte that still decodes to a
    finite value loads, since catching it would need a checksum.
    """
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise IoFailure(str(exc)) from exc
    if len(blob) < len(CHECKPOINT_MAGIC) + 8 or not blob.startswith(CHECKPOINT_MAGIC):
        raise IoFailure("not a checkpoint file")
    pos = len(CHECKPOINT_MAGIC)
    hlen = int.from_bytes(blob[pos:pos + 8], "little")
    pos += 8
    header = read_json(path, CHECKPOINT_HEADER_FIELDS, data=blob[pos:pos + hlen])
    pos += hlen

    config = _config_from_header(path, header)
    if header["dtype"] not in CHECKPOINT_DTYPES:
        raise IoFailure(f"corrupt {path}: dtype {header['dtype']!r} is not one of "
                        f"{', '.join(CHECKPOINT_DTYPES)}")
    if expected_config is not None and expected_config.digest() != header["config_digest"]:
        raise DigestMismatch(
            f"checkpoint digest {header['config_digest'][:12]} does not match "
            f"expected {expected_config.digest()[:12]}")

    model = HlobModel(config, seed=header["seed"],
                      dtype=np.dtype(header["dtype"]).type)
    _load_payload(path, header, model, memoryview(blob)[pos:])
    return model, header


def _load_payload(path, header: dict, model: HlobModel, payload: memoryview) -> None:
    """Set ``model``'s parameters and Adam moments from a checkpoint payload.

    The entries must name each parameter and its two Adam moments exactly
    once, each in the header's dtype and its parameter's shape with
    ``nbytes`` to match, laid end to end from offset 0 over the whole
    payload, and every value must be finite; otherwise :class:`IoFailure`,
    which leaves ``model`` part loaded.
    """
    slots = {p.name + suffix: (p, target) for p in model.parameters()
             for suffix, target in (("", "data"), ("#m", "m"), ("#v", "v"))}
    dtype = np.dtype(header["dtype"])
    entries = header["entries"]
    for k, entry in enumerate(entries):
        if not (isinstance(entry, dict)
                and all(key in entry for key in CHECKPOINT_ENTRY_KEYS)
                and isinstance(entry["name"], str)):
            raise IoFailure(f"corrupt {path}: entry {k} is not an object with a "
                            f"name and {', '.join(CHECKPOINT_ENTRY_KEYS[1:])}")
    names = [entry["name"] for entry in entries]
    present = set(names)
    for name in sorted(set(slots) ^ present):
        why = "unknown entry" if name in present else "missing parameter"
        raise IoFailure(f"corrupt {path}: {why} {name}")
    if len(names) != len(slots):
        twice = next(name for name in names if names.count(name) > 1)
        raise IoFailure(f"corrupt {path}: entry {twice} appears more than once")

    offset = 0
    for entry in entries:
        name = entry["name"]
        param, target = slots[name]
        shape = list(param.data.shape)
        nbytes = int(np.prod(shape)) * dtype.itemsize
        for key, want in (("dtype", str(dtype)), ("shape", shape),
                          ("nbytes", nbytes), ("offset", offset)):
            # as JSON text, where a boolean or a float is not an int
            if json.dumps(entry[key]) != json.dumps(want):
                raise IoFailure(f"corrupt {path}: entry {name} has {key} "
                                f"{entry[key]!r}, expected {want!r}")
        if offset + nbytes > len(payload):
            raise IoFailure(f"corrupt {path}: truncated checkpoint payload")
        arr = np.frombuffer(payload, dtype, count=nbytes // dtype.itemsize,
                            offset=offset).reshape(shape)
        if not np.isfinite(arr).all():
            raise IoFailure(f"corrupt {path}: entry {name} holds a value that "
                            "is not finite")
        setattr(param, target, arr.copy())
        offset += nbytes
    if offset != len(payload):
        raise IoFailure(f"corrupt {path}: {len(payload) - offset} bytes after the "
                        "last entry")
