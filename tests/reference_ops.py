"""Reference implementations the tests check the program against.

The model's heads run on the fused channels-last ``engine.conv_leaky_cl``;
the generic NCHW ``conv2d`` and ``leaky_relu`` here are the textbook ops it
must agree with, and ``mul`` and ``reshape`` the generic tape ops the
tests build references and scalar losses from. ``LobSnapshot`` is the
per-snapshot book check that ``LobSeries.validate`` runs over a whole day
at once. ``norm_stats`` is the mean and std over the stacked prior days
that the streamed ``preprocess.compute_norm_stats`` must equal bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from hloblab.engine import Tensor, _unbroadcast
from hloblab.errors import InsufficientHistory, MissingLevels, ShapeMismatch
from hloblab.lob import ASK_P, ASK_V, BID_P, BID_V, N_LEVELS
from hloblab.preprocess import HISTORY_DAYS, STD_FLOOR, NormStats


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data * b.data, parents=(a, b))

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.shape))

    out._backward = backward
    return out


def reshape(x: Tensor, shape) -> Tensor:
    out = Tensor(x.data.reshape(shape), parents=(x,))

    def backward(g):
        if x.requires_grad:
            x._accumulate(g.reshape(x.shape))

    out._backward = backward
    return out


def leaky_relu(x: Tensor, slope: float = 0.01) -> Tensor:
    """max(x, slope*x) with subgradient 1 at 0."""
    # for 0 < slope < 1 the elementwise max equals the piecewise definition
    out = Tensor(np.maximum(x.data, x.data * slope), parents=(x,))

    def backward(g):
        if x.requires_grad:
            slope_t = np.asarray(slope, x.data.dtype)
            one = np.asarray(1.0, x.data.dtype)
            x._accumulate(g * np.where(x.data >= 0, one, slope_t))

    out._backward = backward
    return out


def _normalize_padding(padding):
    """Accept int pairs or ((before, after), (before, after)) per spatial axis."""
    ph, pw = padding
    if np.isscalar(ph):
        ph = (int(ph), int(ph))
    if np.isscalar(pw):
        pw = (int(pw), int(pw))
    return tuple(ph), tuple(pw)


def conv2d(x: Tensor, weight: Tensor, bias: Tensor, stride=(1, 1),
           padding=(0, 0)) -> Tensor:
    """Cross-correlation of (N,C,H,W) with (O,C,kh,kw) kernels."""
    sh, sw = stride
    (pt, pb), (pl, pr) = _normalize_padding(padding)
    n, c, h, w_ = x.data.shape
    o, cw, kh, kw = weight.data.shape
    if cw != c:
        raise ShapeMismatch(f"conv2d channels: input {c}, weight {cw}")
    if bias.data.shape != (o,):
        raise ShapeMismatch(f"conv2d bias shape {bias.data.shape}, expected ({o},)")
    hp, wp = h + pt + pb, w_ + pl + pr
    if hp < kh or wp < kw:
        raise ShapeMismatch("kernel larger than padded input")
    ho = (hp - kh) // sh + 1
    wo = (wp - kw) // sw + 1

    def im2col(data):
        xp = np.pad(data, ((0, 0), (0, 0), (pt, pb), (pl, pr)))
        windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw),
                                                           axis=(2, 3))
        windows = windows[:, :, ::sh, ::sw]          # N,C,Ho,Wo,kh,kw
        return windows.transpose(0, 2, 3, 1, 4, 5).reshape(n * ho * wo,
                                                           c * kh * kw)

    wmat = weight.data.reshape(o, c * kh * kw)
    y = (im2col(x.data) @ wmat.T + bias.data).reshape(n, ho, wo, o)
    out = Tensor(y.transpose(0, 3, 1, 2), parents=(x, weight, bias))

    def backward(g):
        # the patch matrix is rebuilt here rather than captured at forward
        # time: it is kernel-size times larger than the input, and keeping
        # one per convolution would dominate peak memory
        gm = g.transpose(0, 2, 3, 1).reshape(n * ho * wo, o)
        if bias.requires_grad:
            bias._accumulate(gm.sum(axis=0))
        if weight.requires_grad:
            weight._accumulate((gm.T @ im2col(x.data)).reshape(weight.data.shape))
        if x.requires_grad:
            gcols = (gm @ wmat).reshape(n, ho, wo, c, kh, kw)
            gxp = np.zeros((n, c, hp, wp), x.data.dtype)
            for i in range(kh):
                for j in range(kw):
                    gxp[:, :, i:i + sh * ho:sh, j:j + sw * wo:sw] += \
                        gcols[:, :, :, :, i, j].transpose(0, 3, 1, 2)
            x._accumulate(gxp[:, :, pt:pt + h, pl:pl + w_])

    out._backward = backward
    return out


@dataclass(frozen=True)
class LobSnapshot:
    """A single 10-level book state at one tick."""

    timestamp: int  # ns since midnight
    ask_prices: np.ndarray
    ask_volumes: np.ndarray
    bid_prices: np.ndarray
    bid_volumes: np.ndarray

    def is_crossed(self) -> bool:
        return int(self.ask_prices[0]) <= int(self.bid_prices[0])

    def validate(self) -> None:
        if len(self.ask_prices) != N_LEVELS:
            raise MissingLevels(f"expected {N_LEVELS} levels")
        if np.any(np.diff(self.ask_prices) <= 0):
            raise ValueError("ask prices not strictly increasing")
        if np.any(np.diff(self.bid_prices) >= 0):
            raise ValueError("bid prices not strictly decreasing")
        if np.any(self.ask_volumes < 0) or np.any(self.bid_volumes < 0):
            raise ValueError("negative volume")
        if self.is_crossed():
            raise ValueError("crossed book")


def snapshot(series, i: int) -> LobSnapshot:
    """Row ``i`` of a ``LobSeries`` as a :class:`LobSnapshot`."""
    row = series.book[i]
    return LobSnapshot(
        timestamp=int(series.timestamps[i]),
        ask_prices=row[ASK_P::4],
        ask_volumes=row[ASK_V::4],
        bid_prices=row[BID_P::4],
        bid_volumes=row[BID_V::4],
    )


def norm_stats(prior_days) -> NormStats:
    """Mean/std per feature over the concatenated snapshots of 5 prior days."""
    if len(prior_days) != HISTORY_DAYS:
        raise InsufficientHistory(
            f"need exactly {HISTORY_DAYS} prior days, got {len(prior_days)}"
        )
    stacked = np.concatenate([d.book for d in prior_days]).astype(np.float64)
    mean = stacked.mean(axis=0)
    std = np.maximum(stacked.std(axis=0), STD_FLOOR)
    return NormStats(mean=mean, std=std,
                     source_days=tuple(d.day for d in prior_days))
