"""Seeded LOBSTER-pair generator owned by the benchmark, plus its oracle.

The benchmark writes its inputs with this module rather than the program's
own synthesizer, so a change to the program cannot change the workload.

Every generated day has an exact, stated share of rows that the program's
session cleaning must drop (``DROP_SHARES``): rows before and after the
trimmed session window, crossed books and books with zero volume at the
best level. The generator knows which rows those are, so the oracle can say
exactly which rows survive cleaning and which windows and labels the
program must build from them.

LOBSTER's thin-book sentinel levels (ask 9999999999 / bid -9999999999 with
volume 0) are left out: the program rejects them at ingest today.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

N_LEVELS = 10
N_BOOK_COLS = 4 * N_LEVELS
TICK = 100                      # one cent in 1e-4 currency units
SESSION_OPEN_S = 34_200         # 09:30
SESSION_CLOSE_S = 57_600        # 16:00
TRIM_S = 1_800                  # the program's default trim on both sides
HISTORY_DAYS = 5

# share of each day's rows that cleaning must drop, by reason
DROP_SHARES = {"before_window": 0.04, "after_window": 0.04,
               "crossed": 0.01, "zero_best": 0.01}

_OB_FORMAT = ",".join(["%d"] * N_BOOK_COLS)


@dataclass(frozen=True)
class Day:
    """One generated trading day and the rows cleaning must keep."""

    name: str
    timestamps: np.ndarray   # (n,) int64 ns since midnight
    book: np.ndarray         # (n, 40) int64, LOBSTER column order
    messages: np.ndarray     # (n, 5) int64
    keep: np.ndarray         # (n,) bool: rows that survive cleaning

    @property
    def n_events(self) -> int:
        return len(self.timestamps)


def drop_counts(n_events: int) -> dict[str, int]:
    """Exact number of rows dropped per reason for a day of ``n_events``."""
    return {reason: int(round(share * n_events))
            for reason, share in DROP_SHARES.items()}


def make_day(seed: int, index: int, name: str, n_events: int) -> Day:
    """Generate day ``index`` of workload seed ``seed``; same inputs, same day."""
    rng = np.random.default_rng([seed, index])
    counts = drop_counts(n_events)
    n_pre, n_post = counts["before_window"], counts["after_window"]
    n_in = n_events - n_pre - n_post
    if n_in <= counts["crossed"] + counts["zero_best"]:
        raise ValueError(f"day of {n_events} events is too short")

    ns = 10**9
    lo, hi = (SESSION_OPEN_S + TRIM_S) * ns, (SESSION_CLOSE_S - TRIM_S) * ns
    timestamps = np.concatenate([
        np.sort(rng.integers(SESSION_OPEN_S * ns, lo, n_pre)),
        np.sort(rng.integers(lo + 1, hi, n_in)),
        np.sort(rng.integers(hi + 1, SESSION_CLOSE_S * ns + 1, n_post)),
    ]).astype(np.int64)

    # best bid as a lazy random walk in ticks; spread of one or two ticks
    steps = rng.choice([-1, 0, 1], size=n_events, p=[0.25, 0.5, 0.25])
    bid1 = (10_000 + np.cumsum(steps)) * TICK
    ask1 = bid1 + rng.choice([1, 2], size=n_events, p=[0.7, 0.3]) * TICK
    ask_gaps = rng.geometric(0.6, size=(n_events, N_LEVELS - 1))
    bid_gaps = rng.geometric(0.6, size=(n_events, N_LEVELS - 1))
    zeros = np.zeros((n_events, 1), np.int64)
    ask_p = ask1[:, None] + np.hstack([zeros, np.cumsum(ask_gaps, 1)]) * TICK
    bid_p = bid1[:, None] - np.hstack([zeros, np.cumsum(bid_gaps, 1)]) * TICK

    # volumes share a slow factor per side, so neighbouring levels carry
    # mutual information for the MI and TMFG stages to find
    ask_v = _volumes(rng, n_events)
    bid_v = _volumes(rng, n_events)

    keep = np.zeros(n_events, bool)
    keep[n_pre:n_pre + n_in] = True
    bad = n_pre + rng.choice(n_in, counts["crossed"] + counts["zero_best"],
                             replace=False)
    crossed, zero_best = bad[:counts["crossed"]], bad[counts["crossed"]:]
    keep[bad] = False
    # a crossed row has its ask ladder at or below the best bid
    shift = ask1[crossed] - bid1[crossed] + rng.integers(0, 2, len(crossed)) * TICK
    ask_p[crossed] -= shift[:, None]
    side = rng.integers(0, 2, len(zero_best)).astype(bool)
    ask_v[zero_best[side], 0] = 0
    bid_v[zero_best[~side], 0] = 0

    book = np.empty((n_events, N_BOOK_COLS), np.int64)
    book[:, 0::4], book[:, 1::4] = ask_p, ask_v
    book[:, 2::4], book[:, 3::4] = bid_p, bid_v

    direction = rng.choice([-1, 1], size=n_events)
    messages = np.stack([
        rng.integers(1, 5, n_events),                       # event type
        10_000_000 + np.arange(n_events),                   # order id
        rng.integers(1, 500, n_events),                     # size
        np.where(direction > 0, bid_p[:, 0], ask_p[:, 0]),  # price
        direction,
    ], axis=1).astype(np.int64)
    return Day(name, timestamps, book, messages, keep)


def _volumes(rng: np.random.Generator, n: int) -> np.ndarray:
    factor = np.cumsum(rng.normal(0.0, 0.05, n))
    factor -= factor.mean()
    level = 4.5 + 0.1 * np.arange(N_LEVELS)
    log_v = level[None, :] + factor[:, None] + rng.normal(0.0, 0.6, (n, N_LEVELS))
    return np.clip(np.rint(np.exp(log_v)), 1, 9_999).astype(np.int64)


def write_day(directory, ticker: str, day: Day) -> None:
    """Write one day as a LOBSTER message/orderbook file pair."""
    directory = Path(directory)
    ob = "\n".join(_OB_FORMAT % tuple(row) for row in day.book.tolist())
    msg = "\n".join(
        f"{ts // 10**9}.{ts % 10**9:09d},{a},{b},{c},{d},{e}"
        for ts, (a, b, c, d, e) in zip(day.timestamps.tolist(),
                                       day.messages.tolist()))
    (directory / f"{ticker}_{day.name}_orderbook_10.csv").write_text(ob + "\n")
    (directory / f"{ticker}_{day.name}_message_10.csv").write_text(msg + "\n")


@dataclass(frozen=True)
class ExpectedWindows:
    """What the program must build for one day: one entry per window."""

    origins: np.ndarray      # index of each window's last row in the cleaned day
    labels: np.ndarray       # in {-1, 0, +1}
    normalized: np.ndarray   # the cleaned day's z-scored book, (kept, 40)


def expected_windows(days: list[Day], target: int, window_len: int,
                     horizon: int) -> ExpectedWindows:
    """Oracle for ``pipeline.windows_for_day`` on ``days[target]``.

    Z-scores with the mean and population std of the five prior days'
    cleaned rows, labels the mid-price change over ``horizon`` rows at a
    one-tick threshold, and keeps every window whose last row is labeled.
    """
    prior = np.concatenate([d.book[d.keep] for d in
                            days[target - HISTORY_DAYS:target]]).astype(np.float64)
    mean = prior.mean(axis=0)
    std = np.maximum(prior.std(axis=0), 1e-8)
    book = days[target].book[days[target].keep]
    normalized = (book.astype(np.float64) - mean) / std
    mid_x2 = book[:, 0] + book[:, 2]
    delta = mid_x2[horizon:] - mid_x2[:-horizon]
    labels = np.where(delta >= 2 * TICK, 1, np.where(delta <= -2 * TICK, -1, 0))
    origins = np.arange(window_len - 1, len(book) - horizon)
    return ExpectedWindows(origins, labels[origins], normalized)
