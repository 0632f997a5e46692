"""Feature normalization, mid-price change labeling, and dataset assembly.

Normalization is a trailing 5-day feature-wise z-score: statistics for a day
come exclusively from the five prior trading days, so no information leaks
from the day being normalized (or any later one).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientHistory, MissingClass, SeriesTooShort, ShapeMismatch
from .lob import LobSeries

HISTORY_DAYS = 5
WINDOW_LEN = 100
STD_FLOOR = 1e-8
UNLABELED = -2  # sentinel in label arrays for the horizon tail

# fixed class-id mapping: label -1 -> 0, 0 -> 1, +1 -> 2 (also on label arrays)
def label_to_class(label):
    return label + 1


@dataclass(frozen=True)
class NormStats:
    """Per-feature mean/std over the 5 prior days, with provenance."""

    mean: np.ndarray  # (40,)
    std: np.ndarray   # (40,)
    source_days: tuple[str, ...]


@dataclass(frozen=True)
class LabeledWindow:
    """A 100x40 normalized feature window with its mid-price change label."""

    features: np.ndarray  # (100, 40), oldest row first
    label: int            # in {-1, 0, +1}
    day: str
    origin: int           # snapshot index of the window's last row


def compute_norm_stats(prior_days: list[LobSeries]) -> NormStats:
    """Mean/std per feature over the concatenated snapshots of 5 prior days.

    The days are streamed through one float64 buffer instead of stacked:
    row 0 holds the running column sums, a day fills the rows after it, and
    one axis-0 sum over both adds the day's rows to the total. numpy adds
    the rows of an axis-0 sum in order, so this is the same sequence of
    additions as ``mean`` and ``std`` over the stacked days, and the stats
    are bit-identical to theirs. The second pass sums the squared deviations
    from the mean the same way.
    """
    if len(prior_days) != HISTORY_DAYS:
        raise InsufficientHistory(
            f"need exactly {HISTORY_DAYS} prior days, got {len(prior_days)}"
        )
    books = [d.book for d in prior_days]
    n = sum(len(book) for book in books)
    buf = np.empty((max(len(book) for book in books) + 1, books[0].shape[1]))

    def column_sums(deviation_from=None):
        buf[0] = 0.0
        for book in books:
            rows = buf[1:len(book) + 1]
            rows[:] = book
            if deviation_from is not None:
                np.subtract(rows, deviation_from, out=rows)
                np.multiply(rows, rows, out=rows)
            buf[0] = buf[:len(book) + 1].sum(axis=0)
        return buf[0] / n

    mean = column_sums()
    std = np.maximum(np.sqrt(column_sums(deviation_from=mean)), STD_FLOOR)
    return NormStats(mean=mean, std=std,
                     source_days=tuple(d.day for d in prior_days))


def normalize_day(day: LobSeries, stats: NormStats) -> np.ndarray:
    """Z-score a day's raw book with stats from strictly earlier days."""
    if day.day in stats.source_days:
        raise ValueError(f"leakage: stats include target day {day.day}")
    return (day.book.astype(np.float64) - stats.mean) / stats.std


def label_series(mids_x2: np.ndarray, horizon: int, tick_units: int) -> np.ndarray:
    """Three-class mid-price change labels at a tick-time horizon.

    ``mids_x2`` holds twice the mid-price in 1e-4 units so the +-tick
    boundaries are compared in exact integer arithmetic. The final ``horizon``
    positions get the UNLABELED sentinel and are excluded downstream.
    """
    mids_x2 = np.asarray(mids_x2, np.int64)
    n = len(mids_x2)
    if n <= horizon:
        raise SeriesTooShort(f"series length {n} <= horizon {horizon}")
    delta_x2 = mids_x2[horizon:] - mids_x2[:-horizon]
    thr = 2 * tick_units
    labels = np.full(n, UNLABELED, np.int64)
    head = np.zeros(n - horizon, np.int64)
    head[delta_x2 >= thr] = 1
    head[delta_x2 <= -thr] = -1
    labels[: n - horizon] = head
    return labels


@dataclass(frozen=True, eq=False)
class DayWindows:
    """Labelled windows as arrays over their rows: one day's, or those of the
    days ``day`` names, joined by commas, with their ``day_sizes`` counts.

    Window i is ``rows[ends[i] - window_len + 1:ends[i] + 1]`` with label
    ``labels[i]``. Indexing gives it as a :class:`LabeledWindow` view.
    """

    day: str
    rows: np.ndarray      # (R, 40) normalized rows
    ends: np.ndarray      # (N,) int64, each window's last row, ascending
    labels: np.ndarray    # (N,) int64, in {-1, 0, +1}
    window_len: int = WINDOW_LEN
    day_sizes: tuple[int, ...] | None = None   # None: one day, all windows

    def __post_init__(self):
        if self.day_sizes is None:
            object.__setattr__(self, "day_sizes", (len(self.ends),))

    def __len__(self) -> int:
        return len(self.ends)

    def __getitem__(self, i: int) -> LabeledWindow:
        """Window ``i`` as a view. No stage calls it: outside the tests, the
        benchmark's window oracle is its only caller."""
        end = int(self.ends[i])
        return LabeledWindow(features=self.rows[end - self.window_len + 1:end + 1],
                             label=int(self.labels[i]), day=self.day, origin=end)

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def features(self, idx: np.ndarray) -> np.ndarray:
        """The windows ``idx`` stacked: (len(idx), window_len, width)."""
        return self.rows[self.ends[idx, None] + np.arange(1 - self.window_len, 1)]


def build_windows(normalized: np.ndarray, labels: np.ndarray, day: str,
                  window_len: int = WINDOW_LEN) -> DayWindows:
    """Pair each trailing window of ``window_len`` rows with the label at its last row."""
    if labels.shape[0] != normalized.shape[0]:
        raise ValueError("labels not aligned to rows")
    ends = np.arange(window_len - 1, normalized.shape[0], dtype=np.int64)
    ends = ends[labels[ends] != UNLABELED]
    return DayWindows(day, normalized, ends, labels[ends].astype(np.int64), window_len)


def join_windows(days: list[DayWindows]) -> DayWindows:
    """The days' windows as one set over their rows laid end to end, in order.

    Each day adds its rows through its last window's end (none without a
    window) and its count, 0 too, to ``day_sizes``; one day is returned as
    it is. Windows of different lengths or widths raise :class:`ShapeMismatch`.
    """
    shapes = {(d.window_len, d.rows.shape[1]) for d in days}
    if len(shapes) > 1:
        raise ShapeMismatch(f"windows differ in shape: {sorted(shapes)}")
    if len(days) == 1:
        return days[0]
    stops = [int(d.ends[-1]) + 1 if len(d) else 0 for d in days]
    starts = np.cumsum([0] + stops[:-1])
    return DayWindows(",".join(d.day for d in days),
                      np.concatenate([d.rows[:stop] for d, stop in zip(days, stops)]),
                      np.concatenate([d.ends + s for d, s in zip(days, starts)]),
                      np.concatenate([d.labels for d in days]),
                      days[0].window_len, sum((d.day_sizes for d in days), ()))


def balanced_sample(labels: np.ndarray, cap: int = 5000,
                    rng_seed: int = 0) -> np.ndarray:
    """Equal-count random class sample of one day's window labels.

    Samples min(cap, least-represented class count) indices per class without
    replacement, class -1 first. Raises MissingClass when a class is absent;
    callers skip the day with a diagnostic.
    """
    if len(labels) == 0:
        raise MissingClass("all")
    by_class = {lab: np.flatnonzero(labels == lab) for lab in (-1, 0, 1)}
    for lab, idx in by_class.items():
        if len(idx) == 0:
            raise MissingClass(lab)
    k = min(cap, min(len(idx) for idx in by_class.values()))
    rng = np.random.default_rng(rng_seed)
    return np.concatenate([rng.choice(by_class[lab], size=k, replace=False)
                           for lab in (-1, 0, 1)])


def sequential_batches(items, batch_size: int = 32):
    """Yield order-preserving slices of ``batch_size`` items; the final one may be short."""
    for lo in range(0, len(items), batch_size):
        yield items[lo:lo + batch_size]
