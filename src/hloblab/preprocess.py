"""Feature normalization, mid-price change labeling, and dataset assembly.

Normalization is a trailing 5-day feature-wise z-score: statistics for a day
come exclusively from the five prior trading days, so no information leaks
from the day being normalized (or any later one).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientHistory, MissingClass, SeriesTooShort, ShapeMismatch
from .lob import LobSeries, mid_price_series

log = logging.getLogger(__name__)

HISTORY_DAYS = 5
WINDOW_LEN = 100
STD_FLOOR = 1e-8
UNLABELED = -2  # sentinel in label arrays for the horizon tail

# fixed class-id mapping: label -1 -> 0, 0 -> 1, +1 -> 2
def label_to_class(label: int) -> int:
    return label + 1


def class_to_label(class_id: int) -> int:
    return class_id - 1


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


@dataclass(frozen=True)
class SplitPlan:
    train_days: tuple[str, ...]
    validation_days: tuple[str, ...]
    test_days: tuple[str, ...]
    horizon: int

    def __post_init__(self):
        sets = [set(self.train_days), set(self.validation_days), set(self.test_days)]
        for i in range(3):
            for j in range(i + 1, 3):
                if sets[i] & sets[j]:
                    raise ValueError(f"overlapping day sets: {sets[i] & sets[j]}")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if self.train_days and self.validation_days:
            lo, hi = min(self.train_days), max(self.train_days)
            for v in self.validation_days:
                if not lo <= v <= hi:
                    raise ValueError(f"validation day {v} outside training span")


def compute_norm_stats(prior_days: list[LobSeries]) -> NormStats:
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


def build_windows(normalized: np.ndarray, labels: np.ndarray, day: str,
                  window_len: int = WINDOW_LEN) -> list[LabeledWindow]:
    """Pair each length-100 trailing window with the label at its last row."""
    n = normalized.shape[0]
    if labels.shape[0] != n:
        raise ValueError("labels not aligned to rows")
    windows = []
    for end in range(window_len - 1, n):
        lab = int(labels[end])
        if lab == UNLABELED:
            continue
        windows.append(LabeledWindow(
            features=normalized[end - window_len + 1: end + 1],
            label=lab,
            day=day,
            origin=end,
        ))
    return windows


def balanced_sample(day_windows: list[LabeledWindow], cap: int = 5000,
                    rng_seed: int = 0) -> list[int]:
    """Equal-count random class sample for one day's windows.

    Samples min(cap, least-represented class count) indices per class without
    replacement. Raises MissingClass when a class is absent; callers skip the
    day with a diagnostic.
    """
    if not day_windows:
        raise MissingClass("all")
    labels = np.array([w.label for w in day_windows])
    by_class = {lab: np.flatnonzero(labels == lab) for lab in (-1, 0, 1)}
    for lab, idx in by_class.items():
        if len(idx) == 0:
            raise MissingClass(lab)
    k = min(cap, min(len(idx) for idx in by_class.values()))
    rng = np.random.default_rng(rng_seed)
    chosen: list[int] = []
    for lab in (-1, 0, 1):
        chosen.extend(rng.choice(by_class[lab], size=k, replace=False).tolist())
    return chosen


def window_origins(windows: list[LabeledWindow]) -> np.ndarray:
    """First row of each window when overlapping windows share their rows.

    The windows are laid end to end, except that a window whose first T-1
    rows equal the previous window's last T-1 rows starts one row after
    that window. A day's consecutive windows thus share one copy of the
    day's rows, and a gap or a new day starts a new run.
    """
    shape = windows[0].features.shape
    if any(w.features.shape != shape for w in windows):
        raise ShapeMismatch("windows differ in shape")
    steps = [1 if np.array_equal(prev.features[1:], cur.features[:-1]) else shape[0]
             for prev, cur in zip(windows, windows[1:])]
    return np.concatenate([[0], np.cumsum(steps, dtype=np.int64)])


def window_rows(windows: list[LabeledWindow], origins: np.ndarray) -> np.ndarray:
    """The rows ``origins`` lays out: window i is ``rows[origins[i] - origins[0]:][:T]``."""
    t_len, width = windows[0].features.shape
    starts = origins - origins[0]
    rows = np.empty((starts[-1] + t_len, width), windows[0].features.dtype)
    for w, start in zip(windows, starts):
        rows[start:start + t_len] = w.features
    return rows


def sequential_batches(items, batch_size: int = 32):
    """Yield order-preserving batches; the final one may be short."""
    batch = []
    for item in items:
        batch.append(item)
        if len(batch) == batch_size:
            yield batch
            batch = []
    if batch:
        yield batch
