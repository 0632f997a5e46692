"""Training loop with early stopping, evaluation metrics, and report emission.

The stopper halts at the smallest epoch e > patience such that the best
validation loss seen through epoch e - patience exceeds the best through
epoch e by less than the improvement delta. With a constant validation loss
and the default patience of 15, training therefore stops after epoch 16.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass

import numpy as np

from . import engine, infonet
from .errors import EmptyDataset, IoFailure, LengthMismatch, MissingClass, NonFiniteLoss
from .files import write_atomic
from .infonet import SimplicialComplex
from .model import HlobModel, predict_proba
from .preprocess import DayWindows, balanced_sample, label_to_class, sequential_batches

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 32
    max_epochs: int = 100
    early_stop_delta: float = 0.003
    patience: int = 15
    lr: float = 6e-5
    beta1: float = 0.90
    beta2: float = 0.95
    eps: float = 1e-8
    weight_decay: float = 0.01
    balanced_cap: int = 5000
    seed: int = 0


@dataclass
class EvalReport:
    f1_macro: float
    mcc: float
    p_t: float
    tt: int
    confusion: np.ndarray  # (3, 3), rows = truth, cols = prediction
    ticker: str = ""
    year: str = ""
    horizon: int = 0


# An eval chunk is the whole batches whose heads one call computes: at most
# EVAL_WINDOWS windows and EVAL_ROWS rows in the slice of the joined day rows
# they read, or else one batch, plus the short last batch when it is all
# that is left and the rows allow. In the heads' row tables, each window's
# own rows (the ones that see its padding) and its head sequence take memory
# per window, and the slice's rows per row; these caps keep a chunk near one
# batch of 32 separate 100-row windows. The heads then run the chunk in
# blocks of at most model.EVAL_BLOCK windows.
EVAL_WINDOWS = 512
EVAL_ROWS = 4096


def _eval_batches(model: HlobModel, windows: DayWindows,
                  complex_: SimplicialComplex, batch_size: int):
    """Eval-mode logits of sequential batches: yields (labels, logits).

    The heads run once on each chunk's slice of the rows, which the split's
    days were joined into once, from its first window's start to its last
    window's end (see ``HlobModel.head_sequences``), so overlapping windows
    share their rows' work. A chunk is whole batches; a short last batch
    joins the chunk before it when ``EVAL_ROWS`` allows, so that the rows
    they share are not convolved again. The tape-free LSTM and the output
    layer run once over the chunk's whole batches and once over the short
    batch, which are the stacks they ran on when the short batch was a
    chunk of its own. Those stacks are kept as they are so that the logits
    keep their bits: with OpenBLAS the output layer's (N, 32) @ (32, 3)
    GEMM rounds differently at most stack heights (a 512-row stack and its
    32-row batches differed by up to 7.5e-9 in every batch), and the LSTM's
    GEMMs at stacks under 10 rows. The LSTM over any first 10 or more rows
    of a 512-row stack, or over its 32-row batches, matched the stack's
    rows bit for bit.
    """
    t_len, ends = windows.window_len, windows.ends
    starts, stops = ends - (t_len - 1), ends + 1
    lo = 0
    while lo < len(ends):
        fit = int(np.searchsorted(stops, starts[lo] + EVAL_ROWS, side="right"))
        hi = min(len(ends), lo + batch_size * max(
            1, (min(fit, lo + EVAL_WINDOWS) - lo) // batch_size))
        if len(ends) - hi < batch_size and fit == len(ends):
            hi = len(ends)
        at, labels = starts[lo:hi], windows.labels[lo:hi]
        # cast before the gather, which gives the same bits, so that no
        # float64 head input is made
        rows = windows.rows[at[0]:stops[hi - 1]].astype(model.dtype, copy=False)
        seq = model.head_sequences(infonet.assemble_head_inputs(rows, complex_),
                                   at - at[0], t_len)
        whole = len(at) - len(at) % batch_size
        logits = np.concatenate([model.classify(part) for part in
                                 (seq[:, :whole], seq[:, whole:]) if part.shape[1]])
        for b in range(0, len(at), batch_size):
            yield labels[b:b + batch_size], logits[b:b + batch_size]
        lo = hi


def _epoch_should_stop(best_history: list[float], patience: int,
                       delta: float) -> bool:
    e = len(best_history)
    if e <= patience:
        return False
    return best_history[e - patience - 1] - best_history[-1] < delta


def validation_loss(model: HlobModel, windows: DayWindows,
                    complex_: SimplicialComplex, batch_size: int) -> float:
    total, count = 0.0, 0
    for labels, logits in _eval_batches(model, windows, complex_, batch_size):
        loss = engine.softmax_cross_entropy(engine.Tensor(logits),
                                            label_to_class(labels))
        total += float(loss.data) * len(labels)
        count += len(labels)
    return total / count


def train(model: HlobModel, windows: DayWindows, val_windows: DayWindows,
          complex_: SimplicialComplex, config: TrainConfig) -> tuple[dict, dict]:
    """Train with per-day balanced sampling and validation-loss early stopping.

    Returns (best parameter state, history). The state maps parameter names
    to (data, m, v) arrays from the best-validation-loss epoch. A NaN or
    infinite batch loss raises :class:`NonFiniteLoss` before that batch
    updates any parameter. Each epoch samples the training days in turn,
    each from its ``windows.day_sizes`` slice of the labels, and each batch
    gathers its windows' rows.
    """
    if not len(windows) or not len(val_windows):
        raise EmptyDataset("need nonempty training and validation sets")
    starts = np.cumsum((0,) + windows.day_sizes[:-1])

    optimizer = engine.AdamW(model.parameters(), lr=config.lr,
                             beta1=config.beta1, beta2=config.beta2,
                             eps=config.eps, weight_decay=config.weight_decay)
    history = {"train_loss": [], "val_loss": [], "stopped_epoch": None}
    best_loss = np.inf
    best_state = _capture_state(model)
    best_history: list[float] = []

    for epoch in range(1, config.max_epochs + 1):
        epoch_rng = np.random.default_rng((config.seed, epoch))
        picks = []
        for name, start, size in zip(windows.day.split(","), starts, windows.day_sizes):
            try:
                picked = balanced_sample(windows.labels[start:start + size],
                                         cap=config.balanced_cap,
                                         rng_seed=int(epoch_rng.integers(2**32)))
            except MissingClass as exc:
                log.warning("skipping day %s: %s", name, exc)
                continue
            picks.append(start + picked)
        if not picks:
            raise EmptyDataset("no training day has all three classes")
        pool = np.concatenate(picks)
        epoch_rng.shuffle(pool)

        running, seen = 0.0, 0
        for number, batch in enumerate(sequential_batches(pool, config.batch_size), 1):
            features = windows.features(batch).astype(model.dtype, copy=False)
            logits = model.forward(infonet.assemble_head_inputs(features, complex_),
                                   train=True, rng=epoch_rng)
            loss = engine.softmax_cross_entropy(logits,
                                                label_to_class(windows.labels[batch]))
            if not np.isfinite(loss.data):
                raise NonFiniteLoss(epoch, number, float(loss.data))
            loss.backward()
            optimizer.step()
            running += float(loss.data) * len(batch)
            seen += len(batch)
        history["train_loss"].append(running / seen)

        val = validation_loss(model, val_windows, complex_, config.batch_size)
        history["val_loss"].append(val)
        if val < best_loss:
            best_loss = val
            best_state = _capture_state(model)
        best_history.append(best_loss)
        log.info("epoch %d: train %.5f val %.5f best %.5f",
                 epoch, history["train_loss"][-1], val, best_loss)

        if _epoch_should_stop(best_history, config.patience,
                              config.early_stop_delta):
            history["stopped_epoch"] = epoch
            break

    _restore_state(model, best_state)
    return best_state, history


def _capture_state(model: HlobModel) -> dict:
    return {p.name: (p.data.copy(), p.m.copy(), p.v.copy())
            for p in model.parameters()}


def _restore_state(model: HlobModel, state: dict) -> None:
    for p in model.parameters():
        data, m, v = state[p.name]
        p.data = data.copy()
        p.m = m.copy()
        p.v = v.copy()


def evaluate(model: HlobModel, windows: DayWindows,
             complex_: SimplicialComplex, batch_size: int = 32) -> EvalReport:
    """Sequential evaluation: confusion matrix, F1, MCC, and round-trip stats."""
    if not len(windows):
        raise EmptyDataset("no test windows")
    predictions: list[int] = []
    labels: list[int] = []
    for batch, logits in _eval_batches(model, windows, complex_, batch_size):
        probs = predict_proba(logits)
        predictions.extend((probs.argmax(axis=1) - 1).tolist())
        labels.extend(batch.tolist())

    confusion = confusion_matrix(labels, predictions)
    p_t, tt = round_trip_stats(predictions, labels)
    return EvalReport(
        f1_macro=f1_macro(confusion),
        mcc=mcc_multiclass(confusion),
        p_t=p_t,
        tt=tt,
        confusion=confusion,
    )


def confusion_matrix(labels, predictions) -> np.ndarray:
    """3x3 counts with rows = true class, cols = predicted class (ids 0..2)."""
    if len(labels) != len(predictions):
        raise LengthMismatch(f"{len(labels)} labels vs {len(predictions)} predictions")
    out = np.zeros((3, 3), np.int64)
    for lab, pred in zip(labels, predictions):
        out[label_to_class(lab), label_to_class(pred)] += 1
    return out


def f1_macro(confusion: np.ndarray) -> float:
    """Macro-averaged F1 over the three classes; empty classes score 0."""
    scores = []
    for k in range(confusion.shape[0]):
        tp = confusion[k, k]
        fp = confusion[:, k].sum() - tp
        fn = confusion[k, :].sum() - tp
        denom = 2 * tp + fp + fn
        scores.append(2 * tp / denom if denom > 0 else 0.0)
    return float(np.mean(scores))


def mcc_multiclass(confusion: np.ndarray) -> float:
    """Gorodkin multiclass Matthews correlation; degenerate margins give 0.
    Clipped to [-1, 1]: a perfect confusion can round to 1 + 2**-52."""
    c = confusion.astype(np.float64)
    s = c.sum()
    trace = np.trace(c)
    t = c.sum(axis=1)  # truth counts
    p = c.sum(axis=0)  # prediction counts
    num = trace * s - float(t @ p)
    denom = np.sqrt(s * s - float(p @ p)) * np.sqrt(s * s - float(t @ t))
    return np.clip(num / denom, -1.0, 1.0) if denom > 0 else 0.0


def round_trip_stats(predictions, labels) -> tuple[float, int]:
    """Round-trip count and correctness under the opener/closer scan.

    A round trip opens at a non-stable prediction and closes at the next
    opposite-sign prediction; the closing prediction immediately opens the
    next round trip (position reversal), so each prediction acts at most once
    as an opener and at most once as a closer. A round trip is correct when
    both its opening and closing predictions match their labels. With no
    completed round trips, p_T is defined as 0.
    """
    if len(predictions) != len(labels):
        raise LengthMismatch(f"{len(predictions)} predictions vs {len(labels)} labels")
    open_idx = None
    tt = 0
    correct = 0
    for i, pred in enumerate(predictions):
        if pred == 0:
            continue
        if open_idx is None:
            open_idx = i
        elif pred == -predictions[open_idx]:
            tt += 1
            if (predictions[open_idx] == labels[open_idx]
                    and pred == labels[i]):
                correct += 1
            open_idx = i
    return (correct / tt if tt else 0.0), tt


def emit_report(reports: list[EvalReport], out_dir, config_digest: str = "",
                seed: int = 0) -> list[str]:
    """Write per-horizon metrics CSVs, quadrant CSVs, and a run manifest.

    Quadrant thresholds are the 25th percentile of TT and the 75th percentile
    of p_T across the included runs (linear interpolation).
    """
    from pathlib import Path

    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        written = []
        horizons = sorted({r.horizon for r in reports})
        for h in horizons:
            rows = [r for r in reports if r.horizon == h]

            path = out_dir / f"metrics_h{h}.csv"
            lines = ["ticker,year,f1,mcc,p_t,tt"]
            for r in rows:
                lines.append(f"{r.ticker},{r.year},{r.f1_macro!r},{r.mcc!r},"
                             f"{r.p_t!r},{r.tt}")
            # per-ticker average over years
            tickers = sorted({r.ticker for r in rows})
            for ticker in tickers:
                sub = [r for r in rows if r.ticker == ticker]
                lines.append(
                    f"{ticker},avg,{float(np.mean([r.f1_macro for r in sub]))!r},"
                    f"{float(np.mean([r.mcc for r in sub]))!r},"
                    f"{float(np.mean([r.p_t for r in sub]))!r},"
                    f"{float(np.mean([r.tt for r in sub]))!r}")
            write_atomic(path, "\n".join(lines) + "\n")
            written.append(str(path))

            qpath = out_dir / f"quadrants_h{h}.csv"
            tt_thr = float(np.percentile([r.tt for r in rows], 25))
            pt_thr = float(np.percentile([r.p_t for r in rows], 75))
            qlines = ["kind,ticker,year,tt,p_t"]
            for r in rows:
                qlines.append(f"point,{r.ticker},{r.year},{r.tt},{r.p_t!r}")
            qlines.append(f"threshold_tt_p25,,,{tt_thr!r},")
            qlines.append(f"threshold_pt_p75,,,,{pt_thr!r}")
            write_atomic(qpath, "\n".join(qlines) + "\n")
            written.append(str(qpath))

        manifest = out_dir / "run_manifest.json"
        write_atomic(manifest, json.dumps(
            {"config_digest": config_digest, "seed": seed,
             "n_reports": len(reports), "horizons": horizons},
            sort_keys=True) + "\n")
        written.append(str(manifest))
        return written
    except OSError as exc:
        raise IoFailure(str(exc)) from exc
