"""Stage implementations behind the CLI: each stage reads and writes files.

Intermediate artifacts (cleaned days, MI matrices, simplices, checkpoints,
reports) are plain files so every stage can be inspected and re-run. Every
artifact records the run config digest for tamper detection.
"""

from __future__ import annotations

import dataclasses
import glob
import hashlib
import io
import json
import logging
import math
import re
from pathlib import Path

import numpy as np

from . import engine, forkpool, infonet, lob, preprocess, train as train_mod
from .config import RunConfig
from .errors import ConfigError, DigestMismatch, IoFailure, MalformedRow, WorkerLost
from .files import TEMP_NAME, read_json, write_atomic
from .infonet import SimplicialComplex
from .model import HlobConfig, HlobModel, load_checkpoint, save_checkpoint
from .preprocess import HISTORY_DAYS, DayWindows
from .train import EvalReport, TrainConfig

log = logging.getLogger(__name__)


def meta_from_config(cfg: RunConfig) -> lob.StockMeta:
    return lob.StockMeta(ticker=cfg["ticker"], tick_size=cfg["tick_size"],
                         lot_size=cfg["lot_size"])


def day_paths(directory, ticker: str, day: str) -> tuple[Path, Path]:
    directory = Path(directory)
    return (
        directory / f"{ticker}_{day}_message_10.csv",
        directory / f"{ticker}_{day}_orderbook_10.csv",
    )


# A cleaned day is also saved as one int64 .npy table beside its CSVs: column
# 0 the timestamps, then the 40 book and the 5 message columns. The file is
# named by the digest of the two CSVs, so an edited CSV no longer matches it.
_CACHE_COLUMNS = 1 + lob.N_BOOK_COLS + lob.N_MSG_COLS - 1
_CACHE_DIGEST = re.compile(r"[0-9a-f]{64}")


def _day_digest(ob_sha256: bytes, msg_sha256: bytes) -> str:
    """Digest of a day's CSVs: sha256 of the orderbook's then the message's sha256."""
    return hashlib.sha256(ob_sha256 + msg_sha256).hexdigest()


def _cache_path(directory, ticker: str, day: str, digest: str) -> Path:
    return Path(directory) / f"{ticker}_{day}_{digest}.npy"


def _file_sha256(path: Path) -> tuple[bytes, int]:
    """sha256 of a file, read in 1 MiB chunks, and its number of lines."""
    h, lines = hashlib.sha256(), 0
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            h.update(chunk)
            # on a 4.2 MB CSV this takes 0.8 ms, and bytes.count 3 ms, as
            # long as the hash itself
            lines += np.count_nonzero(np.frombuffer(chunk, np.uint8) == 10)
    return h.digest(), lines


def _cache_file(series: lob.LobSeries) -> np.ndarray:
    """The bytes ``np.save`` writes for ``series`` as a table, in one buffer."""
    header = io.BytesIO()
    np.lib.format.write_array_header_1_0(header, {
        "descr": "<i8", "fortran_order": False, "shape": (series.T, _CACHE_COLUMNS)})
    start = header.tell()
    buf = np.empty(start + 8 * _CACHE_COLUMNS * series.T, np.uint8)
    buf[:start] = np.frombuffer(header.getbuffer(), np.uint8)
    table = buf[start:].view("<i8").reshape(series.T, _CACHE_COLUMNS)
    table[:, 0] = series.timestamps
    table[:, 1:1 + lob.N_BOOK_COLS] = series.book
    table[:, 1 + lob.N_BOOK_COLS:] = series.messages
    return buf


def _write_cache(directory, series: lob.LobSeries, digest: str) -> None:
    """Save ``series`` under ``digest`` and remove older saves of its day."""
    path = _cache_path(directory, series.meta.ticker, series.day, digest)
    write_atomic(path, _cache_file(series))
    prefix = f"{series.meta.ticker}_{series.day}_"
    for old in path.parent.glob(glob.escape(prefix) + "*.npy"):
        if old != path and _CACHE_DIGEST.fullmatch(old.name[len(prefix):-len(".npy")]):
            old.unlink()


def _load_cache(path: Path, n_rows: int, meta: lob.StockMeta,
                day: str) -> lob.LobSeries | None:
    """The day saved at ``path``, or None if it is missing or not an n_rows table."""
    try:
        with open(path, "rb") as fh:
            table = np.lib.format.read_array(fh, allow_pickle=False)
    except (OSError, ValueError):
        return None
    if table.dtype != np.dtype("<i8") or table.shape != (n_rows, _CACHE_COLUMNS):
        return None
    return lob.LobSeries(meta=meta, day=day, timestamps=table[:, 0],
                         book=table[:, 1:1 + lob.N_BOOK_COLS],
                         messages=table[:, 1 + lob.N_BOOK_COLS:])


def _csv_bytes(rows: list[str]) -> bytes:
    return ("\n".join(rows) + "\n").encode() if rows else b""


def _write_day(directory, series: lob.LobSeries) -> str:
    """Write ``series`` as its two CSVs; returns their :func:`_day_digest`."""
    msg_path, ob_path = day_paths(directory, series.meta.ticker, series.day)
    ob_rows, msg_rows = lob.serialize_lobster_pair(series)
    ob_bytes, msg_bytes = _csv_bytes(ob_rows), _csv_bytes(msg_rows)
    write_atomic(ob_path, ob_bytes)
    write_atomic(msg_path, msg_bytes)
    return _day_digest(hashlib.sha256(ob_bytes).digest(),
                      hashlib.sha256(msg_bytes).digest())


def _existing_day_paths(directory, ticker: str, day: str) -> tuple[Path, Path]:
    msg_path, ob_path = day_paths(directory, ticker, day)
    if not msg_path.exists() or not ob_path.exists():
        raise ConfigError("days", f"missing files for day {day} in {directory}")
    return msg_path, ob_path


def _read_lines(path: Path, day: str) -> list[str]:
    r"""A CSV's lines, each ending at ``\n`` or ``\r\n``; a byte that is not
    UTF-8 is a :class:`MalformedRow`.

    Only ``\n`` ends a line (``str.splitlines`` would also break at U+0085,
    U+2028 and other separators), so the line numbers and the row count are
    those of the file's ``\n`` bytes. A final newline adds no row.
    """
    raw = path.read_bytes()
    try:
        text = raw.decode()
    except UnicodeDecodeError as exc:
        raise MalformedRow(raw.count(b"\n", 0, exc.start) + 1,
                           f"byte 0x{raw[exc.start]:02x} is not valid UTF-8",
                           day=day, file=str(path)) from None
    del raw   # the bytes are not needed while the lines are built
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    if "\r" in text:
        lines = [line[:-1] if line.endswith("\r") else line for line in lines]
    return lines


def _read_day(directory, meta: lob.StockMeta, day: str,
              keep_rows: bool = False) -> lob.LobSeries:
    """Parse a day's CSV pair; with ``keep_rows`` the series keeps their lines."""
    msg_path, ob_path = _existing_day_paths(directory, meta.ticker, day)
    ob_rows, msg_rows = _read_lines(ob_path, day), _read_lines(msg_path, day)
    series = lob.parse_lobster_pair(ob_rows, msg_rows, meta, day=day,
                                    files=(str(ob_path), str(msg_path)))
    if keep_rows:
        series.source_rows = (ob_rows, msg_rows)
    return series


def run_synth(cfg: RunConfig) -> list[str]:
    """Generate a synthetic LOBSTER pair for every configured day."""
    meta = meta_from_config(cfg)
    days = cfg["days"]
    n_events, regime = cfg["synth.n_events"], cfg["synth.regime"]
    base_seed = cfg["seed"]
    data_dir = Path(cfg["data_dir"])
    data_dir.mkdir(parents=True, exist_ok=True)
    for i, day in enumerate(days):
        series = lob.synthesize_lob(
            seed=base_seed * 100_003 + i,
            n_events=n_events,
            regime=regime,
            meta=meta,
            day=day,
        )
        _write_day(data_dir, series)
    return days


# ingest runs its days on a pool only when their raw CSV pairs average at
# least MIN_POOLED_DAY_BYTES a day: on short days starting the workers costs
# more than it saves
MIN_POOLED_DAY_BYTES = 1 << 20


def run_ingest(cfg: RunConfig) -> list[str]:
    """Parse and clean every configured day into out_dir/cleaned.

    Each day is written as its two CSVs, then saved as a ``.npy`` table named
    by their digest, which later stages load instead of parsing the CSVs.
    The CSV lines of a kept row are its source lines when those are already
    canonical, and are formatted from the parsed values otherwise; the bytes
    are the same either way.
    Days are independent, so with two or more CPUs and days of at least
    ``MIN_POOLED_DAY_BYTES`` of raw CSV on average they run in a pool of
    ``min(CPUs, days, forkpool.MAX_WORKERS)`` forked worker processes;
    otherwise they run inline, in config order. Workers log nothing: each
    day's crossed rows come back with its result and are logged here, one
    WARNING a crossed day, in config order. The files written are
    byte-identical either way, and so are the stage's log and its error,
    the first failing day's (see ``forkpool.run_jobs``); a failing day logs
    only its error.
    """
    meta = meta_from_config(cfg)
    trim_start_s, trim_end_s = cfg["trim_start_s"], cfg["trim_end_s"]
    days = cfg["days"]
    data_dir = cfg["data_dir"]
    clean_dir = Path(cfg["out_dir"]) / "cleaned"
    clean_dir.mkdir(parents=True, exist_ok=True)
    workers = _ingest_workers(data_dir, meta.ticker, days)
    log.info("ingest workers: %d (%d CPUs, %d days)", workers, engine.cpu_count(),
             len(days))
    jobs = [(data_dir, clean_dir, meta, day, trim_start_s, trim_end_s) for day in days]
    try:
        for crossed in forkpool.run_jobs(lambda job: _ingest_day(*job), jobs, workers,
                                         lambda i: f"the ingest of day {days[i]}"):
            if crossed is not None:
                log.warning("crossed book at line %d (%d crossed rows)", *crossed)
    except WorkerLost:  # other workers were terminated, maybe inside write_atomic
        for tmp in clean_dir.glob(TEMP_NAME.format("*", "[0-9]*")):
            tmp.unlink()
        raise
    return days


def _ingest_day(data_dir, clean_dir: Path, meta: lob.StockMeta, day: str,
                trim_start_s: float, trim_end_s: float) -> tuple[int, int] | None:
    """Parse (keeping the source lines), clean and validate one day, and
    write its CSVs and ``.npy``. Returns the raw day's first 1-based crossed
    line and its count of crossed rows (see ``lob.crossed``), or None."""
    raw = _read_day(data_dir, meta, day, keep_rows=True)
    crossed = np.flatnonzero(lob.crossed(raw))
    cleaned = lob.clean_session(raw, trim_start_s, trim_end_s)
    del raw     # not held while the cleaned day is written
    cleaned.validate()
    _write_cache(clean_dir, cleaned, _write_day(clean_dir, cleaned))
    return (int(crossed[0]) + 1, crossed.size) if crossed.size else None


def _ingest_workers(data_dir, ticker: str, days: list[str]) -> int:
    """Worker processes for ingesting ``days``; 1 runs them inline."""
    size = 0
    for day in days:
        for path in day_paths(data_dir, ticker, day):
            try:
                size += path.stat().st_size
            except OSError:     # a missing day fails in its turn, as inline
                pass
    return forkpool.pool_workers(len(days), size, len(days) * MIN_POOLED_DAY_BYTES)


def _clean_day(cfg: RunConfig, day: str) -> lob.LobSeries:
    """One cleaned day: its ``.npy`` if that matches the CSVs, else their parse."""
    clean_dir = Path(cfg["out_dir"]) / "cleaned"
    meta = meta_from_config(cfg)
    msg_path, ob_path = _existing_day_paths(clean_dir, meta.ticker, day)
    ob_sha256, n_rows = _file_sha256(ob_path)
    msg_sha256, _ = _file_sha256(msg_path)
    path = _cache_path(clean_dir, meta.ticker, day, _day_digest(ob_sha256, msg_sha256))
    series = _load_cache(path, n_rows, meta, day)
    return series if series is not None else _read_day(clean_dir, meta, day)


def _check_digest(stored: str, cfg: RunConfig, artifact: str) -> None:
    if not stored:
        raise DigestMismatch(f"{artifact} carries no config digest")
    if stored != cfg.digest():
        raise DigestMismatch(f"{artifact} was produced under a different config")


def run_mi(cfg: RunConfig) -> Path:
    """Bootstrap daily MI matrices over the training days and average them."""
    out_dir = Path(cfg["out_dir"])
    train_days = cfg["split.train"]
    n_bins, n_bootstrap = cfg["n_bins"], cfg["bootstrap"]
    seed = cfg["seed"]
    daily, workers = [], 1
    for i, day in enumerate(sorted(train_days)):
        binned = infonet.bin_volumes(_clean_day(cfg, day), n_bins)
        workers = max(workers, infonet.mi_workers(len(binned), n_bootstrap))
        daily.append(infonet.daily_mi_matrix(binned, n_bootstrap,
                                             rng_seed=seed * 99_991 + i, day=day))
    # the largest pool a day's replicates ran on; 1 means every day inline
    log.info("mi workers: %d (%d CPUs, %d replicates)", workers, engine.cpu_count(),
             n_bootstrap)
    avg = infonet.average_mi(daily)
    json_path = out_dir / "mi_avg.json"
    write_atomic(json_path, infonet.mi_matrix_to_json(avg, cfg.digest()) + "\n")
    write_atomic(out_dir / "mi_avg.csv", infonet.mi_matrix_to_csv(avg))
    return json_path


def run_tmfg(cfg: RunConfig) -> tuple[Path, SimplicialComplex]:
    """Build the TMFG from the averaged MI matrix, write its simplices, and
    return the path written and the complex."""
    out_dir = Path(cfg["out_dir"])
    mi_path = out_dir / "mi_avg.json"
    matrix, stored = infonet.mi_matrix_from_obj(
        read_json(mi_path, infonet.MI_JSON_FIELDS), mi_path)
    _check_digest(stored, cfg, "mi_avg.json")
    graph = infonet.build_tmfg(matrix)
    complex_ = infonet.extract_simplices(graph)
    score = infonet.graph_score(matrix, graph)
    path = out_dir / "simplices.json"
    write_atomic(path, infonet.simplices_to_json(complex_, cfg.digest(), score) + "\n")
    return path, complex_


def load_simplices(cfg: RunConfig) -> SimplicialComplex:
    out_dir = Path(cfg["out_dir"])
    path = out_dir / "simplices.json"
    complex_, stored = infonet.simplices_from_obj(
        read_json(path, infonet.SIMPLICES_JSON_FIELDS), path)
    _check_digest(stored, cfg, "simplices.json")
    return complex_


def windows_for_day(cfg: RunConfig, day: str) -> DayWindows:
    """Normalize one day with trailing 5-day stats and window it with labels."""
    days = cfg["days"]
    pos = days.index(day) if day in days else -1
    if pos < HISTORY_DAYS:
        raise ConfigError("days", f"day {day} needs {HISTORY_DAYS} days before it")
    horizon, window_len = cfg["horizon"], cfg["window_len"]
    prior = [_clean_day(cfg, d) for d in days[pos - HISTORY_DAYS: pos]]
    stats = preprocess.compute_norm_stats(prior)
    series = _clean_day(cfg, day)
    if series.T <= horizon:
        raise ConfigError("horizon", f"day {day} has {series.T} events, not more "
                                     f"than {horizon}")
    normalized = preprocess.normalize_day(series, stats)
    labels = preprocess.label_series(lob.mid_price_series(series), horizon,
                                     series.meta.tick_units)
    return preprocess.build_windows(normalized, labels, day, window_len)


def _split_windows(cfg: RunConfig, key: str, days: list[str]) -> DayWindows:
    """The ``days`` of the split ``key``, each windowed, joined into one set
    that must hold a labelled window; no day's own set outlives the join."""
    windows = preprocess.join_windows([windows_for_day(cfg, d) for d in days])
    if not len(windows):
        raise ConfigError("window_len", f"no day of {key} has a labelled window of "
                                        f"{cfg['window_len']} events")
    return windows


def train_config(cfg: RunConfig) -> TrainConfig:
    """``seed``, and each other field from its ``train.<field>`` key."""
    return TrainConfig(**{f.name: cfg[f.name if f.name == "seed" else f"train.{f.name}"]
                          for f in dataclasses.fields(TrainConfig)})


def hlob_config(cfg: RunConfig) -> HlobConfig:
    return HlobConfig(window_len=cfg["window_len"])


def _log_head_threads() -> None:
    """Log the head pool's size: train runs its head convolutions on it, and
    eval its blocks of windows."""
    log.info("head conv threads: %d (%d CPUs, at most %d)",
             engine.HEAD_WORKERS, engine.CPUS, engine.MAX_HEAD_WORKERS)


def run_train(cfg: RunConfig) -> Path:
    _log_head_threads()
    out_dir = Path(cfg["out_dir"])
    config, model_config = train_config(cfg), hlob_config(cfg)
    # windows_for_day labels with horizon; read it here so that a bad value
    # stops the stage before any file is read
    cfg["horizon"]
    train_days, val_days = cfg["split.train"], cfg["split.validation"]
    complex_ = load_simplices(cfg)
    # train samples the training days in name order, each day once
    train_windows = _split_windows(cfg, "split.train", sorted(set(train_days)))
    val_windows = _split_windows(cfg, "split.validation", val_days)
    model = HlobModel(model_config, seed=config.seed)
    _, history = train_mod.train(model, train_windows, val_windows, complex_, config)
    ckpt_path = out_dir / "model.ckpt"
    save_checkpoint(model, ckpt_path, extra={"run_config_digest": cfg.digest()})
    write_atomic(out_dir / "history.json", json.dumps(history, sort_keys=True) + "\n")
    return ckpt_path


# the EvalReport fields that eval_report.json holds, and their JSON types
_REPORT_FIELDS = {"ticker": str, "year": str, "horizon": int, "f1_macro": float,
                  "mcc": float, "p_t": float, "tt": int, "confusion": list}


def _check_report(obj: dict, path: Path) -> None:
    """:class:`IoFailure` naming the first field of a read ``eval_report.json``
    that ``eval`` cannot have written: ``confusion`` must be a 3x3 list of
    counts (JSON integers, not booleans, at least 0), ``horizon`` at least 1
    and each metric in its closed range."""
    confusion = obj["confusion"]
    if not (len(confusion) == 3 and all(
            type(row) is list and len(row) == 3
            and all(type(n) is int and n >= 0 for n in row) for row in confusion)):
        raise IoFailure(f"corrupt {path}: 'confusion' is not a 3x3 list of counts")
    for key, lo, hi in (("horizon", 1, math.inf), ("f1_macro", 0, 1), ("mcc", -1, 1),
                        ("p_t", 0, 1), ("tt", 0, math.inf)):
        if not lo <= obj[key] <= hi:    # NaN is in no range
            raise IoFailure(f"corrupt {path}: '{key}' is {obj[key]!r}, "
                            f"outside [{lo}, {hi}]")


def run_eval(cfg: RunConfig) -> Path:
    _log_head_threads()
    out_dir = Path(cfg["out_dir"])
    model_config, test_days = hlob_config(cfg), cfg["split.test"]
    batch_size, horizon = cfg["train.batch_size"], cfg["horizon"]
    complex_ = load_simplices(cfg)
    model, header = load_checkpoint(out_dir / "model.ckpt", expected_config=model_config)
    _check_digest(header["extra"].get("run_config_digest", ""), cfg, "model.ckpt")

    test_windows = _split_windows(cfg, "split.test", test_days)
    report = train_mod.evaluate(model, test_windows, complex_, batch_size=batch_size)
    path = out_dir / "eval_report.json"
    obj = {key: getattr(report, key) for key in _REPORT_FIELDS}
    obj |= {"ticker": cfg["ticker"], "year": cfg["year"],
            "horizon": horizon, "confusion": report.confusion.tolist(),
            "config_digest": cfg.digest(), "p_t_definition": "opener-closer-scan-v1"}
    write_atomic(path, json.dumps(obj, sort_keys=True) + "\n")
    return path


def run_report(cfg: RunConfig) -> list[str]:
    out_dir = Path(cfg["out_dir"])
    reports = []
    for path in sorted(out_dir.glob("eval_report*.json")):
        obj = read_json(path, _REPORT_FIELDS)
        _check_report(obj, path)
        _check_digest(obj.get("config_digest", ""), cfg, path.name)
        fields = {key: obj[key] for key in _REPORT_FIELDS}
        reports.append(EvalReport(**fields | {"confusion": np.array(obj["confusion"])}))
    if not reports:
        raise ConfigError("out_dir", "no eval_report*.json files to aggregate")
    return train_mod.emit_report(reports, out_dir / "reports",
                                 config_digest=cfg.digest(),
                                 seed=cfg["seed"])


def describe_model(cfg: RunConfig) -> list[tuple[str, int]]:
    return HlobModel(hlob_config(cfg), seed=cfg["seed"]).param_count_table()


def gradcheck_suite(seed: int = 0) -> dict[str, float]:
    """Central finite-difference checks for each op the model runs, plus the full loss.

    Runs in float64; returns max relative error per check.
    """
    rng = np.random.default_rng(seed)
    results: dict[str, float] = {}

    # the heads' op, with a time kernel (kh > 1) over its (before, after) padding
    xc = engine.Tensor(rng.normal(size=(2, 5, 4, 3)).reshape(2, 5, 12))
    wc = engine.Tensor(rng.normal(size=(4, 3, 4, 2)), requires_grad=True)
    bc = engine.Tensor(rng.normal(size=4), requires_grad=True)
    results["conv_leaky_cl"] = engine.grad_check(
        lambda t: _sum_sq(engine.conv_leaky_cl(t, [[(wc, bc, (1, 2))]], 0.01)), xc)

    lstm_params = engine.LstmParams("gc", 2, 2, rng, dtype=np.float64)
    seq = engine.Tensor(rng.normal(size=(1, 3, 2)))
    results["lstm"] = engine.grad_check(
        lambda t: _sum_sq(engine.lstm([t], lstm_params)), seq)

    dw = engine.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    db = engine.Tensor(rng.normal(size=3), requires_grad=True)
    z = engine.Tensor(rng.normal(size=(2, 4)))
    results["dense"] = engine.grad_check(
        lambda t: _sum_sq(engine.dense(t, dw, db)), z)

    logits = engine.Tensor(rng.normal(size=(4, 3)))
    labels = np.array([0, 2, 1, 1])
    results["softmax_cross_entropy"] = engine.grad_check(
        lambda t: engine.softmax_cross_entropy(t, labels), logits)

    # one leading layer, conv_pv inside conv_simplex's node, checked through
    # its input and all four parameters
    pair = [engine.Tensor(rng.normal(size=shape), requires_grad=True)
            for shape in ((2, 3, 12), (3, 2, 1, 2), (3,), (4, 3, 1, 3), (4,))]

    def pair_loss(i, t):
        xt, w0, b0, w1, b1 = pair[:i] + [t] + pair[i + 1:]
        return _sum_sq(engine.conv_leaky_cl(xt, [[(w0, b0, (0, 0)), (w1, b1, (0, 0))]], 0.01))

    results["conv_leaky_cl_pair"] = max(
        engine.grad_check(lambda t, i=i: pair_loss(i, t), pair[i]) for i in range(len(pair)))

    # the heads' first three layers as they run them, conv_pv and
    # conv_simplex inside the 4x1 time layer's node over its (1, 2) padding,
    # checked through its input and all six parameters at the 24
    # largest-gradient coordinates of each: three layers deep, some
    # gradients are below finite-difference resolution, not wrong
    chain = [engine.Tensor(rng.normal(size=shape), requires_grad=True)
             for shape in ((2, 5, 12), (3, 1, 1, 2), (3,), (4, 3, 1, 3), (4,),
                           (4, 4, 4, 1), (4,))]

    def chain_loss(i, t):
        xt, w0, b0, w1, b1, w2, b2 = chain[:i] + [t] + chain[i + 1:]
        return _sum_sq(engine.conv_leaky_cl(
            xt, [[(w0, b0, (0, 0)), (w1, b1, (0, 0)), (w2, b2, (1, 2))]], 0.01))

    chain_loss(0, chain[0]).backward()
    largest = [np.argsort(np.abs(t.grad).reshape(-1))[-24:] for t in chain]
    results["conv_leaky_cl_chain"] = max(
        engine.grad_check(lambda t, i=i: chain_loss(i, t), chain[i], coords=coords)
        for i, coords in enumerate(largest))

    # the heads' last two layers as they run them: the 4x1 time layer over
    # its (1, 2) padding inside the node of a kh = 1 layer over the whole
    # row, checked through its input and all four parameters
    time_mix = [engine.Tensor(rng.normal(size=shape), requires_grad=True)
                for shape in ((2, 5, 12), (3, 3, 4, 1), (3,), (4, 3, 1, 4), (4,))]

    def time_mix_loss(i, t):
        xt, w0, b0, w1, b1 = time_mix[:i] + [t] + time_mix[i + 1:]
        return _sum_sq(engine.conv_leaky_cl(xt, [[(w0, b0, (1, 2)), (w1, b1, (0, 0))]], 0.01))

    results["conv_leaky_cl_time_mix"] = max(
        engine.grad_check(lambda t, i=i: time_mix_loss(i, t), time_mix[i])
        for i in range(len(time_mix)))

    # two segments in one node, as a head runs them: a 4x1 layer over its
    # (1, 2) padding, whose output the node keeps, then a 4x1 layer and a
    # kh = 1 layer over the whole row, made again from the kept output,
    # checked through its input and all six parameters
    segments = [engine.Tensor(rng.normal(size=shape), requires_grad=True)
                for shape in ((2, 5, 12), (3, 3, 4, 1), (3,), (3, 3, 4, 1), (3,),
                              (4, 3, 1, 4), (4,))]

    def segments_loss(i, t):
        xt, w0, b0, w1, b1, w2, b2 = segments[:i] + [t] + segments[i + 1:]
        return _sum_sq(engine.conv_leaky_cl(
            xt, [[(w0, b0, (1, 2))], [(w1, b1, (1, 2)), (w2, b2, (0, 0))]], 0.01))

    results["conv_leaky_cl_segments"] = max(
        engine.grad_check(lambda t, i=i: segments_loss(i, t), segments[i])
        for i in range(len(segments)))

    results["hlob_loss"] = hlob_loss_grad_check(seed=seed)
    return results


def _sum_sq(t: engine.Tensor) -> engine.Tensor:
    """``flat @ flat.T`` of ``t`` flattened to (1, size), one tape node whose
    gradient adds flat's term and then flat.T's, as matmul's would."""
    flat = t.data.reshape(1, -1)
    out = engine.Tensor(flat @ flat.T, parents=(t,))
    out._backward = lambda g: t._accumulate(
        ((g @ flat) + (flat.T @ g).T).reshape(t.shape), owned=True)
    return out


def hlob_loss_grad_check(seed: int = 0, n_coords: int = 24) -> float:
    """FD-check the full composed loss through a float64 model input."""
    rng = np.random.default_rng(seed)
    config = HlobConfig()
    model = HlobModel(config, seed=seed, dtype=np.float64)
    inputs = [rng.normal(size=(2, config.window_len, w_)).astype(np.float64)
              for w_ in config.head_widths]
    labels = np.array([0, 2])
    x = engine.Tensor(inputs[0])

    def loss_fn(t):
        return engine.softmax_cross_entropy(model.forward([t] + inputs[1:]), labels)

    # probe the most sensitive input coordinates: elsewhere the gradient is
    # below finite-difference resolution, not wrong
    x.requires_grad = True
    loss_fn(x).backward()
    coords = np.argsort(np.abs(x.grad).reshape(-1))[-n_coords:]
    return engine.grad_check(loss_fn, x, h=1e-3, coords=coords)
