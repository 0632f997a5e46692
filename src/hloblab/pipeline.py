"""Stage implementations behind the CLI: each stage reads and writes files.

Intermediate artifacts (cleaned days, MI matrices, simplices, checkpoints,
reports) are plain files so every stage can be inspected and re-run. Every
artifact records the run config digest for tamper detection.
"""

from __future__ import annotations

import glob
import hashlib
import io
import json
import logging
import re
from pathlib import Path

import numpy as np

from . import engine, infonet, lob, preprocess, train as train_mod
from .config import RunConfig
from .errors import ConfigError, DigestMismatch, MalformedRow
from .files import read_json, write_atomic
from .infonet import SimplicialComplex
from .model import HlobConfig, HlobModel, load_checkpoint, save_checkpoint
from .preprocess import HISTORY_DAYS, DayWindows
from .train import EvalReport, TrainConfig

log = logging.getLogger(__name__)


def meta_from_config(cfg: RunConfig) -> lob.StockMeta:
    return lob.StockMeta(ticker=cfg.get_str("ticker"),
                         tick_size=cfg.get_float("tick_size"),
                         lot_size=cfg.get_int("lot_size"))


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
            lines += chunk.count(b"\n")
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
    """A CSV's lines; a byte that is not UTF-8 is a :class:`MalformedRow`."""
    raw = path.read_bytes()
    try:
        text = raw.decode()
    except UnicodeDecodeError as exc:
        raise MalformedRow(raw.count(b"\n", 0, exc.start) + 1,
                           f"byte 0x{raw[exc.start]:02x} is not valid UTF-8",
                           day=day, file=str(path)) from None
    del raw   # the bytes are not needed while the lines are built
    return text.splitlines()


def _read_day(directory, meta: lob.StockMeta, day: str) -> lob.LobSeries:
    msg_path, ob_path = _existing_day_paths(directory, meta.ticker, day)
    return lob.parse_lobster_pair(
        _read_lines(ob_path, day),
        _read_lines(msg_path, day),
        meta,
        day=day,
        files=(str(ob_path), str(msg_path)),
    )


def run_synth(cfg: RunConfig) -> list[str]:
    """Generate a synthetic LOBSTER pair for every configured day."""
    meta = meta_from_config(cfg)
    days = cfg.get_days("days")
    if not days:
        raise ConfigError("days", "no days configured")
    n_events, regime = cfg.get_int("synth.n_events"), cfg.get_str("synth.regime")
    base_seed = cfg.get_int("seed")
    data_dir = Path(cfg.get_str("data_dir"))
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


def run_ingest(cfg: RunConfig) -> list[str]:
    """Parse and clean every configured day into out_dir/cleaned.

    Each day is written as its two CSVs, then saved as a ``.npy`` table named
    by their digest, which later stages load instead of parsing the CSVs.
    """
    meta = meta_from_config(cfg)
    trim_start_s, trim_end_s = cfg.get_float("trim_start_s"), cfg.get_float("trim_end_s")
    days = cfg.get_days("days")
    data_dir = cfg.get_str("data_dir")
    clean_dir = Path(cfg.get_str("out_dir")) / "cleaned"
    clean_dir.mkdir(parents=True, exist_ok=True)
    for day in days:
        cleaned = lob.clean_session(_read_day(data_dir, meta, day),
                                    trim_start_s, trim_end_s)
        cleaned.validate()
        _write_cache(clean_dir, cleaned, _write_day(clean_dir, cleaned))
    return days


def _clean_day(cfg: RunConfig, day: str) -> lob.LobSeries:
    """One cleaned day: its ``.npy`` if that matches the CSVs, else their parse."""
    clean_dir = Path(cfg.get_str("out_dir")) / "cleaned"
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
    out_dir = Path(cfg.get_str("out_dir"))
    train_days = cfg.get_days("split.train")
    if not train_days:
        raise ConfigError("split.train", "no training days configured")
    n_bins, n_bootstrap = cfg.get_int("n_bins"), cfg.get_int("bootstrap")
    seed = cfg.get_int("seed")
    daily = []
    for i, day in enumerate(sorted(train_days)):
        binned = infonet.bin_volumes(_clean_day(cfg, day), n_bins)
        daily.append(infonet.daily_mi_matrix(binned, n_bootstrap,
                                             rng_seed=seed * 99_991 + i))
    avg = infonet.average_mi(daily)
    json_path = out_dir / "mi_avg.json"
    write_atomic(json_path, infonet.mi_matrix_to_json(avg, cfg.digest()) + "\n")
    write_atomic(out_dir / "mi_avg.csv", infonet.mi_matrix_to_csv(avg))
    return json_path


def run_tmfg(cfg: RunConfig) -> Path:
    """Build the TMFG from the averaged MI matrix and emit its simplices."""
    out_dir = Path(cfg.get_str("out_dir"))
    mi_path = out_dir / "mi_avg.json"
    matrix, stored = infonet.mi_matrix_from_obj(
        read_json(mi_path, infonet.MI_JSON_FIELDS), mi_path)
    _check_digest(stored, cfg, "mi_avg.json")
    graph = infonet.build_tmfg(matrix)
    complex_ = infonet.extract_simplices(graph)
    score = infonet.graph_score(matrix, graph)
    path = out_dir / "simplices.json"
    obj = json.loads(infonet.simplices_to_json(complex_, cfg.digest()))
    obj["retained_weight"] = score
    write_atomic(path, json.dumps(obj, sort_keys=True) + "\n")
    return path


def load_simplices(cfg: RunConfig) -> SimplicialComplex:
    out_dir = Path(cfg.get_str("out_dir"))
    path = out_dir / "simplices.json"
    complex_, stored = infonet.simplices_from_obj(
        read_json(path, infonet.SIMPLICES_JSON_FIELDS), path)
    _check_digest(stored, cfg, "simplices.json")
    return complex_


def windows_for_day(cfg: RunConfig, day: str) -> DayWindows:
    """Normalize one day with trailing 5-day stats and window it with labels."""
    days = cfg.get_days("days")
    pos = days.index(day) if day in days else -1
    if pos < HISTORY_DAYS:
        raise ConfigError("days", f"day {day} needs {HISTORY_DAYS} days before it")
    horizon, window_len = cfg.get_int("horizon"), cfg.get_int("window_len")
    prior = [_clean_day(cfg, d) for d in days[pos - HISTORY_DAYS: pos]]
    stats = preprocess.compute_norm_stats(prior)
    series = _clean_day(cfg, day)
    normalized = preprocess.normalize_day(series, stats)
    labels = preprocess.label_series(lob.mid_price_series(series), horizon,
                                     series.meta.tick_units)
    return preprocess.build_windows(normalized, labels, day, window_len)


def train_config(cfg: RunConfig) -> TrainConfig:
    return TrainConfig(
        batch_size=cfg.get_int("train.batch_size"),
        max_epochs=cfg.get_int("train.max_epochs"),
        early_stop_delta=cfg.get_float("train.early_stop_delta"),
        patience=cfg.get_int("train.patience"),
        lr=cfg.get_float("train.lr"),
        beta1=cfg.get_float("train.beta1"),
        beta2=cfg.get_float("train.beta2"),
        eps=cfg.get_float("train.eps"),
        weight_decay=cfg.get_float("train.weight_decay"),
        balanced_cap=cfg.get_int("train.balanced_cap"),
        seed=cfg.get_int("seed"),
    )


def hlob_config(cfg: RunConfig) -> HlobConfig:
    return HlobConfig(window_len=cfg.get_int("window_len"))


def _log_head_threads() -> None:
    log.info("head conv threads: %d (%d CPUs / %d BLAS threads, at most %d)",
             engine.HEAD_WORKERS, engine.CPUS, engine.BLAS_THREADS,
             engine.MAX_HEAD_WORKERS)


def run_train(cfg: RunConfig) -> Path:
    _log_head_threads()
    out_dir = Path(cfg.get_str("out_dir"))
    config, model_config = train_config(cfg), hlob_config(cfg)
    # windows_for_day labels with horizon; read it here so that a bad value
    # stops the stage before any file is read
    cfg.get_int("horizon")
    train_days, val_days = cfg.get_days("split.train"), cfg.get_days("split.validation")
    complex_ = load_simplices(cfg)
    train_by_day = {d: windows_for_day(cfg, d) for d in train_days}
    val_windows = [windows_for_day(cfg, d) for d in val_days]
    model = HlobModel(model_config, seed=config.seed)
    _, history = train_mod.train(model, train_by_day, val_windows, complex_, config)
    ckpt_path = out_dir / "model.ckpt"
    save_checkpoint(model, ckpt_path, extra={"run_config_digest": cfg.digest()})
    write_atomic(out_dir / "history.json", json.dumps(history, sort_keys=True) + "\n")
    return ckpt_path


# the EvalReport fields that eval_report.json holds, and their JSON types
_REPORT_FIELDS = {"ticker": str, "year": str, "horizon": int, "f1_macro": float,
                  "mcc": float, "p_t": float, "tt": int, "confusion": list}


def run_eval(cfg: RunConfig) -> Path:
    _log_head_threads()
    out_dir = Path(cfg.get_str("out_dir"))
    model_config, test_days = hlob_config(cfg), cfg.get_days("split.test")
    batch_size, horizon = cfg.get_int("train.batch_size"), cfg.get_int("horizon")
    complex_ = load_simplices(cfg)
    model, header = load_checkpoint(out_dir / "model.ckpt", expected_config=model_config)
    _check_digest(header["extra"].get("run_config_digest", ""), cfg, "model.ckpt")

    test_windows = [windows_for_day(cfg, d) for d in test_days]
    report = train_mod.evaluate(model, test_windows, complex_, batch_size=batch_size,
                                ticker=cfg.get_str("ticker"), year=cfg.get_str("year"),
                                horizon=horizon)
    path = out_dir / "eval_report.json"
    obj = {key: getattr(report, key) for key in _REPORT_FIELDS}
    obj |= {"confusion": report.confusion.tolist(), "config_digest": cfg.digest(),
            "p_t_definition": "opener-closer-scan-v1"}
    write_atomic(path, json.dumps(obj, sort_keys=True) + "\n")
    return path


def run_report(cfg: RunConfig) -> list[str]:
    out_dir = Path(cfg.get_str("out_dir"))
    reports = []
    for path in sorted(out_dir.glob("eval_report*.json")):
        obj = read_json(path, _REPORT_FIELDS)
        _check_digest(obj.get("config_digest", ""), cfg, path.name)
        fields = {key: obj[key] for key in _REPORT_FIELDS}
        reports.append(EvalReport(**fields | {"confusion": np.array(obj["confusion"])}))
    if not reports:
        raise ConfigError("out_dir", "no eval_report*.json files to aggregate")
    return train_mod.emit_report(reports, out_dir / "reports",
                                 config_digest=cfg.digest(),
                                 seed=cfg.get_int("seed"))


def describe_model(cfg: RunConfig) -> list[tuple[str, int]]:
    return HlobModel(hlob_config(cfg), seed=cfg.get_int("seed")).param_count_table()


def gradcheck_suite(seed: int = 0) -> dict[str, float]:
    """Central finite-difference checks for each op the model runs, plus the full loss.

    Runs in float64; returns max relative error per check.
    """
    rng = np.random.default_rng(seed)
    results: dict[str, float] = {}

    # the heads' op, with a time kernel (kh > 1) over its (before, after) padding
    xc = engine.Tensor(rng.normal(size=(2, 5, 4, 3)))
    wc = engine.Tensor(rng.normal(size=(4, 3, 4, 2)), requires_grad=True)
    bc = engine.Tensor(rng.normal(size=4), requires_grad=True)
    results["conv_leaky_cl"] = engine.grad_check(
        lambda t: _sum_sq(engine.conv_leaky_cl(t, wc, bc, 0.01, time_pad=(1, 2))), xc)

    lstm_params = engine.LstmParams("gc", 2, 2, rng, dtype=np.float64)
    seq = engine.Tensor(rng.normal(size=(1, 3, 2)))
    results["lstm"] = engine.grad_check(
        lambda t: _sum_sq(engine.lstm(t, lstm_params)[0]), seq)

    dw = engine.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    db = engine.Tensor(rng.normal(size=3), requires_grad=True)
    z = engine.Tensor(rng.normal(size=(2, 4)))
    results["dense"] = engine.grad_check(
        lambda t: _sum_sq(engine.dense(t, dw, db)), z)

    logits = engine.Tensor(rng.normal(size=(4, 3)))
    labels = np.array([0, 2, 1, 1])
    results["softmax_cross_entropy"] = engine.grad_check(
        lambda t: engine.softmax_cross_entropy(t, labels), logits)

    results["hlob_loss"] = hlob_loss_grad_check(seed=seed)
    return results


def _sum_sq(t: engine.Tensor) -> engine.Tensor:
    flat = engine.reshape(t, (1, -1))
    return engine.matmul(flat, engine.transpose(flat))


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
        n, tt, w_ = t.data.shape
        head = model.heads[0]
        h0 = head.forward(engine.reshape(t, (n, 1, tt, w_)), config, False, None)
        others = []
        for hd, a in zip(model.heads[1:], inputs[1:]):
            a = np.asarray(a)
            hx = engine.Tensor(a.reshape(a.shape[0], 1, a.shape[1], a.shape[2]))
            others.append(hd.forward(hx, config, False, None))
        seq = engine.concat([h0] + others, axis=2)
        _, h_final, _ = engine.lstm(seq, model.lstm)
        logits = engine.dense(h_final, model.out_w.tensor, model.out_b.tensor)
        return engine.softmax_cross_entropy(logits, labels)

    # probe the most sensitive input coordinates: elsewhere the gradient is
    # below finite-difference resolution, not wrong
    x.requires_grad = True
    loss_fn(x).backward()
    coords = np.argsort(np.abs(x.grad).reshape(-1))[-n_coords:]
    return engine.grad_check(loss_fn, x, h=1e-3, coords=coords)
