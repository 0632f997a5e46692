"""The benchmark's workloads: inputs, program config, timed passes and checks.

Every workload is a closed loop: one process runs its stages in order and
starts the next pass only when the previous one has finished. All three use
the same nine-day layout: five history days (trailing z-score only), two
training days, one validation day and one test day.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import lobgen

TICKER = "SYN"
DAYS = ("2024-01-02", "2024-01-03", "2024-01-04", "2024-01-05", "2024-01-08",
        "2024-01-09", "2024-01-10", "2024-01-11", "2024-01-12")
TRAIN_DAYS, VAL_DAYS, TEST_DAYS = DAYS[5:7], DAYS[7:8], DAYS[8:9]
WINDOW_LEN = 100
HORIZON = 10
BATCH = 32
PARAMETERS = 177_155

BASE_CONFIG = {
    "ticker": TICKER,
    "days": ",".join(DAYS),
    "split.train": ",".join(TRAIN_DAYS),
    "split.validation": ",".join(VAL_DAYS),
    "split.test": ",".join(TEST_DAYS),
    "horizon": str(HORIZON),
    "window_len": str(WINDOW_LEN),
    "n_bins": "32",
    "bootstrap": "10",
    "seed": "0",
    "train.batch_size": str(BATCH),
}


@dataclass(frozen=True)
class Workload:
    name: str
    events: tuple[int, ...]          # raw events per configured day
    setup: tuple[str, ...]           # cli verbs run once per set-up
    timed: tuple[str, ...]           # cli verbs run in every timed pass
    item: str                        # what one unit of items_per_s is
    window_days: tuple[str, ...] = ()  # days windowed after the verbs
    config: dict = field(default_factory=dict)

    def program_config(self, data_dir: Path, out_dir: Path) -> str:
        values = dict(BASE_CONFIG, data_dir=str(data_dir), out_dir=str(out_dir))
        values.update(self.config)
        return "".join(f"{k} = {v}\n" for k, v in values.items())


# what each timed verb writes under out_dir; removed before every pass so
# a stale artifact cannot pass the checks
OUTPUTS = {"ingest": ("cleaned",), "mi": ("mi_avg.json", "mi_avg.csv"),
           "tmfg": ("simplices.json",), "train": ("model.ckpt", "history.json"),
           "eval": ("eval_report.json",)}

SHORT = (600,) * 7 + (150,)

WORKLOADS = {
    # the desk-scale data path: ingest, MI, TMFG and windowing, no engine
    "desk-data": Workload(
        "desk-data", (20_000,) * 9, (), ("ingest", "mi", "tmfg"), "raw book events",
        TRAIN_DAYS + VAL_DAYS + TEST_DAYS),
    # the train stage at batch 32: engine forward, backward and AdamW
    "train-fit": Workload(
        "train-fit", SHORT + (150,), ("ingest", "mi", "tmfg"), ("train",),
        "training windows",
        config={"train.max_epochs": "2", "train.patience": "2",
                "train.balanced_cap": "16", "train.lr": "1e-3"}),
    # the eval stage over one long test day: forward only, short last batch
    "eval-scan": Workload(
        "eval-scan", SHORT + (700,), ("ingest", "mi", "tmfg", "train"), ("eval",),
        "test windows",
        config={"train.max_epochs": "1", "train.patience": "1",
                "train.balanced_cap": "1", "train.lr": "1e-3"}),
}


def make_days(seed: int, workload: Workload) -> list[lobgen.Day]:
    return [lobgen.make_day(seed, i, name, n)
            for i, (name, n) in enumerate(zip(DAYS, workload.events))]


def expected(days: list[lobgen.Day], names) -> dict[str, lobgen.ExpectedWindows]:
    return {d: lobgen.expected_windows(days, DAYS.index(d), WINDOW_LEN, HORIZON)
            for d in names}


def items_per_pass(workload: Workload, days: list[lobgen.Day]) -> int:
    """The work one pass does, in the workload's unit of ``items_per_s``."""
    if "ingest" in workload.timed:
        return sum(d.n_events for d in days)
    if "train" in workload.timed:
        # balanced sampling takes min(cap, rarest class) windows per class
        epochs = int(workload.config["train.max_epochs"])
        cap = int(workload.config["train.balanced_cap"])
        per_epoch = sum(3 * min(cap, int(np.bincount(e.labels + 1, minlength=3).min()))
                        for e in expected(days, TRAIN_DAYS).values())
        return epochs * per_epoch
    return sum(len(e.origins) for e in expected(days, TEST_DAYS).values())


# --- output checks ----------------------------------------------------------

def check_windows(day: str, windows, want: lobgen.ExpectedWindows) -> list[str]:
    """Compare one day's windows against the generator's oracle."""
    if len(windows) != len(want.origins):
        return [f"{day}: {len(windows)} windows, expected {len(want.origins)}"]
    origins = np.array([w.origin for w in windows])
    labels = np.array([w.label for w in windows])
    if not np.array_equal(origins, want.origins):
        return [f"{day}: window origins differ"]
    if not np.array_equal(labels, want.labels):
        return [f"{day}: {int((labels != want.labels).sum())} labels differ"]
    if any(w.features.shape != (WINDOW_LEN, lobgen.N_BOOK_COLS) for w in windows):
        return [f"{day}: window shape differs"]
    last = np.stack([w.features[-1] for w in windows])
    first = np.stack([w.features[0] for w in windows])
    if not (np.allclose(last, want.normalized[want.origins], rtol=1e-9, atol=1e-9)
            and np.allclose(first, want.normalized[want.origins - WINDOW_LEN + 1],
                            rtol=1e-9, atol=1e-9)):
        return [f"{day}: normalized features differ"]
    return []


def check_mi(out_dir: Path) -> list[str]:
    from hloblab import infonet
    m, _ = infonet.mi_matrix_from_json((out_dir / "mi_avg.json").read_text())
    problems = []
    if m.shape != (20, 20) or not np.all(np.isfinite(m)):
        return ["mi_avg.json: not a finite 20x20 matrix"]
    if not np.array_equal(m, m.T):
        problems.append("mi_avg.json: not symmetric")
    if m.min() < -1e-12:
        problems.append("mi_avg.json: negative mutual information")
    off = m - np.diag(np.diag(m))
    if np.any(off.max(axis=1) > np.diag(m) + 1e-9):
        problems.append("mi_avg.json: MI exceeds a column entropy")
    return problems


def check_simplices(out_dir: Path) -> list[str]:
    from hloblab import infonet
    c, _ = infonet.simplices_from_json((out_dir / "simplices.json").read_text())
    shapes = (c.tetrahedra.shape, c.triangles.shape, c.edges.shape)
    if shapes != ((17, 4), (52, 3), (54, 2)):
        return [f"simplices.json: shapes {shapes}"]
    if c.edges.min() < 0 or c.edges.max() >= 20:
        return ["simplices.json: vertex out of range"]
    return []


def check_history(out_dir: Path, epochs: int) -> tuple[list[str], float]:
    history = json.loads((out_dir / "history.json").read_text())
    losses = history.get("val_loss", [])
    if len(losses) != epochs:
        return [f"history.json: {len(losses)} epochs, expected {epochs}"], math.nan
    if not all(math.isfinite(v) for v in losses + history.get("train_loss", [])):
        return ["history.json: non-finite loss"], math.nan
    return [], float(losses[-1])


def check_checkpoint(out_dir: Path) -> list[str]:
    from hloblab import model
    net, _ = model.load_checkpoint(out_dir / "model.ckpt")
    count = sum(p.data.size for p in net.parameters())
    return [] if count == PARAMETERS else [f"model.ckpt: {count} parameters"]


def check_eval(out_dir: Path, n_windows: int) -> list[str]:
    report = json.loads((out_dir / "eval_report.json").read_text())
    confusion = np.array(report["confusion"])
    problems = []
    if confusion.shape != (3, 3) or int(confusion.sum()) != n_windows:
        problems.append(f"eval_report.json: confusion sums to {confusion.sum()}, "
                        f"expected {n_windows} windows")
    if not all(math.isfinite(report[k]) for k in ("f1_macro", "mcc", "p_t")):
        problems.append("eval_report.json: non-finite metric")
    return problems


# --- fingerprints -----------------------------------------------------------

FINGERPRINTED = ("mi_avg.json", "simplices.json", "history.json", "eval_report.json")


def fingerprint(out_dir: Path) -> dict[str, str]:
    """sha256 of every cleaned day and of each fingerprinted artifact present."""
    fp = {}
    cleaned = out_dir / "cleaned"
    if cleaned.is_dir():
        h = hashlib.sha256()
        for path in sorted(p for p in cleaned.rglob("*") if p.is_file()):
            h.update(path.relative_to(cleaned).as_posix().encode())
            h.update(path.read_bytes())
        fp["cleaned"] = h.hexdigest()
    for name in FINGERPRINTED:
        if (out_dir / name).exists():
            fp[name] = hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
    return fp


def windows_digest(windows_by_day: dict) -> str:
    h = hashlib.sha256()
    for day in sorted(windows_by_day):
        ws = windows_by_day[day]
        h.update(day.encode())
        h.update(np.array([w.label for w in ws], np.int64).tobytes())
        h.update(np.array([w.origin for w in ws], np.int64).tobytes())
        h.update(np.ascontiguousarray(np.stack([w.features[-1] for w in ws])).tobytes())
    return h.hexdigest()


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()
