"""Acceptance suite: ten structural, oracle-based criteria.

Each test prints one PASS line on success (visible with ``pytest -s``);
pytest itself reports one PASSED/FAILED line per criterion under ``-v``.
"""

import itertools
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import hloblab
from hloblab import cli, engine, pipeline
from hloblab.engine import LstmParams, Tensor, dense, grad_check
from hloblab.infonet import (
    build_tmfg,
    extract_simplices,
    mutual_information,
)
from hloblab.model import HlobConfig, HlobModel
from hloblab.preprocess import UNLABELED, DayWindows, balanced_sample, label_series
from hloblab.train import (
    TrainConfig,
    confusion_matrix,
    evaluate,
    f1_macro,
    mcc_multiclass,
    round_trip_stats,
    train,
)
from reference_ops import conv2d, reshape

THETA = 100  # one cent in 1e-4 currency units


def _passed(n, text):
    print(f"PASS criterion {n}: {text}")


def random_symmetric(rng, n=20):
    m = rng.random((n, n))
    m = (m + m.T) / 2
    np.fill_diagonal(m, 0.0)
    return m


# --- criterion 1 -----------------------------------------------------------

def _is_perfect_elimination(g):
    adj = {v: set() for v in range(g.n)}
    for a, b in g.edges:
        adj[a].add(b)
        adj[b].add(a)
    remaining = set(range(g.n))
    for v, _ in reversed(g.insertions):
        later = (adj[v] & remaining) - {v}
        for a, b in itertools.combinations(later, 2):
            if b not in adj[a]:
                return False
        remaining.discard(v)
    return True


def test_criterion_01_tmfg_structural_suite():
    rng = np.random.default_rng(11)
    start = time.monotonic()
    for _ in range(200):
        g = build_tmfg(random_symmetric(rng))
        assert len(g.edges) == 54            # |E| = 3|V| - 6
        assert len(g.faces) == 36            # 2|V| - 4 triangular faces
        c = extract_simplices(g)
        assert c.tetrahedra.shape == (17, 4)
        assert c.triangles.shape == (52, 3)
        assert c.edges.shape == (54, 2)
        assert _is_perfect_elimination(g)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _passed(1, f"200 TMFG builds structurally exact in {elapsed:.2f}s")


# --- criterion 2 -----------------------------------------------------------

def _enumerated_tmfg_5(w):
    """Exhaustive replay of the greedy rule for n = 5."""
    best_seed, best_sum = None, -np.inf
    for quad in itertools.combinations(range(5), 4):
        s = sum(w[a, b] for a, b in itertools.combinations(quad, 2))
        if s > best_sum:                      # ties: first = lexicographic min
            best_sum, best_seed = s, quad
    faces = [tuple(f) for f in itertools.combinations(best_seed, 3)]
    v = (set(range(5)) - set(best_seed)).pop()
    best_face, best_gain = None, -np.inf
    for face in faces:                        # discovery order
        gain = w[v, face[0]] + w[v, face[1]] + w[v, face[2]]
        if gain > best_gain:
            best_gain, best_face = gain, face
    return best_seed, v, best_face


def test_criterion_02_tmfg_oracle_equivalence():
    rng = np.random.default_rng(12)
    start = time.monotonic()
    for _ in range(50):
        w = random_symmetric(rng, 5)
        g = build_tmfg(w)
        seed, v, face = _enumerated_tmfg_5(w)
        assert g.seed_tetrahedron == seed
        assert g.insertions == ((v, face),)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _passed(2, f"50 n=5 builds equal exhaustive enumeration in {elapsed:.2f}s")


# --- criterion 3 -----------------------------------------------------------

def _columns_from_counts(counts):
    xs, ys = [], []
    for a, row in enumerate(counts):
        for b, c in enumerate(row):
            xs.extend([a] * c)
            ys.extend([b] * c)
    return np.array(xs), np.array(ys)


def _plugin_oracle(counts):
    counts = np.asarray(counts, float)
    total = counts.sum()
    rows, cols = counts.sum(axis=1), counts.sum(axis=0)
    out = 0.0
    for a in range(counts.shape[0]):
        for b in range(counts.shape[1]):
            if counts[a, b]:
                p = counts[a, b] / total
                out += p * math.log(p * total * total / (rows[a] * cols[b]))
    return out


def test_criterion_03_mi_estimator():
    fixtures = [
        [[2, 1], [1, 2]],
        [[5, 0], [0, 5]],
        [[1, 2, 3], [3, 2, 1]],
        [[10, 0, 0], [0, 10, 0], [0, 0, 10]],
        [[3, 1, 4], [1, 5, 9], [2, 6, 5]],
        [[4, 2], [2, 1]],  # product joint: exactly independent
    ]
    for counts in fixtures:
        x, y = _columns_from_counts(counts)
        assert abs(mutual_information(x, y) - _plugin_oracle(counts)) < 1e-12

    rng = np.random.default_rng(13)
    for _ in range(1000):
        x = rng.integers(0, 5, 30)
        y = rng.integers(0, 5, 30)
        m = mutual_information(x, y)
        assert m == mutual_information(y, x)   # exact symmetry
        assert m >= -1e-12                     # non-negativity
    # identity is entropy
    x = rng.integers(0, 6, 100)
    counts = np.bincount(x)
    h = -sum(c / 100 * math.log(c / 100) for c in counts if c)
    assert abs(mutual_information(x, x) - h) < 1e-12
    _passed(3, "plug-in MI matches hand values; symmetric and non-negative "
               "over 1000 random pairs")


# --- criterion 4 -----------------------------------------------------------

def test_criterion_04_parameter_count_audit():
    table = dict(HlobModel(HlobConfig(), seed=0).param_count_table())
    assert table == {
        "head.tetra.conv_pv": 96,
        "head.tri.conv_pv": 96,
        "head.edge.conv_pv": 96,
        "head.tetra.block2": 12_384,
        "head.tri.block2": 11_360,
        "head.edge.block2": 10_336,
        "head.tetra.conv_mix": 17_440,
        "head.tri.conv_mix": 53_280,
        "head.edge.conv_mix": 55_328,
        "lstm": 16_640,
        "output": 99,
        "total": 177_155,
    }
    _passed(4, "per-layer parameter counts exact, total 177,155")


# --- criterion 5 -----------------------------------------------------------

def test_criterion_05_shape_cascade():
    cfg = HlobConfig()
    model = HlobModel(cfg, seed=0)
    cascades = {"tetra": (136, 68, 17), "tri": (312, 156, 52),
                "edge": (216, 108, 54)}
    for head, arity in zip(model.heads, cfg.arities):
        w0, w1, w2 = cascades[head.name]
        h = conv2d(Tensor(np.zeros((1, 1, 100, w0), np.float32)), *head.conv_pv,
                   stride=(1, 2))
        assert h.shape == (1, 32, 100, w1)
        h = conv2d(h, *head.conv_simplex, stride=(1, arity))
        assert h.shape == (1, 32, 100, w2)
        h = conv2d(h, *head.conv_time1, padding=((1, 2), (0, 0)))
        assert h.shape == (1, 32, 100, w2)     # time extent preserved
        h = conv2d(h, *head.conv_time2, padding=((1, 2), (0, 0)))
        assert h.shape == (1, 32, 100, w2)
        h = conv2d(h, *head.conv_mix)
        assert h.shape == (1, 32, 100, 1)

    inputs = [np.zeros((2, 100, w), np.float32) for w in cfg.head_widths]
    outs = [head.forward(Tensor(a), cfg, False, None)
            for head, a in zip(model.heads, inputs)]
    seq = np.concatenate([out.data for out in outs], axis=2)
    assert seq.shape == (2, 100, 96)
    assert model.forward(inputs).shape == (2, 3)
    _passed(5, "width cascades 136/312/216 -> 1 with time extent 100; "
               "sequence 100x96; 3 logits")


# --- criterion 6 -----------------------------------------------------------

def test_criterion_06_gradient_suite():
    start = time.monotonic()
    results = pipeline.gradcheck_suite(seed=0)
    for name, err in results.items():
        assert err < 1e-6, f"float64 {name}: {err}"

    # float32 spot checks at the looser 1e-4 tolerance: the 32-bit
    # reverse-mode gradient against 64-bit central finite differences of the
    # same function (finite differences evaluated in float32 drown in
    # rounding noise before reaching the tolerance)
    def sum_sq(t):
        flat = reshape(t, (1, -1))
        return engine.matmul(flat, engine.transpose(flat))

    def fd_gradient(f, x_data, h=1e-5):
        flat = x_data.reshape(-1)
        grad = np.empty_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            f_plus = float(f(Tensor(x_data)).data.reshape(()))
            flat[i] = orig - h
            f_minus = float(f(Tensor(x_data)).data.reshape(()))
            flat[i] = orig
            grad[i] = (f_plus - f_minus) / (2 * h)
        return grad.reshape(x_data.shape)

    def norm_rel_error(a, n):
        return float(np.linalg.norm(a - n) /
                     max(np.linalg.norm(n), 1e-12))

    rng = np.random.default_rng(14)
    x = rng.standard_normal((1, 2, 4, 5))
    w = rng.standard_normal((2, 2, 2, 2))
    b = rng.standard_normal(2)

    def conv_loss(dtype):
        wt = Tensor(w.astype(dtype))
        bt = Tensor(b.astype(dtype))
        return lambda t: sum_sq(conv2d(t, wt, bt))

    x32 = Tensor(x.astype(np.float32), requires_grad=True)
    conv_loss(np.float32)(x32).backward()
    err = norm_rel_error(x32.grad.astype(np.float64),
                         fd_gradient(conv_loss(np.float64), x.copy()))
    assert err < 1e-4, f"float32 conv2d: {err}"

    z = rng.standard_normal((2, 3))
    dw = rng.standard_normal((2, 3))
    db = rng.standard_normal(2)

    def dense_loss(dtype):
        wt = Tensor(dw.astype(dtype))
        bt = Tensor(db.astype(dtype))
        return lambda t: sum_sq(dense(t, wt, bt))

    z32 = Tensor(z.astype(np.float32), requires_grad=True)
    dense_loss(np.float32)(z32).backward()
    err = norm_rel_error(z32.grad.astype(np.float64),
                         fd_gradient(dense_loss(np.float64), z.copy()))
    assert err < 1e-4, f"float32 dense: {err}"

    s = rng.standard_normal((1, 3, 2))
    p64 = LstmParams("gc64", 2, 2, np.random.default_rng(14), dtype=np.float64)
    p32 = LstmParams("gc32", 2, 2, np.random.default_rng(14), dtype=np.float32)
    s32 = Tensor(s.astype(np.float32), requires_grad=True)
    sum_sq(engine.lstm([s32], p32)).backward()
    err = norm_rel_error(
        s32.grad.astype(np.float64),
        fd_gradient(lambda t: sum_sq(engine.lstm([t], p64)), s.copy()))
    assert err < 1e-4, f"float32 lstm: {err}"

    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    _passed(6, f"all layers and the composed loss pass finite differences "
               f"in {elapsed:.1f}s")


# --- criterion 7 -----------------------------------------------------------

def test_criterion_07_labeling():
    # boundary cases, in twice-mid integer units (theta boundary inclusive)
    assert label_series(np.array([2000000, 2000000 + 2 * THETA]), 1, THETA)[0] == 1
    assert label_series(np.array([2000000, 2000000 - 2 * THETA]), 1, THETA)[0] == -1
    assert label_series(np.array([2000000, 2000000 + 2 * THETA - 1]), 1, THETA)[0] == 0
    assert label_series(np.array([2000000, 2000000 - 2 * THETA + 1]), 1, THETA)[0] == 0
    assert label_series(np.array([2000000, 2000000]), 1, THETA)[0] == 0
    # the worked case: 100.00 -> 100.02 at theta 0.01 is Up
    assert label_series(np.array([2 * 1000000, 2 * 1000200]), 1, THETA)[0] == 1

    rng = np.random.default_rng(15)
    for _ in range(1000):
        mids_x2 = 2000000 + 2 * np.cumsum(rng.integers(-200, 201, 25))
        horizon = int(rng.integers(1, 8))
        fwd = label_series(mids_x2, horizon, THETA)
        rev = label_series(2 * 2000000 - mids_x2, horizon, THETA)
        mask = fwd != UNLABELED
        np.testing.assert_array_equal(rev[mask], -fwd[mask])
    _passed(7, "boundary labels exact; anti-symmetry on 1000 random paths")


# --- criterion 8 -----------------------------------------------------------

TINY_CONFIG = HlobConfig(window_len=10, channels=4, head_widths=(8, 6, 4),
                         arities=(4, 3, 2), cardinalities=(1, 1, 1),
                         lstm_hidden=4)

from hloblab.infonet import SimplicialComplex  # noqa: E402

TINY_COMPLEX = SimplicialComplex(
    tetrahedra=np.array([[0, 1, 2, 3]]),
    triangles=np.array([[0, 1, 2]]),
    edges=np.array([[0, 1]]),
)


def _toy_windows(rng, n, day, width_t, signal):
    """n windows that share no rows, laid end to end over the day's rows."""
    labels = np.array([(-1, 0, 1)[i % 3] for i in range(n)], np.int64)
    rows = [rng.standard_normal((width_t, 40)) + signal * label for label in labels]
    return DayWindows(day, np.concatenate(rows), width_t * np.arange(n) + width_t - 1,
                      labels, width_t)


def test_criterion_08_training_harness():
    start = time.monotonic()
    rng = np.random.default_rng(16)

    # (a) early stopper fires at epoch 16 on a constant validation loss
    model = HlobModel(TINY_CONFIG, seed=0, dtype=np.float64)
    frozen = TrainConfig(lr=0.0, weight_decay=0.0, max_epochs=100,
                         balanced_cap=4, seed=1)
    _, history = train(model,
                       _toy_windows(rng, 12, "d1", 10, 0.0),
                       _toy_windows(rng, 6, "v1", 10, 0.0),
                       TINY_COMPLEX, frozen)
    assert history["stopped_epoch"] == 16

    # (b) balanced sampler: equal per-class counts under the 5000 cap
    pool = np.repeat(np.array([-1, 0, 1]), (7000, 6000, 5500))
    idx = balanced_sample(pool, cap=5000, rng_seed=0)
    picked = pool[idx].tolist()
    assert [picked.count(lab) for lab in (-1, 0, 1)] == [5000, 5000, 5000]
    mixed = np.repeat(np.array([-1, 0, 1]), (100, 200, 300))
    small = balanced_sample(mixed, cap=5000, rng_seed=0)
    labs = mixed[small].tolist()
    assert [labs.count(lab) for lab in (-1, 0, 1)] == [100, 100, 100]

    # (c) separable synthetic set: >= 95% train accuracy within 50 epochs
    # on the full-size model
    w = random_symmetric(np.random.default_rng(0))
    complex_ = extract_simplices(build_tmfg(w))
    full = HlobModel(HlobConfig(), seed=0)
    train_windows = _toy_windows(rng, 30, "d1", 100, 1.0)
    val_windows = _toy_windows(rng, 9, "v1", 100, 1.0)
    cfg = TrainConfig(lr=1e-3, max_epochs=50, balanced_cap=10, seed=2)
    train(full, train_windows, val_windows, complex_, cfg)
    report = evaluate(full, train_windows, complex_)
    accuracy = np.trace(report.confusion) / report.confusion.sum()
    elapsed = time.monotonic() - start
    assert accuracy >= 0.95, f"train accuracy {accuracy:.3f}"
    assert elapsed < 600.0
    _passed(8, f"stopper at epoch 16; balanced caps hold; separable set "
               f"reaches {accuracy:.0%} in {elapsed:.0f}s")


# --- criterion 9 -----------------------------------------------------------

def _round_trip_oracle(preds, labels):
    trips, opener = [], None
    for i, p in enumerate(preds):
        if p == 0:
            continue
        if opener is None:
            opener = i
        elif p * preds[opener] < 0:
            trips.append((opener, i))
            opener = i
    tt = len(trips)
    correct = sum(1 for o, c in trips
                  if labels[o] == preds[o] and labels[c] == preds[c])
    return (correct / tt if tt else 0.0), tt


def test_criterion_09_metrics():
    # fixed confusion matrix vs hand-derived values
    c = np.array([[50, 10, 5], [8, 60, 7], [4, 9, 47]])
    f1s = []
    for k in range(3):
        tp = c[k, k]
        precision = tp / c[:, k].sum()
        recall = tp / c[k, :].sum()
        f1s.append(2 * precision * recall / (precision + recall))
    assert abs(f1_macro(c) - sum(f1s) / 3) < 1e-10

    s = c.sum()
    num = np.trace(c) * s - sum(int(c[k, :].sum()) * int(c[:, k].sum())
                                for k in range(3))
    den = math.sqrt(s * s - sum(int(c[:, k].sum()) ** 2 for k in range(3))) \
        * math.sqrt(s * s - sum(int(c[k, :].sum()) ** 2 for k in range(3)))
    assert abs(mcc_multiclass(c) - num / den) < 1e-10

    # degenerate single-column predictions on a balanced set
    degenerate = confusion_matrix([-1, 0, 1] * 4, [1] * 12)
    assert mcc_multiclass(degenerate) == 0.0
    # perfect predictions
    perfect = confusion_matrix([-1, 0, 1] * 4, [-1, 0, 1] * 4)
    assert f1_macro(perfect) == 1.0
    assert abs(mcc_multiclass(perfect) - 1.0) < 1e-12
    rng = np.random.default_rng(17)
    for _ in range(200):
        m = confusion_matrix(*(rng.integers(-1, 2, 30).tolist()
                               for _ in range(2)))
        assert -1.0 - 1e-12 <= mcc_multiclass(m) <= 1.0 + 1e-12

    # round-trip scan vs independent oracle, exactly
    for _ in range(100):
        n = int(rng.integers(1, 50))
        preds = rng.integers(-1, 2, n).tolist()
        labels = rng.integers(-1, 2, n).tolist()
        assert round_trip_stats(preds, labels) == \
            _round_trip_oracle(preds, labels)
    _passed(9, "F1/MCC match hand arithmetic; degenerate MCC 0; "
               "round-trip scan exact on 100 sequences")


# --- criterion 10 ----------------------------------------------------------

SMOKE_DAYS = [f"1970-01-{d:02d}" for d in range(1, 10)]


def _smoke_config(root):
    values = {
        "ticker": "SYN",
        "data_dir": str(root / "data"),
        "out_dir": str(root / "out"),
        "days": ",".join(SMOKE_DAYS),
        "split.train": f"{SMOKE_DAYS[5]},{SMOKE_DAYS[7]}",
        "split.validation": SMOKE_DAYS[6],
        "split.test": SMOKE_DAYS[8],
        "synth.n_events": "220",
        "synth.regime": "sparse",
        "n_bins": "8",
        "bootstrap": "2",
        "seed": "7",
        "train.max_epochs": "3",
        "train.balanced_cap": "8",
        "train.lr": "1e-3",
    }
    root.mkdir(parents=True, exist_ok=True)
    path = root / "run.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    return path


def _artifact_fingerprint(out_dir):
    """Map artifact path -> bytes."""
    snapshot = {}
    for path in sorted(out_dir.rglob("*")):
        if path.is_file():
            snapshot[str(path.relative_to(out_dir))] = path.read_bytes()
    return snapshot


def _run_smoke(root):
    cfg = str(_smoke_config(root))
    for verb in ("synth", "ingest", "mi", "tmfg", "train", "eval", "report"):
        assert cli.dispatch([verb, "--config", cfg]) == 0, f"{verb} failed"
    return _artifact_fingerprint(root / "out")


def test_criterion_10_end_to_end_smoke(tmp_path):
    start = time.monotonic()
    first = _run_smoke(tmp_path / "run1")
    second = _run_smoke(tmp_path / "run2")
    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], f"artifact {name} differs"
    report = json.loads((tmp_path / "run1" / "out" /
                         "eval_report.json").read_text())
    assert report["p_t_definition"] == "opener-closer-scan-v1"
    assert sum(sum(row) for row in report["confusion"]) > 0
    elapsed = time.monotonic() - start
    assert elapsed < 900.0
    _passed(10, f"two full pipeline runs byte-identical in {elapsed:.0f}s")


def test_criterion_10_config_trains_one_model_under_any_blas_setting(tmp_path):
    """The same model.ckpt and history.json whatever BLAS thread variables
    are set, and a head pool of min(4, cpus). Each run is its own ``python -m
    hloblab.cli`` process with an environment built here, as this process
    has OpenBLAS pinned already. OpenBLAS's own default is a thread per CPU,
    which rounds some of the weight-gradient GEMMs differently from one."""
    dropped = ("OPENBLAS_", "GOTO_NUM_THREADS", "OMP_NUM_THREADS", "HLOBLAB_")
    base = {k: v for k, v in os.environ.items() if not k.startswith(dropped)}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(Path(hloblab.__file__).parents[1]), os.environ.get("PYTHONPATH")]))
    cpus = engine.cpu_count()
    pool_line = (f"INFO hloblab.pipeline: head conv threads: {min(4, cpus)} "
                 f"({cpus} CPUs, at most 4)")
    written = {}
    for name, blas in (("unset", {}), ("openblas-1", {"OPENBLAS_NUM_THREADS": "1"}),
                       ("openblas-2", {"OPENBLAS_NUM_THREADS": "2"}),
                       ("omp-2", {"OMP_NUM_THREADS": "2"})):
        root = tmp_path / name
        cfg = str(_smoke_config(root))
        for verb in ("synth", "ingest", "mi", "tmfg", "train"):
            done = subprocess.run([sys.executable, "-m", "hloblab.cli", "-v", verb,
                                   "--config", cfg], env={**base, **blas},
                                  capture_output=True, text=True, timeout=300)
            assert done.returncode == 0, (name, verb, done.stderr)
        assert done.stderr.splitlines().count(pool_line) == 1, (name, done.stderr)
        written[name] = {n: (root / "out" / n).read_bytes()
                         for n in ("model.ckpt", "history.json")}
    for name, files in written.items():
        assert files == written["unset"], name
