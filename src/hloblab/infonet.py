"""Volume binning, mutual information, TMFG construction, and head inputs.

Vertex indexing is fixed everywhere: 0-9 are ask volume levels 1-10, 10-19
are bid volume levels 1-10. Mutual information is the plug-in estimator in
nats; the diagonal of an MI matrix carries the empirical entropy of each
column.
"""

from __future__ import annotations

import itertools
import json
import logging
from dataclasses import dataclass

import numpy as np

from . import forkpool
from .errors import (
    AsymmetricInput,
    EmptyList,
    IndexOutOfRange,
    IoFailure,
    LengthMismatch,
    TooFewVertices,
)
from .lob import ASK_V, BID_V, LobSeries, N_LEVELS

log = logging.getLogger(__name__)

N_VERTICES = 2 * N_LEVELS  # 20 volume levels
DEFAULT_BINS = 32
DEFAULT_BOOTSTRAP = 10


@dataclass(frozen=True)
class Tmfg:
    """Greedy maximally filtered planar graph over 20 volume levels."""

    n: int
    seed_tetrahedron: tuple[int, int, int, int]
    insertions: tuple[tuple[int, tuple[int, int, int]], ...]  # (vertex, host face)
    edges: tuple[tuple[int, int], ...]
    faces: tuple[tuple[int, int, int], ...]  # triangular faces at termination


@dataclass(frozen=True)
class SimplicialComplex:
    """The TMFG's tetrahedra, triangles, and edges in canonical order."""

    tetrahedra: np.ndarray  # (n-3, 4)
    triangles: np.ndarray   # (3n-8, 3)
    edges: np.ndarray       # (3n-6, 2)


def volume_columns(series: LobSeries) -> np.ndarray:
    """The day's (T, 20) volume matrix: ask levels 1-10 then bid levels 1-10."""
    return np.concatenate(
        [series.book[:, ASK_V::4], series.book[:, BID_V::4]], axis=1
    )


def bin_volumes(series: LobSeries, n_bins: int = DEFAULT_BINS) -> np.ndarray:
    """The day's (T, 20) int64 bin indices: equally spaced bins, one width
    shared by all 20 volume columns."""
    if n_bins < 2:
        raise ValueError("n_bins must be >= 2")
    vols = volume_columns(series).astype(np.float64)
    lo, hi = vols.min(), vols.max()
    if hi == lo:
        log.warning("degenerate volume range (%s); all samples in bin 0", lo)
        return np.zeros(vols.shape, np.int64)
    width = (hi - lo) / n_bins
    return np.minimum(np.floor((vols - lo) / width).astype(np.int64), n_bins - 1)


def mutual_information(x: np.ndarray, y: np.ndarray) -> float:
    """Plug-in MI in nats from two equal-length integer columns.

    MI(x, x) equals the empirical entropy H(x).
    """
    x = np.asarray(x)
    y = np.asarray(y)
    if x.shape != y.shape:
        raise LengthMismatch(f"{x.shape} vs {y.shape}")
    return _mi_from_joint(_joint_counts(x, y, int(x.max()) + 1, int(y.max()) + 1))


def _joint_counts(x: np.ndarray, y: np.ndarray, nx: int, ny: int) -> np.ndarray:
    """The (nx, ny) joint histogram of columns with values below nx and ny."""
    return np.bincount(x * ny + y, minlength=nx * ny).reshape(nx, ny)


def _mi_from_joint(counts: np.ndarray) -> float:
    total = counts.sum()
    p = counts / total
    px = p.sum(axis=1, keepdims=True)
    py = p.sum(axis=0, keepdims=True)
    mask = p > 0
    terms = p[mask] * np.log(p[mask] / (px @ py)[mask])
    # canonical summation order makes MI(x, y) == MI(y, x) bit-exact
    return float(np.sort(terms).sum())


def _mi_of_columns(cols: np.ndarray) -> np.ndarray:
    """Pairwise MI matrix of a C-contiguous (k, T) stack, one row per column.

    Each pair's joint keeps the (nx, ny) shape of its own columns' maxima,
    and each diagonal entry is the entropy of the diagonal joint that
    ``_joint_counts(x, x)`` builds, so the values are those of the per-pair
    plug-in estimate. Rows, not strided columns, keep every pair code cheap.
    """
    k = cols.shape[0]
    n = (cols.max(axis=1) + 1).tolist()
    out = np.zeros((k, k))
    for i in range(k):
        out[i, i] = _mi_from_joint(np.diag(np.bincount(cols[i], minlength=n[i])))
        for j in range(i + 1, k):
            v = _mi_from_joint(_joint_counts(cols[i], cols[j], n[i], n[j]))
            out[i, j] = out[j, i] = v
    return out


# a day's bootstrap replicates run on a pool only when each worker gets two
# replicates or more and replicates x rows reaches MIN_POOLED_MI_WORK. A
# replicate costs about 10 ms plus 0.7 us a row (its 210 pair histograms
# dominate), and starting and stopping a pool 12-40 ms: in the probe
# recorded in CHANGES.md a pool that saved one replicate's time (2 or 3
# replicates on two workers) lost at every size, and 10 replicates of 220
# rows broke even
MIN_POOLED_MI_WORK = 3_000


def mi_workers(n_rows: int, n_bootstrap: int) -> int:
    """Worker processes for ``n_bootstrap`` replicates of a day of
    ``n_rows`` rows; 1 runs them inline."""
    return forkpool.pool_workers(n_bootstrap // 2, n_bootstrap * n_rows,
                                 MIN_POOLED_MI_WORK)


def daily_mi_matrix(binned_indices: np.ndarray, n_bootstrap: int = DEFAULT_BOOTSTRAP,
                    rng_seed: int = 0, *, day: str | None = None) -> np.ndarray:
    """Bootstrap-averaged daily MI matrix.

    The day's columns are transposed once; each replicate takes its resampled
    rows along the time axis, which gives a C-contiguous (20, T) stack.
    Replicates are independent once their rows are drawn, so when
    :func:`mi_workers` gives more than one worker, all the draws are made
    first, in the same order from the same generator, and the replicates run
    on a pool of forked processes that inherit the columns and the draws
    (``forkpool.run_jobs``). Their matrices are added in replicate order
    either way, so the result is bit-identical to the inline loop. A lost
    worker's error names its replicate, and ``day`` when given.
    """
    if n_bootstrap < 1:
        raise ValueError("n_bootstrap must be >= 1")
    rng = np.random.default_rng(rng_seed)
    cols = np.ascontiguousarray(binned_indices.T)
    t = cols.shape[1]
    draws = (rng.integers(0, t, size=t) for _ in range(n_bootstrap))
    acc = np.zeros((N_VERTICES, N_VERTICES))
    of_day = "" if day is None else f" of day {day}"
    for mi in forkpool.run_jobs(lambda rows: _mi_of_columns(np.take(cols, rows, axis=1)),
                                draws, mi_workers(t, n_bootstrap),
                                lambda i: f"MI bootstrap replicate {i + 1} of "
                                          f"{n_bootstrap}{of_day}"):
        acc += mi
    return acc / n_bootstrap


def average_mi(daily: list[np.ndarray]) -> np.ndarray:
    """Element-wise arithmetic mean of daily MI matrices."""
    if not daily:
        raise EmptyList("no daily MI matrices")
    shape = daily[0].shape
    for m in daily:
        if m.shape != shape:
            raise LengthMismatch(f"{m.shape} vs {shape}")
    return np.mean(daily, axis=0)


def _check_symmetric(w: np.ndarray) -> None:
    scale = max(float(np.abs(w).max()), 1.0)
    if float(np.abs(w - w.T).max()) > 1e-12 * scale:
        raise AsymmetricInput("similarity matrix is not symmetric")


def build_tmfg(w: np.ndarray) -> Tmfg:
    """Greedy TMFG: max-weight seed tetrahedron, then best (vertex, face) inserts.

    Ties break deterministically: lexicographically smallest vertex set for
    the seed, smallest (vertex index, face discovery index) for insertions.
    The diagonal is ignored.
    """
    w = np.asarray(w, np.float64)
    n = w.shape[0]
    if w.ndim != 2 or w.shape[1] != n:
        raise AsymmetricInput(f"expected square matrix, got {w.shape}")
    if n < 4:
        raise TooFewVertices(f"need >= 4 vertices, got {n}")
    _check_symmetric(w)
    w = w.copy()
    np.fill_diagonal(w, 0.0)

    best_seed = None
    best_sum = -np.inf
    for quad in itertools.combinations(range(n), 4):
        s = sum(w[a, b] for a, b in itertools.combinations(quad, 2))
        if s > best_sum:
            best_sum, best_seed = s, quad
    seed = tuple(best_seed)

    faces: list[tuple[int, int, int]] = [tuple(f) for f in itertools.combinations(seed, 3)]
    alive = [True] * len(faces)
    edges = {tuple(sorted(e)) for e in itertools.combinations(seed, 2)}
    outside = sorted(set(range(n)) - set(seed))
    insertions: list[tuple[int, tuple[int, int, int]]] = []

    while outside:
        best = None  # (gain, vertex, face index)
        for v in outside:
            for fi, face in enumerate(faces):
                if not alive[fi]:
                    continue
                gain = w[v, face[0]] + w[v, face[1]] + w[v, face[2]]
                if best is None or gain > best[0] or (
                        gain == best[0] and (v, fi) < best[1:]):
                    best = (gain, v, fi)
        _, v, fi = best
        face = faces[fi]
        insertions.append((v, face))
        alive[fi] = False
        for pair in itertools.combinations(face, 2):
            faces.append(tuple(sorted(pair + (v,))))
            alive.append(True)
        for u in face:
            edges.add(tuple(sorted((u, v))))
        outside.remove(v)

    live_faces = tuple(f for f, a in zip(faces, alive) if a)
    return Tmfg(
        n=n,
        seed_tetrahedron=seed,
        insertions=tuple(insertions),
        edges=tuple(sorted(edges)),
        faces=live_faces,
    )


def extract_simplices(g: Tmfg) -> SimplicialComplex:
    """Tetrahedra, triangles, and edges of the TMFG in discovery order.

    Every maximal clique of a TMFG is a tetrahedron: the seed plus one per
    insertion. Triangles and edges are enumerated from the tetrahedra in
    construction order, keeping first occurrences, ascending vertex index
    within each simplex.
    """
    tetrahedra = [tuple(sorted(g.seed_tetrahedron))]
    for v, face in g.insertions:
        tetrahedra.append(tuple(sorted(face + (v,))))

    triangles: list[tuple[int, ...]] = []
    edges: list[tuple[int, ...]] = []
    seen_tri: set = set()
    seen_edge: set = set()
    for tet in tetrahedra:
        for tri in itertools.combinations(tet, 3):
            if tri not in seen_tri:
                seen_tri.add(tri)
                triangles.append(tri)
        for edge in itertools.combinations(tet, 2):
            if edge not in seen_edge:
                seen_edge.add(edge)
                edges.append(edge)

    return SimplicialComplex(
        tetrahedra=np.array(tetrahedra, np.int64),
        triangles=np.array(triangles, np.int64),
        edges=np.array(edges, np.int64),
    )


def graph_score(w: np.ndarray, g: Tmfg) -> float:
    """Total similarity weight retained by the graph's edges."""
    w = np.asarray(w, np.float64)
    return float(sum(w[a, b] for a, b in g.edges))


def head_column_indices(complex_: SimplicialComplex) -> tuple[np.ndarray, ...]:
    """Flattened book-column gather indices for the three heads.

    Vertex v maps to the (price, volume) columns of its level and side in
    the LOBSTER 40-column layout: level = v % 10, ask side for v < 10, so
    its price column is 4 * (v % 10) + 2 * (v >= 10) and its volume the next.
    """
    out = []
    for simplices in (complex_.tetrahedra, complex_.triangles, complex_.edges):
        v = np.asarray(simplices, np.int64).reshape(-1)
        bad = v[(v < 0) | (v >= N_VERTICES)]
        if bad.size:
            raise IndexOutOfRange(f"vertex {bad[0]} out of range")
        price = 4 * (v % N_LEVELS) + 2 * (v >= N_LEVELS)
        out.append((price[:, None] + [0, 1]).reshape(-1))
    return tuple(out)


def assemble_head_inputs(rows: np.ndarray,
                         complex_: SimplicialComplex) -> tuple[np.ndarray, ...]:
    """Gather book rows (..., 40) into the three flattened head tensors.

    ``rows`` may be a (100, 40) window, a stack of windows or a day's rows;
    the gather acts on the last axis. Pure gather: widths are
    17*4*2 = 136, 52*3*2 = 312, 54*2*2 = 216.
    """
    idx = head_column_indices(complex_)
    if rows.shape[-1] <= int(max(i.max() for i in idx)):
        raise IndexOutOfRange("window has too few columns for the complex")
    return tuple(rows[..., i] for i in idx)


# --- serialization ---

def mi_matrix_to_json(m: np.ndarray, config_digest: str = "") -> str:
    return json.dumps(
        {"shape": list(m.shape), "data": m.flatten().tolist(),
         "config_digest": config_digest},
        sort_keys=True,
    )


# the keys and JSON types a decoded mi_avg.json or simplices.json must hold
MI_JSON_FIELDS = {"shape": list, "data": list}
SIMPLICES_JSON_FIELDS = {"tetrahedra": list, "triangles": list, "edges": list}


def mi_matrix_from_json(text: str) -> tuple[np.ndarray, str]:
    return mi_matrix_from_obj(json.loads(text))


def mi_matrix_from_obj(obj: dict, path="mi_avg.json") -> tuple[np.ndarray, str]:
    """The matrix and config digest of a decoded :func:`mi_matrix_to_json`.

    ``data`` must be a flat list of finite numbers and ``shape`` a square
    (n, n) holding exactly that many, with n = ``N_VERTICES``; otherwise
    :class:`IoFailure` naming ``path``.
    """
    shape = obj["shape"]
    # numpy would read a JSON boolean as 1.0 or 0.0 and a string as its number
    numbers = isinstance(obj["data"], list) and all(type(v) in (int, float)
                                                    for v in obj["data"])
    try:
        data = np.array(obj["data"], np.float64) if numbers else None
    except OverflowError:   # an int past float64's range
        data = None
    if data is None:
        raise IoFailure(f"corrupt {path}: 'data' is not a flat list of numbers")
    if not np.isfinite(data).all():
        raise IoFailure(f"corrupt {path}: 'data' holds a value that is not finite")
    if not (len(shape) == 2 and all(type(s) is int for s in shape)
            and shape[0] == shape[1]):
        raise IoFailure(f"corrupt {path}: 'shape' {shape} is not a square (n, n)")
    if shape[0] * shape[1] != data.size:
        raise IoFailure(f"corrupt {path}: 'shape' {shape} does not hold the "
                        f"{data.size} values of 'data'")
    if shape[0] != N_VERTICES:
        raise IoFailure(f"corrupt {path}: 'shape' {shape} is not ({N_VERTICES}, {N_VERTICES}), "
                        "one row and column per volume level")
    return data.reshape(shape), obj.get("config_digest", "")


def mi_matrix_to_csv(m: np.ndarray) -> str:
    return "\n".join(",".join(repr(float(v)) for v in row) for row in m) + "\n"


def simplices_to_json(complex_: SimplicialComplex, config_digest: str,
                      retained_weight: float) -> str:
    """The complex as ``simplices.json`` holds it, with the config digest and
    the similarity weight the graph retained (:func:`graph_score`)."""
    return json.dumps(
        {
            "tetrahedra": complex_.tetrahedra.tolist(),
            "triangles": complex_.triangles.tolist(),
            "edges": complex_.edges.tolist(),
            "config_digest": config_digest,
            "retained_weight": retained_weight,
        },
        sort_keys=True,
    )


def simplices_from_json(text: str) -> tuple[SimplicialComplex, str]:
    return simplices_from_obj(json.loads(text))


def simplices_from_obj(obj: dict, path="simplices.json") -> tuple[SimplicialComplex, str]:
    """The complex and config digest of a decoded :func:`simplices_to_json`.

    Each array must be rows of 4, 3 or 2 vertex ids in ``[0, N_VERTICES)``,
    as many as a TMFG on ``N_VERTICES`` vertices has: n - 3 tetrahedra,
    3n - 8 triangles and 3n - 6 edges; otherwise :class:`IoFailure` naming
    ``path``.
    """
    arrays = {}
    n = N_VERTICES
    for key, width, count in (("tetrahedra", 4, n - 3), ("triangles", 3, 3 * n - 8),
                              ("edges", 2, 3 * n - 6)):
        try:
            arr = np.array(obj[key], np.int64)
        except (TypeError, ValueError, OverflowError):
            arr = None
        # numpy would read a boolean, a float or a string as a vertex id
        if (arr is None or arr.ndim != 2 or arr.shape[1] != width
                or any(type(v) is not int for row in obj[key] for v in row)):
            raise IoFailure(f"corrupt {path}: '{key}' is not rows of {width} "
                            "vertex ids")
        if arr.size and not (arr.min() >= 0 and arr.max() < N_VERTICES):
            raise IoFailure(f"corrupt {path}: '{key}' has a vertex outside "
                            f"0..{N_VERTICES - 1}")
        if len(arr) != count:
            raise IoFailure(f"corrupt {path}: '{key}' has {len(arr)} rows, a TMFG on "
                            f"{N_VERTICES} vertices has {count}")
        arrays[key] = arr
    return SimplicialComplex(**arrays), obj.get("config_digest", "")
