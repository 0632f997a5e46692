import itertools
import json
import math

import numpy as np
import pytest

from hloblab.errors import (
    AsymmetricInput,
    EmptyList,
    IndexOutOfRange,
    LengthMismatch,
    TooFewVertices,
)
from hloblab.infonet import (
    N_VERTICES,
    SimplicialComplex,
    assemble_head_inputs,
    average_mi,
    bin_volumes,
    build_tmfg,
    daily_mi_matrix,
    extract_simplices,
    graph_score,
    head_column_indices,
    mi_matrix_from_json,
    mi_matrix_to_json,
    mutual_information,
    simplices_from_json,
    simplices_to_json,
    volume_columns,
    _mi_from_joint,
    _mi_of_columns,
)
from hloblab.lob import StockMeta, synthesize_lob

META = StockMeta(ticker="TEST")


def synth_day(seed=0, n_events=120):
    return synthesize_lob(seed=seed, n_events=n_events, regime="sparse",
                          meta=META)


def mi_oracle_from_counts(counts):
    """Direct plug-in sum over the joint count table, written independently."""
    counts = np.asarray(counts, float)
    total = counts.sum()
    rows = counts.sum(axis=1)
    cols = counts.sum(axis=0)
    out = 0.0
    for a in range(counts.shape[0]):
        for b in range(counts.shape[1]):
            if counts[a, b] > 0:
                p = counts[a, b] / total
                out += p * math.log(p * total * total / (rows[a] * cols[b]))
    return out


def reference_mi_matrix(binned_indices):
    """MI matrix from a per-pair loop over strided columns.

    Each pair's joint has the shape of its own two columns' maxima, and a
    diagonal entry is the MI of a column with itself.
    """
    k = binned_indices.shape[1]
    out = np.zeros((k, k))
    for i in range(k):
        for j in range(i, k):
            x, y = binned_indices[:, i], binned_indices[:, j]
            nx, ny = int(x.max()) + 1, int(y.max()) + 1
            joint = np.bincount(x * ny + y, minlength=nx * ny).reshape(nx, ny)
            out[i, j] = out[j, i] = _mi_from_joint(joint)
    return out


def unequal_columns(rng, t, n_bins, k=N_VERTICES):
    """(t, k) bin indices whose columns reach different maxima below n_bins.

    Column 0 is constant at 0 and column 1 constant at ``n_bins - 1``.
    """
    highs = rng.integers(1, n_bins + 1, k)
    cols = rng.integers(0, highs, (t, k))
    cols[:, 0] = 0
    cols[:, 1] = n_bins - 1
    return cols


def columns_from_counts(counts):
    """Materialize integer columns whose joint histogram equals `counts`."""
    xs, ys = [], []
    for a, row in enumerate(counts):
        for b, c in enumerate(row):
            xs.extend([a] * c)
            ys.extend([b] * c)
    return np.array(xs), np.array(ys)


def random_symmetric(rng, n=20):
    m = rng.random((n, n))
    m = (m + m.T) / 2
    np.fill_diagonal(m, 0.0)
    return m


class TestBinVolumes:
    def test_degenerate_constant(self, caplog):
        day = synth_day()
        day.book[:, 1::2] = 100
        with caplog.at_level("WARNING", logger="hloblab.infonet"):
            binned = bin_volumes(day, 10)
        assert np.all(binned == 0)
        assert "degenerate" in caplog.text

    def test_max_clamped_to_last_bin(self):
        day = synth_day()
        day.book[:, 1::2] = 0
        day.book[0, 1] = 100
        binned = bin_volumes(day, 10)
        assert binned[0, 0] == 9

    def test_matches_counting_oracle(self):
        day = synth_day()
        binned = bin_volumes(day, 32)
        vols = volume_columns(day).astype(float)
        lo, hi = vols.min(), vols.max()
        width = (hi - lo) / 32
        oracle = np.minimum(((vols - lo) // width).astype(int), 31)
        assert binned.dtype == np.int64 and binned.shape == vols.shape
        np.testing.assert_array_equal(binned, oracle)
        assert binned.min() >= 0 and binned.max() <= 31

    def test_rejects_single_bin(self):
        with pytest.raises(ValueError):
            bin_volumes(synth_day(), 1)


class TestMutualInformation:
    def test_identity_is_entropy(self):
        x = np.array([0, 0, 1, 1, 2, 2, 2, 2])
        counts = np.bincount(x)
        h = -sum(c / len(x) * math.log(c / len(x)) for c in counts)
        assert mutual_information(x, x) == pytest.approx(h, abs=1e-12)

    def test_independent_product_joint_is_zero(self):
        # joint counts = outer product of the marginals -> exact independence
        x, y = columns_from_counts([[4, 2], [2, 1]])
        assert abs(mutual_information(x, y)) < 1e-12

    def test_hand_fixture_value(self):
        # [[2,1],[1,2]] / 6: MI = (2/3) ln(4/3) + (1/3) ln(2/3)
        x, y = columns_from_counts([[2, 1], [1, 2]])
        expect = (2 / 3) * math.log(4 / 3) + (1 / 3) * math.log(2 / 3)
        assert mutual_information(x, y) == pytest.approx(expect, abs=1e-12)
        assert expect == pytest.approx(0.056633, abs=5e-7)

    def test_fixture_suite_against_oracle(self):
        fixtures = [
            [[2, 1], [1, 2]],
            [[5, 0], [0, 5]],
            [[1, 2, 3], [3, 2, 1]],
            [[10, 0, 0], [0, 10, 0], [0, 0, 10]],
            [[3, 1, 4], [1, 5, 9], [2, 6, 5]],
            [[7, 7], [7, 7]],
        ]
        for counts in fixtures:
            x, y = columns_from_counts(counts)
            assert mutual_information(x, y) == \
                pytest.approx(mi_oracle_from_counts(counts), abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            mutual_information(np.zeros(3, int), np.zeros(4, int))

    def test_symmetry_and_nonnegativity_random(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            x = rng.integers(0, 6, 40)
            y = rng.integers(0, 6, 40)
            m_xy = mutual_information(x, y)
            assert m_xy == mutual_information(y, x)
            assert m_xy >= -1e-12

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        x = rng.integers(0, 5, 60)
        y = rng.integers(0, 5, 60)
        perm = rng.permutation(5)
        assert mutual_information(perm[x], y) == \
            pytest.approx(mutual_information(x, y), abs=1e-12)

    def test_bin_merge_never_increases_mi(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            x = rng.integers(0, 8, 100)
            y = rng.integers(0, 8, 100)
            merged = x // 2  # coarsen adjacent bins
            assert mutual_information(merged, y) <= \
                mutual_information(x, y) + 1e-12


class TestDailyMi:
    def test_deterministic(self):
        binned = bin_volumes(synth_day(), 8)
        a = daily_mi_matrix(binned, n_bootstrap=3, rng_seed=5)
        b = daily_mi_matrix(binned, n_bootstrap=3, rng_seed=5)
        np.testing.assert_array_equal(a, b)

    def test_diagonal_is_entropy(self):
        binned = bin_volumes(synth_day(), 8)
        m = _mi_of_columns(np.ascontiguousarray(binned.T))
        for i in range(20):
            col = binned[:, i]
            assert m[i, i] == pytest.approx(mutual_information(col, col),
                                            abs=1e-12)

    def test_bootstrap_near_plugin(self):
        # few bins and a long day keep the plug-in resampling bias small
        binned = bin_volumes(synth_day(seed=4, n_events=2000), 4)
        plugin = _mi_of_columns(np.ascontiguousarray(binned.T))
        rng = np.random.default_rng(9)
        t = binned.shape[0]
        draws = np.stack([_mi_of_columns(np.ascontiguousarray(binned[rng.integers(0, t, t)].T))
                          for _ in range(10)])
        se = draws.std(axis=0)
        boot = daily_mi_matrix(binned, n_bootstrap=10, rng_seed=3)
        assert np.all(np.abs(boot - plugin) <= 3 * se + 0.02)

    def test_symmetry(self):
        binned = bin_volumes(synth_day(), 8)
        m = daily_mi_matrix(binned, n_bootstrap=2, rng_seed=0)
        np.testing.assert_array_equal(m, m.T)


class TestMiMatrixAgainstReference:
    """The per-column core gives the per-pair loop's values bit for bit."""

    @pytest.mark.parametrize("n_bins, t, k", [(2, 200, N_VERTICES),
                                              (32, 500, N_VERTICES),
                                              (1024, 300, 6)])
    def test_unequal_maxima_and_constant_columns(self, n_bins, t, k):
        rng = np.random.default_rng(n_bins)
        for _ in range(2):
            cols = unequal_columns(rng, t, n_bins, k)
            assert np.array_equal(_mi_of_columns(np.ascontiguousarray(cols.T)),
                                  reference_mi_matrix(cols))

    def test_single_row(self):
        cols = unequal_columns(np.random.default_rng(0), 1, 32)
        m = _mi_of_columns(np.ascontiguousarray(cols.T))
        assert np.array_equal(m, reference_mi_matrix(cols))
        assert np.all(m == 0)

    def test_synthetic_day(self):
        idx = bin_volumes(synth_day(seed=2, n_events=400), 16)
        assert np.array_equal(_mi_of_columns(np.ascontiguousarray(idx.T)),
                              reference_mi_matrix(idx))

    @pytest.mark.parametrize("n_bins, t, n_bootstrap", [
        (2, 150, 3), (32, 300, 3), (32, 1, 3),
        (32, 300, 1),   # one replicate: no sum that could round a difference away
    ])
    def test_daily_is_mean_of_reference_over_same_draws(self, n_bins, t, n_bootstrap):
        rng = np.random.default_rng(11)
        draws = [rng.integers(0, t, size=t) for _ in range(n_bootstrap)]
        idx = unequal_columns(np.random.default_rng(t), t, n_bins)
        undrawn = sorted(set(range(t)) - set(draws[0].tolist()))
        if undrawn:
            # columns whose maximum sits in one row that the first resample
            # leaves out, so that replicate's joints are narrower than the
            # day's; a joint 13 wide sums its rows in another order than one
            # 32 wide
            idx[:, 2:6] %= min(13, n_bins - 1)
            idx[undrawn[0], 2:6] = n_bins - 1
        acc = np.zeros((N_VERTICES, N_VERTICES))
        for rows in draws:
            acc += reference_mi_matrix(idx[rows])
        got = daily_mi_matrix(idx, n_bootstrap, rng_seed=11)
        assert np.array_equal(got, acc / n_bootstrap)


class TestAverageMi:
    def test_single(self):
        m = np.arange(9.0).reshape(3, 3)
        np.testing.assert_array_equal(average_mi([m]), m)

    def test_m_and_3m(self):
        m = np.arange(9.0).reshape(3, 3)
        np.testing.assert_allclose(average_mi([m, 3 * m]), 2 * m, atol=1e-15)

    def test_many_matches_oracle(self):
        rng = np.random.default_rng(0)
        mats = [random_symmetric(rng, 6) for _ in range(40)]
        acc = np.zeros((6, 6))
        for m in mats:
            acc = acc + m
        np.testing.assert_allclose(average_mi(mats), acc / 40, atol=1e-12)

    def test_empty(self):
        with pytest.raises(EmptyList):
            average_mi([])

    def test_shape_mismatch(self):
        with pytest.raises(LengthMismatch):
            average_mi([np.zeros((3, 3)), np.zeros((4, 4))])


def chordality_holds(g):
    """Reverse insertion order must be a perfect elimination ordering."""
    adj = {v: set() for v in range(g.n)}
    for a, b in g.edges:
        adj[a].add(b)
        adj[b].add(a)
    remaining = set(range(g.n))
    for v, _ in reversed(g.insertions):
        later = adj[v] & remaining - {v}
        for a, b in itertools.combinations(later, 2):
            if b not in adj[a]:
                return False
        remaining.discard(v)
    return True


def brute_force_tmfg_5(w):
    """Replay the greedy construction for n=5 by exhaustive enumeration."""
    n = 5
    best_seed, best_sum = None, -np.inf
    for quad in itertools.combinations(range(n), 4):
        s = sum(w[a, b] for a, b in itertools.combinations(quad, 2))
        if s > best_sum:
            best_sum, best_seed = s, quad
    faces = [tuple(f) for f in itertools.combinations(best_seed, 3)]
    v = (set(range(n)) - set(best_seed)).pop()
    gains = [w[v, f[0]] + w[v, f[1]] + w[v, f[2]] for f in faces]
    best_fi = int(np.argmax(gains))  # first max = smallest discovery index
    return best_seed, v, faces[best_fi]


class TestTmfg:
    def test_k4(self):
        w = np.ones((4, 4)) - np.eye(4)
        g = build_tmfg(w)
        assert g.seed_tetrahedron == (0, 1, 2, 3)
        assert len(g.edges) == 6
        assert g.insertions == ()
        complex_ = extract_simplices(g)
        assert complex_.tetrahedra.shape == (1, 4)
        assert complex_.triangles.shape == (4, 3)
        assert complex_.edges.shape == (6, 2)
        assert graph_score(w, g) == 6.0

    def test_counts_n20(self):
        g = build_tmfg(random_symmetric(np.random.default_rng(0)))
        assert len(g.edges) == 54
        assert len(g.faces) == 36  # 2n - 4
        complex_ = extract_simplices(g)
        assert complex_.tetrahedra.shape == (17, 4)
        assert complex_.triangles.shape == (52, 3)
        assert complex_.edges.shape == (54, 2)

    def test_all_ones_score(self):
        w = np.ones((20, 20)) - np.eye(20)
        assert graph_score(w, build_tmfg(w)) == 54.0

    def test_too_few_vertices(self):
        with pytest.raises(TooFewVertices):
            build_tmfg(np.zeros((3, 3)))

    def test_asymmetric(self):
        w = random_symmetric(np.random.default_rng(0), 5)
        w[0, 1] += 1e-3
        with pytest.raises(AsymmetricInput):
            build_tmfg(w)

    def test_n5_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            w = random_symmetric(rng, 5)
            g = build_tmfg(w)
            seed, v, face = brute_force_tmfg_5(w)
            assert g.seed_tetrahedron == seed
            assert g.insertions == ((v, face),)

    def test_n5_score_is_greedy_optimum(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            w = random_symmetric(rng, 5)
            g = build_tmfg(w)
            seed, v, face = brute_force_tmfg_5(w)
            edges = {tuple(sorted(e))
                     for e in itertools.combinations(seed, 2)}
            edges |= {tuple(sorted((v, u))) for u in face}
            oracle = sum(w[a, b] for a, b in edges)
            assert graph_score(w, g) == pytest.approx(oracle, abs=1e-12)

    def test_chordality_and_planarity(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            g = build_tmfg(random_symmetric(rng))
            assert len(g.edges) == 3 * g.n - 6
            assert len(g.faces) == 2 * g.n - 4
            assert chordality_holds(g)

    def test_greedy_replay(self):
        # re-derive each logged insertion's gain maximality
        rng = np.random.default_rng(3)
        w = random_symmetric(rng)
        g = build_tmfg(w)
        faces = [tuple(f)
                 for f in itertools.combinations(g.seed_tetrahedron, 3)]
        alive = [True] * 4
        outside = sorted(set(range(20)) - set(g.seed_tetrahedron))
        for v, host in g.insertions:
            gains = [w[u, f[0]] + w[u, f[1]] + w[u, f[2]]
                     for u in outside for f, a in zip(faces, alive) if a]
            chosen = w[v, host[0]] + w[v, host[1]] + w[v, host[2]]
            assert chosen == max(gains)
            fi = faces.index(host)
            assert alive[fi]
            alive[fi] = False
            for pair in itertools.combinations(host, 2):
                faces.append(tuple(sorted(pair + (v,))))
                alive.append(True)
            outside.remove(v)

    def test_simplex_identities_various_n(self):
        rng = np.random.default_rng(4)
        for n in (4, 5, 6, 10, 20):
            g = build_tmfg(random_symmetric(rng, n))
            c = extract_simplices(g)
            assert c.tetrahedra.shape[0] == n - 3
            assert c.triangles.shape[0] == 3 * n - 8
            assert c.edges.shape[0] == 3 * n - 6

    def test_n6_cliques_match_brute_force(self):
        rng = np.random.default_rng(5)
        g = build_tmfg(random_symmetric(rng, 6))
        c = extract_simplices(g)
        adj = np.zeros((6, 6), bool)
        for a, b in g.edges:
            adj[a, b] = adj[b, a] = True
        for size, arr in ((4, c.tetrahedra), (3, c.triangles), (2, c.edges)):
            brute = {s for s in itertools.combinations(range(6), size)
                     if all(adj[a, b]
                            for a, b in itertools.combinations(s, 2))}
            assert {tuple(row) for row in arr.tolist()} == brute

    def test_every_vertex_in_a_tetrahedron(self):
        g = build_tmfg(random_symmetric(np.random.default_rng(6)))
        c = extract_simplices(g)
        assert set(c.tetrahedra.flatten().tolist()) == set(range(20))

    def test_tetrahedron_edges_subset_of_edge_set(self):
        g = build_tmfg(random_symmetric(np.random.default_rng(7)))
        c = extract_simplices(g)
        edge_set = {tuple(e) for e in c.edges.tolist()}
        for tet in c.tetrahedra.tolist():
            for e in itertools.combinations(tet, 2):
                assert tuple(sorted(e)) in edge_set


class TestHeadInputs:
    @staticmethod
    def complex20():
        return extract_simplices(
            build_tmfg(random_symmetric(np.random.default_rng(0))))

    def test_shapes(self):
        out = assemble_head_inputs(np.zeros((100, 40)), self.complex20())
        assert [o.shape for o in out] == [(100, 136), (100, 312), (100, 216)]

    def test_zero_window(self):
        for o in assemble_head_inputs(np.zeros((100, 40)), self.complex20()):
            assert np.all(o == 0)

    def test_sentinel_tracing(self):
        complex_ = self.complex20()
        window = np.arange(40, dtype=float).reshape(1, 40)  # column sentinel
        tetra, tri, edge = assemble_head_inputs(window, complex_)
        for arr, simplices in ((tetra, complex_.tetrahedra),
                               (tri, complex_.triangles),
                               (edge, complex_.edges)):
            pos = 0
            for simplex in simplices:
                for v in simplex:
                    level, side_ask = int(v) % 10, int(v) < 10
                    price_col = 4 * level + (0 if side_ask else 2)
                    assert arr[0, pos] == price_col       # price slot
                    assert arr[0, pos + 1] == price_col + 1  # volume slot
                    pos += 2
            assert pos == arr.shape[1]

    def test_column_indices_match_the_per_vertex_loop(self):
        # the columns the per-vertex loop gave before they were computed as
        # one array expression per simplex array
        complex_ = self.complex20()
        simplex_arrays = (complex_.tetrahedra, complex_.triangles, complex_.edges)
        for got, simplices in zip(head_column_indices(complex_), simplex_arrays):
            want = []
            for simplex in simplices:
                for v in simplex:
                    price = 4 * (int(v) % 10) + (0 if v < 10 else 2)
                    want.extend([price, price + 1])
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, np.array(want, np.int64))

    @pytest.mark.parametrize("vertex", [20, -1])
    def test_vertex_outside_the_book_rejected(self, vertex):
        complex_ = self.complex20()
        edges = complex_.edges.copy()
        edges[3, 1] = vertex
        with pytest.raises(IndexOutOfRange, match=f"vertex {vertex} out of range"):
            head_column_indices(SimplicialComplex(complex_.tetrahedra,
                                                  complex_.triangles, edges))

    def test_pure_gather(self):
        complex_ = self.complex20()
        rng = np.random.default_rng(0)
        window = rng.random((100, 40))
        values = set(window.flatten().tolist())
        for out in assemble_head_inputs(window, complex_):
            assert set(out.flatten().tolist()) <= values

    def test_narrow_window_rejected(self):
        with pytest.raises(IndexOutOfRange):
            assemble_head_inputs(np.zeros((100, 10)), self.complex20())

    def test_stacks_of_rows_gather_on_the_last_axis(self):
        complex_ = self.complex20()
        windows = np.random.default_rng(1).random((3, 100, 40))
        stacked = assemble_head_inputs(windows, complex_)
        day = assemble_head_inputs(windows.reshape(300, 40), complex_)
        for k, window in enumerate(windows):
            for got, from_day, want in zip(stacked, day,
                                           assemble_head_inputs(window, complex_)):
                np.testing.assert_array_equal(got[k], want)
                np.testing.assert_array_equal(from_day[100 * k:100 * (k + 1)], want)
        with pytest.raises(IndexOutOfRange):
            assemble_head_inputs(np.zeros((2, 100, 10)), complex_)


class TestSerialization:
    def test_mi_round_trip(self):
        m = random_symmetric(np.random.default_rng(0))
        out, digest = mi_matrix_from_json(mi_matrix_to_json(m, "abc"))
        np.testing.assert_array_equal(out, m)
        assert digest == "abc"

    def test_simplices_round_trip(self):
        c = extract_simplices(
            build_tmfg(random_symmetric(np.random.default_rng(1))))
        text = simplices_to_json(c, "xyz", 1.5)
        assert json.loads(text)["retained_weight"] == 1.5
        out, digest = simplices_from_json(text)
        np.testing.assert_array_equal(out.tetrahedra, c.tetrahedra)
        np.testing.assert_array_equal(out.triangles, c.triangles)
        np.testing.assert_array_equal(out.edges, c.edges)
        assert digest == "xyz"
