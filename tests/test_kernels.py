"""The hot kernels: the numpy path against the plain-Python loop source, and
against the numba path where numba is installed."""

import math

import numpy as np
import pytest

from peduncleseg import DegeneratePairError, SpatialIndex, darboux_features
from peduncleseg import _kernels


def scene(rng, n=300, radius=0.015):
    xyz = rng.normal(size=(n, 3)) * 0.02
    normals = rng.normal(size=(n, 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    valid = rng.random(n) > 0.05
    nbr_idx, nbr_off = SpatialIndex(xyz).radius_neighbors_csr(radius)
    return xyz, normals, valid, nbr_idx, nbr_off


def edge_case_scene(rng, n=60, radius=0.012):
    """A small cloud holding every pair the PFH kernels must skip."""
    xyz = rng.normal(size=(n, 3)) * 0.01
    normals = rng.normal(size=(n, 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    valid = np.ones(n, dtype=bool)
    valid[[4, 9]] = False                  # invalid normals
    xyz[7] = xyz[3]                        # duplicated point: d2 == 0
    xyz[1] = xyz[0] + [0.002, 0.001, 0.0]  # source normal along the join line
    normals[0] = (xyz[1] - xyz[0]) / np.linalg.norm(xyz[1] - xyz[0])
    nbr_idx, nbr_off = SpatialIndex(xyz).radius_neighbors_csr(radius)
    return xyz, normals, valid, nbr_idx, nbr_off


def clustered_scene(rng, clusters=5, size=8):
    """Tight, far-apart clusters: within a cluster every point is inside
    every neighbourhood, and no neighbourhood reaches another cluster."""
    centres = np.arange(clusters)[:, None] * [1.0, 0.0, 0.0]
    xyz = np.repeat(centres, size, axis=0) + rng.normal(size=(clusters * size, 3)) * 1e-3
    normals = rng.normal(size=xyz.shape)
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    valid = np.ones(len(xyz), dtype=bool)
    nbr_idx, nbr_off = SpatialIndex(xyz).radius_neighbors_csr(0.1)
    assert np.all(np.diff(nbr_off) == size)
    return xyz, normals, valid, nbr_idx, nbr_off


def record_batches(monkeypatch):
    """List that collects every (query positions, member union) batch the
    numpy PFH kernel cuts while ``monkeypatch`` is active."""
    batches = []
    cut = _kernels._query_batches

    def spy(*args):
        for sel, union in cut(*args):
            batches.append((sel.copy(), union.copy()))
            yield sel, union

    monkeypatch.setattr(_kernels, "_query_batches", spy)
    return batches


def assert_batches_within_limits(batches, valid, nbr_idx, nbr_off, queries):
    """Batches cover the queries with pairs once, in order; each one's union
    is its members'; each keeps within the three limits unless it holds a
    single query; and none could also have held the next batch's first
    query."""
    members = [nbr_idx[nbr_off[q]:nbr_off[q + 1]] if valid[q]
               else np.empty(0, dtype=np.int64) for q in queries]
    members = [m[valid[m]] for m in members]
    npairs = [m.size * (m.size - 1) // 2 for m in members]
    item = _kernels._MISSING.itemsize

    def within(sel):
        union = np.unique(np.concatenate([members[q] for q in sel]))
        return (sum(npairs[q] for q in sel) <= _kernels._PAIR_BATCH
                and union.size ** 2 * item <= _kernels._TABLE_BYTES
                and len(sel) * _kernels._CODES <= _kernels._CUBE_BINS)

    order = np.concatenate([sel for sel, _u in batches])
    assert np.array_equal(order, np.flatnonzero(npairs))
    for b, (sel, union) in enumerate(batches):
        assert np.array_equal(union,
                              np.unique(np.concatenate([members[q] for q in sel])))
        assert len(sel) == 1 or within(sel)
        if b + 1 < len(batches):
            assert not within(np.append(sel, batches[b + 1][0][0]))


needs_numba = pytest.mark.skipif(not _kernels.HAVE_NUMBA,
                                 reason="numba unavailable")


class TestBackendSelection:
    def test_backend_reported(self):
        assert _kernels.BACKEND in ("numba", "numpy")

    @staticmethod
    def _child_backend(flag):
        """BACKEND as reported by a fresh interpreter, with the env flag set
        to ``flag`` (or removed when ``None``)."""
        import os
        import subprocess
        import sys

        import peduncleseg

        env = dict(os.environ)
        env.pop("PEDUNCLESEG_DISABLE_NUMBA", None)
        if flag is not None:
            env["PEDUNCLESEG_DISABLE_NUMBA"] = flag
        # the child must import the same package this suite imported
        pkg_root = os.path.dirname(os.path.dirname(peduncleseg.__file__))
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (pkg_root, env.get("PYTHONPATH")) if p)
        out = subprocess.run(
            [sys.executable, "-c",
             "from peduncleseg import _kernels; print(_kernels.BACKEND)"],
            capture_output=True, text=True, env=env)
        assert out.returncode == 0, out.stderr
        return out.stdout.strip()

    def test_env_flag_selects_numpy(self):
        assert self._child_backend("1") == "numpy"
        # control: without the flag the child picks numba whenever it can, so
        # on a numba machine the pair shows that the flag is what selects numpy
        expected = "numba" if _kernels.HAVE_NUMBA else "numpy"
        assert self._child_backend(None) == expected


@needs_numba
class TestCrossBackend:
    def test_pfh_counts_exactly_equal(self, rng):
        xyz, normals, valid, nbr_idx, nbr_off = scene(rng)
        queries = np.arange(len(xyz), dtype=np.int64)
        c_a, p_a = _kernels.pfh_pair_histograms(
            xyz, normals, valid, nbr_idx, nbr_off, queries,
            impl=_kernels._pfh_histograms_numba)
        c_b, p_b = _kernels.pfh_pair_histograms(
            xyz, normals, valid, nbr_idx, nbr_off, queries,
            impl=_kernels._pfh_histograms_numpy)
        assert np.array_equal(c_a, c_b)
        assert np.array_equal(p_a, p_b)

    def test_moments_agree(self, rng):
        xyz, _n, _v, nbr_idx, nbr_off = scene(rng)
        cnt_a, m_a, c_a = _kernels.neighborhood_moments(
            xyz, nbr_idx, nbr_off, impl=_kernels._neighborhood_moments_numba)
        cnt_b, m_b, c_b = _kernels.neighborhood_moments(
            xyz, nbr_idx, nbr_off, impl=_kernels._neighborhood_moments_numpy)
        assert np.array_equal(cnt_a, cnt_b)
        assert np.abs(m_a - m_b).max() < 1e-14
        assert np.abs(c_a - c_b).max() < 1e-16

    def test_decision_values_agree(self, rng):
        sv = rng.normal(size=(80, 36))
        coef = rng.normal(size=80)
        x = rng.normal(size=(500, 36))
        for kind, gamma in ((_kernels.KERNEL_LINEAR, 0.0),
                            (_kernels.KERNEL_RBF, 0.05)):
            a = _kernels.decision_values(x, sv, coef, 0.37, kind, gamma,
                                         impl=_kernels._decision_values_numba)
            b = _kernels.decision_values(x, sv, coef, 0.37, kind, gamma,
                                         impl=_kernels._decision_values_numpy)
            scale = np.abs(a).max()
            assert np.abs(a - b).max() < 1e-10 * max(scale, 1.0)


class TestPfhNumpy:
    def test_pfh_histogram_row_structure(self, rng):
        xyz, normals, valid, nbr_idx, nbr_off = scene(rng)
        queries = np.arange(len(xyz), dtype=np.int64)
        counts, pairs = _kernels.pfh_pair_histograms(
            xyz, normals, valid, nbr_idx, nbr_off, queries)
        # each 11-bin block accumulates every scored pair exactly once
        for block in range(3):
            got = counts[:, block * 11:(block + 1) * 11].sum(axis=1)
            assert np.array_equal(got, pairs)
        assert np.all(pairs[~valid[queries]] == 0)

    def test_numpy_batching_does_not_change_counts(self, rng, monkeypatch):
        xyz, normals, valid, nbr_idx, nbr_off = scene(rng, n=150)
        queries = np.arange(len(xyz), dtype=np.int64)
        big = _kernels.pfh_pair_histograms(
            xyz, normals, valid, nbr_idx, nbr_off, queries,
            impl=_kernels._pfh_histograms_numpy)
        monkeypatch.setattr(_kernels, "_PAIR_BATCH", 37)
        small = _kernels.pfh_pair_histograms(
            xyz, normals, valid, nbr_idx, nbr_off, queries,
            impl=_kernels._pfh_histograms_numpy)
        assert np.array_equal(big[0], small[0])
        assert np.array_equal(big[1], small[1])

    @pytest.mark.parametrize("subset", [False, True])
    @pytest.mark.parametrize("build", [scene, edge_case_scene])
    def test_counts_equal_python_loops(self, rng, build, subset):
        xyz, normals, valid, nbr_idx, nbr_off = build(rng)
        queries = np.arange(len(xyz), dtype=np.int64)
        if subset:
            # unordered, repeated, and holding invalid and degenerate points
            queries = np.array([9, 3, 0, 4, 3, len(xyz) - 1, 1, 7, 20],
                               dtype=np.int64)
        got = _kernels.pfh_pair_histograms(
            xyz, normals, valid, nbr_idx, nbr_off, queries,
            impl=_kernels._pfh_histograms_numpy)
        want = _kernels.pfh_pair_histograms(
            xyz, normals, valid, nbr_idx, nbr_off, queries,
            impl=_kernels._pfh_histograms_loops)
        assert want[1].sum() > 0
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])

    def test_edge_case_scene_holds_the_degenerate_pairs(self, rng):
        xyz, normals, valid, nbr_idx, nbr_off = edge_case_scene(rng)
        for i, j in ((3, 7), (0, 1)):
            assert j in nbr_idx[nbr_off[i]:nbr_off[i + 1]]
            with pytest.raises(DegeneratePairError):
                darboux_features(xyz[i], normals[i], xyz[j], normals[j])

    @pytest.mark.parametrize("limit, value", [
        ("_PAIR_BATCH", 37),
        ("_TABLE_BYTES", _kernels._MISSING.itemsize * 12 ** 2),
        ("_CUBE_BINS", 3 * _kernels._CODES),
    ])
    @pytest.mark.parametrize("subset", [False, True])
    @pytest.mark.parametrize("build", [scene, edge_case_scene])
    def test_small_batches_equal_python_loops(self, rng, monkeypatch, build,
                                              subset, limit, value):
        xyz, normals, valid, nbr_idx, nbr_off = build(rng)
        queries = np.arange(len(xyz), dtype=np.int64)
        if subset:
            queries = np.array([9, 3, 0, 4, 3, len(xyz) - 1, 1, 7, 20],
                               dtype=np.int64)
        want = _kernels.pfh_pair_histograms(
            xyz, normals, valid, nbr_idx, nbr_off, queries,
            impl=_kernels._pfh_histograms_loops)
        monkeypatch.setattr(_kernels, limit, value)
        batches = record_batches(monkeypatch)
        got = _kernels.pfh_pair_histograms(
            xyz, normals, valid, nbr_idx, nbr_off, queries,
            impl=_kernels._pfh_histograms_numpy)
        assert len(batches) >= 3
        assert_batches_within_limits(batches, valid, nbr_idx, nbr_off, queries)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])

    def test_table_within_limit_when_every_point_is_in_every_neighbourhood(
            self, rng, monkeypatch):
        xyz, normals, valid, nbr_idx, nbr_off = clustered_scene(rng, clusters=1,
                                                                size=40)
        queries = np.arange(len(xyz), dtype=np.int64)
        want = _kernels.pfh_pair_histograms(
            xyz, normals, valid, nbr_idx, nbr_off, queries,
            impl=_kernels._pfh_histograms_loops)
        # a table of exactly the 40 points: the union never grows past them,
        # so one table serves every query
        monkeypatch.setattr(_kernels, "_TABLE_BYTES",
                            40 ** 2 * _kernels._MISSING.itemsize)
        batches = record_batches(monkeypatch)
        got = _kernels.pfh_pair_histograms(
            xyz, normals, valid, nbr_idx, nbr_off, queries,
            impl=_kernels._pfh_histograms_numpy)
        assert [(len(sel), union.size) for sel, union in batches] == [(40, 40)]
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])

    def test_table_limit_cuts_interleaved_clusters(self, rng, monkeypatch):
        xyz, normals, valid, nbr_idx, nbr_off = clustered_scene(rng)
        # one query from each cluster in turn, so every query widens the union
        queries = np.arange(len(xyz), dtype=np.int64).reshape(5, 8).T.ravel()
        want = _kernels.pfh_pair_histograms(
            xyz, normals, valid, nbr_idx, nbr_off, queries,
            impl=_kernels._pfh_histograms_loops)
        monkeypatch.setattr(_kernels, "_TABLE_BYTES",
                            16 ** 2 * _kernels._MISSING.itemsize)
        batches = record_batches(monkeypatch)
        got = _kernels.pfh_pair_histograms(
            xyz, normals, valid, nbr_idx, nbr_off, queries,
            impl=_kernels._pfh_histograms_numpy)
        assert max(union.size for _sel, union in batches) == 16
        assert_batches_within_limits(batches, valid, nbr_idx, nbr_off, queries)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])

    def test_missing_pair_raises(self, rng):
        xyz, normals, valid, nbr_idx, nbr_off = scene(rng, n=60)
        # descending rows name every pair with its larger member first
        rows = [nbr_idx[nbr_off[i]:nbr_off[i + 1]][::-1] for i in range(60)]
        with pytest.raises(AssertionError, match="pair table"):
            _kernels.pfh_pair_histograms(
                xyz, normals, valid, np.concatenate(rows), nbr_off,
                np.arange(60, dtype=np.int64),
                impl=_kernels._pfh_histograms_numpy)


class TestBinning:
    """The numpy PFH kernel's binning of one angle triple."""

    @staticmethod
    def bins(alpha, phi, theta):
        code = int(_kernels._pack_bins(np.array([alpha]), np.array([phi]),
                                       np.array([theta]))[0])
        return code // 121, code // 11 % 11, code % 11

    def test_zero_angles_hit_centre_bins(self):
        assert self.bins(0.0, 0.0, 0.0) == (5, 5, 5)

    def test_extremes_clamp_to_last_bin(self):
        assert self.bins(1.0, 1.0, math.pi) == (10, 10, 10)
        assert self.bins(-1.0, -1.0, -math.pi) == (0, 0, 0)

    def test_bin_edges(self):
        width = 2.0 / 11.0
        theta_width = 2.0 * math.pi / 11.0
        for b in range(11):
            inside = -1.0 + (b + 0.5) * width
            assert self.bins(inside, 0.0, 0.0) == (b, 5, 5)
            assert self.bins(0.0, inside, 0.0) == (5, b, 5)
            assert self.bins(0.0, 0.0, -math.pi + (b + 0.5) * theta_width) == (5, 5, b)


class TestMomentCorrectness:
    def test_against_numpy_cov(self, rng):
        xyz, _n, _v, nbr_idx, nbr_off = scene(rng, n=100)
        counts, means, covs = _kernels.neighborhood_moments(xyz, nbr_idx, nbr_off)
        for i in range(0, 100, 7):
            members = nbr_idx[nbr_off[i]:nbr_off[i + 1]]
            pts = xyz[members]
            assert counts[i] == len(members)
            assert np.allclose(means[i], pts.mean(axis=0), atol=1e-12)
            expect = np.cov(pts.T, bias=True) if len(pts) > 1 else np.zeros((3, 3))
            assert np.allclose(covs[i], expect, atol=1e-12)


class TestDecisionChunking:
    def test_row_scores_independent_of_chunking(self, rng):
        sv = rng.normal(size=(40, 36))
        coef = rng.normal(size=40)
        x = rng.normal(size=(101, 36))
        whole = _kernels.decision_values(x, sv, coef, -0.2,
                                         _kernels.KERNEL_RBF, 0.01)
        pieces = [
            _kernels.decision_values(chunk, sv, coef, -0.2,
                                     _kernels.KERNEL_RBF, 0.01)
            for chunk in np.array_split(x, 7)
        ]
        assert np.array_equal(whole, np.concatenate(pieces))
