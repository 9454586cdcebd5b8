"""The hot kernels: the numpy path against the plain-Python loop source, and
against the numba path where numba is installed."""

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

    def test_missing_pair_raises(self, rng):
        xyz, normals, valid, nbr_idx, nbr_off = scene(rng, n=60)
        # descending rows name every pair with its larger member first
        rows = [nbr_idx[nbr_off[i]:nbr_off[i + 1]][::-1] for i in range(60)]
        with pytest.raises(AssertionError, match="pair table"):
            _kernels.pfh_pair_histograms(
                xyz, normals, valid, np.concatenate(rows), nbr_off,
                np.arange(60, dtype=np.int64),
                impl=_kernels._pfh_histograms_numpy)


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
