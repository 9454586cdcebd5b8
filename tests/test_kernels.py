"""The hot kernels against plain-Python loops and written-out formulas."""

import math

import numpy as np
import pytest
from scipy import sparse
from scipy.spatial import cKDTree

from peduncleseg import (KernelSpec, NormalSet, PointCloud,
                         build_index, compute_pfh, decision_scores)
from peduncleseg import _kernels
from peduncleseg._kernels import (ALPHA_SCALE, DEGENERATE_CROSS_SQ, NBINS,
                                  THETA_SCALE)
from peduncleseg.learn import ScalingStats, SvmModel

from clouds import clustered_scene, edge_case_scene, scene
from darboux import DegeneratePairError, darboux_features


def pfh_histograms_loops(xyz, normals, valid, nbr_idx, nbr_off, queries):
    """The oracle for the PFH kernel: every pair of every queried
    neighbourhood binned one at a time, in scalar arithmetic."""
    nq = queries.shape[0]
    counts = np.zeros((nq, 3 * NBINS), dtype=np.int64)
    pair_counts = np.zeros(nq, dtype=np.int64)
    for qi in range(nq):
        q = queries[qi]
        if not valid[q]:
            continue
        lo = nbr_off[q]
        hi = nbr_off[q + 1]
        # valid members of the influence region (query included)
        k = 0
        for t in range(lo, hi):
            if valid[nbr_idx[t]]:
                k += 1
        if k < 2:
            continue
        members = np.empty(k, dtype=np.int64)
        k = 0
        for t in range(lo, hi):
            p = nbr_idx[t]
            if valid[p]:
                members[k] = p
                k += 1
        npairs = 0
        for a in range(k):
            i = members[a]
            pix = xyz[i, 0]
            piy = xyz[i, 1]
            piz = xyz[i, 2]
            nix = normals[i, 0]
            niy = normals[i, 1]
            niz = normals[i, 2]
            for b in range(a + 1, k):
                j = members[b]
                dx = xyz[j, 0] - pix
                dy = xyz[j, 1] - piy
                dz = xyz[j, 2] - piz
                d2 = dx * dx + dy * dy + dz * dz
                if d2 == 0.0:
                    continue
                d = math.sqrt(d2)
                ux = dx / d
                uy = dy / d
                uz = dz / d
                njx = normals[j, 0]
                njy = normals[j, 1]
                njz = normals[j, 2]
                dot_i = nix * ux + niy * uy + niz * uz
                dot_j = njx * ux + njy * uy + njz * uz
                # source: the endpoint whose normal is closer to the line
                if abs(dot_i) >= abs(dot_j):
                    sx, sy, sz = nix, niy, niz
                    tx, ty, tz = njx, njy, njz
                    usx, usy, usz = ux, uy, uz
                else:
                    sx, sy, sz = njx, njy, njz
                    tx, ty, tz = nix, niy, niz
                    usx, usy, usz = -ux, -uy, -uz
                cx = sy * usz - sz * usy
                cy = sz * usx - sx * usz
                cz = sx * usy - sy * usx
                c2 = cx * cx + cy * cy + cz * cz
                if c2 < DEGENERATE_CROSS_SQ:
                    continue
                cn = math.sqrt(c2)
                vx = cx / cn
                vy = cy / cn
                vz = cz / cn
                wx = sy * vz - sz * vy
                wy = sz * vx - sx * vz
                wz = sx * vy - sy * vx
                alpha = vx * tx + vy * ty + vz * tz
                phi = sx * usx + sy * usy + sz * usz
                theta = math.atan2(wx * tx + wy * ty + wz * tz,
                                   sx * tx + sy * ty + sz * tz)
                ba = int(math.floor((alpha + 1.0) * ALPHA_SCALE))
                if ba < 0:
                    ba = 0
                elif ba > NBINS - 1:
                    ba = NBINS - 1
                bp = int(math.floor((phi + 1.0) * ALPHA_SCALE))
                if bp < 0:
                    bp = 0
                elif bp > NBINS - 1:
                    bp = NBINS - 1
                bt = int(math.floor((theta + math.pi) * THETA_SCALE))
                if bt < 0:
                    bt = 0
                elif bt > NBINS - 1:
                    bt = NBINS - 1
                counts[qi, ba] += 1
                counts[qi, NBINS + bp] += 1
                counts[qi, 2 * NBINS + bt] += 1
                npairs += 1
        pair_counts[qi] = npairs
    return counts, pair_counts


def pair_table_shared(members, member_off, n):
    """The oracle for the PFH kernel's pair table: every pair (j, i), i < j,
    of points that share a neighbourhood, ordered by j then i: the nonzeros
    below the diagonal of A^T A, where A is the query-by-point membership
    matrix."""
    nq = member_off.shape[0] - 1
    a = sparse.csr_matrix((np.ones(members.size, dtype=np.int32), members,
                           member_off), shape=(nq, n))
    co = (a.T @ a).tocsr()
    co.sort_indices()
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(co.indptr))
    below = co.indices < rows
    return rows[below], co.indices[below].astype(np.int64)


def query_members(valid, nbr_idx, nbr_off, queries):
    """Valid members of each valid query's neighbourhood, as a list of
    arrays in query order."""
    members = [nbr_idx[nbr_off[q]:nbr_off[q + 1]] if valid[q]
               else np.empty(0, dtype=np.int64) for q in queries]
    return [m[valid[m]] for m in members]


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


def record_bin_chunks(monkeypatch):
    """List that collects the pair count of every chunk the PFH kernel bins
    while ``monkeypatch`` is active."""
    chunks = []
    bin_codes = _kernels._bin_codes

    def spy(i_arr, j_arr, xyz, normals):
        chunks.append(i_arr.size)
        return bin_codes(i_arr, j_arr, xyz, normals)

    monkeypatch.setattr(_kernels, "_bin_codes", spy)
    return chunks


def batch_bytes(union_size, queries):
    """Bytes of a batch's int32 code table and int64 histogram."""
    return union_size ** 2 * 4 + queries * _kernels._CODES * 8


def leaf_order(xyz, members, queries, active):
    """Positions ``active`` of ``queries`` in the order the PFH kernel takes
    them: by their query point's place in the leaf order of a KD-tree over
    every queried member, ties in position order."""
    pts = np.unique(np.concatenate(members))
    rank = np.zeros(len(xyz), dtype=np.int64)
    rank[pts[cKDTree(xyz[pts]).indices]] = np.arange(pts.size)
    return active[np.argsort(rank[queries[active]], kind="stable")]


def assert_batches_within_limits(batches, xyz, valid, nbr_idx, nbr_off, queries):
    """Batches cover the queries with pairs once each, in the kernel's leaf
    order; each one's union is its members'; each keeps within the byte
    budget unless it holds a single query; and none could also have held
    the next batch's first query."""
    members = query_members(valid, nbr_idx, nbr_off, queries)
    npairs = [m.size * (m.size - 1) // 2 for m in members]

    def within(sel):
        union = np.unique(np.concatenate([members[q] for q in sel]))
        return batch_bytes(union.size, len(sel)) <= _kernels._BATCH_BYTES

    order = np.concatenate([sel for sel, _u in batches])
    active = np.flatnonzero(npairs)
    assert np.array_equal(np.sort(order), active)
    assert np.array_equal(order, leaf_order(xyz, members, queries, active))
    for b, (sel, union) in enumerate(batches):
        assert np.array_equal(union,
                              np.unique(np.concatenate([members[q] for q in sel])))
        assert len(sel) == 1 or within(sel)
        if b + 1 < len(batches):
            assert not within(np.append(sel, batches[b + 1][0][0]))


class TestPfhNumpy:
    def test_pfh_histogram_row_structure(self, rng):
        xyz, normals, valid, nbr_idx, nbr_off, radius = scene(rng)
        queries = np.arange(len(xyz), dtype=np.int64)
        counts = _kernels.pfh_pair_histograms(
            xyz, normals, valid, nbr_idx, nbr_off, radius, queries)
        # each 11-bin block accumulates every scored pair exactly once
        pairs = counts[:, :11].sum(axis=1)
        assert pairs.sum() > 0
        for block in range(1, 3):
            got = counts[:, block * 11:(block + 1) * 11].sum(axis=1)
            assert np.array_equal(got, pairs)
        assert np.all(counts[~valid[queries]] == 0)

    def test_numpy_batching_does_not_change_counts(self, rng, monkeypatch):
        xyz, normals, valid, nbr_idx, nbr_off, radius = scene(rng, n=150)
        queries = np.arange(len(xyz), dtype=np.int64)
        big = _kernels.pfh_pair_histograms(
            xyz, normals, valid, nbr_idx, nbr_off, radius, queries)
        monkeypatch.setattr(_kernels, "_BATCH_BYTES", batch_bytes(40, 4))
        batches = record_batches(monkeypatch)
        small = _kernels.pfh_pair_histograms(
            xyz, normals, valid, nbr_idx, nbr_off, radius, queries)
        assert len(batches) >= 3
        assert np.array_equal(big, small)

    @pytest.mark.parametrize("subset", [False, True])
    @pytest.mark.parametrize("build", [scene, edge_case_scene])
    def test_counts_equal_python_loops(self, rng, build, subset):
        xyz, normals, valid, nbr_idx, nbr_off, radius = build(rng)
        queries = np.arange(len(xyz), dtype=np.int64)
        if subset:
            # unordered, repeated, and holding invalid and degenerate points
            queries = np.array([9, 3, 0, 4, 3, len(xyz) - 1, 1, 7, 20],
                               dtype=np.int64)
        got = _kernels.pfh_pair_histograms(
            xyz, normals, valid, nbr_idx, nbr_off, radius, queries)
        want = pfh_histograms_loops(
            xyz, normals, valid, nbr_idx, nbr_off, queries)
        assert want[1].sum() > 0
        assert np.array_equal(got, want[0])

    def test_edge_case_scene_holds_the_degenerate_pairs(self, rng):
        xyz, normals, valid, nbr_idx, nbr_off, _r = edge_case_scene(rng)
        for i, j in ((3, 7), (0, 1)):
            assert j in nbr_idx[nbr_off[i]:nbr_off[i + 1]]
            with pytest.raises(DegeneratePairError):
                darboux_features(xyz[i], normals[i], xyz[j], normals[j])

    # budgets of one query a batch, and of up to three queries over a narrow
    # and over a wide union
    @pytest.mark.parametrize("limit, value", [
        ("_BATCH_BYTES", 1),
        ("_BATCH_BYTES", batch_bytes(12, 3)),
        ("_BATCH_BYTES", batch_bytes(40, 3)),
        ("_BIN_BATCH", 37),
    ])
    @pytest.mark.parametrize("subset", [False, True])
    @pytest.mark.parametrize("build", [scene, edge_case_scene, clustered_scene])
    def test_small_batches_equal_python_loops(self, rng, monkeypatch, build,
                                              subset, limit, value):
        xyz, normals, valid, nbr_idx, nbr_off, radius = build(rng)
        queries = np.arange(len(xyz), dtype=np.int64)
        if subset:
            queries = np.array([9, 3, 0, 4, 3, len(xyz) - 1, 1, 7, 20],
                               dtype=np.int64)
        want = pfh_histograms_loops(
            xyz, normals, valid, nbr_idx, nbr_off, queries)
        monkeypatch.setattr(_kernels, limit, value)
        batches = record_batches(monkeypatch)
        chunks = record_bin_chunks(monkeypatch)
        got = _kernels.pfh_pair_histograms(
            xyz, normals, valid, nbr_idx, nbr_off, radius, queries)
        # the limit under test cuts the work into three pieces or more
        assert len(chunks if limit == "_BIN_BATCH" else batches) >= 3
        assert max(chunks) <= _kernels._BIN_BATCH
        assert_batches_within_limits(batches, xyz, valid, nbr_idx, nbr_off,
                                     queries)
        assert np.array_equal(got, want[0])

    def test_table_within_limit_when_every_point_is_in_every_neighbourhood(
            self, rng, monkeypatch):
        xyz, normals, valid, nbr_idx, nbr_off, radius = clustered_scene(
            rng, clusters=1, size=40)
        queries = np.arange(len(xyz), dtype=np.int64)
        want = pfh_histograms_loops(
            xyz, normals, valid, nbr_idx, nbr_off, queries)
        # a budget of exactly a table of the 40 points and 40 histograms: the
        # union never grows past them, so one table serves every query
        monkeypatch.setattr(_kernels, "_BATCH_BYTES", batch_bytes(40, 40))
        batches = record_batches(monkeypatch)
        got = _kernels.pfh_pair_histograms(
            xyz, normals, valid, nbr_idx, nbr_off, radius, queries)
        assert [(len(sel), union.size) for sel, union in batches] == [(40, 40)]
        assert np.array_equal(got, want[0])

    def test_table_limit_cuts_interleaved_clusters(self, rng, monkeypatch):
        xyz, normals, valid, nbr_idx, nbr_off, radius = clustered_scene(rng)
        # one query from each cluster in turn; the kernel regroups them
        queries = np.arange(len(xyz), dtype=np.int64).reshape(5, 8).T.ravel()
        want = pfh_histograms_loops(
            xyz, normals, valid, nbr_idx, nbr_off, queries)
        # room for two queries over one cluster, not over two: a batch is cut
        # where its next query would bring in a second cluster
        monkeypatch.setattr(_kernels, "_BATCH_BYTES", batch_bytes(8, 2))
        batches = record_batches(monkeypatch)
        got = _kernels.pfh_pair_histograms(
            xyz, normals, valid, nbr_idx, nbr_off, radius, queries)
        assert len(batches) < len(queries)
        assert all(union.size == 8 for _sel, union in batches)
        # a batch of one query that two would fit: cut by its union
        assert any(len(sel) == 1 for sel, _union in batches[:-1])
        assert_batches_within_limits(batches, xyz, valid, nbr_idx, nbr_off,
                                     queries)
        assert np.array_equal(got, want[0])

    @pytest.mark.parametrize("budget", [None, batch_bytes(40, 3)])
    def test_permuted_queries_permute_rows(self, rng, monkeypatch, budget):
        xyz, normals, valid, nbr_idx, nbr_off, radius = scene(rng)
        n = len(xyz)
        queries = np.arange(n, dtype=np.int64)
        if budget is not None:
            monkeypatch.setattr(_kernels, "_BATCH_BYTES", budget)
        whole = _kernels.pfh_pair_histograms(
            xyz, normals, valid, nbr_idx, nbr_off, radius, queries)
        # shuffled, with a third of the points asked for twice
        perm = rng.permutation(np.concatenate([queries, queries[::3]]))
        got = _kernels.pfh_pair_histograms(
            xyz, normals, valid, nbr_idx, nbr_off, radius, perm)
        assert whole[:, :NBINS].sum() > 0
        assert got.dtype == whole.dtype
        assert np.array_equal(got, whole[perm])

    @pytest.mark.parametrize("subset", [False, True])
    @pytest.mark.parametrize("build", [scene, edge_case_scene, clustered_scene])
    def test_pair_table_holds_every_shared_pair(self, rng, build, subset):
        xyz, _normals, valid, nbr_idx, nbr_off, radius = build(rng)
        n = len(xyz)
        queries = np.arange(n, dtype=np.int64)
        if subset:
            queries = np.array([9, 3, 0, 4, 3, n - 1, 1, 7, 20], dtype=np.int64)
        members = query_members(valid, nbr_idx, nbr_off, queries)
        member_off = np.concatenate(([0], np.cumsum([m.size for m in members])))
        members = np.concatenate(members)
        want_j, want_i = pair_table_shared(members, member_off, n)
        got_j, got_i, rank = _kernels._pair_table(xyz, members, radius)
        assert want_j.size > 0
        # each queried member has its own leaf rank
        pts = np.unique(members)
        assert np.array_equal(np.sort(rank[pts]), np.arange(pts.size))
        # distinct pairs (j, i), i < j, grouped by j
        assert np.all(got_i < got_j) and np.all(np.diff(got_j) >= 0)
        got = got_j * n + got_i
        assert np.unique(got).size == got.size
        assert np.isin(want_j * n + want_i, got).all()

    def test_pair_table_holds_pairs_at_twice_the_radius(self, rng):
        # a query midway between its two members, at a radius equal to its
        # larger distance: in floats the members' distance often exceeds
        # twice that radius
        for _ in range(200):
            centre = rng.uniform(-0.05, 0.05, size=3)
            step = rng.normal(size=3)
            step *= rng.uniform(0.001, 0.01) / np.linalg.norm(step)
            xyz = np.array([centre, centre - step, centre + step])
            radius = math.sqrt(float(((xyz - centre) ** 2).sum(axis=1).max()))
            pair_j, pair_i, _rank = _kernels._pair_table(xyz, np.arange(3),
                                                         radius)
            assert (2, 1) in zip(pair_j.tolist(), pair_i.tolist())

    # 200 and 1 000 points take 8- and 16-bit keys, 70 000 a 32-bit key
    @pytest.mark.parametrize("n", [200, 1_000, 70_000])
    def test_pair_table_groups_as_the_int64_stable_sort(self, rng, n):
        xyz = rng.uniform(0.0, 1.0, size=(n, 3))
        radius = 0.5 * n ** (-1 / 3)   # sparse: a few pairs per point
        pairs = cKDTree(xyz).query_pairs(2.0 * radius * (1.0 + 1e-9),
                                         output_type="ndarray")
        order = np.argsort(pairs[:, 1].astype(np.int64), kind="stable")
        pair_j, pair_i, _rank = _kernels._pair_table(xyz, np.arange(n), radius)
        assert pairs.shape[0] > n // 2
        assert np.array_equal(pair_j, pairs[order, 1])
        assert np.array_equal(pair_i, pairs[order, 0])

    def test_one_query_bins_only_its_own_pairs(self, rng, monkeypatch):
        xyz, normals, valid, nbr_idx, nbr_off, radius = scene(rng)
        n = len(xyz)
        cloud = PointCloud(xyz, np.zeros((n, 3), dtype=np.uint8),
                           np.full(n, -1, dtype=np.int8))
        index = build_index(cloud)
        k = np.array([m.size for m in query_members(
            valid, nbr_idx, nbr_off, np.arange(n))])
        q = int(np.argmax(k))
        chunks = record_bin_chunks(monkeypatch)
        hist = compute_pfh(q, cloud, NormalSet(normals, valid),
                           index, radius)
        assert hist.pair_count > 0
        assert 0 < sum(chunks) <= k[q] * (k[q] - 1) // 2

    def test_no_queries_give_no_rows(self, rng):
        xyz, normals, valid, nbr_idx, nbr_off, radius = scene(rng, n=60)
        counts = _kernels.pfh_pair_histograms(
            xyz, normals, valid, nbr_idx, nbr_off, radius,
            np.empty(0, dtype=np.int64))
        assert counts.shape == (0, 3 * NBINS) and counts.dtype == np.int64

    def test_missing_pair_raises(self, rng):
        xyz, normals, valid, nbr_idx, nbr_off, radius = scene(rng, n=60)
        # descending rows name every pair with its larger member first
        rows = [nbr_idx[nbr_off[i]:nbr_off[i + 1]][::-1] for i in range(60)]
        with pytest.raises(AssertionError, match="pair table"):
            _kernels.pfh_pair_histograms(
                xyz, normals, valid, np.concatenate(rows), nbr_off, radius,
                np.arange(60, dtype=np.int64))

    def test_lists_wider_than_the_radius_raise(self, rng):
        xyz, normals, valid, nbr_idx, nbr_off, radius = scene(rng, n=60,
                                                              radius=0.03)
        with pytest.raises(AssertionError, match="pair table"):
            _kernels.pfh_pair_histograms(
                xyz, normals, valid, nbr_idx, nbr_off, radius / 4,
                np.arange(60, dtype=np.int64))


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


def bin_codes_frozen(i_arr, j_arr, xyz, normals):
    """The oracle for ``_kernels._bin_codes``: a frozen copy of its
    column-gather, float-select form, whose codes the PFH counts were first
    checked against."""
    with np.errstate(divide="ignore", invalid="ignore"):
        dx = xyz[j_arr, 0] - xyz[i_arr, 0]
        dy = xyz[j_arr, 1] - xyz[i_arr, 1]
        dz = xyz[j_arr, 2] - xyz[i_arr, 2]
        d2 = dx * dx + dy * dy + dz * dz
        d = np.sqrt(d2)
        ux, uy, uz = dx / d, dy / d, dz / d
        nix, niy, niz = normals[i_arr, 0], normals[i_arr, 1], normals[i_arr, 2]
        njx, njy, njz = normals[j_arr, 0], normals[j_arr, 1], normals[j_arr, 2]
        dot_i = nix * ux + niy * uy + niz * uz
        dot_j = njx * ux + njy * uy + njz * uz
        swap = np.abs(dot_i) < np.abs(dot_j)
        sx = np.where(swap, njx, nix)
        sy = np.where(swap, njy, niy)
        sz = np.where(swap, njz, niz)
        tx = np.where(swap, nix, njx)
        ty = np.where(swap, niy, njy)
        tz = np.where(swap, niz, njz)
        sign = np.where(swap, -1.0, 1.0)
        usx, usy, usz = sign * ux, sign * uy, sign * uz
        cx = sy * usz - sz * usy
        cy = sz * usx - sx * usz
        cz = sx * usy - sy * usx
        c2 = cx * cx + cy * cy + cz * cz
        cn = np.sqrt(c2)
        vx, vy, vz = cx / cn, cy / cn, cz / cn
        wx = sy * vz - sz * vy
        wy = sz * vx - sx * vz
        wz = sx * vy - sy * vx
        alpha = vx * tx + vy * ty + vz * tz
        phi = sx * usx + sy * usy + sz * usz
        theta = np.arctan2(wx * tx + wy * ty + wz * tz, sx * tx + sy * ty + sz * tz)
        codes = _kernels._pack_bins(alpha, phi, theta).astype(np.uint16)
    codes[~((d2 > 0.0) & (c2 >= DEGENERATE_CROSS_SQ))] = _kernels._SKIP
    return codes


# the eight sign patterns of a 3-vector
SIGNS = np.array(np.meshgrid([-1, 1], [-1, 1], [-1, 1])).reshape(3, -1).T


def all_pairs(n):
    """Every ordered pair (i, j) of n points, i == j included."""
    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return i.ravel(), j.ravel()


class TestBinCodes:
    """``_kernels._bin_codes`` against its frozen column-gather form, code
    for code, on pairs that hit each of its branches and signed zeros."""

    @staticmethod
    def assert_codes_equal(i_arr, j_arr, xyz, normals):
        got = _kernels._bin_codes(i_arr, j_arr, xyz, normals)
        want = bin_codes_frozen(i_arr, j_arr, xyz, normals)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        return got

    def test_random_pairs(self, rng):
        xyz = rng.normal(size=(200, 3)) * 0.02
        normals = rng.normal(size=(200, 3))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        i_arr, j_arr = rng.integers(0, 200, size=(2, 5000))
        codes = self.assert_codes_equal(i_arr, j_arr, xyz, normals)
        assert np.unique(codes).size > 500

    def test_coincident_points(self, rng):
        xyz = rng.normal(size=(20, 3)) * 0.01
        xyz[10:] = xyz[:10]
        normals = rng.normal(size=(20, 3))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        i_arr, j_arr = all_pairs(20)
        codes = self.assert_codes_equal(i_arr, j_arr, xyz, normals)
        assert np.all(codes[i_arr % 10 == j_arr % 10] == _kernels._SKIP)

    @staticmethod
    def sign_normals():
        """Unit normals of every sign pattern, with and without zero
        components, and the zero normal of an invalid point."""
        normals = np.concatenate([SIGNS * [0.3, 0.5, 0.81], SIGNS * [0.6, 0.8, 0.0],
                                  np.eye(3), -np.eye(3), np.zeros((1, 3))])
        norm = np.linalg.norm(normals, axis=1, keepdims=True)
        return normals / np.where(norm > 0.0, norm, 1.0)

    def test_coincident_pair(self):
        # one position for every normal: each pair is coincident, d == 0
        normals = self.sign_normals()
        xyz = np.tile([0.01, -0.02, 0.03], (len(normals), 1))
        i_arr, j_arr = all_pairs(len(xyz))
        codes = self.assert_codes_equal(i_arr, j_arr, xyz, normals)
        assert np.all(codes == _kernels._SKIP)

    def test_pair_offset_below_the_square_root_of_underflow(self):
        # offsets of about 1e-170 square to below the smallest double, so
        # d2 == 0 although the offset is not: u holds infinities, or a NaN
        # where a component is zero
        normals = self.sign_normals()
        offsets = np.concatenate([SIGNS * [1.0, 2.0, 3.0], [[1.0, 0.0, 2.0]]])
        xyz = np.concatenate([np.zeros((1, 3)), offsets * 1e-170])
        xyz = np.repeat(xyz, len(normals), axis=0)
        normals = np.tile(normals, (len(offsets) + 1, 1))
        i_arr, j_arr = all_pairs(len(xyz))
        diff = xyz[j_arr] - xyz[i_arr]
        moved = (diff != 0.0).any(axis=1)
        assert np.count_nonzero(moved) > 10000
        assert np.all(np.einsum("ij,ij->i", diff, diff) == 0.0)
        codes = self.assert_codes_equal(i_arr, j_arr, xyz, normals)
        assert np.all(codes == _kernels._SKIP)

    def test_parallel_normals(self, rng):
        # normals along the join line, and equal normals off it
        xyz = rng.normal(size=(30, 3)) * 0.01
        normals = np.repeat(rng.normal(size=(1, 3)), 30, axis=0)
        normals[:10] = xyz[10:20] - xyz[:10]
        normals[10:20] = -normals[:10]
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        i_arr, j_arr = all_pairs(30)
        codes = self.assert_codes_equal(i_arr, j_arr, xyz, normals)
        assert np.all(codes[np.arange(10) * 31 + 10] == _kernels._SKIP)
        assert np.count_nonzero(codes == _kernels._SKIP) > 30

    def test_axis_aligned_pairs_and_ties(self):
        # a 3 x 3 x 3 grid with axis normals: differences and products are
        # exact zeros of either sign, and |dot_i| == |dot_j| for most pairs
        g = np.arange(3) * 0.01
        grid = np.stack(np.meshgrid(g, g, g, indexing="ij"), -1).reshape(-1, 3)
        axes = np.concatenate([np.eye(3), -np.eye(3)])
        xyz = np.repeat(grid, len(axes), axis=0)
        normals = np.tile(axes, (len(grid), 1))
        i_arr, j_arr = all_pairs(len(xyz))
        codes = self.assert_codes_equal(i_arr, j_arr, xyz, normals)
        diff = xyz[j_arr] - xyz[i_arr]
        dot_i = np.einsum("ij,ij->i", normals[i_arr], diff)
        dot_j = np.einsum("ij,ij->i", normals[j_arr], diff)
        assert np.count_nonzero((diff == 0.0).any(axis=1) & (diff != 0.0).any(axis=1)) > 0
        tie = (np.abs(dot_i) == np.abs(dot_j)) & (diff != 0.0).any(axis=1)
        assert np.count_nonzero(tie & (codes != _kernels._SKIP)) > 1000
        assert np.unique(codes).size > 20

    def test_ties_of_equal_and_opposite_normals(self, rng):
        # n_j = +-n_i makes dot_j = +-dot_i bit for bit: a tie at every pair
        xyz = rng.normal(size=(400, 3)) * 0.01
        normals = rng.normal(size=(400, 3))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        normals[1::4] = normals[0::4]
        normals[3::4] = -normals[2::4]
        i_arr, j_arr = np.arange(0, 400, 2), np.arange(1, 400, 2)
        diff = xyz[j_arr] - xyz[i_arr]
        dot_i = np.einsum("ij,ij->i", normals[i_arr], diff)
        dot_j = np.einsum("ij,ij->i", normals[j_arr], diff)
        assert np.array_equal(np.abs(dot_i), np.abs(dot_j))
        for a, b in ((i_arr, j_arr), (j_arr, i_arr)):
            codes = self.assert_codes_equal(a, b, xyz, normals)
            assert np.count_nonzero(codes != _kernels._SKIP) > 150


class TestMomentCorrectness:
    def test_against_numpy_cov(self, rng):
        xyz, _n, _v, nbr_idx, nbr_off, _r = scene(rng, n=100)
        counts, means, covs = _kernels.neighborhood_moments(xyz, nbr_idx, nbr_off)
        for i in range(0, 100, 7):
            members = nbr_idx[nbr_off[i]:nbr_off[i + 1]]
            pts = xyz[members]
            assert counts[i] == len(members)
            assert np.allclose(means[i], pts.mean(axis=0), atol=1e-12)
            expect = np.cov(pts.T, bias=True) if len(pts) > 1 else np.zeros((3, 3))
            assert np.allclose(covs[i], expect, atol=1e-12)

    # 1_000_000 is a batch beyond the whole scene: one batch holds it all
    @pytest.mark.parametrize("batch",
                             [1, 37, _kernels._MOMENT_BATCH, 1_000_000])
    def test_batch_size_does_not_change_a_bit(self, rng, monkeypatch, batch):
        xyz, _n, _v, nbr_idx, nbr_off, _r = scene(rng, n=300, radius=0.03)
        assert np.diff(nbr_off).max() > 37   # a neighbourhood beyond a batch
        # the default batch cuts the scene into two batches or more
        assert nbr_off[-1] > _kernels._MOMENT_BATCH
        monkeypatch.setattr(_kernels, "_MOMENT_BATCH", int(nbr_off[-1]))
        want = _kernels.neighborhood_moments(xyz, nbr_idx, nbr_off)
        monkeypatch.setattr(_kernels, "_MOMENT_BATCH", batch)
        got = _kernels.neighborhood_moments(xyz, nbr_idx, nbr_off)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


def expansion_model(rng, kernel, ns=40, d=36):
    """A model of ns random support vectors, coefficients and scaling."""
    scaling = ScalingStats(rng.normal(size=d), rng.uniform(0.5, 2.0, size=d))
    return SvmModel(kernel, 1.0, scaling, rng.normal(size=(ns, d)),
                    rng.normal(size=ns), -0.2)


KERNELS = pytest.mark.parametrize(
    "kernel", [KernelSpec("rbf", 0.01), KernelSpec("linear", None)],
    ids=["rbf", "linear"])


class TestDecisionChunking:
    @KERNELS
    def test_row_scores_independent_of_chunking(self, rng, kernel):
        model = expansion_model(rng, kernel)
        x = rng.normal(size=(101, 36))
        whole = decision_scores(model, x)
        pieces = [decision_scores(model, chunk)
                  for chunk in np.array_split(x, 7)]
        assert np.array_equal(whole, np.concatenate(pieces))

    @KERNELS
    def test_scores_equal_written_out_expansion(self, rng, kernel):
        model = expansion_model(rng, kernel)
        x = rng.normal(size=(20, 36))
        got = decision_scores(model, x)
        mean, std = model.scaling.mean, model.scaling.std
        for r, row in enumerate(x):
            xs = [(v - m) / s for v, m, s in zip(row, mean, std)]
            terms = [model.bias]
            for sv, coef in zip(model.support_vectors, model.dual_coefs):
                if kernel.kind == "linear":
                    k = math.fsum(a * b for a, b in zip(sv, xs))
                else:
                    k = math.exp(-kernel.gamma
                                 * math.fsum((a - b) ** 2 for a, b in zip(sv, xs)))
                terms.append(coef * k)
            want = math.fsum(terms)
            assert abs(got[r] - want) <= 1e-12 * abs(want)
