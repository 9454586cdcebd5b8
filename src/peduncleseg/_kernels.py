"""The hot numeric kernels, in numpy: PFH pair histograms, the mask of
points with a scorable pair of their own, and neighbourhood moments.

The PFH kernel works over a table of unique pairs.  Members lie within
the radius the lists were built with, so by the triangle inequality two
points that share a neighbourhood lie within twice the radius of each
other: the KD-tree pairs (i < j) of the queried members within that
distance hold every pair the histograms need, and a few more that are
binned but never looked up.  Each pair is binned once into one packed
code ``ba * 121 + bp * 11 + bt`` (``1331`` for a pair the histograms
skip); a default scene holds about 28 pair instances per unique pair.  It
bins the pairs ``_BIN_BATCH`` at a time, so the float temporaries of
binning stay within the CPU cache; the source of a pair, the end whose
normal lies closer to the join line, is picked by index, not by a float
select, so no branch depends on the swap mask.  It then takes the queries
in the leaf order of the pairs' KD-tree, so that consecutive queries lie
close together, and cuts them into batches of consecutive queries: each
batch is a compact block of space whose members overlap.
A batch renumbers the union U of its members to 0..|U|-1 and scatters the
codes of the pairs with both ends in U into a dense |U| x |U| int32 table
that starts filled with a "missing" sentinel, so each pair instance costs
one lookup.  Each query counts its looked-up codes with its own
``np.bincount`` into its row of the batch's queries x 1332 int64
histogram; a sentinel is negative and makes ``bincount`` raise, which
means a neighbour list was not distinct and ascending or reached beyond
the radius.  The counts form the query's (11, 11, 11) cube of bin
triples, whose three 11-bin marginals are its alpha, phi and theta
blocks.  The table and the histogram are a batch's only allocations that
grow with it, and a batch is cut before their bytes together would pass
``_BATCH_BYTES``, so memory stays bounded on dense and on large sparse
scenes alike.  Its counts are those of a scalar loop over every pair of
every neighbourhood, integer for integer.

The three kernels accumulate integer counts, marks or fixed-order float
sums, so their results do not depend on batch size.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial import cKDTree

BACKEND = "numpy"   # recorded in benchmark provenance

NBINS = 11
ALPHA_SCALE = NBINS / 2.0          # alpha, phi over [-1, 1]
THETA_SCALE = NBINS / (2.0 * math.pi)  # theta over [-pi, pi]
DEGENERATE_CROSS_SQ = 1e-24        # ||U x u|| < 1e-12

_BIN_BATCH = 1 << 15       # pairs binned at once: about 350 bytes each
_BATCH_BYTES = 12 << 20    # a query batch's code table plus histogram
_SKIP = NBINS ** 3         # code of a pair the histograms leave out
_CODES = _SKIP + 1         # codes per query histogram
_MISSING = np.int32(np.iinfo(np.int32).min)  # dense-table entry of no pair


def _pair_positions(k):
    """Positions (a, b), a < b, of every pair among k members, ordered by b.

    The pairs of the first k' <= k members are then a prefix, so one table
    serves every neighbourhood size up to k.
    """
    b = np.repeat(np.arange(k), np.arange(k))
    a = np.arange(b.size) - b * (b - 1) // 2
    return a, b


def _concat_ranges(starts, lens):
    """Indices ``starts[t] .. starts[t] + lens[t] - 1`` for every t, in order."""
    ends = np.cumsum(lens)
    return np.repeat(starts - ends + lens, lens) + np.arange(lens.sum())


def _pair_table(xyz, members, radius):
    """Every pair (j, i), i < j, of members within twice the radius of each
    other, grouped by j with a stable sort (a radix sort below 65 536
    members): a superset of the pairs that share a neighbourhood.  The
    search radius is widened by 1e-9 of itself, so that rounding drops no
    pair.  Also, per point, the rank of each member in the leaf order of
    the KD-tree the pairs come from (other points rank 0): members close in
    rank lie close in space."""
    n = xyz.shape[0]
    queried = np.zeros(n, dtype=bool)
    queried[members] = True
    pts = np.flatnonzero(queried)
    tree = cKDTree(xyz[pts])
    pairs = tree.query_pairs(2.0 * radius * (1.0 + 1e-9), output_type="ndarray")
    key = pairs[:, 1].astype(np.min_scalar_type(pts.size - 1))
    pairs = pairs.take(np.argsort(key, kind="stable"), axis=0)
    leaf_rank = np.zeros(n, dtype=np.int64)
    leaf_rank[pts[tree.indices]] = np.arange(pts.size)
    return pts[pairs[:, 1]], pts[pairs[:, 0]], leaf_rank


def _bin_codes(i_arr, j_arr, xyz, normals):
    """Packed code ``ba * 121 + bp * 11 + bt`` of each pair (i, j), from its
    alpha, phi and theta bins, or ``_SKIP`` for coincident points and for a
    source normal parallel to the join line.  The arithmetic is that of a
    scalar loop over the pair's coordinates, operation for operation.

    Positions and normals are gathered as whole rows.  The source and target
    normals are gathered by index, ``src = i + swap * (j - i)``, and the
    line's sign is ``1 - 2 * swap``, so no float select branches on the
    swap mask, which is as good as random."""
    with np.errstate(divide="ignore", invalid="ignore"):
        diff = xyz.take(j_arr, axis=0) - xyz.take(i_arr, axis=0)
        dx, dy, dz = diff[:, 0], diff[:, 1], diff[:, 2]
        d = np.sqrt(dx * dx + dy * dy + dz * dz)
        ux, uy, uz = dx / d, dy / d, dz / d
        ni = normals.take(i_arr, axis=0)
        nj = normals.take(j_arr, axis=0)
        dot_i = ni[:, 0] * ux + ni[:, 1] * uy + ni[:, 2] * uz
        dot_j = nj[:, 0] * ux + nj[:, 1] * uy + nj[:, 2] * uz
        swap = np.abs(dot_i) < np.abs(dot_j)
        src = i_arr + swap * (j_arr - i_arr)
        s = normals.take(src, axis=0)
        t = normals.take(i_arr + j_arr - src, axis=0)
        sx, sy, sz = s[:, 0], s[:, 1], s[:, 2]
        tx, ty, tz = t[:, 0], t[:, 1], t[:, 2]
        sign = 1.0 - 2.0 * swap
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
        codes = _pack_bins(alpha, phi, theta).astype(np.uint16)
    # coincident points skip too: at d == 0, u holds a NaN (0 / 0) or three
    # infinities, so c = s x u holds a NaN (0 * inf, or inf - inf: the signs
    # of the two products cannot differ in all three components)
    codes[~(c2 >= DEGENERATE_CROSS_SQ)] = _SKIP
    return codes


def _pair_codes(i_arr, j_arr, xyz, normals):
    """``_bin_codes`` of every pair (i, j), ``_BIN_BATCH`` pairs at a time."""
    codes = np.empty(i_arr.size, dtype=np.uint16)
    for s in range(0, i_arr.size, _BIN_BATCH):
        chunk = slice(s, s + _BIN_BATCH)
        codes[chunk] = _bin_codes(i_arr[chunk], j_arr[chunk], xyz, normals)
    return codes


def _pack_bins(alpha, phi, theta):
    """Packed code ``ba * 121 + bp * 11 + bt`` of angle triples.

    Each angle gets NBINS equal-width bins over its full range (alpha and
    phi over [-1, 1], theta over [-pi, pi]), taken with ``floor`` and
    clamped, so a value at an angle's maximum falls in the last bin.
    """
    ba = np.clip(np.floor((alpha + 1.0) * ALPHA_SCALE).astype(np.int64), 0, NBINS - 1)
    bp = np.clip(np.floor((phi + 1.0) * ALPHA_SCALE).astype(np.int64), 0, NBINS - 1)
    bt = np.clip(np.floor((theta + math.pi) * THETA_SCALE).astype(np.int64), 0, NBINS - 1)
    return (ba * NBINS + bp) * NBINS + bt


def _query_batches(active, members, member_off, n):
    """Cut the queries ``active`` into consecutive batches and yield each
    with the ascending union U of its members.

    A batch takes queries while its |U| x |U| int32 code table plus its
    queries x ``_CODES`` int64 histogram stay within ``_BATCH_BYTES``; a
    query that alone passes the budget forms a batch of its own.
    """
    query_bytes = _CODES * np.dtype(np.int64).itemsize
    batch_of = np.full(n, -1, dtype=np.int64)  # last batch that held each point
    b = lo = union = 0
    for pos, qi in enumerate(active):
        m = members[member_off[qi]:member_off[qi + 1]]
        fresh = int(np.count_nonzero(batch_of[m] != b))
        if pos > lo and ((union + fresh) ** 2 * _MISSING.itemsize
                         + (pos - lo + 1) * query_bytes > _BATCH_BYTES):
            yield active[lo:pos], np.flatnonzero(batch_of == b)
            b += 1
            lo, union, fresh = pos, 0, m.size
        batch_of[m] = b
        union += fresh
    yield active[lo:], np.flatnonzero(batch_of == b)


def pfh_pair_histograms(xyz, normals, valid, nbr_idx, nbr_off, radius, queries):
    """Per-query raw 33-bin pair counts.  Each 11-bin block sums to the
    query's scored pairs.

    ``queries`` selects which points get histograms; neighbour lists are the
    CSR arrays from the spatial index at ``radius`` (self included, distinct
    indices in ascending order, so each pair is taken from its lower
    index).  Points flagged invalid contribute to nothing.
    """
    # Each unique pair is binned once into a packed code.  Per batch of
    # queries, the codes of the pairs among the batch's members go into a
    # dense table, each pair instance is one lookup, and each query's own
    # bincount over its codes gives its (11, 11, 11) cube.
    n = xyz.shape[0]
    nq = queries.shape[0]
    counts = np.zeros((nq, 3 * NBINS), dtype=np.int64)
    # valid members of each valid query's neighbourhood, flattened
    lens = np.where(valid[queries], nbr_off[queries + 1] - nbr_off[queries], 0)
    members = nbr_idx[_concat_ranges(nbr_off[queries], lens)]
    keep = valid[members]
    members = members[keep]
    member_off = np.concatenate(([0], np.cumsum(keep)))[
        np.concatenate(([0], np.cumsum(lens)))]
    k = np.diff(member_off)
    npairs = k * (k - 1) // 2
    active = np.flatnonzero(npairs)
    if not active.size:
        return counts

    pair_j, pair_i, leaf_rank = _pair_table(xyz, members, radius)
    # a valid query is a member of its own list, so it has a leaf rank:
    # queries taken in leaf order cut into spatially compact batches
    active = active[np.argsort(leaf_rank[queries[active]], kind="stable")]
    codes = _pair_codes(pair_i, pair_j, xyz, normals)
    # table pairs by larger end: those of point j are row_off[j]:row_off[j + 1]
    row_off = np.concatenate(([0], np.cumsum(np.bincount(pair_j, minlength=n))))
    pos_a, pos_b = _pair_positions(int(k.max()))
    local = np.full(n, -1, dtype=np.int64)

    for sel, u in _query_batches(active, members, member_off, n):
        size = u.size
        local[u] = np.arange(size)
        rows = _concat_ranges(row_off[u], row_off[u + 1] - row_off[u])
        inside = rows[local[pair_i[rows]] >= 0]
        table = np.full(size * size, _MISSING)
        table[local[pair_j[inside]] * size + local[pair_i[inside]]] = codes[inside]
        hist = np.empty((sel.size, _CODES), dtype=np.int64)
        for row, qi in enumerate(sel):
            loc = local[members[member_off[qi]:member_off[qi + 1]]]
            p = npairs[qi]
            try:
                hist[row] = np.bincount(table[(loc * size)[pos_b[:p]] + loc[pos_a[:p]]],
                                        minlength=_CODES)
            except ValueError:   # a missing pair reads _MISSING < 0
                raise AssertionError("a neighbourhood pair is missing from the "
                                     "pair table; neighbour lists must hold "
                                     "distinct indices in ascending order") from None
        local[u] = -1
        cube = hist[:, :_SKIP].reshape(sel.size, NBINS, NBINS * NBINS)
        phi_theta = cube.sum(axis=1).reshape(sel.size, NBINS, NBINS)
        counts[sel, :NBINS] = cube.sum(axis=2)
        counts[sel, NBINS:2 * NBINS] = phi_theta.sum(axis=2)
        counts[sel, 2 * NBINS:] = phi_theta.sum(axis=1)
    return counts


def own_pair_scorable(xyz, normals, valid, nbr_idx, nbr_off):
    """Mask of the points with a pair of their own in the CSR neighbour
    lists, both ends valid, that the PFH histograms count (code not
    ``_SKIP``).  Each such pair is binned once, lower index first as
    ``pfh_pair_histograms`` bins it, and marks both its ends."""
    n = xyz.shape[0]
    q = np.repeat(np.arange(n), np.diff(nbr_off))
    own = (q < nbr_idx) & valid[q] & valid[nbr_idx]
    lo, hi = q[own], nbr_idx[own]
    hit = _pair_codes(lo, hi, xyz, normals) != _SKIP
    marked = np.zeros(n, dtype=bool)
    marked[lo[hit]] = True
    marked[hi[hit]] = True
    return marked


_MOMENT_BATCH = 1 << 14     # members per moments batch


def neighborhood_moments(xyz, nbr_idx, nbr_off):
    """Counts, means and 3x3 covariances of each CSR neighbourhood.

    The neighbourhoods are taken in consecutive batches of about
    ``_MOMENT_BATCH`` members, each cut with one ``searchsorted`` over the
    offsets (a batch holds at least one neighbourhood).  A batch gathers
    its members' coordinates, and ``np.add.reduceat`` over the batch's
    offsets sums each neighbourhood on its own, so the batch size does not
    change a bit of the results.
    """
    n = nbr_off.shape[0] - 1
    counts = np.diff(nbr_off).astype(np.int64)
    means = np.zeros((n, 3))
    covs = np.zeros((n, 3, 3))
    start = 0
    while start < n:
        stop = np.searchsorted(nbr_off, nbr_off[start] + _MOMENT_BATCH,
                               side="right") - 1
        stop = max(int(stop), start + 1)
        lo = nbr_off[start]
        nb = xyz[nbr_idx[lo:nbr_off[stop]]]
        offs = (nbr_off[start:stop] - lo).astype(np.intp)
        cnt = counts[start:stop]
        mu = np.add.reduceat(nb, offs, axis=0) / cnt[:, None]
        means[start:stop] = mu
        centered = nb - np.repeat(mu, cnt, axis=0)
        prods = np.empty((centered.shape[0], 6))
        prods[:, 0] = centered[:, 0] * centered[:, 0]
        prods[:, 1] = centered[:, 0] * centered[:, 1]
        prods[:, 2] = centered[:, 0] * centered[:, 2]
        prods[:, 3] = centered[:, 1] * centered[:, 1]
        prods[:, 4] = centered[:, 1] * centered[:, 2]
        prods[:, 5] = centered[:, 2] * centered[:, 2]
        acc = np.add.reduceat(prods, offs, axis=0) / cnt[:, None]
        covs[start:stop] = acc[:, [0, 1, 2, 1, 3, 4, 2, 4, 5]].reshape(-1, 3, 3)
        start = stop
    return counts, means, covs
