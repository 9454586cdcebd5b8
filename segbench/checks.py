"""Independent checks of the program's outputs.

Each function returns a list of problems (empty when the output holds).
None of them compares against a stored copy of an earlier output: each
recomputes the value from its definition (brute-force PFH, ``colorsys``,
PCA by SVD, the kernel expansion read from the model file, the
precision-recall curve from scores and labels) or tests a property the
method must have.
"""

from __future__ import annotations

import colorsys
import json
import math

import numpy as np

NBINS = 11
DEGENERATE_CROSS = 1e-12      # |u x d| below this: the pair has no frame
EDGE_EPS = 1e-9               # a scaled angle this close to a bin edge may hop
DEGENERATE_EIG_RATIO = 1e-12  # lambda1 <= this * lambda2: collinear region


def _bins_of(value, lo, hi):
    """(bin, near_edge) of one Darboux value over [lo, hi] in NBINS bins."""
    scaled = (value - lo) * NBINS / (hi - lo)
    b = min(max(int(math.floor(scaled)), 0), NBINS - 1)
    near = abs(scaled - round(scaled)) <= EDGE_EPS and 0 < round(scaled) < NBINS
    return b, near


def _darboux(p1, n1, p2, n2):
    """(alpha, phi, theta, ambiguous) of one pair, or None when degenerate."""
    d = [p2[k] - p1[k] for k in range(3)]
    dist = math.sqrt(sum(x * x for x in d))
    if dist == 0.0:
        return None
    u = [x / dist for x in d]
    if abs(sum(n2[k] * u[k] for k in range(3))) > \
            abs(sum(n1[k] * u[k] for k in range(3))):
        n1, n2 = n2, n1
        u = [-x for x in u]
    cross = [n1[1] * u[2] - n1[2] * u[1], n1[2] * u[0] - n1[0] * u[2],
             n1[0] * u[1] - n1[1] * u[0]]
    cn = math.sqrt(sum(x * x for x in cross))
    ambiguous = abs(cn - DEGENERATE_CROSS) <= 1e-6 * DEGENERATE_CROSS
    if cn < DEGENERATE_CROSS:
        return None if not ambiguous else (0.0, 0.0, 0.0, True)
    v = [x / cn for x in cross]
    w = [n1[1] * v[2] - n1[2] * v[1], n1[2] * v[0] - n1[0] * v[2],
         n1[0] * v[1] - n1[1] * v[0]]
    alpha = sum(v[k] * n2[k] for k in range(3))
    phi = sum(n1[k] * u[k] for k in range(3))
    theta = math.atan2(sum(w[k] * n2[k] for k in range(3)),
                       sum(n1[k] * n2[k] for k in range(3)))
    return alpha, phi, theta, ambiguous


def _ball(xyz, centre, radius):
    """Indices within ``radius`` of ``centre``, and whether any sits on the rim."""
    dist = np.sqrt(((xyz - centre) ** 2).sum(axis=1))
    rim = bool(np.any(np.abs(dist - radius) <= 1e-12 * radius))
    return np.flatnonzero(dist <= radius), rim


def pfh_problems(xyz, normals, valid, radius, pfh_rows, feature_valid,
                 sample):
    """Brute-force PFH counts of sampled points against the program's rows.

    ``pfh_rows`` are the 33 PFH columns of the feature matrix (each 11-bin
    block normalised to 1).  Counts must agree exactly, except that a pair
    whose scaled angle lies within rounding of a bin edge may fall on either
    side of it.  A sample point whose region has a point on its rim, or a
    pair on the degeneracy threshold, is skipped.
    """
    problems = []
    for q in sample:
        q = int(q)
        row = np.asarray(pfh_rows[q], dtype=np.float64)
        members, rim = _ball(xyz, xyz[q], radius)
        if rim:
            continue
        members = [int(m) for m in members if valid[m]] if valid[q] else []
        counts = np.zeros(3 * NBINS, dtype=np.int64)
        edges = np.zeros(3, dtype=np.int64)
        npairs = 0
        skip = False
        for a in range(len(members)):
            i = members[a]
            for b in range(a + 1, len(members)):
                j = members[b]
                quad = _darboux(xyz[i].tolist(), normals[i].tolist(),
                                xyz[j].tolist(), normals[j].tolist())
                if quad is None:
                    continue
                alpha, phi, theta, ambiguous = quad
                if ambiguous:
                    skip = True
                    break
                for block, (value, lo, hi) in enumerate(
                        ((alpha, -1.0, 1.0), (phi, -1.0, 1.0),
                         (theta, -math.pi, math.pi))):
                    bin_, near = _bins_of(value, lo, hi)
                    counts[block * NBINS + bin_] += 1
                    edges[block] += near
                npairs += 1
            if skip:
                break
        if skip:
            continue
        if npairs == 0:
            if np.any(row != 0.0) or feature_valid[q]:
                problems.append(f"PFH of point {q}: no scorable pair, but the "
                                f"row is {'valid' if feature_valid[q] else 'non-zero'}")
            continue
        if not feature_valid[q]:
            problems.append(f"PFH of point {q}: {npairs} pairs but flagged invalid")
            continue
        got = row * npairs
        whole = np.rint(got)
        if np.any(np.abs(got - whole) > 1e-6 * npairs):
            problems.append(f"PFH of point {q}: bins are not counts over "
                            f"{npairs} pairs")
            continue
        for block in range(3):
            sl = slice(block * NBINS, (block + 1) * NBINS)
            moved = int(np.abs(whole[sl] - counts[sl]).sum())
            if moved > 2 * edges[block]:
                problems.append(
                    f"PFH of point {q}, block {block}: counts differ by "
                    f"{moved} from brute force ({edges[block]} pairs at a bin edge)")
    return problems


def hsv_problems(rgb, hsv_rows, sample):
    """HSV columns against ``colorsys`` on the 8-bit colour."""
    problems = []
    for q in sample:
        r, g, b = (int(c) / 255.0 for c in rgb[q])
        want = colorsys.rgb_to_hsv(r, g, b)
        got = hsv_rows[q]
        if max(abs(float(got[k]) - want[k]) for k in range(3)) > 1e-12:
            problems.append(f"HSV of point {q}: {list(map(float, got))} "
                            f"against colorsys {list(want)}")
    return problems


def normal_problems(xyz, radius, viewpoint, normals, valid, sample):
    """Normals of sampled points against an independent PCA (SVD).

    The tolerance on the angle widens as the two smallest eigenvalues of
    the neighbourhood covariance meet, where the normal is ill-defined.
    """
    problems = []
    for q in sample:
        members, rim = _ball(xyz, xyz[q], radius)
        if rim:
            continue
        pts = xyz[members]
        k = len(pts)
        if k < 3:
            if valid[q]:
                problems.append(f"normal of point {q}: {k} neighbours but valid")
            continue
        centred = pts - pts.mean(axis=0)
        _u, s, vt = np.linalg.svd(centred, full_matrices=False)
        lam = np.sort(s ** 2 / k)              # ascending
        total = float(lam.sum())
        ratio = lam[1] / lam[2] if lam[2] > 0 else 0.0
        if abs(ratio - DEGENERATE_EIG_RATIO) <= 1e-3 * DEGENERATE_EIG_RATIO:
            continue
        want_valid = total > 0.0 and ratio > DEGENERATE_EIG_RATIO
        if bool(valid[q]) != want_valid:
            problems.append(f"normal of point {q}: valid={bool(valid[q])}, "
                            f"PCA says {want_valid}")
            continue
        if not want_valid:
            if np.any(normals[q] != 0.0):
                problems.append(f"normal of point {q}: invalid but non-zero")
            continue
        n = vt[-1]
        gap = (lam[1] - lam[0]) / lam[2]
        tol = 1e-8 + 1e-12 / max(gap, 1e-300)
        if tol >= 1.0:
            continue
        # atan2 of |cross| and |dot| keeps full precision near 0 (acos does not)
        angle = math.atan2(float(np.linalg.norm(np.cross(n, normals[q]))),
                           abs(float(n @ normals[q])))
        if angle > tol:
            problems.append(f"normal of point {q}: {angle:.3g} rad from PCA "
                            f"(tolerance {tol:.3g})")
            continue
        toward = float(normals[q] @ (viewpoint - xyz[q]))
        scale = float(np.linalg.norm(viewpoint - xyz[q]))
        if toward < -tol * scale:
            problems.append(f"normal of point {q} faces away from the viewpoint")
    return problems


def read_model_doc(path):
    """The arrays of a model file, parsed here rather than by the program."""
    with open(path, encoding="ascii") as fh:
        doc = json.load(fh)
    sv = np.asarray(doc["support_vectors"], dtype=np.float64)
    mean = np.asarray(doc["scaling"]["mean"], dtype=np.float64)
    return {"kernel": doc["kernel"], "gamma": doc["gamma"], "c": doc["c"],
            "mean": mean, "std": np.asarray(doc["scaling"]["std"]),
            "sv": sv.reshape(-1, mean.size),
            "coef": np.asarray(doc["dual_coefs"], dtype=np.float64),
            "bias": float(doc["bias"]), "meta": doc.get("meta", {})}


def model_doc(model):
    """The same arrays, taken from an in-memory model."""
    return {"kernel": model.kernel.kind, "gamma": model.kernel.gamma,
            "c": model.c, "mean": model.scaling.mean,
            "std": model.scaling.std, "sv": model.support_vectors,
            "coef": model.dual_coefs, "bias": model.bias, "meta": model.meta}


def _scale(doc, rows):
    rows = np.asarray(rows, dtype=np.float64)
    std = doc["std"]
    out = (rows - doc["mean"]) / np.where(std == 0.0, 1.0, std)
    out[:, std == 0.0] = 0.0
    return out


def expansion(doc, row):
    """sum_s coef_s K(sv_s, x) + bias for one raw feature row, in plain floats."""
    x = _scale(doc, np.asarray(row, dtype=np.float64)[None, :])[0].tolist()
    terms = []
    for sv, coef in zip(doc["sv"].tolist(), doc["coef"].tolist()):
        if doc["kernel"] == "linear":
            k = math.fsum(a * b for a, b in zip(sv, x))
        else:
            k = math.exp(-doc["gamma"] * math.fsum((a - b) ** 2
                                                   for a, b in zip(sv, x)))
        terms.append(coef * k)
    return math.fsum(terms) + doc["bias"]


def score_problems(doc, rows, scores, sample):
    """Sampled scores against the kernel expansion recomputed here."""
    problems = []
    scale = 1.0 + float(np.abs(doc["coef"]).sum()) + abs(doc["bias"])
    for q in sample:
        want = expansion(doc, rows[q])
        if abs(float(scores[q]) - want) > 1e-10 * scale:
            problems.append(f"score of row {q}: {float(scores[q])!r}, "
                            f"kernel expansion gives {want!r}")
    return problems


def label_problems(scores, labels):
    """Predicted labels must be exactly ``score > 0``."""
    want = (np.asarray(scores) > 0.0).astype(np.int64)
    bad = np.flatnonzero(np.asarray(labels, dtype=np.int64) != want)
    return [f"{bad.size} labels differ from score > 0 (first at row {bad[0]})"] \
        if bad.size else []


def worker_problems(scores_one, scores_many, workers):
    """Scores from 1 and from ``workers`` workers must be bit-identical."""
    a, b = np.asarray(scores_one), np.asarray(scores_many)
    if a.shape != b.shape or not np.array_equal(a, b):
        return [f"scores from 1 and {workers} workers differ"]
    return []


def _kernel_rows(doc, xs):
    sv = doc["sv"]
    if doc["kernel"] == "linear":
        return xs @ sv.T
    d2 = (xs * xs).sum(axis=1)[:, None] + (sv * sv).sum(axis=1)[None, :] \
        - 2.0 * (xs @ sv.T)
    return np.exp(-doc["gamma"] * np.maximum(d2, 0.0))


def dual_problems(doc, train=None, block=1024):
    """SMO duals: alpha in [0, C], sum(alpha y) = 0; KKT when converged.

    ``train`` is the (rows, labels) matrix the model was trained on.  Each
    support vector is matched, in order, to the training row it came from;
    every other row has alpha = 0.  KKT margins are then held to the
    model's own stopping tolerance.
    """
    problems = []
    coef, c = doc["coef"], float(doc["c"])
    alpha = np.abs(coef)
    size = 1.0 + float(alpha.sum())
    if np.any(alpha <= 0.0) or np.any(alpha > c * (1.0 + 1e-12)):
        problems.append(f"dual coefficients outside (0, C={c}]")
    if abs(math.fsum(coef.tolist())) > 1e-9 * size:
        problems.append(f"sum(alpha y) = {math.fsum(coef.tolist())!r}, not 0")
    if train is None or not doc["meta"].get("converged", False):
        return problems
    rows, labels = train
    xs = _scale(doc, rows)
    y = np.where(np.asarray(labels) == 1, 1.0, -1.0)
    full_alpha = np.zeros(len(xs))
    sv_bytes = [sv.tobytes() for sv in doc["sv"]]
    pos = 0
    for i in range(len(xs)):
        if pos < len(sv_bytes) and xs[i].tobytes() == sv_bytes[pos]:
            if np.sign(coef[pos]) != y[i]:
                problems.append(f"support vector {pos} has the sign of the "
                                f"other class")
            full_alpha[i] = alpha[pos]
            pos += 1
    if pos != len(sv_bytes):
        return problems + [f"{len(sv_bytes) - pos} support vectors match no "
                           f"training row"]
    f = np.concatenate([_kernel_rows(doc, xs[s:s + block]) @ coef
                        for s in range(0, len(xs), block)]) + doc["bias"]
    margin = y * f
    tol = float(doc["meta"].get("tolerance", 1e-3)) + 1e-6
    at_zero = full_alpha == 0.0
    at_c = full_alpha >= c * (1.0 - 1e-12)
    free = ~at_zero & ~at_c
    worst = max(float(np.max(1.0 - margin[at_zero], initial=-np.inf)),
                float(np.max(margin[at_c] - 1.0, initial=-np.inf)),
                float(np.max(np.abs(margin[free] - 1.0), initial=-np.inf)))
    if worst > tol:
        problems.append(f"KKT violated by {worst:.3g} (tolerance {tol:.3g})")
    return problems


def reference_curve(scores, labels):
    """Precision-recall curve from its definition.

    Returns (recall, precision), one point per distinct threshold after a
    zero-recall anchor at the precision of the top-scoring tie group, as
    the program documents.
    """
    pairs = sorted(zip(np.asarray(scores).tolist(),
                       (np.asarray(labels) == 1).tolist()),
                   key=lambda t: -t[0])
    total_pos = sum(1 for _s, p in pairs if p)
    recall, precision = [], []
    tp = seen = 0
    for idx, (score, positive) in enumerate(pairs):
        tp += positive
        seen += 1
        if idx + 1 == len(pairs) or pairs[idx + 1][0] != score:
            recall.append(tp / total_pos)
            precision.append(tp / seen)
    return [0.0] + recall, [precision[0]] + precision


def reference_auc(recall, precision):
    return math.fsum((recall[k + 1] - recall[k])
                     * (precision[k + 1] + precision[k]) / 2.0
                     for k in range(len(recall) - 1))


def curve_problems(recall, precision, reported_auc, scores, labels,
                   tag="curve"):
    """A precision-recall curve and its AUC against those rebuilt here.

    The curve is rebuilt from the scores and labels.  Also checked are the
    properties every such curve has: recall starts at 0, never falls and
    ends at 1, where precision is P / (P + N).
    """
    problems = []
    recall = np.asarray(recall, dtype=np.float64)
    precision = np.asarray(precision, dtype=np.float64)
    labels = np.asarray(labels)
    p = int((labels == 1).sum())
    if recall[0] != 0.0 or np.any(np.diff(recall) < 0.0) or recall[-1] != 1.0:
        problems.append(f"{tag}: recall does not rise from 0 to 1")
    if precision[-1] != p / len(labels):
        problems.append(f"{tag}: final precision {precision[-1]!r} is not "
                        f"P/(P+N) = {p / len(labels)!r}")
    want_r, want_p = reference_curve(scores, labels)
    if len(want_r) != len(recall) \
            or np.max(np.abs(recall - want_r)) > 1e-12 \
            or np.max(np.abs(precision - want_p)) > 1e-12:
        problems.append(f"{tag}: {len(recall)} points differ from the "
                        f"{len(want_r)} rebuilt from scores and labels")
    want_auc = reference_auc(want_r, want_p)
    if abs(reported_auc - want_auc) > 1e-12:
        problems.append(f"{tag}: AUC {reported_auc!r}, rebuilt {want_auc!r}")
    return problems
