"""Soft-margin SVM: SMO training, serialization, parallel prediction.

Class convention throughout: pepper (label 0) is the negative class, peduncle
(label 1) the positive class.  A decision score > 0 predicts peduncle.
Features are z-score standardized inside the trainer and the statistics
travel with the model, so callers always pass raw feature rows.
"""

from __future__ import annotations

import json
import logging
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .cloud_io import read_text, replaced
from .features import FEATURE_SLICES, FeatureMatrix

log = logging.getLogger(__name__)

KERNEL_KINDS = ("linear", "rbf")
FEATURE_SETS = tuple(FEATURE_SLICES)
MODEL_SCHEMA_VERSION = 1

# dual coefficients at most this far from zero are pruned from the model
SV_EPS = 1e-12
# byte budget of the SMO kernel-row cache
_ROW_CACHE_BYTES = 256 * 2**20
# byte budget of the kernel values of one block of scored rows
_SCORE_BLOCK_BYTES = 256 * 2**10
# kernel point sets get zero rows up to a multiple of this, so OpenBLAS runs
# every entry of P @ x through the same gemv code, whatever its thread count
_ROW_PAD = 8


class TrainingError(RuntimeError):
    """Training input or optimisation state is unusable."""


class ModelFormatError(ValueError):
    """A model file does not match the expected schema."""


@dataclass(frozen=True)
class KernelSpec:
    kind: str = "rbf"
    gamma: float | None = 0.01

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "rbf":
            if self.gamma is None or not 0 < self.gamma < np.inf:
                raise ValueError("rbf kernel needs gamma > 0 and finite")
        elif self.gamma is not None:
            raise ValueError("linear kernel takes no gamma")


@dataclass(frozen=True)
class TrainConfig:
    kernel: KernelSpec = field(default_factory=KernelSpec)
    c: float = 100.0
    tolerance: float = 1e-3
    max_passes: int = 10
    seed: int = 0
    feature_set: str = "full"

    def __post_init__(self):
        if not 0 < self.c < np.inf:
            raise ValueError("c must be > 0 and finite")
        if not 0 < self.tolerance < np.inf:
            raise ValueError("tolerance must be > 0 and finite")
        if self.max_passes < 1:
            raise ValueError("max_passes must be >= 1")
        if self.feature_set not in FEATURE_SETS:
            raise ValueError(f"unknown feature_set {self.feature_set!r}")


@dataclass
class ScalingStats:
    mean: np.ndarray
    std: np.ndarray   # raw per-column stddev; 0 marks a constant column

    def apply(self, rows):
        rows = np.asarray(rows, dtype=np.float64)
        safe = np.where(self.std == 0.0, 1.0, self.std)
        # one (N, d) array, divided in place: rows - mean is a new array, so
        # the caller's rows, which np.asarray may alias, are never written
        scaled = rows - self.mean
        scaled /= safe
        scaled[:, self.std == 0.0] = 0.0
        return scaled


@dataclass
class SvmModel:
    kernel: KernelSpec
    c: float
    scaling: ScalingStats
    support_vectors: np.ndarray   # (m, d), scaled space
    dual_coefs: np.ndarray        # (m,), alpha_i * y_i
    bias: float
    meta: dict = field(default_factory=dict)

    @property
    def support_count(self):
        return len(self.dual_coefs)


def _kernel_points(x):
    """Rows of x padded with zero rows to a multiple of _ROW_PAD, and the
    squared norms of the padded rows: the point set P of _kernel_row."""
    points = np.pad(x, ((0, -len(x) % _ROW_PAD), (0, 0)))
    return points, np.einsum("ij,ij->i", points, points)


def _kernel_row(points, sq, x, sq_x, kernel, out):
    """K(x, P) into out, one entry per row of P: g = P @ x, then g itself
    (linear) or exp(-gamma * max(sq_P + |x|^2 - 2 g, 0)) (rbf).

    One gemv per row, so an entry's bits depend only on x and its row of P,
    never on other rows scored with x; with x a row of P, K is symmetric.
    """
    np.dot(points, x, out=out)
    return _kernel_from_dots(out, sq, sq_x, kernel)


def _kernel_from_dots(g, sq, sq_x, kernel):
    """Kernel values from dot products g = P @ x, in place: g itself (linear)
    or exp(-gamma * max(sq_P + |x|^2 - 2 g, 0)) (rbf), elementwise, so an
    entry's bits do not depend on the shape of g."""
    if kernel.kind == "rbf":
        # the same operations in the same order as
        # exp(-gamma * max(sq + sq_x - 2 g, 0)), with one scratch array
        g *= 2.0
        np.subtract(sq + sq_x, g, out=g)
        np.maximum(g, 0.0, out=g)
        g *= -kernel.gamma
        np.exp(g, out=g)
    return g


def _row_alphas(totals, var_of_row, counts, c):
    """Per-row alphas from the distinct variables' totals: row r, the p-th
    copy of variable var_of_row[r] in row order (0-based), gets
    clip(totals[v] - p C, 0, C), so copies fill to C one after another.
    counts[v] is the number of rows of variable v."""
    by_var = np.argsort(var_of_row, kind="stable")
    nth = np.empty(len(var_of_row))
    nth[by_var] = np.arange(len(var_of_row)) \
        - np.repeat(np.cumsum(counts) - counts, counts)
    return np.clip(totals[var_of_row] - nth * c, 0.0, c)


def train_svm(features: FeatureMatrix, config: TrainConfig) -> SvmModel:
    """Train a binary SVM with sequential minimal optimisation.

    Solves min 1/2 a'Qa - e'a s.t. 0 <= a <= C, y'a = 0, Q = diag(y) K
    diag(y), using maximal-violating-pair working sets; stops when the
    duality-gap proxy m(a) - M(a) drops to config.tolerance or after
    max_passes * n iterations, n the training rows, logging a warning in
    the latter case.

    k training rows with the same scaled values and label have the same
    row of Q, so the solver runs over the distinct (row, label) pairs, in
    order of first occurrence: each is one variable A_u with box
    [0, k_u C] (per-instance C, Chang & Lin, LIBSVM, 2011), clipped by
    LIBSVM's per-variable rules; meta["distinct_rows"] counts them.  With
    every k_u = 1 those rules do the same operations in the same order as
    scalar-C clipping.  Afterwards the p-th copy of a row (0-based, in row
    order) gets alpha = clip(A_u - p C, 0, C), so earlier copies fill
    first and every per-row alpha lies in [0, C].  The bias comes from the
    free variables, 0 < A_u < k_u C; the support vectors, their dual
    coefficients and the objective from the per-row alphas.  Duplicate
    support vectors stay separate: a summed coefficient can exceed C.

    The trainer reads rows of K, not Q.  Row t is computed by _kernel_row on
    first use into a slot of one lazily touched (slots, u) float64 array,
    slots = min(u, max(2, _ROW_CACHE_BYTES // 8u)), u the variables, so
    memory stays O(_ROW_CACHE_BYTES + n d) at any n; K[t, t] is recorded
    then.  A list maps each variable to a view of its cached row, or None,
    so a hit is one list index.  Every fetch stamps its variable with a
    count unique to it and increasing, and a miss with every slot taken
    evicts the slot whose variable holds the lowest stamp, found with one
    argmin: an exact LRU cache.  meta["kernel_rows"] counts the rows
    computed, recomputations after eviction included.  Instead of g it
    keeps -y * g in two masked buffers: up_vals holds it on I_up and -inf
    elsewhere, low_vals on I_low and +inf elsewhere, so the working pair is
    argmax(up_vals), argmin(low_vals).  Each iteration adds K[i] (-y_i
    da_i) + K[j] (-y_j da_j) to both buffers in place (the infinities
    stay).  An entry of a set the variable stays in then holds its new
    value, so re-masking writes only where i or j changes sets: an
    infinity where it leaves one, and its new value, copied from the other
    buffer, where it enters one.  Multiplying by +-1 is exact, so every
    value equals the one a loop over Q and g computes.  The loop's scalars
    (alpha, y, the caps, m_up, m_low and the pair's kernel entries) are
    Python floats: the same IEEE double arithmetic as numpy scalars, at
    less cost per operation.
    """
    x = np.asarray(features.values, dtype=np.float64)
    labels = np.asarray(features.labels)
    if x.ndim != 2 or len(x) == 0:
        raise TrainingError("need a non-empty 2-d feature matrix")
    width = _set_width(config.feature_set)
    if x.shape[1] != width:
        raise TrainingError(f"feature set {config.feature_set!r} has {width} "
                            f"columns, but the matrix has {x.shape[1]}")
    if not np.all(np.isfinite(x)):
        raise TrainingError("feature matrix contains non-finite values")
    if np.any(labels < 0):
        raise TrainingError("all training rows must be labelled")
    if not np.all(features.valid):
        raise TrainingError("all training rows must have valid descriptors")
    n = len(x)
    y = np.where(labels == 1, 1.0, -1.0)
    npos = int((y > 0).sum())
    if npos == 0 or npos == n:
        raise TrainingError(
            "training data holds a single class; need both pepper and peduncle rows")
    scaling = ScalingStats(x.mean(axis=0), x.std(axis=0))
    xs = scaling.apply(x)

    c = float(config.c)
    tol = float(config.tolerance)
    # the SMO variables: one per distinct (scaled row, label) byte string,
    # in order of first occurrence; var_of_row[r] is row r's variable
    key = np.ascontiguousarray(np.column_stack([xs, y]))
    uniq, first, inverse, counts = np.unique(
        key.view(np.dtype((np.void, key.shape[1] * 8))).ravel(),
        return_index=True, return_inverse=True, return_counts=True)
    del key, uniq
    order = np.argsort(first)
    first, counts = first[order], counts[order]
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    var_of_row = rank[inverse]
    del order, rank, inverse   # freed before the row cache is allocated
    u = len(first)
    yv = y[first]
    cap = c * counts
    bound = cap.tolist()   # Python floats for the loop's scalar arithmetic
    points, sq = _kernel_points(xs[first])
    slots = min(u, max(2, _ROW_CACHE_BYTES // (8 * len(points))))
    # one block: rows allocated one by one stay in the heap (sweep +14 MB RSS)
    cache = np.empty((slots, len(points)))
    rows = [None] * u     # variable -> its row of K, a view into cache, or None
    diag = [0.0] * u      # variable t -> K[t, t], read when row t is computed
    # an array: an eviction takes one argmin; scanning a list of stamps made
    # a training with a small cache slower than the OrderedDict did
    used = np.zeros(u, dtype=np.int64)   # variable -> stamp of its last fetch
    owner = np.empty(slots, dtype=np.intp)   # slot -> the variable it holds
    kernel_rows = 0

    def compute_row(t):
        """Row t into the next free slot, or else into the least recently
        used one: the slot whose variable has the lowest stamp."""
        nonlocal kernel_rows
        if kernel_rows < slots:   # no eviction before every slot is taken
            slot = kernel_rows
        else:
            slot = int(used[owner].argmin())
            rows[owner[slot]] = None
        owner[slot] = t
        row = rows[t] = _kernel_row(points, sq, points[t], sq[t],
                                    config.kernel, cache[slot])[:u]
        diag[t] = row.item(t)
        kernel_rows += 1
        return row

    alpha = [0.0] * u
    yl = yv.tolist()
    # -y * g at alpha = 0 (g = -1), masked to I_up / I_low; every variable
    # is in at least one of the two sets, so each value lives in some buffer
    up_vals = np.where(yv > 0, yv, -np.inf)
    low_vals = np.where(yv < 0, yv, np.inf)
    # bound methods: np.argmax(a) costs several times a.argmax() at this size
    argmax, argmin = up_vals.argmax, low_vals.argmin
    step = np.empty(u)
    step_j = np.empty(u)
    # 0-d arrays for the step's scale factors: numpy takes them as they are,
    # where it converts a Python float on every call
    scale_i, scale_j = np.empty(()), np.empty(())
    max_iter = config.max_passes * n
    converged = False
    it = 0
    tau = 1e-12
    while it < max_iter:
        # maximal violating pair, first index winning ties; an empty up (low)
        # set gives m_up = -inf (m_low = inf): converged
        i = int(argmax())
        j = int(argmin())
        m_up, m_low = up_vals.item(i), low_vals.item(j)
        if m_up - m_low <= tol:
            converged = True
            break

        yi, yj = yl[i], yl[j]
        gi, gj = -yi * m_up, -yj * m_low
        # i and j get the two stamps of this iteration, i's first, so
        # fetching row j never evicts row i (slots >= 2)
        ki = rows[i]
        if ki is None:
            ki = compute_row(i)
        used[i] = 2 * it
        kj = rows[j]
        if kj is None:
            kj = compute_row(j)
        used[j] = 2 * it + 1
        quad = diag[i] + diag[j] - 2.0 * ki.item(j)
        if quad <= 0.0:
            quad = tau
        ai_old, aj_old = alpha[i], alpha[j]
        ci, cj = bound[i], bound[j]
        if yi != yj:
            delta = (-gi - gj) / quad
            diff = ai_old - aj_old
            ai, aj = ai_old + delta, aj_old + delta
            if diff > 0:
                if aj < 0:
                    aj, ai = 0.0, diff
            elif ai < 0:
                ai, aj = 0.0, -diff
            if diff > ci - cj:
                if ai > ci:
                    ai, aj = ci, ci - diff
            elif aj > cj:
                aj, ai = cj, cj + diff
        else:
            delta = (gi - gj) / quad
            total = ai_old + aj_old
            ai, aj = ai_old - delta, aj_old + delta
            if total > ci:
                if ai > ci:
                    ai, aj = ci, total - ci
            elif aj < 0:
                aj, ai = 0.0, total
            if total > cj:
                if aj > cj:
                    aj, ai = cj, total - cj
            elif ai < 0:
                ai, aj = 0.0, total
        alpha[i], alpha[j] = ai, aj
        scale_i[()] = -yi * (ai - ai_old)
        scale_j[()] = -yj * (aj - aj_old)
        np.multiply(ki, scale_i, step)
        np.multiply(kj, scale_j, step_j)
        step += step_j
        up_vals += step
        low_vals += step
        # i was in I_up and j in I_low, so up_vals[i] and low_vals[j] now
        # hold their new -y * g.  An entry of a set the variable stays in
        # holds it too, and one of a set it stays out of holds an infinity;
        # only a variable that leaves or enters a set needs a write
        if yi > 0:
            up_now, low_was, low_now = ai < ci, ai_old > 0, ai > 0
        else:
            up_now, low_was, low_now = ai > 0, ai_old < ci, ai < ci
        if low_now != low_was:
            low_vals[i] = up_vals.item(i) if low_now else np.inf
        if not up_now:
            up_vals[i] = -np.inf
        if yj > 0:
            low_now, up_was, up_now = aj > 0, aj_old < cj, aj < cj
        else:
            low_now, up_was, up_now = aj < cj, aj_old > 0, aj > 0
        if up_now != up_was:
            up_vals[j] = low_vals.item(j) if up_now else -np.inf
        if not low_now:
            low_vals[j] = np.inf
        it += 1
    if not converged:
        log.warning("SMO stopped at max_passes=%d after %d iterations "
                    "(%d kernel rows computed) on %d rows (%d distinct) "
                    "without reaching tolerance %g", config.max_passes, it,
                    kernel_rows, n, u, tol)

    alpha = np.array(alpha)
    up = up_vals > -np.inf
    low = low_vals < np.inf
    grad = -yv * np.where(up, up_vals, low_vals)   # gradient of the dual
    # bias from the KKT conditions: average y_u - sum_v A_v y_v K_uv over
    # free variables, else the midpoint of the feasible interval
    ky = yv * (grad + 1.0)       # sum_v A_v y_v K_uv
    free = (alpha > SV_EPS) & (alpha < cap - SV_EPS)
    if free.any():
        bias = float(np.mean(yv[free] - ky[free]))
    else:
        hi = up_vals.max() if up.any() else low_vals.min()
        lo = low_vals.min() if low.any() else up_vals.max()
        bias = float((hi + lo) / 2.0)

    alpha = _row_alphas(alpha, var_of_row, counts, c)
    objective = float(0.5 * (alpha.sum() - alpha @ grad[var_of_row]))
    sv = np.flatnonzero(alpha > SV_EPS)
    return SvmModel(
        kernel=config.kernel,
        c=c,
        scaling=scaling,
        support_vectors=np.ascontiguousarray(xs[sv]),
        dual_coefs=np.ascontiguousarray(alpha[sv] * y[sv]),
        bias=bias,
        meta={
            "feature_set": config.feature_set,
            "tolerance": tol,
            "max_passes": config.max_passes,
            "seed": config.seed,
            "iterations": it,
            "kernel_rows": kernel_rows,
            "converged": bool(converged),
            "dual_objective": objective,
            "support_count": int(sv.size),
            "train_rows": n,
            "distinct_rows": u,
            "positive_rows": npos,
        },
    )


def decision_scores(model: SvmModel, features) -> np.ndarray:
    """Raw signed scores for feature rows (FeatureMatrix or (N, d) array)."""
    rows = features.values if isinstance(features, FeatureMatrix) else features
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != model.support_vectors.shape[1]:
        raise ValueError(
            f"feature rows have dimension {rows.shape[-1] if rows.ndim else '?'}, "
            f"model expects {model.support_vectors.shape[1]}")
    xs = np.ascontiguousarray(model.scaling.apply(rows))
    sq_x = np.einsum("ij,ij->i", xs, xs)
    points, sq = _kernel_points(model.support_vectors)
    m = model.support_count
    coefs = model.dual_coefs[:, None]
    block = max(1, _SCORE_BLOCK_BYTES // (8 * max(1, len(points))))
    scores = np.empty(len(xs))
    # Each row still gets its own gemv P @ x and its own dot with the
    # coefficients, as _kernel_row and np.dot give it: stacked matmuls run
    # them in C over a block of rows, so a row's score cannot depend on the
    # other rows of its block or on how callers chunk rows.
    for lo in range(0, len(xs), block):
        hi = lo + block
        g = np.matmul(points[None], xs[lo:hi, :, None])[:, :, 0]
        k = _kernel_from_dots(g, sq, sq_x[lo:hi, None], model.kernel)
        scores[lo:hi] = np.matmul(k[:, None, :m], coefs)[:, 0, 0] + model.bias
    return scores


def predict_parallel(model: SvmModel, features, workers: int = 1):
    """Score rows across a thread pool; output is identical for any worker count.

    Rows are split into contiguous chunks with np.array_split, and each
    row's score is its own gemv and dot, run in C over a block of rows by
    decision_scores, so the reassembled scores are bit-identical whether
    workers is 1 or 8.  Returns (labels, scores, elapsed_seconds); labels
    are 0 (pepper) / 1 (peduncle), score > 0 means peduncle.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    rows = features.values if isinstance(features, FeatureMatrix) else features
    rows = np.asarray(rows, dtype=np.float64)
    start = time.perf_counter()
    # in this thread, not a pool: a pool thread's malloc arena raises peak RSS
    if workers == 1 or len(rows) < 2:
        scores = decision_scores(model, rows)
    else:
        chunks = np.array_split(rows, min(workers, len(rows)))
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(lambda ch: decision_scores(model, ch), chunks))
        scores = np.concatenate(parts)
    elapsed = time.perf_counter() - start
    pred = np.where(scores > 0.0, 1, 0).astype(np.int8)
    return pred, scores, elapsed


def save_model(model: SvmModel, path):
    """Write the model as JSON; floats round-trip exactly via repr.  A model
    that load_model would refuse raises ModelFormatError before anything is
    written."""
    doc = {
        "schema_version": MODEL_SCHEMA_VERSION,
        "kernel": model.kernel.kind,
        "gamma": model.kernel.gamma,
        "c": model.c,
        "scaling": {
            "mean": model.scaling.mean.tolist(),
            "std": model.scaling.std.tolist(),
        },
        "support_vectors": model.support_vectors.tolist(),
        "dual_coefs": model.dual_coefs.tolist(),
        "bias": model.bias,
        "meta": model.meta,
    }
    _model_from_doc(doc)
    with replaced(path) as fh:   # json escapes every non-ASCII character
        fh.write(json.dumps(doc, indent=1) + "\n")


def _require(doc, key, types):
    if key not in doc:
        raise ModelFormatError(f"model file is missing field {key!r}")
    value = doc[key]
    if not isinstance(value, types):
        raise ModelFormatError(f"model field {key!r} has the wrong type")
    return value


def _floats(doc, key, ndim):
    """Field ``key`` of ``doc``, a number (``ndim`` 0) or a list of numbers
    (1) or of equal-length rows of numbers (2), as finite float64s."""
    value = _require(doc, key, list if ndim else (int, float))
    try:
        arr = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        arr = None
    # an empty list of rows reads as 1-d
    if arr is None or (arr.ndim != ndim and (ndim < 2 or arr.size)):
        shape = ("a number", "a list of numbers",
                 "a list of equal-length rows of numbers")[ndim]
        raise ModelFormatError(f"model field {key!r} must be {shape}")
    if not np.isfinite(arr).all():
        raise ModelFormatError(f"model field {key!r} holds a non-finite number")
    return arr


def load_model(path) -> SvmModel:
    """Read a model written by save_model, validating the schema and, with
    check_feature_set, the feature set named by its meta."""
    try:
        doc = json.loads(read_text(path, ModelFormatError, "ascii"))
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"model file is not valid JSON: {exc}") from exc
    return _model_from_doc(doc)


def _model_from_doc(doc) -> SvmModel:
    """The model a parsed model document describes, once every field and the
    feature set named by its meta pass their checks."""
    if not isinstance(doc, dict):
        raise ModelFormatError("model file must hold a JSON object")
    version = _require(doc, "schema_version", int)
    if version != MODEL_SCHEMA_VERSION:
        raise ModelFormatError(f"unsupported model schema version {version}")
    kind = _require(doc, "kernel", str)
    gamma = None if doc.get("gamma") is None else float(_floats(doc, "gamma", 0))
    try:
        kernel = KernelSpec(kind, gamma)
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from exc
    c = float(_floats(doc, "c", 0))
    if c <= 0:
        raise ModelFormatError("model field 'c' must be > 0")
    scaling_doc = _require(doc, "scaling", dict)
    mean = _floats(scaling_doc, "mean", 1)
    std = _floats(scaling_doc, "std", 1)
    if (std < 0).any():
        raise ModelFormatError("model field 'std' holds a negative number")
    sv = _floats(doc, "support_vectors", 2)
    coef = _floats(doc, "dual_coefs", 1)
    bias = float(_floats(doc, "bias", 0))
    meta = _require(doc, "meta", dict) if "meta" in doc else {}
    try:   # standard JSON holds no NaN or Infinity
        json.dumps(meta, allow_nan=False)
    except ValueError:
        raise ModelFormatError(
            "model field 'meta' holds a non-finite number") from None
    if sv.size == 0:
        sv = sv.reshape(0, mean.size)
    if len(sv) != len(coef):
        raise ModelFormatError("support_vectors and dual_coefs disagree on count")
    if mean.shape != std.shape or (sv.size and sv.shape[1] != mean.size):
        raise ModelFormatError("scaling statistics do not match the vectors")
    model = SvmModel(kernel, c, ScalingStats(mean, std), sv, coef, bias, meta)
    check_feature_set(model)
    return model


def _set_width(subset):
    """Columns of the rows of the named feature set."""
    return FEATURE_SLICES[subset].stop - FEATURE_SLICES[subset].start


def check_feature_set(model: SvmModel):
    """Raise ModelFormatError unless the feature set named by the model's
    meta is known and as wide as its vectors."""
    subset = model.meta.get("feature_set", "full")
    if subset not in FEATURE_SETS:
        raise ModelFormatError(f"model meta names unknown feature set {subset!r}")
    width = _set_width(subset)
    columns = model.scaling.mean.size
    if width != columns:
        raise ModelFormatError(f"model meta names feature set {subset!r} of "
                               f"{width} columns, but its vectors have {columns}")
