"""Soft-margin SVM: SMO training, serialization, parallel prediction.

Class convention throughout: pepper (label 0) is the negative class, peduncle
(label 1) the positive class.  A decision score > 0 predicts peduncle.
Features are z-score standardized inside the trainer and the statistics
travel with the model, so callers always pass raw feature rows.
"""

from __future__ import annotations

import json
import logging
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .features import FeatureMatrix

log = logging.getLogger(__name__)

KERNEL_KINDS = ("linear", "rbf")
FEATURE_SETS = ("full", "hsv", "pfh")
MODEL_SCHEMA_VERSION = 1

# dual coefficients at most this far from zero are pruned from the model
SV_EPS = 1e-12
# rows per block when _gram fills and mirrors the kernel matrix
_GRAM_BLOCK = 256


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
            if self.gamma is None or self.gamma <= 0:
                raise ValueError("rbf kernel needs gamma > 0")
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
        if self.c <= 0:
            raise ValueError("c must be > 0")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be > 0")
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
        scaled = (rows - self.mean) / safe
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


def _gram(x, kernel):
    """Kernel matrix of the rows of x, one n x n array, exactly symmetric.

    Row block by row block, the upper triangle (diagonal included) is turned
    into kernel values and mirrored onto the lower triangle, so K[i, j] and
    K[j, i] are the same number whatever the BLAS returns for x @ x.T.  RBF
    distances keep the operation order (|x_i|^2 + |x_j|^2) - 2 x_i.x_j.
    Beyond the matrix, temporaries stay O(_GRAM_BLOCK * n).
    """
    k = x @ x.T
    n = len(k)
    sq = np.einsum("ij,ij->i", x, x) if kernel.kind == "rbf" else None
    for a in range(0, n, _GRAM_BLOCK):
        b = min(a + _GRAM_BLOCK, n)
        if sq is not None:
            d2 = np.maximum(sq[a:b, None] + sq[None, a:] - 2.0 * k[a:b, a:],
                            0.0)
            k[a:b, a:] = np.exp(-kernel.gamma * d2)
        diag = k[a:b, a:b]
        lower = np.tril_indices(b - a, -1)
        diag[lower] = diag.T[lower]
        k[b:, a:b] = k[a:b, b:].T
    return k


def _physical_memory_bytes():
    """Bytes of physical memory on this machine."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def train_svm(features: FeatureMatrix, config: TrainConfig) -> SvmModel:
    """Train a binary SVM with sequential minimal optimisation.

    Solves min 1/2 a'Qa - e'a s.t. 0 <= a <= C, y'a = 0, Q = diag(y) K
    diag(y), using maximal-violating-pair working sets; stops when the
    duality-gap proxy m(a) - M(a) drops to config.tolerance or after
    max_passes * n iterations, logging a warning in the latter case.

    The trainer holds K, not Q: one exactly symmetric n x n float64 matrix,
    8 n^2 bytes (128 MB at the default max_train_rows of 4000), read by rows.
    A row count whose matrix would exceed physical memory is refused with
    TrainingError, so cap the row count upstream for large pools.  Instead
    of the gradient g it keeps -y * g in two masked buffers: up_vals holds
    it on I_up and -inf elsewhere, low_vals on I_low and +inf elsewhere, so
    the working pair is argmax(up_vals), argmin(low_vals).  Each iteration
    adds K[i] (-y_i da_i) + K[j] (-y_j da_j) to both buffers in place (the
    infinities stay) and re-masks only entries i and j.  Multiplying by +-1
    is exact, so every value equals the one a loop over Q and g computes.
    """
    x = np.asarray(features.values, dtype=np.float64)
    labels = np.asarray(features.labels)
    if x.ndim != 2 or len(x) == 0:
        raise TrainingError("need a non-empty 2-d feature matrix")
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
    matrix_bytes = 8 * n * n
    memory = _physical_memory_bytes()
    if matrix_bytes > memory:
        raise TrainingError(
            f"SMO on {n} rows needs an n x n float64 kernel matrix of "
            f"{matrix_bytes} bytes, more than the {memory} bytes of physical "
            f"memory; lower max_train_rows")

    scaling = ScalingStats(x.mean(axis=0), x.std(axis=0))
    xs = scaling.apply(x)

    c = float(config.c)
    tol = float(config.tolerance)
    k = _gram(xs, config.kernel)

    alpha = np.zeros(n)
    # -y * g at alpha = 0 (g = -1), masked to I_up / I_low; every row is in
    # at least one of the two sets, so each value lives in some buffer
    up_vals = np.where(y > 0, y, -np.inf)
    low_vals = np.where(y < 0, y, np.inf)
    step = np.empty(n)
    step_j = np.empty(n)
    max_iter = config.max_passes * n
    converged = False
    it = 0
    tau = 1e-12
    while it < max_iter:
        # maximal violating pair, first index winning ties; an empty up (low)
        # set gives m_up = -inf (m_low = inf): converged
        i = int(np.argmax(up_vals))
        j = int(np.argmin(low_vals))
        m_up, m_low = up_vals[i], low_vals[j]
        if m_up - m_low <= tol:
            converged = True
            break

        yi, yj = y[i], y[j]
        gi, gj = -yi * m_up, -yj * m_low
        quad = k[i, i] + k[j, j] - 2.0 * k[i, j]
        if quad <= 0.0:
            quad = tau
        ai_old, aj_old = alpha[i], alpha[j]
        if yi != yj:
            delta = (-gi - gj) / quad
            diff = ai_old - aj_old
            ai, aj = ai_old + delta, aj_old + delta
            if diff > 0:
                if aj < 0:
                    aj = 0.0
                    ai = diff
            else:
                if ai < 0:
                    ai = 0.0
                    aj = -diff
            if diff > 0:
                if ai > c:
                    ai = c
                    aj = c - diff
            else:
                if aj > c:
                    aj = c
                    ai = c + diff
        else:
            delta = (gi - gj) / quad
            total = ai_old + aj_old
            ai, aj = ai_old - delta, aj_old + delta
            if total > c:
                if ai > c:
                    ai = c
                    aj = total - c
            else:
                if aj < 0:
                    aj = 0.0
                    ai = total
            if total > c:
                if aj > c:
                    aj = c
                    ai = total - c
            else:
                if ai < 0:
                    ai = 0.0
                    aj = total
        alpha[i], alpha[j] = ai, aj
        np.multiply(k[i], -yi * (ai - ai_old), out=step)
        np.multiply(k[j], -yj * (aj - aj_old), out=step_j)
        step += step_j
        up_vals += step
        low_vals += step
        # i was in I_up and j in I_low, so those buffers hold their values;
        # each re-enters the sets its new alpha puts it in
        for t, a, v in ((i, ai, up_vals[i]), (j, aj, low_vals[j])):
            in_up, in_low = (a < c, a > 0) if y[t] > 0 else (a > 0, a < c)
            up_vals[t] = v if in_up else -np.inf
            low_vals[t] = v if in_low else np.inf
        it += 1
    if not converged:
        log.warning("SMO stopped at max_passes=%d after %d iterations on %d "
                    "rows without reaching tolerance %g",
                    config.max_passes, it, n, tol)

    up = up_vals > -np.inf
    low = low_vals < np.inf
    grad = -y * np.where(up, up_vals, low_vals)   # gradient of the dual
    # bias from the KKT conditions: average y_i - sum_j a_j y_j K_ij over
    # free support vectors, else the midpoint of the feasible interval
    ky = y * (grad + 1.0)       # sum_j alpha_j y_j K_ij
    free = (alpha > SV_EPS) & (alpha < c - SV_EPS)
    if free.any():
        bias = float(np.mean(y[free] - ky[free]))
    else:
        hi = up_vals.max() if up.any() else low_vals.min()
        lo = low_vals.min() if low.any() else up_vals.max()
        bias = float((hi + lo) / 2.0)

    objective = float(0.5 * (alpha.sum() - alpha @ grad))
    sv = np.flatnonzero(alpha > SV_EPS)
    model = SvmModel(
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
            "converged": bool(converged),
            "dual_objective": objective,
            "support_count": int(sv.size),
            "train_rows": n,
            "positive_rows": npos,
        },
    )
    return model


def decision_scores(model: SvmModel, features) -> np.ndarray:
    """Raw signed scores for feature rows (FeatureMatrix or (N, d) array)."""
    rows = features.values if isinstance(features, FeatureMatrix) else features
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != model.support_vectors.shape[1]:
        raise ValueError(
            f"feature rows have dimension {rows.shape[-1] if rows.ndim else '?'}, "
            f"model expects {model.support_vectors.shape[1]}")
    # float64 and C-contiguous, so BLAS sees the same layouts for every caller
    xs = np.ascontiguousarray(model.scaling.apply(rows), dtype=np.float64)
    sv = np.ascontiguousarray(model.support_vectors, dtype=np.float64)
    coef = np.ascontiguousarray(model.dual_coefs, dtype=np.float64)
    bias = float(model.bias)
    linear = model.kernel.kind == "linear"
    gamma = 0.0 if linear else float(model.kernel.gamma)
    scores = np.empty(len(xs))
    # row at a time, so a row's score cannot depend on how callers chunk rows
    for r in range(len(xs)):
        if linear:
            kv = sv @ xs[r]
        else:
            diff = sv - xs[r]
            kv = np.exp(-gamma * (diff * diff).sum(axis=1))
        scores[r] = coef @ kv + bias
    return scores


def predict_parallel(model: SvmModel, features, workers: int = 1):
    """Score rows across a thread pool; output is identical for any worker count.

    Rows are split into contiguous chunks with np.array_split and scored with
    a fixed per-row accumulation order, so the reassembled scores are
    bit-identical whether workers is 1 or 8.  Returns (labels, scores,
    elapsed_seconds); labels are 0 (pepper) / 1 (peduncle), score > 0 means
    peduncle.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    rows = features.values if isinstance(features, FeatureMatrix) else features
    rows = np.asarray(rows, dtype=np.float64)
    start = time.perf_counter()
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
    """Write the model as JSON; floats round-trip exactly via repr."""
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
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="ascii", newline="\n") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    os.replace(tmp, path)


def _require(doc, key, types):
    if key not in doc:
        raise ModelFormatError(f"model file is missing field {key!r}")
    value = doc[key]
    if not isinstance(value, types):
        raise ModelFormatError(f"model field {key!r} has the wrong type")
    return value


def load_model(path) -> SvmModel:
    """Read a model written by save_model, validating the schema."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"model file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ModelFormatError("model file must hold a JSON object")
    version = _require(doc, "schema_version", int)
    if version != MODEL_SCHEMA_VERSION:
        raise ModelFormatError(f"unsupported model schema version {version}")
    kind = _require(doc, "kernel", str)
    gamma = doc.get("gamma")
    if gamma is not None and not isinstance(gamma, (int, float)):
        raise ModelFormatError("model field 'gamma' has the wrong type")
    try:
        kernel = KernelSpec(kind, None if gamma is None else float(gamma))
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from exc
    c = float(_require(doc, "c", (int, float)))
    scaling_doc = _require(doc, "scaling", dict)
    mean = np.asarray(_require(scaling_doc, "mean", list), dtype=np.float64)
    std = np.asarray(_require(scaling_doc, "std", list), dtype=np.float64)
    sv = np.asarray(_require(doc, "support_vectors", list), dtype=np.float64)
    coef = np.asarray(_require(doc, "dual_coefs", list), dtype=np.float64)
    bias = float(_require(doc, "bias", (int, float)))
    meta = doc.get("meta", {})
    if not isinstance(meta, dict):
        raise ModelFormatError("model field 'meta' has the wrong type")
    if meta.get("feature_set", "full") not in FEATURE_SETS:
        raise ModelFormatError(
            f"model meta names unknown feature set {meta['feature_set']!r}")
    if sv.ndim != 2 and sv.size > 0:
        raise ModelFormatError("support_vectors must be a list of rows")
    if sv.size == 0:
        sv = sv.reshape(0, mean.size)
    if len(sv) != len(coef):
        raise ModelFormatError("support_vectors and dual_coefs disagree on count")
    if mean.shape != std.shape or (sv.size and sv.shape[1] != mean.size):
        raise ModelFormatError("scaling statistics do not match the vectors")
    return SvmModel(kernel, c, ScalingStats(mean, std), sv, coef, bias, meta)
