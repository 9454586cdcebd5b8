import ast
import json
import logging
import math
import os
import re
import subprocess
import sys
import tracemalloc
from collections import OrderedDict
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from peduncleseg import (FeatureMatrix, KernelSpec, ModelFormatError,
                         TrainConfig, TrainingError, decision_scores,
                         load_model, predict_parallel, save_model, train_svm)
from peduncleseg import learn
from peduncleseg.features import FEATURE_SLICES
from peduncleseg.learn import (SV_EPS, ScalingStats, SvmModel, _kernel_points,
                               _kernel_row)


def matrix(values, labels):
    values = np.asarray(values, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int8)
    return FeatureMatrix(values, labels, np.ones(len(values), dtype=bool))


def full_width(x):
    """x with zero columns appended up to the 36 of the full feature set,
    which train_svm holds a matrix to: a constant column scales to zero, so
    it adds only zero terms to each kernel value."""
    x = np.asarray(x, dtype=np.float64)
    width = FEATURE_SLICES["full"].stop
    return np.pad(x, ((0, 0), (0, width - x.shape[1])))


def random_problem(rng, n=16, d=4, kernel=None):
    x = full_width(rng.normal(size=(n, d)))
    labels = np.zeros(n, dtype=np.int8)
    labels[rng.permutation(n)[:n // 2]] = 1
    kernel = kernel or KernelSpec("rbf", 0.5)
    config = TrainConfig(kernel=kernel, c=10.0, tolerance=1e-6,
                         max_passes=1000)
    return matrix(x, labels), config


# ---------------------------------------------------------------------------
# independent oracle: projected gradient descent on the dual QP
#   min 1/2 a'Qa - e'a   s.t. 0 <= a <= C, y'a = 0
# with exact projection onto the feasible set by bisection on the shift
# ---------------------------------------------------------------------------

def project_feasible(z, y, c):
    lo = -(np.abs(z).max() + c + 1.0)
    hi = -lo

    def balance(lam):
        return float(y @ np.clip(z - lam * y, 0.0, c))

    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:   # the interval holds no float between
            break
        if balance(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return np.clip(z - 0.5 * (lo + hi) * y, 0.0, c)


def qp_oracle(k_mat, y, c, iters=30000):
    q = (y[:, None] * k_mat) * y[None, :]
    lip = max(float(np.linalg.eigvalsh(q).max()), 1e-12)
    step = 1.0 / lip
    alpha = project_feasible(np.zeros(len(y)), y, c)
    for _ in range(iters):
        grad = q @ alpha - 1.0
        new = project_feasible(alpha - step * grad, y, c)
        if np.abs(new - alpha).max() < 1e-14:
            alpha = new
            break
        alpha = new
    objective = float(alpha.sum() - 0.5 * alpha @ q @ alpha)
    return alpha, objective


def gram(x, kernel):
    """Kernel matrix in one whole-matrix expression; the reference for the
    rows of _kernel_row."""
    if kernel.kind == "linear":
        return x @ x.T
    sq = np.einsum("ij,ij->i", x, x)
    d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * (x @ x.T), 0.0)
    return np.exp(-kernel.gamma * d2)


def stacked_rows(x, kernel):
    """Kernel matrix of the rows of x, stacked from _kernel_row's rows."""
    points, sq = _kernel_points(x)
    return np.stack([_kernel_row(points, sq, points[t], sq[t], kernel,
                                 np.empty(len(points)))[:len(x)]
                     for t in range(len(x))])


def row_loop_scores(model, rows):
    """Scores one row at a time, each one _kernel_row and one dot: the loop
    decision_scores ran before it scored blocks, kept as its oracle."""
    xs = np.ascontiguousarray(model.scaling.apply(rows))
    sq_x = np.einsum("ij,ij->i", xs, xs)
    points, sq = _kernel_points(model.support_vectors)
    kv = np.empty(len(points))
    scores = np.empty(len(xs))
    for r in range(len(xs)):
        _kernel_row(points, sq, xs[r], sq_x[r], model.kernel, kv)
        scores[r] = model.dual_coefs @ kv[:model.support_count] + model.bias
    return scores


def random_model(rng, kernel, m, d):
    """A model of m random support vectors, coefficients and scaling."""
    scaling = ScalingStats(rng.normal(size=d), rng.uniform(0.5, 2.0, size=d))
    return SvmModel(kernel, 1.0, scaling, rng.normal(size=(m, d)),
                    rng.normal(size=m), -0.3)


def sv_rows(model, xs):
    """Row of the scaled training matrix xs that each support vector is;
    each must match exactly one row."""
    same = (model.support_vectors[:, None, :] == xs[None, :, :]).all(axis=2)
    assert np.all(same.sum(axis=1) == 1)
    return same.argmax(axis=1)


def full_alpha(model, xs):
    alpha = np.zeros(len(xs))
    alpha[sv_rows(model, xs)] = np.abs(model.dual_coefs)
    return alpha


class TestSmoAgainstQpOracle:
    @pytest.mark.parametrize("kernel", [KernelSpec("rbf", 0.5),
                                        KernelSpec("linear", None)])
    def test_objective_and_signs_match(self, rng, kernel):
        for trial in range(5):
            fm, config = random_problem(rng, n=14 + trial, kernel=kernel)
            model = train_svm(fm, config)
            assert model.meta["converged"]

            xs = model.scaling.apply(fm.values)
            y = np.where(fm.labels == 1, 1.0, -1.0)
            k_mat = gram(xs, kernel)
            alpha_star, obj_star = qp_oracle(k_mat, y, config.c)

            assert model.meta["dual_objective"] == pytest.approx(obj_star,
                                                                 abs=1e-3)
            got_signs = np.sign(decision_scores(model, fm.values))
            ky = k_mat @ (alpha_star * y)
            free = (alpha_star > 1e-6) & (alpha_star < config.c - 1e-6)
            if free.any():
                bias = float(np.mean(y[free] - ky[free]))
            else:
                bias = float(np.mean(y - ky))
            want_signs = np.sign(ky + bias)
            assert np.array_equal(got_signs, want_signs)

    def test_kkt_conditions_hold(self, rng):
        tol = 1e-3
        for trial in range(5):
            fm, config = random_problem(rng, n=16, d=3)
            model = train_svm(fm, config)
            xs = model.scaling.apply(fm.values)
            y = np.where(fm.labels == 1, 1.0, -1.0)
            k_mat = gram(xs, config.kernel)
            alpha = full_alpha(model, xs)

            assert np.all(alpha >= -1e-12)
            assert np.all(alpha <= config.c + 1e-12)
            assert abs(float(y @ alpha)) <= 1e-9

            f = k_mat @ (alpha * y) + model.bias
            margins = y * f
            at_zero = alpha <= 1e-9
            at_c = alpha >= config.c - 1e-9
            free = ~at_zero & ~at_c
            assert np.all(margins[at_zero] >= 1.0 - tol)
            assert np.all(margins[at_c] <= 1.0 + tol)
            assert np.all(np.abs(margins[free] - 1.0) <= tol)


# ---------------------------------------------------------------------------
# reference trainer: the SMO loop as train_svm ran it before reading Q by
# rows -- strided column reads, I_up / I_low rebuilt from alpha every
# iteration, K (stacked from _kernel_row's rows) and Q both held, the
# gradient itself kept.  train_svm must reproduce it bit for bit.  It also counts swaps: rows that an update moved
# from one index set to the other, out of the first and into the second.
# ---------------------------------------------------------------------------

def reference_smo(xs, y, kernel, c, tol, max_passes, pairs=None):
    """pairs, when given, gets each iteration's working pair (i, j)."""
    k = stacked_rows(xs, kernel)
    q = (y[:, None] * k) * y[None, :]
    n = len(y)
    alpha = np.zeros(n)
    grad = -np.ones(n)
    max_iter = max_passes * n
    converged = False
    it = 0
    tau = 1e-12
    swaps = 0
    prev_up = prev_low = None
    while it < max_iter:
        up = ((y > 0) & (alpha < c)) | ((y < 0) & (alpha > 0))
        low = ((y < 0) & (alpha < c)) | ((y > 0) & (alpha > 0))
        if prev_up is not None:
            swaps += int(np.count_nonzero((up != prev_up) & (low != prev_low)))
        prev_up, prev_low = up, low
        if not up.any() or not low.any():
            converged = True
            break
        yg = -y * grad
        up_vals = np.where(up, yg, -np.inf)
        low_vals = np.where(low, yg, np.inf)
        i = int(np.argmax(up_vals))
        j = int(np.argmin(low_vals))
        if up_vals[i] - low_vals[j] <= tol:
            converged = True
            break
        if pairs is not None:
            pairs.append((i, j))

        quad = q[i, i] + q[j, j] - 2.0 * y[i] * y[j] * q[i, j]
        if quad <= 0.0:
            quad = tau
        ai_old, aj_old = alpha[i], alpha[j]
        if y[i] != y[j]:
            delta = (-grad[i] - grad[j]) / quad
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
            delta = (grad[i] - grad[j]) / quad
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
        grad += q[:, i] * (ai - ai_old) + q[:, j] * (aj - aj_old)
        it += 1

    ky = y * (grad + 1.0)
    free = (alpha > SV_EPS) & (alpha < c - SV_EPS)
    if free.any():
        bias = float(np.mean(y[free] - ky[free]))
    else:
        yg = -y * grad
        up = ((y > 0) & (alpha < c)) | ((y < 0) & (alpha > 0))
        low = ((y < 0) & (alpha < c)) | ((y > 0) & (alpha > 0))
        hi = yg[up].max() if up.any() else yg[low].min()
        lo = yg[low].min() if low.any() else yg[up].max()
        bias = float((hi + lo) / 2.0)
    objective = float(0.5 * (alpha.sum() - alpha @ grad))
    return alpha, bias, it, converged, objective, swaps


def assert_matches_reference(x, labels, config):
    """Train x with train_svm and with reference_smo; the reference's
    alpha, convergence flag and swap count once every output is equal."""
    model = train_svm(matrix(x, labels), config)

    xs = model.scaling.apply(x)
    y = np.where(labels == 1, 1.0, -1.0)
    alpha, bias, it, converged, objective, swaps = reference_smo(
        xs, y, config.kernel, config.c, config.tolerance, config.max_passes)
    sv = np.flatnonzero(alpha > SV_EPS)
    assert model.meta["converged"] is converged
    assert model.meta["iterations"] == it
    assert np.array_equal(sv_rows(model, xs), sv)
    assert np.array_equal(model.support_vectors, xs[sv])
    assert np.array_equal(model.dual_coefs, alpha[sv] * y[sv])
    assert model.bias == bias
    assert model.meta["dual_objective"] == objective
    return alpha, converged, swaps


class TestSmoAgainstReferenceLoop:
    # n is never a multiple of the row pad; the reference reads columns of
    # K, so a K that is not exactly symmetric fails here
    @pytest.mark.parametrize("kernel, n, c, max_passes, converges", [
        (KernelSpec("linear", None), 557, 1.0, 50, True),
        (KernelSpec("rbf", 0.2), 357, 10.0, 50, True),
        (KernelSpec("rbf", 0.05), 515, 100.0, 1, False),
    ])
    def test_bit_identical(self, rng, kernel, n, c, max_passes, converges):
        x = full_width(rng.normal(size=(n, 5)))
        labels = (x[:, 0] + 0.5 * rng.normal(size=n) > 0).astype(np.int8)
        config = TrainConfig(kernel=kernel, c=c, tolerance=1e-3,
                             max_passes=max_passes)
        _alpha, converged, _swaps = assert_matches_reference(x, labels,
                                                             config)
        assert converged is converges

    # as wide as the full descriptor, where an unpadded gemv rounds the
    # last n % 4 entries of a row apart from the others
    @pytest.mark.parametrize("kernel, c", [(KernelSpec("linear", None), 0.1),
                                           (KernelSpec("rbf", 0.02), 10.0)])
    def test_bit_identical_36_columns(self, rng, kernel, c):
        x = rng.normal(size=(501, 36))
        labels = (x[:, 0] + 0.5 * rng.normal(size=501) > 0).astype(np.int8)
        config = TrainConfig(kernel=kernel, c=c, tolerance=1e-3,
                             max_passes=50)
        _alpha, converged, _swaps = assert_matches_reference(x, labels,
                                                             config)
        assert converged

    # small C: duals jump from 0 straight to C, so rows swap index sets.
    # With the linear problem every reference dual ends at 0 or C, so the
    # bias comes from the up / low fallback, not from free support vectors
    @pytest.mark.parametrize("kernel, seed, n, c, fallback", [
        (KernelSpec("linear", None), 1, 20, 0.01, True),
        (KernelSpec("rbf", 0.5), 0, 150, 1.0, False),
    ])
    def test_bit_identical_at_the_box(self, kernel, seed, n, c, fallback):
        rng = np.random.default_rng(seed)
        x = full_width(rng.normal(size=(n, 5)))
        labels = (x[:, 0] + 0.5 * rng.normal(size=n) > 0).astype(np.int8)
        config = TrainConfig(kernel=kernel, c=c, tolerance=1e-3,
                             max_passes=50)
        alpha, converged, swaps = assert_matches_reference(x, labels, config)
        assert converged
        assert swaps > 0
        assert np.any(alpha == c)
        free = (alpha > SV_EPS) & (alpha < c - SV_EPS)
        assert bool(free.any()) is not fallback


def repeated_problem(rng, base=40, d=3):
    """base distinct rows, each repeated 2 to 5 times, in shuffled order,
    and one more row: row 0's x under the other label, all at full width."""
    x = rng.normal(size=(base, d))
    labels = (x[:, 0] + 0.5 * rng.normal(size=base) > 0).astype(np.int8)
    pick = np.append(np.repeat(np.arange(base), rng.integers(2, 6, size=base)),
                     0)
    x, labels = full_width(x[pick]), labels[pick]
    labels[-1] = 1 - labels[-1]
    order = rng.permutation(len(x))
    return x[order], labels[order]


def traced_row_alphas(monkeypatch):
    """Records the per-row alphas train_svm expands its variables into."""
    seen = []
    expand = learn._row_alphas

    def spy(*args):
        seen.append(expand(*args))
        return seen[-1]

    monkeypatch.setattr(learn, "_row_alphas", spy)
    return seen


def assert_copies_fill_in_order(alpha, xs, y, c):
    """Among the rows of one (row, label) pair, in row order, every alpha is
    C until one partial value, then 0."""
    key = np.column_stack([xs, y])
    _uniq, group = np.unique(key, axis=0, return_inverse=True)
    for g in range(group.max() + 1):
        a = alpha[group.ravel() == g]
        full = np.count_nonzero(a == c)
        assert np.all(a[:full] == c)
        assert np.all(a[full + 1:] == 0.0)


class TestDistinctRows:
    """SMO runs over the distinct (scaled row, label) pairs, each bounded by
    C times its count, and expands them into per-row alphas."""

    def train(self, rng, monkeypatch, **kw):
        x, labels = repeated_problem(rng)
        config = TrainConfig(**{"kernel": KernelSpec("rbf", 0.5), "c": 1.0,
                                "tolerance": 1e-6, "max_passes": 1000, **kw})
        seen = traced_row_alphas(monkeypatch)
        model = train_svm(matrix(x, labels), config)
        assert len(seen) == 1
        xs = model.scaling.apply(x)
        y = np.where(labels == 1, 1.0, -1.0)
        return model, config, xs, y, seen[0]

    def test_one_variable_per_row_and_label(self, rng):
        x, labels = repeated_problem(rng)
        model = train_svm(matrix(x, labels), TrainConfig())
        # 40 rows, one of them also under the other label
        assert model.meta["distinct_rows"] == 41
        assert model.meta["train_rows"] == len(x)

    @pytest.mark.parametrize("max_passes, converges", [(1000, True),
                                                        (1, False)])
    def test_row_alphas_in_the_box_balanced_and_in_order(
            self, rng, monkeypatch, max_passes, converges):
        model, config, xs, y, alpha = self.train(rng, monkeypatch,
                                                 max_passes=max_passes)
        assert model.meta["converged"] is converges
        assert np.all((alpha >= 0.0) & (alpha <= config.c))
        assert abs(math.fsum((alpha * y).tolist())) <= 1e-9 * (1 + alpha.sum())
        assert abs(math.fsum(model.dual_coefs.tolist())) \
            <= 1e-9 * (1 + alpha.sum())
        assert_copies_fill_in_order(alpha, xs, y, config.c)
        # the model holds every row with alpha > SV_EPS, duplicates unmerged
        sv = np.flatnonzero(alpha > SV_EPS)
        assert np.array_equal(model.support_vectors, xs[sv])
        assert np.array_equal(model.dual_coefs, alpha[sv] * y[sv])
        assert len(np.unique(model.support_vectors, axis=0)) < len(sv)

    def test_converged_model_meets_row_kkt_and_reference_objective(
            self, rng, monkeypatch):
        model, config, xs, y, alpha = self.train(rng, monkeypatch)
        assert model.meta["converged"]
        tol = 1e-3
        f = gram(xs, config.kernel) @ (alpha * y) + model.bias
        margins = y * f
        at_zero = alpha <= 1e-9
        at_c = alpha >= config.c - 1e-9
        free = ~at_zero & ~at_c
        assert free.any() and at_c.any()
        assert np.all(margins[at_zero] >= 1.0 - tol)
        assert np.all(margins[at_c] <= 1.0 + tol)
        assert np.all(np.abs(margins[free] - 1.0) <= tol)
        _a, _b, _it, converged, objective, _s = reference_smo(
            xs, y, config.kernel, config.c, config.tolerance,
            config.max_passes)
        assert converged
        assert model.meta["dual_objective"] == pytest.approx(
            objective, rel=config.tolerance)

    def test_fewer_variables_than_rows_but_the_same_iteration_cap(self, rng):
        x, labels = repeated_problem(rng)
        model = train_svm(matrix(x, labels),
                          TrainConfig(kernel=KernelSpec("rbf", 0.5), c=100.0,
                                      tolerance=1e-12, max_passes=1))
        assert not model.meta["converged"]
        assert model.meta["iterations"] == len(x)
        assert model.meta["kernel_rows"] <= model.meta["distinct_rows"]

    @pytest.mark.parametrize("c", [0.1, 1.0, 10.0 / 3.0, 100.0])
    def test_totals_just_below_a_multiple_of_c(self, c):
        counts = np.array([3, 3, 2, 1, 4, 2, 5])
        below = [np.nextafter(k * c, 0.0) for k in (3, 2, 1, 1, 4)]
        totals = np.array(below + [0.0, 5 * c])
        var_of_row = np.repeat(np.arange(len(counts)), counts)
        var_of_row = var_of_row[np.random.default_rng(1).permutation(
            len(var_of_row))]
        alpha = learn._row_alphas(totals, var_of_row, counts, c)
        assert np.all((alpha >= 0.0) & (alpha <= c))
        for v, total in enumerate(totals):
            a = alpha[var_of_row == v]
            assert len(a) == counts[v]
            full = np.count_nonzero(a == c)
            assert np.all(a[:full] == c) and np.all(a[full + 1:] == 0.0)
            assert math.fsum(a.tolist()) == pytest.approx(total, rel=1e-15,
                                                          abs=0.0)
        # a total of k C fills k copies, the last to rounding (k C - (k-1) C
        # need not be C); one just below 2 C fills one and part of another
        assert alpha[var_of_row == 6] == pytest.approx(np.full(5, c),
                                                       rel=1e-15)
        assert np.count_nonzero(alpha[var_of_row == 1] == c) == 1


# ---------------------------------------------------------------------------
# The distinct-variable loop as train_svm ran it before its scalars became
# Python floats and its reductions ndarray methods, kept verbatim as an
# oracle: two masked numpy buffers, np.argmax / np.argmin, numpy scalars and
# LIBSVM's per-variable clipping.  Unlike reference_smo it runs over the
# distinct (row, label) pairs, so it covers repeated rows that stop at their
# cap k C, and it shares train_svm's row cache budget, so kernel_rows too
# must be equal.
# ---------------------------------------------------------------------------

def frozen_distinct_smo(xs, y, config):
    n = len(y)
    c = float(config.c)
    tol = float(config.tolerance)
    key = np.ascontiguousarray(np.column_stack([xs, y]))
    uniq, first, inverse, counts = np.unique(
        key.view(np.dtype((np.void, key.shape[1] * 8))).ravel(),
        return_index=True, return_inverse=True, return_counts=True)
    order = np.argsort(first)
    first, counts = first[order], counts[order]
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    var_of_row = rank[inverse]
    u = len(first)
    yv = y[first]
    cap = c * counts
    bound = cap.tolist()
    points, sq = _kernel_points(xs[first])
    slots = min(u, max(2, learn._ROW_CACHE_BYTES // (8 * len(points))))
    cache = np.empty((slots, len(points)))
    slot_of = OrderedDict()
    kernel_rows = 0

    def kernel_row(t):
        nonlocal kernel_rows
        slot = slot_of.pop(t, None)
        if slot is None:
            slot = len(slot_of) if len(slot_of) < slots \
                else slot_of.popitem(last=False)[1]
            _kernel_row(points, sq, points[t], sq[t], config.kernel,
                        cache[slot])
            kernel_rows += 1
        slot_of[t] = slot
        return cache[slot, :u]

    alpha = np.zeros(u)
    up_vals = np.where(yv > 0, yv, -np.inf)
    low_vals = np.where(yv < 0, yv, np.inf)
    step = np.empty(u)
    step_j = np.empty(u)
    max_iter = config.max_passes * n
    converged = False
    it = 0
    tau = 1e-12
    while it < max_iter:
        i = int(np.argmax(up_vals))
        j = int(np.argmin(low_vals))
        m_up, m_low = up_vals[i], low_vals[j]
        if m_up - m_low <= tol:
            converged = True
            break

        yi, yj = yv[i], yv[j]
        gi, gj = -yi * m_up, -yj * m_low
        ki = kernel_row(i)
        kj = kernel_row(j)
        quad = ki[i] + kj[j] - 2.0 * ki[j]
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
        np.multiply(ki, -yi * (ai - ai_old), out=step)
        np.multiply(kj, -yj * (aj - aj_old), out=step_j)
        step += step_j
        up_vals += step
        low_vals += step
        for t, a, v in ((i, ai, up_vals[i]), (j, aj, low_vals[j])):
            in_up, in_low = (a < bound[t], a > 0) if yv[t] > 0 \
                else (a > 0, a < bound[t])
            up_vals[t] = v if in_up else -np.inf
            low_vals[t] = v if in_low else np.inf
        it += 1

    up = up_vals > -np.inf
    low = low_vals < np.inf
    grad = -yv * np.where(up, up_vals, low_vals)
    ky = yv * (grad + 1.0)
    free = (alpha > SV_EPS) & (alpha < cap - SV_EPS)
    if free.any():
        bias = float(np.mean(yv[free] - ky[free]))
    else:
        hi = up_vals.max() if up.any() else low_vals.min()
        lo = low_vals.min() if low.any() else up_vals.max()
        bias = float((hi + lo) / 2.0)

    totals = alpha
    alpha = learn._row_alphas(alpha, var_of_row, counts, c)
    objective = float(0.5 * (alpha.sum() - alpha @ grad[var_of_row]))
    return SimpleNamespace(totals=totals, cap=cap, alpha=alpha, bias=bias,
                           iterations=it, kernel_rows=kernel_rows,
                           converged=converged, objective=objective)


def hsv_like_problem(n=1500, seed=5):
    """3 columns on 8-bit steps from a few levels each, so most rows repeat,
    with labels that overlap: some rows appear under both labels."""
    rng = np.random.default_rng(seed)
    x = rng.integers(60, 66, size=(n, 3)) / 255.0
    labels = (x[:, 0] - x[:, 1] + 0.01 * rng.normal(size=n) > 0)
    return x, labels.astype(np.int8)


class TestSmoAgainstFrozenLoop:
    """train_svm against the frozen distinct-variable loop, bit for bit."""

    def assert_matches_frozen(self, x, labels, config, monkeypatch):
        seen = []
        expand = learn._row_alphas

        def spy(totals, *args):
            seen.append(totals.copy())
            return expand(totals, *args)

        monkeypatch.setattr(learn, "_row_alphas", spy)
        model = train_svm(matrix(x, labels), config)
        monkeypatch.setattr(learn, "_row_alphas", expand)
        xs = model.scaling.apply(x)
        y = np.where(labels == 1, 1.0, -1.0)
        ref = frozen_distinct_smo(xs, y, config)
        assert len(seen) == 1
        assert np.array_equal(seen[0], ref.totals)
        sv = np.flatnonzero(ref.alpha > SV_EPS)
        assert np.array_equal(model.support_vectors, xs[sv])
        assert np.array_equal(model.dual_coefs, ref.alpha[sv] * y[sv])
        assert model.bias == ref.bias
        assert model.meta["iterations"] == ref.iterations
        assert model.meta["kernel_rows"] == ref.kernel_rows
        assert model.meta["converged"] is ref.converged
        assert model.meta["dual_objective"] == ref.objective
        return model, ref

    @pytest.mark.parametrize("kernel, c", [(KernelSpec("rbf", 0.01), 100.0),
                                           (KernelSpec("linear", None), 10.0)])
    def test_hsv_like_repeated_rows_unconverged(self, kernel, c, monkeypatch):
        x, labels = hsv_like_problem()
        config = TrainConfig(kernel=kernel, c=c, max_passes=1,
                             feature_set="hsv")
        model, ref = self.assert_matches_frozen(x, labels, config,
                                                monkeypatch)
        assert not ref.converged
        assert model.meta["distinct_rows"] < len(x) // 3
        # repeated rows that stop at their cap k C, with k > 1
        at_cap = ref.totals == ref.cap
        assert np.any(at_cap & (ref.cap > c))

    @pytest.mark.parametrize("kernel", [KernelSpec("rbf", 0.5),
                                        KernelSpec("linear", None)])
    @pytest.mark.parametrize("rows", [2, 3])
    def test_small_row_cache(self, kernel, rows, monkeypatch):
        x, labels = hsv_like_problem(n=600, seed=rows)
        config = TrainConfig(kernel=kernel, c=10.0, max_passes=1,
                             feature_set="hsv")
        distinct = train_svm(matrix(x, labels), config).meta["distinct_rows"]
        row_bytes = 8 * (distinct + -distinct % 8)
        monkeypatch.setattr(learn, "_ROW_CACHE_BYTES",
                            rows * row_bytes + row_bytes // 2)
        model, _ref = self.assert_matches_frozen(x, labels, config,
                                                 monkeypatch)
        # evicted rows are computed again
        assert model.meta["kernel_rows"] > distinct


def while_loop_calls(source, names=("argmax", "argmin", "where")):
    """(line, name) of each np.<name> call inside a while loop of source."""
    found = set()
    for loop in ast.walk(ast.parse(source)):
        if not isinstance(loop, ast.While):
            continue
        for node in ast.walk(loop):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in ("np", "numpy")
                    and node.func.attr in names):
                found.add((node.lineno, node.func.attr))
    return sorted(found)


class TestSmoLoopCalls:
    """The SMO loop calls its reductions as ndarray methods: at the sizes it
    runs, np.argmax(a) costs several times a.argmax()."""

    def test_no_numpy_reduction_in_a_while_loop_of_learn(self):
        with open(learn.__file__, encoding="utf-8") as fh:
            source = fh.read()
        assert "while " in source
        assert while_loop_calls(source) == []

    @pytest.mark.parametrize("source", [
        "while it < n:\n    i = int(np.argmax(up))\n",
        "while True:\n    if x:\n        j = np.argmin(low)\n",
        "while a:\n    for t in b:\n        v = numpy.where(m, 1.0, 0.0)\n",
        "while a:\n    while b:\n        np.argmax(c)\n",
    ])
    def test_finds_a_reduction_in_a_loop(self, source):
        assert len(while_loop_calls(source)) == 1

    @pytest.mark.parametrize("source", [
        "i = np.argmax(up)\nwhile i:\n    i = up.argmax()\n",
        "for t in b:\n    np.where(m, 1.0, 0.0)\n",
        "while a:\n    np.maximum(b, 0.0, out=b)\n",
    ])
    def test_passes_other_calls(self, source):
        assert while_loop_calls(source) == []


class TestGram:
    """The rows of _kernel_row, stacked into K."""
    kernels = [KernelSpec("linear", None), KernelSpec("rbf", 0.3)]

    @pytest.mark.parametrize("kernel", kernels)
    @pytest.mark.parametrize("n", [1, 7, 525])
    def test_exactly_symmetric(self, rng, kernel, n):
        x = rng.normal(size=(n, 9))
        k = stacked_rows(x, kernel)
        assert k.shape == (n, n)
        assert np.array_equal(k, k.T)
        # the whole-matrix expression, to rounding
        ref = gram(x, kernel)
        np.testing.assert_allclose(k, ref, rtol=1e-12,
                                   atol=1e-12 * np.abs(ref).max())

    # every entry goes through the same gemv code, so K is exactly symmetric
    # at any n, although OpenBLAS rounds an unpadded row's last n % 4
    # entries apart from the others at this width
    @pytest.mark.parametrize("kernel", kernels)
    def test_symmetric_whatever_the_product(self, rng, kernel):
        for n in (1001, 1002, 1003, 1004, 1005):
            x = rng.normal(size=(n, 36))
            k = stacked_rows(x, kernel)
            assert np.array_equal(k, k.T), n
            ref = gram(x, kernel)
            np.testing.assert_allclose(k, ref, rtol=1e-12,
                                       atol=1e-12 * np.abs(ref).max())

    # the in-place RBF step against the expression it replaced, on one row
    # and on a (rows, points) block with per-row norms
    @pytest.mark.parametrize("d", [3, 36])
    def test_rbf_in_place_same_bits_as_the_expression(self, rng, d):
        kernel = KernelSpec("rbf", 0.1)
        points, sq = _kernel_points(rng.normal(size=(1001, d)))
        x = rng.normal(size=(40, d))
        sq_x = np.einsum("ij,ij->i", x, x)
        g = x @ points.T
        expected = np.exp(-kernel.gamma
                          * np.maximum(sq + sq_x[:, None] - 2.0 * g, 0.0))
        block = learn._kernel_from_dots(g.copy(), sq, sq_x[:, None], kernel)
        assert np.array_equal(block, expected)
        row = _kernel_row(points, sq, points[7], sq[7], kernel,
                          np.empty(len(points)))
        g7 = points @ points[7]
        assert np.array_equal(row, np.exp(
            -kernel.gamma * np.maximum(sq + sq[7] - 2.0 * g7, 0.0)))

    @pytest.mark.parametrize("kernel", kernels)
    def test_training_holds_one_matrix(self, kernel):
        rng = np.random.default_rng(7)
        n = 2001
        x = full_width(rng.normal(size=(n, 8)))
        labels = (x[:, 0] > 0).astype(np.int8)
        fm = matrix(x, labels)
        config = TrainConfig(kernel=kernel, c=1.0, max_passes=1)
        tracemalloc.start()
        try:
            train_svm(fm, config)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # at the default budget the row cache is one n x n float64 matrix
        # plus O(n d); K and Q side by side would already be 2 n^2 * 8 bytes
        assert peak < 2 * n * n * 8

    @pytest.mark.parametrize("kernel", kernels)
    def test_score_bits_independent_of_companion_rows(self, rng, kernel):
        x = rng.normal(size=(600, 36))
        labels = (x[:, 0] + 0.5 * rng.normal(size=600) > 0).astype(np.int8)
        model = train_svm(matrix(x, labels),
                          TrainConfig(kernel=kernel, c=1.0, max_passes=2))
        queries = rng.normal(size=(300, 36))
        full = decision_scores(model, queries)
        for pick in ([5, 9, 100], [299], list(range(256)), [100, 5]):
            assert np.array_equal(decision_scores(model, queries[pick]),
                                  full[pick])


class TestBlockedScores:
    """decision_scores runs each row's gemv and dot in stacked matmuls over a
    block of rows; its bits must be those of the row loop.  They rest on
    numpy sending each stacked product to the gemv and dot that np.dot and a
    1-d @ use, which these tests check."""
    kernels = [KernelSpec("linear", None), KernelSpec("rbf", 0.05)]

    # 7 and 8 support vectors sit on either side of one _ROW_PAD
    @pytest.mark.parametrize("kernel", kernels, ids=["linear", "rbf"])
    @pytest.mark.parametrize("d", [3, 5, 33, 36])
    @pytest.mark.parametrize("m", [0, 1, 7, 8, 62, 477, 2148])
    def test_bits_equal_the_row_loop(self, kernel, d, m):
        rng = np.random.default_rng(1000 * d + m)
        model = random_model(rng, kernel, m, d)
        block = learn._SCORE_BLOCK_BYTES // (8 * max(1, -(-m // 8) * 8))
        assert block >= 2
        x = 2.0 * rng.normal(size=(2 * block + 3, d))
        want = row_loop_scores(model, x)
        if m == 0:
            assert np.all(want == model.bias)
        pick = np.sort(rng.choice(len(x), size=min(len(x), 50), replace=False))
        for rows in ([0], pick, range(block - 1), range(block),
                     range(block + 1), range(len(x))):
            rows = np.asarray(rows)
            assert np.array_equal(decision_scores(model, x[rows]), want[rows])

    @pytest.mark.parametrize("kernel", kernels, ids=["linear", "rbf"])
    def test_budget_below_one_row_scores_one_row_per_block(self, rng, kernel,
                                                           monkeypatch):
        model = random_model(rng, kernel, 62, 36)
        x = rng.normal(size=(40, 36))
        monkeypatch.setattr(learn, "_SCORE_BLOCK_BYTES", 1)
        assert np.array_equal(decision_scores(model, x),
                              row_loop_scores(model, x))

    @pytest.mark.parametrize("kernel", kernels, ids=["linear", "rbf"])
    def test_peak_memory_bounded_by_the_block(self, kernel):
        rng = np.random.default_rng(5)
        n, d, m = 20_000, 36, 2_000
        model = random_model(rng, kernel, m, d)
        x = rng.normal(size=(n, d))
        tracemalloc.start()
        try:
            decision_scores(model, x)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the rows' scaled copy, plus a few temporaries of one block: 4 MB
        # over it is far below the 320 MB (N, m) kernel matrix, and a 4 MB
        # block budget already peaks past it
        assert peak < x.nbytes + 4 * 2**20


class TestScalingApply:
    def test_bits_and_rows_untouched(self, rng):
        rows = 3.0 * rng.normal(size=(50, 6)) + 1.0
        std = rng.uniform(0.5, 2.0, size=6)
        std[2] = 0.0
        stats = ScalingStats(rng.normal(size=6), std)
        before = rows.copy()
        got = stats.apply(rows)   # float64 rows: np.asarray aliases them
        want = (before - stats.mean) / np.where(std == 0.0, 1.0, std)
        want[:, 2] = 0.0
        assert np.array_equal(got, want)
        assert np.array_equal(rows, before)

    def test_peak_is_one_copy_of_the_rows(self, rng):
        rows = rng.normal(size=(20_000, 36))
        stats = ScalingStats(rows.mean(axis=0), rows.std(axis=0))
        tracemalloc.start()
        try:
            stats.apply(rows)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the result itself; a temporary beside it would double the peak
        assert peak < 1.25 * rows.nbytes


class TestRowCache:
    n, d = 2001, 3

    def problem(self, kernel):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(self.n, self.d))
        labels = (x[:, 0] + 0.5 * rng.normal(size=self.n) > 0)
        config = TrainConfig(kernel=kernel, c=1.0, max_passes=1,
                             feature_set="hsv")
        return matrix(x, labels.astype(np.int8)), config

    @pytest.mark.parametrize("kernel", TestGram.kernels)
    @pytest.mark.parametrize("rows", [2, 3])
    def test_small_budget_same_model_bounded_memory(self, kernel, rows,
                                                    monkeypatch):
        fm, config = self.problem(kernel)
        roomy = train_svm(fm, config)
        assert roomy.meta["kernel_rows"] <= self.n
        row_bytes = 8 * len(_kernel_points(fm.values)[0])
        budget = rows * row_bytes + row_bytes // 2
        assert 8 * self.n ** 2 > budget
        monkeypatch.setattr(learn, "_ROW_CACHE_BYTES", budget)
        tracemalloc.start()
        try:
            tight = train_svm(fm, config)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(tight.support_vectors, roomy.support_vectors)
        assert np.array_equal(tight.dual_coefs, roomy.dual_coefs)
        assert tight.bias == roomy.bias
        assert {k: v for k, v in tight.meta.items() if k != "kernel_rows"} \
            == {k: v for k, v in roomy.meta.items() if k != "kernel_rows"}
        # evicted rows are computed again
        assert tight.meta["kernel_rows"] > roomy.meta["kernel_rows"]
        assert peak <= budget + 8 * self.n * (4 * self.d + 32)

    def test_budget_below_two_rows_keeps_two(self, monkeypatch):
        fm, config = self.problem(KernelSpec("rbf", 0.3))
        roomy = train_svm(fm, config)
        monkeypatch.setattr(learn, "_ROW_CACHE_BYTES", 1)
        tight = train_svm(fm, config)
        assert np.array_equal(tight.dual_coefs, roomy.dual_coefs)
        assert tight.bias == roomy.bias

    def test_evicts_least_recently_used_row(self, monkeypatch):
        rng = np.random.default_rng(3)
        x = full_width(rng.normal(size=(400, 5)))
        labels = (x[:, 0] + 0.5 * rng.normal(size=400) > 0).astype(np.int8)
        config = TrainConfig(kernel=KernelSpec("rbf", 0.3), c=1.0,
                             max_passes=1)
        row_bytes = 8 * len(_kernel_points(x)[0])
        monkeypatch.setattr(learn, "_ROW_CACHE_BYTES", 3 * row_bytes)
        model = train_svm(matrix(x, labels), config)
        # the rows SMO reads, in order: each iteration's i, then its j
        pairs = []
        reference_smo(model.scaling.apply(x),
                      np.where(labels == 1, 1.0, -1.0), config.kernel,
                      config.c, config.tolerance, config.max_passes, pairs)
        assert len(pairs) == model.meta["iterations"]
        cached, misses = OrderedDict(), 0
        for t in [t for pair in pairs for t in pair]:
            if t in cached:
                cached.move_to_end(t)
                continue
            misses += 1
            if len(cached) == 3:
                cached.popitem(last=False)
            cached[t] = None
        assert model.meta["kernel_rows"] == misses


# Trains and scores one problem and prints SHA-256 digests of the model
# file and of the score bytes.
_THREADS_CHILD = """
import hashlib, sys, tempfile, os
import numpy as np
from peduncleseg import (FeatureMatrix, KernelSpec, TrainConfig,
                         decision_scores, save_model, train_svm)
n, d = int(sys.argv[1]), int(sys.argv[2])
rng = np.random.default_rng(d)
x = rng.normal(size=(n, d))
labels = (x[:, 0] + np.sin(3 * x[:, 1]) + rng.normal(size=n) > 0)
fm = FeatureMatrix(x, labels.astype(np.int8), np.ones(n, dtype=bool))
model = train_svm(fm, TrainConfig(kernel=KernelSpec("rbf", 0.5), c=100.0,
                                  max_passes=1,
                                  feature_set="hsv" if d == 3 else "full"))
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "model.json")
    save_model(model, path)
    with open(path, "rb") as fh:
        print(hashlib.sha256(fh.read()).hexdigest())
scores = decision_scores(model, x + rng.normal(scale=0.1, size=x.shape))
print(hashlib.sha256(scores.tobytes()).hexdigest())
"""


class TestBlasThreads:
    @pytest.mark.parametrize("d", [3, 36])
    def test_model_and_scores_same_bits_at_1_and_2_threads(self, d):
        src = os.path.dirname(os.path.dirname(learn.__file__))
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads, PYTHONPATH=src)
            run = subprocess.run(
                [sys.executable, "-c", _THREADS_CHILD, "4500", str(d)],
                env=env, capture_output=True, text=True, check=True)
            digests.append(run.stdout.split())
        assert len(digests[0]) == 2
        assert digests[0] == digests[1]


class TestMaxPassesReport:
    def test_warning_names_iterations(self, rng, caplog):
        fm, config = random_problem(rng, n=40)
        with caplog.at_level(logging.WARNING, logger="peduncleseg"):
            model = train_svm(fm, replace(config, max_passes=1))
        assert not model.meta["converged"]
        assert model.meta["iterations"] == 40
        warnings = [r for r in caplog.records
                    if r.name.startswith("peduncleseg")
                    and r.levelno == logging.WARNING]
        assert len(warnings) == 1
        message = warnings[0].getMessage()
        assert "max_passes=1" in message and "40 iterations" in message
        assert "on 40 rows (40 distinct)" in message
        assert f"({model.meta['kernel_rows']} kernel rows computed)" in message

    def test_silent_when_converged(self, rng, caplog):
        fm, config = random_problem(rng, n=20)
        with caplog.at_level(logging.WARNING, logger="peduncleseg"):
            model = train_svm(fm, config)
        assert model.meta["converged"]
        assert not [r for r in caplog.records if r.levelno >= logging.WARNING]


class TestClosedFormTwoPoint:
    def test_two_point_max_margin(self):
        fm = matrix(full_width([[0.0], [1.0]]), [0, 1])
        config = TrainConfig(kernel=KernelSpec("linear", None), c=10.0,
                             tolerance=1e-9, max_passes=1000)
        model = train_svm(fm, config)
        # scaled points are -1 and +1; closed form: alpha = 0.5, bias = 0
        assert model.support_count == 2
        assert sorted(model.dual_coefs.tolist()) == pytest.approx([-0.5, 0.5],
                                                                  abs=1e-9)
        assert model.bias == pytest.approx(0.0, abs=1e-9)
        assert model.meta["dual_objective"] == pytest.approx(0.5, abs=1e-9)
        scores = decision_scores(model, fm.values)
        assert scores[0] == pytest.approx(-1.0, abs=1e-6)
        assert scores[1] == pytest.approx(1.0, abs=1e-6)


class TestXor:
    xor_x = full_width([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
    xor_y = [0, 0, 1, 1]

    def test_rbf_solves_xor(self):
        fm = matrix(self.xor_x, self.xor_y)
        model = train_svm(fm, TrainConfig(kernel=KernelSpec("rbf", 1.0),
                                          c=100.0, tolerance=1e-6,
                                          max_passes=1000))
        labels, _s, _t = predict_parallel(model, fm)
        assert np.array_equal(labels, self.xor_y)

    def test_linear_cannot_solve_xor(self):
        fm = matrix(self.xor_x, self.xor_y)
        model = train_svm(fm, TrainConfig(kernel=KernelSpec("linear", None),
                                          c=100.0, tolerance=1e-6,
                                          max_passes=1000))
        labels, _s, _t = predict_parallel(model, fm)
        accuracy = float((labels == self.xor_y).mean())
        assert accuracy <= 0.75


class TestSeparable:
    def test_linearly_separable_perfect(self, rng):
        pos = rng.normal(size=(20, 2)) + [4.0, 4.0]
        neg = rng.normal(size=(20, 2)) - [4.0, 4.0]
        fm = matrix(full_width(np.vstack([pos, neg])), [1] * 20 + [0] * 20)
        model = train_svm(fm, TrainConfig(kernel=KernelSpec("linear", None),
                                          c=100.0))
        labels, scores, _t = predict_parallel(model, fm)
        assert np.array_equal(labels, fm.labels)
        assert (scores[:20] > 0).all() and (scores[20:] < 0).all()


class TestTrainingValidation:
    def test_single_class_rejected(self, rng):
        fm = matrix(rng.normal(size=(8, 3)), [1] * 8)
        with pytest.raises(TrainingError):
            train_svm(fm, TrainConfig(feature_set="hsv"))

    def test_unlabelled_rows_rejected(self, rng):
        fm = matrix(rng.normal(size=(8, 3)), [0, 1, 0, 1, -1, 1, 0, 1])
        with pytest.raises(TrainingError):
            train_svm(fm, TrainConfig(feature_set="hsv"))

    def test_invalid_rows_rejected(self, rng):
        fm = matrix(rng.normal(size=(8, 3)), [0, 1] * 4)
        fm.valid[3] = False
        with pytest.raises(TrainingError):
            train_svm(fm, TrainConfig(feature_set="hsv"))

    def test_non_finite_rejected(self, rng):
        values = rng.normal(size=(8, 3))
        values[2, 1] = np.nan
        fm = matrix(values, [0, 1] * 4)
        with pytest.raises(TrainingError):
            train_svm(fm, TrainConfig(feature_set="hsv"))

    def test_empty_matrix_rejected(self):
        with pytest.raises(TrainingError, match="non-empty 2-d"):
            train_svm(matrix(np.empty((0, 3)), []),
                      TrainConfig(feature_set="hsv"))

    def test_constant_columns_handled(self, rng):
        values = rng.normal(size=(12, 3))
        values[:, 1] = 7.5   # constant dim must scale to 0, not NaN
        labels = np.array([0, 1] * 6, dtype=np.int8)
        values[labels == 1, 0] += 5.0
        model = train_svm(matrix(values, labels), TrainConfig(feature_set="hsv"))
        assert model.scaling.std[1] == 0.0
        scores = decision_scores(model, values)
        assert np.all(np.isfinite(scores))

    @pytest.mark.parametrize("subset, width", [("full", 3), ("full", 35),
                                               ("pfh", 36), ("hsv", 2)])
    def test_matrix_not_as_wide_as_its_set_rejected(self, rng, subset, width):
        fm = matrix(rng.normal(size=(8, width)), [0, 1] * 4)
        cols = FEATURE_SLICES[subset].stop - FEATURE_SLICES[subset].start
        with pytest.raises(TrainingError,
                           match=f"feature set {subset!r} has {cols} columns, "
                                 f"but the matrix has {width}"):
            train_svm(fm, TrainConfig(feature_set=subset))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            KernelSpec("poly", 1.0)
        with pytest.raises(ValueError):
            KernelSpec("rbf", None)
        with pytest.raises(ValueError):
            KernelSpec("linear", 0.5)
        with pytest.raises(ValueError):
            TrainConfig(c=0.0)
        with pytest.raises(ValueError):
            TrainConfig(feature_set="pca")
        with pytest.raises(ValueError, match="max_passes must be >= 1"):
            TrainConfig(max_passes=0)


class TestDeterminism:
    def test_same_input_same_model(self, rng):
        fm, config = random_problem(rng, n=20)
        a = train_svm(fm, config)
        b = train_svm(fm, config)
        assert np.array_equal(a.support_vectors, b.support_vectors)
        assert np.array_equal(a.dual_coefs, b.dual_coefs)
        assert a.bias == b.bias
        assert a.meta["iterations"] == b.meta["iterations"]


class TestParallelPredict:
    def train_toy(self, rng, n=200, d=6):
        x = full_width(rng.normal(size=(n, d)))
        labels = (x[:, 0] + 0.3 * x[:, 1] > 0).astype(np.int8)
        fm = matrix(x, labels)
        model = train_svm(fm, TrainConfig(kernel=KernelSpec("rbf", 0.2),
                                          c=10.0))
        return model, fm

    def test_bit_identical_across_worker_counts(self, rng):
        model, fm = self.train_toy(rng)
        ref_labels, ref_scores, _ = predict_parallel(model, fm, workers=1)
        for workers in (2, 4, 8):
            labels, scores, _ = predict_parallel(model, fm, workers=workers)
            assert np.array_equal(scores, ref_scores), f"workers={workers}"
            assert np.array_equal(labels, ref_labels)

    def test_labels_follow_score_sign(self, rng):
        model, fm = self.train_toy(rng, n=60)
        labels, scores, _ = predict_parallel(model, fm, workers=3)
        assert np.array_equal(labels, (scores > 0).astype(np.int8))

    def test_worker_validation(self, rng):
        model, fm = self.train_toy(rng, n=30)
        with pytest.raises(ValueError):
            predict_parallel(model, fm, workers=0)

    def test_dimension_mismatch_rejected(self, rng):
        model, _fm = self.train_toy(rng, d=6)
        with pytest.raises(ValueError):
            decision_scores(model, np.zeros((4, 35)))


class TestModelFile:
    # load_model holds a model's rows to the width of its meta's feature
    # set, so these models train on 3 columns as hsv models
    def test_round_trip_scores_identical(self, rng, tmp_path):
        x = rng.normal(size=(30, 3))
        labels = (x[:, 0] > 0).astype(np.int8)
        model = train_svm(matrix(x, labels),
                          TrainConfig(kernel=KernelSpec("rbf", 0.3), c=5.0,
                                      feature_set="hsv"))
        path = tmp_path / "model.json"
        save_model(model, path)
        back = load_model(path)
        assert back.kernel == model.kernel
        assert back.c == model.c
        assert np.array_equal(back.support_vectors, model.support_vectors)
        assert np.array_equal(back.dual_coefs, model.dual_coefs)
        assert back.bias == model.bias
        a = decision_scores(model, x)
        b = decision_scores(back, x)
        assert np.array_equal(a, b)

    def test_schema_fields_present(self, rng, tmp_path):
        x = rng.normal(size=(10, 3))
        model = train_svm(matrix(x, [0, 1] * 5), TrainConfig(feature_set="hsv"))
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        for key in ("schema_version", "kernel", "gamma", "c", "scaling",
                    "support_vectors", "dual_coefs", "bias", "meta"):
            assert key in doc
        assert doc["meta"]["distinct_rows"] == 10
        assert doc["schema_version"] == 1
        assert set(doc["scaling"]) == {"mean", "std"}
        # files written before support-vector indices left the meta still load
        assert "sv_indices" not in doc["meta"]
        doc["meta"]["sv_indices"] = list(range(len(doc["dual_coefs"])))
        path.write_text(json.dumps(doc))
        assert load_model(path).meta["sv_indices"] == doc["meta"]["sv_indices"]

    @pytest.mark.parametrize("mutate", [
        lambda d: d.pop("kernel"),
        lambda d: d.pop("bias"),
        lambda d: d.pop("scaling"),
        lambda d: d.update(schema_version=99),
        lambda d: d.update(kernel="poly"),
        lambda d: d.update(dual_coefs=d["dual_coefs"][:-1]),
        lambda d: d["scaling"].pop("std"),
        lambda d: d["meta"].update(feature_set="bogus"),
        lambda d: d["support_vectors"][0].__setitem__(0, math.nan),
        lambda d: d.update(bias=math.inf),
        lambda d: d["scaling"]["std"].__setitem__(0, -1.0),
        lambda d: d.update(c=-5),
        lambda d: d.update(c=10 ** 400),
        lambda d: d.update(gamma=math.nan),
        lambda d: d["support_vectors"][0].append(1.0),
        lambda d: d["support_vectors"][0].__setitem__(0, "x"),
    ])
    def test_schema_violations_rejected(self, rng, tmp_path, mutate):
        x = rng.normal(size=(10, 3))
        model = train_svm(matrix(x, [0, 1] * 5), TrainConfig(feature_set="hsv"))
        path = tmp_path / "model.json"
        save_model(model, path)
        load_model(path)
        doc = json.loads(path.read_text())
        mutate(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError):
            load_model(path)

    @pytest.mark.parametrize("field, value, message", [
        ("bias", "1e400", "'bias' holds a non-finite number"),
        pytest.param("c", "1" + "0" * 400, "'c' must be a number",
                     id="c-400-digits"),
        ("gamma", "NaN", "'gamma' holds a non-finite number"),
        ("c", "0", "'c' must be > 0"),
        ("dual_coefs", "[1, [2]]", "'dual_coefs' must be a list of numbers"),
        ("support_vectors", "[[1, 2, 3], [1, 2]]",
         "'support_vectors' must be a list of equal-length rows"),
    ])
    def test_unscorable_value_names_its_field(self, rng, tmp_path, field,
                                              value, message):
        x = rng.normal(size=(10, 3))
        model = train_svm(matrix(x, [0, 1] * 5), TrainConfig(feature_set="hsv"))
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        doc[field] = "@"
        path.write_text(json.dumps(doc).replace('"@"', value))
        with pytest.raises(ModelFormatError, match=re.escape(message)):
            load_model(path)

    @pytest.mark.parametrize("subset, width", [("full", 3), ("pfh", 3),
                                               ("hsv", 36), ("full", 33)])
    def test_feature_set_width_mismatch_rejected(self, rng, tmp_path, subset,
                                                 width):
        # train_svm and save_model refuse such a model, so a file of a model
        # of the set that is width wide gets the other set's name
        x = rng.normal(size=(10, width))
        trained = {3: "hsv", 33: "pfh", 36: "full"}[width]
        model = train_svm(matrix(x, [0, 1] * 5), TrainConfig(feature_set=trained))
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        doc["meta"]["feature_set"] = subset
        path.write_text(json.dumps(doc))
        cols = FEATURE_SLICES[subset].stop - FEATURE_SLICES[subset].start
        with pytest.raises(ModelFormatError,
                           match=f"feature set {subset!r} of {cols} columns, "
                                 f"but its vectors have {width}"):
            load_model(path)

    # models load_model would refuse, each spoiled in memory after training
    @pytest.mark.parametrize("spoil, message", [
        (lambda m: m.support_vectors.__setitem__((0, 0), math.nan),
         "'support_vectors' holds a non-finite number"),
        (lambda m: m.dual_coefs.__setitem__(0, math.inf),
         "'dual_coefs' holds a non-finite number"),
        (lambda m: setattr(m, "bias", math.nan),
         "'bias' holds a non-finite number"),
        (lambda m: m.scaling.std.__setitem__(0, -1.0),
         "'std' holds a negative number"),
        (lambda m: setattr(m, "c", 0.0), "'c' must be > 0"),
        (lambda m: m.meta.update(feature_set="pfh"),
         "feature set 'pfh' of 33 columns, but its vectors have 3"),
        (lambda m: m.meta.update(dual_objective=math.nan),
         "'meta' holds a non-finite number"),
        (lambda m: m.meta.update(extra=[1.0, {"x": -math.inf}]),
         "'meta' holds a non-finite number"),
    ])
    def test_save_refuses_what_load_refuses(self, rng, tmp_path, spoil,
                                            message):
        x = rng.normal(size=(10, 3))
        model = train_svm(matrix(x, [0, 1] * 5), TrainConfig(feature_set="hsv"))
        path = tmp_path / "model.json"
        save_model(model, path)
        before = path.read_bytes()
        spoil(model)
        with pytest.raises(ModelFormatError, match=re.escape(message)):
            save_model(model, path)
        # the old model stays, and no temporary file is left
        assert [p.name for p in tmp_path.iterdir()] == ["model.json"]
        assert path.read_bytes() == before
        with pytest.raises(ModelFormatError, match=re.escape(message)):
            save_model(model, tmp_path / "new.json")
        assert [p.name for p in tmp_path.iterdir()] == ["model.json"]

    @pytest.mark.parametrize("mutate, message", [
        (lambda d: [d], "must hold a JSON object"),
        (lambda d: {**d, "meta": [d["meta"]]}, "'meta' has the wrong type"),
        (lambda d: {**d, "kernel": 5}, "'kernel' has the wrong type"),
        (lambda d: {**d, "scaling": []}, "'scaling' has the wrong type"),
        (lambda d: {**d, "scaling": {"mean": d["scaling"]["mean"][:-1],
                                     "std": d["scaling"]["std"][:-1]}},
         "scaling statistics do not match the vectors"),
        (lambda d: {**d, "scaling": {"mean": d["scaling"]["mean"],
                                     "std": d["scaling"]["std"][:-1]}},
         "scaling statistics do not match the vectors"),
    ])
    def test_malformed_document_rejected(self, rng, tmp_path, mutate, message):
        x = rng.normal(size=(10, 3))
        model = train_svm(matrix(x, [0, 1] * 5), TrainConfig(feature_set="hsv"))
        path = tmp_path / "model.json"
        save_model(model, path)
        path.write_text(json.dumps(mutate(json.loads(path.read_text()))))
        with pytest.raises(ModelFormatError, match=re.escape(message)):
            load_model(path)

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "1e400",
                                       '[1, {"x": NaN}]'])
    def test_non_finite_meta_rejected(self, rng, tmp_path, value):
        x = rng.normal(size=(10, 3))
        model = train_svm(matrix(x, [0, 1] * 5), TrainConfig(feature_set="hsv"))
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        doc["meta"]["extra"] = "@"
        path.write_text(json.dumps(doc).replace('"@"', value))
        with pytest.raises(ModelFormatError,
                           match=re.escape("'meta' holds a non-finite number")):
            load_model(path)

    def test_model_without_support_vectors_scores_its_bias(self, rng, tmp_path):
        x = rng.normal(size=(10, 3))
        model = train_svm(matrix(x, [0, 1] * 5), TrainConfig(feature_set="hsv"))
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        doc.update(support_vectors=[], dual_coefs=[], bias=-0.375)
        path.write_text(json.dumps(doc))
        back = load_model(path)
        assert back.support_vectors.shape == (0, 3) and back.support_count == 0
        rows = rng.normal(size=(40, 3))
        assert np.all(decision_scores(back, rows) == -0.375)
        labels, scores, _ = predict_parallel(back, rows, workers=3)
        assert np.all(scores == -0.375) and not labels.any()

    def test_failed_dump_keeps_the_old_model(self, rng, tmp_path, monkeypatch):
        x = rng.normal(size=(10, 3))
        model = train_svm(matrix(x, [0, 1] * 5), TrainConfig(feature_set="hsv"))
        path = tmp_path / "model.json"
        save_model(model, path)
        before = path.read_bytes()
        seen = []

        dumps = learn.json.dumps

        def fail(*args, **kwargs):   # only the file write passes an indent
            if "indent" not in kwargs:
                return dumps(*args, **kwargs)
            seen.extend(sorted(p.name for p in tmp_path.iterdir()))
            raise OSError("disk full")

        monkeypatch.setattr(learn.json, "dumps", fail)
        with pytest.raises(OSError, match="disk full"):
            save_model(model, path)
        # the temporary file is named for this process, and removed
        assert seen == ["model.json", f"model.json.tmp.{os.getpid()}"]
        assert [p.name for p in tmp_path.iterdir()] == ["model.json"]
        assert path.read_bytes() == before

    def test_corrupt_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ModelFormatError):
            load_model(path)
