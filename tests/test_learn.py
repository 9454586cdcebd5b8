import json
import logging
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from peduncleseg import (FeatureMatrix, KernelSpec, ModelFormatError,
                         TrainConfig, TrainingError, decision_scores,
                         load_model, predict_parallel, save_model, train_svm)
from peduncleseg import learn
from peduncleseg.learn import SV_EPS, _GRAM_BLOCK, _gram


def matrix(values, labels):
    values = np.asarray(values, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int8)
    return FeatureMatrix(values, labels, np.ones(len(values), dtype=bool))


def random_problem(rng, n=16, d=4, kernel=None):
    x = rng.normal(size=(n, d))
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
    """Kernel matrix in one whole-matrix expression; the reference for _gram."""
    if kernel.kind == "linear":
        return x @ x.T
    sq = np.einsum("ij,ij->i", x, x)
    d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * (x @ x.T), 0.0)
    return np.exp(-kernel.gamma * d2)


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
# iteration, K and Q both held, the gradient itself kept.  train_svm must
# reproduce it bit for bit.  It also counts swaps: rows that an update moved
# from one index set to the other, out of the first and into the second.
# ---------------------------------------------------------------------------

def reference_smo(xs, y, kernel, c, tol, max_passes):
    k = _gram(xs, kernel)
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
    # n is never a multiple of the mirror block, and spans several blocks
    @pytest.mark.parametrize("kernel, n, c, max_passes, converges", [
        (KernelSpec("linear", None), 2 * _GRAM_BLOCK + 45, 1.0, 50, True),
        (KernelSpec("rbf", 0.2), _GRAM_BLOCK + 101, 10.0, 50, True),
        (KernelSpec("rbf", 0.05), 2 * _GRAM_BLOCK + 3, 100.0, 1, False),
    ])
    def test_bit_identical(self, rng, kernel, n, c, max_passes, converges):
        x = rng.normal(size=(n, 5))
        labels = (x[:, 0] + 0.5 * rng.normal(size=n) > 0).astype(np.int8)
        config = TrainConfig(kernel=kernel, c=c, tolerance=1e-3,
                             max_passes=max_passes)
        _alpha, converged, _swaps = assert_matches_reference(x, labels,
                                                             config)
        assert converged is converges

    # small C: duals jump from 0 straight to C, so rows swap index sets.
    # With the linear problem every reference dual ends at 0 or C, so the
    # bias comes from the up / low fallback, not from free support vectors
    @pytest.mark.parametrize("kernel, seed, n, c, fallback", [
        (KernelSpec("linear", None), 1, 20, 0.01, True),
        (KernelSpec("rbf", 0.5), 0, 150, 1.0, False),
    ])
    def test_bit_identical_at_the_box(self, kernel, seed, n, c, fallback):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, 5))
        labels = (x[:, 0] + 0.5 * rng.normal(size=n) > 0).astype(np.int8)
        config = TrainConfig(kernel=kernel, c=c, tolerance=1e-3,
                             max_passes=50)
        alpha, converged, swaps = assert_matches_reference(x, labels, config)
        assert converged
        assert swaps > 0
        assert np.any(alpha == c)
        free = (alpha > SV_EPS) & (alpha < c - SV_EPS)
        assert bool(free.any()) is not fallback


class LowerOff(np.ndarray):
    """Rows whose product x @ x.T is rounded apart below the diagonal, as a
    general matrix product may return it."""

    def __matmul__(self, other):
        prod = np.asarray(self) @ np.asarray(other)
        prod[np.tril_indices(len(prod), -1)] *= 1.0 + 1e-12
        return prod


class TestGram:
    kernels = [KernelSpec("linear", None), KernelSpec("rbf", 0.3)]

    @pytest.mark.parametrize("kernel", kernels)
    @pytest.mark.parametrize("n", [1, 7, 2 * _GRAM_BLOCK + 13])
    def test_exactly_symmetric(self, rng, kernel, n):
        x = rng.normal(size=(n, 9))
        k = _gram(x, kernel)
        assert k.shape == (n, n)
        assert np.array_equal(k, k.T)
        # the upper triangle is the whole-matrix expression, value for value
        iu = np.triu_indices(n)
        assert np.array_equal(k[iu], gram(x, kernel)[iu])

    @pytest.mark.parametrize("kernel", kernels)
    def test_symmetric_whatever_the_product(self, rng, kernel):
        x = rng.normal(size=(2 * _GRAM_BLOCK + 13, 9))
        k = _gram(x.view(LowerOff), kernel)
        assert np.array_equal(k, k.T)
        assert np.array_equal(k, _gram(x, kernel))

    @pytest.mark.parametrize("kernel", kernels)
    def test_training_holds_one_matrix(self, kernel):
        rng = np.random.default_rng(7)
        n = 2001
        x = rng.normal(size=(n, 8))
        labels = (x[:, 0] > 0).astype(np.int8)
        fm = matrix(x, labels)
        config = TrainConfig(kernel=kernel, c=1.0, max_passes=1)
        tracemalloc.start()
        try:
            train_svm(fm, config)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one n x n float64 matrix plus O(block * n); K and Q side by side
        # would already be 2 n^2 * 8 bytes
        assert peak < 2 * n * n * 8


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

    def test_silent_when_converged(self, rng, caplog):
        fm, config = random_problem(rng, n=20)
        with caplog.at_level(logging.WARNING, logger="peduncleseg"):
            model = train_svm(fm, config)
        assert model.meta["converged"]
        assert not [r for r in caplog.records if r.levelno >= logging.WARNING]


class TestClosedFormTwoPoint:
    def test_two_point_max_margin(self):
        fm = matrix([[0.0], [1.0]], [0, 1])
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
    xor_x = [[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]]
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
        fm = matrix(np.vstack([pos, neg]), [1] * 20 + [0] * 20)
        model = train_svm(fm, TrainConfig(kernel=KernelSpec("linear", None),
                                          c=100.0))
        labels, scores, _t = predict_parallel(model, fm)
        assert np.array_equal(labels, fm.labels)
        assert (scores[:20] > 0).all() and (scores[20:] < 0).all()


class TestTrainingValidation:
    def test_single_class_rejected(self, rng):
        fm = matrix(rng.normal(size=(8, 3)), [1] * 8)
        with pytest.raises(TrainingError):
            train_svm(fm, TrainConfig())

    def test_unlabelled_rows_rejected(self, rng):
        fm = matrix(rng.normal(size=(8, 3)), [0, 1, 0, 1, -1, 1, 0, 1])
        with pytest.raises(TrainingError):
            train_svm(fm, TrainConfig())

    def test_invalid_rows_rejected(self, rng):
        fm = matrix(rng.normal(size=(8, 3)), [0, 1] * 4)
        fm.valid[3] = False
        with pytest.raises(TrainingError):
            train_svm(fm, TrainConfig())

    def test_non_finite_rejected(self, rng):
        values = rng.normal(size=(8, 3))
        values[2, 1] = np.nan
        fm = matrix(values, [0, 1] * 4)
        with pytest.raises(TrainingError):
            train_svm(fm, TrainConfig())

    def test_matrix_beyond_physical_memory_rejected(self, rng, monkeypatch):
        n = 12
        fm = matrix(rng.normal(size=(n, 3)), [0, 1] * 6)
        monkeypatch.setattr(learn, "_physical_memory_bytes",
                            lambda: 8 * n * n - 1)
        with pytest.raises(TrainingError) as exc:
            train_svm(fm, TrainConfig())
        message = str(exc.value)
        assert f"{n} rows" in message and f"{8 * n * n} bytes" in message
        assert "max_train_rows" in message
        # a matrix that exactly fits trains
        monkeypatch.setattr(learn, "_physical_memory_bytes", lambda: 8 * n * n)
        assert train_svm(fm, TrainConfig()).meta["train_rows"] == n

    def test_constant_columns_handled(self, rng):
        values = rng.normal(size=(12, 3))
        values[:, 1] = 7.5   # constant dim must scale to 0, not NaN
        labels = np.array([0, 1] * 6, dtype=np.int8)
        values[labels == 1, 0] += 5.0
        model = train_svm(matrix(values, labels), TrainConfig())
        assert model.scaling.std[1] == 0.0
        scores = decision_scores(model, values)
        assert np.all(np.isfinite(scores))

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
        x = rng.normal(size=(n, d))
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
            decision_scores(model, np.zeros((4, 5)))


class TestModelFile:
    def test_round_trip_scores_identical(self, rng, tmp_path):
        x = rng.normal(size=(30, 4))
        labels = (x[:, 0] > 0).astype(np.int8)
        model = train_svm(matrix(x, labels),
                          TrainConfig(kernel=KernelSpec("rbf", 0.3), c=5.0))
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
        x = rng.normal(size=(10, 2))
        model = train_svm(matrix(x, [0, 1] * 5), TrainConfig())
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        for key in ("schema_version", "kernel", "gamma", "c", "scaling",
                    "support_vectors", "dual_coefs", "bias", "meta"):
            assert key in doc
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
    ])
    def test_schema_violations_rejected(self, rng, tmp_path, mutate):
        x = rng.normal(size=(10, 2))
        model = train_svm(matrix(x, [0, 1] * 5), TrainConfig())
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        mutate(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_corrupt_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ModelFormatError):
            load_model(path)
