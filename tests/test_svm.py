import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from augcov.errors import EmptyClass, InvalidSetting, LengthMismatch, SolverStall
from augcov.svm import (
    KKT_TOL,
    MAX_SMO_ITER,
    _kernel_matrix,
    _smo,
    default_gamma,
    svm_decision,
    svm_fit,
    svm_predict,
)


def _violating_sets(alpha, y, c):
    up = ((y > 0) & (alpha < c)) | ((y < 0) & (alpha > 0))
    low = ((y < 0) & (alpha < c)) | ((y > 0) & (alpha > 0))
    return up, low


def reference_smo(kernel_mat, y, c, tol=KKT_TOL, max_iter=MAX_SMO_ITER):
    """The looped SMO that rebuilds the up/low masks every step: the reference
    `_smo` must match bit for bit. Returns (alpha, bias, residual, iterations)."""
    n = y.size
    alpha = np.zeros(n)
    grad = -np.ones(n)
    residual = np.inf

    for iterations in range(max_iter):
        yg = -y * grad
        up, low = _violating_sets(alpha, y, c)
        if not up.any() or not low.any():
            residual = 0.0
            break
        i = int(np.argmax(np.where(up, yg, -np.inf)))
        j = int(np.argmin(np.where(low, yg, np.inf)))
        residual = float(yg[i] - yg[j])
        if residual < tol:
            break

        curvature = max(kernel_mat[i, i] + kernel_mat[j, j] - 2.0 * kernel_mat[i, j],
                        1e-12)
        # step t moves alpha_i by +y_i t and alpha_j by -y_j t, preserving y'a
        t_hi = min(
            c - alpha[i] if y[i] > 0 else alpha[i],
            alpha[j] if y[j] > 0 else c - alpha[j],
        )
        step = min(residual / curvature, t_hi)
        if step <= 0.0:
            break
        alpha[i] += y[i] * step
        alpha[j] -= y[j] * step
        grad += y * step * (kernel_mat[:, i] - kernel_mat[:, j])
    else:
        yg = -y * grad
        up, low = _violating_sets(alpha, y, c)
        raise SolverStall(float(np.max(np.where(up, yg, -np.inf))
                                - np.min(np.where(low, yg, np.inf))))

    yg = -y * grad
    free = (alpha > 1e-12) & (alpha < c - 1e-12)
    if free.any():
        bias = float(np.mean(yg[free]))
    else:
        up, low = _violating_sets(alpha, y, c)
        hi = np.max(np.where(up, yg, -np.inf)) if up.any() else 0.0
        lo = np.min(np.where(low, yg, np.inf)) if low.any() else 0.0
        bias = float(0.5 * (hi + lo))
    return alpha, bias, max(residual, 0.0), iterations


def smo_problem(seed, n, kernel, shift, n_dup):
    """Two overlapping classes (means `shift` apart) with `n_dup` repeated
    rows, so that equal violations make pair selection break ties."""
    rng = np.random.default_rng(seed)
    y = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    rng.shuffle(y)
    x = rng.standard_normal((n, 3)) + shift * y[:, None]
    n_dup = min(n_dup, n // 2)
    x[n - n_dup:] = x[:n_dup]
    y[n - n_dup:] = y[:n_dup]
    if np.all(y == y[0]):
        y[0] = -y[0]
    gamma = default_gamma(x) if kernel == "rbf" else None
    return _kernel_matrix(kernel, gamma, x, x), y


class TestSmoEqualsReference:
    """The in-place working-set bookkeeping against the looped reference."""

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 80),
           kernel=st.sampled_from(["linear", "rbf"]),
           c=st.sampled_from([0.5, 1.0, 1.5, 1e3]),
           shift=st.sampled_from([0.0, 0.3, 1.0]), n_dup=st.integers(0, 20))
    @settings(max_examples=80, deadline=None)
    def test_bit_identical(self, seed, n, kernel, c, shift, n_dup):
        # a linear kernel on overlapping classes at C = 1e3 can stall; the cap
        # bounds the reference's run time and compares the stall too
        max_iter = 3000
        kernel_mat, y = smo_problem(seed, n, kernel, shift, n_dup)
        try:
            want = reference_smo(kernel_mat, y, c, max_iter=max_iter)
        except SolverStall as stall:
            with pytest.raises(SolverStall) as got:
                _smo(kernel_mat, y, c, max_iter=max_iter)
            assert got.value.kkt_residual == stall.kkt_residual
            return
        alpha, bias, residual, iterations = _smo(kernel_mat, y, c, max_iter=max_iter)
        assert np.array_equal(alpha, want[0])
        assert (bias, residual, iterations) == want[1:]

    @pytest.mark.parametrize("max_iter", [0, 1, 3])
    def test_stall_residual(self, max_iter):
        kernel_mat, y = smo_problem(1, 60, "rbf", 0.3, 10)
        with pytest.raises(SolverStall) as want:
            reference_smo(kernel_mat, y, 1e3, max_iter=max_iter)
        with pytest.raises(SolverStall) as got:
            _smo(kernel_mat, y, 1e3, max_iter=max_iter)
        assert got.value.kkt_residual == want.value.kkt_residual

    def test_machine_reports_iterations(self):
        rng = np.random.default_rng(37)
        x = rng.standard_normal((40, 3))
        y = np.where(x[:, 0] + rng.standard_normal(40) > 0, 1.0, -1.0)
        machine = svm_fit(x, y, c=1.0).machines[0]
        *_, iterations = reference_smo(_kernel_matrix("linear", None, x, x), y, 1.0)
        assert machine.iterations == iterations > 0


class TestBinary:
    def test_two_points_boundary_at_midpoint(self):
        x = np.array([[-1.0], [1.0]])
        y = np.array([0, 1])
        model = svm_fit(x, y, c=1.0, kernel="linear")
        assert svm_decision(model, np.array([[0.0]]))[0] == pytest.approx(0.0, abs=1e-9)
        assert list(svm_predict(model, x)) == [0, 1]
        # maximal margin on two points: f(+-1) = +-1
        assert svm_decision(model, x) == pytest.approx([-1.0, 1.0], abs=1e-2)

    def test_xor_with_rbf(self):
        x = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
        y = np.array([0, 0, 1, 1])
        model = svm_fit(x, y, c=1.5, kernel="rbf")
        assert list(svm_predict(model, x)) == list(y)

    def test_separable_blobs_perfect_margin(self):
        rng = np.random.default_rng(30)
        a = rng.standard_normal((50, 3)) * 0.3 + np.array([2.0, 0.0, 0.0])
        b = rng.standard_normal((50, 3)) * 0.3 + np.array([-2.0, 0.0, 0.0])
        x = np.vstack([a, b])
        y = np.array([1] * 50 + [0] * 50)
        model = svm_fit(x, y, c=1.0, kernel="linear")
        assert np.all(svm_predict(model, x) == y)
        scores = svm_decision(model, x)
        margin = min(scores[y == 1].min(), -scores[y == 0].max())
        assert margin > 0.0

    def test_kkt_residual_below_tolerance(self):
        rng = np.random.default_rng(31)
        x = rng.standard_normal((60, 4))
        y = (x[:, 0] + 0.3 * rng.standard_normal(60) > 0).astype(int)
        model = svm_fit(x, y, c=1.0, kernel="rbf")
        machine = model.machines[0]
        assert machine.kkt_residual < KKT_TOL

    def test_dual_coefficients_bounded_by_c(self):
        rng = np.random.default_rng(32)
        x = rng.standard_normal((40, 2))
        y = (rng.random(40) > 0.5).astype(int)
        if len(set(y.tolist())) < 2:
            y[0] = 1 - y[0]
        c = 0.5
        model = svm_fit(x, y, c=c, kernel="linear")
        assert np.all(np.abs(model.machines[0].dual_coef) <= c + 1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(33)
        x = rng.standard_normal((80, 3))
        y = (x[:, 1] > 0.2).astype(int)
        m1 = svm_fit(x, y, c=1.5, kernel="rbf")
        m2 = svm_fit(x, y, c=1.5, kernel="rbf")
        assert np.array_equal(m1.machines[0].support_vectors, m2.machines[0].support_vectors)
        assert np.array_equal(m1.machines[0].dual_coef, m2.machines[0].dual_coef)
        assert m1.machines[0].bias == m2.machines[0].bias

    def test_single_class_rejected(self):
        with pytest.raises(EmptyClass):
            svm_fit(np.zeros((3, 2)), np.array([1, 1, 1]))

    def test_label_count_mismatch_rejected(self):
        # the error the classifiers above raise for the same fault
        with pytest.raises(LengthMismatch, match="3 labels for 4 samples"):
            svm_fit(np.eye(4), [0, 1, 0])

    @pytest.mark.parametrize("c", [0.0, -1.0, np.nan, np.inf])
    def test_invalid_c_rejected(self, c):
        x = np.array([[-1.0], [1.0]])
        with pytest.raises(InvalidSetting, match="C must be"):
            svm_fit(x, np.array([0, 1]), c=c)

    def test_unknown_kernel_rejected(self):
        with pytest.raises(InvalidSetting, match="unknown SVM kernel 'poly'"):
            svm_fit(np.eye(4), np.array([0, 1, 0, 1]), kernel="poly")


class TestMultiClass:
    def test_three_blobs_one_vs_rest(self):
        rng = np.random.default_rng(34)
        centers = np.array([[3.0, 0.0], [-3.0, 0.0], [0.0, 3.0]])
        x = np.vstack([rng.standard_normal((30, 2)) * 0.4 + c for c in centers])
        y = np.repeat([0, 1, 2], 30)
        model = svm_fit(x, y, c=1.0, kernel="linear")
        assert not model.is_binary
        assert np.mean(svm_predict(model, x) == y) == 1.0
        assert svm_decision(model, x).shape == (90, 3)

    @pytest.mark.parametrize("kernel", ["linear", "rbf"])
    def test_machines_equal_separate_binary_fits(self, kernel):
        """One shared kernel matrix gives the machines that a binary fit of
        each class against the rest, with its own kernel matrix, gives."""
        rng = np.random.default_rng(36)
        centers = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        x = np.vstack([rng.standard_normal((20, 2)) + c for c in centers])
        y = np.repeat([0, 1, 2], 20)
        model = svm_fit(x, y, c=1.5, kernel=kernel)
        for cls, machine in zip((0, 1, 2), model.machines):
            alone = svm_fit(x, (y == cls).astype(int), c=1.5, kernel=kernel).machines[0]
            assert machine.iterations > 0
            for field in ("kernel", "gamma", "bias", "kkt_residual", "iterations"):
                assert getattr(machine, field) == getattr(alone, field)
            for field in ("support_vectors", "dual_coef"):
                assert np.array_equal(getattr(machine, field), getattr(alone, field))

    def test_default_gamma_scale(self):
        rng = np.random.default_rng(35)
        feats = rng.standard_normal((50, 4)) * 2.0
        expected = 1.0 / (4 * feats.var())
        assert default_gamma(feats) == pytest.approx(expected)
