"""Soft-margin SVM trained by sequential minimal optimization.

The working set is the maximal-violating pair (first-order selection, ties
to the lowest index), so training is fully deterministic for a given input
order. The solver keeps its working-set bookkeeping in place: the violation
yg restricted to the up set and to the low set (+-inf outside) gets one
rank-2 update per step, only the two working-pair entries are reset when
they change sets, and the set sizes are counts, so a step costs a few numpy
calls on rows of one C-contiguous copy of the kernel matrix. Multi-class
problems are handled one-vs-rest with argmax of the decision values; the
machines share one kernel matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyClass, InvalidSetting, LengthMismatch, SolverStall, check_positive

KERNELS = ("linear", "rbf")
KKT_TOL = 1e-3
MAX_SMO_ITER = 100_000


def check_settings(c, kernel) -> None:
    """The one rule of the SVM settings, for svm_fit and PipelineSpec:
    InvalidSetting unless c is finite and > 0 and kernel is in KERNELS."""
    check_positive("SVM C", c)
    if kernel not in KERNELS:
        raise InvalidSetting(f"unknown SVM kernel {kernel!r}, expected one of {KERNELS}")


def _kernel_matrix(kind: str, gamma: float | None, x: np.ndarray, z: np.ndarray) -> np.ndarray:
    if kind == "linear":
        return x @ z.T
    if kind == "rbf":
        sq = (
            np.sum(x ** 2, axis=1)[:, None]
            + np.sum(z ** 2, axis=1)[None, :]
            - 2.0 * (x @ z.T)
        )
        return np.exp(-gamma * np.maximum(sq, 0.0))


def default_gamma(features: np.ndarray) -> float:
    """1 / (n_features * feature variance), the scale-free default."""
    var = float(features.var())
    if var <= 0.0:
        var = 1.0
    return 1.0 / (features.shape[1] * var)


@dataclass(frozen=True)
class BinarySvm:
    """One trained binary machine: support vectors and dual state."""

    kernel: str
    gamma: float | None
    support_vectors: np.ndarray
    dual_coef: np.ndarray  # alpha_i * y_i for the support vectors
    bias: float
    kkt_residual: float
    iterations: int  # SMO working-pair steps

    def decision(self, features: np.ndarray) -> np.ndarray:
        k = _kernel_matrix(self.kernel, self.gamma, np.atleast_2d(features),
                           self.support_vectors)
        return k @ self.dual_coef + self.bias


@dataclass(frozen=True)
class SvmModel:
    """Binary or one-vs-rest multi-class SVM."""

    class_labels: tuple
    machines: tuple  # one BinarySvm for binary, one per class otherwise
    C: float
    kernel: str
    gamma: float | None

    @property
    def is_binary(self) -> bool:
        return len(self.class_labels) == 2


def _smo(kernel_mat: np.ndarray, y: np.ndarray, c: float, tol: float = KKT_TOL,
         max_iter: int = MAX_SMO_ITER):
    """Maximal-violating-pair SMO on the dual.

    Minimizes 0.5 a'Qa - e'a with Q_ij = y_i y_j K_ij subject to y'a = 0 and
    0 <= a <= C, for labels y in {-1, +1}. The violation yg = -y * (Qa - e)
    drives both pair selection and the stopping rule m(a) - M(a) < tol.
    Returns (alpha, bias, residual, iterations), iterations being the number
    of working-pair steps taken.
    """
    c = float(c)  # the set tests below then give Python bools, which count
    cols = np.ascontiguousarray(kernel_mat.T)  # cols[k] is column k of K
    diag = kernel_mat.diagonal().tolist()
    ys = y.tolist()
    alpha = [0.0] * y.size
    # yg starts at y (a = 0). up_yg is yg on the up set and -inf elsewhere,
    # low_yg is yg on the low set and +inf elsewhere; every index is in one
    # of the two sets, so between them they hold all of yg.
    in_up = [yk > 0 for yk in ys]
    in_low = [yk < 0 for yk in ys]
    up_yg = np.where(in_up, y, -np.inf)
    low_yg = np.where(in_low, y, np.inf)
    n_up, n_low = sum(in_up), sum(in_low)

    for iterations in range(max_iter):
        if not n_up or not n_low:
            residual = 0.0
            break
        i = int(up_yg.argmax())
        j = int(low_yg.argmin())
        residual = float(up_yg[i] - low_yg[j])
        if residual < tol:
            break

        curvature = max(diag[i] + diag[j] - 2.0 * cols.item(j, i), 1e-12)
        # step t moves alpha_i by +y_i t and alpha_j by -y_j t, preserving y'a
        ai, aj, yi, yj = alpha[i], alpha[j], ys[i], ys[j]
        t_hi = min(c - ai if yi > 0 else ai, aj if yj > 0 else c - aj)
        step = min(residual / curvature, t_hi)
        if step <= 0.0:
            break
        alpha[i] = ai + yi * step
        alpha[j] = aj - yj * step
        delta = step * (cols[i] - cols[j])
        up_yg -= delta
        low_yg -= delta
        # only the working pair can change sets: reset its two entries from
        # yg, read from a set it was in before the step
        for k in (i, j):
            ak = alpha[k]
            up, low = (ak < c, ak > 0) if ys[k] > 0 else (ak > 0, ak < c)
            yg_k = up_yg[k] if in_up[k] else low_yg[k]
            up_yg[k] = yg_k if up else -np.inf
            low_yg[k] = yg_k if low else np.inf
            n_up += up - in_up[k]
            n_low += low - in_low[k]
            in_up[k], in_low[k] = up, low
    else:
        raise SolverStall(float(up_yg.max() - low_yg.min()))

    alpha = np.array(alpha)
    free = (alpha > 1e-12) & (alpha < c - 1e-12)
    if free.any():
        bias = float(np.mean(up_yg[free]))
    else:
        hi = up_yg.max() if n_up else 0.0
        lo = low_yg.min() if n_low else 0.0
        bias = float(0.5 * (hi + lo))
    return alpha, bias, max(residual, 0.0), iterations


def _fit_binary(kernel_mat, features, y_signed, c, kernel, gamma) -> BinarySvm:
    alpha, bias, residual, iterations = _smo(kernel_mat, y_signed, c)
    sv = alpha > 1e-12
    if not sv.any():
        # degenerate but legal: the decision is the constant bias
        sv = np.zeros_like(sv)
        sv[0] = True
    return BinarySvm(
        kernel=kernel,
        gamma=gamma,
        support_vectors=features[sv].copy(),
        dual_coef=(alpha * y_signed)[sv],
        bias=bias,
        kkt_residual=residual,
        iterations=iterations,
    )


def svm_fit(
    features: np.ndarray,
    labels: np.ndarray,
    c: float = 1.0,
    kernel: str = "linear",
) -> SvmModel:
    """Train a (possibly multi-class) SVM on a feature matrix.

    The rbf kernel takes its gamma from default_gamma of the features; the
    linear one has none. Binary problems orient the decision so the larger
    label is the positive class.
    """
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels)
    if features.ndim != 2:
        raise ValueError("features must be n_samples x n_features")
    if features.shape[0] != labels.size:
        raise LengthMismatch(f"need one label per sample, got {labels.size} labels "
                             f"for {features.shape[0]} samples")
    if not np.all(np.isfinite(features)):
        raise ValueError("features contain NaN or Inf")
    classes = tuple(sorted(set(labels.tolist())))
    if len(classes) < 2:
        raise EmptyClass("need at least two classes")
    check_settings(c, kernel)
    gamma = default_gamma(features) if kernel == "rbf" else None

    # one kernel matrix serves every one-vs-rest machine
    kernel_mat = _kernel_matrix(kernel, gamma, features, features)
    positives = classes[1:] if len(classes) == 2 else classes
    machines = tuple(
        _fit_binary(kernel_mat, features, np.where(labels == cls, 1.0, -1.0), c,
                    kernel, gamma)
        for cls in positives
    )
    return SvmModel(classes, machines, c, kernel, gamma)


def svm_decision(model: SvmModel, features: np.ndarray) -> np.ndarray:
    """Signed decision value(s): shape (n,) for binary models (positive means
    the second class), (n, n_classes) one-vs-rest scores otherwise."""
    features = np.atleast_2d(np.asarray(features, dtype=float))
    if model.is_binary:
        return model.machines[0].decision(features)
    return np.stack([m.decision(features) for m in model.machines], axis=1)


def svm_predict(model: SvmModel, features: np.ndarray) -> np.ndarray:
    scores = svm_decision(model, features)
    labels = np.asarray(model.class_labels)
    if model.is_binary:
        return labels[(scores > 0).astype(int)]
    return labels[np.argmax(scores, axis=1)]
