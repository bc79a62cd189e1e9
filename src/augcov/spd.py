"""Linear-algebra kernel for the manifold of symmetric positive definite
matrices: affine-invariant distance, Frechet (geometric) mean, Exp/Log maps
and symmetric matrix functions.

All operations are pure functions of immutable inputs. Matrix functions go
through one symmetric eigendecomposition and symmetrize their output, which
damps the eigensolver's asymmetry drift.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyInput,
    NoConvergence,
    NonPositiveEigenvalue,
    NotSPD,
    NotSymmetric,
)

# Relative eigenvalue floor separating "positive definite" from merely
# positive semi-definite input.
EPS_SPD = 1e-10

# Relative Frobenius asymmetry accepted before construction fails.
SYM_RTOL = 1e-10

DEFAULT_MEAN_TOL = 1e-8
DEFAULT_MEAN_MAX_ITER = 50


def sym(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)


def _check_symmetric(values: np.ndarray, what: str) -> None:
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        raise NotSymmetric(f"{what} must be a square matrix, got shape {values.shape}")
    scale = np.linalg.norm(values)
    asym = np.linalg.norm(values - values.T)
    if asym > SYM_RTOL * max(scale, 1e-300):
        raise NotSymmetric(
            f"{what} is asymmetric: |M - M^T|_F = {asym:.3e} exceeds "
            f"{SYM_RTOL:g} * |M|_F = {SYM_RTOL * scale:.3e}"
        )


def _frozen_array(values) -> np.ndarray:
    out = np.array(values, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class SpdMatrix:
    """A validated symmetric positive definite matrix.

    Construction symmetrizes the input and rejects it when the smallest
    eigenvalue does not exceed EPS_SPD times the largest one, so a mere
    positive semi-definite matrix never sneaks onto the manifold.
    """

    values: np.ndarray
    dim: int = field(init=False)

    def __post_init__(self):
        _check_symmetric(np.asarray(self.values, dtype=float), "SpdMatrix input")
        values = _frozen_array(sym(np.asarray(self.values, dtype=float)))
        eigvals = np.linalg.eigvalsh(values)
        lo, hi = eigvals[0], eigvals[-1]
        if hi <= 0.0 or lo <= EPS_SPD * hi:
            raise NotSPD(
                f"matrix is not positive definite: eigenvalue range "
                f"[{lo:.3e}, {hi:.3e}] fails lambda_min > {EPS_SPD:g} * lambda_max; "
                f"consider shrinkage for rank-deficient covariances"
            )
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "dim", values.shape[0])


@dataclass(frozen=True)
class TangentSymm:
    """A symmetric (possibly indefinite) matrix in a tangent space."""

    values: np.ndarray
    dim: int = field(init=False)

    def __post_init__(self):
        _check_symmetric(np.asarray(self.values, dtype=float), "TangentSymm input")
        values = _frozen_array(sym(np.asarray(self.values, dtype=float)))
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "dim", values.shape[0])


_SCALAR_FNS = {
    "log": np.log,
    "exp": np.exp,
    "sqrt": np.sqrt,
    "inv_sqrt": lambda w: 1.0 / np.sqrt(w),
}

_NEEDS_POSITIVE = {"log", "sqrt", "inv_sqrt"}


def symm_fn(m: np.ndarray, fn: str) -> np.ndarray:
    """Apply a scalar function to a symmetric matrix through its spectrum.

    Parameters
    ----------
    m : ndarray
        Symmetric matrix.
    fn : str
        One of "log", "exp", "sqrt", "inv_sqrt".

    Returns
    -------
    ndarray
        U f(Lambda) U^T from the eigendecomposition m = U Lambda U^T,
        symmetrized.
    """
    if fn not in _SCALAR_FNS:
        raise ValueError(f"unknown matrix function {fn!r}")
    m = np.asarray(m, dtype=float)
    _check_symmetric(m, "symm_fn input")
    w, u = np.linalg.eigh(sym(m))
    if fn in _NEEDS_POSITIVE and w[0] <= 0.0:
        raise NonPositiveEigenvalue(
            w[0], f"matrix {fn} requires positive eigenvalues, smallest is {w[0]:.6e}"
        )
    return sym((u * _SCALAR_FNS[fn](w)) @ u.T)


def _check_dims(a: SpdMatrix, b) -> None:
    if a.dim != b.dim:
        raise DimensionMismatch(f"dimensions differ: {a.dim} vs {b.dim}")


def affine_invariant_distance(p1: SpdMatrix, p2: SpdMatrix) -> float:
    """Geodesic distance sqrt(sum_i log^2 lambda_i), with lambda_i the
    eigenvalues of p1^{-1/2} p2 p1^{-1/2}.

    Solved as the generalized symmetric eigenproblem p2 v = lambda p1 v,
    which has the same spectrum.
    """
    import scipy.linalg  # most of `import augcov`; only this solve needs it

    _check_dims(p1, p2)
    w = scipy.linalg.eigh(p2.values, p1.values, eigvals_only=True)
    return float(np.sqrt(np.sum(np.log(w) ** 2)))


def _whitening_pair(p: SpdMatrix):
    """Return (p^{1/2}, p^{-1/2}) from one eigendecomposition."""
    w, u = np.linalg.eigh(p.values)
    sq = np.sqrt(w)
    return sym((u * sq) @ u.T), sym((u / sq) @ u.T)


def log_map(p: SpdMatrix, pi: SpdMatrix) -> TangentSymm:
    """Riemannian Log map of pi at reference p:
    p^{1/2} Log(p^{-1/2} pi p^{-1/2}) p^{1/2}."""
    _check_dims(p, pi)
    p_sqrt, p_isqrt = _whitening_pair(p)
    inner = symm_fn(p_isqrt @ pi.values @ p_isqrt, "log")
    return TangentSymm(sym(p_sqrt @ inner @ p_sqrt))


def exp_map(p: SpdMatrix, si: TangentSymm) -> SpdMatrix:
    """Riemannian Exp map of tangent vector si at reference p:
    p^{1/2} Exp(p^{-1/2} si p^{-1/2}) p^{1/2}. Always lands on the manifold."""
    _check_dims(p, si)
    p_sqrt, p_isqrt = _whitening_pair(p)
    inner = symm_fn(p_isqrt @ si.values @ p_isqrt, "exp")
    return SpdMatrix(sym(p_sqrt @ inner @ p_sqrt))


def frechet_mean(
    mats: list[SpdMatrix],
    tol: float = DEFAULT_MEAN_TOL,
    max_iter: int = DEFAULT_MEAN_MAX_ITER,
) -> SpdMatrix:
    """Geometric mean by fixed-point iteration P <- Exp_P(mean_i Log_P(P_i)).

    Initialized at the arithmetic mean (always SPD). Stops when the Frobenius
    norm of the tangent mean drops below tol, so the gradient condition
    |sum_i Log_P(P_i)|_F / m < tol holds at the returned point. Exhausting
    max_iter raises NoConvergence rather than silently returning a bad mean.
    """
    if not mats:
        raise EmptyInput("frechet_mean needs at least one matrix")
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    dim = mats[0].dim
    for m in mats[1:]:
        if m.dim != dim:
            raise DimensionMismatch(f"dimensions differ: {dim} vs {m.dim}")
    if len(mats) == 1:
        return mats[0]

    stack = np.stack([m.values for m in mats])
    current = SpdMatrix(stack.mean(axis=0))
    for iteration in range(max_iter + 1):
        p_sqrt, p_isqrt = _whitening_pair(current)
        whitened_mean = sym(
            np.mean([symm_fn(p_isqrt @ v @ p_isqrt, "log") for v in stack], axis=0)
        )
        tangent_mean = p_sqrt @ whitened_mean @ p_sqrt
        residual = float(np.linalg.norm(tangent_mean))
        if residual < tol:
            return current
        if iteration == max_iter:
            raise NoConvergence(current, residual)
        current = SpdMatrix(sym(p_sqrt @ symm_fn(whitened_mean, "exp") @ p_sqrt))
