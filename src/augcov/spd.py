"""Linear-algebra kernel for the manifold of symmetric positive definite
matrices: affine-invariant distance, Frechet (geometric) mean, Exp/Log maps
and symmetric matrix functions.

Matrices travel as (n, k, k) stacks (SpdStack), checked once on
construction; SpdMatrix is the one-matrix case. The hot paths share one
batched step, _spectral: whiten a stack by a reference's inverse square
root, take one stacked eigendecomposition and apply f to the eigenvalues.
Outputs are symmetrized, which damps the eigensolver's asymmetry drift.
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
    """Symmetric part of a matrix, or of every matrix of a stack."""
    out = m + np.swapaxes(m, -1, -2)
    out *= 0.5
    return out


def _validated(values, what: str, positive: bool = True) -> np.ndarray:
    """Check an (n, k, k) stack once; return it, symmetrized if need be.

    NotSymmetric when a matrix has |M - M^T|_F > SYM_RTOL * |M|_F; with
    positive set, NotSPD unless lambda_min > EPS_SPD * lambda_max. A "{i}"
    in `what` names the first bad matrix in the message.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 3 or values.shape[1] != values.shape[2]:
        raise NotSymmetric(f"{what} must be square, got shape {values.shape[1:]}")
    if not np.array_equal(values, np.swapaxes(values, 1, 2)):
        scale = np.linalg.norm(values, axis=(1, 2))
        asym = np.linalg.norm(values - np.swapaxes(values, 1, 2), axis=(1, 2))
        for i in np.flatnonzero(~(asym <= SYM_RTOL * np.maximum(scale, 1e-300)))[:1]:
            raise NotSymmetric(
                f"{what.format(i=i)} is asymmetric: |M - M^T|_F = {asym[i]:.3e} "
                f"exceeds {SYM_RTOL:g} * |M|_F = {SYM_RTOL * scale[i]:.3e}"
            )
        values = sym(values)
    if positive and len(values):
        w = np.linalg.eigvalsh(values)
        for i in np.flatnonzero((w[:, -1] <= 0.0) | (w[:, 0] <= EPS_SPD * w[:, -1]))[:1]:
            raise NotSPD(
                f"{what.format(i=i)} is not positive definite: eigenvalue range "
                f"[{w[i, 0]:.3e}, {w[i, -1]:.3e}] fails lambda_min > {EPS_SPD:g} * "
                f"lambda_max; consider shrinkage for rank-deficient covariances"
            )
    return values


def _filled(obj, values):
    """obj of a frozen matrix type around checked values, made read-only."""
    values.setflags(write=False)
    object.__setattr__(obj, "values", values)
    object.__setattr__(obj, "dim", values.shape[-1])
    return obj


@dataclass(frozen=True)
class SpdMatrix:
    """A validated symmetric positive definite matrix: the one-matrix case
    of SpdStack, with the same check. A mere positive semi-definite matrix
    never sneaks onto the manifold."""

    values: np.ndarray
    dim: int = field(init=False)

    def __post_init__(self):
        _filled(self, _validated(np.array(self.values, dtype=float)[None], "SpdMatrix input")[0])


@dataclass(frozen=True)
class SpdStack:
    """n SPD matrices of one size as one read-only (n, k, k) array, checked
    once. A float64 array is held without a copy and made read-only, so a
    stack costs its size once. An integer index gives an SpdMatrix view, an
    index array or mask a sub-stack; iterating yields SpdMatrix items."""

    values: np.ndarray
    dim: int = field(init=False)

    def __post_init__(self):
        _filled(self, _validated(self.values, "matrix {i} of the stack"))

    def __len__(self) -> int:
        return self.values.shape[0]

    def __getitem__(self, index):
        cls = SpdMatrix if isinstance(index, (int, np.integer)) else SpdStack
        return _filled(object.__new__(cls), self.values[index])


def as_stack(covs) -> SpdStack:
    """A non-empty SpdStack as is, or a non-empty sequence of same-size
    SpdMatrix stacked without a second check."""
    if not isinstance(covs, SpdStack):
        covs = list(covs)
        if len({c.dim for c in covs}) > 1:
            raise DimensionMismatch(f"dimensions differ: {sorted({c.dim for c in covs})}")
        if covs:
            covs = _filled(object.__new__(SpdStack), np.stack([c.values for c in covs]))
    if not len(covs):
        raise EmptyInput("need at least one matrix")
    return covs


@dataclass(frozen=True)
class TangentSymm:
    """A symmetric (possibly indefinite) matrix in a tangent space."""

    values: np.ndarray
    dim: int = field(init=False)

    def __post_init__(self):
        values = np.array(self.values, dtype=float)[None]
        _filled(self, _validated(values, "TangentSymm input", False)[0])


_SCALAR_FNS = {
    "log": np.log,
    "exp": np.exp,
    "sqrt": np.sqrt,
    "inv_sqrt": lambda w: 1.0 / np.sqrt(w),
}

_NEEDS_POSITIVE = {"log", "sqrt", "inv_sqrt"}


def _spectral(stack: np.ndarray, fn: str | None, isqrt: np.ndarray | None = None):
    """U f(Lambda) U^T of every matrix of an (n, k, k) stack, whitened first
    as isqrt @ P @ isqrt when isqrt is given, from one stacked eigh and
    symmetrized. fn=None returns the (n, k) eigenvalues instead."""
    whitened = sym(stack if isqrt is None else isqrt @ stack @ isqrt)
    if fn is None:
        return np.linalg.eigvalsh(whitened)
    w, u = np.linalg.eigh(whitened)
    del whitened  # at SPD dimension 220 every (n, k, k) temporary counts
    lo = w[:, 0].min(initial=np.inf)
    if fn in _NEEDS_POSITIVE and lo <= 0.0:
        raise NonPositiveEigenvalue(
            lo, f"matrix {fn} requires positive eigenvalues, smallest is {lo:.6e}"
        )
    return sym((u * _SCALAR_FNS[fn](w)[:, None, :]) @ np.swapaxes(u, 1, 2))


def symm_fn(m: np.ndarray, fn: str) -> np.ndarray:
    """U f(Lambda) U^T, symmetrized, for the symmetric matrix m = U Lambda U^T
    and fn one of "log", "exp", "sqrt", "inv_sqrt"."""
    if fn not in _SCALAR_FNS:
        raise ValueError(f"unknown matrix function {fn!r}")
    return _spectral(_validated(np.asarray(m)[None], "symm_fn input", positive=False), fn)[0]


def _check_dims(a, b) -> None:
    if a.dim != b.dim:
        raise DimensionMismatch(f"dimensions differ: {a.dim} vs {b.dim}")


def distances_from(reference: SpdMatrix, stack: SpdStack) -> np.ndarray:
    """Affine-invariant distance from reference to each matrix P of a stack,
    sqrt(sum_i log^2 lambda_i) over the eigenvalues of
    reference^{-1/2} P reference^{-1/2}."""
    _check_dims(reference, stack)
    w = _spectral(stack.values, None, symm_fn(reference.values, "inv_sqrt"))
    return np.sqrt(np.sum(np.log(w) ** 2, axis=1))


def affine_invariant_distance(p1: SpdMatrix, p2: SpdMatrix) -> float:
    """Geodesic distance between two SPD matrices: distances_from for one pair."""
    return float(distances_from(p1, as_stack([p2]))[0])


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
    mats,
    tol: float = DEFAULT_MEAN_TOL,
    max_iter: int = DEFAULT_MEAN_MAX_ITER,
) -> SpdMatrix:
    """Geometric mean of an SpdStack (or a sequence of SpdMatrix) by
    fixed-point iteration P <- Exp_P(mean_i Log_P(P_i)).

    Initialized at the arithmetic mean (always SPD). Stops when the Frobenius
    norm of the tangent mean drops below tol, so the gradient condition
    |sum_i Log_P(P_i)|_F / m < tol holds at the returned point. Exhausting
    max_iter raises NoConvergence rather than silently returning a bad mean.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    stack = as_stack(mats)
    if len(stack) == 1:
        return stack[0]

    current = SpdMatrix(stack.values.mean(axis=0))
    for iteration in range(max_iter + 1):
        p_sqrt, p_isqrt = _whitening_pair(current)
        whitened_mean = sym(_spectral(stack.values, "log", p_isqrt).mean(axis=0))
        tangent_mean = p_sqrt @ whitened_mean @ p_sqrt
        residual = float(np.linalg.norm(tangent_mean))
        if residual < tol:
            return current
        if iteration == max_iter:
            raise NoConvergence(current, residual)
        current = SpdMatrix(sym(p_sqrt @ symm_fn(whitened_mean, "exp") @ p_sqrt))
