"""Linear-algebra kernel for the manifold of symmetric positive definite
matrices: affine-invariant distance, Frechet (geometric) mean, batched Log
coordinates at a reference and symmetric matrix functions.

Matrices travel as (n, k, k) stacks (SpdStack), checked once on
construction; SpdMatrix is the one-matrix case. The hot paths share one
batched step, _spectral: whiten a stack by a reference's inverse square
root, take one stacked eigendecomposition and apply f to the eigenvalues.
Outputs are symmetrized, which damps the eigensolver's asymmetry drift.

Memory model: one walk, _blocks, reads a stack in consecutive blocks of at
most SPD_BLOCK_BYTES of matrices and applies _spectral to each. Its three
consumers, the Frechet mean (_mean), the distances (distances_from) and the
Log coordinates (log_coordinates), hold the live stack plus one block's
working set (about four block-sized arrays) and small per-call matrices,
whatever n is; the coordinates fill one preallocated row matrix. A class
mean reads its rows block by block instead of copying them out. The walk
changes no result: per-matrix steps do not depend on the block, and sums
add one matrix at a time in stack order, as numpy's axis-0 sum does.
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

# Bytes of matrices per block of the stack walks below (at least one
# matrix): one matrix of size 91 or more, up to 455 matrices of size 6.
SPD_BLOCK_BYTES = 1 << 17

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


_SCALAR_FNS = {
    "log": np.log,
    "exp": np.exp,
    "sqrt": np.sqrt,
    "inv_sqrt": lambda w: 1.0 / np.sqrt(w),
}

# fn None stands for the eigenvalues themselves, whose logs give a distance.
_NEEDS_POSITIVE = {None, "log", "sqrt", "inv_sqrt"}


def _spectral(stack: np.ndarray, fn: str | None, isqrt: np.ndarray | None = None):
    """U f(Lambda) U^T of every matrix of an (n, k, k) stack, whitened first
    as isqrt @ P @ isqrt when isqrt is given, from one stacked eigh and
    symmetrized. fn=None returns the (n, k) eigenvalues instead. For every
    fn but "exp", an eigenvalue at or below zero raises NonPositiveEigenvalue."""
    whitened = sym(stack if isqrt is None else isqrt @ stack @ isqrt)
    if fn is None:
        w = np.linalg.eigvalsh(whitened)
    else:
        w, u = np.linalg.eigh(whitened)
    del whitened  # one block fewer under the reconstruction's temporaries
    lo = w[:, 0].min(initial=np.inf)
    if fn in _NEEDS_POSITIVE and lo <= 0.0:
        what = "the affine-invariant distance" if fn is None else f"matrix {fn}"
        raise NonPositiveEigenvalue(
            lo, f"{what} requires positive eigenvalues, smallest is {lo:.6e}"
        )
    if fn is None:
        return w
    return sym((u * _SCALAR_FNS[fn](w)[:, None, :]) @ np.swapaxes(u, 1, 2))


def _blocks(values: np.ndarray, rows=None, spectral: tuple | None = None):
    """The one stack walk: the matrices values[rows] (all of them when rows
    is None), in order, in consecutive blocks of at most SPD_BLOCK_BYTES and
    at least one matrix; an empty selection is one empty block. Yields
    (out, block) per block, out being the slice of the block's matrices in
    the walk's output. With spectral = (fn, isqrt), block is
    _spectral(block, fn, isqrt), else the matrices themselves: views of the
    whole stack, or a copy of one block of rows."""
    step = max(1, SPD_BLOCK_BYTES // (values.itemsize * values.shape[-1] ** 2))
    count = len(values) if rows is None else len(rows)
    for start in range(0, max(count, 1), step):
        out = slice(start, start + step)
        block = values[out] if rows is None else values[rows[out]]
        yield out, block if spectral is None else _spectral(block, *spectral)


def _mean(values: np.ndarray, rows=None, spectral: tuple | None = None) -> np.ndarray:
    """Mean over the matrices of values[rows] of what _blocks yields for
    them. The sum adds one matrix at a time in order, as numpy's axis-0 sum
    does, so it equals the mean of the whole stack bit for bit."""
    total = None
    for _, block in _blocks(values, rows, spectral):
        if total is not None:
            block = np.concatenate([total[None], block])
        total = block.sum(axis=0)
    return total / (len(values) if rows is None else len(rows))


def symm_fn(m: np.ndarray, fn: str) -> np.ndarray:
    """U f(Lambda) U^T, symmetrized, for the symmetric matrix m = U Lambda U^T
    and fn one of "log", "exp", "sqrt", "inv_sqrt"."""
    if fn not in _SCALAR_FNS:
        raise ValueError(f"unknown matrix function {fn!r}")
    return _spectral(_validated(np.asarray(m)[None], "symm_fn input", positive=False), fn)[0]


def distances_from(reference: SpdMatrix, stack: SpdStack) -> np.ndarray:
    """Affine-invariant distance from reference to each matrix P of a stack,
    sqrt(sum_i log^2 lambda_i) over the eigenvalues of
    reference^{-1/2} P reference^{-1/2}."""
    if reference.dim != stack.dim:
        raise DimensionMismatch(f"dimensions differ: {reference.dim} vs {stack.dim}")
    isqrt = symm_fn(reference.values, "inv_sqrt")
    w = np.empty((len(stack), stack.dim))
    for out, eigenvalues in _blocks(stack.values, spectral=(None, isqrt)):
        w[out] = eigenvalues
    return np.sqrt(np.sum(np.log(w) ** 2, axis=1))


def log_coordinates(ref_inv_sqrt: np.ndarray, stack: SpdStack) -> np.ndarray:
    """The batched Log map at a reference, given its inverse square root:
    one row per matrix P of the stack, the upper-triangle flattening of
    Log(ref^{-1/2} P ref^{-1/2}) with off-diagonal entries scaled by
    sqrt(2), so a row's Euclidean norm is P's affine-invariant distance to
    the reference. The rows are C-contiguous (an SVM kernel sums in memory
    order, and a Fortran-ordered matrix would shift its scores) and filled
    in place, one block at a time."""
    dim = ref_inv_sqrt.shape[-1]
    if stack.dim != dim:
        raise DimensionMismatch(f"covariance dim {stack.dim} vs map dim {dim}")
    rows, cols = np.triu_indices(dim)
    weights = np.where(rows == cols, 1.0, np.sqrt(2.0))
    coords = np.empty((len(stack), rows.size))
    for out, logs in _blocks(stack.values, spectral=("log", ref_inv_sqrt)):
        coords[out] = logs[:, rows, cols] * weights
    return coords


def affine_invariant_distance(p1: SpdMatrix, p2: SpdMatrix) -> float:
    """Geodesic distance between two SPD matrices: distances_from for one pair."""
    return float(distances_from(p1, as_stack([p2]))[0])


def _whitening_pair(p: SpdMatrix):
    """Return (p^{1/2}, p^{-1/2}) from one eigendecomposition."""
    w, u = np.linalg.eigh(p.values)
    sq = np.sqrt(w)
    return sym((u * sq) @ u.T), sym((u / sq) @ u.T)


def frechet_mean(
    mats,
    tol: float = DEFAULT_MEAN_TOL,
    max_iter: int = DEFAULT_MEAN_MAX_ITER,
    rows=None,
) -> SpdMatrix:
    """Geometric mean of an SpdStack (or a sequence of SpdMatrix), or of the
    stack's matrices at the indices rows, by fixed-point iteration
    P <- Exp_P(mean_i Log_P(P_i)). Rows are read in place, never copied out
    as a sub-stack.

    Initialized at the arithmetic mean (always SPD). Stops when the Frobenius
    norm of the tangent mean drops below tol, so the gradient condition
    |sum_i Log_P(P_i)|_F / m < tol holds at the returned point. Exhausting
    max_iter raises NoConvergence rather than silently returning a bad mean.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    stack = as_stack(mats)
    count = len(stack) if rows is None else len(rows)
    if count == 0:
        raise EmptyInput("need at least one matrix")
    if count == 1:
        return stack[0 if rows is None else rows[0]]

    current = SpdMatrix(_mean(stack.values, rows))
    for iteration in range(max_iter + 1):
        p_sqrt, p_isqrt = _whitening_pair(current)
        whitened_mean = sym(_mean(stack.values, rows, ("log", p_isqrt)))
        tangent_mean = p_sqrt @ whitened_mean @ p_sqrt
        residual = float(np.linalg.norm(tangent_mean))
        if residual < tol:
            return current
        if iteration == max_iter:
            raise NoConvergence(current, residual)
        current = SpdMatrix(sym(p_sqrt @ symm_fn(whitened_mean, "exp") @ p_sqrt))
