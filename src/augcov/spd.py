"""Linear-algebra kernel for the manifold of symmetric positive definite
matrices: affine-invariant distance, Frechet (geometric) mean, batched Log
coordinates at a reference and symmetric matrix functions.

Matrices travel as (n, k, k) stacks (SpdStack), checked once on
construction; SpdMatrix is the one-matrix case. The check (the SPD gate) is
one stacked eigvalsh; SpdStack.bounded lets a caller that can bound each
matrix's spectrum, as Ledoit-Wolf shrinkage does, skip it for the matrices
whose bounds prove them positive definite by a wide margin. The hot paths
share one batched step, _spectral: whiten a stack by a factor pair
(G P G^T), take one stacked eigendecomposition and apply f to the
eigenvalues. Outputs are symmetrized, which damps the eigensolver's
asymmetry drift.

The Frechet mean is gradient descent in the whitened frame of its iterate,
with Barzilai-Borwein steps and a stop rule on the whitened gradient, so it
is affine-invariant: units (volts or microvolts) and channel mixing change
neither its steps nor its result beyond rounding. It carries the iterate's
whitening factor from step to step, so a pass costs one log
eigendecomposition per matrix plus one exp for the step, and no iterate is
decomposed or checked until the mean is returned.

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

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyInput,
    InvalidSetting,
    NoConvergence,
    NonPositiveEigenvalue,
    NotSPD,
    NotSymmetric,
    check_integer,
)

# Relative eigenvalue floor separating "positive definite" from merely
# positive semi-definite input.
EPS_SPD = 1e-10

# How far proven eigenvalue bounds must clear the EPS_SPD floor before a
# matrix may skip the gate's eigvalsh (SpdStack.bounded): room for the
# eigensolver's own rounding, of order k * 1e-16 relative, many times over.
CERTIFICATE_MARGIN = 1e3

# Relative Frobenius asymmetry accepted before construction fails.
SYM_RTOL = 1e-10

# Bytes of matrices per block of the stack walks below (at least one
# matrix): one matrix of size 91 or more, up to 455 matrices of size 6.
SPD_BLOCK_BYTES = 1 << 17

DEFAULT_MEAN_TOL = 1e-8
DEFAULT_MEAN_MAX_ITER = 50

# Longest step of the Frechet mean, in units of the whitened gradient. The
# cost's Riemannian Hessian is at least the identity on this manifold (it
# has non-positive curvature), so a longer step than 1 overshoots every
# direction; a Barzilai-Borwein quotient above it is rounding noise.
MAX_MEAN_STEP = 1.0


def sym(m: np.ndarray) -> np.ndarray:
    """Symmetric part of a matrix, or of every matrix of a stack."""
    out = m + np.swapaxes(m, -1, -2)
    out *= 0.5
    return out


def _validated(values, what: str, positive: bool = True, certified=None) -> np.ndarray:
    """Check an (n, k, k) stack once; return it, symmetrized if need be.

    NotSymmetric when a matrix has |M - M^T|_F > SYM_RTOL * |M|_F; with
    positive set, NotSPD unless lambda_min > EPS_SPD * lambda_max, found by
    one stacked eigvalsh over the matrices that the boolean mask certified
    does not mark as already proven positive definite. A "{i}" in `what`
    names the first bad matrix in the message.
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
    gated = np.arange(len(values)) if certified is None else np.flatnonzero(~certified)
    if positive and gated.size:
        w = np.linalg.eigvalsh(values if certified is None else values[gated])
        for j in np.flatnonzero((w[:, -1] <= 0.0) | (w[:, 0] <= EPS_SPD * w[:, -1]))[:1]:
            raise NotSPD(
                f"{what.format(i=gated[j])} is not positive definite: eigenvalue range "
                f"[{w[j, 0]:.3e}, {w[j, -1]:.3e}] fails lambda_min > {EPS_SPD:g} * "
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

    @classmethod
    def bounded(cls, values, lower, upper) -> SpdStack:
        """SpdStack(values) for matrices whose spectra are known to lie in
        [lower[i], upper[i]], bounds that hold for the values as stored: a
        matrix with lower > CERTIFICATE_MARGIN * EPS_SPD * upper is proven
        to pass the SPD gate and skips its eigvalsh; the rest take it."""
        certified = np.asarray(lower) > CERTIFICATE_MARGIN * EPS_SPD * np.asarray(upper)
        return _filled(object.__new__(cls),
                       _validated(values, "matrix {i} of the stack", certified=certified))

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


def _spectral(stack: np.ndarray, fn: str | None, left=None, right=None):
    """U f(Lambda) U^T of every matrix P of an (n, k, k) stack, whitened
    first as left @ P @ right when a factor pair is given (right being
    left^T, so the whitened matrices stay congruent to the P), from one
    stacked eigh and symmetrized. fn=None returns the (n, k) eigenvalues
    instead. For every fn but "exp", an eigenvalue at or below zero raises
    NonPositiveEigenvalue."""
    whitened = sym(stack if left is None else left @ stack @ right)
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
    the walk's output. With spectral = (fn, left, right), block is
    _spectral(block, fn, left, right), else the matrices themselves: views
    of the whole stack, or a copy of one block of rows."""
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
    for out, eigenvalues in _blocks(stack.values, spectral=(None, isqrt, isqrt)):
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
    for out, logs in _blocks(stack.values, spectral=("log", ref_inv_sqrt, ref_inv_sqrt)):
        coords[out] = logs[:, rows, cols] * weights
    return coords


def affine_invariant_distance(p1: SpdMatrix, p2: SpdMatrix) -> float:
    """Geodesic distance between two SPD matrices: distances_from for one pair."""
    return float(distances_from(p1, as_stack([p2]))[0])


def frechet_mean(
    mats,
    tol: float = DEFAULT_MEAN_TOL,
    max_iter: int = DEFAULT_MEAN_MAX_ITER,
    rows=None,
) -> SpdMatrix:
    """Geometric mean of an SpdStack (or a sequence of SpdMatrix), or of the
    stack's matrices at the indices rows, by Riemannian gradient descent with
    Barzilai-Borwein steps (Iannazzo & Porcelli 2018). Rows are read in
    place, never copied out as a sub-stack.

    The iterate M is carried as its whitening factor G, G M G^T = I, so
    M = F F^T with F = G^-1. A pass takes the whitened gradient
    R = mean_i log(G P_i G^T), one stacked log over the rows, and stops when
    |R|_F < tol: an affine-invariant rule, so rescaling or mixing the inputs
    changes no step. Otherwise it steps to F exp(theta R) F^T, which is
    G <- exp(-theta R / 2) G, one symm_fn exp: the new iterate needs no
    eigendecomposition of its own. In this frame the step's parallel
    transport is the identity, so the step length is the Barzilai-Borwein
    theta = <s, s> / <s, y> of s = theta' R' and y = R' - R (primes for the
    previous pass), 1 on the first pass or when <s, y> <= 0, and at most
    MAX_MEAN_STEP.

    Cost: one eigh of the arithmetic mean (the start), then per pass one
    log eigh per row plus one exp eigh per step taken; the returned mean is
    F F^T, from one inverse of G and one SPD check. tol must be finite and
    > 0 and max_iter, the most steps taken, an integer >= 0 (else
    InvalidSetting); exhausting max_iter raises NoConvergence rather than
    silently returning a bad mean.
    """
    if not (isinstance(tol, numbers.Real) and math.isfinite(tol) and tol > 0.0):
        raise InvalidSetting(f"tol must be finite and > 0, got {tol!r}")
    check_integer("max_iter", max_iter, 0)
    stack = as_stack(mats)
    count = len(stack) if rows is None else len(rows)
    if count == 0:
        raise EmptyInput("need at least one matrix")
    if count == 1:
        return stack[0 if rows is None else rows[0]]

    # The start, the arithmetic mean, meets the SPD gate whenever its terms
    # do: lambda_min(mean) >= mean lambda_min > EPS_SPD * mean lambda_max.
    w, u = np.linalg.eigh(_mean(stack.values, rows))
    whiten = (u / np.sqrt(w)) @ u.T  # G
    previous = None  # (theta', R') of the last step
    for iteration in range(max_iter + 1):
        grad = _mean(stack.values, rows, ("log", whiten, whiten.T))
        residual = float(np.linalg.norm(grad))
        if residual < tol or iteration == max_iter:
            unwhiten = np.linalg.inv(whiten)  # F
            mean = SpdMatrix(unwhiten @ unwhiten.T)
            if residual < tol:
                return mean
            raise NoConvergence(mean, residual)
        theta = 1.0
        if previous is not None:
            last_theta, last_grad = previous
            sy = last_theta * np.vdot(last_grad, last_grad - grad)
            if sy > 0.0:
                theta = min(last_theta ** 2 * np.vdot(last_grad, last_grad) / sy,
                            MAX_MEAN_STEP)
        whiten = symm_fn(-0.5 * theta * grad, "exp") @ whiten
        previous = (theta, grad)
