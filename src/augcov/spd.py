"""Linear-algebra kernel for the manifold of symmetric positive definite
matrices: affine-invariant distance, Frechet (geometric) mean, batched Log
coordinates at a reference and symmetric matrix functions.

Matrices travel as stacks (SpdStack) that store each matrix's upper
triangle once, checked once on construction; SpdMatrix is the one-matrix
case, a full (k, k) matrix. The check (the SPD gate) is one eigvalsh per
block of the stack walk; SpdStack.bounded lets a caller that can bound each
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

Memory model: a stack of n matrices of size k holds n k(k+1)/2 floats,
about half of n k^2, and no full (n, k, k) array of it is ever made; a
sub-stack views its rows (RowView). One walk, _blocks, reads a stack in
consecutive blocks of at most SPD_BLOCK_BYTES of full matrices, reads each
block's rows of the base, unpacks them by one gather and hands it to
_spectral, which whitens it by rebinding and drops each block-sized array
once used. Its consumers, the SPD gate, the sums of the Frechet mean
(_mean), the distances and the Log coordinates, hold the live packed stack
plus a few k x k matrices and about three block-sized arrays (the Log
coordinates four and a half), whatever n is; the coordinates fill one
preallocated row matrix. With one matrix per block (k >= 91), a Frechet
mean holds about 6 k^2 next to the stack it averages.
Neither the packing nor the walk changes a result: every stored matrix is
exactly symmetric, so unpacking restores its bits, per-matrix steps do not
depend on the block, and for k >= 2 sums add one matrix at a time in stack
order, as numpy's axis-0 sum does (it sums 1 x 1 matrices pairwise, so for
k = 1 the two agree within one block, up to 16384 matrices).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (DimensionMismatch, EmptyInput, NoConvergence, NonPositiveEigenvalue,
                     NotSPD, NotSymmetric)

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

# The Frechet mean's stop rule: whitened gradient norm below MEAN_TOL, at
# most MEAN_MAX_ITER steps.
MEAN_TOL = 1e-8
MEAN_MAX_ITER = 50

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


def _symmetric(values, what: str) -> np.ndarray:
    """An (n, k, k) float stack checked once for symmetry, symmetrized if
    need be: NotSymmetric when a matrix is not square or has
    |M - M^T|_F > SYM_RTOL * |M|_F. A "{i}" in `what` names the first bad
    matrix in the message."""
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
    return values


def _gate(w: np.ndarray, index, what: str) -> None:
    """The SPD gate on ascending eigenvalue rows w: NotSPD unless
    lambda_min > EPS_SPD * lambda_max, naming the first failing matrix by
    its index[j] in `what`."""
    for j in np.flatnonzero((w[:, -1] <= 0.0) | (w[:, 0] <= EPS_SPD * w[:, -1]))[:1]:
        raise NotSPD(
            f"{what.format(i=index[j])} is not positive definite: eigenvalue range "
            f"[{w[j, 0]:.3e}, {w[j, -1]:.3e}] fails lambda_min > {EPS_SPD:g} * "
            f"lambda_max; consider shrinkage for rank-deficient covariances"
        )


def _gated(stack: SpdStack) -> SpdStack:
    """stack, after the SPD gate on its matrices, one eigvalsh per block of
    the stack walk; a failing matrix is named by its row of the base."""
    if len(stack):  # an empty stack's walk is one empty block: no eigvalsh for it
        for out, block in _blocks(stack):
            _gate(np.linalg.eigvalsh(block), stack._rows[out], "matrix {i} of the stack")
    return stack


@functools.cache
def _triangle(dim: int):
    """(upper, table) of dim x dim matrices: the flat indices of the upper
    triangle in np.triu_indices order, and the (dim, dim) table of the
    packed position of each entry, (i, j) and (j, i) alike."""
    rows, cols = np.triu_indices(dim)
    table = np.empty((dim, dim), dtype=np.intp)
    table[rows, cols] = table[cols, rows] = np.arange(rows.size)
    upper = rows * dim + cols
    upper.setflags(write=False)
    table.setflags(write=False)
    return upper, table


def pack(m: np.ndarray) -> np.ndarray:
    """The upper triangle of a matrix, or of each matrix of a stack, as one
    C-contiguous row per matrix in np.triu_indices order: the storage of
    SpdStack.packed."""
    dim = m.shape[-1]
    return np.take(m.reshape(*m.shape[:-2], dim * dim), _triangle(dim)[0], axis=-1)


def _unpacked(packed: np.ndarray, dim: int) -> np.ndarray:
    """The C-contiguous (b, k, k) matrices of b packed rows, by one gather
    through the dimension's table. The layout matters: numpy sums and
    multiplies a stack in its memory order, so another layout would move
    the last bits of a mean."""
    return np.take(packed, _triangle(dim)[1], axis=1)


class RowView:
    """The one view rule of SpdStack and covariance.EpochStack: a stack is
    the rows _rows of a base _base, shared by every stack cut from it. _rows
    is a range (a slice of a range stays one) or else an index array, so
    stack[index] copies no data and views of views compose; an integer index
    gives _item of that row. Rows are read only when a caller asks."""

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            return self._item(index)
        rows = self._rows
        if not (isinstance(rows, range) and isinstance(index, slice)):
            rows = np.asarray(rows, dtype=np.intp)
        view = object.__new__(type(self))
        view.__dict__.update(self.__dict__, _rows=rows[index])
        return view

    def _hold(self, base, **fields):
        """self as the stack of every row of base, an array made read-only,
        with fields set."""
        if isinstance(base, np.ndarray):
            base.setflags(write=False)
        self.__dict__.update(_base=base, _rows=range(base.shape[0]), **fields)
        return self

    def _read(self) -> np.ndarray:
        """The stack's rows of its base: the base itself for all of them in
        order, a view for another range, else a read-only copy."""
        base, rows = self._base, self._rows
        if isinstance(rows, range):
            return base if rows == range(len(base)) else base[rows.start::rows.step][:len(rows)]
        out = base[rows]
        out.setflags(write=False)
        return out


@dataclass(frozen=True)
class SpdMatrix:
    """A validated symmetric positive definite matrix: the one-matrix case
    of SpdStack, with the same check. A mere positive semi-definite matrix
    never sneaks onto the manifold."""

    values: np.ndarray
    dim: int = field(init=False)

    def __post_init__(self):
        values = _symmetric(np.array(self.values, dtype=float)[None], "SpdMatrix input")
        _gate(np.linalg.eigvalsh(values), [0], "SpdMatrix input")
        _matrix(self, values[0])


def _matrix(obj: SpdMatrix, values: np.ndarray) -> SpdMatrix:
    """obj around a checked (k, k) matrix, made read-only."""
    values.setflags(write=False)
    obj.__dict__.update(values=values, dim=values.shape[-1])
    return obj


@dataclass(frozen=True, init=False, eq=False)
class SpdStack(RowView):
    """n SPD matrices of one size k, checked once and stored once: packed is
    one read-only (n, k(k+1)/2) array whose row i holds the upper triangle
    of matrix i in np.triu_indices order, so a stack costs half its full
    size. SpdStack(values) checks an (n, k, k) array, symmetrizes it and
    copies its upper triangles. An integer index gives an SpdMatrix, an
    index array, slice or mask a sub-stack, a view (RowView) whose packed
    is a copy unless it is a slice; iterating yields SpdMatrix items. No
    full (n, k, k) copy of a stack is ever made: the stack walk unpacks one
    block at a time."""

    dim: int

    def __init__(self, values):
        values = _symmetric(values, "matrix {i} of the stack")
        _gated(self._hold(pack(values), dim=values.shape[-1]))

    @classmethod
    def bounded(cls, packed, lower, upper) -> SpdStack:
        """The stack of packed rows (n, k(k+1)/2), the upper triangles of
        symmetric matrices, held without a copy, for matrices whose spectra
        are known to lie in [lower[i], upper[i]], bounds that hold for the
        values as stored: a matrix with lower > CERTIFICATE_MARGIN * EPS_SPD
        * upper is proven to pass the SPD gate and skips its eigvalsh; the
        rest take it."""
        packed = np.asarray(packed, dtype=float)
        dim = (math.isqrt(8 * packed.shape[-1] + 1) - 1) // 2  # k(k+1)/2 = width
        stack = object.__new__(cls)._hold(packed, dim=dim)
        certified = np.asarray(lower) > CERTIFICATE_MARGIN * EPS_SPD * np.asarray(upper)
        _gated(stack[np.flatnonzero(~certified)])
        return stack

    @property
    def packed(self) -> np.ndarray:
        return self._read()

    def _item(self, i) -> SpdMatrix:
        row = self._base[self._rows[i]]
        return _matrix(object.__new__(SpdMatrix), _unpacked(row[None], self.dim)[0])


_SCALAR_FNS = {
    "log": np.log,
    "exp": np.exp,
    "inv_sqrt": lambda w: 1.0 / np.sqrt(w),
}

# fn None stands for the eigenvalues themselves, whose logs give a distance.
_NEEDS_POSITIVE = {None, "log", "inv_sqrt"}


def _spectral(stack: np.ndarray, fn: str | None, left=None, right=None):
    """U f(Lambda) U^T of every matrix P of an (n, k, k) stack, whitened
    first as left @ P @ right when a factor pair is given (right being
    left^T, so the whitened matrices stay congruent to the P), from one
    stacked eigh and symmetrized. fn=None returns the (n, k) eigenvalues
    instead. For every fn but "exp", an eigenvalue at or below zero raises
    NonPositiveEigenvalue."""
    if left is not None:  # each rebinding frees the array before, when the caller
        stack = left @ stack  # passed its only reference, as _blocks does
        stack = stack @ right
    stack = sym(stack)
    w, u = (np.linalg.eigvalsh(stack), None) if fn is None else np.linalg.eigh(stack)
    del stack  # one block fewer under the reconstruction's temporaries
    lo = w[:, 0].min(initial=np.inf)
    if fn in _NEEDS_POSITIVE and lo <= 0.0:
        what = "the affine-invariant distance" if fn is None else f"matrix {fn}"
        raise NonPositiveEigenvalue(
            lo, f"{what} requires positive eigenvalues, smallest is {lo:.6e}"
        )
    if fn is None:
        return w
    product = (u * _SCALAR_FNS[fn](w)[:, None, :]) @ np.swapaxes(u, 1, 2)
    del u  # the scaled copy is already freed: sym holds two blocks, not four
    return sym(product)


def block_rows(dim: int) -> int:
    """Matrices of size dim per SPD_BLOCK_BYTES block of a walk, at least 1."""
    return max(1, SPD_BLOCK_BYTES // (8 * dim * dim))


def _blocks(stack: SpdStack, spectral: tuple | None = None):
    """The one stack walk: the stack's matrices, in order, in consecutive
    blocks of at most SPD_BLOCK_BYTES of full matrices and at least one
    matrix; an empty stack is one empty block. Each block is unpacked from
    the rows of the stack's base just before it is used. Yields (out, block)
    per block, out being the slice of the block's matrices in the walk's
    output. With spectral = (fn, left, right), block is _spectral(block, fn,
    left, right), else the full matrices."""
    step = block_rows(stack.dim)
    for start in range(0, max(len(stack), 1), step):
        out = slice(start, start + step)  # no name holds a copied packed block
        if spectral is None:
            yield out, _unpacked(stack[out].packed, stack.dim)
        else:  # no name or argument tuple holds the unpacked block: _spectral drops it
            fn, left, right = spectral
            yield out, _spectral(_unpacked(stack[out].packed, stack.dim), fn, left, right)


def _mean(stack: SpdStack, spectral: tuple | None = None) -> np.ndarray:
    """Mean over the stack's matrices of what _blocks yields. The total goes
    into each fresh block's first matrix: for k >= 2 one matrix at a time in
    order, as numpy's axis-0 sum adds, so bit for bit the whole stack's mean
    (for k = 1 only within one block: numpy sums those pairwise)."""
    total = None
    for _, block in _blocks(stack, spectral):
        if total is not None:
            block[0] += total
        total = block.sum(axis=0)
        del block  # before the walk builds the next block
    return total / len(stack)


def symm_fn(m: np.ndarray, fn: str) -> np.ndarray:
    """U f(Lambda) U^T, symmetrized, for the symmetric matrix m = U Lambda U^T
    and fn one of "log", "exp", "inv_sqrt"."""
    if fn not in _SCALAR_FNS:
        raise ValueError(f"unknown matrix function {fn!r}")
    return _spectral(_symmetric(np.asarray(m)[None], "symm_fn input"), fn)[0]


def distances_from(ref_inv_sqrt: np.ndarray, stack: SpdStack) -> np.ndarray:
    """Affine-invariant distance from a reference, given its inverse square
    root, to each matrix P of a stack: sqrt(sum_i log^2 lambda_i) over the
    eigenvalues of ref^{-1/2} P ref^{-1/2}."""
    if stack.dim != len(ref_inv_sqrt):
        raise DimensionMismatch(f"dimensions differ: {len(ref_inv_sqrt)} vs {stack.dim}")
    w = np.empty((len(stack), stack.dim))
    for out, eigenvalues in _blocks(stack, spectral=(None, ref_inv_sqrt, ref_inv_sqrt)):
        w[out] = eigenvalues
    return np.sqrt(np.sum(np.log(w) ** 2, axis=1))


def log_coordinates(ref_inv_sqrt: np.ndarray, stack: SpdStack) -> np.ndarray:
    """The batched Log map at a reference, given its inverse square root:
    one row per matrix P of the stack, the upper triangle of
    Log(ref^{-1/2} P ref^{-1/2}) in the stack's packed order, with
    off-diagonal entries scaled by sqrt(2), so a row's Euclidean norm is P's
    affine-invariant distance to the reference. The rows are C-contiguous
    (an SVM kernel sums in memory order, and a Fortran-ordered matrix would
    shift its scores) and filled in place, one block at a time."""
    dim = ref_inv_sqrt.shape[-1]
    if stack.dim != dim:
        raise DimensionMismatch(f"covariance dim {stack.dim} vs map dim {dim}")
    weights = pack(np.where(np.eye(dim, dtype=bool), 1.0, np.sqrt(2.0)))
    coords = np.empty((len(stack), weights.size))
    for out, logs in _blocks(stack, spectral=("log", ref_inv_sqrt, ref_inv_sqrt)):
        coords[out] = pack(logs) * weights
    return coords


def frechet_mean(stack: SpdStack) -> SpdMatrix:
    """Geometric mean of an SpdStack (a sub-stack's rows are read in place)
    by Riemannian gradient descent with Barzilai-Borwein steps (Iannazzo &
    Porcelli 2018).

    The iterate M is carried as its whitening factor G, G M G^T = I, so
    M = F F^T with F = G^-1. A pass takes the whitened gradient
    R = mean_i log(G P_i G^T), one stacked log over the stack, and stops when
    |R|_F < MEAN_TOL: an affine-invariant rule, so rescaling or mixing the
    inputs changes no step. Otherwise it steps to F exp(theta R) F^T, which is
    G <- exp(-theta R / 2) G, one symm_fn exp: the new iterate needs no
    eigendecomposition of its own. In this frame the step's parallel
    transport is the identity, so the step length is the Barzilai-Borwein
    theta = <s, s> / <s, y> of s = theta' R' and y = R' - R (primes for the
    previous pass), 1 on the first pass or when <s, y> <= 0, and at most
    MAX_MEAN_STEP.

    Cost: one eigh of the arithmetic mean (the start), then per pass one
    log eigh per row plus one exp eigh per step taken; the returned mean is
    F F^T, from one inverse of G and one SPD check. Taking MEAN_MAX_ITER
    steps without meeting the rule raises NoConvergence rather than
    silently returning a bad mean; an empty stack raises EmptyInput.
    """
    if len(stack) == 0:
        raise EmptyInput("need at least one matrix")
    if len(stack) == 1:
        return stack[0]

    # The start, the arithmetic mean, meets the SPD gate whenever its terms
    # do: lambda_min(mean) >= mean lambda_min > EPS_SPD * mean lambda_max.
    w, u = np.linalg.eigh(_mean(stack))
    whiten = (u / np.sqrt(w)) @ u.T  # G
    del w, u
    previous = None  # (theta', R') of the last step
    for iteration in range(MEAN_MAX_ITER + 1):
        grad = _mean(stack, ("log", whiten, whiten.T))
        residual = float(np.linalg.norm(grad))
        if residual < MEAN_TOL or iteration == MEAN_MAX_ITER:
            del grad, previous  # the walk's state goes before the mean is built
            unwhiten = np.linalg.inv(whiten)  # F
            del whiten
            mean = SpdMatrix(unwhiten @ unwhiten.T)
            if residual < MEAN_TOL:
                return mean
            raise NoConvergence(mean, residual)
        theta = 1.0
        if previous is not None:
            last_theta, last_grad = previous
            sy = last_theta * np.vdot(last_grad, last_grad - grad)
            if sy > 0.0:
                theta = min(last_theta ** 2 * np.vdot(last_grad, last_grad) / sy,
                            MAX_MEAN_STEP)
            del previous, last_grad  # R' goes before the exp step
        whiten = symm_fn(-0.5 * theta * grad, "exp") @ whiten
        previous = (theta, grad)
