"""Covariance estimators: plain spatial covariance, the lag-augmented
covariance matrix, Ledoit-Wolf shrinkage and a Yule-Walker block solver.

Signals are assumed band-pass filtered upstream, hence (near) zero-mean: the
sample covariance is taken without mean subtraction. The augmented covariance
of an epoch is, by construction, the plain covariance of the delay-embedded
epoch; both views coincide bit for bit.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    InconsistentInput,
    InvalidEpoch,
    LagTooLarge,
    SingularSystem,
)
from .spd import SpdMatrix, SpdStack, sym


@dataclass(frozen=True)
class Epoch:
    """One fixed-length multichannel window of signal.

    data is a channels x samples (d x T) float matrix; sample_rate in Hz.
    """

    data: np.ndarray
    sample_rate: float

    def __post_init__(self):
        data = np.array(self.data, dtype=float)
        if data.ndim != 2:
            raise InvalidEpoch(f"epoch data must be 2-D, got shape {data.shape}")
        d, t = data.shape
        if d < 1 or t < 2:
            raise InvalidEpoch(f"epoch needs d >= 1 channels and T >= 2 samples, got {d}x{t}")
        if not np.all(np.isfinite(data)):
            raise InvalidEpoch("epoch data contains NaN or Inf")
        if self.sample_rate <= 0:
            raise InvalidEpoch(f"sample_rate must be positive, got {self.sample_rate}")
        data.setflags(write=False)
        object.__setattr__(self, "data", data)

    @property
    def n_channels(self) -> int:
        return self.data.shape[0]

    @property
    def n_samples(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class AugmentedParams:
    """The (order, lag) pair governing delay stacking."""

    order: int
    lag: int

    def __post_init__(self):
        if self.order < 1:
            raise ValueError(f"order must be >= 1, got {self.order}")
        if self.lag < 1:
            raise ValueError(f"lag must be >= 1, got {self.lag}")

    def check_length(self, n_samples: int) -> None:
        """The embedded epoch must keep T - (order-1)*lag >= 2 samples."""
        if (self.order - 1) * self.lag >= n_samples - 1:
            raise LagTooLarge(
                f"(order-1)*lag = {(self.order - 1) * self.lag} must be < "
                f"T - 1 = {n_samples - 1} (order={self.order}, lag={self.lag})"
            )


@dataclass(frozen=True)
class YuleWalkerSolution:
    """AR coefficient blocks A_1..A_p and the innovation covariance U."""

    coefficients: list
    innovation_cov: np.ndarray

    def __post_init__(self):
        coeffs = [np.asarray(a, dtype=float) for a in self.coefficients]
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "innovation_cov", sym(np.asarray(self.innovation_cov, dtype=float)))

    @property
    def order(self) -> int:
        return len(self.coefficients)


def sample_covariance(epoch: Epoch) -> SpdMatrix:
    """Uncentered spatial covariance X X^T / (T - 1) of one epoch.

    Warns when T <= d (the estimate is then rank-deficient or barely
    determined) and raises NotSPD if the result fails the SPD gate.
    """
    return covariance_stack([epoch], AugmentedParams(1, 1), shrink=False)[0]


def embed_epoch(epoch: Epoch, params: AugmentedParams) -> Epoch:
    """Stack delayed copies of an epoch into a (d*order) x (T-(order-1)*lag)
    epoch.

    Row-block k holds X[:, j + k*lag] at output column j, so block 0 is the
    most-delayed copy and block order-1 the most advanced; all blocks share
    the truncated support of length T - (order-1)*lag.
    """
    params.check_length(epoch.n_samples)
    p, tau = params.order, params.lag
    if p == 1:
        return epoch
    d, t = epoch.data.shape
    width = t - (p - 1) * tau
    out = np.empty((d * p, width))
    for k in range(p):
        out[k * d:(k + 1) * d, :] = epoch.data[:, k * tau:k * tau + width]
    return Epoch(out, epoch.sample_rate)


def augmented_covariance(
    epoch: Epoch, params: AugmentedParams, shrink: bool | None = None
) -> SpdMatrix:
    """Augmented covariance of an epoch: the sample covariance of its
    delay-embedded version, optionally Ledoit-Wolf shrunk.

    shrink=None applies the default policy: shrinkage on for order > 1
    (the stacked estimate lives in the finite-observation large-dimension
    regime), off for order 1, where the result equals sample_covariance
    exactly.
    """
    return covariance_stack([epoch], params, shrink)[0]


def covariance_stack(epochs, params: AugmentedParams, shrink: bool | None = None) -> SpdStack:
    """The augmented covariances of a non-empty sequence of same-shape
    epochs as one SpdStack, checked once; augmented_covariance is the
    one-epoch case. Unshrunk, it warns when the embedded epoch has no more
    samples than rows."""
    if shrink is None:
        shrink = params.order > 1
    d, t = epochs[0].data.shape
    params.check_length(t)
    k, width = d * params.order, t - (params.order - 1) * params.lag
    if not shrink and width <= k:
        warnings.warn(f"epoch has T={width} samples for d={k} channels; covariance "
                      f"may be rank-deficient, consider shrinkage", stacklevel=2)
    out = np.empty((len(epochs), k, k))
    for i, epoch in enumerate(epochs):
        y = embed_epoch(epoch, params).data
        gram = y @ y.T
        out[i] = sym(gram / (width - 1))
        if shrink:
            out[i] = _shrink(out[i], y, gram)[0]
    return SpdStack(out)


def ledoit_wolf(c_input: np.ndarray, y: np.ndarray) -> tuple[SpdMatrix, float]:
    """Shrink a covariance toward a scaled identity with the Ledoit-Wolf
    analytic shrinkage intensity.

    Parameters
    ----------
    c_input : ndarray
        n x n symmetric PSD matrix, equal to y y^T / (m - 1).
    y : ndarray
        The n x m (features x samples) data matrix c_input was estimated
        from; the intensity lambda is computed on it.

    Returns
    -------
    (SpdMatrix, float)
        (1 - lambda) * C + lambda * (tr C / n) * I, and lambda in [0, 1].
        The map preserves the trace of C.
    """
    c_input = sym(np.asarray(c_input, dtype=float))
    y = np.asarray(y, dtype=float)
    n, m = y.shape
    if c_input.shape != (n, n):
        raise InconsistentInput(
            f"covariance shape {c_input.shape} does not match data with {n} features"
        )
    if m < 2:
        raise InconsistentInput("need at least two samples")
    gram = y @ y.T
    expected = gram / (m - 1)
    scale = max(np.linalg.norm(expected), 1e-300)
    if np.linalg.norm(c_input - expected) > 1e-8 * scale:
        raise InconsistentInput("c_input is not y @ y.T / (m - 1) for the given y")
    shrunk, lam = _shrink(c_input, y, gram)
    return SpdMatrix(shrunk), lam


def _shrink(c_input: np.ndarray, y: np.ndarray, gram: np.ndarray):
    """Ledoit-Wolf shrinkage of the symmetric c_input = gram / (m - 1), with
    gram = y y^T computed once by the caller; returns (unchecked array, lam).

    The analytic intensity takes the uncentered 1/m covariance S = gram / m:
      mu    = tr(S) / n
      d2    = |S - mu I|_F^2 / n
      bbar2 = (1 / m^2) sum_t |y_t y_t^T - S|_F^2 / n
      lam   = min(bbar2, d2) / d2
    """
    n, m = y.shape
    s = gram / m
    d2 = np.sum((s - np.trace(s) / n * np.eye(n)) ** 2) / n
    lam = 0.0
    if d2 > 0.0:
        y2 = y ** 2
        bbar2 = (np.sum(y2 @ y2.T / m - s ** 2)) / (n * m)
        lam = float(min(bbar2, d2) / d2)
    mu = np.trace(c_input) / n
    shrunk = (1.0 - lam) * c_input + lam * mu * np.eye(n)
    return shrunk, lam


def lagged_blocks(data: np.ndarray, max_lag: int) -> list[np.ndarray]:
    """Uncentered lag-block covariances Gamma(0..max_lag) of a d x T signal,
    Gamma(k) = X_t X_{t-k}^T averaged over the common support.

    This is the estimator fed to yule_walker_solve; it is deliberately
    independent of embed_epoch so the two routes can cross-check each other.
    """
    data = np.asarray(data, dtype=float)
    d, t = data.shape
    if max_lag >= t:
        raise LagTooLarge(f"max_lag {max_lag} must be < T = {t}")
    out = []
    for k in range(max_lag + 1):
        width = t - k
        out.append(data[:, k:] @ data[:, :width].T / max(width - 1, 1))
    return out


def yule_walker_solve(gammas: list[np.ndarray], p: int) -> YuleWalkerSolution:
    """Solve the block Yule-Walker system for AR coefficients A_1..A_p.

    gammas holds Gamma(0), Gamma(1), ..., Gamma(p) in units of the model lag
    (Gamma(k) = E[X_t X_{t-k}^T]); Gamma(-k) = Gamma(k)^T. The stacked system
    [A_1 ... A_p] M = [Gamma(1) ... Gamma(p)], with M the block-Toeplitz
    matrix M[k, i] = Gamma(i - k), is solved in one shot; the innovation
    covariance follows from the lag-0 equation
    U = Gamma(0) - sum_k A_k Gamma(k)^T.
    """
    if p < 1:
        raise ValueError(f"order p must be >= 1, got {p}")
    if len(gammas) < p + 1:
        raise ValueError(f"need Gamma(0..{p}), got {len(gammas)} blocks")
    gam = [np.asarray(g, dtype=float) for g in gammas[: p + 1]]
    d = gam[0].shape[0]

    def gamma(k: int) -> np.ndarray:
        return gam[k] if k >= 0 else gam[-k].T

    big = np.empty((p * d, p * d))
    for row in range(p):
        for col in range(p):
            big[row * d:(row + 1) * d, col * d:(col + 1) * d] = gamma(col - row)
    rhs = np.hstack([gamma(i) for i in range(1, p + 1)])  # d x (p*d)

    cond = np.linalg.cond(big)
    if not np.isfinite(cond) or cond > 1e12:
        raise SingularSystem(
            f"block-Toeplitz lag-covariance matrix is singular (cond={cond:.3e})"
        )
    a_stacked = np.linalg.solve(big, rhs.T).T  # d x (p*d), [A_1 ... A_p]
    coeffs = [a_stacked[:, i * d:(i + 1) * d] for i in range(p)]
    innovation = gamma(0) - sum(a @ gamma(k + 1).T for k, a in enumerate(coeffs))
    return YuleWalkerSolution(coeffs, sym(innovation))
