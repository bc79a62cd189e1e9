"""The lag-augmented covariance matrix (ACM) of epochs, Ledoit-Wolf shrunk
as resolve_shrink says; at order 1 it is the plain spatial covariance.

Signals are assumed band-pass filtered upstream, hence (near) zero-mean: the
sample covariance is taken without mean subtraction. The augmented covariance
of an epoch is, by construction, the plain covariance of the delay-embedded
epoch; both views coincide bit for bit.

The ACM's blocks are the lagged auto-covariances of the Yule-Walker equations
of an AR model: for an AR(p) process and the unshrunk ACM C at order p + 1
and the model's lag, the coefficients [A_p ... A_1] solve
[A_p ... A_1] C[:pd, :pd] = C[pd:, :pd], d being the channel count.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InvalidEpoch, LagTooLarge, check_integer, check_positive
from .spd import RowView, SpdMatrix, SpdStack, pack, sym


@dataclass(frozen=True)
class Epoch:
    """One fixed-length multichannel window of signal: a d x T float matrix
    and its sample rate in Hz. The one-epoch case of EpochStack, with the
    same check."""

    data: np.ndarray
    sample_rate: float

    def __post_init__(self):
        data = np.array(self.data, dtype=float)
        if data.ndim != 2:
            raise InvalidEpoch(f"epoch data must be 2-D, got shape {data.shape}")
        object.__setattr__(self, "data", EpochStack(data[None], self.sample_rate).epoch(0))


@dataclass(frozen=True, init=False, eq=False)
class EpochStack(RowView):
    """n epochs of one shape and sample rate as one read-only (n, d, T)
    float64 array, checked once (check_epochs); a float64 array is held
    without a copy. epoch(r) gives epoch r's (d, T) values, a view, and
    shape the stack's (n, d, T). An integer index gives an Epoch view, a
    slice, index array or mask a sub-stack, a view (RowView) whose values
    are a copy unless it is a slice; iterating yields Epoch items.

    Memory: a stack of a container file (read_epochset) holds no epoch. It
    has the same interface, but epoch(r) reads epoch r from the file into a
    fresh read-only array and values reads the selected epochs into a new
    one."""

    sample_rate: float

    def __init__(self, values, sample_rate):
        values = np.asarray(values, dtype=float)
        check_epochs(values)
        check_positive("sample_rate", sample_rate, InvalidEpoch)
        self._hold(values, sample_rate=sample_rate)

    @property
    def shape(self) -> tuple:
        return (len(self), *self._base.shape[1:])

    @property
    def values(self) -> np.ndarray:
        return self._read()

    def epoch(self, r) -> np.ndarray:
        """The (d, T) values of epoch r: the one per-epoch accessor."""
        return self._base[self._rows[r]]

    def __reduce__(self):  # unpickled values are checked again, so read-only
        return EpochStack, (self.values, self.sample_rate)

    def _item(self, r) -> Epoch:
        epoch = object.__new__(Epoch)
        epoch.__dict__.update(data=self.epoch(r), sample_rate=self.sample_rate)
        return epoch


def check_epochs(values: np.ndarray, first: int = 0) -> None:
    """The one check of epoch values: a 3-D (n, d, T) float array of d >= 1
    channels and T >= 2 samples, every value finite, else InvalidEpoch,
    which numbers the epochs from first."""
    if values.ndim != 3:
        raise InvalidEpoch(f"an epoch stack must be a 3-D (n, d, T) array, "
                           f"got shape {values.shape}")
    if values.shape[1] < 1 or values.shape[2] < 2:
        where = f"epoch {first} has" if len(values) else "the empty stack has epochs of"
        raise InvalidEpoch(f"epochs need d >= 1 channels and T >= 2 samples: "
                           f"{where} shape {values.shape[1:]}")
    bad = np.flatnonzero(~np.isfinite(values).all(axis=(1, 2)))
    if bad.size:
        raise InvalidEpoch(f"epoch {first + bad[0]} contains NaN or Inf")


def as_epochs(epochs) -> EpochStack:
    """An EpochStack as is, or a non-empty sequence of Epoch and EpochStack
    items of one shape and rate copied once into one stack, without a
    second check: the list input of Session and EpochSet."""
    if isinstance(epochs, EpochStack):
        return epochs
    epochs = list(epochs)
    parts = [e.values if isinstance(e, EpochStack) else e.data[None] for e in epochs]
    shapes, rates = {p.shape[1:] for p in parts}, {e.sample_rate for e in epochs}
    if len(shapes) != 1 or len(rates) != 1:
        raise InvalidEpoch(f"all epochs must share shape and sample rate, got shapes "
                           f"{sorted(shapes)} and rates {sorted(rates)}")
    return object.__new__(EpochStack)._hold(np.concatenate(parts), sample_rate=rates.pop())


@dataclass(frozen=True)
class AugmentedParams:
    """The (order, lag) pair governing delay stacking: integers >= 1, else
    InvalidSetting. The one check of the pair, for PipelineSpec too."""

    order: int
    lag: int

    def __post_init__(self):
        for name in ("order", "lag"):
            check_integer(name, getattr(self, name), 1)

    def check_length(self, n_samples: int) -> None:
        """The embedded epoch must keep T - (order-1)*lag >= 2 samples."""
        if (self.order - 1) * self.lag >= n_samples - 1:
            raise LagTooLarge(
                f"(order-1)*lag = {(self.order - 1) * self.lag} must be < "
                f"T - 1 = {n_samples - 1} (order={self.order}, lag={self.lag})"
            )


def embed_epoch(data: np.ndarray, params: AugmentedParams) -> np.ndarray:
    """Stack delayed copies of a d x T epoch array into a C-contiguous
    (d*order) x (T-(order-1)*lag) array; order 1 returns data itself.

    Row-block k holds X[:, j + k*lag] at output column j, so block 0 is the
    most-delayed copy and block order-1 the most advanced; all blocks share
    the truncated support of length T - (order-1)*lag.
    """
    d, t = data.shape
    params.check_length(t)
    p, tau = params.order, params.lag
    if p == 1:
        return data
    width = t - (p - 1) * tau
    out = np.empty((d * p, width))
    for k in range(p):
        out[k * d:(k + 1) * d, :] = data[:, k * tau:k * tau + width]
    return out


def augmented_covariance(
    epoch: Epoch, params: AugmentedParams, shrink: bool | None = None
) -> SpdMatrix:
    """Augmented covariance of an epoch: the sample covariance of its
    delay-embedded version, Ledoit-Wolf shrunk as resolve_shrink says.
    AugmentedParams(1, 1) gives the plain covariance X X^T / (T - 1).
    """
    return covariance_stack(EpochStack(epoch.data[None], epoch.sample_rate), params, shrink)[0]


def resolve_shrink(shrink: bool | None, params: AugmentedParams) -> bool:
    """The one shrink policy: shrink as given, or for None, on for order > 1
    (the stacked estimate lives in the finite-observation large-dimension
    regime) and off for order 1, where the augmented covariance is the plain
    spatial covariance X X^T / (T - 1)."""
    return params.order > 1 if shrink is None else shrink


def covariance_stack(epochs: EpochStack, params: AugmentedParams,
                     shrink: bool | None = None) -> SpdStack:
    """The augmented covariances of an EpochStack as one SpdStack, checked
    once; augmented_covariance is the one-epoch case. Memory: each epoch
    comes from EpochStack.epoch (a view of an in-memory stack, one read of a
    container file's), so a sub-stack's epochs are read in place, and each
    covariance is exactly symmetric and goes straight into its packed row,
    so next to the packed stack one epoch, its embedding and at most three
    k x k matrices are alive at a time, shrunk or not. shrink goes through
    resolve_shrink. Unshrunk, it warns when the embedded epoch has no more
    samples than rows."""
    shrink = resolve_shrink(shrink, params)
    _, d, t = epochs.shape
    params.check_length(t)
    k, width = d * params.order, t - (params.order - 1) * params.lag
    if not shrink and width <= k:
        warnings.warn(f"epoch has T={width} samples for d={k} channels; covariance "
                      f"may be rank-deficient, consider shrinkage", stacklevel=2)
    out = np.empty((len(epochs), k * (k + 1) // 2))
    lams, traces = np.zeros(len(epochs)), np.empty(len(epochs))
    for i in range(len(epochs)):
        c, lams[i] = _covariance(embed_epoch(epochs.epoch(i), params), shrink)
        out[i], traces[i] = pack(c), np.trace(c)
        del c  # not alive through the next covariance's build
    # Ledoit-Wolf bounds: a shrunk matrix keeps tr C and has lambda_max <= tr C
    # and lambda_min >= lam * tr C / k, less the gram's rounding (at most
    # width * eps * tr C). An unshrunk one (lam = 0) gets no lower bound.
    lower = traces * (lams / k - (width + k) * np.finfo(float).eps)
    return SpdStack.bounded(out, lower, traces)


def _covariance(y: np.ndarray, shrink: bool):
    """The covariance C = sym(y y^T / (m - 1)) of an n x m data matrix, from
    one gram y y^T, Ledoit-Wolf shrunk when shrink is set; returns
    (unchecked array, lam), lam being 0.0 unshrunk.

    The analytic intensity takes the uncentered 1/m covariance S = gram / m:
      mu    = tr(S) / n
      d2    = |S - mu I|_F^2 / n
      bbar2 = (1 / m^2) sum_t |y_t y_t^T - S|_F^2 / n
            = (sum_t |y_t|^4 / m - |S|_F^2) / (n m)
      lam   = min(bbar2, d2) / d2
    The second form of bbar2 costs O(nm): no n x n product of y**2 is formed.
    """
    n, m = y.shape
    gram = y @ y.T
    c = sym(gram / (m - 1))
    if not shrink:
        return c, 0.0
    s = np.divide(gram, m, out=gram)
    work = s.copy()
    work.flat[::n + 1] -= np.trace(s) / n  # S - mu I
    d2 = np.sum(np.square(work, out=work)) / n
    lam = 0.0
    if d2 > 0.0:
        norms2 = np.einsum("ij,ij->j", y, y)  # |y_t|^2 for each t, no y * y temporary
        bbar2 = (norms2 @ norms2 / m - np.multiply(s, s, out=work).sum()) / (n * m)
        lam = float(min(bbar2, d2) / d2)
    del gram, s, work
    mu = np.trace(c) / n
    c *= 1.0 - lam
    c.flat[::n + 1] += lam * mu
    return c, lam
