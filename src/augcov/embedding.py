"""Nonlinear-dynamics estimators for the stacking hyper-parameters, behind
one entry, estimate: average mutual information for the delay, then Cao's
neighbor-ratio method for the dimension, or the unified MDOP procedure
choosing both jointly.

Everything here is deterministic: no randomness, fixed reduction order, and
per-channel curves are accumulated over all channels and epochs before any
extremum is taken.

Cost. AMI bins each series once, then takes one bincount per lag. Cao and
MDOP spend their time in the Chebyshev neighbour search (_prefix_neighbours):
one |s_a - s_b| slab per block of NN_BLOCK rows, then one in-place max and
one argmin per dimension, O(n^2) time per dimension and O((NN_BLOCK + span)
* n) memory, span being the largest difference of the delay offsets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covariance import AugmentedParams, EpochStack
from .errors import ConstantSeries, InvalidSetting, TooShort, check_integer

METHODS = ("ami_cao", "mdop")  # the estimators behind estimate()
AMI_DEFAULT_BINS = 16
CAO_DEFAULT_MAX_DIM = 8
CAO_THRESHOLD = 0.05  # Cao's E1 counts as settled within this of 1
MDOP_DEFAULT_MAX_CYCLES = 8
MDOP_DEFAULT_MAX_LAG = 10
FNN_RATIO = 10.0  # Kennel false-neighbor distance ratio
MDOP_FNN_THRESHOLD = 0.05  # MDOP stops below this false-neighbor fraction
# rows per neighbour-search block; a block holds one difference slab of at
# most (NN_BLOCK + span) x (n + span) and one NN_BLOCK x n distance matrix,
# 0.4 MB at n = 768
NN_BLOCK = 64


@dataclass(frozen=True)
class EmbeddingEstimate:
    """Chosen (tau, dim) plus the diagnostic curves behind the choice."""

    tau: int
    dim: int
    method: str
    ami_curve: np.ndarray | None = None
    e1_curve: np.ndarray | None = None
    cycle_lags: tuple = ()
    flags: tuple = ()


@dataclass(frozen=True)
class TauSelection:
    tau: int
    curve: np.ndarray
    no_local_minimum: bool


@dataclass(frozen=True)
class CaoResult:
    dim: int
    e1_curve: np.ndarray
    saturation_failure: bool


def check_settings(**settings) -> None:
    """InvalidSetting unless each of bins and max_dim is an integer >= 2 and
    each other setting (max_lag, tau, max_cycles) one >= 1; the one check of
    the estimator entry points."""
    for name, value in settings.items():
        check_integer(name, value, 2 if name in ("bins", "max_dim") else 1)


def average_mutual_information(
    series: np.ndarray, max_lag: int, bins: int = AMI_DEFAULT_BINS
) -> np.ndarray:
    """Mutual information (nats) between a series and its lagged copy, for
    lags 1..max_lag, from a bins x bins equal-width joint histogram over the
    series range.
    """
    series = np.asarray(series, dtype=float).ravel()
    n = series.size
    if n <= max_lag + 10:
        raise TooShort(f"series of length {n} too short for max_lag {max_lag}")
    lo, hi = float(series.min()), float(series.max())
    if hi <= lo:
        raise ConstantSeries("cannot bin a constant series")
    edges = np.linspace(lo, hi, bins + 1)
    # np.histogram2d's bins: each holds its lower edge, the last also hi
    cells = np.searchsorted(edges, series, side="right") - 1
    cells[series == hi] = bins - 1

    curve = np.empty(max_lag)
    for lag in range(1, max_lag + 1):
        joint = np.bincount(cells[:-lag] * bins + cells[lag:], minlength=bins * bins)
        joint = joint.reshape(bins, bins) / (n - lag)
        px = joint.sum(axis=1)
        py = joint.sum(axis=0)
        nz = joint > 0
        ratio = joint[nz] / (px[:, None] * py[None, :])[nz]
        curve[lag - 1] = np.sum(joint[nz] * np.log(ratio))
    # histogram quantization can leave -1e-17 style residue
    return np.maximum(curve, 0.0)


def _series(epochs) -> np.ndarray:
    """Every channel of every epoch of an EpochStack as the rows of one
    (n * d, T) array, epoch by epoch: the stack's values, read once (a
    container file's stack reads them anew on each call)."""
    values = epochs.values
    return values.reshape(-1, values.shape[2])


def select_tau_ami(
    epochs, max_lag: int, bins: int = AMI_DEFAULT_BINS
) -> TauSelection:
    """Accumulate AMI curves over every channel of every epoch and return the
    lag of the first strict local minimum of the aggregate.

    When no interior local minimum exists in range the argmin is returned
    with no_local_minimum set.
    """
    check_settings(max_lag=max_lag, bins=bins)
    aggregate = np.zeros(max_lag)
    for channel in _series(epochs):
        aggregate += average_mutual_information(channel, max_lag, bins)
    for i in range(1, max_lag - 1):
        if aggregate[i] < aggregate[i - 1] and aggregate[i] < aggregate[i + 1]:
            return TauSelection(i + 1, aggregate, False)
    return TauSelection(int(np.argmin(aggregate)) + 1, aggregate, True)


def _prefix_neighbours(series: np.ndarray, offsets, counts, wanted) -> dict:
    """Nearest strictly-distinct neighbour of each row, under the max metric,
    in every wanted prefix of a delay embedding of `series`.

    Row i, coordinate k of the embedding is series[i + offsets[k]]. Prefix m
    (1-based) is the first m coordinates over the rows i < counts[m-1];
    counts must not increase with m, and every such row must lie inside the
    series (counts[m-1] + offsets[k] <= series.size for k < m). Returns
    {m: (indices, distances)} for each m in `wanted`, both of length
    counts[m-1]; index -1 marks rows with no distinct neighbour at all.
    Cao's method wants every prefix, MDOP only its full embedding.

    Distances at or below 1e-9 * ptp of the prefix are treated as duplicates
    (a periodic signal sampled at an integer period revisits the same state
    up to rounding), and ties resolve to the lowest index.

    The search walks blocks of NN_BLOCK rows. Coordinate k's difference
    |x_i[k] - x_j[k]| is entry (i + offsets[k], j + offsets[k]) of the slab
    |s_a - s_b|, so each block fills the NN_BLOCK + span slab rows its
    coordinates reach once, span being max - min of the offsets. The block's
    distance matrix then grows one coordinate at a time, D_m = max(D_{m-1},
    shifted slab view), one in-place max and, for wanted m, one argmin. max
    and abs are exact, so every prefix gets the distances, indices and ties
    of a search from scratch. That costs O(n^2) per prefix dimension, and
    the two preallocated buffers take O((NN_BLOCK + span) * n) memory.
    """
    last = max(wanted)
    low, span = min(offsets), max(offsets) - min(offsets)
    n, width = series.size, counts[0]
    tols = {}
    for m in wanted:
        views = [series[o:o + counts[m - 1]] for o in offsets[:m]]
        ptp = max(v.max() for v in views) - min(v.min() for v in views)
        tols[m] = 1e-9 * (ptp or 1.0)
    found = {
        m: (np.empty(counts[m - 1], dtype=int), np.empty(counts[m - 1])) for m in wanted
    }
    # distance rows span all `width` columns, so the max and the argmin run on
    # contiguous rows: columns past a prefix's count are set to inf, and the
    # slab's padding keeps every shifted view inside it
    slab = np.zeros((NN_BLOCK + span, max(n, max(offsets) + width)))
    dists = np.empty((NN_BLOCK, width))
    for start in range(0, width, NN_BLOCK):
        top = start + low  # the series index of slab row 0
        height = min(NN_BLOCK + span, n - top)
        diffs = slab[:height, :n]
        np.subtract(series[top:top + height, None], series[None, :], out=diffs)
        np.abs(diffs, out=diffs)
        for m in range(1, last + 1):
            count = counts[m - 1]
            stop = min(start + NN_BLOCK, count)
            if stop <= start:
                break
            rows = np.arange(stop - start)
            o = offsets[m - 1]
            step = slab[start + o - top:stop + o - top, o:o + width]
            block = dists[:stop - start]
            if m == 1:
                block[...] = step
                block[rows, rows + start] = np.inf  # no row is its own neighbour
            else:
                np.maximum(block, step, out=block)
            block[:, count:] = np.inf
            if m not in found:
                continue
            local = np.argmin(block, axis=1)
            nearest = block[rows, local]
            # rows whose nearest point is a duplicate search again without them
            dup = np.nonzero(nearest <= tols[m])[0]
            if dup.size:
                masked = block[dup]
                masked[masked <= tols[m]] = np.inf
                local[dup] = np.argmin(masked, axis=1)
                nearest[dup] = masked[np.arange(dup.size), local[dup]]
            idx, best = found[m]
            idx[start:stop] = local
            best[start:stop] = nearest
    for idx, best in found.values():
        idx[~np.isfinite(best)] = -1
    return found


def _cao_e_curve(series: np.ndarray, tau: int, max_e_dim: int) -> np.ndarray:
    """Cao's E(m) for m = 1..max_e_dim on one series.

    E(m) averages d_{m+1}(i, j) / d_m(i, j) over the rows i where the
    (m+1)-dimensional delay vector exists, j being i's nearest distinct
    neighbour in m dimensions. All dimensions come from one incremental
    neighbour search; d_{m+1} is d_m grown by coordinate m.
    """
    n = series.size
    counts = [n - m * tau for m in range(1, max_e_dim + 1)]
    for m, count in enumerate(counts, start=1):
        if count < 2:
            raise TooShort(
                f"series of length {n} cannot support dimension {m + 1} at lag {tau}"
            )
    # coordinate k of row i is s(i + k*tau)
    offsets = [k * tau for k in range(max_e_dim)]
    found = _prefix_neighbours(series, offsets, counts, range(1, max_e_dim + 1))
    out = np.full(max_e_dim, np.nan)
    for m, (nn_idx, nn_dist) in found.items():
        i = np.nonzero(nn_idx >= 0)[0]
        if i.size == 0:
            continue
        j = nn_idx[i]
        up = m * tau  # coordinate m, the one d_{m+1} adds
        d_up = np.maximum(nn_dist[i], np.abs(series[i + up] - series[j + up]))
        out[m - 1] = np.mean(d_up / nn_dist[i])
    return out


def cao_embedding_dimension(epochs, tau: int, max_dim: int) -> CaoResult:
    """Embedding dimension by Cao's neighbor-distance-ratio statistic.

    E1(m) = E(m+1)/E(m) is averaged over all channels and epochs; the result
    is the smallest D with both |E1(D) - 1| and |E1(D+1) - 1| below
    CAO_THRESHOLD, or max_dim with saturation_failure set when the curve never
    settles. Each series takes one incremental neighbour search for all
    max_dim + 1 dimensions (see _prefix_neighbours): O(n^2 * max_dim) time.
    """
    check_settings(tau=tau, max_dim=max_dim)
    max_e_dim = max_dim + 1
    total = np.zeros(max_e_dim)
    count = 0
    for channel in _series(epochs):
        e_curve = _cao_e_curve(channel, tau, max_e_dim)
        if np.any(np.isnan(e_curve)) or np.any(e_curve == 0.0):
            continue
        total += e_curve
        count += 1
    if count == 0:
        raise TooShort("no channel produced a usable E curve")
    e_mean = total / count
    e1 = e_mean[1:] / e_mean[:-1]  # E1(m) for m = 1..max_dim
    settled = np.abs(e1 - 1.0) < CAO_THRESHOLD
    for d in range(1, max_dim):
        if settled[d - 1] and settled[d]:
            return CaoResult(d, e1, False)
    return CaoResult(max_dim, e1, True)


def _mdop_cycle_stats(series, delays, candidates):
    """One series' contribution to the beta statistic of each candidate lag.

    Returns (log_phi_sums, log_phi_counts, fnn_false, fnn_total), each
    indexed like candidates; fnn_* count Kennel-ratio violations so the
    caller can evaluate termination for whichever lag wins.
    """
    n = series.size
    horizon = max(max(delays), max(candidates))
    t = np.arange(horizon, n)
    if t.size < 2:
        raise TooShort(f"series of length {n} too short for delay horizon {horizon}")
    # row i is time t[i] = horizon + i; coordinate k is s(t[i] - delays[k])
    dim = len(delays)
    offsets = [horizon - d for d in delays]
    nn_idx, nn_dist = _prefix_neighbours(series, offsets, [t.size] * dim, [dim])[dim]
    valid = nn_idx >= 0
    i = np.nonzero(valid)[0]
    j = nn_idx[i]
    dist = nn_dist[i]

    k = len(candidates)
    sums = np.zeros(k)
    counts = np.zeros(k, dtype=int)
    false_counts = np.zeros(k, dtype=int)
    for c, lag in enumerate(candidates):
        new_i = series[t[i] - lag]
        new_j = series[t[j] - lag]
        phi = np.abs(new_i - new_j) / dist
        pos = phi > 0.0
        sums[c] = np.sum(np.log(phi[pos]))
        counts[c] = int(np.sum(pos))
        false_counts[c] = int(np.sum(phi > FNN_RATIO))
    return sums, counts, false_counts, i.size


def mdop_unified(
    epochs,
    max_cycles: int = MDOP_DEFAULT_MAX_CYCLES,
    max_lag: int = MDOP_DEFAULT_MAX_LAG,
) -> EmbeddingEstimate:
    """Joint (tau, dim) estimate by iterative embedding.

    Starting from the bare series, each cycle picks the delayed coordinate
    whose directional-derivative beta statistic (pooled geometric mean of
    nearest-neighbor coordinate ratios over all channels and epochs) is
    largest, and uses it to probe the current embedding with the Kennel
    false-neighbor fraction: when even the most informative candidate
    separates fewer than MDOP_FNN_THRESHOLD of the current neighbor pairs, the
    embedding is complete and the candidate is not added. Otherwise the
    coordinate joins the embedding and the cycle repeats, up to max_cycles
    additions (then flagged "no_termination").

    dim is the final coordinate count (base coordinate included); tau is the
    half-up-rounded mean of the added lags.
    """
    check_settings(max_cycles=max_cycles, max_lag=max_lag)
    series = _series(epochs)
    delays = [0]
    chosen = []
    flags = []
    for _ in range(max_cycles):
        candidates = [lag for lag in range(1, max_lag + 1) if lag not in delays]
        if not candidates:
            flags.append("no_termination")
            break
        sums = np.zeros(len(candidates))
        counts = np.zeros(len(candidates), dtype=int)
        false_counts = np.zeros(len(candidates), dtype=int)
        totals = 0
        for channel in series:
            s, c, f, tot = _mdop_cycle_stats(channel, delays, candidates)
            sums += s
            counts += c
            false_counts += f
            totals += tot
        if totals == 0:
            raise TooShort("no usable neighbor pairs for the beta statistic")
        beta = np.where(counts > 0, sums / np.maximum(counts, 1), -np.inf)
        best = int(np.argmax(beta))
        if chosen and false_counts[best] / totals < MDOP_FNN_THRESHOLD:
            break
        chosen.append(candidates[best])
        delays.append(candidates[best])
    else:
        flags.append("no_termination")

    tau = max(1, int(np.floor(np.mean(chosen) + 0.5)))
    return EmbeddingEstimate(
        tau=tau,
        dim=1 + len(chosen),
        method="mdop",
        cycle_lags=tuple(chosen),
        flags=tuple(flags),
    )


def estimate(epochs, method: str, *, max_lag: int = MDOP_DEFAULT_MAX_LAG,
             bins: int = AMI_DEFAULT_BINS, max_dim: int = CAO_DEFAULT_MAX_DIM,
             max_cycles: int = MDOP_DEFAULT_MAX_CYCLES) -> EmbeddingEstimate:
    """(tau, dim) of an epoch stack by one of METHODS: "ami_cao" takes the
    AMI delay (max_lag, bins), then Cao's dimension at it (max_dim); "mdop"
    runs mdop_unified (max_cycles, max_lag). Every setting is checked, the
    unused ones too, and the estimate must pass evaluate's length rule."""
    check_settings(max_lag=max_lag, bins=bins, max_dim=max_dim, max_cycles=max_cycles)
    if method == "ami_cao":
        # both steps read every series: read a container's epochs once
        epochs = EpochStack(epochs.values, epochs.sample_rate)
        tau_sel = select_tau_ami(epochs, max_lag, bins)
        cao = cao_embedding_dimension(epochs, tau_sel.tau, max_dim)
        flags = []
        if tau_sel.no_local_minimum:
            flags.append("no_local_minimum")
        if cao.saturation_failure:
            flags.append("saturation_failure")
        est = EmbeddingEstimate(
            tau=tau_sel.tau,
            dim=cao.dim,
            method="ami_cao",
            ami_curve=tau_sel.curve,
            e1_curve=cao.e1_curve,
            flags=tuple(flags),
        )
    elif method == "mdop":
        est = mdop_unified(epochs, max_cycles=max_cycles, max_lag=max_lag)
    else:
        raise InvalidSetting(f"unknown estimator {method!r}, expected one of {METHODS}")
    # the length rule: LagTooLarge unless (dim-1)*tau < T - 1
    AugmentedParams(est.dim, est.tau).check_length(epochs.shape[2])
    return est
