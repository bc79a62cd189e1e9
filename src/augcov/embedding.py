"""Nonlinear-dynamics estimators for the stacking hyper-parameters: average
mutual information for the delay, Cao's neighbor-ratio method for the
dimension, and the unified MDOP procedure choosing both jointly.

Everything here is deterministic: no randomness, fixed reduction order, and
per-channel curves are accumulated over all channels and epochs before any
extremum is taken.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import ConstantSeries, InvalidSetting, LagTooLarge, TooShort

AMI_DEFAULT_BINS = 16
CAO_DEFAULT_THRESHOLD = 0.05
MDOP_DEFAULT_MAX_LAG = 10
FNN_RATIO = 10.0  # Kennel false-neighbor distance ratio
NN_BLOCK = 64  # rows per neighbour-search block: 64 x n float64, 0.4 MB at n = 768


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
    each of max_lag, tau and max_cycles one >= 1; the one check of the
    estimator entry points and of PipelineSpec."""
    for name, value in settings.items():
        low = 2 if name in ("bins", "max_dim") else 1
        if not isinstance(value, (int, np.integer)) or value < low:
            raise InvalidSetting(f"{name} must be an integer >= {low}, got {value!r}")


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

    curve = np.empty(max_lag)
    for lag in range(1, max_lag + 1):
        joint, _, _ = np.histogram2d(series[:-lag], series[lag:], bins=(edges, edges))
        joint /= joint.sum()
        px = joint.sum(axis=1)
        py = joint.sum(axis=0)
        nz = joint > 0
        ratio = joint[nz] / (px[:, None] * py[None, :])[nz]
        curve[lag - 1] = np.sum(joint[nz] * np.log(ratio))
    # histogram quantization can leave -1e-17 style residue
    return np.maximum(curve, 0.0)


def _iter_series(epoch_set):
    for session in epoch_set.sessions:
        for epoch in session.epochs:
            for channel in epoch.data:
                yield channel


def select_tau_ami(
    epoch_set, max_lag: int, bins: int = AMI_DEFAULT_BINS
) -> TauSelection:
    """Accumulate AMI curves over every channel of every epoch and return the
    lag of the first strict local minimum of the aggregate.

    When no interior local minimum exists in range the argmin is returned
    with no_local_minimum set.
    """
    check_settings(max_lag=max_lag, bins=bins)
    aggregate = np.zeros(max_lag)
    for channel in _iter_series(epoch_set):
        aggregate += average_mutual_information(channel, max_lag, bins)
    for i in range(1, max_lag - 1):
        if aggregate[i] < aggregate[i - 1] and aggregate[i] < aggregate[i + 1]:
            return TauSelection(i + 1, aggregate, False)
    return TauSelection(int(np.argmin(aggregate)) + 1, aggregate, True)


def _prefix_neighbours(points: np.ndarray, counts, wanted) -> dict:
    """Nearest strictly-distinct neighbour of each row, under the max metric,
    in every wanted prefix embedding of `points`.

    Prefix m (1-based) is points[:counts[m-1], :m]: the first m coordinates,
    over the rows where they exist. counts must not increase with m, and
    rows past a prefix's count may hold anything. Returns {m: (indices,
    distances)} for each m in `wanted`, both of length counts[m-1]; index -1
    marks rows with no distinct neighbour at all. Cao's method wants every
    prefix, MDOP only its full embedding.

    Distances at or below 1e-9 * ptp of the prefix are treated as duplicates
    (a periodic signal sampled at an integer period revisits the same state
    up to rounding), and ties resolve to the lowest index.

    The search walks blocks of NN_BLOCK rows. Each block's distance matrix
    grows one coordinate at a time, D_m = max(D_{m-1}, |coordinate m
    difference|), over the rows and columns where prefix m exists. max is
    exact, so every prefix gets the distances, indices and ties of a search
    from scratch. That costs O(n^2) per prefix dimension, where a fresh
    search costs O(n^2 * m), and memory stays O(NN_BLOCK * n).
    """
    last = max(wanted)
    tols = {
        m: 1e-9 * (float(np.ptp(points[:counts[m - 1], :m])) or 1.0) for m in wanted
    }
    found = {
        m: (np.empty(counts[m - 1], dtype=int), np.empty(counts[m - 1])) for m in wanted
    }
    for start in range(0, counts[0], NN_BLOCK):
        dists = None
        for m in range(1, last + 1):
            count = counts[m - 1]
            stop = min(start + NN_BLOCK, count)
            if stop <= start:
                break
            rows = np.arange(stop - start)
            coord = points[:count, m - 1]
            step = np.abs(coord[start:stop, None] - coord[None, :])
            if dists is None:
                step[rows, rows + start] = np.inf  # no row is its own neighbour
            else:
                np.maximum(dists[:stop - start, :count], step, out=step)
            dists = step
            if m not in found:
                continue
            local = np.argmin(dists, axis=1)
            nearest = dists[rows, local]
            # rows whose nearest point is a duplicate search again without them
            dup = np.nonzero(nearest <= tols[m])[0]
            if dup.size:
                masked = dists[dup]
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
    # column k holds s(i + k*tau); rows past counts[k-1] run off the series
    # and are zero-filled, never read
    padded = np.concatenate([series, np.zeros(max_e_dim * tau)])
    points = np.stack(
        [padded[k * tau:k * tau + counts[0]] for k in range(max_e_dim + 1)], axis=1
    )
    found = _prefix_neighbours(points, counts, range(1, max_e_dim + 1))
    out = np.full(max_e_dim, np.nan)
    for m, (nn_idx, nn_dist) in found.items():
        i = np.nonzero(nn_idx >= 0)[0]
        if i.size == 0:
            continue
        j = nn_idx[i]
        d_up = np.maximum(nn_dist[i], np.abs(points[i, m] - points[j, m]))
        out[m - 1] = np.mean(d_up / nn_dist[i])
    return out


def cao_embedding_dimension(
    epoch_set,
    tau: int,
    max_dim: int,
    threshold: float = CAO_DEFAULT_THRESHOLD,
) -> CaoResult:
    """Embedding dimension by Cao's neighbor-distance-ratio statistic.

    E1(m) = E(m+1)/E(m) is averaged over all channels and epochs; the result
    is the smallest D with both |E1(D) - 1| and |E1(D+1) - 1| below the
    threshold, or max_dim with saturation_failure set when the curve never
    settles. Each series takes one incremental neighbour search for all
    max_dim + 1 dimensions (see _prefix_neighbours): O(n^2 * max_dim) time.
    """
    check_settings(tau=tau, max_dim=max_dim)
    max_e_dim = max_dim + 1
    total = np.zeros(max_e_dim)
    count = 0
    for channel in _iter_series(epoch_set):
        e_curve = _cao_e_curve(channel, tau, max_e_dim)
        if np.any(np.isnan(e_curve)) or np.any(e_curve == 0.0):
            continue
        total += e_curve
        count += 1
    if count == 0:
        raise TooShort("no channel produced a usable E curve")
    e_mean = total / count
    e1 = e_mean[1:] / e_mean[:-1]  # E1(m) for m = 1..max_dim
    settled = np.abs(e1 - 1.0) < threshold
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
    current = np.stack([series[t - d] for d in delays], axis=1)
    dim = len(delays)
    nn_idx, nn_dist = _prefix_neighbours(current, [t.size] * dim, [dim])[dim]
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
    epoch_set,
    max_cycles: int = 8,
    fnn_threshold: float = 0.05,
    max_lag: int = MDOP_DEFAULT_MAX_LAG,
) -> EmbeddingEstimate:
    """Joint (tau, dim) estimate by iterative embedding.

    Starting from the bare series, each cycle picks the delayed coordinate
    whose directional-derivative beta statistic (pooled geometric mean of
    nearest-neighbor coordinate ratios over all channels and epochs) is
    largest, and uses it to probe the current embedding with the Kennel
    false-neighbor fraction: when even the most informative candidate
    separates fewer than fnn_threshold of the current neighbor pairs, the
    embedding is complete and the candidate is not added. Otherwise the
    coordinate joins the embedding and the cycle repeats, up to max_cycles
    additions (then flagged "no_termination").

    dim is the final coordinate count (base coordinate included); tau is the
    half-up-rounded mean of the added lags.
    """
    check_settings(max_cycles=max_cycles, max_lag=max_lag)
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
        for channel in _iter_series(epoch_set):
            s, c, f, tot = _mdop_cycle_stats(channel, delays, candidates)
            sums += s
            counts += c
            false_counts += f
            totals += tot
        if totals == 0:
            raise TooShort("no usable neighbor pairs for the beta statistic")
        beta = np.where(counts > 0, sums / np.maximum(counts, 1), -np.inf)
        best = int(np.argmax(beta))
        if chosen and false_counts[best] / totals < fnn_threshold:
            break
        chosen.append(candidates[best])
        delays.append(candidates[best])
    else:
        flags.append("no_termination")

    tau = max(1, int(np.floor(np.mean(chosen) + 0.5)))
    est = EmbeddingEstimate(
        tau=tau,
        dim=1 + len(chosen),
        method="mdop",
        cycle_lags=tuple(chosen),
        flags=tuple(flags),
    )
    _check_fits(est, epoch_set.n_samples)
    return est


def estimate_traditional(
    epoch_set,
    max_lag: int = MDOP_DEFAULT_MAX_LAG,
    bins: int = AMI_DEFAULT_BINS,
    max_dim: int = 8,
    threshold: float = CAO_DEFAULT_THRESHOLD,
) -> EmbeddingEstimate:
    """AMI delay followed by Cao dimension (the two-step route)."""
    check_settings(max_lag=max_lag, bins=bins, max_dim=max_dim)
    tau_sel = select_tau_ami(epoch_set, max_lag, bins)
    cao = cao_embedding_dimension(epoch_set, tau_sel.tau, max_dim, threshold)
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
    _check_fits(est, epoch_set.n_samples)
    return est


def _check_fits(est: EmbeddingEstimate, n_samples: int) -> None:
    if (est.dim - 1) * est.tau >= n_samples:
        raise LagTooLarge(
            f"estimated (dim={est.dim}, tau={est.tau}) needs "
            f"(dim-1)*tau < T = {n_samples}; epochs are too short for the "
            f"estimated embedding"
        )


def curve_to_csv(curve: np.ndarray, path, start: int = 1) -> None:
    """Write a diagnostic curve as lag,value rows."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lag", "value"])
        for i, v in enumerate(curve, start=start):
            writer.writerow([i, repr(float(v))])
