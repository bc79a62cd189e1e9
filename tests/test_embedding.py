import os

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from augcov.covariance import EpochStack
from augcov.data import ArSpec, generate_ar_dataset, read_epochset, write_epochset
from augcov.embedding import (
    METHODS,
    NN_BLOCK,
    EmbeddingEstimate,
    _cao_e_curve,
    _mdop_cycle_stats,
    _prefix_neighbours,
    average_mutual_information,
    cao_embedding_dimension,
    estimate,
    mdop_unified,
    select_tau_ami,
)
from augcov.errors import ConstantSeries, InvalidSetting, LagTooLarge, TooShort


def make_set(series_list, rate=250.0):
    return EpochStack(np.stack([np.atleast_2d(s) for s in series_list]), rate)


def clean_sine_set(period=64.0, t=640, n_epochs=3, channels=2, seed=0):
    """Pure sines with random phases: a clean closed curve in delay space."""
    rng = np.random.default_rng(seed)
    epochs = []
    for _ in range(n_epochs):
        rows = [
            np.sin(2 * np.pi * np.arange(t) / period + rng.uniform(0, 2 * np.pi))
            for _ in range(channels)
        ]
        epochs.append(np.stack(rows))
    return EpochStack(np.stack(epochs), 250.0)


def noisy_sine_set(period=64.0, t=2000, n_epochs=4, channels=2, noise=0.15, seed=0):
    """Noisy sines: the statistical setting where the AMI quarter-period
    minimum holds (|correlation| of the pair minimizes at period/4)."""
    rng = np.random.default_rng(seed)
    epochs = []
    for _ in range(n_epochs):
        rows = [
            np.sin(2 * np.pi * np.arange(t) / period + rng.uniform(0, 2 * np.pi))
            + noise * rng.standard_normal(t)
            for _ in range(channels)
        ]
        epochs.append(np.stack(rows))
    return EpochStack(np.stack(epochs), 250.0)


def noise_set(t=800, n_epochs=3, channels=2, seed=1):
    rng = np.random.default_rng(seed)
    return EpochStack(rng.standard_normal((n_epochs, channels, t)), 250.0)


def ar3_chaotic_series(t, seed, burn=300):
    """Stable AR(3) filter driven by a deterministic logistic-map input."""
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.2, 0.8)
    xs = [0.0, 0.0, 0.0]
    out = []
    for _ in range(t + burn):
        u = 3.9 * u * (1.0 - u)
        x = 0.5 * xs[-1] - 0.3 * xs[-2] + 0.2 * xs[-3] + (u - 0.5)
        xs.append(x)
        out.append(x)
    return np.array(out[burn:])


@st.composite
def embedding_series(draw, min_size=6, max_size=90):
    """Series whose delay vectors tie, repeat or coincide."""
    n = draw(st.integers(min_size, max_size))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["normal", "integer", "sine", "stretches"]))
    if kind == "normal":
        x = rng.standard_normal(n)
    elif kind == "integer":  # few values: exact distance ties everywhere
        x = rng.integers(0, draw(st.integers(1, 4)), n).astype(float)
    elif kind == "sine":  # integer period: states revisited up to rounding
        period = draw(st.integers(2, 12))
        x = rng.uniform(0.5, 2.0) * np.sin(2 * np.pi * np.arange(n) / period + rng.uniform(0, 7))
    else:  # constant stretches: runs of identical delay vectors
        x = np.repeat(rng.standard_normal(n), rng.integers(1, 6, n))[:n]
    return x * draw(st.sampled_from([1.0, 1e-6, 3e4]))


def histogram_ami(series, max_lag, bins):
    """average_mutual_information with one np.histogram2d per lag."""
    edges = np.linspace(series.min(), series.max(), bins + 1)
    curve = np.empty(max_lag)
    for lag in range(1, max_lag + 1):
        joint, _, _ = np.histogram2d(series[:-lag], series[lag:], bins=(edges, edges))
        joint /= joint.sum()
        px = joint.sum(axis=1)
        py = joint.sum(axis=0)
        nz = joint > 0
        ratio = joint[nz] / (px[:, None] * py[None, :])[nz]
        curve[lag - 1] = np.sum(joint[nz] * np.log(ratio))
    return np.maximum(curve, 0.0)


class TestAverageMutualInformation:
    @settings(max_examples=100, deadline=None)
    @given(embedding_series(30, 400), st.integers(0, 4), st.integers(1, 12),
           st.integers(2, 24))
    def test_matches_histogram2d(self, series, n_top, max_lag, bins):
        """Equal to the histogram2d route, also when the maximum repeats and
        values fall on the top edge, which belongs to the last bin."""
        assume(series.size > max_lag + 10 and np.ptp(series) > 0)
        series = series.copy()
        series[::max(1, series.size // (n_top + 1))][:n_top] = series.max()
        assert np.array_equal(average_mutual_information(series, max_lag, bins),
                              histogram_ami(series, max_lag, bins))

    def test_iid_noise_mi_near_zero(self):
        x = np.random.default_rng(2).standard_normal(100_000)
        curve = average_mutual_information(x, 10)
        assert np.all(curve < 0.02)

    def test_noisy_sine_first_minimum_near_quarter_period(self):
        rng = np.random.default_rng(3)
        x = np.sin(2 * np.pi * np.arange(4000) / 64.0) + 0.15 * rng.standard_normal(4000)
        curve = average_mutual_information(x, 32)
        interior = [
            i + 1
            for i in range(1, 31)
            if curve[i] < curve[i - 1] and curve[i] < curve[i + 1]
        ]
        assert interior and abs(interior[0] - 16) <= 2

    def test_nonnegative(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            curve = average_mutual_information(rng.standard_normal(500), 12)
            assert np.all(curve >= 0.0)

    def test_reversed_series_same_mi(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(2000)
        a = average_mutual_information(x, 8)
        b = average_mutual_information(x[::-1], 8)
        assert np.max(np.abs(a - b)) < 1e-12

    def test_constant_series(self):
        with pytest.raises(ConstantSeries):
            average_mutual_information(np.ones(500), 5)

    def test_too_short(self):
        with pytest.raises(TooShort):
            average_mutual_information(np.arange(12.0), 10)


class TestSelectTau:
    def test_noisy_sine_dataset_quarter_period(self):
        for seed in range(3):
            sel = select_tau_ami(noisy_sine_set(seed=seed), max_lag=32)
            assert abs(sel.tau - 16) <= 2

    def test_white_noise_flat_curve(self):
        sel = select_tau_ami(noise_set(), max_lag=20)
        per_series = sel.curve / 6.0
        assert np.ptp(per_series) < 0.05  # flat up to histogram bias
        assert 1 <= sel.tau <= 20

    def test_singleton_aggregation_matches_single_series(self):
        rng = np.random.default_rng(6)
        x = np.sin(2 * np.pi * np.arange(2000) / 64.0) + 0.15 * rng.standard_normal(2000)
        sel = select_tau_ami(make_set([x]), max_lag=24)
        assert np.allclose(sel.curve, average_mutual_information(x, 24))

    def test_scale_invariance(self):
        base = noisy_sine_set(seed=7)
        scaled = EpochStack(base.values * 37.5, base.sample_rate)
        assert select_tau_ami(base, 24).tau == select_tau_ami(scaled, 24).tau


def brute_force_nn(points):
    """Nearest distinct neighbour from the full n x n Chebyshev matrix."""
    tol = 1e-9 * (float(np.ptp(points)) or 1.0)
    d = np.max(np.abs(points[:, None, :] - points[None, :, :]), axis=2)
    np.fill_diagonal(d, np.inf)
    d[d <= tol] = np.inf
    idx = np.argmin(d, axis=1)  # first minimum: ties go to the lowest index
    dist = d[np.arange(len(points)), idx]
    idx[~np.isfinite(dist)] = -1
    return idx, dist


def per_dimension_cao_e_curve(series, tau, max_e_dim):
    """Cao's E(m) with a fresh delay matrix and search for every m."""
    n = series.size
    out = np.full(max_e_dim, np.nan)
    for m in range(1, max_e_dim + 1):
        count = n - m * tau
        y_up = np.stack([series[k * tau:k * tau + count] for k in range(m + 1)], axis=1)
        idx, dist = brute_force_nn(y_up[:, :m])
        i = np.nonzero(idx >= 0)[0]
        if i.size == 0:
            continue
        d_up = np.max(np.abs(y_up[i] - y_up[idx[i]]), axis=1)
        out[m - 1] = np.mean(d_up / dist[i])
    return out


def check_every_prefix(series, offsets, counts):
    """_prefix_neighbours against brute_force_nn for every prefix, and the
    full prefix alone against the full prefix of the every-prefix search."""
    dim = len(offsets)
    every = _prefix_neighbours(series, offsets, counts, range(1, dim + 1))
    last = _prefix_neighbours(series, offsets, counts, [dim])
    assert sorted(every) == list(range(1, dim + 1))
    assert list(last) == [dim]
    for m, (idx, dist) in every.items():
        # prefix m as a points matrix: column k holds series[i + offsets[k]]
        points = np.stack([series[o:o + counts[m - 1]] for o in offsets[:m]], axis=1)
        ref_idx, ref_dist = brute_force_nn(points)
        assert np.array_equal(idx, ref_idx)
        assert np.array_equal(dist, ref_dist)
    assert np.array_equal(last[dim][0], every[dim][0])
    assert np.array_equal(last[dim][1], every[dim][1])


class TestPrefixNeighbours:
    @settings(max_examples=150, deadline=None)
    @given(embedding_series(), st.integers(1, 4), st.integers(1, 6))
    def test_every_prefix_matches_brute_force(self, series, tau, max_e_dim):
        counts = [series.size - m * tau for m in range(1, max_e_dim + 1)]
        assume(counts[-1] >= 2)
        # samples past every prefix's rows are NaN: they must never be read
        padded = np.concatenate([series, np.full(max_e_dim * tau, np.nan)])
        check_every_prefix(padded, [k * tau for k in range(max_e_dim)], counts)

    @settings(max_examples=60, deadline=None)
    @given(embedding_series(NN_BLOCK + 1, 3 * NN_BLOCK), st.integers(1, 12),
           st.integers(1, 8))
    def test_uniform_offsets_across_blocks(self, series, tau, max_e_dim):
        """Cao's offsets k * tau, with rows on both sides of block edges."""
        counts = [series.size - m * tau for m in range(1, max_e_dim + 1)]
        assume(counts[-1] > NN_BLOCK)
        check_every_prefix(series, [k * tau for k in range(max_e_dim)], counts)

    @settings(max_examples=60, deadline=None)
    @given(embedding_series(NN_BLOCK + 12, 3 * NN_BLOCK),
           st.permutations(range(1, 11)), st.integers(1, 6))
    def test_mdop_delay_sets_across_blocks(self, series, lags, dim):
        """MDOP's offsets horizon - d: not monotone, one count for all."""
        delays = [0, *lags[:dim - 1]]
        horizon = 10
        offsets = [horizon - d for d in delays]
        check_every_prefix(series, offsets, [series.size - horizon] * dim)

    @settings(max_examples=150, deadline=None)
    @given(embedding_series(), st.integers(1, 4), st.integers(1, 6))
    def test_cao_curve_equals_per_dimension_search(self, series, tau, max_e_dim):
        assume(series.size - max_e_dim * tau >= 2)
        assert np.array_equal(
            _cao_e_curve(series, tau, max_e_dim),
            per_dimension_cao_e_curve(series, tau, max_e_dim),
            equal_nan=True,
        )

    def test_rows_beyond_the_block_size(self):
        rng = np.random.default_rng(11)
        series = rng.integers(0, 5, 300).astype(float)
        assert np.array_equal(
            _cao_e_curve(series, 2, 5), per_dimension_cao_e_curve(series, 2, 5),
            equal_nan=True,
        )


class TestCao:
    def test_sine_dimension_two(self):
        for seed in range(3):
            cao = cao_embedding_dimension(clean_sine_set(seed=seed), tau=16, max_dim=6)
            assert cao.dim == 2
            assert not cao.saturation_failure

    def test_iid_noise_flags_saturation_failure(self):
        cao = cao_embedding_dimension(noise_set(), tau=1, max_dim=6)
        assert cao.saturation_failure
        assert cao.dim == 6

    def test_ar3_driven_bounded_dimension(self):
        for seed in range(5):
            series = ar3_chaotic_series(900, seed)
            cao = cao_embedding_dimension(make_set([series]), tau=1, max_dim=8)
            assert cao.dim <= 5

    def test_scale_invariance(self):
        base = clean_sine_set(seed=8)
        scaled = EpochStack(base.values * 0.004, base.sample_rate)
        a = cao_embedding_dimension(base, tau=16, max_dim=5)
        b = cao_embedding_dimension(scaled, tau=16, max_dim=5)
        assert a.dim == b.dim

    def test_too_short(self):
        with pytest.raises(TooShort):
            cao_embedding_dimension(make_set([np.arange(30.0)]), tau=10, max_dim=5)


def reference_mdop(epochs, max_cycles, fnn_threshold, max_lag):
    """Unvectorized re-derivation of the cycle logic, used as an oracle."""
    series_list = [ch for e in epochs for ch in e.data]
    delays = [0]
    chosen = []
    for _ in range(max_cycles):
        candidates = [lag for lag in range(1, max_lag + 1) if lag not in delays]
        stats = {lag: [0.0, 0, 0, 0] for lag in candidates}  # logsum, n, false, total
        for series in series_list:
            horizon = max(max(delays), max(candidates))
            ts = range(horizon, series.size)
            points = np.array([[series[t - d] for d in delays] for t in ts])
            scale = np.ptp(points) or 1.0
            for a, t in enumerate(ts):
                best_j, best_d = -1, np.inf
                for b, t2 in enumerate(ts):
                    if b == a:
                        continue
                    d = np.max(np.abs(points[a] - points[b]))
                    if 1e-9 * scale < d < best_d:
                        best_d, best_j = d, t2
                if best_j < 0:
                    continue
                for lag in candidates:
                    phi = abs(series[t - lag] - series[best_j - lag]) / best_d
                    if phi > 0:
                        stats[lag][0] += np.log(phi)
                        stats[lag][1] += 1
                    if phi > 10.0:
                        stats[lag][2] += 1
                    stats[lag][3] += 1
        beta = {lag: (s[0] / s[1] if s[1] else -np.inf) for lag, s in stats.items()}
        best = max(candidates, key=lambda lag: (beta[lag], -lag))
        if chosen and stats[best][2] / stats[best][3] < fnn_threshold:
            break
        chosen.append(best)
        delays.append(best)
    return chosen


def points_mdop_cycle_stats(series, delays, candidates):
    """_mdop_cycle_stats from a stacked (len(t), len(delays)) points matrix,
    column k holding series[t - delays[k]], searched by brute_force_nn."""
    horizon = max(max(delays), max(candidates))
    t = np.arange(horizon, series.size)
    points = np.stack([series[t - d] for d in delays], axis=1)
    idx, dist = brute_force_nn(points)
    i = np.nonzero(idx >= 0)[0]
    j = idx[i]
    sums, counts, falses = [], [], []
    for lag in candidates:
        phi = np.abs(series[t[i] - lag] - series[t[j] - lag]) / dist[i]
        sums.append(np.sum(np.log(phi[phi > 0.0])))
        counts.append(int(np.sum(phi > 0.0)))
        falses.append(int(np.sum(phi > 10.0)))
    return np.array(sums), np.array(counts), np.array(falses), i.size


class TestMdop:
    @settings(max_examples=60, deadline=None)
    @given(embedding_series(NN_BLOCK + 12, 3 * NN_BLOCK),
           st.permutations(range(1, 11)), st.integers(1, 6))
    def test_cycle_stats_match_points_search(self, series, lags, dim):
        delays, candidates = [0, *lags[:dim - 1]], sorted(lags[dim - 1:])
        got = _mdop_cycle_stats(series, delays, candidates)
        want = points_mdop_cycle_stats(series, delays, candidates)
        for a, b in zip(got[:3], want[:3]):
            assert np.array_equal(a, b)
        assert got[3] == want[3]

    def test_sine_terminates_in_the_plane(self):
        est = mdop_unified(clean_sine_set(seed=0), max_cycles=6, max_lag=20)
        assert est.dim == 2
        assert 10 <= est.tau <= 22
        assert "no_termination" not in est.flags

    def test_matches_reference_implementation(self):
        es = clean_sine_set(t=300, n_epochs=2, channels=1, seed=9)
        est = mdop_unified(es, max_cycles=4, max_lag=12)
        oracle = reference_mdop(es, max_cycles=4, fnn_threshold=0.05, max_lag=12)
        assert list(est.cycle_lags) == oracle

    def test_single_cycle_tau_is_that_lag(self):
        est = mdop_unified(clean_sine_set(seed=1), max_cycles=6, max_lag=20)
        assert len(est.cycle_lags) == 1
        assert est.tau == est.cycle_lags[0]

    def test_white_noise_bounded_and_flagged(self):
        for seed in range(5):
            est = mdop_unified(noise_set(seed=seed, t=800), max_cycles=4, max_lag=8)
            assert est.dim <= 5  # base coordinate + at most max_cycles additions
            assert "no_termination" in est.flags

    def test_deterministic(self):
        a = mdop_unified(clean_sine_set(seed=2), max_cycles=5, max_lag=16)
        b = mdop_unified(clean_sine_set(seed=2), max_cycles=5, max_lag=16)
        assert a == b


class TestEstimate:
    def test_runs_the_named_method(self):
        epochs = clean_sine_set(t=300, seed=3)
        assert estimate(epochs, "mdop", max_cycles=4, max_lag=12, bins=3, max_dim=2) == \
            mdop_unified(epochs, max_cycles=4, max_lag=12)
        got = estimate(epochs, "ami_cao", max_lag=12, bins=8, max_dim=3, max_cycles=1)
        tau_sel = select_tau_ami(epochs, 12, 8)
        cao = cao_embedding_dimension(epochs, tau_sel.tau, 3)
        flags = (("no_local_minimum",) * tau_sel.no_local_minimum
                 + ("saturation_failure",) * cao.saturation_failure)
        assert (got.tau, got.dim, got.flags) == (tau_sel.tau, cao.dim, flags)
        assert np.array_equal(got.ami_curve, tau_sel.curve)
        assert np.array_equal(got.e1_curve, cao.e1_curve)

    @pytest.mark.skipif(not hasattr(os, "pread"), reason="needs os.pread")
    def test_a_container_epoch_is_read_once(self, tmp_path, monkeypatch):
        """On a file-read stack, ami_cao reads each epoch once (one os.pread)
        and hands the same values to AMI and to Cao, as mdop does, and both
        estimate what the in-memory stack gives."""
        epoch_set = generate_ar_dataset(ArSpec(
            coefficients=[[], []], innovations=[np.eye(2), 2.0 * np.eye(2)], lag=1,
            n_samples=160, epochs_per_class=3, seed=5))
        write_epochset(epoch_set, tmp_path / "x.acm")
        on_disk = read_epochset(tmp_path / "x.acm").all_epochs()[0]
        reads = []
        pread = os.pread
        monkeypatch.setattr(os, "pread", lambda *args: reads.append(args) or pread(*args))
        for method in METHODS:
            reads.clear()
            got = estimate(on_disk, method, max_lag=6, max_dim=3, max_cycles=2)
            assert len(reads) == len(on_disk) == 6, method
            want = estimate(epoch_set.epochs, method, max_lag=6, max_dim=3, max_cycles=2)
            for name in ("tau", "dim", "flags", "cycle_lags", "ami_curve", "e1_curve"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), name

    def test_unknown_method(self):
        with pytest.raises(InvalidSetting, match="unknown estimator 'nolds'"):
            estimate(noise_set(t=64), "nolds")

    @pytest.mark.parametrize("setting,value", [
        ("bins", 0), ("bins", 1), ("max_lag", 0), ("max_dim", 1), ("max_cycles", 0),
        ("bins", 16.0),
    ])
    def test_bad_setting_rejected(self, setting, value):
        with pytest.raises(InvalidSetting, match=f"{setting} must be an integer >= "):
            estimate(noise_set(t=64), "ami_cao", **{setting: value})


class TestTraditionalWrapper:
    def test_estimates_fit_the_epochs(self):
        est = estimate(noisy_sine_set(t=1200, seed=10), "ami_cao", max_lag=24, max_dim=5)
        assert est.method == "ami_cao"
        assert (est.dim - 1) * est.tau < 1200
        assert est.ami_curve is not None and est.e1_curve is not None


def test_select_tau_flags_monotone_curve():
    # a near-unit-root AR(1) decorrelates slowly: MI decreases monotonically
    # over the scan range, so the argmin fallback fires with the flag set
    rng = np.random.default_rng(70)
    x = np.zeros(4000)
    for t in range(1, 4000):
        x[t] = 0.995 * x[t - 1] + rng.standard_normal()
    sel = select_tau_ami(make_set([x[500:]]), max_lag=10)
    assert sel.no_local_minimum
    assert sel.tau == 10  # argmin of a decreasing curve is the last lag


class TestStackSeries:
    """The estimators read a stack's series as values.reshape(-1, T). The
    references here walk sessions, then epochs, then channels, one series
    at a time, and accumulate in that order."""

    def epoch_set(self):
        return generate_ar_dataset(ArSpec(
            coefficients=[[np.array([[0.6, 0.2], [-0.2, 0.5]])], []],
            innovations=[np.eye(2), np.eye(2)],
            lag=2, n_samples=160, epochs_per_class=2, seed=12, n_sessions=2,
        ))

    def series(self, epoch_set):
        return [ch for s in epoch_set.sessions for e in s.epochs for ch in e.data]

    def test_ami_curve(self):
        epoch_set = self.epoch_set()
        want = np.zeros(12)
        for x in self.series(epoch_set):
            want += average_mutual_information(x, 12, 8)
        got = select_tau_ami(epoch_set.all_epochs()[0], max_lag=12, bins=8).curve
        assert np.array_equal(got, want)

    def test_cao_curve(self):
        epoch_set = self.epoch_set()
        curves = [_cao_e_curve(x, 2, 6) for x in self.series(epoch_set)]
        total = np.zeros(6)
        for curve in curves:
            total += curve
        e_mean = total / len(curves)
        got = cao_embedding_dimension(epoch_set.all_epochs()[0], tau=2, max_dim=5)
        assert np.array_equal(got.e1_curve, e_mean[1:] / e_mean[:-1])

    def test_mdop_cycles(self):
        epoch_set = self.epoch_set()
        series = self.series(epoch_set)
        delays, chosen = [0], []
        for _ in range(3):
            candidates = [lag for lag in range(1, 9) if lag not in delays]
            sums, counts, falses, totals = 0.0, 0, 0, 0
            for x in series:
                s, c, f, tot = _mdop_cycle_stats(x, delays, candidates)
                sums, counts, falses, totals = sums + s, counts + c, falses + f, totals + tot
            beta = np.where(counts > 0, sums / np.maximum(counts, 1), -np.inf)
            best = int(np.argmax(beta))
            if chosen and falses[best] / totals < 0.05:
                break
            chosen.append(candidates[best])
            delays.append(candidates[best])
        got = mdop_unified(epoch_set.all_epochs()[0], max_cycles=3, max_lag=8)
        assert list(got.cycle_lags) == chosen


def test_estimates_obey_the_evaluate_length_rule(monkeypatch):
    # evaluate needs (order-1)*lag < T - 1; estimate refuses an estimate at the
    # edge, whichever method made it: here tau 3 and dim 4, so T must exceed 10
    import augcov.embedding as embedding

    monkeypatch.setattr(embedding, "select_tau_ami",
                        lambda *args: embedding.TauSelection(3, np.zeros(3), False))
    monkeypatch.setattr(embedding, "cao_embedding_dimension",
                        lambda *args: embedding.CaoResult(4, np.zeros(4), False))
    monkeypatch.setattr(embedding, "mdop_unified",
                        lambda *args, **kwargs: EmbeddingEstimate(3, 4, "mdop"))
    for method in ("ami_cao", "mdop"):
        assert (estimate(noise_set(t=11), method).dim, method) == (4, method)
        with pytest.raises(LagTooLarge):
            estimate(noise_set(t=10), method)
