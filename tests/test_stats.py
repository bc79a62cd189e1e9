import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr, ndtri

from augcov.errors import (
    AllZeroDiffs,
    DegeneratePValue,
    DegenerateVariance,
    LengthMismatch,
    OneClassOnly,
    TooFewSamples,
)
from augcov.stats import (
    _upper_quantile,
    _upper_tail,
    accuracy,
    auc_roc,
    bonferroni,
    cohens_d,
    permutation_paired_t,
    stouffer_combine,
    wilcoxon_signed_rank,
)


def auc_pairwise_oracle(scores, labels):
    """O(n^2) count of positive-over-negative orderings, ties at 1/2."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels).astype(bool)
    pos = scores[labels]
    neg = scores[~labels]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (pos.size * neg.size)


class TestAuc:
    def test_perfect_ordering(self):
        assert auc_roc([0.1, 0.2, 0.9, 0.8], [0, 0, 1, 1]) == 1.0

    def test_all_ties(self):
        assert auc_roc([0.5] * 6, [0, 1, 0, 1, 0, 1]) == 0.5

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(40)
        for _ in range(30):
            n = int(rng.integers(5, 50))
            scores = np.round(rng.standard_normal(n), 1)  # induce ties
            labels = rng.random(n) > 0.4
            if labels.all() or not labels.any():
                continue
            assert auc_roc(scores, labels) == pytest.approx(
                auc_pairwise_oracle(scores, labels), abs=1e-12
            )

    def test_complement_identity(self):
        rng = np.random.default_rng(41)
        scores = np.round(rng.standard_normal(40), 1)
        labels = rng.random(40) > 0.5
        labels[0], labels[1] = True, False
        total = auc_roc(scores, labels) + auc_roc(-scores, labels)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_one_class_only(self):
        with pytest.raises(OneClassOnly):
            auc_roc([0.1, 0.2], [1, 1])


class TestAccuracy:
    def test_all_correct(self):
        assert accuracy([1, 0, 1], [1, 0, 1]) == 1.0

    def test_all_wrong(self):
        assert accuracy([1, 1, 1], [0, 0, 0]) == 0.0

    def test_half(self):
        assert accuracy([1] * 5 + [0] * 5, [1] * 10) == 0.5

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            accuracy([1, 2], [1, 2, 3])


class TestWilcoxon:
    def test_exact_all_positive_n6(self):
        assert wilcoxon_signed_rank([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]) == pytest.approx(1 / 64)

    def test_symmetric_diffs_at_least_half(self):
        p = wilcoxon_signed_rank([1.0, -1.0, 2.0, -2.0, 3.0, -3.0])
        assert p >= 0.5

    def test_exact_matches_brute_force(self):
        rng = np.random.default_rng(42)
        diffs = rng.standard_normal(8)
        ranks = np.argsort(np.argsort(np.abs(diffs))) + 1.0
        w_obs = ranks[diffs > 0].sum()
        count = sum(
            1
            for signs in itertools.product((0, 1), repeat=8)
            if np.dot(signs, ranks) >= w_obs - 1e-12
        )
        assert wilcoxon_signed_rank(diffs) == pytest.approx(count / 256)

    def test_exact_vs_normal_agreement_at_boundary(self):
        rng = np.random.default_rng(43)
        gaps = []
        for _ in range(30):
            diffs = rng.standard_normal(12) + 0.4
            if np.any(diffs == 0) or len(diffs[diffs != 0]) < 12:
                continue
            exact = wilcoxon_signed_rank(diffs)
            # same statistic through the approximation path: n=13 forces it
            padded = np.concatenate([diffs, [1e-9]])
            approx = wilcoxon_signed_rank(padded)
            gaps.append(abs(exact - approx))
        assert np.mean(gaps) < 0.02

    def test_all_zero(self):
        with pytest.raises(AllZeroDiffs):
            wilcoxon_signed_rank([0.0, 0.0, 0.0, 0.0, 0.0])

    def test_too_few(self):
        with pytest.raises(TooFewSamples):
            wilcoxon_signed_rank([1.0, 2.0, 0.0, 0.0, 0.0])

    def test_null_calibration_super_uniform(self):
        rng = np.random.default_rng(44)
        rejections = 0
        for _ in range(200):
            diffs = rng.standard_normal(25)
            if wilcoxon_signed_rank(diffs) < 0.05:
                rejections += 1
        assert rejections / 200 <= 0.07


class TestPermutationPairedT:
    def test_exhaustive_all_positive_n4(self):
        assert permutation_paired_t([1.0, 2.0, 3.0, 4.0], n_perm=10_000) == pytest.approx(1 / 16)

    def test_symmetric_t_zero(self):
        p = permutation_paired_t([1.0, -1.0, 2.0, -2.0, 1.5, -1.5], n_perm=10_000)
        assert 0.4 <= p <= 0.6

    def test_always_in_unit_interval(self):
        rng = np.random.default_rng(45)
        for _ in range(20):
            diffs = rng.standard_normal(int(rng.integers(3, 20)))
            if np.ptp(diffs) == 0:
                continue
            p = permutation_paired_t(diffs, n_perm=200, seed=1)
            assert 0.0 < p <= 1.0

    def test_monte_carlo_reproducible(self):
        rng = np.random.default_rng(46)
        diffs = rng.standard_normal(20) + 0.3
        a = permutation_paired_t(diffs, n_perm=500, seed=7)
        b = permutation_paired_t(diffs, n_perm=500, seed=7)
        assert a == b

    def test_exhaustive_seed_independent(self):
        diffs = [0.5, 1.5, -0.3, 0.9]
        a = permutation_paired_t(diffs, n_perm=1000, seed=1)
        b = permutation_paired_t(diffs, n_perm=1000, seed=999)
        assert a == b

    def test_degenerate_variance(self):
        with pytest.raises(DegenerateVariance):
            permutation_paired_t([2.0, 2.0, 2.0, 2.0])


class TestStouffer:
    def test_single_p_identity(self):
        assert stouffer_combine([0.07]) == pytest.approx(0.07, abs=1e-12)

    def test_two_equal_p(self):
        # z = sqrt(2) * z(0.05)
        expected = float(ndtr(-np.sqrt(2.0) * ndtri(0.95)))
        combined = stouffer_combine([0.05, 0.05])
        assert combined == pytest.approx(expected, abs=1e-12)
        assert combined == pytest.approx(0.0101, abs=2e-4)

    def test_p_and_complement_cancel(self):
        assert stouffer_combine([0.2, 0.8]) == pytest.approx(0.5, abs=1e-12)

    def test_weights_rescale_invariant(self):
        p = [0.02, 0.3, 0.6]
        w = [2.0, 1.0, 1.5]
        assert stouffer_combine(p, w) == pytest.approx(
            stouffer_combine(p, [x * 10 for x in w]), abs=1e-12
        )

    def test_degenerate_p(self):
        with pytest.raises(DegeneratePValue):
            stouffer_combine([0.0, 0.5])
        with pytest.raises(DegeneratePValue):
            stouffer_combine([1.0])


class TestNormalTailAndQuantile:
    """The standard-library normal tail and quantile against scipy's ndtr
    and ndtri."""

    @settings(max_examples=500, deadline=None)
    @given(st.floats(-37.0, 37.0))
    def test_upper_tail_is_ndtr_of_minus_z(self, z):
        assert _upper_tail(z) == pytest.approx(ndtr(-z), rel=1e-12, abs=0.0)

    @settings(max_examples=500, deadline=None)
    @given(st.floats(1e-12, 1.0 - 1e-12))
    def test_upper_quantile_is_ndtri_of_one_minus_p(self, p):
        assert _upper_quantile(np.array([p]))[0] == pytest.approx(
            ndtri(1.0 - p), rel=1e-14, abs=0.0)

    def test_the_one_plus_erf_form_fails_where_erfc_holds(self):
        z = 8.0
        expected = pytest.approx(ndtr(-z), rel=1e-12, abs=0.0)
        assert 0.5 * (1.0 + math.erf(-z / math.sqrt(2.0))) != expected
        assert _upper_tail(z) == expected

    def test_p_too_small_to_leave_one_minus_p_below_one(self):
        assert _upper_quantile(np.array([1e-20]))[0] == math.inf == ndtri(1.0 - 1e-20)
        assert stouffer_combine([1e-20, 0.5]) == 0.0


class TestBonferroni:
    def test_scales(self):
        assert bonferroni(0.01, 5) == pytest.approx(0.05)

    def test_caps_at_one(self):
        assert bonferroni(0.3, 5) == 1.0

    def test_single_hypothesis_identity(self):
        assert bonferroni(0.2, 1) == 0.2


class TestCohensD:
    def test_zero_spread_is_zero(self):
        assert cohens_d([0.0, 0.0, 0.0]) == 0.0
        assert cohens_d([1.0, 1.0, 1.0]) == 0.0

    def test_matches_definition(self):
        rng = np.random.default_rng(47)
        d = rng.standard_normal(30) + 0.5
        assert cohens_d(d) == pytest.approx(d.mean() / d.std(ddof=1))
