"""Scoring metrics and the nonparametric tests of the evaluation protocol:
rank-based AUC, accuracy, exact/approximate Wilcoxon signed-rank, the
sign-flip permutation paired t-test, Stouffer combination and Bonferroni
correction.

Only the standard normal CDF and quantile come from scipy; every test
statistic and null distribution is computed here.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import (
    AllZeroDiffs,
    DegeneratePValue,
    DegenerateVariance,
    LengthMismatch,
    OneClassOnly,
    TooFewSamples,
)

WILCOXON_EXACT_MAX_N = 12


def auc_roc(scores, labels) -> float:
    """Probability that a positive outranks a negative, ties counted 1/2
    (the Mann-Whitney formulation), computed from average ranks.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels).astype(bool)
    if scores.shape != labels.shape:
        raise LengthMismatch(f"{scores.size} scores vs {labels.size} labels")
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise OneClassOnly("AUC needs both classes present")
    ranks = _average_ranks(scores)
    rank_sum = ranks[labels].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties replaced by their group average."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.size, dtype=float)
    sorted_vals = values[order]
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def accuracy(predicted, true) -> float:
    predicted = np.asarray(predicted)
    true = np.asarray(true)
    if predicted.shape != true.shape:
        raise LengthMismatch(f"{predicted.size} predictions vs {true.size} labels")
    return float(np.mean(predicted == true))


def wilcoxon_signed_rank(diffs, alternative: str = "greater") -> float:
    """One-tailed signed-rank p-value for paired differences.

    Zeros are dropped. For up to 12 nonzero differences the 2^n sign
    assignments are enumerated exactly (respecting tied ranks); above that a
    normal approximation with tie correction and continuity correction is
    used.
    """
    from scipy.special import ndtr  # imported on use: it slows every CLI start

    if alternative != "greater":
        raise ValueError("only the one-tailed 'greater' alternative is supported")
    diffs = np.asarray(diffs, dtype=float)
    nonzero = diffs[diffs != 0.0]
    if nonzero.size == 0:
        raise AllZeroDiffs("all paired differences are zero")
    if nonzero.size < 5:
        raise TooFewSamples(
            f"need at least 5 nonzero differences, got {nonzero.size}"
        )
    n = nonzero.size
    ranks = _average_ranks(np.abs(nonzero))
    w_plus = float(ranks[nonzero > 0.0].sum())

    if n <= WILCOXON_EXACT_MAX_N:
        count = 0
        for signs in itertools.product((0.0, 1.0), repeat=n):
            if float(np.dot(signs, ranks)) >= w_plus - 1e-12:
                count += 1
        return count / 2.0 ** n

    mean = n * (n + 1) / 4.0
    var = n * (n + 1) * (2 * n + 1) / 24.0
    # tie correction: subtract sum(t^3 - t)/48 over tie groups
    _, tie_counts = np.unique(np.abs(nonzero), return_counts=True)
    var -= np.sum(tie_counts.astype(float) ** 3 - tie_counts) / 48.0
    if var <= 0.0:
        raise DegenerateVariance("tie correction exhausted the rank variance")
    z = (w_plus - mean - 0.5) / np.sqrt(var)
    return float(ndtr(-z))


def permutation_paired_t(
    diffs, n_perm: int = 10_000, seed: int = 0, alternative: str = "greater"
) -> float:
    """Sign-flip permutation test of the paired t statistic.

    When 2^n <= n_perm every sign pattern is enumerated and
    p = #{t_perm >= t_obs} / 2^n (the identity flip keeps p > 0); otherwise
    n_perm random flips are drawn from the seeded generator and the
    +1-smoothed estimate (1 + #{t_perm >= t_obs}) / (n_perm + 1) is
    returned. Either way p lies in (0, 1].
    """
    if alternative != "greater":
        raise ValueError("only the one-tailed 'greater' alternative is supported")
    diffs = np.asarray(diffs, dtype=float)
    n = diffs.size
    if n < 3:
        raise TooFewSamples(f"need at least 3 pairs, got {n}")
    if np.ptp(diffs) == 0.0:
        raise DegenerateVariance("all paired differences are equal")

    def t_stat(values: np.ndarray) -> np.ndarray:
        mean = values.mean(axis=-1)
        sd = values.std(axis=-1, ddof=1)
        return mean / (sd / np.sqrt(n))

    t_obs = float(t_stat(diffs))
    if 2 ** n <= n_perm:
        signs = np.array(list(itertools.product((-1.0, 1.0), repeat=n)))
        t_perm = t_stat(signs * diffs)
        return float(np.sum(t_perm >= t_obs - 1e-12) / signs.shape[0])
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    signs = rng.choice((-1.0, 1.0), size=(n_perm, n))
    t_perm = t_stat(signs * diffs)
    return float((1 + np.sum(t_perm >= t_obs - 1e-12)) / (n_perm + 1))


def stouffer_combine(p_values, weights=None) -> float:
    """Weighted Stouffer combination of one-tailed p-values.

    z = sum(w_i z_i) / sqrt(sum w_i^2) with z_i the upper-tail normal
    quantile of p_i; the combined one-tailed p of z is returned. Unit
    weights by default.
    """
    from scipy.special import ndtr, ndtri

    p_values = np.asarray(p_values, dtype=float)
    if p_values.size == 0:
        raise DegeneratePValue("no p-values to combine")
    if np.any(p_values <= 0.0) or np.any(p_values >= 1.0):
        raise DegeneratePValue("p-values must lie strictly inside (0, 1)")
    if weights is None:
        weights = np.ones_like(p_values)
    weights = np.asarray(weights, dtype=float)
    if weights.shape != p_values.shape or np.any(weights <= 0.0):
        raise DegeneratePValue("weights must be positive, one per p-value")
    z_scores = ndtri(1.0 - p_values)
    z = float(np.dot(weights, z_scores) / np.sqrt(np.dot(weights, weights)))
    return float(ndtr(-z))


def bonferroni(p: float, m: int) -> float:
    if m < 1:
        raise ValueError(f"number of hypotheses must be >= 1, got {m}")
    return min(1.0, m * p)


def cohens_d(diffs) -> float:
    """Standardized mean difference of paired differences; zero spread
    (including all-zero diffs) yields 0."""
    diffs = np.asarray(diffs, dtype=float)
    sd = diffs.std(ddof=1) if diffs.size > 1 else 0.0
    if sd == 0.0:
        return 0.0
    return float(diffs.mean() / sd)
