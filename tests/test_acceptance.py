"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with `pytest tests/test_acceptance.py -v -s`). Tolerances and runtime
budgets are pinned here, not configurable.
"""

import json
import time

import numpy as np
import pytest

from augcov.classify import PipelineSpec
from augcov.cli import main as cli_main
from augcov.covariance import (
    AugmentedParams,
    Epoch,
    augmented_covariance,
    _covariance,
    embed_epoch,
)
from augcov.data import ArSpec, EpochSet, Session, generate_ar_dataset
from augcov.embedding import cao_embedding_dimension, mdop_unified, select_tau_ami
from augcov.evaluate import within_session_eval
from augcov.spd import SpdMatrix, frechet_mean, symm_fn
from augcov.stats import auc_roc, bonferroni, permutation_paired_t, stouffer_combine, wilcoxon_signed_rank

from conftest import ar_coefficients, pair_distance, random_spd, spd_stack


def report(name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


# -- criterion 1: manifold suite ----------------------------------------

def test_criterion_1_manifold_suite():
    start = time.time()
    rng = np.random.default_rng(101)
    checks = 0
    for _ in range(1000):
        dim = int(rng.integers(2, 13))
        a, b, c = (random_spd(rng, dim) for _ in range(3))

        dab = pair_distance(a, b)
        assert abs(dab - pair_distance(b, a)) <= 1e-10
        dbc = pair_distance(b, c)
        dac = pair_distance(a, c)
        assert dac <= dab + dbc + 1e-9

        w = rng.standard_normal((dim, dim)) + 3.0 * np.eye(dim)
        wa = SpdMatrix(w @ a.values @ w.T)
        wb = SpdMatrix(w @ b.values @ w.T)
        assert abs(pair_distance(wa, wb) - dab) <= 1e-8

        ia = SpdMatrix(np.linalg.inv(a.values))
        ib = SpdMatrix(np.linalg.inv(b.values))
        assert abs(pair_distance(ia, ib) - dab) <= 1e-8
        checks += 1

    for _ in range(20):
        dim = int(rng.integers(2, 13))
        p1, p2 = random_spd(rng, dim), random_spd(rng, dim)
        mean = frechet_mean(spd_stack([p1, p2]))
        isq = symm_fn(p1.values, "inv_sqrt")
        sq = np.linalg.inv(isq)
        closed = sq @ np.linalg.inv(symm_fn(isq @ p2.values @ isq, "inv_sqrt")) @ sq
        assert np.linalg.norm(mean.values - closed) < 1e-8

    elapsed = time.time() - start
    report("criterion 1: manifold invariants on 1000 triples",
           checks == 1000 and elapsed < 30.0, f"{elapsed:.1f}s")


# -- criterion 2: equivalence identity ----------------------------------

def test_criterion_2_equivalence_identity():
    start = time.time()
    rng = np.random.default_rng(102)
    done = 0
    worst = 0.0
    while done < 200:
        d = int(rng.integers(1, 7))
        t = int(rng.integers(20, 501))
        p = int(rng.integers(1, 6))
        tau = int(rng.integers(1, 6))
        if (p - 1) * tau >= t or t - (p - 1) * tau < d * p + 1:
            continue
        x = rng.standard_normal((d, t))
        epoch = Epoch(x, 250.0)
        params = AugmentedParams(p, tau)
        aug = augmented_covariance(epoch, params, shrink=False)

        via_embed = augmented_covariance(Epoch(embed_epoch(x, params), 250.0),
                                         AugmentedParams(1, 1))
        assert np.array_equal(aug.values, via_embed.values)

        width = t - (p - 1) * tau
        blocks = [
            [x[:, k * tau:k * tau + width] @ x[:, l * tau:l * tau + width].T / (width - 1)
             for l in range(p)]
            for k in range(p)
        ]
        assembled = np.block(blocks)
        worst = max(worst, float(np.max(np.abs(aug.values - assembled))))
        done += 1
    elapsed = time.time() - start
    report("criterion 2: augmented covariance equivalence on 200 cases",
           worst < 1e-12 and elapsed < 10.0, f"max dev {worst:.2e}, {elapsed:.1f}s")


# -- criterion 3: AR recovery --------------------------------------------

A1 = np.array([
    [0.45, 0.10, 0.00],
    [0.00, 0.35, 0.10],
    [0.10, 0.00, 0.25],
])
A2 = np.array([
    [0.20, 0.00, 0.05],
    [0.05, 0.12, 0.00],
    [0.00, 0.05, 0.15],
])


def _recovery_error(t, seed):
    spec = ArSpec(
        coefficients=[[A1, A2]], innovations=[np.eye(3)],
        lag=1, n_samples=t, epochs_per_class=1, seed=seed,
    )
    data = generate_ar_dataset(spec).sessions[0].epochs[0].data
    a1, a2 = ar_coefficients(data, 2)  # from the order-3 ACM's Yule-Walker blocks
    return max(float(np.max(np.abs(a1 - A1))), float(np.max(np.abs(a2 - A2))))


def test_criterion_3_ar_recovery():
    start = time.time()
    errors_large = [_recovery_error(20_000, s) for s in range(4)]
    errors_small = [_recovery_error(2_000, s) for s in range(4)]
    elapsed = time.time() - start
    ok = (
        max(errors_large) < 0.05
        and np.mean(errors_large) <= np.mean(errors_small) / 2.0
        and elapsed < 20.0
    )
    report("criterion 3: AR(2) recovery from the ACM's Yule-Walker blocks",
           ok, f"err@20k {max(errors_large):.3f}, ratio "
               f"{np.mean(errors_large) / np.mean(errors_small):.2f}, {elapsed:.1f}s")


# -- criterion 4: mechanism reproduction ----------------------------------

def matched_dynamics_spec(seed):
    rho = 0.40  # strong enough for the stacked blocks, mild enough that the
    # plain covariance estimator's dispersion stays inside the null band
    rot = np.array([
        [0.0, -1.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, 1.0, 0.0],
    ])
    return ArSpec(
        coefficients=[[], [rho * rot]],
        innovations=[np.eye(4), (1.0 - rho**2) * np.eye(4)],
        lag=1, n_samples=512, epochs_per_class=100, seed=seed,
    )


def test_criterion_4_mechanism_reproduction():
    start = time.time()
    plain_spec = PipelineSpec(kind="MDM")
    acm_spec = PipelineSpec(kind="ACM+MDM", param_source="fixed", order=2, lag=1)
    plain_scores, acm_scores = [], []
    for seed in range(10):
        epoch_set = generate_ar_dataset(matched_dynamics_spec(seed))
        plain_scores.append(within_session_eval(epoch_set, plain_spec, folds=5, seed=seed).mean)
        acm_scores.append(within_session_eval(epoch_set, acm_spec, folds=5, seed=seed).mean)
    elapsed = time.time() - start
    ok = (
        all(s >= 0.90 for s in acm_scores)
        and all(0.35 <= s <= 0.65 for s in plain_scores)
        and elapsed < 300.0
    )
    report("criterion 4: augmented pipeline separates matched-dynamics classes",
           ok, f"acm min {min(acm_scores):.3f}, plain range "
               f"[{min(plain_scores):.3f}, {max(plain_scores):.3f}], {elapsed:.0f}s")


# -- criterion 5: grid-search sanity --------------------------------------

def test_criterion_5_singleton_grid_matches_plain():
    epoch_set = generate_ar_dataset(ArSpec(
        coefficients=[[], []],
        innovations=[np.eye(3), 3.0 * np.eye(3)],
        lag=1, n_samples=128, epochs_per_class=15, seed=77,
    ))
    singleton = {"grid_orders": (1,), "grid_lags": (1,), "inner_folds": 3}
    pairs = [
        (PipelineSpec(kind="MDM"),
         PipelineSpec(kind="ACM+MDM", param_source="grid", **singleton)),
        (PipelineSpec(kind="TANG+SVM", param_source="grid", inner_folds=3),
         PipelineSpec(kind="ACM+TANG+SVM", param_source="grid", **singleton)),
    ]
    worst = 0.0
    for plain, acm in pairs:
        r_plain = within_session_eval(epoch_set, plain, folds=4, seed=5)
        r_acm = within_session_eval(epoch_set, acm, folds=4, seed=5)
        for a, b in zip(r_plain.scores, r_acm.scores):
            worst = max(worst, abs(a.score - b.score))
    report("criterion 5: order-1 grid cell reproduces plain pipelines",
           worst <= 1e-12, f"max dev {worst:.2e}")


# -- criterion 6: embedding estimators ------------------------------------

def test_criterion_6_embedding_estimators():
    start = time.time()
    rng = np.random.default_rng(106)

    def sine_epochs(noise):
        epochs = []
        for _ in range(4):
            t = 2000 if noise else 640
            rows = [
                np.sin(2 * np.pi * np.arange(t) / 64.0 + rng.uniform(0, 2 * np.pi))
                + (noise * rng.standard_normal(t) if noise else 0.0)
                for _ in range(2)
            ]
            epochs.append(Epoch(np.stack(rows), 250.0))
        return EpochSet("sine", [Session("s0", epochs, [0] * 4)], ["c0"]).all_epochs()[0]

    noisy = sine_epochs(0.15)
    clean = sine_epochs(0.0)

    tau = select_tau_ami(noisy, max_lag=32).tau
    cao = cao_embedding_dimension(clean, tau=16, max_dim=6)
    mdop = mdop_unified(clean, max_cycles=6, max_lag=20)
    elapsed = time.time() - start
    ok = abs(tau - 16) <= 2 and cao.dim == 2 and mdop.dim <= 3 and elapsed < 60.0
    report("criterion 6: sine-wave embedding estimates",
           ok, f"tau={tau}, cao D={cao.dim}, mdop D={mdop.dim}, {elapsed:.1f}s")


# -- criterion 7: statistics oracles ---------------------------------------

def test_criterion_7_statistics_oracles():
    rng = np.random.default_rng(107)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(6, 60))
        scores = np.round(rng.standard_normal(n), 1)
        labels = rng.random(n) > 0.5
        if labels.all() or not labels.any():
            continue
        pos = scores[labels]
        neg = scores[~labels]
        brute = sum(
            1.0 if p > q else (0.5 if p == q else 0.0) for p in pos for q in neg
        ) / (pos.size * neg.size)
        worst = max(worst, abs(auc_roc(scores, labels) - brute))

    wilcoxon_ok = wilcoxon_signed_rank([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]) == pytest.approx(1 / 64)
    perm_ok = permutation_paired_t([1.0, 2.0, 3.0, 4.0], n_perm=10_000) == pytest.approx(1 / 16)
    stouffer_ok = stouffer_combine([0.05, 0.05]) == pytest.approx(0.0101, abs=2e-4)
    bonf_ok = bonferroni(0.3, 5) == 1.0

    ok = worst < 1e-12 and wilcoxon_ok and perm_ok and stouffer_ok and bonf_ok
    report("criterion 7: statistics match their oracles",
           ok, f"auc max dev {worst:.2e}")


# -- criterion 8: reproducibility across reruns and workers ----------------

def test_criterion_8_byte_identical_reports(tmp_path, capsys):
    spec = {
        "coefficients": [[], []],
        "innovations": [[[1.0, 0.0], [0.0, 1.0]], [[4.0, 0.0], [0.0, 4.0]]],
        "lag": 1, "n_samples": 96, "epochs_per_class": 12, "seed": 8,
        "n_sessions": 3, "subject": "rep",
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    container = tmp_path / "rep.acm"
    assert cli_main(["simulate", "--spec-json", f"@{spec_path}",
                     "--out", str(container)]) == 0

    blobs = []
    for run, workers in (("r1", "1"), ("r2", "1"), ("r8", "8")):
        out = tmp_path / run
        code = cli_main([
            "evaluate", "--input", str(container), "--pipeline", "ACM+MDM",
            "--param-source", "fixed", "--order", "2", "--lag", "1",
            "--eval", "ws", "--folds", "4", "--seed", "21",
            "--workers", workers, "--out", str(out),
        ])
        assert code == 0
        blobs.append((out / "report.json").read_bytes())
    capsys.readouterr()
    ok = blobs[0] == blobs[1] == blobs[2]
    report("criterion 8: rerun and worker-count reproducibility", ok,
           f"{len(blobs[0])} bytes")


# -- criterion 9: shrinkage -------------------------------------------------

def test_criterion_9_shrinkage():
    rng = np.random.default_rng(109)
    worst_gap = 0.0
    for _ in range(500):
        n = int(rng.integers(4, 12))
        m = int(rng.integers(2, n))  # m < n: rank deficient
        y = rng.standard_normal((n, m)) * rng.uniform(0.2, 3.0)
        shrunk, lam = _covariance(y, True)
        assert 0.0 <= lam <= 1.0
        assert np.min(np.linalg.eigvalsh(shrunk)) > 0.0

        # independent per-sample reference formula
        s = y @ y.T / m
        mu = np.trace(s) / n
        d2 = np.linalg.norm(s - mu * np.eye(n)) ** 2 / n
        b2 = sum(np.linalg.norm(np.outer(y[:, t], y[:, t]) - s) ** 2 / n
                 for t in range(m)) / m**2
        lam_ref = min(b2, d2) / d2
        worst_gap = max(worst_gap, abs(lam - lam_ref))
    report("criterion 9: shrinkage bounds and reference lambda",
           worst_gap < 1e-10, f"max lambda dev {worst_gap:.2e}")
