import numpy as np
import pytest

from augcov.classify import (
    PipelineSpec,
    fit_pipeline,
    grid_search,
    mdm_fit,
    mdm_predict,
    stratified_folds,
    tangent_fit,
    tangent_transform_many,
)
from augcov.covariance import Epoch
from augcov.data import ArSpec, generate_ar_dataset
from augcov.errors import AllCellsInvalid, EmptyClass, InvalidSetting, TooFewSamples
from augcov.spd import SpdMatrix, affine_invariant_distance, exp_map, symm_fn

from conftest import random_spd, random_symmetric


def perturbed_class(rng, center, n, spread=0.2):
    """Samples around a center: Gaussian tangent vectors pushed through Exp."""
    from augcov.spd import TangentSymm

    out = []
    for _ in range(n):
        step = random_symmetric(rng, center.dim, scale=spread / center.dim)
        out.append(exp_map(center, TangentSymm(step)))
    return out


class TestMdm:
    def test_singleton_classes_keep_samples(self, rng):
        covs = [random_spd(rng, 3), random_spd(rng, 3)]
        model = mdm_fit(covs, [0, 1])
        assert np.allclose(model.class_means[0].values, covs[0].values)
        assert np.allclose(model.class_means[1].values, covs[1].values)

    def test_recovers_synthetic_centers(self, rng):
        c0 = random_spd(rng, 4)
        c1 = random_spd(rng, 4)
        covs = perturbed_class(rng, c0, 50) + perturbed_class(rng, c1, 50)
        labels = [0] * 50 + [1] * 50
        model = mdm_fit(covs, labels)
        assert affine_invariant_distance(model.class_means[0], c0) < 0.2
        assert affine_invariant_distance(model.class_means[1], c1) < 0.2

    def test_identical_samples_identical_means(self, rng):
        p = random_spd(rng, 3)
        model = mdm_fit([p, p, p, p], [0, 0, 1, 1])
        assert np.allclose(model.class_means[0].values, p.values)
        assert np.allclose(model.class_means[1].values, p.values)

    def test_predict_class_mean_is_its_class(self, rng):
        covs = [random_spd(rng, 3) for _ in range(6)]
        model = mdm_fit(covs, [0, 0, 0, 1, 1, 1])
        labels, dists = mdm_predict(model, [model.class_means[0]])
        assert labels[0] == 0
        assert dists[0, 0] == pytest.approx(0.0, abs=1e-7)

    def test_equidistant_tie_goes_to_first_label(self):
        eye = SpdMatrix(np.eye(2))
        model = mdm_fit([eye, eye], [0, 1])
        labels, _ = mdm_predict(model, [SpdMatrix(np.diag([2.0, 0.9]))])
        assert labels[0] == 0

    def test_agrees_with_brute_force(self, rng):
        c0, c1, c2 = (random_spd(rng, 3) for _ in range(3))
        covs = (
            perturbed_class(rng, c0, 10)
            + perturbed_class(rng, c1, 10)
            + perturbed_class(rng, c2, 10)
        )
        model = mdm_fit(covs, [0] * 10 + [1] * 10 + [2] * 10)
        queries = [random_spd(rng, 3) for _ in range(50)]
        labels, dists = mdm_predict(model, queries)
        for q, label, row in zip(queries, labels, dists):
            brute = [affine_invariant_distance(q, m) for m in model.class_means]
            assert label == int(np.argmin(brute))
            assert row == pytest.approx(brute)

    def test_congruence_invariance_of_predictions(self, rng):
        c0 = random_spd(rng, 3)
        c1 = random_spd(rng, 3)
        train = perturbed_class(rng, c0, 15) + perturbed_class(rng, c1, 15)
        labels = [0] * 15 + [1] * 15
        test = [random_spd(rng, 3) for _ in range(20)]
        w = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)

        model = mdm_fit(train, labels)
        base = mdm_predict(model, test)[0]
        model_t = mdm_fit([SpdMatrix(w @ p.values @ w.T) for p in train], labels)
        moved = mdm_predict(model_t, [SpdMatrix(w @ q.values @ w.T) for q in test])[0]
        assert np.array_equal(base, moved)

    def test_empty_class(self):
        with pytest.raises(EmptyClass):
            mdm_fit([], [])


class TestTangent:
    def test_reference_maps_to_zero(self, rng):
        covs = [random_spd(rng, 4) for _ in range(8)]
        tmap = tangent_fit(covs)
        feat = tangent_transform_many(tmap, [tmap.reference])[0]
        assert np.allclose(feat, 0.0, atol=1e-10)

    def test_norm_matches_riemannian_distance(self, rng):
        covs = [random_spd(rng, 4) for _ in range(8)]
        tmap = tangent_fit(covs)
        for _ in range(20):
            q = random_spd(rng, 4)
            feat = tangent_transform_many(tmap, [q])[0]
            assert np.linalg.norm(feat) == pytest.approx(
                affine_invariant_distance(tmap.reference, q), abs=1e-8
            )

    def test_identity_reference_scaled_upper_triangle(self, rng):
        tmap = tangent_fit([SpdMatrix(np.eye(3))] * 2)
        q = random_spd(rng, 3)
        feat = tangent_transform_many(tmap, [q])[0]
        logm = symm_fn(q.values, "log")
        iu = np.triu_indices(3)
        expected = logm[iu] * np.where(iu[0] == iu[1], 1.0, np.sqrt(2.0))
        assert feat == pytest.approx(expected, abs=1e-10)

    def test_features_are_c_contiguous_reference_rows(self, rng):
        """Fancy-indexing the upper triangle out of a stacked log yields a
        Fortran-ordered matrix; the SVM kernel then sums in another order
        and grid scores shift. The rows must come back C-contiguous."""
        covs = [random_spd(rng, 6) for _ in range(9)]
        tmap = tangent_fit(covs)
        feats = tangent_transform_many(tmap, covs)
        assert feats.flags.c_contiguous
        iu = np.triu_indices(6)
        weights = np.where(iu[0] == iu[1], 1.0, np.sqrt(2.0))
        rows = [symm_fn(tmap.ref_inv_sqrt @ c.values @ tmap.ref_inv_sqrt, "log")[iu] * weights
                for c in covs]
        assert np.array_equal(feats, np.stack(rows))

    def test_output_length(self, rng):
        covs = [random_spd(rng, 5) for _ in range(4)]
        tmap = tangent_fit(covs)
        assert tmap.output_len == 15
        assert tangent_transform_many(tmap, covs).shape == (4, 15)


def ar_two_class_set(seed, epochs_per_class=30, t=256):
    """Classes sharing lag-0 covariance, separable only through dynamics."""
    rho = 0.6
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    return generate_ar_dataset(ArSpec(
        coefficients=[[], [rho * rot]],
        innovations=[np.eye(2), (1 - rho**2) * np.eye(2)],
        lag=1,
        n_samples=t,
        epochs_per_class=epochs_per_class,
        seed=seed,
    ))


class TestStratifiedFolds:
    def test_every_class_in_every_fold(self):
        labels = np.array([0] * 12 + [1] * 13)
        rng = np.random.default_rng(0)
        folds = stratified_folds(labels, 5, rng)
        assert len(folds) == 5
        for train, test in folds:
            assert set(labels[test]) == {0, 1}
            assert len(np.intersect1d(train, test)) == 0
            assert len(train) + len(test) == 25

    def test_partition_is_exact(self):
        labels = np.array([0, 1] * 10)
        rng = np.random.default_rng(1)
        folds = stratified_folds(labels, 4, rng)
        all_test = np.concatenate([t for _, t in folds])
        assert sorted(all_test.tolist()) == list(range(20))


class TestGridSearch:
    def test_singleton_grid_equals_plain_pipeline_score(self):
        epoch_set = ar_two_class_set(seed=0)
        epochs, labels = epoch_set.all_epochs()
        result = grid_search(epochs, labels, "ACM+MDM", orders=(1,), lags=(1,),
                             inner_folds=5, seed=3)
        plain = grid_search(epochs, labels, "MDM", orders=(1,), lags=(1,),
                            inner_folds=5, seed=3)
        assert result.best_order == 1 and result.best_lag == 1
        assert result.best_score == plain.best_score

    def test_tie_break_prefers_smaller_order_then_lag(self):
        # force ties by handing the search a constant scorer via identical cells:
        # order 1 cells all score the same on white noise with tiny grids
        rng = np.random.default_rng(50)
        epochs = [Epoch(rng.standard_normal((2, 64)), 250.0) for _ in range(20)]
        labels = np.array([0, 1] * 10)
        result = grid_search(epochs, labels, "ACM+MDM", orders=(1, 2), lags=(1, 2),
                             inner_folds=4, seed=9)
        tied = [c for c in result.ties]
        if len(tied) > 1:
            best = (result.best_order, result.best_lag)
            assert best == min((c.order, c.lag) for c in tied)

    def test_invalid_cells_recorded(self):
        rng = np.random.default_rng(51)
        epochs = [Epoch(rng.standard_normal((2, 12)), 250.0) for _ in range(16)]
        labels = np.array([0, 1] * 8)
        result = grid_search(epochs, labels, "ACM+MDM", orders=(1, 4), lags=(1, 4),
                             inner_folds=2, seed=2)
        invalid = [c for c in result.cells if not c.valid]
        assert {(c.order, c.lag) for c in invalid} == {(4, 4)}

    def test_all_cells_invalid(self):
        rng = np.random.default_rng(52)
        epochs = [Epoch(rng.standard_normal((2, 8)), 250.0) for _ in range(8)]
        labels = np.array([0, 1] * 4)
        with pytest.raises(AllCellsInvalid):
            grid_search(epochs, labels, "ACM+MDM", orders=(5,), lags=(4,),
                        inner_folds=2, seed=2)

    def test_ar2_distinguished_classes_prefer_higher_order(self):
        hits = 0
        seeds = range(20)
        for seed in seeds:
            epoch_set = ar_two_class_set(seed=seed, epochs_per_class=20, t=200)
            epochs, labels = epoch_set.all_epochs()
            result = grid_search(epochs, labels, "ACM+MDM",
                                 orders=(1, 2, 3, 4), lags=(1, 2, 3, 4),
                                 inner_folds=3, seed=seed)
            if result.best_order >= 2:
                hits += 1
        assert hits >= 18  # >= 90% of seeds

    def test_leakage_sentinel(self):
        epoch_set = ar_two_class_set(seed=7)
        epochs, labels = epoch_set.all_epochs()
        train_epochs, train_labels = epochs[:40], labels[:40]
        held_out = labels[40:].copy()
        result = grid_search(train_epochs, train_labels, "ACM+MDM",
                             orders=(1, 2), lags=(1,), inner_folds=4, seed=5)
        # mutate the held-out labels: scores must be unchanged
        mutated = 1 - held_out
        result2 = grid_search(train_epochs, train_labels, "ACM+MDM",
                              orders=(1, 2), lags=(1,), inner_folds=4, seed=5)
        assert [c.score for c in result.cells] == [c.score for c in result2.cells]
        assert not np.array_equal(held_out, mutated)

    def test_too_few_samples(self):
        rng = np.random.default_rng(53)
        epochs = [Epoch(rng.standard_normal((2, 32)), 250.0) for _ in range(4)]
        with pytest.raises(TooFewSamples):
            grid_search(epochs, np.array([0, 0, 1, 1]), "MDM", orders=(1,), lags=(1,),
                        inner_folds=3, seed=0)


class TestFitPipeline:
    def test_fixed_acm_mdm(self):
        epoch_set = ar_two_class_set(seed=11)
        epochs, labels = epoch_set.all_epochs()
        spec = PipelineSpec(kind="ACM+MDM", param_source="fixed", order=2, lag=1)
        fitted = fit_pipeline(spec, epochs, labels, seed=0)
        assert fitted.params.order == 2
        assert fitted.shrink is True
        preds = fitted.predict(epochs)
        assert np.mean(preds == labels) > 0.9

    def test_plain_mdm_order_one_no_shrink(self):
        epoch_set = ar_two_class_set(seed=12)
        epochs, labels = epoch_set.all_epochs()
        fitted = fit_pipeline(PipelineSpec(kind="MDM"), epochs, labels, seed=0)
        assert fitted.params.order == 1 and fitted.params.lag == 1
        assert fitted.shrink is False

    def test_tang_svm_grid_selects_from_table(self):
        epoch_set = ar_two_class_set(seed=13)
        epochs, labels = epoch_set.all_epochs()
        spec = PipelineSpec(kind="TANG+SVM", param_source="grid")
        fitted = fit_pipeline(spec, epochs, labels, seed=1)
        assert fitted.chosen_c in (0.5, 1.0, 1.5)
        assert fitted.chosen_kernel in ("linear", "rbf")
        assert fitted.grid_result is not None
        scores = fitted.decision_scores(epochs)
        assert scores.shape == (len(epochs),)

    def test_acm_grid_pipeline(self):
        epoch_set = ar_two_class_set(seed=14, epochs_per_class=20, t=128)
        epochs, labels = epoch_set.all_epochs()
        spec = PipelineSpec(
            kind="ACM+MDM", param_source="grid",
            grid_orders=(1, 2), grid_lags=(1, 2), inner_folds=3,
        )
        fitted = fit_pipeline(spec, epochs, labels, seed=2)
        cells = [(o, l) for o in (1, 2) for l in (1, 2)]
        assert (fitted.params.order, fitted.params.lag) in cells

    def test_estimator_source_rejected_for_plain(self):
        with pytest.raises(ValueError):
            PipelineSpec(kind="MDM", param_source="ami_cao")

    @pytest.mark.parametrize("setting,value", [
        ("ami_bins", 0), ("ami_bins", 1), ("estimator_max_lag", 0),
        ("cao_max_dim", 1), ("mdop_max_cycles", 0), ("ami_bins", 16.0),
    ])
    def test_bad_estimator_settings_rejected(self, setting, value):
        with pytest.raises(InvalidSetting):
            PipelineSpec(kind="ACM+MDM", param_source="ami_cao", **{setting: value})


class TestGridSearchInvariants:
    def test_best_score_is_map_maximum(self):
        epoch_set = ar_two_class_set(seed=21, epochs_per_class=15, t=128)
        epochs, labels = epoch_set.all_epochs()
        result = grid_search(epochs, labels, "ACM+MDM", orders=(1, 2), lags=(1, 2),
                             inner_folds=3, seed=4)
        valid_scores = [c.score for c in result.cells if c.valid]
        assert result.best_score == max(valid_scores)

    def test_order_one_lag_tie_breaks_to_smaller_lag(self):
        # at order 1 the lag is irrelevant, so (1,1) and (1,2) tie exactly
        epoch_set = ar_two_class_set(seed=22, epochs_per_class=12, t=96)
        epochs, labels = epoch_set.all_epochs()
        result = grid_search(epochs, labels, "ACM+MDM", orders=(1,), lags=(1, 2),
                             inner_folds=3, seed=6)
        scores = {(c.order, c.lag): c.score for c in result.cells}
        assert scores[(1, 1)] == scores[(1, 2)]
        assert result.best_lag == 1
        assert len(result.ties) == 2


class TestEstimatorParamSources:
    def test_ami_cao_source_fits_and_predicts(self):
        epoch_set = ar_two_class_set(seed=31, epochs_per_class=10, t=256)
        epochs, labels = epoch_set.all_epochs()
        spec = PipelineSpec(kind="ACM+MDM", param_source="ami_cao",
                            estimator_max_lag=8, cao_max_dim=5)
        fitted = fit_pipeline(spec, epochs, labels, seed=3)
        assert fitted.embedding_estimate is not None
        assert fitted.params.order == fitted.embedding_estimate.dim
        assert fitted.params.lag == fitted.embedding_estimate.tau
        assert (fitted.params.order - 1) * fitted.params.lag < 256
        assert len(fitted.predict(epochs)) == len(epochs)

    def test_mdop_source_selects_svm_params_from_grid(self):
        epoch_set = ar_two_class_set(seed=32, epochs_per_class=10, t=256)
        epochs, labels = epoch_set.all_epochs()
        spec = PipelineSpec(kind="ACM+TANG+SVM", param_source="mdop",
                            estimator_max_lag=6, mdop_max_cycles=4, inner_folds=3)
        fitted = fit_pipeline(spec, epochs, labels, seed=4)
        assert fitted.embedding_estimate is not None
        assert fitted.embedding_estimate.method == "mdop"
        assert fitted.chosen_c in (0.5, 1.0, 1.5)
        assert fitted.chosen_kernel in ("linear", "rbf")
        scores = fitted.decision_scores(epochs)
        assert np.all(np.isfinite(scores))


def test_mdm_predict_dimension_mismatch(rng):
    from augcov.errors import DimensionMismatch

    model = mdm_fit([random_spd(rng, 3), random_spd(rng, 3)], [0, 1])
    with pytest.raises(DimensionMismatch):
        mdm_predict(model, [random_spd(rng, 4)])


class TestGridSearchOnlyWhenThereIsAChoice:
    """_resolve_params runs the inner-CV search exactly when its source
    leaves more than one (order, lag, C, kernel) candidate."""

    CASES = [
        (kind, source, grid)
        for kind in ("MDM", "ACM+MDM", "TANG+SVM", "ACM+TANG+SVM")
        for source in ("fixed", "grid", "ami_cao", "mdop")
        if kind.startswith("ACM") or source in ("fixed", "grid")
        for grid in ((((1, 2), (1,)), ((1,), (1,))) if source == "grid" else (None,))
    ]

    @pytest.mark.parametrize("kind,source,grid", CASES)
    def test_search_iff_more_than_one_candidate(self, kind, source, grid, monkeypatch):
        import augcov.classify as classify
        from augcov.embedding import EmbeddingEstimate

        calls = []
        original = classify.grid_search

        def counting(*args, **kwargs):
            calls.append(kwargs)
            return original(*args, **kwargs)

        def estimate(*args, **kwargs):
            return EmbeddingEstimate(tau=2, dim=2, method=source)

        monkeypatch.setattr(classify, "grid_search", counting)
        monkeypatch.setattr(classify.emb, "estimate_traditional", estimate)
        monkeypatch.setattr(classify.emb, "mdop_unified", estimate)
        orders, lags = grid or ((1,), (1,))
        spec = PipelineSpec(kind=kind, param_source=source, order=2, lag=3,
                            grid_orders=orders, grid_lags=lags,
                            grid_c=(0.5, 1.0), grid_kernels=("linear",), inner_folds=3)
        epochs, labels = ar_two_class_set(seed=50, epochs_per_class=6, t=64).all_epochs()
        fitted = fit_pipeline(spec, epochs, labels, seed=1)

        if source == "grid" and kind.startswith("ACM"):
            n_cells = len(orders) * len(lags)
        else:
            n_cells = 1
        n_svm = 2 if kind.endswith("SVM") and source != "fixed" else 1
        searched = n_cells * n_svm > 1
        assert len(calls) == (1 if searched else 0)
        assert (fitted.grid_result is not None) == searched
        expected = {"fixed": (2, 3) if kind.startswith("ACM") else (1, 1),
                    "ami_cao": (2, 2), "mdop": (2, 2)}.get(source)
        if expected is not None:
            assert (fitted.params.order, fitted.params.lag) == expected
        if kind.endswith("SVM") and not searched:
            assert (fitted.chosen_c, fitted.chosen_kernel) == (1.0, "linear")
