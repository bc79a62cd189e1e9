import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from augcov import classify, spd
from augcov.classify import (
    PARAM_SOURCES,
    PIPELINE_KINDS,
    PipelineSpec,
    fold_scores,
    grid_search,
    mdm_fit,
    mdm_predict,
    select_params,
    stratified_folds,
    tangent_fit,
    tangent_transform_many,
)
from augcov import embedding as emb
from augcov.covariance import AugmentedParams, EpochStack, covariance_stack
from augcov.data import ArSpec, generate_ar_dataset
from augcov.errors import (
    AllCellsInvalid,
    EmptyClass,
    InvalidSetting,
    LengthMismatch,
    TooFewSamples,
)
from augcov.spd import SpdMatrix, SpdStack, frechet_mean, symm_fn
from augcov.stats import accuracy, auc_roc
from augcov.svm import KERNELS, svm_decision, svm_fit, svm_predict

from conftest import pair_distance, random_spd, random_symmetric, spd_stack


def perturbed_class(rng, center, n, spread=0.2):
    """Samples around a center: Gaussian tangent vectors pushed through Exp,
    center^{1/2} Exp(center^{-1/2} S center^{-1/2}) center^{1/2}."""
    isqrt = symm_fn(center.values, "inv_sqrt")
    sqrt = np.linalg.inv(isqrt)
    out = []
    for _ in range(n):
        step = random_symmetric(rng, center.dim, scale=spread / center.dim)
        out.append(SpdMatrix(sqrt @ symm_fn(isqrt @ step @ isqrt, "exp") @ sqrt))
    return out


class TestMdm:
    def test_singleton_classes_keep_samples(self, rng):
        covs = spd_stack([random_spd(rng, 3), random_spd(rng, 3)])
        model = mdm_fit(covs, [0, 1])
        assert np.allclose(model.class_means[0].values, covs[0].values)
        assert np.allclose(model.class_means[1].values, covs[1].values)

    def test_recovers_synthetic_centers(self, rng):
        c0 = random_spd(rng, 4)
        c1 = random_spd(rng, 4)
        covs = perturbed_class(rng, c0, 50) + perturbed_class(rng, c1, 50)
        labels = [0] * 50 + [1] * 50
        model = mdm_fit(spd_stack(covs), labels)
        assert pair_distance(model.class_means[0], c0) < 0.2
        assert pair_distance(model.class_means[1], c1) < 0.2

    def test_identical_samples_identical_means(self, rng):
        p = random_spd(rng, 3)
        model = mdm_fit(spd_stack([p, p, p, p]), [0, 0, 1, 1])
        assert np.allclose(model.class_means[0].values, p.values)
        assert np.allclose(model.class_means[1].values, p.values)

    def test_predict_class_mean_is_its_class(self, rng):
        covs = spd_stack([random_spd(rng, 3) for _ in range(6)])
        model = mdm_fit(covs, [0, 0, 0, 1, 1, 1])
        labels, dists = mdm_predict(model, spd_stack([model.class_means[0]]))
        assert labels[0] == 0
        assert dists[0, 0] == pytest.approx(0.0, abs=1e-7)

    def test_equidistant_tie_goes_to_first_label(self):
        eye = SpdMatrix(np.eye(2))
        model = mdm_fit(spd_stack([eye, eye]), [0, 1])
        labels, _ = mdm_predict(model, spd_stack([np.diag([2.0, 0.9])]))
        assert labels[0] == 0

    def test_agrees_with_brute_force(self, rng):
        c0, c1, c2 = (random_spd(rng, 3) for _ in range(3))
        covs = (
            perturbed_class(rng, c0, 10)
            + perturbed_class(rng, c1, 10)
            + perturbed_class(rng, c2, 10)
        )
        model = mdm_fit(spd_stack(covs), [0] * 10 + [1] * 10 + [2] * 10)
        queries = [random_spd(rng, 3) for _ in range(50)]
        labels, dists = mdm_predict(model, spd_stack(queries))
        for q, label, row in zip(queries, labels, dists):
            brute = [pair_distance(q, m) for m in model.class_means]
            assert label == int(np.argmin(brute))
            assert row == pytest.approx(brute)

    def test_congruence_invariance_of_predictions(self, rng):
        c0 = random_spd(rng, 3)
        c1 = random_spd(rng, 3)
        train = perturbed_class(rng, c0, 15) + perturbed_class(rng, c1, 15)
        labels = [0] * 15 + [1] * 15
        test = [random_spd(rng, 3) for _ in range(20)]
        w = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)

        model = mdm_fit(spd_stack(train), labels)
        base = mdm_predict(model, spd_stack(test))[0]
        model_t = mdm_fit(spd_stack([w @ p.values @ w.T for p in train]), labels)
        moved = mdm_predict(model_t, spd_stack([w @ q.values @ w.T for q in test]))[0]
        assert np.array_equal(base, moved)

    def test_empty_class(self):
        with pytest.raises(EmptyClass):
            mdm_fit(SpdStack(np.empty((0, 3, 3))), [])


class TestTangent:
    def test_reference_maps_to_zero(self, rng):
        covs = spd_stack([random_spd(rng, 4) for _ in range(8)])
        feat = tangent_transform_many(tangent_fit(covs), spd_stack([frechet_mean(covs)]))[0]
        assert np.allclose(feat, 0.0, atol=1e-10)

    def test_norm_matches_riemannian_distance(self, rng):
        covs = spd_stack([random_spd(rng, 4) for _ in range(8)])
        ref_inv_sqrt, reference = tangent_fit(covs), frechet_mean(covs)
        for _ in range(20):
            q = random_spd(rng, 4)
            feat = tangent_transform_many(ref_inv_sqrt, spd_stack([q]))[0]
            assert np.linalg.norm(feat) == pytest.approx(
                pair_distance(reference, q), abs=1e-8
            )

    def test_identity_reference_scaled_upper_triangle(self, rng):
        ref_inv_sqrt = tangent_fit(spd_stack([np.eye(3)] * 2))
        q = random_spd(rng, 3)
        feat = tangent_transform_many(ref_inv_sqrt, spd_stack([q]))[0]
        logm = symm_fn(q.values, "log")
        iu = np.triu_indices(3)
        expected = logm[iu] * np.where(iu[0] == iu[1], 1.0, np.sqrt(2.0))
        assert feat == pytest.approx(expected, abs=1e-10)

    def test_features_are_c_contiguous_reference_rows(self, rng):
        """Fancy-indexing the upper triangle out of a stacked log yields a
        Fortran-ordered matrix; the SVM kernel then sums in another order
        and grid scores shift. The rows must come back C-contiguous."""
        covs = spd_stack([random_spd(rng, 6) for _ in range(9)])
        isqrt = tangent_fit(covs)
        feats = tangent_transform_many(isqrt, covs)
        assert feats.flags.c_contiguous
        iu = np.triu_indices(6)
        weights = np.where(iu[0] == iu[1], 1.0, np.sqrt(2.0))
        rows = [symm_fn(isqrt @ c.values @ isqrt, "log")[iu] * weights for c in covs]
        assert np.array_equal(feats, np.stack(rows))

    def test_output_length(self, rng):
        covs = spd_stack([random_spd(rng, 5) for _ in range(4)])
        assert tangent_transform_many(tangent_fit(covs), covs).shape[1] == 15


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
        folds = stratified_folds(labels, 5, np.random.SeedSequence(0))
        assert len(folds) == 5
        for train, test in folds:
            assert set(labels[test]) == {0, 1}
            assert len(np.intersect1d(train, test)) == 0
            assert len(train) + len(test) == 25

    def test_partition_is_exact(self):
        labels = np.array([0, 1] * 10)
        folds = stratified_folds(labels, 4, np.random.SeedSequence(1))
        all_test = np.concatenate([t for _, t in folds])
        assert sorted(all_test.tolist()) == list(range(20))

    def test_pinned_fold_indices(self):
        """The test rows of the within-session folds of session 1 under seed 7,
        and of the inner CV under seed 7: a change to the shuffle or the
        generator would move the folds of every report."""
        labels = np.array([0, 1, 1, 0, 1, 0, 0, 1, 1, 0, 1])
        ws = stratified_folds(labels, 3, np.random.SeedSequence(entropy=7, spawn_key=(1,)))
        inner = stratified_folds(labels, 3, np.random.SeedSequence(7))
        assert [test.tolist() for _, test in ws] == [[2, 3, 6, 8], [4, 5, 9, 10], [0, 1, 7]]
        assert [test.tolist() for _, test in inner] == [[1, 3, 5, 7], [0, 6, 8, 10], [2, 4, 9]]
        for train, test in ws + inner:
            assert np.array_equal(np.setdiff1d(np.arange(11), test), train)

    @pytest.mark.parametrize("kwargs,message", [
        ({}, "the inner CV needs >= 3 samples per class for 3-fold CV, got {0: 2, 1: 4}"),
        ({"where": "session 's1'"},
         "session 's1' needs >= 3 samples per class for 3-fold CV, got {0: 2, 1: 4}"),
    ])
    def test_too_few_members_of_a_class(self, kwargs, message):
        with pytest.raises(TooFewSamples) as info:
            stratified_folds(np.array([0, 1, 1, 0, 1, 1]), 3, np.random.SeedSequence(0),
                             **kwargs)
        assert str(info.value) == message


class TestGridSearch:
    def test_singleton_grid_equals_plain_pipeline_score(self):
        epoch_set = ar_two_class_set(seed=0)
        epochs, labels = epoch_set.all_epochs()
        result = grid_search(epochs, labels, "ACM+MDM", orders=(1,), lags=(1,),
                             inner_folds=5, seed=3)
        plain = grid_search(epochs, labels, "MDM", orders=(1,), lags=(1,),
                            inner_folds=5, seed=3)
        assert (result.best.order, result.best.lag) == (1, 1)
        assert result.best.score == plain.best.score

    def test_tie_break_prefers_smaller_order_then_lag(self):
        # force ties by handing the search a constant scorer via identical cells:
        # order 1 cells all score the same on white noise with tiny grids
        rng = np.random.default_rng(50)
        epochs = EpochStack(rng.standard_normal((20, 2, 64)), 250.0)
        labels = np.array([0, 1] * 10)
        result = grid_search(epochs, labels, "ACM+MDM", orders=(1, 2), lags=(1, 2),
                             inner_folds=4, seed=9)
        tied = [c for c in result.ties]
        if len(tied) > 1:
            best = (result.best.order, result.best.lag)
            assert best == min((c.order, c.lag) for c in tied)

    def test_invalid_cells_recorded(self):
        rng = np.random.default_rng(51)
        epochs = EpochStack(rng.standard_normal((16, 2, 12)), 250.0)
        labels = np.array([0, 1] * 8)
        result = grid_search(epochs, labels, "ACM+MDM", orders=(1, 4), lags=(1, 4),
                             inner_folds=2, seed=2)
        invalid = [c for c in result.cells if c.score is None]
        assert {(c.order, c.lag) for c in invalid} == {(4, 4)}

    def test_all_cells_invalid(self):
        rng = np.random.default_rng(52)
        epochs = EpochStack(rng.standard_normal((8, 2, 8)), 250.0)
        labels = np.array([0, 1] * 4)
        with pytest.raises(AllCellsInvalid):
            grid_search(epochs, labels, "ACM+MDM", orders=(5,), lags=(4,),
                        inner_folds=2, seed=2)
        # an unknown kind, or a cell outside the (order, lag) rule, is a bad
        # setting rather than an invalid cell
        for kind, orders in (("FOO", (5,)), ("ACM+MDM", (0,)), ("ACM+MDM", (2.5,))):
            with pytest.raises(InvalidSetting):
                grid_search(epochs, labels, kind, orders=orders, lags=(4,),
                            inner_folds=2, seed=2)

    @pytest.mark.parametrize("grid", [dict(orders=(3, 2), lags=(1,)),
                                      dict(orders=(2, 2, 3), lags=(1,)),
                                      dict(orders=(2,), lags=(1, 3, 2))])
    def test_grids_must_be_strictly_increasing(self, grid):
        """Called directly too: (3, 2) would let order 3 win a tie with order
        2, and (2, 2, 3) would score the order-2 cells twice."""
        epochs, labels = ar_two_class_set(seed=6, epochs_per_class=4, t=32).all_epochs()
        with pytest.raises(InvalidSetting, match="must be non-empty and strictly increasing"):
            grid_search(epochs, labels, "ACM+MDM", inner_folds=2, **grid)

    def test_ar2_distinguished_classes_prefer_higher_order(self):
        hits = 0
        seeds = range(20)
        for seed in seeds:
            epoch_set = ar_two_class_set(seed=seed, epochs_per_class=20, t=200)
            epochs, labels = epoch_set.all_epochs()
            result = grid_search(epochs, labels, "ACM+MDM",
                                 orders=(1, 2, 3, 4), lags=(1, 2, 3, 4),
                                 inner_folds=3, seed=seed)
            if result.best.order >= 2:
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
        epochs = EpochStack(rng.standard_normal((4, 2, 32)), 250.0)
        with pytest.raises(TooFewSamples):
            grid_search(epochs, np.array([0, 0, 1, 1]), "MDM", orders=(1,), lags=(1,),
                        inner_folds=3, seed=0)


@pytest.mark.parametrize("fit", [
    lambda epochs, labels: grid_search(epochs, labels, "MDM", orders=(1,), lags=(1, 2),
                                       inner_folds=2),
    lambda epochs, labels: mdm_fit(spd_stack([np.eye(2)] * len(epochs)), labels),
], ids=["grid_search", "mdm_fit"])
def test_label_count_other_than_sample_count_is_length_mismatch(fit):
    epochs, labels = ar_two_class_set(seed=6, epochs_per_class=4, t=32).all_epochs()
    for wrong in (labels[:-1], np.append(labels, 0)):
        with pytest.raises(LengthMismatch, match="one label per sample, got "
                           f"{wrong.size} labels for 8 samples"):
            fit(epochs, wrong)


@pytest.mark.parametrize("kind, source, grid", [
    *[(kind, "fixed", None) for kind in PIPELINE_KINDS],
    *[(kind, "grid", None) for kind in ("MDM", "TANG+SVM")],
    *[(kind, source, grid) for kind in ("ACM+MDM", "ACM+TANG+SVM")
      for source, grid in (("mdop", None), ("grid", (2,)), ("grid", (1, 2)))]])
def test_spec_searches_exactly_when_select_params_does(kind, source, grid):
    """PipelineSpec.searches, the rule by which evaluate derives a split's
    seed, holds exactly when select_params searches, for every kind and
    source: a plain kind's grid source (no cells, but an SVM's C and
    kernel), an estimate, an ACM grid of one (order, lag) cell or of two."""
    cells = {} if grid is None else {"grid_orders": grid, "grid_lags": (1,)}
    spec = PipelineSpec(kind=kind, param_source=source, inner_folds=2, **cells)
    epochs, labels = ar_two_class_set(seed=4, epochs_per_class=4, t=48).all_epochs()
    assert (select_params(spec, epochs, labels)[3] is not None) == spec.searches


def split_scores(spec, epochs, labels, seed=0):
    """evaluate's route on one split whose train and test rows are every
    row: select_params, then fold_scores with each row set's stack built at
    the chosen params and the spec's shrink. Returns (select_params' result,
    the split's (value, metric))."""
    selected = select_params(spec, epochs, labels, seed)
    params, c, kernel = selected[:3]
    rows = np.arange(len(epochs))
    ((value, metric),) = fold_scores(
        spec.kind, lambda r: covariance_stack(epochs[r], params, spec.shrink),
        labels, rows, rows, [(c, kernel)])
    return selected, (value, metric)


class TestFitPipeline:
    """Parameter selection and the split's fit and score, as evaluate runs
    them: select_params, then fold_scores."""

    def test_fixed_acm_mdm(self):
        epoch_set = ar_two_class_set(seed=11)
        epochs, labels = epoch_set.all_epochs()
        spec = PipelineSpec(kind="ACM+MDM", param_source="fixed", order=2, lag=1)
        (params, c, kernel, grid), (value, metric) = split_scores(spec, epochs, labels)
        assert (params.order, params.lag, c, kernel, grid) == (2, 1, None, None, None)
        # the route shrinks at order 2
        np.testing.assert_array_equal(covariance_stack(epochs, params, spec.shrink).packed,
                                      covariance_stack(epochs, params, True).packed)
        assert metric == "auc" and value > 0.9

    def test_plain_mdm_order_one_no_shrink(self):
        epoch_set = ar_two_class_set(seed=12)
        epochs, labels = epoch_set.all_epochs()
        spec = PipelineSpec(kind="MDM")
        params = select_params(spec, epochs, labels, seed=0)[0]
        assert params.order == 1 and params.lag == 1
        np.testing.assert_array_equal(covariance_stack(epochs, params, spec.shrink).packed,
                                      covariance_stack(epochs, params, False).packed)

    def test_tang_svm_grid_selects_from_table(self):
        epoch_set = ar_two_class_set(seed=13)
        epochs, labels = epoch_set.all_epochs()
        spec = PipelineSpec(kind="TANG+SVM", param_source="grid")
        (_, c, kernel, grid), (value, metric) = split_scores(spec, epochs, labels, seed=1)
        assert c in (0.5, 1.0, 1.5)
        assert kernel in KERNELS
        assert grid is not None and (grid.best.c, grid.best.kernel) == (c, kernel)
        assert metric == "auc" and 0.0 <= value <= 1.0

    def test_acm_grid_pipeline(self):
        epoch_set = ar_two_class_set(seed=14, epochs_per_class=20, t=128)
        epochs, labels = epoch_set.all_epochs()
        spec = PipelineSpec(
            kind="ACM+MDM", param_source="grid",
            grid_orders=(1, 2), grid_lags=(1, 2), inner_folds=3,
        )
        params = select_params(spec, epochs, labels, seed=2)[0]
        cells = [(o, l) for o in (1, 2) for l in (1, 2)]
        assert (params.order, params.lag) in cells

    def test_estimator_source_rejected_for_plain(self):
        with pytest.raises(ValueError):
            PipelineSpec(kind="MDM", param_source="ami_cao")

    @pytest.mark.parametrize("setting,value", [
        ("order", 0), ("lag", 0), ("order", 2.0), ("grid_orders", (1, 0)),
        ("grid_lags", (2, 0)),
    ])
    def test_bad_estimator_settings_rejected(self, setting, value):
        with pytest.raises(InvalidSetting):
            PipelineSpec(kind="ACM+MDM", param_source="ami_cao", **{setting: value})

    @pytest.mark.parametrize("setting,value", [
        ("grid_orders", (3, 2)), ("grid_orders", (2, 2, 3)), ("grid_lags", (1, 3, 2)),
    ])
    def test_grids_must_be_strictly_increasing(self, setting, value):
        # grid order is the tie-break order: (3, 2) would let order 3 win a tie
        # with order 2, and (2, 2, 3) would score the order-2 cells twice
        with pytest.raises(InvalidSetting, match=f"{setting} must be non-empty and strictly "
                           "increasing"):
            PipelineSpec(kind="ACM+MDM", param_source="grid", **{setting: value})


ACM_FIXED = {("ACM+MDM", "fixed"), ("ACM+TANG+SVM", "fixed")}
SVM_FIXED = {("TANG+SVM", "fixed"), ("ACM+TANG+SVM", "fixed")}
ACM_GRID = {("ACM+MDM", "grid"), ("ACM+TANG+SVM", "grid")}
# field: (a value off its default, the (kind, source) pairs that read it)
READ_ONLY_BY = {
    "order": (2, ACM_FIXED), "lag": (2, ACM_FIXED),
    "svm_c": (1000.0, SVM_FIXED), "svm_kernel": ("rbf", SVM_FIXED),
    "grid_orders": ((1, 2), ACM_GRID), "grid_lags": ((1, 2), ACM_GRID),
}
SPEC_PAIRS = [(kind, source) for kind in PIPELINE_KINDS for source in PARAM_SOURCES
              if kind.startswith("ACM") or source in ("fixed", "grid")]


@pytest.mark.parametrize("kind,source,field", [
    (kind, source, field) for kind, source in SPEC_PAIRS
    for field, (_, readers) in READ_ONLY_BY.items() if (kind, source) not in readers])
def test_a_setting_the_source_ignores_is_rejected(kind, source, field):
    value, readers = READ_ONLY_BY[field]
    (source_that_reads,) = {s for _, s in readers}
    with pytest.raises(InvalidSetting, match=f"^{field}=.*'{source_that_reads}'"):
        PipelineSpec(kind=kind, param_source=source, **{field: value})


@pytest.mark.parametrize("kind,grid", [
    ("MDM", dict(orders=(1,), lags=(1, 2))),
    ("ACM+MDM", dict(orders=(1, 3), lags=(2,))),
    ("TANG+SVM", dict(orders=(1,), lags=(1,))),
    ("ACM+TANG+SVM", dict(orders=(1, 2), lags=(1,))),
])
def test_inner_cv_cell_is_the_fitted_pipeline_score(kind, grid):
    """A grid cell's inner-CV score is, exactly, the mean over the search's
    folds of what fold_scores gives for that cell's (C, kernel) alone, with
    each fold's stacks built from its own epochs: indexing one cell stack
    scores as building the stacks per split does, bit for bit."""
    epoch_set = generate_ar_dataset(ArSpec(
        coefficients=[[], [[[0.0, -0.2], [0.2, 0.0]]]],
        innovations=[np.eye(2), 0.96 * np.eye(2)],
        lag=1, n_samples=64, epochs_per_class=15, seed=3,
    ))
    epochs, labels = epoch_set.all_epochs()
    result = grid_search(epochs, labels, kind, inner_folds=3, seed=4, **grid)
    folds = stratified_folds(labels, 3, np.random.SeedSequence(4))
    n_cells = len(grid["orders"]) * len(grid["lags"])
    assert len(result.cells) == n_cells * (6 if kind.endswith("SVM") else 1)
    for cell in result.cells:
        params = AugmentedParams(cell.order, cell.lag)
        scores = [fold_scores(kind, lambda rows: covariance_stack(epochs[rows], params),
                              labels, train, test, [(cell.c, cell.kernel)])[0][0]
                  for train, test in folds]
        assert cell.score == float(np.mean(scores))


def test_inner_cv_memory_stays_near_one_cell_stack():
    """The ACM+MDM inner CV scores each fold through views of the cell
    stack, never a copy of its rows: its tracemalloc peak stays under 1.1
    full cell stacks of n k^2 float64 (the cell stack is stored packed, at
    about half that). It reads 0.97; folds that copy their class and test
    rows out of the cell stack read 1.17."""
    import tracemalloc

    rng = np.random.default_rng(9)
    epochs = EpochStack(rng.standard_normal((100, 6, 64)), 250.0)
    labels = np.repeat([0, 1], 50)
    cell_bytes = len(epochs) * (6 * 6) ** 2 * 8  # order 6 on 6 channels
    tracemalloc.start()
    try:
        grid_search(epochs, labels, "ACM+MDM", orders=(5, 6), lags=(1,), inner_folds=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.1 * cell_bytes, (peak, cell_bytes)


def test_mdm_fold_memory_is_one_class_stack_and_one_block():
    """An ACM+MDM fold fits one class at a time and scores the test rows one
    block at a time (one matrix of size k = 96 per block): its traced peak
    stays under the largest class's packed training stack plus the Frechet
    mean's working set (about 6 k^2) and the class means, 9.5 k^2 in all. It
    reads 8.1 k^2, so the bound leaves 1.4 k^2 of margin; a Frechet mean
    that keeps its whitening input, the last gradient or the walk's state
    alive (10.5 k^2) fails it. The whole training stack (three classes) or
    the whole packed test stack, 24 k^2 each, does not fit next to that
    working set."""
    import tracemalloc

    k = 96
    rng = np.random.default_rng(11)
    epochs = EpochStack(rng.standard_normal((96, 8, 160)), 250.0)
    labels = np.repeat([0, 1, 2], 32)
    covs = covariance_stack(epochs, AugmentedParams(12, 1))
    assert covs.dim == k
    train, test = np.flatnonzero(np.arange(96) % 2 == 0), np.flatnonzero(np.arange(96) % 2)
    class_bytes = 16 * covs.packed.shape[1] * 8  # each class has 16 training rows
    tracemalloc.start()
    try:
        fold_scores("ACM+MDM", covs.__getitem__, labels, train, test, [(None, None)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < class_bytes + 9.5 * k * k * 8, (peak, class_bytes)


@given(n_classes=st.integers(2, 3), per_class=st.integers(3, 7), channels=st.integers(1, 3),
       order=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_block_streamed_scoring_equals_whole_stack(n_classes, per_class, channels, order,
                                                  seed):
    """fold_scores, with one matrix per block, against its looped reference:
    fit on the whole training stack, score the whole test stack. MDM
    decisions (or predicted labels) match bit for bit, TS+SVM decisions
    within 1e-12 of their scale, and the fold scores are equal. Every test
    block holds one row, and MDM builds one stack per class."""
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(n_classes), per_class)
    data = rng.standard_normal((len(labels), channels, 40)) * (1.0 + labels)[:, None, None]
    covs = covariance_stack(EpochStack(data, 250.0), AugmentedParams(order, 1))
    train, test = stratified_folds(labels, 3, seed)[0]
    y_train, y_test = labels[train], labels[test]
    for kind, heads in (("ACM+MDM", [(None, None)]),
                        ("ACM+TANG+SVM", [(1.0, "linear"), (0.5, "rbf")])):
        if kind == "ACM+MDM":
            model = mdm_fit(covs[train], y_train)
            predicted, dists = mdm_predict(model, covs[test])
            want = [dists[:, 0] - dists[:, 1] if n_classes == 2 else predicted]
        else:
            isqrt = tangent_fit(covs[train])
            features = tangent_transform_many(isqrt, covs[test])
            models = [svm_fit(tangent_transform_many(isqrt, covs[train]), y_train, c=c,
                              kernel=kernel) for c, kernel in heads]
            want = [svm_decision(m, features) if n_classes == 2 else svm_predict(m, features)
                    for m in models]
        want_scores = [(auc_roc(w, y_test == 1), "auc") if n_classes == 2
                       else (accuracy(w, y_test), "accuracy") for w in want]

        requested, scored = [], []

        def covs_of(rows):
            requested.append(rows.tolist())
            return covs[rows]

        def score(classes, output, y):
            scored.append(output)
            return real_score(classes, output, y)

        real_score = classify._score
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spd, "SPD_BLOCK_BYTES", covs.dim ** 2 * 8)
            mp.setattr(classify, "_score", score)
            got_scores = fold_scores(kind, covs_of, labels, train, test, heads)

        assert got_scores == want_scores and len(scored) == len(want)
        test_calls = [[row] for row in test]
        if kind == "ACM+MDM":
            assert requested == [train[y_train == c].tolist()
                                 for c in range(n_classes)] + test_calls
            assert all(np.array_equal(g, w) for g, w in zip(scored, want))
        else:
            assert requested == [train.tolist()] + test_calls
            for g, w in zip(scored, want):
                if n_classes == 2:
                    np.testing.assert_allclose(g, w, rtol=0.0,
                                               atol=1e-12 * np.abs(w).max())
                else:
                    assert np.array_equal(g, w)


class TestGridSearchInvariants:
    def test_best_score_is_map_maximum(self):
        epoch_set = ar_two_class_set(seed=21, epochs_per_class=15, t=128)
        epochs, labels = epoch_set.all_epochs()
        result = grid_search(epochs, labels, "ACM+MDM", orders=(1, 2), lags=(1, 2),
                             inner_folds=3, seed=4)
        valid_scores = [c.score for c in result.cells if c.score is not None]
        assert result.best.score == max(valid_scores)
        assert result.best == result.ties[0]
        assert result.ties == tuple(c for c in result.cells if c.score == result.best.score)

    def test_order_one_lag_tie_breaks_to_smaller_lag(self):
        # at order 1 the lag is irrelevant, so (1,1) and (1,2) tie exactly
        epoch_set = ar_two_class_set(seed=22, epochs_per_class=12, t=96)
        epochs, labels = epoch_set.all_epochs()
        result = grid_search(epochs, labels, "ACM+MDM", orders=(1,), lags=(1, 2),
                             inner_folds=3, seed=6)
        scores = {(c.order, c.lag): c.score for c in result.cells}
        assert scores[(1, 1)] == scores[(1, 2)]
        assert result.best.lag == 1
        assert len(result.ties) == 2


class TestEstimatorParamSources:
    def test_ami_cao_source_fits_and_predicts(self):
        epoch_set = ar_two_class_set(seed=31, epochs_per_class=10, t=256)
        epochs, labels = epoch_set.all_epochs()
        spec = PipelineSpec(kind="ACM+MDM", param_source="ami_cao")
        (params, _, _, _), (value, metric) = split_scores(spec, epochs, labels, seed=3)
        estimate = emb.estimate(epochs, "ami_cao")
        assert params.order == estimate.dim
        assert params.lag == estimate.tau
        assert (params.order - 1) * params.lag < 256
        assert metric == "auc" and 0.0 <= value <= 1.0

    def test_mdop_source_selects_svm_params_from_grid(self):
        epoch_set = ar_two_class_set(seed=32, epochs_per_class=10, t=256)
        epochs, labels = epoch_set.all_epochs()
        spec = PipelineSpec(kind="ACM+TANG+SVM", param_source="mdop", inner_folds=3)
        (params, c, kernel, grid), (value, metric) = split_scores(spec, epochs, labels, seed=4)
        estimate = emb.estimate(epochs, "mdop")
        assert estimate.method == "mdop"
        assert (params.order, params.lag) == (estimate.dim, estimate.tau)
        assert c in (0.5, 1.0, 1.5)
        assert kernel in KERNELS
        assert grid is not None
        assert metric == "auc" and np.isfinite(value)


def test_mdm_predict_dimension_mismatch(rng):
    from augcov.errors import DimensionMismatch

    model = mdm_fit(spd_stack([random_spd(rng, 3), random_spd(rng, 3)]), [0, 1])
    with pytest.raises(DimensionMismatch):
        mdm_predict(model, spd_stack([random_spd(rng, 4)]))


class TestGridSearchOnlyWhenThereIsAChoice:
    """select_params runs the inner-CV search exactly when its source
    leaves more than one (order, lag, C, kernel) candidate."""

    CASES = [
        (kind, source, grid)
        for kind in ("MDM", "ACM+MDM", "TANG+SVM", "ACM+TANG+SVM")
        for source in ("fixed", "grid", "ami_cao", "mdop")
        if kind.startswith("ACM") or source in ("fixed", "grid")
        for grid in ((((1, 2), (1,)), ((1,), (1,))) if kind.startswith("ACM") and source == "grid"
                     else (None,))
    ]

    @pytest.mark.parametrize("kind,source,grid", CASES, ids=[
        f"{kind}-{source}" + (f"-{len(grid[0])}x{len(grid[1])}" if grid else "")
        for kind, source, grid in CASES])
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
        monkeypatch.setattr(classify.emb, "estimate", estimate)
        # each setting only where the kind and source read it
        if grid is not None:
            settings = dict(grid_orders=grid[0], grid_lags=grid[1])
        elif kind.startswith("ACM") and source == "fixed":
            settings = dict(order=2, lag=3)
        else:
            settings = {}
        spec = PipelineSpec(kind=kind, param_source=source, inner_folds=3, **settings)
        epochs, labels = ar_two_class_set(seed=50, epochs_per_class=6, t=64).all_epochs()
        params, c, kernel, grid_result = select_params(spec, epochs, labels, seed=1)

        n_cells = len(grid[0]) * len(grid[1]) if grid is not None else 1
        n_svm = 6 if kind.endswith("SVM") and source != "fixed" else 1
        searched = n_cells * n_svm > 1
        assert len(calls) == (1 if searched else 0)
        assert (grid_result is not None) == searched
        expected = {"fixed": (2, 3) if kind.startswith("ACM") else (1, 1),
                    "ami_cao": (2, 2), "mdop": (2, 2)}.get(source)
        if expected is not None:
            assert (params.order, params.lag) == expected
        if kind.endswith("SVM") and not searched:
            assert (c, kernel) == (1.0, "linear")
        if not kind.endswith("SVM"):
            assert (c, kernel) == (None, None)
