"""Classification heads and pipeline plumbing: minimum distance to the mean
on the manifold, tangent-space features feeding the SMO SVM, the four
pipeline kinds, and the (order, lag, C, kernel) grid search.

Fitted models are immutable; fitting never touches anything but the epochs
it is handed, so grid-search scores are functions of the training split
alone.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from . import embedding as emb
from .covariance import AugmentedParams, augmented_covariance
from .data import EpochSet, Session
from .errors import (
    AllCellsInvalid,
    DimensionMismatch,
    EmptyClass,
    LagTooLarge,
    TooFewSamples,
)
from .spd import SpdMatrix, affine_invariant_distance, frechet_mean, symm_fn
from .stats import accuracy, auc_roc
from .svm import SvmModel, svm_decision, svm_fit, svm_predict

PIPELINE_KINDS = ("MDM", "ACM+MDM", "TANG+SVM", "ACM+TANG+SVM")
PARAM_SOURCES = ("fixed", "grid", "ami_cao", "mdop")

TABLE_C_GRID = (0.5, 1.0, 1.5)
TABLE_KERNEL_GRID = ("linear", "rbf")
TABLE_ORDER_GRID = tuple(range(1, 11))
TABLE_LAG_GRID = tuple(range(1, 11))


class StageTimer:
    """Accumulates wall time per pipeline stage (covariance, fit, predict)."""

    def __init__(self):
        self.seconds = {}

    @contextmanager
    def time(self, stage: str):
        start = perf_counter()
        try:
            yield
        finally:
            self.seconds[stage] = self.seconds.get(stage, 0.0) + (perf_counter() - start)

    def total(self) -> float:
        return sum(self.seconds.values())


def _stage(timer, name):
    return timer.time(name) if timer is not None else nullcontext()


# -- minimum distance to the mean ---------------------------------------

@dataclass(frozen=True)
class MdmModel:
    class_labels: tuple
    class_means: tuple

    def __post_init__(self):
        dims = {m.dim for m in self.class_means}
        if len(dims) != 1:
            raise DimensionMismatch(f"class means have mixed dimensions {sorted(dims)}")
        if len(set(self.class_labels)) != len(self.class_labels):
            raise ValueError("class labels must be unique")


def mdm_fit(covs, labels) -> MdmModel:
    """Per-class Frechet means of the training covariances."""
    labels = np.asarray(labels)
    classes = tuple(sorted(set(labels.tolist())))
    if not classes:
        raise EmptyClass("no training samples")
    means = []
    for cls in classes:
        members = [c for c, y in zip(covs, labels) if y == cls]
        if not members:
            raise EmptyClass(f"class {cls!r} has no samples")
        means.append(frechet_mean(members))
    return MdmModel(classes, tuple(means))


def mdm_predict(model: MdmModel, cov: SpdMatrix):
    """Nearest class mean; returns (label, per-class distances). Ties go to
    the earliest label in order."""
    dists = np.array(
        [affine_invariant_distance(cov, mean) for mean in model.class_means]
    )
    return model.class_labels[int(np.argmin(dists))], dists


def mdm_binary_score(model: MdmModel, cov: SpdMatrix) -> float:
    """Ranking score for AUC: distance to class 0 minus distance to class 1,
    so larger means more confidently the second class."""
    _, dists = mdm_predict(model, cov)
    return float(dists[0] - dists[1])


# -- tangent-space features ---------------------------------------------

@dataclass(frozen=True)
class TangentMap:
    """Log-map vectorizer anchored at the training Frechet mean."""

    reference: SpdMatrix
    ref_inv_sqrt: np.ndarray

    @property
    def dim(self) -> int:
        return self.reference.dim

    @property
    def output_len(self) -> int:
        return self.dim * (self.dim + 1) // 2


def tangent_fit(covs) -> TangentMap:
    reference = frechet_mean(covs)
    return TangentMap(reference, symm_fn(reference.values, "inv_sqrt"))


def tangent_transform(tmap: TangentMap, cov: SpdMatrix) -> np.ndarray:
    """Upper-triangle flattening of Log(ref^{-1/2} cov ref^{-1/2}) with
    off-diagonal entries scaled by sqrt(2), so the Euclidean feature norm
    equals the Riemannian distance to the reference.
    """
    if cov.dim != tmap.dim:
        raise DimensionMismatch(f"covariance dim {cov.dim} vs map dim {tmap.dim}")
    logm = symm_fn(tmap.ref_inv_sqrt @ cov.values @ tmap.ref_inv_sqrt, "log")
    iu = np.triu_indices(tmap.dim)
    weights = np.where(iu[0] == iu[1], 1.0, np.sqrt(2.0))
    return logm[iu] * weights


def tangent_transform_many(tmap: TangentMap, covs) -> np.ndarray:
    return np.stack([tangent_transform(tmap, c) for c in covs])


# -- pipeline configuration ----------------------------------------------

@dataclass(frozen=True)
class PipelineSpec:
    """Which covariance, which hyper-parameter source, which classifier."""

    kind: str
    param_source: str = "fixed"
    order: int = 1
    lag: int = 1
    shrink: bool | None = None
    svm_c: float = 1.0
    svm_kernel: str = "linear"
    grid_orders: tuple = TABLE_ORDER_GRID
    grid_lags: tuple = TABLE_LAG_GRID
    grid_c: tuple = TABLE_C_GRID
    grid_kernels: tuple = TABLE_KERNEL_GRID
    inner_folds: int = 5
    estimator_max_lag: int = emb.MDOP_DEFAULT_MAX_LAG
    ami_bins: int = emb.AMI_DEFAULT_BINS
    cao_max_dim: int = 8
    cao_threshold: float = emb.CAO_DEFAULT_THRESHOLD
    mdop_max_cycles: int = 8
    fnn_threshold: float = 0.05

    def __post_init__(self):
        if self.kind not in PIPELINE_KINDS:
            raise ValueError(f"unknown pipeline kind {self.kind!r}")
        if self.param_source not in PARAM_SOURCES:
            raise ValueError(f"unknown param source {self.param_source!r}")
        if not self.is_augmented and self.param_source in ("ami_cao", "mdop"):
            raise ValueError(
                f"{self.kind} has no stacking parameters to estimate with "
                f"{self.param_source}"
            )

    @property
    def is_augmented(self) -> bool:
        return self.kind.startswith("ACM")

    @property
    def uses_svm(self) -> bool:
        return self.kind.endswith("SVM")

    @property
    def name(self) -> str:
        if self.is_augmented:
            return f"{self.kind}({self.param_source})"
        return self.kind


@dataclass(frozen=True)
class FittedPipeline:
    """Immutable trained pipeline state."""

    spec: PipelineSpec
    class_labels: tuple
    params: AugmentedParams
    shrink: bool
    mdm_model: MdmModel | None = None
    tangent_map: TangentMap | None = None
    svm_model: SvmModel | None = None
    chosen_c: float | None = None
    chosen_kernel: str | None = None
    grid_result: "GridSearchResult | None" = None
    embedding_estimate: emb.EmbeddingEstimate | None = None

    def _covariances(self, epochs, timer=None):
        with _stage(timer, "covariance"):
            return [augmented_covariance(e, self.params, self.shrink) for e in epochs]

    def predict(self, epochs, timer=None) -> np.ndarray:
        covs = self._covariances(epochs, timer)
        with _stage(timer, "predict"):
            if self.spec.uses_svm:
                feats = tangent_transform_many(self.tangent_map, covs)
                return svm_predict(self.svm_model, feats)
            return np.array([mdm_predict(self.mdm_model, c)[0] for c in covs])

    def decision_scores(self, epochs, timer=None) -> np.ndarray:
        """Binary ranking scores (larger = second class); binary models only."""
        if len(self.class_labels) != 2:
            raise ValueError("decision scores are defined for binary problems")
        covs = self._covariances(epochs, timer)
        with _stage(timer, "predict"):
            if self.spec.uses_svm:
                feats = tangent_transform_many(self.tangent_map, covs)
                return np.asarray(svm_decision(self.svm_model, feats), dtype=float)
            return np.array([mdm_binary_score(self.mdm_model, c) for c in covs])


# -- grid search ----------------------------------------------------------

@dataclass(frozen=True)
class GridCell:
    order: int
    lag: int
    c: float | None
    kernel: str | None
    score: float | None
    n_valid_folds: int
    valid: bool

    def param_id(self) -> str:
        if self.c is None:
            return "-"
        return f"C={self.c:g},kernel={self.kernel}"


@dataclass(frozen=True)
class GridSearchResult:
    best_order: int
    best_lag: int
    best_c: float | None
    best_kernel: str | None
    best_score: float
    cells: tuple
    ties: tuple  # cells whose score equals the best before tie-breaking


def stratified_folds(labels: np.ndarray, n_folds: int, rng: np.random.Generator):
    """Seeded stratified K-fold: per-class shuffle, round-robin assignment.

    Returns a list of (train_idx, test_idx) arrays; every class lands in
    every fold when it has at least n_folds members.
    """
    labels = np.asarray(labels)
    fold_of = np.empty(labels.size, dtype=int)
    for cls in sorted(set(labels.tolist())):
        idx = np.nonzero(labels == cls)[0]
        perm = rng.permutation(idx.size)
        fold_of[idx[perm]] = np.arange(idx.size) % n_folds
    out = []
    everything = np.arange(labels.size)
    for f in range(n_folds):
        test = everything[fold_of == f]
        train = everything[fold_of != f]
        out.append((train, test))
    return out


def _score_fold_view(kind, view, c, kernel):
    """Fit one classifier head on a prepared train view and score its test
    view; for SVM kinds the views are tangent feature matrices, for MDM they
    are covariance lists."""
    train, y_train, test, y_test = view
    classes = sorted(set(np.asarray(y_train).tolist()))
    binary = len(classes) == 2
    if kind.endswith("SVM"):
        model = svm_fit(train, y_train, c=c, kernel=kernel)
        if binary:
            return auc_roc(svm_decision(model, test), np.asarray(y_test) == classes[1])
        return accuracy(svm_predict(model, test), y_test)
    model = mdm_fit(train, y_train)
    if binary:
        scores = [mdm_binary_score(model, cov) for cov in test]
        return auc_roc(scores, np.asarray(y_test) == classes[1])
    preds = [mdm_predict(model, cov)[0] for cov in test]
    return accuracy(preds, y_test)


def _score_cell(kind, covs, labels, folds, param_grid):
    """Inner-CV fold scores of one (order, lag) cell, one list per (C, kernel)."""
    uses_svm = kind.endswith("SVM")
    # the tangent map depends on (order, lag, fold) only, so build the
    # per-fold feature matrices once and reuse them for every (C, kernel)
    fold_views = []
    for train_idx, test_idx in folds:
        covs_train = [covs[i] for i in train_idx]
        covs_test = [covs[i] for i in test_idx]
        if uses_svm:
            tmap = tangent_fit(covs_train)
            fold_views.append((
                tangent_transform_many(tmap, covs_train), labels[train_idx],
                tangent_transform_many(tmap, covs_test), labels[test_idx],
            ))
        else:
            fold_views.append((covs_train, labels[train_idx],
                               covs_test, labels[test_idx]))
    return [
        [_score_fold_view(kind, view, c, kernel) for view in fold_views]
        for c, kernel in param_grid
    ]


def grid_search(
    epochs,
    labels,
    kind: str,
    orders=TABLE_ORDER_GRID,
    lags=TABLE_LAG_GRID,
    c_grid=TABLE_C_GRID,
    kernel_grid=TABLE_KERNEL_GRID,
    inner_folds: int = 5,
    seed: int = 0,
    shrink: bool | None = None,
) -> GridSearchResult:
    """Stratified inner-CV score over the (order, lag[, C, kernel]) grid.

    Cells that violate (order-1)*lag < T are recorded invalid and skipped.
    The best cell wins by mean score with deterministic tie-breaking:
    smaller order, then smaller lag, then the listed order of the classifier
    parameter grids.
    """
    if kind not in PIPELINE_KINDS:
        raise ValueError(f"unknown pipeline kind {kind!r}")
    labels = np.asarray(labels)
    if len(epochs) == 0 or labels.size != len(epochs):
        raise TooFewSamples("grid search needs one label per epoch")
    counts = {cls: int(np.sum(labels == cls)) for cls in sorted(set(labels.tolist()))}
    if min(counts.values()) < inner_folds:
        raise TooFewSamples(
            f"every class needs >= {inner_folds} samples for the inner CV, got {counts}"
        )
    uses_svm = kind.endswith("SVM")
    param_grid = (
        list(itertools.product(c_grid, kernel_grid)) if uses_svm else [(None, None)]
    )
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    folds = stratified_folds(labels, inner_folds, rng)

    cells = []
    best = None  # (score, cell)
    ties = []
    order1_scores = None  # embed_epoch ignores the lag at order 1: score it once
    for order, lag in itertools.product(orders, lags):
        if order == 1 and order1_scores is not None:
            param_scores = order1_scores
        else:
            try:
                params = AugmentedParams(order, lag)
                params.check_length(epochs[0].n_samples)
                covs = [augmented_covariance(e, params, shrink) for e in epochs]
            except LagTooLarge:
                for c, kernel in param_grid:
                    cells.append(GridCell(order, lag, c, kernel, None, 0, False))
                continue
            param_scores = _score_cell(kind, covs, labels, folds, param_grid)
            if order == 1:
                order1_scores = param_scores
        for (c, kernel), fold_scores in zip(param_grid, param_scores):
            score = float(np.mean(fold_scores))
            cell = GridCell(order, lag, c, kernel, score, len(fold_scores), True)
            cells.append(cell)
            if best is None or score > best[0]:
                best = (score, cell)
                ties = [cell]
            elif score == best[0]:
                ties.append(cell)

    if best is None:
        raise AllCellsInvalid(
            "no grid cell satisfies (order-1)*lag < T for these epochs"
        )
    top = best[1]
    return GridSearchResult(
        best_order=top.order,
        best_lag=top.lag,
        best_c=top.c,
        best_kernel=top.kernel,
        best_score=best[0],
        cells=tuple(cells),
        ties=tuple(ties),
    )


# -- pipeline fitting -----------------------------------------------------

def _training_epochset(epochs, labels) -> EpochSet:
    labels = [int(v) for v in labels]
    n_classes = max(labels) + 1
    return EpochSet(
        "train",
        [Session("train", list(epochs), labels)],
        [f"class{i}" for i in range(n_classes)],
    )


def _resolve_params(spec: PipelineSpec, epochs, labels, seed):
    """Pick (order, lag, C, kernel) per the configured source; returns
    (params, c, kernel, grid_result, embedding_estimate)."""
    grid_result = None
    estimate = None
    if not spec.is_augmented:
        order, lag = 1, 1
        if spec.uses_svm and spec.param_source == "grid":
            grid_result = grid_search(
                epochs, labels, spec.kind,
                orders=(1,), lags=(1,),
                c_grid=spec.grid_c, kernel_grid=spec.grid_kernels,
                inner_folds=spec.inner_folds, seed=seed, shrink=spec.shrink,
            )
            return (AugmentedParams(1, 1), grid_result.best_c,
                    grid_result.best_kernel, grid_result, None)
        return AugmentedParams(order, lag), spec.svm_c, spec.svm_kernel, None, None

    if spec.param_source == "fixed":
        return (AugmentedParams(spec.order, spec.lag), spec.svm_c, spec.svm_kernel,
                None, None)

    if spec.param_source == "grid":
        grid_result = grid_search(
            epochs, labels, spec.kind,
            orders=spec.grid_orders, lags=spec.grid_lags,
            c_grid=spec.grid_c, kernel_grid=spec.grid_kernels,
            inner_folds=spec.inner_folds, seed=seed, shrink=spec.shrink,
        )
        c = grid_result.best_c if spec.uses_svm else spec.svm_c
        kernel = grid_result.best_kernel if spec.uses_svm else spec.svm_kernel
        return (AugmentedParams(grid_result.best_order, grid_result.best_lag),
                c, kernel, grid_result, None)

    train_set = _training_epochset(epochs, labels)
    if spec.param_source == "ami_cao":
        estimate = emb.estimate_traditional(
            train_set,
            max_lag=spec.estimator_max_lag,
            bins=spec.ami_bins,
            max_dim=spec.cao_max_dim,
            threshold=spec.cao_threshold,
        )
    else:
        estimate = emb.mdop_unified(
            train_set,
            max_cycles=spec.mdop_max_cycles,
            fnn_threshold=spec.fnn_threshold,
            max_lag=spec.estimator_max_lag,
        )
    params = AugmentedParams(estimate.dim, estimate.tau)
    c, kernel = spec.svm_c, spec.svm_kernel
    if spec.uses_svm:
        grid_result = grid_search(
            epochs, labels, spec.kind,
            orders=(params.order,), lags=(params.lag,),
            c_grid=spec.grid_c, kernel_grid=spec.grid_kernels,
            inner_folds=spec.inner_folds, seed=seed, shrink=spec.shrink,
        )
        c, kernel = grid_result.best_c, grid_result.best_kernel
    return params, c, kernel, grid_result, estimate


def fit_pipeline(spec: PipelineSpec, epochs, labels, seed: int = 0,
                 timer: StageTimer | None = None) -> FittedPipeline:
    """Train one pipeline on a flat list of epochs with integer labels."""
    labels = np.asarray(labels)
    if len(epochs) != labels.size or len(epochs) == 0:
        raise EmptyClass("need one label per training epoch")
    params, c, kernel, grid_result, estimate = _resolve_params(
        spec, epochs, labels, seed
    )
    shrink = spec.shrink if spec.shrink is not None else params.order > 1

    with _stage(timer, "covariance"):
        covs = [augmented_covariance(e, params, shrink) for e in epochs]
    classes = tuple(sorted(set(labels.tolist())))
    with _stage(timer, "fit"):
        if spec.uses_svm:
            tmap = tangent_fit(covs)
            feats = tangent_transform_many(tmap, covs)
            model = svm_fit(feats, labels, c=c, kernel=kernel)
            return FittedPipeline(
                spec=spec, class_labels=classes, params=params, shrink=shrink,
                tangent_map=tmap, svm_model=model, chosen_c=c, chosen_kernel=kernel,
                grid_result=grid_result, embedding_estimate=estimate,
            )
        mdm = mdm_fit(covs, labels)
        return FittedPipeline(
            spec=spec, class_labels=classes, params=params, shrink=shrink,
            mdm_model=mdm, grid_result=grid_result, embedding_estimate=estimate,
        )
