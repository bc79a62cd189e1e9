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
from .covariance import AugmentedParams, covariance_stack
from .data import EpochSet, Session
from .errors import (
    AllCellsInvalid,
    DimensionMismatch,
    EmptyClass,
    InvalidSetting,
    LagTooLarge,
    TooFewSamples,
)
from .spd import SpdMatrix, _spectral, as_stack, distances_from, frechet_mean, symm_fn
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
    """Per-class Frechet means of the training covariances (an SpdStack or a
    sequence of SpdMatrix)."""
    labels = np.asarray(labels)
    classes = tuple(sorted(set(labels.tolist())))
    if not classes:
        raise EmptyClass("no training samples")
    covs = as_stack(covs)
    if len(covs) != labels.size:
        raise EmptyClass(f"{len(covs)} covariances for {labels.size} labels")
    return MdmModel(classes, tuple(frechet_mean(covs[labels == cls]) for cls in classes))


def mdm_predict(model: MdmModel, covs):
    """Nearest class mean of each covariance; returns (labels, distances),
    with distances of shape (n, n_classes). Ties go to the earliest label
    in order."""
    covs = as_stack(covs)
    dists = np.stack([distances_from(mean, covs) for mean in model.class_means], axis=1)
    return np.asarray(model.class_labels)[np.argmin(dists, axis=1)], dists


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


def tangent_transform_many(tmap: TangentMap, covs) -> np.ndarray:
    """One row per covariance: the upper-triangle flattening of
    Log(ref^{-1/2} cov ref^{-1/2}) with off-diagonal entries scaled by
    sqrt(2), so the Euclidean feature norm equals the Riemannian distance to
    the reference. The rows are C-contiguous: the SVM kernel sums in memory
    order, and a Fortran-ordered matrix would shift its scores.
    """
    covs = as_stack(covs)
    if covs.dim != tmap.dim:
        raise DimensionMismatch(f"covariance dim {covs.dim} vs map dim {tmap.dim}")
    logs = _spectral(covs.values, "log", tmap.ref_inv_sqrt)
    rows, cols = np.triu_indices(tmap.dim)
    weights = np.where(rows == cols, 1.0, np.sqrt(2.0))
    return np.ascontiguousarray(logs[:, rows, cols] * weights)


# -- the scoring rule -----------------------------------------------------

def _head_decision(model, x) -> np.ndarray:
    """Binary ranking scores of a trained SVM (on tangent features) or MDM
    (on covariances, distance to class 0 minus distance to class 1); larger
    means the second class."""
    if isinstance(model, SvmModel):
        return np.asarray(svm_decision(model, x), dtype=float)
    dists = mdm_predict(model, x)[1]
    return dists[:, 0] - dists[:, 1]


def _head_predict(model, x) -> np.ndarray:
    if isinstance(model, SvmModel):
        return svm_predict(model, x)
    return mdm_predict(model, x)[0]


def score_split(model, x_test, y_test, classes) -> tuple:
    """Score a test split: AUC of the decision against y == classes[1] when
    training saw two classes, else accuracy of the predicted labels. Returns
    (value, metric); the inner CV and the outer splits both score here."""
    if len(classes) == 2:
        positive = np.asarray(y_test) == classes[1]
        return auc_roc(_head_decision(model, x_test), positive), "auc"
    return accuracy(_head_predict(model, x_test), y_test), "accuracy"


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
            raise InvalidSetting(f"unknown pipeline kind {self.kind!r}")
        if self.param_source not in PARAM_SOURCES:
            raise InvalidSetting(f"unknown param source {self.param_source!r}")
        if not self.is_augmented and self.param_source in ("ami_cao", "mdop"):
            raise InvalidSetting(
                f"{self.kind} has no stacking parameters to estimate with "
                f"{self.param_source}"
            )
        if self.inner_folds < 2:
            raise InvalidSetting(f"inner CV needs >= 2 folds, got {self.inner_folds}")
        for c in (self.svm_c, *self.grid_c):
            if not (np.isfinite(c) and c > 0):
                raise InvalidSetting(f"SVM C must be finite and > 0, got {c!r}")
        if not all((self.grid_orders, self.grid_lags, self.grid_c, self.grid_kernels)):
            raise InvalidSetting("the order, lag, C and kernel grids must not be empty")
        emb.check_settings(max_lag=self.estimator_max_lag, bins=self.ami_bins,
                           max_dim=self.cao_max_dim, max_cycles=self.mdop_max_cycles)

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

    def _apply(self, fn, epochs, timer, *args):
        """fn(head, head inputs, *args) on the epochs' covariances, or on
        their tangent features for SVM kinds."""
        with _stage(timer, "covariance"):
            covs = covariance_stack(epochs, self.params, self.shrink)
        with _stage(timer, "predict"):
            if self.spec.uses_svm:
                return fn(self.svm_model, tangent_transform_many(self.tangent_map, covs),
                          *args)
            return fn(self.mdm_model, covs, *args)

    def predict(self, epochs, timer=None) -> np.ndarray:
        return self._apply(_head_predict, epochs, timer)

    def decision_scores(self, epochs, timer=None) -> np.ndarray:
        """Binary ranking scores (larger = second class); binary models only."""
        if len(self.class_labels) != 2:
            raise ValueError("decision scores are defined for binary problems")
        return self._apply(_head_decision, epochs, timer)

    def score(self, epochs, labels, timer=None) -> tuple:
        """(value, metric) of the epochs under score_split."""
        return self._apply(score_split, epochs, timer, labels, self.class_labels)


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
        return "-" if self.c is None else f"C={self.c:g},kernel={self.kernel}"


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
    everything = np.arange(labels.size)
    return [(everything[fold_of != f], everything[fold_of == f]) for f in range(n_folds)]


def _score_fold_view(kind, view, c, kernel):
    """Fit one classifier head on a prepared train view and score its test
    view; for SVM kinds the views are tangent feature matrices, for MDM they
    are covariance stacks."""
    train, y_train, test, y_test = view
    if kind.endswith("SVM"):
        model = svm_fit(train, y_train, c=c, kernel=kernel)
    else:
        model = mdm_fit(train, y_train)
    return score_split(model, test, y_test, sorted(set(np.asarray(y_train).tolist())))[0]


def _score_cell(kind, covs, labels, folds, param_grid):
    """Inner-CV fold scores of one (order, lag) cell, one list per (C, kernel)."""
    # the tangent map depends on (order, lag, fold) only, so build the
    # per-fold feature matrices once and reuse them for every (C, kernel)
    fold_views = []
    for train_idx, test_idx in folds:
        train, test = covs[train_idx], covs[test_idx]
        if kind.endswith("SVM"):
            tmap = tangent_fit(train)
            train, test = tangent_transform_many(tmap, train), tangent_transform_many(tmap, test)
        fold_views.append((train, labels[train_idx], test, labels[test_idx]))
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

    Cells that violate (order-1)*lag < T - 1 are recorded invalid and skipped.
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
                covs = covariance_stack(epochs, AugmentedParams(order, lag), shrink)
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
            "no grid cell satisfies (order-1)*lag < T - 1 for these epochs"
        )
    score, top = best
    return GridSearchResult(top.order, top.lag, top.c, top.kernel, score,
                            tuple(cells), tuple(ties))


# -- pipeline fitting -----------------------------------------------------

def _training_epochset(epochs, labels) -> EpochSet:
    labels = [int(v) for v in labels]
    return EpochSet("train", [Session("train", list(epochs), labels)],
                    [f"class{i}" for i in range(max(labels) + 1)])


def _resolve_params(spec: PipelineSpec, epochs, labels, seed):
    """Pick (order, lag, C, kernel) per the configured source; returns
    (params, c, kernel, grid_result, embedding_estimate). The inner-CV grid
    search runs only when the source leaves more than one candidate."""
    estimate = None
    if spec.param_source == "ami_cao":
        estimate = emb.estimate_traditional(
            _training_epochset(epochs, labels), max_lag=spec.estimator_max_lag,
            bins=spec.ami_bins, max_dim=spec.cao_max_dim, threshold=spec.cao_threshold)
    elif spec.param_source == "mdop":
        estimate = emb.mdop_unified(
            _training_epochset(epochs, labels), max_cycles=spec.mdop_max_cycles,
            fnn_threshold=spec.fnn_threshold, max_lag=spec.estimator_max_lag)

    if estimate is not None:
        orders, lags = (estimate.dim,), (estimate.tau,)
    elif spec.is_augmented and spec.param_source == "grid":
        orders, lags = spec.grid_orders, spec.grid_lags
    elif spec.is_augmented:
        orders, lags = (spec.order,), (spec.lag,)
    else:
        orders, lags = (1,), (1,)
    if spec.uses_svm and spec.param_source != "fixed":
        c_grid, kernels = spec.grid_c, spec.grid_kernels
    else:
        c_grid, kernels = (spec.svm_c,), (spec.svm_kernel,)

    if len(orders) * len(lags) * len(c_grid) * len(kernels) == 1:
        return (AugmentedParams(orders[0], lags[0]), c_grid[0], kernels[0],
                None, estimate)
    grid = grid_search(
        epochs, labels, spec.kind, orders=orders, lags=lags,
        c_grid=c_grid, kernel_grid=kernels,
        inner_folds=spec.inner_folds, seed=seed, shrink=spec.shrink,
    )
    return (AugmentedParams(grid.best_order, grid.best_lag), grid.best_c,
            grid.best_kernel, grid, estimate)


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
        covs = covariance_stack(epochs, params, shrink)
    classes = tuple(sorted(set(labels.tolist())))
    with _stage(timer, "fit"):
        if not spec.uses_svm:
            return FittedPipeline(
                spec=spec, class_labels=classes, params=params, shrink=shrink,
                mdm_model=mdm_fit(covs, labels), grid_result=grid_result,
                embedding_estimate=estimate,
            )
        tmap = tangent_fit(covs)
        model = svm_fit(tangent_transform_many(tmap, covs), labels, c=c, kernel=kernel)
        return FittedPipeline(
            spec=spec, class_labels=classes, params=params, shrink=shrink,
            tangent_map=tmap, svm_model=model, chosen_c=c, chosen_kernel=kernel,
            grid_result=grid_result, embedding_estimate=estimate,
        )
