"""Classification heads and pipeline plumbing: minimum distance to the mean
on the manifold, tangent-space features feeding the SMO SVM, the four
pipeline kinds, and select_params: fixed parameters, embedding.estimate, or
the (order, lag, C, kernel) grid search, whose result keeps its winning cell.

fold_scores is the one fit-and-score step of the inner CV and the outer
splits. Fitted models are immutable; fitting never touches anything but the
rows it is handed, so grid-search scores are functions of the training split
alone.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields

import numpy as np

from . import embedding as emb
from . import svm
from .covariance import AugmentedParams, EpochStack, covariance_stack
from .errors import (
    AllCellsInvalid,
    InvalidSetting,
    LagTooLarge,
    TooFewSamples,
    check_integer,
)
from .spd import SpdStack, distances_from, frechet_mean, log_coordinates, symm_fn
from .stats import accuracy, auc_roc
from .svm import KERNELS, SvmModel, svm_decision, svm_fit, svm_predict

PIPELINE_KINDS = ("MDM", "ACM+MDM", "TANG+SVM", "ACM+TANG+SVM")
PARAM_SOURCES = ("fixed", "grid", *emb.METHODS)

TABLE_C_GRID = (0.5, 1.0, 1.5)  # with svm.KERNELS, the grid of every SVM search
TABLE_ORDER_GRID = tuple(range(1, 11))
TABLE_LAG_GRID = tuple(range(1, 11))

# PipelineSpec field: (the kinds that read it, by a part of their name, and
# the one param source they read it with); every kind and source reads the rest
_SETTING_READERS = {"order": ("ACM", "fixed"), "lag": ("ACM", "fixed"),
                    "svm_c": ("SVM", "fixed"), "svm_kernel": ("SVM", "fixed"),
                    "grid_orders": ("ACM", "grid"), "grid_lags": ("ACM", "grid")}


# -- minimum distance to the mean ---------------------------------------

@dataclass(frozen=True)
class MdmModel:
    class_labels: tuple  # sorted and unique
    class_means: tuple  # SpdMatrix of one size, one per label


def mdm_fit(covs: SpdStack, labels) -> MdmModel:
    """Per-class Frechet means of the training covariances, each over its
    class's rows of the stack."""
    labels = svm.check_labels(len(covs), labels)
    classes = tuple(sorted(set(labels.tolist())))
    return MdmModel(classes, tuple(frechet_mean(covs, rows=np.flatnonzero(labels == cls))
                                   for cls in classes))


def mdm_predict(model: MdmModel, covs: SpdStack):
    """Nearest class mean of each covariance; returns (labels, distances),
    with distances of shape (n, n_classes). Ties go to the earliest label
    in order."""
    dists = np.stack([distances_from(mean, covs) for mean in model.class_means], axis=1)
    return np.asarray(model.class_labels)[np.argmin(dists, axis=1)], dists


# -- tangent-space features ---------------------------------------------

def tangent_fit(covs: SpdStack) -> np.ndarray:
    """The tangent map of a training stack: the inverse square root of its
    Frechet mean, the reference of the Log coordinates."""
    return symm_fn(frechet_mean(covs).values, "inv_sqrt")


def tangent_transform_many(ref_inv_sqrt: np.ndarray, covs: SpdStack) -> np.ndarray:
    """One row of Log coordinates (spd.log_coordinates) at the map's
    reference per covariance: Euclidean feature norms equal Riemannian
    distances to the reference."""
    return log_coordinates(ref_inv_sqrt, covs)


# -- the classifier head -------------------------------------------------

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


def score_split(model, x_test, y_test) -> tuple:
    """Score a test split: AUC of the decision against y == the model's
    second class when training saw two classes, else accuracy of the
    predicted labels. Returns (value, metric)."""
    classes = model.class_labels
    if len(classes) == 2:
        positive = np.asarray(y_test) == classes[1]
        return auc_roc(_head_decision(model, x_test), positive), "auc"
    return accuracy(_head_predict(model, x_test), y_test), "accuracy"


def fold_scores(kind, covs_of, labels, train, test, heads) -> list:
    """Fit one head per (C, kernel) of heads on the train rows and score the
    test rows with score_split; returns one (value, metric) per head. The
    inner CV and the outer splits both score here.

    covs_of(rows) gives the SpdStack of those rows. SVM kinds fit the
    tangent map on the training stack and feed the SVM tangent features;
    MDM kinds feed MDM the stacks and ignore C and kernel. The training
    stack is dropped before the test stack is built."""
    uses_svm = kind.endswith("SVM")
    x = covs_of(train)
    if uses_svm:
        ref_inv_sqrt = tangent_fit(x)
        x = tangent_transform_many(ref_inv_sqrt, x)
    y = labels[train]
    models = [svm_fit(x, y, c=c, kernel=kernel) if uses_svm else mdm_fit(x, y)
              for c, kernel in heads]
    del x
    x = covs_of(test)
    if uses_svm:
        x = tangent_transform_many(ref_inv_sqrt, x)
    return [score_split(model, x, labels[test]) for model in models]


# -- pipeline configuration ----------------------------------------------

@dataclass(frozen=True)
class PipelineSpec:
    """Which covariance, which hyper-parameter source, which classifier.
    Each field is set by one option of the evaluate command. A field that
    the kind and source do not read (_SETTING_READERS) must keep its
    default, or InvalidSetting is raised: the value would be ignored."""

    kind: str
    param_source: str = "fixed"
    order: int = 1
    lag: int = 1
    shrink: bool | None = None
    svm_c: float = 1.0
    svm_kernel: str = "linear"
    grid_orders: tuple = TABLE_ORDER_GRID
    grid_lags: tuple = TABLE_LAG_GRID
    inner_folds: int = 5

    def __post_init__(self):
        if self.kind not in PIPELINE_KINDS:
            raise InvalidSetting(f"unknown pipeline kind {self.kind!r}")
        if self.param_source not in PARAM_SOURCES:
            raise InvalidSetting(f"unknown param source {self.param_source!r}")
        if not self.is_augmented and self.param_source in emb.METHODS:
            raise InvalidSetting(
                f"{self.kind} has no stacking parameters to estimate with "
                f"{self.param_source}"
            )
        check_folds(self.inner_folds, "inner_folds")
        svm.check_settings(self.svm_c, self.svm_kernel)
        for cell in ((self.order, self.lag), *itertools.product(self.grid_orders, self.grid_lags)):
            AugmentedParams(*cell)  # the one check of the (order, lag) rule
        for name in ("grid_orders", "grid_lags"):  # grid order breaks grid_search's ties
            grid = getattr(self, name)
            if not grid or any(a >= b for a, b in zip(grid, grid[1:])):
                raise InvalidSetting(f"{name} must be non-empty and strictly increasing: {grid!r}")
        defaults = {f.name: f.default for f in fields(self)}
        for name, (family, source) in _SETTING_READERS.items():
            value = getattr(self, name)
            if value != defaults[name] and not (family in self.kind
                                                and source == self.param_source):
                raise InvalidSetting(
                    f"{name}={value!r} is read only by {family} pipelines with param "
                    f"source {source!r}; {self.kind} with {self.param_source!r} ignores it")

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


# -- grid search ----------------------------------------------------------

@dataclass(frozen=True)
class GridCell:
    order: int
    lag: int
    c: float | None
    kernel: str | None
    score: float | None  # None for a cell that violates the length rule
    n_valid_folds: int

    def param_id(self) -> str:
        return "-" if self.c is None else f"C={self.c:g},kernel={self.kernel}"


@dataclass(frozen=True)
class GridSearchResult:
    best: GridCell  # the winning cell, ties[0]
    cells: tuple
    ties: tuple  # the valid cells whose score equals the best, in grid order


def check_folds(n_folds, name: str = "folds") -> None:
    """The one fold-count rule, for stratified_folds, PipelineSpec and the
    within-session protocol: InvalidSetting unless n_folds is an integer
    >= 2."""
    check_integer(name, n_folds, 2)


def stratified_folds(labels: np.ndarray, n_folds: int, seed, where: str = "the inner CV"):
    """Seeded stratified K-fold: per-class shuffle, round-robin assignment.

    Returns a list of (train_idx, test_idx) arrays with every class in every
    fold. seed (a SeedSequence, or an int) seeds the PCG64 shuffles; a fold
    count that fails check_folds raises InvalidSetting, and a class with
    fewer than n_folds members raises TooFewSamples naming `where`.
    """
    check_folds(n_folds)
    labels = np.asarray(labels)
    counts = {cls: int(np.sum(labels == cls)) for cls in sorted(set(labels.tolist()))}
    if min(counts.values(), default=0) < n_folds:
        raise TooFewSamples(f"{where} needs >= {n_folds} samples per class for "
                            f"{n_folds}-fold CV, got {counts}")
    rng = np.random.Generator(np.random.PCG64(seed))
    fold_of = np.empty(labels.size, dtype=int)
    for cls in counts:
        idx = np.nonzero(labels == cls)[0]
        perm = rng.permutation(idx.size)
        fold_of[idx[perm]] = np.arange(idx.size) % n_folds
    everything = np.arange(labels.size)
    return [(everything[fold_of != f], everything[fold_of == f]) for f in range(n_folds)]


def grid_search(
    epochs: EpochStack,
    labels,
    kind: str,
    orders=TABLE_ORDER_GRID,
    lags=TABLE_LAG_GRID,
    inner_folds: int = 5,
    seed: int = 0,
    shrink: bool | None = None,
) -> GridSearchResult:
    """Stratified inner-CV score over the (order, lag[, C, kernel]) grid; SVM
    kinds search every TABLE_C_GRID x svm.KERNELS pair in each cell.

    Cells that violate (order-1)*lag < T - 1 are recorded invalid and skipped.
    The best cell is the first valid one with the top mean score in grid
    order: orders, then lags, as given (PipelineSpec makes both strictly
    increasing), then C and kernel in table order.
    """
    if kind not in PIPELINE_KINDS:
        raise InvalidSetting(f"unknown pipeline kind {kind!r}")
    labels = svm.check_labels(len(epochs), labels)
    folds = stratified_folds(labels, inner_folds, np.random.SeedSequence(seed))
    uses_svm = kind.endswith("SVM")
    param_grid = (
        list(itertools.product(TABLE_C_GRID, KERNELS)) if uses_svm else [(None, None)]
    )

    cells = []
    order1_scores = None  # embed_epoch ignores the lag at order 1: score it once
    for params in [AugmentedParams(*cell) for cell in itertools.product(orders, lags)]:
        order, lag = params.order, params.lag
        if order == 1 and order1_scores is not None:
            param_scores = order1_scores
        else:
            try:
                covs = covariance_stack(epochs, params, shrink)
            except LagTooLarge:
                for c, kernel in param_grid:
                    cells.append(GridCell(order, lag, c, kernel, None, 0))
                continue
            # folds outside, heads inside: one fold's head inputs at a time
            param_scores = list(zip(*(
                [value for value, _ in fold_scores(kind, covs.__getitem__, labels,
                                                   train, test, param_grid)]
                for train, test in folds)))
            if order == 1:
                order1_scores = param_scores
        for (c, kernel), scores in zip(param_grid, param_scores):
            cells.append(GridCell(order, lag, c, kernel, float(np.mean(scores)), len(scores)))

    valid = [cell for cell in cells if cell.score is not None]
    if not valid:
        raise AllCellsInvalid(
            "no grid cell satisfies (order-1)*lag < T - 1 for these epochs"
        )
    top = max(cell.score for cell in valid)
    ties = tuple(cell for cell in valid if cell.score == top)
    return GridSearchResult(ties[0], tuple(cells), ties)


# -- parameter selection --------------------------------------------------

def select_params(spec: PipelineSpec, epochs: EpochStack, labels, seed: int = 0,
                  rows=slice(None)):
    """Pick (order, lag, C, kernel) on a training split, the epochs and
    labels at rows, per the spec's source; returns (params, c, kernel,
    grid_result), with C and kernel None for MDM kinds and grid_result None
    when nothing was searched. The rows are indexed only when an estimator
    or the inner-CV grid search reads them, and the search runs only when
    the source leaves more than one candidate."""
    if spec.param_source in emb.METHODS:
        estimate = emb.estimate(epochs[rows], spec.param_source)
        orders, lags = (estimate.dim,), (estimate.tau,)
    elif spec.is_augmented and spec.param_source == "grid":
        orders, lags = spec.grid_orders, spec.grid_lags
    else:  # fixed, or a plain kind, whose spec pins order = lag = 1
        orders, lags = (spec.order,), (spec.lag,)
    # a fixed source fixes an SVM's C and kernel; any other searches the table
    svm_search = spec.uses_svm and spec.param_source != "fixed"
    if len(orders) * len(lags) == 1 and not svm_search:
        c, kernel = (spec.svm_c, spec.svm_kernel) if spec.uses_svm else (None, None)
        return AugmentedParams(orders[0], lags[0]), c, kernel, None
    grid = grid_search(
        epochs[rows], np.asarray(labels)[rows], spec.kind, orders=orders, lags=lags,
        inner_folds=spec.inner_folds, seed=seed, shrink=spec.shrink,
    )
    return AugmentedParams(grid.best.order, grid.best.lag), grid.best.c, grid.best.kernel, grid
