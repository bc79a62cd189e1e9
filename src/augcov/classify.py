"""Classification heads and pipeline plumbing: minimum distance to the mean
on the manifold, tangent-space features feeding the SMO SVM, the four
pipeline kinds, and the (order, lag, C, kernel) grid search.

Fitted models are immutable; fitting never touches anything but the epochs
it is handed, so grid-search scores are functions of the training split
alone.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields

import numpy as np

from . import embedding as emb
from . import svm
from .covariance import AugmentedParams, as_epochs, covariance_stack, resolve_shrink
from .errors import (
    AllCellsInvalid,
    DimensionMismatch,
    EmptyClass,
    InvalidSetting,
    LagTooLarge,
    LengthMismatch,
    TooFewSamples,
    check_integer,
)
from .spd import SpdMatrix, as_stack, distances_from, frechet_mean, log_coordinates, symm_fn
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
    class_labels: tuple
    class_means: tuple

    def __post_init__(self):
        dims = {m.dim for m in self.class_means}
        if len(dims) != 1:
            raise DimensionMismatch(f"class means have mixed dimensions {sorted(dims)}")
        if len(set(self.class_labels)) != len(self.class_labels):
            raise ValueError("class labels must be unique")


def _check_labels(n_samples: int, labels) -> np.ndarray:
    """The one label rule of the classifiers: one label per sample, else
    LengthMismatch; no samples at all raise EmptyClass. Returns the labels
    as an array."""
    labels = np.asarray(labels)
    if labels.size != n_samples:
        raise LengthMismatch(f"need one label per sample, got {labels.size} labels "
                             f"for {n_samples} samples")
    if n_samples == 0:
        raise EmptyClass("no training samples")
    return labels


def mdm_fit(covs, labels) -> MdmModel:
    """Per-class Frechet means of the training covariances (an SpdStack or a
    sequence of SpdMatrix), each over its class's rows of the stack."""
    labels = _check_labels(len(covs), labels)
    classes = tuple(sorted(set(labels.tolist())))
    covs = as_stack(covs)
    return MdmModel(classes, tuple(frechet_mean(covs, rows=np.flatnonzero(labels == cls))
                                   for cls in classes))


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


def tangent_fit(covs) -> TangentMap:
    reference = frechet_mean(covs)
    return TangentMap(reference, symm_fn(reference.values, "inv_sqrt"))


def tangent_transform_many(tmap: TangentMap, covs) -> np.ndarray:
    """One row of Log coordinates (spd.log_coordinates) at the map's
    reference per covariance: Euclidean feature norms equal Riemannian
    distances to the reference."""
    return log_coordinates(tmap.ref_inv_sqrt, as_stack(covs))


# -- the classifier head -------------------------------------------------

def _head_inputs(kind, train, *others):
    """(tangent map, head inputs of train and of each other stack). SVM kinds
    fit the map on the training stack and feed the SVM each stack's tangent
    features; MDM kinds have no map and feed MDM the stacks themselves."""
    tmap = tangent_fit(train) if kind.endswith("SVM") else None
    return tmap, [_map_to_head(tmap, covs) for covs in (train, *others)]


def _map_to_head(tmap, covs):
    return covs if tmap is None else tangent_transform_many(tmap, covs)


def _fit_head(kind, x, y, c, kernel):
    """Train a kind's head on its inputs: an SVM on tangent features, or MDM
    on covariances."""
    if kind.endswith("SVM"):
        return svm_fit(x, y, c=c, kernel=kernel)
    return mdm_fit(x, y)


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
    predicted labels. Returns (value, metric); the inner CV and the outer
    splits both score here."""
    classes = model.class_labels
    if len(classes) == 2:
        positive = np.asarray(y_test) == classes[1]
        return auc_roc(_head_decision(model, x_test), positive), "auc"
    return accuracy(_head_predict(model, x_test), y_test), "accuracy"


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
        if not (self.grid_orders and self.grid_lags):
            raise InvalidSetting("the order and lag grids must not be empty")
        for cell in ((self.order, self.lag), *itertools.product(self.grid_orders, self.grid_lags)):
            AugmentedParams(*cell)  # the one check of the (order, lag) rule
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


@dataclass(frozen=True)
class FittedPipeline:
    """Immutable trained pipeline state: the head's model, and the tangent
    map that feeds it (None for MDM kinds)."""

    spec: PipelineSpec
    params: AugmentedParams
    shrink: bool
    model: MdmModel | SvmModel
    tangent_map: TangentMap | None = None
    grid_result: "GridSearchResult | None" = None
    embedding_estimate: emb.EmbeddingEstimate | None = None

    @property
    def class_labels(self) -> tuple:
        return self.model.class_labels

    @property
    def chosen_c(self) -> float | None:
        return getattr(self.model, "C", None)

    @property
    def chosen_kernel(self) -> str | None:
        return getattr(self.model, "kernel", None)

    def _inputs(self, epochs):
        return _map_to_head(self.tangent_map, covariance_stack(epochs, self.params, self.shrink))

    def predict(self, epochs) -> np.ndarray:
        return _head_predict(self.model, self._inputs(epochs))

    def decision_scores(self, epochs) -> np.ndarray:
        """Binary ranking scores (larger = second class); binary models only."""
        if len(self.class_labels) != 2:
            raise ValueError("decision scores are defined for binary problems")
        return _head_decision(self.model, self._inputs(epochs))

    def score(self, epochs, labels) -> tuple:
        """(value, metric) of the epochs under score_split."""
        return score_split(self.model, self._inputs(epochs), labels)


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


def _score_cell(kind, covs, labels, folds, param_grid):
    """Inner-CV fold scores of one (order, lag) cell, one list per (C, kernel)."""
    # the tangent map depends on (order, lag, fold) only, so each fold's head
    # inputs are built once and reused for every (C, kernel)
    fold_inputs = [(_head_inputs(kind, covs[train], covs[test])[1], labels[train], labels[test])
                   for train, test in folds]
    return [
        [score_split(_fit_head(kind, x_train, y_train, c, kernel), x_test, y_test)[0]
         for (x_train, x_test), y_train, y_test in fold_inputs]
        for c, kernel in param_grid
    ]


def grid_search(
    epochs,
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
    The best cell wins by mean score with deterministic tie-breaking:
    smaller order, then smaller lag, then C and kernel in table order.
    """
    if kind not in PIPELINE_KINDS:
        raise InvalidSetting(f"unknown pipeline kind {kind!r}")
    labels = _check_labels(len(epochs), labels)
    epochs = as_epochs(epochs)
    folds = stratified_folds(labels, inner_folds, np.random.SeedSequence(seed))
    uses_svm = kind.endswith("SVM")
    param_grid = (
        list(itertools.product(TABLE_C_GRID, KERNELS)) if uses_svm else [(None, None)]
    )

    cells = []
    best = None  # (score, cell)
    ties = []
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

def _resolve_params(spec: PipelineSpec, epochs, labels, seed):
    """Pick (order, lag, C, kernel) per the configured source; returns
    (params, c, kernel, grid_result, embedding_estimate). The inner-CV grid
    search runs only when the source leaves more than one candidate."""
    estimate = None
    if spec.param_source in emb.METHODS:
        estimate = emb.estimate(epochs, spec.param_source)

    if estimate is not None:
        orders, lags = (estimate.dim,), (estimate.tau,)
    elif spec.is_augmented and spec.param_source == "grid":
        orders, lags = spec.grid_orders, spec.grid_lags
    elif spec.is_augmented:
        orders, lags = (spec.order,), (spec.lag,)
    else:
        orders, lags = (1,), (1,)
    # a fixed source fixes an SVM's C and kernel; any other searches the table
    svm_search = spec.uses_svm and spec.param_source != "fixed"
    if len(orders) * len(lags) == 1 and not svm_search:
        return (AugmentedParams(orders[0], lags[0]), spec.svm_c, spec.svm_kernel,
                None, estimate)
    grid = grid_search(
        epochs, labels, spec.kind, orders=orders, lags=lags,
        inner_folds=spec.inner_folds, seed=seed, shrink=spec.shrink,
    )
    return (AugmentedParams(grid.best_order, grid.best_lag), grid.best_c,
            grid.best_kernel, grid, estimate)


def fit_pipeline(spec: PipelineSpec, epochs, labels, seed: int = 0) -> FittedPipeline:
    """Train one pipeline on an EpochStack (or a list of Epoch) with integer
    labels."""
    labels = _check_labels(len(epochs), labels)
    epochs = as_epochs(epochs)
    params, c, kernel, grid_result, estimate = _resolve_params(
        spec, epochs, labels, seed
    )
    shrink = resolve_shrink(spec.shrink, params)

    tmap, (x,) = _head_inputs(spec.kind, covariance_stack(epochs, params, shrink))
    return FittedPipeline(spec=spec, params=params, shrink=shrink,
                          model=_fit_head(spec.kind, x, labels, c, kernel), tangent_map=tmap,
                          grid_result=grid_result, embedding_estimate=estimate)
