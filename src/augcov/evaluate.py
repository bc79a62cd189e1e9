"""Evaluation protocols and the statistical meta-analysis layer.

Within-session evaluation is a seeded stratified 5-fold CV per session;
cross-session evaluation rotates a held-out session. Both cut a subject's
stack into splits of (train rows, test rows), and one runner scores every
split, in a process pool when asked. Any grid search or parameter
estimation a pipeline performs is confined to the training split at hand.
The folds and each split's inner seed are numpy's SeedSequence/PCG64
streams, drawn by augcov.seeds, so no evaluation loads numpy.random.

Report JSON is canonical and free of wall-times so reruns are byte
identical; timings travel separately and serialize to their own CSV.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
from dataclasses import asdict, dataclass, field
from time import perf_counter

import numpy as np

from .classify import PipelineSpec, fold_scores, select_params, stratified_folds
from .covariance import covariance_stack
from .data import EpochSet
from .errors import (
    AllZeroDiffs,
    DegenerateVariance,
    FormatError,
    PairingViolation,
    SingleSession,
    VersionUnsupported,
    check_integer,
)
from .seeds import SeedSequence
from .stats import (
    bonferroni,
    cohens_d,
    permutation_paired_t,
    stouffer_combine,
    wilcoxon_signed_rank,
)

WILCOXON_MIN_SUBJECTS = 20
REPORT_VERSION = 1  # the report.json version to_json writes and from_json reads


@dataclass(frozen=True)
class SplitScore:
    """One evaluated train/test split."""

    session: str
    split: str
    score: float
    metric: str
    order: int
    lag: int
    svm_c: float | None
    svm_kernel: str | None

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class EvalReport:
    """Scores of one pipeline on one subject's dataset."""

    dataset: str
    subject: str
    pipeline: str
    eval_mode: str
    seed: int
    scores: list = field(default_factory=list)
    timings: list = field(default_factory=list)  # (session, split, stage, seconds)
    grid_maps: list = field(default_factory=list)  # (session, split, GridSearchResult)

    @property
    def mean(self) -> float:
        return float(np.mean([s.score for s in self.scores]))

    @property
    def std(self) -> float:
        return float(np.std([s.score for s in self.scores]))

    def to_json(self) -> str:
        payload = {
            "format": "acm-eval-report",
            "version": REPORT_VERSION,
            "dataset": self.dataset,
            "subject": self.subject,
            "pipeline": self.pipeline,
            "eval_mode": self.eval_mode,
            "seed": self.seed,
            "scores": [s.to_dict() for s in self.scores],
            "aggregate": {"mean": self.mean, "std": self.std},
        }
        return canonical_json(payload)

    @classmethod
    def from_json(cls, text: str) -> "EvalReport":
        """Read a report written by to_json; only REPORT_VERSION is read, any
        other version, or none, raises VersionUnsupported, and a score that
        is not a finite real number (a bool included) raises FormatError."""
        raw = json.loads(text)
        if not isinstance(raw, dict) or raw.get("format") != "acm-eval-report":
            raise PairingViolation("not an evaluation report")
        version = raw.get("version")
        if type(version) is not int or version != REPORT_VERSION:
            raise VersionUnsupported(f"evaluation report version {version!r} unsupported, "
                                     f"expected {REPORT_VERSION}")
        try:
            report = cls(
                dataset=raw["dataset"],
                subject=raw["subject"],
                pipeline=raw["pipeline"],
                eval_mode=raw["eval_mode"],
                seed=raw["seed"],
            )
            report.scores.extend(SplitScore(**s) for s in raw["scores"])
        except (KeyError, TypeError) as exc:
            raise FormatError(f"evaluation report has a missing or malformed field "
                              f"({type(exc).__name__}: {exc})") from exc
        for s in report.scores:
            if (isinstance(s.score, bool) or not isinstance(s.score, numbers.Real)
                    or not math.isfinite(s.score)):
                raise FormatError(f"evaluation report has a score that is not a finite "
                                  f"number: {s.score!r} (split {s.session}/{s.split})")
        return report

    def scores_csv_rows(self):
        yield ["session", "split", "score", "metric", "order", "lag", "svm_c", "svm_kernel"]
        for s in self.scores:
            yield [s.session, s.split, repr(s.score), s.metric, s.order, s.lag,
                   "" if s.svm_c is None else repr(s.svm_c),
                   "" if s.svm_kernel is None else s.svm_kernel]

    def timings_csv_rows(self):
        yield ["session", "split", "stage", "seconds"]
        for session, split, stage, seconds in self.timings:
            yield [session, split, stage, repr(seconds)]


def _ws_splits(epoch_set: EpochSet, folds: int, seed: int):
    """One split per (session, fold), in that order. Fold assignment and each
    split's inner-seed key derive from (seed, session, fold) alone."""
    splits, start = [], 0
    for s_idx, session in enumerate(epoch_set.sessions):
        labels = np.asarray(session.labels)
        for f_idx, (train_idx, test_idx) in enumerate(stratified_folds(
            labels, folds, SeedSequence(seed, (s_idx,)),
            where=f"session {session.session_id!r}",
        )):
            splits.append((session.session_id, f"fold{f_idx}", start + train_idx,
                           start + test_idx, (seed, s_idx, f_idx)))
        start += len(labels)
    return splits


def _cs_splits(epoch_set: EpochSet, seed: int):
    """One split per held-out session: train on every other session."""
    splits, start, n = [], 0, len(epoch_set.epochs)
    for s_idx, held_out in enumerate(epoch_set.sessions):
        stop = start + len(held_out.epochs)
        splits.append((held_out.session_id, f"holdout:{held_out.session_id}",
                       np.r_[0:start, stop:n], slice(start, stop), (seed, s_idx, 0)))
        start = stop
    return splits


def _score_split(epochs, labels, spec: PipelineSpec, split):
    """Select the parameters on the split's train rows, then fit on them and
    score its test rows; returns (SplitScore, timing rows, grid search result
    or None). The inner seed comes from the split's key only if spec.searches."""
    session_id, split_id, train, test, key = split
    start = perf_counter()
    seed = _derive_seed(*key) if spec.searches else None
    params, c, kernel, grid = select_params(spec, epochs[train], labels[train], seed)
    selected_at = perf_counter()
    ((value, metric),) = fold_scores(
        spec.kind, lambda rows: covariance_stack(epochs[rows], params, spec.shrink),
        labels, train, test, [(c, kernel)])
    score = SplitScore(session=session_id, split=split_id, score=value, metric=metric,
                       order=params.order, lag=params.lag, svm_c=c, svm_kernel=kernel)
    timings = [(session_id, split_id, "select", selected_at - start),
               (session_id, split_id, "fit_score", perf_counter() - selected_at)]
    return score, timings, grid


_worker_args = None  # (epochs, labels, spec) of the evaluation a pool worker serves


def _init_worker(*args) -> None:
    global _worker_args
    _worker_args = args


def _score_in_worker(split):
    return _score_split(*_worker_args, split)


def _run_splits(epoch_set: EpochSet, spec: PipelineSpec, splits, eval_mode: str,
                seed: int, dataset: str, workers: int) -> EvalReport:
    """Score every split into one report, in split order. A process pool
    runs them when workers > 1 and there is more than one split; each worker
    gets the subject's stack and the spec once, when it starts."""
    args = (*epoch_set.all_epochs(), spec)
    if workers > 1 and len(splits) > 1:
        # imported on use: the pool's modules cost every serial run about 2 MB
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(workers, len(splits)),
                                 initializer=_init_worker, initargs=args) as pool:
            results = list(pool.map(_score_in_worker, splits))
    else:
        results = [_score_split(*args, split) for split in splits]
    report = EvalReport(dataset, epoch_set.subject, spec.name, eval_mode, seed)
    for (session_id, split_id, *_), (score, timings, grid) in zip(splits, results):
        report.scores.append(score)
        report.timings.extend(timings)
        if grid is not None:
            report.grid_maps.append((session_id, split_id, grid))
    return report


def _check_run(seed, workers=1) -> None:
    """The one check of the run settings of the protocols and of
    meta_analysis: InvalidSetting unless seed is an integer >= 0 and workers
    one >= 1."""
    check_integer("seed", seed, 0)
    check_integer("workers", workers, 1)


def within_session_eval(
    epoch_set: EpochSet,
    spec: PipelineSpec,
    folds: int = 5,
    seed: int = 0,
    dataset: str = "default",
    workers: int = 1,
) -> EvalReport:
    """Stratified seeded k-fold CV inside every session; folds goes through
    classify.check_folds."""
    _check_run(seed, workers)
    return _run_splits(epoch_set, spec, _ws_splits(epoch_set, folds, seed), "ws",
                       seed, dataset, workers)


def cross_session_eval(
    epoch_set: EpochSet,
    spec: PipelineSpec,
    seed: int = 0,
    dataset: str = "default",
    workers: int = 1,
) -> EvalReport:
    """Leave-one-session-out: train on the other sessions, test the held-out
    one, rotating over sessions."""
    if len(epoch_set.sessions) < 2:
        raise SingleSession("cross-session evaluation needs at least 2 sessions")
    _check_run(seed, workers)
    return _run_splits(epoch_set, spec, _cs_splits(epoch_set, seed), "cs",
                       seed, dataset, workers)


def _derive_seed(seed: int, *key: int) -> int:
    """numpy's SeedSequence(seed, spawn_key=key).generate_state(1, uint64)[0]
    modulo 2^31: the inner seed of the split with that key."""
    low, high = SeedSequence(seed, key).generate_state(2)
    return (high << 32 | low) % 2 ** 31


# -- meta-analysis ---------------------------------------------------------

@dataclass(frozen=True)
class Hypothesis:
    """One directional comparison with its per-dataset and combined p."""

    better: str
    worse: str
    p_per_dataset: dict
    p_combined: float
    p_corrected: float
    smd: float

    def to_dict(self) -> dict:
        return {
            "hypothesis": f"{self.better} > {self.worse}",
            "p_raw": self.p_per_dataset,
            "p_combined": self.p_combined,
            "p_corrected": self.p_corrected,
            "smd": self.smd,
        }


@dataclass(frozen=True)
class MetaAnalysis:
    hypotheses: tuple
    n_hypotheses: int
    test_rule: str

    def to_json(self) -> str:
        payload = {
            "format": "acm-meta-analysis",
            "version": 1,
            "n_hypotheses": self.n_hypotheses,
            "test_rule": self.test_rule,
            "hypotheses": [h.to_dict() for h in self.hypotheses],
            "smd_kind": "cohens_d",
        }
        return canonical_json(payload)


def _subject_means(reports):
    """{dataset: {pipeline: {subject: mean score}}}, with pairing checks."""
    table = {}
    split_keys = {}
    for rep in reports:
        by_pipe = table.setdefault(rep.dataset, {})
        by_subject = by_pipe.setdefault(rep.pipeline, {})
        if rep.subject in by_subject:
            raise PairingViolation(
                f"duplicate report for dataset={rep.dataset!r} "
                f"pipeline={rep.pipeline!r} subject={rep.subject!r}"
            )
        by_subject[rep.subject] = rep.mean
        key = (rep.dataset, rep.subject)
        splits = tuple(sorted((s.session, s.split) for s in rep.scores))
        if key in split_keys and split_keys[key] != splits:
            raise PairingViolation(
                f"split structure differs between pipelines for {key}"
            )
        split_keys[key] = splits
    return table


def _paired_p_value(diffs: np.ndarray, n_subjects: int, seed: int) -> float:
    """One-tailed paired test per the subject-count rule; degenerate
    all-equal diffs carry no evidence and map to p = 0.5."""
    try:
        if n_subjects >= WILCOXON_MIN_SUBJECTS:
            return wilcoxon_signed_rank(diffs)
        return permutation_paired_t(diffs, n_perm=10_000, seed=seed)
    except (AllZeroDiffs, DegenerateVariance):
        return 0.5


def meta_analysis(reports, seed: int = 0) -> MetaAnalysis:
    """Pairwise one-tailed comparisons of every pipeline pair, combined over
    datasets with Stouffer (weights sqrt(n_subjects)) and Bonferroni
    corrected over hypotheses."""
    _check_run(seed)
    if len(reports) < 2:
        raise PairingViolation("need at least two reports")
    table = _subject_means(reports)
    pipelines = sorted({p for by_pipe in table.values() for p in by_pipe})
    if len(pipelines) < 2:
        raise PairingViolation("need at least two distinct pipelines to compare")
    for dataset, by_pipe in table.items():
        missing = [p for p in pipelines if p not in by_pipe]
        if missing:
            raise PairingViolation(f"dataset {dataset!r} lacks pipelines {missing}")
        subject_sets = {p: tuple(sorted(by_pipe[p])) for p in pipelines}
        if len(set(subject_sets.values())) != 1:
            raise PairingViolation(
                f"dataset {dataset!r} has unpaired subjects: {subject_sets}"
            )

    hypotheses = []
    pairs = [(a, b) for a in pipelines for b in pipelines if a != b]
    n_hyp = len(pairs)
    for better, worse in pairs:
        per_dataset = {}
        weights = []
        pooled = []
        for dataset in sorted(table):
            by_pipe = table[dataset]
            subjects = sorted(by_pipe[better])
            diffs = np.array(
                [by_pipe[better][s] - by_pipe[worse][s] for s in subjects]
            )
            per_dataset[dataset] = _paired_p_value(diffs, len(subjects), seed)
            weights.append(np.sqrt(len(subjects)))
            pooled.extend(diffs.tolist())
        # exhaustive tests can return exactly 1.0; clip so Stouffer stays finite
        clipped = [min(max(p, 1e-12), 1.0 - 1e-12) for p in per_dataset.values()]
        p_combined = stouffer_combine(clipped, weights)
        hypotheses.append(Hypothesis(
            better=better,
            worse=worse,
            p_per_dataset=per_dataset,
            p_combined=p_combined,
            p_corrected=bonferroni(p_combined, n_hyp),
            smd=cohens_d(np.array(pooled)),
        ))
    rule = (f"wilcoxon if subjects >= {WILCOXON_MIN_SUBJECTS} "
            f"else sign-flip permutation paired t")
    return MetaAnalysis(tuple(hypotheses), n_hyp, rule)


def canonical_json(payload) -> str:
    """report.json, meta.json and params.json: sorted keys, no spaces, one
    line; NaN or Inf raise ValueError."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      allow_nan=False) + "\n"


def write_csv(rows, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in rows:
            writer.writerow(row)


def grid_map_csv_rows(result):
    yield ["order", "lag", "param_id", "mean_score", "n_valid_folds"]
    for cell in result.cells:
        yield [cell.order, cell.lag, cell.param_id(),
               "" if cell.score is None else repr(cell.score),
               cell.n_valid_folds]
