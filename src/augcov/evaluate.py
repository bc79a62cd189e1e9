"""Evaluation protocols and the statistical meta-analysis layer.

Within-session evaluation is a seeded stratified 5-fold CV per session;
cross-session evaluation rotates a held-out session. Any grid search or
parameter estimation a pipeline performs is confined to the training split
of the fold at hand.

Report JSON is canonical and free of wall-times so reruns are byte
identical; timings travel separately and serialize to their own CSV.
"""

from __future__ import annotations

import csv
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from functools import partial

import numpy as np

from .classify import PipelineSpec, StageTimer, fit_pipeline, stratified_folds
from .data import EpochSet
from .errors import (
    AllZeroDiffs,
    DegenerateVariance,
    InvalidSetting,
    PairingViolation,
    SingleSession,
    TooFewSamples,
)
from .stats import (
    bonferroni,
    cohens_d,
    permutation_paired_t,
    stouffer_combine,
    wilcoxon_signed_rank,
)

WILCOXON_MIN_SUBJECTS = 20


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
            "version": 1,
            "dataset": self.dataset,
            "subject": self.subject,
            "pipeline": self.pipeline,
            "eval_mode": self.eval_mode,
            "seed": self.seed,
            "scores": [s.to_dict() for s in self.scores],
            "aggregate": {"mean": self.mean, "std": self.std},
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                          allow_nan=False) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "EvalReport":
        raw = json.loads(text)
        if raw.get("format") != "acm-eval-report":
            raise PairingViolation("not an evaluation report")
        report = cls(
            dataset=raw["dataset"],
            subject=raw["subject"],
            pipeline=raw["pipeline"],
            eval_mode=raw["eval_mode"],
            seed=raw["seed"],
        )
        report.scores.extend(SplitScore(**s) for s in raw["scores"])
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


def _score_one_split(spec, train_epochs, train_labels, test_epochs, test_labels,
                     seed, session_id, split_id, report):
    timer = StageTimer()
    fitted = fit_pipeline(spec, train_epochs, train_labels, seed=seed, timer=timer)
    value, metric = fitted.score(test_epochs, test_labels, timer=timer)
    report.scores.append(SplitScore(
        session=session_id,
        split=split_id,
        score=value,
        metric=metric,
        order=fitted.params.order,
        lag=fitted.params.lag,
        svm_c=fitted.chosen_c if spec.uses_svm else None,
        svm_kernel=fitted.chosen_kernel if spec.uses_svm else None,
    ))
    for stage, seconds in sorted(timer.seconds.items()):
        report.timings.append((session_id, split_id, stage, seconds))
    if fitted.grid_result is not None:
        report.grid_maps.append((session_id, split_id, fitted.grid_result))


def eval_session_ws(
    epoch_set: EpochSet,
    s_idx: int,
    spec: PipelineSpec,
    folds: int,
    seed: int,
    dataset: str,
) -> EvalReport:
    """Stratified seeded k-fold CV on session s_idx alone; a partial report.

    Fold assignment and all inner seeds derive from (seed, s_idx, fold), so
    the result is independent of how sessions are distributed over workers.
    """
    session = epoch_set.sessions[s_idx]
    report = EvalReport(dataset, epoch_set.subject, spec.name, "ws", seed)
    labels = np.asarray(session.labels)
    counts = {c: int(np.sum(labels == c)) for c in sorted(set(labels.tolist()))}
    if min(counts.values()) < folds:
        raise TooFewSamples(
            f"session {session.session_id!r} needs >= {folds} samples per "
            f"class for {folds}-fold CV, got {counts}"
        )
    rng = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(entropy=seed, spawn_key=(s_idx,))
    ))
    for f_idx, (train_idx, test_idx) in enumerate(
        stratified_folds(labels, folds, rng)
    ):
        inner_seed = _derive_seed(seed, s_idx, f_idx)
        _score_one_split(
            spec,
            session.epochs[train_idx], labels[train_idx],
            session.epochs[test_idx], labels[test_idx],
            inner_seed, session.session_id, f"fold{f_idx}", report,
        )
    return report


def eval_holdout_cs(
    epoch_set: EpochSet,
    s_idx: int,
    spec: PipelineSpec,
    seed: int,
    dataset: str,
) -> EvalReport:
    """Train on every session except s_idx, test on s_idx; a partial report."""
    held_out = epoch_set.sessions[s_idx]
    report = EvalReport(dataset, epoch_set.subject, spec.name, "cs", seed)
    epochs, labels = epoch_set.all_epochs()
    start = sum(len(s.epochs) for s in epoch_set.sessions[:s_idx])
    stop, n = start + len(held_out.epochs), len(epochs)
    # holding out the first or last session trains on a view of the set's
    # one stack; otherwise the sessions on both sides are copied once
    train = slice(stop, n) if start == 0 else slice(0, start)
    if 0 < start and stop < n:
        train = np.r_[0:start, stop:n]
    inner_seed = _derive_seed(seed, s_idx, 0)
    _score_one_split(
        spec,
        epochs[train], labels[train],
        held_out.epochs, np.asarray(held_out.labels),
        inner_seed, held_out.session_id, f"holdout:{held_out.session_id}", report,
    )
    return report


def merge_reports(partials) -> EvalReport:
    """Concatenate partial reports from one evaluation, in the given order."""
    partials = list(partials)
    first = partials[0]
    merged = EvalReport(first.dataset, first.subject, first.pipeline,
                        first.eval_mode, first.seed)
    for part in partials:
        merged.scores.extend(part.scores)
        merged.timings.extend(part.timings)
        merged.grid_maps.extend(part.grid_maps)
    return merged


def _check_workers(workers) -> None:
    if not isinstance(workers, (int, np.integer)) or workers < 1:
        raise InvalidSetting(f"workers must be an integer >= 1, got {workers!r}")


def _map_sessions(unit, n_sessions: int, workers: int) -> EvalReport:
    """unit(s_idx) for every session, merged in session order. A process
    pool runs them when workers > 1 and there is more than one session."""
    if workers > 1 and n_sessions > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return merge_reports(pool.map(unit, range(n_sessions)))
    return merge_reports(unit(s_idx) for s_idx in range(n_sessions))


def within_session_eval(
    epoch_set: EpochSet,
    spec: PipelineSpec,
    folds: int = 5,
    seed: int = 0,
    dataset: str = "default",
    workers: int = 1,
) -> EvalReport:
    """Stratified seeded k-fold CV inside every session."""
    if folds < 2:
        raise InvalidSetting(f"within-session CV needs >= 2 folds, got {folds}")
    _check_workers(workers)
    unit = partial(eval_session_ws, epoch_set, spec=spec, folds=folds, seed=seed,
                   dataset=dataset)
    return _map_sessions(unit, len(epoch_set.sessions), workers)


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
    _check_workers(workers)
    unit = partial(eval_holdout_cs, epoch_set, spec=spec, seed=seed, dataset=dataset)
    return _map_sessions(unit, len(epoch_set.sessions), workers)


def _derive_seed(seed: int, *key: int) -> int:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(key))
    return int(ss.generate_state(1, dtype=np.uint64)[0] % (2 ** 31))


def timing_summary(report: EvalReport):
    """Per-stage mean/std/min/max over a report's splits, as CSV-ready rows."""
    by_stage = {}
    for _, _, stage, seconds in report.timings:
        by_stage.setdefault(stage, []).append(seconds)
    yield ["stage", "n", "mean_s", "std_s", "min_s", "max_s"]
    for stage in sorted(by_stage):
        vals = np.asarray(by_stage[stage])
        yield [stage, vals.size, repr(float(vals.mean())), repr(float(vals.std())),
               repr(float(vals.min())), repr(float(vals.max()))]


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
        return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                          allow_nan=False) + "\n"


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
        by_subject[rep.subject] = float(np.mean([s.score for s in rep.scores]))
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
            return wilcoxon_signed_rank(diffs, alternative="greater")
        return permutation_paired_t(diffs, n_perm=10_000, seed=seed,
                                    alternative="greater")
    except (AllZeroDiffs, DegenerateVariance):
        return 0.5


def meta_analysis(reports, seed: int = 0) -> MetaAnalysis:
    """Pairwise one-tailed comparisons of every pipeline pair, combined over
    datasets with Stouffer (weights sqrt(n_subjects)) and Bonferroni
    corrected over hypotheses."""
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
