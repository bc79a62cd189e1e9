import json
import multiprocessing
import os
import re

import numpy as np
import pytest

from augcov import classify, covariance, data, embedding, evaluate, spd
from augcov.classify import PipelineSpec
from augcov.covariance import Epoch
from augcov.data import ArSpec, EpochSet, Session, generate_ar_dataset
from augcov.errors import (
    InvalidSetting,
    NoConvergence,
    PairingViolation,
    SingleSession,
    TooFewSamples,
    VersionUnsupported,
)
from augcov.evaluate import (
    EvalReport,
    cross_session_eval,
    meta_analysis,
    within_session_eval,
)


def separable_set(seed=0, epochs_per_class=15, t=128, n_sessions=1, gap=4.0):
    """Two classes with very different covariance scale: trivially separable."""
    return generate_ar_dataset(ArSpec(
        coefficients=[[], []],
        innovations=[np.eye(2), gap * np.eye(2)],
        lag=1,
        n_samples=t,
        epochs_per_class=epochs_per_class,
        seed=seed,
        n_sessions=n_sessions,
    ))


def null_set(seed=0, epochs_per_class=15, t=128, n_sessions=1):
    """Both classes drawn from the same distribution."""
    return generate_ar_dataset(ArSpec(
        coefficients=[[], []],
        innovations=[np.eye(2), np.eye(2)],
        lag=1,
        n_samples=t,
        epochs_per_class=epochs_per_class,
        seed=seed,
        n_sessions=n_sessions,
    ))


MDM = PipelineSpec(kind="MDM")


class TestWithinSession:
    def test_shape_contract(self):
        report = within_session_eval(separable_set(), MDM, folds=5, seed=0)
        assert len(report.scores) == 5
        for s in report.scores:
            assert s.metric == "auc"
            assert 0.0 <= s.score <= 1.0
            assert s.split.startswith("fold")

    def test_null_distribution_centered(self):
        aucs = []
        for seed in range(20):
            report = within_session_eval(null_set(seed=seed), MDM, folds=5, seed=seed)
            aucs.append(report.mean)
        assert 0.35 <= np.mean(aucs) <= 0.65

    def test_separable_near_perfect(self):
        report = within_session_eval(separable_set(seed=3), MDM, folds=5, seed=1)
        assert report.mean >= 0.99

    def test_too_few_samples(self):
        small = separable_set(epochs_per_class=3)
        with pytest.raises(TooFewSamples):
            within_session_eval(small, MDM, folds=5, seed=0)

    def test_multiclass_reports_accuracy(self):
        epoch_set = generate_ar_dataset(ArSpec(
            coefficients=[[], [], []],
            innovations=[np.eye(2), 4.0 * np.eye(2), 9.0 * np.eye(2)],
            lag=1, n_samples=128, epochs_per_class=10, seed=5,
        ))
        report = within_session_eval(epoch_set, MDM, folds=5, seed=0)
        assert all(s.metric == "accuracy" for s in report.scores)
        assert report.mean > 0.9

    def test_deterministic_given_seed(self):
        a = within_session_eval(separable_set(seed=4), MDM, folds=5, seed=9)
        b = within_session_eval(separable_set(seed=4), MDM, folds=5, seed=9)
        assert a.to_json() == b.to_json()

    def test_pinned_svm_grid(self):
        """A fixed-seed ACM+TANG+SVM grid run: any change to the SMO iterates
        that moves a chosen cell or a fold's score shows here."""
        epoch_set = generate_ar_dataset(ArSpec(
            coefficients=[[], [[[0.0, -0.2], [0.2, 0.0]]]],
            innovations=[np.eye(2), 0.96 * np.eye(2)],
            lag=1, n_samples=64, epochs_per_class=15, seed=11,
        ))
        spec = PipelineSpec(kind="ACM+TANG+SVM", param_source="grid",
                            grid_orders=(1, 2), grid_lags=(1, 2), inner_folds=3)
        report = within_session_eval(epoch_set, spec, folds=3, seed=5)
        assert [(s.score, s.order, s.lag, s.svm_c, s.svm_kernel) for s in report.scores] == [
            (0.56, 2, 2, 0.5, "rbf"),
            (0.8, 2, 1, 1.5, "rbf"),
            (0.44, 1, 1, 0.5, "linear"),
        ]


def test_block_size_never_reaches_reports(monkeypatch):
    """The SPD kernel's block budget changes memory, never results: a
    cross-session ACM+MDM run and a within-session ACM+TANG+SVM grid give
    the same report text and grid maps with one matrix per block as with
    the default budget."""
    epoch_set = generate_ar_dataset(ArSpec(
        coefficients=[[], [[[0.0, -0.3], [0.3, 0.0]]]],
        innovations=[np.eye(2), 0.91 * np.eye(2)],
        lag=1, n_samples=96, epochs_per_class=12, seed=4, n_sessions=2,
    ))
    mdm = PipelineSpec(kind="ACM+MDM", order=4, lag=2)
    grid = PipelineSpec(kind="ACM+TANG+SVM", param_source="grid",
                        grid_orders=(1, 3), grid_lags=(1, 2), inner_folds=3)

    def outputs():
        cs = cross_session_eval(epoch_set, mdm, seed=1)
        ws = within_session_eval(epoch_set, grid, folds=3, seed=2)
        maps = [list(evaluate.grid_map_csv_rows(result)) for *_, result in ws.grid_maps]
        return cs.to_json(), ws.to_json(), maps

    default = outputs()
    assert default[2]  # the grid wrote its maps
    monkeypatch.setattr(spd, "SPD_BLOCK_BYTES", 1)
    assert outputs() == default


class TestCrossSession:
    def test_requires_two_sessions(self):
        with pytest.raises(SingleSession):
            cross_session_eval(separable_set(n_sessions=1), MDM, seed=0)

    def test_rotation_count(self):
        report = cross_session_eval(separable_set(n_sessions=3), MDM, seed=0)
        assert len(report.scores) == 3
        held_out = {s.session for s in report.scores}
        assert held_out == {"session0", "session1", "session2"}

    def test_identical_sessions_score_like_training_fit(self):
        base = separable_set(n_sessions=1)
        twin = EpochSet(
            base.subject,
            [
                Session("a", base.sessions[0].epochs, base.sessions[0].labels),
                Session("b", base.sessions[0].epochs, base.sessions[0].labels),
            ],
            base.class_names,
        )
        report = cross_session_eval(twin, MDM, seed=0)
        assert report.mean >= 0.99  # training twin is perfectly exchangeable

    def test_distribution_shift_hurts_cross_session(self):
        wins = 0
        for seed in range(20):
            sessions = []
            for s_idx, scale in enumerate((1.0, 2.5)):
                rng = np.random.default_rng((seed, s_idx))
                epochs, labels = [], []
                for cls, cls_scale in enumerate((1.0, 1.8)):
                    for _ in range(12):
                        data = np.sqrt(cls_scale * scale) * rng.standard_normal((2, 96))
                        epochs.append(Epoch(data, 250.0))
                        labels.append(cls)
                sessions.append(Session(f"s{s_idx}", epochs, labels))
            epoch_set = EpochSet("subj", sessions, ["a", "b"])
            ws = within_session_eval(epoch_set, MDM, folds=4, seed=seed).mean
            cs = cross_session_eval(epoch_set, MDM, seed=seed).mean
            if cs < ws:
                wins += 1
        assert wins >= 11  # constructed shift hurts CS for the seed majority


class TestCrossSessionTraining:
    def test_training_rows_are_every_other_session(self):
        """Every split trains on the row indices of the other sessions, in
        set order, and tests on its held-out session's slice."""
        epoch_set = separable_set(n_sessions=3, epochs_per_class=4)
        whole, labels = epoch_set.all_epochs()
        splits = evaluate._cs_splits(epoch_set, seed=0)
        assert [s[:2] for s in splits] == [(f"session{i}", f"holdout:session{i}")
                                           for i in range(3)]
        for s_idx, (_, _, train, test, _) in enumerate(splits):
            keep = [i for i in range(24) if not 8 * s_idx <= i < 8 * (s_idx + 1)]
            assert train.tolist() == keep
            assert np.array_equal(whole[train].values, whole.values[keep])
            assert labels[train].tolist() == labels[keep].tolist()
            held_out = epoch_set.sessions[s_idx]
            assert np.array_equal(whole[test].values, held_out.epochs.values)
            assert labels[test].tolist() == held_out.labels


class TestSplitRunner:
    def test_stack_is_not_pickled_per_task(self, monkeypatch):
        epoch_set = separable_set(n_sessions=3, epochs_per_class=6)
        calls = []
        for cls in (data.EpochSet, covariance.EpochStack):
            reduce = cls.__reduce__
            monkeypatch.setattr(cls, "__reduce__",
                                lambda self, reduce=reduce: calls.append(1) or reduce(self))
        pooled = within_session_eval(epoch_set, MDM, folds=3, seed=2, workers=2)
        assert len(calls) <= 2  # at most once per worker; none when workers fork
        if multiprocessing.get_start_method() == "fork":
            assert calls == []
        assert pooled.to_json() == within_session_eval(epoch_set, MDM, folds=3,
                                                       seed=2).to_json()

    def test_numerical_failure_crosses_the_pool(self, monkeypatch):
        def no_convergence(covs, *args, **kwargs):
            raise NoConvergence(None, 1.5)

        monkeypatch.setattr(classify, "frechet_mean", no_convergence)
        with pytest.raises(NoConvergence, match="residual 1.500e"):
            within_session_eval(separable_set(), MDM, folds=3, seed=0, workers=2)

    def test_too_few_samples_is_found_before_fitting(self, monkeypatch):
        big, small = (separable_set(epochs_per_class=n).sessions[0] for n in (6, 2))
        epoch_set = EpochSet("subj", [Session("big", big.epochs, big.labels),
                                      Session("small", small.epochs, small.labels)],
                             ["a", "b"])

        def select_params(*args, **kwargs):
            raise AssertionError("a split was fitted before every session was checked")

        monkeypatch.setattr(evaluate, "select_params", select_params)
        with pytest.raises(TooFewSamples, match="'small'"):
            within_session_eval(epoch_set, MDM, folds=3, seed=0)


def test_no_split_copies_an_epoch_to_build_a_covariance(monkeypatch, tmp_path):
    """Splits, outer folds and inner folds are views. In a ws ACM+MDM fixed
    run, a ws ACM+TANG+SVM 2 x 2 grid run (inner CV included) and a cs
    ACM+MDM fixed run on three sessions (each trains on an index array),
    every epoch a covariance reads shares memory with the set's one array,
    no stack's epoch values are copied out, and packed rows are copied only
    one walk block at a time: covariance_stack builds the only new rows. A
    view of a container file reads nothing before epoch(r) is asked for,
    and a cs run from the file reads each epoch once per split."""
    copies, epochs_read = [], []
    read, epoch = spd.RowView._read, covariance.EpochStack.epoch

    def counted_read(self):
        out = read(self)
        walk_block = isinstance(self, spd.SpdStack) and len(self) <= spd.block_rows(self.dim)
        if len(out) and not np.shares_memory(out, self._base) and not walk_block:
            copies.append((type(self).__name__, len(self)))
        return out

    def counted_epoch(self, r):
        out = epoch(self, r)
        epochs_read.append((self._base, out))
        return out

    monkeypatch.setattr(spd.RowView, "_read", counted_read)
    monkeypatch.setattr(covariance.EpochStack, "epoch", counted_epoch)
    fixed = PipelineSpec(kind="ACM+MDM", param_source="fixed", order=2, lag=1)
    grid = PipelineSpec(kind="ACM+TANG+SVM", param_source="grid", grid_orders=(1, 2),
                        grid_lags=(1, 2), inner_folds=2)
    two = separable_set(n_sessions=2, epochs_per_class=6)
    three = separable_set(n_sessions=3, epochs_per_class=6)
    within_session_eval(two, fixed, folds=3, seed=0)
    report = within_session_eval(two, grid, folds=3, seed=0)
    assert len(report.grid_maps) == 6
    report = cross_session_eval(three, fixed, seed=0)
    assert len(report.scores) == 3
    assert copies == []
    wholes = [two.epochs.values, three.epochs.values]
    assert epochs_read and all(any(base is whole for whole in wholes)
                               and np.shares_memory(out, base) for base, out in epochs_read)

    preads, pread = [], os.pread
    monkeypatch.setattr(os, "pread", lambda *args: preads.append(args[2]) or pread(*args))
    data.write_epochset(three, tmp_path / "set.acm")
    loaded = data.read_epochset(tmp_path / "set.acm")
    preads.clear()
    view = loaded.sessions[1].epochs[np.array([5, 0, 5])][1:]
    assert preads == [] and len(view) == 2
    assert np.array_equal(view.epoch(1), three.epochs.values[17])
    assert len(preads) == 1
    preads.clear()
    assert cross_session_eval(loaded, fixed, seed=0).to_json() == report.to_json()
    assert len(preads) == 3 * len(loaded.epochs) and copies == []


def test_only_a_split_that_searches_derives_its_seed(monkeypatch):
    """A split's inner seed is the int it has always been,
    SeedSequence(seed, spawn_key=(session, fold)) drawn once modulo 2^31, and
    a cs and a ws grid hand it to grid_search split by split. Fixed and
    estimated parameters with no SVM search derive no seed at all."""
    searched, derived = [], []
    grid_search, derive_seed = classify.grid_search, evaluate._derive_seed
    monkeypatch.setattr(classify, "grid_search", lambda *args, seed, **kwargs: (
        searched.append(seed) or grid_search(*args, seed=seed, **kwargs)))
    monkeypatch.setattr(evaluate, "_derive_seed", lambda *key: (
        derived.append(key) or derive_seed(*key)))

    def seed_of(seed, s_idx, f_idx):
        state = np.random.SeedSequence(entropy=seed, spawn_key=(s_idx, f_idx)).generate_state(
            1, dtype=np.uint64)
        return int(state[0] % 2 ** 31)

    epoch_set = separable_set(n_sessions=2, epochs_per_class=9)
    grid = PipelineSpec(kind="ACM+MDM", param_source="grid", grid_orders=(1, 2),
                        grid_lags=(1,), inner_folds=3)
    cross_session_eval(epoch_set, grid, seed=5)
    assert searched == [seed_of(5, s_idx, 0) for s_idx in range(2)]
    searched.clear()
    within_session_eval(epoch_set, grid, folds=3, seed=7)
    assert searched == [seed_of(7, s_idx, f_idx) for s_idx in range(2) for f_idx in range(3)]
    derived.clear()
    for spec in (MDM, PipelineSpec(kind="ACM+MDM", order=2, lag=1),
                 PipelineSpec(kind="ACM+MDM", param_source="mdop")):
        cross_session_eval(epoch_set, spec, seed=5)
        within_session_eval(epoch_set, spec, folds=3, seed=7)
    assert derived == []


class TestTimingProfile:
    def test_one_select_and_one_fit_score_row_per_split(self):
        report = within_session_eval(separable_set(n_sessions=2), MDM, folds=3, seed=0)
        splits = [(s.session, s.split) for s in report.scores]
        assert len(splits) == 6
        assert [row[:3] for row in report.timings] == [
            (*split, stage) for split in splits for stage in ("select", "fit_score")]
        assert all(row[3] >= 0.0 for row in report.timings)


def report_from_scores(pipeline, subject, values, dataset="ds"):
    report = EvalReport(dataset, subject, pipeline, "ws", 0)
    from augcov.evaluate import SplitScore

    for i, v in enumerate(values):
        report.scores.append(SplitScore(
            session="s0", split=f"fold{i}", score=v, metric="auc",
            order=1, lag=1, svm_c=None, svm_kernel=None,
        ))
    return report


class TestMetaAnalysis:
    def test_identical_reports_p_half_smd_zero(self):
        reports = []
        for subject in "abcdef":
            vals = list(np.random.default_rng(ord(subject)).uniform(0.6, 0.9, 5))
            reports.append(report_from_scores("P1", subject, vals))
            reports.append(report_from_scores("P2", subject, vals))
        meta = meta_analysis(reports, seed=0)
        for hyp in meta.hypotheses:
            assert hyp.p_combined == pytest.approx(0.5, abs=1e-9)
            assert hyp.smd == 0.0

    def test_strictly_better_pipeline_exact_wilcoxon_value(self):
        reports = []
        for i, subject in enumerate("abcdef"):
            base = 0.70 + 0.01 * i
            reports.append(report_from_scores("good", subject, [base + 0.03 + 0.005 * i]))
            reports.append(report_from_scores("base", subject, [base]))
        meta = meta_analysis(reports, seed=0)
        better = next(h for h in meta.hypotheses
                      if h.better == "good" and h.worse == "base")
        # 6 subjects, exhaustive sign-flip: all-positive diffs hit 1/64
        assert better.p_per_dataset["ds"] == pytest.approx(1 / 64)
        assert better.p_corrected == pytest.approx(
            min(1.0, 2 * better.p_combined), abs=1e-12
        )
        worse = next(h for h in meta.hypotheses
                     if h.better == "base" and h.worse == "good")
        assert worse.p_per_dataset["ds"] == pytest.approx(1.0)

    def test_pairing_violation_on_subject_mismatch(self):
        reports = [
            report_from_scores("P1", "alice", [0.7]),
            report_from_scores("P2", "bob", [0.7]),
        ]
        with pytest.raises(PairingViolation):
            meta_analysis(reports, seed=0)

    def test_pairing_violation_on_duplicate(self):
        reports = [
            report_from_scores("P1", "alice", [0.7]),
            report_from_scores("P1", "alice", [0.8]),
            report_from_scores("P2", "alice", [0.7]),
        ]
        with pytest.raises(PairingViolation):
            meta_analysis(reports, seed=0)

    def test_stouffer_across_datasets(self):
        reports = []
        for d_idx, dataset in enumerate(("d1", "d2")):
            for i, subject in enumerate("abcdef"):
                base = 0.70 + 0.01 * i
                gain = 0.03 + 0.004 * i + 0.002 * d_idx
                reports.append(report_from_scores("good", subject, [base + gain],
                                                  dataset=dataset))
                reports.append(report_from_scores("base", subject, [base],
                                                  dataset=dataset))
        meta = meta_analysis(reports, seed=0)
        better = next(h for h in meta.hypotheses
                      if h.better == "good" and h.worse == "base")
        assert set(better.p_per_dataset) == {"d1", "d2"}
        assert better.p_combined < better.p_per_dataset["d1"]

    def test_report_json_round_trip(self):
        report = report_from_scores("P1", "alice", [0.7, 0.8])
        assert json.loads(report.to_json())["version"] == 1
        clone = EvalReport.from_json(report.to_json())
        assert clone.to_json() == report.to_json()

    @pytest.mark.parametrize("version", [99, None, True, 1.0, "1"])
    def test_report_of_another_version_is_refused(self, version):
        raw = json.loads(report_from_scores("P1", "alice", [0.7]).to_json())
        raw["version"] = version
        if version is None:
            del raw["version"]
        with pytest.raises(VersionUnsupported,
                           match=re.escape(f"version {version!r} unsupported, expected 1")):
            EvalReport.from_json(json.dumps(raw))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # mean and std of no splits
    def test_nan_is_never_serialised(self):
        with pytest.raises(ValueError):
            report_from_scores("P1", "alice", [0.7, float("nan")]).to_json()
        with pytest.raises(ValueError):
            EvalReport("ds", "alice", "P1", "ws", 0).to_json()  # mean of no splits
        meta = meta_analysis([report_from_scores(p, s, [0.5 + 0.1 * i])
                              for i, s in enumerate("abc") for p in ("P1", "P2")])
        hyp = meta.hypotheses[0]
        broken = type(meta)((type(hyp)(hyp.better, hyp.worse, hyp.p_per_dataset,
                                       float("nan"), hyp.p_corrected, hyp.smd),),
                            meta.n_hypotheses, meta.test_rule)
        with pytest.raises(ValueError):
            broken.to_json()


class TestSettingsBoundary:
    @pytest.mark.parametrize("bad", [
        {"inner_folds": 1}, {"inner_folds": 2.5}, {"svm_c": 0.0}, {"svm_c": -1.0},
        {"svm_c": float("nan")}, {"svm_c": float("inf")}, {"grid_orders": ()},
        {"grid_lags": ()}, {"kind": "LDA"}, {"svm_kernel": "poly"},
    ])
    def test_spec_rejects(self, bad):
        with pytest.raises(InvalidSetting):
            PipelineSpec(**{"kind": "TANG+SVM", **bad})

    @pytest.mark.parametrize("folds", [-1, 0, 1, 2.5])
    def test_within_session_rejects_too_few_folds(self, folds):
        with pytest.raises(InvalidSetting, match="folds must be an integer >= 2"):
            within_session_eval(separable_set(), MDM, folds=folds, seed=0)

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_rejects_seed_below_zero(self, seed):
        with pytest.raises(InvalidSetting, match="seed must be an integer >= 0"):
            within_session_eval(separable_set(), MDM, seed=seed)
        with pytest.raises(InvalidSetting, match="seed must be an integer >= 0"):
            cross_session_eval(separable_set(n_sessions=2), MDM, seed=seed)
        reports = [report_from_scores(p, s, [0.5 + 0.1 * i])
                   for i, s in enumerate("abc") for p in ("P1", "P2")]
        with pytest.raises(InvalidSetting, match="seed must be an integer >= 0"):
            meta_analysis(reports, seed=seed)

    @pytest.mark.parametrize("workers", [0, -3, 1.5])
    def test_rejects_workers_below_one(self, workers):
        with pytest.raises(InvalidSetting, match="workers must be an integer >= 1"):
            within_session_eval(separable_set(), MDM, seed=0, workers=workers)
        with pytest.raises(InvalidSetting, match="workers must be an integer >= 1"):
            cross_session_eval(separable_set(n_sessions=2), MDM, seed=0, workers=workers)

    def test_two_folds_are_valid(self):
        report = within_session_eval(separable_set(), PipelineSpec(kind="MDM", inner_folds=2),
                                     folds=2, seed=0)
        assert len(report.scores) == 2

    @pytest.mark.parametrize("name, call", [
        pytest.param("order", lambda: PipelineSpec("ACM+MDM", order=True), id="spec-order"),
        pytest.param("lag", lambda: PipelineSpec("ACM+MDM", lag=True), id="spec-lag"),
        pytest.param("order", lambda: PipelineSpec("ACM+MDM", param_source="grid",
                                                   grid_orders=(1, True)), id="spec-grid"),
        pytest.param("inner_folds", lambda: PipelineSpec("MDM", inner_folds=True),
                     id="spec-inner-folds"),
        pytest.param("max_lag", lambda: embedding.estimate(
            separable_set().sessions[0].epochs, "mdop", max_lag=True), id="estimate-max-lag"),
        pytest.param("max_dim", lambda: embedding.estimate(
            separable_set().sessions[0].epochs, "ami_cao", max_dim=np.True_),
            id="estimate-max-dim"),
        pytest.param("seed", lambda: within_session_eval(separable_set(), MDM, seed=False),
                     id="ws-seed"),
        pytest.param("workers", lambda: within_session_eval(separable_set(), MDM, seed=0,
                                                            workers=True), id="ws-workers"),
        pytest.param("folds", lambda: within_session_eval(separable_set(), MDM, folds=True,
                                                          seed=0), id="ws-folds"),
    ])
    def test_a_bool_is_not_an_integer_setting(self, name, call):
        """True and False would act as 1 and 0: every integer setting rejects
        them, at the spec, the estimators and the protocols."""
        with pytest.raises(InvalidSetting, match=f"{name} must be an integer >= \\d, got"):
            call()


class TestWorkOrderSweep:
    def test_eigendecomposition_work_grows_with_order(self, monkeypatch):
        """Fit plus scoring of ACM+MDM (fold_scores, training and scoring on
        every row) does more work at every higher order, counted as n * k^3
        summed over the stacked eigh and eigvalsh calls on n matrices of
        dimension k: a count, so host speed cannot move it."""
        from augcov.classify import fold_scores
        from augcov.covariance import AugmentedParams, covariance_stack

        work = [0]

        def counted(decompose):
            def wrapper(a, *args, **kwargs):
                k = np.shape(a)[-1]
                work[0] += np.size(a) // k ** 2 * k ** 3
                return decompose(a, *args, **kwargs)
            return wrapper

        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, counted(getattr(np.linalg, name)))
        epochs, labels = separable_set(seed=8, epochs_per_class=20, t=256).all_epochs()
        totals = []
        for order in range(1, 7):
            work[0] = 0
            params, rows = AugmentedParams(order, 1), np.arange(len(epochs))
            fold_scores("ACM+MDM", lambda r: covariance_stack(epochs[r], params),
                        labels, rows, rows, [(None, None)])
            totals.append(work[0])
        assert all(b > a for a, b in zip(totals, totals[1:])), totals


class TestMultiClassSvmPipeline:
    def test_three_class_tangent_svm_ws(self):
        epoch_set = generate_ar_dataset(ArSpec(
            coefficients=[[], [], []],
            innovations=[np.eye(2), 4.0 * np.eye(2), 9.0 * np.eye(2)],
            lag=1, n_samples=128, epochs_per_class=10, seed=61,
        ))
        spec = PipelineSpec(kind="TANG+SVM", param_source="fixed",
                            svm_c=1.0, svm_kernel="linear")
        report = within_session_eval(epoch_set, spec, folds=5, seed=2)
        assert all(s.metric == "accuracy" for s in report.scores)
        assert report.mean > 0.7  # well above the 1/3 chance level

    def test_three_class_acm_tangent_svm(self):
        epoch_set = generate_ar_dataset(ArSpec(
            coefficients=[[], [], []],
            innovations=[np.eye(2), 4.0 * np.eye(2), 9.0 * np.eye(2)],
            lag=1, n_samples=128, epochs_per_class=10, seed=62,
        ))
        spec = PipelineSpec(kind="ACM+TANG+SVM", param_source="fixed",
                            order=2, lag=1)
        report = within_session_eval(epoch_set, spec, folds=5, seed=3)
        assert all(s.metric == "accuracy" for s in report.scores)
        assert report.mean > 0.85
