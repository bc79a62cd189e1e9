import numpy as np
import pytest

from augcov.classify import PipelineSpec
from augcov.covariance import Epoch
from augcov.data import ArSpec, EpochSet, Session, generate_ar_dataset
from augcov.errors import InvalidSetting, PairingViolation, SingleSession, TooFewSamples
from augcov.evaluate import (
    EvalReport,
    cross_session_eval,
    meta_analysis,
    timing_profile,
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


class TestTimingProfile:
    def test_stages_recorded(self):
        epoch_set = separable_set()
        epochs, labels = epoch_set.all_epochs()

        def run(timer):
            from augcov.classify import fit_pipeline

            fitted = fit_pipeline(MDM, epochs, labels, seed=0, timer=timer)
            fitted.predict(epochs, timer=timer)
            return fitted

        _, seconds = timing_profile(run)
        assert set(seconds) == {"covariance", "fit", "predict"}
        assert all(v >= 0.0 for v in seconds.values())


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
        clone = EvalReport.from_json(report.to_json())
        assert clone.to_json() == report.to_json()

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
        {"inner_folds": 1}, {"svm_c": 0.0}, {"svm_c": -1.0}, {"svm_c": float("nan")},
        {"svm_c": float("inf")}, {"grid_c": (1.0, -0.5)}, {"grid_orders": ()},
        {"grid_lags": ()}, {"grid_kernels": ()}, {"kind": "LDA"},
    ])
    def test_spec_rejects(self, bad):
        with pytest.raises(InvalidSetting):
            PipelineSpec(**{"kind": "TANG+SVM", **bad})

    @pytest.mark.parametrize("folds", [-1, 0, 1])
    def test_within_session_rejects_too_few_folds(self, folds):
        with pytest.raises(InvalidSetting):
            within_session_eval(separable_set(), MDM, folds=folds, seed=0)

    def test_two_folds_are_valid(self):
        report = within_session_eval(separable_set(), PipelineSpec(kind="MDM", inner_folds=2),
                                     folds=2, seed=0)
        assert len(report.scores) == 2


class TestTimingOrderSweep:
    def test_total_time_grows_with_order(self):
        from time import perf_counter

        from augcov.classify import fit_pipeline
        epoch_set = separable_set(seed=8, epochs_per_class=20, t=256)
        epochs, labels = epoch_set.all_epochs()
        # minimum of 3 sweeps: host speed drifts between seconds, and the
        # fastest repeat is the one least slowed by it
        totals = [np.inf] * 6
        for _ in range(3):
            for i, order in enumerate(range(1, 7)):
                spec = PipelineSpec(kind="ACM+MDM", param_source="fixed",
                                    order=order, lag=1)
                start = perf_counter()
                fitted = fit_pipeline(spec, epochs, labels, seed=0)
                fitted.predict(epochs)
                totals[i] = min(totals[i], perf_counter() - start)
        increases = sum(b >= a for a, b in zip(totals, totals[1:]))
        assert increases >= 4


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


def test_timing_summary_rows():
    from augcov.evaluate import timing_summary

    epoch_set = separable_set(seed=9)
    report = within_session_eval(epoch_set, MDM, folds=5, seed=0)
    rows = list(timing_summary(report))
    assert rows[0] == ["stage", "n", "mean_s", "std_s", "min_s", "max_s"]
    stages = {r[0] for r in rows[1:]}
    assert stages == {"covariance", "fit", "predict"}
    for row in rows[1:]:
        assert row[1] == 5  # one measurement per fold
