import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import augcov
from augcov.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def ar_spec_json(tmp_path, seed=0, epochs_per_class=12, t=96, n_sessions=1, separable=True):
    if separable:
        innovations = [[[1.0, 0.0], [0.0, 1.0]], [[5.0, 0.0], [0.0, 5.0]]]
    else:
        innovations = [[[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]]
    spec = {
        "coefficients": [[], []],
        "innovations": innovations,
        "lag": 1,
        "n_samples": t,
        "epochs_per_class": epochs_per_class,
        "seed": seed,
        "n_sessions": n_sessions,
        "subject": f"subj{seed}",
    }
    path = tmp_path / f"spec{seed}_{n_sessions}.json"
    path.write_text(json.dumps(spec))
    return path


def test_cli_import_leaves_scipy_submodules_unloaded():
    src = str(Path(augcov.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, augcov.cli; print(sorted(m for m in "
            "('scipy.linalg', 'scipy.special', 'scipy.signal') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_python_dash_m_runs_the_cli():
    src = str(Path(augcov.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-m", "augcov", "--help"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "estimate-params" in proc.stdout


class TestSimulate:
    def test_writes_readable_container(self, tmp_path, capsys):
        spec = ar_spec_json(tmp_path)
        out = tmp_path / "data.acm"
        code, stdout, _ = run_cli(capsys, "simulate", "--spec-json", f"@{spec}",
                                  "--out", str(out))
        assert code == 0
        assert out.exists()
        assert "epochs=24" in stdout

    def test_same_seed_identical_bytes(self, tmp_path, capsys):
        spec = ar_spec_json(tmp_path)
        out1, out2 = tmp_path / "a.acm", tmp_path / "b.acm"
        run_cli(capsys, "simulate", "--spec-json", f"@{spec}", "--out", str(out1))
        run_cli(capsys, "simulate", "--spec-json", f"@{spec}", "--out", str(out2))
        assert out1.read_bytes() == out2.read_bytes()

    def test_unstable_spec_exit_2(self, tmp_path, capsys):
        bad = {
            "coefficients": [[[[1.2]]]],
            "innovations": [[[1.0]]],
            "lag": 1, "n_samples": 64, "epochs_per_class": 4, "seed": 0,
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code, _, stderr = run_cli(capsys, "simulate", "--spec-json", f"@{path}",
                                  "--out", str(tmp_path / "x.acm"))
        assert code == 2
        assert json.loads(stderr)["error"] == "UnstableSpec"


def make_sine_container(tmp_path, capsys, noise=0.0, t=640, seed=0):
    """Hand-built sine container (the generator only does AR processes)."""
    from augcov.covariance import Epoch
    from augcov.data import EpochSet, Session, write_epochset

    rng = np.random.default_rng(seed)
    epochs, labels = [], []
    for e in range(4):
        rows = [
            np.sin(2 * np.pi * np.arange(t) / 64.0 + rng.uniform(0, 2 * np.pi))
            + (noise * rng.standard_normal(t) if noise else 0.0)
            for _ in range(2)
        ]
        epochs.append(Epoch(np.stack(rows), 250.0))
        labels.append(e % 2)
    path = tmp_path / "sine.acm"
    write_epochset(EpochSet("sine", [Session("s0", epochs, labels)], ["a", "b"]), path)
    return path


class TestEstimateParams:
    def test_ami_cao_on_sine(self, tmp_path, capsys):
        container = make_sine_container(tmp_path, capsys, noise=0.15, t=2000)
        out_dir = tmp_path / "est"
        code, stdout, _ = run_cli(
            capsys, "estimate-params", "--input", str(container),
            "--method", "ami_cao", "--max-lag", "24", "--out", str(out_dir),
        )
        assert code == 0
        payload = json.loads(stdout)
        assert abs(payload["tau"] - 16) <= 2
        assert (out_dir / "ami_curve.csv").exists()
        assert (out_dir / "cao_e1_curve.csv").exists()
        assert (out_dir / "params.json").exists()

    def test_mdop_on_sine(self, tmp_path, capsys):
        container = make_sine_container(tmp_path, capsys, noise=0.0)
        out_dir = tmp_path / "mdop"
        code, stdout, _ = run_cli(
            capsys, "estimate-params", "--input", str(container),
            "--method", "mdop", "--max-lag", "20", "--out", str(out_dir),
        )
        assert code == 0
        payload = json.loads(stdout)
        assert payload["D"] <= 3
        assert (out_dir / "mdop_cycle_lags.csv").exists()

    def test_constant_dataset_exit_2(self, tmp_path, capsys):
        from augcov.covariance import Epoch
        from augcov.data import EpochSet, Session, write_epochset

        epochs = [Epoch(np.ones((1, 128)), 250.0) for _ in range(2)]
        path = tmp_path / "const.acm"
        write_epochset(EpochSet("c", [Session("s", epochs, [0, 1])], ["a", "b"]), path)
        code, _, stderr = run_cli(
            capsys, "estimate-params", "--input", str(path),
            "--method", "ami_cao", "--out", str(tmp_path / "e"),
        )
        assert code == 2
        assert json.loads(stderr)["error"] == "ConstantSeries"

    @pytest.mark.parametrize("argv,setting", [
        (["--bins", "0"], "bins"),
        (["--bins", "-3"], "bins"),
        (["--max-lag", "0"], "max_lag"),
        (["--method", "mdop", "--max-cycles", "0"], "max_cycles"),
    ])
    def test_bad_estimator_setting_exit_2(self, tmp_path, capsys, argv, setting):
        container = make_sine_container(tmp_path, capsys, noise=0.15, t=256)
        code, stdout, stderr = run_cli(
            capsys, "estimate-params", "--input", str(container), *argv,
            "--out", str(tmp_path / "e"),
        )
        assert code == 2
        assert stdout == ""
        error = json.loads(stderr)
        assert error["error"] == "InvalidSetting"
        assert error["message"].startswith(f"{setting} must be an integer >= ")


class TestEvaluate:
    def evaluate(self, capsys, container, out_dir, *extra):
        return run_cli(
            capsys, "evaluate", "--input", str(container),
            "--pipeline", "MDM", "--eval", "ws", "--folds", "4",
            "--seed", "11", "--out", str(out_dir), *extra,
        )

    def test_ws_separable_high_auc(self, tmp_path, capsys):
        spec = ar_spec_json(tmp_path, seed=1)
        container = tmp_path / "d.acm"
        run_cli(capsys, "simulate", "--spec-json", f"@{spec}", "--out", str(container))
        code, stdout, _ = self.evaluate(capsys, container, tmp_path / "run")
        assert code == 0
        report = json.loads((tmp_path / "run" / "report.json").read_text())
        assert report["aggregate"]["mean"] >= 0.99
        assert (tmp_path / "run" / "scores.csv").exists()
        assert (tmp_path / "run" / "timing.csv").exists()
        assert (tmp_path / "run" / "manifest.json").exists()

    def test_cs_single_session_exit_2(self, tmp_path, capsys):
        spec = ar_spec_json(tmp_path, seed=2)
        container = tmp_path / "d1.acm"
        run_cli(capsys, "simulate", "--spec-json", f"@{spec}", "--out", str(container))
        code, _, stderr = run_cli(
            capsys, "evaluate", "--input", str(container), "--pipeline", "MDM",
            "--eval", "cs", "--seed", "3", "--out", str(tmp_path / "cs"),
        )
        assert code == 2
        assert json.loads(stderr)["error"] == "SingleSession"

    def test_rerun_identical_report_bytes(self, tmp_path, capsys):
        spec = ar_spec_json(tmp_path, seed=3, n_sessions=2)
        container = tmp_path / "d2.acm"
        run_cli(capsys, "simulate", "--spec-json", f"@{spec}", "--out", str(container))
        self.evaluate(capsys, container, tmp_path / "r1", "--workers", "1")
        self.evaluate(capsys, container, tmp_path / "r2", "--workers", "1")
        assert (tmp_path / "r1" / "report.json").read_bytes() == \
            (tmp_path / "r2" / "report.json").read_bytes()

    def test_workers_do_not_change_report(self, tmp_path, capsys):
        spec = ar_spec_json(tmp_path, seed=4, n_sessions=3)
        container = tmp_path / "d3.acm"
        run_cli(capsys, "simulate", "--spec-json", f"@{spec}", "--out", str(container))
        self.evaluate(capsys, container, tmp_path / "w1", "--workers", "1")
        self.evaluate(capsys, container, tmp_path / "w4", "--workers", "4")
        assert (tmp_path / "w1" / "report.json").read_bytes() == \
            (tmp_path / "w4" / "report.json").read_bytes()
        for workers in ("1", "2"):
            code, _, _ = self.evaluate(capsys, container, tmp_path / f"cs{workers}",
                                       "--eval", "cs", "--workers", workers)
            assert code == 0
        assert (tmp_path / "cs1" / "report.json").read_bytes() == \
            (tmp_path / "cs2" / "report.json").read_bytes()

    def test_report_is_the_library_report(self, tmp_path, capsys):
        from augcov.classify import PipelineSpec
        from augcov.data import read_epochset
        from augcov.evaluate import cross_session_eval, within_session_eval

        spec_path = ar_spec_json(tmp_path, seed=8, epochs_per_class=8, t=64, n_sessions=2)
        container = tmp_path / "lib.acm"
        run_cli(capsys, "simulate", "--spec-json", f"@{spec_path}", "--out", str(container))
        epoch_set = read_epochset(container)
        spec = PipelineSpec(kind="ACM+TANG+SVM", param_source="grid",
                            grid_orders=(1, 2), grid_lags=(1,), inner_folds=3)
        for mode, run in (
            ("ws", lambda: within_session_eval(epoch_set, spec, folds=3, seed=5,
                                               dataset="lib", workers=2)),
            ("cs", lambda: cross_session_eval(epoch_set, spec, seed=5, dataset="lib")),
        ):
            out = tmp_path / f"lib_{mode}"
            code, _, _ = run_cli(
                capsys, "evaluate", "--input", str(container),
                "--pipeline", "ACM+TANG+SVM", "--param-source", "grid",
                "--grid-max-order", "2", "--grid-max-lag", "1", "--eval", mode,
                "--folds", "3", "--seed", "5", "--dataset-id", "lib",
                "--workers", "1", "--out", str(out),
            )
            assert code == 0
            assert (out / "report.json").read_text() == run().to_json()

    @pytest.mark.parametrize("flag,value", [
        ("--folds", "0"), ("--folds", "1"), ("--svm-c", "-1"), ("--svm-c", "0"),
        ("--svm-c", "nan"), ("--svm-c", "inf"), ("--grid-max-order", "0"),
        ("--grid-max-lag", "0"),
    ])
    def test_bad_setting_exit_2(self, tmp_path, capsys, flag, value):
        spec = ar_spec_json(tmp_path, seed=9)
        container = tmp_path / "bad.acm"
        run_cli(capsys, "simulate", "--spec-json", f"@{spec}", "--out", str(container))
        argv = ["evaluate", "--input", str(container), "--pipeline", "TANG+SVM",
                "--eval", "ws", "--folds", "3", "--seed", "1",
                "--out", str(tmp_path / "bad"), flag, value]
        code, _, stderr = run_cli(capsys, *argv)
        assert code == 2
        error = json.loads(stderr)
        assert error["error"] == "InvalidSetting"
        assert not (tmp_path / "bad" / "report.json").exists()

    def test_grid_pipeline_emits_score_maps(self, tmp_path, capsys):
        spec = ar_spec_json(tmp_path, seed=5, epochs_per_class=10, t=64)
        container = tmp_path / "d4.acm"
        run_cli(capsys, "simulate", "--spec-json", f"@{spec}", "--out", str(container))
        out_dir = tmp_path / "grid"
        code, _, _ = run_cli(
            capsys, "evaluate", "--input", str(container),
            "--pipeline", "ACM+MDM", "--param-source", "grid",
            "--grid-max-order", "2", "--grid-max-lag", "2",
            "--eval", "ws", "--folds", "3", "--seed", "6", "--out", str(out_dir),
        )
        assert code == 0
        maps = list(out_dir.glob("gridmap_*.csv"))
        svgs = list(out_dir.glob("gridmap_*.svg"))
        assert len(maps) == 3  # one per fold
        assert len(svgs) == 3
        header = maps[0].read_text().splitlines()[0]
        assert header == "order,lag,param_id,mean_score,n_valid_folds"


class TestStats:
    def test_meta_analysis_of_two_pipelines(self, tmp_path, capsys):
        reports = []
        for seed, subject in enumerate("abcdef"):
            spec = ar_spec_json(tmp_path, seed=seed)
            container = tmp_path / f"s{seed}.acm"
            run_cli(capsys, "simulate", "--spec-json", f"@{spec}", "--out", str(container))
            for pipeline, flag in (("MDM", "off"), ("ACM+MDM", "auto")):
                out_dir = tmp_path / f"{subject}_{pipeline.replace('+', '_')}"
                code, _, _ = run_cli(
                    capsys, "evaluate", "--input", str(container),
                    "--pipeline", pipeline, "--param-source", "fixed",
                    "--order", "2" if "ACM" in pipeline else "1", "--lag", "1",
                    "--eval", "ws", "--folds", "3", "--seed", "17",
                    "--shrink", flag, "--out", str(out_dir),
                )
                assert code == 0
                reports.append(str(out_dir / "report.json"))
        meta_dir = tmp_path / "meta"
        code, stdout, _ = run_cli(capsys, "stats", *reports, "--out", str(meta_dir))
        assert code == 0
        payload = json.loads(stdout)
        assert payload["n_hypotheses"] == 2
        assert (meta_dir / "meta.json").exists()
        for hyp in payload["hypotheses"]:
            assert 0.0 < hyp["p_combined"] <= 1.0
            assert hyp["p_corrected"] >= hyp["p_combined"]

    def test_pairing_violation_exit_2(self, tmp_path, capsys):
        spec_a = ar_spec_json(tmp_path, seed=30)
        container = tmp_path / "pv.acm"
        run_cli(capsys, "simulate", "--spec-json", f"@{spec_a}", "--out", str(container))
        out_a = tmp_path / "pv_a"
        out_b = tmp_path / "pv_b"
        run_cli(capsys, "evaluate", "--input", str(container), "--pipeline", "MDM",
                "--eval", "ws", "--folds", "3", "--seed", "1", "--out", str(out_a))
        run_cli(capsys, "evaluate", "--input", str(container), "--pipeline", "MDM",
                "--eval", "ws", "--folds", "3", "--seed", "1", "--out", str(out_b))
        code, _, stderr = run_cli(
            capsys, "stats", str(out_a / "report.json"), str(out_b / "report.json"),
        )
        assert code == 2
        assert json.loads(stderr)["error"] == "PairingViolation"

    def test_needs_two_reports(self, tmp_path, capsys):
        code, _, stderr = run_cli(capsys, "stats", str(tmp_path / "missing.json"))
        assert code == 2


class TestErrorPathsAndWorkers:
    def test_numerical_failure_exit_3(self, tmp_path, capsys):
        from augcov.covariance import Epoch
        from augcov.data import EpochSet, Session, write_epochset

        rng = np.random.default_rng(70)
        epochs = []
        for _ in range(8):
            row = rng.standard_normal(64)
            epochs.append(Epoch(np.stack([row, row]), 250.0))  # rank deficient
        path = tmp_path / "dup.acm"
        write_epochset(
            EpochSet("dup", [Session("s", epochs, [0, 1] * 4)], ["a", "b"]), path
        )
        code, _, stderr = run_cli(
            capsys, "evaluate", "--input", str(path), "--pipeline", "MDM",
            "--eval", "ws", "--folds", "2", "--seed", "1",
            "--out", str(tmp_path / "o"),
        )
        assert code == 3
        assert json.loads(stderr)["error"] == "NotSPD"

    def test_acm_workers_env_fallback(self, tmp_path, capsys, monkeypatch):
        spec = ar_spec_json(tmp_path, seed=40, n_sessions=2)
        container = tmp_path / "env.acm"
        run_cli(capsys, "simulate", "--spec-json", f"@{spec}", "--out", str(container))
        monkeypatch.setenv("ACM_WORKERS", "2")
        code, _, _ = run_cli(
            capsys, "evaluate", "--input", str(container), "--pipeline", "MDM",
            "--eval", "ws", "--folds", "3", "--seed", "2",
            "--out", str(tmp_path / "envrun"),
        )
        assert code == 0
        monkeypatch.setenv("ACM_WORKERS", "1")
        code, _, _ = run_cli(
            capsys, "evaluate", "--input", str(container), "--pipeline", "MDM",
            "--eval", "ws", "--folds", "3", "--seed", "2",
            "--out", str(tmp_path / "envrun1"),
        )
        assert code == 0
        assert (tmp_path / "envrun" / "report.json").read_bytes() == \
            (tmp_path / "envrun1" / "report.json").read_bytes()


class TestCrossSessionGrid:
    def test_cs_grid_emits_per_holdout_maps(self, tmp_path, capsys):
        spec = ar_spec_json(tmp_path, seed=41, epochs_per_class=8, t=64, n_sessions=2)
        container = tmp_path / "csgrid.acm"
        run_cli(capsys, "simulate", "--spec-json", f"@{spec}", "--out", str(container))
        out_dir = tmp_path / "csgrid_run"
        code, _, _ = run_cli(
            capsys, "evaluate", "--input", str(container),
            "--pipeline", "ACM+TANG+SVM", "--param-source", "grid",
            "--grid-max-order", "2", "--grid-max-lag", "1",
            "--eval", "cs", "--folds", "2", "--seed", "9", "--out", str(out_dir),
        )
        assert code == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert len(report["scores"]) == 2
        for s in report["scores"]:
            assert s["svm_kernel"] in ("linear", "rbf")
        assert len(list(out_dir.glob("gridmap_*.csv"))) == 2
