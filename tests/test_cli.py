import argparse
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import augcov
from augcov import cli
from augcov.classify import PipelineSpec
from augcov.cli import _parser, main
from augcov.errors import InvalidSetting
from augcov.evaluate import EvalReport, SplitScore


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


SCIPY_BLOCKED_CHAIN = """
import json, sys
sys.modules["scipy"] = None  # every import of scipy now raises ImportError
import augcov.cli
lazy = ("statistics", "decimal", "concurrent.futures.process", "numpy.random")
loaded = sorted(m for m in lazy if m in sys.modules)
steps = json.loads(sys.argv[1])
codes = [augcov.cli.main(argv) for argv in steps]
with open(sys.argv[2], "w") as fh:
    json.dump({"loaded_by_import": loaded, "codes": codes}, fh)
"""


def test_the_cli_chain_runs_with_scipy_blocked(tmp_path):
    """The package needs numpy and the standard library alone: with scipy
    unimportable (also in the forked pool workers), simulate, both
    estimators, a two-worker ws grid, cs runs and stats all exit 0. Importing
    the CLI loads neither the process pool, nor the quantile's modules, nor
    numpy.random."""
    steps, reports = [], []
    for seed in range(3):
        container = str(tmp_path / f"s{seed}.acm")
        spec = ar_spec_json(tmp_path, seed=seed, epochs_per_class=8, t=128, n_sessions=2)
        steps.append(["simulate", "--spec-json", f"@{spec}", "--out", container])
        for pipeline, order in (("MDM", "1"), ("ACM+MDM", "2")):
            out = str(tmp_path / f"cs_{seed}_{order}")
            steps.append(["evaluate", "--input", container, "--pipeline", pipeline,
                          "--order", order, "--eval", "cs", "--seed", "3",
                          "--workers", "1", "--out", out])
            reports.append(f"{out}/report.json")
    container = str(tmp_path / "s0.acm")
    steps += [["estimate-params", "--input", container, "--method", method,
               "--out", str(tmp_path / method)] for method in ("ami_cao", "mdop")]
    steps.append(["evaluate", "--input", container, "--pipeline", "ACM+TANG+SVM",
                  "--param-source", "grid", "--grid-max-order", "2", "--grid-max-lag", "1",
                  "--eval", "ws", "--folds", "3", "--seed", "3", "--workers", "2",
                  "--out", str(tmp_path / "ws_grid")])
    steps.append(["stats", *reports, "--out", str(tmp_path / "meta")])

    src = str(Path(augcov.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    result = tmp_path / "result.json"
    proc = subprocess.run([sys.executable, "-c", SCIPY_BLOCKED_CHAIN, json.dumps(steps),
                           str(result)], capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    outcome = json.loads(result.read_text())
    assert outcome["loaded_by_import"] == []
    assert outcome["codes"] == [0] * len(steps), proc.stderr
    manifest = json.loads((tmp_path / "meta" / "manifest.json").read_text())
    assert sorted(manifest["versions"]) == ["augcov", "numpy", "python"]


NO_RANDOM_CHAIN = """
import json, sys
import augcov.cli
loaded = []
for argv in json.loads(sys.argv[1]):
    assert augcov.cli.main(argv) == 0, argv
    loaded.append("numpy.random" in sys.modules)
print(json.dumps(loaded))
"""


def test_a_cross_session_run_without_a_search_never_loads_numpy_random(tmp_path):
    """Only a search reads a split's seed, so only a split that searches
    derives it: a serial cs run of MDM, of ACM+MDM at a fixed (2, 1) and of
    ACM+MDM with an MDOP estimate leaves numpy.random unloaded, in one
    process, in that order. A grid run, last, loads it: the check can see
    it."""
    container = tmp_path / "s.acm"
    spec = ar_spec_json(tmp_path, epochs_per_class=8, t=128, n_sessions=2)
    assert main(["simulate", "--spec-json", f"@{spec}", "--out", str(container)]) == 0
    common = ["--input", str(container), "--eval", "cs", "--seed", "3", "--workers", "1"]
    runs = [["--pipeline", "MDM"], ["--pipeline", "ACM+MDM", "--order", "2", "--lag", "1"],
            ["--pipeline", "ACM+MDM", "--param-source", "mdop"],
            ["--pipeline", "ACM+MDM", "--param-source", "grid", "--grid-max-order", "2",
             "--grid-max-lag", "1"]]
    steps = [["evaluate", *common, *run, "--out", str(tmp_path / f"out{i}")]
             for i, run in enumerate(runs)]
    src = str(Path(augcov.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", NO_RANDOM_CHAIN, json.dumps(steps)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [False, False, False, True]


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

    def test_output_bytes(self, tmp_path, capsys):
        """Every file but the manifest, byte for byte, with the default
        settings; params.json names its curve files by their full path."""
        from augcov.covariance import Epoch
        from augcov.data import EpochSet, Session, write_epochset

        rng = np.random.default_rng(0)
        epochs = []
        for _ in range(4):
            rows = [np.sin(2 * np.pi * np.arange(256) / 64.0 + rng.uniform(0, 2 * np.pi))
                    + 0.15 * rng.standard_normal(256) for _ in range(2)]
            epochs.append(Epoch(np.stack(rows), 250.0))
        container = tmp_path / "sine.acm"
        write_epochset(EpochSet("sine", [Session("s0", epochs, [0, 1, 0, 1])], ["a", "b"]),
                       container)
        files = {}
        for method in ("ami_cao", "mdop"):
            out_dir = tmp_path / method
            code, stdout, _ = run_cli(capsys, "estimate-params", "--input", str(container),
                                      "--method", method, "--out", str(out_dir))
            assert code == 0
            assert stdout == (out_dir / "params.json").read_text()
            files.update({(method, path.name):
                          path.read_bytes().decode().replace(str(out_dir) + os.sep, "")
                          for path in out_dir.iterdir() if path.name != "manifest.json"})
        assert files == {
            ("ami_cao", "ami_curve.csv"):
                "lag,value\r\n1,9.513580560705144\r\n2,8.827900094842636\r\n3,8.004310729138087\r\n"
                "4,7.575980920923874\r\n5,6.986880379426659\r\n6,6.906683803740619\r\n"
                "7,6.701402790225788\r\n8,6.59093381052663\r\n9,6.3875769655195285\r\n"
                "10,6.438923089228473\r\n",
            ("ami_cao", "cao_e1_curve.csv"):
                "lag,value\r\n1,0.0068970731453029295\r\n2,0.3492258378972247\r\n"
                "3,0.707125347185691\r\n4,0.8510278528883755\r\n5,0.9115037257253695\r\n"
                "6,0.915519550578099\r\n7,0.9577501794646486\r\n8,0.9686500292385154\r\n",
            ("ami_cao", "params.json"):
                '{"D":7,"diagnostics":{"ami_curve":"ami_curve.csv",'
                '"cao_e1_curve":"cao_e1_curve.csv"},"flags":[],"method":"ami_cao","tau":9}\n',
            ("mdop", "mdop_cycle_lags.csv"): "cycle,lag\r\n1,9\r\n2,8\r\n",
            ("mdop", "params.json"):
                '{"D":3,"diagnostics":{"cycle_lags":"mdop_cycle_lags.csv"},"flags":[],'
                '"method":"mdop","tau":9}\n',
        }

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
        (["--method", "mdop", "--bins", "1"], "bins"),
        (["--max-cycles", "0"], "max_cycles"),
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
        assert not (tmp_path / "e").exists()  # a rejected run leaves no directory


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
def test_estimate_params_reads_a_piped_container(tmp_path, capsys):
    """`cat x.acm | augcov estimate-params --input /dev/stdin` estimates what
    the file gives."""
    container = make_sine_container(tmp_path, capsys, t=256)
    src = str(Path(augcov.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-m", "augcov", "estimate-params", "--input", "/dev/stdin",
         "--method", "mdop", "--out", str(tmp_path / "piped")],
        input=container.read_bytes(), capture_output=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    code, stdout, _ = run_cli(capsys, "estimate-params", "--input", str(container),
                              "--method", "mdop", "--out", str(tmp_path / "file"))
    assert code == 0
    piped, from_file = json.loads(proc.stdout), json.loads(stdout)
    assert (piped["tau"], piped["D"]) == (from_file["tau"], from_file["D"])


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
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert manifest["command"] == "evaluate"
        # every evaluate option but where the output goes and the worker count
        sub = next(a for a in _parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        options = {a.dest for a in sub.choices["evaluate"]._actions} - {"help"}
        assert set(manifest["config"]) == options - {"out", "workers"} == {
            "input", "pipeline", "param_source", "order", "lag", "eval", "folds",
            "seed", "grid_max_order", "grid_max_lag", "shrink", "svm_c",
            "svm_kernel", "dataset_id",
        }
        assert (manifest["config"]["eval"], manifest["config"]["folds"]) == ("ws", 4)

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
        # one session: its folds are the splits the pool runs
        spec = ar_spec_json(tmp_path, seed=4, n_sessions=1)
        container = tmp_path / "d1.acm"
        run_cli(capsys, "simulate", "--spec-json", f"@{spec}", "--out", str(container))
        for workers in ("1", "2"):
            code, _, _ = self.evaluate(capsys, container, tmp_path / f"one{workers}",
                                       "--workers", workers)
            assert code == 0
        assert (tmp_path / "one1" / "report.json").read_bytes() == \
            (tmp_path / "one2" / "report.json").read_bytes()

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
        ("--grid-max-lag", "0"), ("--order", "0"), ("--lag", "0"),
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
        assert len(maps) == 3  # one per fold
        assert not list(out_dir.glob("*.svg"))
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

    def test_numerical_failure_in_a_worker_exit_3(self, tmp_path, capsys, monkeypatch):
        from augcov import classify
        from augcov.errors import NoConvergence

        def no_convergence(covs, *args, **kwargs):
            raise NoConvergence(None, 1.5)

        spec = ar_spec_json(tmp_path, seed=43)
        container = tmp_path / "nc.acm"
        run_cli(capsys, "simulate", "--spec-json", f"@{spec}", "--out", str(container))
        monkeypatch.setattr(classify, "frechet_mean", no_convergence)  # workers fork
        code, _, stderr = run_cli(
            capsys, "evaluate", "--input", str(container), "--pipeline", "MDM",
            "--eval", "ws", "--folds", "3", "--seed", "1", "--workers", "2",
            "--out", str(tmp_path / "nc"),
        )
        assert code == 3
        assert json.loads(stderr)["error"] == "NoConvergence"

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exit_2(self, tmp_path, capsys, workers):
        spec = ar_spec_json(tmp_path, seed=42)
        container = tmp_path / "w.acm"
        run_cli(capsys, "simulate", "--spec-json", f"@{spec}", "--out", str(container))
        code, _, stderr = run_cli(
            capsys, "evaluate", "--input", str(container), "--pipeline", "MDM",
            "--eval", "ws", "--folds", "3", "--seed", "2", "--workers", workers,
            "--out", str(tmp_path / "w"),
        )
        assert code == 2
        error = json.loads(stderr)
        assert error["error"] == "InvalidSetting"
        assert error["message"].startswith("workers must be an integer >= 1")
        assert not (tmp_path / "w").exists()


class TestSeed:
    def test_evaluate_negative_seed_exit_2_names_seed(self, tmp_path, capsys):
        spec = ar_spec_json(tmp_path, seed=44, n_sessions=2)
        container = tmp_path / "seed.acm"
        run_cli(capsys, "simulate", "--spec-json", f"@{spec}", "--out", str(container))
        for mode in ("ws", "cs"):
            code, _, stderr = run_cli(
                capsys, "evaluate", "--input", str(container), "--pipeline", "MDM",
                "--eval", mode, "--folds", "3", "--seed", "-1", "--out", str(tmp_path / "s"),
            )
            assert code == 2
            assert json.loads(stderr) == {"error": "InvalidSetting",
                                          "message": "seed must be an integer >= 0, got -1"}
        assert not (tmp_path / "s").exists()

    def test_stats_negative_seed_exit_2_names_seed(self, tmp_path, capsys):
        paths = []
        for pipeline in ("P1", "P2"):
            report = EvalReport("ds", "alice", pipeline, "ws", 0)
            report.scores.append(SplitScore("s", "fold0", 0.7, "auc", 1, 1, None, None))
            paths.append(tmp_path / f"{pipeline}.json")
            paths[-1].write_text(report.to_json())
        code, stdout, stderr = run_cli(capsys, "stats", *map(str, paths), "--seed", "-1")
        assert (code, stdout) == (2, "")
        assert json.loads(stderr) == {"error": "InvalidSetting",
                                      "message": "seed must be an integer >= 0, got -1"}


def test_every_pipeline_spec_field_is_one_evaluate_option(monkeypatch, capsys):
    """The settings a run can change are the settings the CLI exposes: each
    PipelineSpec field is set by exactly one evaluate option, and the other
    options only say what to run on, how to split it and where to write."""
    svm, grid = ["--pipeline", "ACM+TANG+SVM"], ["--param-source", "grid"]
    options = {  # field: (option and a value off its default, the field's value,
        #                  the options of a pipeline and source that read the field)
        "kind": (["--pipeline", "ACM+TANG+SVM"], "ACM+TANG+SVM", []),
        "param_source": (["--param-source", "grid"], "grid", []),
        "order": (["--order", "2"], 2, []),
        "lag": (["--lag", "3"], 3, []),
        "shrink": (["--shrink", "on"], True, []),
        "svm_c": (["--svm-c", "1.5"], 1.5, svm),
        "svm_kernel": (["--svm-kernel", "rbf"], "rbf", svm),
        "grid_orders": (["--grid-max-order", "2"], (1, 2), grid),
        "grid_lags": (["--grid-max-lag", "3"], (1, 2, 3), grid),
        "inner_folds": (["--folds", "4"], 4, []),
    }
    assert set(options) == {f.name for f in dataclasses.fields(PipelineSpec)}
    sub = next(a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = {a.option_strings[0] for a in sub.choices["evaluate"]._actions if a.dest != "help"}
    spec_options = {argv[0] for argv, _, _ in options.values()}
    assert len(spec_options) == len(options)
    assert flags - spec_options == {
        "--input", "--eval", "--seed", "--dataset-id", "--workers", "--out"}

    specs = []

    def build(**kwargs):  # the spec evaluate builds, before any data is read
        specs.append(PipelineSpec(**kwargs))
        raise InvalidSetting("stop")

    monkeypatch.setattr(cli, "PipelineSpec", build)
    base = ["evaluate", "--input", "unread.acm", "--pipeline", "ACM+MDM",
            "--seed", "0", "--out", "unwritten"]

    def spec_of(*argv):
        code, _, stderr = run_cli(capsys, *base, *argv)
        assert (code, json.loads(stderr)["message"]) == (2, "stop")  # built, not rejected
        return specs[-1]

    for name, (argv, value, where) in options.items():
        default, spec = spec_of(*where), spec_of(*where, *argv)
        changed = {f.name for f in dataclasses.fields(PipelineSpec)
                   if getattr(spec, f.name) != getattr(default, f.name)}
        assert changed == {name}
        assert getattr(spec, name) == value


def test_setting_the_source_ignores_exits_2_before_the_data_is_read(capsys):
    code, _, stderr = run_cli(capsys, "evaluate", "--input", "unread.acm",
                              "--pipeline", "TANG+SVM", "--param-source", "grid",
                              "--svm-c", "1000", "--seed", "0", "--out", "unwritten")
    assert code == 2
    error = json.loads(stderr)
    assert error["error"] == "InvalidSetting"
    assert "svm_c=1000.0" in error["message"] and "'fixed'" in error["message"]


def test_cs_acm_mdm_scores_do_not_depend_on_units(tmp_path, capsys):
    """The same container in volts and in microvolts (x 1e-6) gives cs
    ACM+MDM scores within 1e-9: the distance is affine-invariant and the
    class means stop on a scale-free rule. Classes of equal dynamics keep
    the holdout AUCs away from 0 and 1, so the scores test the ranking."""
    from augcov.covariance import EpochStack
    from augcov.data import EpochSet, Session, read_epochset, write_epochset

    spec = ar_spec_json(tmp_path, seed=6, epochs_per_class=10, t=64, n_sessions=2,
                        separable=False)
    containers = [tmp_path / "units.acm", tmp_path / "micro.acm"]
    run_cli(capsys, "simulate", "--spec-json", f"@{spec}", "--out", str(containers[0]))
    raw = read_epochset(containers[0])
    write_epochset(EpochSet(raw.subject, [
        Session(s.session_id, EpochStack(1e-6 * s.epochs.values, raw.sample_rate), s.labels)
        for s in raw.sessions], raw.class_names), containers[1])
    scores = []
    for container in containers:
        out = tmp_path / container.stem
        code, _, _ = run_cli(
            capsys, "evaluate", "--input", str(container), "--pipeline", "ACM+MDM",
            "--param-source", "fixed", "--order", "3", "--lag", "2", "--eval", "cs",
            "--seed", "4", "--out", str(out))
        assert code == 0
        scores.append([s["score"] for s in json.loads((out / "report.json").read_text())["scores"]])
    assert len(scores[0]) == 2 and all(0.0 < s < 1.0 for s in scores[0])
    np.testing.assert_allclose(scores[1], scores[0], rtol=0.0, atol=1e-9)


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


def _container_with(tmp_path, capsys, edit):
    """A simulated container whose manifest goes through edit."""
    path = tmp_path / "edited.acm"
    run_cli(capsys, "simulate", "--spec-json", f"@{ar_spec_json(tmp_path, n_sessions=2)}",
            "--out", str(path))
    header, payload = path.read_bytes().split(b"\n", 1)
    path.write_bytes(json.dumps(edit(json.loads(header))).encode() + b"\n" + payload)
    return path


def _report_with(tmp_path, name, edit):
    """A valid report.json whose parsed JSON goes through edit."""
    from augcov.evaluate import EvalReport, SplitScore

    report = EvalReport("ds", "alice", "MDM", "ws", 0)
    report.scores.append(SplitScore("s0", "fold0", 0.75, "auc", 1, 1, None, None))
    path = tmp_path / name
    path.write_text(json.dumps(edit(json.loads(report.to_json()))))
    return path


def _drop(raw, *keys):
    """raw without the item at the path keys."""
    inner = raw
    for key in keys[:-1]:
        inner = inner[key]
    del inner[keys[-1]]
    return raw


def _set(raw, value, *keys):
    inner = raw
    for key in keys[:-1]:
        inner = inner[key]
    inner[keys[-1]] = value
    return raw


def _spec_json(**fields):
    """A valid white-noise generator spec as JSON, with fields replaced."""
    return json.dumps({"coefficients": [[]], "innovations": [[[1.0, 0.0], [0.0, 1.0]]],
                       "n_samples": 64, "epochs_per_class": 2, "seed": 0, **fields})


BAD_SPEC_FIELDS = {
    "spec-fractional-n-samples": {"n_samples": 64.7},
    "spec-fractional-epochs": {"epochs_per_class": 2.9},
    "spec-asymmetric-innovation": {"innovations": [[[1, 0.5], [0.2, 1]]]},
    "spec-nan-upper-innovation": {"innovations": [[[1, "nan"], [0, 1]]]},
    "spec-coefficient-size": {"coefficients": [[[[0.1, 0, 0], [0, 0.1, 0], [0, 0, 0.1]]]]},
    "spec-innovation-sizes": {"coefficients": [[], []],
                              "innovations": [[[1, 0], [0, 1]], [[1]]]},
    "spec-n-samples-string": {"n_samples": "abc"},
    "spec-1d-innovation": {"innovations": [[1.0, 2.0]]},
    "spec-negative-seed": {"seed": -1},
    "spec-no-sessions": {"n_sessions": 0},
    "spec-unknown-field-n-sesions": {"n_sesions": 3},
    "spec-unknown-field-sampel-rate": {"sampel_rate": 100},
}


@pytest.mark.parametrize("kind,edit,error", [
    ("container", lambda m: _drop(m, "sessions", 0, "labels"), "FormatError"),
    ("container", lambda m: _set(m, None, "sessions", 1, "labels", 0), "FormatError"),
    ("container", lambda m: _set(m, 3, "sessions"), "FormatError"),
    # session ids name the grid maps: a repeated id made two holdout splits
    # of one name, and a separator failed after report.json was written
    ("container", lambda m: _set(m, "session0", "sessions", 1, "id"), "InvalidEpoch"),
    ("container", lambda m: _set(m, "day1/am", "sessions", 1, "id"), "InvalidEpoch"),
    # ids a:b and a_b both named their maps gridmap_a_b_*, one overwriting the other
    ("container", lambda m: _set(_set(m, "a:b", "sessions", 0, "id"), "a_b", "sessions", 1, "id"),
     "InvalidEpoch"),
    ("report", lambda r: _drop(r, "subject"), "FormatError"),
    ("report", lambda r: _drop(r, "scores", 0, "lag"), "FormatError"),
    ("report", lambda r: [r], "PairingViolation"),
    *[("report", lambda r, v=value: _set(r, v, "scores", 0, "score"), "FormatError")
      for value in ("0.5", None, True, float("nan"))],
    ("report", lambda r: _set(r, 99, "version"), "VersionUnsupported"),
    ("report", lambda r: _drop(r, "version"), "VersionUnsupported"),
    ("spec", "[1]", "UnstableSpec"),
    ("spec", '{"coefficients": [[]], "innovations": [[[1.0]]], "n_samples": null, '
             '"epochs_per_class": 2, "seed": 0}', "UnstableSpec"),
    ("spec", '{"coefficients": 5, "innovations": [[[1.0]]], "n_samples": 64, '
             '"epochs_per_class": 2, "seed": 0}', "UnstableSpec"),
    *[("spec", _spec_json(**fields), "UnstableSpec") for fields in BAD_SPEC_FIELDS.values()],
], ids=["container-without-labels", "container-null-label", "container-sessions-not-list",
        "container-repeated-session-id", "container-session-id-with-slash",
        "container-session-ids-one-file-name",
        "report-without-subject", "report-score-without-lag", "report-json-list",
        "report-score-string", "report-score-null", "report-score-bool", "report-score-nan",
        "report-version-99", "report-without-version",
        "spec-json-list", "spec-null-field", "spec-coefficients-not-a-list",
        *BAD_SPEC_FIELDS])
def test_malformed_input_file_exit_2(tmp_path, capsys, kind, edit, error):
    if kind == "container":
        argv = ["evaluate", "--input", str(_container_with(tmp_path, capsys, edit)),
                "--pipeline", "MDM", "--eval", "ws", "--folds", "3", "--seed", "1",
                "--out", str(tmp_path / "run")]
    elif kind == "report":
        argv = ["stats", str(_report_with(tmp_path, "bad.json", edit)),
                str(_report_with(tmp_path, "good.json", lambda raw: raw))]
    else:
        argv = ["simulate", "--spec-json", edit, "--out", str(tmp_path / "x.acm")]
    code, _, stderr = run_cli(capsys, *argv)
    assert code == 2
    lines = stderr.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == error
    assert not (tmp_path / "run").exists()  # refused before any output
