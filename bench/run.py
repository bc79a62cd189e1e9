"""End-to-end benchmark of the augcov CLI.

    python3 bench/run.py --workload {grid-svm,eeg-mdm,estimate} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is taken from ./src.
Each CLI step runs in its own interpreter, as a user would start it, with
BLAS/OpenMP pinned to one thread. The run builds its inputs from --seed
(timed several times: `setup_s`), then repeats whole rounds of the
workload's CLI steps for --seconds seconds, checks every output against
independent computations, and prints the medians over rounds. With
--trace 1 untraced and traced rounds alternate (bench/tracer.py), and the
per-layer metrics are printed instead. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import os

# Pin every BLAS/OpenMP pool to one thread, here and in every child, before
# numpy is imported: unpinned pools make CPU time exceed wall time and let
# the figures depend on how many idle cores the host happens to have.
PIN = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
os.environ.update(PIN)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import reference  # noqa: E402
from tracer import PROBE  # noqa: E402

RUNS_DIR = ROOT / ".bench_runs"
SETUP_REPEATS = 3
STEP_TIMEOUT_S = 150.0
RUN_BUDGET_S = 170.0  # a run must end within 180 s, set-up included
CLI_BOOT = "import sys; from augcov.cli import entry; sys.argv[0] = 'augcov'; entry()"

# The AUC a fold or holdout must reach: the classes are separable through
# their lag-1 dynamics, so a working lagged pipeline scores near 1.
AUC_FLOOR = 0.8
# Order-1 covariances carry no class information in their mean (both
# classes share one stationary covariance), so in every grid map the mean
# inner-CV score of the order-1 cells stays within CHANCE_BAND of 0.5, far
# from the lagged cells' AUC of 1. With 60 epochs per class and 3 folds the
# per-map mean measured 0.51 +/- 0.07 over 30 seeds; the band is 4.6 sd.
CHANCE_BAND = 0.35
# |mean_i log(M^-1/2 P_i M^-1/2)|_F at a class mean; the Frechet iteration
# stops at an ambient residual of 1e-8 on unit-scale data.
STATIONARITY_TOL = 1e-6
ACM_RTOL = 1e-9


class Step:
    """One program invocation: an augcov CLI command or a script."""

    def __init__(self, label, argv, kind="cli"):
        self.label, self.argv, self.kind = label, argv, kind

    def command(self, trace_path=None):
        if trace_path is not None:
            return [sys.executable, str(HERE / "tracer.py"), str(trace_path),
                    self.kind, *self.argv]
        if self.kind == "cli":
            return [sys.executable, "-c", CLI_BOOT, *self.argv]
        return [sys.executable, *self.argv]


@dataclass
class Outcome:
    code: int
    wall: float
    cpu: float
    rss_mb: float
    trace: dict | None

    @property
    def ok(self):
        return self.code == 0


def child_env():
    env = {k: v for k, v in os.environ.items() if k != "ACM_WORKERS"}
    env.update(PIN)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_step(step, run_dir, trace_path=None):
    """Run one step; wall time, and CPU time and peak RSS of the process
    and every descendant it waited for (pool workers included). A step that
    outlives STEP_TIMEOUT_S is killed with its whole process group."""
    log = run_dir / f"{step.label}.log"
    with open(log, "w") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(step.command(trace_path), cwd=ROOT, env=child_env(),
                                stdout=out, stderr=subprocess.STDOUT,
                                start_new_session=True)
        deadline = t0 + STEP_TIMEOUT_S
        pid = 0
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.perf_counter() > deadline:
                    break
                time.sleep(0.002)
        finally:
            # On a timeout, or when the benchmark itself is stopped, take
            # the step's whole process group down and reap it.
            if not pid:
                os.killpg(proc.pid, signal.SIGKILL)
                pid, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    trace = None
    if trace_path is not None and proc.returncode == 0:
        trace = json.loads(Path(trace_path).read_text())
    return Outcome(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                   usage.ru_maxrss / 1024.0, trace)


class Workload:
    """Inputs, timed steps and output checks of one workload."""

    name = ""

    def __init__(self, seed, run_dir, workers):
        self.seed, self.dir, self.workers = seed, run_dir, workers

    def setup_steps(self):
        raise NotImplementedError

    def round_steps(self, out):
        raise NotImplementedError

    def check_round(self, out):
        """[(check name, passed, detail)] for one round's outputs."""
        raise NotImplementedError

    def check_run(self):
        return []

    def check_trace(self, traces):
        return []


def _simulate_step(spec, run_dir, container):
    spec_path = run_dir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    return Step("simulate", ["simulate", "--spec-json", f"@{spec_path}",
                             "--out", str(run_dir / container)])


def _report(out, expected_splits):
    """Strict-JSON report with one score per split, or an exception."""
    report = reference.strict_json((out / "report.json").read_text())
    splits = [s["split"] for s in report["scores"]]
    if len(splits) != expected_splits or len(set(splits)) != expected_splits:
        raise ValueError(f"expected {expected_splits} distinct splits, got {splits}")
    return report


def _check(name, fn):
    try:
        passed, detail = fn()
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        passed, detail = False, f"{type(exc).__name__}: {exc}"
    return (name, bool(passed), detail)


class GridSvm(Workload):
    """Within-session grid route of the paper on the README data."""

    name = "grid-svm"
    folds = 3

    def setup_steps(self):
        return [_simulate_step(inputs.grid_svm_spec(self.seed), self.dir, "grid.acm")]

    def round_steps(self, out):
        return [Step("evaluate", [
            "evaluate", "--input", str(self.dir / "grid.acm"),
            "--pipeline", "ACM+TANG+SVM", "--param-source", "grid",
            "--grid-max-order", str(inputs.GRID_MAX_ORDER),
            "--grid-max-lag", str(inputs.GRID_MAX_LAG),
            "--eval", "ws", "--folds", str(self.folds), "--seed", str(self.seed),
            "--workers", str(self.workers), "--out", str(out)])]

    def check_round(self, out):
        def report_ok():
            _report(out, self.folds)
            return True, "strict JSON, one score per fold"

        def folds_ok():
            scores = _report(out, self.folds)["scores"]
            bad = [s for s in scores if s["score"] < AUC_FLOOR or s["order"] < 2]
            return not bad, f"{len(scores)} folds, failing: {bad}"

        def order1_ok():
            maps = sorted(out.glob("gridmap_*.csv"))
            if len(maps) != self.folds:
                return False, f"{len(maps)} grid maps for {self.folds} folds"
            means = []
            for path in maps:
                rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
                order1 = [float(r[-2]) for r in rows if r[0] == "1"]
                if len(order1) != inputs.GRID_MAX_LAG * 6:
                    return False, f"{path.name}: {len(order1)} order-1 cells"
                means.append(float(np.mean(order1)))
            return (max(abs(m - 0.5) for m in means) <= CHANCE_BAND,
                    f"mean order-1 score per map {[round(m, 3) for m in means]}")

        return [_check("grid-svm.report", report_ok),
                _check("grid-svm.fold_auc_and_order", folds_ok),
                _check("grid-svm.order1_chance", order1_ok)]


class EegMdm(Workload):
    """Cross-session fixed-parameter MDM route at EEG scale."""

    name = "eeg-mdm"

    def setup_steps(self):
        return [_simulate_step(inputs.eeg_mdm_spec(self.seed), self.dir, "eeg.acm")]

    def round_steps(self, out):
        return [Step("evaluate", [
            "evaluate", "--input", str(self.dir / "eeg.acm"),
            "--pipeline", "ACM+MDM", "--param-source", "fixed",
            "--order", str(inputs.EEG_ORDER), "--lag", str(inputs.EEG_LAG),
            "--eval", "cs", "--seed", str(self.seed),
            "--workers", "1", "--out", str(out)])]

    def check_round(self, out):
        def report_ok():
            _report(out, 2)
            return True, "strict JSON, one score per holdout"

        def auc_ok():
            scores = [s["score"] for s in _report(out, 2)["scores"]]
            return min(scores) >= AUC_FLOOR, f"holdout AUCs {scores}"

        return [_check("eeg-mdm.report", report_ok),
                _check("eeg-mdm.holdout_auc", auc_ok)]

    def check_run(self):
        """augcov's augmented covariance of one seeded epoch per class against
        stack-and-multiply plus the Ledoit-Wolf formula. One per class,
        because white-noise epochs are shrunk almost or all the way to a
        scaled identity (intensity 0.95-1), which leaves the off-diagonal
        nearly untested."""
        sys.path.insert(0, str(SRC))
        from augcov.covariance import AugmentedParams, Epoch, augmented_covariance

        manifest, epochs = reference.read_container(self.dir / "eeg.acm")
        labels = np.concatenate([s["labels"] for s in manifest["sessions"]])
        rng = np.random.default_rng(self.seed)

        def acm_ok(x):
            got = augmented_covariance(
                Epoch(x, 250.0), AugmentedParams(inputs.EEG_ORDER, inputs.EEG_LAG)).values
            want = reference.augmented_covariance(
                x, inputs.EEG_ORDER, inputs.EEG_LAG, shrink=True)
            err = float(np.linalg.norm(got - want) / np.linalg.norm(want))
            return err <= ACM_RTOL, f"relative Frobenius error {err:.2e}"

        checks = []
        for cls in sorted(set(labels.tolist())):
            x = epochs[rng.choice(np.flatnonzero(labels == cls))]
            checks.append(_check(f"eeg-mdm.sampled_epoch_acm[{cls}]", lambda: acm_ok(x)))
        return checks

    def check_trace(self, traces):
        out = []
        for trace in traces:
            for probe in trace["probes"]:
                g = probe["whitened_gradient_norm"]
                out.append((f"eeg-mdm.class_mean_stationarity[{probe['class']}]",
                            g <= STATIONARITY_TOL,
                            f"dim {probe['dim']}, n {probe['n']}: gradient norm {g:.2e}"))
        if not out:
            out.append(("eeg-mdm.class_mean_stationarity", False, "no class mean probed"))
        return out


class Estimate(Workload):
    """Both delay-embedding estimators on sinusoids of a known period."""

    name = "estimate"

    def setup_steps(self):
        return [Step("sines", [str(HERE / "inputs.py"), "sines", str(self.dir),
                               str(self.seed)], kind="script")]

    def round_steps(self, out):
        return [
            Step("ami_cao", ["estimate-params", "--input", str(self.dir / "noisy.acm"),
                             "--method", "ami_cao", "--out", str(out / "ami_cao")]),
            Step("mdop", ["estimate-params", "--input", str(self.dir / "clean.acm"),
                          "--method", "mdop", "--out", str(out / "mdop")]),
        ]

    def check_round(self, out):
        def params(method):
            return reference.strict_json((out / method / "params.json").read_text())

        def ami_ok():
            tau = params("ami_cao")["tau"]
            quarter = inputs.SINE_PERIOD / 4
            return abs(tau - quarter) <= 2, f"AMI tau {tau}, quarter period {quarter}"

        def mdop_ok():
            p = params("mdop")
            return (p["D"] == 2 and "no_termination" not in p["flags"],
                    f"MDOP D {p['D']}, flags {p['flags']}")

        def fits_ok():
            ests = [params(m) for m in ("ami_cao", "mdop")]
            bad = [e for e in ests if (e["D"] - 1) * e["tau"] >= inputs.SINE_SAMPLES]
            return not bad, f"(D-1)*tau < T={inputs.SINE_SAMPLES} fails for {bad}"

        return [_check("estimate.ami_quarter_period", ami_ok),
                _check("estimate.mdop_dimension", mdop_ok),
                _check("estimate.embedding_fits", fits_ok)]


WORKLOADS = {w.name: w for w in (GridSvm, EegMdm, Estimate)}


# -- per-layer metrics from spans --------------------------------------------

# (metric, unit, how, key): "self" and "total" sum the self or whole span
# time of the function named by key over a round's timed steps, "setup" the
# span time in the traced input set-up, "count" a counter of the tracer.
LAYER_METRICS = [
    ("import.augcov_s", "s", "total", "import.augcov"),
    ("data.generate_ar_dataset.s", "s", "setup", "data.generate_ar_dataset"),
    ("data.write_epochset.s", "s", "setup", "data.write_epochset"),
    ("data.read_epochset.s", "s", "total", "data.read_epochset"),
    ("covariance.augmented_covariance.self_s", "s", "self", "covariance.augmented_covariance"),
    ("covariance.augmented_covariance.calls", "count", "count", "covariance.augmented_covariance.calls"),
    ("covariance.ledoit_wolf.self_s", "s", "self", "covariance.ledoit_wolf"),
    ("spd.frechet_mean.self_s", "s", "self", "spd.frechet_mean"),
    ("spd.frechet_mean.calls", "count", "count", "spd.frechet_mean.calls"),
    ("spd.frechet_mean.iterations", "count", "count", "spd.frechet_mean.iterations"),
    ("spd.symm_fn.self_s", "s", "self", "spd.symm_fn"),
    ("spd.symm_fn.calls", "count", "count", "spd.symm_fn.calls"),
    ("spd.affine_invariant_distance.self_s", "s", "self", "spd.affine_invariant_distance"),
    ("spd.affine_invariant_distance.calls", "count", "count", "spd.affine_invariant_distance.calls"),
    ("classify.grid_search.self_s", "s", "self", "classify.grid_search"),
    ("classify.grid_search.cells", "count", "count", "classify.grid_search.cells"),
    ("classify.tangent_fit.self_s", "s", "self", "classify.tangent_fit"),
    ("classify.tangent_transform_many.self_s", "s", "self", "classify.tangent_transform_many"),
    ("classify.tangent_transform_many.rows", "count", "count", "classify.tangent_transform_many.rows"),
    ("classify.mdm_fit.self_s", "s", "self", "classify.mdm_fit"),
    ("classify.mdm_predict.self_s", "s", "self", "classify.mdm_predict"),
    ("svm.svm_fit.self_s", "s", "self", "svm.svm_fit"),
    ("svm.svm_fit.calls", "count", "count", "svm.svm_fit.calls"),
    ("svm.svm_decision.self_s", "s", "self", "svm.svm_decision"),
    ("embedding.select_tau_ami.self_s", "s", "self", "embedding.select_tau_ami"),
    ("embedding.average_mutual_information.calls", "count", "count",
     "embedding.average_mutual_information.calls"),
    ("embedding.cao_embedding_dimension.self_s", "s", "self", "embedding.cao_embedding_dimension"),
    ("embedding.mdop_unified.self_s", "s", "self", "embedding.mdop_unified"),
    ("evaluate.eval_session_ws.s", "s", "total", "evaluate.eval_session_ws"),
    ("evaluate.eval_holdout_cs.s", "s", "total", "evaluate.eval_holdout_cs"),
]


def span_times(trace):
    """{name: [self seconds, total seconds]} of one traced process; self
    time is a span's duration minus that of its direct children."""
    spans = trace["spans"]
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for i, (name, start, end, _) in enumerate(spans):
        acc = out.setdefault(name, [0.0, 0.0])
        acc[0] += end - start - child[i]
        acc[1] += end - start
    return out


def probe_time(trace):
    return sum(end - start for name, start, end, _ in trace["spans"] if name == PROBE)


def library_time(trace):
    """Time inside traced library calls: root spans other than the import,
    less the probes run inside them."""
    return sum(end - start for name, start, end, parent in trace["spans"]
               if parent < 0 and name != "import.augcov") - probe_time(trace)


def round_layers(traces):
    """Per-layer sums over the traced steps of one round."""
    totals, counters = {}, {}
    for trace in traces:
        for name, (self_s, total_s) in span_times(trace).items():
            acc = totals.setdefault(name, [0.0, 0.0])
            acc[0] += self_s
            acc[1] += total_s
        for name, value in trace["counters"].items():
            counters[name] = counters.get(name, 0) + value
    return totals, counters


def layer_value(how, key, totals, counters, setup_totals):
    if how == "count":
        return float(counters.get(key, 0))
    if how == "setup":
        return setup_totals.get(key, [0.0, 0.0])[1]
    return totals.get(key, [0.0, 0.0])[0 if how == "self" else 1]


# -- the run ------------------------------------------------------------------

def environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    import scipy
    loc = sum(len(p.read_text().splitlines()) for p in (SRC / "augcov").glob("*.py"))
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": blas, "nproc": os.cpu_count(),
        "cpu": cpu, "pinning": PIN, "src_loc": loc,
    }


def median(values):
    return statistics.median(values) if values else 0.0


def _stop(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None):
    # Turn SIGTERM into an exit, so that the running step is killed and
    # reaped on the way out (see run_step).
    signal.signal(signal.SIGTERM, _stop)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not (SRC / "augcov" / "__init__.py").is_file():
        sys.stderr.write(f"no augcov sources under {SRC}; run from a source checkout\n")
        return 2

    run_dir = RUNS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    workers = min(2, os.cpu_count() or 1)
    workload = WORKLOADS[args.workload](args.seed, run_dir, workers)
    env = environment()
    env["workers"] = workers
    print("env " + json.dumps(env, sort_keys=True))

    attempted = failed = 0
    checks = []

    # Warm the file cache and byte-code cache, which users pay once per
    # install, not once per command.
    warm = run_step(Step("warmup", ["-c", "import augcov"], kind="script"), run_dir)
    if not warm.ok:
        sys.stderr.write(f"cannot import augcov, see {run_dir / 'warmup.log'}\n")
        return 2

    setup_walls = []
    for _ in range(SETUP_REPEATS):
        outcomes = [run_step(s, run_dir) for s in workload.setup_steps()]
        attempted += len(outcomes)
        if not all(o.ok for o in outcomes):
            sys.stderr.write(f"input set-up failed, see the logs in {run_dir}\n")
            return 3
        setup_walls.append(sum(o.wall for o in outcomes))
    setup_traces = []
    if args.trace:
        setup_traces = [run_step(s, run_dir, run_dir / f"trace-setup-{s.label}.json").trace
                        for s in workload.setup_steps()]
        attempted += len(setup_traces)
        failed += sum(t is None for t in setup_traces)
        setup_traces = [t for t in setup_traces if t is not None]

    rounds = {False: [], True: []}  # traced? -> [(wall, cpu, rss, traces, probe s)]
    measure_start = time.perf_counter()
    out = run_dir / "out"
    while True:
        done = len(rounds[False]) + len(rounds[True])
        elapsed = time.perf_counter() - measure_start
        typical = median([r[0] for r in rounds[False] + rounds[True]])
        traced = bool(args.trace) and done % 2 == 1
        if done >= (2 if args.trace else 1):
            if elapsed + typical > args.seconds:
                break
            if time.perf_counter() - started + 2 * typical > RUN_BUDGET_S:
                break
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        outcomes = [run_step(s, run_dir, run_dir / f"trace-{s.label}.json" if traced else None)
                    for s in workload.round_steps(out)]
        attempted += len(outcomes)
        failed += sum(not o.ok for o in outcomes)
        round_checks = workload.check_round(out)
        if traced:
            round_checks += workload.check_trace([o.trace for o in outcomes if o.trace])
        checks += round_checks
        rounds[traced].append((
            sum(o.wall for o in outcomes),
            sum(o.cpu for o in outcomes),
            max(o.rss_mb for o in outcomes),
            [o.trace for o in outcomes if o.trace],
            sum(probe_time(o.trace) for o in outcomes if o.trace),
        ))
    checks += workload.check_run()

    attempted += len(checks)
    failed += sum(not passed for _, passed, _ in checks)
    summary = {}
    for name, passed, detail in checks:
        n_ok, n_all, last = summary.get(name, (0, 0, detail))
        summary[name] = (n_ok + passed, n_all + 1, last if passed else detail)
    for name, (n_ok, n_all, detail) in sorted(summary.items()):
        print(f"check {name}: {n_ok}/{n_all} passed; {detail}")

    plain = rounds[False]
    wall = median([r[0] for r in plain])
    cpu = median([r[1] for r in plain])
    print(f"rounds: {len(plain)} untraced, {len(rounds[True])} traced; "
          f"round walls {[round(r[0], 3) for r in plain]}")
    if not args.trace:
        metrics = {
            "wall_s": (wall, "s"),
            "cpu_s": (cpu, "s"),
            "peak_rss_mb": (median([r[2] for r in plain]), "MB"),
            "setup_s": (median(setup_walls), "s"),
        }
    else:
        metrics = layer_metrics(rounds, setup_traces, wall, cpu)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": all(passed for _, passed, _ in checks),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def layer_metrics(rounds, setup_traces, wall, cpu):
    traced = rounds[True]
    setup_totals, _ = round_layers(setup_traces)
    per_round = [round_layers(r[3]) for r in traced]
    missing = sorted({m for r in traced for t in r[3] for m in t["missing"]})
    metrics = {}
    for name, unit, how, key in LAYER_METRICS:
        fn = key if how != "count" else key.rsplit(".", 1)[0]
        if fn in missing:
            print(f"missing: {name} ({fn} no longer exists)")
            metrics[name] = (0.0, unit)
            continue
        metrics[name] = (median([layer_value(how, key, totals, counters, setup_totals)
                                 for totals, counters in per_round]), unit)
    library = median([sum(library_time(t) for t in r[3]) for r in traced])
    traced_wall = median([r[0] - r[4] for r in traced])
    metrics["cli.outside_s"] = (wall - library, "s")
    metrics["cli.untraced_wall_s"] = (wall, "s")
    metrics["cli.untraced_cpu_s"] = (cpu, "s")
    metrics["cli.cores_busy"] = (cpu / wall if wall else 0.0, "cores")
    metrics["trace.library_s"] = (library, "s")
    metrics["trace.overhead_s"] = (traced_wall - wall, "s")

    # Accounting: the self times of the traced library functions add up to
    # the library time, which with the time outside it makes the untraced
    # wall time.
    names = sorted({n for totals, _ in per_round for n in totals} - {PROBE, "import.augcov"})
    selfs = {n: median([totals.get(n, [0.0, 0.0])[0] for totals, _ in per_round])
             for n in names}
    print("median self time per traced round:")
    for name in sorted(names, key=lambda n: -selfs[n]):
        print(f"  {name:45s} {selfs[name]:9.4f} s")
    print(f"accounting: library self times {sum(selfs.values()):.4f} s + "
          f"cli.outside_s {wall - library:.4f} s = untraced wall_s {wall:.4f} s "
          f"(library time {library:.4f} s; tracing overhead {traced_wall - wall:.4f} s)")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
