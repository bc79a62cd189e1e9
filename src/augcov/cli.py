"""Command-line front end: simulate synthetic datasets, estimate stacking
parameters, run evaluations and combine reports into a meta-analysis.

Every command is deterministic given its inputs and seed. Exit codes:
0 success, 2 user/config error, 3 numerical failure; errors are emitted as
one JSON object on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import embedding as emb
from .classify import PARAM_SOURCES, PIPELINE_KINDS, PipelineSpec
from .data import (
    ar_spec_from_dict,
    generate_ar_dataset,
    read_epochset,
    write_epochset,
)
from .errors import AugcovError, ConfigError
from .evaluate import (
    EvalReport,
    canonical_json,
    cross_session_eval,
    grid_map_csv_rows,
    meta_analysis,
    within_session_eval,
    write_csv,
)
from .svm import KERNELS


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="augcov",
        description="Augmented-covariance epoch classification toolbox",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate a synthetic AR dataset container")
    sim.add_argument("--spec-json", required=True,
                     help="generator spec as inline JSON, or @path to a JSON file")
    sim.add_argument("--out", required=True, help="output container path")

    est = sub.add_parser("estimate-params", help="estimate (tau, D) from a container")
    est.add_argument("--input", required=True)
    est.add_argument("--method", choices=emb.METHODS, default="ami_cao")
    est.add_argument("--max-lag", type=int, default=emb.MDOP_DEFAULT_MAX_LAG)
    est.add_argument("--bins", type=int, default=emb.AMI_DEFAULT_BINS)
    est.add_argument("--max-dim", type=int, default=emb.CAO_DEFAULT_MAX_DIM)
    est.add_argument("--max-cycles", type=int, default=emb.MDOP_DEFAULT_MAX_CYCLES)
    est.add_argument("--out", required=True, help="output directory")

    ev = sub.add_parser("evaluate", help="run a pipeline evaluation")
    ev.add_argument("--input", required=True)
    ev.add_argument("--pipeline", choices=PIPELINE_KINDS, required=True)
    ev.add_argument("--param-source", choices=PARAM_SOURCES, default="fixed")
    ev.add_argument("--order", type=int, default=1)
    ev.add_argument("--lag", type=int, default=1)
    ev.add_argument("--eval", choices=("ws", "cs"), default="ws")
    ev.add_argument("--folds", type=int, default=5)
    ev.add_argument("--seed", type=int, required=True)
    ev.add_argument("--grid-max-order", type=int, default=10)
    ev.add_argument("--grid-max-lag", type=int, default=10)
    ev.add_argument("--shrink", choices=("auto", "on", "off"), default="auto")
    ev.add_argument("--svm-c", type=float, default=1.0)
    ev.add_argument("--svm-kernel", choices=KERNELS, default="linear")
    ev.add_argument("--dataset-id", default="default")
    ev.add_argument("--workers", type=int, default=os.cpu_count() or 1,
                    help="worker processes (default: machine parallelism)")
    ev.add_argument("--out", required=True, help="output directory")

    st = sub.add_parser("stats", help="meta-analysis over evaluation reports")
    st.add_argument("reports", nargs="+", help="report.json paths (>= 2)")
    st.add_argument("--seed", type=int, default=0)
    st.add_argument("--out", default=None, help="output directory (default: stdout only)")
    return parser


def _error_json(exc: BaseException) -> str:
    return json.dumps({"error": type(exc).__name__, "message": str(exc)})


def _versions() -> dict:
    return {
        "augcov": __version__,
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def _write_manifest(out_dir: Path, args) -> None:
    """manifest.json: the command, every parsed setting but the output
    directory and the worker count (neither changes a result), and the
    versions."""
    config = {key: value for key, value in vars(args).items()
              if key not in ("command", "out", "workers")}
    manifest = {"command": args.command, "config": config, "versions": _versions()}
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n"
    )


def _cmd_simulate(args) -> int:
    raw = args.spec_json
    if raw.startswith("@"):
        raw = Path(raw[1:]).read_text()
    spec = ar_spec_from_dict(json.loads(raw))
    epoch_set = generate_ar_dataset(spec)
    write_epochset(epoch_set, args.out)
    total, d, t = epoch_set.epochs.shape
    print(
        f"wrote {args.out}: subject={epoch_set.subject} "
        f"sessions={len(epoch_set.sessions)} epochs={total} "
        f"d={d} T={t} "
        f"classes={epoch_set.class_names}",
        file=sys.stderr,
    )
    return 0


def _cmd_estimate_params(args) -> int:
    est = emb.estimate(read_epochset(args.input).all_epochs()[0], args.method,
                       max_lag=args.max_lag, bins=args.bins, max_dim=args.max_dim,
                       max_cycles=args.max_cycles)
    # diagnostics key: (file name, header, values numbered from 1)
    if est.method == "ami_cao":
        tables = {"ami_curve": ("ami_curve.csv", ["lag", "value"], est.ami_curve.tolist()),
                  "cao_e1_curve": ("cao_e1_curve.csv", ["lag", "value"], est.e1_curve.tolist())}
    else:
        tables = {"cycle_lags": ("mdop_cycle_lags.csv", ["cycle", "lag"], est.cycle_lags)}
    # made only once there is an estimate, so a rejected run leaves nothing
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    diagnostics = {}
    for key, (name, header, values) in tables.items():
        write_csv([header, *([i, v] for i, v in enumerate(values, start=1))], out_dir / name)
        diagnostics[key] = str(out_dir / name)
    payload = {
        "tau": est.tau,
        "D": est.dim,
        "method": est.method,
        "flags": list(est.flags),
        "diagnostics": diagnostics,
    }
    text = canonical_json(payload)
    (out_dir / "params.json").write_text(text)
    sys.stdout.write(text)
    _write_manifest(out_dir, args)
    return 0


def _cmd_evaluate(args) -> int:
    spec = PipelineSpec(
        kind=args.pipeline,
        param_source=args.param_source,
        order=args.order,
        lag=args.lag,
        shrink={"auto": None, "on": True, "off": False}[args.shrink],
        svm_c=args.svm_c,
        svm_kernel=args.svm_kernel,
        grid_orders=tuple(range(1, args.grid_max_order + 1)),
        grid_lags=tuple(range(1, args.grid_max_lag + 1)),
        inner_folds=args.folds,
    )
    epoch_set = read_epochset(args.input)
    if args.eval == "ws":
        report = within_session_eval(epoch_set, spec, args.folds, args.seed,
                                     args.dataset_id, args.workers)
    else:
        report = cross_session_eval(epoch_set, spec, args.seed, args.dataset_id,
                                    args.workers)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").write_text(report.to_json())
    write_csv(report.scores_csv_rows(), out_dir / "scores.csv")
    write_csv(report.timings_csv_rows(), out_dir / "timing.csv")
    for session, split, grid in report.grid_maps:
        stem = f"gridmap_{session}_{split}".replace(":", "_")
        write_csv(grid_map_csv_rows(grid), out_dir / f"{stem}.csv")
    _write_manifest(out_dir, args)
    print(
        f"{report.pipeline} [{report.eval_mode}] on {args.input}: "
        f"{report.mean:.4f} +/- {report.std:.4f} over {len(report.scores)} splits"
    )
    return 0


def _cmd_stats(args) -> int:
    if len(args.reports) < 2:
        raise ConfigError("stats needs at least two report files")
    reports = [EvalReport.from_json(Path(p).read_text()) for p in args.reports]
    meta = meta_analysis(reports, seed=args.seed)
    text = meta.to_json()
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "meta.json").write_text(text)
        _write_manifest(out_dir, args)
    sys.stdout.write(text)
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "estimate-params": _cmd_estimate_params,
    "evaluate": _cmd_evaluate,
    "stats": _cmd_stats,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except AugcovError as exc:
        sys.stderr.write(_error_json(exc) + "\n")
        return 2 if isinstance(exc, ConfigError) else 3
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        sys.stderr.write(_error_json(exc) + "\n")
        return 2


def entry() -> None:
    raise SystemExit(main(sys.argv[1:]))
