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
import scipy

from . import __version__
from .classify import PARAM_SOURCES, PIPELINE_KINDS, PipelineSpec
from .data import (
    ar_spec_from_dict,
    generate_ar_dataset,
    read_epochset,
    write_epochset,
)
from .embedding import curve_to_csv, estimate_traditional, mdop_unified
from .errors import AugcovError, ConfigError
from .evaluate import (
    EvalReport,
    cross_session_eval,
    grid_map_csv_rows,
    meta_analysis,
    timing_summary,
    within_session_eval,
    write_csv,
)


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
    est.add_argument("--method", choices=("ami_cao", "mdop"), default="ami_cao")
    est.add_argument("--max-lag", type=int, default=10)
    est.add_argument("--bins", type=int, default=16)
    est.add_argument("--max-dim", type=int, default=8)
    est.add_argument("--max-cycles", type=int, default=8)
    est.add_argument("--out", required=True, help="output directory")

    ev = sub.add_parser("evaluate", help="run a pipeline evaluation")
    ev.add_argument("--input", required=True)
    ev.add_argument("--pipeline", choices=PIPELINE_KINDS, required=True)
    ev.add_argument("--param-source", choices=PARAM_SOURCES, default="fixed")
    ev.add_argument("--order", type=int, default=1)
    ev.add_argument("--lag", type=int, default=1)
    ev.add_argument("--eval", dest="eval_mode", choices=("ws", "cs"), default="ws")
    ev.add_argument("--folds", type=int, default=5)
    ev.add_argument("--seed", type=int, required=True)
    ev.add_argument("--grid-max-order", type=int, default=10)
    ev.add_argument("--grid-max-lag", type=int, default=10)
    ev.add_argument("--shrink", choices=("auto", "on", "off"), default="auto")
    ev.add_argument("--svm-c", type=float, default=1.0)
    ev.add_argument("--svm-kernel", choices=("linear", "rbf"), default="linear")
    ev.add_argument("--dataset-id", default="default")
    ev.add_argument("--workers", type=int, default=None,
                    help="worker processes (default: ACM_WORKERS or machine parallelism)")
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
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    }


def _write_manifest(out_dir: Path, command: str, config: dict) -> None:
    manifest = {"command": command, "config": config, "versions": _versions()}
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
    total = sum(len(s.epochs) for s in epoch_set.sessions)
    print(
        f"wrote {args.out}: subject={epoch_set.subject} "
        f"sessions={len(epoch_set.sessions)} epochs={total} "
        f"d={epoch_set.n_channels} T={epoch_set.n_samples} "
        f"classes={epoch_set.class_names}"
    )
    return 0


def _cmd_estimate_params(args) -> int:
    epoch_set = read_epochset(args.input)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    diagnostics = {}
    if args.method == "ami_cao":
        est = estimate_traditional(
            epoch_set, max_lag=args.max_lag, bins=args.bins, max_dim=args.max_dim
        )
        ami_path = out_dir / "ami_curve.csv"
        e1_path = out_dir / "cao_e1_curve.csv"
        curve_to_csv(est.ami_curve, ami_path)
        curve_to_csv(est.e1_curve, e1_path)
        diagnostics = {"ami_curve": str(ami_path), "cao_e1_curve": str(e1_path)}
    else:
        est = mdop_unified(
            epoch_set, max_cycles=args.max_cycles, max_lag=args.max_lag
        )
        lag_path = out_dir / "mdop_cycle_lags.csv"
        write_csv(
            [["cycle", "lag"]] + [[i + 1, lag] for i, lag in enumerate(est.cycle_lags)],
            lag_path,
        )
        diagnostics = {"cycle_lags": str(lag_path)}
    payload = {
        "tau": est.tau,
        "D": est.dim,
        "method": est.method,
        "flags": list(est.flags),
        "diagnostics": diagnostics,
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      allow_nan=False) + "\n"
    (out_dir / "params.json").write_text(text)
    sys.stdout.write(text)
    _write_manifest(out_dir, "estimate-params", {
        "input": args.input, "method": args.method, "max_lag": args.max_lag,
        "bins": args.bins, "max_dim": args.max_dim, "max_cycles": args.max_cycles,
    })
    return 0


def _resolve_workers(args) -> int:
    if args.workers is not None:
        return max(1, args.workers)
    env = os.environ.get("ACM_WORKERS")
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


def _cmd_evaluate(args) -> int:
    epoch_set = read_epochset(args.input)
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
    workers = _resolve_workers(args)
    if args.eval_mode == "ws":
        report = within_session_eval(epoch_set, spec, args.folds, args.seed,
                                     args.dataset_id, workers)
    else:
        report = cross_session_eval(epoch_set, spec, args.seed, args.dataset_id, workers)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").write_text(report.to_json())
    write_csv(report.scores_csv_rows(), out_dir / "scores.csv")
    write_csv(report.timings_csv_rows(), out_dir / "timing.csv")
    write_csv(timing_summary(report), out_dir / "timing_summary.csv")
    for session, split, grid in report.grid_maps:
        stem = f"gridmap_{session}_{split}".replace(":", "_")
        write_csv(grid_map_csv_rows(grid), out_dir / f"{stem}.csv")
        (out_dir / f"{stem}.svg").write_text(_grid_svg(grid))
    _write_manifest(out_dir, "evaluate", {
        "input": args.input, "pipeline": args.pipeline,
        "param_source": args.param_source, "order": args.order, "lag": args.lag,
        "eval": args.eval_mode, "folds": args.folds, "seed": args.seed,
        "grid_max_order": args.grid_max_order, "grid_max_lag": args.grid_max_lag,
        "shrink": args.shrink, "svm_c": args.svm_c, "svm_kernel": args.svm_kernel,
        "dataset_id": args.dataset_id,
    })
    print(
        f"{report.pipeline} [{report.eval_mode}] on {args.input}: "
        f"{report.mean:.4f} +/- {report.std:.4f} over {len(report.scores)} splits"
    )
    return 0


def _grid_svg(grid) -> str:
    """Minimal heatmap over (order, lag): best score across classifier params."""
    best = {}
    for cell in grid.cells:
        if not cell.valid or cell.score is None:
            continue
        key = (cell.order, cell.lag)
        if key not in best or cell.score > best[key]:
            best[key] = cell.score
    orders = sorted({o for o, _ in best} | {c.order for c in grid.cells})
    lags = sorted({l for _, l in best} | {c.lag for c in grid.cells})
    size, margin = 28, 40
    width = margin + size * len(lags) + 10
    height = margin + size * len(orders) + 10
    scores = list(best.values())
    lo, hi = (min(scores), max(scores)) if scores else (0.0, 1.0)
    span = (hi - lo) or 1.0
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<text x="2" y="12" font-size="10">score {lo:.3f}..{hi:.3f} '
        f'(best order={grid.best_order} lag={grid.best_lag})</text>',
    ]
    for r, order in enumerate(orders):
        parts.append(
            f'<text x="2" y="{margin + r * size + size * 0.7:.0f}" font-size="9">'
            f'p={order}</text>'
        )
        for c, lag in enumerate(lags):
            x, y = margin + c * size, margin + r * size
            if (order, lag) in best:
                frac = (best[(order, lag)] - lo) / span
                shade = int(255 * (1.0 - frac))
                fill = f"rgb({shade},{shade},255)"
            else:
                fill = "rgb(230,230,230)"
            parts.append(
                f'<rect x="{x}" y="{y}" width="{size - 2}" height="{size - 2}" '
                f'fill="{fill}"/>'
            )
    for c, lag in enumerate(lags):
        parts.append(
            f'<text x="{margin + c * size + 6}" y="{margin - 6}" font-size="9">'
            f't={lag}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


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
        _write_manifest(out_dir, "stats", {
            "reports": list(args.reports), "seed": args.seed,
        })
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
