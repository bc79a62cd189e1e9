"""Run one augcov CLI command (or an input-building script) with spans
recorded around the calls into each module's public functions.

Usage:
    python3 bench/tracer.py OUT.json cli ARGS...       # like `augcov ARGS...`
    python3 bench/tracer.py OUT.json script PATH ARGS...

The package is not modified: after `import augcov.cli` the wrappers are
installed at every module attribute that holds one of the traced functions,
so `frechet_mean` is wrapped both in `augcov.spd` and in `augcov.classify`,
where `mdm_fit` looks it up. Spans (name, start, end, parent) stay in memory
and are written to OUT.json when the command ends, together with counters,
the names of traced functions that no longer exist, and the results of
probes that check library outputs with numpy/scipy alone. Probes run in
spans of their own, so their time can be taken out of the traced wall time
and out of the self time of the span around them.
"""

from __future__ import annotations

import functools
import json
import os
import runpy
import sys
from time import perf_counter

# Span of the benchmark's own work after a traced call (counting, checks);
# it is not library time.
PROBE = "trace.probe"

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

# (module, public function) pairs timed by the trace.
TRACED = (
    ("data", "generate_ar_dataset"),
    ("data", "write_epochset"),
    ("data", "read_epochset"),
    ("covariance", "augmented_covariance"),
    ("covariance", "ledoit_wolf"),
    ("spd", "frechet_mean"),
    ("spd", "symm_fn"),
    ("spd", "affine_invariant_distance"),
    ("classify", "grid_search"),
    ("classify", "tangent_fit"),
    ("classify", "tangent_transform_many"),
    ("classify", "mdm_fit"),
    ("classify", "mdm_predict"),
    ("svm", "svm_fit"),
    ("svm", "svm_decision"),
    ("embedding", "select_tau_ami"),
    ("embedding", "average_mutual_information"),
    ("embedding", "cao_embedding_dimension"),
    ("embedding", "mdop_unified"),
    ("evaluate", "eval_session_ws"),
    ("evaluate", "eval_holdout_cs"),
)


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []  # indices of open spans
        self.counters = {}
        self.probes = []
        self.missing = []

    def count(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def open(self, name, start):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, start, None, parent])
        self.stack.append(len(self.spans) - 1)

    def close(self, end):
        self.spans[self.stack.pop()][2] = end

    def inside(self, name):
        return any(self.spans[i][0] == name for i in self.stack)

    def wrap(self, name, fn, after=None):
        calls = name + ".calls"
        counts_exp = name == "spd.symm_fn"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.count(calls)
            if counts_exp and _fn_arg(args, kwargs) == "exp" \
                    and self.inside("spd.frechet_mean"):
                self.count("spd.frechet_mean.iterations")
            self.open(name, perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(perf_counter())
            if after is not None:
                self.open(PROBE, perf_counter())
                try:
                    after(self, args, kwargs, result)
                finally:
                    self.close(perf_counter())
            return result

        return traced

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({
                "spans": self.spans,
                "counters": self.counters,
                "probes": self.probes,
                "missing": self.missing,
            }, fh)


def _fn_arg(args, kwargs):
    return args[1] if len(args) > 1 else kwargs.get("fn")


def _after_grid_search(tracer, args, kwargs, result):
    tracer.count("classify.grid_search.cells", len(result.cells))


def _after_tangent_transform_many(tracer, args, kwargs, result):
    tracer.count("classify.tangent_transform_many.rows", len(result))


def _after_mdm_fit(tracer, args, kwargs, model):
    """Riemannian stationarity of every class mean, checked apart from
    augcov: |mean_i log(M^-1/2 P_i M^-1/2)|_F must vanish at the mean."""
    import numpy as np

    import reference

    covs, labels = args[0], np.asarray(args[1])
    for cls, mean in zip(model.class_labels, model.class_means):
        members = [c.values for c, y in zip(covs, labels) if y == cls]
        tracer.probes.append({
            "probe": "mdm_class_mean_stationarity",
            "class": int(cls),
            "dim": int(mean.values.shape[0]),
            "n": len(members),
            "whitened_gradient_norm": reference.riemannian_gradient_norm(
                np.asarray(mean.values), members),
        })


AFTER = {
    "classify.grid_search": _after_grid_search,
    "classify.tangent_transform_many": _after_tangent_transform_many,
    "classify.mdm_fit": _after_mdm_fit,
}


def install(tracer):
    """Wrap every traced function at each place callers look it up."""
    import augcov

    modules = [augcov] + [
        mod for key, mod in sorted(sys.modules.items())
        if key.startswith("augcov.") and mod is not None
    ]
    for mod_name, fn_name in TRACED:
        name = f"{mod_name}.{fn_name}"
        home = sys.modules.get(f"augcov.{mod_name}")
        original = getattr(home, fn_name, None) if home is not None else None
        if not callable(original):
            tracer.missing.append(name)
            continue
        wrapper = tracer.wrap(name, original, AFTER.get(name))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)


def main(argv):
    out_path, kind, rest = argv[0], argv[1], argv[2:]
    tracer = Tracer()
    t0 = perf_counter()
    import augcov.cli
    tracer.spans.append(["import.augcov", t0, perf_counter(), -1])
    install(tracer)
    code = 0
    try:
        if kind == "cli":
            code = augcov.cli.main(rest)
        elif kind == "script":
            sys.argv = rest
            runpy.run_path(rest[0], run_name="__main__")
        else:
            raise SystemExit(f"unknown target kind {kind!r}")
    except SystemExit as exc:
        code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
    finally:
        tracer.dump(out_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
