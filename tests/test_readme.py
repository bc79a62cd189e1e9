"""The README's Library snippet runs as written, against a small copy of
the README's `sim01` dataset, so its imports follow the modules; the CI
workflow runs the ROADMAP's tier-1 command as written."""

import json
import re
from pathlib import Path

from augcov.data import ar_spec_from_dict, generate_ar_dataset, write_epochset

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_snippet_runs(tmp_path, monkeypatch):
    text = README.read_text()
    spec = json.loads(re.search(r"<<'JSON'\n(.*?)\nJSON\n", text, re.S).group(1))
    assert spec["subject"] == "sim01"
    epoch_set = generate_ar_dataset(ar_spec_from_dict({**spec, "epochs_per_class": 10}))
    write_epochset(epoch_set, tmp_path / "sim01.acm")
    (snippet,) = re.findall(r"```python\n(.*?)```", text, re.S)
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(snippet, "README.md", "exec"), namespace)
    assert namespace["cov"].dim == 8
    assert len(namespace["report"].scores) == 2 * 5  # sessions x folds


def test_ci_runs_the_roadmap_tier1_command():
    """The CI workflow parses, installs the test extras on Python 3.11 and
    runs the ROADMAP's tier-1 command as written, over every test, with an
    unclosed file as an error, then the README's pipe from simulate
    into a cs evaluate (failing on a non-zero exit anywhere in the pipe or
    a report that is not strict JSON), then each benchmark workload once,
    and uploads every bench log even when a step failed."""
    import pytest

    yaml = pytest.importorskip("yaml")
    root = README.parent
    (command,) = re.findall(r"\*\*Tier-1 verify:\*\* `([^`]+)`", (root / "ROADMAP.md").read_text())
    workflow = yaml.safe_load((root / ".github" / "workflows" / "ci.yml").read_text())
    steps = workflow["jobs"]["test"]["steps"]
    runs = [step.get("run", "") for step in steps]
    assert {"python-version": "3.11"} in [step.get("with") for step in steps]
    assert 'python -m pip install -e ".[test]"' in runs
    strict = "-W error::ResourceWarning -W error::pytest.PytestUnraisableExceptionWarning"
    assert f"{command} {strict}" in runs
    assert [run for run in runs if "python -m pytest" in run] == [f"{command} {strict}"]
    pipe = next(run for run in runs if "--out /dev/stdout" in run)
    assert "set -o pipefail" in pipe and "| augcov evaluate --input /dev/stdin" in pipe
    assert "--eval cs" in pipe and "parse_constant" in pipe
    bench = next(run for run in runs if "bench/run.py" in run)
    assert "for w in grid-svm eeg-mdm estimate" in bench
    assert "--seed 1 --seconds 1 --trace 0" in bench
    upload = next(step for step in steps if "upload-artifact" in step.get("uses", ""))
    assert upload["if"] == "always()" and upload["with"]["path"].endswith("/bench-*.log")
