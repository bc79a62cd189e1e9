"""The README's Library snippet runs as written, against a small copy of
the README's `sim01` dataset, so its imports follow the modules."""

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
