"""Module layering: a module of the package uses only the public names of
its siblings, so each private helper (spd's block walk, say) has one home;
no module imports scipy, even inside a function; the third-party modules
the package imports are the runtime dependencies pyproject.toml declares;
each public name has one import path, its defining module; each public
function or class, and each public method or property of a public class,
has a caller in the package, the README Library snippet or the benchmark;
and every augcov name the benchmark uses, or the README quotes, exists."""

import ast
import functools
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "augcov"
README = ROOT / "README.md"
BENCH = ROOT / "bench"


def private_imports(path: Path):
    """(line, module, name) of each private name (underscore-prefixed, not a
    dunder such as __version__) that the file imports from the package or a
    sibling module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found += [(node.lineno, node.module, alias.name) for alias in node.names
                      if alias.name.startswith("_") and not alias.name.endswith("__")]
    return found


def absolute_imports(path: Path):
    """(line, top-level name) of each absolute import in the file, function
    bodies included."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module.split(".")[0]))
    return sorted(found)


def test_no_module_imports_a_private_name_of_a_sibling():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    offenders = [f"{path.name}:{line} imports {name} from .{module or ''}"
                 for path in modules for line, module, name in private_imports(path)]
    assert offenders == []


def test_the_check_sees_a_private_import(tmp_path):
    module = tmp_path / "classify.py"
    module.write_text("from .spd import SpdMatrix, _blocks\nfrom . import _spd, __version__\n")
    assert private_imports(module) == [(1, "spd", "_blocks"), (2, None, "_spd")]


def test_no_module_imports_scipy():
    offenders = [f"{path.name}:{line}" for path in sorted(PACKAGE.glob("*.py"))
                 for line, name in absolute_imports(path) if name == "scipy"]
    assert offenders == []


def test_the_check_sees_every_scipy_import(tmp_path):
    module = tmp_path / "data.py"
    module.write_text("import numpy\nimport scipy.signal\n"
                      "if True:\n    from scipy.special import ndtr\n"
                      "class A:\n    import scipy as sp\n"
                      "def f():\n    import scipy.linalg\n"
                      "from . import spd\n")
    assert absolute_imports(module) == [(1, "numpy"), (2, "scipy"), (4, "scipy"),
                                        (6, "scipy"), (8, "scipy")]


def test_third_party_imports_are_the_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(ROOT / "pyproject.toml", "rb") as fh:
        declared = tomllib.load(fh)["project"]["dependencies"]
    names = {re.match(r"[A-Za-z0-9_.-]+", dep).group().lower().replace("-", "_")
             for dep in declared}
    imported = {name for path in PACKAGE.glob("*.py") for _, name in absolute_imports(path)
                if name not in sys.stdlib_module_names}
    assert imported == names == {"numpy"}


def referenced_names(source: str) -> set:
    """Every identifier the code reads or calls, as an ast Name or Attribute."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Name, ast.Attribute))}


def uncalled_public_names(modules, callers=()):
    """file:name of each public top-level function or class of the modules,
    and file:Class.name of each public method or property of a public
    class, that neither the modules nor the caller sources reference."""
    used = set().union(*map(referenced_names, [*callers, *(p.read_text() for p in modules)]))
    found = []
    for path in modules:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name[0] != "_":
                members = node.body if isinstance(node, ast.ClassDef) else []
                found += [f"{path.name}:{name}" for name in [node.name] if name not in used]
                found += [f"{path.name}:{node.name}.{m.name}" for m in members
                          if isinstance(m, ast.FunctionDef) and m.name[0] != "_"
                          and m.name not in used]
    return found


def library_callers():
    """The README Library snippet and the benchmark's sources."""
    (snippet,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    return [snippet, *(path.read_text() for path in sorted(BENCH.glob("*.py")))]


def test_every_public_name_has_a_caller():
    assert uncalled_public_names(sorted(PACKAGE.glob("*.py")), library_callers()) == []


def test_the_check_sees_an_uncalled_name(tmp_path):
    (tmp_path / "a.py").write_text("class Used:\n    def go(self):\n        pass\n\n"
                                   "    @property\n    def size(self):\n        pass\n\n"
                                   "    def _inner(self):\n        pass\n\n"
                                   "def helper():\n    return Used().go()\n\n"
                                   "def orphan():\n    pass\n\n"
                                   "def _private():\n    pass\n\n"
                                   "def shown():\n    pass\n")
    (tmp_path / "b.py").write_text("from . import a\n\nclass Lonely:\n    pass\n\n"
                                   "def run():\n    return a.helper()\n")
    modules = [tmp_path / "a.py", tmp_path / "b.py"]
    assert uncalled_public_names(modules, ["from a import shown\nshown()\nb.run()\n"]) \
        == ["a.py:Used.size", "a.py:orphan", "b.py:Lonely"]
    assert uncalled_public_names(modules, ["shown()\nb.run()\n", "x.size + orphan()\n"]) \
        == ["b.py:Lonely"]


def _as_code(text: str):
    try:
        return ast.parse(text)
    except SyntaxError:
        return None


def _dotted(node) -> str | None:
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else None


def augcov_names_used(sources) -> set:
    """Dotted augcov names that the sources import or read: imports, also in
    string constants that are Python code (a `python -c` command), and
    attribute chains off the package, such as augcov.cli.main."""
    trees = [ast.parse(source) for source in sources]
    trees += [code for tree in list(trees) for node in ast.walk(tree)
              if isinstance(node, ast.Constant) and isinstance(node.value, str)
              and "augcov" in node.value and (code := _as_code(node.value)) is not None]
    names = set()
    for node in (node for tree in trees for node in ast.walk(tree)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "augcov":
            names |= {f"{node.module}.{alias.name}" for alias in node.names}
        elif isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names if alias.name.split(".")[0] == "augcov"}
        elif isinstance(node, ast.Attribute) and (_dotted(node) or "").startswith("augcov."):
            names.add(_dotted(node))
    return names


def resolves(dotted: str) -> bool:
    """Whether a dotted name is a module, or an attribute path off one."""
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        try:
            module = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        try:
            functools.reduce(getattr, parts[i:], module)
        except AttributeError:
            return False
        return True
    return False


def test_every_augcov_name_the_benchmark_uses_exists():
    """bench/ changes only with the benchmark, so a library name it uses
    must outlive any other change: deleting one fails every run."""
    used = augcov_names_used(path.read_text() for path in sorted(BENCH.glob("*.py")))
    assert {"augcov.covariance.Epoch", "augcov.covariance.augmented_covariance",
            "augcov.covariance.AugmentedParams", "augcov.data.EpochSet", "augcov.data.Session",
            "augcov.data.write_epochset", "augcov.cli.main", "augcov.cli.entry"} <= used
    assert sorted(name for name in used if not resolves(name)) == []


def test_the_check_sees_a_missing_benchmark_name():
    source = ("import augcov.cli\nfrom augcov.spd import frechet_mean, gone\n"
              "augcov.cli.main([])\naugcov.cli.lost()\n"
              "BOOT = 'import sys; from augcov.data import missing'\nTEXT = 'no augcov code'\n")
    used = augcov_names_used([source])
    assert used == {"augcov.cli", "augcov.spd.frechet_mean", "augcov.spd.gone",
                    "augcov.cli.main", "augcov.cli.lost", "augcov.data.missing"}
    assert sorted(name for name in used if not resolves(name)) == [
        "augcov.cli.lost", "augcov.data.missing", "augcov.spd.gone"]


def readme_module_names(text: str) -> set:
    """augcov.<module>.<name...> of each `module.name` that the text quotes
    in backticks outside code blocks, with or without the augcov prefix and
    maybe with a call after the name, such as `embedding.estimate(epochs)`."""
    modules = "|".join(path.stem for path in PACKAGE.glob("*.py") if path.stem[0] != "_")
    pattern = re.compile(rf"(?:augcov\.)?((?:{modules})(?:\.\w+)+)")
    prose = re.sub(r"```.*?```", "", text, flags=re.S)
    return {f"augcov.{match.group(1)}" for quoted in re.findall(r"`([^`]+)`", prose)
            if (match := pattern.match(quoted))}


def test_every_module_name_the_readme_quotes_exists():
    """A README sentence that quotes `module.name` goes stale when the name
    is renamed or deleted, so each such name must resolve."""
    quoted = readme_module_names(README.read_text())
    assert {"augcov.spd.MEAN_TOL", "augcov.classify.stratified_folds",
            "augcov.covariance.resolve_shrink", "augcov.embedding.estimate"} <= quoted
    assert sorted(name for name in quoted if not resolves(name)) == []


def test_the_check_sees_a_stale_readme_name():
    text = ("Call `classify.fit_model(spec,\nepochs)`, read `spd.MEAN_TOL` and\n"
            "```sh\nsvm.gone `x`\n```\n"
            "`augcov.cli.main`; `PipelineSpec.name`, `other.x` and spd.gone name no module.\n")
    quoted = readme_module_names(text)
    assert quoted == {"augcov.classify.fit_model", "augcov.spd.MEAN_TOL",
                      "augcov.cli.main"}
    assert sorted(name for name in quoted if not resolves(name)) == [
        "augcov.classify.fit_model"]


LIBRARY = ("classify", "covariance", "data", "embedding", "errors", "evaluate", "spd",
           "stats", "svm")

IMPORT_GRAPH = """
import json, sys
import augcov
root = sorted(name for name in vars(augcov) if not name.startswith("__"))
version = augcov.__version__
def loaded():
    return sorted(name for name in sys.modules if name.startswith("augcov."))
import augcov.covariance, augcov.data
data_path = loaded()
import augcov.cli
print(json.dumps({"root": root, "version": version, "data_path": data_path,
                  "cli": loaded()}))
"""


def test_each_module_loads_only_what_it_imports():
    """In a fresh interpreter: the package root binds only __version__, so
    `import augcov.data` loads data and its dependencies, not the
    classifiers, the protocols or the CLI; `import augcov.cli` loads every
    library module, which the benchmark's tracer wraps after that import."""
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run([sys.executable, "-c", IMPORT_GRAPH], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    graph = json.loads(out)
    assert graph["root"] == [] and graph["version"]
    heavy = {f"augcov.{name}" for name in ("classify", "evaluate", "embedding", "svm",
                                           "stats", "cli")}
    assert "augcov.data" in graph["data_path"] and not heavy & set(graph["data_path"])
    assert {f"augcov.{name}" for name in LIBRARY + ("cli",)} <= set(graph["cli"])
