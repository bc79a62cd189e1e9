"""Module layering: a module of the package uses only the public names of
its siblings, so each private helper (spd's block walk, say) has one home;
no module imports scipy, even inside a function; and the third-party
modules the package imports are the runtime dependencies pyproject.toml
declares."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "augcov"


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
