"""Module layering: a module of the package uses only the public names of
its siblings, so each private helper (spd's block walk, say) has one home,
and no module imports scipy at load time, which would slow every CLI start."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "augcov"


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


def module_level_scipy_imports(path: Path):
    """Lines of the import statements outside any function that load scipy
    or one of its submodules."""
    def scipy_import(node):
        if isinstance(node, ast.Import):
            return any(alias.name.split(".")[0] == "scipy" for alias in node.names)
        return (isinstance(node, ast.ImportFrom) and node.level == 0
                and node.module.split(".")[0] == "scipy")

    found, pending = [], list(ast.parse(path.read_text(), filename=str(path)).body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if scipy_import(node):
            found.append(node.lineno)
        pending += ast.iter_child_nodes(node)
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


def test_no_module_imports_scipy_at_load_time():
    offenders = [f"{path.name}:{line}" for path in sorted(PACKAGE.glob("*.py"))
                 for line in module_level_scipy_imports(path)]
    assert offenders == []


def test_the_check_sees_a_load_time_scipy_import(tmp_path):
    module = tmp_path / "data.py"
    module.write_text("import numpy\nimport scipy.signal\n"
                      "if True:\n    from scipy.special import ndtr\n"
                      "class A:\n    import scipy as sp\n"
                      "def f():\n    import scipy.linalg\n")
    assert module_level_scipy_imports(module) == [2, 4, 6]
