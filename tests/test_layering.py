"""Module layering: a module of the package uses only the public names of
its siblings, so each private helper (spd's block walk, say) has one home."""

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
