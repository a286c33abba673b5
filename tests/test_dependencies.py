"""rps-forge has no runtime dependencies: the package declares none, and
every absolute import in its modules is the package itself or part of
the standard library."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rps_forge"


def absolute_imports(path: Path) -> set[str]:
    """Top-level names of every absolute import in a module, including
    imports inside functions."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_pyproject_declares_no_dependencies():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_modules_import_only_the_standard_library(path):
    foreign = {
        name
        for name in absolute_imports(path)
        if name != "rps_forge" and name not in sys.stdlib_module_names
    }
    assert not foreign, f"{path.name} imports {sorted(foreign)}"


def test_the_import_scan_sees_third_party_modules(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import json\ndef f():\n    from numpy.linalg import solve\nfrom . import core\n")
    assert absolute_imports(module) == {"json", "numpy"}
