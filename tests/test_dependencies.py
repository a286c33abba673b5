"""rps-forge has no runtime dependencies: the package declares none, and
every absolute import in its modules is the package itself or part of
the standard library.  Its public surface carries no more defaulted
parameters than it did when each option no caller varied became a
constant."""

import ast
import dataclasses
import importlib
import inspect
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


# Options that every caller leaves at one value become module constants,
# so the defaulted public parameters only ever fall.  Lower this bound when
# one goes; never raise it to let one in.
MAX_DEFAULTED_PUBLIC_PARAMETERS = 17


def defaulted_public_parameters() -> list[str]:
    """Each defaulted parameter of a public function or of a public method
    of a public class, and each defaulted field of a public dataclass,
    over the names each module of the package defines, the CLI aside."""
    found = []

    def defaulted(owner: str, fn) -> None:
        found.extend(
            f"{owner}({p.name})"
            for p in inspect.signature(fn).parameters.values()
            if p.default is not p.empty
        )

    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem in ("__init__", "cli"):
            continue
        module = importlib.import_module(f"rps_forge.{path.stem}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                defaulted(name, obj)
            elif inspect.isclass(obj):
                if dataclasses.is_dataclass(obj):
                    found.extend(
                        f"{name}.{f.name}"
                        for f in dataclasses.fields(obj)
                        if f.default is not dataclasses.MISSING
                        or f.default_factory is not dataclasses.MISSING
                    )
                for attr, member in vars(obj).items():
                    if not attr.startswith("_") and inspect.isfunction(member):
                        defaulted(f"{name}.{attr}", member)
    return found


def test_defaulted_public_parameters_do_not_grow():
    found = defaulted_public_parameters()
    assert len(found) <= MAX_DEFAULTED_PUBLIC_PARAMETERS, found


def test_the_parameter_count_sees_every_kind():
    found = defaulted_public_parameters()
    # a function's, a public method's and a dataclass field's default
    assert {"solve_symmetric_rps3(tol)", "Poly2.eval_box(bits)", "SearchConfig.eps"} <= set(found)
    # private helpers, imported names and the CLI are left out
    assert not any(name.startswith("_") for name in found)
    assert "main(argv)" not in found
