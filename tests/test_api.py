"""The public surface has callers: every public function and class of
the solver modules is used by the package or the benchmark, or is
documented in the README."""

import ast
import importlib
import inspect
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = ["potentials", "radial", "spectrum", "poletheorem", "onedim", "separable"]
# the full-grid Jost sweep that the windowed-sweep tests compare against
EXEMPT = {"solve_jost_reduced"}


def _references(path: Path) -> set:
    """Every name a module reads: its Name and Attribute nodes and the
    names it imports from other modules. A def or class statement binds
    its name without reading it, so it does not count."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_public_name_has_a_caller():
    files = [*(ROOT / "src" / "polewave").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    used = set().union(*map(_references, files))
    documented = set(re.findall(r"\w+", (ROOT / "README.md").read_text()))
    uncalled = []
    for short in MODULES:
        module = importlib.import_module(f"polewave.{short}")
        for name, obj in vars(module).items():
            if name.startswith("_") or name in EXEMPT:
                continue
            if not (inspect.isfunction(obj) or inspect.isclass(obj)):
                continue
            if obj.__module__ == module.__name__ and name not in used | documented:
                uncalled.append(f"{short}.{name}")
    assert uncalled == []
