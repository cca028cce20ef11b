import ast
import importlib
import sys

import pytest

from conftest import REPO


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib needs 3.11")
def test_console_scripts_resolve():
    """Every [project.scripts] entry names an importable callable."""
    import tomllib

    with open(REPO / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    for name, target in project.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


def test_package_has_no_assert_statements():
    """Correctness checks must raise named errors: `python -O` strips
    assert statements."""
    found = []
    for path in sorted((REPO / "src" / "shuttleplan").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_package_has_no_broad_except():
    """A handler must name the errors it expects: a bare `except:` or an
    `except Exception` hides the defect that raised."""
    broad = {"Exception", "BaseException"}
    found = []
    for path in sorted((REPO / "src" / "shuttleplan").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            caught = node.type.elts if isinstance(node.type, ast.Tuple) \
                else [node.type]
            if any(t is None or (isinstance(t, ast.Name) and t.id in broad)
                   for t in caught):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


# Module-level names that nothing in the package or the benchmark refers to,
# each kept for the reason given.
ENTRY_POINTS = {
    "layout_for": "reads the LAYOUT section, which the data-layout search "
                  "will write",
    "route_successors": "the tests' only view of one expansion of the "
                        "inline successor loop",
}


def test_every_package_name_has_a_caller():
    """A module-level def or class must be referenced by name, as an
    attribute or in an import somewhere in the package or the benchmark,
    or be listed in ENTRY_POINTS."""
    package = sorted((REPO / "src" / "shuttleplan").glob("*.py"))
    defined: dict[str, str] = {}
    referenced: set[str] = set()
    for path in package + sorted((REPO / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        if path in package:
            defined.update(
                (node.name, f"{path.stem}.{node.name}") for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    assert set(ENTRY_POINTS) <= set(defined)
    unused = sorted(where for name, where in defined.items()
                    if name not in referenced and name not in ENTRY_POINTS)
    assert unused == []
