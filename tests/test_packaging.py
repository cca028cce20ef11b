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
