import ast
import importlib
import json
import subprocess
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


def test_package_parses_as_python_3_10():
    """pyproject.toml requires Python >= 3.10, so no module may use later
    syntax (``except*``, type parameter lists, ...)."""
    for path in sorted((REPO / "src" / "shuttleplan").glob("*.py")):
        ast.parse(path.read_text(), filename=str(path),
                  feature_version=(3, 10))


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


# Top-level functions, by name, that no job of tests/traffic.py runs, each
# kept for the reason given.
ENTRY_POINTS = {
    "layout_for": "reads the LAYOUT section, which the data-layout search "
                  "will write",
    "route_successors": "the tests' only view of one expansion of the "
                        "inline successor loop",
    "_spanning_tree_weight": "bounds a tour only past EXACT_LIMIT unordered "
                             "targets, more than any benchmark check has; "
                             "tests/test_tsp.py runs it",
}


# Methods and properties, as "Class.member", that no job of
# tests/traffic.py runs, each kept for the caller it waits for.
MEMBER_ENTRY_POINTS = {
    "Schedule.to_json": "carries the structured diagnostics of the CLI's "
                        "compile subcommand (ROADMAP item 2)",
}


def test_every_package_name_has_a_caller():
    """The traffic guard: every top-level function, method and property of
    the package runs in the benchmark's own pipeline, on the jobs of
    tests/traffic.py (surface d3 in both bases and bb72 with a random
    order, each with the fault audit, and one schedule with a dropped CX,
    which the validator must report), in a fresh interpreter and from the
    package's first import on. A matching name is not a caller: any
    list's ``append`` matches a method called ``append``.

    Not checked: dunders, which the language calls, and the methods a
    dataclass or NamedTuple generates, whose code lies outside the
    package. Waived: the class members the benchmark's tracer patches
    (``perfbench/tracing.traced_targets``), which must exist for the
    tracer to wrap them, run or not; ENTRY_POINTS and MEMBER_ENTRY_POINTS,
    each for the reason it gives, and each of which must exist and stay
    unrun.
    """
    out = subprocess.run([sys.executable, str(REPO / "tests" / "traffic.py")],
                         capture_output=True, text=True, check=True)
    traffic = json.loads(out.stdout)
    assert [ok for ok, _ in traffic["ok"]] == [True, True, True, False]
    assert traffic["ok"][-1][1][0].startswith("validate:")
    idle = {name: name.split(".", 1)[1] for name in traffic["idle"]}
    waived = {*ENTRY_POINTS, *MEMBER_ENTRY_POINTS}
    stale = waived - set(idle.values())
    assert not stale, f"waived, but run or not defined: {sorted(stale)}"
    unrun = sorted(name for name, qualname in idle.items()
                   if qualname not in waived | set(traffic["traced"]))
    assert not unrun, f"never run: {', '.join(unrun)}"


def test_every_package_class_is_named():
    """A top-level class must be referenced by name, as an attribute or in
    an import, somewhere in the package or the benchmark."""
    package = sorted((REPO / "src" / "shuttleplan").glob("*.py"))
    defined: dict[str, str] = {}
    referenced: set[str] = set()
    for path in package + sorted((REPO / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        if path in package:
            defined.update((node.name, f"{path.stem}.{node.name}")
                           for node in tree.body
                           if isinstance(node, ast.ClassDef))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    assert sorted(where for name, where in defined.items()
                  if name not in referenced) == []
