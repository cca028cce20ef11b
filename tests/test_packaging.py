import ast
import importlib
import importlib.util
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


# Module-level names that nothing in the package or the benchmark refers to,
# each kept for the reason given.
ENTRY_POINTS = {
    "layout_for": "reads the LAYOUT section, which the data-layout search "
                  "will write",
    "route_successors": "the tests' only view of one expansion of the "
                        "inline successor loop",
}


# Methods and properties, as "Class.member", that nothing in the package or
# the benchmark calls, each kept for the caller it waits for.
MEMBER_ENTRY_POINTS = {
    "Schedule.to_json": "carries the structured diagnostics of the CLI's "
                        "compile subcommand (ROADMAP item 2)",
}


def _traced_attributes() -> set[str]:
    """The attributes the benchmark's tracer patches on the package."""
    from types import SimpleNamespace

    from shuttleplan import compiler, css, emit, intervals, metrics, pauli, tsp

    spec = importlib.util.spec_from_file_location(
        "tracing", REPO / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    sp = SimpleNamespace(compiler=compiler, css=css, emit=emit,
                         intervals=intervals, metrics=metrics, pauli=pauli,
                         tsp=tsp)
    return {attr for _, attr, _ in tracing.traced_targets(sp)}


def test_every_package_name_has_a_caller():
    """A module-level def or class must be referenced by name, as an
    attribute or in an import somewhere in the package or the benchmark,
    or be listed in ENTRY_POINTS. A method or property of a package class
    must be named as an attribute there (a bare name is a local or a
    global, never a member), or be patched by the benchmark's tracer, or be
    listed in MEMBER_ENTRY_POINTS; dunder methods are called by the
    language."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    package = sorted((REPO / "src" / "shuttleplan").glob("*.py"))
    defined: dict[str, str] = {}
    members: dict[str, str] = {}
    referenced: set[str] = set()
    attributes: set[str] = set()
    for path in package + sorted((REPO / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        if path in package:
            for node in tree.body:
                if isinstance(node, (*defs, ast.ClassDef)):
                    defined[node.name] = f"{path.stem}.{node.name}"
                if isinstance(node, ast.ClassDef):
                    members.update(
                        (f"{node.name}.{m.name}", m.name) for m in node.body
                        if isinstance(m, defs) and not (
                            m.name.startswith("__") and m.name.endswith("__")))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
                attributes.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    assert set(ENTRY_POINTS) <= set(defined)
    assert set(MEMBER_ENTRY_POINTS) <= set(members)
    unused = sorted(where for name, where in defined.items()
                    if name not in referenced and name not in ENTRY_POINTS)
    called = attributes | _traced_attributes()
    unused += sorted(member for member, name in members.items()
                     if name not in called
                     and member not in MEMBER_ENTRY_POINTS)
    assert unused == []
