"""Every exception type in errors.py is raised somewhere in src/.

A CesGrowthError subclass that no code raises is a type no caller can
ever catch, so it does not earn its place. The base class is exempt: it
is only caught. The check reads the source with ast, as test_imports.py
does for imports.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def error_types(source: str) -> list:
    """Names of the classes in source that derive from CesGrowthError,
    directly or through one another, in order of definition."""
    family = {"CesGrowthError"}
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef) and any(
            isinstance(base, ast.Name) and base.id in family for base in node.bases
        ):
            family.add(node.name)
            found.append(node.name)
    return found


def raised_names(source: str) -> set:
    """The X of each `raise X(...)`, `raise X` or `raise m.X(...)` in source."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                names.add(exc.attr)
    return names


def test_the_check_finds_subclasses_and_raises():
    errors = (
        "class CesGrowthError(Exception): pass\n"
        "class A(CesGrowthError): pass\n"
        "class B(A, ValueError): pass\n"
        "class C(ValueError): pass\n"
    )
    assert error_types(errors) == ["A", "B"]
    source = (
        "def f(x):\n"
        "    if x:\n"
        "        raise A('no')\n"
        "    try:\n"
        "        pass\n"
        "    except KeyError:\n"
        "        raise errors.B from None\n"
        "    raise\n"
    )
    assert raised_names(source) == {"A", "B"}


def test_every_error_type_is_raised():
    types = error_types((SRC / "cesgrowth" / "errors.py").read_text())
    assert "ScenarioError" in types  # the parse found the subclasses
    raised = set()
    for path in sorted(SRC.rglob("*.py")):
        raised |= raised_names(path.read_text())
    unraised = [name for name in types if name not in raised]
    assert not unraised, "error types never raised in src/: " + ", ".join(unraised)
