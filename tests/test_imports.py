"""No module-level import in src/ or tests/ goes unused.

No linter is installed with the package or its test extras, so this is the
check for unused imports: every name a module binds by an import at its
top level must be read somewhere in that module. `__init__.py` files are
skipped, since they import to re-export; an import whose statement carries
`# noqa: F401` is kept on purpose, and a comment beside it says why.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(source: str) -> list:
    """(line, name) of each name bound by a top-level import and never read."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            # "import a.b" binds a; "from m import x as y" binds y.
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_the_check_flags_unused_imports_and_honours_noqa():
    source = (
        "import math\n"
        "import os.path\n"
        "import numpy as np\n"
        "from json import dumps, loads\n"
        "from sys import argv  # noqa: F401\n"
        "from re import (\n"
        "    compile,  # noqa: F401\n"
        ")\n"
        "def f():\n"
        "    return os.path.sep, np.pi, loads\n"
    )
    assert unused_imports(source) == [(1, "math"), (4, "dumps")]


def test_no_module_imports_a_name_it_never_reads():
    found = []
    for directory in ("src", "tests"):
        for path in sorted((ROOT / directory).rglob("*.py")):
            if path.name == "__init__.py":
                continue
            found += [f"{path.relative_to(ROOT)}:{line}: {name}"
                      for line, name in unused_imports(path.read_text())]
    assert not found, "unused imports:\n" + "\n".join(found)
