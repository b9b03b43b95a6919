"""No module-level import in src/ or tests/ goes unused.

No linter is installed with the package or its test extras, so this is the
check for unused imports: every name a module binds by an import at its
top level must be read somewhere in that module. `__init__.py` files are
skipped, since they import to re-export; an import whose statement carries
`# noqa: F401` is kept on purpose, and a comment beside it says why. In
src/ the one purpose is the benchmark's tracer, which wraps a name where
its callers look it up: such an import must bind a name that
perfbench.spans.BOUNDARIES wraps in that module.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench.spans import BOUNDARIES  # noqa: E402


def top_level_imports(tree, source: str) -> list:
    """(line, kept, names) of each top-level import: kept where its
    statement carries `# noqa: F401`, names the names it binds."""
    lines = source.splitlines()
    found = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        kept = any("noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno])
        # "import a.b" binds a; "from m import x as y" binds y.
        names = [alias.asname or alias.name.split(".")[0] for alias in node.names]
        found.append((node.lineno, kept, names))
    return found


def unused_imports(source: str) -> list:
    """(line, name) of each name bound by a top-level import and never read."""
    tree = ast.parse(source)
    imported = {name: line for line, kept, names in top_level_imports(tree, source)
                if not kept for name in names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def untraced_kept_imports(source: str, traced: set) -> list:
    """(line, names) of each `# noqa: F401` import that binds no name in traced."""
    return [(line, names) for line, kept, names in top_level_imports(ast.parse(source), source)
            if kept and not traced.intersection(names)]


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
    assert untraced_kept_imports(source, {"compile"}) == [(5, ["argv"])]
    assert untraced_kept_imports(source, {"argv", "compile", "math"}) == []


def test_no_module_imports_a_name_it_never_reads():
    found = []
    for directory in ("src", "tests"):
        for path in sorted((ROOT / directory).rglob("*.py")):
            if path.name == "__init__.py":
                continue
            found += [f"{path.relative_to(ROOT)}:{line}: {name}"
                      for line, name in unused_imports(path.read_text())]
    assert not found, "unused imports:\n" + "\n".join(found)


def test_every_kept_import_in_src_binds_a_traced_name():
    traced = {}
    for module, attr, _ in BOUNDARIES:
        traced.setdefault(module, set()).add(attr)
    found = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        module = ".".join(path.relative_to(ROOT / "src").with_suffix("").parts)
        found += [f"{path.relative_to(ROOT)}:{line}: {', '.join(names)}"
                  for line, names in untraced_kept_imports(path.read_text(),
                                                           traced.get(module, set()))]
    assert not found, "noqa: F401 imports the tracer does not wrap:\n" + "\n".join(found)
