"""No imported name that its own file never reads.

An import that nothing reads is dead code that still costs a module load and
misleads a reader about what a file depends on.  The scan reads every
src/knotzeta/*.py and tests/*.py by AST: a name bound by an import must
occur as a loaded name somewhere in the same file, or be listed in its
`__all__`.  `__future__` imports and lines marked `# noqa: F401` (an import
kept for its side effect) are exempt.

Every command runs in a fresh process, so the cold import of the CLI is
gated too: it must not load the heavy standard modules that the package
does not need.
"""

import ast
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "knotzeta").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source):
    """The names that the imports of source bind and the source never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(elt.value for elt in node.value.elts)
    return sorted(name for name in imported if name not in read)


def test_scan_sees_unread_names_and_honours_the_exemptions():
    source = ("from __future__ import annotations\n"
              "import os, sys\n"
              "import json  # noqa: F401\n"
              "from a.b import c, d as e\n"
              "import x.y\n"
              "__all__ = ['c']\n"
              "print(sys.argv, x.y)\n")
    assert unused_imports(source) == ["e", "os"]


def test_every_imported_name_is_read():
    found = {path.relative_to(ROOT).as_posix(): unused_imports(path.read_text())
             for path in SOURCES}
    assert {path: names for path, names in found.items() if names} == {}


# stdlib modules whose import costs more than the work of a typical query;
# `dataclasses` brings `inspect`, and `importlib.resources` brings `typing`
COLD_IMPORT_REFUSED = ("dataclasses", "inspect", "typing", "importlib.resources")


def test_cold_cli_import_loads_no_heavy_stdlib_module():
    # -S: `site` may preload some of these through installed packages; -E:
    # no PYTHONPATH or start-up file from the environment
    script = (f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import knotzeta.cli; "
              f"print(sorted(m for m in {COLD_IMPORT_REFUSED!r} if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-S", "-E", "-c", script],
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"
