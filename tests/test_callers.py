"""No helper that only its own tests read.

ROADMAP "Quality of design" asks for no dead helpers: a function stays only
if a production path or the benchmark reads it, or if the tests keep it as
an independent oracle for a faster route (ORACLES).  The scan reads every
src/knotzeta/*.py and perfbench/*.py by AST.  Every top-level function and
every method of a top-level class in src/knotzeta must be read somewhere
outside its own def: as a loaded name, an attribute, or a string constant
(the tracer's name lists and `__all__` name functions by string).  Dunder
methods are called by the interpreter and are exempt.  The scan goes by
name, so a helper is taken as read wherever any object's attribute of the
same name is.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "knotzeta").glob("*.py"))
READERS = PACKAGE + sorted((ROOT / "perfbench").glob("*.py"))

# the reference implementations that only the tests read, as "module.name"
ORACLES = (
    # the kernel without peeling: the oracle of det's peel
    "laurent._det_bareiss",
    # a content's weight from scratch: the oracle of _content_weigher's cache
    "zeta._content_weight",
    # one constant on every label: at 1, W is the adjacency matrix and its
    # traces count closed walks
    "arc_graph.constant_spec",
    # every coloring of the space: the oracle of nonconstant and of the
    # coloring dimension
    "twisted.ColoringSpace.vectors",
)


def definitions(source):
    """[(qualified name, name, first line, last line)] for the top-level
    functions and the methods of top-level classes of source, dunders left
    out; a method's qualified name is "Class.method"."""
    found = []
    for node in ast.parse(source).body:
        owner, defs = ("", [node]) if not isinstance(node, ast.ClassDef) else \
            (f"{node.name}.", node.body)
        for d in defs:
            if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    d.name.startswith("__") and d.name.endswith("__")):
                start = min([d.lineno] + [x.lineno for x in d.decorator_list])
                found.append((owner + d.name, d.name, start, d.end_lineno))
    return found


def reads(source):
    """[(name, line)] for every loaded name, attribute and string constant."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.append((node.value, node.lineno))
    return out


def unread(sources):
    """The functions of the defining sources that no source reads outside
    their own defs and ORACLES does not list, as sorted "module.name".

    sources maps a path to (source text, defines), defines true for the
    package's files."""
    defined = {Path(path).stem: definitions(text)
               for path, (text, defines) in sources.items() if defines}
    seen = set()
    for path, (text, defines) in sources.items():
        spans = defined[Path(path).stem] if defines else ()
        for name, line in reads(text):
            if not any(name == n and a <= line <= b for _, n, a, b in spans):
                seen.add(name)
    found = (f"{module}.{qualified}" for module, defs in defined.items()
             for qualified, name, _, _ in defs if name not in seen)
    return sorted(name for name in found if name not in ORACLES)


def test_scan_sees_unread_functions_outside_their_own_defs():
    package = ("def used(): pass\n"
               "def recursive(n): return recursive(n - 1)\n"
               "def named(): pass\n"
               "class C:\n"
               "    def __init__(self): pass\n"
               "    def method(self): pass\n"
               "    def dead(self): pass\n"
               "used()\n"
               "C().method()\n")
    reader = "TRACED = {'named': 'span'}\n"
    assert unread({"pkg.py": (package, True), "bench.py": (reader, False)}) == \
        ["pkg.C.dead", "pkg.recursive"]


def test_every_function_is_read_outside_its_def():
    sources = {str(path): (path.read_text(), path in PACKAGE) for path in READERS}
    assert unread(sources) == []
