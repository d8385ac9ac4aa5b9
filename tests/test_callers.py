"""No helper that only its own tests read.

ROADMAP "Quality of design" asks for no dead helpers: a function stays only
if a production path or the benchmark calls it, or if the tests keep it as
an independent oracle for a faster route (ORACLES) or as a check that only
Tier-1 runs (TIER1_CHECKS).  The scan reads every src/knotzeta/*.py and
perfbench/*.py by AST.  Every top-level function and every method of a
top-level class in src/knotzeta must be read somewhere outside its own def:
as an attribute, as a loaded name (functions only: a bare name that matches
a method is a local variable), or, in src/knotzeta only, as a string
constant (`__all__` names functions by string).  The string constants of
perfbench/*.py do not count: the tracer's name lists wrap what is there and
call nothing; a method that only those lists name waits in BENCH_NAMED for
the next benchmark change.  Dunder methods are called by the interpreter
and are exempt.  The scan goes by name, so a helper is taken as read
wherever any object's attribute of the same name is.  An entry of
ORACLES or TIER1_CHECKS is stale, and fails the scan, when it names no
function, when src/knotzeta reads it outside its own def, or when no file
in tests/ reads it; an entry of BENCH_NAMED likewise, with perfbench/*.py
and its string constants in the place of tests/.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "knotzeta").glob("*.py"))
BENCH = sorted((ROOT / "perfbench").glob("*.py"))
READERS = PACKAGE + BENCH
TESTS = sorted((ROOT / "tests").glob("*.py"))

# the reference implementations that only the tests read, as "module.name"
ORACLES = (
    # one generator per walk over the word: the oracle of fox_gradient
    "alexander.fox_derivative",
    # the kernel without peeling: the oracle of det's peel
    "laurent._det_bareiss",
    # first-row cofactor expansion: the oracle of det on small matrices
    "laurent.det_cofactor",
    # Gauss-Jordan on rationals: the oracle of det after evaluation
    "laurent.rational_det",
    # every based closed walk of one length, unpruned: the oracle of
    # prime_cycles and _prime_counts
    "zeta.closed_walks",
    # one rational solve per sample: the oracle of strand_walk_sum
    "zeta.total_strand_weight",
    # one constant on every label: at 1, W is the adjacency matrix and its
    # traces count closed walks
    "arc_graph.constant_spec",
    # every coloring of the space: the oracle of nonconstant and of the
    # coloring dimension
    "twisted.ColoringSpace.vectors",
    # the whole twisted Fox Jacobian at once: the reference for the blocks
    # that TwistedChain builds one at a time
    "twisted.twisted_alexander_matrix",
    # B built from a diagram, on an arc graph of its own: the reference for
    # TwistedChain.weights
    "twisted.twisted_weight_graph",
    # the knot determinant as a signed arborescence sum: an oracle of
    # knot_determinant
    "arborescence.determinant_via_trees",
    # one tree's weight from scratch: the oracle of tree_sum's shared prefixes
    "arborescence.arborescence_weight",
)

# independent checks that only Tier-1 runs, until a regeneration of the
# verify reference output adds their reports
TIER1_CHECKS = (
    "alexander.fox_equals_arcgraph_check",
    "alexander.multiplicativity_check",
    "alexander.split_check",
)

# methods that nothing calls and that are kept only because the name lists
# of perfbench/tracing.py (METHOD_SPANS) name them; they go with the next
# change to the benchmark
BENCH_NAMED = ("laurent.RingMatrix.power",)


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


def reads(source, strings):
    """[(name, line, kind)] for every loaded name (kind "name") and attribute
    ("attr"), and for every string constant ("str") when strings is true."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.append((node.id, node.lineno, "name"))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno, "attr"))
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.append((node.value, node.lineno, "str"))
    return out


def is_read(qualified, kinds):
    """Whether reads of these kinds read the function or "Class.method"
    qualified: a method only through an attribute or a string constant."""
    return bool(kinds - {"name"} if "." in qualified else kinds)


def read_names(sources):
    """(defined, seen): the definitions of each defining source by module,
    and {name: the kinds of its reads} over the reads outside the defining
    sources' own defs, string constants counted in the defining sources only.

    sources maps a path to (source text, defines), defines true for the
    package's files."""
    defined = {Path(path).stem: definitions(text)
               for path, (text, defines) in sources.items() if defines}
    seen = {}
    for path, (text, defines) in sources.items():
        spans = defined[Path(path).stem] if defines else ()
        for name, line, kind in reads(text, strings=defines):
            if not any(name == n and a <= line <= b for _, n, a, b in spans):
                seen.setdefault(name, set()).add(kind)
    return defined, seen


def unread(sources, listed):
    """The functions of the defining sources that no source reads outside
    their own defs and listed does not name, as sorted "module.name"."""
    defined, seen = read_names(sources)
    found = (f"{module}.{qualified}" for module, defs in defined.items()
             for qualified, name, _, _ in defs if not is_read(qualified, seen.get(name, set())))
    return sorted(name for name in found if name not in listed)


def stale(package, readers, listed, strings=False):
    """The entries of listed that name no function of the package, that the
    package reads outside their own defs, or that no reader reads (as
    is_read counts reads, string constants only when strings is true), as
    sorted "module.name".

    package maps a path to its source text, and readers is a list of texts."""
    defined, seen = read_names({path: (text, True) for path, text in package.items()})
    in_readers = {}
    for text in readers:
        for name, _, kind in reads(text, strings):
            in_readers.setdefault(name, set()).add(kind)
    out = []
    for entry in listed:
        module, _, qualified = entry.partition(".")
        name = qualified.rpartition(".")[2]
        if qualified not in {q for q, _, _, _ in defined.get(module, ())} \
                or is_read(qualified, seen.get(name, set())) \
                or not is_read(qualified, in_readers.get(name, set())):
            out.append(entry)
    return sorted(out)


def test_scan_sees_unread_functions_outside_their_own_defs():
    package = ("__all__ = ['exported']\n"
               "def used(): pass\n"
               "def recursive(n): return recursive(n - 1)\n"
               "def named(): pass\n"
               "def exported(): pass\n"
               "def oracle(): pass\n"
               "class C:\n"
               "    def __init__(self): pass\n"
               "    def method(self): pass\n"
               "    def dead(self): pass\n"
               "    def power(self): pass\n"
               "def squares(m):\n"
               "    power = m @ m\n"
               "    return power\n"
               "used()\n"
               "C().method()\n"
               "squares(2)\n")
    # a benchmark's name list wraps a function but calls nothing, and a
    # local variable named like a method does not read the method
    reader = "TRACED = {'named': 'span'}\n"
    sources = {"pkg.py": (package, True), "bench.py": (reader, False)}
    assert unread(sources, ("pkg.oracle",)) == ["pkg.C.dead", "pkg.C.power", "pkg.named",
                                                "pkg.recursive"]


def test_scan_sees_stale_list_entries():
    package = {"pkg.py": "def used(): pass\n"
                         "def oracle(): pass\n"
                         "def untested(): pass\n"
                         "class C:\n"
                         "    def check(self): pass\n"
                         "used()\n"}
    # a string in a test names nothing: only loaded names and attributes count
    tests = ["from pkg import C, oracle, used\n"
             "oracle(); used(); C().check()\n"
             "LISTED = ('pkg.untested',)\n"]
    listed = ("pkg.oracle", "pkg.C.check", "pkg.used", "pkg.untested", "pkg.gone",
              "other.oracle")
    assert stale(package, tests, listed) == ["other.oracle", "pkg.gone", "pkg.untested",
                                             "pkg.used"]
    # a method is read by an attribute, or by a string when strings count
    methods = {"pkg.py": "class C:\n    def traced(self): pass\n    def local(self): pass\n"}
    readers = ["SPANS = {'traced': 'span'}\nlocal = 1\nprint(local)\n"]
    assert stale(methods, readers, ("pkg.C.traced", "pkg.C.local")) == ["pkg.C.local",
                                                                      "pkg.C.traced"]
    assert stale(methods, readers, ("pkg.C.traced", "pkg.C.local"), strings=True) == \
        ["pkg.C.local"]


def test_every_function_is_read_outside_its_def():
    sources = {str(path): (path.read_text(), path in PACKAGE) for path in READERS}
    assert unread(sources, ORACLES + TIER1_CHECKS + BENCH_NAMED) == []


def test_every_listed_function_is_a_live_test_reference():
    package = {str(path): path.read_text() for path in PACKAGE}
    assert stale(package, [path.read_text() for path in TESTS], ORACLES + TIER1_CHECKS) == []
    assert stale(package, [path.read_text() for path in BENCH], BENCH_NAMED, strings=True) == []
