"""A ceiling on the defaulted parameters of the package.

ROADMAP "Quality of design" asks for no option that only one value ever
reaches: a parameter stays only if a production path (the CLI, `verify`,
the benchmark's calls) or an independent oracle reads it.  The ceiling
counts the positional and keyword-only defaults of every def and lambda in
src/knotzeta, by AST, so a new default has to replace an old one.
"""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "knotzeta"
MAX_DEFAULTS = 15


def count_defaults(source):
    return sum(len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
               for node in ast.walk(ast.parse(source))
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)))


def test_count_defaults_sees_positional_keyword_only_and_lambda_defaults():
    assert count_defaults("def f(a, b=1, *, c=2, d): pass\ng = lambda x=0: x\n") == 3


def test_defaulted_parameters_stay_under_the_ceiling():
    counts = {p.name: count_defaults(p.read_text()) for p in sorted(SOURCE.glob("*.py"))}
    total = sum(counts.values())
    assert total <= MAX_DEFAULTS, (
        f"{total} defaulted parameters in src/knotzeta, above {MAX_DEFAULTS}; see "
        f"ROADMAP.md, Quality of design, 'no option that only one value ever "
        f"reaches' (per module: {counts})")
