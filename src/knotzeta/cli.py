"""Command-line front end: invariant computation and verification suites.

Subcommands compute single invariants (alexander, det, tree-poly, zeta,
twisted) and print one canonical JSON document; `verify` runs named suites
of consistency checks over the built-in corpus plus any supplied diagram
files and emits one report per check, ordered by check id.  Checks run one
after another and each report carries its own time in `seconds`.  Exit
codes: 0 success, 2 input error, 3 inconsistency.

Diagram arguments are file paths or names of built-in corpus entries; the
KNOTZETA_CORPUS environment variable points name lookups at a different
directory.  Rational flags are written a/b; floats appear only in
convergence reporting.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction
from pathlib import Path

from .alexander import alexander_polynomial, determinant_of, knot_determinant
from .arborescence import enumerate_arborescences, matrix_tree_check, \
    random_matrix_tree_check, tree_polynomial, tree_sum
from .arc_graph import alexander_spec, build_arc_graph, tangle_determinant
from .knot_model import DiagramError, cut, parse_diagram
from .laurent import LaurentPoly, canonicalize, divide_exact
from .twisted import TRIVIAL_FIELD, Representation, column_independence_check, \
    dihedral_rep, fox_colorings, trivial_reduction_check, trivial_representation, \
    twisted_alexander_polynomial, twisted_block_identity_check, twisted_chain, \
    twisted_row_identity_check, twisted_trace_check
from .verdict import Verdict
from .zeta import CABLE_SAMPLES, TRACE_HORIZON, cabling_check, composition_check, \
    determinant_formula_check, path_sum_check, trace_identity_check

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INCONSISTENT = 3

# corpus subsets for the heavier suites; extras supplied on the command line
# are always included
CABLE_CORPUS = ("kink_pm", "trefoil", "figure8")
DIHEDRAL_CASES = {"trefoil": 3, "figure8": 5}
# the suites of `verify`, in the order they run
SUITES = ("matrix-tree", "triple", "zeta", "path-sum", "composition", "cable", "twisted")


class InputError(ValueError):
    """Bad input from the command line: unknown name, unparsable value."""


# -- diagram sources ----------------------------------------------------------


def corpus_root():
    """KNOTZETA_CORPUS when set, else the corpus directory beside this module
    in the installed package (a zip import has none)."""
    override = os.environ.get("KNOTZETA_CORPUS")
    if override:
        return Path(override)
    return Path(__file__).with_name("corpus")


def corpus_names():
    try:
        entries = list(corpus_root().iterdir())
    except (FileNotFoundError, NotADirectoryError) as exc:
        raise InputError(f"corpus directory unavailable: {exc}")
    return sorted(p.name[:-5] for p in entries if p.name.endswith(".knot"))


def load_corpus(name):
    entry = corpus_root() / f"{name}.knot"
    try:
        text = entry.read_text()
    except (FileNotFoundError, NotADirectoryError):
        raise InputError(f"no corpus diagram named {name!r}")
    return parse_diagram(text)


def resolve_diagram(token):
    """(name, diagram) from a file path or a corpus entry name."""
    path = Path(token)
    if path.is_file():
        return path.stem, parse_diagram(path.read_text())
    name = token[:-5] if token.endswith(".knot") else token
    return name, load_corpus(name)


def parse_rational(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"not a rational number: {text!r}")


def emit(obj):
    sys.stdout.write(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")


# -- compute subcommands ------------------------------------------------------


def cmd_alexander(ns):
    _, d = resolve_diagram(ns.diagram)
    canon = alexander_polynomial(d)
    out = {"poly": canon.poly.to_json(), "det": determinant_of(canon.poly)}
    if ns.convention == "eq10":
        frac = divide_exact(canon.poly, LaurentPoly({1: 1, 0: -1}))
        out["eq10"] = {
            "numerator": frac.numerator.to_json(),
            "denominator": frac.denominator.to_json(),
            "exact": frac.is_polynomial,
        }
    emit(out)
    return EXIT_OK


def cmd_det(ns):
    _, d = resolve_diagram(ns.diagram)
    emit({"det": knot_determinant(d)})
    return EXIT_OK


def cmd_tree_poly(ns):
    _, d = resolve_diagram(ns.diagram)
    source = cut(d, [ns.cut]) if ns.cut is not None else d
    g = build_arc_graph(source)
    # a cut graph labels its vertices with strings, and every tree is rooted
    # at the terminal half of the cut arc, the one vertex without out-edges
    default = source.strand_pair()[1] if ns.cut is not None else d.arcs[0]
    labels = {str(v): v for v in g.vertices}
    roots = []
    for token in ns.root or ():
        # a root names a vertex by its printed label; an integer token as
        # its value, so that 01 names arc 1
        try:
            label = str(int(token))
        except ValueError:
            label = token
        if label not in labels:
            raise InputError(f"root {label} is not a vertex of the arc graph")
        if labels[label] in roots:
            raise InputError(f"root {label} given twice")
        roots.append(labels[label])
    roots = tuple(roots) or (default,)
    arbs = enumerate_arborescences(g, roots, alexander_spec())
    poly = tree_sum(arbs)
    emit({"poly": poly.to_json(), "roots": [str(r) for r in roots], "count": len(arbs)})
    return EXIT_OK


def cmd_zeta(ns):
    reads = {"trace": ("max_len",), "euler": ("t", "max_len"), "cable": ("t", "n")}
    for flag in ("t", "max_len", "n"):
        if getattr(ns, flag) is not None and flag not in reads.get(ns.check, ()):
            raise InputError(f"--{flag.replace('_', '-')} does not apply to --check {ns.check}")
    _, d = resolve_diagram(ns.diagram)
    arc = ns.cut if ns.cut is not None else 1
    tangle = cut(d, [arc])
    g = build_arc_graph(tangle)
    spec = alexander_spec()
    t0 = None if ns.t is None else parse_rational(ns.t)
    if ns.check == "trace":
        verdict = trace_identity_check(g, spec, TRACE_HORIZON if ns.max_len is None else ns.max_len)
    elif ns.check == "euler":
        verdict = determinant_formula_check(g, spec, t0=t0, max_len=ns.max_len)
    elif ns.check == "path-sum":
        verdict = path_sum_check(tangle, seed=ns.seed)
    elif ns.check == "composition":
        verdict = composition_check(tangle, tangle)
    else:
        samples = (t0,) if t0 is not None else CABLE_SAMPLES
        verdict = cabling_check(tangle, 2 if ns.n is None else ns.n, samples)
    emit(verdict.to_json())
    return EXIT_OK if verdict.passed else EXIT_INCONSISTENT


def _representation_from_args(ns, d):
    if ns.dihedral is not None and ns.rep is not None:
        raise InputError("--dihedral and --rep are mutually exclusive")
    if ns.dihedral is not None:
        space = fox_colorings(d, ns.dihedral)
        coloring = space.nonconstant()
        if coloring is None:
            raise InputError(
                f"no nonconstant {ns.dihedral}-coloring: dimension {space.dim}")
        return dihedral_rep(d, ns.dihedral, coloring)
    if ns.rep is not None:
        text = ns.rep
        if text.startswith("@"):
            text = Path(text[1:]).read_text()
        try:
            obj = json.loads(text)
            if not isinstance(obj, dict) or not isinstance(obj.get("images"), dict):
                raise ValueError('expected an object with an "images" object')
            images = {int(k): v for k, v in obj["images"].items()}
            return Representation(obj.get("field"), images)
        except (TypeError, ValueError) as exc:
            raise InputError(f"bad representation JSON: {exc}")
    return trivial_representation(tuple(d.arcs))


def cmd_twisted(ns):
    _, d = resolve_diagram(ns.diagram)
    rep = _representation_from_args(ns, d)
    tw = twisted_alexander_polynomial(d, rep)
    emit(tw.to_json())
    return EXIT_OK


# -- verification suites ------------------------------------------------------


def _report(check, verdict, params, lhs, rhs):
    rep = {"check": check, "status": "pass" if verdict.passed else "fail",
           "params": params, "lhs": lhs, "rhs": rhs}
    if not verdict.passed:
        rep["detail"] = verdict.detail
    return rep


def _skip(check, reason):
    return {"check": check, "status": "skipped", "reason": reason, "params": {}}


def _stamp(report, start):
    """Record in the report the seconds elapsed since start."""
    report["seconds"] = round(time.perf_counter() - start, 3)
    return report


def _timed(check_id, check, *args):
    """Run one check and return its report under check_id, timed.

    A DiagramError means that the check does not apply to the diagram (a
    link where it needs a knot): the report is then a skip with the error
    as its reason, and the other checks still run.
    """
    start = time.perf_counter()
    try:
        report = check(check_id, *args)
    except DiagramError as exc:
        report = _skip(check_id, str(exc))
    return _stamp(report, start)


def _check_matrix_tree(check_id, diagram):
    g = build_arc_graph(diagram)
    verdict = matrix_tree_check(g, (diagram.arcs[0],), alexander_spec())
    return _report(check_id, verdict,
                   {"roots": verdict.detail["roots"]},
                   lhs=verdict.detail["determinant"],
                   rhs=verdict.detail["tree_sum"])


def _check_matrix_tree_random(check_id, count, seed):
    verdict = random_matrix_tree_check(count, seed)
    return _report(check_id, verdict,
                   {"count": count, "seed": seed},
                   lhs="det(L_roots)", rhs="arborescence weight sum")


def _check_triple(check_id, diagram):
    spec = alexander_spec()
    minor = alexander_polynomial(diagram)
    trees = canonicalize(tree_polynomial(build_arc_graph(diagram),
                                         (diagram.arcs[0],), spec))
    walks = canonicalize(tangle_determinant(
        build_arc_graph(cut(diagram, [diagram.arcs[0]])), spec))
    agree = minor.poly == trees.poly == walks.poly
    verdict = Verdict("triple", agree, {
        "minor": str(minor.poly), "trees": str(trees.poly), "walks": str(walks.poly)})
    return _report(check_id, verdict, {"cut": str(diagram.arcs[0])},
                   lhs=verdict.detail["minor"],
                   rhs={"trees": verdict.detail["trees"],
                        "walks": verdict.detail["walks"]})


def _check_zeta(check_id, diagram):
    g = build_arc_graph(cut(diagram, [diagram.arcs[0]]))
    verdict = determinant_formula_check(g, alexander_spec())
    params = {k: verdict.detail[k] for k in ("t0", "max_len", "tolerance")}
    return _report(check_id, verdict, params,
                   lhs=verdict.detail["partial_product"],
                   rhs=verdict.detail["inverse_determinant"])


def _check_path_sum(check_id, diagram, arc, seed):
    verdict = path_sum_check(cut(diagram, [arc]), seed)
    return _report(check_id, verdict,
                   {"samples": len(verdict.detail["verified"]), "seed": seed},
                   lhs={"failures": verdict.detail["failures"]}, rhs="1")


def _check_composition(check_id, t1, t2, factor_dets):
    verdict = composition_check(t1, t2, factor_dets)
    return _report(check_id, verdict, {},
                   lhs=verdict.detail["composite"], rhs=verdict.detail["product"])


def _check_cable(check_id, diagram, n, samples):
    tangle = cut(diagram, [diagram.arcs[0]])
    verdict = cabling_check(tangle, n, samples)
    return _report(check_id, verdict,
                   {"n": n, "samples": verdict.detail["samples"]},
                   lhs=verdict.detail["cable_poly"], rhs=verdict.detail["original_poly"])


def _check_twisted_trivial(check_id, diagram):
    verdict = trivial_reduction_check(diagram)
    return _report(check_id, verdict, {"field": TRIVIAL_FIELD},
                   lhs=verdict.detail["cross_lhs"], rhs=verdict.detail["cross_rhs"])


def _twisted_dihedral_reports(name, diagram, p):
    """The dihedral reports, each timed on its own; finding the coloring,
    building the representation and building its twisted chain (which
    verifies it) are charged to the :rep report."""
    start = time.perf_counter()
    space = fox_colorings(diagram, p)
    coloring = space.nonconstant()
    base = f"twisted:dihedral:{name}"
    if coloring is None:
        return [_stamp(_skip(f"{base}:rep", f"no nonconstant {p}-coloring"), start)]
    rep = dihedral_rep(diagram, p, coloring)
    params = {"p": p, "field": rep.field, "coloring": list(coloring)}
    chain = twisted_chain(diagram, rep)
    reports = [_stamp(_report(f"{base}:rep", chain.verdict, params,
                              lhs="relator images", rhs="identity"), start)]
    for suffix, check, detail_keys, lhs, rhs in (
            ("blocks", twisted_block_identity_check, (),
             "I - B", "twisted Fox Jacobian"),
            ("rows", twisted_row_identity_check, (),
             "row sums against images", "0"),
            ("trace", twisted_trace_check, ("max_power",),
             "tr(B^m)", "closed-walk block traces"),
            ("columns", column_independence_check, (),
             "cross-multiplied numerators", "cross-multiplied denominators")):
        start = time.perf_counter()
        v = check(chain)
        extra = {k: v.detail[k] for k in detail_keys}
        reports.append(_stamp(_report(f"{base}:{suffix}", v, {**params, **extra},
                                      lhs=lhs, rhs=rhs), start))
    return reports


def _suite_reports(suites, diagrams, extras, ns, samples):
    """Run the checks of the suites one after another, yielding each timed
    report as it is made; the cable checks sample at samples."""
    seed = ns.seed
    named = list(diagrams) + list(extras)

    if "matrix-tree" in suites:
        for name, d in named:
            yield _timed(f"matrix-tree:{name}", _check_matrix_tree, d)
        yield _timed("matrix-tree:random", _check_matrix_tree_random, 50, seed)
    if "triple" in suites:
        for name, d in named:
            yield _timed(f"triple:{name}", _check_triple, d)
    if "zeta" in suites:
        for name, d in named:
            yield _timed(f"zeta:{name}", _check_zeta, d)
    if "path-sum" in suites:
        for name, d in named:
            for arc in d.arcs:
                yield _timed(f"path-sum:{name}:arc{arc}", _check_path_sum, d, arc, seed)
    if "composition" in suites:
        # one pass cuts each diagram at its first arc once, and computes each
        # factor's determinant once, charged to the first check that needs it
        strands = [(name, cut(d, [d.arcs[0]])) for name, d in named]
        factor_dets = {}
        for i, (name1, t1) in enumerate(strands):
            for name2, t2 in strands[i:]:
                yield _timed(f"composition:{name1}+{name2}", _check_composition,
                             t1, t2, factor_dets)
    if "cable" in suites:
        cable_named = [(n, d) for n, d in diagrams if n in CABLE_CORPUS] + list(extras)
        orders = (2, 3) if ns.n is None else (ns.n,)
        for name, d in cable_named:
            for n_order in orders:
                yield _timed(f"cable:{name}:n{n_order}", _check_cable, d, n_order, samples)
    if "twisted" in suites:
        for name, d in named:
            yield _timed(f"twisted:trivial:{name}", _check_twisted_trivial, d)
        for name, d in named:
            p = DIHEDRAL_CASES.get(name)
            if p is not None:
                yield from _twisted_dihedral_reports(name, d, p)


def cmd_verify(ns):
    suites = SUITES if ns.suite == "all" else (ns.suite,)
    # only the cable checks read --n and --t, refused or parsed before any check runs
    for flag in ("n", "t"):
        if getattr(ns, flag) is not None and "cable" not in suites:
            raise InputError(f"--{flag} does not apply to suite {ns.suite}")
    samples = CABLE_SAMPLES if ns.t is None else (parse_rational(ns.t),)
    diagrams = [(name, load_corpus(name)) for name in corpus_names()]
    extras = [resolve_diagram(token) for token in ns.diagrams]
    # a check id names its diagram, so two diagrams of one name would share ids
    seen = set()
    for name, _ in diagrams + extras:
        if name in seen:
            raise InputError(f"diagram {name} given twice")
        seen.add(name)
    results = sorted(_suite_reports(suites, diagrams, extras, ns, samples), key=lambda r: r["check"])

    failures = sum(r["status"] == "fail" for r in results)
    if ns.json:
        for r in results:
            emit(r)
    else:
        for r in results:
            mark = {"pass": "ok", "fail": "FAIL", "skipped": "skip"}[r["status"]]
            line = f"[{mark}] {r['check']} ({r['seconds']:.2f}s)"
            if r["status"] == "fail":
                line += f"\n       lhs={r['lhs']!r} rhs={r['rhs']!r}"
            if r["status"] == "skipped":
                line += f"  reason: {r['reason']}"
            sys.stdout.write(line + "\n")
        sys.stdout.write(f"{len(results)} checks, {failures} failures\n")
    return EXIT_OK if failures == 0 else EXIT_INCONSISTENT


# -- argument parsing ---------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="knotzeta",
        description="Exact knot invariants from arc-graph walk combinatorics.")
    sub = parser.add_subparsers(dest="command", required=True)

    def diagram_arg(p):
        p.add_argument("diagram", help="diagram file or corpus name")

    p = sub.add_parser("alexander", help="canonical Alexander polynomial")
    diagram_arg(p)
    p.add_argument("--convention", choices=("minor", "eq10"), default="minor")

    p = sub.add_parser("det", help="knot determinant")
    diagram_arg(p)

    p = sub.add_parser("tree-poly", help="arborescence-sum polynomial")
    diagram_arg(p)
    p.add_argument("--root", action="append",
                   help="root vertex, by the label that the output prints, "
                        "such as 2 or 1'' (repeatable; default arc 1, or with "
                        "--cut the terminal half of the cut arc)")
    p.add_argument("--cut", type=int, help="cut this arc first")

    p = sub.add_parser("zeta", help="cycle-expansion checks on a cut diagram")
    diagram_arg(p)
    p.add_argument("--cut", type=int, help="arc to cut (default 1)")
    p.add_argument("--check", choices=("trace", "euler", "path-sum",
                                       "composition", "cable"), default="euler")
    p.add_argument("--t", help="rational sample point a/b")
    p.add_argument("--max-len", type=int, help="walk length horizon")
    p.add_argument("--n", type=int, help="cable order")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("twisted", help="twisted Alexander polynomial")
    diagram_arg(p)
    p.add_argument("--dihedral", type=int, metavar="P",
                   help="dihedral representation from a Fox P-coloring")
    p.add_argument("--rep", help="representation JSON (or @file)")

    p = sub.add_parser("verify", help="run consistency suites")
    p.add_argument("suite", choices=SUITES + ("all",))
    p.add_argument("diagrams", nargs="*",
                   help="extra diagram files to include")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, help="cable order override")
    p.add_argument("--t", help="rational sample point override")
    p.add_argument("--json", action="store_true", help="one JSON report per line")

    return parser


HANDLERS = {
    "alexander": cmd_alexander,
    "det": cmd_det,
    "tree-poly": cmd_tree_poly,
    "zeta": cmd_zeta,
    "twisted": cmd_twisted,
    "verify": cmd_verify,
}


def main(argv=None):
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        return HANDLERS[ns.command](ns)
    except (ValueError, OSError, ZeroDivisionError, RuntimeError) as exc:
        # InputError and DiagramError are ValueErrors; a ZeroDivisionError
        # can only come from a sample point the user chose, and a
        # RuntimeError from an enumeration cap that the input exceeds
        emit({"error": str(exc)})
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
