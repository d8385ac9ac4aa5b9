"""Command-line contract: JSON shapes, schemas, exit codes, determinism."""

import argparse
import io
import json
import re
import subprocess
import sys
import time
from contextlib import redirect_stdout
from importlib import resources
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator
from referencing import Registry, Resource

from knotzeta import arborescence, cli, knot_model, laurent, zeta
from knotzeta.arc_graph import alexander_spec, build_arc_graph, tangle_determinant
from knotzeta.cli import EXIT_INCONSISTENT, EXIT_INPUT, EXIT_OK, main
from knotzeta.knot_model import cut, render_diagram
from knotzeta.verdict import Verdict
from tests.conftest import NO_PLANNED_POINT, NO_WALK_SUM, NO_ZETA_VALUE, SPLIT, T34


@pytest.fixture(scope="session")
def validators():
    schemas_dir = resources.files("knotzeta") / "schemas"
    docs = {p.name: json.loads(p.read_text()) for p in schemas_dir.iterdir()
            if p.name.endswith(".json")}
    registry = Registry().with_resources(
        (doc["$id"], Resource.from_contents(doc)) for doc in docs.values())
    return {name[:-5]: Draft202012Validator(doc, registry=registry)
            for name, doc in docs.items()}


def run(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def run_json(*argv):
    code, out = run(*argv)
    return code, json.loads(out)


def test_alexander_trefoil(validators):
    code, obj = run_json("alexander", "trefoil")
    assert code == EXIT_OK
    assert obj == {"poly": {"0": 1, "1": -1, "2": 1}, "det": 3}
    validators["alexander"].validate(obj)


def test_alexander_eq10_convention(validators):
    code, obj = run_json("alexander", "figure8", "--convention", "eq10")
    assert code == EXIT_OK
    assert obj["eq10"]["exact"] is False
    assert obj["eq10"]["denominator"] == {"0": -1, "1": 1}
    validators["alexander"].validate(obj)


def test_det_unknot_exact_bytes():
    code, out = run("det", "unknot")
    assert code == EXIT_OK
    assert out == '{"det":1}\n'


def test_det_corpus(corpus, validators):
    from tests.conftest import KNOWN_DET
    for name, expect in KNOWN_DET.items():
        code, obj = run_json("det", name)
        assert code == EXIT_OK
        assert obj == {"det": expect}
        validators["det"].validate(obj)


def test_tree_poly_default_root(validators):
    code, obj = run_json("tree-poly", "trefoil")
    assert code == EXIT_OK
    assert obj["poly"] == {"0": 1, "1": -1, "2": 1}
    assert obj["roots"] == ["1"]
    assert obj["count"] == 3
    validators["tree-poly"].validate(obj)


def test_tree_poly_explicit_roots(validators):
    code, obj = run_json("tree-poly", "figure8", "--root", "2", "--root", "3")
    assert code == EXIT_OK
    assert obj["roots"] == ["2", "3"]
    validators["tree-poly"].validate(obj)


def test_tree_poly_bad_root():
    code, obj = run_json("tree-poly", "trefoil", "--root", "9")
    assert code == EXIT_INPUT
    assert "error" in obj


def test_zeta_trace_check(validators):
    code, obj = run_json("zeta", "trefoil", "--check", "trace")
    assert code == EXIT_OK
    assert obj["passed"] is True
    validators["verdict"].validate(obj)


def test_zeta_euler_passes_and_fails(validators):
    code, obj = run_json("zeta", "trefoil", "--check", "euler",
                         "--t", "1/2", "--max-len", "22")
    assert code == EXIT_OK
    assert obj["detail"]["gap"] == 0.0
    validators["verdict"].validate(obj)

    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code, obj = run_json("zeta", "figure8", "--check", "euler",
                             "--t", "1/10", "--max-len", "5")
    assert code == EXIT_INCONSISTENT
    assert obj["passed"] is False
    validators["verdict"].validate(obj)


@pytest.mark.parametrize("knot, t", [("6_1", "1/2"), ("6_1", "2"), ("5_2", "0")])
@pytest.mark.parametrize("horizon", [(), ("--max-len", "10")], ids=["planned", "given"])
def test_euler_at_a_zero_of_the_determinant_is_input_error(knot, t, horizon, validators):
    # 1/2 and 2 are the roots of 6_1's 2t^2 - 5t + 2; a given point is
    # tested before any planning, with or without a horizon
    code, obj = run_json("zeta", knot, "--check", "euler", "--t", t, *horizon)
    assert code == EXIT_INPUT
    assert obj == {"error": "det(I - W) vanishes at the sample point"}
    validators["error"].validate(obj)


@pytest.mark.parametrize("knot, gap, partial", [
    ("figure8", 2.2452261878883314e-13, 1.0112359550564043),
    ("5_2", 3.589645464553257e-10, 1.2077294682400692),
])
def test_zeta_euler_detail_to_the_bit(knot, gap, partial):
    # recorded from the prime-by-prime Fraction product; the product over
    # label contents must round to the same floats
    code, obj = run_json("zeta", knot, "--check", "euler")
    assert code == EXIT_OK
    assert obj["detail"]["gap"] == gap
    assert obj["detail"]["partial_product"] == partial


@pytest.mark.parametrize("argv, verified, skipped", [
    (("6_1", "--cut", "1"),
     ["-22/5", "1", "1/5", "13/4", "8/3", "-2", "12", "3", "5/6", "14/3", "-5/2",
      "11", "19/6", "2/3", "-3", "15/11", "-11/9", "3/4", "9/5", "-7/3"], ["1/2"]),
    (("figure8", "--cut", "3", "--seed", "7"),
     ["-4/3", "1/11", "-21/2", "5", "-1/10", "-7/3", "-11", "-19/7", "1", "-9/2",
      "11/7", "-21/10", "-17/4", "16/11", "13", "6/5", "-10", "11/3", "-6/7", "-5/3"],
     []),
])
def test_zeta_path_sum_detail_to_the_bit(argv, verified, skipped):
    # recorded from one rational Gauss-Jordan solve per sample; the Cramer
    # ratio of two determinants must verify and skip the same points
    code, obj = run_json("zeta", argv[0], "--check", "path-sum", *argv[1:])
    assert code == EXIT_OK
    assert obj["detail"] == {"failures": [], "skipped": skipped, "verified": verified}


def test_zeta_path_sum_and_composition(validators):
    for check in ("path-sum", "composition"):
        code, obj = run_json("zeta", "figure8", "--check", check)
        assert code == EXIT_OK, obj
        validators["verdict"].validate(obj)


def test_zeta_cable(validators):
    code, obj = run_json("zeta", "trefoil", "--check", "cable", "--n", "2")
    assert code == EXIT_OK
    validators["verdict"].validate(obj)


def test_zeta_cut_selects_arc():
    code, obj = run_json("zeta", "figure8", "--check", "path-sum", "--cut", "3")
    assert code == EXIT_OK
    assert obj["passed"] is True


def test_twisted_dihedral(validators):
    code, obj = run_json("twisted", "trefoil", "--dihedral", "3")
    assert code == EXIT_OK
    assert obj["field"] == 7 and obj["dim"] == 2
    assert obj["numerator"]["coeffs"] == {"0": 6, "2": 1}
    validators["twisted"].validate(obj)


def test_twisted_trivial_default(validators):
    code, obj = run_json("twisted", "trefoil")
    assert code == EXIT_OK
    assert obj["field"] == 101 and obj["dim"] == 1
    validators["twisted"].validate(obj)


def test_twisted_no_coloring_is_input_error():
    code, obj = run_json("twisted", "figure8", "--dihedral", "3")
    assert code == EXIT_INPUT
    assert "error" in obj


def test_twisted_rep_inline_and_file(tmp_path, validators):
    rep = {"field": 13, "images": {"1": [[1]], "2": [[1]], "3": [[1]]}}
    code, obj = run_json("twisted", "trefoil", "--rep", json.dumps(rep))
    assert code == EXIT_OK
    assert obj["field"] == 13
    validators["twisted"].validate(obj)

    path = tmp_path / "rep.json"
    path.write_text(json.dumps(rep))
    code2, obj2 = run_json("twisted", "trefoil", "--rep", f"@{path}")
    assert (code2, obj2) == (code, obj)


def test_twisted_flag_conflict():
    code, obj = run_json("twisted", "trefoil", "--dihedral", "3", "--rep", "{}")
    assert code == EXIT_INPUT


def test_twisted_bad_rep_json():
    code, obj = run_json("twisted", "trefoil", "--rep", "{broken")
    assert code == EXIT_INPUT
    assert "error" in obj


@pytest.mark.parametrize("rep", [
    [1],
    {"field": 7, "images": [1]},
    {"field": 7},
    {"images": {"1": [[1]], "2": [[1]], "3": [[1]]}},
    {"field": 7.0, "images": {"1": [[1]], "2": [[1]], "3": [[1]]}},
    {"field": True, "images": {"1": [[1]], "2": [[1]], "3": [[1]]}},
    {"field": 7, "images": {"1": [[1.5]], "2": [[1]], "3": [[1]]}},
    {"field": 7, "images": {"1": [[True]], "2": [[1]], "3": [[1]]}},
    {"field": 7, "images": {"1": 1, "2": [[1]], "3": [[1]]}},
    {"field": 7, "images": {"1": ["1"], "2": [[1]], "3": [[1]]}},
    {"field": 7, "images": {"x": [[1]], "2": [[1]], "3": [[1]]}},
    {"field": 7, "images": {"1": [], "2": [], "3": []}},
], ids=lambda rep: json.dumps(rep))
def test_twisted_malformed_rep_is_input_error(rep, validators):
    code, obj = run_json("twisted", "trefoil", "--rep", json.dumps(rep))
    assert code == EXIT_INPUT
    validators["error"].validate(obj)


def test_twisted_rep_over_a_big_prime_field():
    trivial = {str(a): [[1]] for a in (1, 2, 3)}
    start = time.perf_counter()
    code, obj = run_json("twisted", "trefoil", "--rep",
                         json.dumps({"field": 10**18 + 3, "images": trivial}))
    assert (code, obj["field"]) == (EXIT_OK, 10**18 + 3)
    assert time.perf_counter() - start < 1.0
    # beyond the range where the primality test is exact
    code, obj = run_json("twisted", "trefoil", "--rep",
                         json.dumps({"field": 2**89 - 1, "images": trivial}))
    assert code == EXIT_INPUT
    assert "too large" in obj["error"]


TWISTED_PINS = json.loads(
    (Path(__file__).parent / "data" / "twisted_pins.json").read_text())


def test_twisted_output_matches_the_pins(tmp_path):
    # stdout and exit code of every `twisted` call below, recorded before the
    # twisted chain was built once per (diagram, representation)
    kink = tmp_path / "kink1.knot"
    kink.write_text(TWISTED_PINS["kink1"])
    calls = TWISTED_PINS["calls"]
    assert len(calls) == 4 * (len(cli.corpus_names()) + 1)
    for call in calls:
        argv = [str(kink) if a == "kink1" else a for a in call["argv"]]
        assert run(*argv) == (call["code"], call["stdout"]), call["argv"]


CLI_PINS = json.loads((Path(__file__).parent / "data" / "cli_pins.json").read_text())


def test_compute_output_matches_the_pins():
    # stdout and exit code of `alexander`, `det`, `tree-poly` and `zeta` on
    # every corpus knot, every root arc and every cut, recorded before the
    # options and helpers that production never read were removed
    calls = CLI_PINS["calls"]
    arcs = sum(len(cli.load_corpus(n).arcs) for n in cli.corpus_names())
    assert len(calls) == 4 * len(cli.corpus_names()) + 6 * arcs + 4
    with pytest.warns(zeta.ConvergenceWarning):
        for call in calls:
            assert run(*call["argv"]) == (call["code"], call["stdout"]), call["argv"]


def test_tree_poly_on_a_cut_is_rooted_at_the_terminal_arc(validators):
    # the terminal half of the cut arc has no out-edges, so every tree is
    # rooted there, and the tree sum is det(I - W) of the tangle
    cuts = 0
    for name in cli.corpus_names():
        d = cli.load_corpus(name)
        for arc in d.arcs:
            tangle = cut(d, [arc])
            want = tangle_determinant(build_arc_graph(tangle), alexander_spec())
            code, obj = run_json("tree-poly", name, "--cut", str(arc))
            assert (code, obj["poly"]) == (EXIT_OK, want.to_json()), (name, arc)
            assert obj["roots"] == [tangle.strand_pair()[1]] and obj["count"] > 0
            validators["tree-poly"].validate(obj)
            cuts += 1
    assert cuts == 31
    # --root N names the arc labelled N of the cut graph
    code, obj = run_json("tree-poly", "trefoil", "--cut", "1", "--root", "2")
    assert (code, obj["roots"], obj["count"]) == (EXIT_OK, ["2"], 0)
    code, obj = run_json("tree-poly", "trefoil", "--cut", "1", "--root", "1")
    assert (code, obj) == (EXIT_INPUT, {"error": "root 1 is not a vertex of the arc graph"})


def test_tree_poly_roots_take_the_printed_labels(validators):
    # --root takes back the labels that the output prints, the cut halves too
    for name in cli.corpus_names():
        d = cli.load_corpus(name)
        for arc in d.arcs:
            code, out = run("tree-poly", name, "--cut", str(arc))
            root = json.loads(out)["roots"][0]
            assert run("tree-poly", name, "--cut", str(arc), "--root", root) == (code, out)
    code, obj = run_json("tree-poly", "trefoil", "--cut", "1", "--root", "1'")
    assert (code, obj["roots"], obj["count"]) == (EXIT_OK, ["1'"], 0)
    validators["tree-poly"].validate(obj)
    # an integer token names the vertex of its value, and an error message
    # prints it so; any other token as it was typed
    assert run("tree-poly", "trefoil", "--root", "01") == run("tree-poly", "trefoil")
    for argv, error in [
            (("trefoil", "--root", "9"), "root 9 is not a vertex of the arc graph"),
            (("trefoil", "--root", "09"), "root 9 is not a vertex of the arc graph"),
            (("trefoil", "--root=-1"), "root -1 is not a vertex of the arc graph"),
            (("trefoil", "--root", "1''"), "root 1'' is not a vertex of the arc graph"),
            (("trefoil", "--cut", "1", "--root", "x"), "root x is not a vertex of the arc graph"),
            (("trefoil", "--root", "1", "--root", "1"), "root 1 given twice"),
            (("trefoil", "--root", "2", "--root", "1", "--root", "02"), "root 2 given twice"),
            (("trefoil", "--cut", "1", "--root", "1''", "--root", "1''"),
             "root 1'' given twice")]:
        assert run_json("tree-poly", *argv) == (EXIT_INPUT, {"error": error}), argv


HOPF = "X+ 2 1 1 / X+ 1 2 2\n"
CABLE_REFUSAL = "cabling copies the open strand only; arcs ['2'] lie on closed components"
KNOTS_ONLY = "Alexander polynomial here is for knots; links go through the zeta and split checks"


def test_split_diagram_has_twisted_numerator_zero(tmp_path, validators):
    unlink = tmp_path / "unlink.knot"
    unlink.write_text("arcs 2\n")
    code, obj = run_json("twisted", str(unlink))
    assert code == EXIT_OK
    assert obj["numerator"] == {"coeffs": {}, "unit": "1 t^0"}
    validators["twisted"].validate(obj)


def test_oversized_diagram_is_input_error(tmp_path, validators):
    big = tmp_path / "big.knot"
    big.write_text("arcs 1001\n")
    code, obj = run_json("zeta", str(big))
    assert (code, obj) == (EXIT_INPUT, {"error": "the diagram has 1001 arcs, more than the "
                                                 "1000 supported"})
    validators["error"].validate(obj)
    big.write_text("arcs " + "9" * 5000 + "\n")
    code, obj = run_json("zeta", str(big))
    assert (code, obj) == (EXIT_INPUT, {"error": "line 1: an arc number of 5000 digits, "
                                                 "more than the 1000 supported"})
    validators["error"].validate(obj)


def _tangle(arcs, crossings, pairs):
    return lambda: knot_model.Tangle(tuple(arcs), tuple(knot_model.Crossing(1, *c)
                                                         for c in crossings), pairs)


# one fault each: diagram text, read by `alexander`, or a call that must raise
DIAGRAM_FAULTS = [
    ("arcs 3\nX+ 4 1 2 / X+ 1 2 3 / X+ 2 3 1\n", "arc reference 4 outside 1..3"),
    ("X+ 3 1 2 / X+ 2 1 3 / X+ 2 3 1\n", "arc 1 ends at two crossings"),
    ("X+ 3 1 2 / X+ 1 3 2 / X+ 2 2 1\n", "arc 2 starts at two crossings"),
    ("arcs 3\nX+ 3 1 2 / X+ 1 2 3\n", "under strand does not close up at arcs [1, 3]"),
    ("X+ 3 1 3 / X+ 1 3 1\n", "arcs are not numbered consecutively: 1 is followed by 3"),
    (_tangle("aa", [], (("a", "a"),)), "duplicate arc labels in tangle"),
    (_tangle("a", [], ()), "a tangle needs at least one cut pair"),
    (_tangle("ab", ["xab"], (("a", "b"),)), "crossing references unknown arc 'x'"),
    (_tangle("abc", ["bab", "bac"], (("a", "c"),)), "arc 'a' ends at two crossings"),
    (_tangle("abc", ["aab", "acb"], (("a", "b"),)), "arc 'b' starts at two crossings"),
    (_tangle("ab", ["aab"], (("a", "b"), ("a", "b"))), "cut pairs reuse an endpoint"),
    (_tangle("ab", [], (("a", "z"),)), "cut pair ('a', 'z') references unknown arcs"),
    (_tangle("abc", ["aca"], (("a", "b"),)), "initial arc 'a' exits a crossing"),
    (_tangle("abc", ["aab", "abc"], (("a", "b"),)), "terminal arc 'b' enters a crossing"),
    (_tangle("abc", ["cab"], (("a", "c"),)), "strand from 'a' ends at 'b', not 'c'"),
    (lambda: build_arc_graph(cut(knot_model.parse_diagram("X+ 1 1 1\n"), [1])),
     "two edges on ordered pair (\"1'\", \"1''\"): diagram too degenerate for the "
     "one-edge-per-pair convention"),
]


@pytest.mark.parametrize("fault, message", DIAGRAM_FAULTS)
def test_diagram_faults_are_named_word_for_word(fault, message, tmp_path, validators):
    if callable(fault):
        with pytest.raises(knot_model.DiagramError) as refusal:
            fault()
        assert str(refusal.value) == message
        return
    path = tmp_path / "fault.knot"
    path.write_text(fault)
    code, obj = run_json("alexander", str(path))
    assert (code, obj) == (EXIT_INPUT, {"error": message})
    validators["error"].validate(obj)


def test_arc_numbers_padded_past_the_int_limit(tmp_path):
    # 5000 leading zeros, which int() alone refuses, before a count and
    # before an arc number: the answers of the unpadded diagrams
    zeros = "0" * 5000
    trefoil = "X+ 3 1 2\nX+ 1 2 3\nX+ 2 3 1\n"
    for cmd, plain, padded in (("twisted", "arcs 3\n", f"arcs {zeros}3\n"),
                               ("alexander", trefoil, trefoil.replace(" 1 2\n", f" 1 {zeros}2\n"))):
        outs = []
        for text in (plain, padded):
            path = tmp_path / "padded.knot"
            path.write_text(text)
            outs.append(run_json(cmd, str(path)))
        assert outs[0][0] == EXIT_OK and outs[1] == outs[0], cmd


def test_oversized_composite_is_skipped_or_input_error(monkeypatch, validators):
    # trefoil's 4-arc cut composed with itself has 7 arcs
    monkeypatch.setattr(knot_model, "MAX_ARCS", 6)
    refusal = "the composite has 7 arcs, more than the 6 supported"
    code, obj = run_json("zeta", "trefoil", "--check", "composition")
    assert (code, obj) == (EXIT_INPUT, {"error": refusal})
    validators["error"].validate(obj)
    trefoil = cli.load_corpus("trefoil")
    strand = knot_model.cut(trefoil, [trefoil.arcs[0]])
    report = cli._timed("composition:trefoil+trefoil", cli._check_composition,
                        strand, strand, {})
    validators["report"].validate(report)
    assert (report["status"], report["reason"]) == ("skipped", refusal)


def test_cable_refuses_a_link(tmp_path, validators):
    # cut open along one component, the Hopf link keeps the other closed;
    # verify skips the check and runs the rest
    hopf = tmp_path / "hopf.knot"
    hopf.write_text(HOPF)
    code, obj = run_json("zeta", str(hopf), "--check", "cable")
    assert (code, obj) == (EXIT_INPUT, {"error": CABLE_REFUSAL})
    validators["error"].validate(obj)
    code, out = run("verify", "cable", str(hopf), "--json")
    assert code == EXIT_OK
    reports = {r["check"]: r for r in map(json.loads, out.splitlines())}
    assert len(reports) == 3 * 2 + 2
    for n in (2, 3):
        report = reports[f"cable:hopf:n{n}"]
        validators["report"].validate(report)
        assert (report["status"], report["reason"]) == ("skipped", CABLE_REFUSAL)
    # the text mode names the reason after the check
    code, out = run("verify", "cable", str(hopf))
    assert code == EXIT_OK
    for n in (2, 3):
        assert re.search(rf"^\[skip\] cable:hopf:n{n} \([0-9.]+s\)  reason: "
                         rf"{re.escape(CABLE_REFUSAL)}$", out, re.M), n


def reports_beside_the_reference(out):
    """The reports of a `verify all --json` output whose ids the reference
    lacks, once every reference report is found in it with its bytes apart
    from `seconds`."""
    reference = {json.loads(line)["check"]: line
                 for line in REFERENCE.read_text().splitlines()}
    lines = {json.loads(line)["check"]: line for line in out.splitlines()}
    assert {check: re.sub(r',"seconds":[-+.0-9eE]+', "", lines[check])
            for check in reference} == reference
    return {check: json.loads(line) for check, line in lines.items()
            if check not in reference}


def test_verify_all_keeps_every_report_beside_a_link(tmp_path, validators):
    # a DiagramError ends one check, not the run: every corpus report is
    # the reference's, and each Hopf check passes or is skipped with its error
    hopf = tmp_path / "hopf.knot"
    hopf.write_text(HOPF)
    code, out = run("verify", "all", str(hopf), "--seed", "0", "--json")
    assert code == EXIT_OK
    extra = reports_beside_the_reference(out)
    corpus = sorted(cli.corpus_names())
    assert sorted(extra) == sorted(
        ["matrix-tree:hopf", "triple:hopf", "zeta:hopf", "path-sum:hopf:arc1",
         "path-sum:hopf:arc2", "cable:hopf:n2", "cable:hopf:n3", "twisted:trivial:hopf"]
        + [f"composition:{name}+hopf" for name in corpus + ["hopf"]])
    skipped = {check: r["reason"] for check, r in extra.items() if r["status"] == "skipped"}
    assert skipped == {"cable:hopf:n2": CABLE_REFUSAL, "cable:hopf:n3": CABLE_REFUSAL,
                       "triple:hopf": KNOTS_ONLY, "twisted:trivial:hopf": KNOTS_ONLY}
    for check, report in extra.items():
        validators["report"].validate(report)
        assert report["status"] in ("pass", "skipped"), check


def test_unplanned_euler_check_is_refused_and_skipped(tmp_path, validators):
    # zeta refuses T(3,4), on which no point is planned, as an input error,
    # and fails it at a given point; verify skips its zeta check and runs
    # the rest, every corpus report as in the reference
    path = tmp_path / "t34.knot"
    path.write_text(T34)
    for argv in (("zeta", str(path)), ("zeta", str(path), "--check", "euler")):
        code, obj = run_json(*argv)
        assert (code, obj) == (EXIT_INPUT, {"error": NO_PLANNED_POINT}), argv
        validators["error"].validate(obj)
    code, obj = run_json("zeta", str(path), "--check", "euler", "--t", "1/2")
    assert code == EXIT_INCONSISTENT and obj["detail"]["reason"] == NO_PLANNED_POINT
    code, out = run("verify", "all", str(path), "--seed", "0", "--json")
    assert code == EXIT_OK
    extra = reports_beside_the_reference(out)
    assert len(extra) == 24
    for check, report in extra.items():
        validators["report"].validate(report)
        if check == "zeta:t34":
            assert (report["status"], report["reason"]) == ("skipped", NO_PLANNED_POINT)
        else:
            assert report["status"] == "pass", check


def test_path_sum_refuses_a_split_diagram(tmp_path, validators):
    # D vanishes identically off the terminal of every cut, and so does
    # det(I - W) on the cut: zeta exits 2 for the path sum and for the Euler
    # check, with or without a sample point, and verify skips the six
    # path-sum checks and the zeta check, every corpus report unchanged
    path = tmp_path / "split.knot"
    path.write_text(SPLIT)
    for args, error in ((("--check", "path-sum"), NO_WALK_SUM), ((), NO_ZETA_VALUE),
                        (("--t", "1/2"), NO_ZETA_VALUE)):
        code, obj = run_json("zeta", str(path), *args)
        assert (code, obj) == (EXIT_INPUT, {"error": error}), args
        validators["error"].validate(obj)
    code, out = run("verify", "all", str(path), "--seed", "0", "--json")
    assert code == EXIT_OK
    extra = reports_beside_the_reference(out)
    for arc in range(1, 7):
        report = extra[f"path-sum:split:arc{arc}"]
        assert (report["status"], report["reason"]) == ("skipped", NO_WALK_SUM), arc
    report = extra["zeta:split"]
    assert (report["status"], report["reason"]) == ("skipped", NO_ZETA_VALUE)
    for check, report in extra.items():
        validators["report"].validate(report)
        assert report["status"] in ("pass", "skipped"), check


def test_verify_reports_a_failing_check(monkeypatch, validators):
    # a failing report carries the verdict's detail, and the text mode adds
    # a line with both sides under its [FAIL] line
    failing = Verdict("composition", False, {"composite": "1", "product": "2"})
    monkeypatch.setattr(cli, "composition_check", lambda *args: failing)
    code, out = run("verify", "composition", "--json")
    assert code == EXIT_INCONSISTENT
    reports = [json.loads(line) for line in out.splitlines()]
    assert len(reports) == 45
    for report in reports:
        validators["report"].validate(report)
        assert report["status"] == "fail"
        assert (report["lhs"], report["rhs"], report["detail"]) == ("1", "2", failing.detail)
    code, out = run("verify", "composition")
    assert code == EXIT_INCONSISTENT
    assert re.search(r"^\[FAIL\] composition:5_1\+5_1 \([0-9.]+s\)\n       lhs='1' rhs='2'$",
                     out, re.M)
    assert out.endswith("45 checks, 45 failures\n")


def test_verify_skips_a_dihedral_case_without_a_coloring(tmp_path, monkeypatch, validators):
    # a one-arc diagram under the name trefoil has no nonconstant 3-coloring
    (tmp_path / "trefoil.knot").write_text("arcs 1\n")
    monkeypatch.setenv("KNOTZETA_CORPUS", str(tmp_path))
    code, out = run("verify", "twisted", "--json")
    assert code == EXIT_OK
    reports = {r["check"]: r for r in map(json.loads, out.splitlines())}
    assert sorted(reports) == ["twisted:dihedral:trefoil:rep", "twisted:trivial:trefoil"]
    report = reports["twisted:dihedral:trefoil:rep"]
    validators["report"].validate(report)
    assert (report["status"], report["reason"]) == ("skipped", "no nonconstant 3-coloring")


def test_verify_without_a_corpus_directory_is_input_error(tmp_path, monkeypatch, validators):
    monkeypatch.setenv("KNOTZETA_CORPUS", str(tmp_path / "missing"))
    code, obj = run_json("verify", "all")
    assert code == EXIT_INPUT
    assert obj["error"].startswith("corpus directory unavailable: ")
    validators["error"].validate(obj)


def test_unknown_corpus_name(validators):
    code, obj = run_json("alexander", "not_a_knot")
    assert code == EXIT_INPUT
    validators["error"].validate(obj)


def test_unparsable_file_is_input_error(tmp_path):
    bad = tmp_path / "bad.knot"
    bad.write_text("X? 1 2 3\n")
    code, obj = run_json("det", str(bad))
    assert code == EXIT_INPUT
    assert obj["error"].startswith("line 1")


def test_zero_sample_point_is_input_error(validators):
    code, obj = run_json("zeta", "figure8", "--check", "euler", "--t", "0")
    assert code == EXIT_INPUT
    validators["error"].validate(obj)


@pytest.mark.parametrize("t", ["1e400", "1e-400", "1e100"])
def test_sample_point_beyond_float_range_is_input_error(t, validators):
    # |W(t)| overflows a float at 1e400 and 1e-400, and its 16th power at 1e100
    code, out = run("zeta", "figure8", "--check", "euler", "--t", t, "--max-len", "3")
    assert code == EXIT_INPUT
    [line] = out.splitlines()

    def reject(constant):
        raise AssertionError(f"non-JSON constant {constant}")

    obj = json.loads(line, parse_constant=reject)
    validators["error"].validate(obj)
    assert obj["error"].startswith("spectral estimate at t=")
    assert obj["error"].endswith(" is not finite")


@pytest.mark.parametrize("argv", [
    ("zeta", "figure8", "--check", "trace", "--max-len", "0"),
    ("zeta", "figure8", "--check", "euler", "--max-len", "0"),
    ("zeta", "trefoil", "--check", "cable", "--n", "0"),
    ("zeta", "trefoil", "--check", "cable", "--n", "-1"),
    ("zeta", "trefoil", "--check", "cable", "--t", ""),
    ("verify", "cable", "--n", "0"),
    ("verify", "cable", "--t", ""),
    ("verify", "cable", "--t", "0"),
])
def test_invalid_flag_value_is_input_error(argv, validators):
    # a given value that is 0 or empty must not run the flag's default
    code, obj = run_json(*argv)
    assert code == EXIT_INPUT
    validators["error"].validate(obj)


@pytest.mark.parametrize("argv, error", [
    (("zeta", "6_1", "--check", "trace", "--t", "1/2"), "--t does not apply to --check trace"),
    (("zeta", "6_1", "--check", "composition", "--max-len", "3", "--t", "5"),
     "--t does not apply to --check composition"),
    (("zeta", "trefoil", "--check", "euler", "--n", "2"), "--n does not apply to --check euler"),
    (("zeta", "trefoil", "--check", "path-sum", "--max-len", "3"),
     "--max-len does not apply to --check path-sum"),
    (("verify", "triple", "--n", "5"), "--n does not apply to suite triple"),
    (("verify", "triple", "--t", "abc"), "--t does not apply to suite triple"),
    (("verify", "zeta", "--n", "0"), "--n does not apply to suite zeta"),
    (("verify", "twisted", "--n", "2", "--t", "1/2"), "--n does not apply to suite twisted"),
])
def test_flag_that_the_check_does_not_read_is_input_error(argv, error, validators):
    code, obj = run_json(*argv)
    assert code == EXIT_INPUT
    assert obj == {"error": error}
    validators["error"].validate(obj)


def test_verify_parses_its_sample_point_before_any_check(monkeypatch, validators):
    def unreachable(*args):
        raise AssertionError("a check ran")

    monkeypatch.setattr(cli, "_timed", unreachable)
    code, obj = run_json("verify", "all", "--t", "abc")
    assert code == EXIT_INPUT
    assert obj == {"error": "not a rational number: 'abc'"}
    validators["error"].validate(obj)


@pytest.mark.parametrize("module, cap, argv", [
    (arborescence, "MAX_ARBORESCENCES", ("tree-poly", "5_2")),
    (zeta, "MAX_PRIMES", ("zeta", "figure8", "--check", "euler")),
])
def test_enumeration_cap_is_input_error(module, cap, argv, monkeypatch, validators):
    monkeypatch.setattr(module, cap, 2)
    code, obj = run_json(*argv)
    assert code == EXIT_INPUT
    assert obj["error"].startswith("more than 2 ")
    validators["error"].validate(obj)


def test_trace_horizon_beyond_the_cap_fails_fast(validators):
    # the prime counts are the trace check's only size cap: 6_1 has more
    # than 10^6 closed walks up to length 30 but fewer primes, and passes;
    # at 40 the count stops once the primes pass 10^6, and 1000 is deeper
    # than the walk searches go
    code, obj = run_json("zeta", "6_1", "--check", "trace", "--max-len", "30")
    assert code == EXIT_OK
    assert obj["passed"] is True
    validators["verdict"].validate(obj)
    for max_len, error in (("40", "more than 1000000 primes below length 40"),
                           ("1000", "horizon 1000 is deeper than the walk search reaches "
                                    f"({sys.getrecursionlimit() // 2} edges)")):
        start = time.perf_counter()
        code, obj = run_json("zeta", "6_1", "--check", "trace", "--max-len", max_len)
        assert time.perf_counter() - start < 1
        assert code == EXIT_INPUT
        assert obj == {"error": error}
        validators["error"].validate(obj)


@pytest.mark.parametrize("name, max_len", [("kink_pp", "2000"), ("trefoil", "100000000")])
def test_trace_horizon_past_the_search_depth_fails_fast(name, max_len, validators):
    # the walk DFSs nest one call per edge and keep to half of the recursion
    # limit; a deeper horizon is refused before any walk is enumerated
    start = time.perf_counter()
    code, obj = run_json("zeta", name, "--check", "trace", "--max-len", max_len)
    assert time.perf_counter() - start < 1
    assert code == EXIT_INPUT
    assert obj == {"error": f"horizon {max_len} is deeper than the walk search reaches "
                            f"({sys.getrecursionlimit() // 2} edges)"}
    validators["error"].validate(obj)


def test_euler_horizon_past_the_search_depth_fails_fast(validators):
    # the prime counts keep to the walk searches' horizon; the trefoil cut's
    # one cycle would keep them counting for minutes
    start = time.perf_counter()
    code, obj = run_json("zeta", "trefoil", "--check", "euler", "--t", "1/2",
                         "--max-len", "100000000")
    assert time.perf_counter() - start < 1
    assert code == EXIT_INPUT
    assert obj == {"error": "horizon 100000000 is deeper than the walk search reaches "
                            f"({sys.getrecursionlimit() // 2} edges)"}
    validators["error"].validate(obj)


def test_trace_horizon_under_the_cap_runs(validators):
    start = time.perf_counter()
    code, obj = run_json("zeta", "6_1", "--check", "trace", "--max-len", "12")
    assert time.perf_counter() - start < 1
    assert code == EXIT_OK
    assert obj["detail"] == {"failures": [], "max_power": 12}
    validators["verdict"].validate(obj)


def test_diagram_file_path_resolution(tmp_path, trefoil):
    path = tmp_path / "local.knot"
    path.write_text(render_diagram(trefoil))
    code, obj = run_json("alexander", str(path))
    assert code == EXIT_OK
    assert obj["det"] == 3


def test_corpus_env_override(tmp_path, trefoil, monkeypatch):
    (tmp_path / "only.knot").write_text(render_diagram(trefoil))
    monkeypatch.setenv("KNOTZETA_CORPUS", str(tmp_path))
    code, obj = run_json("det", "only")
    assert code == EXIT_OK
    assert obj == {"det": 3}
    code, obj = run_json("alexander", "trefoil")
    assert code == EXIT_INPUT


def test_byte_determinism():
    first = run("alexander", "5_2")
    second = run("alexander", "5_2")
    assert first == second


def test_verify_suite_json_reports(validators):
    code, out = run("verify", "matrix-tree", "--json")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert len(lines) > 1
    checks = []
    for line in lines:
        rep = json.loads(line)
        validators["report"].validate(rep)
        assert rep["status"] == "pass"
        checks.append(rep["check"])
    assert checks == sorted(checks)


def test_verify_human_output_has_summary():
    code, out = run("verify", "matrix-tree")
    assert code == EXIT_OK
    assert out.strip().endswith("failures")
    assert "[ok]" in out


def test_verify_includes_extra_diagram(tmp_path, trefoil):
    path = tmp_path / "extra.knot"
    path.write_text(render_diagram(trefoil))
    code, out = run("verify", "triple", str(path), "--json")
    assert code == EXIT_OK
    checks = [json.loads(line)["check"] for line in out.strip().splitlines()]
    assert "triple:extra" in checks


def test_verify_refuses_a_repeated_diagram_name(tmp_path, figure8, monkeypatch, validators):
    # a check id names its diagram: a file named like a corpus diagram (here
    # holding figure8), a corpus name given as an extra, and two files of
    # one stem would each repeat ids, so verify exits 2 before any check
    def unreachable(*args):
        raise AssertionError("a check ran")

    monkeypatch.setattr(cli, "_suite_reports", unreachable)
    for folder in ("x", "y"):
        (tmp_path / folder).mkdir()
        for stem in ("trefoil", "own"):
            (tmp_path / folder / f"{stem}.knot").write_text(render_diagram(figure8))
    shadow = str(tmp_path / "x" / "trefoil.knot")
    for argv, name in ((("triple", shadow), "trefoil"),
                       (("composition", shadow), "trefoil"),
                       (("triple", "trefoil"), "trefoil"),
                       (("all", str(tmp_path / "x" / "own.knot"),
                         str(tmp_path / "y" / "own.knot")), "own")):
        code, obj = run_json("verify", *argv, "--json")
        assert (code, obj) == (EXIT_INPUT, {"error": f"diagram {name} given twice"}), argv
        validators["error"].validate(obj)


def test_verify_all_with_extras_gives_each_report_its_own_id(tmp_path, figure8, trefoil):
    # two extras beside the nine corpus diagrams: 2 matrix-tree, 2 triple,
    # 2 zeta, 4 + 3 path-sum, 21 composition, 4 cable and 2 twisted reports
    for stem, d in (("a", figure8), ("b", trefoil)):
        (tmp_path / f"{stem}.knot").write_text(render_diagram(d))
    code, out = run("verify", "all", str(tmp_path / "a.knot"), str(tmp_path / "b.knot"),
                    "--seed", "0", "--json")
    assert code == EXIT_OK
    checks = [json.loads(line)["check"] for line in out.splitlines()]
    assert len(checks) == len(set(checks)) == 129 + 40


def test_verify_reports_deterministic_modulo_seconds():
    def normalized():
        _, out = run("verify", "triple", "--json")
        reports = [json.loads(line) for line in out.strip().splitlines()]
        for r in reports:
            r.pop("seconds")
        return reports
    assert normalized() == normalized()


def test_verify_seconds_are_per_check(monkeypatch):
    trace_check = cli.twisted_trace_check

    def slow_trace_check(*args, **kwargs):
        time.sleep(0.2)
        return trace_check(*args, **kwargs)

    monkeypatch.setattr(cli, "twisted_trace_check", slow_trace_check)
    code, out = run("verify", "twisted", "--json")
    assert code == EXIT_OK
    seconds = {r["check"]: r["seconds"] for r in map(json.loads, out.splitlines())}
    assert seconds["twisted:dihedral:trefoil:trace"] >= 0.2
    assert seconds["twisted:dihedral:trefoil:rep"] < 0.2


@pytest.fixture
def det_calls(monkeypatch):
    """A list that gets the size of every matrix handed to laurent.det."""
    calls = []
    original = laurent.det

    def counted(mat):
        calls.append(mat.rows)
        return original(mat)

    for name, module in list(sys.modules.items()):
        if name.startswith("knotzeta") and getattr(module, "det", None) is original:
            monkeypatch.setattr(module, "det", counted)
    return calls


def test_verify_passes_repeat_without_replaying(det_calls):
    # nothing may be kept from one cli.main call to the next: a second pass
    # prints the same bytes and computes the same determinants
    passes = []
    for _ in range(2):
        before = len(det_calls)
        code, out = run("verify", "all", "--seed", "0", "--json")
        assert code == EXIT_OK
        passes.append((re.sub(r',"seconds":[-+.0-9eE]+', "", out), len(det_calls) - before))
    assert passes[0] == passes[1]
    assert passes[0][1] > 0


def test_verify_pass_work_counts(monkeypatch):
    # one verify all --seed 0 pass: 213 kernel runs (243 while each path sum
    # took N and D from two eliminations), 2,164 entry updates in them
    # (2,383 while det handed the kernel its columns in index order, 3,053
    # while a row was caught up whole and an updated row's entries
    # outside the pivot row's columns were scaled at every step), 64
    # cuts (145 while each composition check cut both of its diagrams), and
    # 226 evaluations (799 before the path sums screened their samples for
    # rational roots of D); the updates are counted exactly, so the hooks
    # cannot pass without being called
    counts = {"kernel": 0, "entry": 0, "cut": 0, "evaluate": 0}
    kernel, entry, original_cut = laurent._bareiss, laurent._bareiss_entry, knot_model.cut
    evaluate = laurent.LaurentPoly.evaluate

    def counted_kernel(rows, width, q):
        counts["kernel"] += 1
        return kernel(rows, width, q)

    def counted_entry(*args):
        counts["entry"] += 1
        return entry(*args)

    def counted_cut(*args):
        counts["cut"] += 1
        return original_cut(*args)

    def counted_evaluate(poly, t0):
        counts["evaluate"] += 1
        return evaluate(poly, t0)

    monkeypatch.setattr(laurent, "_bareiss", counted_kernel)
    monkeypatch.setattr(laurent, "_bareiss_entry", counted_entry)
    monkeypatch.setattr(laurent.LaurentPoly, "evaluate", counted_evaluate)
    for name, module in list(sys.modules.items()):
        if name.startswith("knotzeta") and getattr(module, "cut", None) is original_cut:
            monkeypatch.setattr(module, "cut", counted_cut)
    code, _ = run("verify", "all", "--seed", "0", "--json")
    assert code == EXIT_OK
    assert counts["entry"] == 2_164, counts
    assert counts["kernel"] <= 213 and counts["cut"] <= 64 and counts["evaluate"] <= 226, counts


def test_alexander_takes_the_determinant_from_its_polynomial(det_calls, corpus):
    # one Wirtinger minor determinant per call, for "poly" and "det" both
    from tests.conftest import KNOWN_DET
    for name, expect in KNOWN_DET.items():
        det_calls.clear()
        code, obj = run_json("alexander", name)
        assert code == EXIT_OK and obj["det"] == expect
        assert det_calls == [max(corpus[name].n_arcs - 1, 0)], name


def test_composition_determinants_once_per_factor(det_calls):
    code, out = run("verify", "composition", "--json")
    assert code == EXIT_OK
    assert len(out.splitlines()) == 45
    assert len(det_calls) == 45 + 9
    det_calls.clear()
    code, _ = run("zeta", "trefoil", "--check", "composition")
    assert code == EXIT_OK
    assert len(det_calls) == 2


REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / \
    "verify-seed0.jsonl"


@pytest.mark.parametrize("suite", ["matrix-tree", "triple", "zeta", "path-sum",
                                   "composition", "cable", "twisted"])
def test_verify_matches_reference_output(suite):
    reference = {json.loads(line)["check"]: line
                 for line in REFERENCE.read_text().splitlines()}
    code, out = run("verify", suite, "--seed", "0", "--json")
    assert code == EXIT_OK
    lines = {json.loads(line)["check"]: re.sub(r',"seconds":[-+.0-9eE]+', "", line)
             for line in out.splitlines()}
    assert sorted(lines) == sorted(c for c in reference if c.startswith(suite + ":"))
    for check, line in lines.items():
        assert line == reference[check], check


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "knotzeta", "det", "unknot"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == '{"det":1}\n'


class ReadRecorder(argparse.Namespace):
    """A namespace that records the names of the attributes read from it."""

    def __init__(self):
        super().__init__()
        self._reads = set()

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_reads").add(name)
        return object.__getattribute__(self, name)


@pytest.mark.parametrize("argv", [("alexander", "trefoil"), ("det", "trefoil"),
                                  ("tree-poly", "trefoil"),
                                  ("zeta", "trefoil", "--check", "path-sum"),
                                  ("twisted", "trefoil"), ("verify", "triple")],
                         ids=lambda argv: argv[0])
def test_every_parsed_flag_is_read_by_its_handler(argv, capsys):
    # a flag that no handler reads does nothing, whatever the user gives
    ns = cli.build_parser().parse_args(list(argv), namespace=ReadRecorder())
    handler = cli.HANDLERS[ns.command]
    parsed = {name for name in vars(ns) if not name.startswith("_")} - {"command"}
    ns._reads.clear()
    assert handler(ns) == EXIT_OK
    assert parsed - ns._reads == set()


@pytest.mark.parametrize("command", ["alexander", "det", "tree-poly", "zeta", "twisted"])
def test_compute_subcommands_take_no_json_flag(command, capsys):
    with pytest.raises(SystemExit) as exc:
        run(command, "trefoil", "--json")
    assert exc.value.code == 2


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run()
    assert exc.value.code == 2
