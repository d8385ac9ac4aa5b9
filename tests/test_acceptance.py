"""Acceptance gate: ten criteria, one printed pass/fail line each.

Each criterion computes its verdict, prints exactly one line, then asserts,
so the line lands in the report for green and red outcomes alike.
"""

import json
import subprocess
import sys
import time
import warnings
from fractions import Fraction

from knotzeta.alexander import alexander_polynomial, knot_determinant, \
    multiplicativity_check, split_check
from knotzeta.arborescence import MAX_RANDOM_VERTICES, determinant_via_trees, \
    enumerate_arborescences, random_matrix_tree_check, tree_polynomial
from knotzeta.arc_graph import alexander_spec, build_arc_graph, \
    tangle_determinant
from knotzeta.knot_model import Presentation, cable, cut, wirtinger_presentation
from knotzeta.laurent import _det_bareiss, canonicalize, det_cofactor
from knotzeta.twisted import column_independence_check, dihedral_rep, \
    fox_colorings, trivial_reduction_check, twisted_alexander_matrix, \
    twisted_alexander_polynomial, twisted_block_identity_check, twisted_chain, \
    twisted_trace_check, verify_representation
from knotzeta.zeta import ConvergenceWarning, determinant_formula_check, \
    path_sum_check, spectral_estimate, trace_identity_check, \
    zeta_partial_product


def report(num, ok, text):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {text}")
    return ok


def test_criterion_01_triple_agreement(corpus):
    """Minor determinant, arborescence sum, and det(I - W) agree corpus-wide."""
    spec = alexander_spec()
    start = time.perf_counter()
    bad = []
    for name, d in corpus.items():
        minor = alexander_polynomial(d).poly
        trees = canonicalize(tree_polynomial(build_arc_graph(d), (1,), spec)).poly
        walks = canonicalize(
            tangle_determinant(build_arc_graph(cut(d, [1])), spec)).poly
        if not minor == trees == walks:
            bad.append(name)
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 10.0
    assert report(1, ok, f"triple agreement on {len(corpus)} diagrams "
                         f"in {elapsed:.2f}s (budget 10s)"), bad
    assert elapsed < 10.0


def test_criterion_02_named_knots_with_tree_oracle(corpus):
    """Trefoil and figure-eight values, oracle side enumerated first."""
    spec = alexander_spec()
    expected = {
        "trefoil": ({0: 1, 1: -1, 2: 1}, 3),
        "figure8": ({0: 1, 1: -3, 2: 1}, 5),
    }
    ok = True
    for name, (coeffs, detval) in expected.items():
        d = corpus[name]
        g = build_arc_graph(d)
        # oracle first: explicit arborescence enumeration, then the closed form
        arbs = enumerate_arborescences(g, (1,), spec)
        oracle_poly = canonicalize(tree_polynomial(g, (1,), spec)).poly
        oracle_det = abs(determinant_via_trees(d))
        poly = alexander_polynomial(d).poly
        ok &= bool(arbs)
        ok &= poly.coeffs == coeffs and poly == oracle_poly
        ok &= knot_determinant(d) == detval == oracle_det
    assert report(2, ok, "trefoil and figure-eight polynomials and "
                         "determinants match the arborescence oracle")


def test_criterion_03_random_matrix_tree():
    """200 seeded random digraphs satisfy matrix-tree exactly."""
    v = random_matrix_tree_check(count=200, seed=0)
    ok = v.passed and v.detail["count"] == 200
    assert report(3, ok, "matrix-tree identity on 200 random digraphs "
                         f"(seed 0, up to {MAX_RANDOM_VERTICES} vertices)"), v.detail


def test_criterion_04_trace_identity_everywhere(corpus):
    """tr(W^m) equals walk sums and the log truncation, all knots, all cuts."""
    spec = alexander_spec()
    failures = []
    checks = 0
    for name, d in corpus.items():
        for arc in d.arcs:
            g = build_arc_graph(cut(d, [arc]))
            v = trace_identity_check(g, spec, max_power=8)
            checks += 1
            if not v.passed:
                failures.append((name, arc, v.detail))
    ok = not failures
    assert report(4, ok, f"trace and log-truncation identities to power 8 "
                         f"on {checks} cut graphs"), failures


def test_criterion_05_euler_product_values(corpus):
    """Euler products reach 1/det(I - W) where they converge, and only there.

    The trefoil product at t = 1/2 is exactly 4/3 by prime length 22.  For
    the figure-eight cut, det(I - W) = -t + 3 - 1/t, which is -Delta(t)/t,
    and the nonzero eigenvalues of W(t) are +-|t - 1|/sqrt(t).  The product
    therefore converges exactly where (t - 1)^2/t < 1: there the self-planned
    check must reach 1/det(I - W) within 1e-6 by length 40.  At t = 1/10 the
    spectral radius is 0.9/sqrt(0.1), about 2.85, so the product diverges
    there; the program must warn, and the check must fail against the
    target 1/det(I - W(1/10)) = -10/71.
    """
    spec = alexander_spec()
    g3 = build_arc_graph(cut(corpus["trefoil"], [1]))
    trefoil_val = zeta_partial_product(g3, spec, Fraction(1, 2), 22)
    trefoil_ok = trefoil_val == Fraction(4, 3)

    g8 = build_arc_graph(cut(corpus["figure8"], [1]))
    fox_ok = (canonicalize(tangle_determinant(g8, spec)).poly
              == alexander_polynomial(corpus["figure8"]).poly)

    conv = determinant_formula_check(g8, spec)
    t0 = Fraction(conv.detail.get("t0", 0))
    fig8_ok = (conv.passed and conv.detail["max_len"] <= 40
               and conv.detail["gap"] <= 1e-6 and (t0 - 1) ** 2 < t0)

    far = Fraction(1, 10)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        zeta_partial_product(g8, spec, far, 6)
        warned = any(issubclass(w.category, ConvergenceWarning)
                     for w in caught)
        far_check = determinant_formula_check(g8, spec, t0=far, max_len=6)
    radius = spectral_estimate(g8, spec, far)
    far_ok = (warned and radius > 1 and not far_check.passed
              and far_check.detail["inverse_determinant"]
              == float(Fraction(-10, 71)))

    ok = trefoil_ok and fox_ok and fig8_ok and far_ok
    assert report(5, ok, f"trefoil product exactly 4/3: {trefoil_ok}; "
                         f"figure-eight det(I - W) is Delta up to a unit: "
                         f"{fox_ok}; within 1e-6 of 1/det(I - W) by length 40: "
                         f"{fig8_ok} (t0 {t0}, length "
                         f"{conv.detail.get('max_len')}, gap "
                         f"{conv.detail.get('gap', float('nan')):.3g}); "
                         f"divergent at t=1/10 (spectral estimate "
                         f"{radius:.3f}, target -10/71): {far_ok}")


def test_criterion_06_path_sum(corpus):
    """Walk sum across every cut of every knot is exactly 1 at 20 samples."""
    failures = []
    tangles = 0
    for name, d in corpus.items():
        for arc in d.arcs:
            v = path_sum_check(cut(d, [arc]), seed=0)
            tangles += 1
            if not (v.passed and len(v.detail["verified"]) >= 20):
                failures.append((name, arc, v.detail))
    ok = not failures
    assert report(6, ok, f"path sums equal 1 at 20 seeded samples on "
                         f"{tangles} one-strand tangles"), failures


def test_criterion_07_composition_laws(corpus):
    """Connected sums multiply and split unions vanish, over all pairs."""
    names = sorted(corpus)
    failures = []
    pairs = 0
    for i, a in enumerate(names):
        for b in names[i:]:
            pairs += 1
            if not multiplicativity_check(corpus[a], corpus[b]).passed:
                failures.append(("product", a, b))
            if not split_check(corpus[a], corpus[b]).passed:
                failures.append(("split", a, b))
    ok = not failures
    assert report(7, ok, f"multiplicativity and split vanishing over "
                         f"{pairs} corpus pairs"), failures


def test_criterion_08_cabling(corpus):
    """The n-cable determinant is the original evaluated at t = u^n."""
    spec = alexander_spec()
    failures = []
    for name in ("trefoil", "figure8"):
        tangle = cut(corpus[name], [1])
        orig = tangle_determinant(build_arc_graph(tangle), spec)
        for n in (2, 3):
            cabled = tangle_determinant(build_arc_graph(cable(tangle, n)), spec)
            for u in (Fraction(1, 2), Fraction(2, 3)):
                if cabled.evaluate(u) != orig.evaluate(u ** n):
                    failures.append((name, n, str(u)))
    ok = not failures
    assert report(8, ok, "cable determinants match substitution t -> u^n "
                         "for n in {2, 3} at u in {1/2, 2/3}"), failures


def test_criterion_09_twisted(corpus):
    """Trivial reduction corpus-wide plus the two dihedral case studies."""
    failures = []
    for name, d in corpus.items():
        if not trivial_reduction_check(d).passed:
            failures.append(("trivial", name))
    cases = (("trefoil", 3, 7), ("figure8", 5, 11))
    for name, p, q in cases:
        d = corpus[name]
        rep = dihedral_rep(d, p, fox_colorings(d, p).nonconstant())
        if rep.field != q:
            failures.append(("field", name))
        if not verify_representation(wirtinger_presentation(d), rep).passed:
            failures.append(("rep", name))
        chain = twisted_chain(d, rep)
        if not twisted_block_identity_check(chain).passed:
            failures.append(("blocks", name))
        if not column_independence_check(chain).passed:
            failures.append(("columns", name))
        if not twisted_trace_check(chain).passed:
            failures.append(("trace", name))
        # cofactor oracle for the numerator minor behind the quotient
        tw = twisted_alexander_polynomial(d, rep)
        pres = wirtinger_presentation(d)
        reduced = Presentation(pres.generators, pres.relators[:-1])
        full = twisted_alexander_matrix(reduced, rep)
        m = rep.dim
        pos = pres.generators.index(tw.column)
        kept = full.delete(rows=(), cols=tuple(range(pos * m, (pos + 1) * m)))
        if det_cofactor(kept) != _det_bareiss(kept):
            failures.append(("cofactor", name))
    ok = not failures
    assert report(9, ok, "twisted suite: trivial reduction on all "
                         f"{len(corpus)} diagrams, dihedral checks over F_7 "
                         "and F_11 with cofactor oracle"), failures


def test_criterion_10_verify_all():
    """The CLI verify-all run finishes under two minutes with no failures."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "knotzeta", "verify", "all", "--seed", "0",
         "--json"],
        capture_output=True, text=True, timeout=240)
    elapsed = time.perf_counter() - start
    reports = [json.loads(line) for line in proc.stdout.strip().splitlines()]
    n_fail = sum(r["status"] == "fail" for r in reports)
    ok = proc.returncode == 0 and n_fail == 0 and elapsed < 120.0 and reports
    assert report(10, bool(ok), f"verify all --seed 0: {len(reports)} checks, "
                                f"{n_fail} failures, {elapsed:.1f}s "
                                f"(budget 120s)")
