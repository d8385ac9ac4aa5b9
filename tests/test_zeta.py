"""Prime cycles, trace identities, Euler products, and strand walk sums."""

import json
import math
import random
import warnings
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from knotzeta.arc_graph import ArcGraph, alexander_spec, build_arc_graph, \
    tangle_determinant, weight_matrix
from knotzeta import zeta
from knotzeta.knot_model import DiagramError, cut, parse_diagram
from knotzeta.laurent import LaurentPoly, RingMatrix
from knotzeta.zeta import ConvergenceWarning, cabling_check, closed_walks, \
    composition_check, determinant_formula_check, path_sum_check, power_traces, \
    prime_cycles, sample_points, spectral_estimate, strand_walk_sum, \
    total_strand_weight, trace_identity_check, zeta_partial_product
from tests.conftest import NO_PLANNED_POINT, NO_WALK_SUM, NO_ZETA_VALUE, SPLIT, T34, \
    traces_of_repeated_products


def walk_weight(walk, spec):
    """The product of a walk's edge weights, edge by edge."""
    return math.prod((spec[e.label] for e in walk), start=LaurentPoly.one())


@pytest.fixture(scope="module")
def trefoil_cut(trefoil):
    return build_arc_graph(cut(trefoil, [1]))


@pytest.fixture(scope="module")
def fig8_cut(figure8):
    return build_arc_graph(cut(figure8, [1]))


@pytest.fixture(scope="module")
def every_cut(corpus):
    """{"name:arc": arc graph} for the 31 one-arc cuts of the corpus."""
    return {f"{name}:{arc}": build_arc_graph(cut(d, [arc]))
            for name, d in corpus.items() for arc in d.arcs}


def test_closed_walks_on_closed_trefoil(trefoil):
    g = build_arc_graph(trefoil)
    # go-under edges form the single 3-cycle 1->2->3->1; each jump-up points
    # back one arc, giving three 2-cycles, hence six based walks of length 2
    assert len(closed_walks(g, 1)) == 0
    assert len(closed_walks(g, 2)) == 6
    with pytest.raises(ValueError):
        closed_walks(g, 0)


def test_closed_walks_are_based(trefoil):
    g = build_arc_graph(trefoil)
    for walk in closed_walks(g, 3):
        assert walk[0].src == walk[-1].dst
        for a, b in zip(walk, walk[1:]):
            assert a.dst == b.src


def test_prime_cycles_unique_up_to_rotation(trefoil):
    g = build_arc_graph(trefoil)
    primes = prime_cycles(g, 6)
    seqs = set()
    for p in primes:
        verts = tuple(e.src for e in p)
        rotations = {verts[i:] + verts[:i] for i in range(len(verts))}
        assert not (rotations & seqs), "two representatives of one class"
        seqs.update(rotations)


def test_prime_cycles_exclude_proper_powers(trefoil_cut):
    for p in prime_cycles(trefoil_cut, 8):
        verts = tuple(e.src for e in p)
        n = len(verts)
        for d in range(1, n):
            if n % d == 0:
                assert verts[:d] * (n // d) != verts


def test_prime_cycles_sorted_by_length(fig8_cut):
    lengths = [len(p) for p in prime_cycles(fig8_cut, 7)]
    assert lengths == sorted(lengths)


def test_cut_graph_has_no_cycles_through_endpoints(trefoil_cut):
    for p in prime_cycles(trefoil_cut, 10):
        for e in p:
            assert e.src not in ("1'", "1''")


def test_content_weight_is_the_edge_weight_product(every_cut):
    # a prime's weight depends only on how often each label occurs in it
    spec = alexander_spec()
    for g in every_cut.values():
        labels = zeta._content_labels(g)
        weights = [spec[label] for label in labels]
        for p in prime_cycles(g, 6):
            content = tuple(sum(e.label == label for e in p) for label in labels)
            manual = spec[p[0].label]
            for e in p[1:]:
                manual = manual * spec[e.label]
            assert zeta._content_weight(weights, content) == manual


def test_incremental_content_weights_equal_the_from_scratch_product(every_cut):
    spec = alexander_spec()
    for key, g in every_cut.items():
        weights = [spec[label] for label in zeta._content_labels(g)]
        weight_of = zeta._content_weigher(weights)
        for content in zeta._prime_counts(g, 8)[0]:
            assert weight_of(content) == zeta._content_weight(weights, content), \
                (key, content)


def test_prime_counts_equal_the_per_length_enumeration(corpus, every_cut):
    # the DP's walk counts per content against the unpruned enumeration
    graphs = list(every_cut.values()) + [build_arc_graph(d) for d in corpus.values()]
    for g in graphs:
        contents, _ = zeta._prime_counts(g, 7)
        labels = zeta._content_labels(g)
        enumerated = Counter()
        for m in range(1, 8):
            enumerated.update(tuple(sum(e.label == label for e in w) for label in labels)
                              for w in closed_walks(g, m))
        assert contents == enumerated


def test_trace_oracle_multiplies_per_content_not_per_walk(corpus, monkeypatch):
    # a DFS that multiplies polynomials along every walk makes more products
    # than there are closed walks; weighing each content once makes far fewer
    g = build_arc_graph(cut(corpus["6_1"], [1]))
    walks = sum(zeta._prime_counts(g, 20)[0].values())
    assert walks == 39600
    products = []
    mul = LaurentPoly.__mul__
    for name in ("__mul__", "__rmul__"):
        monkeypatch.setattr(LaurentPoly, name, lambda a, b: products.append(1) or mul(a, b))
    assert trace_identity_check(g, alexander_spec(), 20).passed
    assert 0 < len(products) < walks


def test_pruned_prime_cycles_equal_the_filtered_closed_walks(corpus, every_cut):
    graphs = list(every_cut.values()) + [build_arc_graph(d) for d in corpus.values()]
    for g in graphs:
        index = {v: i for i, v in enumerate(g.vertices)}
        expected = []
        for m in range(1, 8):
            for walk in closed_walks(g, m):
                seq = tuple(index[e.src] for e in walk)
                if seq == zeta._minimal_rotation(seq) and zeta._is_primitive(seq):
                    expected.append((m, seq, walk))
        expected.sort(key=lambda item: item[:2])
        assert prime_cycles(g, 7) == [walk for _, _, walk in expected]


def test_counts_pass_over_the_edge_list_a_fixed_number_of_times(corpus, every_cut):
    # the return distances read the graph's cached in_map, not a reversed
    # edge list rebuilt for every start vertex
    passes = []

    class Edges(tuple):
        def __iter__(self):
            passes.append(1)
            return super().__iter__()

    graphs = list(every_cut.values()) + [build_arc_graph(d) for d in corpus.values()]
    for count in (zeta._prime_counts, prime_cycles):
        seen = set()
        for g in graphs:
            passes.clear()
            count(ArcGraph(g.vertices, Edges(g.edges)), 8)
            seen.add(len(passes))
        assert len(seen) == 1 and seen.pop() <= 3, count


def test_prime_cap_refuses_the_trace_check(fig8_cut, monkeypatch):
    # the content DP's own cap is the trace check's only size refusal: the
    # figure-eight cut has 14 primes (124 based closed walks) up to length 10
    spec = alexander_spec()
    walks, primes = zeta._prime_counts(fig8_cut, 10)
    assert (sum(primes.values()), sum(walks.values())) == (14, 124)
    monkeypatch.setattr(zeta, "MAX_PRIMES", 14)
    assert trace_identity_check(fig8_cut, spec, 10).passed
    monkeypatch.setattr(zeta, "MAX_PRIMES", 13)
    with pytest.raises(RuntimeError, match="more than 13 primes below length 10"):
        trace_identity_check(fig8_cut, spec, 10)


def test_horizon_past_the_search_depth_raises_before_enumerating(trefoil_cut, monkeypatch):
    deepest = zeta._deepest_walk()
    monkeypatch.setattr(zeta, "_return_distances", lambda *args: pytest.fail("enumerated"))
    monkeypatch.setattr(zeta, "_content_codes", lambda *args: pytest.fail("counted"))
    for search in (prime_cycles, zeta._prime_counts,
                   lambda g, n: trace_identity_check(g, alexander_spec(), n)):
        with pytest.raises(RuntimeError, match=f"horizon {deepest + 1} is deeper than "
                                               f"the walk search reaches \\({deepest} edges"):
            search(trefoil_cut, deepest + 1)


def test_power_traces_equal_the_repeated_products(corpus):
    for name, d in corpus.items():
        w = weight_matrix(build_arc_graph(cut(d, [1])), alexander_spec())
        for max_power in range(1, 10):
            assert power_traces(w, max_power) == traces_of_repeated_products(w, max_power), \
                (name, max_power)


def test_power_traces_form_only_the_half_powers(corpus, monkeypatch):
    # the traces above ceil(M/2) are read off two formed powers, so W^h is
    # the highest power formed; 6_1's arc-1 cut at M = 8 took 7 products
    w = weight_matrix(build_arc_graph(cut(corpus["6_1"], [1])), alexander_spec())
    products = []
    matmul = RingMatrix.__matmul__
    monkeypatch.setattr(RingMatrix, "__matmul__", lambda a, b: products.append(1) or matmul(a, b))
    for max_power in range(1, 10):
        products.clear()
        assert len(power_traces(w, max_power)) == max_power
        assert len(products) == (max_power + 1) // 2 - 1, max_power


def test_trace_identity_on_corpus_cuts(corpus):
    spec = alexander_spec()
    for name, d in corpus.items():
        g = build_arc_graph(cut(d, [1]))
        v = trace_identity_check(g, spec, max_power=6)
        assert v.passed, (name, v.detail)


def test_log_truncation_fails_without_one_prime(fig8_cut, monkeypatch):
    # the log side multiplies out _prime_counts' primes; one fewer must show
    counts = zeta._prime_counts

    def one_fewer(g, max_len):
        walks, primes = counts(g, max_len)
        primes[max(primes, key=sum)] -= 1
        return walks, primes

    monkeypatch.setattr(zeta, "_prime_counts", one_fewer)
    v = trace_identity_check(fig8_cut, alexander_spec(), 6)
    assert not v.passed
    assert [f["m"] for f in v.detail["failures"]] == ["log-truncation"]


def test_log_truncation_failure_reads_as_the_fraction_sums(fig8_cut, monkeypatch):
    # the check compares both sides times lcm(1, ..., 6) on integer factors;
    # its failure entry must still print the sums sum(tr(W^m) / m) and
    # sum(n weight(p)^j / j), here built on Fractions term by term
    spec, counts, tables = alexander_spec(), zeta._prime_counts, []

    def one_more(g, max_len):
        walks, primes = counts(g, max_len)
        primes[min(primes, key=sum)] += 1
        tables.append(primes)
        return walks, primes

    monkeypatch.setattr(zeta, "_prime_counts", one_more)
    v = trace_identity_check(fig8_cut, spec, 6)
    [primes] = tables
    weights = [spec[label] for label in zeta._content_labels(fig8_cut)]
    traces = traces_of_repeated_products(weight_matrix(fig8_cut, spec), 6)
    trace_side = sum((tr * Fraction(1, m) for m, tr in enumerate(traces, 1)),
                     LaurentPoly.zero())
    prime_side = sum((math.prod(w ** (j * k) for w, k in zip(weights, content))
                      * Fraction(n, j)
                      for content, n in primes.items()
                      for j in range(1, 6 // sum(content) + 1)), LaurentPoly.zero())
    assert trace_side != prime_side
    assert v.detail["failures"] == [{"m": "log-truncation", "trace": str(trace_side),
                                     "walks": str(prime_side)}]


@pytest.mark.parametrize("pick", [min, max])
def test_trace_identity_fails_where_one_walk_is_missing(fig8_cut, monkeypatch, pick):
    # both sides read one _prime_counts run; one walk fewer in one content
    # must still fail the comparison with tr(W^m), at that content's m alone
    counts = zeta._prime_counts
    changed = []

    def one_walk_fewer(g, max_len):
        walks, primes = counts(g, max_len)
        changed.append(pick(walks, key=sum))
        walks[changed[-1]] -= 1
        return walks, primes

    monkeypatch.setattr(zeta, "_prime_counts", one_walk_fewer)
    v = trace_identity_check(fig8_cut, alexander_spec(), 6)
    [content] = changed
    assert not v.passed
    assert [f["m"] for f in v.detail["failures"]] == [sum(content)]


def _mod7_spec():
    """alexander_spec() with every weight reduced mod 7."""
    return {label: LaurentPoly(w.coeffs, 7) for label, w in alexander_spec().items()}


def test_trace_identity_rejects_modular_spec(trefoil_cut):
    with pytest.raises(ValueError):
        trace_identity_check(trefoil_cut, _mod7_spec(), zeta.TRACE_HORIZON)


def test_determinant_formula_rejects_modular_spec(trefoil_cut):
    with pytest.raises(ValueError):
        determinant_formula_check(trefoil_cut, _mod7_spec())


def test_spectral_estimate_shrinks_near_one(fig8_cut):
    spec = alexander_spec()
    far = spectral_estimate(fig8_cut, spec, Fraction(1, 10))
    near = spectral_estimate(fig8_cut, spec, Fraction(9, 10))
    assert near < 1 < far


PLANNER_PINS = json.loads(
    (Path(__file__).parent / "data" / "planner_pins.json").read_text())


def test_planner_numbers_equal_those_of_the_dense_loops(every_cut):
    # recorded from the dense n x n loops that the row-by-row estimate and the
    # one path count replaced: the estimate's repr, or "raises", at each
    # point, and the path budget at every horizon 1..40
    spec = alexander_spec()
    points = [Fraction(p) for p in PLANNER_PINS["points"]]
    assert points[:len(zeta._T0_CANDIDATES)] == list(zeta._T0_CANDIDATES)
    assert sorted(every_cut) == sorted(PLANNER_PINS["spectral_estimate"])
    assert len(every_cut) == 31
    for key, g in every_cut.items():
        for t0, pinned in zip(points, PLANNER_PINS["spectral_estimate"][key]):
            if pinned == "raises":
                with pytest.raises(DiagramError, match="is not finite"):
                    spectral_estimate(g, spec, t0)
            else:
                assert repr(spectral_estimate(g, spec, t0)) == pinned, (key, t0)
        assert zeta._path_totals(g) == PLANNER_PINS["walk_budget"][key], key


def test_partial_product_exact_trefoil(trefoil_cut):
    # at t=1/2 the product telescopes quickly; the length-4 horizon already
    # equals 1/det exactly because longer primes carry weight zero
    spec = alexander_spec()
    target = 1 / tangle_determinant(trefoil_cut, spec).evaluate(Fraction(1, 2))
    assert zeta_partial_product(trefoil_cut, spec, Fraction(1, 2), 22) == target
    assert target == Fraction(4, 3)


def test_partial_product_converges_figure8(fig8_cut):
    spec = alexander_spec()
    t0 = Fraction(9, 10)
    target = 1 / tangle_determinant(fig8_cut, spec).evaluate(t0)
    partial = zeta_partial_product(fig8_cut, spec, t0, 20)
    assert abs(float(partial) - float(target)) < 1e-4


def test_partial_product_warns_when_divergent(fig8_cut):
    spec = alexander_spec()
    with pytest.warns(ConvergenceWarning):
        zeta_partial_product(fig8_cut, spec, Fraction(1, 10), 4)


def euler_factors(g, spec, t0, max_len):
    """The Euler factors of the truncation at max_len, from its own count."""
    return zeta._euler_factors(g, spec, t0, zeta._prime_counts(g, max_len)[1])


def test_partial_product_float_mode(fig8_cut):
    spec = alexander_spec()
    t0 = Fraction(9, 10)
    exact = zeta_partial_product(fig8_cut, spec, t0, 14)
    approx = zeta._log_product(euler_factors(fig8_cut, spec, t0, 14))
    assert math.isclose(float(exact), approx, rel_tol=1e-9)


def enumerated_product(g, spec, t0, max_len):
    """The Euler product prime by prime, over the enumerated primes."""
    product = Fraction(1)
    for p in prime_cycles(g, max_len):
        product /= 1 - walk_weight(p, spec).evaluate(t0)
    return product


@pytest.mark.parametrize("t0", [Fraction(1, 10), Fraction(1, 5)])
@pytest.mark.parametrize("max_len", [8, 12])
def test_log_space_product_accuracy(fig8_cut, t0, max_len):
    # divergent points: the log-space branch is the one the check takes there
    exact = enumerated_product(fig8_cut, alexander_spec(), t0, max_len)
    approx = zeta._log_product(euler_factors(fig8_cut, alexander_spec(), t0, max_len))
    assert math.isclose(approx, float(exact), rel_tol=1e-12)


def test_prime_counts_match_enumeration(corpus):
    for name, d in corpus.items():
        for arc in d.arcs:
            g = build_arc_graph(cut(d, [arc]))
            labels = zeta._content_labels(g)
            for max_len in range(1, 13):
                enumerated = Counter(
                    tuple(sum(e.label == label for e in p) for label in labels)
                    for p in prime_cycles(g, max_len))
                assert zeta._prime_counts(g, max_len)[1] == enumerated, \
                    (name, arc, max_len)


@pytest.mark.parametrize("name, t0, max_len", [
    ("5_2", Fraction(9, 10), 12),
    ("6_1", Fraction(49, 50), 12),  # all four labels
    ("figure8", Fraction(9, 10), 14),
])
def test_partial_product_matches_enumeration(corpus, name, t0, max_len):
    g = build_arc_graph(cut(corpus[name], [1]))
    spec = alexander_spec()
    assert zeta_partial_product(g, spec, t0, max_len) == \
        enumerated_product(g, spec, t0, max_len)


def test_determinant_formula_never_enumerates_primes(every_cut, monkeypatch):
    # the Euler check only counts primes; prime_cycles is its oracle here
    monkeypatch.setattr(zeta, "prime_cycles", lambda *args: pytest.fail("enumerated"))
    spec = alexander_spec()
    for key, g in every_cut.items():
        v = determinant_formula_check(g, spec)
        assert v.passed, (key, v.detail)


def test_prime_cap_counts_every_prime(fig8_cut, monkeypatch):
    spec = alexander_spec()
    total = len(prime_cycles(fig8_cut, 12))
    monkeypatch.setattr(zeta, "MAX_PRIMES", total)
    zeta_partial_product(fig8_cut, spec, Fraction(9, 10), 12)
    monkeypatch.setattr(zeta, "MAX_PRIMES", total - 1)
    message = f"more than {total - 1} primes below length 12"
    with pytest.raises(RuntimeError) as counted:
        zeta_partial_product(fig8_cut, spec, Fraction(9, 10), 12)
    with pytest.raises(RuntimeError) as enumerated:
        prime_cycles(fig8_cut, 12)
    assert str(counted.value) == str(enumerated.value) == message


def test_prime_cap_stops_counting_early(fig8_cut, monkeypatch):
    monkeypatch.setattr(zeta, "MAX_PRIMES", 2)
    calls = []
    mobius = zeta._mobius
    monkeypatch.setattr(zeta, "_mobius", lambda d: calls.append(d) or mobius(d))
    with pytest.raises(RuntimeError, match="more than 2 primes below length 60"):
        zeta._prime_counts(fig8_cut, 60)
    # the third prime has length 4: counting stops there, not at length 60
    assert len(calls) < 20


def test_pole_names_shortest_weight_one_prime(corpus):
    # on the 6_1 cut these weights give weight 1 to the primes of content
    # S2 T1^2 T2 (length 4) and S1^3 T1 T2 (length 5), and to no shorter one
    g = build_arc_graph(cut(corpus["6_1"], [1]))
    weights = {"S1": 2, "S2": 3, "T1": Fraction(8, 3), "T2": Fraction(3, 64)}
    spec = {k: LaurentPoly({0: v}) for k, v in weights.items()}
    primes = prime_cycles(g, 8)
    lengths = sorted({len(p) for p in primes if walk_weight(p, spec) == 1})
    assert lengths[:2] == [4, 5] and len(primes[0]) < 4
    # one factor list serves the exact, the bounded and the log-space product
    with pytest.raises(ZeroDivisionError, match="prime of length 4 has weight 1"):
        euler_factors(g, spec, Fraction(1), 8)


@pytest.mark.parametrize("max_len", [8, 10])
def test_gap_compared_exactly_with_tolerance(fig8_cut, max_len):
    # the reported gap rounds the exact one up at length 8 and down at 10,
    # where comparing the float with tol = gap would wrongly pass
    spec = alexander_spec()
    t0 = Fraction(9, 10)
    target = 1 / tangle_determinant(fig8_cut, spec).evaluate(t0)
    exact_gap = abs(enumerated_product(fig8_cut, spec, t0, max_len) - target)
    gap = float(exact_gap)
    factors = euler_factors(fig8_cut, spec, t0, max_len)
    for tol in (math.nextafter(gap, 0), gap, math.nextafter(gap, 1), gap / 2):
        _, reported, close = zeta._compare_product(factors, target, tol)
        assert reported == gap
        assert close == (exact_gap <= Fraction(tol)), tol


@pytest.fixture(scope="module")
def planned_products(corpus):
    """Every corpus cut at its planned point: (name, arc, graph, t0, max_len,
    factors), and the exact pair of each factor list, keyed by the list."""
    spec = alexander_spec()
    cuts, exact = [], {}
    for name, d in corpus.items():
        for arc in d.arcs:
            g = build_arc_graph(cut(d, [arc]))
            t0, max_len, _ = zeta._plan_horizon(g, spec, None)
            factors = euler_factors(g, spec, t0, max_len)
            cuts.append((name, arc, g, t0, max_len, factors))
            # symmetric cuts share factor lists; each list is multiplied out once
            if tuple(factors) not in exact:
                exact[tuple(factors)] = zeta._euler_product(factors)
    return cuts, exact


def test_euler_factors_equal_the_content_weights(planned_products):
    # the factors are weighed on ints; the oracle multiplies Fraction powers
    spec = alexander_spec()
    cuts, _ = planned_products
    for name, arc, g, t0, max_len, factors in cuts:
        _, counts = zeta._prime_counts(g, max_len)
        weights = [spec[label].evaluate(t0) for label in zeta._content_labels(g)]
        assert factors == [(1 - zeta._content_weight(weights, c), counts[c])
                           for c in sorted(counts, key=sum)], (name, arc)
        assert all(type(f) is Fraction for f, _ in factors), (name, arc)


def test_product_bounds_enclose_the_exact_product(corpus, fig8_cut, planned_products):
    spec = alexander_spec()
    cuts, exact = planned_products
    assert len(cuts) == 31
    points = [(t0, max_len, factors, exact[tuple(factors)])
              for _, _, _, t0, max_len, factors in cuts]
    # the explicit points of the CLI and of the tolerance test; 1/10 diverges,
    # and at length 5 one factor there is negative
    cut_5_2 = build_arc_graph(cut(corpus["5_2"], [1]))
    for g, t0, max_len in [(fig8_cut, Fraction(1, 10), 5), (fig8_cut, Fraction(1, 10), 6),
                           (cut_5_2, Fraction(1, 2), 5), (fig8_cut, Fraction(9, 10), 8),
                           (fig8_cut, Fraction(9, 10), 10)]:
        factors = euler_factors(g, spec, t0, max_len)
        points.append((t0, max_len, factors, zeta._euler_product(factors)))
    negative = 0
    for t0, max_len, factors, (num, den) in points:
        lo, hi = zeta._product_bounds(factors)
        negative += hi < 0
        # lo <= num/den <= hi, compared without reducing the exact pair
        if den < 0:
            num, den = -num, -den
        assert lo.numerator * den <= num * lo.denominator, (t0, max_len)
        assert num * hi.denominator <= hi.numerator * den, (t0, max_len)
        for end in (lo, hi):
            assert 10 ** 1000 % end.denominator == 0  # a decimal fraction
        assert hi - lo <= abs(lo) * Fraction(1, 2 ** 200)
    assert negative  # the sign of a negative product is covered too


def test_compare_product_matches_the_exact_check_on_every_cut(planned_products,
                                                              monkeypatch):
    spec = alexander_spec()
    cuts, exact = planned_products
    for name, arc, g, _, _, _ in cuts:
        bounded = determinant_formula_check(g, spec)
        # bounds that can settle nothing force the exact route; its pair is
        # looked up rather than built a second time
        with monkeypatch.context() as m:
            m.setattr(zeta, "_product_bounds", lambda factors: (Fraction(0), Fraction(1)))
            m.setattr(zeta, "_euler_product", lambda factors: exact[tuple(factors)])
            forced = determinant_formula_check(g, spec)
        assert bounded.passed == forced.passed, (name, arc)
        assert bounded.detail == forced.detail, (name, arc)


def test_exact_product_built_only_when_bounds_cannot_decide(corpus, monkeypatch):
    def unreachable(xs):
        raise AssertionError("exact product built")

    monkeypatch.setattr(zeta, "_balanced_product", unreachable)
    spec = alexander_spec()
    for name in ("5_2", "6_1"):
        d = corpus[name]
        assert determinant_formula_check(build_arc_graph(cut(d, [d.arcs[0]])), spec).passed
    # the trefoil product equals 1/det exactly: no bound can tell the gap from 0
    trefoil = build_arc_graph(cut(corpus["trefoil"], [1]))
    with pytest.raises(AssertionError, match="exact product built"):
        determinant_formula_check(trefoil, spec)


def test_euler_bounds_take_one_ladder(corpus, monkeypatch):
    # bounded pair products on 6_1's arc-1 cut: 1,002 with one ladder for
    # every factor, 2,601 with a square-and-multiply per factor
    calls = []
    bound_ends = zeta._bound_ends
    monkeypatch.setattr(zeta, "_bound_ends", lambda a, b: calls.append(1) or bound_ends(a, b))
    g = build_arc_graph(cut(corpus["6_1"], [1]))
    assert determinant_formula_check(g, alexander_spec()).passed
    assert len(calls) <= 1050


# hand-made factor lists whose product P or gap sits exactly on a tie that
# no 80-digit bound can settle: (factors, target, tol)
THIRD = (Fraction(3), 1)  # contributes 1/3, which no decimal bound hits
TIES = {
    # P = 1 + 2^-53 lies halfway between two floats
    "partial": ([(Fraction(2 ** 53, 3 * (2 ** 53 + 1)), 1), THIRD], Fraction(2), 1e-6),
    # P = 1/3 and the gap (1 + 2^-53) 2^-10 lies halfway between two floats
    "gap": ([THIRD], Fraction(1, 3) + Fraction(2 ** 53 + 1, 2 ** 63), 1e-6),
    # P = 1/3 and the gap equals tol, 2^-20
    "tolerance": ([THIRD], Fraction(1, 3) + Fraction(1, 2 ** 20), 2.0 ** -20),
    # P = 1/3 = target
    "target": ([THIRD], Fraction(1, 3), 0.0),
}


def assert_exact_fallback(factors, target, tol, monkeypatch):
    built = []
    exact = zeta._euler_product
    monkeypatch.setattr(zeta, "_euler_product", lambda f: built.append(f) or exact(f))
    product = Fraction(1)
    for f, n in factors:
        product /= f ** n
    gap = abs(product - target)
    assert zeta._compare_product(factors, target, tol) == \
        (float(product), float(gap), gap <= Fraction(tol))
    assert built == [factors]


@pytest.mark.parametrize("tie", sorted(TIES))
def test_compare_product_falls_back_on_ties(tie, monkeypatch):
    assert_exact_fallback(*TIES[tie], monkeypatch)


def test_compare_product_falls_back_when_target_is_inside_the_bounds(monkeypatch):
    # midway between the bounds both ends have one gap, though P's is smaller
    lo, hi = zeta._product_bounds([THIRD])
    assert_exact_fallback([THIRD], (lo + hi) / 2, 1e-6, monkeypatch)


def test_determinant_formula_auto_plans(corpus):
    for name in ("trefoil", "figure8", "5_1"):
        g = build_arc_graph(cut(corpus[name], [1]))
        v = determinant_formula_check(g, alexander_spec())
        assert v.passed, (name, v.detail)
        assert v.detail["gap"] <= v.detail["tolerance"]


def test_determinant_formula_divergent_point_fails_honestly(fig8_cut):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        v = determinant_formula_check(fig8_cut, alexander_spec(),
                                      t0=Fraction(1, 10), max_len=6)
    assert not v.passed
    assert v.detail["spectral_estimate"] > 1


def unscreened_plan(key, g, spec):
    """The planner without its early drop: every candidate estimated
    exactly, the path budgets read from the pins."""
    n = max(1, len(g.vertices))
    budgets = PLANNER_PINS["walk_budget"][key]
    for t0 in zeta._T0_CANDIDATES:
        r = spectral_estimate(g, spec, t0)
        if r >= zeta.DIVERGENT:
            continue
        for horizon in range(2, 41):
            if n * r ** (horizon + 1) / ((horizon + 1) * (1 - r)) <= zeta.TOLERANCE / 2:
                if budgets[horizon - 1] <= 4 * 10 ** 6:
                    return t0, horizon, r
                break
    return None


def test_screened_planner_equals_the_unscreened_loop(every_cut):
    spec = alexander_spec()
    for key, g in every_cut.items():
        assert zeta._plan_horizon(g, spec, None) == unscreened_plan(key, g, spec), key


def first_rejected(g):
    """The least row sum whose 16th root _planned_horizon rejects on g, by
    bisection."""
    totals = zeta._path_totals(g)

    def rejects(s):
        return zeta._planned_horizon(g, totals, s ** (1.0 / 16)) is None

    lo, hi = 0.0, 1.0
    assert not rejects(lo) and rejects(hi)
    while math.nextafter(lo, 1) < hi:
        mid = (lo + hi) / 2
        if rejects(mid):
            hi = mid
        else:
            lo = mid
    return hi


@pytest.mark.parametrize("sums, read, kept", [
    # the estimate is the largest row's, not the last
    (lambda below, edge: [below / 4, below, below / 2], 3, True),
    # no point is kept before its last row is read
    (lambda below, edge: [below, below / 2, edge], 3, False),
    # nor read past the first row that takes the running maximum to the edge
    (lambda below, edge: [below / 2, edge, 0.0, below], 2, False),
], ids=["kept", "rejected-last", "rejected-early"])
def test_planner_drops_a_point_at_the_first_rejected_running_maximum(
        fig8_cut, monkeypatch, sums, read, kept):
    # the first candidate's rows are fed; the others' are the graph's own
    spec = alexander_spec()
    edge = first_rejected(fig8_cut)
    fed = sums(math.nextafter(edge, 0), edge)
    rows, seen = zeta._row_sums, []

    def row_sums(g, s, t0):
        if t0 != zeta._T0_CANDIDATES[0]:
            return rows(g, s, t0)
        return (seen.append(x) or x for x in fed)

    monkeypatch.setattr(zeta, "_row_sums", row_sums)
    plan = zeta._plan_horizon(fig8_cut, spec, None)
    assert seen == fed[:read]
    if kept:
        r = max(fed) ** (1.0 / 16)
        totals = zeta._path_totals(fig8_cut)
        assert plan == (zeta._T0_CANDIDATES[0], zeta._planned_horizon(fig8_cut, totals, r), r)
    else:
        assert plan == unscreened_plan("figure8:1", fig8_cut, spec)


@pytest.mark.parametrize("order", [lambda xs: xs[::-1], sorted,
                                   lambda xs: sorted(xs, reverse=True)],
                         ids=["reversed", "ascending", "descending"])
def test_plans_do_not_depend_on_the_row_order(every_cut, monkeypatch, order):
    spec = alexander_spec()
    plans = {key: zeta._plan_horizon(g, spec, None) for key, g in every_cut.items()}
    rows = zeta._row_sums
    monkeypatch.setattr(zeta, "_row_sums", lambda g, s, t0: iter(order(list(rows(g, s, t0)))))
    for key, g in every_cut.items():
        assert zeta._plan_horizon(g, spec, None) == plans[key], key


def test_spectral_estimate_once_per_point(fig8_cut, monkeypatch):
    calls = []
    rows = zeta._row_sums

    def counted(*args):
        calls.append(args[2])
        return rows(*args)

    monkeypatch.setattr(zeta, "_row_sums", counted)
    spec = alexander_spec()
    # the planner reads rows at 1/2 .. 5/6 until each is ruled out, and all
    # of them at 9/10, which it keeps; the check reuses that estimate
    assert determinant_formula_check(fig8_cut, spec).passed
    assert calls == list(zeta._T0_CANDIDATES[:zeta._T0_CANDIDATES.index(Fraction(9, 10)) + 1])
    calls.clear()
    determinant_formula_check(fig8_cut, spec, t0=Fraction(9, 10), max_len=6)
    assert calls == [Fraction(9, 10)]


def test_euler_check_counts_closed_walks_once(every_cut, fig8_cut, monkeypatch):
    # one run, as long as the longer of the trace horizon and the product's,
    # gives the trace identity the tables of a run of its own
    spec = alexander_spec()
    counts, runs = zeta._prime_counts, []
    monkeypatch.setattr(zeta, "_prime_counts", lambda g, n: runs.append(n) or counts(g, n))
    checks = [(key, g, {}) for key, g in every_cut.items()]
    checks += [("figure8:1 at 1/10", fig8_cut, {"t0": Fraction(1, 10)}),
               ("figure8:1 to length 3", fig8_cut, {"t0": Fraction(9, 10), "max_len": 3})]
    for key, g, point in checks:
        runs.clear()
        v = determinant_formula_check(g, spec, **point)
        assert runs == [max(zeta.TRACE_HORIZON, v.detail.get("max_len", 0))], key
        trace = trace_identity_check(g, spec, zeta.TRACE_HORIZON)
        assert v.detail["trace"] == trace.to_json(), key


def test_euler_check_refuses_a_diagram_with_no_planned_point():
    # no candidate point plans a horizon on T(3,4)'s cut, although nothing
    # disagrees: that is a size limit, so the check raises, as it does for a
    # non-finite estimate; at a given t0 it keeps its failing verdict
    g = build_arc_graph(cut(parse_diagram(T34), [1]))
    spec = alexander_spec()
    for max_len in (None, 12):
        with pytest.raises(DiagramError, match=NO_PLANNED_POINT):
            determinant_formula_check(g, spec, max_len=max_len)
    v = determinant_formula_check(g, spec, t0=Fraction(1, 2))
    assert not v.passed and v.detail["reason"] == NO_PLANNED_POINT
    assert v.detail["trace"]["passed"]


def test_convergence_warning_names_the_caller(fig8_cut):
    spec = alexander_spec()
    far = Fraction(1, 10)
    for call in (lambda: determinant_formula_check(fig8_cut, spec, t0=far, max_len=6),
                 lambda: zeta_partial_product(fig8_cut, spec, far, 6)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            call()
        [w] = [w for w in caught if w.category is ConvergenceWarning]
        assert w.filename == __file__


def test_sample_points_deterministic():
    a = sample_points(10, seed=0)
    b = sample_points(10, seed=0)
    assert a == b and type(a) is tuple
    assert len(set(a)) == 10
    assert all(t != 0 for t in a)
    assert sample_points(10, seed=1) != a
    # the first 60 points at seed 0, recorded from the list-scanning version
    assert [str(t) for t in sample_points(60, seed=0)] == [
        "-22/5", "1", "1/5", "13/4", "8/3", "-2", "12", "3", "5/6", "14/3",
        "-5/2", "11", "19/6", "2/3", "-3", "1/2", "15/11", "-11/9", "3/4", "9/5",
        "-7/3", "-12", "22/7", "21/11", "16", "15/8", "-3/4", "11/3", "21/2",
        "-6/5", "-5/3", "2", "-19/6", "-18/5", "11/5", "11/6", "5/2", "14/9",
        "13/5", "-2/5", "-9/5", "-13/4", "-13", "-1", "-10", "19/3", "-15",
        "-19/12", "10/11", "1/12", "9/4", "13/7", "18/11", "10/3", "15/2",
        "7/10", "-23/12", "-7/2", "21/4", "-1/3"]


def test_total_strand_weight_is_one(trefoil):
    tangle = cut(trefoil, [1])
    for t0 in (Fraction(1, 2), Fraction(-3), Fraction(7, 5)):
        assert total_strand_weight(tangle, t0) == 1


def test_total_strand_weight_circle_tangle(unknot):
    assert total_strand_weight(cut(unknot, [1]), Fraction(2)) == 1


def test_path_sum_check_across_arcs(corpus):
    for name in ("trefoil", "figure8", "5_2"):
        d = corpus[name]
        for a in d.arcs:
            v = path_sum_check(cut(d, [a]), seed=a)
            assert v.passed, (name, a, v.detail)


def test_path_sum_check_verifies_the_first_draws(figure8):
    # the figure-eight's walk sum has no rational pole: nothing is skipped
    v = path_sum_check(cut(figure8, [2]), seed=1)
    assert v.passed
    assert v.detail["skipped"] == []
    assert v.detail["verified"] == [str(t) for t in sample_points(60, 1)[:20]]


@pytest.mark.parametrize("seed", [0, 1])
def test_strand_walk_sum_matches_solve_on_every_cut(corpus, seed):
    cuts = 0
    for name, d in corpus.items():
        for a in d.arcs:
            tangle = cut(d, [a])
            num, den = strand_walk_sum(tangle)
            assert num == den, (name, a)
            init, term = tangle.strand_pair()
            if init != term:
                assert den == tangle_determinant(build_arc_graph(tangle), alexander_spec())
            v = path_sum_check(tangle, seed=seed)
            assert v.passed, (name, a, v.detail)
            # the samples drawn, in order: every one the solve finds singular
            # is skipped, and every other one verified at the solve's value
            drawn = sample_points(60, seed)[:len(v.detail["verified"]) + len(v.detail["skipped"])]
            solved = [(t0, total_strand_weight(tangle, t0)) for t0 in drawn]
            assert v.detail["skipped"] == [str(t0) for t0, w in solved if w is None]
            assert v.detail["verified"] == [str(t0) for t0, w in solved if w is not None]
            for t0, w in solved:
                if w is not None:
                    assert w == num.evaluate(t0) / den.evaluate(t0) == 1, (name, a, t0)
            cuts += 1
    assert cuts == 31


def test_path_sum_skips_roots_of_the_determinant(corpus):
    # 6_1 has Alexander polynomial (2t - 1)(t - 2)
    tangle = cut(corpus["6_1"], [1])
    v = path_sum_check(tangle, seed=0)
    assert v.passed and v.detail["skipped"] == ["1/2"]
    assert len(v.detail["verified"]) == 20
    # seed 8 draws both roots among its first 22 points
    v = path_sum_check(tangle, seed=8)
    drawn = [str(t) for t in sample_points(60, 8)[:22]]
    assert v.passed
    assert v.detail == {"verified": [t for t in drawn if t not in ("2", "1/2")],
                        "skipped": ["2", "1/2"], "failures": []}


def test_path_sum_refuses_a_walk_sum_without_value():
    # every cut of the split diagram has D = 0: no sample could be verified,
    # and no sample could disagree
    d = parse_diagram(SPLIT)
    for arc in d.arcs:
        tangle = cut(d, [arc])
        assert not strand_walk_sum(tangle)[1], arc
        with pytest.raises(DiagramError) as refusal:
            path_sum_check(tangle, seed=0)
        assert str(refusal.value) == NO_WALK_SUM


@pytest.mark.parametrize("t0", [None, Fraction(1, 2)])
def test_euler_check_refuses_a_split_diagram(t0, monkeypatch):
    # det(I - W) is the zero polynomial on every cut of the split diagram:
    # the check refuses before evaluating it at a given point or planning
    def unreachable(*args):
        raise AssertionError("planned a zeta function without value")

    monkeypatch.setattr(zeta, "_plan_horizon", unreachable)
    d = parse_diagram(SPLIT)
    for arc in d.arcs:
        g = build_arc_graph(cut(d, [arc]))
        assert not tangle_determinant(g, alexander_spec()), arc
        with pytest.raises(DiagramError) as refusal:
            determinant_formula_check(g, alexander_spec(), t0=t0)
        assert str(refusal.value) == NO_ZETA_VALUE, arc


def broken_spec():
    """alexander_spec with a wrong S1 weight, so that N != D on a cut trefoil."""
    return {**alexander_spec(), "S1": 1 - 2 * LaurentPoly({1: 1})}


def test_path_sum_exact_comparison_catches_a_broken_spec(trefoil, monkeypatch):
    monkeypatch.setattr(zeta, "alexander_spec", broken_spec)
    tangle = cut(trefoil, [1])
    num, den = strand_walk_sum(tangle)
    v = path_sum_check(tangle, seed=0)
    assert not v.passed
    *sampled, exact = v.detail["failures"]
    assert [f["t0"] for f in sampled] == v.detail["verified"]
    assert len(sampled) == 20
    for f in sampled:
        assert f["value"] == str(total_strand_weight(tangle, Fraction(f["t0"])))
    assert exact == {"exact": "walk sum", "difference": str(num - den)}
    assert num != den


@pytest.fixture
def evaluations(monkeypatch):
    """A list that gets (polynomial, point) for every LaurentPoly.evaluate."""
    calls = []
    evaluate = LaurentPoly.evaluate
    monkeypatch.setattr(LaurentPoly, "evaluate",
                        lambda p, t0: calls.append((p, t0)) or evaluate(p, t0))
    return calls


def test_path_sum_evaluates_only_d_where_n_equals_d(corpus, evaluations):
    # N(t0) is D(t0) there: D is evaluated once at each sample drawn that the
    # rational root screen leaves, and at no other
    for name in ("figure8", "6_1"):
        d = corpus[name]
        for arc in d.arcs:
            tangle = cut(d, [arc])
            den = strand_walk_sum(tangle)[1]
            evaluations.clear()
            v = path_sum_check(tangle, seed=0)
            assert v.passed, (name, arc)
            drawn = sample_points(60, 0)[:len(v.detail["verified"]) + len(v.detail["skipped"])]
            may_vanish = zeta._root_screen(den)
            assert evaluations == [(den, t0) for t0 in drawn if may_vanish(t0)], (name, arc)


def test_root_screen_keeps_every_root(corpus):
    # the screen is False only where D(t0) != 0: on every corpus strand at the
    # 60 seed-0 samples, and on integer polynomials with planted roots
    # +-a/b, b > 1, with Fraction coefficients and negative exponents; it
    # keeps 95 of the 1,860 strand samples
    samples = sample_points(60, 0)
    kept = checked = 0
    for name, d in corpus.items():
        for arc in d.arcs:
            den = strand_walk_sum(cut(d, [arc]))[1]
            may_vanish = zeta._root_screen(den)
            for t0 in samples:
                assert may_vanish(t0) or den.evaluate(t0) != 0, (name, arc, t0)
                kept += may_vanish(t0)
                checked += 1
    assert (kept, checked) == (95, 31 * 60)
    rng = random.Random(5)
    for _ in range(60):
        a, b = rng.randint(1, 12), rng.randint(2, 12)
        root = Fraction(rng.choice((-a, a)), b)
        cofactor = LaurentPoly({e: rng.randint(-9, 9) for e in range(-2, 3)} | {3: 1})
        poly = LaurentPoly({1: Fraction(root.denominator, 7), 0: Fraction(-root.numerator, 7)})
        poly = (poly * cofactor).shift(rng.randint(-3, 3))
        may_vanish = zeta._root_screen(poly)
        assert poly.evaluate(root) == 0 and may_vanish(root), (poly, root)
        for t0 in samples:
            assert may_vanish(t0) or poly.evaluate(t0) != 0, (poly, t0)


def test_path_sum_evaluates_n_where_it_differs_from_d(trefoil, monkeypatch, evaluations):
    # N at every verified sample, D at every sample drawn; the failures this
    # reports are pinned by test_path_sum_exact_comparison_catches_a_broken_spec
    monkeypatch.setattr(zeta, "alexander_spec", broken_spec)
    tangle = cut(trefoil, [1])
    num, den = strand_walk_sum(tangle)
    evaluations.clear()
    v = path_sum_check(tangle, seed=0)
    verified = [Fraction(t) for t in v.detail["verified"]]
    assert [t0 for p, t0 in evaluations if p == num] == verified
    drawn = sample_points(60, 0)[:len(verified) + len(v.detail["skipped"])]
    assert [t0 for p, t0 in evaluations if p == den] == list(drawn)
    assert len(v.detail["failures"]) == 21


def test_composition_multiplies_determinants(trefoil, figure8):
    t1 = cut(trefoil, [1])
    t2 = cut(figure8, [1])
    assert composition_check(t1, t2).passed
    assert composition_check(t2, t2).passed


def test_composition_computes_each_factor_determinant_once(corpus, monkeypatch):
    calls = []
    determinant = zeta.tangle_determinant
    monkeypatch.setattr(zeta, "tangle_determinant",
                        lambda g, spec: calls.append(g) or determinant(g, spec))
    t = cut(corpus["trefoil"], [1])
    assert composition_check(t, t).passed
    assert len(calls) == 2
    calls.clear()
    tangles = [cut(corpus[name], [1]) for name in ("trefoil", "figure8", "5_2")]
    factor_dets = {}
    for i, t1 in enumerate(tangles):
        for t2 in tangles[i:]:
            assert composition_check(t1, t2, factor_dets).passed
    assert len(calls) == 6 + 3
    assert factor_dets == {t: determinant(build_arc_graph(t), alexander_spec())
                           for t in tangles}


def test_composition_detail_shows_product(trefoil):
    t = cut(trefoil, [1])
    v = composition_check(t, t)
    assert v.detail["composite"] == v.detail["product"]


def test_cabling_check_small_orders(trefoil, figure8):
    for d in (trefoil, figure8):
        t = cut(d, [1])
        for n in (2, 3):
            v = cabling_check(t, n, zeta.CABLE_SAMPLES)
            assert v.passed, (n, v.detail)


def test_cabling_compares_polynomials_exactly(trefoil, monkeypatch):
    # a cable determinant off by a multiple of (u - 1/2)(u - 2/3) agrees with
    # the original at both default samples, so only the exact identity fails
    real = zeta.tangle_determinant
    seen = []

    def perturbed(g, spec):
        seen.append(real(g, spec))
        return seen[-1] + LaurentPoly({2: 6, 1: -7, 0: 2}) * len(seen[1:])

    monkeypatch.setattr(zeta, "tangle_determinant", perturbed)
    v = cabling_check(cut(trefoil, [1]), 2, zeta.CABLE_SAMPLES)
    assert len(seen) == 2 and v.detail["samples"] == ["1/2", "2/3"]
    assert not v.passed
    assert v.detail["failures"] == [{"exact": "t = u^2", "difference": "6*t^2 - 7*t + 2"}]


def test_cabling_substitution_statement(trefoil):
    # the 2-cable determinant at u equals the original at u^2
    t = cut(trefoil, [1])
    v = cabling_check(t, 2, samples=(Fraction(1, 3),))
    assert v.passed
    assert v.detail["samples"] == ["1/3"]
