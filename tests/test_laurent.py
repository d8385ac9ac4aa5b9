"""Exact Laurent arithmetic, canonical forms, and matrix determinants."""

import functools
import json
import math
import operator
import random
from fractions import Fraction
from pathlib import Path

import pytest

from knotzeta import laurent, zeta
from knotzeta.alexander import _last_minor, alexander_matrix, alexander_minor
from knotzeta.arc_graph import alexander_spec, build_arc_graph, laplacian, tangle_determinant, \
    tangle_matrix
from knotzeta.knot_model import cable, close_tangle, compose_tangles, cut, parse_diagram, \
    wirtinger_presentation
from knotzeta.laurent import CanonicalPoly, CoefficientError, LaurentPoly, \
    PolyFraction, RingMatrix, _bareiss_entry, _det_bareiss, _operand, canonicalize, \
    column_replaced_dets, det, det_cofactor, div_exact, divide_exact, linear_combination, poly_divmod, poly_gcd, \
    rational_det, rational_solve, row_reduce
from tests.conftest import assert_sparse_rows


def P(coeffs, modulus=None):
    return LaurentPoly(coeffs, modulus)


T = P({1: 1})


def test_zero_coefficients_dropped():
    assert P({3: 0, 1: 2}).coeffs == {1: 2}
    assert P({}).is_zero()
    assert not P({})


def test_arithmetic_basics():
    p = P({0: 1, 1: -1})
    q = P({-1: 2})
    assert (p + q).coeffs == {0: 1, 1: -1, -1: 2}
    assert (p - p).is_zero()
    assert (p * q).coeffs == {-1: 2, 0: -2}
    assert (-q).coeffs == {-1: -2}
    assert (p * 0).is_zero()


def test_integer_operands_coerce():
    p = T - 1
    assert p.coeffs == {1: 1, 0: -1}
    assert (1 - T).coeffs == {0: 1, 1: -1}
    assert (2 * p).coeffs == {1: 2, 0: -2}


def test_negative_exponents_multiply():
    tinv = P({-1: 1})
    assert (T * tinv).is_one()
    assert (tinv ** 3).coeffs == {-3: 1}


def test_zero_and_one_are_shared_and_stay_themselves():
    for modulus in (None, 7):
        zero, one = LaurentPoly.zero(modulus), LaurentPoly.one(modulus)
        assert zero is LaurentPoly.zero(modulus) and one is LaurentPoly.one(modulus)
        # what a caller reads out or tries to set cannot reach the shared instances
        zero.coeffs[0] = 5
        one.coeffs[0] = 5
        with pytest.raises(AttributeError):
            zero._c = {0: 5}
        assert LaurentPoly.zero(modulus).is_zero() and LaurentPoly.one(modulus).is_one()
        assert zero.modulus == one.modulus == modulus
    assert LaurentPoly.zero() is not LaurentPoly.zero(7)


def test_pow_zero_is_one():
    assert (P({2: 5}) ** 0).is_one()


@pytest.mark.parametrize("k, products", [(1, 1), (2, 2), (8, 4), (13, 6), (64, 7)])
def test_pow_squares_only_while_bits_remain(k, products, monkeypatch):
    # k - 1 squarings past the top bit would be wasted; what is left is one
    # squaring per bit below the top and one product per set bit
    assert products == k.bit_length() - 1 + bin(k).count("1")
    calls = []
    mul = LaurentPoly.__mul__
    monkeypatch.setattr(LaurentPoly, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
    p = P({0: 1, 1: -1})
    assert p ** k == P({e: (-1) ** e * math.comb(k, e) for e in range(k + 1)})
    assert len(calls) == products


def test_evaluate_exact():
    p = P({2: 1, 0: -1})
    assert p.evaluate(Fraction(1, 2)) == Fraction(-3, 4)
    assert P({-2: 3}).evaluate(Fraction(2, 3)) == Fraction(27, 4)


def test_evaluate_matches_term_by_term_sum():
    rng = random.Random(5)
    points = [Fraction(0), Fraction(1), Fraction(-1), Fraction(7), Fraction(-3, 8),
              Fraction(22, 7), Fraction(10 ** 30 + 1, 3 ** 40)]
    for _ in range(300):
        p = random_laurent(rng, denominators=(1, 1, 2, 3, 10), exponents=(-6, 9))
        for t0 in points:
            if t0 == 0 and p.coeffs and p.min_exp() < 0:
                continue
            expected = sum((v * t0 ** e for e, v in p.coeffs.items()), Fraction(0))
            value = p.evaluate(t0)
            assert type(value) is Fraction
            assert value == expected, (p, t0)


def test_evaluate_at_zero_rejected_for_negative_exponents():
    with pytest.raises(ZeroDivisionError):
        P({-1: 1}).evaluate(0)


def test_modular_coefficients_wrap():
    p = P({0: 6, 1: 3}, modulus=7)
    q = P({0: 2, 1: 4}, modulus=7)
    assert (p + q).coeffs == {0: 1}
    assert (p * q).coeffs == {0: 5, 1: 2, 2: 5}


def test_modulus_mismatch_rejected():
    with pytest.raises(CoefficientError, match="mixed coefficient domains: 5 vs 7"):
        P({0: 1}, modulus=5) + P({0: 1}, modulus=7)


def test_fraction_coefficients():
    p = P({0: Fraction(1, 2)})
    assert (p + p).is_one()


def test_integral_fractions_are_stored_as_ints():
    p = P({0: Fraction(4, 2), 1: Fraction(1, 2)})
    assert type(p.coeffs[0]) is int and p.coeffs[0] == 2
    assert p.coeffs[1] == Fraction(1, 2)
    assert type(P({0: True}).coeffs[0]) is int


def test_integer_polynomials_hold_only_ints():
    p = P({-1: 1, 0: -3, 2: 5})
    q = (1 - T) * P({-1: 2})
    results = [p + q, p - q, p * q, p ** 4, -p, p.shift(3), 3 * p,
               p.scale(Fraction(2, 3)).scale(3), p.substitute_power(-2),
               det(RingMatrix([[p, q], [T, p * q]])), sum([p, q], P({}))]
    for r in results:
        assert all(type(v) is int for v in r.coeffs.values()), r


def test_int_and_fraction_coefficients_compare_equal():
    a, b = P({0: 3}), P({0: Fraction(3)})
    assert a == b and hash(a) == hash(b)
    assert P({1: 2, 0: Fraction(1, 2)}) == P({1: Fraction(6, 3), 0: Fraction(2, 4)})
    assert a == 3 and a == Fraction(3)


def test_str_and_json_of_mixed_coefficients():
    # recorded when every rational coefficient was a Fraction
    p = P({2: Fraction(6, 3), 1: Fraction(-1, 2), 0: 3, -1: -1, -3: Fraction(5, 7)})
    assert str(p) == "2*t^2 - 1/2*t + 3 - t^-1 + 5/7*t^-3"
    assert p.to_json() == {"-3": "5/7", "-1": -1, "0": 3, "1": "-1/2", "2": 2}
    assert str(P({0: Fraction(-4, 2)})) == "-2"
    assert P({0: Fraction(-4, 2)}).to_json() == {"0": -2}


def test_str_readable():
    assert str(P({2: 1, 1: -1, 0: 1})) == "t^2 - t + 1"
    assert str(P({})) == "0"
    # terms print in descending exponent order
    assert str(P({-1: 1, 0: -2})) == "-2 + t^-1"
    assert str(P({3: 2, 1: -3})) == "2*t^3 - 3*t"


def test_divmod_and_exact_division():
    a = P({2: 1, 1: -3, 0: 2})
    b = P({1: 1, 0: -1})
    q, r = poly_divmod(a, b)
    assert q * b + r == a
    assert r.is_zero()
    assert div_exact(a, b) == q
    assert div_exact(P({1: 1, 0: 1}), b) is None


def test_div_exact_handles_laurent_shifts():
    a = P({-1: 1, 0: -3, 1: 2})
    b = P({-1: 1, 0: -1})
    q = div_exact(a, b)
    assert q is not None
    assert q * b == a


def test_poly_gcd_normalizes():
    g = poly_gcd(P({2: 1, 0: -1}), P({1: 1, 0: 1}))
    assert g.coeffs == {1: 1, 0: 1}


@pytest.mark.parametrize("modulus", [None, 7, 101])
def test_poly_gcd_is_the_common_factor_made_monic(modulus):
    # gcd(f g u, f h u') = f for coprime linear g != h and units u, u' = c t^k;
    # the expected f / lead(f) is written out from f's own coefficients, and
    # g, h = t - x with x != 0, as t alone is a unit
    rng = random.Random(modulus or 2)

    def scalar():
        if modulus:
            return rng.randrange(1, modulus)
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))

    def unit():
        return P({rng.randint(-4, 4): scalar()}, modulus)

    for _ in range(40):
        degree = rng.randint(0, 4)
        f = P({0: scalar(), degree: scalar(),
               **{e: scalar() for e in range(1, degree) if rng.random() < 0.6}}, modulus)
        lead = f.leading()
        inverse = pow(lead, -1, modulus) if modulus else 1 / Fraction(lead)
        monic = P({e: v * inverse for e, v in f.coeffs.items()}, modulus)
        x, y = rng.sample([-5, -3, -1, 1, 2, 4] if modulus is None else range(1, modulus), 2)
        g, h = P({1: 1, 0: -x}, modulus), P({1: 1, 0: -y}, modulus)
        assert poly_gcd(f * g * unit(), f * h * unit()) == monic
        assert poly_gcd(f * unit(), LaurentPoly.zero(modulus)) == monic
        assert poly_gcd(LaurentPoly.zero(modulus), f * g * unit()) == monic * g
    zero = LaurentPoly.zero(modulus)
    assert poly_gcd(zero, zero) == zero


def test_divide_exact_builds_reduced_fraction():
    num = P({2: 1, 1: -2, 0: 1})
    den = P({1: 1, 0: -1})
    frac = divide_exact(num, den)
    assert frac.is_polynomial
    assert frac.numerator == den
    assert frac.denominator.is_one()
    frac = divide_exact(P({1: 1, 0: 1}), den)
    assert not frac.is_polynomial
    assert isinstance(frac, PolyFraction)
    assert frac.numerator.coeffs == {1: 1, 0: 1}
    assert frac.denominator.coeffs == {1: 1, 0: -1}


def test_canonicalize_over_rationals_keeps_content():
    c = canonicalize(P({-1: -2, 0: 4, 1: -2}))
    assert c.poly.coeffs == {0: 2, 1: -4, 2: 2}
    assert c.unit_coeff == -1 and c.unit_exp == -1
    assert isinstance(c, CanonicalPoly)
    shifted = canonicalize(P({4: -2, 5: 4, 6: -2}))
    assert shifted.poly == c.poly


def test_canonicalize_idempotent():
    c = canonicalize(P({3: 6, 1: -9}))
    assert canonicalize(c.poly).poly == c.poly


def test_canonicalize_monic_over_field():
    c = canonicalize(P({2: 3, 0: 1}, modulus=7))
    assert c.poly.leading() == 1
    assert c.poly.coeffs == {2: 1, 0: 5}
    assert c.unit_coeff == 3


def test_canonical_json_has_unit():
    obj = canonicalize(P({1: -2, 0: 2})).to_json()
    assert set(obj) == {"coeffs", "unit"}
    assert obj["unit"] == "(-1)^1 t^0"


def M(rows, modulus=None):
    return RingMatrix([[P(e, modulus) if isinstance(e, dict) else P({0: e}, modulus)
                        for e in row] for row in rows], modulus)


def test_matrix_shape_and_immutability():
    m = M([[1, 2], [3, 4]])
    assert (m.rows, m.cols) == (2, 2)
    with pytest.raises(AttributeError):
        m.entries = ()


def test_matrix_ragged_rejected():
    with pytest.raises(ValueError):
        M([[1, 2], [3]])


def test_matrix_refuses_cols_that_disagree_with_its_rows():
    # cols was once read only when there were no rows
    for rows, cols in (([[1, 2]], 5), ([[1, 2], [3, 4]], 1), ([[]], 2)):
        with pytest.raises(ValueError, match=f"in a matrix of {cols} columns"):
            RingMatrix(rows, cols=cols)
    empty = RingMatrix([], cols=3)
    assert (empty.rows, empty.cols, empty.row_maps, empty.entries) == (0, 3, (), ())
    assert RingMatrix([[1, 0]], cols=2) == RingMatrix([[1, 0]])


def test_matrix_arithmetic_drops_entries_that_cancel():
    # sums, differences, negations and products store no zero: entries that
    # cancel leave the row maps, and the zero matrix has empty ones
    a = M([[1, {1: 1}], [0, 2]])
    b = M([[{0: -1, 1: 1}, {1: -1}], [3, 0]])
    for m, maps in ((a - a, [{}, {}]), (a + -a, [{}, {}]),
                    (a + b, [{0: T}, {0: P({0: 3}), 1: P({0: 2})}]),
                    (M([[1, 1]]) @ M([[1], [-1]]), [{}]), (a @ RingMatrix.zeros(2, 3), [{}, {}])):
        assert list(m.row_maps) == maps, m
        assert_sparse_rows(m)


def test_matrix_ring_ops():
    a = M([[1, 2], [3, 4]])
    b = M([[0, 1], [1, 0]])
    assert (a @ b).entries[0][0].coeffs == {0: 2}
    assert (a + b - b) == a
    assert a @ RingMatrix.identity(2) == a
    assert a.power(3) == a @ a @ a
    assert a.trace().coeffs == {0: 5}


def test_matrix_delete_and_block():
    m = M([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    d = m.delete(rows=(1,), cols=(2,))
    assert [[e.coeffs[0] for e in row] for row in d.entries] == [[1, 2], [7, 8]]
    big = RingMatrix.from_blocks([{0: M([[1]]), 1: M([[2]])}, {0: M([[3]]), 1: M([[4]])}],
                                 2, 1, None)
    assert big.delete(rows=(0,), cols=(1,)) == M([[3]])
    assert big.rows == 2 and big.cols == 2


def test_from_blocks_rejects_mixed_sizes():
    with pytest.raises(ValueError):
        RingMatrix.from_blocks([{0: M([[1]]), 1: M([[1, 0], [0, 1]])}], 2, 1, None)
    # a block row's map places a block outside the block columns
    with pytest.raises(IndexError, match="block column 2 outside 0..1"):
        RingMatrix.from_blocks([{0: M([[1]]), 1: M([[2]])}, {2: M([[3]])}], 2, 1, None)
    # a block column that a map lacks holds the zero block
    assert RingMatrix.from_blocks([{1: M([[2]])}, {}], 2, 1, None) == M([[0, 2], [0, 0]])


def test_matrices_refuse_mixed_domains_with_one_message():
    q, q7 = RingMatrix.zeros(2, 2), RingMatrix.zeros(2, 2, 7)
    for build in (lambda: RingMatrix([[P({0: 1}, 7)]]), lambda: q + q7, lambda: q @ q7,
                  lambda: RingMatrix.from_blocks([{0: q, 1: q}, {0: q, 1: q7}], 2, 2, None)):
        with pytest.raises(CoefficientError, match="mixed coefficient domains: None vs 7"):
            build()


def test_det_small_and_empty():
    assert det(RingMatrix([], cols=0)).is_one()
    assert det(M([[5]])).coeffs == {0: 5}
    assert det(M([[1, 2], [3, 4]])).coeffs == {0: -2}


def test_det_laurent_entries():
    m = RingMatrix([[T, P({0: 1})], [P({0: -1}), P({-1: 1})]])
    assert det(m).is_one() is False
    assert det(m).coeffs == {0: 2}


def test_det_methods_agree_on_random_rational_matrices():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(1, 5)
        rows = [[P({0: Fraction(rng.randint(-5, 5), rng.randint(1, 4))})
                 for _ in range(n)] for _ in range(n)]
        m = RingMatrix(rows)
        assert det_cofactor(m) == _det_bareiss(m)


def test_det_methods_agree_on_random_laurent_matrices():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(1, 4)
        rows = [[P({rng.randint(-2, 2): rng.randint(-3, 3)}) for _ in range(n)]
                for _ in range(n)]
        m = RingMatrix(rows)
        assert det_cofactor(m) == _det_bareiss(m)


def test_det_matches_rational_det_after_evaluation():
    rng = random.Random(13)
    for _ in range(15):
        n = rng.randint(1, 4)
        rows = [[P({rng.randint(-1, 1): rng.randint(-2, 2)}) for _ in range(n)]
                for _ in range(n)]
        m = RingMatrix(rows)
        t0 = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        assert det(m).evaluate(t0) == rational_det(m.evaluate(t0))


def test_det_modular():
    m = M([[3, 1], [2, 5]], modulus=7)
    assert det(m).coeffs == {0: 6}


def random_laurent(rng, modulus=None, denominators=(1,), exponents=(-2, 2)):
    """A random Laurent polynomial of up to three terms, often zero."""
    terms = {}
    for _ in range(rng.randint(0, 3)):
        num = rng.randint(-9, 9)
        terms[rng.randint(*exponents)] = (num % modulus if modulus
                                          else Fraction(num, rng.choice(denominators)))
    return P(terms, modulus)


def assert_normal_form(r, modulus):
    """r stores what the validating constructor would: the same exponents in
    the same order, with equal coefficients of the same types."""
    ref = P(r.coeffs, modulus)
    assert r.modulus == modulus
    assert list(r.coeffs.items()) == list(ref.coeffs.items()), r
    assert [type(v) for v in r.coeffs.values()] == [type(v) for v in ref.coeffs.values()], r


@pytest.mark.parametrize("modulus", [None, 7, 11])
def test_arithmetic_results_are_built_in_normal_form(modulus):
    half_t = P({1: Fraction(1, 2)})
    assert type((half_t + half_t).coeffs[1]) is int
    if modulus:
        with pytest.raises(CoefficientError):
            P({0: 1}, modulus).scale(Fraction(1, 2))
    rng = random.Random(modulus or 0)

    def poly():
        return random_laurent(rng, modulus, (1, 2, 3, 4), (-3, 3))

    def matrix(rows, cols):
        return RingMatrix([[poly() for _ in range(cols)] for _ in range(rows)], modulus,
                          cols=cols)

    for _ in range(200):
        p, q = poly(), poly()
        c = rng.randint(-20, 20) if modulus else Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        k, n = rng.randint(-3, 3), rng.choice((-3, -2, -1, 1, 2, 3))
        for r in (p + q, p - q, -p, p * q, p + c, c - p, p * c, p.shift(k), p.scale(c),
                  p.substitute_power(n)):
            assert_normal_form(r, modulus)
    for _ in range(40):
        rows, inner, cols = (rng.randint(0, 3) for _ in range(3))
        a, b = matrix(rows, inner), matrix(rows, inner)
        for m in (a @ matrix(inner, cols), a + b, a - b, -a):
            assert m == RingMatrix(m.entries, modulus, cols=m.cols)
            for row in m.entries:
                for e in row:
                    assert_normal_form(e, modulus)


@pytest.mark.parametrize("modulus", [None, 7])
def test_one_term_products_equal_the_convolution(modulus):
    # a one-term operand shifts and scales the other in one pass; the oracle
    # multiplies term by term and goes through the validating constructor
    rng = random.Random(5)
    for _ in range(200):
        p = random_laurent(rng, modulus, (1, 2, 3), (-3, 3))
        c = rng.randint(1, modulus - 1) if modulus else \
            Fraction(rng.choice((-4, -1, 2, 3)), rng.choice((1, 2, 3)))
        term = P({rng.randint(-3, 3): c}, modulus)
        products = {}
        for e1, v1 in p.coeffs.items():
            for e2, v2 in term.coeffs.items():
                products[e1 + e2] = products.get(e1 + e2, 0) + v1 * v2
        for r in (p * term, term * p):
            assert r == P(products, modulus)
            assert_normal_form(r, modulus)


@pytest.mark.parametrize("modulus", [None, 2, 7, 2**61 - 1])
def test_sums_shifts_and_scalings_match_a_dict_reference(modulus):
    # +, -, negation, shift and scale run through linear_combination and the
    # one-term product; the reference sums raw coefficients in a dict and
    # reduces mod q, or drops zeros, only at the end
    rng = random.Random(modulus or 1)

    def reference(d):
        if modulus:
            return {e: r for e, v in sorted(d.items()) if (r := v % modulus)}
        return {e: v for e, v in sorted(d.items()) if v}

    def combined(*terms):
        d = {}
        for c, p in terms:
            for e, v in p.coeffs.items():
                d[e] = d.get(e, 0) + c * v
        return reference(d)

    def check(r, expected):
        assert r.modulus == modulus
        assert list(r.coeffs.items()) == list(expected.items()), (r, expected)
        # an integral rational is stored as an int
        assert all(type(v) is int or v.denominator > 1 for v in r.coeffs.values()), r

    def poly():
        if modulus:
            return P({rng.randint(-3, 3): rng.randrange(modulus) for _ in range(rng.randint(0, 3))},
                     modulus)
        return P({rng.randint(-3, 3): rng.choice((rng.randint(-4, 4),
                                                  Fraction(rng.randint(-4, 4), rng.randint(1, 3))))
                  for _ in range(rng.randint(0, 3))})

    for _ in range(300):
        p, r = poly(), poly()
        c = rng.choice((rng.randint(-5, 5), Fraction(rng.randint(-5, 5), rng.randint(2, 3)))) \
            if modulus is None else rng.randint(-5, 5)
        k = rng.randint(-3, 3)
        check(p + r, combined((1, p), (1, r)))
        check(p - r, combined((1, p), (-1, r)))
        check(-p, combined((-1, p)))
        check(p.shift(k), reference({e + k: v for e, v in p.coeffs.items()}))
        check(p.scale(c), combined((c, p)))
        one = LaurentPoly.one(modulus)
        check(c + p, combined((c, one), (1, p)))
        check(c - p, combined((c, one), (-1, p)))
    # a result that vanishes keeps its domain
    p = P({-1: 3, 0: 1, 2: 5}, modulus)
    for r in (p - p, p + (-p), -p + p, p.scale(0), p.scale(modulus or 0),
              0 - LaurentPoly.zero(modulus)):
        assert r.is_zero() and r == LaurentPoly.zero(modulus) and r.modulus == modulus
    if modulus:
        assert (p + p.scale(modulus - 1)).modulus == modulus
        other = P({0: 1}, 3 if modulus == 2 else 2)
    else:
        # Fraction halves that sum to integers are stored as ints
        half = P({0: Fraction(1, 2), 1: Fraction(3, 2)})
        check(half + half, {0: 1, 1: 3})
        check(half.scale(2), {0: 1, 1: 3})
        check(Fraction(1, 3) - half.scale(Fraction(2, 3)), {1: -1})
        other = P({0: 1}, 7)
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
        with pytest.raises(CoefficientError, match="mixed coefficient domains"):
            op(p, other)
        with pytest.raises(CoefficientError, match="mixed coefficient domains"):
            op(other, p)


PRIMES = [2, 3, 7, 11, 101, 2**61 - 1]


@pytest.mark.parametrize("q", PRIMES)
def test_det_over_prime_fields_matches_cofactor(q):
    # the kernel eliminates the residues as integers and reduces each minor
    # mod q at the end; sizes 0-7, exponents -2..2, about 30% zero entries
    rng = random.Random(q)
    zero = LaurentPoly.zero(q)

    def entry():
        if rng.random() < 0.3:
            return zero
        return P({rng.randint(-2, 2): rng.randrange(1, q) for _ in range(rng.randint(1, 3))}, q)

    nonzero = 0
    for n in range(8):
        for _ in range(6 if n < 6 else 2):
            m = RingMatrix([[entry() for _ in range(n)] for _ in range(n)], q, cols=n)
            d = det(m)
            assert d == det_cofactor(m) == _det_bareiss(m), (q, n, m)
            assert d.modulus == q
            nonzero += not d.is_zero()
        if n == 0:
            assert d == LaurentPoly.one(q)
    assert nonzero >= 20
    # J + tI, J all ones: t^2 (t + 3); step 1 divides by the pivot 1 + t
    ones = [[P({0: 1, 1: int(i == j)}, q) for j in range(3)] for i in range(3)]
    assert det(RingMatrix(ones, q)) == _det_bareiss(RingMatrix(ones, q)) == P({3: 1, 2: 3}, q)


@pytest.mark.parametrize("modulus", [None, 7, 101])
def test_matmul_matches_sum_of_products(modulus):
    # the oracle: each entry a running LaurentPoly sum of LaurentPoly products
    # zero-heavy shapes (most entries zero, up to whole zero rows and
    # columns, as in walk matrices) come after the dense ones
    rng = random.Random(modulus or 0)
    zero = LaurentPoly.zero(modulus)

    def entry(density, *args):
        return random_laurent(rng, modulus, *args) if rng.random() < density else zero

    for trial in range(60):
        density = 1.0 if trial < 30 else rng.choice((0.05, 0.15, 0.3))
        rows, inner, cols = (rng.randint(0, 4 if trial < 30 else 9) for _ in range(3))
        a = RingMatrix([[entry(density, (1, 2, 3)) for _ in range(inner)]
                        for _ in range(rows)], modulus, cols=inner)
        b = RingMatrix([[entry(density, (1, 5), (-3, 1)) for _ in range(cols)]
                        for _ in range(inner)], modulus, cols=cols)
        expected = [[sum((a.entries[i][k] * b.entries[k][j] for k in range(inner)),
                         LaurentPoly.zero(modulus))
                     for j in range(cols)] for i in range(rows)]
        product = a @ b
        assert (product.rows, product.cols) == (rows, cols)
        assert product == RingMatrix(expected, modulus, cols=cols)
        assert all(e.modulus == modulus for row in product.entries for e in row)


@pytest.mark.parametrize("modulus", [None, 7, 101])
def test_product_trace_is_the_trace_of_the_product(modulus):
    # the oracle: the diagonal of the formed product, summed entry by entry
    rng = random.Random(modulus or 0)
    zero = LaurentPoly.zero(modulus)
    for trial in range(60):
        density = 1.0 if trial < 30 else rng.choice((0.05, 0.15, 0.3))
        n, inner = rng.randint(0, 6), rng.randint(0, 6)
        a, b = (RingMatrix([[random_laurent(rng, modulus, (1, 2, 3)) if rng.random() < density
                             else zero for _ in range(cols)] for _ in range(rows)],
                           modulus, cols=cols)
                for rows, cols in ((n, inner), (inner, n)))
        product = a @ b
        expected = sum((product.entries[i][i] for i in range(n)), zero)
        got = a.product_trace(b)
        assert got == expected == product.trace()
        assert_normal_form(got, modulus)
    with pytest.raises(ValueError):
        RingMatrix.zeros(2, 3, modulus).product_trace(RingMatrix.zeros(3, 3, modulus))
    with pytest.raises(CoefficientError, match="mixed coefficient domains: 7 vs None"):
        RingMatrix.zeros(2, 2, 7).product_trace(RingMatrix.zeros(2, 2))


def normal_by_hand(d, modulus):
    """A coefficient dict in normal form, written out: exponents sorted,
    zeros dropped, residues in [1, q), integral rationals as ints."""
    out = {}
    for e in sorted(d):
        v = d[e] % modulus if modulus else Fraction(d[e])
        if v:
            out[e] = v if modulus is None and v.denominator > 1 else int(v)
    return out


def convolution(pairs, modulus):
    """sum(a * b) over pairs of coefficient dicts, term by term, in one dict."""
    d = {}
    for a, b in pairs:
        for e1, v1 in a.items():
            for e2, v2 in b.items():
                d[e1 + e2] = d.get(e1 + e2, 0) + v1 * v2
    return normal_by_hand(d, modulus)


@pytest.mark.parametrize("modulus", [None, 7, 101])
def test_products_match_a_dict_convolution(modulus):
    # polynomial products, matrix products and product traces share one
    # coefficient-product loop; the oracle convolves the coefficient dicts
    # here, with ints, Fractions and negative exponents over Q, and with
    # zero entries and all-zero rows, down to matrices without rows
    rng = random.Random(modulus or 3)
    zero = LaurentPoly.zero(modulus)

    def poly(density=1.0):
        if rng.random() >= density:
            return zero
        return P({rng.randint(-4, 4): rng.randrange(1, modulus) if modulus else
                  rng.choice((rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(1, 4))))
                  for _ in range(rng.randint(1, 4))}, modulus)

    def check(r, expected):
        assert r.modulus == modulus
        assert list(r.coeffs.items()) == list(expected.items()), (r, expected)
        assert [type(v) for v in r.coeffs.values()] == [type(v) for v in expected.values()]

    def matrix(rows, cols, density):
        return RingMatrix([[poly(density) for _ in range(cols)] if rng.random() < 0.8
                           else [zero] * cols for _ in range(rows)], modulus, cols=cols)

    for _ in range(300):
        p, q = poly(0.9), poly(0.9)
        check(p * q, convolution([(p.coeffs, q.coeffs)], modulus))
    for trial in range(80):
        density = 1.0 if trial < 40 else rng.choice((0.1, 0.3))
        rows, inner, cols = (rng.randint(0, 5) for _ in range(3))
        a, b, c = matrix(rows, inner, density), matrix(inner, cols, density), \
            matrix(inner, rows, density)
        product = a @ b
        assert (product.rows, product.cols) == (rows, cols)
        for i in range(rows):
            for j in range(cols):
                check(product.entries[i][j], convolution(
                    [(a.entries[i][k].coeffs, b.entries[k][j].coeffs) for k in range(inner)],
                    modulus))
        check(a.product_trace(c), convolution(
            [(a.entries[i][k].coeffs, c.entries[k][i].coeffs)
             for i in range(rows) for k in range(inner)], modulus))


@pytest.mark.parametrize("modulus, value", [
    (None, 1.5), (None, 0.0), (None, "1"), (None, None),
    (7, 1.0), (7, "1"), (7, None), (7, Fraction(1, 2)), (7, Fraction(2))])
def test_constructor_and_scalars_refuse_other_coefficient_types(modulus, value):
    expected = (f"rational coefficient expected, got {type(value).__name__}" if modulus is None
                else f"integer coefficient expected mod 7, got {type(value).__name__}")
    p = P({0: 1, 1: 2}, modulus)
    for build in (lambda: P({0: 1, 2: value}, modulus),
                  lambda: linear_combination([(1, p), (value, p)], modulus)):
        with pytest.raises(CoefficientError) as refusal:
            build()
        assert str(refusal.value) == expected


def test_constructor_builds_the_normal_form():
    p = P({3: Fraction(6, 3), -2: Fraction(-1, 2), 0: Fraction(0, 5), 1: 4, 2: Fraction(-8, 4)})
    assert list(p.coeffs.items()) == [(-2, Fraction(-1, 2)), (1, 4), (2, -2), (3, 2)]
    assert [type(v) for v in p.coeffs.values()] == [Fraction, int, int, int]
    q = P({5: -1, -3: 15, 0: 14, 2: 7 * 10**20 + 3, 1: -7}, 7)
    assert list(q.coeffs.items()) == [(-3, 1), (2, 3), (5, 6)]
    assert all(type(v) is int and 1 <= v < 7 for v in q.coeffs.values())
    assert P({0: True}, 7).coeffs == {0: 1}
    for modulus in (None, 7):
        assert P({0: 1}, modulus).is_one() and not P({0: 1, 1: 1}, modulus).is_one()
        assert canonicalize(P({}, modulus)) == CanonicalPoly(P({}, modulus), 1, 0)


@pytest.mark.parametrize("modulus", [None, 7])
@pytest.mark.parametrize("key", [1.5, 1.0, "2", True, None], ids=repr)
def test_constructor_refuses_other_exponent_types(modulus, key):
    # int() would truncate 1.5, parse '2' and read True as 1
    with pytest.raises(CoefficientError) as refusal:
        P({0: 1, key: 3}, modulus)
    assert str(refusal.value) == f"integer exponent expected, got {type(key).__name__}"


def test_constructor_keeps_colliding_exponents_apart():
    # int(1.9) would overwrite the coefficient at 1 and give 5*t
    with pytest.raises(CoefficientError, match="integer exponent expected, got float"):
        P({1: 2, 1.9: 5})
    assert P({1: 2, -1: 5}).coeffs == {-1: 5, 1: 2}


@pytest.mark.parametrize("modulus", [None, 7])
def test_linear_combination_equals_repeated_sums(modulus):
    # the oracle: a running sum of scaled terms, normalized at every step
    rng = random.Random(modulus or 0)
    zero = LaurentPoly.zero(modulus)

    def coefficient():
        if modulus:
            return rng.randrange(-9, 9)
        return rng.choice((rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(1, 6))))

    for _ in range(100):
        terms = [(coefficient(), random_laurent(rng, modulus, (1, 2, 3)))
                 for _ in range(rng.randint(0, 6))]
        expected = zero
        for c, p in terms:
            expected = expected + p.scale(c)
        got = linear_combination(terms, modulus)
        assert got == expected
        assert_normal_form(got, modulus)
    assert linear_combination([], modulus) == zero
    p = P({-1: 3, 0: 1, 2: 5}, modulus)
    cancelling = ([(2, p), (1, p), (-3, p)] if modulus
                  else [(Fraction(1, 2), p), (Fraction(-1, 2), p)])
    assert linear_combination(cancelling, modulus).is_zero()
    # one surviving coefficient where the others cancel
    q = P({0: 1, 1: 1}, modulus)
    survivor = linear_combination([(1, p), (1, q), (-1, p)], modulus)
    assert survivor == q
    assert_normal_form(survivor, modulus)
    with pytest.raises(CoefficientError, match="mixed coefficient domains"):
        linear_combination([(1, P({0: 1}, 5 if modulus else 7))], modulus)


def test_det_scales_rows_with_denominators():
    # non-unit denominators, so each row is scaled by the lcm of its own
    rng = random.Random(17)
    for n in (5, 6, 7):
        for _ in range(2):
            m = RingMatrix([[random_laurent(rng, denominators=(1, 2, 3, 5, 7))
                             for _ in range(n)] for _ in range(n)])
            d = det(m)
            if n == 5:
                assert d == det_cofactor(m)
            for t0 in (Fraction(2, 3), Fraction(-5, 4)):
                assert d.evaluate(t0) == rational_det(m.evaluate(t0)), (n, m)


def _sparse_support(rng, n):
    """At most half of the n x n cells: those of a random permutation when
    they fit (so that determinants are often nonzero), plus random others."""
    cap = n * n // 2
    perm = rng.sample(range(n), n)
    support = {(i, perm[i]) for i in range(n)} if n <= cap else set()
    rest = [(i, j) for i in range(n) for j in range(n) if (i, j) not in support]
    return support | set(rng.sample(rest, rng.randint(0, cap - len(support))))


def _single_entry(rng, n, support, parity, along_row):
    """Strip one row (or column) of the support down to a single cell whose
    i + j has the given parity; the support does not grow."""
    cells = [c for c in support if sum(c) % 2 == parity]
    i, j = rng.choice(cells) if cells else \
        rng.choice([(i, j) for i in range(n) for j in range(n) if (i + j) % 2 == parity])
    line = 0 if along_row else 1
    return {c for c in support if c[line] != (i, j)[line]} | {(i, j)}


def _cascade(rng, n):
    """A bidiagonal support under random row and column permutations: one row
    and one column hold a single cell, and each peel exposes the next."""
    rows, cols = rng.sample(range(n), n), rng.sample(range(n), n)
    return {(rows[i], cols[j]) for i in range(n) for j in (i - 1, i) if j >= 0}


def _sparse_cases(rng, n):
    """(shape, support) for every shape that fits an n x n matrix."""
    yield "random", _sparse_support(rng, n)
    if n >= 2:
        for parity in (0, 1):
            for along_row in (True, False):
                shape = ("row" if along_row else "column") + ("-even", "-odd")[parity]
                yield shape, _single_entry(rng, n, _sparse_support(rng, n), parity, along_row)
    if n >= 1:
        k = rng.randrange(n)
        yield "empty-row", {c for c in _sparse_support(rng, n) if c[0] != k}
        yield "empty-column", {c for c in _sparse_support(rng, n) if c[1] != k}
    if n >= 4:
        yield "cascade", _cascade(rng, n)


@pytest.mark.parametrize("modulus", [None, 7])
def test_peeled_det_matches_both_oracles_on_sparse_matrices(modulus, monkeypatch):
    # sizes 0-7, at least half of the entries zero; single-entry lines at
    # both parities of i + j, in rows and in columns, peels that cascade,
    # and empty rows and columns
    rng = random.Random(modulus or 0)
    zero = LaurentPoly.zero(modulus)
    handed = []
    kernel = laurent._bareiss
    monkeypatch.setattr(laurent, "_bareiss",
                        lambda rows, width, q: handed.append((rows, width)) or kernel(rows, width, q))

    def entry():
        p = zero
        while p.is_zero():
            p = random_laurent(rng, modulus, denominators=(1, 2, 3, 5))
        return p

    shapes = {}
    for n in range(8):
        for _ in range(4):
            for shape, support in _sparse_cases(rng, n):
                assert 2 * len(support) <= n * n, (shape, n)
                counts = [sum(c[line] == k for c in support) for line in (0, 1)
                          for k in range(n)]
                if shape == "cascade":
                    assert sorted(counts)[:3] == [1, 1, 2], support
                if shape.startswith("empty"):
                    assert 0 in counts
                m = RingMatrix([[entry() if (i, j) in support else zero for j in range(n)]
                                for i in range(n)], modulus, cols=n)
                handed.clear()
                d = det(m)
                # peeling stops only when no row or column has fewer than two
                # entries; the kernel is handed the nonzero ones only
                for rows, width in handed:
                    assert width == len(rows), (shape, m)
                    for line in rows + [[j for row in rows if j in row] for j in range(width)]:
                        assert len(line) >= 2, (shape, m)
                    assert all(c for row in rows for c in row.values()), (shape, m)
                assert d == _det_bareiss(m) == det_cofactor(m), (shape, m)
                shapes[shape] = shapes.get(shape, 0) + (not d.is_zero())
    # every shape that can have a nonzero determinant had some
    assert sorted(k for k, v in shapes.items() if v) == [
        "cascade", "column-even", "column-odd", "random", "row-even", "row-odd"]


def test_det_hands_the_kernel_only_what_peeling_leaves(monkeypatch, corpus):
    sizes = []
    kernel = laurent._bareiss

    def counted(rows, width, q):
        sizes.append(len(rows))
        return kernel(rows, width, q)

    monkeypatch.setattr(laurent, "_bareiss", counted)
    # a cascade peels to nothing: a triangular matrix under a row swap
    m = M([[0, 2, 0], [{1: 1}, 3, 0], [1, {-1: 1}, 5]])
    assert det(m) == det_cofactor(m) == P({1: -10})
    # the cut strand's source and sink vertices peel off I - W
    g = build_arc_graph(cut(corpus["6_1"], [1]))
    i_minus_w = tangle_matrix(g, alexander_spec())
    assert det(i_minus_w) == _det_bareiss(i_minus_w)
    assert sizes == [0, i_minus_w.rows - 2, i_minus_w.rows]


def _inversions(perm):
    """The number of pairs out of order in perm, whose parity is its sign's."""
    return sum(perm[a] > perm[b] for a in range(len(perm)) for b in range(a + 1, len(perm)))


@pytest.mark.parametrize("modulus", [None, 7])
def test_permutation_matrices_peel_whole_with_their_sign(modulus, monkeypatch):
    # sizes 1-40: a diagonal and a lower bidiagonal matrix, each under
    # random row and column permutations.  The first has one entry in each
    # row and column; the second exposes one single-entry line after
    # another, in an order that both permutations steer.  det peels either
    # whole and hands the kernel nothing.  Entries are units (+-1, +-t^k)
    # or not (2, 1 + t, 1/2 t^-1); the determinant is the product of the
    # diagonal times the signs of both permutations, by counting
    # inversions, and det_cofactor's where cofactor expansion is cheap
    # (every permutation matrix, the bidiagonal ones up to size 8)
    rng = random.Random(f"permutations/{modulus}")
    handed = []
    kernel = laurent._bareiss
    monkeypatch.setattr(laurent, "_bareiss",
                        lambda rows, width, q: handed.append(len(rows)) or kernel(rows, width, q))
    units = [P({0: 1}, modulus), P({0: -1}, modulus), P({2: 1}, modulus), P({-1: -1}, modulus)]
    others = [P({0: 2}, modulus), P({0: 1, 1: 1}, modulus),
              P({-1: 4 if modulus else Fraction(1, 2)}, modulus)]

    def entry():
        return rng.choice(units if rng.random() < 0.7 else others)

    zero, signs = LaurentPoly.zero(modulus), []
    for n in range(1, 41):
        for _ in range(3):
            rows, cols = rng.sample(range(n), n), rng.sample(range(n), n)
            diagonal = {(rows[i], cols[i]): entry() for i in range(n)}
            bidiagonal = diagonal | {(rows[i + 1], cols[i]): entry() for i in range(n - 1)}
            want = functools.reduce(operator.mul, diagonal.values())
            parity = (_inversions(rows) + _inversions(cols)) % 2
            want = -want if parity else want
            for cells in (diagonal, bidiagonal):
                m = RingMatrix([[cells.get((i, j), zero) for j in range(n)] for i in range(n)],
                               modulus, cols=n)
                handed.clear()
                assert det(m) == want, (rows, cols, cells)
                assert handed == [0], (rows, cols, handed)
                if cells is diagonal or n <= 8:
                    assert det_cofactor(m) == want, (rows, cols, cells)
            signs.append(parity)
    assert min(signs.count(0), signs.count(1)) >= 40, signs


def test_det_swaps_rows_for_zero_pivots():
    # the first and the second pivots are zero; a swap is needed for each
    m = M([[0, 0, 2, 0, {1: 1}],
           [{-1: 1}, 0, 3, 1, 0],
           [2, {2: 1}, 0, 0, 1],
           [0, 0, 1, {0: 1, 1: 1}, 4],
           [1, 5, 0, 2, {-2: 3}]])
    assert not det(m).is_zero()
    assert det(m) == det_cofactor(m)
    assert det(M([[0, 1], [1, 0]])).coeffs == {0: -1}
    assert det(M([[0, 2], [3, 4]], modulus=7)).coeffs == {0: 1}


def test_det_of_singular_matrices_is_zero():
    rows = [[{0: 1, 1: -1}, 2, {-1: 1}, 0, 1],
            [3, {2: 1}, 0, 1, {1: 2}],
            [0, 1, 1, 1, 1],
            [1, 0, {1: 1}, 0, 2],
            [0, 0, 0, 0, 0]]
    m = M(rows)
    assert det(m).is_zero()
    # the last row is t times the first plus the second
    last = [T * a + b for a, b in zip(m.entries[0], m.entries[1])]
    dependent = RingMatrix(list(m.entries[:4]) + [last])
    assert det(dependent).is_zero() and det_cofactor(dependent).is_zero()
    assert det(M([[0, 0], [0, 1]], modulus=11)).is_zero()


def test_det_of_rows_with_negative_exponents():
    rng = random.Random(19)
    for n in (5, 6):
        for modulus in (None, 7):
            rows = [[random_laurent(rng, modulus, exponents=(-4, 1)) for _ in range(n)]
                    for _ in range(n)]
            m = RingMatrix(rows, modulus)
            assert det(m) == det_cofactor(m), (n, modulus, m)


@pytest.mark.parametrize("name, order, size", [
    ("figure8", 2, 18), ("trefoil", 3, 30), ("figure8", 3, 39)])
def test_det_of_cable_matrices_at_rational_points(corpus, name, order, size):
    # rational_det (Gauss-Jordan by row_reduce) shares no code with the
    # kernel, and reaches sizes that det_cofactor does not
    tangle = cable(cut(corpus[name], [1]), order)
    m = tangle_matrix(build_arc_graph(tangle), alexander_spec())
    assert m.rows == size
    d = det(m)
    for t0 in (Fraction(3, 5), Fraction(-7, 2), Fraction(2)):
        assert d.evaluate(t0) == rational_det(m.evaluate(t0))


def test_det_of_composite_and_fox_matrices_matches_gauss_jordan(corpus):
    # as for the cables: the 6_1+6_1 composite's I - W and 6_1's Fox minor
    six = cut(corpus["6_1"], [1])
    fox = alexander_matrix(wirtinger_presentation(corpus["6_1"]))
    matrices = [tangle_matrix(build_arc_graph(compose_tangles(six, six)), alexander_spec()),
                fox.delete(rows=(fox.rows - 1,), cols=(fox.cols - 1,))]
    assert [m.rows for m in matrices] == [13, 5]
    for m in matrices:
        d = det(m)
        assert not d.is_zero()
        for t0 in (Fraction(3, 5), Fraction(-7, 2), Fraction(2), Fraction(-1, 3)):
            assert d.evaluate(t0) == rational_det(m.evaluate(t0)), (m.rows, t0)


# support patterns ("x" a nonzero entry) that steer the kernel, on generic
# constant entries, through its row rule and its telescoped scaling
KERNEL_PATTERNS = (
    # step 0 takes row 4 (one entry right of column 0, against row 2's five);
    # steps 1 and 3 break ties in entry counts by row index; rows 0 and 6
    # are caught up over two pivots, and row 1 over three, as the pivot of
    # the last step, which swaps; the last row, row 5, over four
    ("..xxxxx", ".x...xx", "x.xxxxx", ".x....x", "x.x....", ".x....x", "..x..xx"),
    # swaps at step 0 and at the last step; the last row, row 3, misses
    # every pivot column and is caught up over all four pivots at the end
    ("..x..", "xx...", ".xxx.", "....x", "..xxx"),
)

DOMAINS = {"Z": None, "Q": None, "F7": 7}


def _nonzero(rng, domain):
    """A random nonzero constant over Z, over Q with a denominator, or over F_7."""
    if domain == "F7":
        return rng.randrange(1, 7)
    num = rng.choice((-1, 1)) * rng.randint(1, 9)
    return num if domain == "Z" else Fraction(num, rng.choice((2, 3, 5, 7)))


@pytest.mark.parametrize("domain", sorted(DOMAINS))
def test_kernel_row_rule_and_catch_ups_match_cofactor(domain):
    rng, q = random.Random(domain), DOMAINS[domain]

    def x():
        return _nonzero(rng, domain)

    for pattern in KERNEL_PATTERNS:
        nonzero = 0
        for _ in range(6):
            m = RingMatrix([[x() if c == "x" else 0 for c in row] for row in pattern], q)
            d = _det_bareiss(m)
            assert d == det_cofactor(m) == det(m), (pattern, m)
            nonzero += not d.is_zero()
        assert nonzero >= 3, pattern
    # rows 0 and 1 tie on entries right of column 0, and row 1's pivot entry
    # is the shorter, so step 0 swaps
    for _ in range(4):
        m = RingMatrix([[P({0: x(), 1: x()}, q), x(), 0],
                        [x(), 0, x()],
                        [0, x(), P({1: x()}, q)]], q)
        assert _det_bareiss(m) == det_cofactor(m), m


@pytest.mark.parametrize("domain", sorted(DOMAINS))
def test_kernel_finds_singularity_only_elimination_shows(domain):
    # no zero line and no single-entry line: column 1 is t times column 0,
    # so step 0 empties column 1 and step 1 has no pivot; or the last row is
    # the first plus t times the second, which elimination reduces to zero
    rng, q = random.Random(domain), DOMAINS[domain]
    for _ in range(4):
        rows = [[_nonzero(rng, domain) for _ in range(5)] for _ in range(5)]
        columns = [[r[0], P({1: r[0]}, q)] + r[2:] for r in rows]
        last = [P({0: a, 1: b}, q) for a, b in zip(rows[0], rows[1])]
        for m in (RingMatrix(columns, q), RingMatrix(rows[:4] + [last], q)):
            assert _det_bareiss(m).is_zero() and det(m).is_zero()
            assert det_cofactor(m).is_zero()


# the pivot of each step that eliminates, as a dense coefficient list of the
# kernel's scaled rows, recorded before entries were caught up one at a time
KERNEL_PIVOTS = json.loads((Path(__file__).parent / "data" / "kernel_pivots.json").read_text())

# the closure of the 3-braid (s1 s2)^10, the torus knot T(3,10) of 20
# crossings: the benchmark's largest torus knot on three strands
T3_10 = "".join(f"X+ {a} {b} {c}\n" for a, b, c in (
    (20, 13, 14), (20, 6, 7), (14, 7, 8), (14, 20, 1), (8, 1, 2), (8, 14, 15), (2, 15, 16),
    (2, 8, 9), (16, 9, 10), (16, 2, 3), (10, 3, 4), (10, 16, 17), (4, 17, 18), (4, 10, 11),
    (18, 11, 12), (18, 4, 5), (12, 5, 6), (12, 18, 19), (6, 19, 20), (6, 12, 13)))


def _kernel_spy(monkeypatch):
    """Spy on _bareiss_entry: the work of its calls, counted as in
    test_kernel_work_on_the_figure8_3_cable, and the pivot of each step
    that eliminates, as a dense coefficient list, in step order."""
    work, pivots, last = {"products": 0, "calls": 0, "long": 0}, [], []
    entry = laurent._bareiss_entry

    def counted(a, b, c, d, prev):
        work["products"] += sum(len(b) for x in a if x) + len(c) * len(d)
        work["calls"] += 1
        work["long"] += not prev[3]
        # every update of one step multiplies by the same pivot list
        if c and not (last and last[-1] is b):
            last.append(b)
            dense = [0] * (b[-1][0] + 1)
            for i, x in b:
                dense[i] = x
            pivots.append(dense)
        return entry(a, b, c, d, prev)

    monkeypatch.setattr(laurent, "_bareiss_entry", counted)
    return work, pivots


def test_kernel_work_on_the_figure8_3_cable(corpus, monkeypatch):
    # the multiplications _bareiss_entry performs on figure8's 3-cable I - W,
    # len(b) per nonzero coefficient of a and len(c) * len(d), now that b, c
    # and d are pairs of nonzero coefficients: 3,554 now that an entry is
    # caught up only when read (5,493 when a row was caught up whole and
    # every entry of an updated row scaled, 9,191 when b and d were dense
    # lists, 15,388 by list lengths alone with the sparsest pivot row and
    # telescoped scaling, 22,900 when every row below the pivot is scaled at
    # every step, 63,507 with the first row that has an entry as the pivot,
    # 69,525 with both); 105 of its 220 calls (179 of 389 before) divide by
    # a one-term pivot in one pass, and the other 115 (210) by long
    # division.  The pivots are those of the kernel that caught up whole rows
    work, pivots = _kernel_spy(monkeypatch)
    m = tangle_matrix(build_arc_graph(cable(cut(corpus["figure8"], [1]), 3)), alexander_spec())
    assert det(m) == P({-3: -1, 0: 3, 3: -1})
    assert work["calls"] == 220, work
    assert work["products"] <= 3_730 and work["long"] <= 115, work
    assert pivots == KERNEL_PIVOTS["figure8 3-cable"]


def test_kernel_work_on_a_braid_closure_laplacian_minor(monkeypatch):
    # the matrix-tree route on a closure of the size the benchmark runs:
    # det of T(3,10)'s arc-graph Laplacian without the row and column of arc
    # 1 takes 217 entry updates (433 when rows were caught up whole), with
    # 3,631 products (5,894) and 89 long divisions (222), on the same pivots
    work, pivots = _kernel_spy(monkeypatch)
    g = build_arc_graph(parse_diagram(T3_10))
    minor = det(laplacian(g, alexander_spec(), (1,)))
    assert canonicalize(minor).poly == P(dict.fromkeys((0, 3, 6, 9, 12, 15, 18), 1)
                                         | dict.fromkeys((1, 4, 7, 11, 14, 17), -1))
    assert work["calls"] == 217, work
    assert work["products"] <= 3_813 and work["long"] <= 89, work
    assert pivots == KERNEL_PIVOTS["T(3,10) root 1"]


def test_routes_to_the_kernel_build_no_dense_view(corpus, monkeypatch):
    # the builders, delete, the peel and the Cramer pair read and write the
    # row maps only, so no n x n pass lies on the way to the kernel: on
    # figure8's 3-cable (a cut strand of 39 arcs, and its closure, a link of
    # 36) and on T(3,10) (20 arcs), nothing reads the dense view
    reads = []
    dense = RingMatrix.entries
    monkeypatch.setattr(RingMatrix, "entries",
                        property(lambda m: reads.append(m.rows) or dense.fget(m)))
    cable3 = cable(cut(corpus["figure8"], [1]), 3)
    torus = parse_diagram(T3_10)
    spec = alexander_spec()
    routes = []
    for strand, closed in ((cable3, close_tangle(cable3)), (cut(torus, [1]), torus)):
        routes.append([
            tangle_determinant(build_arc_graph(strand), spec),
            det(laplacian(build_arc_graph(closed), spec, (closed.arcs[0],))),
            # alexander_minor less its knot check, which the 3-cable's closure fails
            det(_last_minor(alexander_matrix(wirtinger_presentation(closed)))),
            zeta.strand_walk_sum(cut(closed, [closed.arcs[0]]))[1]])
    assert alexander_minor(torus) == routes[1][2]
    assert reads == []
    # the cable's det(I - W), and T(3,10)'s three minors alike up to units
    assert routes[0][0] == P({-3: -1, 0: 3, 3: -1})
    assert len({canonicalize(d).poly for d in routes[1][:3]}) == 1
    assert RingMatrix.identity(2).entries and reads == [2]


def test_kernel_drops_cancelled_entries_from_its_row_maps(monkeypatch):
    # step 0 cancels row 1's entry in column 2, so at step 1 row 1 has two
    # entries and ties row 2, which wins only if the cancelled entry is still
    # counted; updates fill columns the row lacks (row 4, columns 1 and 2 at
    # step 0), entries in columns the pivot row lacks are left alone (row 1,
    # column 3 at step 0, caught up as a pivot-row entry at step 1), and
    # step 3's pivot row has no entry right of its pivot.  Worked by hand,
    # each call as (kind, result) with the pivots 1, 2, 2 and -29 of steps
    # 0-3: 4, 2, 2 and 0 updates, 11 catch-ups (row 3's three entries, each
    # 1 at level 0, become 2 at level 2 as step 2's pivot row), one swap (at
    # step 2) and det = 87
    m = M([[1, 1, 1, 0, 0],
           [1, 3, 1, 5, 0],
           [0, 7, 0, 3, 0],
           [0, 0, 1, 1, 1],
           [2, 0, 0, 4, 1]])
    calls, pivots = [], []
    entry = laurent._bareiss_entry

    def counted(a, b, c, d, prev):
        out = entry(a, b, c, d, prev)
        if c:
            pivots.append(b)
        calls.append(("update" if c else "catch-up", out[0] if out else 0))
        return out

    monkeypatch.setattr(laurent, "_bareiss_entry", counted)
    assert _det_bareiss(m) == det_cofactor(m) == P({0: 87})
    assert pivots == [[(0, 1)]] * 4 + [[(0, 2)]] * 4
    assert calls == [
        # step 0, pivot 1: row 1 in columns 1 and 2 (cancelled), row 4 filled
        ("update", 2), ("update", 0), ("update", -2), ("update", -2),
        # step 1, pivot 2: row 1's column 3 as a pivot-row entry; row 2's
        # pivot-column entry and its column 3; row 4's column 3
        ("catch-up", 5), ("catch-up", 7), ("catch-up", 3), ("update", -29),
        ("catch-up", 4), ("update", 18),
        # step 2, pivot 2, after swapping rows 2 and 3: the pivot row from
        # level 0; row 4's pivot-column entry from level 1, its column 4
        # from level 0
        ("catch-up", 2), ("catch-up", 2), ("catch-up", 2), ("catch-up", -4),
        ("update", 22), ("catch-up", 2), ("update", 6),
        # step 3, pivot -29: the pivot, and no update; the last row's entry
        ("catch-up", -29), ("catch-up", -87)]


def _sparse_kernel_matrix(rng, n, modulus, denominators=(1, 2, 3)):
    """A seeded sparse n x n matrix with Fraction coefficients over Q (of the
    given denominators) and negative exponents: each row has an entry on the
    diagonal and one or two more, and about a third of the rows are +-t^k
    times an earlier row plus a diagonal entry, so that updates cancel to
    zero."""
    zero = LaurentPoly.zero(modulus)

    def entry():
        p = zero
        while p.is_zero():
            p = random_laurent(rng, modulus, denominators=denominators)
        return p

    rows = []
    for i in range(n):
        if i and rng.random() < 0.35:
            unit = P({rng.randint(-1, 1): rng.choice((1, -1))}, modulus)
            row = [unit * e for e in rows[rng.randrange(i)]]
            row[i] = row[i] + entry()
        else:
            row = [zero] * n
            for j in {i, *rng.sample(range(n), min(n, rng.randint(1, 2)))}:
                row[j] = entry()
        rows.append(row)
    return rows


def _at(p, t0, q):
    """p at the unit t0 of F_q."""
    return sum(c * pow(t0, e, q) for e, c in p.coeffs.items()) % q


def _det_at(mat, t0):
    """det(mat evaluated at t0), by row_reduce: over Q, or over F_q at a unit t0."""
    q = mat.modulus
    if q is None:
        return rational_det(mat.evaluate(t0))
    _, pivots, product = row_reduce([[_at(a, t0, q) for a in row] for row in mat.entries],
                                    mat.cols, q)
    return product if len(pivots) == mat.rows else 0


@pytest.mark.parametrize("modulus", [None, 2, 5, 101])
def test_sparse_kernel_matches_both_oracles(modulus, monkeypatch):
    # det, the unpeeled kernel and the Cramer pair on seeded sparse matrices,
    # against cofactor expansion at sizes 1-7 and against row_reduce after
    # evaluation at sizes 8-14.  Rows that are +-t^k times an earlier row
    # plus one entry make updates cancel to zero; then a row is made t times
    # another, in the matrix and in the vector, so that elimination empties
    # it and the determinant and both Cramer minors vanish
    rng = random.Random(f"sparse-kernel/{modulus}")
    zero = LaurentPoly.zero(modulus)
    points = ((Fraction(3, 5), Fraction(-7, 2), Fraction(2)) if modulus is None
              else sorted({1, 2 % modulus, 3 % modulus} - {0}))

    def value(p, t0):
        return p.evaluate(t0) if modulus is None else _at(p, t0, modulus)

    updates = {"cancelled": 0, "row lacks": 0, "multi-level catch-up": 0}
    entry = laurent._bareiss_entry
    # each pivot's coefficient pairs, by id, numbered in the order the kernel
    # first uses them, and kept alive so that no id is reused
    first_use, used = {}, []

    def counted(a, b, c, d, prev):
        out = entry(a, b, c, d, prev)
        for pivot in (prev[0], b):
            if id(pivot) not in first_use:
                first_use[id(pivot)] = len(used)
                used.append(pivot)
        if c:
            updates["cancelled"] += not out
            updates["row lacks"] += not a
        else:
            # a catch-up from level s to level k multiplies by p_(k-1) and
            # divides by p_(s-1); pivots used in between are counted, so
            # this counts from below those with k - s >= 2
            updates["multi-level catch-up"] += first_use[id(b)] - first_use[id(prev[0])] >= 2
        return out

    monkeypatch.setattr(laurent, "_bareiss_entry", counted)

    nonzero = 0
    for n in range(1, 15):
        for _ in range(3 if n <= 7 else 2):
            rows = _sparse_kernel_matrix(rng, n, modulus)
            m = RingMatrix(rows, modulus, cols=n)
            col = rng.randrange(n)
            vector = [P({rng.randint(-1, 1): 1}, modulus) if rng.random() < 0.6 else zero
                      for _ in range(n)]
            replaced = _replaced(m, col, vector)
            whole, other = det(m), det(replaced)
            assert whole == _det_bareiss(m), m
            assert column_replaced_dets(m, col, vector) == (whole, other), (m, col, vector)
            if n <= 7:
                assert (whole, other) == (det_cofactor(m), det_cofactor(replaced)), m
            else:
                for t0 in points:
                    assert value(whole, t0) == _det_at(m, t0), (m, t0)
                    assert value(other, t0) == _det_at(replaced, t0), (replaced, t0)
            nonzero += not whole.is_zero()
            if n >= 2:
                i, j = rng.sample(range(n), 2)
                rows[i] = [P({1: 1}, modulus) * e for e in rows[j]]
                vector[i] = P({1: 1}, modulus) * vector[j]
                m = RingMatrix(rows, modulus, cols=n)
                assert column_replaced_dets(m, col, vector) == (zero, zero), (m, col, vector)
                assert det(m).is_zero() and _det_bareiss(m).is_zero()
    # every kind of update happened: a cancellation to zero, an update of a
    # column the row lacks (a empty), and a catch-up of an entry left alone
    # at two or more steps
    assert nonzero >= 20 and min(updates.values()) >= 100, (nonzero, updates)


def _replaced(mat, col, vector):
    """mat with column col replaced by vector."""
    return RingMatrix([[*row[:col], v, *row[col + 1:]] for row, v in zip(mat.entries, vector)],
                      mat.modulus, cols=mat.cols)


# a seeded family of sparse matrices for the kernel's pins: over Z, over Q
# with denominators, over F_2 and over F_101, square at sizes 2-16 and
# bordered n x (n + 1), as column_replaced_dets hands the kernel a Cramer pair
FAMILY_DOMAINS = {"Z": (None, (1,)), "Q": (None, (1, 2, 3, 5)), "F2": (2, (1,)),
                  "F101": (101, (1,))}


def _kernel_family():
    """(key, matrix, column, vector) for each matrix of the family, keyed as
    in kernel_pivots.json; column and vector are None for a square one."""
    rng = random.Random("kernel-family")
    for domain, (q, denominators) in FAMILY_DOMAINS.items():
        for n in (2, 4, 6, 9, 12, 16, 5, 11):
            m = RingMatrix(_sparse_kernel_matrix(rng, n, q, denominators), q, cols=n)
            if n in (5, 11):
                vector = [random_laurent(rng, q, denominators) for _ in range(n)]
                yield f"family {domain} {n}x{n + 1}", m, rng.randrange(n), vector
            else:
                yield f"family {domain} {n}x{n}", m, None, None


def _run_family_case(m, col, vector):
    """The kernel's minors of one family matrix: det(m) unpeeled, or the
    Cramer pair of column col and vector."""
    if col is None:
        return (_det_bareiss(m),)
    return column_replaced_dets(m, col, vector)


def test_kernel_work_on_a_seeded_sparse_family(monkeypatch):
    # the exact number of entry updates and the pivot of every eliminating
    # step, on 24 square matrices and 8 bordered ones, recorded before the
    # kernel's bookkeeping was rewritten; the minors against det's
    work, pivots = _kernel_spy(monkeypatch)
    keys = []
    for key, m, col, vector in _kernel_family():
        work["calls"] = 0
        pivots.clear()
        minors = _run_family_case(m, col, vector)
        assert {"calls": work["calls"], "pivots": pivots} == KERNEL_PIVOTS[key], key
        want = (det(m),) if col is None else (det(m), det(_replaced(m, col, vector)))
        assert minors == want, key
        keys.append(key)
    assert len(keys) == 32
    assert sorted(keys) == sorted(k for k in KERNEL_PIVOTS if k.startswith("family "))


def test_kernel_results_are_built_in_normal_form(monkeypatch):
    # every polynomial the kernel returns, on the family through det, the
    # unpeeled kernel and the Cramer pair, stores what the validating
    # constructor would: no zero coefficient, integral Fractions as ints,
    # residues reduced mod q, exponents sorted
    results = []
    kernel = laurent._bareiss

    def kept(rows, width, q):
        out = kernel(rows, width, q)
        results.extend((p, q) for p in out)
        return out

    monkeypatch.setattr(laurent, "_bareiss", kept)
    kinds = {"fraction": 0, "residue": 0}
    for _, m, col, vector in _kernel_family():
        _run_family_case(m, col, vector)
        det(m)
    for p, q in results:
        assert_normal_form(p, q)
        kinds["fraction"] += any(type(v) is Fraction for v in p.coeffs.values())
        kinds["residue"] += q is not None and not p.is_zero()
    assert min(kinds.values()) >= 5 and len(results) >= 40, (kinds, len(results))


def assert_cramer_pair(mat, col, vector):
    """column_replaced_dets against its oracle, two calls of det."""
    pair = column_replaced_dets(mat, col, vector)
    assert pair == (det(mat), det(_replaced(mat, col, vector))), (mat, col, vector)
    return pair


@pytest.mark.parametrize("modulus", [None] + PRIMES)
def test_column_replaced_dets_equal_two_determinants(modulus):
    # sizes 1-7 and every column; over Q with Fraction coefficients and
    # negative exponents, and over prime fields; a zero vector, the replaced
    # column itself, a first row held by the replaced column alone (so the
    # leading block of the other columns is singular and the kernel must
    # swap), and two other columns in proportion (both determinants vanish)
    rng = random.Random(modulus or 0)
    zero = LaurentPoly.zero(modulus)

    def entry():
        return random_laurent(rng, modulus, denominators=(1, 2, 3, 5))

    nonzero = 0
    for n in range(1, 8):
        for _ in range(2):
            rows = [[entry() for _ in range(n)] for _ in range(n)]
            vector = [entry() for _ in range(n)]
            for col in range(n):
                mat = RingMatrix(rows, modulus, cols=n)
                whole, replaced = assert_cramer_pair(mat, col, vector)
                nonzero += not (whole.is_zero() or replaced.is_zero())
                assert whole.modulus == replaced.modulus == modulus
                assert assert_cramer_pair(mat, col, [zero] * n) == (whole, zero)
                column = [row[col] for row in rows]
                assert assert_cramer_pair(mat, col, column) == (whole, whole)
                if n >= 2:
                    lone = [[e if j == col else zero for j, e in enumerate(rows[0])]]
                    assert_cramer_pair(RingMatrix(lone + rows[1:], modulus, cols=n), col, vector)
                if n >= 3:
                    a, b = [j for j in range(n) if j != col][:2]
                    tied = [[row[a].shift(1) if j == b else e for j, e in enumerate(row)]
                            for row in rows]
                    pair = assert_cramer_pair(RingMatrix(tied, modulus, cols=n), col, vector)
                    assert pair == (zero, zero)
    # over F_2 half of the random coefficients vanish
    assert nonzero >= (30 if modulus == 2 else 40)


def test_column_replaced_dets_on_every_corpus_strand(corpus):
    # the strand systems of the path sums: I - W without the terminal
    # vertex, and the one-step weights into it
    systems = 0
    for name, d in corpus.items():
        for arc in d.arcs:
            tangle = cut(d, [arc])
            init, term = tangle.strand_pair()
            if init != term:
                col, inner, into = zeta._strand_system(tangle, init, term)
                assert_cramer_pair(inner, col, into)
                systems += 1
    assert systems == 30


def test_column_replaced_dets_refuse_mismatched_input():
    m = M([[1, 2], [3, 4]])
    for col, vector, error, text in (
            (0, [P({0: 1})], ValueError, "a Cramer pair needs"),
            (2, [P({}), P({})], IndexError, "column 2 outside"),
            (0, [P({0: 1}, 7), P({}, 7)], CoefficientError, "mixed coefficient domains: None vs 7")):
        with pytest.raises(error, match=text):
            column_replaced_dets(m, col, vector)
    with pytest.raises(ValueError):
        column_replaced_dets(RingMatrix([[P({0: 1}), P({})]], cols=2), 0, [P({})])


def _dense_entry(a, b, c, d, prev):
    """_bareiss_entry on dense coefficient lists, prepared as the kernel does."""
    def pairs(x):
        return _operand(x)[0] if x else []

    return _bareiss_entry(a, pairs(b), pairs(c), pairs(d), _operand(prev))


def test_bareiss_entry_rejects_inexact_division():
    # (1 - t^2) / (1 + t) = 1 - t
    assert _dense_entry([1, 0, -1], [1], [], [], [1, 1]) == [1, -1]
    # 1 + t^2 = (t - 1)(t + 1) + 2: each leading division is exact, the
    # remainder is not
    with pytest.raises(AssertionError):
        _dense_entry([1, 0, 1], [1], [], [], [1, 1])
    with pytest.raises(AssertionError):
        _dense_entry([0, 2], [1], [], [], [3])
    # one-term divisors: a coefficient of num below the divisor's degree, or
    # one that the divisor's coefficient does not divide
    for num, prev in (([1, 0, 1], [0, 1]), ([0, 1, 0, 2], [0, 0, 1]),
                      ([0, 0, 4], [0, 0, -3]), ([0, 0, 3, 2], [0, 0, -3])):
        with pytest.raises(AssertionError):
            _dense_entry(num, [1], [], [], prev)


def _dense_product(x, y):
    """The product of two dense coefficient lists, lowest degree first."""
    out = [0] * (len(x) + len(y) - 1)
    for i, u in enumerate(x):
        for j, v in enumerate(y, i):
            out[j] += u * v
    return out


@pytest.mark.parametrize("prev", [[1], [-1], [0, 0, 1], [0, 0, -3], [1, 1], [2, 0, 0, -1]])
def test_bareiss_entry_divides_products_with_zero_coefficients(prev):
    # a = prev * x and c = prev * y, so (a*b - c*d) / prev = x*b - y*d; the
    # lists carry zeros low down and inside, and the quotient has zero terms
    rng = random.Random(str(prev))

    def dense():
        out = [rng.choice((0, 0, 0, 1, -1, 2, -5)) for _ in range(rng.randint(0, 4))]
        return out + [rng.choice((1, -1, 3))]

    for _ in range(40):
        x, b, y, d = dense(), dense(), dense(), dense()
        if rng.random() < 0.2:
            y, d = [], []
        xb, yd = _dense_product(x, b), _dense_product(y, d)
        want = [u - v for u, v in zip(xb + [0] * len(yd), yd + [0] * len(xb))]
        while want and not want[-1]:
            want.pop()
        a, c = _dense_product(prev, x), _dense_product(prev, y) if y else []
        assert _dense_entry(a, b, c, d, prev) == want, (x, b, y, d)
    # a*b = c*d: the quotient is the empty list; a = 0: it is -c*d / prev
    assert _dense_entry([0, 0, 2], [1, 1], [0, 0, 1], [2, 2], prev) == []
    assert _dense_entry([], [1], _dense_product(prev, [0, 3]), [1, 2], prev) == [0, -3, -6]


@pytest.mark.parametrize("modulus", [None, 2, 5, 101])
def test_kernel_on_one_term_and_zero_laden_entries_matches_cofactor(modulus, monkeypatch):
    # sizes 1-6, entries c * t^k and t^a - t^b (whose dense lists are mostly
    # zeros), over Q with Fraction coefficients and over F_2, F_5 and F_101:
    # det, the unpeeled kernel and the Cramer pair against cofactor expansion
    rng = random.Random(f"one-term/{modulus}")
    zero = LaurentPoly.zero(modulus)
    divisors = {"one-term": 0, "long": 0}
    entry_fn = laurent._bareiss_entry

    def counted(a, b, c, d, prev):
        divisors["one-term" if prev[3] else "long"] += 1
        return entry_fn(a, b, c, d, prev)

    monkeypatch.setattr(laurent, "_bareiss_entry", counted)

    def entry():
        kind = rng.random()
        if kind < 0.3:
            return zero
        if kind < 0.65:
            c = (rng.randrange(1, modulus) if modulus
                 else Fraction(rng.choice((-3, -1, 1, 2, 7)), rng.choice((1, 1, 2, 3))))
            return P({rng.randint(-3, 3): c}, modulus)
        a, b = rng.sample(range(-3, 4), 2)
        return P({a: 1, b: -1 % modulus if modulus else -1}, modulus)

    nonzero = 0
    for n in range(1, 7):
        for _ in range(6):
            m = RingMatrix([[entry() for _ in range(n)] for _ in range(n)], modulus)
            want = det_cofactor(m)
            assert det(m) == _det_bareiss(m) == want, m
            col, vector = rng.randrange(n), [entry() for _ in range(n)]
            assert column_replaced_dets(m, col, vector) == (
                want, det_cofactor(_replaced(m, col, vector))), (m, col, vector)
            nonzero += not want.is_zero()
    assert nonzero >= 20 and min(divisors.values()) >= 300, (nonzero, divisors)


def test_row_reduce_pivot_product_is_the_determinant_mod_7():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(1, 5)
        rows = [[rng.randrange(7) if rng.random() < 0.7 else 0 for _ in range(n)]
                for _ in range(n)]
        mat, pivots, product = row_reduce(rows, n, 7)
        expected = det(RingMatrix(rows, 7)).coeffs.get(0, 0)
        if len(pivots) == n:
            assert product == expected, rows
            assert mat == [[int(i == j) for j in range(n)] for i in range(n)]
        else:
            assert expected == 0, rows


def test_rational_solve_known_system():
    rows = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(3)]]
    assert rational_solve(rows, [Fraction(5), Fraction(10)]) == [1, 3]


def test_rational_solve_singular_returns_none():
    rows = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    assert rational_solve(rows, [Fraction(1), Fraction(1)]) is None


def test_rational_solve_random_roundtrip():
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randint(1, 5)
        a = [[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
        x = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
        b = [sum(a[i][j] * x[j] for j in range(n)) for i in range(n)]
        got = rational_solve(a, b)
        if got is not None:
            assert [sum(a[i][j] * got[j] for j in range(n)) for i in range(n)] == b


def test_evaluate_matrix():
    m = RingMatrix([[T, P({0: 1, 1: -1})]], cols=2)
    assert m.evaluate(Fraction(1, 3)) == [[Fraction(1, 3), Fraction(2, 3)]]
