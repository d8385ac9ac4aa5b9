"""Fox calculus, Alexander polynomials, and the structural cross-checks."""

import random

import pytest

from knotzeta import alexander
from knotzeta.alexander import _last_minor, abelianize, alexander_matrix, alexander_minor, \
    alexander_polynomial, exponent_sum, fox_derivative, \
    fox_equals_arcgraph_check, fox_gradient, free_reduce, knot_determinant, \
    multiplicativity_check, split_check
from knotzeta.arc_graph import alexander_spec, build_arc_graph, tangle_matrix
from knotzeta.knot_model import DiagramError, cable, close_tangle, connected_sum, cut, \
    split_union, wirtinger_presentation
from knotzeta.laurent import LaurentPoly, RingMatrix, canonicalize, det
from tests.conftest import KNOWN_DET, KNOWN_POLY, assert_sparse_rows

X, Y = "x", "y"


def test_free_reduce():
    assert free_reduce(((X, 1), (X, -1))) == ()
    assert free_reduce(((X, 1), (Y, 1), (Y, -1), (X, 1))) == ((X, 1), (X, 1))


def test_fox_derivative_of_generator():
    assert fox_derivative(((X, 1),), X) == {(): 1}
    assert fox_derivative(((X, -1),), X) == {((X, -1),): -1}
    assert fox_derivative(((Y, 1),), X) == {}


def test_fox_derivative_product_rule():
    # d(xy)/dx = 1, d(xy)/dy = x
    word = ((X, 1), (Y, 1))
    assert fox_derivative(word, X) == {(): 1}
    assert fox_derivative(word, Y) == {((X, 1),): 1}


def test_fox_derivative_of_commutator():
    # d(xyx^-1y^-1)/dx = 1 - xyx^-1
    word = ((X, 1), (Y, 1), (X, -1), (Y, -1))
    d = fox_derivative(word, X)
    assert d == {(): 1, ((X, 1), (Y, 1), (X, -1)): -1}


def test_fox_derivative_expands_powers():
    # d(x^2)/dx = 1 + x
    assert fox_derivative(((X, 2),), X) == {(): 1, ((X, 1),): 1}


def assert_gradient_matches(word, generators):
    """fox_gradient(word) against fox_derivative, one generator at a time;
    an entry only for a generator that word contains."""
    grad = fox_gradient(word)
    assert set(grad) <= {g for g, _ in word}, word
    for g in generators:
        assert grad.get(g, {}) == fox_derivative(word, g), (word, g)


def test_fox_gradient_matches_every_derivative_of_diagram_relators(corpus):
    # every relator of the corpus and of figure8's 2- and 3-cables: a
    # Wirtinger relator names at most three of the generators
    diagrams = list(corpus.values())
    diagrams += [close_tangle(cable(cut(corpus["figure8"], [1]), n)) for n in (2, 3)]
    relators = 0
    for d in diagrams:
        pres = wirtinger_presentation(d)
        for r in pres.relators:
            assert_gradient_matches(r, pres.generators)
            assert len(fox_gradient(r)) <= 3
            relators += 1
    # 30 corpus crossings, 16 and 36 on the cables
    assert relators == 30 + 16 + 36


def test_fox_gradient_matches_every_derivative_of_random_words():
    # exponents +-1..+-3, cancelling pairs x^e x^-e (so reduced prefixes
    # shrink), and generators the word never names
    rng = random.Random(0)
    gens = ("a", "b", "c", "d", "e")
    for _ in range(300):
        word = []
        for _ in range(rng.randint(0, 8)):
            g, e = rng.choice(gens[:3]), rng.choice((1, 2, 3)) * rng.choice((1, -1))
            word.append((g, e))
            if rng.random() < 0.3:
                word.append((g, -e))
        assert_gradient_matches(tuple(word), gens)
    assert fox_gradient(((X, 1), (X, -1))) == {X: {}}
    assert fox_gradient(()) == {}


def test_exponent_sum():
    word = ((X, 1), (Y, -1), (X, 1))
    assert exponent_sum(word) == 1


def test_abelianize_collapses_words():
    elem = {((X, 1), (Y, 1)): 2, ((Y, 1), (X, 1)): 3, (): -1}
    assert abelianize(elem) == LaurentPoly({2: 5, 0: -1})


def test_alexander_matrix_shape(trefoil):
    mat = alexander_matrix(wirtinger_presentation(trefoil))
    assert mat.rows == mat.cols == 3
    # each row sums to zero: the relator dies under total abelianization
    for row in mat.entries:
        total = LaurentPoly.zero()
        for e in row:
            total = total + e
        assert total.is_zero()


def test_alexander_matrices_keep_only_nonzero_entries(corpus):
    # each relator's row holds the generators it names, never a zero, on
    # every corpus diagram, a split union (its circle arcs have no relator)
    # and figure8's closed 3-cable; the last minor keeps it so
    diagrams = list(corpus.values())
    diagrams += [split_union(corpus["trefoil"], corpus["unknot"]),
                 close_tangle(cable(cut(corpus["figure8"], [1]), 3))]
    for d in diagrams:
        pres = wirtinger_presentation(d)
        mat = alexander_matrix(pres)
        assert (mat.rows, mat.cols) == (len(pres.relators), len(pres.generators))
        for row, r in zip(mat.row_maps, pres.relators):
            assert {pres.generators[j] for j in row} <= {g for g, _ in r}
        assert_sparse_rows(mat)
        assert_sparse_rows(_last_minor(mat))


def test_known_polynomials(corpus):
    for name, coeffs in KNOWN_POLY.items():
        assert alexander_polynomial(corpus[name]).poly.coeffs == coeffs, name


def test_known_determinants(corpus):
    for name, expect in KNOWN_DET.items():
        assert knot_determinant(corpus[name]) == expect, name


def test_minor_choice_changes_only_units(corpus):
    # every first minor is an associate of the last one, which
    # alexander_polynomial takes
    for name, d in corpus.items():
        base = alexander_polynomial(d).poly
        mat = alexander_matrix(wirtinger_presentation(d))
        for row in range(mat.rows):
            for col in range(mat.cols):
                minor = det(mat.delete(rows=(row,), cols=(col,)))
                assert canonicalize(minor).poly == base, (name, row, col)


def test_unknot_minor_is_one(unknot):
    assert alexander_minor(unknot).is_one()


def test_links_rejected(trefoil, figure8):
    from knotzeta.knot_model import split_union
    with pytest.raises(DiagramError):
        alexander_minor(split_union(trefoil, figure8))


def test_mirror_has_same_polynomial(corpus):
    assert alexander_polynomial(corpus["trefoil_left"]).poly == \
        alexander_polynomial(corpus["trefoil"]).poly


def test_modular_reduction(trefoil):
    # the integer minor reduced mod 5: det commutes with the reduction
    poly = canonicalize(LaurentPoly(alexander_minor(trefoil).coeffs, 5)).poly
    assert poly.modulus == 5
    assert poly.coeffs == {0: 1, 1: 4, 2: 1}


def test_fox_equals_arcgraph_everywhere(corpus):
    for name, d in corpus.items():
        v = fox_equals_arcgraph_check(d)
        assert v.passed, (name, v.detail)


def test_fox_equals_arcgraph_names_each_mismatched_entry(monkeypatch, trefoil):
    # the graph side with arc 1's diagonal changed and one of its edges
    # dropped: the verdict names both entries, in column order
    iw = tangle_matrix(build_arc_graph(trefoil), alexander_spec())
    rows = [list(row) for row in iw.entries]
    j = max(iw.row_maps[0].keys() - {0})
    dropped = rows[0][j]
    rows[0][0], rows[0][j] = LaurentPoly({0: 2}), LaurentPoly.zero()
    monkeypatch.setattr(alexander, "tangle_matrix", lambda g, spec: RingMatrix(rows))
    v = fox_equals_arcgraph_check(trefoil)
    assert not v.passed
    assert v.detail["mismatches"] == [
        {"arc": 1, "column": 1, "fox": "1", "graph": "2"},
        {"arc": 1, "column": j + 1, "fox": str(dropped), "graph": "0"}]


def test_multiplicativity(trefoil, figure8):
    assert multiplicativity_check(trefoil, figure8).passed
    assert multiplicativity_check(trefoil, trefoil).passed


def test_connected_sum_polynomial_value(trefoil, figure8):
    s = connected_sum(trefoil, figure8)
    # (t^2 - t + 1)(t^2 - 3t + 1)
    assert alexander_polynomial(s).poly.coeffs == \
        {0: 1, 1: -4, 2: 5, 3: -4, 4: 1}
    assert knot_determinant(s) == 15


def test_split_vanishing(trefoil, figure8, unknot):
    assert split_check(trefoil, figure8).passed
    assert split_check(unknot, trefoil).passed
    assert split_check(unknot, unknot).passed
