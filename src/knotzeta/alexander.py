"""Fox free differential calculus and the Alexander invariants.

The free derivative of a relator with respect to each generator, abelianized
by sending every generator to t, gives the Alexander matrix.  fox_gradient
takes all of a relator's derivatives in one walk over its letters, with an
entry only for the generators it contains (a Wirtinger relator names three
of them; every other derivative is 0), and fox_derivative, one generator per
walk, is its oracle.  Deleting one row and one column and taking the
determinant yields the Alexander polynomial up to a unit; its value at
t = -1 is the knot determinant.  The same matrix equals I - W of the arc
graph under the standard weight specialization, and that equality is checked
here entry by entry rather than assumed.
"""

from __future__ import annotations

from fractions import Fraction

from .arc_graph import alexander_spec, build_arc_graph, tangle_matrix
from .knot_model import DiagramError, connected_sum, split_union, wirtinger_presentation
from .laurent import LaurentPoly, RingMatrix, canonicalize, det
from .verdict import Verdict

# Group ring elements are dicts mapping freely reduced words (tuples of
# (generator, +-1) letters) to integer coefficients, zeros omitted.


def free_reduce(word):
    out = []
    for g, e in word:
        if out and out[-1][0] == g and out[-1][1] == -e:
            out.pop()
        else:
            out.append((g, e))
    return tuple(out)


def _letters(word):
    """Expand arbitrary integer exponents into a sequence of +-1 letters."""
    for g, e in word:
        step = 1 if e > 0 else -1
        for _ in range(abs(e)):
            yield (g, step)


def _add_term(elem, word, coeff):
    if not coeff:
        return
    new = elem.get(word, 0) + coeff
    if new:
        elem[word] = new
    else:
        del elem[word]


def fox_derivative(word, gen):
    """The free derivative of a group word with respect to one generator.

    Rules: d(x)/dx = 1, d(x^-1)/dx = -x^-1, d(uv) = du + u dv.  The result
    is a group ring element over freely reduced words.
    """
    elem = {}
    prefix = ()
    for g, e in _letters(word):
        if e == 1:
            if g == gen:
                _add_term(elem, prefix, 1)
            prefix = free_reduce(prefix + ((g, 1),))
        else:
            prefix = free_reduce(prefix + ((g, -1),))
            if g == gen:
                _add_term(elem, prefix, -1)
    return elem


def fox_gradient(word):
    """{generator: the free derivative of word by it} for the generators
    that word contains, in one walk over its letters.

    The rules and the freely reduced prefixes of fox_derivative; each prefix
    is reduced where a letter is added (only the new letter can cancel), not
    from scratch.  A generator absent from word has derivative 0 and no
    entry.
    """
    grad = {}
    prefix = ()
    for g, e in _letters(word):
        if e == 1:
            _add_term(grad.setdefault(g, {}), prefix, 1)
        prefix = prefix[:-1] if prefix and prefix[-1] == (g, -e) else prefix + ((g, e),)
        if e == -1:
            _add_term(grad.setdefault(g, {}), prefix, -1)
    return grad


def exponent_sum(word):
    return sum(e for _, e in word)


def abelianize(elem):
    """Send every generator to t: a group ring element becomes a Laurent poly."""
    coeffs = {}
    for word, c in elem.items():
        k = exponent_sum(word)
        coeffs[k] = coeffs.get(k, 0) + c
    return LaurentPoly(coeffs)


def alexander_matrix(presentation):
    """Abelianized Fox Jacobian: one row per relator, one column per
    generator, from one gradient per relator, whose map holds an entry only
    for the generators the relator names (a derivative that abelianizes to
    zero is not stored).  The entries come from abelianize, so the matrix
    is assembled unchecked."""
    column = {g: k for k, g in enumerate(presentation.generators)}
    maps = []
    for r in presentation.relators:
        row = {}
        for g, elem in fox_gradient(r).items():
            if entry := abelianize(elem):
                row[column[g]] = entry
        maps.append(row)
    return RingMatrix._of(maps, None, len(column))


def _last_minor(mat):
    """The Alexander matrix less its last column, and less its last row when
    square (a matrix one row short, from a circle arc, keeps every row)."""
    n = mat.cols
    return mat.delete(rows=(n - 1,) if mat.rows == n else (), cols=(n - 1,))


def alexander_minor(diagram):
    """Determinant of _last_minor of the Alexander matrix; the unknot has no
    relators, so only its column goes and the empty determinant is 1."""
    if not diagram.is_knot():
        raise DiagramError("Alexander polynomial here is for knots; "
                           "links go through the zeta and split checks")
    return det(_last_minor(alexander_matrix(wirtinger_presentation(diagram))))


def alexander_polynomial(diagram):
    """Canonical Alexander polynomial via the Wirtinger minor determinant."""
    return canonicalize(alexander_minor(diagram))


def determinant_of(poly):
    """|poly(-1)| for an integral Alexander polynomial: the knot determinant."""
    value = poly.evaluate(Fraction(-1))
    assert value.denominator == 1
    return abs(int(value))


def knot_determinant(diagram):
    """|Alexander polynomial at t = -1|, a nonnegative integer."""
    return determinant_of(alexander_polynomial(diagram).poly)


def fox_equals_arcgraph_check(diagram):
    """Entrywise identity between the Fox matrix and I - W of the arc graph.

    Row r_i of the Alexander matrix is matched with the arc-vertex row of
    under_in(crossing i); circle arcs have no relator and must carry a plain
    unit row in I - W.
    """
    pres = wirtinger_presentation(diagram)
    fox = alexander_matrix(pres)
    iw = tangle_matrix(build_arc_graph(diagram), alexander_spec())
    zero = LaurentPoly.zero()
    mismatches = []
    arc_row = {c.under_in: r for r, c in enumerate(diagram.crossings)}
    for i, arc in enumerate(diagram.arcs):
        expect = fox.row_maps[arc_row[arc]] if arc in arc_row else {i: LaurentPoly.one()}
        got = iw.row_maps[i]
        for j in sorted(expect.keys() | got.keys()):
            if expect.get(j, zero) != got.get(j, zero):
                mismatches.append({"arc": arc, "column": j + 1,
                                   "fox": str(expect.get(j, zero)),
                                   "graph": str(got.get(j, zero))})
    return Verdict("fox_equals_arcgraph", not mismatches,
                   {"mismatches": mismatches})


def multiplicativity_check(d1, d2):
    """Connected sums multiply Alexander polynomials (canonical comparison)."""
    left = alexander_polynomial(connected_sum(d1, d2)).poly
    right = canonicalize(alexander_polynomial(d1).poly
                         * alexander_polynomial(d2).poly).poly
    return Verdict("connected_sum_multiplicativity", left == right,
                   {"sum": str(left), "product": str(right)})


def split_check(d1, d2):
    """The Wirtinger minor of a split union vanishes identically.

    The minor is _last_minor's.  With two or more circle components there
    are too few relators for it, which certifies the vanishing vacuously.
    """
    u = split_union(d1, d2)
    mat = alexander_matrix(wirtinger_presentation(u))
    if mat.rows < mat.cols - 1:
        return Verdict("split_vanishing", True,
                       {"note": "fewer relators than the minor size; rank is "
                                "deficient outright", "rows": mat.rows, "cols": mat.cols})
    value = det(_last_minor(mat))
    return Verdict("split_vanishing", value.is_zero(), {"minor": str(value)})
