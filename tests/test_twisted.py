"""Representations over prime fields and the twisted determinant quotient."""

import operator
import sys
from functools import reduce

import pytest

from knotzeta import alexander, cli, twisted
from knotzeta.alexander import alexander_matrix, alexander_minor, exponent_sum, \
    fox_derivative
from knotzeta.arc_graph import alexander_spec, build_arc_graph, weight_matrix
from knotzeta.knot_model import DiagramError, Presentation, cable, close_tangle, cut, \
    parse_diagram, wirtinger_presentation
from knotzeta.laurent import LaurentPoly, RingMatrix, canonicalize, det, row_reduce
from knotzeta.twisted import Representation, \
    column_independence_check, dihedral_field, dihedral_rep, fox_colorings, \
    trivial_reduction_check, trivial_representation, \
    twisted_alexander_matrix, twisted_alexander_polynomial, \
    twisted_block_identity_check, twisted_chain, twisted_row_identity_check, \
    twisted_trace_check, twisted_weight_graph, verify_representation
from knotzeta.zeta import closed_walks, power_traces, prime_cycles
from tests.conftest import assert_sparse_rows, traces_of_repeated_products


@pytest.fixture(scope="module")
def trefoil_rep(trefoil):
    coloring = fox_colorings(trefoil, 3).nonconstant()
    return dihedral_rep(trefoil, 3, coloring)


@pytest.fixture(scope="module")
def fig8_rep(figure8):
    coloring = fox_colorings(figure8, 5).nonconstant()
    return dihedral_rep(figure8, 5, coloring)


# a prime p with a nonconstant p-coloring, for each non-trivial corpus knot;
# verify runs the dihedral checks on trefoil and figure8 only
DIHEDRAL = {"trefoil": 3, "figure8": 5, "5_1": 5, "5_2": 7, "6_1": 3}


@pytest.fixture(scope="module")
def dihedral_chains(corpus):
    """{name: the twisted chain of its dihedral representation}."""
    chains = {}
    for name, p in DIHEDRAL.items():
        d = corpus[name]
        chains[name] = twisted_chain(d, dihedral_rep(d, p, fox_colorings(d, p).nonconstant()))
    return chains


def test_representation_validates_inputs():
    with pytest.raises(ValueError):
        Representation(6, {1: ((1,),)})
    with pytest.raises(ValueError):
        Representation(5, {})
    with pytest.raises(ValueError):
        Representation(5, {1: ((1, 0),)})
    with pytest.raises(ValueError):
        Representation(5, {1: ((0,),)})
    with pytest.raises(ValueError):
        Representation(5, {1: ((1,),), 2: ((1, 0), (0, 1))})


def test_representation_refuses_non_integers():
    for field, entry in ((5.0, 1), (True, 1), (5, 1.5), (5, True), (5, "1")):
        with pytest.raises(ValueError, match="must be an integer"):
            Representation(field, {1: ((entry,),)})


def test_is_prime_agrees_with_trial_division():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))

    assert [n for n in range(-5, 20000) if twisted._is_prime(n)] == \
        [n for n in range(-5, 20000) if trial(n)]


def test_is_prime_on_strong_pseudoprimes_and_big_primes():
    # composites that pass Miller-Rabin to every prime base up to 23 and 31
    assert not twisted._is_prime(149491 * 747451 * 34233211)
    assert not twisted._is_prime(399165290221 * 798330580441)
    assert not twisted._is_prime(561) and not twisted._is_prime(2**61 + 1)
    assert twisted._is_prime(2**61 - 1) and twisted._is_prime(10**18 + 3)
    assert twisted._is_prime(twisted._MR_LIMIT - 1) is False  # decided, not refused
    with pytest.raises(ValueError, match="too large"):
        twisted._is_prime(twisted._MR_LIMIT)


def test_word_image_multiplies():
    rep = Representation(7, {1: ((2,),), 2: ((3,),)})
    assert rep.word_image(((1, 1), (2, 1))) == ((6,),)
    assert rep.word_image(((1, -1),)) == ((4,),)
    assert rep.word_image(()) == ((1,),)
    with pytest.raises(KeyError):
        rep.word_image(((9, 1),))


def test_trivial_representation_satisfies_everything(trefoil):
    rep = trivial_representation(tuple(trefoil.arcs))
    assert rep.field == 101 and rep.dim == 1
    assert verify_representation(wirtinger_presentation(trefoil), rep).passed


def test_verify_representation_flags_bad_images(trefoil):
    rep = Representation(5, {1: ((2,),), 2: ((1,),), 3: ((1,),)})
    v = verify_representation(wirtinger_presentation(trefoil), rep)
    assert not v.passed
    assert v.detail["failed_relators"]


def test_verify_representation_flags_missing_generators(trefoil):
    rep = Representation(5, {1: ((1,),)})
    v = verify_representation(wirtinger_presentation(trefoil), rep)
    assert not v.passed
    assert set(v.detail["missing_generators"]) == {2, 3}


def test_fox_colorings_trefoil_mod3(trefoil):
    space = fox_colorings(trefoil, 3)
    assert space.dim == 2
    # 3^2 colorings in all, 3 constants, 6 nonconstant
    all_colorings = set(space.vectors())
    assert len(all_colorings) == 9
    assert sum(1 for v in all_colorings if len(set(v)) > 1) == 6


def test_fox_colorings_detect_determinant(corpus):
    from tests.conftest import KNOWN_DET
    # p divides the determinant exactly when extra colorings exist
    for name, d in corpus.items():
        for p in (3, 5, 7):
            dim = fox_colorings(d, p).dim
            if KNOWN_DET[name] % p == 0:
                assert dim > 1, (name, p)
            else:
                assert dim == 1, (name, p)


def test_fox_colorings_reject_bad_modulus(trefoil):
    for p in (2, 4, 9):
        with pytest.raises(ValueError):
            fox_colorings(trefoil, p)


def test_nonconstant_none_for_rigid_knot(figure8):
    assert fox_colorings(figure8, 3).nonconstant() is None


def test_dihedral_field_values():
    assert dihedral_field(3) == (7, 2)
    assert dihedral_field(5) == (11, 4)
    q, w = dihedral_field(7)
    assert q == 29
    assert pow(w, 7, q) == 1 and w != 1


def test_dihedral_rep_images_are_involutions(trefoil, trefoil_rep):
    assert trefoil_rep.field == 7 and trefoil_rep.dim == 2
    ident = ((1, 0), (0, 1))
    for a in trefoil.arcs:
        assert trefoil_rep.word_image(((a, 2),)) == ident
    assert verify_representation(wirtinger_presentation(trefoil),
                                 trefoil_rep).passed


def test_dihedral_rep_whole_space(trefoil):
    # every nonconstant 3-coloring of the trefoil induces a representation
    space = fox_colorings(trefoil, 3)
    pres = wirtinger_presentation(trefoil)
    count = 0
    for v in space.vectors():
        if len(set(v)) > 1:
            rep = dihedral_rep(trefoil, 3, v)
            assert verify_representation(pres, rep).passed
            count += 1
    assert count == 6


def test_dihedral_rep_rejects_constant_and_invalid(trefoil):
    with pytest.raises(ValueError):
        dihedral_rep(trefoil, 3, (1, 1, 1))
    with pytest.raises(ValueError):
        dihedral_rep(trefoil, 3, (0, 1, 1))
    with pytest.raises(ValueError):
        dihedral_rep(trefoil, 3, (0, 1))


def test_twisted_matrix_shape(trefoil, trefoil_rep):
    pres = wirtinger_presentation(trefoil)
    mat = twisted_alexander_matrix(pres, trefoil_rep)
    assert mat.rows == mat.cols == 6
    assert mat.modulus == 7


def test_twisted_polynomial_trefoil(trefoil, trefoil_rep):
    tw = twisted_alexander_polynomial(trefoil, trefoil_rep)
    assert tw.field == 7 and tw.dim == 2
    assert tw.fraction.denominator.is_one()
    # t^2 + 6 up to units: the mod-7 image of t^2 + 1
    assert canonicalize(tw.fraction.numerator).poly.coeffs == {2: 1, 0: 6}


def test_twisted_polynomial_figure8(figure8, fig8_rep):
    tw = twisted_alexander_polynomial(figure8, fig8_rep)
    assert tw.field == 11 and tw.dim == 2
    assert tw.fraction.denominator.is_one()
    assert canonicalize(tw.fraction.numerator).poly.coeffs == {2: 1, 0: 10}


def test_twisted_unknot_reduces_to_inverse_of_t_minus_1(unknot):
    rep = Representation(13, {1: ((1,),)})
    tw = twisted_alexander_polynomial(unknot, rep)
    assert tw.fraction.numerator.is_one() or \
        canonicalize(tw.fraction.numerator).poly.is_one()
    assert canonicalize(tw.fraction.denominator).poly.coeffs == {1: 1, 0: 12}


def test_twisted_rejects_nonrepresentation(trefoil):
    rep = Representation(5, {1: ((2,),), 2: ((1,),), 3: ((1,),)})
    with pytest.raises(DiagramError):
        twisted_alexander_polynomial(trefoil, rep)


def test_twisted_weight_graph_blocks(trefoil, trefoil_rep):
    b = twisted_weight_graph(trefoil, trefoil_rep)
    assert b.rows == b.cols == 6
    # vertices without an underpass exit keep zero block rows elsewhere
    assert b.modulus == 7


def test_block_identity_all_corpus(corpus):
    for name, d in corpus.items():
        rep = trivial_representation(tuple(d.arcs))
        v = twisted_block_identity_check(twisted_chain(d, rep))
        assert v.passed, (name, v.detail)


def test_twisted_element_is_the_sum_of_its_word_images(corpus, dihedral_chains):
    # the block built word by word: coeff * t^(exponent sum) * rho(word),
    # one matrix per word, summed
    def summed(rep, elem):
        out = RingMatrix.zeros(rep.dim, rep.dim, rep.field)
        for word, coeff in elem.items():
            k = exponent_sum(word)
            out = out + RingMatrix([[LaurentPoly({k: coeff * x}, rep.field) for x in row]
                                    for row in rep.word_image(word)], rep.field, cols=rep.dim)
        return out

    chains = list(dihedral_chains.values())
    chains += [twisted_chain(d, trivial_representation(tuple(d.arcs))) for d in corpus.values()]
    blocks = 0
    for chain in chains:
        pres, rep = chain.presentation, chain.rep
        for r in pres.relators:
            for g in pres.generators:
                elem = fox_derivative(r, g)
                assert twisted._twisted_element(rep, elem) == summed(rep, elem), (r, g)
                blocks += 1
    # 111 on the dihedral chains and 128 on the trivial ones
    assert blocks == 239


def test_block_matrices_keep_only_nonzero_entries(corpus, dihedral_chains):
    # every block a chain builds (Fox blocks, the shared zero block,
    # denominators and B's blocks), B flattened, the quotients' minors and
    # the whole Jacobian, on the trivial chains of the corpus and the
    # dihedral chains of trefoil (p = 3) and figure8 (p = 5)
    chains = [dihedral_chains["trefoil"], dihedral_chains["figure8"]]
    chains += [twisted_chain(d, trivial_representation(tuple(d.arcs))) for d in corpus.values()]
    for chain in chains:
        pres = chain.presentation
        n = len(pres.generators)
        matrices = [chain.zero_block, chain.weights]
        matrices += [chain.fox_block(r, k) for r in range(len(pres.relators)) for k in range(n)]
        matrices += [chain.denominator(k) for k in range(n)]
        matrices += [b for row in chain.weight_blocks for b in row]
        if pres.relators:
            matrices.append(twisted_alexander_matrix(pres, chain.rep))
            rows = range(len(pres.relators) - (len(pres.relators) == n))
            matrices += [RingMatrix.from_blocks([[chain.fox_block(r, k) for k in range(n)
                                                  if k != pos] for r in rows])
                         for pos in range(n) if rows and len(rows) >= n - 1]
        for m in matrices:
            assert m.modulus == chain.rep.field
            assert_sparse_rows(m)


def test_block_identity_dihedral(dihedral_chains):
    for name, chain in dihedral_chains.items():
        v = twisted_block_identity_check(chain)
        assert v.passed, (name, v.detail)


def test_row_identity(dihedral_chains):
    for name, chain in dihedral_chains.items():
        v = twisted_row_identity_check(chain)
        assert v.passed, (name, v.detail)


def test_twisted_trace(dihedral_chains):
    for name, chain in dihedral_chains.items():
        v = twisted_trace_check(chain)
        assert v.passed, (name, v.detail)


def test_power_traces_of_the_block_walk_matrices(dihedral_chains):
    for name, chain in dihedral_chains.items():
        for max_power in range(1, 10):
            assert power_traces(chain.weights, max_power) \
                == traces_of_repeated_products(chain.weights, max_power), (name, max_power)


def test_twisted_trace_builds_prime_blocks_on_shared_prefixes(dihedral_chains, monkeypatch):
    # each B(p) from scratch, its powers from the identity and every B^m up
    # to m = 6 formed made 165 products on figure8, and forming the last
    # power of each B(p) for its trace alone 82
    chain = dihedral_chains["figure8"]
    products = []
    matmul = RingMatrix.__matmul__
    monkeypatch.setattr(RingMatrix, "__matmul__", lambda a, b: products.append(1) or matmul(a, b))
    assert twisted_trace_check(chain).passed
    assert len(products) <= 78


def test_block_walk_sums_equal_the_per_walk_products(dihedral_chains, monkeypatch):
    # the oracle: each based closed walk's block product, built from the
    # identity on; the prime-form sums of the trace check must equal the
    # sums of their traces, as tr(B^m) does
    for name, chain in dihedral_chains.items():
        g, grid, rep = chain.graph, chain.weight_blocks, chain.rep
        assert RingMatrix.from_blocks(grid) == twisted_weight_graph(chain.diagram, rep)
        identity = RingMatrix.identity(rep.dim, rep.field)
        walk_sums = []
        for length in range(1, twisted.TRACE_POWER + 1):
            total = LaurentPoly.zero(rep.field)
            for walk in closed_walks(g, length):
                prod = identity
                for e in walk:
                    prod = prod @ grid[g.vertex_index(e.src)][g.vertex_index(e.dst)]
                total = total + prod.trace()
            walk_sums.append(total)
        assert walk_sums == power_traces(chain.weights, twisted.TRACE_POWER), name
        monkeypatch.setattr(twisted, "power_traces", lambda w, n: walk_sums)
        v = twisted_trace_check(chain)
        assert v.passed, (name, v.detail)


def test_trivial_reduction_across_corpus(corpus):
    for name, d in corpus.items():
        v = trivial_reduction_check(d)
        assert v.passed, (name, v.detail)


def test_column_independence(dihedral_chains):
    for name, chain in dihedral_chains.items():
        v = column_independence_check(chain)
        assert v.passed and v.detail["columns"] == list(chain.diagram.arcs), (name, v.detail)


def test_determinant_formula_on_the_block_walk_matrix(dihedral_chains):
    # Wada's invariant from the graph side: I - B less block row a and the
    # block column of generator k, over det(t rho(x_k) - I), is the
    # quotient at k up to units, for every a and k
    pairs = 0
    for name, chain in dihedral_chains.items():
        m, index = chain.rep.dim, chain.graph.vertex_index
        i_minus_b = RingMatrix.identity(chain.weights.rows, chain.rep.field) - chain.weights
        for k, gen in enumerate(chain.presentation.generators):
            quotient, col = chain.quotient(k), index(gen)
            right = canonicalize(quotient.numerator * det(chain.denominator(k))).poly
            for a in range(len(chain.graph.vertices)):
                minor = det(i_minus_b.delete(range(a * m, a * m + m), range(col * m, col * m + m)))
                left = canonicalize(minor * quotient.denominator).poly
                assert left == right, (name, a, gen)
                pairs += 1
    assert pairs == 111


# primes of length <= 6 and <= 8 on each dihedral chain's arc graph
EULER_PRIMES = {"trefoil": (23, 71), "figure8": (30, 90), "5_1": (22, 67),
                "5_2": (23, 74), "6_1": (23, 71)}


def _z_coefficients(chain):
    """[c_0, c_1, ...] with det(I - zB) = sum c_k z^k, from one determinant
    at z = t^K.  Every entry of B has t-exponents in {-1, 0, 1}, so c_k has
    exponents in [-k, k]; with K = 2N + 2 for N rows the terms of c_k z^k
    keep apart, and an exponent e belongs to the nearest multiple of K."""
    b, q = chain.weights, chain.rep.field
    k_step = 2 * b.rows + 2
    z_b = RingMatrix([[a.shift(k_step) for a in row] for row in b.entries], q)
    full = det(RingMatrix.identity(b.rows, q) - z_b)
    coeffs = [{} for _ in range(b.rows + 1)]
    for e, c in full.coeffs.items():
        k = (e + k_step // 2) // k_step
        coeffs[k][e - k * k_step] = c
    return [LaurentPoly(c, q) for c in coeffs]


def test_matrix_weighted_euler_product(dihedral_chains):
    # det(I - zB) = prod_p det(I - z^|p| B(p)) mod z^(L+1) over F_q[t^+-1]
    # (Amitsur's identity), B(p) the blocks of chain.weight_blocks around p
    # in walk order; for 2 x 2 blocks det(I - sM) = 1 - s tr M + s^2 det M
    for name, chain in dihedral_chains.items():
        grid, index, q = chain.weight_blocks, chain.graph.vertex_index, chain.rep.field
        zero, one = LaurentPoly.zero(q), LaurentPoly.one(q)
        det_side = _z_coefficients(chain)
        primes = prime_cycles(chain.graph, 8)
        assert tuple(sum(len(p) <= horizon for p in primes) for horizon in (6, 8)) \
            == EULER_PRIMES[name]
        for horizon in (6, 8):
            product = [one] + [zero] * horizon
            for p in primes:
                if len(p) > horizon:
                    continue
                block = reduce(operator.matmul, (grid[index(e.src)][index(e.dst)] for e in p))
                factor = {0: one, len(p): -block.trace(), 2 * len(p): det(block)}
                product = [sum((product[k - j] * c for j, c in factor.items() if j <= k), zero)
                           for k in range(horizon + 1)]
            expected = (det_side + [zero] * horizon)[:horizon + 1]
            assert product == expected, (name, horizon)


def test_trivial_chain_is_the_alexander_walk_matrix_mod_q(corpus):
    # the scalar walk matrix is the twisted one at dim 1: B of the trivial
    # representation is W under alexander_spec() reduced mod TRIVIAL_FIELD
    q = twisted.TRIVIAL_FIELD
    for name, d in corpus.items():
        w = weight_matrix(build_arc_graph(d), alexander_spec())
        reduced = RingMatrix([[LaurentPoly(a.coeffs, q) for a in row] for row in w.entries],
                             q, cols=w.cols)
        assert twisted_chain(d, trivial_representation(tuple(d.arcs))).weights == reduced, name


def test_twisted_minors_match_gauss_jordan_mod_q(dihedral_chains, monkeypatch):
    # every quotient's numerator minor, evaluated entry by entry at points
    # of F_q^x, against the determinant from row_reduce, which shares no
    # code with the kernel
    minors = []
    monkeypatch.setattr(twisted, "det", lambda mat: minors.append(mat) or det(mat))
    for chain in dihedral_chains.values():
        for pos in range(len(chain.presentation.generators)):
            chain.quotient(pos)
    minors = [m for m in minors if m.rows > 2]
    assert sorted({m.rows for m in minors}) == [4, 6, 8, 10]

    def at(p, t0, q):
        return sum(c * pow(t0, e, q) for e, c in p.coeffs.items()) % q

    for m in minors:
        q, n, d = m.modulus, m.rows, det(m)
        for t0 in (2, 3, q - 1):
            rows = [[at(a, t0, q) for a in row] for row in m.entries]
            _, pivots, product = row_reduce(rows, n, q)
            assert at(d, t0, q) == (product if len(pivots) == n else 0), (m, t0)


CHAIN_PIECES = ("wirtinger_presentation", "verify_representation",
                "_twisted_element", "_weight_blocks", "build_arc_graph")


@pytest.fixture
def piece_calls(monkeypatch):
    """Name -> number of calls, for each of CHAIN_PIECES, wherever a
    knotzeta module holds it."""
    calls = dict.fromkeys(CHAIN_PIECES, 0)
    modules = [m for n, m in list(sys.modules.items()) if n.startswith("knotzeta")]
    for name in CHAIN_PIECES:
        original = getattr(twisted, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("name,p", [("figure8", 5), ("trefoil", 3)])
def test_dihedral_reports_build_each_piece_once(corpus, piece_calls, name, p):
    # the reports read every Fox block and every denominator; each Fox block
    # of a generator its relator names and each denominator is a twisted
    # image of a group ring element (the others are the chain's one zero
    # block), and the one run of _weight_blocks builds two blocks per
    # crossing; as many other images as blocks means one each
    pres = wirtinger_presentation(corpus[name])
    reports = cli._twisted_dihedral_reports(name, corpus[name], p)
    assert [r["status"] for r in reports] == ["pass"] * 5
    named = sum(len({g for g, _ in r}) for r in pres.relators)
    blocks = named + len(pres.generators)
    crossing_blocks = 2 * len(corpus[name].crossings)
    assert piece_calls == {**dict.fromkeys(CHAIN_PIECES, 1),
                           "_twisted_element": blocks + crossing_blocks}


def test_quotients_build_no_arc_graph(corpus, trefoil, trefoil_rep, piece_calls):
    for d in corpus.values():
        assert trivial_reduction_check(d).passed
    twisted_alexander_polynomial(trefoil, trefoil_rep)
    kink = parse_diagram("arcs 1\nX+ 1 1 1\n")
    with pytest.raises(DiagramError):
        build_arc_graph(kink)
    twisted_alexander_polynomial(kink, trivial_representation((1,)))
    assert piece_calls["build_arc_graph"] == piece_calls["_weight_blocks"] == 0


def test_twisted_query_builds_only_the_column_it_reads(monkeypatch, corpus, trefoil,
                                                       trefoil_rep, figure8, fig8_rep):
    # the Fox blocks of the first column's minor whose generator the
    # relator names (the rest are the chain's one zero block), then that
    # column's denominator (never zero: det(t rho(x) - I) has constant term
    # det(-I)); neither the rest of the Jacobian nor the arc graph
    built = []
    build = twisted._twisted_element
    monkeypatch.setattr(twisted, "_twisted_element",
                        lambda rep, elem: built.append(elem) or build(rep, elem))
    monkeypatch.setattr(twisted, "build_arc_graph", None)
    cases = [(trefoil, trefoil_rep), (figure8, fig8_rep)]
    cases += [(d, trivial_representation(tuple(d.arcs))) for d in corpus.values()]
    for d, rep in cases:
        built.clear()
        tw = twisted_alexander_polynomial(d, rep)
        pres = wirtinger_presentation(d)
        first = pres.generators[0]
        assert tw.column == first
        minor = [fox_derivative(r, g) for r in pres.relators[:-1] for g in pres.generators[1:]
                 if g in {x for x, _ in r}]
        assert built == minor + [{((first, 1),): 1, (): -1}]


@pytest.mark.parametrize("name,n", [("6_1", 1), ("figure8", 3)])
def test_fox_work_is_one_gradient_per_relator(monkeypatch, corpus, name, n):
    # the Fox minor (alexander_minor on the knot 6_1; on the closed 3-cable
    # of figure8, a 3-component link that alexander_minor refuses, the
    # alexander_matrix it reads) and two quotients of a chain (its dihedral
    # one on 6_1, the trivial one on the cable) walk each relator once,
    # through fox_gradient, and never take a derivative one generator at a time
    d = corpus[name] if n == 1 else close_tangle(cable(cut(corpus[name], [1]), n))
    walked, derivatives = [], []
    gradient, derivative = alexander.fox_gradient, alexander.fox_derivative
    for module in (alexander, twisted):
        monkeypatch.setattr(module, "fox_gradient",
                            lambda word: walked.append(word) or gradient(word))
    monkeypatch.setattr(alexander, "fox_derivative",
                        lambda word, gen: derivatives.append(word) or derivative(word, gen))
    pres = wirtinger_presentation(d)
    relators = list(pres.relators)
    if n == 1:
        alexander_minor(d)
    else:
        alexander_matrix(pres)
    assert walked == relators and not derivatives
    rep = dihedral_rep(d, 3, fox_colorings(d, 3).nonconstant()) if n == 1 \
        else trivial_representation(tuple(d.arcs))
    chain = twisted_chain(d, rep)
    walked.clear()
    chain.quotient(0)
    chain.quotient(len(d.arcs) - 1)
    assert walked == relators and not derivatives
    assert len(relators) == (6 if n == 1 else 36)


def test_numerator_minor_is_the_reduced_jacobian_minor(monkeypatch, corpus, trefoil,
                                                       trefoil_rep, figure8, fig8_rep):
    # quotient(pos) takes the determinant of its minor, then of its denominator
    seen = []
    monkeypatch.setattr(twisted, "det", lambda mat: seen.append(mat) or det(mat))
    cases = [(trefoil, trefoil_rep), (figure8, fig8_rep)]
    cases += [(d, trivial_representation(tuple(d.arcs))) for d in corpus.values()]
    for d, rep in cases:
        chain = twisted_chain(d, rep)
        pres = chain.presentation
        assert column_independence_check(chain).detail["columns"] == list(pres.generators)
        for pos in range(len(pres.generators)):
            seen.clear()
            chain.quotient(pos)
            if len(pres.relators) < 2:
                assert seen == [chain.denominator(pos)]
                continue
            reduced = Presentation(pres.generators, pres.relators[:-1])
            m = rep.dim
            expected = twisted_alexander_matrix(reduced, rep).delete(
                rows=(), cols=tuple(range(pos * m, (pos + 1) * m)))
            assert seen == [expected, chain.denominator(pos)], (d, pos)


def test_chain_refuses_nonrepresentation(trefoil):
    rep = Representation(5, {1: ((2,),), 2: ((1,),), 3: ((1,),)})
    with pytest.raises(DiagramError, match="images do not satisfy the crossing "
                                           "relations"):
        twisted_chain(trefoil, rep)


def test_twisted_json_is_canonical(trefoil, trefoil_rep):
    obj = twisted_alexander_polynomial(trefoil, trefoil_rep).to_json()
    assert set(obj) == {"numerator", "denominator", "column", "field", "dim"}
    assert obj["numerator"]["coeffs"] == {"0": 6, "2": 1}
    assert obj["field"] == 7


@pytest.mark.parametrize("text, square", [
    ("arcs 2\n", False),
    ("arcs 2\nX+ 1 1 1\n", True),
    ("arcs 4\nX+ 3 1 2 / X+ 1 2 3 / X+ 2 3 1\n", True),
    ("arcs 3\nX+ 3 1 2 / X- 3 2 1\n", True),
], ids=["unlink", "kink-and-circle", "trefoil-and-circle", "circle-over-an-unknot"])
def test_split_diagrams_have_numerator_zero(monkeypatch, text, square):
    # a circle arc has no relator, so every relator stays in the minor, as
    # in alexander._last_minor: its determinant vanishes, and where fewer
    # rows than columns remain (two circles, no relator) the numerator is 0
    d = parse_diagram(text)
    seen = []
    monkeypatch.setattr(twisted, "det", lambda mat: seen.append(mat) or det(mat))
    reps = [trivial_representation(tuple(d.arcs))]
    reps.append(dihedral_rep(d, 3, fox_colorings(d, 3).nonconstant()))
    for rep in reps:
        chain = twisted_chain(d, rep)
        relators = len(chain.presentation.relators)
        for pos in range(len(d.arcs)):
            seen.clear()
            assert chain.quotient(pos).numerator.is_zero(), (pos, rep.field)
            minors = [(m.rows, m.cols) for m in seen[:-1]]
            assert minors == ([(relators * rep.dim, relators * rep.dim)] if square else [])
