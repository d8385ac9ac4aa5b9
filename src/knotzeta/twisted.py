"""Twisted invariants: colorings, finite-field representations, block weights.

A representation of the diagram group into GL(m, F_q) refines the Alexander
machinery: every scalar weight becomes an m x m block carrying t^(exponent
sum) times the representation image of a short group word.  A TwistedChain
builds each block of one diagram under one representation once, on first
read, and everything else reads those blocks: Wada's determinant quotient,
and the checks of the three views of the untwisted case against each other
(the Fox blocks of the Wirtinger presentation, the blocks of the walk matrix
B read off crossing by crossing, and trace sums over prime cycles with
ordered block products).

Dihedral representations built from Fox p-colorings supply nontrivial test
cases; the trivial one-dimensional representation recovers the ordinary
Alexander polynomial divided by t - 1.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from functools import cached_property

from .alexander import alexander_minor, exponent_sum, fox_gradient
from .arc_graph import build_arc_graph
from .knot_model import DiagramError, wirtinger_presentation
from .laurent import LaurentPoly, RingMatrix, canonicalize, det, divide_exact, \
    linear_combination, row_reduce
from .verdict import Verdict
from .zeta import power_traces, prime_cycles


# -- primality, and small matrices mod q eliminated by laurent.row_reduce ---


# Miller-Rabin with these bases decides primality exactly below
# _MR_LIMIT (Sorenson and Webster 2015)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def _is_prime(n):
    """Deterministic Miller-Rabin; ValueError at or beyond _MR_LIMIT."""
    if n >= _MR_LIMIT:
        raise ValueError(f"{n} is too large to certify prime (limit {_MR_LIMIT})")
    if n < 2 or any(n % b == 0 for b in _MR_BASES):
        return n in _MR_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    d = (n - 1) >> s
    return all(pow(b, d, n) == 1 or any(pow(b, d << r, n) == n - 1 for r in range(s))
               for b in _MR_BASES)


def _integer(x, what):
    """x itself when it is an int; bools and everything else are refused."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"{what} must be an integer, got {x!r}")
    return x


def _mat_mul(a, b, q):
    m = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(m)) % q
                       for j in range(m)) for i in range(m))


def _mat_identity(m):
    return tuple(tuple(1 if i == j else 0 for j in range(m)) for i in range(m))


def _mat_inverse(a, q):
    """Inverse mod q, or None when singular."""
    m = len(a)
    work, pivots, _ = row_reduce(
        [list(row) + list(ident) for row, ident in zip(a, _mat_identity(m))], m, q)
    if len(pivots) < m:
        return None
    return tuple(tuple(row[m:]) for row in work)


# -- representations ----------------------------------------------------------


class Representation:
    """Generator images in GL(dim, F_field), one per arc of a diagram.

    Only the free-group data lives here; whether the images satisfy the
    crossing relations is a separate question answered by
    verify_representation.  Two representations with the same field and
    images are equal.
    """

    __slots__ = ("field", "dim", "images", "_inverses")

    def __init__(self, field, images):
        if not _is_prime(_integer(field, "field order")):
            raise ValueError(f"field order {field} is not prime")
        if not images:
            raise ValueError("a representation needs at least one generator image")
        cleaned = {}
        for gen, mat in images.items():
            rows = tuple(tuple(_integer(x, f"an entry of image {gen}") % field
                               for x in row) for row in mat)
            if not rows:
                raise ValueError(f"image of generator {gen} is empty")
            if any(len(row) != len(rows) for row in rows):
                raise ValueError(f"image of generator {gen} is not square")
            cleaned[gen] = rows
        dims = {len(rows) for rows in cleaned.values()}
        if len(dims) != 1:
            raise ValueError("generator images must share one dimension")
        inverses = {}
        for gen, mat in cleaned.items():
            inv = _mat_inverse(mat, field)
            if inv is None:
                raise ValueError(f"image of generator {gen} is singular mod {field}")
            inverses[gen] = inv
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "dim", dims.pop())
        object.__setattr__(self, "images", cleaned)
        object.__setattr__(self, "_inverses", inverses)

    def __setattr__(self, *a):
        raise AttributeError("Representation is immutable")

    def __reduce__(self):
        """Copy and pickle rebuild through the constructor."""
        return Representation, (self.field, self.images)

    def __eq__(self, other):
        if not isinstance(other, Representation):
            return NotImplemented
        return self.field == other.field and self.images == other.images

    def __hash__(self):
        return hash((self.field, frozenset(self.images.items())))

    def word_image(self, word):
        out = _mat_identity(self.dim)
        for g, e in word:
            if g not in self.images:
                raise KeyError(f"no image for generator {g}")
            mat = self.images[g] if e > 0 else self._inverses[g]
            for _ in range(abs(e)):
                out = _mat_mul(out, mat, self.field)
        return out


# field of the trivial representation
TRIVIAL_FIELD = 101


def trivial_representation(generators):
    """Every generator maps to 1 in F_TRIVIAL_FIELD; twisting by it changes nothing."""
    return Representation(TRIVIAL_FIELD, {g: ((1,),) for g in generators})


def verify_representation(presentation, rep):
    """Every relator must map to the identity matrix."""
    missing = [g for g in presentation.generators if g not in rep.images]
    ident = _mat_identity(rep.dim)
    failures = [] if missing else [idx for idx, r in enumerate(presentation.relators)
                                   if rep.word_image(r) != ident]
    return Verdict("representation", not (missing or failures),
                   {"missing_generators": missing, "failed_relators": failures})


# -- Fox colorings and dihedral representations -------------------------------


class ColoringSpace(namedtuple("ColoringSpace", "prime arcs basis")):
    """All arc colorings mod p satisfying twice-over = in + out at each
    crossing, as an immutable tuple of the prime, the arc count and a basis."""

    __slots__ = ()

    @property
    def dim(self):
        return len(self.basis)

    def vectors(self):
        """Every coloring, as span combinations of the basis in a fixed order."""
        p = self.prime
        for coeffs in itertools.product(range(p), repeat=self.dim):
            vec = [0] * self.arcs
            for c, b in zip(coeffs, self.basis):
                for i, x in enumerate(b):
                    vec[i] = (vec[i] + c * x) % p
            yield tuple(vec)

    def nonconstant(self):
        """Some coloring using at least two colors, or None.  The constants
        span one dimension, so if one exists, a basis vector is one."""
        return next((b for b in self.basis if len(set(b)) > 1), None)


def fox_colorings(diagram, p):
    """The space of arc colorings mod an odd prime p.

    Each crossing demands  color(under_in) + color(under_out) equal twice
    color(over) mod p.  Constants always color, so the dimension is at least
    1; anything larger detects p-torsion in the knot's homology.
    """
    if not _is_prime(p) or p == 2:
        raise ValueError(f"{p} is not an odd prime")
    n = diagram.n_arcs
    rows = []
    for c in diagram.crossings:
        row = [0] * n
        for arc, v in ((c.under_in, 1), (c.under_out, 1), (c.over, -2)):
            row[arc - 1] = (row[arc - 1] + v) % p
        rows.append(row)
    basis = _nullspace_mod(rows, n, p)
    return ColoringSpace(p, n, tuple(basis))


def _nullspace_mod(rows, n_cols, p):
    mat, pivots, _ = row_reduce(rows, n_cols, p)
    basis = []
    for free in range(n_cols):
        if free in pivots:
            continue
        v = [0] * n_cols
        v[free] = 1
        for i, c in enumerate(pivots):
            v[c] = (-mat[i][free]) % p
        basis.append(tuple(v))
    return basis


def _least_prime_one_mod(p):
    q = p + 1
    while not _is_prime(q):
        q += p
    return q


def _primitive_root(q):
    factors = []
    n = q - 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            factors.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        factors.append(n)
    for g in range(2, q):
        if all(pow(g, (q - 1) // f, q) != 1 for f in factors):
            return g
    raise ValueError(f"{q} has no primitive root; not prime?")


def dihedral_field(p):
    """(q, w): the least prime q = 1 mod p, and an element w of order p in F_q,
    taken as the least primitive root raised to (q-1)/p."""
    q = _least_prime_one_mod(p)
    w = pow(_primitive_root(q), (q - 1) // p, q)
    return q, w


def dihedral_rep(diagram, p, coloring):
    """The dihedral representation attached to a nonconstant p-coloring.

    Arc a with color c maps to the 2x2 matrix ((0, w^c), (w^-c, 0)) over the
    field F_q from dihedral_field(p): an involution, a reflection of the
    dihedral group of order 2p pushed into GL(2, F_q).
    """
    if not _is_prime(p) or p == 2:
        raise ValueError(f"{p} is not an odd prime")
    coloring = tuple(int(c) % p for c in coloring)
    if len(coloring) != diagram.n_arcs:
        raise ValueError(f"coloring has {len(coloring)} entries for {diagram.n_arcs} arcs")
    for c in diagram.crossings:
        lhs = (coloring[c.under_in - 1] + coloring[c.under_out - 1]) % p
        if lhs != (2 * coloring[c.over - 1]) % p:
            raise ValueError(f"not a valid coloring at the crossing over arc {c.over}")
    if len(set(coloring)) == 1:
        raise ValueError("constant coloring gives an abelian representation; refusing")
    q, w = dihedral_field(p)
    return Representation(q, {a: ((0, pow(w, c, q)), (pow(w, (p - c) % p, q), 0))
                              for a, c in zip(diagram.arcs, coloring)})


# -- the twisted chain: Fox blocks with matrix coefficients -------------------


def _twisted_element(rep, elem):
    """Image of a group ring element over F_q[t, 1/t], as one block: each
    word adds coeff * rho(word)[i][j] t^(exponent sum).  Every twisted block
    is built here."""
    m = rep.dim
    sums = [[{} for _ in range(m)] for _ in range(m)]
    for word, coeff in elem.items():
        k = exponent_sum(word)
        for row, image_row in zip(sums, rep.word_image(word)):
            for d, x in zip(row, image_row):
                d[k] = d.get(k, 0) + coeff * x
    return RingMatrix._of([{j: p for j, d in enumerate(row) if (p := LaurentPoly(d, rep.field))}
                           for row in sums], rep.field, m)


def twisted_alexander_matrix(presentation, rep):
    """Fox Jacobian with each derivative pushed through the representation.

    One m x m block per (relator, generator) pair, flattened to a plain
    matrix of size (#relators * m) x (#generators * m); the reference for
    the blocks that TwistedChain builds one at a time.
    """
    if not presentation.relators:
        raise DiagramError("presentation has no relators")
    return RingMatrix.from_blocks([[_twisted_element(rep, grad.get(g, {}))
                                    for g in presentation.generators]
                                   for grad in map(fox_gradient, presentation.relators)])


class TwistedChain(namedtuple("TwistedChain", "diagram rep presentation verdict")):
    """One diagram twisted by one representation, each piece built once.

    An immutable tuple of the diagram, the representation, the Wirtinger
    presentation and `verdict`, which says that every relator maps to the
    identity.  The other pieces are built on first read and kept in the
    instance dict, which cached_property writes directly: the twisted Fox
    block of each (relator, generator) pair, from one Fox gradient per
    relator (the generators a relator lacks share one zero block), the
    blocks t rho(x_k) - I, the arc graph, and B as a grid of blocks,
    flattened on first read.  A quotient reads only its minor's Fox blocks
    and its own denominator, so it never builds the arc graph.  Every other
    attribute assignment raises.
    """

    def __setattr__(self, *a):
        raise AttributeError("TwistedChain is immutable")

    @cached_property
    def _images(self):
        """Fox blocks keyed by (relator, generator) position, denominators
        by generator position."""
        return {}

    def _image(self, key, element):
        """The twisted image of the group ring element element(), built on
        the first read of key."""
        if key not in self._images:
            self._images[key] = _twisted_element(self.rep, element())
        return self._images[key]

    @cached_property
    def gradients(self):
        """The Fox gradient of each relator, by relator position."""
        return tuple(map(fox_gradient, self.presentation.relators))

    @cached_property
    def zero_block(self):
        """The m x m zero block: every absent Fox block, and the row
        check's empty sum."""
        return RingMatrix.zeros(self.rep.dim, self.rep.dim, self.rep.field)

    def fox_block(self, r, k):
        """The twisted Fox derivative of relator r by generator k, both
        given by position; the one zero block where relator r lacks k."""
        grad, gen = self.gradients[r], self.presentation.generators[k]
        if gen not in grad:
            return self.zero_block
        return self._image((r, k), lambda: grad[gen])

    def denominator(self, k):
        """t rho(x_k) - I, the image of x_k - 1, for generator position k."""
        gen = self.presentation.generators[k]
        return self._image(k, lambda: {((gen, 1),): 1, (): -1})

    @cached_property
    def graph(self):
        return build_arc_graph(self.diagram)

    @cached_property
    def weight_blocks(self):
        """B as a grid of m x m blocks, in the arc graph's vertex order."""
        return _weight_blocks(self.graph, self.diagram.crossings, self.rep)

    @cached_property
    def weights(self):
        """B, the block weight matrix on the arc graph, flattened."""
        return RingMatrix.from_blocks(self.weight_blocks)

    def quotient(self, pos):
        """Wada's determinant quotient at generator position pos.

        The numerator is the determinant of the Fox blocks of the relators
        against every generator but pos, less the last relator when there
        are as many relators as generators, as in alexander._last_minor (1
        with no relator left).  A circle arc has no relator; with two or
        more, fewer block rows than columns remain and the numerator is 0,
        as the invariant of a split link is.  The denominator
        det(t rho(x_pos) - I) has constant term det(-I) = +-1, so every
        generator position gives a quotient.
        """
        pres = self.presentation
        n = len(pres.generators)
        cols = [k for k in range(n) if k != pos]
        rows = range(len(pres.relators) - (len(pres.relators) == n))
        if len(rows) < len(cols):
            num = LaurentPoly.zero(self.rep.field)
        elif rows:
            num = det(RingMatrix.from_blocks([[self.fox_block(r, k) for k in cols] for r in rows]))
        else:
            num = LaurentPoly.one(self.rep.field)
        return divide_exact(num, det(self.denominator(pos)))


def twisted_chain(diagram, rep):
    """The TwistedChain of (diagram, rep); DiagramError unless the images
    satisfy every crossing relation."""
    pres = wirtinger_presentation(diagram)
    check = verify_representation(pres, rep)
    if not check.passed:
        raise DiagramError(f"images do not satisfy the crossing relations: {check.detail}")
    return TwistedChain(diagram, rep, pres, check)


class TwistedPolynomial(namedtuple("TwistedPolynomial", "fraction column field dim")):
    """A twisted Alexander polynomial as a reduced fraction over F_q[t, 1/t],
    with the generator of its column, the field order and the dimension of
    the representation, as an immutable tuple of the four.

    Both parts are defined only up to units (+-t^s and field scalars); the
    canonical forms in to_json pin one choice.
    """

    __slots__ = ()

    def to_json(self):
        return {
            "numerator": canonicalize(self.fraction.numerator).to_json(),
            "denominator": canonicalize(self.fraction.denominator).to_json(),
            "column": self.column,
            "field": self.field,
            "dim": self.dim,
        }

    def __str__(self):
        return f"({self.fraction.numerator}) / ({self.fraction.denominator})"


def twisted_alexander_polynomial(diagram, rep):
    """Wada's determinant quotient at the first generator; up to units,
    every generator gives the same quotient.

    Only what that quotient reads is built: its minor's Fox blocks and one
    denominator.
    """
    chain = twisted_chain(diagram, rep)
    return TwistedPolynomial(chain.quotient(0), chain.presentation.generators[0],
                             rep.field, rep.dim)


# -- block weight matrix and its consistency checks ---------------------------


def _crossing_blocks(rep, crossing):
    """The two outgoing blocks of the under-in arc at one crossing.

    Keyed so that I - B reproduces the twisted Fox row of the crossing's
    relator; the under edge carries the full conjugate image, the jump edge
    the difference that a Fox derivative of the over generator produces.
    """
    i, j, k = crossing.under_in, crossing.over, crossing.under_out
    if crossing.sign > 0:
        under = ((i, 1), (j, 1), (k, -1))
        jump = {under + ((j, -1),): 1, ((i, 1),): -1}
    else:
        under = ((i, 1), (j, -1), (k, -1))
        jump = {((i, 1), (j, -1)): 1, under: -1}
    return _twisted_element(rep, {under: 1}), _twisted_element(rep, jump)


def _weight_blocks(graph, crossings, rep):
    """B on the arc graph of the crossings as a grid of m x m blocks, in vertex order.

    Block row a holds the two blocks of the crossing under which arc a ends,
    at the block columns of the under-out and over arcs; every other block
    is zero.  Arcs of crossing-free components contribute zero rows.
    """
    n, index = len(graph.vertices), graph.index
    zero = RingMatrix.zeros(rep.dim, rep.dim, rep.field)
    grid = [[zero] * n for _ in range(n)]
    for c in crossings:
        # the arc graph has one edge per ordered pair: no cell is set twice
        under, jump = _crossing_blocks(rep, c)
        row = grid[index[c.under_in]]
        row[index[c.under_out]] = under
        row[index[c.over]] = jump
    return tuple(map(tuple, grid))


def twisted_weight_graph(diagram, rep):
    """The block weight matrix B on a diagram's arc graph, flattened from its blocks.

    Setting t = 1 and the representation trivial recovers the plain walk
    matrix.
    """
    return RingMatrix.from_blocks(
        _weight_blocks(build_arc_graph(diagram), diagram.crossings, rep))


def twisted_block_identity_check(chain):
    """I - B agrees block row by block row with the twisted Fox Jacobian.

    Compared on the shared rows, block by block: each crossing's relator row
    against the block row of its under-in arc.  This ties the graph-side and
    group-side constructions together exactly.
    """
    ident = RingMatrix.identity(chain.rep.dim, chain.rep.field)
    mismatches = []
    index = chain.graph.index
    for ridx, c in enumerate(chain.diagram.crossings):
        row = chain.weight_blocks[index[c.under_in]]
        for gpos, gen in enumerate(chain.presentation.generators):
            left = chain.fox_block(ridx, gpos)
            right = ident - row[index[gen]] if gen == c.under_in else -row[index[gen]]
            if left != right:
                mismatches.append({"relator": ridx, "generator": gen,
                                   "jacobian": repr(left), "graph": repr(right)})
    return Verdict("twisted_block_identity", not mismatches,
                   {"mismatches": mismatches})


def twisted_row_identity_check(chain):
    """The fundamental Fox identity, twisted: rows annihilate the column
    vector of images minus identities.

    For each relator r: sum over generators k of (dr/dx_k under the twist)
    times (the image of x_k - 1) equals the image of r - 1 = 0 exactly.  The
    sum runs over the generators that r's gradient holds, since every other
    Fox block is zero.
    """
    pres = chain.presentation
    zero = chain.zero_block
    position = {g: k for k, g in enumerate(pres.generators)}
    failures = []
    for r, grad in enumerate(chain.gradients):
        total = sum((chain.fox_block(r, position[g]) @ chain.denominator(position[g])
                     for g in grad), zero)
        if total != zero:
            failures.append({"relator": r, "value": repr(total)})
    return Verdict("twisted_row_identity", not failures,
                   {"relators": len(pres.relators), "failures": failures})


# the longest closed walk of twisted_trace_check
TRACE_POWER = 6


def twisted_trace_check(chain):
    """tr(B^m) equals the sum of |p| tr(B(p)^j) over the primes p and the
    j with j |p| = m, B(p) the product of the blocks around p in walk order.

    The |p| rotations of p^j are the based closed walks of its class, and
    their block products, cyclic rotations of B(p)^j, share its trace.  No
    division is involved, so this holds over F_q at every m; the scalar
    trace identity is its dim = 1 case.

    Each B(p) is built on the product of its longest walk prefix built
    before (the primes come sorted by vertex sequence, so neighbours share
    prefixes).  The last power of B(p) that the horizon reaches is not
    formed: its trace is read from the power before it and B(p).  The other
    powers give their diagonal entries as terms, so that each m's sum is
    normalized once.  tr(B^m) comes from power_traces, which forms B^m only
    up to m = ceil(TRACE_POWER / 2).
    """
    grid, index = chain.weight_blocks, chain.graph.index
    # the block product of every walk prefix built so far, by its edges
    products = {}
    prime_terms = [[] for _ in range(TRACE_POWER + 1)]
    for p in prime_cycles(chain.graph, TRACE_POWER):
        block = None
        for i, e in enumerate(p, 1):
            if p[:i] not in products:
                step = grid[index[e.src]][index[e.dst]]
                products[p[:i]] = step if block is None else block @ step
            block = products[p[:i]]
        power = None
        for m in range(len(p), TRACE_POWER + 1, len(p)):
            if power is not None and m + len(p) > TRACE_POWER:
                # the last power is read only for its trace
                prime_terms[m].append((len(p), power.product_trace(block)))
            else:
                power = block if power is None else power @ block
                prime_terms[m] += ((len(p), row[i]) for i, row in enumerate(power.row_maps)
                                   if i in row)
    failures = []
    for m, tr in enumerate(power_traces(chain.weights, TRACE_POWER), 1):
        prime_sum = linear_combination(prime_terms[m], chain.rep.field)
        if tr != prime_sum:
            failures.append({"m": m, "trace": str(tr), "walks": str(prime_sum)})
    return Verdict("twisted_trace", not failures,
                   {"max_power": TRACE_POWER, "failures": failures})


# -- cross-checks against the untwisted theory --------------------------------


def trivial_reduction_check(diagram):
    """Twisting by the trivial representation divides the Alexander
    polynomial by t - 1, as reduced fractions over F_TRIVIAL_FIELD.

    Compared by cross-multiplying canonical forms, which removes the unit
    ambiguity on both sides.
    """
    rep = trivial_representation(tuple(diagram.arcs))
    tw = twisted_alexander_polynomial(diagram, rep)
    # the minor is integral, and det commutes with reduction mod q
    plain = LaurentPoly(alexander_minor(diagram).coeffs, TRIVIAL_FIELD)
    t_minus_1 = LaurentPoly({1: 1, 0: -1}, TRIVIAL_FIELD)
    lhs = canonicalize(tw.fraction.numerator * t_minus_1).poly
    rhs = canonicalize(plain * tw.fraction.denominator).poly
    return Verdict("trivial_reduction", lhs == rhs,
                   {"twisted": str(tw), "plain": str(plain),
                    "cross_lhs": str(lhs), "cross_rhs": str(rhs)})


def column_independence_check(chain):
    """The determinant quotient is the same rational function at every
    generator, up to units.

    Checked by cross-multiplying numerators and denominators pairwise and
    comparing canonical forms.
    """
    gens = chain.presentation.generators
    quotients = [chain.quotient(pos) for pos in range(len(gens))]
    failures = []
    for (k1, f1), (k2, f2) in itertools.combinations(zip(gens, quotients), 2):
        left = canonicalize(f1.numerator * f2.denominator).poly
        right = canonicalize(f2.numerator * f1.denominator).poly
        if left != right:
            failures.append({"columns": [k1, k2], "left": str(left), "right": str(right)})
    return Verdict("column_independence", not failures,
                   {"columns": list(gens), "failures": failures})
