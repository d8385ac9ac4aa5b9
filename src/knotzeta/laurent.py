"""Exact Laurent polynomial arithmetic over the rationals and over prime fields.

A Laurent polynomial is stored sparsely as a map from integer exponents to
nonzero coefficients.  In characteristic zero a coefficient has one normal
form: an `int` when it is an integer, else a `fractions.Fraction` with
denominator above 1.  With a prime modulus q attached, coefficients are plain
ints in [1, q).  Both cases share one interface; mixing moduli raises.  One
routine (_normalized) puts a coefficient dict in that normal form, for the
public constructor, which checks the types of outside input first, and for
arithmetic results, which need no check.  One loop (_convolve) adds the
products of two coefficient dicts into a third, under polynomial products,
matrix products and product traces.  Sums, differences and negations are
linear combinations, and shifts and scalings products by one term.

A matrix over this ring keeps one map per row, {column: entry}, of its
nonzero entries only: I - W, the Laplacian minors and the abelianized Fox
matrix have at most three per row, so builders write, and products, copies
and determinants read, O(n) entries, not n x n.  A dense view of the rows
is built only for callers that index densely.

Matrices over this ring have exact determinants by one path for every size
and both domains.  Rows and columns with a single nonzero entry, read off the
keys of the row maps, are peeled off first, by Laplace expansion along them,
until none is left; the walk matrices of cut strands have many (a source arc
has no in-edges, a sink arc no out-edges).  What remains goes to one
fraction-free (Bareiss) kernel over Z[t], its columns sparsest first: by their
count of nonzero entries, ties in index order (the column-count preorder that
sparse LU codes apply before elimination), so the early steps eliminate short
columns and cause little fill.  The kernel works on lists of int
coefficients, after each row is cleared of negative powers of t and of
denominators; an F_q determinant is the reduced integer determinant of the
residues.  The kernel,
too, keeps each row as a map of its nonzero entries, which its callers build
from the matrix's row maps, so every step touches only those.  Each step
pivots on the row with the fewest entries among those that reach the pivot
column, and changes only the entries that elimination changes: those of a row
that reaches the pivot column in the pivot row's columns.  Every other entry
would only gain the step's factor p_k / p_(k-1), so it is left as it is; the
factors telescope, and one exact division brings an entry up to date when it
is next read.  Each entry update (_bareiss_entry) pays only for nonzero
coefficients: its operands other than the entry it updates come as (position,
coefficient) pairs of their nonzero coefficients, prepared once per step or
per row, a one-term pivot c * t^d divides in one pass, and long division
skips zero quotient terms.  The kernel also takes a bordered matrix, n rows
of n + 1 entries, and returns both minors that share its first n - 1 columns:
column_replaced_dets gets the pair det(A), det(A with one column replaced) of
Cramer's rule from one elimination, in index order.  Cofactor expansion, and
Gauss-Jordan elimination after evaluation at points, are the kernel's
independent oracles; the kernel unpeeled and in index order is the oracle of
the peel and of the column order, and two calls of det are
column_replaced_dets'.

Matrices of plain rationals or residues mod q have one Gauss-Jordan
elimination, row_reduce, which serves determinants and solves over Q and
inverses and null spaces over F_q.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from fractions import Fraction


class CoefficientError(ValueError):
    """Raised for incompatible or malformed coefficient domains."""


def _same_domain(a, b):
    """Refuse the moduli a and b of two coefficient domains unless they are
    equal (None is Q)."""
    if a != b:
        raise CoefficientError(f"mixed coefficient domains: {a!r} vs {b!r}")


def _coerce(c, modulus):
    """c itself if it is a coefficient of the domain, an int or a Fraction
    over Q or an int mod q, unreduced; else CoefficientError."""
    if modulus is None:
        if not isinstance(c, (int, Fraction)):
            raise CoefficientError(f"rational coefficient expected, got {type(c).__name__}")
    elif not isinstance(c, int):
        raise CoefficientError(f"integer coefficient expected mod {modulus}, got {type(c).__name__}")
    return c


def _normalized(c, modulus):
    """The coefficient dict c, of ints or Fractions of the domain, in normal
    form: zeros dropped, integral Fractions turned into ints, residues
    reduced mod q, exponents sorted."""
    if modulus is None:
        return {e: v if type(v) is int or v.denominator != 1 else v.numerator
                for e, v in sorted(c.items()) if v}
    return {e: r for e, v in sorted(c.items()) if (r := v % modulus)}


def _normal_form(c, modulus):
    """A LaurentPoly from an unchecked coefficient dict that arithmetic built."""
    return _of_sorted(_normalized(c, modulus), modulus)


def _convolve(acc, a, b):
    """Add the product of the coefficient dicts a and b into the dict acc."""
    for e1, v1 in a.items():
        for e2, v2 in b.items():
            e = e1 + e2
            acc[e] = acc.get(e, 0) + v1 * v2


def linear_combination(terms, modulus):
    """sum(c * p for c, p in terms) in the domain of the given modulus: every
    term's coefficients go into one dict, which is normalized once, where a
    running sum would normalize once per term.  Raises CoefficientError for
    a term p of another domain."""
    acc = {}
    for c, p in terms:
        _same_domain(modulus, p.modulus)
        c = _coerce(c, modulus)
        for e, v in p._c.items():
            acc[e] = acc.get(e, 0) + v * c
    return _normal_form(acc, modulus)


def _of_sorted(c, modulus):
    """A LaurentPoly from a dict already in normal form, exponents sorted."""
    p = object.__new__(LaurentPoly)
    object.__setattr__(p, "_c", c)
    object.__setattr__(p, "modulus", modulus)
    return p


# one shared key string per exponent (as `json`'s decoder memoizes object keys),
# so that outputs kept by a caller do not each hold their own copies
_JSON_KEYS = {}


@functools.cache
def _shared(c, modulus):
    """The constant c as one LaurentPoly per (c, modulus), shared by all callers."""
    return LaurentPoly({0: c}, modulus)


class LaurentPoly:
    """A Laurent polynomial sum(c_e * t^e) with exact coefficients.

    Instances are immutable; arithmetic returns new objects.  `modulus` is
    None for rational coefficients or a prime q for coefficients in F_q.
    A rational coefficient is stored as an int when integral and as a
    Fraction otherwise, so equal polynomials store equal, equally typed
    coefficients.
    """

    __slots__ = ("_c", "modulus")

    def __init__(self, coeffs=None, modulus=None):
        c = {}
        if coeffs:
            for e, v in coeffs.items():
                if type(e) is not int:
                    raise CoefficientError(f"integer exponent expected, got {type(e).__name__}")
                c[e] = _coerce(v, modulus)
            c = _normalized(c, modulus)
        object.__setattr__(self, "_c", c)
        object.__setattr__(self, "modulus", modulus)

    def __setattr__(self, *a):
        raise AttributeError("LaurentPoly is immutable")

    def __reduce__(self):
        """Copy and pickle rebuild through the constructor."""
        return LaurentPoly, (self._c, self.modulus)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, modulus=None):
        """0, one shared instance per modulus."""
        return _shared(0, modulus)

    @classmethod
    def one(cls, modulus=None):
        """1, one shared instance per modulus."""
        return _shared(1, modulus)

    # -- inspection --------------------------------------------------------

    @property
    def coeffs(self):
        return dict(self._c)

    def is_zero(self):
        return not self._c

    def is_one(self):
        return self._c == {0: 1}

    def min_exp(self):
        if not self._c:
            raise ValueError("zero polynomial has no exponents")
        return min(self._c)

    def max_exp(self):
        if not self._c:
            raise ValueError("zero polynomial has no exponents")
        return max(self._c)

    def leading(self):
        """Coefficient of the highest power of t."""
        return self._c[self.max_exp()]

    # -- arithmetic --------------------------------------------------------

    def _lift(self, other):
        if type(other) is LaurentPoly or isinstance(other, LaurentPoly):
            _same_domain(self.modulus, other.modulus)
            return other
        if isinstance(other, (int, Fraction)):
            return LaurentPoly({0: other}, self.modulus)
        return None

    def __add__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return linear_combination(((1, self), (1, other)), self.modulus)

    __radd__ = __add__

    def __neg__(self):
        return linear_combination(((-1, self),), self.modulus)

    def __sub__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return linear_combination(((1, self), (-1, other)), self.modulus)

    def __rsub__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        """The product; by a one-term operand c*t^k, one pass in order that
        shifts the other's exponents by k and scales them by c."""
        other = self._lift(other)
        if other is None:
            return NotImplemented
        term, rest = (self._c, other._c) if len(self._c) == 1 else (other._c, self._c)
        if len(term) == 1:
            ((k, c),) = term.items()
            q = self.modulus
            if q is None:
                terms = ((e + k, v * c) for e, v in rest.items())
                return _of_sorted({e: v if type(v) is int or v.denominator != 1 else v.numerator
                                   for e, v in terms}, q)
            return _of_sorted({e + k: r for e, v in rest.items() if (r := v * c % q)}, q)
        c = {}
        _convolve(c, self._c, other._c)
        return _normal_form(c, self.modulus)

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out = LaurentPoly.one(self.modulus)
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def shift(self, k):
        """Multiply by t^k."""
        return self * LaurentPoly({k: 1}, self.modulus)

    def scale(self, c):
        return self * LaurentPoly({0: c}, self.modulus)

    def substitute_power(self, n):
        """The polynomial with t replaced by t^n (n a nonzero integer)."""
        if n == 0:
            raise ValueError("substitution power must be nonzero")
        return _normal_form({e * n: v for e, v in self._c.items()}, self.modulus)

    def evaluate(self, t0):
        """Exact value at a rational point t0 (nonzero if negative powers occur).

        One Horner pass on ints: with c_e = n_e / m and t0 = a/b, the value
        is sum(n_e a^(e - lo) b^(hi - e)) / (m b^(hi - lo)) * t0^lo, for the
        lowest and highest exponents lo and hi, built as one Fraction of ints.
        """
        if self.modulus is not None:
            raise CoefficientError("evaluation at a rational point needs rational coefficients")
        t0 = Fraction(t0)
        if not self._c:
            return Fraction(0)
        lo, hi = self.min_exp(), self.max_exp()
        if t0 == 0 and lo < 0:
            raise ZeroDivisionError("evaluation at 0 with negative exponents present")
        a, b = t0.numerator, t0.denominator
        m = math.lcm(*(v.denominator for v in self._c.values()))
        acc, b_power = 0, 1
        for e in range(hi, lo - 1, -1):
            acc *= a
            v = self._c.get(e)
            if v:
                acc += v.numerator * (m // v.denominator) * b_power
            b_power *= b
        den = m * b ** (hi - lo)
        if lo >= 0:
            return Fraction(acc * a ** lo, den * b ** lo)
        return Fraction(acc * b ** -lo, den * a ** -lo)

    # -- comparison, hashing, display --------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly({0: other}, self.modulus)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.modulus == other.modulus and self._c == other._c

    def __hash__(self):
        return hash((self.modulus, tuple(self._c.items())))

    def __bool__(self):
        return bool(self._c)

    def __repr__(self):
        return f"LaurentPoly({self})"

    def __str__(self):
        if not self._c:
            return "0"
        parts = []
        for e in sorted(self._c, reverse=True):
            v = self._c[e]
            if e == 0:
                term = str(v)
            else:
                tp = "t" if e == 1 else f"t^{e}"
                if v == 1:
                    term = tp
                elif v == -1:
                    term = f"-{tp}"
                else:
                    term = f"{v}*{tp}"
            parts.append(term)
        s = parts[0]
        for term in parts[1:]:
            s += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
        return s

    def to_json(self):
        """JSON mapping of exponent to coefficient (ints plain, else 'a/b')."""
        out = {}
        for e, v in self._c.items():
            key = _JSON_KEYS.setdefault(e, str(e))
            if self.modulus is None and v.denominator != 1:
                out[key] = f"{v.numerator}/{v.denominator}"
            else:
                out[key] = int(v)
        return out


def _inv_scalar(c, modulus):
    if modulus is None:
        return Fraction(1) / c
    return pow(c, modulus - 2, modulus)


# -- canonical form ---------------------------------------------------------


class CanonicalPoly(namedtuple("CanonicalPoly", "poly unit_coeff unit_exp")):
    """A Laurent polynomial split as unit_coeff * t^unit_exp * poly, as an
    immutable tuple of the three.

    `poly` has minimum exponent 0 and positive leading rational coefficient
    (monic over a prime field).  The unit factor is what was divided out, so
    associate polynomials share the same `poly`.
    """

    __slots__ = ()

    def unit_str(self):
        if self.poly.modulus is None:
            s = 0 if self.unit_coeff > 0 else 1
            return f"(-1)^{s} t^{self.unit_exp}"
        return f"{self.unit_coeff} t^{self.unit_exp}"

    def to_json(self):
        return {"coeffs": self.poly.to_json(), "unit": self.unit_str()}


def canonicalize(p):
    """Canonical associate of p under multiplication by units c*t^k.

    Over the rationals only the sign and the power of t are normalized, so
    integer content is preserved; over F_q the result is monic.  Zero maps
    to zero with unit 1.
    """
    if p.is_zero():
        return CanonicalPoly(p, 1, 0)
    shift = p.min_exp()
    q = p.shift(-shift)
    if p.modulus is None:
        if q.leading() < 0:
            return CanonicalPoly(-q, Fraction(-1), shift)
        return CanonicalPoly(q, Fraction(1), shift)
    lead = q.leading()
    return CanonicalPoly(q.scale(_inv_scalar(lead, p.modulus)), lead, shift)


# -- division and gcd -------------------------------------------------------


def poly_divmod(a, b):
    """Euclidean division in R[t] for operands with nonnegative exponents."""
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    assert a.is_zero() or a.min_exp() >= 0
    assert b.min_exp() >= 0
    modulus = a.modulus
    inv_lead = _inv_scalar(b.leading(), modulus)
    db = b.max_exp()
    q = LaurentPoly.zero(modulus)
    r = a
    while not r.is_zero() and r.max_exp() >= db:
        mono = LaurentPoly({r.max_exp() - db: r.leading() * inv_lead}, modulus)
        q = q + mono
        r = r - mono * b
    return q, r


def div_exact(a, b):
    """a / b when b divides a in the Laurent ring, else None."""
    if b.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if a.is_zero():
        return a
    sa, sb = a.min_exp(), b.min_exp()
    q, r = poly_divmod(a.shift(-sa), b.shift(-sb))
    if not r.is_zero():
        return None
    return q.shift(sa - sb)


def poly_gcd(a, b):
    """Monic (positive-leading over Q) gcd in R[t], as a min-exponent-0 poly,
    by Euclid on canonical associates: units change no associate class."""
    a, b = canonicalize(a).poly, canonicalize(b).poly
    while not b.is_zero():
        a, b = b, canonicalize(poly_divmod(a, b)[1]).poly
    if a.is_zero():
        return a
    return a.scale(_inv_scalar(a.leading(), a.modulus))


class PolyFraction(namedtuple("PolyFraction", "numerator denominator")):
    """A reduced ratio of Laurent polynomials, as an immutable tuple of
    numerator and denominator.

    The denominator is canonical (min exponent 0, positive leading or monic)
    and coprime to the numerator; a denominator of 1 means the quotient is an
    honest polynomial.
    """

    __slots__ = ()

    @property
    def is_polynomial(self):
        return self.denominator.is_one()


def divide_exact(num, den):
    """Reduce num/den: exact quotient when den | num, else a gcd-reduced fraction."""
    if den.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if num.is_zero():
        return PolyFraction(num, LaurentPoly.one(num.modulus))
    q = div_exact(num, den)
    if q is not None:
        return PolyFraction(q, LaurentPoly.one(num.modulus))
    g = poly_gcd(num, den)
    num_r = div_exact(num, g)
    den_r = div_exact(den, g)
    assert num_r is not None and den_r is not None
    # move the denominator's unit factor into the numerator
    cd = canonicalize(den_r)
    unit_inv = LaurentPoly({-cd.unit_exp: _inv_scalar(cd.unit_coeff, den.modulus)}, den.modulus)
    return PolyFraction(num_r * unit_inv, cd.poly)


# -- matrices ---------------------------------------------------------------


class RingMatrix:
    """An immutable matrix over the Laurent polynomial ring that keeps only
    its nonzero entries.

    `row_maps` holds one map per row, {column: entry}, of the nonzero
    entries; `rows`, `cols` and `modulus` give the shape and the domain.
    Builders, arithmetic and det read and write those maps, so their work
    follows the nonzero entries (a walk matrix has at most three per row).
    `entries`, the rows as tuples with one shared zero wherever a map has no
    entry, is a view built on its first read, for callers that index densely.
    """

    __slots__ = ("rows", "cols", "modulus", "row_maps", "_entries")

    def __init__(self, entries, modulus=None, cols=None):
        """The matrix of rows of entries from outside: each entry a
        LaurentPoly of the domain or a scalar, every row of length cols
        (that of the first row when cols is None, 0 without rows)."""
        maps = []
        width = cols
        for row in entries:
            row = [e if isinstance(e, LaurentPoly) else LaurentPoly({0: e}, modulus)
                   for e in row]
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise ValueError("ragged rows in matrix" if cols is None else
                                 f"a row of {len(row)} entries in a matrix of {cols} columns")
            for e in row:
                _same_domain(modulus, e.modulus)
            maps.append({j: e for j, e in enumerate(row) if e._c})
        object.__setattr__(self, "row_maps", tuple(maps))
        object.__setattr__(self, "rows", len(maps))
        object.__setattr__(self, "cols", width or 0)
        object.__setattr__(self, "modulus", modulus)

    @classmethod
    def _of(cls, maps, modulus, cols):
        """A matrix from maps {column: nonzero LaurentPoly entry}, one per
        row, that a builder or arithmetic produced, so unchecked."""
        m = object.__new__(cls)
        maps = tuple(maps)
        object.__setattr__(m, "row_maps", maps)
        object.__setattr__(m, "rows", len(maps))
        object.__setattr__(m, "cols", cols)
        object.__setattr__(m, "modulus", modulus)
        return m

    def __setattr__(self, *a):
        raise AttributeError("RingMatrix is immutable")

    @property
    def entries(self):
        """The rows as tuples of cols entries, zeros included, built once."""
        try:
            return self._entries
        except AttributeError:
            zero = LaurentPoly.zero(self.modulus)
            dense = tuple(tuple(row.get(j, zero) for j in range(self.cols))
                          for row in self.row_maps)
            object.__setattr__(self, "_entries", dense)
            return dense

    def __reduce__(self):
        """Copy and pickle rebuild through the constructor."""
        return RingMatrix, (self.entries, self.modulus, self.cols)

    @classmethod
    def identity(cls, n, modulus=None):
        one = LaurentPoly.one(modulus)
        return cls._of([{i: one} for i in range(n)], modulus, n)

    @classmethod
    def zeros(cls, rows, cols, modulus=None):
        return cls._of([{} for _ in range(rows)], modulus, cols)

    @classmethod
    def from_blocks(cls, block_rows, cols, size, modulus):
        """Assemble from square blocks of one size, given by block row as
        maps {block column: block} over cols block columns; a block column
        that a map lacks holds the zero block.

        The blocks were checked when they were built, so each block's shape
        and modulus is checked here, not each entry; only the entries of
        the blocks are placed, so a zero block costs nothing."""
        maps = []
        for brow in block_rows:
            out = [{} for _ in range(size)]
            for c, b in brow.items():
                if not 0 <= c < cols:
                    raise IndexError(f"block column {c} outside 0..{cols - 1}")
                if b.rows != size or b.cols != size:
                    raise ValueError("blocks must share one square size")
                _same_domain(modulus, b.modulus)
                for row, block_row in zip(out, b.row_maps):
                    for j, e in block_row.items():
                        row[c * size + j] = e
            maps += out
        return cls._of(maps, modulus, cols * size)

    def __eq__(self, other):
        if not isinstance(other, RingMatrix):
            return NotImplemented
        return (self.modulus == other.modulus and self.rows == other.rows
                and self.cols == other.cols and self.row_maps == other.row_maps)

    def __repr__(self):
        body = "; ".join(", ".join(str(e) for e in row) for row in self.entries)
        return f"RingMatrix[{self.rows}x{self.cols}]({body})"

    def _entrywise(self, other, sign):
        """self + sign * other over the maps: an entry without a partner is
        kept as it is, or negated, and a pair that cancels is dropped."""
        self._same_shape(other)
        maps = []
        for r1, r2 in zip(self.row_maps, other.row_maps):
            row = dict(r1)
            for j, b in r2.items():
                a = row.get(j)
                if a is None:
                    row[j] = b if sign > 0 else -b
                elif (s := linear_combination(((1, a), (sign, b)), self.modulus))._c:
                    row[j] = s
                else:
                    del row[j]
            maps.append(row)
        return RingMatrix._of(maps, self.modulus, self.cols)

    def __add__(self, other):
        return self._entrywise(other, 1)

    def __sub__(self, other):
        return self._entrywise(other, -1)

    def __neg__(self):
        return RingMatrix._of([{j: -a for j, a in row.items()} for row in self.row_maps],
                              self.modulus, self.cols)

    def _same_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}")
        _same_domain(self.modulus, other.modulus)

    def __matmul__(self, other):
        """The matrix product over the nonzeros of both factors.

        Row i sums a[i][k] * b[k][j] over the entries a[i][k] of row i's map
        and b[k][j] of row k's, so the cost follows the nonzero terms (a
        walk matrix has at most two per row).  Each reached entry's
        coefficients are summed in one dict; one that cancels is dropped.
        """
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        _same_domain(self.modulus, other.modulus)
        maps = []
        for row in self.row_maps:
            acc = {}
            for k, a in row.items():
                for j, b in other.row_maps[k].items():
                    _convolve(acc.setdefault(j, {}), a._c, b._c)
            maps.append({j: p for j, d in acc.items() if (p := _normal_form(d, self.modulus))._c})
        return RingMatrix._of(maps, self.modulus, other.cols)

    def power(self, k):
        if self.rows != self.cols:
            raise ValueError("matrix power needs a square matrix")
        out = RingMatrix.identity(self.rows, self.modulus)
        base = self
        while k:
            if k & 1:
                out = out @ base
            base = base @ base
            k >>= 1
        return out

    def trace(self):
        if self.rows != self.cols:
            raise ValueError("trace needs a square matrix")
        return linear_combination(((1, row[i]) for i, row in enumerate(self.row_maps) if i in row),
                                  self.modulus)

    def product_trace(self, other):
        """tr(self @ other) without forming the product: the terms
        self[i][k] * other[k][i] over the entries of both maps, summed in
        one coefficient dict."""
        if self.cols != other.rows or self.rows != other.cols:
            raise ValueError(f"no square product of {self.rows}x{self.cols} "
                             f"and {other.rows}x{other.cols}")
        _same_domain(self.modulus, other.modulus)
        acc = {}
        for i, row in enumerate(self.row_maps):
            for k, a in row.items():
                b = other.row_maps[k].get(i)
                if b is not None:
                    _convolve(acc, a._c, b._c)
        return _normal_form(acc, self.modulus)

    def delete(self, rows, cols):
        """The submatrix with the given row and column indices removed."""
        rset, cset = set(rows), set(cols)
        for r in rset:
            if not 0 <= r < self.rows:
                raise IndexError(f"row index {r} out of range")
        for c in cset:
            if not 0 <= c < self.cols:
                raise IndexError(f"column index {c} out of range")
        renumbered = {j: x for x, j in enumerate(j for j in range(self.cols) if j not in cset)}
        maps = [{renumbered[j]: e for j, e in row.items() if j not in cset}
                for i, row in enumerate(self.row_maps) if i not in rset]
        return RingMatrix._of(maps, self.modulus, len(renumbered))

    def evaluate(self, t0):
        """Entrywise exact evaluation at a rational point."""
        return [[a.evaluate(t0) for a in row] for row in self.entries]


def det_cofactor(mat):
    """Determinant by first-row cofactor expansion.  Exponential; small inputs only."""
    if mat.rows != mat.cols:
        raise ValueError("determinant needs a square matrix")
    n = mat.rows
    if n == 0:
        return LaurentPoly.one(mat.modulus)
    acc = LaurentPoly.zero(mat.modulus)
    if n == 1:
        return mat.row_maps[0].get(0, acc)
    for j, a in mat.row_maps[0].items():
        term = a * det_cofactor(mat.delete(rows=(0,), cols=(j,)))
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


def _operand(entry):
    """A pivot, a nonzero dense coefficient list, as the entry updates read
    it, built once for all of them: (pairs, degree, lead, one_term), where
    pairs are its nonzero (position, coefficient) pairs, lead its leading
    coefficient and one_term whether it has one nonzero coefficient.  The
    other operands are read only as pairs, which the kernel builds alone."""
    pairs = [(i, x) for i, x in enumerate(entry) if x]
    return pairs, len(entry) - 1, entry[-1], len(pairs) == 1


def _bareiss_entry(a, b, c, d, prev):
    """(a*b - c*d) / prev by exact division, on integer coefficients.

    a is a dense coefficient list, lowest degree first, empty for zero; b, c
    and d are the nonzero (position, coefficient) pairs of the other three
    factors, empty for zero; prev is the divisor as an _operand.  The work
    follows the nonzero coefficients: the products pay nonzeros(a) *
    len(b) + len(c) * len(d) multiplications, and long division skips the
    zero terms of the quotient and the zero coefficients of prev.  A
    one-term divisor lead * t^dd divides in one pass: the quotient is
    num[dd:] divided by lead, and the dd coefficients below must be zero.
    An inexact division raises AssertionError on either path.
    """
    size = (len(a) + b[-1][0]) if a else 0
    if c and d:
        size = max(size, c[-1][0] + d[-1][0] + 1)
    num = [0] * size
    for i, x in enumerate(a):
        if x:
            for j, y in b:
                num[i + j] += x * y
    for i, x in c:
        for j, y in d:
            num[i + j] -= x * y
    while num and not num[-1]:
        num.pop()
    pairs, dd, lead, one_term = prev
    if one_term:
        assert not any(num[:dd]), "nonzero remainder in fraction-free elimination"
        out = num[dd:]
        if lead == 1:
            return out
        if lead == -1:
            return [-x for x in out]
        for i, x in enumerate(out):
            if x:
                out[i], r = divmod(x, lead)
                assert not r, "fraction-free elimination produced a nonexact division"
        return out
    out = [0] * max(len(num) - dd, 0)
    for i in range(len(out) - 1, -1, -1):
        x = num[i + dd]
        if x:
            x, r = divmod(x, lead)
            assert not r, "fraction-free elimination produced a nonexact division"
            out[i] = x
            for j, y in pairs:
                num[i + j] -= x * y
    assert not any(num), "nonzero remainder in fraction-free elimination"
    return out


def _bareiss(rows, width, q):
    """Fraction-free (Bareiss) elimination on rows kept as sparse maps.

    Takes n rows, each a map {column: coefficient dict, as a LaurentPoly
    keeps it} of its nonzero entries among columns 0 to width - 1, where
    width = n + e, and returns the e + 1 minors of order n built from the
    first n - 1 columns and one of the last e + 1: the determinant alone
    when e = 0, and a Cramer pair from one elimination of the bordered
    matrix when e = 1.  Eliminating the first n - 1 columns serves every
    minor; what the last row is left with in the last e + 1 columns are the
    minors, by Sylvester's identity.

    Each row is first multiplied by a power of t and by the lcm of its
    denominators (1 over F_q, whose residues are read as ints), so that its
    entries are polynomials with integer coefficients.  An entry is then a
    list of ints, lowest degree first, and a row is a map {column: entry}
    of its nonzero entries; the scale factors, common to every minor, are
    divided out of the results.  Over F_q each minor is then reduced mod q:
    the divisions are exact over Z[t], and reduction mod q is a ring map,
    so it commutes with every minor.

    Step k takes as its pivot row, among the rows with an entry in column k,
    the one with the fewest entries right of column k, then the one whose
    entry in column k is shortest, then the first.  It takes the entry a of
    row i in column j to (a * p_k - c * d) / p_(k-1), where p_k is the pivot
    of step k and p_(-1) = 1, c is row i's entry in column k and d the pivot
    row's in column j.  When c or d is zero, a only gains the factor
    p_k / p_(k-1), so it is left alone: levels[i][j] is the step whose value
    entry (i, j) holds.  An entry is brought to the current step k only when
    it is read: in the pivot row, in the pivot column, as the a of an
    update, or in the last row.  The factors telescope, so one exact
    division, of the entry times p_(k-1) by p_(s-1), brings it from level s
    to level k; every entry at every level is a minor of the matrix, so the
    division is exact.  Such a catch-up changes an entry's degree by
    deg p_(k-1) - deg p_(s-1), which the row rule adds to the length of a
    pivot-column entry not yet caught up.

    The work follows the nonzero entries: a row's map holds only columns at
    or right of the current step, so the row rule reads its length, and a
    row with an entry in the pivot column is updated over the columns of
    the pivot row only, dropping an entry that cancels to zero.  The
    bookkeeping is paid per row and step, not per entry read: the row rule
    reads each row's map once, keeps a running best and notes the rows
    that reach the pivot column, the only ones updated; the pivot row is
    brought to level k in place, in one pass over its entries; and a level
    is checked where its entry is read.  The operands of _bareiss_entry are
    prepared once: the pivot, all of whose fields a division reads, and the
    (position, coefficient) pairs of each other entry of the pivot row once
    per step, and of each row's entry in the pivot column once per row.
    Rows of int coefficients, all of them over F_q, skip the pass over
    denominators, and the minors are built in normal form as arithmetic
    builds its results, without the constructor's checks.
    """
    n = len(rows)
    if not n:
        return [LaurentPoly.one(q)]
    work, shift_back, scale = [], 0, 1
    for row in rows:
        # a coefficient dict is sorted, so its first key is its lowest power
        # and its last its highest
        k = min(next(iter(c)) for c in row.values()) if row else 0
        sparse, fractional = {}, False
        for j, c in row.items():
            d = sparse[j] = [0] * (next(reversed(c)) - k + 1)
            for x, v in c.items():
                d[x - k] = v
                if type(v) is not int:
                    fractional = True
        if fractional:
            m = math.lcm(*(v.denominator for c in row.values() for v in c.values()))
            for d in sparse.values():
                for x, v in enumerate(d):
                    if v:
                        d[x] = v.numerator * (m // v.denominator)
            scale *= m
        work.append(sparse)
        shift_back += k
    # pivots[s] is the pivot of step s - 1, as an _operand, so that pivots[0]
    # = 1, and degrees[s] its degree
    sign, pivots, degrees = 1, [_operand([1])], [0]
    levels = [dict.fromkeys(row, 0) for row in work]
    for k in range(n - 1):
        # the row rule: fewest entries, then the shortest pivot-column entry
        # at level k, then the first row
        best, best_size, best_length, degree, holders = -1, 0, 0, degrees[k], []
        for r in range(k, n):
            row = work[r]
            e = row.get(k)
            if e is not None:
                holders.append(r)
                size = len(row)
                if best < 0 or size <= best_size:
                    length = len(e) + degree - degrees[levels[r][k]]
                    if best < 0 or size < best_size or length < best_length:
                        best, best_size, best_length = r, size, length
        if best < 0:
            return [LaurentPoly.zero(q)] * (width - n + 1)
        if best != k:
            work[k], work[best] = work[best], work[k]
            levels[k], levels[best] = levels[best], levels[k]
            sign = -sign
        # the rows below the pivot row that reach column k, in order
        below = sorted(best if r == k else r for r in holders if r != best)
        # the pivot row, brought to level k in place in one pass
        prev = pivots[k]
        prev_pairs, row, level = prev[0], work[k], levels[k]
        for j, s in level.items():
            if s != k:
                row[j] = _bareiss_entry(row[j], prev_pairs, (), (), pivots[s])
                level[j] = k
        pivot = _operand(row[k])
        pivot_pairs = pivot[0]
        top = [(j, [(x, v) for x, v in enumerate(e) if v]) for j, e in row.items() if j != k]
        for i in below:
            row, level = work[i], levels[i]
            c, s = row.pop(k), level.pop(k)
            if s != k:
                c = _bareiss_entry(c, prev_pairs, (), (), pivots[s])
            c = [(x, v) for x, v in enumerate(c) if v]
            for j, d in top:
                s = level.get(j)
                if s is None:
                    a = ()
                else:
                    a = row[j]
                    if s != k:
                        a = _bareiss_entry(a, prev_pairs, (), (), pivots[s])
                e = _bareiss_entry(a, pivot_pairs, c, d, prev)
                if e:
                    row[j], level[j] = e, k + 1
                else:
                    del row[j], level[j]
        pivots.append(pivot)
        degrees.append(pivot[1])
    row, level, last = work[-1], levels[-1], []
    for j in range(n - 1, width):
        e = row.get(j, ())
        if e and level[j] != n - 1:
            e = _bareiss_entry(e, pivots[-1][0], (), (), pivots[level[j]])
        last.append(e)
    return [_normal_form({x + shift_back: sign * v if scale == 1 else Fraction(sign * v, scale)
                          for x, v in enumerate(entry)}, q)
            for entry in last]


def _det_bareiss(mat):
    """The kernel on the whole matrix, without peeling and with its columns
    in index order: the oracle of det's peel and column order.

    It runs the same row rule and catch-ups as det, so it checks the peel
    and the order's sign only; det_cofactor, and row_reduce after
    evaluation, check the kernel.
    """
    (out,) = _bareiss([{j: e._c for j, e in row.items()} for row in mat.row_maps],
                      mat.cols, mat.modulus)
    return out


def _live_lines(n):
    """A Fenwick tree over n lines, every one live: entry x counts the
    x & -x lines that end at line x - 1."""
    return [x & -x for x in range(n + 1)]


def _live_before(tree, i):
    """The number of live lines before line i, in O(log n)."""
    count = 0
    while i:
        count += tree[i]
        i &= i - 1
    return count


def _retire(tree, i):
    """Take line i out of the live lines, in O(log n)."""
    i += 1
    while i < len(tree):
        tree[i] -= 1
        i += i & -i


def det(mat):
    """Exact determinant: peel single-entry rows and columns, then run the
    fraction-free kernel on what remains.

    A row or column of the current submatrix with one nonzero entry a at
    current position (i, j) is removed together with that entry's column or
    row, and (-1)^(i+j) a joins a factor (Laplace expansion along it).  The
    current position counts the live rows above the entry and the live
    columns left of it, which a Fenwick tree of each gives in O(log n).
    Each removal can leave new single-entry lines, so peeling repeats until
    none is left; an empty row or column makes the determinant zero at
    once.  Only the factors other than 1 are multiplied in: most peeled
    lines of a cut strand's I - W meet it on the unit diagonal.

    The kernel then gets the live columns sparsest first: by their count of
    live entries, read off the peel's column sets, ties in index order.  A
    column moved ahead of the live columns left of it passes them, so the
    column tree gives the permutation's sign as it gives the peel's.  The
    pivot row is still the kernel's choice; the order fixes which column
    each step eliminates, and the sparse ones, eliminated first, leave
    fewer and shorter entries for the steps after them.
    """
    if mat.rows != mat.cols:
        raise ValueError("determinant needs a square matrix")
    n, q, maps = mat.rows, mat.modulus, mat.row_maps
    row_nz = [set(row) for row in maps]
    col_nz = [set() for _ in range(n)]
    for i, js in enumerate(row_nz):
        for j in js:
            col_nz[j].add(i)
    live_rows, live_cols = [True] * n, [True] * n
    rows_before, cols_before = _live_lines(n), _live_lines(n)
    # (is a row, index) of lines that may hold at most one entry
    todo = [(True, i) for i in range(n) if len(row_nz[i]) < 2]
    todo += [(False, j) for j in range(n) if len(col_nz[j]) < 2]
    factors, sign = [], 1
    while todo:
        is_row, x = todo.pop()
        if not (live_rows if is_row else live_cols)[x]:
            continue
        line = (row_nz if is_row else col_nz)[x]
        if not line:
            return LaurentPoly.zero(q)
        (y,) = line
        i, j = (x, y) if is_row else (y, x)
        factors.append(maps[i][j])
        if (_live_before(rows_before, i) + _live_before(cols_before, j)) % 2:
            sign = -sign
        live_rows[i] = live_cols[j] = False
        _retire(rows_before, i)
        _retire(cols_before, j)
        for jj in row_nz[i]:
            col_nz[jj].discard(i)
            if live_cols[jj] and len(col_nz[jj]) < 2:
                todo.append((False, jj))
        for ii in col_nz[j]:
            row_nz[ii].discard(j)
            if live_rows[ii] and len(row_nz[ii]) < 2:
                todo.append((True, ii))
    # the live columns go to the kernel sparsest first, ties in index order;
    # moving each in turn ahead of the live columns left of it passes them
    order = sorted((j for j in range(n) if live_cols[j]), key=lambda j: len(col_nz[j]))
    for j in order:
        if _live_before(cols_before, j) % 2:
            sign = -sign
        _retire(cols_before, j)
    renumbered = {j: x for x, j in enumerate(order)}
    (out,) = _bareiss([{renumbered[j]: maps[i][j]._c for j in row_nz[i]}
                       for i in range(n) if live_rows[i]], len(renumbered), q)
    for a in factors:
        if not a.is_one():
            out = out * a
    return -out if sign < 0 else out


def column_replaced_dets(mat, col, vector):
    """(det(mat), det(mat with column col replaced by vector)), the pair of
    Cramer's rule, from one run of the kernel without peeling.

    The kernel takes the n x (n + 1) matrix of mat's other columns in order,
    then column col, then vector, and returns the two minors that share the
    first n - 1 columns; the move renumbers the keys of each row's map.
    Moving column col to position n - 1 flips the sign of both alike.
    """
    if mat.rows != mat.cols or len(vector) != mat.rows:
        raise ValueError("a Cramer pair needs a square matrix and a vector of its size")
    if not 0 <= col < mat.cols:
        raise IndexError(f"column {col} outside 0..{mat.cols - 1}")
    for v in vector:
        _same_domain(mat.modulus, v.modulus)
    n = mat.cols
    rows = []
    for row, v in zip(mat.row_maps, vector):
        moved = {n - 1 if j == col else j - (j > col): e._c for j, e in row.items()}
        if v._c:
            moved[n] = v._c
        rows.append(moved)
    whole, replaced = _bareiss(rows, n + 1, mat.modulus)
    if (n - 1 - col) % 2:
        return -whole, -replaced
    return whole, replaced


# -- exact linear algebra over Q and F_q --------------------------------------


def row_reduce(rows, n_cols, q=None):
    """Gauss-Jordan elimination over F_q, or over Q when q is None.

    Pivots are sought in the first n_cols columns only.  Returns the reduced
    row echelon form, the pivot columns, and the product of the pivots
    negated once per row swap: the determinant of the first n_cols columns
    when they are square and every one of them holds a pivot.
    """
    if q is None:
        mat = [[Fraction(x) for x in row] for row in rows]
    else:
        mat = [[x % q for x in row] for row in rows]

    def reduced(row):
        return row if q is None else [x % q for x in row]

    pivots, product = [], 1
    for c in range(n_cols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot is None:
            continue
        if pivot != r:
            mat[r], mat[pivot] = mat[pivot], mat[r]
            product = -product
        product *= mat[r][c]
        inv = _inv_scalar(mat[r][c], q)
        mat[r] = reduced([x * inv for x in mat[r]])
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = reduced([x - f * y for x, y in zip(mat[i], mat[r])])
        pivots.append(c)
    return mat, pivots, Fraction(product) if q is None else product % q


def rational_det(rows):
    """Determinant of a square matrix of rationals, by row_reduce."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("rational determinant needs a square matrix")
    _, pivots, product = row_reduce(rows, n)
    return product if len(pivots) == n else Fraction(0)


def rational_solve(rows, rhs):
    """Solve A x = b exactly over the rationals; None when A is singular."""
    n = len(rows)
    if len(rhs) != n or any(len(row) != n for row in rows):
        raise ValueError("rational solve needs a square system")
    mat, pivots, _ = row_reduce([list(row) + [b] for row, b in zip(rows, rhs)], n)
    return [row[n] for row in mat] if len(pivots) == n else None
