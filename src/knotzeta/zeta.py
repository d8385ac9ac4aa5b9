"""Closed-walk combinatorics on arc graphs: primes, traces, Euler products.

A prime is a rotation class of closed directed walks that is not a proper
power of a shorter walk.  The zeta function of a weighted digraph is the
product of (1 - weight)^-1 over all primes; it equals 1/det(I - W), and this
module verifies that equality through two finite surrogates: an exact
truncated trace identity and a numeric partial Euler product.  The inverse
edges that would make backtracking a concern do not exist in these directed
graphs, so primitivity and rotation are the whole story.  A walk's weight
depends only on its label content, so the Euler product needs only the
number of primes of each content, and the trace identity the numbers of
based closed walks and of primes of each content; one DP run of
_prime_counts gives both tables.  prime_cycles lists the primes themselves,
for the twisted trace check, whose ordered block products do depend on the
order of the edges.  Both routes are capped by what they count, MAX_PRIMES
primes, and refuse a horizon deeper than _deepest_walk() before counting.
The Euler check makes one _prime_counts run for its trace identity and its
product, and plans its sample point and horizon from a float spectral
estimate read row by row (see _plan_horizon); its certified bounds, rounded
by decimal, raise every factor to its power in one Straus ladder (see
_product_bounds).
The traces tr(W^m), m <= M, are read off the powers up to ceil(M/2) only
(power_traces), and every sum of the trace identity is normalized once.

The path-sum, composition, and cabling checks for one-strand tangles live
here too, since all three are statements about walk weights.
"""

from __future__ import annotations

import decimal
import functools
import math
import operator
import random
import sys
import warnings
from fractions import Fraction

from .arc_graph import alexander_spec, build_arc_graph, tangle_determinant, \
    tangle_matrix, weight_matrix
from .knot_model import DiagramError, cable, compose_tangles
from .laurent import LaurentPoly, column_replaced_dets, linear_combination, rational_solve
from .verdict import Verdict


class ConvergenceWarning(UserWarning):
    """Signals that a truncated Euler product is not expected to converge."""


# the cap on the primes listed or counted: past the depth refusal, the only
# size refusal of the Euler product and of the scalar trace identity
MAX_PRIMES = 10 ** 6
# spectral estimates at or above this predict a divergent Euler product; the
# margin below 1 keeps the planner off points where the tail estimate explodes
DIVERGENT = 0.999
# the largest gap between the Euler product and 1/det(I - W) that passes, and
# the tail that the planner aims below
TOLERANCE = 1e-6
# the largest m at which the Euler check, and the CLI's trace check unless
# given --max-len, compare tr(W^m) with the closed walks
TRACE_HORIZON = 8


# -- closed walk and prime enumeration --------------------------------------


def _minimal_rotation(seq):
    return min(seq[i:] + seq[:i] for i in range(len(seq)))


def _is_primitive(seq):
    n = len(seq)
    for d in range(1, n):
        if n % d == 0 and seq[:d] * (n // d) == seq:
            return False
    return True


def closed_walks(g, length):
    """All based closed walks of exactly the given length, as edge tuples
    (the unpruned reference for prime_cycles and _prime_counts)."""
    if length < 1:
        raise ValueError("walk length must be at least 1")
    found = []

    def extend(start, cur, path):
        for e in g.out_map[cur]:
            if len(path) + 1 == length:
                if e.dst == start:
                    found.append(tuple(path + [e]))
            else:
                path.append(e)
                extend(start, e.dst, path)
                path.pop()

    for v in g.vertices:
        extend(v, v, [])
    return found


def _return_distances(g, start, max_len, allowed):
    """{v: fewest edges from v back to start, under max_len}, by BFS on the
    reversed edges between vertices v with allowed(v); start is allowed."""
    dist, frontier = {start: 0}, [start]
    for d in range(1, max_len):
        reached = []
        for v in frontier:
            for e in g.in_map[v]:
                u = e.src
                if u not in dist and allowed(u):
                    dist[u] = d
                    reached.append(u)
        frontier = reached
    return dist


def _deepest_walk():
    """The longest walk that the searches below follow: prime_cycles nests
    one call per edge, and each search keeps to half of the interpreter's
    recursion limit, leaving the rest to its callers."""
    return sys.getrecursionlimit() // 2


def _refuse_deeper(max_len):
    """ValueError below 1, RuntimeError past _deepest_walk()."""
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    if max_len > _deepest_walk():
        raise RuntimeError(f"horizon {max_len} is deeper than the walk search "
                           f"reaches ({_deepest_walk()} edges)")


def prime_cycles(g, max_len):
    """All primes of length at most max_len, one representative per class.

    The representative starts at the rotation-minimal vertex sequence
    (minimal in the graph's vertex order).  Enumeration runs a DFS from each
    start vertex restricted to vertices of equal or higher index, cut where
    a prefix cannot get back to the start within max_len, records every
    return to the start, and keeps exactly the walks that are both
    rotation-minimal and not proper powers.  Output is sorted by length,
    then vertex sequence.  Raises RuntimeError beyond MAX_PRIMES primes and,
    before enumerating, past _deepest_walk().
    """
    _refuse_deeper(max_len)
    index = g.index
    primes = []

    def extend(start, cur, path, dist):
        for e in g.out_map[cur]:
            d = dist.get(e.dst)
            if d is None or len(path) + 1 + d > max_len:
                continue
            path.append(e)
            if e.dst == start:
                seq = tuple(index[edge.src] for edge in path)
                if seq == _minimal_rotation(seq) and _is_primitive(seq):
                    primes.append((len(path), seq, tuple(path)))
                    if len(primes) > MAX_PRIMES:
                        raise RuntimeError(
                            f"more than {MAX_PRIMES} primes below length {max_len}")
            if len(path) < max_len:
                extend(start, e.dst, path, dist)
            path.pop()

    for v in g.vertices:
        lowest = index[v]
        extend(v, v, [], _return_distances(g, v, max_len, lambda u: index[u] >= lowest))
    primes.sort(key=lambda item: (item[0], item[1]))
    return [edges for _, _, edges in primes]


# -- trace identity ----------------------------------------------------------


def power_traces(w, max_power):
    """[tr(W), tr(W^2), ..., tr(W^max_power)] from the half powers.

    W, W^2, ..., W^h, h = ceil(max_power / 2), take h - 1 products and give
    the traces up to m = h; each higher one is tr(W^h W^(m - h)), summed
    over the entries of the two factors without forming their product.
    """
    half = (max_power + 1) // 2
    powers = [w]
    for _ in range(half - 1):
        powers.append(powers[-1] @ w)
    return ([power.trace() for power in powers]
            + [powers[-1].product_trace(powers[m - half - 1])
               for m in range(half + 1, max_power + 1)])


def trace_identity_check(g, spec, max_power):
    """tr(W^m) equals the closed-walk weight sum for every m <= max_power.

    Also checks the prime-power log truncation: the sum of weight(p)^j / j
    over pairs with j*len(p) <= max_power equals the sum of tr(W^m)/m,
    exactly, as Laurent polynomials over the rationals (see _trace_verdict).
    Refuses a horizon below 1, then as _prime_counts: a horizon past
    _deepest_walk() before counting, and more than MAX_PRIMES primes as
    soon as a length takes the total past it.
    """
    if max_power < 1:
        raise ValueError("max_power must be at least 1")
    return _trace_verdict(g, spec, max_power, *_prime_counts(g, max_power))


def _trace_verdict(g, spec, max_power, walks, primes):
    """trace_identity_check's verdict from the tables of one _prime_counts
    run at max_power or longer, less the contents of more edges.

    A walk's weight depends only on its label content: the walk side reads
    the based closed walks per content, a content of m edges counting
    towards tr(W^m), and the log side the primes per content.  Each content
    is weighed once, for both sides.

    The traces come from power_traces, independently of the tables.  Each
    side is one sum normalized once (laurent.linear_combination): the walk
    sum of each m, the trace side and the log side.  The log truncation is
    compared times s = lcm(1, ..., max_power), so that both of its sides
    have integer factors: the trace side sum((s/m) tr(W^m)), and the log
    side, where the shares n (s/j) of a prime content c and its powers j
    are gathered per content j*c of p^j, whose weight the content weigher
    already holds.  A failure entry divides both sides back by s.
    """
    weight_of = _content_weigher([spec[label] for label in _content_labels(g)])
    walk_terms = {m: [] for m in range(1, max_power + 1)}
    for content, n in walks.items():
        m = sum(content)
        if m <= max_power:
            walk_terms[m].append((n, weight_of(content)))
    traces = power_traces(weight_matrix(g, spec), max_power)
    failures = []
    for m, tr in enumerate(traces, 1):
        walk_sum = linear_combination(walk_terms[m], None)
        if tr != walk_sum:
            failures.append({"m": m, "trace": str(tr), "walks": str(walk_sum)})
    s = math.lcm(*range(1, max_power + 1))
    trace_side = linear_combination(((s // m, tr) for m, tr in enumerate(traces, 1)), None)
    shares = {}
    for content, n in primes.items():
        for j in range(1, max_power // sum(content) + 1):
            power = tuple(j * k for k in content)
            shares[power] = shares.get(power, 0) + n * (s // j)
    prime_side = linear_combination(((share, weight_of(content))
                                     for content, share in shares.items()), None)
    if prime_side != trace_side:
        failures.append({"m": "log-truncation",
                         "trace": str(trace_side.scale(Fraction(1, s))),
                         "walks": str(prime_side.scale(Fraction(1, s)))})
    return Verdict("trace_identity", not failures,
                   {"max_power": max_power, "failures": failures})


# -- Euler product -----------------------------------------------------------


def _row_sums(g, spec, t0):
    """The row sums of |W(t0)|^16, one row at a time, in vertex order.

    Row i of a power depends only on row i of the power before, so each row
    is carried alone through the 15 products, over the nonzeros of each
    column in row order: every sum is the dense product's to the bit.
    Raises DiagramError when |W(t0)|, a row or a sum is not a finite float.
    """
    index = g.index
    n = len(index)
    t0 = Fraction(t0)
    not_finite = f"spectral estimate at t={t0} is not finite"
    try:
        weights = {label: abs(float(spec[label].evaluate(t0)))
                   for label in {e.label for e in g.edges}}
    except OverflowError:
        raise DiagramError(not_finite) from None
    a = [[0.0] * n for _ in range(n)]
    for e in g.edges:
        a[index[e.src]][index[e.dst]] = weights[e.label]
    # each column's nonzeros as (row indices, weights), in row order
    columns = [([k for k in range(n) if a[k][j]], [a[k][j] for k in range(n) if a[k][j]])
               for j in range(n)]
    for row in a:
        for _ in range(15):  # row becomes its row of |W|^16
            row = [sum(map(operator.mul, map(row.__getitem__, ks), ws), 0.0) for ks, ws in columns]
            if not all(map(math.isfinite, row)):
                raise DiagramError(not_finite)
        total = sum(row)
        if not math.isfinite(total):
            raise DiagramError(not_finite)
        yield total


def spectral_estimate(g, spec, t0):
    """Row-sum norm of |W(t0)|^16 to the 1/16: an upper bound trend toward
    the spectral radius, used only to predict convergence.  Raises as
    _row_sums."""
    return max(_row_sums(g, spec, t0), default=0.0) ** (1.0 / 16)


def _warn_if_divergent(estimate, t0):
    """Warn when the estimate predicts divergence.

    Called directly from a public function, so stacklevel 3 names that
    function's caller.
    """
    if estimate >= DIVERGENT:
        warnings.warn(
            f"spectral estimate {estimate:.3f} at t={t0}: Euler product will not converge",
            ConvergenceWarning, stacklevel=3)


def zeta_partial_product(g, spec, t0, max_len):
    """The truncated Euler product over primes of length <= max_len at t = t0,
    as an exact rational.

    A factor with weight exactly 1 is a pole of the product and raises.
    Divergence (estimated spectral radius >= DIVERGENT) only warns: the
    truncation itself is still well defined.
    """
    t0 = Fraction(t0)
    _warn_if_divergent(spectral_estimate(g, spec, t0), t0)
    _, counts = _prime_counts(g, max_len)
    return Fraction(*_euler_product(_euler_factors(g, spec, t0, counts)))


def _euler_factors(g, spec, t0, counts):
    """The truncated Euler product at t = t0 as a list of pairs (1 - w, n).

    A prime's Euler factor depends only on its label content, so the product
    runs over contents: w is a content's weight at t0 and n its number of
    primes in counts, a prime table of _prime_counts.  The product P is
    that of (1 - w)^-n over the list.  Shortest contents come first, so a
    pole names the shortest prime of weight 1.
    """
    weights = [spec[label].evaluate(t0) for label in _content_labels(g)]
    nums = [w.numerator for w in weights]
    dens = [w.denominator for w in weights]
    factors = []
    for content in sorted(counts, key=sum):
        # the weight is p/q, weighed on ints (q > 0, not necessarily in lowest terms)
        p = _content_weight(nums, content)
        q = _content_weight(dens, content)
        if p == q:
            raise ZeroDivisionError(
                f"Euler factor pole: prime of length {sum(content)} has weight 1")
        factors.append((Fraction(q - p, q), counts[content]))
    return factors


def _euler_product(factors):
    """The exact product P of _euler_factors as the unreduced pair (num, den).

    P is num/den; on 5_2 and 6_1 both run to a million bits, and reducing
    them would cost more than building them.
    """
    return (_balanced_product([f.denominator ** n for f, n in factors]),
            _balanced_product([f.numerator ** n for f, n in factors]))


def _balanced_product(xs):
    """Product of ints, multiplied pairwise so that operands grow together."""
    while len(xs) > 1:
        xs = [math.prod(xs[i:i + 2]) for i in range(0, len(xs), 2)]
    return xs[0] if xs else 1


def _log_product(factors):
    """The product P of _euler_factors as a float accumulated in log space.

    Wildly divergent truncations stay representable this way (as +-inf at
    worst); exactness is beside the point there.
    """
    negatives = sum(n for f, n in factors if f < 0)
    sign = -1.0 if negatives % 2 else 1.0
    log_mag = -math.fsum(n * math.log(abs(f)) for f, n in factors)
    try:
        return sign * math.exp(log_mag)
    except OverflowError:
        return sign * math.inf


# the roundings of _product_bounds: 80 digits settle a float almost
# everywhere, and each product stays cheap; the exponent range never overflows
_DOWN = decimal.Context(prec=80, rounding=decimal.ROUND_FLOOR,
                        Emin=decimal.MIN_EMIN, Emax=decimal.MAX_EMAX)
_UP = decimal.Context(prec=80, rounding=decimal.ROUND_CEILING,
                      Emin=decimal.MIN_EMIN, Emax=decimal.MAX_EMAX)


def _bound_ends(a, b):
    """The (lo, hi) pair of a times that of b, lo rounded down and hi up."""
    return _DOWN.multiply(a[0], b[0]), _UP.multiply(a[1], b[1])


def _product_bounds(factors):
    """Decimal fractions lo <= P <= hi around the product P of _euler_factors.

    Each |1/(1 - w)| = q/p is rounded down for lo and up for hi to 80
    digits.  The powers are then taken together by one ladder
    (simultaneous exponentiation, Straus 1964), not one square-and-multiply
    per factor: each rounded factor is multiplied into the bit-plane
    product Q_b of every set bit b of its count, and from the top bit down
    the product becomes its square times Q_b.  decimal takes its int
    operands exactly and rounds every quotient and product correctly, toward
    -inf for lo and toward +inf for hi.  All of that runs on magnitudes, and
    the sign comes from the parity of the negative factors.
    """
    planes = {}  # bit b -> the (lo, hi) pair of Q_b
    negatives = 0
    for f, n in factors:
        p, q = abs(f.numerator), f.denominator
        ends = _DOWN.divide(q, p), _UP.divide(q, p)
        for b in range(n.bit_length()):
            if n >> b & 1:
                planes[b] = _bound_ends(planes[b], ends) if b in planes else ends
        if f < 0:
            negatives += n
    top = max(planes, default=0)
    acc = planes.get(top, (decimal.Decimal(1), decimal.Decimal(1)))
    for b in range(top - 1, -1, -1):
        acc = _bound_ends(acc, acc)
        if b in planes:
            acc = _bound_ends(acc, planes[b])
    lo, hi = map(Fraction, acc)
    return (-hi, -lo) if negatives % 2 else (lo, hi)


def _compare_product(factors, target, tol):
    """(float(P), float(|P - target|), |P - target| <= tol) for the product P
    of _euler_factors, each exact or correctly rounded.

    Rounding to a float is monotone, so when both ends of _product_bounds
    round to one float, so does P; when target lies outside them, both ends'
    gaps round to one float, and both fall on one side of tol, so do P's.
    Otherwise (as when the truncation equals 1/det exactly) the answer comes
    from the exact unreduced pair, compared without reducing it: one gcd
    would cost more than building it, and int / int rounds correctly all the
    same.
    """
    lo, hi = _product_bounds(factors)
    partial = float(lo)
    if float(hi) == partial and not lo <= target <= hi:
        exact_tol = Fraction(tol)
        gap_lo, gap_hi = abs(lo - target), abs(hi - target)
        gap, close = float(gap_lo), gap_lo <= exact_tol
        if float(gap_hi) == gap and (gap_hi <= exact_tol) == close:
            return partial, gap, close
    num, den = _euler_product(factors)
    tn, td = target.numerator, target.denominator
    diff, scale = abs(num * td - tn * den), abs(den * td)
    tol_num, tol_den = tol.as_integer_ratio()
    return num / den, diff / scale, diff * tol_den <= tol_num * scale


def _content_labels(g):
    """The label order of a content tuple: the graph's edge labels, sorted."""
    return sorted({e.label for e in g.edges})


def _content_codes(g, max_len):
    """(step, content_of) for contents of at most max_len edges.  A content
    is kept as one int whose digits in base max_len + 1 are its edge counts
    in _content_labels order: step maps a label to its digit's unit, so a
    walk's code is the sum of its edges' steps, and content_of(code) gives
    back the tuple."""
    labels = _content_labels(g)
    base = max_len + 1

    def content_of(code):
        return tuple(code // base ** i % base for i in range(len(labels)))

    return {label: base ** i for i, label in enumerate(labels)}, content_of


def _content_weight(weights, content):
    """The weight of every walk of a label content: the product of
    weights[i] ** content[i], weights in _content_labels order, from
    scratch (_euler_factors weighs on ints with it, and it is the oracle of
    _content_weigher)."""
    return math.prod(map(operator.pow, weights, content))


def _content_weigher(weights):
    """content -> _content_weight(weights, content), each content's weight
    built from the remembered weight of a content with one edge fewer, so
    at one product per content weighed or passed on the way down."""
    cache = {(0,) * len(weights): 1}

    def weight_of(content):
        # step down to a remembered content, then multiply back up
        path = []
        while content not in cache:
            i = next(i for i, k in enumerate(content) if k)
            path.append((content, weights[i]))
            content = content[:i] + (content[i] - 1,) + content[i + 1:]
        weight = cache[content]
        for content, w in reversed(path):
            weight = cache[content] = weight * w
        return weight

    return weight_of


def _mobius(n):
    """The Moebius function: 0 unless n is squarefree, else (-1)^(prime factors)."""
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return -result if n > 1 else result


def _prime_counts(g, max_len):
    """(walks, primes): {content: number of based closed walks} and
    {content: number of primes} over the contents of at most max_len edges.

    A content is a tuple of edge counts, one per label in _content_labels
    order.  Based closed walks are counted by content with a DP over (start
    vertex, current vertex), one length at a time; a state is dropped where
    its return distance to the start (_return_distances) exceeds the
    lengths left, and a start vertex without a closed walk where its first
    step leaves no state.  A prime of content c
    and length |c| accounts for |c| based closed walks of content c and as
    many of each power's content, so Moebius inversion over the divisors of
    gcd(c) gives primes(c) = (1/|c|) sum_{d | gcd(c)} mu(d) walks(c/d).
    Contents without walks, or without primes, are left out.  Raises
    RuntimeError beyond MAX_PRIMES primes, as soon as a length takes the
    total past it, and, before counting, past _deepest_walk(), the horizon
    of the walk searches.
    """
    _refuse_deeper(max_len)
    step, content_of = _content_codes(g, max_len)
    out = {v: [(e.dst, step[e.label]) for e in g.out_map[v]] for v in g.vertices}
    dists = {v: _return_distances(g, v, max_len, lambda u: True) for v in g.vertices}
    frontiers = {v: {v: {0: 1}} for v in g.vertices}
    walks, primes, total = {}, {}, 0
    for length in range(1, max_len + 1):
        closed, kept = {}, {}
        for start, frontier in frontiers.items():
            # a state stays only while its walk can still get back in time
            dist, left = dists[start], max_len - length
            reached = {}
            for v, codes in frontier.items():
                for dst, s in out[v]:
                    if dist.get(dst, max_len) > left:
                        continue
                    bucket = reached.setdefault(dst, {})
                    for code, n in codes.items():
                        bucket[code + s] = bucket.get(code + s, 0) + n
            if reached:
                kept[start] = reached
            for code, n in reached.get(start, {}).items():
                closed[code] = closed.get(code, 0) + n
        frontiers = kept
        for code, n in closed.items():
            content = content_of(code)
            walks[content] = n
            common = math.gcd(*content)
            count = sum(_mobius(d) * walks.get(tuple(k // d for k in content), 0)
                        for d in range(1, common + 1) if common % d == 0) // length
            if count:
                primes[content] = count
                total += count
        if total > MAX_PRIMES:
            raise RuntimeError(f"more than {MAX_PRIMES} primes below length {max_len}")
    return walks, primes


def _path_totals(g):
    """The planner's size cap: the numbers of directed paths of length <= L
    for L = 1..40, by sums of A^k 1 for the 0/1 adjacency A on ints; from
    the first total past 10^8 on, the list repeats that total."""
    paths, total, totals = dict.fromkeys(g.vertices, 1), 0, []
    for _ in range(40):
        if total <= 10 ** 8:
            paths = {v: sum(paths[e.dst] for e in es) for v, es in g.out_map.items()}
            total += sum(paths.values())
        totals.append(total)
    return totals


# sample points approach 1 because the S-weights 1-t and 1-1/t shrink there,
# pulling the walk matrix norm under 1 even for larger diagrams
_T0_CANDIDATES = (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(3, 4),
                  Fraction(4, 5), Fraction(5, 6), Fraction(9, 10),
                  Fraction(19, 20), Fraction(49, 50), Fraction(99, 100))


def _planned_horizon(g, totals, r):
    """The planner's horizon for the estimate r, or None where its rule
    rejects r: when r >= DIVERGENT, when no horizon up to 40 has its
    estimated tail at most TOLERANCE / 2, or when the first that does has
    more than 4 * 10^6 paths by totals, the _path_totals of g."""
    if r >= DIVERGENT:
        return None
    n = max(1, len(g.vertices))
    for horizon in range(2, 41):
        if n * r ** (horizon + 1) / ((horizon + 1) * (1 - r)) <= TOLERANCE / 2:
            return horizon if totals[horizon - 1] <= 4 * 10 ** 6 else None
    return None


def _plan_horizon(g, spec, t0):
    """Pick (t0, max_len, estimate at t0) so the estimated Euler tail drops
    below TOLERANCE, by the rule of _planned_horizon.  A t0 of None lets the
    planner try _T0_CANDIDATES in order and keep the first accepted, or
    return None where it accepts none; a given t0 is always kept, with a
    max_len of None where the rule rejects it.

    The path cap stays because it decides the plans: without it every cut
    of 5_1, 5_2, 6_1 and figure8 would get another (t0, max_len), 5_2 cut
    at arc 1 going from (9/10, 27) to (3/4, 40).

    The tail of log zeta past length L is at most sum_{m>L} tr(|W|^m)/m,
    approximated through the power-norm estimate r by
    n * r^(L+1) / ((L+1)(1-r)).  That is an estimate, not a bound:
    r = || |W|^16 ||^(1/16) bounds || |W|^m ||^(1/m) only when m is a
    multiple of 16.

    The estimate is the running maximum of the _row_sums, to the 1/16, once
    every row is read.  That maximum never falls, and the rule is monotone
    in r (a larger r has a larger tail at every horizon, so a first horizon
    no earlier, with no fewer paths), so a candidate is dropped at the
    first row whose running maximum the rule rejects, and the plan is that
    of estimating every candidate exactly.  A given t0 reads every row, so
    its estimate is spectral_estimate's, and it raises wherever that does.
    """
    screened = t0 is None
    totals = _path_totals(g)
    for t0 in _T0_CANDIDATES if screened else (Fraction(t0),):
        # the rule's horizon for the running maximum, decided at each rise
        peak, horizon = 0.0, _planned_horizon(g, totals, 0.0)
        for s in _row_sums(g, spec, t0):
            if s > peak:
                peak = s
                horizon = _planned_horizon(g, totals, peak ** (1.0 / 16))
                if screened and horizon is None:
                    break
        if horizon is not None or not screened:
            return t0, horizon, peak ** (1.0 / 16)
    return None


def determinant_formula_check(g, spec, t0=None, max_len=None):
    """Zeta equals 1/det(I - W): exact traces plus a numeric Euler product.

    One _plan_horizon call gives the spectral estimate at t0 and, when t0
    or max_len is unspecified, the missing one, so that the estimated tail
    falls below TOLERANCE.  It raises DiagramError first where det(I - W) is
    the zero polynomial (a split diagram), which no point or horizon serves.
    With no t0 given and no candidate planned, it raises DiagramError, a
    size limit like a non-finite estimate; with a given t0 that the rule
    rejects and no max_len, the verdict fails with that reason and the
    trace identity.  The verdict rests on the measured
    gap, not on the estimate.  At a convergent point the reported floats
    are those of the exact product, correctly rounded, and the comparison
    with TOLERANCE is exact; certified 80-digit decimal bounds settle them
    wherever they can, and the million-bit exact product is built only
    where they cannot (see _compare_product).

    One _prime_counts run, to the longer of TRACE_HORIZON and max_len,
    serves the trace identity and the product: it keeps every closed walk up
    to its horizon, so its tables hold those of a run at either.
    """
    determinant = tangle_determinant(g, spec)
    if not determinant:
        raise DiagramError("det(I - W) vanishes identically: "
                           "the zeta function 1/det(I - W) has no value")
    # a given t0 is tested before planning; a planned one cannot be a zero,
    # where W(t0) has eigenvalue 1 and the estimate is at least 1
    if t0 is not None:
        t0 = Fraction(t0)
        if determinant.evaluate(t0) == 0:
            raise ZeroDivisionError("det(I - W) vanishes at the sample point")
    plan = _plan_horizon(g, spec, t0)
    reason = "no sample point with a convergent, affordable horizon"
    if plan is None:
        raise DiagramError(reason)
    t0, planned_len, estimate = plan
    max_len = planned_len if max_len is None else max_len
    if max_len is None:
        trace = _trace_verdict(g, spec, TRACE_HORIZON, *_prime_counts(g, TRACE_HORIZON))
        return Verdict("determinant_formula", False,
                       {"reason": reason, "trace": trace.to_json()})
    target = 1 / determinant.evaluate(t0)
    _warn_if_divergent(estimate, t0)
    _refuse_deeper(max_len)
    walks, primes = _prime_counts(g, max(TRACE_HORIZON, max_len))
    trace = _trace_verdict(g, spec, TRACE_HORIZON, walks, primes)
    factors = _euler_factors(g, spec, t0, {c: n for c, n in primes.items() if sum(c) <= max_len})
    # on a divergent product the exact rationals grow without bound, so the
    # truncation is evaluated in log space instead; it cannot pass anyway
    if estimate >= DIVERGENT:
        partial = _log_product(factors)
        gap = abs(partial - float(target))
        close = False
    else:
        partial, gap, close = _compare_product(factors, target, TOLERANCE)
    ok = trace.passed and close
    # convergence is a numeric statement, so the report is numeric
    return Verdict("determinant_formula", ok, {
        "t0": str(t0), "max_len": max_len, "spectral_estimate": estimate,
        "partial_product": partial, "inverse_determinant": float(target),
        "gap": gap, "tolerance": TOLERANCE,
        "trace": trace.to_json()})


# -- path-sum lemma ----------------------------------------------------------


# the good sample points that one path-sum check verifies
PATH_SUM_SAMPLES = 20


# every path-sum check of a verify pass asks for the same draw
@functools.lru_cache(maxsize=1)
def sample_points(count, seed):
    """Deterministic distinct nonzero rational sample points, as a tuple."""
    rng = random.Random(seed)
    out, seen = [], set()
    while len(out) < count:
        t0 = Fraction(rng.randint(-24, 24), rng.randint(1, 12))
        if t0 and t0 not in seen:
            seen.add(t0)
            out.append(t0)
    return tuple(out)


def _strand_system(tangle, init, term):
    """(col, I - W, into) for the walks of a one-strand tangle from init to
    term != init, over the vertices other than term: col is init's position
    among them and into[i] the one-step weight from the i-th into term."""
    g = build_arc_graph(tangle)
    spec = alexander_spec()
    keep = [v for v in g.vertices if v != term]
    # term has no out-edges, so none of its in-edges is a self-loop
    weight = {e.src: spec[e.label] for e in g.in_map[term]}
    zero = LaurentPoly.zero()
    into = [weight.get(v, zero) for v in keep]
    return keep.index(init), tangle_matrix(g, spec, keep), into


def total_strand_weight(tangle, t0):
    """Exact total weight of all walks from the strand's start to its end.

    Solves (I - W(t0)) x = b over the vertices other than the terminal one,
    where b collects the one-step weights into the terminal; the value at the
    initial vertex is the walk sum by the usual geometric-series argument.
    Returns None when the system is singular at this sample.
    """
    init, term = tangle.strand_pair()
    if init == term:
        return Fraction(1)
    col, inner, into = _strand_system(tangle, init, term)
    t0 = Fraction(t0)
    solution = rational_solve(inner.evaluate(t0), [w.evaluate(t0) for w in into])
    if solution is None:
        return None
    return solution[col]


def strand_walk_sum(tangle):
    """The walk sum across a one-strand tangle as a ratio (N, D) of Laurent
    polynomials.

    The system of total_strand_weight, solved once symbolically by Cramer's
    rule: D = det(I - W) over the vertices other than the terminal one, and N
    is the same determinant with the initial vertex's column replaced by the
    one-step weights into the terminal.  Both come from one fraction-free
    elimination (laurent.column_replaced_dets).  At any t0 with D(t0) != 0
    the walk sum is N(t0) / D(t0), and D(t0) = 0 exactly where the solve is
    singular.
    """
    init, term = tangle.strand_pair()
    if init == term:
        one = LaurentPoly.one()
        return one, one
    col, inner, into = _strand_system(tangle, init, term)
    den, num = column_replaced_dets(inner, col, into)
    return num, den


def _root_screen(poly):
    """A test of nonzero rational points that is False only where the nonzero
    rational polynomial poly cannot vanish.

    By the rational root theorem, a/b in lowest terms is a root only if a
    divides the lowest coefficient and b the highest, once the coefficients
    are cleared of denominators.
    """
    c = poly.coeffs
    m = math.lcm(*(v.denominator for v in c.values()))
    lo, hi = int(c[poly.min_exp()] * m), int(poly.leading() * m)
    return lambda t0: not (lo % t0.numerator or hi % t0.denominator)


def path_sum_check(tangle, seed):
    """The walk sum across a one-strand tangle is 1 at PATH_SUM_SAMPLES good
    samples.

    The samples are drawn by sample_points from seed; singular ones are
    reported and replaced, up to 3 * PATH_SUM_SAMPLES draws.  The walk sum
    is also compared with 1 as a ratio of Laurent polynomials (N == D),
    which no choice of samples can miss; only a mismatch adds a failure
    entry.  Where N and D are the same polynomial, N(t0) is D(t0), so only
    D's zeros matter: D is evaluated only at samples that _root_screen does
    not rule out, and it decides whether they are skipped or verified.
    Raises DiagramError where D is the zero polynomial (a split diagram,
    whose closed component's rows of W sum to 1): the walk sum then has no
    value at any t0.
    """
    num, den = strand_walk_sum(tangle)
    if not den:
        raise DiagramError("det(I - W) off the terminal vanishes identically: "
                           "the walk sum has no value")
    same = num == den
    may_vanish = _root_screen(den)
    verified = []
    skipped = []
    failures = []
    for t0 in sample_points(3 * PATH_SUM_SAMPLES, seed):
        if len(verified) == PATH_SUM_SAMPLES:
            break
        if same and not may_vanish(t0):
            verified.append(str(t0))
            continue
        den_value = den.evaluate(t0)
        if den_value == 0:
            skipped.append(str(t0))
            continue
        if not same:
            value = num.evaluate(t0) / den_value
            if value != 1:
                failures.append({"t0": str(t0), "value": str(value)})
        verified.append(str(t0))
    if not same:
        failures.append({"exact": "walk sum", "difference": str(num - den)})
    passed = not failures and len(verified) == PATH_SUM_SAMPLES
    return Verdict("path_sum", passed,
                   {"verified": verified, "skipped": skipped, "failures": failures})


# -- composition and cabling -------------------------------------------------


def composition_check(t1, t2, factor_dets=None):
    """det(I - W) is multiplicative under strand composition, exactly.

    factor_dets maps a tangle to its determinant; a factor missing there is
    computed and added.  So (t, t) computes it once, and a caller checking
    many pairs passes one dict to all of them.
    """
    spec = alexander_spec()
    left = tangle_determinant(build_arc_graph(compose_tangles(t1, t2)), spec)
    dets = {} if factor_dets is None else factor_dets
    for t in (t1, t2):
        if t not in dets:
            dets[t] = tangle_determinant(build_arc_graph(t), spec)
    right = dets[t1] * dets[t2]
    return Verdict("composition", left == right,
                   {"composite": str(left), "product": str(right)})


# sample points u of the cabling check unless the caller chooses others
CABLE_SAMPLES = (Fraction(1, 2), Fraction(2, 3))


def cabling_check(tangle, n, samples):
    """The n-cable's determinant in u matches the original's at t = u^n.

    Checked as exact rational equality at each sample point u, and as an
    identity of Laurent polynomials, which no choice of samples can miss.
    An order below 1 or a zero sample raises ValueError, not DiagramError:
    the arguments are at fault, not the diagram.
    """
    if n < 1:
        raise ValueError("cable order must be positive")
    spec = alexander_spec()
    det_orig = tangle_determinant(build_arc_graph(tangle), spec)
    det_cable = tangle_determinant(build_arc_graph(cable(tangle, n)), spec)
    failures = []
    checked = []
    for u in samples:
        u = Fraction(u)
        if u == 0:
            raise ValueError("sample points must be nonzero")
        lhs = det_cable.evaluate(u)
        rhs = det_orig.evaluate(u ** n)
        checked.append(str(u))
        if lhs != rhs:
            failures.append({"u": str(u), "cable": str(lhs), "original": str(rhs)})
    difference = det_cable - det_orig.substitute_power(n)
    if difference:
        failures.append({"exact": f"t = u^{n}", "difference": str(difference)})
    return Verdict("cabling", not failures,
                   {"n": n, "samples": checked, "failures": failures,
                    "cable_poly": str(det_cable), "original_poly": str(det_orig)})
