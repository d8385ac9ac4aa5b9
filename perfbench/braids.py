"""Braid-closure knot diagrams and their closed-form Alexander polynomials.

A braid word is a list of nonzero integers on n strands: g > 0 is the
generator sigma_g, in which the strand at position g crosses over the strand
at g + 1, and g < 0 is its inverse, in which it crosses under.  The closure
is traced as one oriented curve; arcs break at underpasses and are numbered
1, 2, ... in the order the curve meets them, which is the consecutive
numbering `knotzeta.parse_diagram` requires.

The closed forms are computed here with plain integer lists, independently
of the package's Laurent arithmetic, so they can serve as oracles for it.
"""

from __future__ import annotations


def _passages(n_strands, word):
    """The crossings the closure meets, in curve order, as (letter, over)."""
    for g in word:
        if not 1 <= abs(g) < n_strands:
            raise ValueError(f"generator {g} outside 1..{n_strands - 1}")
    passages = []
    pos = 1
    while True:
        for k, g in enumerate(word):
            i = abs(g)
            if pos == i:
                passages.append((k, g > 0))
                pos = i + 1
            elif pos == i + 1:
                passages.append((k, g < 0))
                pos = i
        if pos == 1:
            break
    if len(passages) != 2 * len(word):
        raise ValueError("braid closure has more than one component")
    return passages


def closure_text(n_strands, word):
    """Diagram text for the closure of a braid whose closure is a knot."""
    if not word:
        raise ValueError("empty braid word")
    passages = _passages(n_strands, word)
    # start the numbering just after an underpass so every arc is whole
    first = next(j for j, (_, over) in enumerate(passages) if not over)
    passages = passages[first + 1:] + passages[:first + 1]
    over_arc, under_in = {}, {}
    arc = 1
    for k, over in passages:
        if over:
            over_arc[k] = arc
        else:
            under_in[k] = arc
            arc += 1
    n_arcs = arc - 1
    lines = [f"# closure of the {n_strands}-braid {' '.join(map(str, word))}"]
    for k, g in enumerate(word):
        # every strand runs the same way, so the sign follows the letter
        mark = "X+" if g > 0 else "X-"
        out = under_in[k] % n_arcs + 1
        lines.append(f"{mark} {over_arc[k]} {under_in[k]} {out}")
    return "\n".join(lines) + "\n"


def rotate(word, k):
    """A cyclic rotation of a braid word: a conjugate, with the same closure."""
    k %= len(word)
    return word[k:] + word[:k]


# -- families -----------------------------------------------------------------


def torus_word(p, q):
    """(sigma_1 ... sigma_{p-1})^q on p strands: the torus knot T(p, q)."""
    return list(range(1, p)) * q


def twist_word(m):
    """(strands, word): a braid for the twist knot with m >= 1 half-twists.

    m = 1..6 give the standard braid words of 3_1, 4_1, 5_2, 6_1, 7_2 and
    8_1; larger m extend the same pattern, checked here only through the
    closed-form Alexander polynomial.
    """
    if m < 1:
        raise ValueError("a twist knot needs at least one half-twist")
    if m % 2:
        word = [1, 1, 1]
        for j in range(1, (m + 1) // 2):
            word += [j + 1, -j, j + 1]
        return (m + 3) // 2, word
    k = m // 2
    if k == 1:
        return 3, [1, -2, 1, -2]
    word = [1, 1, 2, -1]
    for j in range(2, k):
        word += [j, j + 1, -j]
    word += [-(k + 1), k, -(k + 1)]
    return k + 2, word


# -- closed forms, as {exponent: coefficient} with least exponent 0 --------------


def _mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _div_exact(a, b):
    """a / b for integer coefficient lists (lowest degree first), b monic."""
    a = list(a)
    q = [0] * (len(a) - len(b) + 1)
    for i in range(len(q) - 1, -1, -1):
        c = a[i + len(b) - 1]
        q[i] = c
        for j, y in enumerate(b):
            a[i + j] -= c * y
    if any(a):
        raise ArithmeticError("division left a remainder")
    return q


def _as_dict(coeffs):
    return {e: c for e, c in enumerate(coeffs) if c}


def torus_alexander(p, q):
    """(t^pq - 1)(t - 1) / ((t^p - 1)(t^q - 1)), for coprime p, q."""
    def t_minus_one(k):
        return [-1] + [0] * (k - 1) + [1]
    num = _mul(t_minus_one(p * q), t_minus_one(1))
    den = _mul(t_minus_one(p), t_minus_one(q))
    return _as_dict(_div_exact(num, den))


def twist_alexander(m):
    """k t^2 - (2k + 1) t + k for m = 2k, and k t^2 - (2k - 1) t + k for m = 2k - 1."""
    k = (m + 1) // 2
    middle = 2 * k + 1 if m % 2 == 0 else 2 * k - 1
    return {0: k, 1: -middle, 2: k}


def determinant(poly):
    """|Delta(-1)|, the knot determinant."""
    return abs(sum(c * (-1) ** e for e, c in poly.items()))
