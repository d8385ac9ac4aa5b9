"""Oriented knot and link diagrams, open tangles, and diagram surgery.

A diagram is combinatorial: arcs are numbered 1..n consecutively along the
orientation of each component, and every crossing records its sign, the over
arc, and the under arc before and after the crossing.  Arcs break only at
underpasses, so an arc may pass over any number of crossings, and a closed
component with no underpass is a single circle arc.

Tangles are diagrams with some arcs cut open; their arcs carry string labels
and each open strand is recorded as an (initial, terminal) pair.  Cutting,
composing along strands, cabling, and closing back up are all provided here,
as is the Wirtinger presentation of a diagram's group.

Every under strand is read one way: `_successors` maps each crossing's
under_in to its under_out, refusing an arc that ends or starts at two
crossings, and `_strand` walks that map.
"""

from __future__ import annotations

from collections import namedtuple


class DiagramError(ValueError):
    """Raised for structurally invalid diagrams, tangles, or diagram text."""


# the most arcs that a parsed diagram or a cable may have; the matrices of
# every invariant are dense in the arcs, and the largest diagram in use, a
# corpus cable, has 57
MAX_ARCS = 1000


def _refuse_arcs(what, count):
    if count > MAX_ARCS:
        raise DiagramError(f"{what} has {count} arcs, more than the {MAX_ARCS} supported")


def _arc_number(field, lineno):
    """int(field) for an arc number or count.  A decimal field, with one
    optional sign, is read from its digits after the leading zeros, and
    refused when it has more of them than MAX_ARCS: int() refuses strings of
    more than 4300 digits, leading zeros included, with a message of its
    own."""
    body = field[1:] if field.startswith(("+", "-")) else field
    if body.isdecimal():
        digits = body.lstrip("0")
        if len(digits) > len(str(MAX_ARCS)):
            raise DiagramError(f"line {lineno}: an arc number of {len(digits)} digits, "
                               f"more than the {MAX_ARCS} supported")
        n = int(digits or 0)
        return -n if field.startswith("-") else n
    try:
        return int(field)
    except ValueError:
        raise DiagramError(f"line {lineno}: arc numbers must be integers") from None


def _successors(crossings):
    """{under_in: under_out} over the crossings: the successor map of the
    under strands.  An arc that ends or starts at two crossings is refused,
    so the map is one to one."""
    succ, starts = {}, set()
    for c in crossings:
        if c.under_in in succ:
            raise DiagramError(f"arc {c.under_in!r} ends at two crossings")
        if c.under_out in starts:
            raise DiagramError(f"arc {c.under_out!r} starts at two crossings")
        succ[c.under_in] = c.under_out
        starts.add(c.under_out)
    return succ


def _strand(succ, start):
    """The arcs from start along the under strand of the successor map succ,
    up to an arc without a successor (the end of an open strand, or a circle
    arc) or up to the arc whose successor is start (a closed component)."""
    walk = [start]
    while (nxt := succ.get(walk[-1], start)) != start:
        walk.append(nxt)
    return walk


class Crossing(namedtuple("Crossing", "sign over under_in under_out")):
    """One crossing of a diagram: an immutable tuple of its four fields.

    `sign` is the int 1 or -1.  `under_out` continues the under strand after
    the crossing, so in a closed diagram it is the orientation successor of
    `under_in`.  A reduced kink can legitimately repeat one arc in all three
    roles.
    """

    __slots__ = ()

    def __new__(cls, sign, over, under_in, under_out):
        if type(sign) is not int or sign not in (1, -1):
            raise DiagramError(f"crossing sign must be the int 1 or -1, got {sign!r}")
        return tuple.__new__(cls, (sign, over, under_in, under_out))

    def relabel(self, mapping):
        return Crossing(self.sign, mapping[self.over], mapping[self.under_in],
                        mapping[self.under_out])


class KnotDiagram(namedtuple("KnotDiagram", "n_arcs crossings components")):
    """A closed oriented diagram with arcs 1..n_arcs: an immutable tuple of
    n_arcs, crossings and components, built from the first two.

    `n_arcs` is an int >= 1.  Crossings are kept sorted by `under_in`, which
    is unique per crossing, so equal diagrams compare equal regardless of
    input order.  `components` lists the arc ranges (start, end) of the link
    components, the `_strand` walks of the successor map.
    """

    __slots__ = ()

    def __new__(cls, n_arcs, crossings):
        if type(n_arcs) is not int or n_arcs < 1:
            raise DiagramError(f"a diagram needs an int count of arcs >= 1, got {n_arcs!r}")
        for c in crossings:
            for a in (c.over, c.under_in, c.under_out):
                if type(a) is not int or not 1 <= a <= n_arcs:
                    raise DiagramError(f"arc reference {a!r} outside 1..{n_arcs}")
        crossings = tuple(sorted(crossings, key=lambda c: c.under_in))
        succ = _successors(crossings)
        stray = succ.keys() ^ set(succ.values())
        if stray:
            raise DiagramError(f"under strand does not close up at arcs {sorted(stray)}")
        # a component is a cycle of succ or a circle arc, numbered consecutively
        blocks, a = [], 1
        while a <= n_arcs:
            walk = _strand(succ, a)
            for cur, nxt in zip(walk, walk[1:]):
                if nxt != cur + 1:
                    raise DiagramError(
                        f"arcs are not numbered consecutively: {cur} is followed by {nxt}")
            blocks.append((a, walk[-1]))
            a = walk[-1] + 1
        return tuple.__new__(cls, (n_arcs, crossings, tuple(blocks)))

    def __getnewargs__(self):
        """The arguments of __new__, so that copy and pickle rebuild it."""
        return self.n_arcs, self.crossings

    @property
    def arcs(self):
        return range(1, self.n_arcs + 1)

    def is_knot(self):
        return len(self.components) == 1


# -- text format -------------------------------------------------------------
#
#   arcs 3
#   X+ 3 1 2        # sign, over, under_in, under_out
#   X+ 1 2 3 / X+ 2 3 1
#
# '#' starts a comment, '/' separates crossings on one line.  The arcs
# directive is optional when every arc meets an underpass, and required to
# express circle components.


def parse_diagram(text):
    """Parse diagram text into a KnotDiagram."""
    declared = None
    crossings = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        for chunk in line.split("/"):
            fields = chunk.split()
            if not fields:
                raise DiagramError(f"line {lineno}: empty crossing between separators")
            if fields[0] == "arcs":
                if declared is not None:
                    raise DiagramError(f"line {lineno}: repeated arcs directive")
                if len(fields) != 2 or not fields[1].isdigit():
                    raise DiagramError(f"line {lineno}: expected 'arcs <count>'")
                declared = _arc_number(fields[1], lineno)
                continue
            if fields[0] not in ("X+", "X-"):
                raise DiagramError(f"line {lineno}: expected 'X+' or 'X-', got {fields[0]!r}")
            if len(fields) != 4:
                raise DiagramError(f"line {lineno}: a crossing takes three arc numbers")
            over, under_in, under_out = (_arc_number(f, lineno) for f in fields[1:])
            sign = 1 if fields[0] == "X+" else -1
            crossings.append(Crossing(sign, over, under_in, under_out))
    if declared is None:
        if not crossings:
            raise DiagramError("no crossings and no arcs directive")
        declared = max(max(c.over, c.under_in, c.under_out) for c in crossings)
    _refuse_arcs("the diagram", declared)
    return KnotDiagram(declared, tuple(crossings))


def render_diagram(diagram):
    """Canonical text for a diagram: arcs line, then crossings by under_in."""
    lines = [f"arcs {diagram.n_arcs}"]
    for c in diagram.crossings:
        mark = "X+" if c.sign > 0 else "X-"
        lines.append(f"{mark} {c.over} {c.under_in} {c.under_out}")
    return "\n".join(lines) + "\n"


# -- Wirtinger presentation ---------------------------------------------------


class Presentation(namedtuple("Presentation", "generators relators")):
    """Finitely presented group: one generator per arc, one relator per
    crossing; an immutable tuple of the two.  A relator is a group word, a
    tuple of (generator, exponent) letters with exponent +-1."""

    __slots__ = ()


def wirtinger_presentation(diagram):
    """Arc generators with the crossing relations of the diagram group.

    Each crossing with over arc j, incoming under arc i, outgoing under arc k
    and sign e contributes the relator  x_i x_j^e x_k^-1 x_j^-e,  stating that
    conjugation by the over generator carries the under strand across.
    Relators follow the crossing order (sorted by under_in).
    """
    relators = []
    for c in diagram.crossings:
        e = c.sign
        relators.append((
            (c.under_in, 1),
            (c.over, e),
            (c.under_out, -1),
            (c.over, -e),
        ))
    return Presentation(tuple(diagram.arcs), tuple(relators))


# -- tangles ------------------------------------------------------------------


class Tangle(namedtuple("Tangle", "arcs crossings cut_pairs")):
    """A diagram cut open along some arcs: an immutable tuple of its arc
    labels, its crossings and its (initial, terminal) cut pairs.

    Arc labels are strings.  Each cut produces an (initial, terminal) pair of
    half-arcs: the initial half keeps the cut arc's underpass exit (its
    under_in role) and the terminal half keeps its entrance (under_out role)
    together with every overpass of the cut arc.  A cut circle arc collapses
    to a single half with initial == terminal.  Each strand is the `_strand`
    walk of the successor map from its initial arc.
    """

    __slots__ = ()

    def __new__(cls, arcs, crossings, cut_pairs):
        arcset = set(arcs)
        if len(arcset) != len(arcs):
            raise DiagramError("duplicate arc labels in tangle")
        if not cut_pairs:
            raise DiagramError("a tangle needs at least one cut pair")
        for c in crossings:
            for a in (c.over, c.under_in, c.under_out):
                if a not in arcset:
                    raise DiagramError(f"crossing references unknown arc {a!r}")
        succ = _successors(crossings)
        exits = set(succ.values())
        inits = [p for p, _ in cut_pairs]
        terms = [q for _, q in cut_pairs]
        if len(set(inits)) != len(inits) or len(set(terms)) != len(terms):
            raise DiagramError("cut pairs reuse an endpoint")
        on_strand = set()
        for p, q in cut_pairs:
            if p not in arcset or q not in arcset:
                raise DiagramError(f"cut pair ({p!r}, {q!r}) references unknown arcs")
            if p in exits:
                raise DiagramError(f"initial arc {p!r} exits a crossing")
            if q in succ:
                raise DiagramError(f"terminal arc {q!r} enters a crossing")
            # nothing exits into p and succ is one to one, so the walk ends
            walk = _strand(succ, p)
            if walk[-1] != q:
                raise DiagramError(f"strand from {p!r} ends at {walk[-1]!r}, not {q!r}")
            on_strand.update(walk)
        for a in sorted(arcset - on_strand):
            if (a in succ) != (a in exits):
                raise DiagramError(f"arc {a!r} is neither on a strand nor on a closed loop")
        return tuple.__new__(cls, (arcs, crossings, cut_pairs))

    def strand_pair(self):
        if len(self.cut_pairs) != 1:
            raise DiagramError("tangle has more than one open strand")
        return self.cut_pairs[0]


def cut(diagram, cut_arcs):
    """Open the diagram along the given arcs.

    Every cut arc a splits at a point past all of its overpasses: the initial
    half "a'" starts the strand and inherits the underpass that a entered,
    while the terminal half "a''" ends the strand and inherits a's underpass
    exit and every crossing a passed over.  A circle arc yields one half "a'"
    paired with itself.
    """
    chosen = sorted(set(cut_arcs))
    if not chosen:
        raise DiagramError("cut needs at least one arc")
    for a in chosen:
        if a not in diagram.arcs:
            raise DiagramError(f"cannot cut unknown arc {a!r}")
    # a circle arc is the under_in of no crossing
    circle = set(chosen) - _successors(diagram.crossings).keys()

    def as_in(a):
        return f"{a}'" if a in chosen else str(a)

    def as_out(a):
        if a in circle:
            return f"{a}'"
        return f"{a}''" if a in chosen else str(a)

    arcs = [str(a) for a in diagram.arcs if a not in chosen]
    pairs = []
    for a in chosen:
        arcs.append(f"{a}'")
        if a in circle:
            pairs.append((f"{a}'", f"{a}'"))
        else:
            arcs.append(f"{a}''")
            pairs.append((f"{a}'", f"{a}''"))
    crossings = tuple(
        Crossing(c.sign, as_out(c.over), as_in(c.under_in), as_out(c.under_out))
        for c in diagram.crossings)
    return Tangle(tuple(sorted(arcs)), crossings, tuple(pairs))


def compose_tangles(t1, t2):
    """Join two one-strand tangles end to start.

    The terminal arc of t1 fuses with the initial arc of t2 into one arc; the
    composite runs from t1's initial arc to t2's terminal arc.  Labels gain
    "L:" and "R:" prefixes so the two sides stay disjoint.  A composite of
    more than MAX_ARCS arcs is refused before it is built.
    """
    i1, q1 = t1.strand_pair()
    i2, q2 = t2.strand_pair()
    _refuse_arcs("the composite", len(t1.arcs) + len(t2.arcs) - 1)
    fused = f"L:{q1}"
    map1 = {a: f"L:{a}" for a in t1.arcs}
    map2 = {a: (fused if a == i2 else f"R:{a}") for a in t2.arcs}
    arcs = tuple(sorted(set(map1.values()) | set(map2.values())))
    crossings = tuple(c.relabel(map1) for c in t1.crossings)
    crossings += tuple(c.relabel(map2) for c in t2.crossings)
    return Tangle(arcs, crossings, ((map1[i1], map2[q2]),))


def split_union(d1, d2):
    """Disjoint union of two diagrams, the second renumbered above the first."""
    shift = d1.n_arcs
    moved = tuple(
        Crossing(c.sign, c.over + shift, c.under_in + shift, c.under_out + shift)
        for c in d2.crossings)
    return KnotDiagram(d1.n_arcs + d2.n_arcs, d1.crossings + moved)


def close_tangle(tangle):
    """Rejoin every open strand of a tangle into a closed diagram.

    Each terminal arc fuses back onto its initial arc; closed components are
    then renumbered consecutively, ordered by their smallest label.
    """
    fuse = {}
    for p, q in tangle.cut_pairs:
        if q != p:
            fuse[q] = p
    mapping = {a: fuse.get(a, a) for a in tangle.arcs}
    crossings = [c.relabel(mapping) for c in tangle.crossings]
    labels = sorted(set(mapping.values()))
    succ = _successors(crossings)
    number = {}
    for a in labels:
        if a not in number:
            for b in _strand(succ, a):
                number[b] = len(number) + 1
    renum = tuple(c.relabel(number) for c in crossings)
    return KnotDiagram(len(labels), renum)


def connected_sum(d1, d2):
    """Connected sum of two diagrams, each opened along its highest-numbered
    arc."""
    return close_tangle(compose_tangles(cut(d1, [d1.n_arcs]), cut(d2, [d2.n_arcs])))


def cable(tangle, n):
    """Replace the single open strand of a tangle by n parallel copies.

    Copy m of arc a is labelled "a|m".  Where the strand passes under a
    crossing, each copy crosses under all n copies of the over arc in turn,
    through fresh segment arcs "a|m.l"; the crossing sign is kept each time.
    A tangle with an arc off the strand, on a closed component, is refused,
    and so is a cable of more than MAX_ARCS arcs, before it is built.
    """
    if type(n) is not int or n < 1:
        raise DiagramError(f"cable order must be a positive int, got {n!r}")
    init, term = tangle.strand_pair()
    strand = _strand(_successors(tangle.crossings), init)
    off = sorted(set(tangle.arcs) - set(strand))
    if off:
        raise DiagramError(f"cabling copies the open strand only; arcs {off} "
                           "lie on closed components")
    _refuse_arcs(f"the {n}-cable", len(tangle.arcs) * n + len(tangle.crossings) * n * (n - 1))
    arcs = [f"{a}|{m}" for a in tangle.arcs for m in range(1, n + 1)]
    arcs += [f"{c.under_in}|{m}.{l}"
             for c in tangle.crossings
             for m in range(1, n + 1) for l in range(1, n)]
    crossings = []
    for c in tangle.crossings:
        i, j, k = c.under_in, c.over, c.under_out
        for m in range(1, n + 1):
            for l in range(1, n + 1):
                src = f"{i}|{m}" if l == 1 else f"{i}|{m}.{l - 1}"
                dst = f"{i}|{m}.{l}" if l < n else f"{k}|{m}"
                crossings.append(Crossing(c.sign, f"{j}|{l}", src, dst))
    pairs = tuple((f"{init}|{m}", f"{term}|{m}") for m in range(1, n + 1))
    return Tangle(tuple(sorted(arcs)), tuple(crossings), pairs)
