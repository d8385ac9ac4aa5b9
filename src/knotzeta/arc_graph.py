"""The weighted directed graph on the arcs of a diagram or tangle.

Every crossing contributes two edges out of its incoming under arc: a
go-under edge to the outgoing under arc and a jump-up edge to the over arc.
Edge labels T1/T2 (go-under at a positive/negative crossing) and S1/S2
(jump-up) stay symbolic until a weight specialization, a dict from label
to Laurent polynomial over Q, is applied, after which weight matrices and
Laplacians live over exact Laurent polynomials.  Prime fields enter only
in the twisted layer.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property

from .knot_model import DiagramError, KnotDiagram, Tangle
from .laurent import CoefficientError, LaurentPoly, RingMatrix, _same_domain, det, \
    linear_combination

LABELS = ("T1", "T2", "S1", "S2")


class GraphEdge(namedtuple("GraphEdge", "src dst label")):
    """A directed edge src -> dst with its symbolic label, as an immutable
    tuple of the three."""

    __slots__ = ()


class ArcGraph(namedtuple("ArcGraph", "vertices edges")):
    """Arc diagram of a tangle: one vertex per arc and two out-edges per
    underpass, with cached views of them: the vertex index and the out- and
    in-edges of every vertex, in edge order.

    An immutable tuple of vertices and edges.  The views are kept in the
    instance dict, which cached_property writes directly; every other
    attribute assignment raises."""

    def __setattr__(self, *a):
        raise AttributeError("ArcGraph is immutable")

    @cached_property
    def index(self):
        """{vertex: its position in vertices}."""
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def out_map(self):
        out = {v: [] for v in self.vertices}
        for e in self.edges:
            out[e.src].append(e)
        return {v: tuple(es) for v, es in out.items()}

    @cached_property
    def in_map(self):
        into = {v: [] for v in self.vertices}
        for e in self.edges:
            into[e.dst].append(e)
        return {v: tuple(es) for v, es in into.items()}

    def vertex_index(self, v):
        try:
            return self.index[v]
        except KeyError:
            raise DiagramError(f"unknown vertex {v!r}") from None


def build_arc_graph(source):
    """Arc graph of a KnotDiagram or Tangle.

    Per crossing (sign e, over j, under_in i, under_out k): edge i->k labeled
    T1 (e=+) or T2, and edge i->j labeled S1 or S2.  Terminal cut arcs are
    never an under_in, so they emit nothing.  No arc ends at two crossings,
    so only a crossing with over == under_out (a kink) can repeat an ordered
    pair; it is rejected: the cycle combinatorics downstream assume at most
    one edge per pair.
    """
    if not isinstance(source, (KnotDiagram, Tangle)):
        raise TypeError(f"expected KnotDiagram or Tangle, got {type(source).__name__}")
    edges = []
    for c in source.crossings:
        if c.over == c.under_out:
            raise DiagramError(
                f"two edges on ordered pair {(c.under_in, c.over)}: diagram too degenerate "
                "for the one-edge-per-pair convention")
        t_label, s_label = ("T1", "S1") if c.sign > 0 else ("T2", "S2")
        edges += (GraphEdge(c.under_in, c.under_out, t_label),
                  GraphEdge(c.under_in, c.over, s_label))
    return ArcGraph(tuple(source.arcs), tuple(edges))


def alexander_spec():
    """The specialization t1=t, t2=1/t, s1=1-t, s2=1-1/t, as a label ->
    weight dict.

    This is the unique assignment with row sum t^e + (1-t^e) = 1 at every
    crossing, and it makes I - W coincide with the abelianized Fox matrix.
    """
    t = LaurentPoly({1: 1})
    t_inv = LaurentPoly({-1: 1})
    one = LaurentPoly.one()
    return {"T1": t, "T2": t_inv, "S1": one - t, "S2": one - t_inv}


def constant_spec(value=1):
    """All four labels mapped to one constant; weight 1 counts walks."""
    return dict.fromkeys(LABELS, LaurentPoly({0: value}))


def _check_weights(g, spec):
    """Refuse, with CoefficientError, a weight of a label on g's edges that
    is not a LaurentPoly over Q; each label is checked once."""
    for label in dict.fromkeys(e.label for e in g.edges):
        w = spec[label]
        if not isinstance(w, LaurentPoly):
            raise CoefficientError(f"Laurent polynomial weight expected, got {type(w).__name__}")
        _same_domain(None, w.modulus)


def weight_matrix(g, spec):
    """Adjacency-style matrix W with W[u][v] = weight of the edge u -> v."""
    _check_weights(g, spec)
    index = g.index
    zero = LaurentPoly.zero()
    n = len(index)
    rows = [[zero] * n for _ in range(n)]
    for e in g.edges:
        i, j = index[e.src], index[e.dst]
        assert rows[i][j].is_zero(), "duplicate edge survived construction"
        rows[i][j] = spec[e.label]
    return RingMatrix(rows, cols=n)


def _diagonal_minus_weights(g, spec, vertices, diagonal):
    """D - W over the given vertices from the edge list, D the diagonal
    matrix of `diagonal`.  Entries off the diagonal and the edges are one
    shared zero, and each label's negated weight is built once."""
    index = {v: i for i, v in enumerate(vertices)}
    zero = LaurentPoly.zero()
    n = len(vertices)
    rows = [[zero] * n for _ in range(n)]
    for i, d in enumerate(diagonal):
        rows[i][i] = d
    negated = {}
    for e in g.edges:
        i, j = index.get(e.src), index.get(e.dst)
        if i is None or j is None:
            continue
        if i == j:
            rows[i][i] = rows[i][i] - spec[e.label]
            continue
        assert rows[i][j] is zero, "duplicate edge survived construction"
        if e.label not in negated:
            negated[e.label] = -spec[e.label]
        rows[i][j] = negated[e.label]
    return RingMatrix(rows, cols=n)


def laplacian(g, spec, roots):
    """Out-degree Laplacian with the root rows and columns deleted.

    L[v][v] is the total weight leaving v (less a self-loop's weight) and
    L[u][v] the negated edge weight, so every row sums to zero before any
    deletion.  Built from the edge list over the vertices that are not roots.
    """
    for r in roots:
        g.vertex_index(r)  # raises on an unknown root
    _check_weights(g, spec)
    drop = set(roots)
    keep = [v for v in g.vertices if v not in drop]
    totals = [linear_combination(((1, spec[e.label]) for e in g.out_map[v]), None)
              for v in keep]
    return _diagonal_minus_weights(g, spec, keep, totals)


def tangle_matrix(g, spec, vertices=None):
    """I - W over the chosen vertices (defaults to all of them), built from
    the edge list: the diagonal is 1, or 1 - w under a self-loop of weight w,
    and each edge u -> v between chosen vertices puts -w at (u, v)."""
    if vertices is None:
        vertices = g.vertices
    _check_weights(g, spec)
    one = LaurentPoly.one()
    return _diagonal_minus_weights(g, spec, vertices, [one] * len(vertices))


def tangle_determinant(g, spec):
    """det(I - W) over the full vertex set.

    For a one-strand tangle the initial vertex has no in-edges and the
    terminal vertex no out-edges, so this equals the determinant over the
    internal vertices alone; for an uncut diagram it is identically zero.
    """
    return det(tangle_matrix(g, spec))
