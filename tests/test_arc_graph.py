"""Arc graph construction and the weight matrices built on it."""

from fractions import Fraction

import pytest

from knotzeta.arc_graph import alexander_spec, build_arc_graph, constant_spec, \
    laplacian, tangle_determinant, tangle_matrix, weight_matrix
from knotzeta.knot_model import DiagramError, cut, parse_diagram
from knotzeta.laurent import CoefficientError, LaurentPoly, RingMatrix, det


def test_two_edges_per_crossing(trefoil):
    g = build_arc_graph(trefoil)
    assert g.vertices == (1, 2, 3)
    assert len(g.edges) == 2 * len(trefoil.crossings)
    labels = {e.label for e in g.edges}
    assert labels == {"T1", "S1"}


def test_edge_targets(trefoil):
    g = build_arc_graph(trefoil)
    # crossing (over 1, under_in 2, under_out 3): go-under 2->3, jump-up 2->1
    assert [(e.dst, e.label) for e in g.out_map[2]] == [(3, "T1"), (1, "S1")]


def test_negative_crossing_labels(figure8):
    g = build_arc_graph(figure8)
    labels = {e.label for e in g.edges}
    assert labels == {"T1", "T2", "S1", "S2"}


def test_vertex_index_follows_the_vertex_order(corpus):
    # one cached {vertex: position} per graph, which vertex_index reads
    for d in corpus.values():
        for g in (build_arc_graph(d), build_arc_graph(cut(d, [d.arcs[-1]]))):
            assert list(g.index.items()) == [(v, i) for i, v in enumerate(g.vertices)]
            assert g.index is g.index
            assert [g.vertex_index(v) for v in g.vertices] == list(range(len(g.vertices)))
            with pytest.raises(DiagramError):
                g.vertex_index("nowhere")


def test_unknot_graph_is_empty(unknot):
    g = build_arc_graph(unknot)
    assert g.vertices == (1,)
    assert g.edges == ()


def test_kink_with_shared_over_and_exit_rejected():
    # over == under_out would double the ordered pair (1, 2)
    d = parse_diagram("X+ 2 1 2 / X+ 1 2 1\n")
    with pytest.raises(DiagramError):
        build_arc_graph(d)


def test_tangle_boundary_and_endpoint_edges(trefoil):
    t = cut(trefoil, [1])
    g = build_arc_graph(t)
    assert t.cut_pairs == (("1'", "1''"),)
    assert g.vertices == ("1'", "1''", "2", "3")
    # the terminal half has no outgoing edges, the initial no incoming
    assert all(e.src != "1''" for e in g.edges)
    assert all(e.dst != "1'" for e in g.edges)


def test_build_rejects_other_types():
    with pytest.raises(TypeError):
        build_arc_graph("X+ 3 1 2")


def test_weight_spec_lookup():
    spec = alexander_spec()
    assert spec["T1"].coeffs == {1: 1}
    assert spec["T2"].coeffs == {-1: 1}
    assert spec["S1"].coeffs == {0: 1, 1: -1}
    assert spec["S2"].coeffs == {0: 1, -1: -1}
    with pytest.raises(KeyError):
        spec["Q9"]


def test_weight_rows_sum_to_one(corpus):
    # t^e + (1 - t^e) = 1 on each crossing's two out-edges
    spec = alexander_spec()
    for d in corpus.values():
        g = build_arc_graph(d)
        w = weight_matrix(g, spec)
        one = LaurentPoly.one()
        for i, v in enumerate(g.vertices):
            if g.out_map[v]:
                total = LaurentPoly.zero()
                for e in g.out_map[v]:
                    total = total + spec[e.label]
                assert total == one


def test_laplacian_rows_sum_to_zero(figure8):
    g = build_arc_graph(figure8)
    full = laplacian(g, alexander_spec(), ())
    zero = LaurentPoly.zero()
    for row in full.entries:
        total = zero
        for e in row:
            total = total + e
        assert total.is_zero()


def test_laplacian_deletes_roots(figure8):
    g = build_arc_graph(figure8)
    l1 = laplacian(g, alexander_spec(), roots=(1,))
    assert l1.rows == l1.cols == 3
    with pytest.raises(DiagramError):
        laplacian(g, alexander_spec(), roots=(99,))


def test_closed_diagram_determinant_vanishes(corpus):
    spec = alexander_spec()
    for name, d in corpus.items():
        if d.crossings:
            g = build_arc_graph(d)
            assert tangle_determinant(g, spec).is_zero(), name


def test_cut_tangle_determinant_is_alexander(trefoil):
    g = build_arc_graph(cut(trefoil, [1]))
    d = tangle_determinant(g, alexander_spec())
    assert d.coeffs == {2: 1, 1: -1, 0: 1}


def test_tangle_matrix_restricts_vertices(trefoil):
    g = build_arc_graph(cut(trefoil, [1]))
    inner = [v for v in g.vertices if v != "1''"]
    m = tangle_matrix(g, alexander_spec(), inner)
    assert m.rows == len(inner)
    assert det(m) == tangle_determinant(g, alexander_spec())


def test_tangle_determinant_is_the_internal_vertex_determinant(corpus):
    # every cut of every corpus diagram: dropping the vertices without
    # in-edges or without out-edges leaves det(I - W) unchanged
    spec = alexander_spec()
    cuts = 0
    for name, d in corpus.items():
        for arc in d.arcs:
            g = build_arc_graph(cut(d, [arc]))
            has_in = {e.dst for e in g.edges}
            internal = [v for v in g.vertices if v in has_in and g.out_map[v]]
            assert len(internal) < len(g.vertices), (name, arc)
            assert tangle_determinant(g, spec) == det(tangle_matrix(g, spec, internal)), \
                (name, arc)
            cuts += 1
    assert cuts == 31


def _dense_tangle_matrix(g, spec, vertices):
    w = weight_matrix(g, spec).entries
    at = [g.vertex_index(v) for v in vertices]
    sub = RingMatrix([[w[i][j] for j in at] for i in at], cols=len(at))
    return RingMatrix.identity(len(vertices)) - sub


def _dense_laplacian(g, spec, roots):
    w = weight_matrix(g, spec)
    n = len(g.vertices)
    rows = []
    for i, v in enumerate(g.vertices):
        out_total = sum((spec[e.label] for e in g.out_map[v]), LaurentPoly.zero())
        rows.append([out_total - w.entries[i][j] if i == j else -w.entries[i][j]
                     for j in range(n)])
    drop = [g.vertex_index(r) for r in roots]
    return RingMatrix(rows, cols=n).delete(rows=drop, cols=drop)


@pytest.mark.parametrize("spec", [alexander_spec(), constant_spec(3)],
                         ids=["alexander", "constant"])
def test_matrices_from_edges_equal_the_dense_forms(corpus, spec):
    # every cut and every closed diagram, over several vertex subsets and orders
    graphs = [build_arc_graph(d) for d in corpus.values()]
    graphs += [build_arc_graph(cut(d, [arc])) for d in corpus.values() for arc in d.arcs]
    assert any(e.src == e.dst for g in graphs for e in g.edges)  # kink self-loops
    for g in graphs:
        vs = list(g.vertices)
        for keep in (vs, vs[:-1], vs[::2], vs[::-1]):
            assert tangle_matrix(g, spec, keep) == _dense_tangle_matrix(g, spec, keep)
        assert tangle_matrix(g, spec) == _dense_tangle_matrix(g, spec, g.vertices)
        for roots in ((), (vs[0],), (vs[-1], vs[0])):
            assert laplacian(g, spec, roots) == _dense_laplacian(g, spec, roots)


def test_constant_spec_counts_walks(trefoil):
    g = build_arc_graph(cut(trefoil, [1]))
    w = weight_matrix(g, constant_spec())
    total = Fraction(0)
    for row in w.evaluate(Fraction(1)):
        total += sum(row)
    assert total == len(g.edges)


@pytest.mark.parametrize("weight, message", [
    (2, "Laurent polynomial weight expected, got int"),
    (Fraction(1, 2), "Laurent polynomial weight expected, got Fraction"),
    (LaurentPoly({0: 1, 1: 3}, 7), "mixed coefficient domains: None vs 7")],
    ids=["int", "Fraction", "F7"])
def test_builders_refuse_weights_that_are_not_laurent_polynomials_over_q(trefoil, weight, message):
    # each label's weight is checked once, before any entry is built; the
    # Laplacian once raised AttributeError on an int where the other two
    # builders took it
    g = build_arc_graph(cut(trefoil, [1]))
    spec = {**alexander_spec(), "S1": weight}
    for build in (lambda: weight_matrix(g, spec), lambda: tangle_matrix(g, spec),
                  lambda: laplacian(g, spec, (g.vertices[0],))):
        with pytest.raises(CoefficientError) as refusal:
            build()
        assert str(refusal.value) == message
