"""Arborescence enumeration against the directed matrix-tree determinant."""

import random
from fractions import Fraction

import pytest

from knotzeta import arborescence
from knotzeta.arborescence import arborescence_weight, \
    determinant_via_trees, enumerate_arborescences, matrix_tree_check, \
    random_matrix_tree_check, tree_polynomial, tree_sum
from knotzeta.arc_graph import ArcGraph, GraphEdge, alexander_spec, \
    build_arc_graph, laplacian
from knotzeta.knot_model import DiagramError, cut
from knotzeta.laurent import LaurentPoly, det


def C(v):
    return LaurentPoly({0: Fraction(v)})


def weighted(vertices, edges):
    """An arc graph with one label per (src, dst, weight) edge, and its spec."""
    graph_edges = tuple(GraphEdge(s, d, f"e{k}") for k, (s, d, _) in enumerate(edges))
    spec = {f"e{k}": C(w) for k, (_, _, w) in enumerate(edges)}
    return ArcGraph(tuple(vertices), graph_edges), spec


def triangle():
    # a -> b -> c -> a plus chords, all weight 1
    return weighted(("a", "b", "c"), [(s, d, 1) for s, d in
                                      (("a", "b"), ("b", "c"), ("c", "a"), ("a", "c"))])


def test_unweighted_triangle_counts():
    g, spec = triangle()
    arbs = enumerate_arborescences(g, ("a",), spec)
    # b has the one out-edge b->c and c only c->a, so a single
    # arborescence remains
    assert len(arbs) == 1
    assert [e[:2] for e in arbs[0]] == [("b", "c"), ("c", "a")]
    assert tree_polynomial(g, ("a",), spec).coeffs == {0: 1}


def test_every_nonroot_picks_one_edge():
    g, spec = triangle()
    for arb in enumerate_arborescences(g, ("c",), spec):
        sources = [e[0] for e in arb]
        assert sorted(sources) == ["a", "b"]


def test_roots_keep_no_out_edges():
    g, spec = triangle()
    arbs = enumerate_arborescences(g, ("a", "b"), spec)
    for arb in arbs:
        assert all(e[0] not in ("a", "b") for e in arb)


def test_unknown_root_rejected():
    g, spec = triangle()
    with pytest.raises(DiagramError, match="unknown vertex 'z'"):
        enumerate_arborescences(g, ("z",), spec)
    with pytest.raises(DiagramError, match="unknown vertex 'z'"):
        laplacian(g, spec, ("z",))
    with pytest.raises(DiagramError):
        matrix_tree_check(g, ("z",), spec)
    with pytest.raises(ValueError):
        enumerate_arborescences(g, (), spec)


def test_matrix_tree_on_triangle():
    g, spec = triangle()
    v = matrix_tree_check(g, ("a",), spec)
    assert v.passed
    assert v.detail["determinant"] == v.detail["tree_sum"]


def test_weighted_two_vertex_graph():
    # two parallel routes: det of the 1x1 Laplacian is the sum of weights
    g, spec = weighted(("r", "x"), [("x", "r", Fraction(2, 3)), ("r", "x", 5)])
    poly = tree_polynomial(g, ("r",), spec)
    assert poly.coeffs == {0: Fraction(2, 3)}
    assert matrix_tree_check(g, ("r",), spec).passed


def test_self_loops_never_chosen():
    g, spec = weighted(("r", "x"), [("x", "x", 7), ("x", "r", 1)])
    arbs = enumerate_arborescences(g, ("r",), spec)
    assert len(arbs) == 1
    assert arbs[0][0][1] == "r"
    # the loop's weight cancels out of the Laplacian as well
    assert det(laplacian(g, spec, ("r",))).coeffs == {0: 1}
    assert matrix_tree_check(g, ("r",), spec).passed


def test_choices_follow_target_then_edge_position():
    # edges out of target order, with a -> r twice (e1 and e3): a's choices
    # are e1, e3 (to r, in edge order), then e0 (to b); b's are e2, then e4
    g, spec = weighted(("r", "a", "b"), [("a", "b", 1), ("a", "r", 2), ("b", "r", 3),
                                         ("a", "r", 4), ("b", "a", 5)])
    arbs = enumerate_arborescences(g, ("r",), spec)
    assert [tuple(e[3] for e in arb) for arb in arbs] == [
        ("e1", "e2"), ("e1", "e4"), ("e3", "e2"), ("e3", "e4"), ("e0", "e2")]
    # consecutive trees share the row objects of their common prefix
    assert arbs[0][0] is arbs[1][0]


def test_trefoil_arc_graph_arborescences(trefoil):
    g = build_arc_graph(trefoil)
    spec = alexander_spec()
    arbs = enumerate_arborescences(g, (1,), spec)
    assert len(arbs) == 3
    # the T/S labels of each tree carry the sign bookkeeping
    kinds = [[e[3][0] for e in a] for a in arbs]
    assert {(k.count("T"), k.count("S")) for k in kinds} == {(2, 0), (1, 1), (0, 2)}


def test_tree_polynomial_matches_laplacian_minor(corpus):
    spec = alexander_spec()
    for name, d in corpus.items():
        g = build_arc_graph(d)
        root = (1,)
        minor = det(laplacian(g, spec, root))
        assert tree_polynomial(g, root, spec) == minor, name


def test_matrix_tree_check_across_corpus_roots(corpus):
    spec = alexander_spec()
    for d in corpus.values():
        g = build_arc_graph(d)
        for root in d.arcs:
            assert matrix_tree_check(g, (root,), spec).passed


def test_arborescence_weight_multiplies():
    g, spec = weighted(("r", "x", "y"), [("x", "r", 2), ("y", "x", Fraction(1, 2))])
    arbs = enumerate_arborescences(g, ("r",), spec)
    assert len(arbs) == 1
    assert arborescence_weight(arbs[0]).coeffs == {0: 1}


def test_cap_guards_explosions(monkeypatch):
    monkeypatch.setattr(arborescence, "MAX_ARBORESCENCES", 10)
    vs = tuple(range(6))
    g, spec = weighted(vs, [(i, j, 1) for i in vs for j in vs if i != j])
    with pytest.raises(RuntimeError):
        enumerate_arborescences(g, (0,), spec)


def test_determinant_via_trees_matches_knot_determinant(corpus):
    # the signed sum carries the Alexander unit ambiguity
    from knotzeta.alexander import knot_determinant
    for name, d in corpus.items():
        assert abs(determinant_via_trees(d)) == knot_determinant(d), name


def test_random_matrix_tree_fixed_seed():
    v = random_matrix_tree_check(count=60, seed=0)
    assert v.passed
    assert v.detail["count"] == 60
    assert v.detail["failures"] == []


def test_random_matrix_tree_other_seeds():
    for seed in (1, 2, 3):
        assert random_matrix_tree_check(count=25, seed=seed).passed


def from_scratch(arbs):
    """The oracle of tree_sum: each tree's weight built on its own, summed."""
    return sum(map(arborescence_weight, arbs), LaurentPoly.zero())


def random_digraph(rng):
    """A random arc graph on up to MAX_RANDOM_VERTICES vertices, with small
    rational weights, and a random nonempty root set."""
    vertices = tuple(range(rng.randint(1, arborescence.MAX_RANDOM_VERTICES)))
    g, spec = weighted(vertices, [(s, d, Fraction(rng.randint(-6, 6), rng.randint(1, 6)))
                                  for s in vertices for d in vertices
                                  if s != d and rng.random() < 0.5])
    return g, spec, tuple(sorted(rng.sample(vertices, rng.randint(1, len(vertices)))))


def test_tree_sum_equals_the_from_scratch_weights(corpus):
    spec = alexander_spec()
    cases = 0
    for name, d in corpus.items():
        g = build_arc_graph(d)
        for root in d.arcs:
            arbs = enumerate_arborescences(g, (root,), spec)
            assert tree_sum(arbs) == from_scratch(arbs), (name, root)
            cases += 1
        for arc in d.arcs:
            tangle = cut(d, [arc])
            arbs = enumerate_arborescences(build_arc_graph(tangle), (tangle.strand_pair()[1],),
                                           spec)
            assert tree_sum(arbs) == from_scratch(arbs), (name, arc)
    assert cases == 31
    rng = random.Random(0)
    for i in range(200):
        g, weights, roots = random_digraph(rng)
        arbs = enumerate_arborescences(g, roots, weights)
        assert tree_sum(arbs) == from_scratch(arbs), i
        # the shared prefixes are found, not assumed: any order gives the same sum
        rng.shuffle(arbs)
        assert tree_sum(arbs) == from_scratch(arbs), i


def test_tree_sum_of_no_tree_and_of_the_empty_tree():
    g, spec = weighted(("r", "x"), [("r", "x", 3)])
    assert tree_sum(enumerate_arborescences(g, ("r",), spec)).is_zero()
    assert tree_sum(enumerate_arborescences(g, ("r", "x"), spec)) == LaurentPoly.one()


def test_random_matrix_tree_multiplies_past_the_shared_prefixes(monkeypatch):
    # building every tree's product from scratch makes 889 products here
    products = []
    mul = LaurentPoly.__mul__
    for name in ("__mul__", "__rmul__"):
        monkeypatch.setattr(LaurentPoly, name, lambda a, b: products.append(1) or mul(a, b))
    assert random_matrix_tree_check(50, 0).passed
    assert len(products) <= 450
