"""Arborescence enumeration and the directed matrix-tree identity.

An arborescence for a root set R assigns every vertex outside R exactly one
of its out-edges so that no cycle forms; every chosen path then drains into
R.  The weighted count of these objects equals the determinant of the
out-degree Laplacian with the root rows and columns removed, which is the
identity the rest of the library leans on, so this module keeps both sides
independently computable.

Every function takes an `ArcGraph` plus a dict mapping its edge labels to
Laurent polynomial weights over Q.  Arc graphs of diagrams carry the T/S
labels; the randomized cross-checks build arc graphs with one label per
edge.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .arc_graph import ArcGraph, GraphEdge, alexander_spec, build_arc_graph, \
    laplacian
from .laurent import LaurentPoly, det, linear_combination
from .verdict import Verdict


MAX_ARBORESCENCES = 10 ** 6
# the most vertices of a random digraph in random_matrix_tree_check
MAX_RANDOM_VERTICES = 6


def enumerate_arborescences(g, roots, spec):
    """All arborescences of g with the given nonempty root set, each a tuple
    of (src, dst, weight, label) edge rows: one chosen out-edge per non-root
    vertex, in vertex order, with no cycle.

    Backtracking over out-edge choices in vertex order, with incremental
    cycle rejection; output order is lexicographic in the chosen edges.
    Raises RuntimeError beyond MAX_ARBORESCENCES results: enumeration is the
    exponential oracle side of matrix-tree, not the fast path.
    """
    roots = tuple(roots)
    if not roots:
        raise ValueError("root set must be nonempty")
    for r in roots:
        g.vertex_index(r)  # raises on an unknown root
    rootset, index = set(roots), g.index
    nonroots = [v for v in g.vertices if v not in rootset]
    # out_map lists edges in edge order and sorted() is stable, so the
    # choices come in (target position, edge position) order
    out = {v: [(e.src, e.dst, spec[e.label], e.label)
               for e in sorted(g.out_map[v], key=lambda e: index[e.dst]) if e.dst != v]
           for v in nonroots}

    found = []
    choice = {}

    def creates_cycle(v, dst):
        cur = dst
        while cur in choice:
            cur = choice[cur][1]
            if cur == v:
                return True
        return cur == v

    def extend(i):
        if i == len(nonroots):
            found.append(tuple(choice[v] for v in nonroots))
            if len(found) > MAX_ARBORESCENCES:
                raise RuntimeError(f"more than {MAX_ARBORESCENCES} arborescences")
            return
        v = nonroots[i]
        for edge in out[v]:
            if creates_cycle(v, edge[1]):
                continue
            choice[v] = edge
            extend(i + 1)
            del choice[v]

    extend(0)
    return found


def arborescence_weight(arb):
    """The product of a tree's edge weights, from the first; 1 for no edge
    (tree_sum's oracle, from scratch per tree)."""
    weights = [e[2] for e in arb] or [LaurentPoly.one()]
    return math.prod(weights[1:], start=weights[0])


def tree_sum(arbs):
    """The sum of arborescence_weight over the trees, exact.

    Consecutive trees of enumerate_arborescences share their leading edge
    rows, the same tuple objects.  A stack keeps the products of the current
    tree's leading rows, so each tree multiplies only past the prefix it
    shares with the tree before, and the sum is normalized once.
    """
    rows, products, terms = [], [], []
    for arb in arbs:
        k = 0
        while k < min(len(rows), len(arb)) and rows[k] is arb[k]:
            k += 1
        del rows[k:], products[k:]
        for edge in arb[k:]:
            products.append(products[-1] * edge[2] if products else edge[2])
            rows.append(edge)
        terms.append((1, products[-1] if products else LaurentPoly.one()))
    return linear_combination(terms, None)


def tree_polynomial(g, roots, spec):
    """Sum of edge-weight products over all arborescences, exact."""
    return tree_sum(enumerate_arborescences(g, roots, spec))


def matrix_tree_check(g, roots, spec):
    """Compare det(Laplacian minor) against the enumerated tree polynomial."""
    det_side = det(laplacian(g, spec, roots))
    tree_side = tree_polynomial(g, roots, spec)
    return Verdict(
        "matrix_tree",
        det_side == tree_side,
        {"determinant": str(det_side), "tree_sum": str(tree_side),
         "roots": [str(r) for r in roots]},
    )


def random_matrix_tree_check(count, seed):
    """Seeded random digraphs with rational weights, each checked exactly.

    Each instance is an arc graph whose edges carry one label apiece, with
    edge density 1/2, no self-loops (they never enter an arborescence and
    cancel out of the Laplacian), weights small random rationals, root sets
    random and nonempty.  Returns one Verdict over all instances.
    """
    rng = random.Random(seed)
    failures = []
    for i in range(count):
        n = rng.randint(1, MAX_RANDOM_VERTICES)
        vertices = tuple(f"v{j}" for j in range(n))
        edges = []
        weights = {}
        for src in vertices:
            for dst in vertices:
                if src != dst and rng.random() < 0.5:
                    w = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
                    if w:
                        label = f"e{len(edges)}"
                        edges.append(GraphEdge(src, dst, label))
                        weights[label] = LaurentPoly({0: w})
        roots = tuple(sorted(rng.sample(vertices, rng.randint(1, n))))
        g = ArcGraph(vertices, tuple(edges))
        verdict = matrix_tree_check(g, roots, weights)
        if not verdict.passed:
            failures.append({"instance": i, **verdict.detail})
    return Verdict("matrix_tree_random", not failures,
                   {"count": count, "seed": seed, "failures": failures})


def determinant_via_trees(diagram):
    """The signed arborescence sum sum((-1)^alpha * 2^beta) rooted at arc 1.

    alpha counts the go-under (T) edges of a tree and beta its jump-up (S)
    edges; the absolute value is the knot determinant.  The sign is left to
    the caller, matching the unit ambiguity of the Alexander polynomial.
    """
    total = 0
    for arb in enumerate_arborescences(build_arc_graph(diagram), (1,), alexander_spec()):
        kinds = [e[3][0] for e in arb]
        total += (-1) ** kinds.count("T") * 2 ** kinds.count("S")
    return total
