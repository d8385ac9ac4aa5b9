"""Exact knot diagram invariants from walk combinatorics.

The package turns an oriented knot or link diagram into a weighted directed
graph on its arcs, and computes classical invariants three independent ways:
as determinants of small matrices, as sums over arborescences, and as cycle
expansions (an Ihara style zeta function), all in exact arithmetic.  Twisted
variants over prime fields and tangle operations (cut, composition, cabling)
round out the toolkit.
"""

from .laurent import (
    CanonicalPoly,
    LaurentPoly,
    PolyFraction,
    RingMatrix,
    canonicalize,
    det,
    divide_exact,
)
from .knot_model import Crossing, KnotDiagram, Tangle, parse_diagram, render_diagram
from .arc_graph import ArcGraph, alexander_spec, build_arc_graph
from .arborescence import enumerate_arborescences, matrix_tree_check, tree_polynomial
from .alexander import alexander_matrix, alexander_polynomial, knot_determinant
from .zeta import prime_cycles, trace_identity_check, zeta_partial_product
from .twisted import Representation, dihedral_rep, fox_colorings, twisted_alexander_polynomial

__version__ = "0.1.0"

__all__ = [
    "ArcGraph",
    "CanonicalPoly",
    "Crossing",
    "KnotDiagram",
    "LaurentPoly",
    "PolyFraction",
    "Representation",
    "RingMatrix",
    "Tangle",
    "alexander_matrix",
    "alexander_polynomial",
    "alexander_spec",
    "build_arc_graph",
    "canonicalize",
    "det",
    "dihedral_rep",
    "divide_exact",
    "enumerate_arborescences",
    "fox_colorings",
    "knot_determinant",
    "matrix_tree_check",
    "parse_diagram",
    "prime_cycles",
    "render_diagram",
    "trace_identity_check",
    "tree_polynomial",
    "twisted_alexander_polynomial",
    "zeta_partial_product",
]
