"""The package's value types: immutable named tuples with checked fields.

Each type is built the way its callers build it, by position and by
keyword, and must compare and hash like the tuple of its fields, refuse
attribute assignment, print in the `Type(field=value, ...)` form and
survive copy and pickle, as must the three classes they hold that are not
tuples: `LaurentPoly`, `RingMatrix` and `Representation`.  `ArcGraph` and
`TwistedChain` also keep views built on first read, which must be built
once.
"""

import ast
import copy
import pickle
from fractions import Fraction
from pathlib import Path

import pytest

from knotzeta.arc_graph import ArcGraph, GraphEdge, build_arc_graph
from knotzeta.knot_model import Crossing, KnotDiagram, Presentation, Tangle, cut, \
    wirtinger_presentation
from knotzeta.laurent import CanonicalPoly, LaurentPoly, PolyFraction, RingMatrix, \
    canonicalize, divide_exact
from knotzeta.twisted import ColoringSpace, Representation, TwistedChain, TwistedPolynomial, \
    dihedral_rep, fox_colorings, trivial_representation, \
    twisted_alexander_polynomial, twisted_chain
from knotzeta.verdict import Verdict

SRC = Path(__file__).resolve().parents[1] / "src" / "knotzeta"


def _sample_fields(corpus):
    """{type: a tuple of field values its callers could pass}, from the
    trefoil's own objects."""
    d = corpus["trefoil"]
    rep = trivial_representation(tuple(d.arcs))
    chain = twisted_chain(d, rep)
    tangle = cut(d, [1])
    graph = build_arc_graph(d)
    poly = LaurentPoly({0: 1, 1: -1, 2: 1})
    fraction = divide_exact(poly, LaurentPoly({0: 1, 1: 1}))
    space = fox_colorings(d, 3)
    twisted = twisted_alexander_polynomial(d, rep)
    return {
        GraphEdge: (1, 2, "T1"),
        ArcGraph: (graph.vertices, graph.edges),
        Crossing: (-1, 4, 1, 2),
        KnotDiagram: (d.n_arcs, d.crossings),
        Presentation: tuple(wirtinger_presentation(d)),
        Tangle: tuple(tangle),
        CanonicalPoly: tuple(canonicalize(-poly)),
        PolyFraction: tuple(fraction),
        ColoringSpace: tuple(space),
        TwistedChain: tuple(chain),
        TwistedPolynomial: tuple(twisted),
        Verdict: ("check", True, {"seen": 1}),
    }


TYPES = (GraphEdge, ArcGraph, Crossing, KnotDiagram, Presentation, Tangle, CanonicalPoly,
         PolyFraction, ColoringSpace, TwistedChain, TwistedPolynomial, Verdict)
# a dict field (a verdict's detail) makes a value unhashable, as it did
UNHASHABLE = (TwistedChain, Verdict)


@pytest.mark.parametrize("cls", TYPES, ids=lambda cls: cls.__name__)
def test_value_type_is_an_immutable_checked_tuple(cls, corpus):
    args = _sample_fields(corpus)[cls]
    by_position = cls(*args)
    by_keyword = cls(**dict(zip(cls._fields, args)))
    assert isinstance(by_position, tuple)
    assert by_position == by_keyword
    assert tuple(by_position)[:len(args)] == args
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(by_position)
    else:
        assert hash(by_position) == hash(by_keyword) == hash(tuple(by_position))
    for name in (cls._fields[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(by_position, name, None)
    assert getattr(by_position, cls._fields[0]) is args[0]
    shown = ", ".join(f"{name}={getattr(by_position, name)!r}" for name in cls._fields)
    assert repr(by_position) == f"{cls.__name__}({shown})"
    assert_copies(by_position)


def assert_copies(value):
    """copy.copy, copy.deepcopy and a pickle round trip give an equal value
    of the same type."""
    for other in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(other) is type(value) and other == value, (value, other)


def test_ring_classes_copy_and_pickle(corpus):
    # the classes that refuse attribute writes rebuild through their
    # constructors: Laurent polynomials over Q and F_q, matrices with and
    # without rows, and the trivial and a dihedral representation
    trefoil = corpus["trefoil"]
    rational = LaurentPoly({-2: Fraction(1, 3), 0: 1, 4: -5})
    residue = LaurentPoly({1: 3, 2: 1}, 7)
    for value in (rational, residue, LaurentPoly.zero(),
                  RingMatrix([[rational, 1], [0, rational]]),
                  RingMatrix([[residue, 0, 2]], 7), RingMatrix.zeros(0, 3),
                  trivial_representation((1, 2, 3)),
                  dihedral_rep(trefoil, 3, fox_colorings(trefoil, 3).nonconstant())):
        assert_copies(value)
    assert pickle.loads(pickle.dumps(RingMatrix.zeros(0, 3))).cols == 3
    rep = Representation(7, {1: ((2,),), 2: ((3,),)})
    assert pickle.loads(pickle.dumps(rep)).word_image(((2, -1),)) == ((5,),)


def test_crossing_prints_field_by_field():
    assert repr(Crossing(-1, 4, 1, 2)) == "Crossing(sign=-1, over=4, under_in=1, under_out=2)"


def test_cached_views_are_built_once(corpus):
    d = corpus["figure8"]
    g = build_arc_graph(d)
    assert g.index is g.index and g.out_map is g.out_map and g.in_map is g.in_map
    assert g.index == {v: i for i, v in enumerate(g.vertices)}
    chain = twisted_chain(d, trivial_representation(tuple(d.arcs)))
    assert chain._images is chain._images
    block = chain.denominator(0)
    assert chain.denominator(0) is block and chain._images == {0: block}
    assert chain.gradients is chain.gradients and chain.graph is chain.graph


def test_diagrams_from_the_same_crossings_in_any_order_are_equal(corpus):
    for d in corpus.values():
        for order in (d.crossings[::-1], d.crossings[1:] + d.crossings[:1]):
            other = KnotDiagram(d.n_arcs, order)
            assert other == d and hash(other) == hash(d)
            assert other.crossings == d.crossings and other.components == d.components


def test_no_call_skips_the_checks_in_new():
    # a named tuple's _make and _replace build through tuple.__new__, past
    # the checks of the type's own __new__
    calls = sorted(f"{path.name}:{node.lineno}"
                   for path in SRC.glob("*.py")
                   for node in ast.walk(ast.parse(path.read_text()))
                   if isinstance(node, ast.Attribute) and node.attr in ("_make", "_replace"))
    assert calls == []
