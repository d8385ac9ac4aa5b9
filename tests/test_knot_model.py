"""Diagram parsing, validation, presentations, and tangle surgery."""

import os
import subprocess
import sys

import pytest

from knotzeta import knot_model
from knotzeta.knot_model import MAX_ARCS, Crossing, DiagramError, KnotDiagram, Tangle, \
    cable, close_tangle, compose_tangles, connected_sum, cut, parse_diagram, \
    render_diagram, split_union, wirtinger_presentation

TREFOIL = "X+ 3 1 2 / X+ 1 2 3 / X+ 2 3 1\n"


def test_parse_trefoil():
    d = parse_diagram(TREFOIL)
    assert d.n_arcs == 3
    assert len(d.crossings) == 3
    assert d.is_knot()


def test_parse_comments_and_blank_lines():
    text = "# a knot\n\nX+ 3 1 2\nX+ 1 2 3  # inline\nX+ 2 3 1\n"
    assert parse_diagram(text) == parse_diagram(TREFOIL)


def test_parse_arcs_directive_for_circles():
    d = parse_diagram("arcs 1\n")
    assert d.n_arcs == 1
    assert d.crossings == ()
    assert d.components == ((1, 1),)


def test_parse_errors():
    for text in ("", "arcs 2\narcs 3\n", "arcs two\n", "X* 1 2 3\n",
                 "X+ 1 2\n", "X+ a b c\n", "X+ 1 2 3 //\n"):
        with pytest.raises(DiagramError):
            parse_diagram(text)


def test_crossing_sign_validated():
    with pytest.raises(DiagramError):
        Crossing(2, 1, 2, 3)


@pytest.mark.parametrize("build", [lambda: KnotDiagram(True, ()),
                                   lambda: Crossing(1.0, 1, 1, 1),
                                   lambda: Crossing(True, 1, 1, 1)],
                         ids=["arcs-True", "sign-1.0", "sign-True"])
def test_value_types_refuse_look_alike_numbers(build, corpus):
    # True == 1 and 1.0 == 1, but the text format has no way to write them:
    # a diagram with `arcs True` would render text that parse refuses
    with pytest.raises(DiagramError):
        build()
    for d in corpus.values():
        assert parse_diagram(render_diagram(d)) == d


def test_diagram_rejects_out_of_range_arcs():
    with pytest.raises(DiagramError):
        KnotDiagram(2, (Crossing(1, 3, 1, 2), Crossing(1, 1, 2, 1)))


def test_diagram_rejects_duplicate_under_roles():
    # two crossings cannot share an under_in arc
    with pytest.raises(DiagramError):
        parse_diagram("X+ 3 1 2 / X+ 1 1 3 / X+ 2 3 1 / X+ 2 2 1\n")


def test_diagram_rejects_nonconsecutive_numbering():
    with pytest.raises(DiagramError):
        parse_diagram("X+ 3 1 3 / X+ 1 3 1\n")


@pytest.mark.parametrize("bad", ["a", None, True], ids=repr)
def test_diagram_refuses_arc_references_that_are_not_ints(bad):
    # checked before the crossings are sorted, so the sort never compares them
    with pytest.raises(DiagramError) as refusal:
        KnotDiagram(3, (Crossing(1, 1, bad, 2), Crossing(1, 1, 2, 3)))
    assert str(refusal.value) == f"arc reference {bad!r} outside 1..3"


def test_diagram_rejects_open_under_strand():
    with pytest.raises(DiagramError):
        KnotDiagram(3, (Crossing(1, 3, 1, 2),))


def test_crossings_sorted_by_under_in():
    d = parse_diagram("X+ 2 3 1 / X+ 3 1 2 / X+ 1 2 3\n")
    assert [c.under_in for c in d.crossings] == [1, 2, 3]
    assert d == parse_diagram(TREFOIL)


def test_components_of_split_diagram(corpus):
    both = split_union(corpus["trefoil"], corpus["figure8"])
    assert both.n_arcs == 7
    assert both.components == ((1, 3), (4, 7))
    assert not both.is_knot()


def test_components_of_a_knot_beside_circles():
    d = parse_diagram("arcs 5\n" + TREFOIL)
    assert d.components == ((1, 3), (4, 4), (5, 5))
    for arcs, pairs in (([4], (("4'", "4'"),)), ([1, 4], (("1'", "1''"), ("4'", "4'")))):
        t = cut(d, arcs)
        assert t.cut_pairs == pairs
        assert close_tangle(t) == d


def test_off_strand_fault_names_the_least_arc_under_every_hash_seed():
    # 'c' enters a crossing but exits none and 'd' the reverse: the message
    # names 'c' whatever order a set of strings iterates in
    script = ("from knotzeta.knot_model import Crossing as C, DiagramError, Tangle\n"
              "try:\n"
              "    Tangle(('a', 'b', 'c', 'd'), (C(1, 'a', 'a', 'b'), C(1, 'a', 'c', 'd')),\n"
              "           (('a', 'b'),))\n"
              "except DiagramError as exc:\n"
              "    print(exc)\n")
    messages = set()
    for seed in ("0", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed}
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, check=True)
        messages.add(proc.stdout)
    assert messages == {"arc 'c' is neither on a strand nor on a closed loop\n"}


def test_render_parse_roundtrip(corpus):
    for d in corpus.values():
        assert parse_diagram(render_diagram(d)) == d


def test_wirtinger_relators(corpus):
    for d in corpus.values():
        pres = wirtinger_presentation(d)
        assert pres.generators == tuple(d.arcs)
        assert len(pres.relators) == len(d.crossings)
        for rel in pres.relators:
            assert len(rel) == 4
            # relators die under total abelianization, kinks included
            assert sum(e for _, e in rel) == 0
            assert all(e in (1, -1) for _, e in rel)


def test_cut_splits_one_arc(trefoil):
    t = cut(trefoil, [1])
    assert t.strand_pair() == ("1'", "1''")
    assert set(t.arcs) == {"1'", "1''", "2", "3"}
    # the initial half keeps the under_in role, the terminal half the rest
    unders = {c.under_in for c in t.crossings}
    overs = {c.over for c in t.crossings}
    assert "1'" in unders and "1''" not in unders
    assert "1''" in overs and "1'" not in overs


def test_cut_circle_arc(unknot):
    t = cut(unknot, [1])
    assert t.cut_pairs == (("1'", "1'"),)


def test_cut_unknown_arc(trefoil):
    with pytest.raises(DiagramError):
        cut(trefoil, [9])


def test_close_undoes_cut(corpus):
    for d in corpus.values():
        for a in d.arcs:
            assert close_tangle(cut(d, [a])) == d


def test_tangle_validation():
    with pytest.raises(DiagramError):
        Tangle(("a",), (), ())
    with pytest.raises(DiagramError):
        Tangle(("a", "b"), (), (("a", "z"),))
    with pytest.raises(DiagramError):
        Tangle(("a", "a"), (), (("a", "a"),))


def test_compose_tangles_prefixes_labels(trefoil):
    t = cut(trefoil, [1])
    both = compose_tangles(t, t)
    assert both.strand_pair() == ("L:1'", "R:1''")
    assert len(both.crossings) == 6


def test_connected_sum_defaults_to_highest_arcs(trefoil, figure8):
    s = connected_sum(trefoil, figure8)
    # a closed knot diagram has as many arcs as crossings
    assert s.n_arcs == 7
    assert len(s.crossings) == 7
    assert s.is_knot()


def test_cable_of_circle_tangle(unknot):
    t = cable(cut(unknot, [1]), 3)
    assert len(t.cut_pairs) == 3
    closed = close_tangle(t)
    assert closed.n_arcs == 3
    assert closed.crossings == ()


def test_cable_crossing_count(trefoil):
    # each original crossing becomes an n x n grid of crossings
    t = cable(cut(trefoil, [1]), 2)
    assert len(t.crossings) == 4 * 3
    assert len(t.cut_pairs) == 2


def test_cable_rejects_bad_order(trefoil):
    # an order must be an int of at least 1: True is an int to isinstance,
    # and would build the 1-cable
    for order in (0, -2, True, False, 2.0, "2"):
        with pytest.raises(DiagramError, match="cable order must be a positive int"):
            cable(cut(trefoil, [1]), order)


def test_cable_rejects_closed_components():
    # the Hopf link cut open along one component leaves the other closed
    hopf = cut(parse_diagram("X+ 2 1 1 / X+ 1 2 2\n"), [1])
    with pytest.raises(DiagramError, match=r"arcs \['2'\] lie on closed components"):
        cable(hopf, 2)


def test_arc_numbers_are_read_past_leading_zeros():
    # int() refuses a field of more than 4300 digits, leading zeros included
    zeros = "0" * 5000
    assert parse_diagram(f"arcs {zeros}3\n") == parse_diagram("arcs 3\n")
    assert parse_diagram(f"X+ 3 1 {zeros}2 / X+ 1 2 3 / X+ 2 3 1\n") == parse_diagram(TREFOIL)
    assert parse_diagram(f"X+ 3 1 +{zeros}2 / X+ 1 2 3 / X+ 2 3 1\n") == parse_diagram(TREFOIL)
    with pytest.raises(DiagramError, match="arc numbers must be integers"):
        parse_diagram(f"X+ 3 1 --{zeros}2 / X+ 1 2 3 / X+ 2 3 1\n")


def test_diagram_size_is_bounded(monkeypatch, trefoil):
    # the size is refused before anything is built: by the arcs directive,
    # by the largest arc a crossing names, by a cable's or a composite's arc
    # count; an arc number is refused by its digits before int() sees it,
    # which refuses more than 4300 digits with a ValueError of its own
    assert MAX_ARCS == 1000
    assert parse_diagram(f"arcs {MAX_ARCS}\n").n_arcs == MAX_ARCS
    huge = "9" * 5000
    for text in ("arcs 100000\n", "X+ 100000 1 1\n", f"arcs {MAX_ARCS + 1}\n",
                 f"arcs {huge}\n", f"X- 1 +{huge} 2\n"):
        with pytest.raises(DiagramError, match=f"more than the {MAX_ARCS} supported"):
            parse_diagram(text)
    padded = "0" * 10 + "3"  # leading zeros are not counted
    assert parse_diagram(f"X+ {padded} 1 2 / X+ 1 2 3 / X+ 2 3 1\n") == parse_diagram(TREFOIL)
    # 4 arcs and 3 crossings make 4n + 3n(n - 1) arcs: 990 for n = 18, 1102 for 19
    t = cut(trefoil, [1])
    assert len(cable(t, 18).arcs) == 990
    for n in (19, 40):
        with pytest.raises(DiagramError, match=f"the {n}-cable has .* more than the 1000"):
            cable(t, n)
    # two 4-arc cuts fuse into a 7-arc composite
    monkeypatch.setattr(knot_model, "MAX_ARCS", 7)
    assert len(compose_tangles(t, t).arcs) == 7
    monkeypatch.setattr(knot_model, "MAX_ARCS", 6)
    with pytest.raises(DiagramError, match="the composite has 7 arcs, more than the 6"):
        compose_tangles(t, t)

