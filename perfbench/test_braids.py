"""Tests of the braid-closure generator against known Alexander polynomials.

Run from the repository root with `python3 -m pytest perfbench`.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import braids  # noqa: E402
from knotzeta import alexander_polynomial, knot_determinant, parse_diagram, \
    render_diagram  # noqa: E402


def poly_of(strands, word):
    d = parse_diagram(braids.closure_text(strands, word))
    return {int(e): c for e, c in alexander_polynomial(d).poly.to_json().items()}


@pytest.mark.parametrize("strands, word, expected, det", [
    (2, [1, 1, 1], {0: 1, 1: -1, 2: 1}, 3),                          # T(2,3)
    (2, [1] * 5, {0: 1, 1: -1, 2: 1, 3: -1, 4: 1}, 5),                # T(2,5) = 5_1
    (3, [1, -2, 1, -2], {0: 1, 1: -3, 2: 1}, 5),                      # figure-eight
    (3, braids.torus_word(3, 4), {0: 1, 1: -1, 3: 1, 5: -1, 6: 1}, 3),  # T(3,4)
])
def test_known_closures(strands, word, expected, det):
    assert poly_of(strands, word) == expected
    d = parse_diagram(braids.closure_text(strands, word))
    assert knot_determinant(d) == det == braids.determinant(expected)


@pytest.mark.parametrize("p, q", [(2, 3), (2, 5), (2, 9), (3, 4), (3, 5), (3, 7)])
def test_torus_family_matches_closed_form(p, q):
    assert poly_of(p, braids.torus_word(p, q)) == braids.torus_alexander(p, q)


@pytest.mark.parametrize("m", range(1, 11))
def test_twist_family_matches_closed_form(m):
    assert poly_of(*braids.twist_word(m)) == braids.twist_alexander(m)


@pytest.mark.parametrize("k", range(7))
def test_rotation_keeps_the_knot_and_round_trips(k):
    strands, word = braids.twist_word(5)
    text = braids.closure_text(strands, braids.rotate(word, k))
    d = parse_diagram(text)
    assert d.n_arcs == len(word)
    assert d.components == ((1, len(word)),)
    assert parse_diagram(render_diagram(d)) == d
    assert poly_of(strands, braids.rotate(word, k)) == braids.twist_alexander(5)


def test_links_and_bad_generators_rejected():
    with pytest.raises(ValueError):
        braids.closure_text(2, [1, 1])      # two components
    with pytest.raises(ValueError):
        braids.closure_text(2, [2])         # no sigma_2 on two strands
