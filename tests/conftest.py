import copy
import pickle

import pytest

from knotzeta.cli import corpus_names, load_corpus
from knotzeta.laurent import LaurentPoly, RingMatrix

# small twist knots get exercised everywhere; bigger corpus entries only in
# the tests that need breadth
KNOWN_POLY = {
    "unknot": {0: 1},
    "kink_pp": {0: 1},
    "kink_pm": {0: 1},
    "trefoil": {0: 1, 1: -1, 2: 1},
    "trefoil_left": {0: 1, 1: -1, 2: 1},
    "figure8": {0: 1, 1: -3, 2: 1},
    "5_1": {0: 1, 1: -1, 2: 1, 3: -1, 4: 1},
    "5_2": {0: 2, 1: -3, 2: 2},
    "6_1": {0: 2, 1: -5, 2: 2},
}

KNOWN_DET = {
    "unknot": 1, "kink_pp": 1, "kink_pm": 1,
    "trefoil": 3, "trefoil_left": 3, "figure8": 5,
    "5_1": 5, "5_2": 7, "6_1": 9,
}

# the closure of the torus knot T(3,4), 8 crossings: the Euler check's
# planner accepts none of its candidate points
T34 = """X+ 2 4 5
X+ 8 5 6
X+ 8 2 3
X+ 6 3 4
X+ 6 8 1
X+ 4 1 2
X+ 4 6 7
X+ 2 7 8
"""
NO_PLANNED_POINT = "no sample point with a convergent, affordable horizon"

# two corpus trefoils side by side: off the terminal of any cut, the other
# trefoil's rows of W sum to 1, so det(I - W) there is the zero polynomial
SPLIT = """X+ 3 1 2
X+ 1 2 3
X+ 2 3 1
X+ 6 4 5
X+ 4 5 6
X+ 5 6 4
"""
NO_WALK_SUM = "det(I - W) off the terminal vanishes identically: the walk sum has no value"
NO_ZETA_VALUE = ("det(I - W) vanishes identically: "
                 "the zeta function 1/det(I - W) has no value")


def traces_of_repeated_products(w, max_power):
    """The oracle of zeta.power_traces: every power W^m formed, one product
    per power, and its diagonal summed entry by entry."""
    zero = LaurentPoly.zero(w.modulus)
    traces, power = [], w
    for m in range(1, max_power + 1):
        if m > 1:
            power = power @ w
        traces.append(sum((power.entries[i][i] for i in range(w.rows)), zero))
    return traces


def assert_sparse_rows(m):
    """m stores one map per row holding exactly its nonzero entries, and
    compares, prints, copies and pickles like the matrix that the validating
    constructor builds from its dense rows."""
    assert len(m.row_maps) == m.rows
    assert all(e for row in m.row_maps for e in row.values()), m
    assert list(m.row_maps) == [{j: e for j, e in enumerate(row) if e} for row in m.entries]
    rebuilt = RingMatrix(m.entries, m.modulus, m.cols)
    for other in (m, copy.copy(m), pickle.loads(pickle.dumps(m))):
        assert type(other) is RingMatrix and other == rebuilt, m
        assert repr(other) == repr(rebuilt)


@pytest.fixture(scope="session")
def corpus():
    return {name: load_corpus(name) for name in corpus_names()}


@pytest.fixture(scope="session")
def unknot(corpus):
    return corpus["unknot"]


@pytest.fixture(scope="session")
def trefoil(corpus):
    return corpus["trefoil"]


@pytest.fixture(scope="session")
def figure8(corpus):
    return corpus["figure8"]
