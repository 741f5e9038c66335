"""The integer elimination kernel against a rational Gauss-Jordan oracle."""

from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyadjoint import linalg


# -- oracle: rational Gauss-Jordan elimination ---------------------------------


def oracle_rref(m):
    a = [[Fraction(x) for x in row] for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if a[i][c] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        pv = a[r][c]
        a[r] = [x / pv for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a, pivots


def oracle_nullspace(m):
    if not m:
        return []
    cols = len(m[0])
    a, pivots = oracle_rref(m)
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -a[r][fc]
        basis.append(v)
    return basis


def oracle_solve(m, b):
    if not m:
        return [] if all(x == 0 for x in b) else None
    cols = len(m[0])
    a, pivots = oracle_rref([list(row) + [bb] for row, bb in zip(m, b)])
    if cols in pivots:
        return None
    x = [Fraction(0)] * cols
    for r, pc in enumerate(pivots):
        x[pc] = a[r][cols]
    return x


def oracle_det(m):
    a = [[Fraction(x) for x in row] for row in m]
    d = len(a)
    det = Fraction(1)
    for k in range(d):
        pivot = next((i for i in range(k, d) if a[i][k] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, d):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return det


# -- strategies -------------------------------------------------------------------

small_ints = st.integers(-3, 3)
big_fractions = st.builds(
    Fraction, st.integers(-(10**20), 10**20), st.integers(1, 10**25)
)
entries = st.one_of(small_ints, small_ints.map(Fraction), big_fractions)


@st.composite
def matrices(draw, rows=None, cols=None):
    """Any shape up to 5 x 6; some rows are combinations of earlier ones,
    so rank-deficient matrices are common."""
    nrows = draw(st.integers(0, 5)) if rows is None else rows
    ncols = draw(st.integers(0, 6)) if cols is None else cols
    m = []
    for _ in range(nrows):
        if m and draw(st.booleans()):
            s, t = draw(small_ints), draw(small_ints)
            u, v = draw(st.sampled_from(m)), draw(st.sampled_from(m))
            m.append([s * x + t * y for x, y in zip(u, v)])
        else:
            m.append(draw(st.lists(entries, min_size=ncols, max_size=ncols)))
    return m


@st.composite
def square_matrices(draw):
    n = draw(st.integers(0, 5))
    return draw(matrices(rows=n, cols=n))


def _all_fractions(m):
    return all(isinstance(x, Fraction) for row in m for x in row)


# -- properties -------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(matrices())
@example([])  # empty
@example([[]])  # one row, no columns
@example([[0, 0, 0]])  # zero row
@example([[0, 0], [0, 0], [0, 0]])  # zero matrix, tall
@example([[1, 2, 3, 4, 5]])  # wide
@example([[1], [2], [3]])  # tall, rank one
@example([[2, 4], [1, 2]])  # rank deficient
@example([[Fraction(1, 10**30), 3], [7, Fraction(-5, 3 * 10**29)]])  # mixed
def test_rref_rank_nullspace_match_oracle(m):
    reduced, pivots = linalg.rref(m)
    assert (reduced, pivots) == oracle_rref(m)
    assert _all_fractions(reduced)
    assert linalg.rank(m) == len(pivots)
    basis = linalg.nullspace(m)
    assert basis == oracle_nullspace(m)
    assert _all_fractions(basis)
    for v in basis:
        assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in m)


@settings(max_examples=200, deadline=None)
@given(matrices())
@example([])
@example([[0, 0, 0]])
@example([[2, 4], [1, 2]])
@example([[6, 4, 10], [3, 2, 5]])  # not primitive rows
@example([[10**30, 3, 0], [7, -5 * 10**29, 1]])
def test_integer_nullspace_is_primitive_positive_multiple_of_nullspace(m):
    ints = [[x.numerator * (lcm(*[y.denominator for y in row]) // x.denominator)
             for x in map(Fraction, row)] for row in m]
    basis = linalg.integer_nullspace(ints)
    expected = oracle_nullspace(ints)
    assert len(basis) == len(expected)
    for v, w in zip(basis, expected):
        assert all(type(x) is int for x in v) and gcd(*v) == 1
        scale = Fraction(v[w.index(1)])
        assert scale > 0 and [scale * x for x in w] == v


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_solve_matches_oracle(data):
    m = data.draw(matrices())
    b = data.draw(st.lists(entries, min_size=len(m), max_size=len(m)))
    if m and data.draw(st.booleans()):
        # a consistent right-hand side: b = m x
        x = data.draw(st.lists(small_ints, min_size=len(m[0]), max_size=len(m[0])))
        b = [sum(a * xx for a, xx in zip(row, x)) for row in m]
    x = linalg.solve(m, b)
    assert x == oracle_solve(m, b)
    if x is not None:
        assert _all_fractions([x])
        assert [sum(a * xx for a, xx in zip(row, x)) for row in m] == b


@settings(max_examples=200, deadline=None)
@given(square_matrices())
@example([])
@example([[0]])
@example([[0, 1], [1, 0]])  # needs a row swap
@example([[1, 2], [2, 4]])  # singular
@example([[Fraction(1, 10**30), 3], [7, Fraction(-5, 3 * 10**29)]])
def test_det_matches_oracle(m):
    d = linalg.det(m)
    assert isinstance(d, Fraction)
    assert d == oracle_det(m)
    assert (d == 0) == (linalg.rank(m) < len(m))


def test_det_rejects_non_square():
    with pytest.raises(ValueError):
        linalg.det([[1, 2]])
