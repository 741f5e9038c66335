"""Exact linear algebra over the rationals (list-of-list matrices).

Entries are ints or Fractions.  All elimination runs on integers: each row
is scaled by the lcm of its denominators, which changes neither its row
space nor its kernel, and rows are kept primitive by dividing out their gcd
after every elimination step (fraction-free elimination in the sense of
Bareiss 1968).  Fractions are built only when reduced rows are read off, so
results are exact rationals, identical to those of rational Gauss-Jordan
elimination because the reduced row echelon form is canonical.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

_ZERO = Fraction(0)


def _integer_row(row):
    """(integer row, scale): the row times the lcm of its denominators."""
    scale = lcm(*[x.denominator for x in row])
    if scale == 1:
        return [x.numerator for x in row], 1
    return [x.numerator * (scale // x.denominator) for x in row], scale


def _eliminate(m):
    """Integer Gauss-Jordan elimination of m.

    Returns (rows, pivots): primitive integer rows, one per pivot, where row
    r is a non-zero multiple of the r-th reduced row echelon row of m, and
    the pivot column list.
    """
    return _eliminate_ints([_integer_row(row)[0] for row in m])


def _eliminate_ints(a):
    """`_eliminate` of the integer rows in the list a, which it reorders."""
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        p = next((i for i in range(r, nrows) if a[i][c]), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        prow = a[r]
        pv = prow[c]
        for i in range(nrows):
            f = a[i][c]
            if i == r or not f:
                continue
            row = [pv * x - f * y for x, y in zip(a[i], prow)]
            g = gcd(*row)
            if g > 1:
                row = [x // g for x in row]
            a[i] = row
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return a[:r], pivots


def rref(m):
    """Reduced row echelon form; returns (rref matrix, pivot column list)."""
    rows, pivots = _eliminate(m)
    out = [
        [Fraction(x, row[c]) if x else _ZERO for x in row]
        for row, c in zip(rows, pivots)
    ]
    ncols = len(m[0]) if m else 0
    out.extend([_ZERO] * ncols for _ in range(len(m) - len(rows)))
    return out, pivots


def rank(m):
    return len(_eliminate(m)[1])


def nullspace(m):
    """Basis of the right kernel of m (list of Fraction vectors)."""
    if not m:
        return []
    rows, pivots = _eliminate(m)
    return [
        [Fraction(x, v[fc]) if x else _ZERO for x in v]
        for fc, v in _kernel(rows, pivots, len(m[0]))
    ]


def integer_nullspace(m):
    """Basis of the right kernel of an integer matrix m: the primitive
    integer vectors that are positive multiples of the `nullspace(m)`
    vectors, in the same order."""
    if not m:
        return []
    rows, pivots = _eliminate_ints(list(m))
    return [v for _, v in _kernel(rows, pivots, len(m[0]))]


def _kernel(rows, pivots, cols):
    """(free column, kernel vector) for each free column of the eliminated
    rows: the reduced row echelon kernel vector, 1 at its free column,
    scaled by the least positive integer that clears its denominators,
    which leaves it primitive."""
    pivot_set = set(pivots)
    out = []
    for fc in range(cols):
        if fc in pivot_set:
            continue
        # entry pc is -row[fc] / row[pc]; the lcm of the reduced denominators
        entries = [(pc, row[fc], row[pc]) for row, pc in zip(rows, pivots) if row[fc]]
        scale = lcm(*[p // gcd(f, p) for _, f, p in entries])
        v = [0] * cols
        v[fc] = scale
        for pc, f, p in entries:
            v[pc] = -f * scale // p
        out.append((fc, v))
    return out


def solve(m, b):
    """One exact solution of m x = b, or None if inconsistent."""
    if not m:
        return [] if all(x == 0 for x in b) else None
    cols = len(m[0])
    rows, pivots = _eliminate([list(row) + [bb] for row, bb in zip(m, b)])
    if cols in pivots:
        return None  # pivot in the augmented column: inconsistent
    x = [_ZERO] * cols
    for row, pc in zip(rows, pivots):
        if row[cols]:
            x[pc] = Fraction(row[cols], row[pc])
    return x


def det(m):
    """Exact determinant of a square matrix, as a Fraction.

    Bareiss fraction-free elimination on the integer-scaled rows; the
    result is divided back by the product of the row scales.
    """
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("determinant of a non-square matrix")
    a = []
    scale = 1
    for row in m:
        ints, s = _integer_row(row)
        a.append(ints)
        scale *= s
    sign = 1
    prev = 1
    for k in range(n - 1):
        if not a[k][k]:
            p = next((i for i in range(k + 1, n) if a[i][k]), None)
            if p is None:
                return _ZERO
            a[k], a[p] = a[p], a[k]
            sign = -sign
        pk = a[k]
        pkk = pk[k]
        for i in range(k + 1, n):
            ai = a[i]
            aik = ai[k]
            for j in range(k + 1, n):
                ai[j] = (ai[j] * pkk - aik * pk[j]) // prev
        prev = pkk
    last = a[n - 1][n - 1] if n else 1
    return Fraction(sign * last, scale)
