"""Seeded input generators with bounded coefficient sizes.

Polygons are inscribed in the unit circle and 3-polytopes circumscribe the
unit sphere, so every coordinate is a small-height rational and the facet
coefficients stay within a few bits however many facets there are.  The
library's own ``random_simple_3polytope`` is not used: its truncation
planes grow to thousands of digits by k = 11, and fixing that generator
would change the inputs of a benchmark built on it.  The simplicity tests below are written here, with plain
integer determinants, so that the inputs do not depend on the code under
test.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import gcd

# Height bounds of the rational parameters.
POLYGON_HEIGHT = 8  # t = p/q with |p| <= 8, 1 <= q <= 5
SPHERE_HEIGHT = 4  # (a, b) = (p/q, r/q) with 1 <= q <= 4, |p|, |r| <= 2q


def rng_for(workload, seed, pass_index):
    """Independent generator per (workload, seed, pass); str seeds hash the
    same in every process."""
    return random.Random(f"perfbench:{workload}:{seed}:{pass_index}")


def _primitive(ints):
    g = 0
    for v in ints:
        g = gcd(g, v)
    return [v // g for v in ints]


def _det3(a, b, c):
    return (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - a[1] * (b[0] * c[2] - b[2] * c[0])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
    )


def _cross(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def polygon_forms(rng, n):
    """Primitive inward edge forms (offset, w1, w2) of a convex n-gon whose
    vertices are rational points of the unit circle, in counterclockwise
    order, redrawn until no three edge lines meet (a simple arrangement)."""
    while True:
        ts = set()
        while len(ts) < n:
            q = rng.randint(1, 5)
            ts.add(Fraction(rng.randint(-POLYGON_HEIGHT, POLYGON_HEIGHT), q))
        # the angle 2*atan(t) increases with t: sorted t is a ccw cycle
        pts = []
        for t in sorted(ts):
            p, q = t.numerator, t.denominator
            d = p * p + q * q
            pts.append((d, q * q - p * p, 2 * p * q))  # homogeneous (x0, x1, x2)
        forms = []
        for i in range(n):
            # the line through two points is their cross product; orient it
            # to be positive at the next vertex, which is inside
            form = _primitive(_cross(pts[i - 1], pts[i]))
            if sum(a * b for a, b in zip(form, pts[(i + 1) % n])) < 0:
                form = [-x for x in form]
            forms.append(tuple(form))
        if all(_det3(*tri) != 0 for tri in itertools.combinations(forms, 3)):
            return forms


def _sphere_point(rng):
    q = rng.randint(1, SPHERE_HEIGHT)
    p = rng.randint(-2 * q, 2 * q)
    r = rng.randint(-2 * q, 2 * q)
    # inverse stereographic image of (p/q, r/q), as (u1, u2, u3) / d
    d = p * p + r * r + q * q
    return tuple(_primitive([d, 2 * p * q, 2 * r * q, p * p + r * r - q * q]))


def polytope_forms(rng, k):
    """Primitive facet forms (d, d*u) of {y : <u, y> + 1 >= 0} for k rational
    points u of the unit sphere, redrawn until the polytope is bounded,
    simple and has a simple facet arrangement.

    The polytope is the polar of conv(-u_i).  Points of a sphere are in
    convex position, so no inequality is redundant; it is bounded iff the
    origin is interior to conv(u_i); its facet arrangement is simple (and
    the polytope itself simple) iff no four of the u_i are coplanar.
    """
    while True:
        pts = set()
        while len(pts) < k:
            pts.add(_sphere_point(rng))
        pts = sorted(pts)
        if _no_four_coplanar(pts) and _origin_interior(pts):
            return pts


def _no_four_coplanar(pts):
    # (d, d*u) homogeneous vectors: four are dependent iff the u are coplanar
    for quad in itertools.combinations(pts, 4):
        if _det4(quad) == 0:
            return False
    return True


def _det4(rows):
    a = rows[0]
    total = 0
    for j in range(4):
        minor = [[r[c] for c in range(4) if c != j] for r in rows[1:]]
        term = a[j] * _det3(*minor)
        total += -term if j % 2 else term
    return total


def _origin_interior(pts):
    """Origin strictly inside conv(u_i): it lies strictly on the inner side
    of every hull facet.  With no four points coplanar, a triple spans a
    hull facet iff all other points lie strictly on one side of it."""
    k = len(pts)
    for tri in itertools.combinations(range(k), 3):
        # the plane through three points u_a, u_b, u_c, as a 4-vector h with
        # h . (1, u) = 0: the cofactor vector of the three homogeneous rows
        rows = [pts[i] for i in tri]
        h = [
            (-1) ** j * _det3(*[[r[c] for c in range(4) if c != j] for r in rows])
            for j in range(4)
        ]
        sides = {sum(a * b for a, b in zip(h, pts[m])) > 0 for m in range(k) if m not in tri}
        if len(sides) != 1:
            continue
        origin = h[0]  # h . (1, 0, 0, 0)
        if origin == 0 or (origin > 0) != sides.pop():
            return False
    return True


def polytope_json(dim, forms):
    """H-representation JSON, exact, as the CLI's --input expects: each form
    (offset, normal...) means <normal, y> + offset >= 0."""
    return {
        "dim": dim,
        "facets": [
            {"normal": [str(x) for x in f[1:]], "offset": str(f[0])} for f in forms
        ],
    }


def max_bits(forms):
    return max(abs(x).bit_length() for f in forms for x in f)
