"""Line arrangements in P^3.

Implements the recursive "nice" arrangement class (disjoint augmentation +
plane removal, no three concurrent lines), exact evaluation-based h^0 checks
for forms vanishing on line arrangements, combinatorial singularity
certificates for adjoints of 3-polytopes, and 2x2 determinantal
representations of quadrics containing a codimension-two linear subspace.

Incidence of general lines is an exact rank computation over the
rationals.  Incidence of residual lines of a 3-polytope is read off facet
sets: its arrangement is simple, so residual lines meet only where they
share a facet, and `HPolytope.residual_arrangement()` is its one source.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import comb

from . import linalg
from .adjoint import vanishes_on_flat
from .polyring import (
    PolyMatrix,
    format_fraction,
    gradient_at,
    json_field,
    json_int,
    json_list,
)
from .polytope import _frac_vec, primitive_form


def _primitive_vector(v):
    w, c = primitive_form(v[:-1], v[-1])
    return tuple(w) + (c,)


class Line3:
    """A projective line in P^3 spanned by two rational points.

    Canonical form: the reduced row echelon basis of the span, so equality
    and hashing are representation-independent.
    """

    __slots__ = ("points", "span", "facets")

    def __init__(self, p, q, facets=None):
        p, q = _frac_vec(p), _frac_vec(q)
        if len(p) != 4 or len(q) != 4:
            raise ValueError("points of a line in P^3 need 4 coordinates")
        reduced, pivots = linalg.rref([list(p), list(q)])
        if len(pivots) != 2:
            raise ValueError("spanning points are not linearly independent")
        self.points = (p, q)
        self.span = tuple(tuple(row) for row in reduced)
        self.facets = tuple(facets) if facets is not None else None

    def __eq__(self, other):
        return isinstance(other, Line3) and self.span == other.span

    def __hash__(self):
        return hash(self.span)

    def __lt__(self, other):
        return self.span < other.span

    def __repr__(self):
        if self.facets is not None:
            return f"Line3(R{self.facets[0]}{self.facets[1]})"
        return f"Line3(span={self.span})"

    def contains_point(self, pt):
        return linalg.rank([list(self.span[0]), list(self.span[1]), list(pt)]) == 2

    def meets(self, other):
        """Two lines in P^3 intersect iff their joint span has rank <= 3."""
        rows = [list(r) for r in self.span + other.span]
        return linalg.rank(rows) <= 3

    def common_point(self, other):
        """Intersection point of two distinct meeting lines, else None."""
        if self == other:
            return None
        p1, p2 = self.span
        q1, q2 = other.span
        m = [[p1[i], p2[i], -q1[i], -q2[i]] for i in range(4)]
        kern = linalg.nullspace(m)
        if len(kern) != 1:
            return None
        a, b, _, _ = kern[0]
        pt = tuple(a * p1[i] + b * p2[i] for i in range(4))
        if all(x == 0 for x in pt):
            return None
        return _primitive_vector(pt)

    def contained_in_plane(self, h):
        """h is a 4-vector of plane coefficients."""
        return all(
            sum(a * b for a, b in zip(h, p)) == 0 for p in self.span
        )

    def a_plane_through(self):
        """Some rational plane containing this line (from the pencil)."""
        kern = linalg.nullspace([list(r) for r in self.span])
        return _primitive_vector(tuple(kern[0]))

    def to_json(self):
        data = {"points": [[format_fraction(x) for x in p] for p in self.points]}
        if self.facets is not None:
            data["facets"] = list(self.facets)
        return data

    @staticmethod
    def from_json(data):
        p, q = json_list(json_field(data, "points", "line"), "line points", 2)
        facets = data.get("facets")
        if facets is not None:
            facets = [
                json_int(i, "facet index") for i in json_list(facets, "line facets")
            ]
        return Line3(json_list(p, "point"), json_list(q, "point"), facets=facets)


class LineArrangement:
    """Duplicate-free finite set of lines in P^3, kept in canonical order."""

    def __init__(self, lines):
        lines = list(lines)
        if len(set(lines)) != len(lines):
            raise ValueError("duplicate lines in arrangement")
        self.lines = sorted(lines)

    def __len__(self):
        return len(self.lines)

    def __iter__(self):
        return iter(self.lines)

    def to_json(self):
        return {"lines": [l.to_json() for l in self.lines]}

    @staticmethod
    def from_json(data):
        lines = json_list(json_field(data, "lines", "line arrangement"), "lines")
        return LineArrangement([Line3.from_json(l) for l in lines])


def plane_of_coplanar_pair(l1, l2):
    """Plane spanned by two distinct coplanar lines, else None."""
    rows = [list(r) for r in l1.span + l2.span]
    kern = linalg.nullspace(rows)
    if len(kern) != 1:
        return None
    return _primitive_vector(tuple(kern[0]))


def no_three_concurrent(lines):
    for a, b, c in itertools.combinations(lines, 3):
        pt = a.common_point(b)
        if pt is not None and c.contains_point(pt):
            return False
    return True


@dataclass
class NiceCertificate:
    """Recursive witness that an arrangement is nice for `degree`.

    Top level records the disjoint lines Z, the remaining lines Y, and the
    witness plane H; `y_certificate` certifies Y for degree-1 and
    `remainder_certificate` certifies the lines not contained in H.
    """

    degree: int
    lines: list
    z_lines: list = field(default_factory=list)
    y_lines: list = field(default_factory=list)
    plane: tuple | None = None
    y_certificate: "NiceCertificate | None" = None
    remainder_certificate: "NiceCertificate | None" = None

    def to_json(self):
        data = {
            "degree": self.degree,
            "lines": [l.to_json() for l in self.lines],
        }
        if self.degree > 1:
            data["z_lines"] = [l.to_json() for l in self.z_lines]
            data["y_lines"] = [l.to_json() for l in self.y_lines]
            data["plane"] = [format_fraction(x) for x in self.plane]
            data["y_certificate"] = self.y_certificate.to_json()
            data["remainder_certificate"] = self.remainder_certificate.to_json()
        return data


def is_nice(arrangement, degree):
    """Certificate that the arrangement is nice for `degree`, or None.

    An arrangement is nice for degree D when it has binom(D, 2) lines and
    decomposes as Y (nice for D-1) plus D-1 pairwise disjoint lines Z, each
    meeting exactly D-2 lines of Y, with no three lines concurrent and a
    plane H whose non-contained lines are again nice for D-1.  The empty
    arrangement is the only one nice for degree 1.
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    lines = list(arrangement)
    return _is_nice(tuple(sorted(lines)), degree, {})


def _is_nice(lines, degree, memo):
    key = (frozenset(lines), degree)
    if key in memo:
        return memo[key]
    result = _is_nice_search(lines, degree, memo)
    memo[key] = result
    return result


def _is_nice_search(lines, degree, memo):
    if len(lines) != comb(degree, 2):
        return None
    if degree == 1:
        return NiceCertificate(1, [])
    if not no_three_concurrent(lines):
        return None
    if degree == 2:
        # single line: Y empty, Z is the line, and any plane through it
        # removes everything, leaving the empty arrangement (nice for 1).
        line = lines[0]
        empty = NiceCertificate(1, [])
        return NiceCertificate(
            2, list(lines), [line], [], line.a_plane_through(), empty, empty
        )
    for z_idx in itertools.combinations(range(len(lines)), degree - 1):
        z = [lines[i] for i in z_idx]
        if any(a.meets(b) for a, b in itertools.combinations(z, 2)):
            continue
        y = tuple(lines[i] for i in range(len(lines)) if i not in z_idx)
        if any(sum(1 for l in y if zl.meets(l)) != degree - 2 for zl in z):
            continue
        y_cert = _is_nice(y, degree - 1, memo)
        if y_cert is None:
            continue
        for h in _plane_candidates(lines, degree):
            rest = tuple(l for l in lines if not l.contained_in_plane(h))
            if len(rest) != comb(degree - 1, 2):
                continue
            rest_cert = _is_nice(rest, degree - 1, memo)
            if rest_cert is not None:
                return NiceCertificate(
                    degree, list(lines), z, list(y), h, y_cert, rest_cert
                )
    return None


def _plane_candidates(lines, degree):
    """Planes that could contain the degree-1 many removed lines.

    A plane containing >= 2 lines is spanned by any two of them, so the
    planes spanned by coplanar pairs form a complete candidate set for
    degree >= 3.
    """
    seen = set()
    for a, b in itertools.combinations(lines, 2):
        h = plane_of_coplanar_pair(a, b)
        if h is not None and h not in seen:
            seen.add(h)
            yield h


def find_nice_subarrangement(lines, degree):
    """First binom(degree,2)-subset (lexicographic in canonical line order)
    certified nice for `degree`, as (subset, certificate); None if absent."""
    lines = sorted(set(lines))
    size = comb(degree, 2)
    memo = {}
    for subset in itertools.combinations(lines, size):
        cert = _is_nice(tuple(subset), degree, memo)
        if cert is not None:
            return list(subset), cert
    return None


def h0_vanishing_dimension(arrangement, m):
    """dim of degree-m forms on P^3 vanishing on every line, exactly.

    A degree-m form vanishing at m+1 distinct points of a line vanishes on
    the whole line, so an evaluation matrix at the points p, q, p+q, ...,
    p+(m-1)q per line computes the kernel exactly.  p and q are the line's
    span rows scaled to primitive integer vectors, so the matrix is integral.
    """
    if m < 0:
        return 0  # the only form of negative degree is zero
    monomials = [
        e
        for e in itertools.product(range(m + 1), repeat=4)
        if sum(e) == m
    ]
    rows = []
    for line in arrangement:
        p, q = (_primitive_vector(row) for row in line.span)
        pts = [p, q] + [
            tuple(p[i] + t * q[i] for i in range(4)) for t in range(1, m)
        ]
        for pt in pts[: m + 1]:
            rows.append(
                [
                    pt[0] ** e[0] * pt[1] ** e[1] * pt[2] ** e[2] * pt[3] ** e[3]
                    for e in monomials
                ]
            )
    if not rows:
        return len(monomials)
    return len(monomials) - linalg.rank(rows)


def residual_lines(polytope):
    """Residual lines of a 3-polytope as Line3 objects with facet provenance."""
    if polytope.dim != 3:
        raise ValueError("residual lines require a 3-polytope")
    out = []
    for flat in polytope.residual_arrangement().lines(3):
        out.append(Line3(flat.basis[0], flat.basis[1], facets=flat.facet_set))
    return out


def concurrency_singularity_certificate(polytope, alpha):
    """Singular point of the adjoint surface from three concurrent residual
    lines: returns (point, (i, j, k) line indices) or None.

    The indices refer to the order of `residual_lines(polytope)`.  In a
    simple arrangement any four facet forms are independent, so two residual
    lines meet only if they share a facet, and three are concurrent exactly
    when they are R_ab, R_ac and R_bc, meeting at the residual point
    V(l_a, l_b, l_c).  The certificate is read off the facet sets: the first
    residual point (in stored order, which is the lexicographic order of
    the line index triples) whose three facet pairs are residual lines.

    A common point of three residual lines is a singular point of the
    adjoint, so a non-zero gradient there is a hard failure.
    """
    if polytope.dim != 3:
        raise ValueError("residual lines require a 3-polytope")
    ra = polytope.residual_arrangement()
    lines = ra.lines(3)
    index = {flat.facet_set: i for i, flat in enumerate(lines)}
    for point in ra.points(3):
        a, b, c = point.facet_set
        i, j, k = (index.get(pair) for pair in ((a, b), (a, c), (b, c)))
        if None in (i, j, k):
            continue
        pt = Line3(*lines[i].basis).common_point(Line3(*lines[j].basis))
        grad = gradient_at(alpha, pt)
        if any(g != 0 for g in grad):
            raise AssertionError(
                "adjoint gradient non-zero at a triple point of residual "
                f"lines {(i, j, k)}: inconsistent adjoint/arrangement pipeline"
            )
        return pt, (i, j, k)
    return None


def _linear_coefficients(l):
    """Coefficient vector of a homogeneous linear form."""
    if l.degree() != 1 or not l.is_homogeneous():
        raise ValueError("expected a homogeneous linear form")
    n = len(l.registry)
    return [
        l.coefficient(tuple(1 if i == t else 0 for i in range(n)))
        for t in range(n)
    ]


def detrep_from_codim2_subspace(f, l1, l2):
    """2x2 representation [[l1, l2], [-q2, q1]] with det = f exactly, for a
    homogeneous quadric f vanishing on the codim-2 subspace V(l1, l2)."""
    if f.degree() != 2 or not f.is_homogeneous():
        raise ValueError("f must be a homogeneous quadric")
    reg = f.registry
    l1 = l1 if l1.registry == reg else l1.rename(reg)
    l2 = l2 if l2.registry == reg else l2.rename(reg)
    c1, c2 = _linear_coefficients(l1), _linear_coefficients(l2)
    if linalg.rank([c1, c2]) != 2:
        raise ValueError("l1, l2 do not cut out a codimension-two subspace")
    basis = linalg.nullspace([c1, c2])
    if not vanishes_on_flat(f, basis):
        raise ValueError("quadric does not vanish on the subspace V(l1, l2)")
    n = len(reg)
    # unknowns: coefficients of q1 (n) and q2 (n); match l1*q1 + l2*q2 = f,
    # one row per quadratic monomial, read off the 2n products l * x_t
    quad_monomials = sorted(
        {e for e in itertools.product(range(3), repeat=n) if sum(e) == 2}
    )
    products = [l * x for l in (l1, l2) for x in reg.variables()]
    rows = [[p.coefficient(e) for p in products] for e in quad_monomials]
    sol = linalg.solve(rows, [f.coefficient(e) for e in quad_monomials])
    if sol is None:
        raise ValueError("quadric is not in the ideal (l1, l2)")
    q1 = reg.linear_form(sol[:n])
    q2 = reg.linear_form(sol[n:])
    m = PolyMatrix([[l1, l2], [-q2, q1]])
    if m.det() != f:
        raise AssertionError("determinantal representation lost the quadric")
    return m
