"""Projective polytopes from facet inequalities.

A polytope lives in a fixed affine chart of P^n and is described by
inequalities <u, y> + z >= 0 with rational data.  All incidence and rank
computations are done exactly; arrangement-level questions (simplicity,
residual flats) use homogeneous coordinates (z, u) so that behaviour at
infinity is handled uniformly.

Each facet's form (z, u) is scaled once, at construction, to its primitive
integer form (`primitive_form`).  The scale is positive, so signs, zero
sets, ranks and canonical kernels do not change, and every exact test runs
on integers: a vertex is the kernel of n facet forms, kept as a primitive
integer homogeneous point (w, w0) with w0 > 0, and feasibility and
incidence are integer dot products.  `Fraction` coordinates are built only
for the vertices that are kept.

The scan over dim-subsets of facets in `enumerate_vertices` is the one
source of arrangement data.  Besides the vertices it yields the simplicity
verdict (every subset meets in one point that no other form vanishes at)
and, for a simple arrangement, the integer point of every subset that is
not a vertex, points at infinity included: the residual points.  Residual
flats of lower codimension are integer kernels of the primitive forms, and
every flat basis is read off an integer kernel vector without a `Fraction`
elimination.

`random_polytope` builds every random instance, in any dimension, from
rational points u of the unit sphere as {y : <u, y> + 1 >= 0}: each facet
hyperplane is tangent to the unit sphere, so every generated polytope
circumscribes it, and coefficients stay small however many facets there are.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from . import linalg
from .polyring import (
    format_fraction,
    json_field,
    json_int,
    json_list,
    parse_rational,
)


def _frac_vec(v):
    return tuple(parse_rational(x) for x in v)


class Facet:
    __slots__ = ("normal", "offset")

    def __init__(self, normal, offset):
        self.normal = _frac_vec(normal)
        self.offset = parse_rational(offset)

    def value_at(self, point):
        return sum(a * b for a, b in zip(self.normal, point)) + self.offset

    def homogeneous(self):
        """Coefficient vector (z, u_1, ..., u_n) of the form in (x0,...,xn)."""
        return (self.offset,) + self.normal

    def to_json(self):
        return {
            "normal": [format_fraction(x) for x in self.normal],
            "offset": format_fraction(self.offset),
        }


class Flat:
    """Projective linear subspace cut out by a set of facet hyperplanes."""

    __slots__ = ("facet_set", "codim", "basis")

    def __init__(self, facet_set, codim, basis):
        self.facet_set = tuple(sorted(facet_set))
        self.codim = codim
        self.basis = [_frac_vec(b) for b in basis]

    @classmethod
    def _from_kernel(cls, facet_set, codim, kernel):
        """Flat of a sorted facet index tuple from the integer kernel vectors
        of its facet forms, without re-reading them: each vector divided by
        its last non-zero entry is the reduced row echelon kernel vector that
        `linalg.nullspace` gives for the free column at that entry."""
        flat = object.__new__(cls)
        flat.facet_set = facet_set
        flat.codim = codim
        flat.basis = []
        for v in kernel:
            last = next(x for x in reversed(v) if x)
            flat.basis.append(tuple(Fraction(x, last) for x in v))
        return flat

    def __repr__(self):
        return f"Flat(facets={self.facet_set}, codim={self.codim})"


class ResidualArrangement:
    """Flats of the facet hyperplane arrangement containing no face."""

    def __init__(self, flats):
        self.flats = list(flats)

    def by_codim(self, codim):
        return [f for f in self.flats if f.codim == codim]

    def lines(self, ambient_dim):
        """Flats of projective dimension one."""
        return self.by_codim(ambient_dim - 1)

    def points(self, ambient_dim):
        return self.by_codim(ambient_dim)

    def planes(self, ambient_dim):
        """Flats of projective dimension two."""
        return self.by_codim(ambient_dim - 2)


class HPolytope:
    """Bounded full-dimensional polytope {y : <u_i, y> + z_i >= 0}."""

    def __init__(self, dim, facets, name=None, validate=True):
        self.dim = dim
        self.facets = [
            f if isinstance(f, Facet) else Facet(f[0], f[1]) for f in facets
        ]
        for f in self.facets:
            if len(f.normal) != dim:
                raise ValueError("facet normal dimension mismatch")
            if all(x == 0 for x in f.normal):
                raise ValueError("zero facet normal")
        self.name = name
        # primitive integer homogeneous forms (z, u_1, ..., u_n)
        self._forms = [
            (c,) + a
            for a, c in (primitive_form(f.normal, f.offset) for f in self.facets)
        ]
        self._vrep = None
        self._incidence = None
        self._points = None  # the vertices as primitive integer (w, w0)
        # (subset, integer point) of each non-vertex dim-subset of a simple
        # arrangement; None for a non-simple one
        self._residual_points = None
        self._simple_arrangement = None
        self._residual = None
        if validate:
            self._validate()

    # -- construction checks ----------------------------------------------

    def _validate(self):
        normals = [form[1:] for form in self._forms]
        if linalg.rank(normals) < self.dim:
            raise ValueError("unbounded polytope: facet normals do not span")
        ray = self._recession_ray()
        if ray is not None:
            direction = json.dumps([format_fraction(x) for x in ray])
            raise ValueError(f"unbounded polytope: recession direction {direction}")
        vrep, inc = self.enumerate_vertices()
        if not vrep:
            raise ValueError("empty polytope")
        # a facet's value at the vertex centroid is the mean of its values at
        # the vertices, all >= 0: it is zero iff every vertex is tight
        for i in range(len(self.facets)):
            if all(i in s for s in inc):
                raise ValueError(
                    f"polytope not full-dimensional (facet {i} not strict at centroid)"
                )
        # every facet must support an (n-1)-face: its tight vertices must
        # affinely span a hyperplane
        for i in range(len(self.facets)):
            tight = [w for w, s in zip(self._points, inc) if i in s]
            if not tight or linalg.rank(tight) < self.dim:
                raise ValueError(f"redundant facet inequality {i}")

    def _recession_ray(self):
        """`recession_ray` of the primitive facet normals."""
        return recession_ray([form[1:] for form in self._forms], self.dim)

    # -- vertex enumeration -------------------------------------------------

    def enumerate_vertices(self):
        """Exact vertex enumeration over dim-subsets of facets.

        Returns (vertices, incidence) where incidence[i] is the frozenset of
        all facet indices met with equality at vertices[i].  The same scan
        records the simplicity verdict and the residual points.
        """
        if self._vrep is not None:
            return self._vrep, self._incidence
        n = self.dim
        # rows (u, z): a subset meets in one point iff its kernel is a single
        # vector (w, w0); it is a vertex iff w0 != 0, and then w0 > 0 and it
        # is primitive, and every form is >= 0 there
        rows = [form[1:] + form[:1] for form in self._forms]
        seen = {}  # homogeneous point -> incidence
        # The arrangement is simple iff every subset meets in one point at
        # which no other form vanishes (an (n+1)-subset is dependent iff its
        # extra form vanishes at the point of the other n).  While that
        # holds, the subsets whose point is not a vertex are kept.
        residual = []
        for subset in itertools.combinations(range(len(rows)), n):
            kern = linalg.integer_nullspace([rows[i] for i in subset])
            if len(kern) != 1:
                residual = None
                continue
            point = tuple(kern[0])
            # a repeated vertex is tight at more than n forms
            if point in seen or (residual is None and not point[n]):
                continue
            values = [sum(map(mul, row, point)) for row in rows]
            if residual is not None and values.count(0) != n:
                residual = None
            if point[n] and min(values) >= 0:
                seen[point] = frozenset(i for i, v in enumerate(values) if not v)
            elif residual is not None:
                residual.append((subset, point))
        kept = sorted(
            (tuple(Fraction(x, point[n]) for x in point[:n]), point, tight)
            for point, tight in seen.items()
        )
        self._vrep = [v for v, _, _ in kept]
        self._points = [point for _, point, _ in kept]
        self._incidence = [tight for _, _, tight in kept]
        self._residual_points = residual
        return self._vrep, self._incidence

    def is_simple(self):
        """Every vertex incident to exactly dim facets."""
        _, inc = self.enumerate_vertices()
        return all(len(s) == self.dim for s in inc)

    def interior_point(self):
        """Vertex centroid; strictly feasible for full-dimensional input."""
        vrep, _ = self.enumerate_vertices()
        n = len(vrep)
        if not n:
            raise ValueError("empty polytope")
        return tuple(
            sum(v[i] for v in vrep) / n for i in range(self.dim)
        )

    # -- arrangement-level structure ----------------------------------------

    def homogeneous_forms(self):
        return [list(f.homogeneous()) for f in self.facets]

    def is_simple_arrangement(self):
        """Check the projective simplicity of the facet hyperplane arrangement.

        Returns (True, None) or (False, witness_subset); the witness is the
        first dependent subset in order of size, then lexicographically.
        The verdict is read off the vertex scan; a rank search over subsets
        runs only to name a witness, or when there are fewer than dim facets.
        """
        if self._simple_arrangement is None:
            self._simple_arrangement = self._check_simple_arrangement()
        return self._simple_arrangement

    def _check_simple_arrangement(self):
        forms = self._forms
        k = len(forms)
        n = self.dim
        if k >= n:
            self.enumerate_vertices()
            if self._residual_points is not None:
                return True, None
        # the scan found a dependent subset, or there are fewer than n forms
        for i in range(2, min(k, n + 1) + 1):
            for subset in itertools.combinations(range(k), i):
                if linalg.rank([forms[j] for j in subset]) < i:
                    return False, subset
        return True, None

    def residual_arrangement(self):
        """All intersections of facet hyperplanes containing no face.

        Requires a simple arrangement; under simplicity a flat contains a
        face iff some vertex is incident to all its defining facets.  The
        points (codimension dim) are those the vertex scan kept; flats of
        lower codimension are integer kernels of the primitive facet forms.
        """
        if self._residual is None:
            self._residual = self._compute_residual_arrangement()
        return self._residual

    def _compute_residual_arrangement(self):
        simple, witness = self.is_simple_arrangement()
        if not simple:
            raise ValueError(
                f"residual arrangement requires a simple arrangement; "
                f"violating facet subset {witness}"
            )
        _, inc = self.enumerate_vertices()
        forms = self._forms
        n = self.dim
        flats = []
        for size in range(2, n):
            faces = {
                sub for tight in inc for sub in itertools.combinations(sorted(tight), size)
            }
            for subset in itertools.combinations(range(len(forms)), size):
                if subset not in faces:
                    kernel = linalg.integer_nullspace([forms[j] for j in subset])
                    flats.append(Flat._from_kernel(subset, size, kernel))
        if n >= 2:
            # the scan's points are (w, w0); flat coordinates are (x0, ..., xn)
            for subset, point in self._residual_points:
                flats.append(Flat._from_kernel(subset, n, [point[n:] + point[:n]]))
        return ResidualArrangement(flats)

    # -- polygon helpers -----------------------------------------------------

    def polygon_ccw(self):
        """Counterclockwise vertex cycle starting at the lexicographic
        minimum (polygons only), by a walk along the edges: the same list as
        `order_ccw` of the vertices, without a sort.  Raises ValueError when
        the vertices do not bound a polygon edge by edge, which validation
        rules out."""
        if self.dim != 2:
            raise ValueError("polygon_ccw requires a polygon")
        vrep, inc = self.enumerate_vertices()
        # walk the edges: every vertex lies on two edge lines (a repeated
        # inequality is one line) and every edge line holds two vertices
        lines, on_line = [], {}
        for v, tight in enumerate(inc):
            here = {self._forms[i] for i in tight}
            if len(here) != 2:
                point = ", ".join(format_fraction(x) for x in vrep[v])
                raise ValueError(f"vertex ({point}) lies on {len(here)} edge lines, not 2")
            lines.append(here)
            for line in here:
                on_line.setdefault(line, []).append(v)
        if not vrep or any(len(ends) != 2 for ends in on_line.values()):
            raise ValueError("the vertices do not bound a polygon")

        def across(v, line):
            a, b = on_line[line]
            return b if a == v else a

        # from the lexicographic minimum o, the neighbour a comes next when
        # the other neighbour b lies on the left of o -> a
        (a, line_a), (b, line_b) = ((across(0, line), line) for line in lines[0])
        o, x, y = vrep[0], vrep[a], vrep[b]
        cross = (x[0] - o[0]) * (y[1] - o[1]) - (x[1] - o[1]) * (y[0] - o[0])
        v, line = (a, line_a) if cross > 0 else (b, line_b)
        cycle = [0]
        while v != 0:
            cycle.append(v)
            (line,) = lines[v] - {line}
            v = across(v, line)
        if len(cycle) != len(vrep):
            raise ValueError("the vertices do not bound a polygon")
        return [vrep[v] for v in cycle]

    # -- serialization ---------------------------------------------------------

    def to_json(self):
        data = {
            "dim": self.dim,
            "facets": [f.to_json() for f in self.facets],
        }
        if self.name:
            data["name"] = self.name
        return data

    @staticmethod
    def from_json(data, validate=True):
        dim = json_int(json_field(data, "dim", "polytope"), "dim")
        if dim < 1:
            raise ValueError(f"dim must be positive, got {dim}")
        facets = []
        for f in json_list(json_field(data, "facets", "polytope"), "facets"):
            normal = json_list(json_field(f, "normal", "facet"), "facet normal", dim)
            facets.append((normal, json_field(f, "offset", "facet")))
        return HPolytope(dim, facets, name=data.get("name"), validate=validate)


def order_ccw(points):
    """Order planar points counterclockwise around their centroid, starting
    from the lexicographically smallest."""
    points = [_frac_vec(p) for p in points]
    n = len(points)
    cx = sum(p[0] for p in points) / n
    cy = sum(p[1] for p in points) / n

    def half(p):
        dx, dy = p[0] - cx, p[1] - cy
        return 0 if (dy > 0 or (dy == 0 and dx > 0)) else 1

    # sort by angle via cross-product comparisons within half-planes
    import functools

    def compare(p, q):
        hp, hq = half(p), half(q)
        if hp != hq:
            return -1 if hp < hq else 1
        px, py = p[0] - cx, p[1] - cy
        qx, qy = q[0] - cx, q[1] - cy
        cross = px * qy - py * qx
        if cross > 0:
            return -1
        if cross < 0:
            return 1
        return 0

    ordered = sorted(points, key=functools.cmp_to_key(compare))
    start = ordered.index(min(points))
    return ordered[start:] + ordered[:start]


def recession_ray(normals, dim):
    """A non-zero direction d with <u, d> >= 0 for every integer normal u, if
    any: the first one, from the kernels of (dim-1)-subsets of the normals."""
    for subset in itertools.combinations(range(len(normals)), dim - 1):
        if dim == 1:
            kern = [[1]]
        else:
            kern = linalg.integer_nullspace([normals[i] for i in subset])
        for d in kern:
            for cand in (d, [-x for x in d]):
                if all(sum(map(mul, u, cand)) >= 0 for u in normals):
                    # cand is a multiple of the canonical kernel vector,
                    # whose last non-zero entry is 1, or of its negative
                    scale = abs(next(x for x in reversed(cand) if x))
                    return tuple(Fraction(x, scale) for x in cand)
    return None


def _ccw_cycle(polygon):
    """Counterclockwise vertex cycle of a polygon: `polygon_ccw()` of an
    HPolytope, or an explicitly ordered vertex list, read exactly, which
    must be in convex counterclockwise position."""
    if isinstance(polygon, HPolytope):
        return polygon.polygon_ccw()
    cycle = _polygon_points(polygon)
    n = len(cycle)
    for i in range(n):
        a, b, c = cycle[i - 1], cycle[i], cycle[(i + 1) % n]
        cross = (b[0] - a[0]) * (c[1] - b[1]) - (b[1] - a[1]) * (c[0] - b[0])
        if cross <= 0:
            raise ValueError("vertices are not in convex counterclockwise position")
    return cycle


def _polygon_points(points):
    """The vertices of a polygon, read exactly; there must be at least 3."""
    points = [_frac_vec(p) for p in points]
    if len(points) < 3:
        raise ValueError(f"a polygon needs at least 3 vertices, got {len(points)}")
    return points


def polygon_from_vertices(vertices, name=None):
    """HPolytope of a convex polygon given its vertices (any order)."""
    return HPolytope(2, inward_edge_forms(order_ccw(_polygon_points(vertices))), name=name)


def primitive_form(normal, offset):
    """Scale a rational inequality to coprime integer coefficients."""
    vals = [v if isinstance(v, int) else Fraction(v) for v in (*normal, offset)]
    den = lcm(*(v.denominator for v in vals))
    ints = [v.numerator * (den // v.denominator) for v in vals]
    g = gcd(*ints)
    if g:
        ints = [v // g for v in ints]
    return tuple(ints[:-1]), ints[-1]


def inward_edge_forms(cycle):
    """Primitive inward facet forms of a ccw vertex cycle.

    Edge i lies between cycle[i-1] and cycle[i] (so form i vanishes there),
    matching the convention that edge e_i joins v_{i-1} and v_i.
    """
    return [_edge_form(cycle[i - 1], cycle[i]) for i in range(len(cycle))]


def _edge_form(a, b):
    """Primitive form of the line from a to b, positive on its left (inward).

    The line is the cross product of the integer homogeneous points of a
    and b, which is d_a*d_b times (a0*b1 - a1*b0, a1 - b1, b0 - a0), so no
    Fraction is built."""
    c, w0, w1 = _cross3(_homogeneous(a), _homogeneous(b))
    g = gcd(c, w0, w1) or 1  # a == b gives the zero form
    return (w0 // g, w1 // g), c // g


def _homogeneous(v):
    """The integer homogeneous point (d, d*x, d*y), d > 0, of a rational
    point v = (x, y)."""
    x, y = v
    return (x.denominator * y.denominator, x.numerator * y.denominator, y.numerator * x.denominator)


def _cross3(u, v):
    """The line through two homogeneous points, or the point on two lines."""
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def euler_data(polytope):
    """(vertices, edges, facets) counts of a 3-polytope from incidence."""
    if polytope.dim != 3:
        raise ValueError("euler_data requires a 3-polytope")
    vrep, inc = polytope.enumerate_vertices()
    # two facets of a 3-polytope meet in a face: empty, a vertex or an edge,
    # and each edge lies in exactly two facets, so the edges are the facet
    # pairs sharing at least two vertices
    k = len(polytope.facets)
    on = [{v for v, tight in enumerate(inc) if f in tight} for f in range(k)]
    edges = sum(1 for a, b in itertools.combinations(on, 2) if len(a & b) >= 2)
    return len(vrep), edges, k


# -- random instances (used by property suites and CLI sweeps) --------------


def random_polytope(rng, dim, k):
    """Random polytope {y : <u_i, y> + 1 >= 0} with k facets in R^dim, simple
    and with a simple facet arrangement.

    Each u_i is a rational point of the unit sphere: the inverse
    stereographic image of t in Q^(dim-1) with one denominator q <= k and
    numerators |p| <= 2q.  The polytope is the polar of conv(-u_i); every
    facet is tangent to the unit sphere, and the primitive forms have entries
    below 4*dim*k^2.  Draws are repeated until the polytope validates
    (bounded, no redundant facet) and its arrangement is simple, which makes
    the polytope simple too.
    """
    if dim < 2 or k <= dim:
        raise ValueError(f"no polytope in dimension {dim} has {k} facets")
    while True:
        forms = {}
        while len(forms) < k:
            q = rng.randint(1, k)
            ps = [rng.randint(-2 * q, 2 * q) for _ in range(dim - 1)]
            s = sum(p * p for p in ps)
            normal = [2 * p * q for p in ps] + [s - q * q]
            forms[primitive_form(normal, s + q * q)] = None
        # the first two checks of HPolytope's validation, on the integer
        # normals, before anything is built
        normals = [u for u, _ in forms]
        if linalg.rank(normals) < dim or recession_ray(normals, dim) is not None:
            continue
        try:
            poly = HPolytope(dim, forms)
        except ValueError:
            continue
        if poly.is_simple_arrangement()[0]:
            return poly
