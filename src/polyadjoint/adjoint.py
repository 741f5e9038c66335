"""Adjoint polynomials of polytopes.

Provides the universal adjoint (vertex/cone sum over the normal fan), its
specialization to the adjoint polynomial alpha_P, the edge-form formula for
polygons from one running-product kernel (`_prefix_products`), a
quadrilateral's adjoint as the line through its two residual points,
Warren's triangulation formula in the plane, and exact vanishing checks on
flats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .polyring import _ONE, Poly, VarRegistry, _from_ints, _Sum
from .polytope import _ccw_cycle, _cross3, _frac_vec, inward_edge_forms


def facet_registry(k, prefix="x"):
    return VarRegistry([f"{prefix}{i}" for i in range(k)])


def affine_registry(n):
    """Chart coordinates x1..xn (x0 is reserved for homogenization)."""
    return VarRegistry([f"x{i}" for i in range(1, n + 1)])


def homogeneous_registry(n):
    return VarRegistry([f"x{i}" for i in range(n + 1)])


@dataclass
class UniversalAdjoint:
    poly: Poly
    registry: VarRegistry  # one variable per facet, in facet order


@dataclass
class AdjointResult:
    affine: Poly  # in y1..yn
    homogeneous: Poly  # in x0..xn
    degree: int


def universal_adjoint(polytope, registry=None):
    """Adj_P(x) = sum over vertices of |det U_sigma| * prod of the other
    facet variables.  Requires a simple polytope."""
    k = len(polytope.facets)
    n = polytope.dim
    if registry is None:
        registry = facet_registry(k)
    if len(registry) != k:
        raise ValueError("registry size must match the facet count")
    vrep, inc = polytope.enumerate_vertices()
    terms = {}
    for v, facets in zip(vrep, inc):
        if len(facets) != n:
            raise ValueError(f"non-simple vertex {v} (incident to {len(facets)} facets)")
        normals = [list(polytope.facets[i].normal) for i in sorted(facets)]
        weight = abs(linalg.det(normals))
        exps = tuple(0 if i in facets else 1 for i in range(k))
        terms[exps] = terms.get(exps, 0) + weight
    return UniversalAdjoint(Poly(registry, terms), registry)


def adjoint(polytope):
    """alpha_P via facet-form substitution into the universal adjoint.

    Returns the canonical-scalar-normalized adjoint; asserts the guaranteed
    degree drop from k-n to k-n-1 at runtime.
    """
    simple, witness = polytope.is_simple_arrangement()
    if not simple:
        raise ValueError(
            f"adjoint requires a simple facet arrangement; violating subset {witness}"
        )
    k = len(polytope.facets)
    n = polytope.dim
    ua = universal_adjoint(polytope)
    areg = affine_registry(n)
    assignment = {}
    for i, f in enumerate(polytope.facets):
        assignment[f"x{i}"] = areg.linear_form(f.normal, f.offset)
    affine = ua.poly.substitute(assignment)
    target_degree = k - n - 1
    if affine.degree() > target_degree:
        raise AssertionError(
            "degree drop violated: specialization of the universal adjoint "
            f"has degree {affine.degree()}, expected <= {target_degree}"
        )
    affine = affine.canonical()
    homogeneous = _homogenize_affine(affine, n, target_degree)
    return AdjointResult(affine, homogeneous, target_degree)


def _homogenize_affine(affine, n, degree):
    return affine.homogenize(homogeneous_registry(n), "x0", degree)


def polygon_adjoint(polygon):
    """Edge-form formula for polygon adjoints:
    alpha_P = sum_i det(w_i, w_{i+1}) prod_{j not in {i,i+1}} l_j
    with primitive inward forms for counterclockwise-ordered vertices.

    Accepts an HPolytope (dim 2) or an explicitly ordered ccw vertex list;
    an explicitly given order must be convex counterclockwise.
    """
    return _cycle_adjoint(_ccw_cycle(polygon))


def _cycle_adjoint(cycle):
    """`polygon_adjoint` of a validated counterclockwise vertex cycle: the
    edge-form sum closed by l_1 over the last running products of l_2..l_n."""
    forms, registry = inward_edge_forms(cycle), affine_registry(2)
    lins = [_form_poly(registry, form) for form in forms]
    for products in _prefix_products(forms, lins):
        pass  # only the last, m = n, is kept
    total = _closed_sum(forms[0], forms[1], forms[-1], products)
    degree = len(cycle) - 3
    if total.degree() > degree:
        raise AssertionError("polygon adjoint exceeds expected degree")
    return AdjointResult(total, _homogenize_affine(total, 2, degree), degree)


def _det(f, g):
    """The 2x2 determinant of the normals of two edge forms."""
    (a, _), (b, _) = f, g
    return a[0] * b[1] - a[1] * b[0]


def _form_poly(registry, form):
    """The integer edge form (w, c) as a Poly in the chart x1, x2 of
    `registry`: `registry.linear_form(w, c)` without validating its terms."""
    (w0, w1), c = form
    return _from_ints(registry, {(0, 0): c, (1, 0): w0, (0, 1): w1}, _ONE)


def _prefix_products(forms, lins):
    """The one edge-form kernel over the forms l_j = forms[j - 1] = lins[j - 1]
    of a ccw cycle: for m = 3..n, the running products (S_m, R_m, P_{m-1}),
    P_j = l_2...l_j, R_m = l_3...l_m and S_m the edge-form sum of the chain
    l_2..l_m, which costs O(1) products per step:
        S_3 = det(l_2, l_3),  S_{m+1} = S_m*l_{m+1} + det(l_m, l_{m+1})*P_{m-1}."""
    registry = lins[0].registry
    partial, rest = lins[1], lins[2]
    inner = registry.constant(_det(forms[1], forms[2]))
    for m in range(3, len(forms) + 1):
        yield inner, rest, partial
        if m < len(forms):
            inner = inner * lins[m] + partial * _det(forms[m - 1], forms[m])
            partial = partial * lins[m - 1]
            rest = rest * lins[m]


def _closed_sum(c, first, last, products):
    """Edge-form sum of the ccw cycle c, l_2..l_m (first = l_2, last = l_m)
    from the `_prefix_products` triple (S_m, R_m, P_{m-1}):
        alpha = c*S_m + det(c, l_2)*R_m + det(l_m, c)*P_{m-1}."""
    inner, rest, partial = products
    total = _Sum(_form_poly(inner.registry, c) * inner)
    total.add(rest, _det(c, first))
    total.add(partial, _det(last, c))
    return total.poly(inner.registry)


def _quadrilateral_adjoint(forms):
    """The edge-form sum of a quadrilateral's ccw forms l_0..l_3, exactly, as
    an edge form (w, c): the line (l_0 x l_2) x (l_1 x l_3) through its two
    residual points, on the homogeneous forms (c, w0, w1)."""
    h = [(c, *w) for w, c in forms]
    c, w0, w1 = _cross3(_cross3(h[0], h[2]), _cross3(h[1], h[3]))
    return (w0, w1), c


# -- Warren's formula in the plane -------------------------------------------


def triangulation_fan(n, apex=0):
    """Fan triangulation of an n-gon from one apex (vertex indices)."""
    return [(apex, (apex + i) % n, (apex + i + 1) % n) for i in range(1, n - 1)]


def triangulation_balanced(n):
    """Divide-and-conquer triangulation, structurally different from a fan."""

    def rec(indices):
        if len(indices) == 3:
            return [tuple(indices)]
        mid = len(indices) // 2
        left = indices[: mid + 1]
        right = indices[mid:] + [indices[0]]
        return rec(left) + rec(right)

    return rec(list(range(n)))


def _triangle_area(a, b, c):
    return abs(
        (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    ) / 2


def validate_triangulation(cycle, triangles):
    n = len(cycle)
    if len(triangles) != n - 2:
        raise ValueError("a triangulation of an n-gon has n-2 triangles")
    total = Fraction(0)
    for tri in triangles:
        if len(set(tri)) != 3 or any(not (0 <= i < n) for i in tri):
            raise ValueError(f"bad triangle {tri}")
        area = _triangle_area(*(cycle[i] for i in tri))
        if area == 0:
            raise ValueError(f"degenerate triangle {tri}")
        total += area
    polygon_area = sum(
        _triangle_area(cycle[0], cycle[i], cycle[i + 1]) for i in range(1, n - 1)
    )
    if total != polygon_area:
        raise ValueError("triangle areas do not add up to the polygon area")


def warren_adjoint_2d(polygon, triangles=None):
    """Warren's adjoint of a polygon in the plane (an HPolytope or a convex
    counterclockwise vertex list), homogenized in t0.

    adj_P(t) = sum over triangles sigma of vol(sigma) * prod over vertices v
    outside sigma of (1 - <v, t>); the constant 1 becomes t0.
    """
    cycle = _ccw_cycle(polygon)
    n = len(cycle)
    if triangles is None:
        triangles = triangulation_fan(n)
    validate_triangulation(cycle, triangles)
    treg = VarRegistry(["t0", "t1", "t2"])
    t0, t1, t2 = treg.variables()
    ells = [t0 - v[0] * t1 - v[1] * t2 for v in cycle]
    total = _Sum()
    for tri in triangles:
        term = treg.constant(_triangle_area(*(cycle[i] for i in tri)))
        for i in range(n):
            if i not in tri:
                term = term * ells[i]
        total.add(term)
    return total.poly(treg)


def polar_dual_vertices(polytope):
    """Vertices of the polar dual of a polytope whose interior contains the
    origin (one per facet: -u/z for the facet <u,y> + z >= 0)."""
    duals = []
    for f in polytope.facets:
        if f.offset <= 0:
            raise ValueError("polar dual needs the origin in the interior")
        duals.append(tuple(-u / f.offset for u in f.normal))
    return duals


# -- vanishing on flats -------------------------------------------------------


def vanishes_on_flat(f, flat):
    """Exact check that a homogeneous form vanishes identically on a flat.

    Substitutes a rational parameterization x = sum_i s_i * b_i built from
    the flat's spanning basis and tests for the zero polynomial.
    """
    if not f.is_homogeneous():
        raise ValueError("vanishes_on_flat requires a homogeneous form")
    basis = flat.basis if hasattr(flat, "basis") else [_frac_vec(b) for b in flat]
    r = len(basis)
    if r == 0:
        raise ValueError("flat has empty basis")
    if any(len(b) != len(f.registry) for b in basis):
        raise ValueError("flat basis dimension does not match the form")
    sreg = VarRegistry([f"s{i}" for i in range(r)])
    assignment = {
        name: sreg.linear_form([b[j] for b in basis])
        for j, name in enumerate(f.registry.names)
    }
    return f.substitute(assignment).is_zero()
