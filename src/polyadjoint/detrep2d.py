"""Symmetric tridiagonal determinantal representations of polygon adjoints.

The construction follows the recursive identity
    lambda * alpha_Q * alpha_{m-1} - mu * l_{m-1}^2 * alpha_{m-2} = alpha_m
where alpha_m is the adjoint of the leading subpolygon conv(v1..vm), Q is the
quadrilateral conv(v1, v_{m-2}, v_{m-1}, v_m) and l_{m-1} is the inward form
of the edge between v_{m-2} and v_{m-1}.  Each step appends one row/column to
the previous representation; the resulting matrix is symmetric tridiagonal
with diagonal entries proportional to subquadrilateral adjoints and
off-diagonal entries proportional to edge forms.

Every alpha_m closes the running products of `adjoint._prefix_products`, and
alpha_Q is the line through the two residual points of Q.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .adjoint import (
    _closed_sum,
    _cycle_adjoint,
    _det,
    _form_poly,
    _prefix_products,
    _quadrilateral_adjoint,
    affine_registry,
)
from .polyring import Poly, PolyMatrix, equal_up_to_scalar, gradient_at
from .polytope import _ccw_cycle, _cross3, _edge_form, _homogeneous, inward_edge_forms


@dataclass
class TridiagonalRep:
    matrix: PolyMatrix
    scalars: list  # per-step (lambda, mu) pairs, one for each appended row
    subquad_adjoints: list  # affine adjoints alpha_{Q_i} of the diagonal quads
    adjoint: Poly  # affine polygon adjoint (edge-form formula normalization)
    det_scalar: Fraction  # det(matrix) = det_scalar * adjoint


def _value(form, v, d=1):
    """d times the edge form (w, c) at the point v/d: the value at v, or, for
    the integer homogeneous point (d, v), the value there."""
    (w, c) = form
    return w[0] * v[0] + w[1] * v[1] + c * d


def build_tridiagonal(polygon):
    """Recursive tridiagonal representation of a polygon adjoint (n >= 4) in
    one pass over the validated cycle: alpha_m closes the running products
    with the chord c_m from v_m to v1, and lambda and mu are scalars from
    vertex values at v_{m-2}, where l_{m-1} vanishes, and at v1.

    Vertex values are taken in integers, at the homogeneous points
    (d, d*x, d*y): each is d > 0 times the affine value, and the powers of
    d cancel from lambda (four values at one vertex) and from mu (the
    values at v1 give both sides of its quotient the factor d_1^(m-2))."""
    cycle = _ccw_cycle(polygon)
    n = len(cycle)
    if n < 4:
        raise ValueError("tridiagonal construction needs at least 4 vertices")
    v1, edge_forms = cycle[0], inward_edge_forms(cycle)
    points = [(h[1:], h[0]) for h in map(_homogeneous, cycle)]  # (d*v, d)
    registry = affine_registry(2)
    lins = [_form_poly(registry, form) for form in edge_forms]  # lins[j - 1] = l_j
    chords = [None] * 3 + [_edge_form(cycle[m - 1], v1) for m in range(3, n + 1)]
    # alpha_m of conv(v1..vm), and alpha_m(v1): at v1 only the term without
    # l_2 or c_m is left, det(c_m, l_2)*l_3(v1)...l_m(v1)
    alphas, alphas_v1, rest_v1 = {}, {}, 1
    for m, products in enumerate(_prefix_products(edge_forms, lins), start=3):
        c = chords[m]
        alphas[m] = _closed_sum(c, edge_forms[1], edge_forms[m - 1], products)
        rest_v1 *= _value(edge_forms[m - 1], *points[0])
        alphas_v1[m] = _det(c, edge_forms[1]) * rest_v1

    diagonal, off_diagonal, subquads, scalars = [alphas[4]], [], [alphas[4]], []
    gammas = {3: 1 / alphas[3].constant_value(), 4: Fraction(1)}
    for m in range(5, n + 1):
        v, at_v, at_v1 = cycle[m - 3], points[m - 3], points[0]
        # alpha_Q of Q = conv(v1, v_{m-2}, v_{m-1}, v_m)
        line = _quadrilateral_adjoint(
            [chords[m], _edge_form(v1, v), edge_forms[m - 2], edge_forms[m - 1]]
        )
        # lambda = alpha_m(v) / alpha_{m-1}(v) = p / q: the terms without
        # l_{m-2} or l_{m-1} vanish, and the factors the two remaining terms
        # share cancel
        p = _value(chords[m], *at_v) * _value(edge_forms[m - 1], *at_v)
        q = _value(chords[m - 1], *at_v) * _value(line, *at_v)
        lam = Fraction(p, q)
        mu = Fraction(p * _value(line, *at_v1) * alphas_v1[m - 1] - q * alphas_v1[m],
                      q * _value(edge_forms[m - 2], *at_v1) ** 2 * alphas_v1[m - 2])
        if lam == 0 or mu == 0:
            raise ValueError("degenerate recursion scalars")
        alpha_q = _form_poly(registry, line)
        off_diagonal.append(lins[m - 2])  # l_{m-1}
        diagonal.append(alpha_q * (lam * gammas[m - 2] / (mu * gammas[m - 1])))
        gammas[m] = gammas[m - 2] / mu
        scalars.append((lam, mu))
        subquads.append(alpha_q)

    zero = registry.zero()
    rep = PolyMatrix(
        [[diagonal[i] if i == j else off_diagonal[min(i, j)] if abs(i - j) == 1 else zero
          for j in range(n - 3)] for i in range(n - 3)]
    )
    # the minor property D_{m-3} = gamma_m * alpha_m for every leading subpolygon
    # (the last is the determinant) implies the recursion identity at each step
    for m, minor in enumerate(rep.leading_minors(), start=4):
        if minor != alphas[m] * gammas[m]:
            raise AssertionError(
                f"tridiagonal construction lost the leading minor of size {m - 3}"
            )
    return TridiagonalRep(rep, scalars, subquads, alphas[n], gammas[n])


def verify_detrep(matrix, f):
    """Scalar c with det(matrix) = c * f, else None: a linear determinantal
    representation of a form f has linear entries and size deg f."""
    if not matrix.has_linear_entries():
        raise ValueError("determinantal representations need degree <= 1 entries")
    if matrix.size != f.degree():
        raise ValueError(f"matrix size {matrix.size} does not match deg f = {f.degree()}")
    return equal_up_to_scalar(matrix.det(), f)


def definiteness_certificate(matrix, point):
    """Exact pointwise definiteness of a symmetric matrix of linear forms.

    Evaluates at the rational point, globally negated when the (1,1) entry is
    negative, and checks that all leading principal minors are positive.
    Without row exchanges the k-th minor is the product of the first k pivots
    of Gaussian elimination, so they are all positive iff every pivot is; a
    zero pivot is a zero leading minor and reports indefinite (boundary case).
    Zero entries are skipped, so a tridiagonal matrix takes O(n) steps.
    """
    if not matrix.is_symmetric():
        raise ValueError("definiteness requires a symmetric matrix")
    vals = matrix.evaluate(point)
    if vals[0][0] < 0:
        vals = [[-x for x in row] for row in vals]
    size = matrix.size
    for k in range(size):
        pivot = vals[k][k]
        if pivot <= 0:
            return False
        pivot_row = [(j, vals[k][j]) for j in range(k + 1, size) if vals[k][j]]
        for i in range(k + 1, size):
            if vals[i][k]:
                factor = vals[i][k] / pivot
                row = vals[i]
                for j, x in pivot_row:
                    row[j] -= factor * x
    return True


def residual_point_pairs(cycle):
    """Edge index pairs (1-based) of non-adjacent edges."""
    n = len(cycle)
    pairs = []
    for i, j in itertools.combinations(range(1, n + 1), 2):
        if j - i == 1 or (i == 1 and j == n):
            continue
        pairs.append((i, j))
    return pairs


def tangency_certificate(polygon, i, j):
    """Verify that the subquadrilateral adjoint line is tangent to the
    adjoint curve at the residual point q = L_i cap L_j (1-based edges).

    Q = conv(v_{i-1}, v_i, v_{j-1}, v_j) is a ccw subsequence of the cycle;
    its edges are l_i, l_j and the chords v_i -> v_{j-1}, v_j -> v_{i-1}."""
    cycle = _ccw_cycle(polygon)
    pair = (min(i, j), max(i, j))
    if pair not in residual_point_pairs(cycle):
        raise ValueError(f"edges {i}, {j} do not give a residual point")
    alpha = _cycle_adjoint(cycle).homogeneous
    return _tangent_at(cycle, inward_edge_forms(cycle), alpha, *pair)


def tangency_certificates(polygon):
    """`tangency_certificate` at every residual pair, as {(i, j): bool}, from
    one validated cycle and one adjoint; it raises the ValueError of the
    first pair, in `residual_point_pairs` order, at which the adjoint is
    singular."""
    cycle = _ccw_cycle(polygon)
    edge_forms = inward_edge_forms(cycle)
    alpha = _cycle_adjoint(cycle).homogeneous
    return {
        (i, j): _tangent_at(cycle, edge_forms, alpha, i, j)
        for i, j in residual_point_pairs(cycle)
    }


def _tangent_at(cycle, edge_forms, alpha, i, j):
    """The tangency check at the residual pair i < j, for the cycle's edge
    forms and its homogeneous adjoint alpha."""
    (wi, ci), (wj, cj) = edge_forms[i - 1], edge_forms[j - 1]
    q = _cross3((ci,) + wi, (cj,) + wj)  # homogeneous (x0, x1, x2), integer
    a, b, c, d = cycle[i - 2], cycle[i - 1], cycle[j - 2], cycle[j - 1]
    # the adjoint line of Q passes through q, one of its two residual points
    (w0, w1), c0 = _quadrilateral_adjoint(
        [_edge_form(d, a), edge_forms[i - 1], _edge_form(b, c), edge_forms[j - 1]]
    )
    if alpha.evaluate(q) != 0:
        return False
    grad = gradient_at(alpha, q)
    if all(g == 0 for g in grad):
        raise ValueError("adjoint is singular at the residual point")
    return _cross3(grad, (c0, w0, w1)) == (0, 0, 0)


def contact_certificate(polygon):
    """Check the even-contact structure between the adjoints of P and of
    P minus its last vertex, over R(P) away from L_1 and L_n.

    Returns a report dict with the contact point count and verification flag.
    """
    cycle = _ccw_cycle(polygon)
    n = len(cycle)
    if n < 5:
        raise ValueError("contact structure needs at least 5 vertices")
    alpha = _cycle_adjoint(cycle).homogeneous
    alpha_prime = _cycle_adjoint(cycle[:-1]).homogeneous  # a convex subcycle
    forms = [(c,) + w for w, c in inward_edge_forms(cycle)]  # in x0, x1, x2
    points = [
        _cross3(forms[i - 1], forms[j - 1])
        for i, j in residual_point_pairs(cycle)
        if 1 not in (i, j) and n not in (i, j)
    ]
    ok = True
    for q in points:
        if alpha.evaluate(q) != 0 or alpha_prime.evaluate(q) != 0:
            ok = False
            break
        g1 = gradient_at(alpha, q)
        g2 = gradient_at(alpha_prime, q)
        if all(x == 0 for x in g1):
            continue  # singular adjoint: tangency check void at this point
        if _cross3(g1, g2) != (0, 0, 0):
            ok = False
            break
    expected = (n - 3) * (n - 4) // 2
    return {
        "contact_points": len(points),
        "expected": expected,
        "count_matches": len(points) == expected,
        "all_tangential": ok,
    }
