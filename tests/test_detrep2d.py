"""Tridiagonal determinantal representations of polygon adjoints."""

import random
from fractions import Fraction

import pytest

from polyadjoint import linalg
from polyadjoint.adjoint import (
    _closed_sum,
    _det,
    _prefix_products,
    affine_registry,
    polygon_adjoint,
)
from polyadjoint.detrep2d import (
    _value,
    build_tridiagonal,
    contact_certificate,
    definiteness_certificate,
    residual_point_pairs,
    tangency_certificate,
    tangency_certificates,
    verify_detrep,
)
from polyadjoint.fixtures import get_fixture
from polyadjoint.polyring import PolyMatrix, equal_up_to_scalar
from polyadjoint.polytope import (
    _edge_form,
    inward_edge_forms,
    order_ccw,
    polygon_from_vertices,
    random_polytope,
)

PENTAGON = [(0, 0), (3, 0), (4, 2), (2, 4), (0, 3)]

# centrally symmetric: the adjoint contains the line at infinity, so its
# affine degree is below n - 3
CENTRALLY_SYMMETRIC = {
    "rectangle": [(0, 0), (3, 0), (3, 2), (0, 2)],
    "parallelogram": [(0, 0), (3, 0), (4, 2), (1, 2)],
    "hexagon": [(0, 0), (2, 0), (3, 1), (2, 2), (0, 2), (-1, 1)],
    "octagon": [(1, 0), (2, 0), (3, 1), (3, 2), (2, 3), (1, 3), (0, 2), (0, 1)],
}


def test_pentagon_representation():
    rep = build_tridiagonal(PENTAGON)
    assert rep.matrix.size == 2
    assert rep.matrix.is_symmetric()
    assert rep.matrix.is_tridiagonal()
    assert rep.matrix.has_linear_entries()
    assert rep.matrix.det() == rep.adjoint * rep.det_scalar
    assert verify_detrep(rep.matrix, rep.adjoint) == rep.det_scalar


def test_random_polygons_build_and_verify():
    rng = random.Random(17)
    for n in range(4, 10):
        p = random_polytope(rng, 2, n)
        rep = build_tridiagonal(p)
        assert rep.matrix.size == n - 3
        assert rep.matrix.is_symmetric()
        assert rep.matrix.is_tridiagonal()
        assert rep.matrix.has_linear_entries()
        scalar = verify_detrep(rep.matrix, rep.adjoint)
        assert scalar == rep.det_scalar != 0
        # definiteness at an interior point 
        assert definiteness_certificate(rep.matrix, p.interior_point())


def test_leading_minors_are_subpolygon_adjoints():
    rng = random.Random(23)
    p = random_polytope(rng, 2, 8)
    rep = build_tridiagonal(p)
    cycle = p.polygon_ccw()
    from polyadjoint.adjoint import polygon_adjoint

    for k in range(1, rep.matrix.size + 1):
        minor = rep.matrix.leading_principal(k).det()
        sub = polygon_adjoint(cycle[: k + 3]).affine
        assert equal_up_to_scalar(minor, sub) is not None


def test_triangle_rejected():
    with pytest.raises(ValueError):
        build_tridiagonal([(0, 0), (1, 0), (0, 1)])


def test_verify_size_mismatch():
    rep = build_tridiagonal(PENTAGON)
    big = build_tridiagonal([(0, 0), (5, 0), (7, 3), (5, 6), (2, 6), (0, 3)])
    with pytest.raises(ValueError):
        verify_detrep(big.matrix, rep.adjoint)


def test_tangency_at_all_residual_points():
    rng = random.Random(29)
    tested = 0
    while tested < 8:
        n = rng.randrange(5, 8)
        p = random_polytope(rng, 2, n)
        cycle = p.polygon_ccw()
        try:
            results = [
                tangency_certificate(cycle, i, j)
                for i, j in residual_point_pairs(cycle)
            ]
        except ValueError:
            # adjoint singular at a residual point: redraw
            continue
        assert all(results)
        tested += 1


def test_residual_pair_count():
    for n in range(4, 9):
        cycle = [(i, i * i) for i in range(n)]  # only the count matters
        assert len(residual_point_pairs(cycle)) == n * (n - 3) // 2


def test_contact_structure():
    rng = random.Random(37)
    for n in (5, 6, 7, 8, 9):
        p = random_polytope(rng, 2, n)
        report = contact_certificate(p.polygon_ccw())
        assert report["count_matches"]
        assert report["contact_points"] == (n - 3) * (n - 4) // 2
        assert report["all_tangential"]


def test_definiteness_fails_on_boundary():
    p = polygon_from_vertices(PENTAGON)
    rep = build_tridiagonal(p)
    # (0,0) is a vertex: some facet form vanishes, minors can hit zero
    vertex = (Fraction(0), Fraction(0))
    interior = p.interior_point()
    assert definiteness_certificate(rep.matrix, interior)


# -- the recursion scalars against coefficient matching -----------------------


def _match_two_scalars(a, b, target):
    """Solve lam*a + mu*b = target exactly by coefficient matching."""
    monomials = sorted(a.monomials() | b.monomials() | target.monomials())
    rows = [[a.coefficient(e), b.coefficient(e)] for e in monomials]
    rhs = [target.coefficient(e) for e in monomials]
    sol = linalg.solve(rows, rhs)
    if sol is None:
        return None
    lam, mu = sol
    if (a * lam + b * mu) != target:
        return None
    return lam, mu


def _solved_scalars(cycle):
    """(lambda, mu) per step from separately built adjoints of every prefix
    and every angularly sorted subquadrilateral, by coefficient matching."""
    alphas = {m: polygon_adjoint(cycle[:m]).affine for m in range(3, len(cycle) + 1)}
    forms = inward_edge_forms(cycle)
    scalars = []
    for m in range(5, len(cycle) + 1):
        quad = order_ccw([cycle[0], cycle[m - 3], cycle[m - 2], cycle[m - 1]])
        alpha_q = polygon_adjoint(quad).affine
        ell = alphas[m].registry.linear_form(*forms[m - 2])
        sol = _match_two_scalars(
            alpha_q * alphas[m - 1], -(ell * ell) * alphas[m - 2], alphas[m]
        )
        assert sol is not None
        scalars.append(sol)
    return scalars


def _scalar_cases():
    rng = random.Random(41)
    for n in range(5, 15):
        yield f"random-{n}", random_polytope(rng, 2, n).polygon_ccw()
    yield "heptagon7", get_fixture("heptagon7")["polytope"].polygon_ccw()
    for name, vertices in CENTRALLY_SYMMETRIC.items():
        yield name, polygon_from_vertices(vertices).polygon_ccw()


@pytest.mark.parametrize("name, cycle", list(_scalar_cases()))
def test_closed_form_scalars_match_coefficient_matching(name, cycle):
    rep = build_tridiagonal(cycle)
    assert rep.scalars == _solved_scalars(cycle)


@pytest.mark.parametrize("name", sorted(CENTRALLY_SYMMETRIC))
def test_centrally_symmetric_polygons(name):
    p = polygon_from_vertices(CENTRALLY_SYMMETRIC[name])
    n = len(CENTRALLY_SYMMETRIC[name])
    rep = build_tridiagonal(p)
    assert rep.matrix.size == n - 3
    assert rep.adjoint.degree() < n - 3  # the line at infinity is a factor
    homogeneous = polygon_adjoint(p).homogeneous
    assert homogeneous.degree() == n - 3
    assert all(e[0] >= 1 for e in homogeneous.terms)
    assert rep.matrix.det() == rep.adjoint * rep.det_scalar
    assert definiteness_certificate(rep.matrix, p.interior_point())


# -- the one-pass build against its per-prefix and per-block oracles ----------


def _prefix_cases():
    rng = random.Random(43)
    for n in range(4, 21):
        yield f"random-{n}", random_polytope(rng, 2, n).polygon_ccw()
    yield "heptagon7", get_fixture("heptagon7")["polytope"].polygon_ccw()
    for name, vertices in CENTRALLY_SYMMETRIC.items():
        yield name, polygon_from_vertices(vertices).polygon_ccw()
    yield "random-3", random_polytope(random.Random(41), 2, 3).polygon_ccw()


def _horner_edge_form_sum(forms):
    """Affine edge-form sum over the inward forms of a ccw cycle by Horner
    accumulation over shared prefix products."""
    n = len(forms)
    areg = affine_registry(2)
    lins = [areg.linear_form(w, c) for w, c in forms]
    weights = [_det(forms[i], forms[(i + 1) % n]) for i in range(n)]
    # after step i, acc is the sum over i' <= i of w_i' * l_0..l_{i'-1} *
    # l_{i'+2}..l_{i+1}; the term i = n-1 is the product l_1..l_{n-2}
    prefix = areg.one()
    acc = areg.constant(weights[0])
    for i in range(1, n - 1):
        prefix = prefix * lins[i - 1]
        acc = acc * lins[i + 1] + prefix * weights[i]
    wrap = areg.constant(weights[n - 1])
    for j in range(1, n - 1):
        wrap = wrap * lins[j]
    return acc + wrap


def _at_vertex(forms, i, v):
    """The edge-form sum of a ccw cycle of forms at its vertex v between
    forms i and i+1, where every other term has l_i or l_{i+1}."""
    k = (i + 1) % len(forms)
    value = Fraction(_det(forms[i], forms[k]))
    for j, form in enumerate(forms):
        if j not in (i, k):
            value *= _value(form, v)
    return value


@pytest.mark.parametrize("name, cycle", list(_prefix_cases()))
def test_running_product_prefix_adjoints_match_edge_form_sums(name, cycle):
    n, v1 = len(cycle), cycle[0]
    edge_forms = inward_edge_forms(cycle)
    registry = affine_registry(2)
    lins = [registry.linear_form(w, c) for w, c in edge_forms]
    chords = [None] * 3 + [_edge_form(cycle[m - 1], v1) for m in range(3, n + 1)]
    products = list(_prefix_products(edge_forms, lins))
    assert len(products) == n - 2  # one triple per prefix, m = 3..n
    rest_v1 = 1
    for m, triple in enumerate(products, start=3):
        # conv(v1..vm): the chord from v_m to v1, then the edges l_2..l_m
        c = chords[m]
        forms = [c] + edge_forms[1:m]
        alpha = _closed_sum(c, forms[1], forms[-1], triple)
        assert alpha == _horner_edge_form_sum(forms)
        # at v1 only the term without l_2 or c_m is left
        rest_v1 *= _value(edge_forms[m - 1], v1)
        alpha_v1 = _det(c, edge_forms[1]) * rest_v1
        assert alpha_v1 == _at_vertex(forms, 0, v1) == alpha.evaluate(v1)
    # closed by l_1 at m = n: the polygon's own adjoint
    assert polygon_adjoint(cycle).affine == _horner_edge_form_sum(edge_forms)


@pytest.mark.parametrize("name, cycle", list(_scalar_cases()))
def test_subquadrilateral_lines_match_edge_form_sums(name, cycle):
    # Q_m = conv(v1, v_{m-2}, v_{m-1}, v_m); Q_4 is the first prefix
    quads = [
        order_ccw([cycle[0], cycle[m - 3], cycle[m - 2], cycle[m - 1]])
        for m in range(4, len(cycle) + 1)
    ]
    expected = [_horner_edge_form_sum(inward_edge_forms(q)) for q in quads]
    assert build_tridiagonal(cycle).subquad_adjoints == expected


def _leading_minor_verdict(matrix, point):
    """Definiteness by the determinant of every leading block."""
    vals = matrix.evaluate(point)
    if vals[0][0] < 0:
        vals = [[-x for x in row] for row in vals]
    return all(
        linalg.det([row[:k] for row in vals[:k]]) > 0 for k in range(1, matrix.size + 1)
    )


def _symmetric_linear_matrix(rng, size, density):
    registry = affine_registry(2)
    zero = registry.zero()
    entries = [[zero] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            if i == j or rng.random() < density:
                coeffs = [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(3)]
                entries[i][j] = entries[j][i] = registry.linear_form(coeffs[:2], coeffs[2])
    return PolyMatrix(entries)


def test_definiteness_by_elimination_matches_leading_minors():
    rng = random.Random(47)
    cases = []
    for _ in range(150):  # dense and sparse, mostly not tridiagonal
        matrix = _symmetric_linear_matrix(rng, rng.randint(1, 6), rng.choice((0.3, 1.0)))
        point = (Fraction(rng.randint(-5, 5), rng.randint(1, 4)), rng.randint(-3, 3))
        cases.append((matrix, point))
    registry = affine_registry(2)
    for size in range(2, 7):  # dense B^T B - t*I: the last minors decide
        b = [[rng.randint(-3, 3) for _ in range(size)] for _ in range(size)]
        for t in range(0, 12, 2):
            entries = [
                [registry.linear_form(
                    [rng.randint(-2, 2) if i == j else 0, 0],
                    sum(b[r][i] * b[r][j] for r in range(size)) - (t if i == j else 0))
                 for j in range(size)] for i in range(size)
            ]
            for i in range(size):
                for j in range(i):
                    entries[i][j] = entries[j][i]
            sign = rng.choice((1, -1))
            matrix = PolyMatrix([[p * sign for p in row] for row in entries])
            cases.append((matrix, (0, rng.randint(-3, 3))))
    for n in range(4, 10):
        p = random_polytope(rng, 2, n)
        matrix = build_tridiagonal(p).matrix
        for point in [p.interior_point()] + p.polygon_ccw()[:3] + [(9, -7)]:
            cases.append((matrix, point))
    one, x, y = registry.one(), *registry.variables()
    zero = registry.zero()
    cases += [
        # a negative (1,1) entry: the negated matrix is positive definite
        (PolyMatrix([[-one * 2, one], [one, -one * 3]]), (0, 0)),
        (PolyMatrix([[-one, one * 2], [one * 2, -one]]), (0, 0)),
        (PolyMatrix([[-one, zero], [zero, -one * 3]]), (0, 0)),
        # a zero leading minor before a non-zero one, with a dense last row
        (PolyMatrix([[one, one, one], [one, one, x], [one, x, y]]), (3, 5)),
        (PolyMatrix([[x, zero], [zero, y]]), (0, 1)),
        (PolyMatrix([[x, one], [one, y]]), (1, 1)),
    ]
    verdicts = []
    for matrix, point in cases:
        verdict = definiteness_certificate(matrix, point)
        assert verdict == _leading_minor_verdict(matrix, point)
        verdicts.append(verdict)
    assert verdicts[-6:] == [True, False, True, False, False, False]
    assert True in verdicts[150:180] and False in verdicts[150:180]


def test_tangency_certificates_match_per_pair_calls():
    rng = random.Random(53)
    for n in range(5, 13):
        for _ in range(2):
            cycle = random_polytope(rng, 2, n).polygon_ccw()
            expected = {
                (i, j): tangency_certificate(cycle, i, j)
                for i, j in residual_point_pairs(cycle)
            }
            assert tangency_certificates(cycle) == expected
            assert all(expected.values()) and len(expected) == n * (n - 3) // 2
