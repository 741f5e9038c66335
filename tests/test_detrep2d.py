"""Tridiagonal determinantal representations of polygon adjoints."""

import random
from fractions import Fraction

import pytest

from polyadjoint import linalg
from polyadjoint.adjoint import polygon_adjoint
from polyadjoint.detrep2d import (
    build_tridiagonal,
    contact_certificate,
    definiteness_certificate,
    residual_point_pairs,
    tangency_certificate,
    verify_detrep,
)
from polyadjoint.fixtures import get_fixture
from polyadjoint.polyring import equal_up_to_scalar
from polyadjoint.polytope import (
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
