"""Adjoint computations: universal adjoint, polygon formula, Warren."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyadjoint.adjoint import (
    _form_poly,
    _quadrilateral_adjoint,
    adjoint,
    affine_registry,
    homogeneous_registry,
    polar_dual_vertices,
    polygon_adjoint,
    triangulation_balanced,
    triangulation_fan,
    universal_adjoint,
    vanishes_on_flat,
    warren_adjoint_2d,
)
from polyadjoint.detrep2d import (
    build_tridiagonal,
    contact_certificate,
    tangency_certificate,
    tangency_certificates,
)
from polyadjoint.fixtures import get_fixture
from polyadjoint.polyring import equal_up_to_scalar
from polyadjoint.polytope import (
    Flat,
    HPolytope,
    inward_edge_forms,
    polygon_from_vertices,
    random_polytope,
)


def test_universal_adjoint_simplex():
    # 2-simplex: three vertices, each weight 1, Adj = x0 + x1 + x2
    p = HPolytope(2, [((1, 0), 0), ((0, 1), 0), ((-1, -1), 1)])
    ua = universal_adjoint(p)
    assert str(ua.poly) == "x0 + x1 + x2"


def test_universal_adjoint_rejects_nonsimple_vertex():
    # square pyramid: apex lies on four facets
    p = HPolytope(
        3,
        [
            ((0, 0, 1), 0),
            ((1, 0, -1), 1),
            ((-1, 0, -1), 1),
            ((0, 1, -1), 1),
            ((0, -1, -1), 1),
        ],
    )
    with pytest.raises(ValueError):
        universal_adjoint(p)


def test_adjoint_rejects_nonsimple_arrangement():
    cube = HPolytope(
        3,
        [
            ((1, 0, 0), 0),
            ((0, 1, 0), 0),
            ((0, 0, 1), 0),
            ((-1, 0, 0), 1),
            ((0, -1, 0), 1),
            ((0, 0, -1), 1),
        ],
    )
    with pytest.raises(ValueError):
        adjoint(cube)


def test_polygon_adjoint_matches_universal_adjoint():
    rng = random.Random(2)
    for n in (4, 5, 6, 7):
        p = random_polytope(rng, 2, n)
        a = adjoint(p)
        b = polygon_adjoint(p)
        assert equal_up_to_scalar(a.affine, b.affine) is not None
        assert a.degree == b.degree == n - 3


def test_adjoint_representation_invariance():
    # rescaling facet inequalities changes the adjoint by one overall
    # scalar only; the canonical output is identical
    rng = random.Random(4)
    p = random_polytope(rng, 2, 6)
    scaled = HPolytope(
        2,
        [
            (tuple(3 * x for x in f.normal), 3 * f.offset)
            if i % 2
            else (f.normal, f.offset)
            for i, f in enumerate(p.facets)
        ],
    )
    assert adjoint(p).affine == adjoint(scaled).affine


def test_warren_triangulation_independence():
    rng = random.Random(8)
    for _ in range(10):
        n = rng.randrange(4, 9)
        p = random_polytope(rng, 2, n)
        fan = warren_adjoint_2d(p, triangulation_fan(n))
        bal = warren_adjoint_2d(p, triangulation_balanced(n))
        assert fan == bal


def test_warren_of_polar_dual_is_adjoint():
    # alpha_P equals Warren's adjoint of the polar dual polygon
    rng = random.Random(21)
    for n in (4, 5, 6):
        q = random_polytope(rng, 2, n)
        cyc = q.polygon_ccw()
        cx = sum(Fraction(v[0]) for v in cyc) / len(cyc)
        cy = sum(Fraction(v[1]) for v in cyc) / len(cyc)
        # recenter at the centroid so the origin is interior
        p = polygon_from_vertices([(v[0] - cx, v[1] - cy) for v in cyc])
        dual = polygon_from_vertices(polar_dual_vertices(p))
        w = warren_adjoint_2d(dual)
        a = adjoint(p).homogeneous
        # compare term dictionaries across the t/x registries
        assert set(w.terms) == set(a.terms)
        ratios = {w.terms[e] / a.terms[e] for e in w.terms}
        assert len(ratios) == 1 and 0 not in ratios


def test_adjoint_vanishes_on_residual_flats():
    rng = random.Random(31)
    polys = [random_polytope(rng, 2, n) for n in (5, 6, 7)]
    polys += [random_polytope(rng, 3, k) for k in (6, 7)]
    for p in polys:
        a = adjoint(p).homogeneous
        for flat in p.residual_arrangement().flats:
            assert vanishes_on_flat(a, flat)


def test_random_4polytope_adjoint_vanishes_on_residual_flats():
    rng = random.Random(41)
    for k in (6, 7, 8):
        p = random_polytope(rng, 4, k)
        a = adjoint(p)
        assert a.degree == k - 5 and a.homogeneous.degree() == k - 5
        for flat in p.residual_arrangement().flats:
            assert vanishes_on_flat(a.homogeneous, flat)


def test_quadrilateral_adjoint_is_diagonal_point_line():
    # adjoint of a quadrilateral is the line through the intersection
    # points of opposite edge lines
    p = polygon_from_vertices([(0, 0), (4, 0), (5, 3), (1, 4)])
    a = adjoint(p).homogeneous
    assert a.degree() == 1
    for flat in p.residual_arrangement().flats:
        assert vanishes_on_flat(a, flat)


def test_homogenization_consistency():
    rng = random.Random(13)
    p = random_polytope(rng, 2, 6)
    a = adjoint(p)
    reg = affine_registry(2)
    assert a.homogeneous.is_homogeneous()
    assert a.homogeneous.degree() == a.degree
    assert a.homogeneous.dehomogenize(reg, "x0") == a.affine


def _edge_form_adjoint_oracle(forms):
    """The edge-form formula over the forms of a ccw cycle term by term:
    n(n-2) linear-form products."""
    n = len(forms)
    areg = affine_registry(2)
    lins = [areg.linear_form(w, c) for w, c in forms]
    total = areg.zero()
    for i in range(n):
        wi = forms[i][0]
        wj = forms[(i + 1) % n][0]
        prod = areg.constant(Fraction(wi[0] * wj[1] - wi[1] * wj[0]))
        for j in range(n):
            if j != i and j != (i + 1) % n:
                prod = prod * lins[j]
        total = total + prod
    return total


def test_polygon_adjoint_matches_term_by_term_oracle():
    rng = random.Random(31)
    polygons = [random_polytope(rng, 2, n) for n in range(3, 15)]
    polygons.append(get_fixture("heptagon7")["polytope"])
    for p in polygons:
        a = polygon_adjoint(p)
        oracle = _edge_form_adjoint_oracle(inward_edge_forms(p.polygon_ccw()))
        assert a.affine.terms == oracle.terms
        # the same from an explicit ccw vertex list
        assert polygon_adjoint(p.polygon_ccw()).affine.terms == a.affine.terms


_FORM_ENTRY = st.integers(-60, 60)


@given(st.lists(st.tuples(_FORM_ENTRY, _FORM_ENTRY, _FORM_ENTRY), min_size=4, max_size=4))
@settings(max_examples=300, deadline=None)
def test_quadrilateral_adjoint_is_the_line_through_its_residual_points(entries):
    # a polynomial identity in the twelve coefficients, scale included, so
    # it needs no convex quadrilateral behind the forms
    forms = [((a, b), c) for a, b, c in entries]
    w, c = _quadrilateral_adjoint(forms)
    assert affine_registry(2).linear_form(w, c) == _edge_form_adjoint_oracle(forms)


@given(_FORM_ENTRY, _FORM_ENTRY, _FORM_ENTRY, st.integers(1, 12))
@settings(max_examples=200, deadline=None)
def test_form_poly_is_the_validated_linear_form(w0, w1, c, k):
    # zero entries and a common factor k, which the Poly keeps as content
    registry = affine_registry(2)
    fast = _form_poly(registry, ((k * w0, k * w1), k * c))
    checked = registry.linear_form([k * w0, k * w1], k * c)
    assert fast == checked and fast.terms == checked.terms
    assert (fast._ints, fast._content) == (checked._ints, checked._content)


@pytest.mark.parametrize("vertices", [[], [(0, 0)], [(0, 0), (1, 0)]])
def test_fewer_than_three_vertices_rejected_by_every_polygon_entry_point(vertices):
    for entry_point in (
        polygon_from_vertices,
        polygon_adjoint,
        warren_adjoint_2d,
        build_tridiagonal,
        contact_certificate,
        tangency_certificates,
        lambda cycle: tangency_certificate(cycle, 1, 3),
    ):
        with pytest.raises(ValueError, match="at least 3 vertices"):
            entry_point(vertices)


def test_float_vertices_rejected_by_exact_polygon_entry_points():
    # 0.1 would silently become 3602879701896397/36028797018963968
    vertices = [(0.1, 0), (3, 0), (4, 2), (2, 4), (0, 3)]
    with pytest.raises(ValueError):
        polygon_from_vertices(vertices)
    with pytest.raises(ValueError):
        polygon_adjoint(vertices)
    with pytest.raises(ValueError):
        warren_adjoint_2d(vertices)
    for entry_point in (
        build_tridiagonal,
        contact_certificate,
        lambda cycle: tangency_certificate(cycle, 1, 3),
    ):
        with pytest.raises(ValueError):
            entry_point(vertices)
    exact = [("1/10", 0), (3, 0), (4, 2), (2, 4), (0, 3)]
    assert polygon_adjoint(exact).affine == build_tridiagonal(exact).adjoint


def test_float_flat_basis_rejected():
    # 0.1 would silently become 3602879701896397/36028797018963968, and
    # 10*x0 - x1 would then not vanish on the span of (1/10, 1, 0), (0, 0, 1)
    x0, x1, _ = homogeneous_registry(2).variables()
    with pytest.raises(ValueError):
        Flat((0, 1), 2, [[0.1, 1, 0]])
    with pytest.raises(ValueError):
        vanishes_on_flat(10 * x0 - x1, [[0.1, 1, 0], [0, 0, 1]])
    assert Flat((0, 1), 2, [["1/10", 1, 0]]).basis == [(Fraction(1, 10), 1, 0)]
    assert vanishes_on_flat(10 * x0 - x1, [["1/10", 1, 0], [0, 0, 1]])
    assert vanishes_on_flat(10 * x0 - x1, Flat((0,), 1, [["1/10", 1, 0], [0, 0, 1]]))
