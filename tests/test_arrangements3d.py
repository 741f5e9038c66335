"""Line arrangements in P^3: nice certificates, h^0, quadric detreps."""

import itertools
import random

import pytest

from polyadjoint.adjoint import adjoint, homogeneous_registry
from polyadjoint.arrangements3d import (
    Line3,
    LineArrangement,
    concurrency_singularity_certificate,
    detrep_from_codim2_subspace,
    find_nice_subarrangement,
    h0_vanishing_dimension,
    is_nice,
    no_three_concurrent,
    plane_of_coplanar_pair,
    residual_lines,
)
from polyadjoint.fixtures import get_fixture
from polyadjoint.polytope import HPolytope, random_polytope

# three lines: a and b meet at (1:0:0:0), c is disjoint from both except
# that it meets... construct so {a, b, c} is nice for degree 3.
A = Line3((1, 0, 0, 0), (0, 1, 0, 0))
B = Line3((1, 0, 0, 0), (0, 0, 1, 0))
C = Line3((0, 1, 0, 0), (0, 0, 0, 1))


def test_line_canonicalization():
    # different spanning pairs of the same line compare equal
    l1 = Line3((1, 0, 0, 0), (0, 1, 0, 0))
    l2 = Line3((1, 1, 0, 0), (2, -3, 0, 0))
    assert l1 == l2 and hash(l1) == hash(l2)
    l3 = Line3((1, 0, 0, 0), (0, 0, 1, 0))
    assert l1 != l3


def test_line_rejects_dependent_points():
    with pytest.raises(ValueError):
        Line3((1, 2, 3, 4), (2, 4, 6, 8))


def test_meets_and_common_point():
    assert A.meets(B)
    assert A.common_point(B) == (1, 0, 0, 0)
    assert A.meets(C) and A.common_point(C) == (0, 1, 0, 0)
    # skew pair
    skew = Line3((0, 0, 1, 0), (0, 0, 0, 1))
    assert not A.meets(skew)


def test_plane_of_coplanar_pair():
    h = plane_of_coplanar_pair(A, B)
    assert h is not None
    assert A.contained_in_plane(h) and B.contained_in_plane(h)
    skew = Line3((0, 0, 1, 0), (0, 0, 0, 1))
    assert plane_of_coplanar_pair(A, skew) is None


def test_json_roundtrip():
    arr = LineArrangement([A, B, C])
    back = LineArrangement.from_json(arr.to_json())
    assert list(back) == list(arr)


def test_duplicate_lines_rejected():
    with pytest.raises(ValueError):
        LineArrangement([A, Line3((1, 1, 0, 0), (1, -1, 0, 0))])


def test_nice_degree_1_and_2():
    assert is_nice(LineArrangement([]), 1) is not None
    assert is_nice(LineArrangement([A]), 2) is not None
    assert is_nice(LineArrangement([A]), 1) is None
    assert is_nice(LineArrangement([A, B]), 2) is None


def test_nice_degree_3():
    cert = is_nice(LineArrangement([A, B, C]), 3)
    assert cert is not None
    assert cert.degree == 3 and len(cert.lines) == 3
    assert len(cert.z_lines) == 2 and len(cert.y_lines) == 1
    assert cert.y_certificate.degree == 2


def test_concurrent_triple_not_nice():
    # three lines through (1:0:0:0)
    d = Line3((1, 0, 0, 0), (0, 0, 0, 1))
    lines = LineArrangement([A, B, d])
    assert not no_three_concurrent(lines)
    assert is_nice(lines, 3) is None


def test_h0_boundary_cases():
    assert h0_vanishing_dimension(LineArrangement([]), 0) == 1
    assert h0_vanishing_dimension(LineArrangement([]), -1) == 0
    # forms of degree 1 vanishing on a line: the pencil of planes through it
    assert h0_vanishing_dimension(LineArrangement([A]), 1) == 2
    assert h0_vanishing_dimension(LineArrangement([A]), 0) == 0
    # nice for 3: no conic, at least one cubic (here exactly the product
    # structure gives dimension >= 1)
    arr = LineArrangement([A, B, C])
    assert h0_vanishing_dimension(arr, 1) == 0
    assert h0_vanishing_dimension(arr, 2) >= 1


def test_octahedron_example_nice_for_4():
    fx = get_fixture("octa8")
    lines = residual_lines(fx["polytope"])
    assert len(lines) == 10
    by_pair = {l.facets: l for l in lines}
    subset = [by_pair[tuple(sorted(p))] for p in fx["nice_line_pairs"]]
    arr = LineArrangement(subset)
    cert = is_nice(arr, fx["nice_degree"])
    assert cert is not None and cert.degree == 4
    assert h0_vanishing_dimension(arr, 2) == 0
    assert h0_vanishing_dimension(arr, 3) == 4


def test_truncated_pyramid_nice_subarrangement():
    # residual lines of a truncated square pyramid with two corner cuts:
    # R12 and R34 are disjoint and both meet R23, nice for degree 3
    r12 = Line3((1, 0, 3, 2), (1, 1, 4, 1))
    r23 = Line3((1, 0, 3, 0), (0, 0, 0, 1))
    r34 = Line3((1, 3, 0, 2), (1, 2, 1, 3))
    assert not r12.meets(r34)
    assert r12.meets(r23) and r34.meets(r23)
    found = find_nice_subarrangement([r12, r23, r34], 3)
    assert found is not None
    subset, cert = found
    assert len(subset) == 3 and cert.degree == 3


def test_residual_lines_of_simple_polytope():
    rng = random.Random(3)
    p = random_polytope(rng, 3, 7)
    lines = residual_lines(p)
    assert len(lines) == 6  # binom(7-3, 2)
    assert all(l.facets is not None for l in lines)


def test_singularity_certificate_random():
    rng = random.Random(12)
    p = random_polytope(rng, 3, 9)
    alpha = adjoint(p).homogeneous
    cert = concurrency_singularity_certificate(p, alpha)
    if cert is not None:
        pt, idx = cert
        assert len(idx) == 3
        assert alpha.evaluate(pt) == 0


def test_quadric_detrep_trivial():
    reg = homogeneous_registry(3)
    x0, x1, x2, x3 = reg.variables()
    f = x0 * x3 - x1 * x2
    m = detrep_from_codim2_subspace(f, x0, x1)
    assert m.det() == f
    assert m.size == 2
    assert m.entries[0][0] == x0 and m.entries[0][1] == x1


def test_quadric_detrep_chart_example():
    fx = get_fixture("quadric-dim4")
    p = fx["polytope"]
    back = adjoint(p).homogeneous.substitute(fx["chart_substitution"])
    reg = back.registry
    forms = [reg.linear_form(c) for c in fx["original_forms"]]
    # no facet-form pair contains this smooth quadric in its ideal
    import itertools

    for l1, l2 in itertools.combinations(forms, 2):
        with pytest.raises(ValueError):
            detrep_from_codim2_subspace(back, l1, l2)


def test_quadric_detrep_rejections():
    reg = homogeneous_registry(3)
    x0, x1, x2, x3 = reg.variables()
    with pytest.raises(ValueError):
        detrep_from_codim2_subspace(x0 * x3 - x1 * x2, x0, 2 * x0)  # rank 1
    with pytest.raises(ValueError):
        detrep_from_codim2_subspace(x0 * x0 + x3 * x3, x1, x2)  # not in ideal
    with pytest.raises(ValueError):
        detrep_from_codim2_subspace(x0, x1, x2)  # not a quadric


def line_triple_scan(polytope):
    """Oracle: the first line triple, in lexicographic index order, whose
    third line contains the common point of the first two, as
    (point, (i, j, k)); None if no three residual lines are concurrent."""
    lines = residual_lines(polytope)
    for i, j, k in itertools.combinations(range(len(lines)), 3):
        pt = lines[i].common_point(lines[j])
        if pt is not None and lines[k].contains_point(pt):
            return pt, (i, j, k)
    return None


def test_singularity_certificate_matches_line_triple_scan():
    outcomes = set()
    for seed in range(6):
        rng = random.Random(seed)
        for k in range(6, 13):
            p = random_polytope(rng, 3, k)
            alpha = adjoint(p).homogeneous
            cert = concurrency_singularity_certificate(p, alpha)
            assert cert == line_triple_scan(p), (seed, k)
            outcomes.add(cert is None)
    assert outcomes == {True, False}


def test_singularity_certificate_rejects_a_wrong_form():
    rng = random.Random(0)
    while True:
        p = random_polytope(rng, 3, 9)
        found = line_triple_scan(p)
        if found is not None:
            break
    alpha = adjoint(p).homogeneous
    pt, _ = found
    # x_t^deg for a coordinate t that is non-zero at the triple point has a
    # non-zero gradient there, so the sum is not singular at it
    t = next(i for i, x in enumerate(pt) if x != 0)
    reg = alpha.registry
    wrong = alpha + reg.var(reg.names[t]) ** alpha.degree()
    with pytest.raises(AssertionError, match="adjoint gradient non-zero"):
        concurrency_singularity_certificate(p, wrong)

