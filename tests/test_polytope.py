"""Polytope combinatorics: vertex enumeration, simplicity, residual flats."""

import itertools
import random
from fractions import Fraction
from math import comb

import pytest

from polyadjoint import linalg
from polyadjoint.fixtures import get_fixture
from polyadjoint.polytope import (
    HPolytope,
    euler_data,
    order_ccw,
    polygon_from_vertices,
    random_convex_polygon,
    random_simple_3polytope,
)


def unit_square():
    return HPolytope(
        2, [((1, 0), 0), ((0, 1), 0), ((-1, 0), 1), ((0, -1), 1)], name="square"
    )


def cube():
    return HPolytope(
        3,
        [
            ((1, 0, 0), 0),
            ((0, 1, 0), 0),
            ((0, 0, 1), 0),
            ((-1, 0, 0), 1),
            ((0, -1, 0), 1),
            ((0, 0, -1), 1),
        ],
        name="cube",
    )


def test_square_vertices():
    p = unit_square()
    vrep, inc = p.enumerate_vertices()
    assert sorted(vrep) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert all(len(s) == 2 for s in inc)
    assert p.is_simple()


def test_square_arrangement_not_simple_projectively():
    # opposite edges of the square are parallel: the four lines have two
    # points at infinity shared pairwise, but any 3 forms are independent,
    # so the arrangement is simple while e.g. {x=0, x=1, y=0} is fine.
    p = unit_square()
    simple, witness = p.is_simple_arrangement()
    assert simple


def test_cube_arrangement_not_simple():
    # {x=0, x=1, y=0, y=1} has homogeneous rank 3 < 4
    simple, witness = cube().is_simple_arrangement()
    assert not simple
    assert witness is not None


def test_cube_not_rejected_as_polytope():
    p = cube()
    vrep, _ = p.enumerate_vertices()
    assert len(vrep) == 8
    assert p.is_simple()


def test_unbounded_rejected():
    with pytest.raises(ValueError):
        HPolytope(2, [((1, 0), 0), ((0, 1), 0)])


def test_empty_rejected():
    with pytest.raises(ValueError):
        HPolytope(2, [((1, 0), -1), ((0, 1), -1), ((-1, -1), -1)])


def test_redundant_facet_rejected():
    with pytest.raises(ValueError):
        HPolytope(
            2,
            [((1, 0), 0), ((0, 1), 0), ((-1, -1), 1), ((-1, -1), 2)],
        )


def test_square_residual_points():
    # diagonally opposite edge pairs of a k-gon: k(k-3)/2 residual points
    p = unit_square()
    ra = p.residual_arrangement()
    assert len(ra.points(2)) == 2
    assert all(f.codim == 2 for f in ra.flats)


def test_polygon_residual_count():
    rng = random.Random(5)
    for n in (5, 6, 7):
        p = random_convex_polygon(rng, n)
        ra = p.residual_arrangement()
        assert len(ra.points(2)) == n * (n - 3) // 2


def test_order_ccw():
    pts = [(0, 0), (2, 0), (2, 2), (0, 2)]
    cyc = order_ccw([pts[2], pts[0], pts[3], pts[1]])
    assert cyc == [(0, 0), (2, 0), (2, 2), (0, 2)]


def test_polygon_from_vertices_roundtrip():
    rng = random.Random(1)
    for n in (4, 5, 8):
        p = random_convex_polygon(rng, n)
        cyc = p.polygon_ccw()
        q = polygon_from_vertices(cyc)
        assert q.polygon_ccw() == cyc


def test_euler_and_simplicity_random():
    rng = random.Random(42)
    for k in (6, 7, 8):
        p = random_simple_3polytope(rng, k)
        v, e, f = euler_data(p)
        assert v - e + f == 2
        assert 2 * e == 3 * v  # simple 3-polytope
        assert f == k


def test_residual_line_count_law():
    rng = random.Random(99)
    for k in (6, 8):
        p = random_simple_3polytope(rng, k)
        ra = p.residual_arrangement()
        assert len(ra.lines(3)) == comb(k - 3, 2)
        # distinct subsets give distinct flats under simplicity
        assert len({f.facet_set for f in ra.flats}) == len(ra.flats)


def test_json_roundtrip():
    p = cube()
    q = HPolytope.from_json(p.to_json())
    assert [f.normal for f in q.facets] == [f.normal for f in p.facets]
    assert [f.offset for f in q.facets] == [f.offset for f in p.facets]
    assert q.dim == 3 and q.name == "cube"


def test_interior_point_strict():
    p = cube()
    c = p.interior_point()
    assert all(f.value_at(c) > 0 for f in p.facets)


def full_subset_search(p):
    """Reference simplicity check: every subset of 2..n+1 forms, in order."""
    forms = p.homogeneous_forms()
    for size in range(2, min(len(forms), p.dim + 1) + 1):
        for subset in itertools.combinations(range(len(forms)), size):
            if linalg.rank([forms[j] for j in subset]) < size:
                return False, subset
    return True, None


def three_concurrent_lines():
    # x = 0, y = 0 and x + y = 0 meet at the origin
    return HPolytope(
        2, [((1, 0), 0), ((0, 1), 0), ((1, 1), 0), ((-1, -1), 1)], validate=False
    )


@pytest.mark.parametrize(
    "make, simple, witness",
    [
        (unit_square, True, None),
        (cube, False, (0, 1, 3, 4)),
        (three_concurrent_lines, False, (0, 1, 2)),
    ],
)
def test_simplicity_fast_path_matches_full_search(make, simple, witness):
    p = make()
    assert len(p.facets) > p.dim + 1  # the determinant test runs
    assert p.is_simple_arrangement() == full_subset_search(make()) == (simple, witness)


def test_simplicity_fast_path_random_polygons():
    rng = random.Random(3)
    for n in (4, 5, 6):
        p = random_convex_polygon(rng, n)
        assert p.is_simple_arrangement() == full_subset_search(p)


def test_arrangement_data_computed_once(monkeypatch):
    p = get_fixture("quadric-dim4")["polytope"]
    first = p.residual_arrangement()

    def no_linalg(*args):
        raise AssertionError("linalg called again")

    for name in ("rref", "rank", "nullspace", "solve", "det"):
        monkeypatch.setattr(linalg, name, no_linalg)
    assert p.residual_arrangement() is first
    assert p.is_simple_arrangement() == (True, None)
