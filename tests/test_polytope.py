"""Polytope combinatorics: vertex enumeration, simplicity, residual flats."""

import itertools
import json
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyadjoint import linalg
from polyadjoint.assoc import abhy_polytope
from polyadjoint.fixtures import get_fixture
from polyadjoint.polyring import format_fraction
from polyadjoint.polytope import (
    Flat,
    HPolytope,
    _edge_form,
    euler_data,
    order_ccw,
    polygon_from_vertices,
    primitive_form,
    random_polytope,
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
        p = random_polytope(rng, 2, n)
        ra = p.residual_arrangement()
        assert len(ra.points(2)) == n * (n - 3) // 2


def test_order_ccw():
    pts = [(0, 0), (2, 0), (2, 2), (0, 2)]
    cyc = order_ccw([pts[2], pts[0], pts[3], pts[1]])
    assert cyc == [(0, 0), (2, 0), (2, 2), (0, 2)]


def test_polygon_from_vertices_roundtrip():
    rng = random.Random(1)
    for n in (4, 5, 8):
        p = random_polytope(rng, 2, n)
        cyc = p.polygon_ccw()
        q = polygon_from_vertices(cyc)
        assert q.polygon_ccw() == cyc


def test_polygon_ccw_walk_matches_order_ccw():
    rng = random.Random(3)
    polygons = [random_polytope(rng, 2, n) for n in (3, 3, 4, 5, 6, 7, 9, 12, 16)]
    polygons.append(unit_square())
    # a repeated inequality is one edge line
    polygons.append(
        HPolytope(2, [((1, 0), 0), ((0, 1), 0), ((-1, 0), 1), ((0, -1), 1), ((2, 0), 0)])
    )
    polygons.append(get_fixture("heptagon7")["polytope"])
    for p in polygons:
        vrep, _ = p.enumerate_vertices()
        assert p.polygon_ccw() == order_ccw(vrep)


def test_polygon_ccw_rejects_a_vertex_on_three_lines():
    # x + y >= 0 only touches the square at its corner (0, 0)
    facets = [((1, 0), 0), ((0, 1), 0), ((-1, 0), 1), ((0, -1), 1), ((1, 1), 0)]
    with pytest.raises(ValueError, match="redundant facet inequality 4"):
        HPolytope(2, facets)
    p = HPolytope(2, facets, validate=False)
    with pytest.raises(ValueError, match=r"vertex \(0, 0\) lies on 3 edge lines"):
        p.polygon_ccw()
    # an unbounded strip's vertices are not a cycle
    strip = HPolytope(2, [((1, 0), 0), ((0, 1), 0), ((0, -1), 1)], validate=False)
    with pytest.raises(ValueError, match="do not bound a polygon"):
        strip.polygon_ccw()


def test_edge_form_matches_the_rational_formula():
    rng = random.Random(5)

    def point():
        return tuple(Fraction(rng.randint(-40, 40), rng.randint(1, 9)) for _ in range(2))

    for _ in range(300):
        a, b = point(), point()
        w = (a[1] - b[1], b[0] - a[0])
        assert _edge_form(a, b) == primitive_form(w, -(w[0] * a[0] + w[1] * a[1]))
    assert _edge_form((1, 2), (1, 2)) == ((0, 0), 0)


def test_euler_and_simplicity_random():
    rng = random.Random(42)
    for k in (6, 7, 8):
        p = random_polytope(rng, 3, k)
        v, e, f = euler_data(p)
        assert v - e + f == 2
        assert 2 * e == 3 * v  # simple 3-polytope
        assert f == k


def test_euler_data_of_non_simple_polytopes():
    pyramid = HPolytope(*square_pyramid())
    assert euler_data(pyramid) == (5, 8, 5)
    # |x| + |y| + |z| <= 1: four facets at each vertex
    signs = itertools.product((1, -1), repeat=3)
    octahedron = HPolytope(3, [(tuple(-s for s in u), 1) for u in signs])
    assert euler_data(octahedron) == (6, 12, 8)


def test_residual_line_count_law():
    rng = random.Random(99)
    for k in (6, 8):
        p = random_polytope(rng, 3, k)
        ra = p.residual_arrangement()
        assert len(ra.lines(3)) == comb(k - 3, 2)
        # distinct subsets give distinct flats under simplicity
        assert len({f.facet_set for f in ra.flats}) == len(ra.flats)


@pytest.mark.parametrize("dim, sizes", [(2, range(3, 25)), (3, range(4, 15)), (4, range(5, 10))])
def test_random_polytope_is_simple_and_bounded(dim, sizes):
    for seed in range(3):
        rng = random.Random(seed)
        for k in sizes:
            p = random_polytope(rng, dim, k)
            assert len(p.facets) == k
            assert p.is_simple() and p.is_simple_arrangement()[0]
            # sphere points of height <= 2k: every entry is below 4*dim*k^2
            bits = (4 * dim * k * k).bit_length()
            for f in p.facets:
                normal, offset = primitive_form(f.normal, f.offset)
                assert all(abs(x).bit_length() <= bits for x in normal + (offset,))


@pytest.mark.parametrize("dim, k", [(1, 3), (2, 2), (3, 3)])
def test_random_polytope_rejects_impossible_sizes(dim, k):
    with pytest.raises(ValueError):
        random_polytope(random.Random(0), dim, k)


def ref_random_polytope(rng, dim, k):
    """The generator's loop with a full validated build of every draw."""
    while True:
        forms = {}
        while len(forms) < k:
            q = rng.randint(1, k)
            ps = [rng.randint(-2 * q, 2 * q) for _ in range(dim - 1)]
            s = sum(p * p for p in ps)
            normal = [2 * p * q for p in ps] + [s - q * q]
            forms[primitive_form(normal, s + q * q)] = None
        try:
            poly = HPolytope(dim, forms)
        except ValueError:
            continue
        if poly.is_simple_arrangement()[0]:
            return poly


@pytest.mark.parametrize(
    "dim, seeds, sizes",
    [(2, (0, 1), (3, 4, 7, 12)), (3, (0, 1), (4, 5, 8)), (4, (0, 1), (5, 6, 7)),
     (5, (0, 2), (7, 8))],
)
def test_random_polytope_precheck_keeps_every_draw(dim, seeds, sizes):
    # the spanning and recession pre-check rejects only draws that the
    # validated build rejects, so instances and the rng stream are unchanged
    for seed in seeds:
        for k in sizes:
            rng, ref_rng = random.Random(seed), random.Random(seed)
            assert random_polytope(rng, dim, k).to_json() == (
                ref_random_polytope(ref_rng, dim, k).to_json()
            )
            assert rng.random() == ref_rng.random()


def test_random_polytope_is_reproducible():
    for dim, k in ((2, 9), (3, 8), (4, 7)):
        first = random_polytope(random.Random(17), dim, k)
        again = random_polytope(random.Random(17), dim, k)
        assert first.to_json() == again.to_json()


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
    assert len(p.facets) > p.dim + 1  # more forms than one (n+1)-subset
    assert p.is_simple_arrangement() == full_subset_search(make()) == (simple, witness)
    assert ref_simple_arrangement(make()) == (simple, witness)


def test_simplicity_fast_path_random_polygons():
    rng = random.Random(3)
    for n in (4, 5, 6):
        p = random_polytope(rng, 2, n)
        assert p.is_simple_arrangement() == full_subset_search(p)


def test_arrangement_data_computed_once(monkeypatch):
    p = get_fixture("quadric-dim4")["polytope"]
    first = p.residual_arrangement()

    def no_linalg(*args):
        raise AssertionError("linalg called again")

    for name in ("rref", "rank", "nullspace", "integer_nullspace", "solve", "det"):
        monkeypatch.setattr(linalg, name, no_linalg)
    assert p.residual_arrangement() is first
    assert p.is_simple_arrangement() == (True, None)


# -- oracles: the determinant simplicity test and Fraction residual flats ------


def ref_simple_arrangement(p):
    """Uniform-matroid test by (n+1)x(n+1) determinants, then the first
    dependent subset by size and rank."""
    forms = p.homogeneous_forms()
    k, n = len(forms), p.dim
    if k > n + 1 and all(
        linalg.det([forms[j] for j in subset])
        for subset in itertools.combinations(range(k), n + 1)
    ):
        return True, None
    return full_subset_search(p)


def ref_residual_arrangement(p):
    """(facet set, codim, basis) of every residual flat from `Fraction`
    kernels, or the error for a non-simple arrangement."""
    simple, witness = ref_simple_arrangement(p)
    if not simple:
        return (
            "residual arrangement requires a simple arrangement; "
            f"violating facet subset {witness}"
        )
    _, inc = ref_enumerate_vertices(p)
    forms = p.homogeneous_forms()
    flats = []
    for size in range(2, p.dim + 1):
        for subset in itertools.combinations(range(len(forms)), size):
            if not any(set(subset) <= v for v in inc):
                basis = linalg.nullspace([forms[j] for j in subset])
                flats.append(Flat(subset, size, basis))
    return [(f.facet_set, f.codim, f.basis) for f in flats]


def residual_or_error(p):
    try:
        flats = p.residual_arrangement().flats
    except ValueError as exc:
        return str(exc)
    for f in flats:
        assert all(type(x) is Fraction for b in f.basis for x in b)
    return [(f.facet_set, f.codim, f.basis) for f in flats]


def assert_arrangement_matches_oracle(make):
    """Simplicity and residual flats against the oracles, asked for in
    either order on fresh instances."""
    p, q = make(), make()
    assert p.is_simple_arrangement() == ref_simple_arrangement(p)
    expected = ref_residual_arrangement(p)
    assert residual_or_error(p) == expected
    assert residual_or_error(q) == expected
    assert q.is_simple_arrangement() == p.is_simple_arrangement()
    return p.is_simple_arrangement()[0], expected


def triangular_prism():
    # {x >= -1, y >= -1, x + y <= 1, -1 <= z <= 2}: facets 0, 1, 2 are
    # parallel to the z axis and meet at the point at infinity (0:0:0:1)
    return HPolytope(
        3,
        [((1, 0, 0), 1), ((0, 1, 0), 1), ((-1, -1, 0), 1), ((0, 0, 1), 1), ((0, 0, -1), 2)],
    )


NAMED_ARRANGEMENTS = {
    "octa8": lambda: get_fixture("octa8")["polytope"],
    "quadric-dim4": lambda: get_fixture("quadric-dim4")["polytope"],
    "cube": cube,
    "three-concurrent-lines": three_concurrent_lines,
    "square": unit_square,
    "square-pyramid": lambda: HPolytope(*square_pyramid()),
    "triangular-prism": triangular_prism,
    "abhy-6": lambda: abhy_polytope(6),
}


@pytest.mark.parametrize("name", sorted(NAMED_ARRANGEMENTS))
def test_arrangement_scan_matches_oracles_on_named_cases(name):
    simple, expected = assert_arrangement_matches_oracle(NAMED_ARRANGEMENTS[name])
    assert simple == (name not in ("cube", "three-concurrent-lines", "square-pyramid", "abhy-6"))
    if name == "triangular-prism":
        at_infinity = [flat for flat in expected if flat[1] == 3 and flat[2][0][0] == 0]
        assert [flat[0] for flat in at_infinity] == [(0, 1, 2), (0, 3, 4), (1, 3, 4), (2, 3, 4)]


@pytest.mark.parametrize(
    "dim, sizes, seeds",
    [(2, range(3, 9), range(3)), (3, range(4, 11), range(3)),
     (4, range(6, 10), range(2)), (5, (9,), range(1))],
)
def test_arrangement_scan_matches_oracles_on_random_polytopes(dim, sizes, seeds):
    for seed in seeds:
        for k in sizes:
            def make():
                return random_polytope(random.Random(seed), dim, k)

            simple, expected = assert_arrangement_matches_oracle(make)
            # every dim-subset meets in its own point, a vertex or residual
            points = [flat for flat in expected if flat[1] == dim]
            assert simple and len(points) == comb(k, dim) - len(make().enumerate_vertices()[0])


def test_interior_point_of_empty_polytope_raises_value_error():
    p = HPolytope(2, [((1, 0), -1), ((0, 1), -1), ((-1, -1), -1)], validate=False)
    with pytest.raises(ValueError, match="^empty polytope$"):
        p.interior_point()


# -- oracle: the Fraction vertex enumeration and recession check ---------------


def ref_recession_ray(p):
    normals = [list(f.normal) for f in p.facets]
    for subset in itertools.combinations(range(len(normals)), p.dim - 1):
        rows = [normals[i] for i in subset]
        kern = linalg.nullspace(rows) if rows else []
        if p.dim == 1:
            kern = [[Fraction(1)]]
        for d in kern:
            for cand in (d, [-x for x in d]):
                if any(x != 0 for x in cand) and all(
                    sum(a * b for a, b in zip(n, cand)) >= 0 for n in normals
                ):
                    return tuple(cand)
    return None


def ref_enumerate_vertices(p):
    n = p.dim
    seen = {}
    for subset in itertools.combinations(range(len(p.facets)), n):
        aug = [list(p.facets[i].normal) + [-p.facets[i].offset] for i in subset]
        reduced, pivots = linalg.rref(aug)
        if len(pivots) != n or pivots[-1] != n - 1:
            continue
        point = tuple(row[n] for row in reduced)
        if point in seen:
            continue
        values = [f.value_at(point) for f in p.facets]
        if any(v < 0 for v in values):
            continue
        seen[point] = frozenset(i for i, v in enumerate(values) if v == 0)
    vertices = sorted(seen)
    return vertices, [seen[v] for v in vertices]


def ref_verdict(p):
    """The error `HPolytope(...)` raises, checked on Fractions, or None."""
    normals = [list(f.normal) for f in p.facets]
    if linalg.rank(normals) < p.dim:
        return "unbounded polytope: facet normals do not span"
    ray = ref_recession_ray(p)
    if ray is not None:
        direction = json.dumps([format_fraction(x) for x in ray])
        return f"unbounded polytope: recession direction {direction}"
    vrep, inc = ref_enumerate_vertices(p)
    if not vrep:
        return "empty polytope"
    centroid = tuple(sum(v[i] for v in vrep) / len(vrep) for i in range(p.dim))
    for i, f in enumerate(p.facets):
        if f.value_at(centroid) <= 0:
            return f"polytope not full-dimensional (facet {i} not strict at centroid)"
    for i in range(len(p.facets)):
        tight = [[Fraction(1)] + list(v) for v, s in zip(vrep, inc) if i in s]
        if not tight or linalg.rank(tight) < p.dim:
            return f"redundant facet inequality {i}"
    return None


def verdict(dim, facets):
    try:
        HPolytope(dim, facets)
    except ValueError as exc:
        return str(exc)
    return None


def assert_matches_oracle(dim, facets):
    p = HPolytope(dim, facets, validate=False)
    assert p.enumerate_vertices() == ref_enumerate_vertices(p)
    assert p._recession_ray() == ref_recession_ray(p)
    expected = ref_verdict(p)
    assert verdict(dim, facets) == expected
    return p, expected


def square_pyramid():
    # base [-1, 1]^2 at z = 0, apex (0, 0, 1) on all four side facets
    return 3, [
        ((0, 0, 1), 0),
        ((-1, 0, -1), 1),
        ((1, 0, -1), 1),
        ((0, -1, -1), 1),
        ((0, 1, -1), 1),
    ]


ORACLE_CASES = {
    "square-pyramid": square_pyramid(),
    "cube-parallel-facets": (3, [(f.normal, f.offset) for f in cube().facets]),
    "segment": (1, [((2,), 1), ((-3,), 2)]),
    "half-line": (1, [((1,), 0)]),
    "strip-unbounded": (2, [((1, 0), 0), ((-1, 0), 1), ((0, 1), 0)]),
    "normals-do-not-span": (2, [((1, 0), 0), ((-1, 0), 1)]),
    "empty": (2, [((1, 0), -1), ((0, 1), -1), ((-1, -1), -1)]),
    "redundant": (2, [((1, 0), 0), ((0, 1), 0), ((-1, -1), 1), ((-1, -1), 2)]),
    "lower-dimensional": (2, [((1, 0), 0), ((-1, 0), 0), ((0, 1), 0), ((0, -1), 1)]),
}


def scaled(facets, scales):
    return [
        (tuple(s * x for x in normal), s * offset)
        for (normal, offset), s in zip(facets, scales)
    ]


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_kernel_matches_fraction_oracle_on_named_cases(case):
    dim, facets = ORACLE_CASES[case]
    p, expected = assert_matches_oracle(dim, facets)
    # each facet scaled by a different positive rational
    scales = [Fraction(2 * i + 1, i + 2) for i in range(len(facets))]
    q, scaled_expected = assert_matches_oracle(dim, scaled(facets, scales))
    assert (q.enumerate_vertices(), scaled_expected) == (p.enumerate_vertices(), expected)
    if case == "square-pyramid":
        assert expected is None
        vrep, inc = p.enumerate_vertices()
        assert inc[vrep.index((0, 0, 1))] == frozenset({1, 2, 3, 4})
    if case == "half-line":
        assert expected == 'unbounded polytope: recession direction ["1"]'
    if case == "strip-unbounded":
        assert expected == 'unbounded polytope: recession direction ["0", "1"]'


@pytest.mark.parametrize("n", [5, 6, 7])
def test_kernel_matches_fraction_oracle_on_abhy(n):
    p = abhy_polytope(n)
    dim, facets = p.dim, [(f.normal, f.offset) for f in p.facets]
    _, expected = assert_matches_oracle(dim, facets)
    assert expected is None


_Q = st.fractions(min_value=-3, max_value=3, max_denominator=3)
_POSITIVE = st.fractions(min_value=Fraction(1, 5), max_value=5, max_denominator=5)


@st.composite
def h_polytopes(draw):
    """(dim, facets) in dimensions 1..4: either arbitrary facets, mostly
    unbounded or empty, or cuts through a simplex around the origin, which
    stay full-dimensional and may be redundant."""
    dim = draw(st.integers(1, 4))
    normal = st.tuples(*[_Q] * dim).filter(any)
    if draw(st.booleans()):
        count = draw(st.integers(dim, dim + 3))
        return dim, draw(st.lists(st.tuples(normal, _Q), min_size=count, max_size=count))
    simplex = [
        (tuple(int(i == j) for j in range(dim)), 1) for i in range(dim)
    ] + [((-1,) * dim, 1)]
    cuts = draw(st.lists(st.tuples(normal, _POSITIVE), max_size=3))
    return dim, draw(st.permutations(simplex + cuts))


@settings(max_examples=150, deadline=None)
@given(h_polytopes(), st.data())
def test_kernel_matches_fraction_oracle_on_random_polytopes(case, data):
    dim, facets = case
    p, expected = assert_matches_oracle(dim, facets)
    assert_arrangement_matches_oracle(lambda: HPolytope(dim, facets, validate=False))
    # a positive scale per facet changes neither vertices nor verdict
    scales = data.draw(st.lists(_POSITIVE, min_size=len(facets), max_size=len(facets)))
    q, scaled_expected = assert_matches_oracle(dim, scaled(facets, scales))
    assert (q.enumerate_vertices(), scaled_expected) == (p.enumerate_vertices(), expected)
