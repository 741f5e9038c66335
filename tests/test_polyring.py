"""Kernel tests: exact polynomial arithmetic, determinants, square roots."""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from polyadjoint.adjoint import affine_registry, universal_adjoint
from polyadjoint.polyring import (
    Poly,
    PolyMatrix,
    VarRegistry,
    equal_up_to_scalar,
    exact_divide,
    format_fraction,
    gradient_at,
    parse_int,
    parse_rational,
    perfect_square_up_to_scalar,
)
from polyadjoint.polytope import random_polytope

REG = VarRegistry(["x", "y", "z"])


def coeffs():
    return st.fractions(
        min_value=-20, max_value=20, max_denominator=7
    )


def exponents():
    return st.tuples(
        st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)
    )


def term_dicts():
    return st.dictionaries(exponents(), coeffs(), max_size=6)


def polys():
    return term_dicts().map(lambda d: Poly(REG, d))


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
def test_ring_axioms(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f + REG.zero() == f
    assert f * REG.one() == f
    assert (f - f).is_zero()


@settings(max_examples=40, deadline=None)
@given(polys(), polys())
def test_degree_law(f, g):
    if f.is_zero() or g.is_zero():
        assert (f * g).is_zero()
    else:
        assert (f * g).degree() == f.degree() + g.degree()


@settings(max_examples=40, deadline=None)
@given(polys(), polys())
def test_derivative_product_rule(f, g):
    for v in range(3):
        lhs = (f * g).derivative(v)
        rhs = f.derivative(v) * g + f * g.derivative(v)
        assert lhs == rhs


@settings(max_examples=40, deadline=None)
@given(polys())
def test_json_roundtrip(f):
    assert Poly.from_json(f.to_json(), REG) == f


@settings(max_examples=40, deadline=None)
@given(polys(), coeffs())
def test_equal_up_to_scalar(f, c):
    if f.is_zero() or c == 0:
        return
    assert equal_up_to_scalar(f * c, f) == c
    x = REG.var("x")
    if not (f * x - f).is_zero():
        assert equal_up_to_scalar(f + x * f, f) is None


@settings(max_examples=40, deadline=None)
@given(polys(), polys())
def test_exact_divide(f, g):
    if g.is_zero():
        return
    q = exact_divide(f * g, g)
    assert q == f


def _to_sympy(f):
    xs = sympy.symbols("x y z")
    expr = 0
    for e, c in f.terms.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for s, p in zip(xs, e):
            term *= s**p
        expr += term
    return sympy.expand(expr)


def _sympy_is_square_up_to_scalar(f):
    """Independent oracle: factor and check all multiplicities are even."""
    expr = _to_sympy(f)
    _, factors = sympy.factor_list(expr)
    return all(mult % 2 == 0 for _, mult in factors)


@settings(max_examples=30, deadline=None)
@given(polys(), coeffs())
def test_perfect_square_roundtrip(f, lam):
    if f.is_zero() or lam == 0:
        return
    sq = f * f * lam
    result = perfect_square_up_to_scalar(sq)
    assert result is not None
    mu, root = result
    assert root * root * mu == sq
    assert root.content() == Fraction(1)


@settings(max_examples=30, deadline=None)
@given(polys())
def test_perfect_square_matches_sympy_oracle(f):
    if f.is_zero():
        return
    ours = perfect_square_up_to_scalar(f) is not None
    assert ours == _sympy_is_square_up_to_scalar(f)


def test_non_square_rejected():
    x, y, z = REG.variables()
    assert perfect_square_up_to_scalar(x * x + y) is None
    assert perfect_square_up_to_scalar(x * y) is None
    # scalar multiples of squares are accepted (scalar need not be a square)
    lam, root = perfect_square_up_to_scalar((x + y) ** 2 * Fraction(-3, 7))
    assert lam == Fraction(-3, 7) and root == x + y


def _random_matrix(rng, size):
    entries = []
    for _ in range(size):
        row = []
        for _ in range(size):
            terms = {}
            for _ in range(rng.randrange(3)):
                e = tuple(rng.randrange(2) for _ in range(3))
                terms[e] = Fraction(rng.randrange(-4, 5))
            row.append(Poly(REG, terms))
        entries.append(row)
    return PolyMatrix(entries)


def _cofactor_det(rows):
    """Reference determinant: cofactor expansion along the first row."""
    d = len(rows)
    if d == 1:
        return rows[0][0]
    total = rows[0][0].registry.zero()
    for j in range(d):
        if not rows[0][j].is_zero():
            minor = [[row[k] for k in range(d) if k != j] for row in rows[1:]]
            total = total + (-1) ** j * rows[0][j] * _cofactor_det(minor)
    return total


def _reference_det(m):
    return _cofactor_det(m.entries)


def test_det_matches_cofactor_reference():
    rng = random.Random(7)
    for size in (2, 3, 4, 5):
        for _ in range(4):
            m = _random_matrix(rng, size)
            assert m.det() == _reference_det(m)


def _sympy_det(m):
    return sympy.expand(
        sympy.Matrix([[_to_sympy(p) for p in row] for row in m.entries]).det(
            method="domain-ge"
        )
    )


def _non_tridiagonal(rng, size):
    """Random sparse matrix with a non-zero entry at (0, size-1), so every
    size >= 3 takes the general path (sizes 1 and 2 are tridiagonal)."""
    m = _random_matrix(rng, size)
    if size >= 3:
        m.entries[0][size - 1] = REG.var("y") - 2
        assert not m.is_tridiagonal()
    return m


def test_general_det_matches_sympy():
    rng = random.Random(37)
    for size in range(1, 8):
        for _ in range(3):
            m = _non_tridiagonal(rng, size)
            assert _to_sympy(m.det()) == _sympy_det(m)
        # singular: two equal rows
        m = _non_tridiagonal(rng, size)
        if size >= 2:
            m.entries[size - 1] = list(m.entries[0])
            assert m.det().is_zero() and _sympy_det(m) == 0
        # a zero row
        m = _non_tridiagonal(rng, size)
        m.entries[size // 2] = [REG.zero()] * size
        assert m.det().is_zero() and _sympy_det(m) == 0


@pytest.mark.parametrize(
    "perm, sign",
    [((2, 0, 1, 3, 4), 1), ((4, 1, 2, 3, 0), -1), ((1, 2, 0, 4, 3), -1),
     ((3, 4, 2, 0, 1), 1)],
)
def test_general_det_of_permutation_matrix(perm, sign):
    # row i holds the variable-weighted entry x^i + 1 in column perm[i]
    x = REG.var("x")
    weights = [x**i + 1 for i in range(len(perm))]
    entries = [[REG.zero()] * len(perm) for _ in perm]
    for i, j in enumerate(perm):
        entries[i][j] = weights[i]
    m = PolyMatrix(entries)
    assert not m.is_tridiagonal()
    expected = REG.constant(sign)
    for w in weights:
        expected = expected * w
    assert m.det() == expected == _reference_det(m)
    assert _to_sympy(m.det()) == _sympy_det(m)


def test_det_multiplicativity_on_numeric():
    rng = random.Random(11)
    creg = VarRegistry(["t"])
    for _ in range(5):
        a = [[creg.constant(rng.randrange(-5, 6)) for _ in range(4)] for _ in range(4)]
        b = [[creg.constant(rng.randrange(-5, 6)) for _ in range(4)] for _ in range(4)]
        prod = [
            [
                sum((a[i][k] * b[k][j] for k in range(4)), creg.zero())
                for j in range(4)
            ]
            for i in range(4)
        ]
        assert PolyMatrix(prod).det() == PolyMatrix(a).det() * PolyMatrix(b).det()


def test_matrix_json_roundtrip():
    rng = random.Random(3)
    m = _random_matrix(rng, 3)
    assert PolyMatrix.from_json(m.to_json(), REG).entries == m.entries


def test_homogenize_dehomogenize():
    x, y, z = REG.variables()
    f = x * x + 2 * y + 3
    target = VarRegistry(["w", "x", "y", "z"])
    h = f.homogenize(target, "w", 3)
    assert h.is_homogeneous() and h.degree() == 3
    back = h.dehomogenize(REG, "w")
    assert back == f


def test_gradient_euler_identity():
    x, y, z = REG.variables()
    f = x**3 + x * y * z - 2 * z**3
    pt = (Fraction(1), Fraction(-2), Fraction(3))
    grad = gradient_at(f, pt)
    assert sum(g * p for g, p in zip(grad, pt)) == 3 * f.evaluate(pt)


def _fraction_value(f, point):
    """Reference: f at point, every coordinate read as a Fraction."""
    point = [Fraction(x) for x in point]
    total = Fraction(0)
    for e, c in f.terms.items():
        for x, k in zip(point, e):
            c *= x**k
        total += c
    return total


def _random_poly(rng, degree=None):
    """Up to six terms in x, y, z with small rational coefficients; all of
    total degree `degree` when it is given."""
    terms = {}
    for _ in range(rng.randint(0, 6)):
        if degree is None:
            e = tuple(rng.randint(0, 3) for _ in range(3))
        else:
            a = rng.randint(0, degree)
            b = rng.randint(0, degree - a)
            e = (a, b, degree - a - b)
        terms[e] = Fraction(rng.randint(-20, 20), rng.randint(1, 7))
    return Poly(REG, terms)


def _random_points(rng):
    ints = tuple(rng.randint(-9, 9) for _ in range(3))
    fracs = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(3))
    mixed = (ints[0], fracs[1], ints[2])
    strings = tuple(format_fraction(x) for x in fracs)
    return ints, fracs, mixed, strings


def test_evaluate_matches_fraction_reference():
    rng = random.Random(41)
    fixed = [REG.zero(), REG.constant(Fraction(-5, 3)), REG.one()]
    for f in fixed + [_random_poly(rng) for _ in range(60)]:
        for pt in _random_points(rng):
            value = f.evaluate(pt)
            assert isinstance(value, Fraction)
            assert value == _fraction_value(f, pt)


def test_gradient_at_matches_fraction_reference():
    rng = random.Random(43)
    fixed = [REG.zero(), REG.constant(7)]
    homogeneous = [_random_poly(rng, rng.randint(1, 5)) for _ in range(60)]
    for f in fixed + homogeneous:
        for pt in _random_points(rng):
            if not any(Fraction(x) for x in pt):
                continue
            grad = gradient_at(f, pt)
            expected = [_fraction_value(f.derivative(i), pt) for i in range(3)]
            assert all(isinstance(g, Fraction) for g in grad)
            assert grad == expected


def test_evaluate_and_gradient_input_errors():
    x, y, z = REG.variables()
    f = x * y - 2 * z**2
    for bad in [(1.5, 0, 1), (1, Fraction(1, 2), 0.0)]:
        with pytest.raises(TypeError):
            f.evaluate(bad)
        with pytest.raises(TypeError):
            gradient_at(f, bad)
    with pytest.raises(ValueError, match="dimension mismatch"):
        f.evaluate((1, 2))
    with pytest.raises(ValueError, match="dimension mismatch"):
        gradient_at(f, (1, 2))
    with pytest.raises(ValueError, match="zero vector"):
        gradient_at(f, (0, Fraction(0), "0"))
    with pytest.raises(ValueError, match="homogeneous"):
        gradient_at(f + x, (1, 0, 0))


def test_substitute_composition():
    x, y, z = REG.variables()
    f = x * y + z * z
    g = f.substitute({"x": y + 1, "z": REG.constant(2)})
    assert g == (y + 1) * y + 4


def _random_tridiagonal(rng, size):
    """Non-symmetric tridiagonal matrix of random affine forms in x and y
    (z is left out to keep the reference determinant fast); about a third of
    the diagonal and off-diagonal entries are zero, so some matrices are
    reducible."""

    def entry():
        if rng.randrange(3) == 0:
            return REG.zero()
        return REG.linear_form(
            [rng.randrange(-3, 4), rng.randrange(-3, 4), 0], rng.randrange(-3, 4)
        )

    entries = [[REG.zero()] * size for _ in range(size)]
    for i in range(size):
        entries[i][i] = entry()
        if i + 1 < size:
            entries[i][i + 1] = entry()
            entries[i + 1][i] = entry()
    return PolyMatrix(entries)


def test_tridiagonal_det_matches_elimination():
    rng = random.Random(19)
    for size in range(1, 9):
        for _ in range(5):
            m = _random_tridiagonal(rng, size)
            assert m.is_tridiagonal()
            assert m.det() == _reference_det(m)


def test_tridiagonal_det_of_reducible_matrix():
    # a zero off-diagonal pair splits the matrix into two blocks
    x, y, z = REG.variables()
    zero = REG.zero()
    m = PolyMatrix(
        [
            [x, y, zero, zero],
            [z + 1, zero, zero, zero],
            [zero, zero, x - y, 2 * z],
            [zero, zero, y, x],
        ]
    )
    expected = (x * zero - y * (z + 1)) * ((x - y) * x - 2 * z * y)
    assert m.det() == expected == _reference_det(m)


def test_leading_minors_are_principal_determinants():
    rng = random.Random(23)
    for size in range(1, 9):
        m = _random_tridiagonal(rng, size)
        minors = m.leading_minors()
        assert len(minors) == size
        for k in range(1, size + 1):
            assert minors[k - 1] == _reference_det(m.leading_principal(k))


def test_near_tridiagonal_matrix_takes_the_general_path():
    rng = random.Random(29)
    for size in (3, 5, 7, 8):
        m = _random_tridiagonal(rng, size)
        m.entries[0][2] = REG.var("x") + 1  # one entry at |i - j| = 2
        assert not m.is_tridiagonal()
        assert m.det() == _reference_det(m)
        with pytest.raises(ValueError):
            m.leading_minors()


# -- reference: dict-of-Fraction arithmetic, as the kernel did it before it
# moved to primitive integer terms times one rational content ---------------


def _ref(terms):
    return {tuple(e): Fraction(c) for e, c in terms.items() if c != 0}


def _ref_add(f, g, sign=1):
    out = dict(f)
    for e, c in g.items():
        out[e] = out.get(e, Fraction(0)) + sign * c
    return _ref(out)


def _ref_scale(f, c):
    return _ref({e: v * c for e, v in f.items()})


def _ref_mul(f, g):
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return _ref(out)


def _ref_pow(f, n, one):
    out = one
    for _ in range(n):
        out = _ref_mul(out, f)
    return out


def _ref_content(f):
    if not f:
        return Fraction(1)
    den = lcm(*(c.denominator for c in f.values()))
    return Fraction(gcd(*(c.numerator * (den // c.denominator) for c in f.values())), den)


def _ref_leading(f):
    return f[max(f, key=lambda e: (sum(e), e))]


def _ref_canonical(f):
    if not f:
        return f
    c = _ref_content(f)
    return _ref_scale(f, 1 / (-c if _ref_leading(f) < 0 else c))


def _ref_substitute(f, images, one):
    """f with its i-th variable replaced by the term dict images[i]."""
    out = {}
    for e, c in f.items():
        term = _ref_scale(one, c)
        for image, p in zip(images, e):
            term = _ref_mul(term, _ref_pow(image, p, one))
        out = _ref_add(out, term)
    return out


def _ref_to_json(names, f):
    order = sorted(f, key=lambda e: (sum(e), e), reverse=True)
    return {
        "vars": list(names),
        "terms": [{"exps": list(e), "coeff": format_fraction(f[e])} for e in order],
    }


def _assert_matches(p, ref):
    assert dict(p.terms) == ref
    assert all(type(c) is Fraction for c in p.terms.values())


ONE3 = {(0, 0, 0): Fraction(1)}


@settings(max_examples=60, deadline=None)
@given(term_dicts(), term_dicts(), coeffs(), st.integers(-5, 5))
def test_kernel_matches_fraction_reference(ft, gt, c, k):
    f, g = Poly(REG, ft), Poly(REG, gt)
    rf, rg = _ref(ft), _ref(gt)
    _assert_matches(f, rf)
    _assert_matches(f + g, _ref_add(rf, rg))
    _assert_matches(f - g, _ref_add(rf, rg, -1))
    _assert_matches(f * g, _ref_mul(rf, rg))
    _assert_matches(-f, _ref_scale(rf, -1))
    for scalar in (c, k):
        _assert_matches(f * scalar, _ref_scale(rf, scalar))
        _assert_matches(scalar * f, _ref_scale(rf, scalar))
        _assert_matches(f + scalar, _ref_add(rf, _ref_scale(ONE3, scalar)))
        _assert_matches(scalar - f, _ref_add(_ref_scale(ONE3, scalar), rf, -1))
    for n in range(4):
        _assert_matches(f**n, _ref_pow(rf, n, ONE3))
    assert f.content() == _ref_content(rf) and type(f.content()) is Fraction
    _assert_matches(f.canonical(), _ref_canonical(rf))
    assert f.to_json() == _ref_to_json(REG.names, rf)
    assert (f * g).to_json() == _ref_to_json(REG.names, _ref_mul(rf, rg))


@settings(max_examples=40, deadline=None)
@given(
    term_dicts(),
    st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)), coeffs(), max_size=3),
    st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)), coeffs(), max_size=3),
    coeffs(),
    term_dicts(),
)
def test_substitute_matches_fraction_reference(ft, at, bt, c, gt):
    sreg = VarRegistry(["s", "t"])
    f, rf = Poly(REG, ft), _ref(ft)
    a, b = Poly(sreg, at), Poly(sreg, bt)
    images = [_ref(at), _ref(bt), _ref({(0, 0): c})]
    _assert_matches(
        f.substitute({"x": a, "y": b, "z": c}),
        _ref_substitute(rf, images, {(0, 0): Fraction(1)}),
    )
    # into the same registry, one variable replaced, the others passed through
    g = Poly(REG, {e: v for e, v in gt.items() if sum(e) <= 2})
    x, _, z = (_ref({e: 1}) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    _assert_matches(f.substitute({"y": g}), _ref_substitute(rf, [x, _ref(g.terms), z], ONE3))


# -- oracle: the per-term substitution loop --------------------------------------


def per_term_substitute(f, assignment):
    """Every term's product of image powers built from scratch, one image
    for every variable of the source registry."""
    subs, target = {}, f.registry
    for v, val in assignment.items():
        if isinstance(val, Poly):
            target = val.registry
        subs[f.registry.index(v) if isinstance(v, str) else v] = val
    images = []
    for i, name in enumerate(f.registry.names):
        val = subs.get(i)
        if val is None:
            val = target.var(name)
        elif not isinstance(val, Poly):
            val = target.constant(val)
        images.append(val)
    total = target.zero()
    for e, c in f.terms.items():
        term = target.constant(c)
        for image, p in zip(images, e):
            if p:
                term = term * image**p
        total = total + term
    return total


@settings(max_examples=60, deadline=None)
@given(
    term_dicts(),
    st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)), coeffs(), max_size=3),
    st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)), coeffs(), max_size=3),
    coeffs(),
    term_dicts(),
)
def test_horner_substitute_matches_per_term_loop(ft, at, bt, c, gt):
    # exponents up to 3, rational coefficients, and the zero polynomial when
    # a term dict is empty
    sreg = VarRegistry(["s", "t"])
    f = Poly(REG, ft)
    a, b = Poly(sreg, at), Poly(sreg, bt)
    for assignment in (
        {"x": a, "y": b, "z": c},  # a rational constant
        {0: a, 1: a, 2: b},
        {"x": c, "y": c, "z": c},  # into the source registry
        {"y": Poly(REG, gt)},  # x and z passed through
        {},
    ):
        got = f.substitute(assignment)
        assert got == per_term_substitute(f, assignment)
        assert all(type(v) is int for v in got._ints.values())


def test_horner_substitute_of_universal_adjoints_matches_per_term_loop():
    for dim, sizes in ((2, range(3, 10)), (3, range(4, 10)), (4, range(6, 8))):
        for k in sizes:
            p = random_polytope(random.Random(k), dim, k)
            ua = universal_adjoint(p).poly
            areg = affine_registry(dim)
            assignment = {
                f"x{i}": areg.linear_form(f.normal, f.offset) for i, f in enumerate(p.facets)
            }
            assert ua.substitute(assignment) == per_term_substitute(ua, assignment)


def test_substitute_needs_images_only_for_variables_that_occur():
    sreg = VarRegistry(["s"])
    s = sreg.var("s")
    x, y, _ = REG.variables()
    assert REG.zero().substitute({"x": s}) == sreg.zero()
    assert (3 * x * x + 1).substitute({"x": s}) == 3 * s * s + 1
    assert REG.constant(Fraction(2, 3)).substitute({"x": s}) == sreg.constant(Fraction(2, 3))
    with pytest.raises(ValueError, match="'y'"):
        (x * y).substitute({"x": s})
    for key in ("w", 3, -1):
        with pytest.raises(ValueError, match=repr(key)):
            x.substitute({key: s})


def test_equal_polynomials_built_by_different_routes_hash_alike():
    x = REG.var("x")
    e = (1, 0, 0)
    routes = [
        -1 * x,
        -x,
        x * -1,
        x * Fraction(-1),
        Poly(REG, {e: -1}),
        Poly(REG, {e: Fraction(-1)}),
        Poly(REG, {e: "-1"}),
        Poly.from_json({"vars": ["x", "y", "z"], "terms": [{"exps": [1, 0, 0], "coeff": "-1"}]}),
        x - 2 * x,
        0 - x,
        REG.zero() - x,
        REG.constant(-1) * x,
        (x * Fraction(-3, 7)) * Fraction(7, 3),
        (x + REG.var("y")) - (REG.var("y") + 2 * x),
        x.substitute({"x": -x}),
        exact_divide(-x * x, x),
    ]
    for p in routes:
        assert p == routes[0] and hash(p) == hash(routes[0])
        assert p.terms == {e: Fraction(-1)} and p.content() == 1
    zeros = [REG.zero(), x - x, x * 0, 0 * x, REG.zero() * Fraction(-2, 3), -REG.zero(), Poly(REG, {e: 0})]
    for p in zeros:
        assert p == REG.zero() and hash(p) == hash(REG.zero()) and p.content() == 1


@settings(max_examples=60, deadline=None)
@given(term_dicts(), term_dicts(), coeffs())
def test_equal_polynomials_hash_alike(ft, gt, c):
    f, g = Poly(REG, ft), Poly(REG, gt)
    same = [
        Poly(REG, dict(f.terms)),
        Poly.from_json(f.to_json(), REG),
        f + g - g,
        -(-f),
        (f * -1) * -1,
        (-1 * f) * -1,
        g + f - g,
    ]
    if c != 0:
        same += [f * c * (1 / c), (f * c) * (1 / c), f * -c * (-1 / c)]
    for p in same:
        assert p == f and hash(p) == hash(f) and p.terms == f.terms


def test_terms_are_read_only_and_validation_is_unchanged():
    f = REG.var("x") * Fraction(1, 2)
    with pytest.raises(TypeError):
        f.terms[(1, 0, 0)] = Fraction(1)
    assert f.terms == {(1, 0, 0): Fraction(1, 2)}
    with pytest.raises(TypeError):
        Poly(REG, {(1, 0, 0): 0.5})
    with pytest.raises(ValueError):
        Poly(REG, {(1, 0): 1})
    with pytest.raises(ValueError):
        Poly(REG, {(-1, 0, 0): 1})
    # a zero coefficient is dropped before its exponents are looked at
    assert Poly(REG, {(1, 0): 0}).is_zero()
    with pytest.raises(ValueError):
        Poly.from_json({"vars": ["x", "y", "z"], "terms": [{"exps": [1, 0, 0], "coeff": 0.5}]})


@pytest.mark.parametrize(
    "value",
    [10**5000 + 7, -(10**4400), Fraction(3, 10**4301 + 1), Fraction(-(10**6000), 7)],
    ids=["int", "negative", "denominator", "numerator"],  # repr fails past the limit
)
def test_rationals_round_trip_past_the_str_digit_limit(value):
    text = format_fraction(value)
    assert parse_rational(text) == value
    if value.denominator == 1:
        assert parse_int(text) == value
    assert parse_rational(f" {text} ") == value
    poly = Poly(REG, {(1, 0, 0): value, (0, 0, 0): 1})
    assert Poly.from_json(poly.to_json()) == poly


@pytest.mark.parametrize(
    "text",
    ["1e5" + "0" * 4400, "1." + "1" * 4400, "0x" + "1" * 4400, "1" * 4400 + "/ 3"],
    ids=["exponent", "decimal", "hex", "inner-space"],
)
def test_long_non_integer_strings_are_rejected(text):
    with pytest.raises(ValueError):
        parse_rational(text)
    with pytest.raises(ValueError):
        parse_int(text)
    with pytest.raises(ValueError):
        parse_int("1e5")


def test_long_zero_denominator_is_rejected():
    with pytest.raises(ValueError, match="zero denominator"):
        parse_rational("1" * 4400 + "/0")


def test_poly_from_json_names_a_missing_field():
    with pytest.raises(ValueError, match="^polynomial has no vars$"):
        Poly.from_json({"terms": []})
    with pytest.raises(ValueError, match="^polynomial has no terms$"):
        Poly.from_json({"vars": ["x"]})
    with pytest.raises(ValueError, match="^term has no coeff$"):
        Poly.from_json({"vars": ["x"], "terms": [{"exps": [1]}]})
