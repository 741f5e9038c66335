"""Associahedron universal adjoints, AV-representations, obstructions."""

import itertools
import random
from fractions import Fraction
from math import comb

import pytest

from polyadjoint.adjoint import universal_adjoint
from polyadjoint.assoc import (
    SNAKE_HEXAGON,
    Triangulation,
    abhy_polytope,
    affine_factor_obstruction,
    assoc_registry,
    crossing,
    derivative_by_vertex,
    diagonal_name,
    diagonals,
    enumerate_triangulations,
    is_av_representation,
    multiaffine_delta_irreducible,
    obstruction_report,
    rayleigh_difference,
    snake_classification,
    strip_monomial_content,
    universal_adjoint_assoc,
)
from polyadjoint.fixtures import get_fixture
from polyadjoint.polyring import VarRegistry, equal_up_to_scalar, exact_divide


def catalan(k):
    return comb(2 * k, k) // (k + 1)


def test_diagonal_counts():
    for n in range(4, 9):
        assert len(diagonals(n)) == n * (n - 3) // 2


def test_triangulation_counts_catalan():
    for n in range(4, 9):
        ts = enumerate_triangulations(n)
        assert len(ts) == catalan(n - 2)
        assert len(set(t.diagonals for t in ts)) == len(ts)


def _rec_triangulations(n):
    """Oracle: the root-triangle recursion re-run on every sub-polygon,
    one diagonal set per triangulation."""

    def rec(vertices):
        if len(vertices) <= 2:
            return [frozenset()]
        first, last = vertices[0], vertices[-1]
        out = []
        for k in range(1, len(vertices) - 1):
            mid = vertices[k]
            left = rec(vertices[: k + 1])
            right = rec(vertices[k:])
            new = set()
            for v in (first, last):
                lo, hi = min(v, mid), max(v, mid)
                if 2 <= hi - lo <= n - 2:
                    new.add((lo, hi))
            for l in left:
                for r in right:
                    out.append(frozenset(new) | l | r)
        return out

    return rec(list(range(1, n + 1)))


def _per_triangulation_adjoint(n, registry):
    """Oracle: one exponent vector per triangulation, with a 1 at the
    registry index of every diagonal it omits."""
    terms = {}
    for t in _rec_triangulations(n):
        exps = [0] * len(registry)
        for d in sorted(diagonals(n)):
            if d not in t:
                exps[registry.index(diagonal_name(d))] = 1
        exps = tuple(exps)
        terms[exps] = terms.get(exps, 0) + 1
    return terms


def _assert_matches_oracle(n, registry):
    adj = universal_adjoint_assoc(n, registry)
    assert adj.registry == registry
    assert adj._ints == _per_triangulation_adjoint(n, registry)
    assert adj.content() == 1


def test_enumeration_matches_recursion_oracle_in_order():
    # the order fixes which hexagon triangulation snake_classification
    # reports first, hence the bytes of assoc-obstruct
    for n in range(3, 11):
        ts = enumerate_triangulations(n)
        assert [t.diagonals for t in ts] == _rec_triangulations(n)
        assert all(t.n == n for t in ts)


def test_adjoint_matches_per_triangulation_oracle():
    for n in range(4, 12):
        _assert_matches_oracle(n, assoc_registry(n))


def test_adjoint_matches_oracle_on_extended_and_reordered_registries():
    fixture_reg = get_fixture("assoc-n6")["registry"]
    for n in (5, 6):
        _assert_matches_oracle(n, fixture_reg)
        _assert_matches_oracle(n, assoc_registry(7))
    reversed7 = VarRegistry(reversed(assoc_registry(7).names))
    shuffled = list(assoc_registry(8).names) + ["T", "U"]
    random.Random(4).shuffle(shuffled)
    for n in (4, 5, 6, 7):
        _assert_matches_oracle(n, reversed7)
        _assert_matches_oracle(n, VarRegistry(shuffled))


def test_adjoint_rejects_registry_missing_a_diagonal():
    with pytest.raises(ValueError, match=r"no variable X15 for diagonal \(1, 5\)"):
        universal_adjoint_assoc(6, assoc_registry(5))
    reg = VarRegistry(name for name in assoc_registry(7).names if name != "X47")
    with pytest.raises(ValueError, match=r"no variable X47 for diagonal \(4, 7\)"):
        universal_adjoint_assoc(7, reg)


def test_triangulation_validation():
    with pytest.raises(ValueError):
        Triangulation(6, frozenset({(1, 3)}))  # wrong count
    with pytest.raises(ValueError):
        Triangulation(6, frozenset({(1, 3), (2, 4), (3, 5)}))  # crossings
    with pytest.raises(ValueError):
        Triangulation(6, frozenset({(1, 2), (1, 3), (1, 4)}))  # edge, not diagonal


def test_crossing_predicate():
    assert crossing((1, 3), (2, 4))
    assert not crossing((1, 3), (3, 5))
    assert not crossing((1, 3), (1, 4))


def test_adjoint_term_structure():
    for n in range(5, 11):
        adj = universal_adjoint_assoc(n)
        assert len(adj.terms) == catalan(n - 2)
        d = len(diagonals(n))
        # each term is squarefree of degree d - (n-3), coefficient 1
        for e, c in adj.terms.items():
            assert c == 1
            assert set(e) <= {0, 1}
            assert sum(e) == d - (n - 3)
        assert adj.is_multi_affine()


def test_adjoint_matches_reference_transcriptions():
    fx = get_fixture("assoc-n6")
    reg = fx["registry"]
    assert universal_adjoint_assoc(6, reg) == fx["reference_adj3"]
    assert universal_adjoint_assoc(5).rename(reg) == fx["reference_adj2"]


def test_abhy_realization_oracle():
    # the rational realization has unimodular vertex cones, so its
    # geometric universal adjoint equals the combinatorial one exactly
    for n in (5, 6):
        p = abhy_polytope(n)
        geometric = universal_adjoint(p).poly
        combinatorial = universal_adjoint_assoc(n)
        # facet i of the realization corresponds to sorted diagonal i, so
        # the exponent dictionaries must agree exactly (all weights are 1)
        assert geometric.terms == combinatorial.terms


def test_av_representation_certificates():
    fx = get_fixture("assoc-n6")
    reg = fx["registry"]
    adj3 = universal_adjoint_assoc(6, reg)
    cert = is_av_representation(fx["av_matrix"], adj3, fx["primary_vars"])
    assert cert is not None
    assert cert.scalar == 1
    assert cert.secondary_vars == sorted(fx["secondary_vars"])
    # leading 3x3 block represents the pentagon adjoint
    adj2 = universal_adjoint_assoc(5).rename(reg)
    block = fx["av_matrix"].leading_principal(3)
    cert3 = is_av_representation(block, adj2, fx["primary_vars"][:3])
    assert cert3 is not None


def test_av_representation_trivial_diagonal():
    # Adj_1 of the square: X13 + X24 = det([X13 + X24])? no --
    # the 1x1 AV-representation of Adj_1 of the pentagon's sub-structure:
    reg = assoc_registry(4)
    adj1 = universal_adjoint_assoc(4, reg)
    # det([X13 + X24]) with primary X13 and secondary X24
    from polyadjoint.polyring import PolyMatrix

    m = PolyMatrix([[reg.var("X13") + reg.var("X24")]])
    cert = is_av_representation(m, adj1, ["X13"])
    assert cert is not None and cert.secondary_vars == ["X24"]


def test_av_representation_rejects_primary_off_diagonal():
    fx = get_fixture("assoc-n6")
    reg = fx["registry"]
    adj3 = universal_adjoint_assoc(6, reg)
    bad = fx["av_matrix"].entries
    bad = [row[:] for row in bad]
    bad[0][1] = reg.var("X13")  # a primary variable off the diagonal
    from polyadjoint.polyring import PolyMatrix

    assert is_av_representation(PolyMatrix(bad), adj3, fx["primary_vars"]) is None


def test_rayleigh_difference_vanishes_on_products():
    reg = assoc_registry(6)
    x, y = reg.var("X13"), reg.var("X24")
    f = (x + reg.var("X35")) * (y + reg.var("X46"))
    assert rayleigh_difference(f, "X13", "X24").is_zero()
    with pytest.raises(ValueError):
        rayleigh_difference(f, "X13", "X13")


def test_strip_monomial_content():
    reg = assoc_registry(5)
    x, y, z = reg.var("X13"), reg.var("X14"), reg.var("X24")
    f = x * x * y * (y + z) * 3
    mono, cof = strip_monomial_content(f)
    assert mono * cof == f
    assert mono == x * x * y
    assert cof == (y + z) * 3


def test_strip_monomial_content_matches_exact_division():
    # oracle: the general exact division by the content monomial
    reg = assoc_registry(7)
    x, y, z = reg.var("X13"), reg.var("X14"), reg.var("X24")
    cases = [
        x * x * y * (y + z) * 3,
        (x * y - z * Fraction(2, 3)) * z * Fraction(-5, 7),
        reg.constant(Fraction(-4, 9)),
        y + z,
    ]
    adj4 = universal_adjoint_assoc(7, reg)
    for a, b in itertools.combinations(("X13", "X24", "X35", "X57", "X16"), 2):
        delta = rayleigh_difference(adj4, a, b)
        if not delta.is_zero():
            cases.append(delta)
    assert len(cases) > 10
    for f in cases:
        mono, cof = strip_monomial_content(f)
        oracle = exact_divide(f, mono)
        assert cof._ints == oracle._ints and cof.content() == oracle.content()
        assert mono * cof == f
        assert mono.content() == 1 and list(mono._ints.values()) == [1]
        # the cofactor's terms have no common variable
        assert not any(all(e[i] for e in cof.monomials()) for i in range(len(reg)))


def test_obstruction_inconclusive_on_products():
    reg = assoc_registry(5)
    x, y, v = reg.var("X13"), reg.var("X14"), reg.var("X24")
    verdict = affine_factor_obstruction((x + v) * (y + v), "X24")
    assert verdict.status == "INCONCLUSIVE"
    # v^2 + 1: discriminant -4 is a square up to (complex) scalar
    verdict = affine_factor_obstruction(v * v + 1, "X24")
    assert verdict.status == "INCONCLUSIVE"


def test_delta_identities_match_transcriptions():
    fx = get_fixture("assoc-n6")
    reg = fx["registry"]
    adj3 = universal_adjoint_assoc(6, reg)
    delta = rayleigh_difference(adj3, "X13", "X15")
    mono, g = strip_monomial_content(delta)
    expected_mono = reg.one()
    for d in ((1, 4), (2, 4), (2, 5), (2, 6), (3, 6), (4, 6)):
        expected_mono = expected_mono * reg.var(diagonal_name(d))
    assert mono == expected_mono
    assert -g == fx["reference_G"]
    adj2 = universal_adjoint_assoc(5).rename(reg)
    delta2 = rayleigh_difference(adj2, "X13", "X14")
    assert delta2 == fx["reference_delta_adj2"]


def test_delta_irreducibility():
    reg = assoc_registry(6)
    x, y, z, w = (reg.var(v) for v in ("X13", "X24", "X35", "X46"))
    assert not multiaffine_delta_irreducible((x + y) * (z + w))
    adj2 = universal_adjoint_assoc(5).rename(reg)
    assert multiaffine_delta_irreducible(adj2)
    assert _bipartition_oracle(adj2)
    fx = get_fixture("assoc-n6")
    g2 = fx["reference_G2"]
    assert multiaffine_delta_irreducible(g2)
    assert _bipartition_oracle(g2)
    assert not _bipartition_oracle((x + y) * (z + w))


def _bipartition_oracle(f):
    """Brute-force oracle: no variable bipartition (S, T) admits f = g*h
    with g on S and h on T (checked by coefficient bilinearity)."""
    variables = sorted(f.variables_present())
    if len(variables) <= 1:
        return True
    for r in range(1, len(variables) // 2 + 1):
        for s in itertools.combinations(variables, r):
            sset = set(s)
            # f splits as g(S)*h(T) iff the coefficient matrix indexed by
            # (S-part, T-part) of each monomial has rank 1
            cells = {}
            for e, c in f.terms.items():
                es = tuple(e[i] if i in sset else 0 for i in range(len(e)))
                et = tuple(e[i] if i not in sset else 0 for i in range(len(e)))
                cells[(es, et)] = c
            rows = sorted({k[0] for k in cells})
            cols = sorted({k[1] for k in cells})
            mat = [
                [cells.get((a, b), Fraction(0)) for b in cols] for a in rows
            ]
            from polyadjoint import linalg

            if linalg.rank(mat) == 1:
                return False
    return True


def test_derivative_reduction():
    for n in (5, 6, 7):
        reduced = derivative_by_vertex(n)
        target = universal_adjoint_assoc(n - 1).rename(reduced.registry)
        assert reduced == target


def test_snake_classification():
    report = snake_classification()
    assert len(report) == 14
    kinds = [r["type"] for r in report]
    assert kinds.count("snake") == 6
    assert kinds.count("excluded") == 8
    assert all("witness" in r for r in report if r["type"] == "excluded")
    snake_sets = [frozenset(map(tuple, r["secondary"])) for r in report if r["type"] == "snake"]
    assert SNAKE_HEXAGON in snake_sets


def test_snake_classification_witnesses_match_uncached_search():
    # the search without memoization: a fresh Rayleigh difference and
    # obstruction test for every candidate, pair and variable
    n = 6
    adj3 = universal_adjoint_assoc(n, assoc_registry(n))
    expected = {}
    for t in enumerate_triangulations(n):
        primary = [d for d in sorted(diagonals(n)) if d not in t.diagonals]
        expected[frozenset(t.diagonals)] = None
        for di, dj in itertools.combinations(primary, 2):
            delta = rayleigh_difference(adj3, diagonal_name(di), diagonal_name(dj))
            if delta.is_zero():
                continue
            _, g = strip_monomial_content(delta)
            names = [diagonal_name(dv) for dv in primary]
            obstructed = [
                v for v in names
                if g.degree_in(v) == 2 and affine_factor_obstruction(g, v).status == "OBSTRUCTED"
            ]
            hit = obstructed[0] if obstructed else None
            if hit:
                expected[frozenset(t.diagonals)] = {"pair": [list(di), list(dj)], "variable": hit}
                break
    for r in snake_classification():
        found = expected[frozenset(map(tuple, r["secondary"]))]
        if r["type"] == "excluded":
            assert r["witness"] == found
        else:
            assert r["type"] == "snake" and found is None


def test_obstruction_report_chain():
    report = obstruction_report()
    assert report["cube_reduction_identity"]
    assert report["rayleigh_monomial_matches"]
    assert report["G2_delta_irreducible"]
    assert report["verdict"].status == "OBSTRUCTED"
    assert report["verdict"].variable == "X35"
    assert report["conclusion"].startswith("no AV-representation")
    fx = get_fixture("assoc-n6")
    # G and G2 agree with the hexagon-registry transcriptions term by term
    g7 = report["G"]
    g6 = fx["reference_G"]
    assert len(g7.terms) == len(g6.terms) == 19
    g27 = report["G2"]
    g26 = fx["reference_G2"]
    assert len(g27.terms) == len(g26.terms)
    for small, big in ((g6, g7), (g26, g27)):
        renamed = small.rename(big.registry)
        assert renamed == big
