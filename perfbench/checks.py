"""Output checks, run outside the timed section.

Each check reads the op's JSON report and recomputes what it claims with
plain integer and Fraction arithmetic written here, not with the library,
so a defect in a shared helper cannot make a wrong output pass.  A check
returns None when the output is right and a one-line reason otherwise.
Checks of ops on the same input share a ``ctx`` dict: an earlier op's check
stores what a later op's check compares against.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, lcm


def catalan(m):
    return comb(2 * m, m) // (m + 1)


def parse_poly(data):
    """(variable names, {exponent tuple: Fraction}) of a serialized Poly."""
    terms = {}
    for t in data["terms"]:
        exps = tuple(t["exps"])
        if exps in terms:
            raise ValueError(f"repeated monomial {exps}")
        terms[exps] = Fraction(t["coeff"])
    return list(data["vars"]), terms


def degree(terms):
    return max((sum(e) for e in terms), default=-1)


def scalar_ratio(f, g):
    """c with f = c * g for non-zero term dicts, else None."""
    if not f or set(f) != set(g):
        return None
    ratios = {f[e] / g[e] for e in f}
    return ratios.pop() if len(ratios) == 1 else None


def integer_vector(v):
    """An integer multiple of a rational vector (the same projective point)."""
    v = [Fraction(x) for x in v]
    den = lcm(*(x.denominator for x in v))
    return [int(x * den) for x in v]


def integer_terms(terms):
    """A non-zero integer multiple of a polynomial; it has the same zeros
    and evaluates in integer arithmetic."""
    den = lcm(*(c.denominator for c in terms.values())) if terms else 1
    return {e: int(c * den) for e, c in terms.items()}


def evaluate(terms, point):
    """Exact value of a polynomial (term dict) at a point."""
    d = degree(terms)
    powers = [[1] * (d + 1) for _ in point]
    for i, x in enumerate(point):
        for p in range(1, d + 1):
            powers[i][p] = powers[i][p - 1] * x
    total = 0
    for e, c in terms.items():
        val = c
        for i, p in enumerate(e):
            if p:
                val *= powers[i][p]
        total += val
    return total


def derivative(terms, i):
    out = {}
    for e, c in terms.items():
        if e[i]:
            ne = list(e)
            ne[i] -= 1
            out[tuple(ne)] = c * e[i]
    return out


def _status(report):
    if report.get("status") != "ok":
        return f"status {report.get('status')!r}: {report.get('error')}"
    return None


def _line_points(basis, count):
    """count distinct points p + t*q of the line spanned by basis (p, q)."""
    p, q = (integer_vector(b) for b in basis)
    return [[a + t * b for a, b in zip(p, q)] for t in range(count)]


# -- polygon ------------------------------------------------------------------


def polygon_adjoint(report, forms, ctx):
    """adjoint --input on an n-gon: degree n-3, and the homogeneous form
    vanishes at the n(n-3)/2 residual points, where non-adjacent edge lines
    meet.  Those points fix the adjoint up to scalar."""
    err = _status(report)
    if err:
        return err
    n = len(forms)
    _, affine = parse_poly(report["affine"])
    _, hom = parse_poly(report["homogeneous"])
    hom = integer_terms(hom)
    if report["degree"] != n - 3 or degree(affine) != n - 3 or degree(hom) != n - 3:
        return f"adjoint degree {report['degree']}/{degree(affine)}, expected {n - 3}"
    for i, j in itertools.combinations(range(n), 2):
        if j - i == 1 or (i == 0 and j == n - 1):
            continue
        a, b = forms[i], forms[j]
        point = (
            a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0],
        )
        if evaluate(hom, point) != 0:
            return f"adjoint does not vanish where edges {i} and {j} meet"
    ctx["affine"] = affine
    return None


def polygon_detrep(report, forms, ctx):
    """detrep2d --input on an n-gon: symmetric, tridiagonal, definite at an
    interior point, and its edge-form adjoint equals the universal-adjoint
    result of the adjoint op on the same polygon up to a scalar."""
    err = _status(report)
    if err:
        return err
    n = len(forms)
    for flag in ("symmetric", "tridiagonal", "definite_at_interior_point"):
        if report.get(flag) is not True:
            return f"{flag} is {report.get(flag)!r}"
    if report["matrix"]["size"] != n - 3:
        return f"matrix size {report['matrix']['size']}, expected {n - 3}"
    _, edge_form = parse_poly(report["adjoint"])
    if degree(edge_form) != n - 3:
        return f"edge-form adjoint degree {degree(edge_form)}, expected {n - 3}"
    if "affine" not in ctx:
        return "no adjoint output of the same polygon to compare with"
    if scalar_ratio(edge_form, ctx["affine"]) is None:
        return "edge-form and universal adjoints differ beyond a scalar"
    return None


def heptagon_verify(report):
    """verify-detrep --fixture heptagon7 --matrix builtin: the printed 4x4
    matrix has determinant exactly the scaled edge-form adjoint."""
    err = _status(report)
    if err:
        return err
    if report["scalar"] != "1" or report["matrix"]["size"] != 4:
        return f"scalar {report['scalar']!r}, size {report['matrix']['size']}"
    return None


# -- 3-polytopes ----------------------------------------------------------------


def polytope_residual(report, forms, ctx):
    """residual --input: C(k-3, 2) residual lines, and every flat's basis is
    annihilated by the forms of its facets."""
    err = _status(report)
    if err:
        return err
    k = len(forms)
    if report["residual_lines"] != comb(k - 3, 2):
        return f"{report['residual_lines']} residual lines, expected {comb(k - 3, 2)}"
    flats = []
    for flat in report["flats"]:
        basis = [integer_vector(b) for b in flat["basis"]]
        if len(flat["facets"]) != flat["codim"] or len(basis) != 4 - flat["codim"]:
            return f"flat {flat['facets']} has codim {flat['codim']}, basis {len(basis)}"
        for i in flat["facets"]:
            if any(sum(a * b for a, b in zip(forms[i], v)) for v in basis):
                return f"flat {flat['facets']} basis not on facet {i}"
        flats.append((flat["facets"], basis))
    if sum(1 for f, _ in flats if len(f) == 2) != report["residual_lines"]:
        return "residual line count disagrees with the flat list"
    ctx["flats"] = flats
    return None


def polytope_adjoint(report, forms, ctx):
    """adjoint --input on a k-facet 3-polytope: degree k-4, and the
    homogeneous form vanishes at every residual point and on every residual
    line of the residual op's report (checked at deg+1 points per line)."""
    err = _status(report)
    if err:
        return err
    k = len(forms)
    _, hom = parse_poly(report["homogeneous"])
    hom = integer_terms(hom)
    d = degree(hom)
    if report["degree"] != k - 4 or d != k - 4 or any(sum(e) != d for e in hom):
        return f"adjoint degree {report['degree']}/{d}, expected homogeneous {k - 4}"
    if "flats" not in ctx:
        return "no residual output of the same polytope to check against"
    for facets, basis in ctx["flats"]:
        points = basis if len(basis) == 1 else _line_points(basis, d + 1)
        if any(evaluate(hom, p) != 0 for p in points):
            return f"adjoint does not vanish on the residual flat {facets}"
    ctx["adjoint"] = hom
    return None


def polytope_singularity(report, forms, ctx):
    """singularity --input: a reported point lies on three residual lines
    and the adjoint's gradient vanishes there."""
    err = _status(report)
    if err:
        return err
    if not isinstance(report.get("found"), bool):
        return "no found flag"
    if not report["found"]:
        return None
    if "flats" not in ctx or "adjoint" not in ctx:
        return "no residual/adjoint output of the same polytope to check against"
    point = integer_vector(report["point"])
    on = sum(
        1
        for facets, _ in ctx["flats"]
        if len(facets) == 2
        and all(sum(a * b for a, b in zip(forms[i], point)) == 0 for i in facets)
    )
    if on < 3:
        return f"singular point lies on {on} residual lines"
    hom = ctx["adjoint"]
    if any(evaluate(derivative(hom, i), point) != 0 for i in range(4)):
        return "adjoint gradient non-zero at the reported point"
    return None


def octa8_nice(report, ctx):
    """nice3d --fixture octa8: six lines, nice for degree 4."""
    err = _status(report)
    if err:
        return err
    cert = report["certificate"]
    if report["degree"] != 4 or report["lines"] != 6 or len(cert["lines"]) != 6:
        return f"degree {report['degree']}, {report['lines']} lines"
    if (report["h0_below"], report["h0_at"]) != (0, 4):
        return f"h0 ({report['h0_below']}, {report['h0_at']}), expected (0, 4)"
    ctx["nice_lines"] = [line["points"] for line in cert["lines"]]
    return None


def octa8_adjoint(report, ctx):
    """adjoint --fixture octa8: a quartic vanishing on the six nice lines
    (residual lines of octa8) of the preceding nice3d op."""
    err = _status(report)
    if err:
        return err
    _, hom = parse_poly(report["homogeneous"])
    hom = integer_terms(hom)
    if report["degree"] != 4 or degree(hom) != 4:
        return f"degree {report['degree']}, expected 4"
    if "nice_lines" not in ctx:
        return "no nice3d output to check against"
    for basis in ctx["nice_lines"]:
        if any(evaluate(hom, p) != 0 for p in _line_points(basis, 5)):
            return "octa8 adjoint does not vanish on a nice line"
    return None


def quadric_residual(report):
    """residual --fixture quadric-dim4: seven residual lines, no planes."""
    err = _status(report)
    if err:
        return err
    if (report["residual_lines"], report["residual_planes"]) != (7, 0):
        return f"{report['residual_lines']} lines, {report['residual_planes']} planes"
    return None


# -- associahedra ---------------------------------------------------------------


def _diagonal(name):
    body = name[1:]
    if "_" in body:
        i, j = body.split("_")
        return int(i), int(j)
    return int(body[0]), int(body[1:])


def _crossing(d1, d2):
    (a, b), (c, d) = d1, d2
    return a < c < b < d or c < a < d < b


def assoc_adjoint(report, n):
    """assoc-adjoint --degree n: Catalan(n-2) terms with coefficient 1, each
    the product of the diagonals outside one triangulation.  The omitted
    diagonals of every term are n-3 pairwise non-crossing diagonals, and
    the terms are distinct, so they are exactly the triangulations."""
    err = _status(report)
    if err:
        return err
    expected = catalan(n - 2)
    names, terms = parse_poly(report["polynomial"])
    if report["terms"] != expected or len(terms) != expected:
        return f"{report['terms']}/{len(terms)} terms, expected {expected}"
    diags = [_diagonal(v) for v in names]
    if len(diags) != n * (n - 3) // 2:
        return f"{len(diags)} variables, expected {n * (n - 3) // 2}"
    for e, c in terms.items():
        if c != 1 or any(p > 1 for p in e):
            return f"term {e} is not a squarefree monomial with coefficient 1"
        inside = [d for d, p in zip(diags, e) if p == 0]
        if len(inside) != n - 3 or any(
            _crossing(a, b) for a, b in itertools.combinations(inside, 2)
        ):
            return f"term {e} does not omit a triangulation"
    return None


def assoc_verify_av(report):
    """assoc-verify-av: the fixture's 6x6 matrix and its 3x3 block are
    AV-representations with scalar 1."""
    err = _status(report)
    if err:
        return err
    if (report["scalar"], report["block_scalar"]) != ("1", "1"):
        return f"scalars {report['scalar']!r}, {report['block_scalar']!r}"
    return None


def assoc_obstruct(report):
    """assoc-obstruct: the certificate chain ends OBSTRUCTED."""
    err = _status(report)
    if err:
        return err
    if report["obstruction"]["status"] != "OBSTRUCTED":
        return f"obstruction status {report['obstruction']['status']!r}"
    if not report["conclusion"].startswith("no AV-representation"):
        return f"conclusion {report['conclusion']!r}"
    return None


def realization(result, n):
    """ABHY realization: the geometric universal adjoint of abhy_polytope(n)
    has the same term dict as the combinatorial Adj_{n-3}, with Catalan(n-2)
    terms."""
    geometric, combinatorial = result
    if len(combinatorial) != catalan(n - 2):
        return f"{len(combinatorial)} terms, expected {catalan(n - 2)}"
    if geometric != combinatorial:
        return "geometric and combinatorial universal adjoints differ"
    return None
