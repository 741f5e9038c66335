"""Built-in example fixtures used by the CLI and the regression tests.

Each fixture bundles a reference input (polytope, arrangement, or
polynomial family) with independently printed reference values: adjoint
polynomials, determinantal representations, and residual-line labels.  All
data is exact rational.
"""

from __future__ import annotations

from fractions import Fraction

from .adjoint import affine_registry, homogeneous_registry
from .assoc import assoc_registry, diagonal_name
from .polyring import PolyMatrix
from .polytope import HPolytope

F = Fraction


def heptagon7():
    """Heptagon with a quartic adjoint and a printed 4x4 tridiagonal
    determinantal representation.

    `det_vs_formula` is the exact scalar relating the determinant of the
    reference matrix to the edge-form polygon adjoint; `det_vs_reference`
    relates it to the canonical (content-one) quartic below.
    """
    facets = [
        ((-1, 1), 0),
        ((-2, -1), 9),
        ((1, -3), 20),
        ((1, -1), 8),
        ((1, 0), 3),
        ((1, 1), 0),
        ((0, 1), -1),
    ]
    polytope = HPolytope(2, facets, name="heptagon7")
    reg = affine_registry(2)
    x1, x2 = reg.variables()
    quartic = (
        2 * x1**4 + 2 * x1**3 * x2 - 7 * x1**2 * x2**2 + 6 * x1 * x2**3
        - 3 * x2**4 + 44 * x1**3 - 26 * x1**2 * x2 + 4 * x1 * x2**2
        + 74 * x2**3 + 199 * x1**2 - 824 * x1 * x2 - 47 * x2**2 - 2880 * x2
    )
    zero = reg.zero()
    matrix = PolyMatrix(
        [
            [27 * x1 - 39 * x2 + 316, x1 - x2 + 8, zero, zero],
            [
                x1 - x2 + 8,
                F(3, 49) * x1 - F(5, 147) * x2 + F(20, 49),
                x1 + 3,
                zero,
            ],
            [
                zero,
                x1 + 3,
                F(147, 4) * x1 + F(147, 8) * x2 + F(441, 4),
                x1 + x2,
            ],
            [zero, zero, x1 + x2, F(32, 147) * x2],
        ]
    )
    return {
        "name": "heptagon7",
        "polytope": polytope,
        "reference_quartic": quartic,
        "reference_matrix": matrix,
        "det_vs_reference": F(-16, 49),
        "det_vs_formula": F(8, 49),
    }


def quadric_dim4():
    """Four-dimensional polytope with a smooth quadric adjoint, seven
    residual lines and no residual planes.

    The original facet forms live in homogeneous coordinates x0..x4; the
    polytope below is the bounded affine chart obtained by the coordinate
    change x0 -> x0 - 3x1 - 3x2 - 2x3 (recorded in `chart_substitution`
    as the inverse map applied to pull computed adjoints back).
    """
    facets = [
        ((-3, -3, -2, 0), 1),
        ((1, 0, 0, 0), 0),
        ((0, 1, 0, 0), 0),
        ((0, 0, 1, 0), 0),
        ((0, 0, 0, 1), 0),
        ((-3, -5, -5, -3), 2),
        ((5, 7, 6, 2), -2),
    ]
    polytope = HPolytope(4, facets, name="quadric-dim4")
    hreg = homogeneous_registry(4)
    x0, x1, x2, x3, x4 = hreg.variables()
    quadric = (
        2 * x0 * x2 + 3 * x1 * x2 + x2**2 + 2 * x0 * x3 + 5 * x1 * x3
        + 2 * x2 * x3 + 3 * x1 * x4 + 2 * x2 * x4
    )
    original_forms = [
        (1, 0, 0, 0, 0),
        (0, 1, 0, 0, 0),
        (0, 0, 1, 0, 0),
        (0, 0, 0, 1, 0),
        (0, 0, 0, 0, 1),
        (2, 3, 1, -1, -3),
        (-2, -1, 1, 2, 2),
    ]
    return {
        "name": "quadric-dim4",
        "polytope": polytope,
        "reference_quadric": quadric,
        "original_forms": original_forms,
        "chart_substitution": {"x0": x0 + 3 * x1 + 3 * x2 + 2 * x3},
    }


def octa8():
    """Simple 8-facet 3-polytope with a quartic adjoint, a 6-line residual
    subarrangement nice for degree 4, and a printed 4x4 representation."""
    facets = [
        ((1, -3, 2), 1),
        ((1, 3, F(1, 5)), 1),
        ((3, -1, 0), 1),
        ((-1, -3, F(3, 2)), 1),
        ((-3, -1, -F(2, 3)), 1),
        ((-1, 3, -F(1, 2)), 1),
        ((3, 1, -1), 1),
        ((-3, 1, -F(3, 2)), 1),
    ]
    polytope = HPolytope(3, facets, name="octa8")
    hreg = homogeneous_registry(3)
    x0, x1, x2, x3 = hreg.variables()
    matrix = PolyMatrix(
        [
            [
                x0 + F(3, 4) * x2 + F(59, 160) * x3,
                F(3, 4) * x2 - F(91, 160) * x3,
                -F(9, 4) * x2 + F(3, 160) * x3,
                -F(3003, 1129) * x1 - F(38685, 4516) * x2 + F(473893, 180640) * x3,
            ],
            [
                -x1 + F(11, 6) * x2 - F(283, 240) * x3,
                x0 - F(3, 2) * x2 + F(137, 240) * x3,
                F(3, 2) * x2 - F(137, 80) * x3,
                F(3836, 1129) * x1 + F(13337, 2258) * x2 - F(1452191, 270960) * x3,
            ],
            [
                -F(19, 12) * x2 + F(37, 96) * x3,
                -x1 + F(3, 4) * x2 - F(77, 96) * x3,
                x0 + F(3, 4) * x2 - F(1, 32) * x3,
                -F(5902, 1129) * x1 - F(10645, 4516) * x2 + F(404243, 108384) * x3,
            ],
            [
                F(1, 3) * x2 - F(1, 15) * x3,
                F(7, 120) * x3,
                -x1 - F(3, 10) * x3,
                x0 - F(668, 1129) * x1 - F(500, 1129) * x2 - F(112141, 135480) * x3,
            ],
        ]
    )
    return {
        "name": "octa8",
        "polytope": polytope,
        "nice_line_pairs": [(0, 4), (0, 5), (0, 7), (1, 7), (2, 7), (1, 4)],
        "reference_matrix": matrix,
        "nice_degree": 4,
    }


def _squarefree(reg, pairs):
    p = reg.one()
    for d in pairs:
        p = p * reg.var(diagonal_name(d))
    return p


def assoc_n6():
    """Hexagon associahedron data: the 14-term degree-six universal
    adjoint, its 6x6 AV-representation with snake secondary variables, the
    pentagon adjoint, and the reference polynomials of the obstruction
    argument (G, its X35^2-coefficient G2, and the pentagon Rayleigh
    difference)."""
    reg = assoc_registry(6)

    def v(i, j):
        return reg.var(diagonal_name((i, j)))

    adj3_terms = [
        [(1, 3), (1, 4), (1, 5), (2, 4), (2, 5), (3, 5)],
        [(1, 4), (1, 5), (2, 4), (2, 5), (2, 6), (3, 5)],
        [(1, 3), (1, 4), (1, 5), (2, 5), (3, 5), (3, 6)],
        [(1, 3), (1, 5), (2, 5), (2, 6), (3, 5), (3, 6)],
        [(1, 5), (2, 4), (2, 5), (2, 6), (3, 5), (3, 6)],
        [(1, 3), (1, 4), (1, 5), (2, 4), (2, 5), (4, 6)],
        [(1, 4), (1, 5), (2, 4), (2, 5), (2, 6), (4, 6)],
        [(1, 3), (1, 4), (1, 5), (2, 4), (3, 6), (4, 6)],
        [(1, 3), (1, 4), (2, 4), (2, 6), (3, 6), (4, 6)],
        [(1, 4), (2, 4), (2, 5), (2, 6), (3, 6), (4, 6)],
        [(1, 3), (1, 4), (1, 5), (3, 5), (3, 6), (4, 6)],
        [(1, 3), (1, 4), (2, 6), (3, 5), (3, 6), (4, 6)],
        [(1, 3), (2, 5), (2, 6), (3, 5), (3, 6), (4, 6)],
        [(2, 4), (2, 5), (2, 6), (3, 5), (3, 6), (4, 6)],
    ]
    adj3 = reg.zero()
    for t in adj3_terms:
        adj3 = adj3 + _squarefree(reg, t)

    adj2_terms = [
        [(1, 3), (1, 4), (2, 4)],
        [(1, 4), (2, 4), (2, 5)],
        [(1, 3), (1, 4), (3, 5)],
        [(1, 3), (2, 5), (3, 5)],
        [(2, 4), (2, 5), (3, 5)],
    ]
    adj2 = reg.zero()
    for t in adj2_terms:
        adj2 = adj2 + _squarefree(reg, t)

    X13, X14, X15 = v(1, 3), v(1, 4), v(1, 5)
    X24, X25, X26 = v(2, 4), v(2, 5), v(2, 6)
    X35, X36, X46 = v(3, 5), v(3, 6), v(4, 6)
    Z = reg.zero()
    matrix = PolyMatrix(
        [
            [X13, X25, X24, X15, Z, X15],
            [-X24, X14 + X25, X24, X15, Z, X15],
            [-X25, X25, X24 + X35, Z, X15, X15],
            [Z, X25, X24, X15 + X26, Z, X15],
            [X25, Z, Z, X25, X36, Z],
            [Z, -X25, Z, -X25, X24, X46],
        ]
    )

    g = (
        X14 * X24 * X25 * X35 - X14 * X24 * X26 * X35
        + X24 * X25 * X35**2 - X14 * X26 * X35**2 - X25 * X26 * X35**2
        + X14 * X25 * X35 * X36 - X24 * X26 * X35 * X36 + X25 * X26 * X35 * X36
        + X25 * X35**2 * X36 - X26 * X35**2 * X36
        + X14 * X24 * X25 * X46 - X14 * X24 * X26 * X46
        + X24 * X25 * X35 * X46 - X14 * X26 * X35 * X46 - X25 * X26 * X35 * X46
        + X14 * X24 * X36 * X46 + X14 * X35 * X36 * X46
        + X24 * X35 * X36 * X46 + X35**2 * X36 * X46
    )
    g2 = (
        X24 * X25 - X14 * X26 - X25 * X26 + X25 * X36 - X26 * X36 + X36 * X46
    )
    delta_adj2 = -X24 * X25 * X35 * (X24 - X25 + X35)
    rayleigh_monomial = X14 * X24 * X25 * X26 * X36 * X46

    return {
        "name": "assoc-n6",
        "registry": reg,
        "reference_adj3": adj3,
        "reference_adj2": adj2,
        "av_matrix": matrix,
        "primary_vars": ["X13", "X14", "X35", "X26", "X36", "X46"],
        "secondary_vars": ["X15", "X24", "X25"],
        "reference_G": g,
        "reference_G2": g2,
        "reference_delta_adj2": delta_adj2,
        "rayleigh_monomial": rayleigh_monomial,
    }


FIXTURES = {
    "heptagon7": heptagon7,
    "quadric-dim4": quadric_dim4,
    "octa8": octa8,
    "assoc-n6": assoc_n6,
}


def get_fixture(name):
    try:
        return FIXTURES[name]()
    except KeyError:
        raise ValueError(
            f"unknown fixture {name!r}; available: {sorted(FIXTURES)}"
        ) from None
