"""Universal adjoints of ABHY associahedra and AV-representations.

The universal adjoint of the (n-3)-dimensional associahedron is the
multi-affine polynomial

    Adj_{n-3} = sum over triangulations T of the n-gon of
                prod over diagonals (i,j) not in T of X_ij.

This module enumerates triangulations, builds these polynomials, realizes
the associahedron as a rational polytope, verifies AV-representations
(primary variables on the diagonal with coefficient one, secondary
variables elsewhere), and implements the Rayleigh-difference factorization
obstruction that rules out AV-representations for n >= 7.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from operator import sub

from .polyring import (
    Poly,
    PolyMatrix,
    VarRegistry,
    _from_ints,
    _make,
    equal_up_to_scalar,
    perfect_square_up_to_scalar,
)
from .polytope import HPolytope


def diagonals(n):
    """Diagonals of the n-gon as pairs (i, j), 1 <= i < j <= n."""
    return [
        (i, j)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        if 2 <= j - i <= n - 2
    ]


def crossing(d1, d2):
    a, b = d1
    c, d = d2
    return (a < c < b < d) or (c < a < d < b)


@dataclass(frozen=True)
class Triangulation:
    n: int
    diagonals: frozenset

    def __post_init__(self):
        diags = set(diagonals(self.n))
        if len(self.diagonals) != self.n - 3:
            raise ValueError("a triangulation of an n-gon has n-3 diagonals")
        for d in self.diagonals:
            if tuple(d) not in diags:
                raise ValueError(f"{d} is not a diagonal of the {self.n}-gon")
        for d1, d2 in itertools.combinations(sorted(self.diagonals), 2):
            if crossing(d1, d2):
                raise ValueError(f"diagonals {d1} and {d2} cross")


def _triangulation_masks(n, bit):
    """Every triangulation of the n-gon as an int mask, the OR of bit[d]
    over its diagonals d, via root-triangle decomposition.

    The sub-polygon on the vertex interval a..b has the edge (a, b)
    completed to a triangle (a, k, b) by every k in between, in increasing
    order; each interval's masks are built once, from the shorter intervals'
    lists.  Edges of the n-gon have no bit.  The count is the Catalan
    number C_{n-2}.
    """
    masks = {(a, a + 1): [0] for a in range(1, n)}
    for length in range(2, n):
        for a in range(1, n + 1 - length):
            b = a + length
            out = []
            for k in range(a + 1, b):
                new = bit.get((a, k), 0) | bit.get((k, b), 0)
                right = masks[k, b]
                for l in masks[a, k]:
                    l |= new
                    out.extend([l | r for r in right])
            masks[a, b] = out
    return masks[1, n]


def enumerate_triangulations(n):
    """All triangulations of the n-gon, via root-triangle decomposition
    (`_triangulation_masks`, bit i for the i-th diagonal of `diagonals`)."""
    if n < 3:
        raise ValueError("need at least a triangle")
    diags = diagonals(n)
    bit = {d: 1 << i for i, d in enumerate(diags)}
    return [
        Triangulation(n, frozenset(d for d in diags if mask & bit[d]))
        for mask in _triangulation_masks(n, bit)
    ]


def diagonal_name(d):
    i, j = d
    if j > 9:
        return f"X{i}_{j}"
    return f"X{i}{j}"


def assoc_registry(n):
    """Registry with one variable X_ij per diagonal of the n-gon."""
    return VarRegistry([diagonal_name(d) for d in sorted(diagonals(n))])


_BINARY_DIGITS = bytes.maketrans(b"01", b"\0\1")


def universal_adjoint_assoc(n, registry=None):
    """Adj_{n-3}: one squarefree monomial per triangulation, multiplying the
    variables of the diagonals the triangulation omits."""
    if n < 4:
        raise ValueError("the universal adjoint needs n >= 4")
    if registry is None:
        registry = assoc_registry(n)
    width = len(registry)
    bit = {}
    for d in diagonals(n):
        name = diagonal_name(d)
        try:
            bit[d] = 1 << (width - 1 - registry.index(name))
        except KeyError:
            raise ValueError(
                f"registry has no variable {name} for diagonal {d}"
            ) from None
    # variable i has bit width-1-i, so the binary digits of the omitted
    # diagonals' mask, most significant first, are the exponent tuple
    every = sum(bit.values())
    digits = f"0{width}b"
    terms = {
        tuple(format(every ^ mask, digits).encode().translate(_BINARY_DIGITS)): 1
        for mask in _triangulation_masks(n, bit)
    }
    return _from_ints(registry, terms, Fraction(1))


def abhy_polytope(n):
    """Rational realization of the (n-3)-dimensional associahedron.

    Coordinates are y_k = X_{1,k} for k = 3..n-1; the remaining planar
    kinematic variables are determined by the mesh recurrence
    X_{i+1,j+1} = X_{i,j+1} + X_{i+1,j} - X_{i,j} + 1 with all edge
    variables X_{i,i+1} and X_{1,n} set to zero.  Facets are X_ij >= 0,
    one per diagonal, in sorted diagonal order.
    """
    dim = n - 3
    if dim < 1:
        raise ValueError("needs n >= 4")
    # linear forms (coeffs in y, constant) indexed by pairs
    forms = {}
    for i in range(1, n + 1):
        forms[(i, i + 1) if i < n else (1, n)] = ([0] * dim, Fraction(0))
    for k in range(3, n):
        coeffs = [0] * dim
        coeffs[k - 3] = 1
        forms[(1, k)] = (coeffs, Fraction(0))
    forms[(1, n)] = ([0] * dim, Fraction(0))
    for i in range(1, n):
        for j in range(i + 2, n):
            if (i + 1, j + 1) in forms:
                continue
            (a, ca) = forms[(i, j + 1)]
            (b, cb) = forms[(i + 1, j)]
            (c, cc) = forms[(i, j)]
            coeffs = [x + y - z for x, y, z in zip(a, b, c)]
            forms[(i + 1, j + 1)] = (coeffs, ca + cb - cc + 1)
    facets = [forms[d] for d in sorted(diagonals(n))]
    return HPolytope(dim, facets, name=f"assoc-{n}")


@dataclass
class AVCertificate:
    matrix: PolyMatrix
    primary_vars: list
    secondary_vars: list
    scalar: Fraction


def is_av_representation(m, f, primary):
    """Certificate that m = diag(primary) + A with A free of primary
    variables and det(m) = scalar * f; None if the structure fails."""
    if m.size != len(primary):
        raise ValueError("matrix size must equal the number of primary variables")
    reg = m.registry
    primary_idx = [reg.index(p) for p in primary]
    pset = set(primary_idx)
    for i in range(m.size):
        for j in range(m.size):
            entry = m[i, j]
            if i == j:
                entry = entry - reg.var(primary[i])
            if entry.variables_present() & pset:
                return None
    det = m.det()
    scalar = equal_up_to_scalar(det, f.rename(reg) if f.registry != reg else f)
    if scalar is None:
        return None
    secondary = sorted(
        {
            reg.names[v]
            for i in range(m.size)
            for j in range(m.size)
            for v in (
                (m[i, j] - reg.var(primary[i])) if i == j else m[i, j]
            ).variables_present()
        }
    )
    return AVCertificate(m, list(primary), secondary, scalar)


def rayleigh_difference(f, i, j):
    """Delta_ij(f) = df/dx_i * df/dx_j - f * d^2f/dx_i dx_j."""
    if f._var_index(i) == f._var_index(j):
        raise ValueError("Rayleigh difference needs two distinct variables")
    return f.derivative(i) * f.derivative(j) - f * f.derivative(i).derivative(j)


def monomial_content(f):
    """Largest monomial dividing every term, as an exponent tuple."""
    if f.is_zero():
        raise ValueError("zero polynomial")
    return tuple(map(min, zip(*f.monomials())))


def strip_monomial_content(f):
    """(monomial, cofactor) with f = monomial * cofactor and the cofactor's
    terms having no common variable; the monomial carries sign/content 1.
    Dividing by a monomial shifts every exponent tuple, so the cofactor
    keeps f's integer coefficients and content."""
    exps = monomial_content(f)
    mono = Poly(f.registry, {exps: Fraction(1)})
    cof = _make(
        f.registry,
        {tuple(map(sub, e, exps)): v for e, v in f._ints.items()},
        f.content(),
    )
    return mono, cof


@dataclass
class ObstructionVerdict:
    status: str  # "OBSTRUCTED" or "INCONCLUSIVE"
    variable: str
    discriminant: Poly
    witness: tuple | None  # (scalar, primitive square root) when inconclusive


def _split_by_powers(f, vi):
    """[f_0, f_1, ...] with f = sum_d f_d * v^d and every f_d free of the
    variable v with index vi."""
    parts = [{} for _ in range(f.degree_in(vi) + 1)]
    for e, c in f._ints.items():
        parts[e[vi]][e[:vi] + (0,) + e[vi + 1 :]] = c
    return [_from_ints(f.registry, ints, f.content()) for ints in parts]


def affine_factor_obstruction(f, v):
    """Decide whether f = (A + B*v)(C + D*v) is impossible for polynomials
    A, B, C, D free of v.

    Writing f = f2 v^2 + f1 v + f0, any such factorization forces the
    discriminant f1^2 - 4 f2 f0 to equal (AD - BC)^2, a square up to a
    complex scalar.  A non-square discriminant is therefore a proof of
    impossibility (OBSTRUCTED); a square one is merely INCONCLUSIVE.
    """
    vi = f._var_index(v)
    name = f.registry.names[vi]
    if f.degree_in(vi) != 2:
        raise ValueError("obstruction test needs degree exactly 2 in the variable")
    f0, f1, f2 = _split_by_powers(f, vi)
    disc = f1 * f1 - 4 * f2 * f0
    if disc.is_zero():
        return ObstructionVerdict(
            "INCONCLUSIVE", name, disc, (Fraction(0), f.registry.zero())
        )
    square = perfect_square_up_to_scalar(disc)
    if square is None:
        return ObstructionVerdict("OBSTRUCTED", name, disc, None)
    return ObstructionVerdict("INCONCLUSIVE", name, disc, square)


def multiaffine_delta_irreducible(f):
    """True when the Rayleigh graph of a multi-affine polynomial is
    connected, which rules out factorizations on disjoint variable sets."""
    if not f.is_multi_affine():
        raise ValueError("requires a multi-affine polynomial")
    variables = sorted(f.variables_present())
    if len(variables) <= 1:
        return True
    adjacency = {v: set() for v in variables}
    for a, b in itertools.combinations(variables, 2):
        if not rayleigh_difference(f, a, b).is_zero():
            adjacency[a].add(b)
            adjacency[b].add(a)
    seen = {variables[0]}
    stack = [variables[0]]
    while stack:
        for w in adjacency[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(variables)


def derivative_by_vertex(n, registry=None):
    """Derivative of Adj_{n-3} with respect to every diagonal through
    vertex n; equals Adj_{n-4} of the (n-1)-gon after restriction."""
    if registry is None:
        registry = assoc_registry(n)
    f = universal_adjoint_assoc(n, registry)
    for d in diagonals(n):
        if n in d:
            f = f.derivative(diagonal_name(d))
    return f


def _dihedral_images(n, diag_set):
    """All images of a diagonal set under the dihedral group of the n-gon."""
    images = set()
    for r in range(n):
        for refl in (False, True):
            def act(v):
                w = (v - 1 + r) % n + 1
                if refl:
                    w = n + 1 - w
                return w

            img = frozenset(
                tuple(sorted((act(i), act(j)))) for (i, j) in diag_set
            )
            images.add(img)
    return images


SNAKE_HEXAGON = frozenset({(1, 5), (2, 4), (2, 5)})


def snake_classification():
    """Every AV-representation of Adj_3 has snake secondary variables.

    Enumerates all 14 triangulations of the hexagon as candidate secondary
    variable sets.  Snake-type candidates (dihedral images of the snake)
    are admissible; for every other candidate the report contains a
    Rayleigh witness: primary diagonals (i, j) and a primary variable v
    such that Delta_ij(Adj_3) = monomial * G with G obstructed in v, which
    contradicts the subdeterminant factorization an AV-representation
    would force.
    """
    n = 6
    reg = assoc_registry(n)
    adj3 = universal_adjoint_assoc(n, reg)
    snakes = _dihedral_images(n, SNAKE_HEXAGON)
    # candidates share primary pairs: each stripped Rayleigh difference G
    # (None when Delta is zero) and each verdict is computed once per call
    stripped, obstructed = {}, {}
    report = []
    for t in enumerate_triangulations(n):
        secondary = frozenset(t.diagonals)
        if secondary in snakes:
            report.append({"secondary": sorted(secondary), "type": "snake"})
            continue
        primary = [d for d in sorted(diagonals(n)) if d not in secondary]
        witness = None
        for (di, dj) in itertools.combinations(primary, 2):
            if (di, dj) not in stripped:
                delta = rayleigh_difference(adj3, diagonal_name(di), diagonal_name(dj))
                stripped[di, dj] = None if delta.is_zero() else strip_monomial_content(delta)[1]
            g = stripped[di, dj]
            if g is None:
                continue
            for dv in primary:
                name = diagonal_name(dv)
                if g.degree_in(name) != 2:
                    continue
                if (di, dj, name) not in obstructed:
                    verdict = affine_factor_obstruction(g, name)
                    obstructed[di, dj, name] = verdict.status == "OBSTRUCTED"
                if obstructed[di, dj, name]:
                    witness = {
                        "pair": [list(di), list(dj)],
                        "variable": name,
                    }
                    break
            if witness:
                break
        if witness is None:
            raise AssertionError(
                f"no Rayleigh obstruction found for secondary set {sorted(secondary)}"
            )
        report.append(
            {
                "secondary": sorted(secondary),
                "type": "excluded",
                "witness": witness,
            }
        )
    return report


def obstruction_report():
    """Certificate chain behind the non-existence of AV-representations of
    Adj_{n-3} for n >= 7.  Every link is an exact polynomial identity:

    1. snake classification of hexagon secondary variable sets;
    2. the cube reduction F = d^3 Adj_4 / dX27 dX37 dX47
       = X57 * Adj_3 + X16 X26 X36 X46 * Adj_2;
    3. Delta_{13,57}(F) = -(monomial) * G with G of degree 2 in X35;
    4. the discriminant of G in X35 is not a square up to scalar
       (OBSTRUCTED), so F and hence Adj_4 has no AV-representation;
    5. the vertex-derivative reduction propagates the obstruction from
       Adj_4 to every Adj_{n-3}, n >= 7.
    """
    reg7 = assoc_registry(7)
    adj4 = universal_adjoint_assoc(7, reg7)
    f = adj4
    for d in ((2, 7), (3, 7), (4, 7)):
        f = f.derivative(diagonal_name(d))

    # structural identity for F
    adj3_in7 = universal_adjoint_assoc(6, None).rename(reg7)
    adj2_in7 = universal_adjoint_assoc(5, None).rename(reg7)
    hexfactor = reg7.one()
    for d in ((1, 6), (2, 6), (3, 6), (4, 6)):
        hexfactor = hexfactor * reg7.var(diagonal_name(d))
    f_expected = reg7.var("X57") * adj3_in7 + hexfactor * adj2_in7
    identity_ok = f == f_expected

    delta = rayleigh_difference(f, "X13", "X57")
    mono, g = strip_monomial_content(delta)
    expected_mono = reg7.one()
    for d in ((1, 4), (1, 5), (1, 6), (2, 4), (2, 5), (2, 6), (3, 6), (4, 6)):
        expected_mono = expected_mono * reg7.var(diagonal_name(d))
    # delta = -(expected monomial) * G
    monomial_ok = equal_up_to_scalar(mono, expected_mono) == 1
    g = -g  # sign convention: G with positive leading terms as printed

    verdict = affine_factor_obstruction(g, "X35")
    g2 = _split_by_powers(g, reg7.index("X35"))[2]

    return {
        "snake_classification": snake_classification(),
        "cube_reduction_identity": identity_ok,
        "rayleigh_monomial_matches": monomial_ok,
        "G": g,
        "G2": g2,
        "G2_delta_irreducible": multiaffine_delta_irreducible(g2),
        "verdict": verdict,
        "conclusion": "no AV-representation of Adj_{n-3} exists for n >= 7"
        if verdict.status == "OBSTRUCTED"
        and identity_ok
        and monomial_ok
        else "chain incomplete",
    }
