"""Exact sparse multivariate polynomial arithmetic over the rationals.

Coefficients are `fractions.Fraction` (always in lowest terms, exact).
A polynomial is a map from dense exponent tuples to non-zero coefficients,
tied to a :class:`VarRegistry` that fixes the variable order.  The monomial
order used throughout (leading terms, canonical normalization, square-root
extraction) is graded lexicographic in registry order.
"""

from __future__ import annotations

from fractions import Fraction


def _as_fraction(c):
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    if isinstance(c, str):
        return Fraction(c)
    raise TypeError(f"cannot interpret {c!r} as an exact rational")


def parse_rational(x):
    """Exact rational from input data: an int, a Fraction, or a "p/q" or
    decimal string.  Anything else, JSON floats and bools included, raises
    ValueError: a binary float is not the rational its digits show."""
    if isinstance(x, bool) or not isinstance(x, (int, Fraction, str)):
        raise ValueError(
            f"inexact or non-numeric rational {x!r}; write rationals as "
            'integers or "p/q" strings'
        )
    return Fraction(x)


def json_object(data, what):
    """`data` if it is a JSON object, else ValueError naming `what`."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(data).__name__}")
    return data


def json_list(data, what, length=None):
    """`data` if it is a JSON list (of `length` items, when given)."""
    if not isinstance(data, list):
        raise ValueError(f"{what} must be a JSON list, got {type(data).__name__}")
    if length is not None and len(data) != length:
        raise ValueError(f"{what} must have {length} entries, got {len(data)}")
    return data


def json_int(data, what):
    """`data` if it is a JSON integer (true and false are not integers)."""
    if isinstance(data, bool) or not isinstance(data, int):
        raise ValueError(f"{what} must be an integer, got {data!r}")
    return data


def format_fraction(c):
    """Serialize a Fraction as 'p' or 'p/q'."""
    c = _as_fraction(c)
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


class VarRegistry:
    """Ordered collection of variable names with stable indices."""

    def __init__(self, names):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("variable names must be unique")
        self.names = names
        self._index = {name: i for i, name in enumerate(names)}

    def __len__(self):
        return len(self.names)

    def __eq__(self, other):
        return isinstance(other, VarRegistry) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return f"VarRegistry({list(self.names)})"

    def index(self, name):
        return self._index[name]

    def zero(self):
        return Poly(self, {})

    def constant(self, c):
        c = _as_fraction(c)
        if c == 0:
            return self.zero()
        return Poly(self, {(0,) * len(self): c})

    def one(self):
        return self.constant(1)

    def var(self, name):
        exps = [0] * len(self)
        exps[self.index(name)] = 1
        return Poly(self, {tuple(exps): Fraction(1)})

    def variables(self):
        return [self.var(name) for name in self.names]

    def linear_form(self, coeffs, constant=0):
        """Polynomial sum(coeffs[i] * x_i) + constant."""
        width = len(self)
        if len(coeffs) != width:
            raise ValueError("coefficient vector length mismatch")
        terms = {(0,) * width: constant}
        for i, c in enumerate(coeffs):
            exps = [0] * width
            exps[i] = 1
            terms[tuple(exps)] = c
        return Poly(self, terms)


def _gradedlex_key(exps):
    return (sum(exps), exps)


def _add_into(terms, p):
    """Add the terms of `p` into the term dict `terms` in place."""
    for e, c in p.terms.items():
        terms[e] = terms.get(e, 0) + c


class Poly:
    """Immutable sparse polynomial over a shared :class:`VarRegistry`."""

    __slots__ = ("registry", "terms")

    def __init__(self, registry, terms):
        self.registry = registry
        clean = {}
        width = len(registry)
        for exps, coeff in terms.items():
            coeff = _as_fraction(coeff)
            if coeff == 0:
                continue
            if len(exps) != width or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent vector {exps!r}")
            clean[tuple(exps)] = coeff
        self.terms = clean

    # -- basic queries ----------------------------------------------------

    def is_zero(self):
        return not self.terms

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, v):
        v = self._var_index(v)
        if not self.terms:
            return -1
        return max(e[v] for e in self.terms)

    def is_homogeneous(self):
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def is_constant(self):
        return self.degree() <= 0

    def constant_value(self):
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        if not self.terms:
            return Fraction(0)
        return next(iter(self.terms.values()))

    def variables_present(self):
        present = set()
        for e in self.terms:
            for i, p in enumerate(e):
                if p:
                    present.add(i)
        return present

    def is_multi_affine(self):
        return all(p <= 1 for e in self.terms for p in e)

    def leading(self):
        """(exponent tuple, coefficient) of the graded-lex leading term."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms, key=_gradedlex_key)
        return e, self.terms[e]

    def _var_index(self, v):
        if isinstance(v, str):
            return self.registry.index(v)
        return v

    def coefficient(self, exps):
        return self.terms.get(tuple(exps), Fraction(0))

    # -- arithmetic -------------------------------------------------------

    def _check(self, other):
        if self.registry != other.registry:
            raise ValueError("polynomials over different registries")

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.registry == other.registry and self.terms == other.terms

    def __hash__(self):
        return hash((self.registry, frozenset(self.terms.items())))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.registry.constant(other)
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, Fraction(0)) + c
        return Poly(self.registry, terms)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.registry, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.registry.constant(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            if c == 0:
                return self.registry.zero()
            return Poly(self.registry, {e: cc * c for e, cc in self.terms.items()})
        self._check(other)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, Fraction(0)) + c1 * c2
        return Poly(self.registry, terms)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power")
        if n == 0:
            return self.registry.one()
        # exponents are small (at most an adjoint's degree)
        result = self
        for _ in range(n - 1):
            result = result * self
        return result

    def __repr__(self):
        return f"Poly({self})"

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, key=_gradedlex_key, reverse=True):
            c = self.terms[e]
            mono = "*".join(
                name if p == 1 else f"{name}^{p}"
                for name, p in zip(self.registry.names, e)
                if p
            )
            if mono:
                if c == 1:
                    parts.append(mono)
                elif c == -1:
                    parts.append(f"-{mono}")
                else:
                    parts.append(f"{format_fraction(c)}*{mono}")
            else:
                parts.append(format_fraction(c))
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    # -- calculus and substitution ---------------------------------------

    def derivative(self, v):
        v = self._var_index(v)
        terms = {}
        for e, c in self.terms.items():
            if e[v] == 0:
                continue
            ne = list(e)
            ne[v] -= 1
            terms[tuple(ne)] = c * e[v]
        return Poly(self.registry, terms)

    def substitute(self, assignment):
        """Substitute polynomials (or rationals) for variables.

        `assignment` maps variable names/indices to Poly values sharing one
        target registry (or to plain rationals).  Unassigned variables must
        exist in the target registry under the same name.
        """
        subs = {}
        target = None
        for v, val in assignment.items():
            idx = self._var_index(v)
            if isinstance(val, Poly):
                if target is None:
                    target = val.registry
                elif target != val.registry:
                    raise ValueError("substitution values over mixed registries")
                subs[idx] = val
            else:
                subs[idx] = _as_fraction(val)
        if target is None:
            target = self.registry
        for idx, val in list(subs.items()):
            if not isinstance(val, Poly):
                subs[idx] = target.constant(val)
        # passthrough for unassigned variables
        images = []
        for i, name in enumerate(self.registry.names):
            if i in subs:
                images.append(subs[i])
            else:
                images.append(target.var(name))
        terms = {}
        for e, c in self.terms.items():
            term = target.constant(c)
            for i, p in enumerate(e):
                if p:
                    term = term * images[i] ** p
            _add_into(terms, term)
        return Poly(target, terms)

    def evaluate(self, point):
        """Exact evaluation at a rational point (sequence per registry)."""
        if len(point) != len(self.registry):
            raise ValueError("point dimension mismatch")
        point = [_as_fraction(p) for p in point]
        total = Fraction(0)
        for e, c in self.terms.items():
            val = c
            for p, x in zip(e, point):
                if p:
                    val *= x ** p
            total += val
        return total

    def homogenize(self, target, hom_var, degree=None):
        """Homogenize into `target` registry using variable `hom_var`.

        Variables of self must exist in target under the same names.
        If `degree` is given, homogenize to that total degree (must be >=
        the polynomial degree).
        """
        if self.is_zero():
            return target.zero()
        d = self.degree()
        if degree is None:
            degree = d
        if degree < d:
            raise ValueError("target degree below polynomial degree")
        hom = target.index(hom_var)
        positions = [target.index(name) for name in self.registry.names]
        terms = {}
        for e, c in self.terms.items():
            ne = [0] * len(target)
            for pos, p in zip(positions, e):
                ne[pos] = p
            ne[hom] += degree - sum(e)
            terms[tuple(ne)] = c
        return Poly(target, terms)

    def dehomogenize(self, target, hom_var):
        """Set `hom_var` to 1 and restrict to the target registry."""
        hom = self._var_index(hom_var)
        positions = {}
        for i, name in enumerate(self.registry.names):
            if i != hom:
                positions[i] = target.index(name)
        terms = {}
        for e, c in self.terms.items():
            ne = [0] * len(target)
            for i, p in enumerate(e):
                if i == hom:
                    continue
                if p:
                    ne[positions[i]] = p
            ne = tuple(ne)
            terms[ne] = terms.get(ne, Fraction(0)) + c
        return Poly(target, terms)

    # -- normalization ----------------------------------------------------

    def content(self):
        """Positive rational c such that self/c has coprime integer coeffs."""
        if not self.terms:
            return Fraction(1)
        from math import gcd, lcm

        den = 1
        for c in self.terms.values():
            den = lcm(den, c.denominator)
        num = 0
        for c in self.terms.values():
            num = gcd(num, abs(c.numerator) * (den // c.denominator))
        return Fraction(num, den)

    def canonical(self):
        """Content 1 and positive graded-lex leading coefficient."""
        if self.is_zero():
            return self
        c = self.content()
        _, lead = self.leading()
        if lead < 0:
            c = -c
        return self * (1 / c)

    def rename(self, target):
        """Reinterpret over `target` registry (same names, maybe reordered
        or extended)."""
        positions = [target.index(name) for name in self.registry.names]
        terms = {}
        for e, c in self.terms.items():
            ne = [0] * len(target)
            for pos, p in zip(positions, e):
                ne[pos] = p
            terms[tuple(ne)] = c
        return Poly(target, terms)

    # -- serialization ----------------------------------------------------

    def to_json(self):
        order = sorted(self.terms, key=_gradedlex_key, reverse=True)
        return {
            "vars": list(self.registry.names),
            "terms": [
                {"exps": list(e), "coeff": format_fraction(self.terms[e])}
                for e in order
            ],
        }

    @staticmethod
    def from_json(data, registry=None):
        names = _json_names(json_object(data, "polynomial")["vars"])
        if registry is None:
            registry = VarRegistry(names)
        elif list(registry.names) != names:
            raise ValueError("registry does not match serialized variables")
        terms = {}
        for t in json_list(data["terms"], "polynomial terms"):
            exps = json_list(json_object(t, "term")["exps"], "term exponents")
            terms[tuple(json_int(e, "exponent") for e in exps)] = parse_rational(
                t["coeff"]
            )
        return Poly(registry, terms)


def _json_names(names):
    names = json_list(names, "variable names")
    if not all(isinstance(name, str) for name in names):
        raise ValueError("variable names must be strings")
    return names


def equal_up_to_scalar(f, g):
    """Return c != 0 with f = c*g, or None.  Zero vs zero gives 1."""
    if f.registry != g.registry:
        raise ValueError("polynomials over different registries")
    if f.is_zero() and g.is_zero():
        return Fraction(1)
    if f.is_zero() or g.is_zero():
        return None
    if set(f.terms) != set(g.terms):
        return None
    ratio = None
    for e, c in f.terms.items():
        r = c / g.terms[e]
        if ratio is None:
            ratio = r
        elif r != ratio:
            return None
    return ratio


def _sqrt_fraction(c):
    """Exact square root of a non-negative Fraction, or None."""
    if c < 0:
        return None
    import math

    n = math.isqrt(c.numerator)
    d = math.isqrt(c.denominator)
    if n * n != c.numerator or d * d != c.denominator:
        return None
    return Fraction(n, d)


def perfect_square_up_to_scalar(f):
    """Return (lam, t) with f = lam * t**2, t primitive with positive
    graded-lex leading coefficient, or None if no such rational pair exists.

    Works by graded-lex leading-term recursion: after factoring out the
    (signed) content, a primitive polynomial with positive leading
    coefficient is either an exact square of a primitive polynomial or no
    rational rescaling of f is a square.
    """
    if f.is_zero():
        raise ValueError("perfect_square_up_to_scalar requires f != 0")
    lam = f.content()
    _, lead = f.leading()
    if lead < 0:
        lam = -lam
    g = f * (1 / lam)  # primitive, positive leading coefficient

    d = g.degree()
    if d % 2:
        return None
    le, lc = g.leading()
    if any(p % 2 for p in le):
        return None
    slc = _sqrt_fraction(lc)
    if slc is None:
        return None
    half = tuple(p // 2 for p in le)
    root = Poly(g.registry, {half: slc})
    remainder = g - root * root
    while not remainder.is_zero():
        re, rc = remainder.leading()
        # next term s satisfies 2 * LT(root) * s = LT(remainder)
        if any(a < b for a, b in zip(re, half)):
            return None
        se = tuple(a - b for a, b in zip(re, half))
        if _gradedlex_key(se) >= _gradedlex_key(half):
            return None
        s = Poly(g.registry, {se: rc / (2 * slc)})
        root = root + s
        remainder = g - root * root
    if root.content() != 1:
        # g primitive forces a primitive root (Gauss), so this cannot happen
        raise AssertionError("square root of primitive polynomial not primitive")
    return lam, root


def gradient_at(f, point):
    """Exact gradient of a homogeneous f at homogeneous coordinates."""
    if not f.is_homogeneous():
        raise ValueError("projective gradient test requires homogeneous input")
    point = [_as_fraction(p) for p in point]
    if all(p == 0 for p in point):
        raise ValueError("zero vector is not a projective point")
    return [f.derivative(i).evaluate(point) for i in range(len(f.registry))]


def exact_divide(f, g):
    """Exact quotient f/g over the rationals; None if g does not divide f."""
    if g.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if f.is_zero():
        return f.registry.zero()
    ge, gc = g.leading()
    quotient = {}  # one new, strictly smaller monomial per step
    remainder = f
    while not remainder.is_zero():
        re, rc = remainder.leading()
        if any(a < b for a, b in zip(re, ge)):
            return None
        qe = tuple(a - b for a, b in zip(re, ge))
        quotient[qe] = rc / gc
        remainder = remainder - Poly(f.registry, {qe: quotient[qe]}) * g
    return Poly(f.registry, quotient)


class PolyMatrix:
    """Square matrix of polynomials over one shared registry."""

    def __init__(self, entries):
        entries = [list(row) for row in entries]
        d = len(entries)
        if any(len(row) != d for row in entries):
            raise ValueError("matrix must be square")
        if d == 0:
            raise ValueError("empty matrix")
        registry = entries[0][0].registry
        for row in entries:
            for p in row:
                if not isinstance(p, Poly) or p.registry != registry:
                    raise ValueError("entries must be Poly over one registry")
        self.entries = entries
        self.size = d
        self.registry = registry

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def is_symmetric(self):
        return all(
            self.entries[i][j] == self.entries[j][i]
            for i in range(self.size)
            for j in range(i + 1, self.size)
        )

    def is_tridiagonal(self):
        return all(
            self.entries[i][j].is_zero()
            for i in range(self.size)
            for j in range(self.size)
            if abs(i - j) >= 2
        )

    def has_linear_entries(self):
        return all(p.degree() <= 1 for row in self.entries for p in row)

    def submatrix(self, rows, cols):
        return PolyMatrix([[self.entries[i][j] for j in cols] for i in rows])

    def leading_principal(self, k):
        idx = list(range(k))
        return self.submatrix(idx, idx)

    def evaluate(self, point):
        return [[p.evaluate(point) for p in row] for row in self.entries]

    def det(self):
        """Exact determinant: the continuant recurrence for tridiagonal
        matrices; otherwise Laplace expansion by minors, bottom row first,
        in at most size * 2^(size-1) products and without division."""
        if self.is_tridiagonal():
            return self.leading_minors()[-1]
        a, d = self.entries, self.size
        # minors of the rows expanded so far, keyed by sorted column tuple
        minors = {(j,): p for j, p in enumerate(a[d - 1]) if not p.is_zero()}
        for r in range(d - 2, -1, -1):
            grown = {}
            for cols, minor in minors.items():
                for j, p in enumerate(a[r]):
                    if p.is_zero() or j in cols:
                        continue
                    k = sum(c < j for c in cols)  # sign (-1)^k: columns left of j
                    term = (-p if k % 2 else p) * minor
                    _add_into(grown.setdefault(cols[:k] + (j,) + cols[k:], {}), term)
            minors = {}
            for key, terms in grown.items():
                minor = Poly(self.registry, terms)
                if not minor.is_zero():
                    minors[key] = minor
        return minors.get(tuple(range(d)), self.registry.zero())

    def leading_minors(self):
        """All leading principal minors [D_1, ..., D_size] of a tridiagonal
        matrix by the continuant recurrence
            D_k = a_k * D_{k-1} - b_{k-1} * c_{k-1} * D_{k-2},  D_0 = 1,
        with a the diagonal, b the super- and c the sub-diagonal (no
        symmetry assumed)."""
        if not self.is_tridiagonal():
            raise ValueError("continuant recurrence needs a tridiagonal matrix")
        a = self.entries
        before, minors = self.registry.one(), [a[0][0]]
        for k in range(1, self.size):
            current = a[k][k] * minors[-1]
            b, c = a[k - 1][k], a[k][k - 1]
            if not (b.is_zero() or c.is_zero()):
                current = current - b * c * before
            before = minors[-1]
            minors.append(current)
        return minors

    def to_json(self):
        return {
            "size": self.size,
            "vars": list(self.registry.names),
            "entries": [[p.to_json()["terms"] for p in row] for row in self.entries],
        }

    @staticmethod
    def from_json(data, registry=None):
        names = _json_names(json_object(data, "matrix")["vars"])
        if registry is None:
            registry = VarRegistry(names)
        entries = [
            [
                Poly.from_json({"vars": names, "terms": cell}, registry)
                for cell in json_list(row, "matrix row")
            ]
            for row in json_list(data["entries"], "matrix entries")
        ]
        return PolyMatrix(entries)
