"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial is a map from dense exponent tuples to non-zero rational
coefficients, tied to a :class:`VarRegistry` that fixes the variable order.
It is stored as one positive rational content times a primitive integer
term dict: integer coefficients with gcd 1 that carry the signs (the
content/primitive-part split of Geddes, Czapor & Labahn, *Algorithms for
Computer Algebra*, 1992).  The pair is unique, so equality and hashing read
it directly.  A product of primitive polynomials is primitive (Gauss's
lemma), so products multiply ints and contents and need no gcd pass; sums
scale both operands to a common denominator, add ints and take one gcd.
`Poly.terms` is the rational view as `fractions.Fraction`s, built on first
read.  The monomial order used throughout (leading terms, canonical
normalization, square-root extraction) is graded lexicographic in registry
order.
"""

from __future__ import annotations

import re
from decimal import Decimal
from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import add
from types import MappingProxyType

_ONE = Fraction(1)
# integer and "p/q" strings as int() and Fraction read them
_DIGITS = r"\d+(?:_\d+)*"
_INTEGER = re.compile(rf"\s*[-+]?{_DIGITS}\s*")
_RATIO = re.compile(rf"\s*([-+]?{_DIGITS})(?:/({_DIGITS}))?\s*")


def _as_fraction(c):
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    if isinstance(c, str):
        return Fraction(c)
    raise TypeError(f"cannot interpret {c!r} as an exact rational")


def _integer_point(point):
    """(nums, d): integers with point[i] == nums[i] / d, where d > 0 is the
    least common denominator of the coordinates."""
    point = [c if isinstance(c, (int, Fraction)) else _as_fraction(c) for c in point]
    d = lcm(*[c.denominator for c in point])
    return [c.numerator * (d // c.denominator) for c in point], d


def parse_rational(x):
    """Exact rational from input data: an int, a Fraction, or a "p/q" or
    decimal string.  Anything else, JSON floats and bools included, raises
    ValueError: a binary float is not the rational its digits show."""
    if isinstance(x, bool) or not isinstance(x, (int, Fraction, str)):
        raise ValueError(
            f"inexact or non-numeric rational {x!r}; write rationals as "
            'integers or "p/q" strings'
        )
    try:
        return Fraction(x)
    except ZeroDivisionError:
        raise ValueError(f"rational {x!r} has a zero denominator") from None
    except ValueError:
        # Fraction reads its integers through int(), which stops at the
        # digit limit
        match = isinstance(x, str) and _RATIO.fullmatch(x)
        if not match:
            raise
    num, den = (parse_int(g or "1") for g in match.groups())
    if not den:
        raise ValueError(f"rational {x!r} has a zero denominator")
    return Fraction(num, den)


def parse_int(text):
    """int(text) at any length: CPython's int() refuses more than 4300
    digits by default, decimal reads them exactly."""
    try:
        return int(text)
    except ValueError:
        if not _INTEGER.fullmatch(text):
            raise
    return int(Decimal(text))


def json_object(data, what):
    """`data` if it is a JSON object, else ValueError naming `what`."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(data).__name__}")
    return data


def json_field(data, key, what):
    """`data[key]` of the JSON object `data`; a ValueError names `what` and
    the missing field."""
    data = json_object(data, what)
    if key not in data:
        raise ValueError(f"{what} has no {key}")
    return data[key]


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
    """Serialize a Fraction as 'p' or 'p/q', exactly at any length."""
    c = _as_fraction(c)
    try:
        return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
    except ValueError:  # past CPython's int -> str digit limit; decimal has none
        num, den = str(Decimal(c.numerator)), str(Decimal(c.denominator))
        return num if den == "1" else f"{num}/{den}"


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
        return _make(self, {}, _ONE)

    def constant(self, c):
        c = _as_fraction(c)
        if c == 0:
            return self.zero()
        e = (0,) * len(self)
        return _make(self, {e: 1}, c) if c > 0 else _make(self, {e: -1}, -c)

    def one(self):
        return self.constant(1)

    def var(self, name):
        exps = [0] * len(self)
        exps[self.index(name)] = 1
        return _make(self, {tuple(exps): 1}, _ONE)

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


def _make(registry, ints, content):
    """Trusted constructor: `ints` a primitive integer term dict without
    zeros, `content` a positive Fraction (1 for the zero polynomial)."""
    p = object.__new__(Poly)
    p.registry = registry
    p._ints = ints
    p._content = content
    p._terms = None
    return p


def _primitive(ints, content):
    """(primitive ints, content) for content * ints, given an integer term
    dict that may hold zeros and a common factor, and a positive Fraction."""
    if 0 in ints.values():
        ints = {e: v for e, v in ints.items() if v}
    if not ints:
        return ints, _ONE
    g = gcd(*ints.values())
    if g != 1:
        ints = {e: v // g for e, v in ints.items()}
        content = content * g
    return ints, content


def _from_ints(registry, ints, content):
    return _make(registry, *_primitive(ints, content))


def _negated(ints):
    return {e: -v for e, v in ints.items()}


def _format(v, content):
    """'p' or 'p/q' for the coefficient v * content, without a Fraction."""
    n, d = content.numerator, content.denominator
    try:
        if d == 1:
            return str(v * n)
        g = gcd(v, d)
        return str(v // g * n) if g == d else f"{v // g * n}/{d // g}"
    except ValueError:  # past the int -> str digit limit
        return format_fraction(v * content)


class _Sum:
    """Running sum of polynomials, kept as scale * (integer term dict)."""

    __slots__ = ("ints", "scale")

    def __init__(self, start=None):
        """An empty sum, or a copy of the polynomial `start`."""
        if start is None or not start._ints:
            self.ints, self.scale = {}, None
        else:
            self.ints, self.scale = dict(start._ints), start._content

    def add(self, p, k=1):
        """Add k * p, for an int k."""
        if not p._ints:
            return
        ints, c = self.ints, p._content
        if self.scale is None:
            self.scale = c
        elif c != self.scale:
            r = c / self.scale
            if r.denominator != 1:
                for e in ints:
                    ints[e] *= r.denominator
                self.scale /= r.denominator
            k *= r.numerator
        get = ints.get
        if k == 1:
            for e, v in p._ints.items():
                ints[e] = get(e, 0) + v
        else:
            for e, v in p._ints.items():
                ints[e] = get(e, 0) + k * v

    def poly(self, registry, content=_ONE):
        """The sum times a positive `content`; the sum is consumed."""
        if self.scale is None:
            return registry.zero()
        return _from_ints(registry, self.ints, self.scale * content)


def _horner(items, start, power, one):
    """Sum of c * prod_i power(i, e[i]) over the terms (e, c) in `items`,
    whose exponents agree below index `start`, by the multivariate Horner
    scheme (Pena & Sauer, "On the multivariate Horner scheme", SIAM J.
    Numer. Anal. 37, 2000).  The terms are grouped by their exponent of the
    first variable on which they differ; each group's sum is multiplied by
    that variable's power once, and the powers of the variables before it,
    shared by every term, multiply the total once.  A single term is a plain
    product.  `one` is the target registry's one."""
    if len(items) == 1:
        e, c = items[0]
        term = None
        for i in range(start, len(e)):
            if e[i]:
                term = power(i, e[i]) if term is None else term * power(i, e[i])
        term = one if term is None else term
        return term if c == 1 else term * c
    first = items[0][0]
    split = start
    while all(e[split] == first[split] for e, _ in items):
        split += 1
    groups = {}
    for item in items:
        groups.setdefault(item[0][split], []).append(item)
    total = _Sum()
    for p, group in groups.items():
        part = _horner(group, split + 1, power, one)
        total.add(power(split, p) * part if p else part)
    result = total.poly(one.registry)
    for i in range(start, split):
        if first[i]:
            result = power(i, first[i]) * result
    return result


def _plus(a, b, sign):
    """a + sign * b for sign 1 or -1, over one registry."""
    if not b._ints:
        return a
    total = _Sum(a)
    total.add(b, sign)
    return total.poly(a.registry)


class Poly:
    """Immutable sparse polynomial over a shared :class:`VarRegistry`."""

    __slots__ = ("registry", "_ints", "_content", "_terms")

    def __init__(self, registry, terms):
        clean = {}
        width = len(registry)
        for exps, coeff in terms.items():
            if not isinstance(coeff, int):
                coeff = _as_fraction(coeff)
            if coeff == 0:
                continue
            if len(exps) != width or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent vector {exps!r}")
            clean[tuple(exps)] = coeff
        den = lcm(*(c.denominator for c in clean.values()))
        self.registry = registry
        self._ints, self._content = _primitive(
            {e: c.numerator * (den // c.denominator) for e, c in clean.items()},
            Fraction(1, den),
        )
        self._terms = None

    @property
    def terms(self):
        """Read-only map from exponent tuples to the non-zero Fraction
        coefficients."""
        if self._terms is None:
            self._terms = MappingProxyType(
                {e: self._coeff(v) for e, v in self._ints.items()}
            )
        return self._terms

    def monomials(self):
        """The exponent tuples of the non-zero terms."""
        return self._ints.keys()

    def _coeff(self, v):
        return Fraction(v * self._content.numerator, self._content.denominator)

    # -- basic queries ----------------------------------------------------

    def is_zero(self):
        return not self._ints

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self._ints:
            return -1
        return max(sum(e) for e in self._ints)

    def degree_in(self, v):
        v = self._var_index(v)
        if not self._ints:
            return -1
        return max(e[v] for e in self._ints)

    def is_homogeneous(self):
        degs = {sum(e) for e in self._ints}
        return len(degs) <= 1

    def is_constant(self):
        return self.degree() <= 0

    def constant_value(self):
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        if not self._ints:
            return Fraction(0)
        return self._coeff(next(iter(self._ints.values())))

    def variables_present(self):
        present = set()
        for e in self._ints:
            for i, p in enumerate(e):
                if p:
                    present.add(i)
        return present

    def is_multi_affine(self):
        return all(p <= 1 for e in self._ints for p in e)

    def _leading_exps(self):
        return max(self._ints, key=_gradedlex_key)

    def leading(self):
        """(exponent tuple, coefficient) of the graded-lex leading term."""
        if not self._ints:
            raise ValueError("zero polynomial has no leading term")
        e = self._leading_exps()
        return e, self._coeff(self._ints[e])

    def _var_index(self, v):
        if isinstance(v, str):
            return self.registry.index(v)
        return v

    def coefficient(self, exps):
        v = self._ints.get(tuple(exps))
        return Fraction(0) if v is None else self._coeff(v)

    # -- arithmetic -------------------------------------------------------

    def _check(self, other):
        if self.registry is not other.registry and self.registry != other.registry:
            raise ValueError("polynomials over different registries")

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return (
            self.registry == other.registry
            and self._ints == other._ints
            and self._content == other._content
        )

    def __hash__(self):
        return hash((self.registry, self._content, frozenset(self._ints.items())))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.registry.constant(other)
        self._check(other)
        return _plus(self, other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _make(self.registry, _negated(self._ints), self._content)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.registry.constant(other)
        self._check(other)
        return _plus(self, other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            if c == 0 or not self._ints:
                return self.registry.zero()
            if c > 0:
                return _make(self.registry, self._ints, self._content * c)
            return _make(self.registry, _negated(self._ints), self._content * -c)
        self._check(other)
        a, b = self._ints, other._ints
        if not a or not b:
            return self.registry.zero()
        ints = {}
        get = ints.get
        for e1, v1 in a.items():
            for e2, v2 in b.items():
                e = tuple(map(add, e1, e2))
                ints[e] = get(e, 0) + v1 * v2
        if 0 in ints.values():
            ints = {e: v for e, v in ints.items() if v}
        # primitive times primitive is primitive: no gcd pass
        return _make(self.registry, ints, self._content * other._content)

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
        if not self._ints:
            return "0"
        parts = []
        for e in sorted(self._ints, key=_gradedlex_key, reverse=True):
            c = _format(self._ints[e], self._content)
            mono = "*".join(
                name if p == 1 else f"{name}^{p}"
                for name, p in zip(self.registry.names, e)
                if p
            )
            if mono:
                if c == "1":
                    parts.append(mono)
                elif c == "-1":
                    parts.append(f"-{mono}")
                else:
                    parts.append(f"{c}*{mono}")
            else:
                parts.append(c)
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    # -- calculus and substitution ---------------------------------------

    def derivative(self, v):
        v = self._var_index(v)
        ints = {}
        for e, c in self._ints.items():
            if e[v] == 0:
                continue
            ne = list(e)
            ne[v] -= 1
            ints[tuple(ne)] = c * e[v]
        return _from_ints(self.registry, ints, self._content)

    def substitute(self, assignment):
        """Substitute polynomials (or rationals) for variables.

        `assignment` maps variable names/indices to Poly values sharing one
        target registry (or to plain rationals).  A variable that occurs and
        is unassigned must exist in the target registry under the same name.
        The sum runs as a multivariate Horner scheme (`_horner`).
        """
        names = self.registry.names
        subs = {}
        target = None
        for v, val in assignment.items():
            idx = self.registry._index.get(v) if isinstance(v, str) else v
            if not isinstance(idx, int) or not 0 <= idx < len(names):
                raise ValueError(f"cannot substitute for {v!r}: not a variable of {list(names)}")
            if isinstance(val, Poly):
                if target is None:
                    target = val.registry
                elif target != val.registry:
                    raise ValueError("substitution values over mixed registries")
            else:
                val = _as_fraction(val)
            subs[idx] = val
        if target is None:
            target = self.registry
        if not self._ints:
            return target.zero()
        images = {}
        for i in self.variables_present():
            if i in subs:
                val = subs[i]
                images[i] = val if isinstance(val, Poly) else target.constant(val)
            elif names[i] in target._index:
                images[i] = target.var(names[i])  # passthrough
            else:
                raise ValueError(
                    f"variable {names[i]!r} is neither substituted nor in the target registry"
                )
        powers = {}

        def power(i, p):
            key = (i, p)
            if key not in powers:
                powers[key] = images[i] if p == 1 else power(i, p - 1) * images[i]
            return powers[key]

        total = _horner(list(self._ints.items()), 0, power, target.one())
        return total * self._content

    def evaluate(self, point):
        """Exact evaluation at a rational point (sequence per registry)."""
        if len(point) != len(self.registry):
            raise ValueError("point dimension mismatch")
        return self._evaluate(*_integer_point(point))

    def _evaluate(self, nums, d):
        """Value at the point nums / d, for integers nums and d > 0.

        With deg the total degree, d^deg * f(nums / d) is the integer sum of
        c * nums^e * d^(deg - |e|) over the terms c * x^e, so the sum runs
        in ints and one Fraction is built at the end."""
        deg = max(self.degree(), 0)
        total = 0
        for e, c in self._ints.items():
            val = c
            for p, x in zip(e, nums):
                if p:
                    val *= x ** p
            if d != 1:
                val *= d ** (deg - sum(e))
            total += val
        content = self._content
        return Fraction(total * content.numerator, d**deg * content.denominator)

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
        ints = {}
        for e, c in self._ints.items():
            ne = [0] * len(target)
            for pos, p in zip(positions, e):
                ne[pos] = p
            ne[hom] += degree - sum(e)
            ints[tuple(ne)] = c
        return _from_ints(target, ints, self._content)

    def dehomogenize(self, target, hom_var):
        """Set `hom_var` to 1 and restrict to the target registry."""
        hom = self._var_index(hom_var)
        positions = {}
        for i, name in enumerate(self.registry.names):
            if i != hom:
                positions[i] = target.index(name)
        ints = {}
        for e, c in self._ints.items():
            ne = [0] * len(target)
            for i, p in enumerate(e):
                if i == hom:
                    continue
                if p:
                    ne[positions[i]] = p
            ne = tuple(ne)
            ints[ne] = ints.get(ne, 0) + c
        return _from_ints(target, ints, self._content)

    # -- normalization ----------------------------------------------------

    def content(self):
        """Positive rational c such that self/c has coprime integer coeffs."""
        return self._content

    def canonical(self):
        """Content 1 and positive graded-lex leading coefficient."""
        if self.is_zero():
            return self
        ints = self._ints
        if ints[self._leading_exps()] < 0:
            ints = _negated(ints)
        return _make(self.registry, ints, _ONE)

    def rename(self, target):
        """Reinterpret over `target` registry (same names, maybe reordered
        or extended)."""
        positions = [target.index(name) for name in self.registry.names]
        ints = {}
        for e, c in self._ints.items():
            ne = [0] * len(target)
            for pos, p in zip(positions, e):
                ne[pos] = p
            ints[tuple(ne)] = c
        return _make(target, ints, self._content)

    # -- serialization ----------------------------------------------------

    def to_json(self):
        order = sorted(self._ints, key=_gradedlex_key, reverse=True)
        return {
            "vars": list(self.registry.names),
            "terms": [
                {"exps": list(e), "coeff": _format(self._ints[e], self._content)}
                for e in order
            ],
        }

    @staticmethod
    def from_json(data, registry=None):
        names = _json_names(json_field(data, "vars", "polynomial"))
        if registry is None:
            registry = VarRegistry(names)
        elif list(registry.names) != names:
            raise ValueError("registry does not match serialized variables")
        terms = {}
        for t in json_list(json_field(data, "terms", "polynomial"), "polynomial terms"):
            exps = json_list(json_field(t, "exps", "term"), "term exponents")
            terms[tuple(json_int(e, "exponent") for e in exps)] = parse_rational(
                json_field(t, "coeff", "term")
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
    # primitive parts are unique up to sign
    fi, gi = f._ints, g._ints
    if fi == gi:
        return f._content / g._content
    if len(fi) == len(gi) and all(gi.get(e) == -v for e, v in fi.items()):
        return -f._content / g._content
    return None


def _subtract_shifted(remainder, k, p, shift):
    """remainder -= k * x^shift * p on integer term dicts, in place."""
    for e, v in p.items():
        e = tuple(map(add, e, shift))
        w = remainder.get(e, 0) - k * v
        if w:
            remainder[e] = w
        else:
            del remainder[e]


def perfect_square_up_to_scalar(f):
    """Return (lam, t) with f = lam * t**2, t primitive with positive
    graded-lex leading coefficient, or None if no such rational pair exists.

    Works by graded-lex leading-term recursion: after factoring out the
    (signed) content, a primitive polynomial with positive leading
    coefficient is either an exact square of a primitive polynomial or no
    rational rescaling of f is a square.  That root is integral (Gauss), so
    the recursion runs on ints and stops at the first term that is not.
    """
    if f.is_zero():
        raise ValueError("perfect_square_up_to_scalar requires f != 0")
    le = f._leading_exps()
    lam, g = f._content, f._ints  # g primitive ...
    if g[le] < 0:
        lam, g = -lam, _negated(g)  # ... with positive leading coefficient
    if sum(le) % 2 or any(p % 2 for p in le):
        return None
    slc = isqrt(g[le])
    if slc * slc != g[le]:
        return None
    half = tuple(p // 2 for p in le)
    root = {half: slc}
    remainder = {e: c for e, c in g.items() if e != le}  # g - root**2
    while remainder:
        re = max(remainder, key=_gradedlex_key)
        # next term s satisfies 2 * LT(root) * s = LT(remainder)
        if any(a < b for a, b in zip(re, half)):
            return None
        se = tuple(a - b for a, b in zip(re, half))
        if _gradedlex_key(se) >= _gradedlex_key(half):
            return None
        sc, r = divmod(remainder[re], 2 * slc)
        if r:
            return None
        # g - (root + s)**2 = remainder - s * (2 * root + s)
        _subtract_shifted(remainder, 2 * sc, root, se)
        _subtract_shifted(remainder, sc, {se: sc}, se)
        root[se] = sc
    if gcd(*root.values()) != 1:
        # g primitive forces a primitive root (Gauss), so this cannot happen
        raise AssertionError("square root of primitive polynomial not primitive")
    return lam, _make(f.registry, root, _ONE)


def gradient_at(f, point):
    """Exact gradient of a homogeneous f at homogeneous coordinates."""
    if not f.is_homogeneous():
        raise ValueError("projective gradient test requires homogeneous input")
    nums, d = _integer_point(point)
    if not any(nums):
        raise ValueError("zero vector is not a projective point")
    if len(nums) != len(f.registry):
        raise ValueError("point dimension mismatch")
    return [f.derivative(i)._evaluate(nums, d) for i in range(len(f.registry))]


def exact_divide(f, g):
    """Exact quotient f/g over the rationals; None if g does not divide f.

    The quotient of primitive integer polynomials is integral (Gauss), so
    the division runs on the integer term dicts, in place, and stops at the
    first quotient term that is not an integer."""
    if g.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if f.is_zero():
        return f.registry.zero()
    f._check(g)
    ge = g._leading_exps()
    gc = g._ints[ge]
    quotient = {}  # one new, strictly smaller monomial per step
    remainder = dict(f._ints)
    while remainder:
        re = max(remainder, key=_gradedlex_key)
        if any(a < b for a, b in zip(re, ge)):
            return None
        qc, r = divmod(remainder[re], gc)
        if r:
            return None
        qe = tuple(a - b for a, b in zip(re, ge))
        quotient[qe] = qc
        _subtract_shifted(remainder, qc, g._ints, qe)
    return _make(f.registry, quotient, f._content / g._content)


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
        """Exact values of the entries at a rational point, which is read
        once."""
        if len(point) != len(self.registry):
            raise ValueError("point dimension mismatch")
        nums, d = _integer_point(point)
        return [[p._evaluate(nums, d) for p in row] for row in self.entries]

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
                    key = cols[:k] + (j,) + cols[k:]
                    total = grown.get(key)
                    if total is None:
                        total = grown[key] = _Sum()
                    total.add(p * minor, -1 if k % 2 else 1)
            minors = {}
            for key, total in grown.items():
                minor = total.poly(self.registry)
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
        names = _json_names(json_field(data, "vars", "matrix"))
        if registry is None:
            registry = VarRegistry(names)
        entries = [
            [
                Poly.from_json({"vars": names, "terms": cell}, registry)
                for cell in json_list(row, "matrix row")
            ]
            for row in json_list(json_field(data, "entries", "matrix"), "matrix entries")
        ]
        return PolyMatrix(entries)
