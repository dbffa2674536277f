"""Exact arithmetic for binary forms and small polynomial helpers.

A *binary form* of degree p is a homogeneous polynomial in two variables,

    f(x, y) = c_0 x^p + c_1 x^(p-1) y + ... + c_p y^p.

Coefficients are rational and every operation in this module is exact.
Forms are kept in a primitive normalized shape (coprime integer
coefficient vector, separate positive rational scale, separate sign) so
that proportionality tests reduce to tuple equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .errors import DegreeZeroError, NotHomogeneousError
from .mat2 import Mat2

Rat = Union[int, Fraction]


def _as_fraction(v) -> Fraction:
    return Fraction(v)


# ---------------------------------------------------------------------------
# univariate polynomials

class UnivariatePoly:
    """Dense univariate polynomial over Q, coefficients lowest degree first.

    The zero polynomial is the empty coefficient tuple.  Trailing zeros are
    stripped on construction, so ``coeffs[-1] != 0`` whenever nonzero.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Rat]):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial given degree -1."""
        return len(self.coeffs) - 1

    def __eq__(self, other) -> bool:
        return isinstance(other, UnivariatePoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"UnivariatePoly({[str(c) for c in self.coeffs]})"

    def __add__(self, other: "UnivariatePoly") -> "UnivariatePoly":
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [Fraction(0)] * (n - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            a[i] += c
        return UnivariatePoly(a)

    def __neg__(self) -> "UnivariatePoly":
        return UnivariatePoly([-c for c in self.coeffs])

    def __sub__(self, other: "UnivariatePoly") -> "UnivariatePoly":
        return self + (-other)

    def __mul__(self, other: "UnivariatePoly") -> "UnivariatePoly":
        if self.is_zero or other.is_zero:
            return UnivariatePoly([])
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return UnivariatePoly(out)

    def scale(self, s: Rat) -> "UnivariatePoly":
        s = _as_fraction(s)
        return UnivariatePoly([c * s for c in self.coeffs])

    def derivative(self) -> "UnivariatePoly":
        return UnivariatePoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def __call__(self, t):
        """Horner evaluation; exact for int or Fraction input, float otherwise."""
        if isinstance(t, (int, Fraction)):
            acc = Fraction(0)
            for c in reversed(self.coeffs):
                acc = acc * t + c
            return acc
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * t + float(c)
        return acc

    def divmod(self, d: "UnivariatePoly") -> tuple["UnivariatePoly", "UnivariatePoly"]:
        if d.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        r = list(self.coeffs)
        q = [Fraction(0)] * max(0, len(r) - len(d.coeffs) + 1)
        dl = d.coeffs[-1]
        while True:
            while r and r[-1] == 0:
                r.pop()
            if len(r) < len(d.coeffs):
                break
            shift = len(r) - len(d.coeffs)
            factor = r[-1] / dl
            q[shift] = factor
            for i, dc in enumerate(d.coeffs):
                r[shift + i] -= factor * dc
        return UnivariatePoly(q), UnivariatePoly(r)

    def div_exact(self, d: "UnivariatePoly") -> "UnivariatePoly":
        q, r = self.divmod(d)
        if not r.is_zero:
            raise ValueError("division is not exact")
        return q

    def primitive(self) -> tuple["UnivariatePoly", Fraction]:
        """Split into (primitive part, content).

        The part has coprime integer coefficients and positive leading
        coefficient; self = content * part.
        """
        if self.is_zero:
            return self, Fraction(0)
        den = math.lcm(*(c.denominator for c in self.coeffs))
        ints = [int(c * den) for c in self.coeffs]
        g = math.gcd(*ints)
        if ints[-1] < 0:
            g = -g
        return UnivariatePoly([Fraction(n, g) for n in ints]), Fraction(g, den)


def _int_coeffs(u: UnivariatePoly) -> list[int]:
    """The coefficients of u's primitive part: coprime integers with a
    positive leading one.  u must be nonzero."""
    den = math.lcm(*(c.denominator for c in u.coeffs))
    return _iprimitive([c.numerator * (den // c.denominator) for c in u.coeffs])


def _ideg(a: list[int]) -> int:
    return len(a) - 1


def _itrim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _iprimitive(a: list[int]) -> list[int]:
    g = math.gcd(*a)
    if a[-1] < 0:
        g = -g
    return [c // g for c in a]


def _pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    """lc(b)^(deg a - deg b + 1) * a  mod  b, all integer."""
    lb = b[-1]
    delta = _ideg(a) - _ideg(b)
    r = list(a)
    k = 0
    while r and _ideg(r) >= _ideg(b):
        shift = _ideg(r) - _ideg(b)
        lr = r[-1]
        r = [lb * c for c in r]
        for i, bc in enumerate(b):
            r[shift + i] -= lr * bc
        _itrim(r)
        k += 1
    return [c * lb ** (delta + 1 - k) for c in r]


def _exact_div_int(c: int, d: int) -> int:
    q, rem = divmod(c, d)
    if rem:
        raise ArithmeticError("subresultant division not exact")
    return q


def _subresultant_gcd_int(a: list[int], b: list[int]) -> list[int]:
    """Gcd of nonzero primitive integer polynomials, subresultant PRS."""
    if _ideg(a) < _ideg(b):
        a, b = b, a
    g, h = 1, 1
    while True:
        if _ideg(b) == 0:
            return [1]
        delta = _ideg(a) - _ideg(b)
        r = _pseudo_rem(a, b)
        if not r:
            return _iprimitive(b)
        beta = g * h**delta
        r = [_exact_div_int(c, beta) for c in r]
        a, b = b, r
        g = a[-1]
        if delta == 1:
            h = abs(g)
        elif delta > 1:
            h = _exact_div_int(abs(g) ** delta, h ** (delta - 1))


def gcd_univariate(u: UnivariatePoly, v: UnivariatePoly) -> UnivariatePoly:
    """Gcd over Q, returned primitive with positive leading coefficient."""
    if u.is_zero:
        return v.primitive()[0]
    if v.is_zero:
        return u.primitive()[0]
    return UnivariatePoly(_subresultant_gcd_int(_int_coeffs(u), _int_coeffs(v)))


def squarefree_decomposition(u: UnivariatePoly) -> list[tuple[UnivariatePoly, int]]:
    """Yun's algorithm over Q.

    Returns [(w_1, m_1), (w_2, m_2), ...] with each w squarefree, primitive,
    pairwise coprime, of degree >= 1, the m strictly increasing, and u
    proportional to the product of w^m.  Constant layers are omitted.
    """
    if u.is_zero or u.degree < 1:
        raise ValueError("need a polynomial of degree >= 1")
    up = u.derivative()
    g = gcd_univariate(u, up)
    if g.degree == 0:
        return [(u.primitive()[0], 1)]
    c = u.div_exact(g)
    d = up.div_exact(g) - c.derivative()
    out: list[tuple[UnivariatePoly, int]] = []
    m = 1
    while c.degree > 0:
        a = gcd_univariate(c, d)
        if a.degree > 0:
            out.append((a, m))
        c = c.div_exact(a)
        d = d.div_exact(a) - c.derivative()
        m += 1
    return out


# ---------------------------------------------------------------------------
# sparse bivariate polynomials

class BivariatePoly:
    """Sparse bivariate polynomial: {(i, j): coeff} with i, j the exponents
    of x and y.  Zero coefficients are never stored."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[tuple[int, int], Rat] | None = None):
        clean: dict[tuple[int, int], Fraction] = {}
        for (i, j), c in (terms or {}).items():
            c = _as_fraction(c)
            if c != 0:
                if i < 0 or j < 0:
                    raise ValueError("negative exponent in monomial")
                clean[(int(i), int(j))] = c
        self.terms = clean

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(i + j for i, j in self.terms)

    def monomials(self) -> list[tuple[int, int, Fraction]]:
        """Terms sorted by descending x exponent, then descending y."""
        return [(i, j, self.terms[(i, j)])
                for i, j in sorted(self.terms, key=lambda m: (-m[0], -m[1]))]

    def __eq__(self, other) -> bool:
        return isinstance(other, BivariatePoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        return f"BivariatePoly({self.terms!r})"

    def __add__(self, other: "BivariatePoly") -> "BivariatePoly":
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, Fraction(0)) + c
        return BivariatePoly(out)

    def __neg__(self) -> "BivariatePoly":
        return BivariatePoly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "BivariatePoly") -> "BivariatePoly":
        return self + (-other)

    def __mul__(self, other: "BivariatePoly") -> "BivariatePoly":
        out: dict[tuple[int, int], Fraction] = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                m = (i1 + i2, j1 + j2)
                out[m] = out.get(m, Fraction(0)) + c1 * c2
        return BivariatePoly(out)

    def scale(self, s: Rat) -> "BivariatePoly":
        s = _as_fraction(s)
        return BivariatePoly({m: c * s for m, c in self.terms.items()})

    def power(self, n: int) -> "BivariatePoly":
        if n < 0:
            raise ValueError("negative power")
        out = BivariatePoly({(0, 0): 1})
        for _ in range(n):
            out = out * self
        return out

    def partial_x(self) -> "BivariatePoly":
        return BivariatePoly({(i - 1, j): c * i
                              for (i, j), c in self.terms.items() if i > 0})

    def partial_y(self) -> "BivariatePoly":
        return BivariatePoly({(i, j - 1): c * j
                              for (i, j), c in self.terms.items() if j > 0})

    def eval_exact(self, x: Rat, y: Rat) -> Fraction:
        x, y = _as_fraction(x), _as_fraction(y)
        return sum((c * x**i * y**j for (i, j), c in self.terms.items()),
                   Fraction(0))

    def eval_float(self, x: float, y: float) -> float:
        if not self.terms:
            return 0.0
        return math.fsum(float(c) * x**i * y**j
                         for (i, j), c in self.terms.items())

    def to_form(self) -> "HomogeneousForm":
        """Convert to a homogeneous form; raises NotHomogeneousError when
        monomials mix total degrees."""
        if self.is_zero:
            raise ValueError("zero polynomial has no form degree")
        degs = {i + j for i, j in self.terms}
        if len(degs) != 1:
            raise NotHomogeneousError(tuple(sorted(degs)))
        p = degs.pop()
        coeffs = [Fraction(0)] * (p + 1)
        for (i, j), c in self.terms.items():
            coeffs[j] = c
        if p == 0:
            return constant_form(coeffs[0])
        return HomogeneousForm(coeffs)


@dataclass(frozen=True)
class WeightVector:
    """Positive integer weights (s1, s2) and target weighted degree d."""

    s1: int
    s2: int
    d: int

    def __post_init__(self):
        if self.s1 <= 0 or self.s2 <= 0 or self.d <= 0:
            raise ValueError("weights and degree must be positive")


# ---------------------------------------------------------------------------
# homogeneous binary forms

class HomogeneousForm:
    """Binary form of degree p >= 1 in primitive normalized storage.

    The value is sign * scale * sum(prim[i] * x^(p-i) * y^i) where prim is a
    coprime integer vector whose first nonzero entry is positive, scale is a
    positive rational, and sign is +1 or -1.  The zero form is rejected here;
    a degree-tagged zero marker (needed for vanishing partial derivatives)
    comes from :meth:`zero_marker` only.
    """

    __slots__ = ("degree", "prim", "scale", "sign")

    def __init__(self, coeffs: Sequence[Rat]):
        cs = [_as_fraction(c) for c in coeffs]
        if len(cs) < 2:
            raise DegreeZeroError("a form needs degree >= 1 (p + 1 coefficients)")
        if all(c == 0 for c in cs):
            raise ValueError("the zero form is rejected; use zero_marker")
        den = math.lcm(*(c.denominator for c in cs))
        ints = [int(c * den) for c in cs]
        g = math.gcd(*ints)
        sign = 1
        for n in ints:
            if n:
                if n < 0:
                    sign = -1
                break
        object.__setattr__(self, "degree", len(cs) - 1)
        object.__setattr__(self, "prim", tuple(n // (sign * g) for n in ints))
        object.__setattr__(self, "scale", Fraction(g, den))
        object.__setattr__(self, "sign", sign)

    def __setattr__(self, *a):
        raise AttributeError("HomogeneousForm is immutable")

    def __delattr__(self, *a):
        raise AttributeError("HomogeneousForm is immutable")

    @classmethod
    def zero_marker(cls, degree: int) -> "HomogeneousForm":
        """Zero polynomial tagged with the degree it would have had."""
        if degree < 0:
            raise ValueError("marker degree must be >= 0")
        obj = object.__new__(cls)
        object.__setattr__(obj, "degree", degree)
        object.__setattr__(obj, "prim", (0,) * (degree + 1))
        object.__setattr__(obj, "scale", Fraction(0))
        object.__setattr__(obj, "sign", 1)
        return obj

    @property
    def is_zero(self) -> bool:
        return self.scale == 0

    def coefficient(self, i: int) -> Fraction:
        """Coefficient of x^(p-i) y^i."""
        return self.sign * self.scale * self.prim[i]

    def coefficients(self) -> tuple[Fraction, ...]:
        s = self.sign * self.scale
        return tuple(s * n for n in self.prim)

    def __eq__(self, other) -> bool:
        return (isinstance(other, HomogeneousForm)
                and self.degree == other.degree
                and self.sign == other.sign
                and self.scale == other.scale
                and self.prim == other.prim)

    def __hash__(self):
        return hash((self.degree, self.sign, self.scale, self.prim))

    def __repr__(self):
        return (f"HomogeneousForm(deg={self.degree}, "
                f"coeffs={[str(c) for c in self.coefficients()]})")

    def proportional_to(self, other: "HomogeneousForm") -> bool:
        """True when the forms differ by a nonzero constant factor."""
        if self.is_zero or other.is_zero:
            return False
        return self.degree == other.degree and self.prim == other.prim

    def primitive_part(self) -> "HomogeneousForm":
        """Same zero set, coefficients reduced to the coprime integer vector
        with positive leading entry (scale 1, sign +1)."""
        if self.is_zero:
            raise ValueError("zero marker has no primitive part")
        if self.degree == 0:
            return constant_form(1)
        return HomogeneousForm(self.prim)

    def __mul__(self, other: "HomogeneousForm") -> "HomogeneousForm":
        if self.is_zero or other.is_zero:
            return HomogeneousForm.zero_marker(self.degree + other.degree)
        a, b = self.coefficients(), other.coefficients()
        out = [Fraction(0)] * (self.degree + other.degree + 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        if len(out) == 1:
            return constant_form(out[0])
        return HomogeneousForm(out)

    def __neg__(self) -> "HomogeneousForm":
        if self.is_zero:
            return self
        return self.scale_by(-1)

    def scale_by(self, s: Rat) -> "HomogeneousForm":
        s = _as_fraction(s)
        if s == 0:
            raise ValueError("scaling a form to zero")
        if self.degree == 0:
            return constant_form(self.coefficient(0) * s)
        return HomogeneousForm([c * s for c in self.coefficients()])

    def power(self, n: int) -> "HomogeneousForm":
        if n < 1:
            raise ValueError("power must be >= 1 for forms")
        out = self
        for _ in range(n - 1):
            out = out * self
        return out

    def eval_exact(self, x: Rat, y: Rat) -> Fraction:
        x, y = _as_fraction(x), _as_fraction(y)
        p = self.degree
        return sum((self.coefficient(i) * x ** (p - i) * y**i
                    for i in range(p + 1)), Fraction(0))

    def eval_float(self, x: float, y: float) -> float:
        p = self.degree
        return math.fsum(float(self.coefficient(i)) * x ** (p - i) * y**i
                         for i in range(p + 1))

    def float_coeffs(self) -> list[float]:
        return [float(c) for c in self.coefficients()]

    def to_bivariate(self) -> BivariatePoly:
        p = self.degree
        return BivariatePoly({(p - i, i): self.coefficient(i)
                              for i in range(p + 1) if self.prim[i]})

    def dehomogenized(self) -> UnivariatePoly:
        """f(1, t) as a univariate polynomial in t = y/x."""
        return UnivariatePoly(self.coefficients())

    # monomial multiplicities, used when splitting off axis factors
    def y_multiplicity(self) -> int:
        return min(i for i, n in enumerate(self.prim) if n)

    def x_multiplicity(self) -> int:
        return self.degree - max(i for i, n in enumerate(self.prim) if n)


def constant_form(c: Rat) -> HomogeneousForm:
    """Degree 0 form holding the nonzero constant c.

    The public constructor insists on degree >= 1; constants only arise
    internally (derivatives of linear forms, gcd cofactors) and this keeps
    those code paths total.
    """
    c = _as_fraction(c)
    if c == 0:
        raise ValueError("zero constant")
    obj = object.__new__(HomogeneousForm)
    sign = 1 if c > 0 else -1
    object.__setattr__(obj, "degree", 0)
    object.__setattr__(obj, "prim", (1,))
    object.__setattr__(obj, "scale", abs(c))
    object.__setattr__(obj, "sign", sign)
    return obj


def partials(f: HomogeneousForm) -> tuple[HomogeneousForm, HomogeneousForm]:
    """Exact partial derivatives (f_x, f_y), each of degree p - 1.

    A vanishing derivative comes back as a zero marker of degree p - 1, so
    downstream degree bookkeeping stays total.
    """
    if f.is_zero:
        raise ValueError("zero marker has no derivatives here")
    p = f.degree
    if p == 0:
        raise DegreeZeroError("constants have no useful partials")
    cs = f.coefficients()
    dx = [(p - i) * cs[i] for i in range(p)]
    dy = [(i + 1) * cs[i + 1] for i in range(p)]

    def build(v):
        if all(c == 0 for c in v):
            return HomogeneousForm.zero_marker(p - 1)
        if len(v) == 1:
            return constant_form(v[0])
        return HomogeneousForm(v)

    return build(dx), build(dy)


def compose_linear(f: HomogeneousForm, h: Mat2):
    """The composed form z -> f(h z).

    With an exact matrix the result is a HomogeneousForm (or a zero marker
    when h is singular enough to kill f).  With a float matrix the result
    is a plain list of float coefficients of length p + 1, which is what
    the residual computations want.
    """
    if f.is_zero:
        return f if h.is_exact else [0.0] * (f.degree + 1)
    if not h.is_exact:
        return compose_coeffs(f.float_coeffs(), *(float(e) for e in h.entries()))
    out = compose_coeffs(f.coefficients(), *h.entries())
    if all(c == 0 for c in out):
        return HomogeneousForm.zero_marker(f.degree)
    return HomogeneousForm(out) if f.degree >= 1 else constant_form(out[0])


def compose_coeffs(cs, a, b, c, d) -> list:
    """Coefficients (x-power first) of z -> f(h z) for the form f with
    coefficients cs and h = [[a, b], [c, d]].

    Any scalars closed under + and * will do: Fractions give the exact
    composition, floats the float one, and numpy arrays of matrix entries
    compose f with a whole batch of matrices at once.  No term is skipped
    for being zero, so every output entry has the type of the inputs.
    """
    p = len(cs) - 1
    # powers of the image lines a*x + b*y and c*x + d*y
    pow1 = [[1]]
    pow2 = [[1]]
    for _ in range(p):
        pow1.append(_lin_mul(pow1[-1], a, b))
        pow2.append(_lin_mul(pow2[-1], c, d))
    out = [0] * (p + 1)
    for i, ci in enumerate(cs):
        u, v = pow1[p - i], pow2[i]
        for s, cu in enumerate(u):
            w = ci * cu
            for t, cv in enumerate(v):
                out[s + t] += w * cv
    return out


def _lin_mul(vec, a, b):
    """Multiply a coefficient vector by the linear form a*x + b*y."""
    return ([vec[0] * a]
            + [vec[i] * b + vec[i + 1] * a for i in range(len(vec) - 1)]
            + [vec[-1] * b])


def split_monomials(f: HomogeneousForm) -> tuple[int, int, UnivariatePoly]:
    """Write f = x^xm * y^ym * (core) and dehomogenize the core.

    Returns (xm, ym, core(t)) where core has nonzero constant and leading
    coefficients and f(x, y) = x^xm y^ym x^(deg core) core(y/x).
    """
    if f.is_zero:
        raise ValueError("zero marker cannot be split")
    xm, ym = f.x_multiplicity(), f.y_multiplicity()
    cs = f.coefficients()
    core = UnivariatePoly(cs[ym:f.degree - xm + 1])
    return xm, ym, core


def rehomogenize(u: UnivariatePoly, x_mult: int = 0, y_mult: int = 0) -> HomogeneousForm:
    """Lift a univariate polynomial in t = y/x back to a binary form,
    multiplied by x^x_mult y^y_mult."""
    if u.is_zero:
        raise ValueError("cannot rehomogenize the zero polynomial")
    d = u.degree
    coeffs = [Fraction(0)] * (x_mult + y_mult + d + 1)
    for j, c in enumerate(u.coeffs):
        coeffs[y_mult + j] = c
    if len(coeffs) == 1:
        return constant_form(coeffs[0])
    return HomogeneousForm(coeffs)


def gcd_bivariate(u: HomogeneousForm, v: HomogeneousForm) -> HomogeneousForm:
    """Gcd of two binary forms, primitive with positive leading coefficient.

    Common x and y monomial factors split off first; what remains is a
    subresultant gcd of the dehomogenized cores, lifted back to a form.
    """
    if u.is_zero and v.is_zero:
        raise ValueError("gcd of two zero markers")
    if u.is_zero:
        return v.primitive_part()
    if v.is_zero:
        return u.primitive_part()
    xu, yu, cu = split_monomials(u)
    xv, yv, cv = split_monomials(v)
    g = gcd_univariate(cu, cv)
    return rehomogenize(g, min(xu, xv), min(yu, yv)).primitive_part()


def divide_exact(u: HomogeneousForm, d: HomogeneousForm) -> HomogeneousForm:
    """Exact quotient u / d of binary forms; raises if d does not divide u."""
    if d.is_zero:
        raise ZeroDivisionError("division by a zero form")
    if u.is_zero:
        if d.degree > u.degree:
            raise ValueError("divisor degree exceeds marker degree")
        return HomogeneousForm.zero_marker(u.degree - d.degree)
    xu, yu, cu = split_monomials(u)
    xd, yd, cd = split_monomials(d)
    if xd > xu or yd > yu:
        raise ValueError("division is not exact (monomial part)")
    q = cu.div_exact(cd)
    return rehomogenize(q, xu - xd, yu - yd)


def euler_check(f: HomogeneousForm) -> bool:
    """Exact check of the identity p*f = x*f_x + y*f_y."""
    p = f.degree
    fx, fy = partials(f)
    ex = fx.coefficients() if not fx.is_zero else (Fraction(0),) * p
    ey = fy.coefficients() if not fy.is_zero else (Fraction(0),) * p
    target = f.coefficients()
    for i in range(p + 1):
        lhs = (ex[i] if i < p else Fraction(0)) \
            + (ey[i - 1] if i > 0 else Fraction(0))
        if lhs != p * target[i]:
            return False
    return True


def quasi_homogeneous_check(g: BivariatePoly, w: WeightVector) -> bool:
    """True when every monomial x^i y^j of g satisfies i*s1 + j*s2 = d."""
    if g.is_zero:
        return True
    return all(i * w.s1 + j * w.s2 == w.d for i, j in g.terms)


def jet_order(f: HomogeneousForm, z: tuple[Rat, Rat]) -> int:
    """Order of the first nonvanishing jet of f at the point z.

    Computed by an exact Taylor shift: expand f(z1 + u, z2 + v) and take
    the smallest total degree carrying a nonzero coefficient.  Equals 0
    iff f(z) != 0, and equals deg f at the origin.
    """
    if f.is_zero:
        raise ValueError("zero marker has no jet order")
    z1, z2 = _as_fraction(z[0]), _as_fraction(z[1])
    p = f.degree
    shifted: dict[tuple[int, int], Fraction] = {}
    for i in range(p + 1):
        ci = f.coefficient(i)
        if not ci:
            continue
        m, n = p - i, i
        for a in range(m + 1):
            ba = math.comb(m, a) * z1 ** (m - a)
            if ba == 0:
                continue
            for b in range(n + 1):
                bb = math.comb(n, b) * z2 ** (n - b)
                if bb == 0:
                    continue
                key = (a, b)
                shifted[key] = shifted.get(key, Fraction(0)) + ci * ba * bb
    return min(a + b for (a, b), c in shifted.items() if c != 0)
