"""Exact arithmetic for binary forms and small polynomial helpers.

A *binary form* of degree p is a homogeneous polynomial in two variables,

    f(x, y) = c_0 x^p + c_1 x^(p-1) y + ... + c_p y^p.

Coefficients are rational and every operation in this module is exact.
A form is a rational ``scale`` times a primitive int tuple ``ints`` and a
sparse polynomial a dict of int numerators over one ``den``, so products,
derivatives, gcds and exact quotients run on ints.  Fractions are built
only at the edge: from the public constructors' arguments, in an exact
``compose_linear``, and in the rational views (``coefficients``,
``terms``, ``monomials``).

A univariate polynomial, such as f(1, t), is a sequence of ints, lowest
degree first.  Yun's algorithm runs over Z, where a division by a
primitive gcd is exact (Gauss's lemma), and returns the square-free
layers as primitive integer tuples.

Each job has one kernel: :func:`convolve` is the one dense product (of
forms and of the interval enclosures in ``realfactor``),
:func:`gcd_univariate` the one polynomial gcd (of Yun's algorithm, of
:func:`gcd_bivariate` and of ``realfactor``), and :func:`float_kernel`
the one float evaluation (of forms, of sparse polynomials and of the
planar fields in ``hamfield``), compiled once per shape of terms and
bound to an object's coefficients on its first float evaluation.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from typing import TYPE_CHECKING, Sequence, Union

from .errors import DegreeZeroError, NotHomogeneousError

if TYPE_CHECKING:
    from .mat2 import Mat2

Rat = Union[int, Fraction]


def float_kernel(*term_lists: Sequence[tuple[int, int, Rat]]):
    """One straight-line function of the float point (x, y) that evaluates
    each list of (i, j, c) terms as fsum([float(c) * x**i * y**j, ...]):
    a float for one list, a tuple of floats for several.

    Each power x**i (i >= 2) is computed once, only for the exponents the
    terms use; x**0 = 1.0 and x**1 = x are left out, which changes no bit.
    The products keep the term order, zero coefficients included, so the
    values are those of the generic formula, and so are the exceptions: a
    power that leaves the float range raises OverflowError, and fsum raises
    ValueError on inf + -inf.  A list's powers are taken just before its
    sum, so the first failure is the one the lists evaluated one after the
    other would give.  The source is compiled once per shape, the exponents
    of every list, and bound per object: the shape's cached factory takes
    each float(c) in term order.
    """
    shape = tuple(tuple((i, j) for i, j, _ in terms) for terms in term_lists)
    return _kernel_factory(shape)(*[float(c) for terms in term_lists for _, _, c in terms])


@lru_cache(maxsize=256)
def _kernel_factory(shape: tuple[tuple[tuple[int, int], ...], ...]):
    """make(c0, ..., cN), compiled: the kernel of the shape and coefficients."""
    ns, lines, done, n = {"fsum": math.fsum}, ["    def k(x, y):"], set(), 0
    for s, exponents in enumerate(shape):
        products = []
        for i, j in exponents:
            factors, n = [f"c{n}"], n + 1
            for v, e in (("x", i), ("y", j)):
                power = v if e == 1 else f"{v}{e}"
                if e >= 2 and power not in done:
                    done.add(power)
                    lines.append(f"        {power} = {v}**{e}")
                if e:
                    factors.append(power)
            products.append(" * ".join(factors) + ",")
        lines.append(f"        s{s} = fsum(({' '.join(products)}))")
    lines.append(f"        return {', '.join(f's{s}' for s in range(len(shape)))}")
    params = ", ".join(f"c{m}" for m in range(n))
    exec("\n".join([f"def make({params}):", *lines, "    return k"]), ns)
    # the factory keeps ns as its globals; ns must not keep the factory
    return ns.pop("make")


def convolve(a: Sequence, b: Sequence) -> list:
    """Coefficients of the product of the polynomials with coefficients a
    and b (both listed in the same order); a must be nonempty.

    Any scalars closed under + and * will do: ints give the exact product
    of forms and of integer polynomials such as the square-free layers,
    Fraction intervals the enclosure product of ``realfactor``.
    Entries of a that test false (exact zeros) are skipped, and every
    output entry starts from a[0] * 0, so it has the type of the inputs.
    """
    out = [a[0] * 0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


# ---------------------------------------------------------------------------
# integer core: univariate polynomials as int sequences, lowest degree first

def _primitive(ints: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """(g, ints / g) for g the gcd of ints, signed like their last nonzero
    entry, so the quotient is primitive with that entry positive; (0, ints)
    when all are zero."""
    g = math.gcd(*ints)
    if g and next(n for n in reversed(ints) if n) < 0:
        g = -g
    return g, tuple(n // g for n in ints) if g not in (0, 1) else tuple(ints)


def _trim(a: Sequence[int]) -> list[int]:
    """a without its trailing zeros; the zero polynomial is []."""
    n = len(a)
    while n and not a[n - 1]:
        n -= 1
    return list(a[:n])


def _derivative(a: Sequence[int]) -> list[int]:
    return [i * c for i, c in enumerate(a)][1:]


def _div_exact(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The quotient a / b in Z[t] for trimmed a and b; raises ValueError
    when b does not divide a there.  By Gauss's lemma a primitive b that
    divides a over Q divides it over Z."""
    r, lb, n = list(a), b[-1], len(b) - 1
    q = [0] * (len(a) - n)
    for shift in range(len(a) - 1 - n, -1, -1):
        # a remainder of this floor division stays in r[shift + n]
        q[shift] = c = r[shift + n] // lb
        if c:
            for i, bc in enumerate(b):
                r[shift + i] -= c * bc
    if any(r):
        raise ValueError("division is not exact")
    return q


def _at_power_of_two(a: Sequence[int], K: int) -> int:
    """a(2^K) by Horner on halves joined by one shift: near linear in the
    size of the value, where one Horner loop would be quadratic."""
    if len(a) > 32:
        m = len(a) >> 1
        return _at_power_of_two(a[:m], K) + (_at_power_of_two(a[m:], K) << m * K)
    v = 0
    for c in reversed(a):
        v = (v << K) + c
    return v


def _digits(v: int, K: int, n: int) -> list[int]:
    """The n base-2^K digits of 0 <= v < 2^(nK), lowest first, by halves."""
    if n > 32:
        m = n >> 1
        return _digits(v & ((1 << m * K) - 1), K, m) + _digits(v >> m * K, K, n - m)
    return [v >> (i * K) & ((1 << K) - 1) for i in range(n)]


def gcd_univariate(u: Sequence[int], v: Sequence[int]) -> tuple[int, ...]:
    """Gcd of two integer polynomials, primitive with positive leading
    coefficient; () when both are zero.

    The heuristic gcd (Char, Geddes & Gonnet, J. Symbolic Comput. 7, 1989;
    Geddes, Czapor & Labahn, Algorithms for Computer Algebra, 7.7) of the
    primitive parts a and b, |a|_inf <= |b|_inf say: gamma = gcd(a(xi), b(xi))
    at xi = 2^K >= 2 |a|_inf + 2, and h has gamma's base-xi digits in
    [-xi/2, xi/2): those of gamma + sum (xi/2) xi^i, each less xi/2.
    A root of a lies below 1 + |a|_inf <= xi/2, so a factor g of a of degree
    d >= 1 has |g(xi)| > (xi/2)^d: gamma < xi/2 proves a and b coprime.  A
    pp(h) that divides a and b is their gcd (the CGG theorem); else K
    doubles.  That ends: for the gcd g, a = g a' and b = g b', gamma is
    c g(xi) with c = gcd(a'(xi), b'(xi)), a divisor of the resultant of a'
    and b', which does not depend on xi; once 2^K > 2 c |g|_inf, h = c g.
    """
    a, b = _trim(u), _trim(v)
    if len(a) < 2 or len(b) < 2:        # a zero or a constant
        return (1,) if a and b else _primitive(a or b)[1]
    a, b = _primitive(a)[1], _primitive(b)[1]
    K = min(max(map(abs, a)), max(map(abs, b))).bit_length() + 1
    while (gamma := math.gcd(_at_power_of_two(a, K), _at_power_of_two(b, K))) >> (K - 1):
        n, half = gamma.bit_length() // K + 2, 1 << (K - 1)
        h = _digits(gamma + _at_power_of_two([half] * n, K), K, n)
        g = _primitive(_trim([d - half for d in h]))[1]
        try:
            _div_exact(a, g)
            _div_exact(b, g)
            return g
        except ValueError:
            K *= 2
    return (1,)


def squarefree_decomposition(u: Sequence[int]) -> list[tuple[tuple[int, ...], int]]:
    """Yun's algorithm over Z.

    Returns [(w_1, m_1), (w_2, m_2), ...] with each w a squarefree,
    primitive integer tuple with positive leading coefficient, pairwise
    coprime, of degree >= 1, the m strictly increasing, and u proportional
    to the product of w^m.  Constant layers are omitted.  Every division
    is by a primitive gcd, so all quotients are integral.
    """
    u = _trim(u)
    if len(u) < 2:
        raise ValueError("need a polynomial of degree >= 1")
    u = _primitive(u)[1]
    du = _derivative(u)
    g = gcd_univariate(u, du)
    if len(g) == 1:
        return [(tuple(u), 1)]
    c, d = _div_exact(u, g), _div_exact(du, g)
    out: list[tuple[tuple[int, ...], int]] = []
    m = 1
    while len(c) > 1:
        d = _trim([x - y for x, y in zip_longest(d, _derivative(c), fillvalue=0)])
        a = gcd_univariate(c, d)
        if len(a) > 1:
            out.append((a, m))
        c, d = _div_exact(c, a), _div_exact(d, a)
        m += 1
    return out


# ---------------------------------------------------------------------------
# sparse bivariate polynomials

class BivariatePoly:
    """Sparse bivariate polynomial: ``nums`` {(i, j): int} of x^i y^j, no
    zeros stored, over the positive int ``den``, in lowest terms; ``terms``
    is the map of Fractions.  The first :meth:`eval_float` compiles the
    terms, in storage order, into a :func:`float_kernel`, so they must not
    change after it."""

    __slots__ = ("nums", "den", "_kernel")

    def __init__(self, terms: dict[tuple[int, int], Rat] | None = None):
        clean: dict[tuple[int, int], Fraction] = {}
        for (i, j), c in (terms or {}).items():
            c = Fraction(c)
            if c != 0:
                if i < 0 or j < 0:
                    raise ValueError("negative exponent in monomial")
                clean[(int(i), int(j))] = c
        self.den = den = math.lcm(*(c.denominator for c in clean.values()))
        self.nums = {m: c.numerator * (den // c.denominator) for m, c in clean.items()}

    @classmethod
    def _of(cls, nums: dict[tuple[int, int], int], den: int) -> "BivariatePoly":
        """nums / den in lowest terms; nums holds no zero and den > 0."""
        g = math.gcd(den, *nums.values())
        obj = object.__new__(cls)
        obj.den = den // g
        obj.nums = {m: c // g for m, c in nums.items()} if g > 1 else nums
        return obj

    @property
    def terms(self) -> dict[tuple[int, int], Fraction]:
        return {m: Fraction(c, self.den) for m, c in self.nums.items()}

    @property
    def is_zero(self) -> bool:
        return not self.nums

    def monomials(self) -> list[tuple[int, int, Fraction]]:
        """Terms sorted by descending x exponent, then descending y."""
        return [(i, j, Fraction(self.nums[(i, j)], self.den))
                for i, j in sorted(self.nums, key=lambda m: (-m[0], -m[1]))]

    def __eq__(self, other) -> bool:
        return (isinstance(other, BivariatePoly)
                and (self.den, self.nums) == (other.den, other.nums))

    def __hash__(self):
        return hash((self.den, frozenset(self.nums.items())))

    def __repr__(self):
        return f"BivariatePoly({self.terms!r})"

    def __add__(self, other: "BivariatePoly") -> "BivariatePoly":
        out = {m: c * other.den for m, c in self.nums.items()}
        for m, c in other.nums.items():
            out[m] = out.get(m, 0) + c * self.den
        return BivariatePoly._of({m: c for m, c in out.items() if c}, self.den * other.den)

    def __mul__(self, other: "BivariatePoly") -> "BivariatePoly":
        out: dict[tuple[int, int], int] = {}
        for (i1, j1), c1 in self.nums.items():
            for (i2, j2), c2 in other.nums.items():
                m = (i1 + i2, j1 + j2)
                out[m] = out.get(m, 0) + c1 * c2
        return BivariatePoly._of({m: c for m, c in out.items() if c}, self.den * other.den)

    def scale(self, s: Rat) -> "BivariatePoly":
        s = Fraction(s)
        nums = {m: c * s.numerator for m, c in self.nums.items()} if s else {}
        return BivariatePoly._of(nums, self.den * s.denominator)

    def partial_x(self) -> "BivariatePoly":
        return BivariatePoly._of({(i - 1, j): c * i
                                  for (i, j), c in self.nums.items() if i > 0}, self.den)

    def partial_y(self) -> "BivariatePoly":
        return BivariatePoly._of({(i, j - 1): c * j
                                  for (i, j), c in self.nums.items() if j > 0}, self.den)

    def eval_exact(self, x: Rat, y: Rat) -> Fraction:
        """At x = a/q, y = b/s: sum c a^i q^(dx-i) b^j s^(dy-j) / (den q^dx s^dy)."""
        (a, q), (b, s) = x.as_integer_ratio(), y.as_integer_ratio()
        dx = max((i for i, _ in self.nums), default=0)
        dy = max((j for _, j in self.nums), default=0)
        return Fraction(sum(c * a**i * q**(dx - i) * b**j * s**(dy - j)
                            for (i, j), c in self.nums.items()), self.den * q**dx * s**dy)

    def float_terms(self) -> list[tuple[int, int, float]]:
        """The terms (i, j, c) in storage order, c rounded as float() would."""
        return [(i, j, c / self.den) for (i, j), c in self.nums.items()]

    def eval_float(self, x: float, y: float) -> float:
        try:
            k = self._kernel
        except AttributeError:
            k = self._kernel = float_kernel(self.float_terms())
        return k(x, y)

    def to_form(self) -> "HomogeneousForm":
        """Convert to a homogeneous form; raises NotHomogeneousError when
        monomials mix total degrees."""
        if self.is_zero:
            raise ValueError("zero polynomial has no form degree")
        degs = {i + j for i, j in self.nums}
        if len(degs) != 1:
            raise NotHomogeneousError(tuple(sorted(degs)))
        ints = [0] * (degs.pop() + 1)
        for (i, j), c in self.nums.items():
            ints[j] = c
        return HomogeneousForm._normal(ints, 1, self.den)


class WeightVector:
    """Positive integer weights (s1, s2) and target weighted degree d."""

    __slots__ = ("s1", "s2", "d")

    def __init__(self, s1: int, s2: int, d: int):
        if s1 <= 0 or s2 <= 0 or d <= 0:
            raise ValueError("weights and degree must be positive")
        self.s1, self.s2, self.d = s1, s2, d


# ---------------------------------------------------------------------------
# homogeneous binary forms

class HomogeneousForm:
    """Binary form sum(c_i * x^(p-i) * y^i) of degree p >= 1.

    c_i = scale * ints[i] for a Fraction ``scale`` and the primitive int
    tuple ``ints`` whose last nonzero entry is positive: one such pair per
    coefficient list.  Equality and hashing compare the pairs, so forms
    that differ by a constant factor are different values;
    :meth:`proportional_to` compares the tuples alone.  The public
    constructor rejects the zero form and degree 0, but a degree-tagged
    zero marker (scale 0, for vanishing partial derivatives) and a degree 0
    constant (the tuple (1,)) are built by :meth:`_of` like any result.
    The first :meth:`eval_float` compiles :meth:`float_coeffs`, zeros
    included, into a :func:`float_kernel`, which equality does not see.
    """

    __slots__ = ("scale", "ints", "_kernel")

    def __new__(cls, coeffs: Sequence[Rat]) -> "HomogeneousForm":
        cs = [Fraction(c) for c in coeffs]
        if len(cs) < 2:
            raise DegreeZeroError("a form needs degree >= 1 (p + 1 coefficients)")
        if not any(cs):
            raise ValueError("the zero form is rejected; use zero_marker")
        return cls._normal(cs)

    @classmethod
    def _normal(cls, cs: Sequence[Rat], num: int = 1, den: int = 1) -> "HomogeneousForm":
        """The form num/den * cs for any ints or rationals cs."""
        d = math.lcm(*(c.denominator for c in cs))
        g, ints = _primitive([c.numerator * (d // c.denominator) for c in cs])
        return cls._of(Fraction(num * g, den * d), ints)

    @classmethod
    def _of(cls, scale: Fraction, ints: tuple[int, ...]) -> "HomogeneousForm":
        obj = object.__new__(cls)
        object.__setattr__(obj, "scale", scale)
        object.__setattr__(obj, "ints", ints)
        return obj

    def __setattr__(self, *a):
        raise AttributeError("HomogeneousForm is immutable")

    def __delattr__(self, *a):
        raise AttributeError("HomogeneousForm is immutable")

    @classmethod
    def zero_marker(cls, degree: int) -> "HomogeneousForm":
        """Zero polynomial tagged with the degree it would have had."""
        if degree < 0:
            raise ValueError("marker degree must be >= 0")
        return cls._of(Fraction(0), (0,) * (degree + 1))

    @property
    def degree(self) -> int:
        return len(self.ints) - 1

    @property
    def is_zero(self) -> bool:
        return not self.scale

    def coefficient(self, i: int) -> Fraction:
        """Coefficient of x^(p-i) y^i."""
        return Fraction(self.ints[i] * self.scale.numerator, self.scale.denominator)

    def coefficients(self) -> tuple[Fraction, ...]:
        num, den = self.scale.numerator, self.scale.denominator
        return tuple(Fraction(n * num, den) for n in self.ints)

    def __eq__(self, other) -> bool:
        return (isinstance(other, HomogeneousForm)
                and (self.scale, self.ints) == (other.scale, other.ints))

    def __hash__(self):
        return hash((self.scale, self.ints))

    def __repr__(self):
        return (f"HomogeneousForm(deg={self.degree}, "
                f"coeffs={[str(c) for c in self.coefficients()]})")

    def proportional_to(self, other: "HomogeneousForm") -> bool:
        """True when the forms differ by a nonzero constant factor."""
        return bool(self.scale and other.scale) and self.ints == other.ints

    def primitive_part(self) -> "HomogeneousForm":
        """Same zero set, coefficients reduced to the coprime integer vector
        with positive leading (first nonzero) entry."""
        if self.is_zero:
            raise ValueError("zero marker has no primitive part")
        sign = 1 if next(n for n in self.ints if n) > 0 else -1
        return HomogeneousForm._of(Fraction(sign), self.ints)

    def __mul__(self, other: "HomogeneousForm") -> "HomogeneousForm":
        return HomogeneousForm._of(self.scale * other.scale,
                                   tuple(convolve(self.ints, other.ints)))

    def __neg__(self) -> "HomogeneousForm":
        return HomogeneousForm._of(-self.scale, self.ints)

    def scale_by(self, s: Rat) -> "HomogeneousForm":
        s = Fraction(s)
        if s == 0:
            raise ValueError("scaling a form to zero")
        return HomogeneousForm._of(self.scale * s, self.ints)

    def power(self, n: int) -> "HomogeneousForm":
        if n < 1:
            raise ValueError("power must be >= 1 for forms")
        out = self
        for _ in range(n - 1):
            out = out * self
        return out

    def eval_exact(self, x: Rat, y: Rat) -> Fraction:
        return self.to_bivariate().eval_exact(x, y)

    def eval_float(self, x: float, y: float) -> float:
        try:
            k = self._kernel
        except AttributeError:
            p = self.degree
            k = float_kernel([(p - i, i, c) for i, c in enumerate(self.float_coeffs())])
            object.__setattr__(self, "_kernel", k)
        return k(x, y)

    def float_coeffs(self) -> list[float]:
        """Each coefficient rounded to the nearest float, as float() of the
        Fraction would: int true division rounds correctly."""
        num, den = self.scale.numerator, self.scale.denominator
        return [n * num / den for n in self.ints]

    def to_bivariate(self) -> BivariatePoly:
        p, num = self.degree, self.scale.numerator
        return BivariatePoly._of({(p - i, i): n * num for i, n in enumerate(self.ints) if n},
                                 self.scale.denominator)

    def x_multiplicity(self) -> int:
        """The power of x that divides f: f = x^m * x^(deg g) * g(y/x)
        with g = f(1, t)."""
        return self.degree - max(i for i, n in enumerate(self.ints) if n)


def constant_form(c: Rat) -> HomogeneousForm:
    """Degree 0 form holding the nonzero constant c, as derivatives of
    linear forms and gcd cofactors are; the public constructor wants p >= 1."""
    c = Fraction(c)
    if c == 0:
        raise ValueError("zero constant")
    return HomogeneousForm._of(c, (1,))


def partials(f: HomogeneousForm) -> tuple[HomogeneousForm, HomogeneousForm]:
    """Exact partial derivatives (f_x, f_y), each of degree p - 1: a
    vanishing one is a zero marker, so degree bookkeeping stays total."""
    if f.is_zero:
        raise ValueError("zero marker has no derivatives here")
    p = f.degree
    if p == 0:
        raise DegreeZeroError("constants have no useful partials")
    n, num, den = f.ints, f.scale.numerator, f.scale.denominator
    return (HomogeneousForm._normal([(p - i) * n[i] for i in range(p)], num, den),
            HomogeneousForm._normal([(i + 1) * n[i + 1] for i in range(p)], num, den))


def compose_linear(f: HomogeneousForm, h: Mat2):
    """The composed form z -> f(h z).

    With an exact matrix the result is a HomogeneousForm (or a zero marker
    when h is singular enough to kill f).  With a float matrix the result
    is a plain list of float coefficients of length p + 1, which is what
    the residual computations want.
    """
    if not h.is_exact:
        return compose_coeffs(f.float_coeffs(), *(float(e) for e in h.entries()))
    return HomogeneousForm._normal(compose_coeffs(f.coefficients(), *h.entries()))


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


def gcd_bivariate(u: HomogeneousForm, v: HomogeneousForm) -> HomogeneousForm:
    """Gcd of two binary forms, primitive with positive leading coefficient.

    The gcd of the integer vectors of f(1, t) holds every common factor
    but the power of x (a power of y is a power of t there); it is lifted
    back to a form times the least x-multiplicity.
    """
    if u.is_zero and v.is_zero:
        raise ValueError("gcd of two zero markers")
    g = gcd_univariate(u.ints, v.ints)
    xm = min(f.x_multiplicity() for f in (u, v) if not f.is_zero)
    return HomogeneousForm._of(Fraction(1), g + (0,) * xm).primitive_part()


def divide_exact(u: HomogeneousForm, d: HomogeneousForm) -> HomogeneousForm:
    """Exact quotient u / d of binary forms; raises if d does not divide u."""
    if d.is_zero:
        raise ZeroDivisionError("division by a zero form")
    if u.is_zero:
        if d.degree > u.degree:
            raise ValueError("divisor degree exceeds marker degree")
        return HomogeneousForm.zero_marker(u.degree - d.degree)
    xm = u.x_multiplicity() - d.x_multiplicity()
    if xm < 0:
        raise ValueError("division is not exact (power of x)")
    # a quotient of primitive tuples with positive leading entries is one
    q = _div_exact(_trim(u.ints), _trim(d.ints))
    return HomogeneousForm._of(u.scale / d.scale, tuple(q) + (0,) * xm)


def euler_check(f: HomogeneousForm) -> bool:
    """Exact check of the identity p*f = x*f_x + y*f_y."""
    p = f.degree
    fx, fy = (d.coefficients() for d in partials(f))
    return all((fx[i] if i < p else 0) + (fy[i - 1] if i > 0 else 0) == p * c
               for i, c in enumerate(f.coefficients()))


def quasi_homogeneous_check(g: BivariatePoly, w: WeightVector) -> bool:
    """True when every monomial x^i y^j of g satisfies i*s1 + j*s2 = d."""
    return all(i * w.s1 + j * w.s2 == w.d for i, j in g.nums)


def jet_order(f: HomogeneousForm, z: tuple[Rat, Rat]) -> int:
    """Order of the first nonvanishing jet of f at the point z.

    At the origin it is the degree.  Elsewhere it is the multiplicity of
    the line through z as a factor of f (0 off the zero set): the power of
    x when z is on x = 0, else the order of the root z2/z1 of f(1, t),
    counted by the derivatives that vanish there.
    """
    if f.is_zero:
        raise ValueError("zero marker has no jet order")
    z1, z2 = Fraction(z[0]), Fraction(z[1])
    if not z1:
        return f.x_multiplicity() if z2 else f.degree
    t, u, order = z2 / z1, list(f.ints), 0   # the scale does not move the order
    while not sum(c * t**i for i, c in enumerate(u)):
        u, order = _derivative(u), order + 1
    return order
