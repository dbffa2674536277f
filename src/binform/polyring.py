"""Exact arithmetic for binary forms and small polynomial helpers.

A *binary form* of degree p is a homogeneous polynomial in two variables,

    f(x, y) = c_0 x^p + c_1 x^(p-1) y + ... + c_p y^p.

Coefficients are rational and every operation in this module is exact.
A form is the tuple (c_0, ..., c_p) of its Fraction coefficients, and so
are the degree 0 constants and the all-zero markers of a vanishing
derivative: every operation builds its result as one such tuple.  The
coprime integer vector that decides proportionality is computed only when
it is asked for.

A univariate polynomial, such as f(1, t), is a sequence of ints, lowest
degree first.  Yun's algorithm runs over Z, where a division by a
primitive gcd is exact (Gauss's lemma), and returns the square-free
layers as primitive integer tuples.

Each job has one kernel: :func:`convolve` is the one dense product (of
forms and of the interval enclosures in ``realfactor``),
:func:`remainder_sequence` the one integer remainder sequence (gcds here,
Sturm counts in ``realfactor``), and :func:`float_kernel` the one float
evaluation (of forms, of sparse polynomials and of the planar fields in
``hamfield``), compiled once per object on its first float evaluation.
"""

from __future__ import annotations

import math
from fractions import Fraction
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
    values are those of the generic formula, and so are the exceptions:
    a power that leaves the float range raises OverflowError, and fsum
    raises ValueError on inf + -inf.  A list's powers are taken just
    before its sum, so the first failure is the one the lists evaluated
    one after the other would give.
    """
    ns: dict = {"fsum": math.fsum}
    lines = ["def k(x, y):"]
    done: set[str] = set()
    for s, terms in enumerate(term_lists):
        products = []
        for i, j, c in terms:
            name = f"c{len(ns)}"
            ns[name] = float(c)
            factors = [name]
            for v, e in (("x", i), ("y", j)):
                power = v if e == 1 else f"{v}{e}"
                if e >= 2 and power not in done:
                    done.add(power)
                    lines.append(f"    {power} = {v}**{e}")
                if e:
                    factors.append(power)
            products.append(" * ".join(factors) + ",")
        lines.append(f"    s{s} = fsum(({' '.join(products)}))")
    lines.append(f"    return {', '.join(f's{s}' for s in range(len(term_lists)))}")
    exec("\n".join(lines), ns)
    # the function keeps ns as its globals; ns must not keep the function
    return ns.pop("k")


def convolve(a: Sequence, b: Sequence) -> list:
    """Coefficients of the product of the polynomials with coefficients a
    and b (both listed in the same order); a must be nonempty.

    Any scalars closed under + and * will do: Fractions give the exact
    product of forms, ints that of integer polynomials such as the
    square-free layers (primitive integer tuples, from Yun's algorithm
    over Z), Fraction intervals the enclosure product of ``realfactor``.
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

def _int_coeffs(cs: Sequence[Rat]) -> list[int]:
    """The coprime integers proportional to the rationals cs, signed so
    that the last nonzero one is positive.  cs must not be all zero."""
    den = math.lcm(*(c.denominator for c in cs))
    ints = [c.numerator * (den // c.denominator) for c in cs]
    g = math.gcd(*ints)
    if next(n for n in reversed(ints) if n) < 0:
        g = -g
    return [n // g for n in ints]


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


def _pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    """lc(b)^(deg a - deg b + 1) * a  mod  b, all integer; deg a >= deg b."""
    lb, r, k = b[-1], list(a), len(a) - len(b) + 1
    while len(r) >= len(b):
        shift, lr = len(r) - len(b), r[-1]
        r = [lb * c for c in r]
        for i, bc in enumerate(b):
            r[shift + i] -= lr * bc
        while r and r[-1] == 0:
            r.pop()
        k -= 1
    return [c * lb**k for c in r]


def remainder_sequence(a: list[int], b: list[int]) -> list[list[int]]:
    """Signed primitive remainder sequence of integer polynomials with
    deg a >= deg b >= 0: a, b, then minus the remainder of the two entries
    before, divided by its positive content.

    Each entry is a positive multiple of the same sequence over Q, so sign
    variations are those of the Sturm sequence (w, w', ...) when b = a'.
    It stops at a constant entry or before a zero remainder, so its last
    entry is a multiple of gcd(a, b)."""
    chain = [a, b]
    while len(chain[-1]) > 1:
        a, b = chain[-2], chain[-1]
        r = _pseudo_rem(a, b)
        if not r:
            break
        if b[-1] < 0 and (len(a) - len(b)) % 2 == 0:
            r = [-c for c in r]     # odd power of a negative lc(b)
        g = math.gcd(*r)
        chain.append([-c // g for c in r])
    return chain


def gcd_univariate(u: Sequence[int], v: Sequence[int]) -> tuple[int, ...]:
    """Gcd of two integer polynomials, primitive with positive leading
    coefficient; () when both are zero."""
    a, b = sorted((_trim(u), _trim(v)), key=len, reverse=True)
    if not b:
        return tuple(_int_coeffs(a)) if a else ()
    return tuple(_int_coeffs(remainder_sequence(_int_coeffs(a), _int_coeffs(b))[-1]))


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
    u = _int_coeffs(u)
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
    """Sparse bivariate polynomial: {(i, j): coeff} with i, j the exponents
    of x and y.  Zero coefficients are never stored.  The first
    :meth:`eval_float` compiles the terms, in storage order, into a
    :func:`float_kernel`, so the terms must not change after it."""

    __slots__ = ("terms", "_kernel")

    def __init__(self, terms: dict[tuple[int, int], Rat] | None = None):
        clean: dict[tuple[int, int], Fraction] = {}
        for (i, j), c in (terms or {}).items():
            c = Fraction(c)
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

    def __mul__(self, other: "BivariatePoly") -> "BivariatePoly":
        out: dict[tuple[int, int], Fraction] = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                m = (i1 + i2, j1 + j2)
                out[m] = out.get(m, Fraction(0)) + c1 * c2
        return BivariatePoly(out)

    def scale(self, s: Rat) -> "BivariatePoly":
        s = Fraction(s)
        return BivariatePoly({m: c * s for m, c in self.terms.items()})

    def partial_x(self) -> "BivariatePoly":
        return BivariatePoly({(i - 1, j): c * i
                              for (i, j), c in self.terms.items() if i > 0})

    def partial_y(self) -> "BivariatePoly":
        return BivariatePoly({(i, j - 1): c * j
                              for (i, j), c in self.terms.items() if j > 0})

    def eval_exact(self, x: Rat, y: Rat) -> Fraction:
        x, y = Fraction(x), Fraction(y)
        return sum((c * x**i * y**j for (i, j), c in self.terms.items()),
                   Fraction(0))

    def eval_float(self, x: float, y: float) -> float:
        try:
            k = self._kernel
        except AttributeError:
            k = self._kernel = float_kernel([(i, j, c) for (i, j), c in self.terms.items()])
        return k(x, y)

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
        return HomogeneousForm._of(tuple(coeffs))


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

    The form is its tuple of p + 1 Fraction coefficients: equality and
    hashing compare the tuples, so forms that differ by a constant factor
    are different values, and :meth:`proportional_to` compares their
    coprime integer vectors instead.  The public constructor rejects the
    zero form and degree 0; a degree-tagged zero marker (needed for
    vanishing partial derivatives) and a degree 0 constant are the same
    kind of tuple, all zeros or of length 1, and the operations below
    build every result, whichever of the three it is, with :meth:`_of`.
    The first :meth:`float_coeffs` keeps the coefficients as floats, and
    the first :meth:`eval_float` compiles them, zeros included, into a
    :func:`float_kernel`; neither equality nor hashing sees either.
    """

    __slots__ = ("_coeffs", "_floats", "_kernel")

    def __new__(cls, coeffs: Sequence[Rat]) -> "HomogeneousForm":
        cs = tuple(Fraction(c) for c in coeffs)
        if len(cs) < 2:
            raise DegreeZeroError("a form needs degree >= 1 (p + 1 coefficients)")
        if not any(cs):
            raise ValueError("the zero form is rejected; use zero_marker")
        return cls._of(cs)

    @classmethod
    def _of(cls, cs: tuple[Fraction, ...]) -> "HomogeneousForm":
        obj = object.__new__(cls)
        object.__setattr__(obj, "_coeffs", cs)
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
        return cls._of((Fraction(0),) * (degree + 1))

    @property
    def degree(self) -> int:
        return len(self._coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not any(self._coeffs)

    def coefficient(self, i: int) -> Fraction:
        """Coefficient of x^(p-i) y^i."""
        return self._coeffs[i]

    def coefficients(self) -> tuple[Fraction, ...]:
        return self._coeffs

    def __eq__(self, other) -> bool:
        return isinstance(other, HomogeneousForm) and self._coeffs == other._coeffs

    def __hash__(self):
        return hash(self._coeffs)

    def __repr__(self):
        return (f"HomogeneousForm(deg={self.degree}, "
                f"coeffs={[str(c) for c in self._coeffs]})")

    def proportional_to(self, other: "HomogeneousForm") -> bool:
        """True when the forms differ by a nonzero constant factor."""
        if self.is_zero or other.is_zero:
            return False
        return _int_coeffs(self._coeffs) == _int_coeffs(other._coeffs)

    def primitive_part(self) -> "HomogeneousForm":
        """Same zero set, coefficients reduced to the coprime integer vector
        with positive leading (first nonzero) entry."""
        if self.is_zero:
            raise ValueError("zero marker has no primitive part")
        ints = _int_coeffs(self._coeffs)
        sign = -1 if next(n for n in ints if n) < 0 else 1
        return HomogeneousForm._of(tuple(Fraction(sign * n) for n in ints))

    def __mul__(self, other: "HomogeneousForm") -> "HomogeneousForm":
        return HomogeneousForm._of(tuple(convolve(self._coeffs, other._coeffs)))

    def __neg__(self) -> "HomogeneousForm":
        return self.scale_by(-1)

    def scale_by(self, s: Rat) -> "HomogeneousForm":
        s = Fraction(s)
        if s == 0:
            raise ValueError("scaling a form to zero")
        return HomogeneousForm._of(tuple(c * s for c in self._coeffs))

    def power(self, n: int) -> "HomogeneousForm":
        if n < 1:
            raise ValueError("power must be >= 1 for forms")
        out = self
        for _ in range(n - 1):
            out = out * self
        return out

    def eval_exact(self, x: Rat, y: Rat) -> Fraction:
        x, y = Fraction(x), Fraction(y)
        p = self.degree
        return sum((c * x ** (p - i) * y**i for i, c in enumerate(self._coeffs)),
                   Fraction(0))

    def _float_tuple(self) -> tuple[float, ...]:
        try:
            return self._floats
        except AttributeError:
            object.__setattr__(self, "_floats", tuple(map(float, self._coeffs)))
            return self._floats

    def eval_float(self, x: float, y: float) -> float:
        try:
            k = self._kernel
        except AttributeError:
            p = self.degree
            k = float_kernel([(p - i, i, c) for i, c in enumerate(self._coeffs)])
            object.__setattr__(self, "_kernel", k)
        return k(x, y)

    def float_coeffs(self) -> list[float]:
        return list(self._float_tuple())

    def to_bivariate(self) -> BivariatePoly:
        p = self.degree
        return BivariatePoly({(p - i, i): c for i, c in enumerate(self._coeffs) if c})

    def x_multiplicity(self) -> int:
        """The power of x that divides f: f = x^m * x^(deg g) * g(y/x)
        with g = f(1, t)."""
        return self.degree - max(i for i, c in enumerate(self._coeffs) if c)


def constant_form(c: Rat) -> HomogeneousForm:
    """Degree 0 form holding the nonzero constant c.

    The public constructor insists on degree >= 1; constants only arise
    internally (derivatives of linear forms, gcd cofactors) and this keeps
    those code paths total.
    """
    c = Fraction(c)
    if c == 0:
        raise ValueError("zero constant")
    return HomogeneousForm._of((c,))


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
    return (HomogeneousForm._of(tuple((p - i) * cs[i] for i in range(p))),
            HomogeneousForm._of(tuple((i + 1) * cs[i + 1] for i in range(p))))


def compose_linear(f: HomogeneousForm, h: Mat2):
    """The composed form z -> f(h z).

    With an exact matrix the result is a HomogeneousForm (or a zero marker
    when h is singular enough to kill f).  With a float matrix the result
    is a plain list of float coefficients of length p + 1, which is what
    the residual computations want.
    """
    if not h.is_exact:
        return compose_coeffs(f.float_coeffs(), *(float(e) for e in h.entries()))
    return HomogeneousForm._of(tuple(compose_coeffs(f.coefficients(), *h.entries())))


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
    if u.is_zero:
        return v.primitive_part()
    if v.is_zero:
        return u.primitive_part()
    g = gcd_univariate(_int_coeffs(u._coeffs), _int_coeffs(v._coeffs))
    xm = min(u.x_multiplicity(), v.x_multiplicity())
    return HomogeneousForm._of(g + (0,) * xm).primitive_part()


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
    a, b = _trim(_int_coeffs(u._coeffs)), _trim(_int_coeffs(d._coeffs))
    # the ratio of the contents, u = cu * a(t) and d = cd * b(t)
    s = u._coeffs[len(a) - 1] / a[-1] * b[-1] / d._coeffs[len(b) - 1]
    q = _div_exact(a, b)
    return HomogeneousForm._of(tuple(s * c for c in q) + (Fraction(0),) * xm)


def euler_check(f: HomogeneousForm) -> bool:
    """Exact check of the identity p*f = x*f_x + y*f_y."""
    p = f.degree
    fx, fy = (d.coefficients() for d in partials(f))
    return all((fx[i] if i < p else 0) + (fy[i - 1] if i > 0 else 0) == p * c
               for i, c in enumerate(f.coefficients()))


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
    z1, z2 = Fraction(z[0]), Fraction(z[1])
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
