"""Seeded random products of lines and definite quadratics.

Every sample carries its ground truth (sign, multiplicities), so tests can
check recovered structure against what was actually multiplied together.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from binform.mat2 import Mat2
from binform.polyring import HomogeneousForm

_DENOMS = (1, 2, 3)

# The benchmark's exact form f27 on seed 9 (bench/corpus.py), degree 16:
# four linear and three squared quadratic factors, in parentheses.
F27 = ("2*(y + 5*x)*(y + 2*x)*(y + 6*x)*(y - x)*(x^2 - 2/3*x*y + 28/9*y^2)^2"
       "*(x^2 + x*y + 19/4*y^2)^2*(x^2 + 3*x*y + 17/4*y^2)^2")


@dataclass(frozen=True)
class SampleForm:
    form: HomogeneousForm
    sign: int
    line_mults: tuple[int, ...]
    quad_mults: tuple[int, ...]
    quads: tuple[tuple[Fraction, Fraction], ...] = ()   # (b, c) of each x^2 + bxy + cy^2

    @property
    def l(self) -> int:
        return len(self.line_mults)

    @property
    def k(self) -> int:
        return len(self.quad_mults)

    @property
    def degree(self) -> int:
        return sum(self.line_mults) + 2 * sum(self.quad_mults)


def _positive_split(rng: random.Random, total: int, parts: int) -> list[int]:
    if parts == 0:
        return []
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    out, prev = [], 0
    for c in cuts + [total]:
        out.append(c - prev)
        prev = c
    return out


def random_product(rng: random.Random, max_degree: int = 8) -> SampleForm:
    """A random form with known factor structure, degree in [1, max_degree]."""
    p = rng.randint(1, max_degree)
    k = rng.randint(0, p // 2)
    quad_weight = rng.randint(k, p // 2) if k else 0
    line_weight = p - 2 * quad_weight
    l = rng.randint(1, line_weight) if line_weight else 0
    alphas = _positive_split(rng, line_weight, l)
    betas = _positive_split(rng, quad_weight, k)

    slopes: set = set()
    while len(slopes) < l:
        if rng.random() < 0.15:
            slopes.add(None)  # the factor x itself
        else:
            slopes.add(Fraction(rng.randint(-6, 6), rng.choice(_DENOMS)))
    grams: set = set()
    while len(grams) < k:
        b = Fraction(rng.randint(-4, 4), rng.choice(_DENOMS))
        c = b * b / 4 + Fraction(rng.randint(1, 9), rng.choice(_DENOMS))
        grams.add((b, c))

    factors: list[tuple[HomogeneousForm, int]] = []
    for t, m in zip(sorted(slopes, key=lambda s: (s is None, s or 0)), alphas):
        if t is None:
            base = HomogeneousForm([1, 0])
        else:
            base = HomogeneousForm([-t.numerator, t.denominator])
        factors.append((base, m))
    for (b, c), m in zip(sorted(grams), betas):
        factors.append((HomogeneousForm([1, b, c]), m))

    prod = None
    for base, m in factors:
        piece = base.power(m)
        prod = piece if prod is None else prod * piece
    sign = rng.choice((1, -1))
    scale = Fraction(rng.randint(1, 4), rng.choice((1, 2)))
    return SampleForm(prod.scale_by(sign * scale), sign,
                      tuple(alphas), tuple(betas), tuple(sorted(grams)))


def random_case_de(rng: random.Random, max_degree: int = 8) -> SampleForm:
    """A sample whose counts land in case D or E."""
    while True:
        s = random_product(rng, max_degree)
        if (s.l == 0 and s.k >= 2) or (s.l >= 1 and s.l + 2 * s.k >= 3):
            return s


def random_exact_gl2(rng: random.Random) -> Mat2:
    """Exact rational matrix with positive determinant."""
    m = Mat2.identity()
    for _ in range(rng.randint(1, 4)):
        t = Fraction(rng.randint(-3, 3), rng.choice(_DENOMS))
        if rng.random() < 0.5:
            m = m @ Mat2.exact(1, t, 0, 1)
        else:
            m = m @ Mat2.exact(1, 0, t, 1)
    a = Fraction(rng.randint(1, 3), rng.choice((1, 2)))
    d = Fraction(rng.randint(1, 3), rng.choice((1, 2)))
    return m @ Mat2.exact(a, 0, 0, d)
