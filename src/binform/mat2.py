"""Small 2x2 matrices over exact rationals or floats.

Entries are stored row-major as ``a, b, c, d`` for the matrix
``[[a, b], [c, d]]`` acting on column vectors ``(x, y)``.  A matrix is
*exact* when every entry is a :class:`~fractions.Fraction`; mixing exact
and float entries is not allowed, which keeps the exact code paths honest.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

Entry = Union[Fraction, float]


class Mat2:
    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: Entry, b: Entry, c: Entry, d: Entry):
        kinds = {isinstance(e, Fraction) for e in (a, b, c, d)}
        if len(kinds) != 1:
            raise TypeError("Mat2 entries must be all Fraction or all float")
        self.a, self.b, self.c, self.d = a, b, c, d

    def __eq__(self, other) -> bool:
        return isinstance(other, Mat2) and self.entries() == other.entries()

    @property
    def is_exact(self) -> bool:
        return isinstance(self.a, Fraction)

    def entries(self) -> tuple[Entry, Entry, Entry, Entry]:
        return (self.a, self.b, self.c, self.d)

    @staticmethod
    def identity() -> "Mat2":
        one, zero = Fraction(1), Fraction(0)
        return Mat2(one, zero, zero, one)

    @staticmethod
    def exact(a, b, c, d) -> "Mat2":
        return Mat2(Fraction(a), Fraction(b), Fraction(c), Fraction(d))

    @staticmethod
    def approx(a, b, c, d) -> "Mat2":
        return Mat2(float(a), float(b), float(c), float(d))

    @staticmethod
    def rotation(theta: float) -> "Mat2":
        co, si = math.cos(theta), math.sin(theta)
        return Mat2(co, -si, si, co)

    def det(self) -> Entry:
        return self.a * self.d - self.b * self.c

    def __matmul__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def __neg__(self) -> "Mat2":
        return Mat2(-self.a, -self.b, -self.c, -self.d)

    def scale(self, s: Entry) -> "Mat2":
        return Mat2(self.a * s, self.b * s, self.c * s, self.d * s)

    def inverse(self) -> "Mat2":
        det = self.det()
        if det == 0:
            raise ZeroDivisionError("matrix is singular")
        if self.is_exact:
            inv = Fraction(1, 1) / det
        else:
            inv = 1.0 / det
        return Mat2(self.d * inv, -self.b * inv, -self.c * inv, self.a * inv)

    def apply(self, x: Entry, y: Entry) -> tuple[Entry, Entry]:
        return (self.a * x + self.b * y, self.c * x + self.d * y)

    def to_float(self) -> "Mat2":
        return Mat2(float(self.a), float(self.b), float(self.c), float(self.d))

    def dist(self, other: "Mat2") -> float:
        """Max-abs distance between entry tables, floats."""
        return max(
            abs(float(p) - float(q)) for p, q in zip(self.entries(), other.entries())
        )

    def polar_angle(self) -> float:
        """Rotation angle of the polar factor, in [0, 2*pi).

        Writing h = R * P with P symmetric positive definite, the angle of R
        is atan2(c - b, a + d).  Well defined for any matrix with det > 0.
        """
        ang = math.atan2(float(self.c) - float(self.b), float(self.a) + float(self.d))
        return ang % (2.0 * math.pi)

    def power(self, n: int) -> "Mat2":
        if n < 0:
            return self.inverse().power(-n)
        out = Mat2.identity() if self.is_exact else Mat2.approx(1, 0, 0, 1)
        base = self
        while n:
            if n & 1:
                out = out @ base
            base = base @ base
            n >>= 1
        return out
