"""Hamiltonian vector field of a binary form and its reduced quotient.

For f of degree p the rotated gradient F = (-f_y, f_x) has f as a first
integral.  Its components share the divisor D = gcd(f_x, f_y), the product
of the factors with multiplicity dropped by one, which is read off Yun's
layers.  Dividing D out proves it and leaves the reduced field, coprime of
degree l + 2k - 1, whose orbit partition distinguishes the five cases.
"""

from __future__ import annotations

from typing import Optional

from .errors import DegreeZeroError, InvariantError
from .polyring import (
    BivariatePoly,
    HomogeneousForm,
    divide_exact,
    float_kernel,
    gcd_bivariate,
    partials,
)
from .realfactor import FactorizationStructure, factor_form
from .verdict import classify_case


class PlanarPolyField:
    """Polynomial vector field P d/dx + Q d/dy; ``degree`` is the total
    degree that every monomial of P and Q shares, else None.

    The first :meth:`at` compiles P and Q into one :func:`float_kernel`
    that shares their powers of x and y and returns the pair."""

    __slots__ = ("P", "Q", "_kernel")

    def __init__(self, P: BivariatePoly, Q: BivariatePoly):
        self.P, self.Q = P, Q

    @property
    def degree(self) -> Optional[int]:
        degrees = {i + j for i, j in (*self.P.nums, *self.Q.nums)}
        return degrees.pop() if len(degrees) == 1 else None

    def at(self, x: float, y: float) -> tuple[float, float]:
        try:
            k = self._kernel
        except AttributeError:
            k = self._kernel = float_kernel(self.P.float_terms(), self.Q.float_terms())
        return k(x, y)


def _field_from_forms(P: HomogeneousForm, Q: HomogeneousForm) -> PlanarPolyField:
    if P.degree != Q.degree:
        raise InvariantError(f"field components of degrees {P.degree} and {Q.degree}")
    return PlanarPolyField(P=P.to_bivariate(), Q=Q.to_bivariate())


def hamiltonian_field(f: HomogeneousForm) -> PlanarPolyField:
    """The rotated gradient (-f_y, f_x), exact."""
    if f.degree < 1 or f.is_zero:
        raise DegreeZeroError("need a nonzero form of degree >= 1")
    fx, fy = partials(f)
    return _field_from_forms(-fy, fx)


def common_divisor(f: HomogeneousForm,
                   fs: Optional[FactorizationStructure] = None) -> HomogeneousForm:
    """gcd(f_x, f_y), primitive with positive leading coefficient: each
    factor with its multiplicity lowered by one, read off fs's layers and
    proved by ``reduced_field``.  An fs of another form is an InvariantError.
    """
    if f.degree < 1 or f.is_zero:
        raise DegreeZeroError("need a nonzero form of degree >= 1")
    if fs is None:
        fs = factor_form(f)
    elif fs.form != f:
        raise InvariantError("the factor structure is not that of f")
    return fs.layer_product(lambda m: m - 1).primitive_part()


def reduced_field(f: HomogeneousForm,
                  fs: Optional[FactorizationStructure] = None,
                  d: Optional[HomogeneousForm] = None) -> PlanarPolyField:
    """F / D componentwise, by exact division.

    ``d`` is ``common_divisor(f, fs)`` when the caller already has it.  That
    d divides both partials, that the quotients have degree l + 2k - 1 and
    that they are coprime are all checked.
    """
    if f.degree < 1 or f.is_zero:
        raise DegreeZeroError("need a nonzero form of degree >= 1")
    if fs is None:
        fs = factor_form(f)
    fx, fy = partials(f)
    if d is None:
        d = common_divisor(f, fs)
    try:
        pr, qr = divide_exact(-fy, d), divide_exact(fx, d)
    except ValueError:
        raise InvariantError("the divisor does not divide both partials") from None
    expected = fs.l + 2 * fs.k - 1
    if pr.degree != expected or qr.degree != expected:
        raise InvariantError(
            f"reduced degrees {pr.degree}, {qr.degree} != l + 2k - 1 = {expected}")
    if not (pr.is_zero or qr.is_zero) and gcd_bivariate(pr, qr).degree != 0:
        raise InvariantError("reduced components are not coprime")
    return _field_from_forms(pr, qr)


class PartitionDescription:
    """Which pieces the plane splits into under the reduced flow:
    ``zero_set_rays`` holds the 2l sorted angles of the zero set (empty
    when l = 0), ``f_sign`` the sign of f away from it."""

    __slots__ = ("case_label", "singular_elements", "regular_elements", "zero_set_rays",
                 "f_sign")

    def __init__(self, case_label: str, singular_elements: tuple[str, ...],
                 regular_elements: tuple[str, ...], zero_set_rays: tuple[float, ...],
                 f_sign: int):
        self.case_label, self.singular_elements = case_label, singular_elements
        self.regular_elements, self.zero_set_rays = regular_elements, zero_set_rays
        self.f_sign = f_sign

    def ray_count(self) -> int:
        return len(self.zero_set_rays)


def partition_description(f: HomogeneousForm,
                          fs: FactorizationStructure) -> PartitionDescription:
    """Describe the singular/regular orbit classes for the case of f.

    One line: every nonzero level component is regular; what varies between
    the cases is whether the zero set contributes half-line elements and
    whether an origin element exists at all.
    """
    rays: tuple[float, ...] = ()
    if fs.l >= 1:
        rays = tuple(sorted(a for lf in fs.lines for a in lf.ray_angles()))
        if len(rays) != 2 * fs.l:
            raise InvariantError(f"{len(rays)} zero-set rays for {fs.l} lines")
    label = classify_case(fs)
    if label == "A":
        return PartitionDescription(
            case_label="A",
            singular_elements=(),
            regular_elements=("parallel lines where the linear factor is constant",),
            zero_set_rays=rays,
            f_sign=fs.sign,
        )
    if label in ("C", "D"):
        regular = ("level set components of sign-normalized f, c > 0",)
    else:
        regular = ("half-lines of the zero set off the origin",
                   "level set components of f, c != 0")
    return PartitionDescription(
        case_label=label,
        singular_elements=("origin",),
        regular_elements=regular,
        zero_set_rays=rays,
        f_sign=fs.sign,
    )


def conservation_defect(f: HomogeneousForm, field: PlanarPolyField):
    """f_x * P + f_y * Q as an exact polynomial; zero iff f is conserved."""
    fx, fy = partials(f)
    return fx.to_bivariate() * field.P + fy.to_bivariate() * field.Q
