"""Hamiltonian vector field of a binary form and its reduced quotient.

For f of degree p the rotated gradient F = (-f_y, f_x) has f as a first
integral.  Its components share the divisor D = gcd(f_x, f_y), which by the
factor structure of f equals (up to sign and scale) the product of the
factors with multiplicity dropped by one.  Dividing out D leaves the reduced
field, coprime of degree l + 2k - 1, whose orbit partition distinguishes the
five factor-count cases.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import DegreeZeroError, InvariantError
from .polyring import (
    BivariatePoly,
    HomogeneousForm,
    divide_exact,
    gcd_bivariate,
    partials,
)
from .realfactor import FactorizationStructure, factor_form
from .verdict import classify_case


@dataclass(frozen=True)
class PlanarPolyField:
    """Polynomial vector field P d/dx + Q d/dy."""

    P: BivariatePoly
    Q: BivariatePoly
    homogeneous: bool
    degree: Optional[int]   # common degree of the components when homogeneous

    def at(self, x: float, y: float) -> tuple[float, float]:
        return (self.P.eval_float(x, y), self.Q.eval_float(x, y))


def _field_from_forms(P: HomogeneousForm, Q: HomogeneousForm) -> PlanarPolyField:
    if P.degree != Q.degree:
        raise InvariantError(f"field components of degrees {P.degree} and {Q.degree}")
    return PlanarPolyField(P=P.to_bivariate(), Q=Q.to_bivariate(),
                           homogeneous=True, degree=P.degree)


def hamiltonian_field(f: HomogeneousForm) -> PlanarPolyField:
    """The rotated gradient (-f_y, f_x), exact."""
    if f.degree < 1 or f.is_zero:
        raise DegreeZeroError("need a nonzero form of degree >= 1")
    fx, fy = partials(f)
    return _field_from_forms(-fy, fx)


def common_divisor(f: HomogeneousForm,
                   fs: Optional[FactorizationStructure] = None) -> HomogeneousForm:
    """gcd(f_x, f_y), primitive with positive leading coefficient.

    The degree is cross-checked against the certified factor counts: it must
    equal sum(alpha - 1) + 2 sum(beta - 1).  A mismatch would mean the exact
    gcd and the numeric factorization disagree about multiplicity, so it
    raises InvariantError.
    """
    if f.degree < 1 or f.is_zero:
        raise DegreeZeroError("need a nonzero form of degree >= 1")
    fx, fy = partials(f)
    if fx.is_zero and fy.is_zero:
        raise DegreeZeroError("both partials vanish")
    d = gcd_bivariate(fx, fy)
    if fs is None:
        fs = factor_form(f)
    predicted = sum(lf.alpha - 1 for lf in fs.linear) \
        + 2 * sum(qf.beta - 1 for qf in fs.quadratic)
    if d.degree != predicted:
        raise InvariantError(
            f"divisor degree {d.degree} != {predicted} predicted by the factor counts")
    return d


def reduced_field(f: HomogeneousForm,
                  fs: Optional[FactorizationStructure] = None,
                  d: Optional[HomogeneousForm] = None) -> PlanarPolyField:
    """F / D componentwise, by exact division.

    ``d`` is ``common_divisor(f, fs)`` when the caller already has it.  The
    result is homogeneous of degree l + 2k - 1 with coprime components;
    both facts are checked against the certified factorization.
    """
    if f.degree < 1 or f.is_zero:
        raise DegreeZeroError("need a nonzero form of degree >= 1")
    if fs is None:
        fs = factor_form(f)
    fx, fy = partials(f)
    if d is None:
        d = common_divisor(f, fs)
    pr, qr = divide_exact(-fy, d), divide_exact(fx, d)
    expected = fs.l + 2 * fs.k - 1
    if pr.degree != expected or qr.degree != expected:
        raise InvariantError(
            f"reduced degrees {pr.degree}, {qr.degree} != l + 2k - 1 = {expected}")
    if not (pr.is_zero or qr.is_zero) and gcd_bivariate(pr, qr).degree != 0:
        raise InvariantError("reduced components are not coprime")
    return _field_from_forms(pr, qr)


@dataclass(frozen=True)
class PartitionDescription:
    """Which pieces the plane splits into under the reduced flow."""

    case_label: str
    singular_elements: tuple[str, ...]
    regular_elements: tuple[str, ...]
    zero_set_rays: tuple[float, ...]   # 2l sorted angles, empty when l = 0
    f_sign: int                        # sign of f away from its zero set scaling

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
        angles = sorted(a for lf in fs.linear for a in lf.ray_angles())
        rays = tuple(angles)
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
