import math
import random
from fractions import Fraction

import pytest

from binform.errors import DegreeZeroError
from binform.hamfield import (
    common_divisor,
    conservation_defect,
    hamiltonian_field,
    partition_description,
    reduced_field,
)
from binform.polyring import HomogeneousForm, gcd_bivariate, partials
from binform.realfactor import factor_form

from genforms import random_product
from oracles import forms_coprime_oracle

F = Fraction


def form(*coeffs):
    return HomogeneousForm(coeffs)


def test_field_of_xy2_exact():
    f = form(0, 0, 1, 0)
    fld = hamiltonian_field(f)
    assert fld.P.terms == {(1, 1): F(-2)}                # -2xy
    assert fld.Q.terms == {(0, 2): F(1)}                 # y^2
    d = common_divisor(f)
    assert d.coefficients() == (F(0), F(1))              # y
    red = reduced_field(f)
    assert red.P.terms == {(1, 0): F(-2)}                # -2x
    assert red.Q.terms == {(0, 1): F(1)}                 # y
    assert red.degree == 1


def test_field_rejects_degree_zero():
    import binform.polyring as pr
    with pytest.raises(DegreeZeroError):
        hamiltonian_field(pr.constant_form(F(3)))


def test_divisor_of_x2y2():
    d = common_divisor(form(0, 0, 1, 0, 0))
    assert d.proportional_to(form(0, 1, 0))              # x y


def test_field_evaluation():
    fld = hamiltonian_field(form(1, 0, 1))               # x^2 + y^2
    assert fld.at(1.0, 0.0) == (0.0, 2.0)
    assert fld.at(0.0, 2.0) == (-4.0, 0.0)


def test_conservation_defect_is_zero_exactly():
    rng = random.Random(31)
    for _ in range(40):
        f = random_product(rng).form
        fld = hamiltonian_field(f)
        assert conservation_defect(f, fld).is_zero
        red = reduced_field(f)
        assert conservation_defect(f, red).is_zero


def test_reduced_degree_identity():
    rng = random.Random(32)
    for _ in range(40):
        s = random_product(rng)
        red = reduced_field(s.form)
        assert red.degree == s.l + 2 * s.k - 1


def test_reduced_components_coprime_by_resultant():
    rng = random.Random(33)
    for _ in range(40):
        s = random_product(rng)
        red = reduced_field(s.form)
        assert forms_coprime_oracle(red.P.to_form() if not red.P.is_zero else None,
                                    red.Q.to_form() if not red.Q.is_zero else None)


def test_resultant_oracle_flags_common_factor():
    # y divides both components of the raw field of x y^2
    fld = hamiltonian_field(form(0, 0, 1, 0))
    assert not forms_coprime_oracle(fld.P.to_form(), fld.Q.to_form())


def test_divisor_matches_multiplicity_count():
    rng = random.Random(34)
    for _ in range(30):
        s = random_product(rng)
        d = common_divisor(s.form)
        want = sum(a - 1 for a in s.line_mults) + 2 * sum(b - 1 for b in s.quad_mults)
        assert d.degree == want


def test_divisor_read_off_the_layers_is_the_gcd_of_the_partials():
    # the gcd of the partials, which the layer product replaced, is the
    # oracle: on seeded products, among them powers of x and repeated
    # quadratics, and on a few pinned ones
    rng = random.Random(35)
    samples = [random_product(rng, max_degree=10).form for _ in range(150)]
    assert sum(f.x_multiplicity() >= 2 for f in samples) >= 5
    assert sum(max(factor_form(f).quad_mults, default=0) >= 2 for f in samples) >= 5
    samples += [form(1, 0, 0), form(0, 0, 0, 1), form(2, 0, 0, 0, 0, 0),
                form(0, 1, 0) * form(1, 0, 1).power(3),
                form(1, 0).power(4) * form(1, 1, 1).power(2) * form(1, -3).power(3)]
    for f in samples:
        assert common_divisor(f) == gcd_bivariate(*partials(f))     # scale and ints


def test_partition_single_line():
    f = form(0, 1)                                        # y
    desc = partition_description(f, factor_form(f))
    assert desc.case_label == "A"
    assert desc.singular_elements == ()
    assert desc.ray_count() == 2


def test_partition_two_lines():
    f = form(0, 0, 1, 0)                                  # x y^2
    desc = partition_description(f, factor_form(f))
    assert desc.case_label == "B"
    assert desc.singular_elements == ("origin",)
    assert desc.ray_count() == 4
    assert len(desc.zero_set_rays) == 4


def test_partition_definite():
    f = form(1, 0, 1)
    desc = partition_description(f, factor_form(f))
    assert desc.case_label == "C"
    assert desc.singular_elements == ("origin",)
    assert desc.ray_count() == 0
    assert desc.f_sign == 1


def test_partition_rays_are_sorted():
    f = form(1, 0, -3, 0)                                 # three lines
    desc = partition_description(f, factor_form(f))
    rays = desc.zero_set_rays
    assert len(rays) == 6
    assert list(rays) == sorted(rays)


def test_ray_angles_stay_below_two_pi():
    # the lines y = +-10^-100 x: (-10^-100) mod 2 pi rounds to 2 pi, which
    # used to come back as the ray of the line y = -10^-100 x
    f = form(1, 0, -10 ** 200)
    fs = factor_form(f)
    for lf in fs.linear:
        assert all(0 <= a < 2 * math.pi for a in lf.ray_angles())
    rays = partition_description(f, fs).zero_set_rays
    assert rays == (0.0, 1e-100, math.pi, math.pi)
