"""Each internal consistency check raises InvariantError, also under
``python -O``: ``test_invariant_checks_survive_python_O`` in test_cli.py runs
this module in an optimized interpreter."""

import json
from fractions import Fraction

import pytest

import binform.cli as cli
from binform.errors import InvariantError
from binform.hamfield import (
    _field_from_forms,
    common_divisor,
    partition_description,
    reduced_field,
)
from binform.polyring import HomogeneousForm, constant_form
from binform.realfactor import LinearFactor, factor_form
from binform.verdict import TheoremVerdict

XY2 = HomogeneousForm([0, 0, 1, 0])                 # x*y^2, divisor y
FOUR_LINES = HomogeneousForm([0, 1, 0, -1, 0])      # x*y*(x-y)*(x+y)


def test_field_components_of_different_degrees():
    with pytest.raises(InvariantError):
        _field_from_forms(HomogeneousForm([1, 0]), HomogeneousForm([1, 0, 1]))


def test_divisor_degree_against_foreign_counts():
    with pytest.raises(InvariantError):
        common_divisor(XY2, factor_form(HomogeneousForm([1, 0, -1, 0])))


def test_reduced_degree_against_foreign_counts():
    with pytest.raises(InvariantError):
        reduced_field(XY2, factor_form(HomogeneousForm([1, 0, -1, 0])),
                      common_divisor(XY2))


def test_divisor_of_another_form_is_refused():
    # the divisor is read off fs's layers, so fs must be that of f, even
    # where the foreign counts agree: x^2*y has the multiplicities of x*y^2
    with pytest.raises(InvariantError):
        common_divisor(XY2, factor_form(HomogeneousForm([0, 1, 0, 0])))     # x^2*y


def test_a_divisor_that_does_not_divide_the_partials(monkeypatch, capsys):
    # x + y divides neither partial of x*y^2: the proof in reduced_field fails
    with pytest.raises(InvariantError, match="does not divide"):
        reduced_field(XY2, factor_form(XY2), HomogeneousForm([1, 1]))
    monkeypatch.setattr("binform.hamfield.common_divisor",
                        lambda f, fs=None: HomogeneousForm([1, 1]))
    assert cli.main(["hamiltonian", "x*y^2"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err)["error"]["kind"] == "Invariant"


def test_reduced_components_not_coprime():
    # x^2*y^2 with a constant divisor leaves x*y in both components
    f = HomogeneousForm([0, 0, 1, 0, 0])
    with pytest.raises(InvariantError):
        reduced_field(f, factor_form(FOUR_LINES), constant_form(Fraction(1)))


def test_partition_ray_count(monkeypatch):
    fs = factor_form(FOUR_LINES)
    monkeypatch.setattr(LinearFactor, "ray_angles", lambda self: (0.0,))
    with pytest.raises(InvariantError):
        partition_description(FOUR_LINES, fs)


def test_reconstruction_gap_degree():
    fs = factor_form(XY2)
    fs.linear       # enclose for x*y^2 before the form is swapped
    object.__setattr__(fs, "form", FOUR_LINES)
    with pytest.raises(InvariantError):
        fs.reconstruction_gap()


def test_verdict_flag_and_case_disagree():
    with pytest.raises(InvariantError):
        TheoremVerdict(case="D", p=4, l=0, k=2, stab1_ne_stab0=False,
                       chain="StabId^inf = ... = StabId^1 = StabId^0")
    with pytest.raises(InvariantError):
        TheoremVerdict(case="B", p=3, l=2, k=0, stab1_ne_stab0=False,
                       chain="StabId^0")


def test_symmetry_payload_of_unknown_group():
    with pytest.raises(InvariantError):
        cli._symmetry_payload(object())


def test_cli_reports_invariant_with_exit_3(monkeypatch, capsys):
    monkeypatch.setattr("binform.symgroup.symmetry_group", lambda *a, **k: object())
    rc = cli.main(["symmetry", "x^3-3*x*y^2"])
    out, err = capsys.readouterr()
    assert rc == 3
    assert out == ""
    assert json.loads(err)["error"]["kind"] == "Invariant"
