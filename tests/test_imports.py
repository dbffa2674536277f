"""The import contract: no command loads numpy, mpmath, dataclasses or
inspect; each loads binform.mat2, the pair certificate binform.paircert,
csv, binform.polyring and fractions only when its work needs them (the
exact commands hold their forms, roots and pairs in ints, so only the
symmetry and flow commands, whose matrices are exact, load fractions);
and the package's lazy exports are its modules' objects."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import binform

ROOT = Path(__file__).resolve().parent.parent

_PROBE = """
import contextlib, io, json, sys
from binform import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    rc = cli.main(sys.argv[1:])
print(json.dumps([rc, sorted(m for m in ("numpy", "mpmath", "binform.mat2", "binform.paircert",
                                          "binform.polyring", "csv", "dataclasses", "inspect",
                                          "fractions")
                             if m in sys.modules)]))
"""


def _run(code, *argv):
    """The stdout of ``python -c code argv...`` on this checkout's src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    r = subprocess.run([sys.executable, "-c", code, *argv], cwd=ROOT,
                       capture_output=True, text=True, env=env, check=True)
    return r.stdout


def _loaded(*argv):
    return json.loads(_run(_PROBE, *argv))


_POLY, _CERT, _MAT, _FRAC = "binform.polyring", "binform.paircert", "binform.mat2", "fractions"


@pytest.mark.parametrize("argv, rc, loaded", [
    (["decide", "x*y^2"], 0, [_POLY]),
    (["classify", "x*y^2"], 0, [_POLY]),
    (["hamiltonian", "x*y^2"], 0, [_POLY]),
    (["factor", "x*y^2"], 0, [_POLY]),
    (["decide", "x+*y"], 2, []),
    (["factor", "(x^2+y^2)*(x^2+2*y^2)"], 0, [_CERT, _POLY]),
    (["decide", "(x^2+y^2)*(x^2+2*y^2)"], 0, [_POLY]),
    (["classify", "(x^2+y^2)*(x^2+2*y^2)"], 0, [_POLY]),
    (["hamiltonian", "(x^2+y^2)*(x^2+2*y^2)"], 0, [_POLY]),
    (["symmetry", "x*y*(x-y)"], 0, [_MAT, _POLY, _FRAC]),
    (["symmetry", "(x^2+y^2)*(x^2+2*y^2)"], 0, [_MAT, _CERT, _POLY, _FRAC]),
    (["symmetry", "x^2+2*y^2"], 0, [_MAT, _CERT, _POLY, _FRAC]),
    (["portrait", "x^2+y^2", "--res", "16"], 0, [_MAT, _POLY, _FRAC]),
    # the level curves of a form with lines need its lines, not its pairs
    (["portrait", "(x-y)*(x^2+y^2)", "--res", "16"], 0, [_MAT, _POLY, _FRAC]),
    (["dynamics", "x^2+y^2", "--sigma", "x"], 0, [_MAT, _POLY, _FRAC]),
    # a pair 5e-21 i apart certifies only on a later rung
    (["factor", "(x^2+y^2)*(x^2+(1+1/10^20)*y^2)"], 0, [_CERT, _POLY]),
    (["symmetry", "(x^2+y^2)*(x^2+(1+1/10^20)*y^2)"], 0, [_MAT, _CERT, _POLY, _FRAC]),
    # closed orbits need f and its divisor, not the pairs
    (["portrait", "(x^2+y^2)*(x^2+(1+1/10^20)*y^2)", "--res", "16"], 0, [_MAT, _POLY, _FRAC]),
    (["dynamics", "(x^2+y^2)*(x^2+(1+1/10^20)*y^2)", "--sigma", "x"], 0,
     [_MAT, _POLY, _FRAC]),
    # only --seeds reads a csv file
    (["portrait", "x^2+y^2", "--res", "16", "--seeds", "SEEDS"], 0,
     [_MAT, _POLY, "csv", _FRAC]),
    # lines at irrational slopes, a rational one and the axis; a line and a pair
    (["factor", "x*(x-2*y)*(x^2-2*y^2)"], 0, [_POLY]),
    (["factor", "(x-y)*(x^2+x*y+3*y^2)"], 0, [_CERT, _POLY]),
    (["hamiltonian", "1/3*(x-y)^2*(x^2+y^2)^3"], 0, [_POLY]),
    # domain errors: not homogeneous, and a constant
    (["decide", "x+1"], 1, [_POLY]),
    (["factor", "5"], 1, [_POLY]),
])
def test_command_loads_only_what_it_uses(tmp_path, argv, rc, loaded):
    seeds = tmp_path / "seeds.csv"
    seeds.write_text("x,y\n1,0\n")
    assert _loaded(*(str(seeds) if a == "SEEDS" else a for a in argv)) == [rc, loaded]


def test_reconstruction_gap_loads_no_mpmath():
    probe = ("import sys\n"
             "from binform.polyring import HomogeneousForm\n"
             "from binform.realfactor import factor_form\n"
             "f = HomogeneousForm([1, 0, 3, 0, 2]) * HomogeneousForm([-1, 1])\n"
             "print(factor_form(f).reconstruction_gap(), 'mpmath' in sys.modules)")
    assert _run(probe).split() == ["0.0", "False"]


def test_lazy_exports_are_the_module_objects():
    assert binform.__all__ == sorted(set(binform.__all__))
    listed = dir(binform)
    for name in binform.__all__:
        obj = getattr(binform, name)
        assert obj.__module__.startswith("binform."), name
        assert getattr(importlib.import_module(obj.__module__), name) is obj, name
        assert name in listed, name


def test_unknown_export_is_an_attribute_error():
    with pytest.raises(AttributeError):
        binform.no_such_name
    assert not hasattr(binform, "numpy")
