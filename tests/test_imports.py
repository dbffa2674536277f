"""The import contract: no command loads numpy, each loads mpmath and
binform.mat2 only when its work needs them, and the package's lazy exports
are its modules' objects."""

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
print(json.dumps([rc, sorted(m for m in ("numpy", "mpmath", "binform.mat2")
                             if m in sys.modules)]))
"""


def _loaded(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    r = subprocess.run([sys.executable, "-c", _PROBE, *argv], cwd=ROOT,
                       capture_output=True, text=True, env=env, check=True)
    return json.loads(r.stdout)


@pytest.mark.parametrize("argv, rc, loaded", [
    (["decide", "x*y^2"], 0, []),
    (["classify", "x*y^2"], 0, []),
    (["hamiltonian", "x*y^2"], 0, []),
    (["factor", "x*y^2"], 0, []),
    (["decide", "x+*y"], 2, []),
    (["factor", "(x^2+y^2)*(x^2+2*y^2)"], 0, []),
    (["decide", "(x^2+y^2)*(x^2+2*y^2)"], 0, []),
    (["classify", "(x^2+y^2)*(x^2+2*y^2)"], 0, []),
    (["hamiltonian", "(x^2+y^2)*(x^2+2*y^2)"], 0, []),
    (["symmetry", "x*y*(x-y)"], 0, ["binform.mat2"]),
    (["symmetry", "(x^2+y^2)*(x^2+2*y^2)"], 0, ["binform.mat2"]),
    (["symmetry", "x^2+2*y^2"], 0, ["binform.mat2"]),
    (["portrait", "x^2+y^2", "--res", "16"], 0, ["binform.mat2"]),
    (["dynamics", "x^2+y^2", "--sigma", "x"], 0, ["binform.mat2"]),
])
def test_command_loads_only_what_it_uses(argv, rc, loaded):
    assert _loaded(*argv) == [rc, loaded]


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
