import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import binform.cli as cli
from binform.polyring import gcd_bivariate, partials
from binform.realfactor import factor_form

from oracles import count_calls

ROOT = Path(__file__).resolve().parent.parent


def run_cli(*args, env_extra=None):
    import os
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "binform.cli", *args],
                          capture_output=True, text=True, env=env)


def test_decide_case_b():
    r = run_cli("decide", "x*y^2")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["case"] == "B"
    assert out["stab1_ne_stab0"] is False
    assert (out["l"], out["k"], out["p"]) == (2, 0, 3)
    assert out["verdict"]["chain"].endswith("= StabId^0")


def test_decide_case_d():
    out = json.loads(run_cli("decide", "(x^2+y^2)*(x^2+2*y^2)").stdout)
    assert out["case"] == "D"
    assert out["stab1_ne_stab0"] is True
    assert out["verdict"]["chain"].endswith("!= StabId^0")


def test_hamiltonian_golden():
    out = json.loads(run_cli("hamiltonian", "x*y^2").stdout)
    h = out["hamiltonian"]
    assert h["F"] == ["-2*x*y", "y^2"]
    assert h["D"] == "y"
    assert h["hFld"] == ["-2*x", "y"]
    assert h["deg_hFld"] == 1


def test_factor_output():
    out = json.loads(run_cli("factor", "(x^2+y^2)*(x^2+2*y^2)").stdout)
    assert out["degree"] == 4
    assert out["sign"] == 1
    assert out["factors"]["linear"] == []
    quads = out["factors"]["quadratic"]
    assert len(quads) == 2
    assert sorted(q["beta"] for q in quads) == [1, 1]
    assert sorted(round(q["c"], 6) for q in quads) == [1.0, 2.0]


def test_classify():
    out = json.loads(run_cli("classify", "y^3").stdout)
    assert out["case"] == "A"


def test_symmetry_finite():
    out = json.loads(run_cli("symmetry", "x^3-3*x*y^2").stdout)
    sym = out["symmetry"]
    assert sym["kind"] == "finite_cyclic"
    assert sym["n"] == 3
    assert sym["residual"] < 1e-9
    gen = sym["generator"]
    assert len(gen) == 2 and len(gen[0]) == 2


def test_symmetry_family_kinds():
    kinds = {
        "y^3": "shear_family",
        "x^2*y^3": "diagonal_family",
        "(x^2+y^2)^2": "rotation_family",
    }
    for expr, kind in kinds.items():
        out = json.loads(run_cli("symmetry", expr).stdout)
        assert out["symmetry"]["kind"] == kind


def test_not_homogeneous_is_domain_error():
    r = run_cli("decide", "x^2 - y")
    assert r.returncode == 1
    err = json.loads(r.stderr)["error"]
    assert err["kind"] == "NotHomogeneous"
    assert err["degrees"] == [1, 2]
    assert r.stdout == ""


def test_zero_polynomial_is_its_own_error():
    r = run_cli("decide", "0*x")
    assert r.returncode == 1
    err = json.loads(r.stderr)["error"]
    assert err["kind"] == "ZeroPolynomial"
    assert "degrees" not in err
    assert r.stdout == ""


def test_parse_error_exit_code():
    r = run_cli("decide", "x^2 - y^-1")
    assert r.returncode == 2
    err = json.loads(r.stderr)["error"]
    assert err["kind"] == "NegativeExponent"
    assert err["offset"] == 8
    r = run_cli("decide", "1/0*x")
    assert r.returncode == 2
    err = json.loads(r.stderr)["error"]
    assert err["kind"] == "ExprSyntax"
    assert err["offset"] == 0


@pytest.mark.parametrize("cmd", ["factor", "classify", "symmetry", "decide"])
def test_constant_is_degree_zero_error(cmd):
    r = run_cli(cmd, "5")
    assert r.returncode == 1
    assert json.loads(r.stderr)["error"]["kind"] == "DegreeZero"


def test_unknown_command_rejected():
    r = run_cli("frobnicate", "x")
    assert r.returncode == 2


def test_window_validation():
    r = run_cli("portrait", "x^2+y^2", "--window", "1,2")
    assert r.returncode == 2
    assert json.loads(r.stderr)["error"]["kind"] == "Usage"


def test_env_precision_override():
    r = run_cli("classify", "x^2+y^2", env_extra={"BINFORM_PRECISION": "1e-30"})
    assert r.returncode == 0
    bad = run_cli("classify", "x", env_extra={"BINFORM_PRECISION": "huge"})
    assert bad.returncode == 2


def test_eps_flag_beats_env():
    r = run_cli("classify", "x^2+y^2", "--eps", "1e-20",
                env_extra={"BINFORM_PRECISION": "not-a-number"})
    # the flag makes the env var irrelevant, so no usage error
    assert r.returncode == 0


def test_portrait_writes_svg(tmp_path):
    out_path = tmp_path / "p.svg"
    r = run_cli("portrait", "x^2+y^2", "--res", "64",
                "--format", "svg", "--out", str(out_path))
    assert r.returncode == 0
    body = out_path.read_text()
    assert body.startswith("<?xml")
    assert "<polyline" in body and "</svg>" in body
    summary = json.loads(r.stdout)
    assert summary["portrait"]["files"] == [str(out_path)]


def test_portrait_writes_csv(tmp_path):
    out_path = tmp_path / "p.csv"
    r = run_cli("portrait", "x*y^2", "--res", "64",
                "--format", "csv", "--out", str(out_path))
    assert r.returncode == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "kind,id,t_or_level,x,y"
    assert any(ln.startswith("orbit,") for ln in lines)
    assert any(ln.startswith("singular,") for ln in lines)


def test_portrait_resolution_checked_before_work():
    r = run_cli("portrait", "x^2+y^2", "--res", "8")
    assert r.returncode == 2
    assert json.loads(r.stderr)["error"]["kind"] == "Usage"


def test_portrait_format_requires_out():
    r = run_cli("portrait", "x^2+y^2", "--format", "svg")
    assert r.returncode == 2


def test_dynamics_with_seed_file(tmp_path):
    seeds = tmp_path / "seeds.csv"
    seeds.write_text("x,y\n1.0,0.0\n0.5,0.5\n")
    r = run_cli("dynamics", "x^2+y^2", "--sigma", "x", "--seeds", str(seeds))
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert len(out["dynamics"]) == 2
    for row in out["dynamics"]:
        assert row["regularity"] in ("regular", "degenerate", "folding")
        assert "shift" in row


def test_dynamics_bad_seed_file(tmp_path):
    seeds = tmp_path / "seeds.csv"
    seeds.write_text("a,b\n1,2\n")
    r = run_cli("dynamics", "x^2+y^2", "--seeds", str(seeds))
    assert r.returncode == 2


def test_float_seventeen_digits():
    out = run_cli("symmetry", "(x^2+y^2)*(x^2+2*y^2)").stdout
    gen = json.loads(out)["symmetry"]["generator"]
    big = max(abs(v) for row in gen for v in row)
    # 2^(1/4) serialized losslessly
    assert big == 1.189207115002721


def test_json_round_trips_through_stdlib():
    for cmd, expr in [("factor", "x*y^2"), ("symmetry", "y^3"),
                      ("hamiltonian", "x^2*y^3"), ("decide", "x^4-y^4")]:
        r = run_cli(cmd, expr)
        assert r.returncode == 0
        json.loads(r.stdout)


def test_hamiltonian_factors_once_and_takes_one_gcd_of_partials(monkeypatch, capsys):
    factor_calls = count_calls(monkeypatch, factor_form)
    gcd_calls = count_calls(monkeypatch, gcd_bivariate)
    assert cli.main(["hamiltonian", "x*y^2"]) == 0
    h = json.loads(capsys.readouterr().out)["hamiltonian"]
    assert h == {"F": ["-2*x*y", "y^2"], "D": "y", "hFld": ["-2*x", "y"], "deg_hFld": 1}
    assert len(factor_calls) == 1
    fx, fy = partials(factor_calls[0][0][0])
    assert sum(1 for args, _ in gcd_calls if args == (fx, fy)) == 1


@pytest.mark.parametrize("cmd", ["hamiltonian", "decide", "dynamics", "portrait"])
def test_eps_reaches_the_factorization(monkeypatch, capsys, cmd):
    opts = ["--res", "16"] if cmd == "portrait" else []
    factor_calls = count_calls(monkeypatch, factor_form)
    assert cli.main([cmd, *opts, "--eps", "1e-6", "(x^2+y^2)*(x-y)^2"]) == 0
    assert [kw.get("eps") for _, kw in factor_calls] == [1e-6]
    monkeypatch.setenv("BINFORM_PRECISION", "1e-9")
    assert cli.main([cmd, *opts, "(x^2+y^2)*(x-y)^2"]) == 0
    assert [kw.get("eps") for _, kw in factor_calls] == [1e-6, 1e-9]


def test_invariant_checks_survive_python_O():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    r = subprocess.run([sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
                        str(ROOT / "tests" / "test_invariants.py")],
                       cwd=ROOT, capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stdout[-3000:]
    h = subprocess.run([sys.executable, "-O", "-m", "binform.cli", "hamiltonian", "x*y^2"],
                       cwd=ROOT, capture_output=True, text=True, env=env)
    assert h.returncode == 0, h.stderr
    assert json.loads(h.stdout)["hamiltonian"] == \
        {"F": ["-2*x*y", "y^2"], "D": "y", "hFld": ["-2*x", "y"], "deg_hFld": 1}
