import contextlib
import io
import json
import math
import os
import shlex
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import binform.cli as cli
import binform.dynamics as dynamics
import binform.paircert as paircert
from binform.exprparse import parse_polynomial, to_homogeneous
from binform.polyring import HomogeneousForm, float_kernel, gcd_bivariate, partials
from binform.realfactor import factor_form

from genforms import F27
from oracles import count_calls, count_fractions

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


def test_minus_identity_prints_without_negative_zeros(capsys):
    # -id is the exact negative of the polished identity, built so that its
    # zero entries stay +0.0 and print as 0, not -0
    assert cli.main(["symmetry", "x*y*(x^2+y^2)"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["symmetry"]["n"] == 2
    assert '"generator": [[-1, 0], [0, -1]]' in out


def test_symmetry_family_kinds():
    kinds = {
        "y^3": "shear_family",
        "x^2*y^3": "diagonal_family",
        "(x^2+y^2)^2": "rotation_family",
    }
    for expr, kind in kinds.items():
        out = json.loads(run_cli("symmetry", expr).stdout)
        assert out["symmetry"]["kind"] == kind


@pytest.mark.parametrize("expr, slope", [
    ("x^2-2*y^2", -0.70710678118654757),
    ("x^2-3*y^2", -0.57735026918962573),
])
def test_family_normalizer_slope_is_the_nearest_float(expr, slope):
    # -1/sqrt(2) and -1/sqrt(3) to the last bit, not the midpoint of the
    # enclosure
    out = json.loads(run_cli("symmetry", expr).stdout)
    assert out["symmetry"]["family"]["normalizer"][1] == [slope, slope]


def test_nearly_singular_gram_is_not_positive_definite():
    # c = 1 + 10^-20 rounds to 1, so the float Gram matrix is singular
    r = run_cli("symmetry", "x^2+2*x*y+(1+1/10^20)*y^2")
    assert r.returncode == 1
    assert json.loads(r.stderr)["error"]["kind"] == "NotPositiveDefinite"
    assert r.stdout == ""


@pytest.mark.parametrize("form", ["(x-y)*(x-(1+1/10^17)*y)", "(x-y)*(x-(1+1/10^40)*y)"])
def test_two_lines_with_one_float_direction_are_not_refined(capsys, form):
    # the slopes 1 and 1 + 10^-17 round to the same float, so the case-B
    # normalizer built from them would be singular
    assert cli.main(["symmetry", form]) == 1
    out, err = capsys.readouterr()
    err = json.loads(err)["error"]
    assert out == "" and err["kind"] == "NotRefined"


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


def test_portrait_resolution_is_capped(capsys):
    # 1025 angle samples per turn would be the first request past the cap
    assert cli.main(["portrait", "x^2+y^2", "--res", "1025"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err)["error"]["kind"] == "Usage"


def test_tol_below_the_polish_floor_is_a_usage_error(capsys):
    # no symmetry can verify below the Gauss-Newton stopping defect, so the
    # search would answer n = 1 for a group of order 3
    assert cli.main(["symmetry", "x*y*(x-y)", "--tol", "1e-300"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err)["error"]["kind"] == "Usage"
    assert cli.main(["symmetry", "x*y*(x-y)", "--tol", "1e-15"]) == 0
    out, err = capsys.readouterr()
    sym = json.loads(out)["symmetry"]
    assert sym["n"] == 3 and sym["residual"] < 1e-15


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


def _json_reference(value):
    """The encoder with each string escaped one character at a time."""
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            return '"%s"' % repr(value)
        return format(value, ".17g")
    if isinstance(value, str):
        out = ['"']
        for ch in value:
            if ch in '"\\':
                out.append("\\" + ch)
            elif ord(ch) < 0x20:
                out.append("\\u%04x" % ord(ch))
            else:
                out.append(ch)
        out.append('"')
        return "".join(out)
    if isinstance(value, dict):
        inner = ", ".join(f"{_json_reference(str(k))}: {_json_reference(v)}"
                          for k, v in value.items())
        return "{" + inner + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_json_reference(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


class _Str(str):
    pass


class _Int(int):
    pass


class _Float(float):
    pass


def test_json_bytes_are_those_of_the_per_character_escape():
    chars = "".join(map(chr, range(0x80))) + "\u00e9\u2028\U0001d465"
    value = {chars: [chars, True, False, None, 7, -2.5, 0.1, 1e100,
                     math.nan, math.inf, -math.inf, ("a", [])],
             "subclasses": [_Str('a"b\\c\n'), _Int(12), _Float(0.1), _Float(-math.inf)],
             3: {}}
    text = cli._json(value)
    assert text == _json_reference(value)
    back = json.loads(text)
    assert list(back) == [chars, "subclasses", "3"]
    assert back[chars] == [chars, True, False, None, 7, -2.5, 0.1, 1e100,
                           "nan", "inf", "-inf", ["a", []]]
    assert back["subclasses"] == ['a"b\\c\n', 12, 0.1, "-inf"]
    with pytest.raises(TypeError, match="^cannot serialize set$"):
        cli._json([{1}])


def test_json_of_a_hamiltonian_payload_builds_no_fraction(monkeypatch):
    f = to_homogeneous(parse_polynomial(F27))
    payload = cli._cmd_hamiltonian(f, factor_form(f), F27, None)
    made = count_fractions(monkeypatch)
    text = cli._json(payload)
    assert made == []
    assert json.loads(text)["hamiltonian"]["deg_hFld"] == payload["hamiltonian"]["deg_hFld"]


def test_hamiltonian_factors_once_and_takes_no_gcd_of_partials(monkeypatch, capsys):
    # D is read off the layers of the one factorization; the only bivariate
    # gcd left is the coprimality check of the reduced components
    factor_calls = count_calls(monkeypatch, factor_form)
    gcd_calls = count_calls(monkeypatch, gcd_bivariate)
    assert cli.main(["hamiltonian", "x*y^2"]) == 0
    h = json.loads(capsys.readouterr().out)["hamiltonian"]
    assert h == {"F": ["-2*x*y", "y^2"], "D": "y", "hFld": ["-2*x", "y"], "deg_hFld": 1}
    assert len(factor_calls) == 1
    fx, fy = partials(factor_calls[0][0][0])
    assert (fx, fy) not in [args for args, _ in gcd_calls]
    reduced = (HomogeneousForm([-2, 0]), HomogeneousForm([0, 1]))    # -2*x and y
    assert [args for args, _ in gcd_calls] == [reduced]


_KERNEL_FORMS = ["x*y^2", "(x^2+y^2)*(x^2+2*y^2)", "x^3-3*x*y^2", "(x-y)^3*(x^2+x*y+y^2)"]


@pytest.mark.parametrize("cmd", ["classify", "decide", "hamiltonian", "factor"])
def test_exact_commands_compile_no_float_kernel(monkeypatch, capsys, cmd):
    import binform.dynamics  # noqa: F401  (binds float_kernel before the count)

    calls = count_calls(monkeypatch, float_kernel)
    for form in _KERNEL_FORMS:
        assert cli.main([cmd, form]) == 0
    assert calls == []


def test_a_portrait_compiles_one_kernel_per_object(monkeypatch, capsys):
    """The reduced field (P and Q in one kernel) and f, each once, although
    the field is evaluated at every stage and f at every angle sample."""
    import binform.dynamics  # noqa: F401

    calls = count_calls(monkeypatch, float_kernel)
    assert cli.main(["portrait", "--res", "32", "(x^2+y^2)*(x-y)^2"]) == 0
    assert sorted(len(args) for args, _ in calls) == [1, 2]


def _geometry_round(requests):
    for req in requests:
        for path, text in req["files"].items():
            Path(path).parent.mkdir(parents=True, exist_ok=True)
            Path(path).write_text(text)
        Path("out").mkdir(exist_ok=True)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            cli.main(req["argv"])


def test_a_geometry_round_compiles_one_factory_per_shape(monkeypatch, tmp_path):
    """Seed 1 of the benchmark's geometry workload binds 71 kernels of 10
    shapes; a second round finds every shape compiled."""
    import binform.polyring as polyring

    sys.path.insert(0, str(ROOT))
    try:
        from bench import corpus
    finally:
        sys.path.remove(str(ROOT))
    monkeypatch.chdir(tmp_path)
    requests = corpus.requests("geometry", 1, "out")
    calls = count_calls(monkeypatch, float_kernel)
    polyring._kernel_factory.cache_clear()
    _geometry_round(requests)
    assert (len(calls), polyring._kernel_factory.cache_info().misses) == (71, 10)
    _geometry_round(requests)
    assert (len(calls), polyring._kernel_factory.cache_info().misses) == (142, 10)


@pytest.mark.parametrize("cmd", ["hamiltonian", "decide", "dynamics", "portrait",
                                 "factor", "classify", "symmetry"])
def test_eps_reaches_the_factorization(monkeypatch, capsys, cmd):
    """Every command factors once, in main, at the requested width."""
    opts = ["--res", "16"] if cmd == "portrait" else []
    factor_calls = count_calls(monkeypatch, factor_form)
    assert cli.main([cmd, *opts, "--eps", "1e-6", "(x^2+y^2)*(x-y)^2"]) == 0
    assert [kw.get("eps") for _, kw in factor_calls] == [1e-6]
    monkeypatch.setenv("BINFORM_PRECISION", "1e-9")
    assert cli.main([cmd, *opts, "(x^2+y^2)*(x-y)^2"]) == 0
    assert [kw.get("eps") for _, kw in factor_calls] == [1e-6, 1e-9]


def test_a_closed_orbit_portrait_compiles_the_kernels_of_f_and_d_once(monkeypatch, capsys):
    """f (7 terms) and its divisor D = x^2 + y^2 (3 terms), each once, and
    no field kernel: the orbits are read off the level curves."""
    calls = count_calls(monkeypatch, float_kernel)
    assert cli.main(["portrait", "--res", "32", "(x^2+y^2)^2*(x^2+2*y^2)"]) == 0
    assert sorted([len(terms) for terms in args] for args, _ in calls) == [[3], [7]]


# Eight distinct definite quadratics, degree 16: at (1.9, 1.9) the level is
# 8.7e7 and the period of the orbit 3.4e-8, so a Dormand-Prince run spent its
# whole budget of 10^6 steps and answered StepLimit after 39.5 s.
_STIFF = ("(x^2+x*y+y^2)*(x^2-x*y+y^2)*(x^2+2*y^2)*(2*x^2+y^2)*(x^2+y^2)"
          "*(x^2+x*y+2*y^2)*(2*x^2-x*y+y^2)*(3*x^2+2*x*y+2*y^2)")


def test_a_stiff_closed_orbit_is_read_off_its_level_curve(tmp_path, monkeypatch, capsys):
    steps = count_calls(monkeypatch, dynamics.integrate_flow)
    seeds = tmp_path / "seeds.csv"
    seeds.write_text("x,y\n1.9,1.9\n")
    start = time.perf_counter()
    assert cli.main(["dynamics", _STIFF, "--sigma", "1", "--seeds", str(seeds)]) == 0
    assert time.perf_counter() - start < 1
    (row,) = json.loads(capsys.readouterr().out)["dynamics"]
    assert "error" not in row and len(row["shift"]) == 2
    assert row["f_drift"] <= 1e-12 and 0 <= row["t_err"] < 1e-12
    # 590 million turns in the horizon: each way ends after 10^6 samples
    assert cli.main(["portrait", "--seeds", str(seeds), _STIFF]) == 0
    (orbit,) = json.loads(capsys.readouterr().out)["portrait"]["orbits"]
    assert (orbit["status"], orbit["points"]) == ("step_limit", 2_000_001)
    assert orbit["f_drift"] <= 1e-12
    assert steps == []


@pytest.mark.parametrize("sigma", ["10^20", "10^308", "-10^308"])
def test_a_shift_time_that_floats_cannot_resolve_is_a_step_limit(sigma):
    # on x^2 + y^2 the time error estimate of 10^20 is 2.6 10^4, more than
    # the period 2 pi; 10^308 / scale overflows the angle's time, 2 10^308
    r = subprocess.run([sys.executable, "-m", "binform.cli", "dynamics", "x^2+y^2",
                        f"--sigma={sigma}"], capture_output=True, text=True, timeout=60)
    assert r.returncode == 0
    (row,) = json.loads(r.stdout)["dynamics"]
    assert row["error"] == "StepLimit"


def test_dynamics_integrates_in_the_box_around_the_window(tmp_path, capsys):
    """dynamics and portrait share one integration box, twice the window
    about its centre: --window 1,1,3,3 gives (0,0,4,4), which holds the
    seed (1.5, 1.5) and the rotated point."""
    (tmp_path / "s.csv").write_text("x,y\n1.5,1.5\n")
    assert cli.main(["dynamics", "x^2+y^2", "--window", "1,1,3,3", "--sigma", "1/10",
                     "--seeds", str(tmp_path / "s.csv")]) == 0
    (row,) = json.loads(capsys.readouterr().out)["dynamics"]
    assert "error" not in row
    assert all(0 < v < 4 for v in row["shift"])


def test_dynamics_default_seed_follows_the_window(capsys):
    """Without --seeds, dynamics starts at (cx + (x1 - x0)/4, cy): (1, 0)
    for the default window, and inside any other window.  x^2 + y^2 turns
    at rate 2, so sigma = 1/100 is a rotation by 1/50 that stays in the box
    around --window 5,5,6,6."""
    assert cli.main(["dynamics", "x^2+y^2", "--sigma", "1"]) == 0
    (row,) = json.loads(capsys.readouterr().out)["dynamics"]
    assert row["seed"] == [1.0, 0.0] and "error" not in row
    assert cli.main(["dynamics", "x^2+y^2", "--window", "5,5,6,6", "--sigma", "1/100"]) == 0
    (row,) = json.loads(capsys.readouterr().out)["dynamics"]
    assert row["seed"] == [5.75, 5.5]
    c, s = math.cos(0.02), math.sin(0.02)
    assert row["shift"] == pytest.approx([5.75 * c - 5.5 * s, 5.75 * s + 5.5 * c], abs=1e-9)


def test_a_closed_orbit_of_a_tiny_form_is_no_blowup(capsys):
    """On 10^-300 (x^2 + y^2) the level c and f(u) are both near 10^-300,
    so c * f(u) underflows to 0: read as a sign, it put every point of
    the radial graph at infinity.  dynamics then exited Internal with a
    TypeError, and portrait reported each orbit as a blowup."""
    form = "1/10^300*(x^2+y^2)"
    assert cli.main(["dynamics", form, "--sigma", "1"]) == 0
    (row,) = json.loads(capsys.readouterr().out)["dynamics"]
    assert "error" not in row and row["shift"] == pytest.approx([1.0, 0.0], abs=1e-12)
    assert cli.main(["portrait", form]) == 0
    orbits = json.loads(capsys.readouterr().out)["portrait"]["orbits"]
    assert len(orbits) == 8 and {o["status"] for o in orbits} == {"ok"}


@pytest.mark.parametrize("cmd", ["portrait", "dynamics"])
@pytest.mark.parametrize("row", ["5,0", "1e300,1e300"])
def test_seeds_outside_the_integration_box_are_usage_errors(tmp_path, capsys, cmd, row):
    (tmp_path / "s.csv").write_text(f"x,y\n0.5,0.25\n{row}\n")
    assert cli.main([cmd, "--res", "16", "--seeds", str(tmp_path / "s.csv"), "x*y*(x-y)"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    err = json.loads(err)["error"]
    assert err["kind"] == "Usage"
    assert err["message"] == "--seeds rows must lie in the integration box [-4.0, -4.0, 4.0, 4.0]"


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


@pytest.mark.parametrize("argv, rows", [
    (["symmetry", "x*y*(x-y)", "--tol", "nan"], None),
    (["symmetry", "x*y*(x-y)", "--tol", "inf"], None),
    (["portrait", "x^2+y^2", "--window=-inf,-1,1,1"], None),
    (["portrait", "x^2+y^2", "--window=nan,-1,1,1"], None),
    (["dynamics", "x^2+y^2"], "x,y\nnan,0.5\n"),
    (["dynamics", "x^2+y^2"], "x,y\ninf,0.5\n"),
    (["dynamics", "x^2+y^2"], "x,y\n\xff,0.5\n"),
    (["decide", "x*y^2", "--res", "abc"], None),
    (["portrait", "x*y^2", "--res", "16", "--format", "svg", "--out", "{tmp}/no/p.svg"],
     "x,y\n0.5,0.25\n"),
])
def test_non_finite_and_malformed_flags_are_usage_errors(tmp_path, capsys, argv, rows):
    argv = [a.format(tmp=tmp_path) for a in argv]
    if rows is not None:
        (tmp_path / "s.csv").write_text(rows, encoding="latin-1")   # \xff is not UTF-8
        argv = [*argv, "--seeds", str(tmp_path / "s.csv")]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err)["error"]["kind"] == "Usage"


# argparse reads an argument with a leading minus as an option, so a form
# or a flag value that starts with "-" goes after "--" or joins its flag
# with "=".
@pytest.mark.parametrize("argv, message", [
    (["factor", "-x^2-y^2"], "the following arguments are required: polynomial"),
    (["portrait", "x^2+y^2", "--window", "-3,-3,3,3"], "argument --window: expected one argument"),
    (["dynamics", "x^2+y^2", "--sigma", "-x"], "argument --sigma: expected one argument"),
])
def test_a_leading_minus_reads_as_an_option(capsys, argv, message):
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err)["error"] == {"kind": "Usage", "message": message}


def test_a_leading_minus_passes_after_a_double_dash_or_an_equals_sign(capsys):
    assert cli.main(["factor", "--", "-x^2-y^2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["input"], out["sign"]) == ("-x^2-y^2", -1)
    assert cli.main(["portrait", "x^2+y^2", "--window=-3,-3,3,3", "--res", "16"]) == 0
    assert json.loads(capsys.readouterr().out)["portrait"]["window"] == [-3, -3, 3, 3]
    assert cli.main(["dynamics", "x^2+y^2", "--sigma=-x"]) == 0
    assert json.loads(capsys.readouterr().out)["sigma"] == "-x"


def test_any_other_exception_is_internal_with_exit_3(monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise ValueError("max() arg is an empty sequence")
    monkeypatch.setattr("binform.verdict.decide_theorem", boom)
    assert cli.main(["decide", "x*y^2"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    err = json.loads(err)["error"]
    assert err["kind"] == "Internal"
    assert err["message"] == "ValueError: max() arg is an empty sequence"
    assert err["where"].startswith("test_cli.py:")


@pytest.mark.parametrize("argv, rows", [
    (["dynamics", "x^2+y^2", "--sigma", "x^500*x^300"], "x,y\n2.5,0.1\n"),
    (["portrait", "x^2+y^2", "--window=-1e200,-1e200,1e200,1e200"], None),
    (["dynamics", "x^2+y^2", "--window=-1e200,-1e200,1e200,1e200"], None),
    (["symmetry", "x*y*(10^400*x-y)"], None),
])
def test_float_overflow_is_a_float_range_error(tmp_path, capsys, argv, rows):
    if rows is not None:
        (tmp_path / "s.csv").write_text(rows)
        argv = [*argv, "--seeds", str(tmp_path / "s.csv")]
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    err = json.loads(err)["error"]
    assert err["kind"] == "FloatRange" and "float range" in err["message"]


# The layers are primitive: 10^400*x*y*(x-y) is polished as x*y*(x-y), so
# only a layer's coefficients (as in x*y*(10^400*x-y) above) or a slope can
# leave the float range in symmetry; case B reads its quarter turn off the
# exponents and needs no float of f at all.
@pytest.mark.parametrize("form, kind", [("10^200*10^200*x*y*(x-y)", "finite_cyclic"),
                                        ("10^400*x^2*y^2", "diagonal_family")])
def test_a_huge_content_stays_in_the_float_range(capsys, form, kind):
    assert cli.main(["symmetry", form]) == 0
    sym = json.loads(capsys.readouterr().out)["symmetry"]
    assert sym["kind"] == kind
    if kind == "finite_cyclic":
        assert (sym["n"], sym["generator"], sym["residual"]) == (3, [[0, -1], [1, -1]], 0)
    else:
        assert sym["family"]["quarter_turn_in_group"] is True


# Roots at +-1e-100 and at +-1e-50 i: the counts are exact, and the
# counts-only commands answer on both forms.
@pytest.mark.parametrize("form, case, lk", [("x^2-10^200*y^2", "B", (2, 0)),
                                            ("x^2+10^100*y^2", "C", (0, 1))])
def test_counts_only_commands_answer_on_widely_scaled_roots(capsys, form, case, lk):
    assert cli.main(["classify", form]) == 0
    assert json.loads(capsys.readouterr().out)["case"] == case
    assert cli.main(["decide", form]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["case"], out["l"], out["k"]) == (case, *lk)
    assert cli.main(["hamiltonian", form]) == 0
    h = json.loads(capsys.readouterr().out)["hamiltonian"]
    assert (h["D"], h["deg_hFld"]) == ("1", 1)


# Lines 10^-300 and 10^-400 apart: the isolation's tree is about 1,000 and
# 1,330 levels deep there, and it keeps its own stack.
@pytest.mark.parametrize("gap", [300, 400])
def test_counts_only_commands_answer_on_close_lines(capsys, gap):
    form = f"(x-y)*(x-(1+1/10^{gap})*y)"
    assert cli.main(["classify", form]) == 0
    assert json.loads(capsys.readouterr().out)["case"] == "B"
    assert cli.main(["decide", form]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["case"], out["l"], out["k"]) == ("B", 2, 0)


# Roots 1 +- 10^-250 i: a definite quadratic layer is read off its
# discriminant, but beside a line Descartes' rule counts 0 only on intervals
# about as narrow as the pair's distance from the axis, some 830 levels down.
@pytest.mark.parametrize("form, case, lk", [("(x-y)^2+1/10^500*y^2", "C", (0, 1)),
                                            ("(x+y)*((x-y)^2+1/10^500*y^2)", "E", (1, 1))])
def test_decide_answers_on_a_near_real_pair_within_a_second(capsys, form, case, lk):
    start = time.perf_counter()
    assert cli.main(["decide", form]) == 0
    elapsed = time.perf_counter() - start
    out = json.loads(capsys.readouterr().out)
    assert (out["case"], out["l"], out["k"]) == (case, *lk) and elapsed < 1.0


# The isolation splits at the non-root 0, so the line enclosures of the
# roots +-1e-100 keep the shared endpoint 0 at every width above 1e-100;
# open intervals that only touch are disjoint, so factor answers at eps.
# symmetry encloses each slope apart from 0 before it takes the float.
def test_lines_at_plus_minus_1e_minus_100_are_enclosed(capsys):
    assert cli.main(["factor", "x^2-10^200*y^2"]) == 0
    lines = json.loads(capsys.readouterr().out)["factors"]["linear"]
    (lo1, hi1), (lo2, hi2) = (lf["root_interval"] for lf in lines)
    assert lo1 < -1e-100 < hi1 == 0.0 == lo2 < 1e-100 < hi2
    assert cli.main(["symmetry", "x^2-10^200*y^2"]) == 0
    n = json.loads(capsys.readouterr().out)["symmetry"]["family"]["normalizer"]
    assert sorted(n[1][j] / n[0][j] for j in (0, 1)) == [-1e-100, 1e-100]


# The c of a factor must be a normal float: 10^-330 is below the smallest,
# 10^400 above the largest.  symmetry reads the same enclosures.
@pytest.mark.parametrize("form, message", [
    ("10^330*x^2+y^2", "c is below the normal float range"),
    ("x^2+10^400*y^2", "c is beyond the float range"),
])
def test_factor_on_widely_scaled_roots_is_not_refined(capsys, form, message):
    for command in ("factor", "symmetry"):
        assert cli.main([command, form]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        err = json.loads(err)["error"]
        assert err["kind"] == "NotRefined" and message in err["message"]


def test_the_ends_of_the_normal_float_range_are_exact(capsys):
    """The float range of c is tested on its exact enclosure: c = 2^-1022,
    the least normal float, and c = 2^1023 certify, and their neighbours
    2^-1023 and 2^1024 do not."""
    for form, c in [("2^512*2^510*x^2+y^2", 2.0**-1022), ("x^2+2^512*2^511*y^2", 2.0**1023)]:
        assert cli.main(["factor", form]) == 0
        (quad,) = json.loads(capsys.readouterr().out)["factors"]["quadratic"]
        assert (quad["b"], quad["c"]) == (0.0, c)
    for form, message in [("2^512*2^511*x^2+y^2", "c is below the normal float range"),
                          ("x^2+2^512*2^512*y^2", "c is beyond the float range")]:
        assert cli.main(["factor", form]) == 1
        assert message in json.loads(capsys.readouterr().err)["error"]["message"]


@pytest.mark.parametrize("form", ["(3*x-y)*(x^2-2*y^2)*(x^2+x*y+3*y^2)",
                                  "x*(x-10^40*y)*(7*x^2-3*x*y+1/10^30*y^2)"])
def test_factor_payload_rounds_the_fractions_of_the_enclosures(form):
    """The payload's floats are int true divisions of the held ints, which
    round as float() of the public Fraction views does."""
    fs = factor_form(to_homogeneous(parse_polynomial(form)))
    got = cli._factor_payload(fs)
    assert [lf["root_interval"] for lf in got["linear"] if "root_interval" in lf] == [
        [float(lf.root.lo), float(lf.root.hi)] for lf in fs.linear if not lf.is_axis]
    assert [(q["b"], q["c"]) for q in got["quadratic"]] == [
        (float(qf.b_mid), float(qf.c_mid)) for qf in fs.quadratic]


def test_factor_certifies_a_pair_at_1e_minus_50_i(capsys):
    # the grid of the first rungs rounds the seed 1e-50 i to 0 or leaves c
    # wider than eps; the ladder climbs until the disc certifies c = 1e100
    assert cli.main(["factor", "x^2+10^100*y^2"]) == 0
    quad = json.loads(capsys.readouterr().out)["factors"]["quadratic"]
    assert quad == [{"a": 1.0, "b": 0.0, "c": 1e100, "beta": 1}]


@pytest.mark.parametrize("cmd", ["classify", "decide", "hamiltonian"])
def test_counts_only_commands_certify_no_pair(monkeypatch, capsys, cmd):
    def boom(*args, **kwargs):
        raise AssertionError("a counts-only command certified a pair")
    monkeypatch.setattr(paircert, "_certify_pairs", boom)
    assert cli.main([cmd, "(x^2+y^2)*(x^2+2*y^2)*(x-y)"]) == 0
    assert cli.main([cmd, "(x^2+y^2)*(x^2+2*y^2)"]) == 0
    capsys.readouterr()


# Flag values for the fuzz: about half valid, the rest edge values, non-finite
# numbers and garbage.
_NUMBER = st.sampled_from(["0", "-1", "1e-300", "1e300", "nan", "inf", "-inf",
                           "abc", "", "1/2", "0x10"]) | st.floats(width=32).map(repr)
_COORD = st.floats(-1.5, 1.5).map(repr)
_WINDOW = st.one_of(
    st.sampled_from(["-1,-1,1,1", "-2,-2,2,2", "0,0,1e-300,1e-300"]),
    st.lists(_COORD, min_size=4, max_size=4).map(",".join),
    st.lists(_NUMBER | _COORD, min_size=3, max_size=5).map(",".join))
_SEEDS = st.one_of(
    st.lists(st.tuples(_COORD, _COORD), min_size=1, max_size=2),
    st.lists(st.tuples(_NUMBER | _COORD, _NUMBER | _COORD), max_size=2)).map(
        lambda rows: "x,y\n" + "".join(f"{a},{b}\n" for a, b in rows)) | \
    st.text(max_size=20)
_FLAGS = {
    "--tol": st.sampled_from(["1e-9", "1e-6", "1e-12"]) | _NUMBER,
    "--eps": st.sampled_from(["1e-14", "1e-6", "1e-30"]) | _NUMBER,
    "--window": _WINDOW,
    "--res": st.sampled_from(["16", "16", "20", "8", "-1", "x", "1e2", ""]),
    "--format": st.sampled_from(["json", "json", "svg", "csv", "xml"]),
    "--sigma": st.sampled_from(["y", "x*y", "0", "x+", "1/0"]),
}


@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cmd=st.sampled_from(sorted(cli._COMMANDS) + ["frobnicate"]),
       form=st.sampled_from(["x*y^2", "x*y*(x-y)", "x^2-y^2", "(x^2+y^2)*(x^2-y^2)",
                             "x+*y", "5", "x^2+y^2+1"]),
       flags=st.dictionaries(st.sampled_from(sorted(_FLAGS)), st.just(None), max_size=4)
       .flatmap(lambda d: st.fixed_dictionaries({k: _FLAGS[k] for k in d})),
       seeds=st.just("x,y\n0.5,0.25\n") | _SEEDS, out=st.booleans())
def test_cli_fuzz_gives_json_and_a_documented_exit_code(cmd, form, flags, seeds, out):
    """Every run prints one JSON object: the answer on stdout with exit 0,
    or {"error": ...} on stderr with exit 1, 2 or 3.  A seeds file is always
    given, and orbits of these forms leave the window quickly, so portraits
    stay cheap."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "seeds.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(seeds)
        argv = [cmd, form, *(f"{k}={v}" for k, v in flags.items()), "--seeds", path]
        if out:
            argv += ["--out", os.path.join(tmp, "p.out")]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = cli.main(argv)
    text = stdout.getvalue() if rc == 0 else stderr.getvalue()
    assert (stderr.getvalue() if rc == 0 else stdout.getvalue()) == ""
    assert text.endswith("\n") and text.count("\n") == 1
    obj = json.loads(text)
    if rc == 0:
        assert obj["input"] == form
    else:
        assert rc in (1, 2, 3)
        assert set(obj) == {"error"} and isinstance(obj["error"]["message"], str)


def _readme_examples():
    """(argv, expected stdout) for each "$ binform ..." line of README.md,
    the JSON after it joined back onto one line."""
    examples, lines = [], (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    for i, line in enumerate(lines):
        if line.startswith("$ binform "):
            body = []
            for nxt in lines[i + 1:]:
                if not nxt.strip() or nxt.startswith(("$", "```")):
                    break
                body.append(nxt.strip())
            examples.append((shlex.split(line[len("$ binform "):]),
                             cli._json(json.loads(" ".join(body))) + "\n"))
    return examples


@pytest.mark.parametrize("argv, expected", _readme_examples(),
                         ids=lambda v: " ".join(v) if isinstance(v, list) else "")
def test_readme_examples_print_what_the_readme_shows(argv, expected, capsys):
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    assert (out, err) == (expected, "")


def test_readme_has_examples():
    assert [argv[0] for argv, _ in _readme_examples()] == ["decide", "hamiltonian", "symmetry"]
