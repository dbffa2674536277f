"""Each benchmark check accepts the program's real answer and rejects a
deliberately wrong one.

    PYTHONPATH=src python -m pytest bench/test_checks.py
"""

from __future__ import annotations

import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if os.path.join(ROOT, "src") not in sys.path:
    sys.path.insert(0, os.path.join(ROOT, "src"))

import binform.cli as cli  # noqa: E402

from bench import checks, corpus  # noqa: E402
from bench.worker import _serve_one  # noqa: E402


@pytest.fixture(scope="module")
def geometry(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("bench"))
    reqs = corpus.requests("geometry", 7, out)
    for req in reqs:
        for path, text in req["files"].items():
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
    return {r["id"]: r for r in reqs}


def _exact(rid):
    return next(r for r in corpus.requests("exact", 7, "unused") if r["id"] == rid)


def _run(req):
    rc, out, err = _serve_one(cli, req["argv"])
    assert checks.check(req, rc, out, err) is None, "the real answer must pass"
    return rc, json.loads(out) if out else None, err


def _rejects(req, rc, ans, err="") -> bool:
    return checks.check(req, rc, json.dumps(ans), err) is not None


def _edit(ans, fn):
    ans = json.loads(json.dumps(ans))
    fn(ans)
    return ans


# -- exact commands ----------------------------------------------------------

def test_factor_rejects_extra_line_dropped_quadratic_and_wrong_slope():
    req = _exact("f20-factor")            # axis, two lines and two quadratics
    rc, ans, _ = _run(req)
    extra = {"root_interval": [7.0, 7.0 + 1e-15], "alpha": 1}
    assert _rejects(req, rc, _edit(ans, lambda a: a["factors"]["linear"].append(extra)))
    assert _rejects(req, rc, _edit(ans, lambda a: a["factors"]["quadratic"].pop()))
    assert _rejects(req, rc, _edit(ans, lambda a: a.update(sign=-a["sign"])))

    def move(a):
        lf = next(f for f in a["factors"]["linear"] if "root_interval" in f)
        lf["root_interval"] = [v + 1e-6 for v in lf["root_interval"]]
    assert _rejects(req, rc, _edit(ans, move))

    def bend(a):
        a["factors"]["quadratic"][0]["c"] += 1e-9
    assert _rejects(req, rc, _edit(ans, bend))


def test_classify_and_decide_reject_wrong_counts_and_verdicts():
    req = _exact("f08-classify")          # three quadratics: case D
    rc, ans, _ = _run(req)
    assert _rejects(req, rc, _edit(ans, lambda a: a.update(case="E")))
    req = _exact("f08-decide")
    rc, ans, _ = _run(req)
    assert ans["stab1_ne_stab0"] is True
    assert _rejects(req, rc, _edit(ans, lambda a: a.update(l=a["l"] + 1)))
    assert _rejects(req, rc, _edit(ans, lambda a: a.update(stab1_ne_stab0=False)))
    assert _rejects(req, rc, _edit(
        ans, lambda a: a["verdict"].update(chain="StabId^inf = ... = StabId^1 = StabId^0")))


def test_hamiltonian_rejects_wrong_divisor_field_and_degree():
    req = _exact("f24-hamiltonian")       # lines 1, 2, 3 and quadratics 2, 1
    rc, ans, _ = _run(req)
    assert _rejects(req, rc, _edit(ans, lambda a: a["hamiltonian"].update(D="1")))
    assert _rejects(req, rc, _edit(
        ans, lambda a: a["hamiltonian"].update(deg_hFld=a["hamiltonian"]["deg_hFld"] + 1)))

    def double(a):
        h = a["hamiltonian"]
        h["hFld"] = [f"2*{h['hFld'][0]}" if not h["hFld"][0].startswith("-")
                     else h["hFld"][0], h["hFld"][1]]
    assert _rejects(req, rc, _edit(ans, double))
    assert _rejects(req, rc, _edit(ans, lambda a: a["hamiltonian"]["F"].reverse()))


# -- symmetry groups ---------------------------------------------------------

def test_finite_group_rejects_wrong_order_and_perturbed_element(geometry):
    for rid in ("named-sym-two-quads", "ladder-2", "ladder-3"):
        req = geometry[rid]
        rc, ans, _ = _run(req)
        sym = lambda a: a["symmetry"]           # noqa: E731
        assert _rejects(req, rc, _edit(ans, lambda a: sym(a).update(n=sym(a)["n"] + 1)))
        assert _rejects(req, rc, _edit(ans, lambda a: sym(a).update(n=sym(a)["n"] - 1)))

        def perturb(a):
            a["symmetry"]["generator"][0][1] += 1e-4
        assert _rejects(req, rc, _edit(ans, perturb))

        def scale(a):
            a["symmetry"]["generator"] = [[2 * v for v in row]
                                          for row in a["symmetry"]["generator"]]
        assert _rejects(req, rc, _edit(ans, scale))


def test_pinned_order_is_enforced(geometry):
    req = dict(geometry["named-sym-two-quads"])
    rc, ans, _ = _run(req)
    req["truth"] = dict(req["truth"], order=2)
    assert _rejects(req, rc, ans)


def test_family_rejects_wrong_kind_normalizer_and_flags(geometry):
    for rid in ("family-00", "family-04", "family-14"):      # cases A, B, C
        req = geometry[rid]
        rc, ans, _ = _run(req)
        assert _rejects(req, rc, _edit(ans, lambda a: a["symmetry"].update(kind="finite_cyclic")))

        def skew(a):
            a["symmetry"]["family"]["normalizer"][1][0] += 0.25
        assert _rejects(req, rc, _edit(ans, skew))
    req = geometry["family-04"]
    rc, ans, _ = _run(req)
    flag = ans["symmetry"]["family"]["quarter_turn_in_group"]
    assert _rejects(req, rc, _edit(
        ans, lambda a: a["symmetry"]["family"].update(quarter_turn_in_group=not flag)))


# -- flows -------------------------------------------------------------------

def _rewrite(path, fn):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(fn(text))
    return text


def test_portrait_csv_and_svg_reject_a_point_off_the_level(geometry):
    for rid in ("portrait-00", "portrait-01"):                  # csv, svg
        req = geometry[rid]
        rc, ans, _ = _run(req)
        path = req["truth"]["path"]

        def nudge(text):
            if req["truth"]["fmt"] == "csv":
                lines = text.splitlines()
                i = next(i for i, ln in enumerate(lines) if ln.startswith("orbit,0,")) + 5
                kind, oid, t, x, y = lines[i].split(",")
                lines[i] = ",".join((kind, oid, t, repr(float(x) * 1.01), y))
                return "\n".join(lines) + "\n"
            head, _, rest = text.partition('<polyline points="')
            first, _, tail = rest.partition(" ")
            x, y = first.split(",")
            return f'{head}<polyline points="{float(x) * 1.01 + 0.01:.6g},{y} {tail}'
        original = _rewrite(path, nudge)
        try:
            assert _rejects(req, rc, ans)
        finally:
            _rewrite(path, lambda _: original)
        assert not _rejects(req, rc, ans)


def test_shift_rejects_a_moved_point_and_wrong_regularity(geometry):
    for rid in ("shift-00", "shift-01"):            # closed-form rotation, conservation
        req = geometry[rid]
        rc, ans, _ = _run(req)

        def move(a):
            sx, sy = a["dynamics"][0]["shift"]
            a["dynamics"][0]["shift"] = [sx * 1.001, sy]
        assert _rejects(req, rc, _edit(ans, move))
        assert _rejects(req, rc, _edit(
            ans, lambda a: a["dynamics"][1].update(regularity="folding")))


# -- malformed input ---------------------------------------------------------

def test_error_check_reads_kind_exit_code_and_offset():
    req = corpus._req("bad", ["factor", "x+*y"], "error",
                      {"kind": "ExprSyntax", "exit": 2, "offsets": (2, 3)})
    rc, _, err = _run(req)
    e = json.loads(err)
    assert checks.check(req, 1, "", err) is not None
    for change in ({"kind": "UnknownIdentifier"}, {"offset": 3}):
        wrong = json.dumps({"error": dict(e["error"], **change)})
        assert checks.check(req, rc, "", wrong) is not None
    assert checks.check(req, rc, "", "Traceback ...\nZeroDivisionError: x\n") is not None

