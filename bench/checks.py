"""Independent checks of the program's answers.

Each check reads one request's exit code, stdout and stderr and compares
them with the truth the request was built from (corpus.py), using exact
Fraction arithmetic from poly.py and, for float answers, mpmath at 30
digits.  Nothing here imports the package under test.  A check returns
None when the answer is right and a one-line reason when it is wrong.
"""

from __future__ import annotations

import csv
import io
import json
import math
import xml.etree.ElementTree as ET
from fractions import Fraction

import mpmath

from . import poly as P

F = Fraction
SYM_TOL = 1e-9          # the program's default --tol
MAT_TOL = 1e-6          # matrix equality, as the program's own -I test
ROOT_WIDTH = 2e-14      # the program's default enclosure width is 1e-14
FLOW_TOL = 1e-6         # f drift along an orbit, relative to 1 + |f(seed)|; the
                        # integrator's rel_tol 1e-9 over 4000 steps gives up to ~2e-7
SHIFT_TOL = 1e-6        # distance to the closed-form rotation
SVG_TOL = 1e-4          # SVG coordinates carry 6 significant digits;
                        # this bounds the change of f relative to its terms


class Wrong(Exception):
    pass


def _require(cond: bool, why: str) -> None:
    if not cond:
        raise Wrong(why)


def check(req: dict, rc: int, out: str, err: str):
    """None if the answer to req is right, else the reason it is wrong."""
    try:
        _CHECKS[req["check"]](req["argv"], req["truth"], rc, out, err)
    except Wrong as e:
        return str(e)
    except (ValueError, KeyError, TypeError, IndexError, ArithmeticError,
            ET.ParseError) as e:
        return f"unreadable answer: {type(e).__name__}: {e}"
    return None


# ---------------------------------------------------------------------------
# structure from the truth

def _form(truth) -> dict:
    coeffs = [F(c) for c in truth["coeffs"]]
    p = len(coeffs) - 1
    return {(p - j, j): c for j, c in enumerate(coeffs) if c}


def _mults(truth) -> tuple[list[int], list[int]]:
    if "lines" in truth:
        return [a for _, a in truth["lines"]], [m for _, _, m in truth["quads"]]
    return list(truth["alphas"]), list(truth["betas"])


def case_of(l: int, k: int) -> str:
    if (l, k) == (1, 0):
        return "A"
    if (l, k) == (2, 0):
        return "B"
    if (l, k) == (0, 1):
        return "C"
    if l == 0 and k >= 2:
        return "D"
    if l >= 1 and l + 2 * k >= 3:
        return "E"
    raise Wrong(f"no case for (l, k) = ({l}, {k})")


def _answer(rc: int, out: str) -> dict:
    _require(rc == 0, f"exit code {rc}, expected 0")
    return json.loads(out)


# ---------------------------------------------------------------------------
# exact commands: factor, classify, decide, hamiltonian

def check_form(argv, truth, rc, out, err) -> None:
    ans = _answer(rc, out)
    cmd = argv[0]
    _require(ans["input"] == argv[-1], "input echoed wrongly")
    _require(ans["degree"] == truth["degree"],
             f"degree {ans['degree']}, expected {truth['degree']}")
    alphas, betas = _mults(truth)
    l, k = len(alphas), len(betas)
    if cmd == "factor":
        _check_factors(ans, truth, alphas, betas)
    elif cmd == "classify":
        _require(ans["case"] == case_of(l, k), f"case {ans['case']}, expected {case_of(l, k)}")
    elif cmd == "decide":
        _check_verdict(ans, truth, l, k)
    elif cmd == "hamiltonian":
        _check_hamiltonian(ans["hamiltonian"], truth, alphas, betas)
    else:
        raise Wrong(f"no form check for {cmd}")


def _check_factors(ans, truth, alphas, betas) -> None:
    _require(ans["sign"] == truth["sign"], f"sign {ans['sign']}, expected {truth['sign']}")
    lin, quad = ans["factors"]["linear"], ans["factors"]["quadratic"]
    _require(len(lin) == len(alphas), f"l = {len(lin)}, expected {len(alphas)}")
    _require(len(quad) == len(betas), f"k = {len(quad)}, expected {len(betas)}")
    _require(sorted(f["alpha"] for f in lin) == sorted(alphas), "line multiplicities differ")
    _require(sorted(f["beta"] for f in quad) == sorted(betas), "quadratic multiplicities differ")
    for f in lin:
        if "root_interval" in f:
            lo, hi = f["root_interval"]
            _require(0 <= hi - lo <= ROOT_WIDTH * (1 + abs(lo)), f"root interval {lo, hi} too wide")
    if "lines" not in truth:
        return
    free = list(lin)
    for t, alpha in truth["lines"]:
        hit = None
        for f in free:
            if t is None:
                if f.get("direction") == "x":
                    hit = f
            elif "root_interval" in f:
                lo, hi = f["root_interval"]
                slack = 1e-15 * (1 + abs(float(F(t))))
                if lo - slack <= F(t) <= hi + slack:
                    hit = f
            if hit:
                break
        _require(hit is not None, f"no reported line holds the slope {t}")
        _require(hit["alpha"] == alpha, f"line {t} has alpha {hit['alpha']}, expected {alpha}")
        free.remove(hit)
    free = list(quad)
    for b, c, beta in truth["quads"]:
        b, c = F(b), F(c)
        hit = None
        for q in free:
            if (q["a"] == 1 and abs(F(q["b"]) - b) <= 1e-13 * (1 + abs(b))
                    and abs(F(q["c"]) - c) <= 1e-13 * (1 + abs(c))):
                hit = q
                break
        _require(hit is not None, f"no reported quadratic near x^2 + {b} xy + {c} y^2")
        _require(hit["beta"] == beta, f"quadratic ({b}, {c}) has beta {hit['beta']}, expected {beta}")
        free.remove(hit)


def _check_verdict(ans, truth, l, k) -> None:
    split = l == 0 and k >= 2
    _require((ans["l"], ans["k"]) == (l, k), f"(l, k) = ({ans['l']}, {ans['k']}), expected ({l}, {k})")
    _require(ans["p"] == truth["degree"], "p differs from the degree")
    _require(ans["case"] == case_of(l, k), f"case {ans['case']}, expected {case_of(l, k)}")
    _require(ans["stab1_ne_stab0"] is split and ans["verdict"]["stab1_ne_stab0"] is split,
             f"verdict {ans['stab1_ne_stab0']}, expected {split}")
    chain = "StabId^inf = ... = StabId^1 " + ("!=" if split else "=") + " StabId^0"
    _require(ans["verdict"]["chain"] == chain, f"chain {ans['verdict']['chain']!r}")


def _check_hamiltonian(ham, truth, alphas, betas) -> None:
    f = _form(truth)
    fx, fy = P.dx(f), P.dy(f)
    Fp, Fq = (P.parse_canonical(s) for s in ham["F"])
    D = P.parse_canonical(ham["D"])
    hp, hq = (P.parse_canonical(s) for s in ham["hFld"])
    l, k = len(alphas), len(betas)
    _require(ham["deg_hFld"] == l + 2 * k - 1,
             f"deg_hFld {ham['deg_hFld']}, expected l + 2k - 1 = {l + 2 * k - 1}")
    _require(P.degree(hp) in (-1, l + 2 * k - 1) and P.degree(hq) in (-1, l + 2 * k - 1),
             "hFld components have the wrong degree")
    want_d = sum(a - 1 for a in alphas) + 2 * sum(b - 1 for b in betas)
    _require(max(P.degree(D), 0) == want_d, f"deg D {P.degree(D)}, expected {want_d}")
    _require(Fp == P.scale(fy, -1) and Fq == fx, "F is not (-f_y, f_x)")
    _require(D and P.divides(D, fx) and P.divides(D, fy), "D does not divide both partials")
    _require(P.mul(D, hp) == Fp and P.mul(D, hq) == Fq, "F != D * hFld")
    _require(not P.add(P.mul(fx, hp), P.mul(fy, hq)), "f_x P + f_y Q != 0 for hFld")


# ---------------------------------------------------------------------------
# symmetry groups, in mpmath

def _mp_compose(coeffs, a, b, c, d):
    """Coefficients of f(a x + b y, c x + d y), x-power first."""
    p = len(coeffs) - 1
    out = [mpmath.mpf(0)] * (p + 1)
    for i, ci in enumerate(coeffs):
        if not ci:
            continue
        u = [mpmath.binomial(p - i, s) * a ** (p - i - s) * b ** s for s in range(p - i + 1)]
        v = [mpmath.binomial(i, t) * c ** (i - t) * d ** t for t in range(i + 1)]
        for s, cu in enumerate(u):
            for t, cv in enumerate(v):
                out[s + t] += ci * cu * cv
    return out


def invariance_defect(truth, h) -> float:
    """The program's residual, recomputed: the largest coefficient distance
    between f o h and f, each scaled to unit max norm."""
    with mpmath.workdps(30):
        fc = [mpmath.mpf(F(c).numerator) / F(c).denominator for c in truth["coeffs"]]
        comp = _mp_compose(fc, *(mpmath.mpf(v) for v in (h[0][0], h[0][1], h[1][0], h[1][1])))
        mf, mc = max(abs(v) for v in fc), max(abs(v) for v in comp)
        if mc == 0:
            return math.inf
        return float(max(abs(x / mc - y / mf) for x, y in zip(comp, fc)))


def _mat(m):
    return mpmath.matrix([[mpmath.mpf(m[0][0]), mpmath.mpf(m[0][1])],
                          [mpmath.mpf(m[1][0]), mpmath.mpf(m[1][1])]])


def _rows(m):
    return [[m[0, 0], m[0, 1]], [m[1, 0], m[1, 1]]]


def _dist(m, target) -> float:
    return float(max(abs(m[i, j] - target[i][j]) for i in range(2) for j in range(2)))


def check_symmetry(argv, truth, rc, out, err) -> None:
    ans = _answer(rc, out)
    alphas, betas = _mults(truth)
    l, k = len(alphas), len(betas)
    case = case_of(l, k)
    _require(ans["case"] == case, f"case {ans['case']}, expected {case}")
    sym = ans["symmetry"]
    with mpmath.workdps(30):
        if case in "DE":
            _check_finite(sym, truth, l)
        else:
            _check_family(sym, truth, case, alphas)


def _check_finite(sym, truth, l) -> None:
    _require(sym["kind"] == "finite_cyclic", f"kind {sym['kind']} for a finite case")
    n = sym["n"]
    _require(isinstance(n, int) and n >= 1, f"order {n}")
    if "order" in truth:
        _require(n == truth["order"], f"order {n}, expected {truth['order']}")
    if l >= 2:
        _require((2 * l) % n == 0, f"order {n} does not divide 2l = {2 * l}")
    g = _mat(sym["generator"])
    # a finite-order element of GL+(2) has determinant 1; this also pins the
    # scale, which the scaled residual does not see
    _require(abs(mpmath.det(g) - 1) < MAT_TOL, f"det of the generator is {mpmath.det(g)}")
    eye = [[1, 0], [0, 1]]
    minus = [[-1, 0], [0, -1]]
    elem = mpmath.eye(2)
    has_minus = False
    for j in range(1, n + 1):
        elem = elem * g
        if j < n:
            _require(_dist(elem, eye) > MAT_TOL, f"generator has order {j} < n = {n}")
            defect = invariance_defect(truth, _rows(elem))
            _require(defect < SYM_TOL, f"element g^{j} moves f by {defect:.3g}")
        has_minus = has_minus or _dist(elem, minus) < MAT_TOL
    # closure: g^n = I, so the powers of g are closed under products
    _require(_dist(elem, eye) < MAT_TOL, "g^n is not the identity")
    even = truth["degree"] % 2 == 0
    _require(has_minus == even, f"-I in group is {has_minus}, degree parity says {even}")


def _family_members(sym, case):
    nrm = _mat(sym["family"]["normalizer"])
    inv = nrm ** -1
    if case == "A":
        inner = [[1.5, 0.7], [0, 1]], [[0.5, -1.25], [0, 1]]
    elif case == "B":
        ax, ay = sym["family"]["alpha_x"], sym["family"]["alpha_y"]
        inner = [[[mpmath.exp(ay * t), 0], [0, mpmath.exp(-ax * t)]] for t in (0.3, -0.7)]
    else:
        inner = [[[mpmath.cos(t), -mpmath.sin(t)], [mpmath.sin(t), mpmath.cos(t)]]
                 for t in (0.4, 2.1)]
    return [_rows(nrm * _mat(m) * inv) for m in inner], nrm, inv


def _check_family(sym, truth, case, alphas) -> None:
    kind = {"A": "shear_family", "B": "diagonal_family", "C": "rotation_family"}[case]
    _require(sym["kind"] == kind, f"kind {sym['kind']}, expected {kind}")
    fam = sym["family"]
    if case == "A":
        parity = "even" if alphas[0] % 2 == 0 else "odd"
        _require(fam["parity"] == parity, f"parity {fam['parity']}, expected {parity}")
        _require(fam["components"] == (2 if parity == "even" else 1), "component count")
    if case == "B":
        _require(sorted((fam["alpha_x"], fam["alpha_y"])) == sorted(alphas),
                 "alpha_x, alpha_y differ from the line multiplicities")
    members, nrm, inv = _family_members(sym, case)
    for h in members:
        defect = invariance_defect(truth, h)
        _require(defect < SYM_TOL, f"family member moves f by {defect:.3g}")
    if case == "B":
        qt = _rows(nrm * _mat([[0, -1], [1, 0]]) * inv)
        inside = invariance_defect(truth, qt) < SYM_TOL
        _require(fam["quarter_turn_in_group"] is inside,
                 f"quarter_turn_in_group {fam['quarter_turn_in_group']}, expected {inside}")


# ---------------------------------------------------------------------------
# flows: portraits and shift maps

def _f_float(truth, absolute=False):
    """f as a float function; with absolute, the sum of the absolute values
    of its terms, which bounds how far rounded coordinates move f."""
    coeffs = [abs(float(F(c))) if absolute else float(F(c)) for c in truth["coeffs"]]
    p = len(coeffs) - 1

    def f(x: float, y: float) -> float:
        if absolute:
            x, y = abs(x), abs(y)
        return sum(c * x ** (p - j) * y ** j for j, c in enumerate(coeffs) if c)
    return f


def check_portrait(argv, truth, rc, out, err) -> None:
    ans = _answer(rc, out)["portrait"]
    f = _f_float(truth)
    seeds = [tuple(s) for s in truth["seeds"]]
    _require(ans["files"] == [truth["path"]], f"files {ans['files']}")
    _require([tuple(o["seed"]) for o in ans["orbits"]] == seeds, "orbit seeds differ")
    levels = sorted(set(round(f(*s), 12) for s in seeds))
    _require(len(ans["levels"]) == len(levels)
             and all(abs(a - b) <= 1e-9 * (1 + abs(b)) for a, b in zip(ans["levels"], levels)),
             f"levels {ans['levels']}, expected {levels}")
    with open(truth["path"], encoding="utf-8") as fh:
        text = fh.read()
    if truth["fmt"] == "csv":
        _check_portrait_csv(text, ans, seeds, f)
    else:
        _check_portrait_svg(text, ans, seeds, f, _f_float(truth, absolute=True))


def _check_portrait_csv(text, ans, seeds, f) -> None:
    orbits: dict[int, list] = {}
    rows = csv.DictReader(io.StringIO(text))
    for row in rows:
        if row["kind"] == "orbit":
            orbits.setdefault(int(row["id"]), []).append(
                (float(row["t_or_level"]), float(row["x"]), float(row["y"])))
    _require(sorted(orbits) == list(range(len(seeds))), "CSV orbit ids differ from the seeds")
    for i, seed in enumerate(seeds):
        pts = orbits[i]
        _require(len(pts) == ans["orbits"][i]["points"], f"orbit {i}: CSV has {len(pts)} points")
        _require(any(t == 0.0 and (x, y) == seed for t, x, y in pts), f"orbit {i} misses its seed")
        f0 = f(*seed)
        drift = max(abs(f(x, y) - f0) for _, x, y in pts) / (1 + abs(f0))
        _require(drift < FLOW_TOL, f"orbit {i}: f drifts by {drift:.3g}")


def _check_portrait_svg(text, ans, seeds, f, mag) -> None:
    root = ET.fromstring(text)
    lines = [el for el in root.iter() if el.tag.endswith("polyline")]
    drawn = [i for i, o in enumerate(ans["orbits"]) if o["points"] >= 2]
    _require(len(lines) == len(drawn), f"{len(lines)} polylines for {len(drawn)} orbits")
    for i, el in zip(drawn, lines):
        pts = [tuple(float(v) for v in pair.split(",")) for pair in el.get("points").split()]
        _require(len(pts) == ans["orbits"][i]["points"], f"orbit {i}: SVG has {len(pts)} points")
        f0 = f(*seeds[i])
        for x, y in pts:
            v = f(x, -y)
            _require(abs(v - f0) <= SVG_TOL * (1 + mag(x, -y)),
                     f"orbit {i}: f({x}, {-y}) = {v} is off the level {f0}")


def _primitive(p: dict) -> dict:
    """Integer coefficients with gcd 1 and a positive first entry, x-power
    first: the normal form the program documents for its divisor."""
    coeffs = P.form_coeffs(p)
    den = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * den) for c in coeffs]
    g = math.gcd(*ints)
    lead = next(c for c in ints if c)
    s = g if lead > 0 else -g
    return P.scale(p, F(den, s))


def _reduced_field(truth):
    """(P, Q) = (-f_y, f_x) / D with D the primitive product of every factor
    to its multiplicity minus one, from the construction."""
    f = _form(truth)
    d = P.const(1)
    for b, c, beta in truth["quads"]:
        q = {(2, 0): F(1), (1, 1): F(b), (0, 2): F(c)}
        d = P.mul(d, P.power({m: v for m, v in q.items() if v}, beta - 1))
    d = _primitive(d) if P.degree(d) > 0 else P.const(1)
    pp, r1 = P.divmod_poly(P.scale(P.dy(f), -1), d)
    qq, r2 = P.divmod_poly(P.dx(f), d)
    if r1 or r2:
        raise ArithmeticError("construction divisor does not divide the partials")
    return pp, qq


def check_shift(argv, truth, rc, out, err) -> None:
    ans = _answer(rc, out)
    f = _f_float(truth)
    seeds = [tuple(s) for s in truth["seeds"]]
    rows = ans["dynamics"]
    _require(len(rows) == len(seeds), f"{len(rows)} rows for {len(seeds)} seeds")
    sigma = {tuple(int(v) for v in m.split(",")): F(c) for m, c in truth["sigma"].items()}
    pp, qq = _reduced_field(truth)
    lie = P.add(P.mul(P.dx(sigma), pp), P.mul(P.dy(sigma), qq))
    for row, (x, y) in zip(rows, seeds):
        _require(tuple(row["seed"]) == (x, y), "seed echoed wrongly")
        fx, fy = F(x), F(y)
        v = sum(c * fx ** i * fy ** j for (i, j), c in lie.items())
        want = "regular" if v > -1 else ("degenerate" if v == -1 else "folding")
        _require(row["regularity"] == want, f"regularity {row['regularity']}, expected {want}")
        _require("error" not in row, f"shift failed: {row.get('error')}")
        sx, sy = row["shift"]
        t = float(sum(c * fx ** i * fy ** j for (i, j), c in sigma.items()))
        if "rotation_rate" in truth:
            a = truth["rotation_rate"] * t
            ex, ey = x * math.cos(a) - y * math.sin(a), x * math.sin(a) + y * math.cos(a)
            _require(math.hypot(sx - ex, sy - ey) < SHIFT_TOL,
                     f"shift ({sx}, {sy}) is not the rotation ({ex}, {ey})")
        f0 = f(x, y)
        drift = abs(f(sx, sy) - f0) / (1 + abs(f0))
        _require(drift < FLOW_TOL, f"shift moves f by {drift:.3g}")


# ---------------------------------------------------------------------------
# malformed input

def check_error(argv, truth, rc, out, err) -> None:
    _require(rc == truth["exit"], f"exit code {rc}, expected {truth['exit']}")
    _require(out == "", "an error wrote to stdout")
    lines = err.strip().splitlines()
    _require(bool(lines), "no error on stderr")
    e = json.loads(lines[-1])["error"]
    _require(e["kind"] == truth["kind"], f"error kind {e['kind']}, expected {truth['kind']}")
    if truth["offsets"] is not None:
        lo, hi = truth["offsets"]
        _require(lo <= e.get("offset", -1) < hi,
                 f"offset {e.get('offset')}, expected in [{lo}, {hi})")


_CHECKS = {
    "form": check_form,
    "symmetry": check_symmetry,
    "portrait": check_portrait,
    "shift": check_shift,
    "error": check_error,
}
