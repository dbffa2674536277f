"""Seeded request sets for the three workloads, each with its ground truth.

Every workload starts from a fixed base set of forms: signed products of
lines and definite quadratics, drawn once from a constant seed, with fixed
multiplicities per slot.  The run's --seed then picks, for every request,
one of the four variants +-f(+-x, y) of its base form (flow requests keep
the sign, so that definite forms stay positive).  A variant has other
coefficients, slopes and enclosures, but the reflection is orthogonal and
keeps every coefficient's size, so the work the program does stays the
same: two seeds ask for the same amount of work on different numbers.
Seed points and shift times move with the reflection, so a flow request
integrates the mirror image of the same orbit.  The program only ever
sees the request text; the truth stays with the benchmark.

A request is a dict:

    id     stable name, unique within the workload
    argv   arguments for ``binform`` (``python -m binform.cli``)
    check  which check in checks.py reads the answer
    truth  what that check compares against
    files  {relative path: text} the benchmark writes before the run
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from . import poly as P

F = Fraction
_DENOMS = (1, 2, 3)


# ---------------------------------------------------------------------------
# text of numbers, factors and products

def _num(c: Fraction) -> str:
    c = F(c)
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def _times(c: Fraction, mono: str) -> str:
    """|c| * mono, omitting a unit coefficient."""
    c = abs(c)
    return mono if c == 1 else f"{_num(c)}*{mono}"


def _line(t):
    """The line through slope t = y/x, as (poly, text).  t None is the
    axis factor x.  For t = p/q the factor is q*y - p*x, whose
    y-coefficient is positive."""
    if t is None:
        return P.X, "x"
    p, q = t.numerator, t.denominator
    if p == 0:
        return P.Y, "y"
    poly = P.add(P.scale(P.Y, q), P.scale(P.X, -p))
    sign = "-" if p > 0 else "+"
    return poly, f"({_times(F(q), 'y')} {sign} {_times(F(p), 'x')})"


def _quad(b: Fraction, c: Fraction):
    """x^2 + b*x*y + c*y^2 with 4c > b^2, as (poly, text)."""
    poly = P.add(P.power(P.X, 2), P.add(P.scale(P.mul(P.X, P.Y), b),
                                        P.scale(P.power(P.Y, 2), c)))
    text = "x^2"
    if b:
        text += (" + " if b > 0 else " - ") + _times(b, "x*y")
    text += " + " + _times(c, "y^2")
    return poly, f"({text})"


def _product(scalar: Fraction, factors) -> tuple[dict, str]:
    """scalar * prod(base^m) as (poly, text) from [(poly, text, m)]."""
    poly = P.const(scalar)
    pieces = []
    for base, text, m in factors:
        poly = P.mul(poly, P.power(base, m))
        pieces.append(text if m == 1 else f"{text}^{m}")
    body = "*".join(pieces)
    if scalar == 1:
        text = body
    elif scalar == -1:
        text = "-" + body
    else:
        text = ("-" if scalar < 0 else "") + _num(abs(scalar)) + "*" + body
    return poly, text


def _truth(poly, lines, quads) -> dict:
    """Ground truth of a constructed product.  lines: [(slope|None, alpha)],
    quads: [(b, c, beta)]."""
    coeffs = P.form_coeffs(poly)
    lead = next(c for c in reversed(coeffs) if c)   # leading coefficient of f(1, t)
    return {
        "coeffs": [_num(c) for c in coeffs],
        "degree": len(coeffs) - 1,
        "sign": 1 if lead > 0 else -1,
        "lines": [[None if t is None else _num(t), a] for t, a in lines],
        "quads": [[_num(b), _num(c), m] for b, c, m in quads],
    }


def _sample(base: random.Random, line_mults, quad_mults, axis, quad_range):
    """Slopes, quadratics (b, c) and a positive scalar for a base form."""
    slopes: list = [None] if axis and line_mults else []
    while len(slopes) < len(line_mults):
        t = F(base.randint(-6, 6), base.choice(_DENOMS))
        if t not in slopes:
            slopes.append(t)
    grams: list = []
    while len(grams) < len(quad_mults):
        if quad_range is None:
            b = F(base.randint(-4, 4), base.choice(_DENOMS))
            c = b * b / 4 + F(base.randint(1, 9), base.choice(_DENOMS))
        else:
            b = F(base.randint(-2, 2), 2)
            c = F(base.randint(2, 8), 4)
            lo, hi = quad_range
            tr, det = 1 + c, c - b * b / 4
            # eigenvalues (tr +- sqrt(tr^2 - 4 det)) / 2 lie in [lo, hi]
            if not (det > 0 and lo * (tr - lo) <= det and hi * (tr - hi) <= det
                    and lo <= tr / 2 <= hi):
                continue
        if (b, c) not in grams:
            grams.append((b, c))
    return slopes, grams, F(base.randint(1, 4), base.choice((1, 2)))


# A variant reflects x -> -x or not: s = +-1 acts by (x, y) -> (s x, y).

def _subst(poly: dict, s: int) -> dict:
    """poly(s x, y)."""
    return {(i, j): c * s ** i for (i, j), c in poly.items()}


def point_under(z, s: int):
    """The point whose orbit under f(s x, y) matches the orbit of z under f."""
    return (s * z[0], z[1])


def build_form(base: random.Random, var: random.Random, line_mults, quad_mults, *,
               axis=False, quad_range=None, positive=False):
    """A seeded variant +-f(+-x, y) of a base product, as (text, truth, s).

    base draws the base form; var picks the reflection s and, unless
    positive, the sign.  axis makes the first line the factor x.
    quad_range=(lo, hi) draws every quadratic with eigenvalues in [lo, hi],
    for definite forms whose level curves must stay inside a box."""
    slopes, grams, scalar = _sample(base, line_mults, quad_mults, axis, quad_range)
    s = var.choice((1, -1))
    if not positive:
        scalar *= var.choice((1, -1))
    slopes = [None if t is None else t * s for t in slopes]
    grams = [(b * s, c) for b, c in grams]
    factors = [(*_line(t), m) for t, m in zip(slopes, line_mults)]
    factors += [(*_quad(b, c), m) for (b, c), m in zip(grams, quad_mults)]
    poly, text = _product(scalar, factors)
    return text, _truth(poly, list(zip(slopes, line_mults)),
                        [(b, c, m) for (b, c), m in zip(grams, quad_mults)]), s


def _parse_named(text: str) -> dict:
    """Expand a named form: canonical monomials, or a product of powers of
    parenthesized sums of them."""
    if "(" not in text:
        return P.parse_canonical(_spaced(text))
    poly = P.const(1)
    depth, start = 0, 0
    for i, ch in enumerate(text + "*"):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "*" and depth == 0:
            piece, start = text[start:i], i + 1
            base, exp = piece, 1
            if piece.startswith("(") and ")^" in piece:
                base, _, e = piece.rpartition("^")
                exp = int(e)
            elif "(" not in piece and "^" in piece:
                base, _, e = piece.partition("^")
                exp = int(e)
            if base.startswith("("):
                base = base[1:-1]
            poly = P.mul(poly, P.power(P.parse_canonical(_spaced(base)), exp))
    return poly


def _spaced(text: str) -> str:
    """Put spaces around binary + and - so parse_canonical can split."""
    out = []
    for i, ch in enumerate(text):
        if ch in "+-" and i > 0:
            out.append(f" {ch} ")
        else:
            out.append(ch)
    return "".join(out)


# ---------------------------------------------------------------------------
# named forms: the README's examples and the acceptance suite's pinned orders

# Exact factors [(slope | None, alpha)], [(b, c, beta)] of the named forms
# with rational lines; the others carry their multiplicities only, since
# their lines have irrational slopes.
NAMED = {
    "x*y^2": ([(None, 1), ("0", 2)], []),
    "x^2+y^2": ([], [("0", "1", 1)]),
    "(x^2+y^2)^2": ([], [("0", "1", 2)]),
    "(x^2+y^2)*(x^2+2*y^2)": ([], [("0", "1", 1), ("0", "2", 1)]),
    "x*y*(x^2+y^2)": ([(None, 1), ("0", 1)], [("0", "1", 1)]),
}
NAMED_COUNTS = {
    "x^3-3*x*y^2": ((1, 1, 1), ()),
    "x^4-6*x^2*y^2+y^4": ((1, 1, 1, 1), ()),
}

# pinned group orders from the acceptance suite
PINNED_ORDERS = {
    "x^3-3*x*y^2": 3,
    "x*y*(x^2+y^2)": 2,
    "x^4-6*x^2*y^2+y^4": 4,
    "(x^2+y^2)*(x^2+2*y^2)": 4,
}


def _named(text: str) -> dict:
    """Truth of a named form."""
    poly = _parse_named(text)
    if text in NAMED:
        lines, quads = NAMED[text]
        return _truth(poly, [(None if t is None else F(t), a) for t, a in lines],
                      [(F(b), F(c), m) for b, c, m in quads])
    truth = _truth(poly, [], [])
    del truth["lines"], truth["quads"]
    truth["alphas"], truth["betas"] = (list(m) for m in NAMED_COUNTS[text])
    return truth


def ladder(e: int) -> tuple[str, dict]:
    """x^e * y^e * (x - y)^e, whose group has order 3 (e odd) or 6 (e even)."""
    text = f"x^{e}*y^{e}*(x-y)^{e}"
    poly = P.mul(P.mul(P.power(P.X, e), P.power(P.Y, e)),
                 P.power(P.sub(P.X, P.Y), e))
    return text, _truth(poly, [(None, e), (F(0), e), (F(1), e)], [])


# ---------------------------------------------------------------------------
# workloads

# (line multiplicities, quadratic multiplicities, first line is the axis x)
EXACT_SHAPES = [
    ((1,), (), False), ((4,), (), True), ((1, 2), (), False), ((3, 1), (), True),
    ((), (1,), False), ((), (3,), False),
    ((), (1, 1), False), ((), (1, 2), False), ((), (1, 1, 1), False),
    ((), (2, 1, 1), False), ((), (1, 1, 1, 1), False), ((), (3, 2), False),
    ((), (2, 2, 1, 1), False),     ((1, 1, 1), (), False), ((1,), (1,), False), ((2,), (1,), True),
    ((1, 1), (1,), False), ((1, 1, 1, 1), (), True), ((1, 2, 1), (1,), False),
    ((2, 1), (2,), False), ((1, 1, 1), (1, 1), True), ((3, 1, 2), (1,), False),
    ((2, 2, 1), (1, 1), False),
    ((1, 1), (2, 1, 1), True), ((1, 2, 3), (2, 1), False),
    ((2, 1, 1, 2), (1, 2), True),
    ((3, 2, 1), (2, 2), False),
    ((1, 1, 1, 1), (2, 2, 2), False),
]

EXACT_COMMANDS = ("factor", "classify", "decide", "hamiltonian")


def _rngs(workload: str, seed: int) -> tuple[random.Random, random.Random]:
    """(base, var): the fixed base draw and the seeded choice of variants."""
    return random.Random(f"{workload}:base"), random.Random(f"{workload}:{seed}")


def exact_requests(seed: int) -> list[dict]:
    """Every exact command on every form of the corpus (degrees 1 to 16),
    after the README's x*y^2 as the fixed first request."""
    base, var = _rngs("exact", seed)
    reqs = [_req("named-decide", ["decide", "x*y^2"], "form", _named("x*y^2"))]
    for i, (lm, qm, axis) in enumerate(EXACT_SHAPES):
        text, truth, _ = build_form(base, var, lm, qm, axis=axis)
        for cmd in EXACT_COMMANDS:
            reqs.append(_req(f"f{i:02d}-{cmd}", [cmd, text], "form", truth))
    return reqs


# Finite-group shapes (cases D and E), degree 3 to 8, each listed as often
# as it is drawn.  Three lines of one even multiplicity are left out: the
# seed program fails on some of them (see CHANGES.md).
FINITE_SHAPES = [
    ((), (1, 1), False), ((), (1, 1), False), ((), (1, 2), False), ((), (1, 2), False),
    ((1, 1, 1), (), False), ((1, 1, 1), (), False), ((1, 1, 1), (), True),
    ((2, 1, 1), (), False), ((2, 1, 1), (), False),
    ((1,), (1,), False), ((1,), (1,), False), ((1,), (1,), False),
    ((2,), (1,), True), ((2,), (1,), True),
    ((1,), (1, 1), False), ((1, 1), (1,), False), ((1, 1), (1,), True),
    ((2, 1), (1,), False), ((3, 1), (1,), False), ((3, 1), (1,), False),
    ((1, 2, 1), (1,), False), ((1,), (3,), False),
]

# one-parameter families: cases A, B and C
FAMILY_SHAPES = [
    ((1,), (), False), ((2,), (), True), ((3,), (), False), ((5,), (), False),
    ((1, 1), (), False), ((1, 2), (), True), ((2, 2), (), False), ((3, 1), (), False),
    ((2, 3), (), True), ((1, 4), (), False), ((1, 1), (), True), ((4, 1), (), False),
    ((4,), (), True), ((2, 1), (), False),
    ((), (1,), False), ((), (2,), False), ((), (3,), False), ((), (4,), False),
    ((), (1,), False), ((), (2,), False),
] * 2

# Portrait shapes, drawn with one seed point (even index, CSV) or two (odd,
# SVG).  A single definite quadratic has closed orbits that run the whole
# time horizon (20 units, at least 2000 steps each way), so it gets one
# seed; forms with lines have orbits that leave the box early.
PORTRAIT_SHAPES = [
    ((), (1,)), ((1, 1), ()), ((), (1,)), ((1, 1), (1,)), ((), (1,)), ((1,), (1,)),
]
# definite shapes for shift maps, whose level curves stay inside the box
SHIFT_SHAPES = [((), (1,)), ((), (2,)), ((), (1, 1)), ((), (1, 2)), ((), (1, 1, 1))]

LADDER = (1, 2, 3)
SHIFT_REQUESTS = 25


def _seed_csv(points) -> str:
    return "x,y\n" + "".join(f"{x!r},{y!r}\n" for x, y in points)


def _point(rng: random.Random, r_lo: float, r_hi: float) -> tuple[float, float]:
    """A seed point at a random radius in [r_lo, r_hi].  Its coordinates are
    full-precision floats: on short decimals, sigma(z) often lands on a
    multiple of the integrator's largest step, where the seed program
    reports a spurious StepLimit (see CHANGES.md)."""
    r = rng.uniform(r_lo, r_hi)
    a = rng.uniform(0, 2 * math.pi)
    return (r * math.cos(a), r * math.sin(a))


_BOXED = (F(1, 3), F(3))       # eigenvalue range of quadratics in flow requests


def geometry_requests(seed: int, out: str) -> list[dict]:
    """Symmetry groups (finite and family), portraits and shift maps.  out
    is the directory, relative to where the program runs, for artefacts."""
    base, var = _rngs("geometry", seed)
    text = "(x^2+y^2)*(x^2+2*y^2)"
    reqs = [_req("named-sym-two-quads", ["symmetry", text], "symmetry",
                 dict(_named(text), order=PINNED_ORDERS[text]))]
    for text, n in PINNED_ORDERS.items():
        if text != "(x^2+y^2)*(x^2+2*y^2)":
            reqs.append(_req(f"named-sym-{len(reqs)}", ["symmetry", text], "symmetry",
                             dict(_named(text), order=n)))
    for e in LADDER:
        text, truth = ladder(e)
        reqs.append(_req(f"ladder-{e}", ["symmetry", text], "symmetry",
                         dict(truth, order=3 if e % 2 else 6)))
    for i, (lm, qm, axis) in enumerate(FINITE_SHAPES):
        text, truth, _ = build_form(base, var, lm, qm, axis=axis)
        reqs.append(_req(f"finite-{i:02d}", ["symmetry", text], "symmetry", truth))
    for i, (lm, qm, axis) in enumerate(FAMILY_SHAPES):
        text, truth, _ = build_form(base, var, lm, qm, axis=axis)
        reqs.append(_req(f"family-{i:02d}", ["symmetry", text], "symmetry", truth))
    for i, (lm, qm) in enumerate(PORTRAIT_SHAPES):
        text, truth, g = build_form(base, var, lm, qm, quad_range=_BOXED, positive=True)
        fmt = "csv" if i % 2 == 0 else "svg"
        points = [point_under(_point(base, 0.4, 0.9), g) for _ in range(1 + i % 2)]
        seeds = f"{out}/portrait-{i:02d}-seeds.csv"
        path = f"{out}/portrait-{i:02d}.{fmt}"
        reqs.append(_req(f"portrait-{i:02d}",
                         ["portrait", text, "--res", "32", "--seeds", seeds,
                          "--format", fmt, "--out", path],
                         "portrait", dict(truth, path=path, fmt=fmt, seeds=points),
                         files={seeds: _seed_csv(points)}))
    for i in range(SHIFT_REQUESTS):
        reqs.append(_shift_request(base, var, i, out))
    return reqs


def _shift_request(base: random.Random, var: random.Random, i: int, out: str) -> dict:
    """Shift maps z -> flow(z, sigma(z)) on definite forms.  Every fourth
    form is a power (x^2+y^2)^m, whose reduced field is the rotation
    (-2m y, 2m x), so the shift has a closed form."""
    if i % 4 == 0:
        m = 1 + (i // 4) % 3
        text = "x^2+y^2" if m == 1 else f"(x^2+y^2)^{m}"
        poly = P.power(P.add(P.power(P.X, 2), P.power(P.Y, 2)), m)
        truth = _truth(poly, [], [(F(0), F(1), m)])
        truth["rotation_rate"] = 2 * m
        g = var.choice((1, -1))
    else:
        lm, qm = SHIFT_SHAPES[i % len(SHIFT_SHAPES)]
        text, truth, g = build_form(base, var, lm, qm, quad_range=_BOXED, positive=True)
    a, b = F(base.randint(-3, 3), 4), F(base.randint(-3, 3), 4)
    c = F(base.randint(1, 4), 4)
    sigma = _subst({k: v for k, v in {(1, 0): a, (0, 1): b, (0, 0): c}.items() if v}, g)
    points = [point_under(_point(base, 0.3, 0.9), g) for _ in range(3)]
    seeds = f"{out}/shift-{i:02d}-seeds.csv"
    truth.update(sigma={f"{i_},{j_}": _num(v) for (i_, j_), v in sigma.items()},
                 seeds=points)
    return _req(f"shift-{i:02d}", ["dynamics", text, f"--sigma={_sigma_text(sigma)}",
                                   "--seeds", seeds],
                "shift", truth, files={seeds: _seed_csv(points)})


def _sigma_text(sigma: dict) -> str:
    parts = []
    for mono, var in (((1, 0), "x"), ((0, 1), "y"), ((0, 0), "")):
        c = sigma.get(mono)
        if not c:
            continue
        body = _num(abs(c)) if not var else _times(c, var)
        parts.append(("-" if c < 0 else ("+" if parts else "")) + body)
    return "".join(parts) or "0"


# malformed requests: (argv, error kind, exit code, offsets accepted)
MALFORMED = [
    (["factor", "x+*y"], "ExprSyntax", 2, (2, 3)),
    (["classify", "x^-2"], "NegativeExponent", 2, (2, 3)),
    (["decide", "x*z"], "UnknownIdentifier", 2, (2, 3)),
    (["decide", "x+1"], "NotHomogeneous", 1, None),
    (["factor", "x*y", "--eps", "0.5"], "Usage", 2, None),
]

# Requests that fail on the seed program.  A zero denominator in a literal
# escapes the parser as ZeroDivisionError (a traceback, exit 1), and
# factor_form raises ValueError on a constant.  The offsets accepted span
# the literal 1/0.
KNOWN_FAILING = [
    (["decide", "1/0*x"], "ExprSyntax", 2, (0, 3)),
    (["factor", "5"], "DegreeZero", 1, None),
]


def cli_requests(seed: int, out: str) -> list[dict]:
    """Cold requests: the README's examples, two corpus forms through the
    exact commands, a family symmetry, malformed input and the two known
    failures.  The list is short so that a run repeats every request five
    or six times."""
    base, var = _rngs("cli", seed)
    seeds_path = f"{out}/cli-seeds.csv"
    readme_seeds = [(1.0, 0.0), (0.5, 0.5)]
    two_quads = "(x^2+y^2)*(x^2+2*y^2)"
    reqs = [
        _req("named-decide", ["decide", "x*y^2"], "form", _named("x*y^2")),
        _req("named-factor", ["factor", two_quads], "form", _named(two_quads)),
        _req("named-classify", ["classify", "x^3-3*x*y^2"], "form",
             _named("x^3-3*x*y^2")),
        _req("named-hamiltonian", ["hamiltonian", "x*y^2"], "form", _named("x*y^2")),
        _req("named-symmetry", ["symmetry", two_quads], "symmetry",
             dict(_named(two_quads), order=PINNED_ORDERS[two_quads])),
        _req("named-dynamics", ["dynamics", "x^2+y^2", "--sigma", "y",
                                "--seeds", seeds_path], "shift",
             dict(_named("x^2+y^2"), sigma={"0,1": "1"}, seeds=readme_seeds,
                  rotation_rate=2), files={seeds_path: _seed_csv(readme_seeds)}),
    ]
    for i, (lm, qm, axis) in enumerate((((1, 2), (1,), False), ((2, 1), (2, 1), True))):
        text, truth, _ = build_form(base, var, lm, qm, axis=axis)
        for cmd in EXACT_COMMANDS[2 * i:2 * i + 2]:
            reqs.append(_req(f"f{i}-{cmd}", [cmd, text], "form", truth))
    text, truth, _ = build_form(base, var, (1, 2), ())
    reqs.append(_req("family", ["symmetry", text], "symmetry", truth))
    for i, (argv, kind, code, offsets) in enumerate(MALFORMED):
        reqs.append(_req(f"bad-{i}", argv, "error",
                         {"kind": kind, "exit": code, "offsets": offsets}))
    for i, (argv, kind, code, offsets) in enumerate(KNOWN_FAILING):
        reqs.append(_req(f"known-failing-{i}", argv, "error",
                         {"kind": kind, "exit": code, "offsets": offsets}))
    return reqs


def requests(workload: str, seed: int, out: str) -> list[dict]:
    if workload == "cli":
        return cli_requests(seed, out)
    if workload == "exact":
        return exact_requests(seed)
    if workload == "geometry":
        return geometry_requests(seed, out)
    raise ValueError(f"unknown workload {workload!r}")


def _req(rid: str, argv, check: str, truth: dict, files=None) -> dict:
    """argv is [command, polynomial, options...].  The polynomial goes last,
    after "--", since a leading minus would otherwise read as an option."""
    cmd, text, *opts = argv
    return {"id": rid, "argv": [cmd, *opts, "--", text], "check": check,
            "truth": truth, "files": files or {}}
