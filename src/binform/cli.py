"""Command-line front end.

Every command takes a polynomial in the expression grammar and prints one
JSON object to stdout.  Errors become a JSON object on stderr with exit
code 1 for domain problems (wrong kind of polynomial), 2 for usage and
parse problems, and 3 for a failed internal consistency check.
BINFORM_PRECISION overrides the default enclosure width.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from typing import Any, Optional

from .dynamics import (
    FlowConfig,
    integrate_flow,
    level_set,
    orbit_portrait,
    shift_map_apply,
    shift_regularity,
)
from .errors import BinformError, DegreeZeroError, ExprSyntaxError, InvariantError
from .exprparse import canonical_text, parse_polynomial, to_homogeneous
from .hamfield import common_divisor, hamiltonian_field, reduced_field
from .mat2 import Mat2
from .realfactor import factor_form
from .render import portrait_csv, portrait_svg
from .symgroup import (
    DiagonalFamily,
    FiniteCyclicGroup,
    RotationFamily,
    ShearFamily,
    symmetry_group,
)
from .verdict import classify_case, decide_theorem

_DEFAULT_EPS = 1e-14
_DEFAULT_TOL = 1e-9
_DEFAULT_WINDOW = (-2.0, -2.0, 2.0, 2.0)


# ---------------------------------------------------------------------------
# JSON with pinned float formatting

def _json(value: Any) -> str:
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
        inner = ", ".join(f"{_json(str(k))}: {_json(v)}" for k, v in value.items())
        return "{" + inner + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_json(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _mat_json(m: Mat2) -> list:
    a, b, c, d = (float(v) for v in m.entries())
    return [[a, b], [c, d]]


# ---------------------------------------------------------------------------
# command payloads

def _parse_form(text: str):
    return to_homogeneous(parse_polynomial(text))


def _factor_payload(fs) -> dict:
    linear = []
    for lf in fs.linear:
        if lf.is_axis:
            linear.append({"direction": "x", "alpha": lf.alpha})
        else:
            linear.append({
                "root_interval": [float(lf.root.lo), float(lf.root.hi)],
                "alpha": lf.alpha,
            })
    quadratic = [{
        "a": 1.0,
        "b": float(qf.b_mid),
        "c": float(qf.c_mid),
        "beta": qf.beta,
    } for qf in fs.quadratic]
    return {"linear": linear, "quadratic": quadratic}


def _symmetry_payload(group, tol: float) -> dict:
    if isinstance(group, ShearFamily):
        return {"kind": "shear_family", "family": {
            "normalizer": _mat_json(group.normalizer),
            "parity": group.parity,
            "components": group.component_count(),
        }}
    if isinstance(group, DiagonalFamily):
        return {"kind": "diagonal_family", "family": {
            "normalizer": _mat_json(group.normalizer),
            "alpha_x": group.alpha_x,
            "alpha_y": group.alpha_y,
            "quarter_turn_in_group": group.quarter_turn_in_group,
        }}
    if isinstance(group, RotationFamily):
        return {"kind": "rotation_family", "family": {
            "normalizer": _mat_json(group.normalizer),
        }}
    if not isinstance(group, FiniteCyclicGroup):
        raise InvariantError(f"unknown symmetry group type {type(group).__name__}")
    return {"kind": "finite_cyclic",
            "n": group.n,
            "generator": _mat_json(group.generator),
            "residual": group.residual}


def _cmd_factor(f, text, args) -> dict:
    fs = factor_form(f, eps=args.eps)
    return {"input": text, "degree": f.degree, "sign": fs.sign,
            "factors": _factor_payload(fs)}


def _cmd_classify(f, text, args) -> dict:
    fs = factor_form(f, eps=args.eps)
    return {"input": text, "degree": f.degree, "case": classify_case(fs)}


def _cmd_symmetry(f, text, args) -> dict:
    fs = factor_form(f, eps=args.eps)
    group = symmetry_group(f, fs, tol=args.tol, eps=args.eps)
    return {"input": text, "degree": f.degree, "case": classify_case(fs),
            "symmetry": _symmetry_payload(group, args.tol)}


def _cmd_hamiltonian(f, text, args) -> dict:
    fs = factor_form(f, eps=args.eps)
    fld = hamiltonian_field(f)
    d = common_divisor(f, fs)
    red = reduced_field(f, fs, d)
    return {"input": text, "degree": f.degree, "hamiltonian": {
        "F": [canonical_text(fld.P), canonical_text(fld.Q)],
        "D": canonical_text(d),
        "hFld": [canonical_text(red.P), canonical_text(red.Q)],
        "deg_hFld": red.degree,
    }}


def _cmd_decide(f, text, args) -> dict:
    v = decide_theorem(f, factor_form(f, eps=args.eps))
    return {"input": text, "degree": f.degree, "case": v.case,
            "stab1_ne_stab0": v.stab1_ne_stab0, "l": v.l, "k": v.k, "p": v.p,
            "verdict": {"stab1_ne_stab0": v.stab1_ne_stab0, "chain": v.chain}}


def _default_seeds(window) -> list[tuple[float, float]]:
    x0, y0, x1, y1 = window
    cx, cy = (x0 + x1) / 2, (y0 + y1) / 2
    r = 0.6 * min(x1 - x0, y1 - y0) / 2
    return [(cx + r * math.cos(2 * math.pi * i / 8),
             cy + r * math.sin(2 * math.pi * i / 8)) for i in range(8)]


def _cmd_portrait(f, text, args) -> dict:
    window = args.window
    seeds = args.seed_points if args.seed_points else _default_seeds(window)
    port = orbit_portrait(f, seeds, window, FlowConfig(), res=args.res,
                          fs=factor_form(f, eps=args.eps))
    written = []
    if args.fmt in ("svg", "csv"):
        if not args.out:
            raise _UsageError("--out is required for svg/csv output")
        content = portrait_svg(port) if args.fmt == "svg" else portrait_csv(port)
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(content)
        written.append(args.out)
    return {"input": text, "degree": f.degree, "portrait": {
        "window": list(window),
        "resolution": port.resolution,
        "levels": [c for c, _ in port.level_curves],
        "orbits": [{"seed": list(o.seed), "status": o.status,
                    "points": len(o.points), "f_drift": o.f_drift}
                   for o in port.orbits],
        "singular_point": list(port.singular_point) if port.singular_point else None,
        "files": written,
    }}


def _cmd_dynamics(f, text, args) -> dict:
    sigma = parse_polynomial(args.sigma)
    fld = reduced_field(f, factor_form(f, eps=args.eps))
    window = args.window
    cfg = FlowConfig(box=(2 * window[0], 2 * window[1], 2 * window[2], 2 * window[3]))
    seeds = args.seed_points if args.seed_points else [(1.0, 0.0)]
    regs = shift_regularity(fld, sigma, seeds)
    rows = []
    for seed, reg in zip(seeds, regs):
        entry: dict[str, Any] = {
            "seed": [float(seed[0]), float(seed[1])],
            "sigma_at_seed": sigma.eval_float(seed[0], seed[1]),
            "regularity": reg,
        }
        try:
            sx, sy = shift_map_apply(fld, sigma, seed, cfg)
            entry["shift"] = [sx, sy]
            f0 = f.eval_float(seed[0], seed[1])
            entry["f_drift"] = abs(f.eval_float(sx, sy) - f0) / (1 + abs(f0))
        except BinformError as e:
            entry["error"] = _kind(e)
        rows.append(entry)
    return {"input": text, "degree": f.degree, "sigma": canonical_text(sigma),
            "dynamics": rows}


_COMMANDS = {
    "factor": _cmd_factor,
    "classify": _cmd_classify,
    "symmetry": _cmd_symmetry,
    "hamiltonian": _cmd_hamiltonian,
    "decide": _cmd_decide,
    "portrait": _cmd_portrait,
    "dynamics": _cmd_dynamics,
}


class _UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# argument handling

def _parse_window(text: str):
    parts = text.split(",")
    if len(parts) != 4:
        raise _UsageError("--window needs X0,Y0,X1,Y1")
    try:
        x0, y0, x1, y1 = (float(p) for p in parts)
    except ValueError:
        raise _UsageError("--window needs four numbers") from None
    if not (x0 < x1 and y0 < y1):
        raise _UsageError("--window must be a nonempty rectangle")
    return (x0, y0, x1, y1)


def _read_seeds(path: str) -> list[tuple[float, float]]:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
    except OSError as e:
        raise _UsageError(f"cannot read seeds file: {e}") from None
    seeds = []
    for row in rows:
        try:
            seeds.append((float(row["x"]), float(row["y"])))
        except (KeyError, TypeError, ValueError):
            raise _UsageError("seeds file needs header x,y and numeric rows") from None
    if not seeds:
        raise _UsageError("seeds file is empty")
    return seeds


def _env_eps() -> Optional[float]:
    raw = os.environ.get("BINFORM_PRECISION")
    if raw is None:
        return None
    try:
        v = float(raw)
    except ValueError:
        raise _UsageError(f"BINFORM_PRECISION is not a number: {raw!r}") from None
    if not (0 < v < 1e-2):
        raise _UsageError("BINFORM_PRECISION must lie in (0, 1e-2)")
    return v


def _build_argparser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="binform",
        description="factorization, symmetries, and dynamics of binary forms")
    ap.add_argument("command", choices=sorted(_COMMANDS))
    ap.add_argument("polynomial", help="expression in x and y, e.g. 'x*y^2'")
    ap.add_argument("--tol", type=float, default=_DEFAULT_TOL,
                    help="symmetry residual tolerance")
    ap.add_argument("--eps", type=float, default=None,
                    help="factor enclosure width (overrides BINFORM_PRECISION)")
    ap.add_argument("--window", default=None, metavar="X0,Y0,X1,Y1")
    ap.add_argument("--res", type=int, default=128, help="level-set grid resolution")
    ap.add_argument("--seeds", default=None, metavar="FILE.csv",
                    help="seed points, header x,y")
    ap.add_argument("--sigma", default="0", help="shift-time polynomial in x and y")
    ap.add_argument("--out", default=None, help="output path for svg/csv")
    ap.add_argument("--format", dest="fmt", choices=["json", "csv", "svg"],
                    default="json")
    return ap


def _kind(e: Exception) -> str:
    return type(e).__name__.removesuffix("Error")


def _error(kind: str, message: str, code: int, **extra) -> int:
    """Write {"error": {kind, message, extra...}} to stderr; return code."""
    sys.stderr.write(_json({"error": {"kind": kind, "message": message, **extra}}) + "\n")
    return code


def main(argv: Optional[list[str]] = None) -> int:
    ap = _build_argparser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        if args.eps is None:
            args.eps = _env_eps() or _DEFAULT_EPS
        if not (0 < args.eps < 1e-2):
            raise _UsageError("--eps must lie in (0, 1e-2)")
        if args.tol <= 0:
            raise _UsageError("--tol must be positive")
        if args.res < 16:
            raise _UsageError("--res must be at least 16")
        args.window = _parse_window(args.window) if args.window else _DEFAULT_WINDOW
        args.seed_points = _read_seeds(args.seeds) if args.seeds else None
        if args.fmt != "json" and args.command != "portrait":
            raise _UsageError(f"--format {args.fmt} only applies to portrait")
        f = _parse_form(args.polynomial)
        if f.degree < 1:
            raise DegreeZeroError("need a nonzero form of degree >= 1")
        payload = _COMMANDS[args.command](f, args.polynomial, args)
    except ExprSyntaxError as e:
        return _error(_kind(e), str(e), 2, offset=e.offset)
    except _UsageError as e:
        return _error("Usage", str(e), 2)
    except InvariantError as e:
        return _error("Invariant", str(e), 3)
    except BinformError as e:
        extra = {"degrees": sorted(e.degrees)} if hasattr(e, "degrees") else {}
        return _error(_kind(e), str(e), 1, **extra)
    sys.stdout.write(_json(payload) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
