"""Portrait serialization: SVG for eyes, CSV for tools.

SVG uses a viewBox matching the window with the y axis flipped (screen
coordinates grow downward).  All floats go out with 17 significant digits
so regenerated artifacts diff clean.
"""

from __future__ import annotations

import math

from .dynamics import Portrait

_ARROW_EVERY = 40          # orbit points between arrowheads


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def _short(v: float) -> str:
    return format(float(v), ".6g")


def portrait_csv(portrait: Portrait) -> str:
    """Rows of kind,id,t_or_level,x,y covering curves, orbits, and the
    singular point."""
    lines = ["kind,id,t_or_level,x,y"]
    for li, (level, polys) in enumerate(portrait.level_curves):
        for poly in polys:
            for x, y in poly:
                lines.append(f"level,{li},{_fmt(level)},{_fmt(x)},{_fmt(y)}")
    for orbit in portrait.orbits:
        # a closed orbit repeats its tuples each turn; by id, as 0.0 == -0.0
        xy: dict[int, str] = {}
        for t, z in zip(orbit.times, orbit.points):
            if (s := xy.get(id(z))) is None:
                s = xy[id(z)] = f"{_fmt(z[0])},{_fmt(z[1])}"
            lines.append(f"orbit,{orbit.seed_index},{_fmt(t)},{s}")
    if portrait.singular_point is not None:
        sx, sy = portrait.singular_point
        lines.append(f"singular,0,{_fmt(0.0)},{_fmt(sx)},{_fmt(sy)}")
    return "\n".join(lines) + "\n"


def _poly_points(pts) -> str:
    return " ".join(f"{_short(x)},{_short(-y)}" for x, y in pts)


def _path_d(pts) -> str:
    head = pts[0]
    moves = " ".join(f"L {_short(x)} {_short(-y)}" for x, y in pts[1:])
    return f"M {_short(head[0])} {_short(-head[1])} {moves}"


def _arrowheads(pts, size: float) -> list[str]:
    out = []
    for i in range(_ARROW_EVERY, len(pts) - 1, _ARROW_EVERY):
        (x0, y0), (x1, y1) = pts[i - 1], pts[i]
        dx, dy = x1 - x0, y1 - y0
        n = math.hypot(dx, dy)
        if n < 1e-15:
            continue
        ux, uy = dx / n, dy / n
        px, py = -uy, ux
        tip = (x1 + ux * size, y1 + uy * size)
        base1 = (x1 + px * size * 0.5, y1 + py * size * 0.5)
        base2 = (x1 - px * size * 0.5, y1 - py * size * 0.5)
        out.append(
            '<polygon points="{}" fill="#b33"/>'.format(
                _poly_points([tip, base1, base2])))
    return out


def portrait_svg(portrait: Portrait) -> str:
    x0, y0, x1, y1 = portrait.window
    w, h = x1 - x0, y1 - y0
    sw = max(w, h) / 400.0
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{_short(x0)} {_short(-y1)} {_short(w)} {_short(h)}">',
        f'<rect x="{_short(x0)}" y="{_short(-y1)}" width="{_short(w)}" '
        f'height="{_short(h)}" fill="white"/>',
    ]
    for _, polys in portrait.level_curves:
        for poly in polys:
            parts.append(
                f'<path d="{_path_d(poly)}" fill="none" '
                f'stroke="#47a" stroke-width="{_short(sw)}"/>')
    for orbit in portrait.orbits:
        if len(orbit.points) >= 2:
            parts.append(
                f'<polyline points="{_poly_points(orbit.points)}" fill="none" '
                f'stroke="#b33" stroke-width="{_short(sw * 1.4)}"/>')
            parts.extend(_arrowheads(orbit.points, sw * 6))
    if portrait.singular_point is not None:
        sx, sy = portrait.singular_point
        parts.append(
            f'<circle cx="{_short(sx)}" cy="{_short(-sy)}" r="{_short(sw * 4)}" '
            'fill="#222"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
