"""Independent cross-checks used by several test modules.

Everything here is deliberately written against plain coefficient rows so it
shares no code path with the package under test.
"""

import sys
from fractions import Fraction

F = Fraction


def sylvester_det(a, b):
    """Resultant of two coefficient rows (highest power of x first), taken
    as the projective resultant: leading zeros stand for roots at infinity."""
    m, n = len(a) - 1, len(b) - 1
    size = m + n
    rows = []
    for i in range(n):
        rows.append([F(0)] * i + list(a) + [F(0)] * (n - 1 - i))
    for i in range(m):
        rows.append([F(0)] * i + list(b) + [F(0)] * (m - 1 - i))
    # fraction-free-ish Gaussian elimination, exact over Fraction
    det = F(1)
    mat = [row[:] for row in rows]
    for col in range(size):
        pivot = next((r for r in range(col, size) if mat[r][col] != 0), None)
        if pivot is None:
            return F(0)
        if pivot != col:
            mat[col], mat[pivot] = mat[pivot], mat[col]
            det = -det
        det *= mat[col][col]
        inv = 1 / mat[col][col]
        for r in range(col + 1, size):
            if mat[r][col] != 0:
                factor = mat[r][col] * inv
                mat[r] = [x - factor * y for x, y in zip(mat[r], mat[col])]
    return det


def forms_coprime_oracle(p, q):
    """Independent coprimality check via the projective resultant.

    None stands for an identically zero component, coprime only to
    constants."""
    if p is None:
        return q is not None and q.degree == 0
    if q is None:
        return p.degree == 0
    if p.degree == 0 or q.degree == 0:
        return True
    return sylvester_det(p.coefficients(), q.coefficients()) != 0


def count_calls(monkeypatch, original):
    """Replace every binding of ``original`` in the package's modules with a
    wrapper that records (args, kwargs) of each call."""
    calls = []

    def wrapper(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").split(".")[0] == "binform":
            for key, val in list(vars(mod).items()):
                if val is original:
                    monkeypatch.setattr(mod, key, wrapper)
    return calls


# ---------------------------------------------------------------------------
# real-root isolation over Fraction: Sturm chains and bisection on rational
# coefficient rows (lowest degree first), the reference for the integer core


def _row_eval(row, t):
    acc = F(0)
    for c in reversed(row):
        acc = acc * t + c
    return acc


def _row_trim(row):
    row = list(row)
    while row and row[-1] == 0:
        row.pop()
    return row


def _row_rem(a, b):
    r = [F(c) for c in a]
    while True:
        r = _row_trim(r)
        if len(r) < len(b):
            return r
        shift = len(r) - len(b)
        q = r[-1] / b[-1]
        for i, bc in enumerate(b):
            r[shift + i] -= q * bc


def sturm_isolate(row):
    """(lo, hi) isolating intervals of the real roots of a squarefree row,
    sorted increasing, by Sturm counts and bisection over Fraction from the
    Cauchy bound."""
    row = [F(c) for c in _row_trim(row)]
    chain = [row, [i * c for i, c in enumerate(row)][1:]]
    while len(chain[-1]) > 1:
        r = _row_rem(chain[-2], chain[-1])
        if not r:
            break
        chain.append([-c for c in r])

    def variations(t):
        signs = [v > 0 for v in (_row_eval(c, t) for c in chain) if v != 0]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    def split_point(a, b):
        span = b - a
        m, j = a + span / 2, 2
        while _row_eval(row, m) == 0:
            m = a + span * F(2 ** (j - 1) + 1, 2**j)
            j += 1
        return m

    out = []

    def split(a, b, count):
        if count == 1:
            out.append((a, b))
        elif count > 1:
            m = split_point(a, b)
            left = variations(a) - variations(m)
            split(a, m, left)
            split(m, b, count - left)

    bound = 1 + max(abs(c) for c in row[:-1]) / abs(row[-1])
    split(-bound, bound, variations(-bound) - variations(bound))
    return sorted(out, key=lambda iv: iv[0] + iv[1])


def bisect_refine(row, lo, hi, eps):
    """Bisect (lo, hi) until narrower than eps; returns (lo, hi, hit) with
    hit true when a midpoint was an exact root, in which case the interval is
    shrunk symmetrically around it by powers of 8."""
    target = F(eps)
    if hi - lo < target:
        return lo, hi, False
    s_lo = _row_eval(row, lo) > 0
    while hi - lo >= target:
        mid = (lo + hi) / 2
        v = _row_eval(row, mid)
        if v == 0:
            w = (hi - lo) / 8
            while 2 * w >= target:
                w /= 8
            return mid - w, mid + w, True
        if (v > 0) == s_lo:
            lo = mid
        else:
            hi = mid
    return lo, hi, False
