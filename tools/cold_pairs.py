"""Wall times of one cold binform command, in alternating pairs of checkouts.

    python tools/cold_pairs.py [--root PARENT] [--pairs N] -- ARGS...

Each pair runs ``python -m binform.cli ARGS`` once in a fresh process on the
``src`` of the checkout named by --root and once on this checkout's (the one
holding this script), the parent first in even pairs, and times a bare
``python -c pass`` beside them.  It prints the median and the quartiles
(statistics.quantiles, inclusive method) of each side in ms, and how many
pairs each side won.  Without --root both sides are this checkout, which
shows the spread of the host.

The processes run with PYTHONDONTWRITEBYTECODE=1, and a checkout whose
``src/binform`` holds a ``__pycache__`` is refused, so every run compiles
the package from source, as a cold command does.  Only the standard library
is used.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import time

_HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _time(cmd: list[str], env: dict) -> float:
    """Seconds from start to exit of one fresh process."""
    t0 = time.perf_counter()
    # no timeout: with one, wait() polls in steps of up to 50 ms
    subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter() - t0


def _row(name: str, times: list[float], won: str) -> str:
    q1, med, q3 = (1e3 * q for q in statistics.quantiles(times, n=4, method="inclusive"))
    return f"{name:<8}{med:>9.1f}{q1:>9.1f}{q3:>9.1f}  {won}"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", default=_HERE, help="the parent checkout holding src/")
    ap.add_argument("--pairs", type=int, default=15)
    ap.add_argument("args", nargs="+", help="the binform command line, after --")
    args = ap.parse_args()
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")
    sides = {"parent": os.path.abspath(args.root), "change": _HERE}
    envs = {}
    for side, root in sides.items():
        if os.path.isdir(os.path.join(root, "src", "binform", "__pycache__")):
            sys.stderr.write(f"{root}/src/binform/__pycache__ exists; remove it for a cold run\n")
            return 2
        envs[side] = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
                          PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "binform.cli", *args.args]
    times: dict[str, list[float]] = {"parent": [], "change": [], "bare": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            times[side].append(_time(cmd, envs[side]))
        times["bare"].append(_time([sys.executable, "-c", "pass"], envs["change"]))
    wins = {side: sum(a < b for a, b in zip(times[side], times[other]))
            for side, other in (("parent", "change"), ("change", "parent"))}
    print(f"{args.pairs} pairs of: binform {' '.join(args.args)}")
    print(f"{'ms':<8}{'median':>9}{'q1':>9}{'q3':>9}  won")
    for side in ("parent", "change"):
        print(_row(side, times[side], f"{wins[side]}/{args.pairs}"))
    print(_row("bare", times["bare"], "python -c pass"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
