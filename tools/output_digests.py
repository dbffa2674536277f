"""One digest per benchmark request: a byte-identity check between checkouts.

    python tools/output_digests.py [--root CHECKOUT] [--workloads cli,exact,geometry]
                                   [--seeds 1,2,3,4] [--cold]

Builds the requests of ``bench.corpus`` for every workload and seed, runs
each one through ``binform.cli.main`` in this process (with --cold, in a
fresh ``python -m binform.cli`` process instead) and prints one line
``workload/seed/id sha256`` per request.  The hash covers the exit code,
stdout, stderr and every file the request wrote.

The workload name ``edge`` runs, whatever --seeds says, a fixed list of
forms off the corpus through ``factor``, ``decide``, ``classify``,
``symmetry`` and ``hamiltonian``, one line ``edge/command/form sha256``
each: real lines 10^-100 to 10^-400 apart, conjugate pairs 10^-50 to
10^-250 off the real axis, alone and beside a line, lines at +-10^-100,
the Mignotte-like rows y^n - 2 (a y - x)^2 x^(n-2), with two lines
within about a^-(n+2)/2 of each other, the products of 40, 60 and 80
lines, and powers at the parser's degree cap: (x-y)^512 (x-2y)^512
(x-3y)^512, (x^2+y^2)^512 (x^2+2y^2)^256 and (x^2+xy+y^2)^300 (x-3y)^500.  The
corpus's layers have degree 8 or less and isolate in a few levels; these
reach degree 80 and trees 1,300 levels deep, and Yun's gcds on the powers
have degree about 1,500.

The workload name ``parse`` checks the parser alone, in this process and
whatever --seeds says: one line ``parse/i sha256`` for the i-th of the
distinct request texts (forms and --sigma values) of the three workloads
on seeds 1-6, fixed edge cases and seeded random strings: expressions,
half of them with one character changed, and strings over the parser's
alphabet.  The hash covers the parsed terms, the int numerators in
their storage order (the order float kernels sum in) and the denominator,
and the ``canonical_text`` of the parse and of its form, or the kind,
message and offset of the error.  --root names the
checkout whose ``src`` and ``bench`` are used (default: the one holding
this script), so that

    python tools/output_digests.py --root OTHER > other.txt
    python tools/output_digests.py > this.txt
    diff other.txt this.txt

shows every request whose output differs between the two.  The requests
run in a temporary directory; only the standard library is used.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import random
import subprocess
import sys
import tempfile

_HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_EDGE_TEXTS = [
    "", " ", "x", "y", "0", "7", "0*x", "x-x", "0/7", "1/0", "1/0*x", "2/4*x+3/6*y",
    "0.25*y^2", "0.50*x-1.000*y", "1.", ".5", "1.5.2", "x^-1", "x^2 - y^-1", "x^", "^2",
    "xy", "2x", "x**2", "x^2^3", "2^3^2*x", "x^(2)", "x^((3))", "x^(-2)", "(x", "x)",
    "()", "--x", "-(-x)^3", "+x", "x+", "x # y", "\tx\n", "\u00e9", "x^512", "x^513",
    "x^2^9", "x^2^10", "x^512*x^512*x^512", "x^512*x^512*x^512*x", "(x-y)^512",
    "x^512*y^512*(x-y)^512", "1" * 4300 + "*x", "1" * 4301 + "*x",
    "1/" + "1" * 4300 + "*x", "x^" + "9" * 5000, "x^2+y", "x*y - y*x",
]
_ALPHABET = "xy0123456789./+-*^() "
_EDGE_FORMS = (
    [f"(x-y)*(x-(1+1/10^{k})*y)" for k in (100, 200, 300, 400)]
    + [f"(x-y)^2+1/10^{k}*y^2" for k in (100, 300, 500)]
    + [f"(x+y)*((x-y)^2+1/10^{k}*y^2)" for k in (300, 500)]
    + ["x^2-10^200*y^2"]
    + [f"y^{n}-2*({a}*y-x)^2*x^{n - 2}" for a in (10, 100) for n in range(6, 13)]
    + ["(x-y)*" + "*".join(f"(x-{j}*y)" for j in range(2, n + 1)) for n in (40, 60, 80)]
    + ["(x-y)^512*(x-2*y)^512*(x-3*y)^512", "(x^2+y^2)^512*(x^2+2*y^2)^256",
       "(x^2+x*y+y^2)^300*(x-3*y)^500"]
)


def _run_in_process(argv: list[str]) -> tuple[int, str, str]:
    import binform.cli as cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _run_cold(argv: list[str], src: str) -> tuple[int, str, str]:
    env = dict(os.environ, PYTHONPATH=src)
    p = subprocess.run([sys.executable, "-m", "binform.cli", *argv], env=env,
                       capture_output=True, text=True, timeout=600)
    return p.returncode, p.stdout, p.stderr


def _digest(rc: int, out: str, err: str, written: dict[str, bytes]) -> str:
    h = hashlib.sha256()
    for part in (str(rc), out, err):
        h.update(part.encode() + b"\0")
    for path in sorted(written):
        h.update(path.encode() + b"\0" + written[path] + b"\0")
    return h.hexdigest()


def _take_written(inputs: set[str]) -> dict[str, bytes]:
    """Read and remove every file under the working directory that the
    request wrote (everything but its input files)."""
    written = {}
    for dirpath, _, names in os.walk("."):
        for name in names:
            path = os.path.relpath(os.path.join(dirpath, name))
            if path not in inputs:
                with open(path, "rb") as fh:
                    written[path] = fh.read()
                os.remove(path)
    return written


def _parse_texts(corpus) -> list[str]:
    texts = []
    for workload in ("cli", "exact", "geometry"):
        for seed in range(1, 7):
            for req in corpus.requests(workload, seed, "out"):
                argv = req["argv"]
                texts += [argv[-1]] + [v for k, v in zip(argv, argv[1:]) if k == "--sigma"]
    rng = random.Random(19)
    texts += _EDGE_TEXTS + [_random_text(rng) for _ in range(40000)]
    texts += ["".join(rng.choices(_ALPHABET, k=rng.randint(1, 16))) for _ in range(20000)]
    return list(dict.fromkeys(texts))


def _random_text(rng: random.Random, depth: int = 0) -> str:
    """A random expression; at the top, in half the cases, with one
    character replaced by one of the parser's alphabet, dropped or added,
    so that errors come at every offset."""
    r = rng.random()
    if depth > 3 or r < 0.35:
        text = rng.choice(["x", "y", "0", str(rng.randint(1, 12)), "3/6", "0.25", "2.50"])
    elif r < 0.75:
        op = rng.choice(["+", "-", "*", " - ", " * "])
        text = _random_text(rng, depth + 1) + op + _random_text(rng, depth + 1)
    elif r < 0.9:
        text = f"({_random_text(rng, depth + 1)})^{rng.randint(0, 3)}"
    else:
        text = "-" + _random_text(rng, depth + 1)
    if depth == 0 and rng.random() < 0.5:
        i = rng.randrange(len(text) + 1)
        text = text[:i] + rng.choice(["", rng.choice(_ALPHABET)]) + text[i + rng.randint(0, 1):]
    return text


def _parse_digest(text: str) -> str:
    from binform.exprparse import canonical_text, parse_polynomial, to_homogeneous

    parts = []
    try:
        p = parse_polynomial(text)
        parts += [repr(sorted(p.terms.items())), repr(list(p.nums.items())), str(p.den),
                  canonical_text(p)]
        parts.append(canonical_text(to_homogeneous(p)))
    except Exception as e:
        parts.append(f"{type(e).__name__}: {e} @ {getattr(e, 'offset', None)}")
    return hashlib.sha256("\0".join(parts).encode()).hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", default=_HERE, help="checkout holding src/ and bench/")
    ap.add_argument("--workloads", default="cli,exact,geometry")
    ap.add_argument("--seeds", default="1,2,3,4")
    ap.add_argument("--cold", action="store_true",
                    help="run each request in a fresh python -m binform.cli")
    args = ap.parse_args()
    root = os.path.abspath(args.root)
    src = os.path.join(root, "src")
    sys.path[:0] = [src, root]
    from bench import corpus

    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for workload in args.workloads.split(","):
            if workload == "parse":
                for i, text in enumerate(_parse_texts(corpus)):
                    print(f"parse/{i} {_parse_digest(text)}", flush=True)
                continue
            if workload == "edge":
                batches = [("edge", [{"id": f"{cmd}/{form}", "argv": [cmd, "--", form],
                                      "files": {}} for form in _EDGE_FORMS
                                     for cmd in ("factor", "decide", "classify", "symmetry",
                                                 "hamiltonian")])]
            else:
                batches = [(f"{workload}/{seed}", corpus.requests(workload, seed, "out"))
                           for seed in (int(s) for s in args.seeds.split(","))]
            for prefix, reqs in batches:
                for req in reqs:
                    for path, text in req["files"].items():
                        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
                        with open(path, "w", encoding="utf-8") as fh:
                            fh.write(text)
                    os.makedirs("out", exist_ok=True)
                    run = _run_cold(req["argv"], src) if args.cold else _run_in_process(req["argv"])
                    written = _take_written({os.path.normpath(p) for p in req["files"]})
                    for path in req["files"]:
                        os.remove(path)
                    print(f"{prefix}/{req['id']} {_digest(*run, written)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
