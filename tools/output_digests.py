"""One digest per benchmark request: a byte-identity check between checkouts.

    python tools/output_digests.py [--root CHECKOUT] [--workloads cli,exact,geometry]
                                   [--seeds 1,2,3,4] [--cold]

Builds the requests of ``bench.corpus`` for every workload and seed, runs
each one through ``binform.cli.main`` in this process (with --cold, in a
fresh ``python -m binform.cli`` process instead) and prints one line
``workload/seed/id sha256`` per request.  The hash covers the exit code,
stdout, stderr and every file the request wrote.  --root names the
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
import subprocess
import sys
import tempfile

_HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


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
            for seed in (int(s) for s in args.seeds.split(",")):
                for req in corpus.requests(workload, seed, "out"):
                    for path, text in req["files"].items():
                        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
                        with open(path, "w", encoding="utf-8") as fh:
                            fh.write(text)
                    os.makedirs("out", exist_ok=True)
                    run = _run_cold(req["argv"], src) if args.cold else _run_in_process(req["argv"])
                    written = _take_written({os.path.normpath(p) for p in req["files"]})
                    for path in req["files"]:
                        os.remove(path)
                    print(f"{workload}/{seed}/{req['id']} {_digest(*run, written)}",
                          flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
