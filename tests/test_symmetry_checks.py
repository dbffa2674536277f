"""Every symmetry request of the benchmark's geometry corpus (seed 1),
answered through binform.cli.main and judged by the benchmark's own
independent checks (bench/checks.py), so that a change that moves the
bits of a symmetry answer is judged here too."""

import contextlib
import io
import sys
from pathlib import Path

import binform.cli as cli

ROOT = Path(__file__).resolve().parent.parent


def test_geometry_symmetry_answers_pass_the_benchmark_checks():
    sys.path.insert(0, str(ROOT))
    try:
        from bench import checks, corpus
    finally:
        sys.path.remove(str(ROOT))
    reqs = [r for r in corpus.requests("geometry", 1, "out") if r["argv"][0] == "symmetry"]
    assert len(reqs) >= 50
    wrong = []
    for req in reqs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(req["argv"])
        why = checks.check(req, rc, out.getvalue(), err.getvalue())
        if why is not None:
            wrong.append((req["id"], why))
    assert wrong == []
