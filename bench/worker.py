"""The serving process of the warm workloads.

    python -m bench.worker REQUESTS.json setup
    python -m bench.worker REQUESTS.json serve SECONDS [SPANS.jsonl]

``setup`` imports the program, answers the first request and prints
``ready``; the caller times it from process start.  ``serve`` sends every
request through ``binform.cli.main`` in whole rounds, in one process, until
SECONDS have passed (at least two rounds), and prints one JSON object: the
time of every request in every round, the first round's answers, the
requests whose answer changed in a later round, the times of the
host-speed reference job run every few requests (hostspeed.py), and the
process's peak RSS.
With SPANS.jsonl, odd rounds run with the trace wrappers installed and the
spans are written there at the end.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time

from . import hostspeed


def _serve_one(cli, argv):
    """One request through cli.main, looked up on the module so that the
    trace wrapper is used when it is installed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except Exception as e:      # an escaping exception is an answer too
            err.write(f"{type(e).__name__}: {e}\n")
            rc = 1
    return rc, out.getvalue(), err.getvalue()


def serve(reqs, seconds: float, spans_path=None) -> dict:
    import binform.cli as cli

    tracer = None
    if spans_path:
        from .tracing import Tracer
        tracer = Tracer()
    min_rounds = 4 if tracer else 2
    times, traced, changed, ref = [], [], set(), []
    first = None
    start = time.perf_counter()
    while len(times) < min_rounds or time.perf_counter() - start < seconds:
        rnd = len(times)
        on = tracer is not None and rnd % 2 == 1
        if on:
            tracer.install()
        row, answers = [], []
        for i, req in enumerate(reqs):
            if i % hostspeed.EVERY == 0:
                ref.append(hostspeed.timed())
            if on:
                tracer.begin_request(i, rnd)
            t0 = time.perf_counter()
            ans = _serve_one(cli, req["argv"])
            row.append(time.perf_counter() - t0)
            answers.append(ans)
        if on:
            tracer.uninstall()
        if first is None:
            first = answers
        else:
            changed.update(i for i, a in enumerate(answers) if a != first[i])
        times.append(row)
        traced.append(on)
    if tracer:
        tracer.write(spans_path)
    return {"times": times, "traced": traced, "answers": first,
            "changed": sorted(changed), "ref": ref,
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}


def main() -> int:
    path, mode = sys.argv[1], sys.argv[2]
    with open(path, encoding="utf-8") as fh:
        reqs = json.load(fh)
    if mode == "setup":
        import binform.cli as cli
        _serve_one(cli, reqs[0]["argv"])
        sys.stdout.write("ready\n")
        sys.stdout.flush()
        return 0
    spans = sys.argv[4] if len(sys.argv) > 4 else None
    result = serve(reqs, float(sys.argv[3]), spans)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
