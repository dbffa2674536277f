"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload {cli,exact,geometry} --seed N \\
        --seconds S --trace {0,1}

Run it from anywhere; it works in the checkout that holds it, runs the
package from that checkout's ``src`` and writes scratch files under
``.bench_out/`` there, removing them at the end.  See bench/README.md for
the workloads, the estimator and the metrics.

With --trace 0 the last line of stdout holds the end-to-end metrics, with
--trace 1 the per-layer metrics of a separate traced run.  Both report how
many requests were attempted and how many failed, and whether every answer
that did not fail passed its check.  A failing check is described on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[0] = ROOT        # import the benchmark as the package `bench`

from bench import checks, corpus, hostspeed, tracing  # noqa: E402

WORKLOADS = ("cli", "exact", "geometry")
SETUP_STARTS = 5          # fresh starts before and again after the requests
TIMEOUT_S = 150           # no single child may run longer than this
PY = sys.executable


def _env() -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    env.pop("BINFORM_PRECISION", None)   # every request runs at the default width
    return env


def _cold(argv, env, traced_as=None) -> tuple[float, tuple, str]:
    """One fresh ``python -m binform.cli`` process: (seconds, answer, import
    times).  With traced_as=(spans, req, round) it runs through the trace
    launcher with -X importtime, whose lines are split off stderr."""
    if traced_as is None:
        cmd = [PY, "-m", "binform.cli", *argv]
    else:
        spans, req, rnd = traced_as
        cmd = [PY, "-X", "importtime", "-m", "bench.launch", spans, str(req), str(rnd), *argv]
    t0 = time.perf_counter()
    p = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                       timeout=TIMEOUT_S)
    dt = time.perf_counter() - t0
    lines = p.stderr.splitlines(keepends=True)
    imports = "".join(ln for ln in lines if ln.startswith("import time:"))
    err = "".join(ln for ln in lines if not ln.startswith("import time:"))
    return dt, (p.returncode, p.stdout, err), imports


def _setup_times(workload, reqfile, reqs, env) -> list[float]:
    """Wall times from starting a fresh interpreter until the first request
    is answered, one per fresh start."""
    times = []
    for _ in range(SETUP_STARTS):
        if workload == "cli":
            times.append(_cold(reqs[0]["argv"], env)[0])
            continue
        t0 = time.perf_counter()
        p = subprocess.Popen([PY, "-m", "bench.worker", reqfile, "setup"], env=env,
                             cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = p.stdout.readline()
            times.append(time.perf_counter() - t0)
            p.wait(timeout=TIMEOUT_S)
        finally:
            if p.poll() is None:
                p.kill()
                p.wait()
            p.stdout.close()
        if line.strip() != "ready":
            raise RuntimeError("the setup worker did not answer")
    return times


def _serve_cold(reqs, seconds, env, spans=None) -> dict:
    """The cli workload: every request in a fresh process, in whole rounds,
    until `seconds` have passed (at least two rounds).  With spans, odd
    rounds run traced."""
    times, traced, changed, first, imports, ref = [], [], set(), None, [], []
    start = time.perf_counter()
    while len(times) < 2 or time.perf_counter() - start < seconds:
        rnd = len(times)
        on = spans is not None and rnd % 2 == 1
        row, answers = [], []
        for i, req in enumerate(reqs):
            if i % 5 == 0:        # cold requests are long: time the reference more often
                ref.append(hostspeed.timed())
            dt, ans, imp = _cold(req["argv"], env, (spans, i, rnd) if on else None)
            row.append(dt)
            answers.append(ans)
            if on:
                imports.append(imp)
        if first is None:
            first = answers
        else:
            changed.update(i for i, a in enumerate(answers) if _key(a) != _key(first[i]))
        times.append(row)
        traced.append(on)
    return {"times": times, "traced": traced, "answers": first, "changed": sorted(changed),
            "imports": imports, "ref": ref,
            "maxrss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss}


def _serve_warm(reqfile, seconds, env, spans=None) -> dict:
    cmd = [PY, "-m", "bench.worker", reqfile, "serve", str(seconds)]
    if spans is not None:
        cmd.append(spans)
    p = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                       timeout=seconds + TIMEOUT_S)
    if p.returncode != 0:
        raise RuntimeError(f"the worker failed: {p.stderr.strip()[-500:]}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def _key(answer) -> tuple:
    """What must repeat exactly between rounds: exit code, stdout and the
    last line of stderr (a traceback's frames differ under the launcher)."""
    rc, out, err = answer
    return rc, out, err.strip().rsplit("\n", 1)[-1]


def _fastest(times, rounds) -> list[float]:
    """Each request's fastest time over the given rounds."""
    return [min(times[r][i] for r in rounds) for i in range(len(times[0]))]


def _judge(reqs, served) -> tuple[bool, int, int, list[int]]:
    """(correct, attempted, failed, indices of passing requests).  A request
    fails when its answer fails its check; the run is correct when only the
    known failures fail and no answer changed between rounds."""
    rounds = len(served["times"])
    bad = {}
    for i, (req, ans) in enumerate(zip(reqs, served["answers"])):
        why = checks.check(req, *ans)
        if why:
            bad[i] = why
    for i, why in bad.items():
        sys.stderr.write(f"failed {reqs[i]['id']} {reqs[i]['argv']}: {why}\n")
    for i in served["changed"]:
        sys.stderr.write(f"answer changed between rounds: {reqs[i]['id']}\n")
    known = all(reqs[i]["id"].startswith("known-failing") for i in bad)
    correct = known and not served["changed"]
    ok = [i for i in range(len(reqs)) if i not in bad]
    return correct, rounds * len(reqs), rounds * len(bad), ok


def end_to_end(workload, reqs, reqfile, seconds, env) -> dict:
    # half the fresh starts before the requests and half after, so that
    # the median spans the run rather than one moment of the host
    setup = _setup_times(workload, reqfile, reqs, env)
    served = (_serve_cold(reqs, seconds, env) if workload == "cli"
              else _serve_warm(reqfile, seconds, env))
    setup += _setup_times(workload, reqfile, reqs, env)
    correct, attempted, failed, ok = _judge(reqs, served)
    factor = hostspeed.scale(served["ref"])
    fastest = [factor * t for t in _fastest(served["times"], range(len(served["times"])))]
    ms = [1e3 * fastest[i] for i in ok]
    metrics = {
        "ops_per_s": (len(ok) / sum(fastest), "1/s"),
        "op_ms_p50": (statistics.median(ms), "ms"),
        "op_ms_p90": (statistics.quantiles(ms, n=10, method="inclusive")[8], "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (served["maxrss_kb"] / 1024, "MB"),
    }
    return _result(correct, attempted, failed, metrics)


def _bare_python_ms(env) -> float:
    times = []
    for _ in range(SETUP_STARTS):
        t0 = time.perf_counter()
        subprocess.run([PY, "-c", "pass"], env=env, cwd=ROOT, check=True, timeout=TIMEOUT_S)
        times.append(time.perf_counter() - t0)
    return 1e3 * min(times)


def _import_ms(env) -> dict:
    """Median over fresh interpreters of the import-time figures."""
    runs = []
    for _ in range(3):
        p = subprocess.run([PY, "-X", "importtime", "-c", "import binform.cli"], env=env,
                           cwd=ROOT, capture_output=True, text=True, check=True,
                           timeout=TIMEOUT_S)
        runs.append(tracing.importtime(p.stderr))
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


def per_layer(workload, reqs, reqfile, seconds, env, spans) -> dict:
    if os.path.exists(spans):
        os.remove(spans)
    if workload == "cli":
        served = _serve_cold(reqs, seconds, env, spans)
        imports = [tracing.importtime(text) for text in served["imports"]]
        imp = {k: statistics.median(r[k] for r in imports) for k in imports[0]}
    else:
        served = _serve_warm(reqfile, seconds, env, spans)
        imp = _import_ms(env)
    correct, attempted, failed, _ = _judge(reqs, served)
    on = [r for r, t in enumerate(served["traced"]) if t]
    off = [r for r, t in enumerate(served["traced"]) if not t]
    cost = sum(_fastest(served["times"], on)) / sum(_fastest(served["times"], off))
    layers = tracing.layer_metrics(tracing.read_records(spans), len(reqs))
    layers.update(imp)
    layers["startup.python_ms"] = _bare_python_ms(env)
    layers["trace.overhead_pct"] = 100 * (cost - 1)
    metrics = {name: (layers[name], unit) for name, unit in PER_LAYER_UNITS.items()}
    return _result(correct, attempted, failed, metrics)


PER_LAYER_UNITS = {
    "startup.python_ms": "ms",
    "import.numpy_ms": "ms",
    "import.mpmath_ms": "ms",
    "import.binform_ms": "ms",
    "cli.self_ms": "ms",
    "exprparse.parse_ms": "ms",
    "exprparse.canonical_ms": "ms",
    "realfactor.factor_calls": "1",
    "realfactor.factor_ms": "ms",
    "realfactor.isolations_per_layer": "1",
    "realfactor.refine_ms": "ms",
    "polyring.sqf_ms": "ms",
    "polyring.gcd_ms": "ms",
    "polyring.eval_float_calls": "1",
    "polyring.eval_float_ms": "ms",
    "hamfield.divisor_ms": "ms",
    "hamfield.evals_per_step": "1",
    "verdict.decide_ms": "ms",
    "symgroup.finite_ms": "ms",
    "symgroup.family_ms": "ms",
    "dynamics.steps": "1",
    "dynamics.integrate_ms": "ms",
    "dynamics.us_per_step": "us",
    "dynamics.level_set_ms": "ms",
    "dynamics.shift_ms": "ms",
    "render.portrait_ms": "ms",
    "render.bytes": "B",
    "trace.overhead_pct": "%",
}


def _result(correct, attempted, failed, metrics) -> dict:
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "binform", "cli.py")):
        sys.stderr.write(f"no program to measure: {ROOT}/src/binform is missing\n")
        return 2
    os.chdir(ROOT)            # the requests name their files relative to the checkout
    out = os.path.join(".bench_out", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(os.path.join(ROOT, out))
    try:
        reqs = corpus.requests(args.workload, args.seed, out)
        for req in reqs:
            for path, text in req["files"].items():
                with open(os.path.join(ROOT, path), "w", encoding="utf-8") as fh:
                    fh.write(text)
        reqfile = os.path.join(ROOT, out, "requests.json")
        with open(reqfile, "w", encoding="utf-8") as fh:
            json.dump(reqs, fh)
        env = _env()
        if args.trace:
            spans = os.path.join(ROOT, ".bench_out", f"spans-{args.workload}.jsonl")
            result = per_layer(args.workload, reqs, reqfile, args.seconds, env, spans)
        else:
            result = end_to_end(args.workload, reqs, reqfile, args.seconds, env)
    finally:
        shutil.rmtree(os.path.join(ROOT, out), ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
