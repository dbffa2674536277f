"""Spans around the program's public functions, recorded from outside.

Tracer.install() replaces each traced function wherever a module of the
package binds it (so ``binform.cli.factor_form`` is traced as well as
``binform.realfactor.factor_form``) and uninstall() puts the originals back.
Each call becomes a span with a parent link; a span's self time is its
duration minus the time of the traced calls nested in it.  Functions called
tens of thousands of times per request (the float evaluators) are
aggregated per request and parent instead of kept one span each, and a few
are only counted.  Spans stay in memory until write().
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (module, attribute, span name); a class attribute is "Class.method"
SPANS = [
    ("binform.cli", "main", "cli.main"),
    ("binform.exprparse", "parse_polynomial", "exprparse.parse"),
    ("binform.exprparse", "to_homogeneous", "exprparse.parse"),
    ("binform.exprparse", "canonical_text", "exprparse.canonical"),
    ("binform.realfactor", "factor_form", "realfactor.factor_form"),
    ("binform.realfactor", "refine", "realfactor.refine"),
    ("binform.polyring", "squarefree_decomposition", "polyring.sqf"),
    ("binform.polyring", "gcd_bivariate", "polyring.gcd"),
    ("binform.polyring", "gcd_univariate", "polyring.gcd"),
    ("binform.hamfield", "common_divisor", "hamfield.divisor"),
    ("binform.hamfield", "reduced_field", "hamfield.divisor"),
    ("binform.verdict", "decide_theorem", "verdict.decide"),
    ("binform.verdict", "classify_case", "verdict.decide"),
    ("binform.symgroup", "symmetry_group", "symgroup"),
    ("binform.dynamics", "integrate_flow", "dynamics.integrate"),
    ("binform.dynamics", "level_set", "dynamics.level_set"),
    ("binform.dynamics", "shift_map_apply", "dynamics.shift"),
    ("binform.dynamics", "shift_regularity", "dynamics.shift"),
    ("binform.dynamics", "orbit_portrait", "dynamics.orbit_portrait"),
    ("binform.render", "portrait_svg", "render.portrait"),
    ("binform.render", "portrait_csv", "render.portrait"),
]
# timed, aggregated per (request, round, parent span)
LEAVES = [
    ("binform.polyring", "BivariatePoly.eval_float", "polyring.eval_float"),
    ("binform.polyring", "HomogeneousForm.eval_float", "polyring.eval_float"),
]
# counted only, per (request, round, parent span)
COUNTS = [
    ("binform.realfactor", "isolate_real_roots", "realfactor.isolate"),
    ("binform.hamfield", "PlanarPolyField.at", "hamfield.at"),
]


def _span_size(name: str, result):
    """The work count a span carries: layers found, steps taken, bytes."""
    if name == "polyring.sqf":
        return len(result)
    if name == "dynamics.integrate":
        return len(result.times) - 1
    if name == "render.portrait":
        return len(result.encode("utf-8"))
    return None


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.aggregates: dict = {}       # (req, round, name, parent) -> [count, seconds]
        self._stack: list[list] = []     # open spans: [id, name, t0, child seconds]
        self._next_id = 0
        self._req = self._round = None
        self._patches: list = []

    def begin_request(self, req: int, rnd: int) -> None:
        self._req, self._round = req, rnd

    # -- wrappers ---------------------------------------------------------

    def _span(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else None
            frame = [sid, name, time.perf_counter(), 0.0]
            self._stack.append(frame)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                dur = t1 - frame[2]
                if self._stack:
                    self._stack[-1][3] += dur
                label = name
                if name == "symgroup":
                    label = ("symgroup.finite" if type(result).__name__ == "FiniteCyclicGroup"
                             else "symgroup.family")
                self.spans.append({
                    "req": self._req, "round": self._round, "id": sid, "parent": parent,
                    "name": label, "t0": frame[2], "t1": t1, "self": dur - frame[3],
                    "n": None if result is None else _span_size(name, result)})
        return wrapper

    def _leaf(self, fn, name, timed):
        aggregates = self.aggregates
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            key = (self._req, self._round, name, stack[-1][1])
            slot = aggregates.get(key)
            if slot is None:
                slot = aggregates[key] = [0, 0.0]
            slot[0] += 1
            if not timed:
                return fn(*args, **kwargs)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                slot[1] += dt
                stack[-1][3] += dt
        return wrapper

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for table, make in ((SPANS, lambda f, n: self._span(f, n)),
                            (LEAVES, lambda f, n: self._leaf(f, n, True)),
                            (COUNTS, lambda f, n: self._leaf(f, n, False))):
            for modname, attr, name in table:
                mod = importlib.import_module(modname)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    original = cls.__dict__[meth]
                    self._patch(cls, meth, original, make(original, name))
                    continue
                original = getattr(mod, attr)
                wrapper = make(original, name)
                for other in list(sys.modules.values()):
                    oname = getattr(other, "__name__", "")
                    if oname == "binform" or oname.startswith("binform."):
                        for key, val in list(vars(other).items()):
                            if val is original:
                                self._patch(other, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output -----------------------------------------------------------

    def write(self, path: str, append: bool = False) -> None:
        with open(path, "a" if append else "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
            for (req, rnd, name, parent), (count, secs) in self.aggregates.items():
                fh.write(json.dumps({"req": req, "round": rnd, "leaf": name,
                                     "parent": parent, "count": count,
                                     "self": secs}) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics from the written spans

# span name -> metric, all self times in ms per request
TIMED = {
    "cli.main": "cli.self_ms",
    "exprparse.parse": "exprparse.parse_ms",
    "exprparse.canonical": "exprparse.canonical_ms",
    "realfactor.factor_form": "realfactor.factor_ms",
    "realfactor.refine": "realfactor.refine_ms",
    "polyring.sqf": "polyring.sqf_ms",
    "polyring.gcd": "polyring.gcd_ms",
    "polyring.eval_float": "polyring.eval_float_ms",
    "hamfield.divisor": "hamfield.divisor_ms",
    "verdict.decide": "verdict.decide_ms",
    "symgroup.finite": "symgroup.finite_ms",
    "symgroup.family": "symgroup.family_ms",
    "dynamics.integrate": "dynamics.integrate_ms",
    "dynamics.level_set": "dynamics.level_set_ms",
    "dynamics.shift": "dynamics.shift_ms",
    "render.portrait": "render.portrait_ms",
}


def layer_metrics(records, n_requests: int) -> dict:
    """Per-layer metrics, per request and averaged over the workload.

    A request's time in a layer is its fastest over the traced rounds, as
    for the end-to-end times; counts are taken from one traced round, since
    the work repeats exactly."""
    secs: dict = {}            # (metric, req) -> {round: seconds}
    counts: dict = {}          # (what, req) -> {round: count}

    def add(table, key, rnd, v):
        per = table.setdefault(key, {})
        per[rnd] = per.get(rnd, 0) + v

    for r in records:
        req, rnd = r["req"], r["round"]
        name = r.get("name") or r.get("leaf")
        if name in TIMED:
            add(secs, (TIMED[name], req), rnd, r["self"])
        if "leaf" in r:
            add(counts, (name, req), rnd, r["count"])
            if name == "hamfield.at" and r["parent"] == "dynamics.integrate":
                add(counts, ("at_in_integrate", req), rnd, r["count"])
            continue
        add(counts, (name, req), rnd, 1)
        if name == "polyring.sqf":
            add(counts, ("sqf_layers", req), rnd, r["n"] or 0)
        elif name == "dynamics.integrate":
            add(counts, ("steps", req), rnd, r["n"] or 0)
        elif name == "render.portrait":
            add(counts, ("bytes", req), rnd, r["n"] or 0)

    def total_ms(metric):
        return 1e3 * sum(min(v.values()) for (m, _), v in secs.items() if m == metric)

    def total_count(what):
        return sum(v[min(v)] for (w, _), v in counts.items() if w == what)

    out = {metric: total_ms(metric) / n_requests for metric in TIMED.values()}
    steps = total_count("steps")
    layers = total_count("sqf_layers")
    out.update({
        "realfactor.factor_calls": total_count("realfactor.factor_form") / n_requests,
        "realfactor.isolations_per_layer":
            total_count("realfactor.isolate") / layers if layers else 0.0,
        "polyring.eval_float_calls": total_count("polyring.eval_float") / n_requests,
        "hamfield.evals_per_step": total_count("at_in_integrate") / steps if steps else 0.0,
        "dynamics.steps": steps / n_requests,
        "dynamics.us_per_step": 1e3 * total_ms("dynamics.integrate_ms") / steps if steps else 0.0,
        "render.bytes": total_count("bytes") / n_requests,
    })
    return out


def read_records(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def importtime(stderr: str) -> dict:
    """numpy's and mpmath's cumulative import time and the self time of the
    package's own modules, in ms, from ``python -X importtime`` output."""
    out = {"import.numpy_ms": 0.0, "import.mpmath_ms": 0.0, "import.binform_ms": 0.0}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        try:
            self_us, cum_us = int(fields[0]), int(fields[1])
        except ValueError:
            continue                     # the header line
        name = fields[2].strip()
        if name == "numpy":
            out["import.numpy_ms"] = cum_us / 1e3
        elif name == "mpmath":
            out["import.mpmath_ms"] = cum_us / 1e3
        elif name == "binform" or name.startswith("binform."):
            out["import.binform_ms"] += self_us / 1e3
    return out
