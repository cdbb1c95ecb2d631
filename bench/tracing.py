"""In-process runner and tracer for the benchmark's traced run.

    python3 bench/tracing.py PLAN.json

runs the plan's CLI commands one after another in this process through
coprimelab.cli.main, with or without tracing, and writes result.json (and,
when traced, spans.jsonl) beside the plan.  Every lru_cache of the program is
cleared before each command and before the library calls, so each starts
cold, as a CLI invocation does.

Wraps the public functions of each coprimelab module at every place a module
looks them up (the defining module and every module that imported the name),
from the benchmark's own code; nothing under src/ changes.  Each call of a
wrapped function becomes a span (name, start, end, parent, run id) kept in
memory and written out when the run ends.  A span's self time is its duration
minus the time its child spans cover.

The two RNG leaves run over a million times per monte-carlo pass, so they are
counted and timed in aggregate instead of kept as one span each; their time
still counts as child time of the enclosing span.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import traceback
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

TRACED = {
    "rng": ("stream_seed", "SplitMix64.below"),
    "arith": ("primes_up_to", "second_moment_bound"),
    "colouring": ("lattice_from_id", "sample_coset_config", "colour_window",
                  "save_colouring", "load_colouring", "infer_cosets"),
    "lattice": ("standard_lattice", "minimal_vectors", "hypothesis_report",
                "check_crossing_adjacency", "check_slice_connectivity"),
    "perco": ("estimate_crossing", "estimate_annulus", "estimate_staircase",
              "estimate_spanning", "annulus_event", "staircase", "spanning_stats",
              "label_clusters"),
    "cli": ("main",),
}
AGGREGATED = {"rng.stream_seed", "rng.below"}

# Facts a span records about its call, for the per-layer splits.
NOTES = {
    "cli.main": lambda a, k, r: {"command": (a[0] if a else k["argv"])[0]},
    "colouring.colour_window": lambda a, k, r: {"points": r.window.point_count},
    "colouring.save_colouring": lambda a, k, r: {"bytes": os.path.getsize(a[1])},
    "colouring.load_colouring": lambda a, k, r: {"bytes": os.path.getsize(a[0])},
    "lattice.hypothesis_report": lambda a, k, r: {
        "lattice": r.lattice, "points": sum(s.points_certified for s in r.slices)},
    "arith.second_moment_bound": lambda a, k, r: {"arithmetic": r.arithmetic},
    # unit-range generating sets take the ndimage path, others the general one
    "perco.label_clusters": lambda a, k, r: {
        "unit_range": all(abs(c) <= 1 for s in a[1] for c in s)},
}


class Tracer:
    def __init__(self):
        self.run = ""
        self.spans: list[list] = []  # [name, start, end, parent, run, note]
        self.covered: list[float] = []  # child-span time inside each span
        self.leaf_calls: dict[str, int] = defaultdict(int)
        self.leaf_time: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def _span(self, name, fn, note):
        spans, covered, stack = self.spans, self.covered, self._stack

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, 0.0, 0.0, parent, self.run, None]
            stack.append(len(spans))
            spans.append(rec)
            covered.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                rec[1], rec[2] = start, end
                if parent >= 0:
                    covered[parent] += end - start
            if note is not None:
                rec[5] = note(args, kwargs, result)
            return result

        return wrapper

    def _leaf(self, name, fn):
        calls, total, covered, stack = self.leaf_calls, self.leaf_time, self.covered, self._stack

        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - start
                calls[name] += 1
                total[name] += dt
                if stack:
                    covered[stack[-1]] += dt

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every TRACED function while the block runs, then restore."""
        modules = [m for n, m in list(sys.modules.items())
                   if n.startswith("coprimelab.") and m is not None]
        patched = []
        for mod_name, quals in TRACED.items():
            module = sys.modules[f"coprimelab.{mod_name}"]
            for qual in quals:
                owner_name, _, attr = qual.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                fn = vars(owner).get(attr)
                name = f"{mod_name}.{attr}"
                if fn is None:
                    print(f"trace: {mod_name}.{qual} not found; its metrics stay 0",
                          file=sys.stderr)
                    continue
                wrapper = (self._leaf(name, fn) if name in AGGREGATED
                           else self._span(name, fn, NOTES.get(name)))
                if owner_name:
                    targets = [owner]
                else:
                    targets = [m for m in modules if vars(m).get(attr) is fn]
                for target in targets:
                    patched.append((target, attr, fn))
                    setattr(target, attr, wrapper)
        try:
            yield self
        finally:
            for target, attr, fn in reversed(patched):
                setattr(target, attr, fn)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, run, note) in enumerate(self.spans):
                rec = {"id": i, "name": name, "start": start, "end": end,
                       "parent": parent, "run": run}
                if note:
                    rec["note"] = note
                fh.write(json.dumps(rec) + "\n")
            for name in sorted(self.leaf_calls):
                fh.write(json.dumps({"aggregate": name, "calls": self.leaf_calls[name],
                                     "total": self.leaf_time[name]}) + "\n")


def _tail(durations: list[float]) -> tuple[float, float, float]:
    """Median, and the highest percentile with at least ten calls beyond it
    (the maximum when there are ten calls or fewer), with that percentile."""
    if not durations:
        return 0.0, 0.0, 0.0
    d = sorted(durations)
    n = len(d)
    if n <= 10:
        return d[n // 2], d[-1], 100.0
    return d[n // 2], d[n - 11], 100.0 * (n - 10) / n


def summarize(tracer: Tracer) -> dict:
    """{function name: {calls, self_s, total_s, p50_us, pmax_us, pmax_pct}};
    the percentiles are of inclusive per-call durations."""
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    durations: dict[str, list[float]] = defaultdict(list)
    for i, (name, start, end, _parent, _run, _note) in enumerate(tracer.spans):
        dur = end - start
        calls[name] += 1
        total_s[name] += dur
        self_s[name] += dur - tracer.covered[i]
        durations[name].append(dur)
    for name, n in tracer.leaf_calls.items():
        calls[name] += n
        total_s[name] += tracer.leaf_time[name]
        self_s[name] += tracer.leaf_time[name]
    functions = {}
    for mod_name, quals in TRACED.items():
        for qual in quals:
            name = f"{mod_name}.{qual.rpartition('.')[2]}"
            p50, pmax, pct = _tail(durations.get(name, []))
            functions[name] = {
                "calls": calls.get(name, 0), "self_s": self_s.get(name, 0.0),
                "total_s": total_s.get(name, 0.0), "p50_us": p50 * 1e6,
                "pmax_us": pmax * 1e6, "pmax_pct": pct,
            }
    return functions


def _sum_notes(tracer: Tracer, name: str, key: str) -> int:
    return sum(s[5][key] for s in tracer.spans if s[0] == name and s[5])


def _split(tracer: Tracer, name: str, key: str) -> dict:
    out: dict = defaultdict(float)
    for s in tracer.spans:
        if s[0] == name and s[5]:
            out[s[5][key]] += s[2] - s[1]
    return out


def layer_metrics(tracer: Tracer, rescan_trials_requested: int) -> dict:
    """All per-layer figures named by the benchmark, as {name: (value, unit)}."""
    fn = summarize(tracer)
    m: dict[str, tuple[float, str]] = {}
    for mod_name in ("arith", "colouring", "lattice", "perco"):
        m[f"{mod_name}.self_s"] = (
            sum(v["self_s"] for k, v in fn.items() if k.startswith(mod_name + ".")), "s")
    for name in ("rng.stream_seed", "rng.below", "colouring.lattice_from_id",
                 "colouring.sample_coset_config", "colouring.colour_window",
                 "arith.primes_up_to", "lattice.standard_lattice",
                 "lattice.minimal_vectors", "perco.annulus_event", "perco.staircase",
                 "perco.spanning_stats"):
        m[f"{name}.calls"] = (fn[name]["calls"], "count")
    for name in ("rng.stream_seed", "rng.below", "colouring.lattice_from_id",
                 "colouring.sample_coset_config", "colouring.colour_window",
                 "colouring.save_colouring", "colouring.load_colouring",
                 "colouring.infer_cosets", "arith.primes_up_to",
                 "lattice.standard_lattice", "lattice.minimal_vectors",
                 "lattice.check_slice_connectivity", "lattice.check_crossing_adjacency",
                 "perco.annulus_event", "perco.staircase", "perco.spanning_stats",
                 "cli.main"):
        m[f"{name}.self_s"] = (fn[name]["self_s"], "s")
    sc = fn["colouring.sample_coset_config"]
    m["colouring.sample_coset_config.p50_us"] = (sc["p50_us"], "us")
    m["colouring.sample_coset_config.pmax_us"] = (sc["pmax_us"], "us")
    m["colouring.colour_window.points"] = (
        _sum_notes(tracer, "colouring.colour_window", "points"), "count")
    m["colouring.save_colouring.bytes"] = (
        _sum_notes(tracer, "colouring.save_colouring", "bytes"), "bytes")
    m["colouring.load_colouring.bytes"] = (
        _sum_notes(tracer, "colouring.load_colouring", "bytes"), "bytes")
    m["lattice.points_certified"] = (
        _sum_notes(tracer, "lattice.hypothesis_report", "points"), "count")
    reports = _split(tracer, "lattice.hypothesis_report", "lattice")
    for lat in ("D4", "E8", "Leech"):
        m[f"lattice.hypothesis_report.{lat}_s"] = (reports.get(lat, 0.0), "s")
    modes = _split(tracer, "arith.second_moment_bound", "arithmetic")
    m["arith.second_moment_bound.exact_s"] = (
        sum(v for k, v in modes.items() if k.startswith("exact")), "s")
    m["arith.second_moment_bound.fixed_s"] = (
        sum(v for k, v in modes.items() if k.startswith("fixed")), "s")
    paths = _split(tracer, "perco.label_clusters", "unit_range")
    m["perco.label_clusters.ndimage_s"] = (paths.get(True, 0.0), "s")
    m["perco.label_clusters.unionfind_s"] = (paths.get(False, 0.0), "s")

    # The witness re-scan is everything cmd_annulus / cmd_staircase call
    # directly, outside the estimator.
    rescan_main = {i for i, s in enumerate(tracer.spans)
                   if s[0] == "cli.main" and s[5]["command"] in ("annulus", "staircase")}
    rescan = [s for s in tracer.spans
              if s[3] in rescan_main and not s[0].startswith("perco.estimate_")]
    m["cli.witness_rescan_s"] = (sum(s[2] - s[1] for s in rescan), "s")
    rescanned = sum(1 for s in rescan if s[0] == "colouring.sample_coset_config")
    m["perco.witness_rescan_trials"] = (
        rescanned / rescan_trials_requested if rescan_trials_requested else 0.0, "ratio")
    return m


def clear_caches() -> None:
    """Empty every lru_cache of the imported coprimelab modules."""
    for name, module in list(sys.modules.items()):
        if name.startswith("coprimelab.") and module is not None:
            for obj in vars(module).values():
                if (hasattr(obj, "cache_clear")
                        and getattr(obj, "__module__", "").startswith("coprimelab")):
                    obj.cache_clear()


def run_plan(plan: dict, tracer: Tracer | None) -> list[dict]:
    """Each command through coprimelab.cli.main in this process."""
    import coprimelab.cli as cli

    results = []
    with tracer.installed() if tracer else contextlib.nullcontext():
        for cid, *argv in plan["commands"]:
            clear_caches()
            if tracer:
                tracer.run = cid
            stdout, stderr = io.StringIO(), io.StringIO()
            error = None
            start = perf_counter()
            try:
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = cli.main(argv + ["--out", cid])
            except Exception:  # the CLI process would die with exit 1 here
                code, error = 1, traceback.format_exc(limit=3)
            results.append({"id": cid, "code": code, "wall": perf_counter() - start,
                            "stdout": stdout.getvalue(), "error": error})
    return results


def library_calls(plan: dict, tracer: Tracer) -> dict:
    """Calls only the traced run makes: colour_window on sublattice windows
    (traced), and the crossing estimator at 1 and nproc workers (untraced)."""
    from coprimelab import colouring, perco

    extra = {}
    clear_caches()
    tracer.run = "library"
    with tracer.installed():
        for lattice_id, r in plan["colour_windows"]:
            spec = colouring.lattice_from_id(lattice_id)
            config = colouring.sample_coset_config(spec, 97, plan["seed"])
            colouring.colour_window(
                config, colouring.Window((-r,) * spec.dim, (2 * r + 1,) * spec.dim))
    if plan["speedup"]:
        n, trials = plan["speedup"]
        times = []
        for workers in (1, plan["nproc"]):
            start = perf_counter()
            perco.estimate_crossing(n, n, trials, 2 * n, plan["seed"], workers=workers)
            times.append(perf_counter() - start)
        extra["perco.estimate_crossing.serial_s"] = (times[0], "s")
        extra["perco.parallel_speedup"] = (times[0] / times[1], "ratio")
    return extra


def main(plan_path: str) -> int:
    plan_path = Path(plan_path)
    plan = json.loads(plan_path.read_text())
    out_dir = plan_path.parent
    os.chdir(out_dir)
    tracer = Tracer() if plan["trace"] else None
    results = run_plan(plan, tracer)
    out = {"commands": results}
    if tracer:
        extra = library_calls(plan, tracer)
        metrics = layer_metrics(tracer, plan["rescan_trials_requested"])
        metrics.update(extra)
        out["metrics"] = metrics
        out["functions"] = summarize(tracer)
        tracer.write(out_dir / "spans.jsonl")
    (out_dir / "result.json").write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
