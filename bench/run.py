"""Benchmark of the coprimelab CLI on fixed workloads (see workloads.py).

Run from the repository root:

    python3 bench/run.py --workload monte-carlo --seed 0 --seconds 40 --trace 0

--trace 0 measures the end-to-end metrics with tracing off.  It runs the
workload's command list through the CLI in fresh processes with --workers
nproc, pass after pass while the next pass is expected to end within
--seconds (at least one; the workloads are sized for three), and reports
medians over passes.  Set-up is a fresh interpreter start plus
`import coprimelab.cli`, measured before the first and the middle command of
every pass; setup_s is the median CPU time of the interpreter's main thread
over those samples (from process start to the end of the import), and
setup_wall_s their median wall time.  CPU time leaves out waiting for disk
or for a core, which on a shared 2-core host moved the wall time of the same
import by 30% between two sets of runs while cpu_s moved by 7%; the main
thread leaves out the CPU a BLAS helper thread spins away during numpy's
import.

--trace 1 runs the list, and the workload's `once` commands, in one fresh
process per pass with --workers 1 (tracing.py), once untraced and once
traced, and reports per-layer metrics; the tracing overhead is the wall-time
difference of those two passes.  The commands that take --workers also run
through the CLI at nproc workers, and the traced outputs must match both
untraced passes.

Every pass goes through the correctness gate (gate.py).  Stdout ends with a
human-readable summary, a `record` line (machine, versions, seed, workers,
peak RSS, per-pass times, failures) and, as the last line, one JSON object
with the keys correct, attempted, failed and metrics, holding the metrics
BENCHMARK.json declares.  Outputs, the full record and the trace spans go to
.bench_work/<workload>/ under the repository root.
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
from dataclasses import replace
from importlib import metadata
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import gate  # noqa: E402
from workloads import SMOKE, WORKLOADS, Workload  # noqa: E402

EXPECTED = BENCH / "expected.json"

# End-to-end figures printed in the summary and kept in the record but not in
# the result line.  The stage figures below apply to one workload each, and
# every result-line metric must be measured, and non-zero, on every workload.
# check_s covers the timed checks (D4, E8), not the traced-only Leech check.
# wall_s is left out of the result line because on a shared host its
# run-to-run spread can exceed the largest bound a metric may have, while the
# CPU time of the same commands (cpu_s) stays steadier.
STAGES = {
    "crossing_trials_per_s": ("crossing", "trials/s"),
    "event_trials_per_s": ("events", "trials/s"),
    "bounds_s": ("bounds", "s"),
    "window_points_per_s": ("window", "points/s"),
    "check_s": ("check", "s"),
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env(work: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(work)
    return env


def child_rusage():
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0


def probe(env: dict, work: Path) -> str:
    """RNG_ID of the program under test, after checking it is imported from SRC."""
    code = ("import coprimelab, coprimelab.rng as r; "
            "print(r.RNG_ID); print(coprimelab.__file__)")
    out = subprocess.run([sys.executable, "-c", code], cwd=work, env=env,
                         capture_output=True, text=True, check=True).stdout.split("\n")
    if not Path(out[1]).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"coprimelab imported from {out[1]}, not from {SRC}")
    return out[0]


def time_setup(env: dict, cwd: Path) -> tuple[float, float]:
    """Main-thread CPU time and wall time of a fresh interpreter that imports
    coprimelab.cli."""
    code = "import coprimelab.cli, time; print(time.thread_time())"
    start = perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, check=True)
    return float(proc.stdout), perf_counter() - start


def result_of(cmd, code: int, wall: float, out_dir: Path, stdout: bytes,
              cpu: float = 0.0, failure: str | None = None) -> gate.CmdResult:
    r = gate.CmdResult(cmd.id, code, wall, gate.digest_outputs(out_dir, stdout), out_dir,
                       cmd.work, cmd.stage, cmd.seeded, cpu)
    if failure:
        r.failures.append(failure)
    return r


def run_pass(wl: Workload, seed: int, workers: int, pass_dir: Path, env: dict,
             setup_times: list | None = None):
    """One untraced pass: each command in a fresh CLI process.  With
    setup_times, a set-up is timed before the first and the middle command,
    so the samples spread over the run like the commands' own start-ups."""
    pass_dir.mkdir(parents=True)
    timed_at = {0, len(wl.commands) // 2}
    results = []
    for i, cmd in enumerate(wl.commands):
        if setup_times is not None and i in timed_at:
            setup_times.append(time_setup(env, pass_dir))
        argv = cmd.expand(seed, workers) + ["--out", cmd.id]
        cpu = child_rusage()[0]
        start = perf_counter()
        proc = subprocess.run([sys.executable, "-m", "coprimelab.cli", *argv],
                              cwd=pass_dir, env=env, capture_output=True)
        wall = perf_counter() - start
        stderr = proc.stderr.decode(errors="replace").strip()[-300:]
        results.append(result_of(cmd, proc.returncode, wall, pass_dir / cmd.id,
                                 proc.stdout, child_rusage()[0] - cpu,
                                 proc.returncode and f"stderr: {stderr}"))
    return results


def stage_figures(results) -> dict:
    out = {}
    for name, (stage, unit) in STAGES.items():
        rs = [r for r in results if r.stage == stage]
        if not rs:
            continue
        wall = sum(r.wall for r in rs)
        out[name] = wall if unit == "s" else sum(r.work for r in rs) / wall
    return out


def run_inprocess(wl: Workload, seed: int, workers: int, traced: bool,
                  out_dir: Path, env: dict):
    """One pass in a single fresh process (tracing.py), optionally traced."""
    out_dir.mkdir(parents=True)
    plan = {
        "seed": seed, "trace": traced, "nproc": nproc(),
        "commands": [[c.id, *c.expand(seed, workers)] for c in wl.commands],
        "colour_windows": wl.colour_windows, "speedup": wl.speedup,
        "rescan_trials_requested": sum(
            c.work for c in wl.commands if c.argv[0] in ("annulus", "staircase")),
    }
    (out_dir / "plan.json").write_text(json.dumps(plan))
    subprocess.run([sys.executable, str(BENCH / "tracing.py"), "plan.json"],
                   cwd=out_dir, env=env, check=True)
    out = json.loads((out_dir / "result.json").read_text())
    results = [result_of(cmd, r["code"], r["wall"], out_dir / cmd.id,
                         r["stdout"].encode(), failure=r["error"])
               for cmd, r in zip(wl.commands, out["commands"])]
    return results, out


def git_rev() -> str | None:
    """HEAD of the repository, or None when the checkout has no .git."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() or None


def src_digest() -> str:
    """SHA-256 over the program's sources; names the code in a checkout
    without .git, where git_rev is None."""
    files = sorted(SRC.rglob("*.py"))
    return gate.sha256(b"".join(p.relative_to(SRC).as_posix().encode() + b"\0"
                                + p.read_bytes() for p in files))


def version(dist: str) -> str | None:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def measure(wl: Workload, seed: int, seconds: float, traced: bool,
            expected: dict | None, work: Path) -> dict:
    """Run one workload; return the figures, failures and run record."""
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    env = child_env(work)
    rng_id = probe(env, work)
    workers = nproc()
    all_results, walls, cpus, functions = [], [], [], {}
    figures: dict[str, tuple[float, str]] = {}

    if not traced:
        setup_times, passes, stages, elapsed = [], [], [], []
        start = perf_counter()
        # Stop before a pass that would end after --seconds, but run at least one.
        while not passes or perf_counter() - start + elapsed[-1] <= seconds:
            k = len(passes)
            pass_start = perf_counter()
            results = run_pass(wl, seed, workers, work / f"pass{k}", env, setup_times)
            gate.check_pass(results, seed, expected)
            if passes:
                gate.check_same(results, passes[0], f"pass {k} vs pass 0")
                shutil.rmtree(work / f"pass{k}")
            passes.append(results)
            walls.append(sum(r.wall for r in results))
            cpus.append(sum(r.cpu for r in results))
            stages.append(stage_figures(results))
            all_results += results
            elapsed.append(perf_counter() - pass_start)
        figures["setup_s"] = (statistics.median(c for c, _ in setup_times), "s")
        figures["setup_wall_s"] = (statistics.median(w for _, w in setup_times), "s")
        figures["wall_s"] = (statistics.median(walls), "s")
        figures["cpu_s"] = (statistics.median(cpus), "s")
        figures["peak_rss_mb"] = (child_rusage()[1], "MB")
        for name, (_stage, unit) in STAGES.items():
            if name in stages[0]:
                figures[name] = (statistics.median(s[name] for s in stages), unit)
        first = passes[0]
    else:
        # Only commands that take --workers can differ between worker counts,
        # so only they are run through the CLI at nproc for comparison.
        parallel = [c for c in wl.commands if "{workers}" in c.argv]
        untraced = run_pass(replace(wl, commands=tuple(parallel)), seed, workers,
                            work / "pass0", env)
        every = replace(wl, commands=wl.commands + wl.once)
        plain, _ = run_inprocess(every, seed, 1, False, work / "inprocess", env)
        traced_results, trace_out = run_inprocess(every, seed, 1, True, work / "traced", env)
        gate.check_pass(plain, seed, expected)
        gate.check_pass(traced_results, seed, expected)
        gate.check_same(traced_results, plain, "traced vs untraced in-process")
        gate.check_same(traced_results, untraced, "traced --workers 1 vs CLI --workers nproc")
        all_results = untraced + plain + traced_results
        figures.update((k, tuple(v)) for k, v in trace_out["metrics"].items())
        functions = trace_out["functions"]
        wall_plain = sum(r.wall for r in plain)
        wall_traced = sum(r.wall for r in traced_results)
        figures["trace.wall_s"] = (wall_traced, "s")
        figures["trace.overhead_s"] = (wall_traced - wall_plain, "s")
        first, passes = plain, [plain]

    failed = [r for r in all_results if r.failures]
    figures["fail_ratio"] = (len(failed) / len(all_results), "ratio")
    self_ru = resource.getrusage(resource.RUSAGE_SELF)
    record = {
        "workload": wl.name, "seed": seed, "seconds": seconds, "trace": int(traced),
        "passes": len(passes), "nproc": nproc(), "workers": 1 if traced else workers,
        "git_rev": git_rev(), "src_sha256": src_digest(),
        "python": sys.version.split()[0], "numpy": version("numpy"),
        "scipy": version("scipy"), "rng_id": rng_id,
        "peak_rss_mb_self": self_ru.ru_maxrss / 1024.0,
        "peak_rss_mb_children": child_rusage()[1],
        "figures": {k: {"value": v, "unit": u} for k, (v, u) in figures.items()},
        "pass_walls": walls, "pass_cpus": cpus,
        "command_walls": {c.id: [r.wall for p in passes for r in p if r.id == c.id]
                          for c in wl.commands + wl.once},
        "functions": functions,
        "failures": [f"{r.id}: {msg}" for r in failed for msg in r.failures],
    }
    (work / "record.json").write_text(json.dumps(record, indent=1) + "\n")
    return {"attempted": len(all_results), "failed": len(failed),
            "figures": figures, "record": record, "first": first}


def load_expected(path: Path | None) -> dict | None:
    if path is None or not path.is_file():
        return None
    return json.loads(path.read_text())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny command sizes, for the benchmark's self-test")
    ap.add_argument("--expected", type=Path, default=None,
                    help="frozen outputs (default: bench/expected.json; none with --smoke)")
    ap.add_argument("--freeze", action="store_true",
                    help="store this run's outputs as the frozen ones for --seed "
                         "(with --trace 1 this includes the `once` commands)")
    args = ap.parse_args(argv)
    if args.freeze and args.smoke and args.expected is None:
        ap.error("--freeze with --smoke needs --expected")

    if not (SRC / "coprimelab" / "cli.py").is_file():
        print(f"error: no coprimelab sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl = (SMOKE if args.smoke else WORKLOADS)[args.workload]
    expected_path = args.expected or (None if args.smoke else EXPECTED)
    expected_all = load_expected(expected_path) or {}
    expected = expected_all.get(args.workload)
    work = ROOT / ".bench_work" / (("smoke-" if args.smoke else "") + args.workload)

    out = measure(wl, args.seed, args.seconds, bool(args.trace), expected, work)

    if args.freeze:
        entry = expected_all.get(args.workload)
        if entry is None or entry["seed"] != args.seed:
            entry = expected_all[args.workload] = {"seed": args.seed, "commands": {}}
        entry["commands"].update(gate.freeze(out["first"]))
        expected_path.write_text(json.dumps(expected_all, indent=1, sort_keys=True) + "\n")

    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    figures = out["figures"]
    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
          f"passes {out['record']['passes']}  nproc {nproc()}")
    shown = names if args.trace else list(dict.fromkeys(
        names + ["setup_wall_s", "wall_s", *STAGES, "fail_ratio"]))
    for name in shown + sorted(set(figures) - set(shown)):
        if name in figures:
            value, unit = figures[name]
            print(f"  {name:42s} {value:14.6g} {unit}")
        else:
            print(f"  {name:42s} {'n/a':>14s}   (no {STAGES[name][0]} commands here)")
    if args.trace:
        print(f"  {'traced function':34s} {'calls':>9s} {'self_s':>10s} "
              f"{'p50_us':>10s} {'pmax_us':>10s} at pct")
    for name, f in out["record"]["functions"].items():
        print(f"  {name:34s} {f['calls']:9d} {f['self_s']:10.4f} "
              f"{f['p50_us']:10.1f} {f['pmax_us']:10.1f} {f['pmax_pct']:.2f}")
    for msg in out["record"]["failures"]:
        print(f"  FAIL {msg}")
    print("record " + json.dumps({k: v for k, v in out["record"].items()
                                  if k not in ("figures", "functions")}))
    result = {
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {n: {"value": figures[n][0], "unit": figures[n][1]} for n in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
