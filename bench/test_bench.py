"""Self-test of the benchmark at smoke size.

    python3 -m pytest bench/test_bench.py

Shows that the correctness gate catches a corrupted expected output and a
command exiting non-zero, that the printed metric names are the ones
BENCHMARK.json declares, and that BENCHMARK.json gives each workload the
`why` written beside its definition in workloads.py.
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

import run
from workloads import SMOKE, WORKLOADS, Command

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def work():
    path = run.ROOT / ".bench_work" / "selftest"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def bench(*args):
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--smoke", "--seconds", "0", *args],
        cwd=run.ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_workload_rationale_matches_benchmark_json():
    assert SPEC["workloads"] == [{"name": w.name, "why": w.why} for w in WORKLOADS.values()]


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_metric_names_match_benchmark_json(trace, key):
    want = {m["name"]: m["unit"] for m in SPEC[key]}
    for workload in SPEC["workloads"]:
        out = bench("--workload", workload["name"], "--trace", str(trace))
        assert set(out) == {"correct", "attempted", "failed", "metrics"}
        assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
        assert {k: v["unit"] for k, v in out["metrics"].items()} == want


def test_corrupted_expected_output_fails(work):
    expected = work / "expected.json"
    args = ("--workload", "big-window", "--expected", str(expected))
    assert bench(*args, "--freeze")["failed"] == 0
    assert bench(*args)["failed"] == 0
    frozen = json.loads(expected.read_text())
    frozen["big-window"]["commands"]["layers"]["digests"]["layers.ppm"] = "0" * 64
    expected.write_text(json.dumps(frozen))
    out = bench(*args)
    assert out["failed"] == 1 and not out["correct"]


def test_failing_command_raises_fail_ratio(work):
    bad = Command("crossing-bad", ("crossing", "--n", "0", "--x", "8", "--seed", "{seed}"),
                  "crossing", True, 8)
    wl = SMOKE["monte-carlo"]
    wl = replace(wl, commands=wl.commands + (bad,))
    out = run.measure(wl, 0, 0, False, None, work / "bad")
    assert out["failed"] == 1
    assert out["figures"]["fail_ratio"][0] == 1 / len(wl.commands)
