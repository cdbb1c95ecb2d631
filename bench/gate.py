"""Correctness gate: every command's outputs are checked, every violation is
charged to the command that produced it and counts toward fail_ratio.

- At the default seed (the one outputs were frozen at), each command's exit
  code, stdout and output files must match the frozen SHA-256 digests.
  Commands whose outputs do not depend on the seed are compared at every seed.
- At any seed: exit code 0; Monte Carlo rows have the requested trials and
  successes <= trials; each crossing failure rate is at most r_upper + 3 sigma
  of the bounds row for the same (n, x) (acceptance criterion 8); every check
  verdict is pass-bounded with the frozen points_certified per axis.
- Repeated passes, and the traced run, must reproduce the first pass byte for
  byte, apart from the `workers =` manifest line (acceptance criterion 12).
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

_MC_FILES = ("crossing.csv", "annulus.csv", "staircase.csv", "spanning.csv")
_SLICE = re.compile(r"^slices axis=(\d+) (\S+) radius=\d+ points=(\d+)")


@dataclass
class CmdResult:
    """One executed command: exit code, times and digests of its outputs."""

    id: str
    code: int
    wall: float
    digests: dict[str, str]  # "stdout" and each output file name -> sha256
    out_dir: Path
    work: int = 0
    stage: str = ""
    seeded: bool = True
    cpu: float = 0.0  # user + system seconds of the command's processes
    failures: list[str] = field(default_factory=list)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def strip_workers(data: bytes) -> bytes:
    return b"".join(line for line in data.splitlines(keepends=True)
                    if not line.startswith(b"workers ="))


def digest_outputs(out_dir: Path, stdout: bytes) -> dict[str, str]:
    digests = {"stdout": sha256(stdout)}
    if out_dir.is_dir():
        for path in sorted(out_dir.iterdir()):
            data = path.read_bytes()
            if path.name == "manifest.txt":
                data = strip_workers(data)
            digests[path.name] = sha256(data)
    return digests


def _rows(path: Path) -> list[dict]:
    return list(csv.DictReader(io.StringIO(path.read_text(encoding="utf-8"))))


def _check_file(path: Path) -> tuple[str | None, list[int]]:
    verdict, points = None, []
    for line in path.read_text(encoding="utf-8").splitlines():
        m = _SLICE.match(line)
        if m:
            points.append(int(m.group(3)))
        elif line.startswith("verdict "):
            verdict = line.split(" ", 1)[1]
    return verdict, points


def freeze(results: list[CmdResult]) -> dict:
    """Expected-output record for one workload at the default seed."""
    frozen = {}
    for r in results:
        entry = {"exit": r.code, "digests": r.digests}
        check = r.out_dir / "check.txt"
        if check.is_file():
            entry["points"] = _check_file(check)[1]
        frozen[r.id] = entry
    return frozen


def check_pass(results: list[CmdResult], seed: int, expected: dict | None) -> None:
    """Append every violation found in one pass to its command's failures."""
    frozen = (expected or {}).get("commands", {})
    at_frozen_seed = expected is not None and seed == expected["seed"]
    bounds = {}
    for r in results:
        if r.code != 0:
            r.failures.append(f"exit code {r.code}")
        want = frozen.get(r.id)
        if want is not None and (at_frozen_seed or not r.seeded):
            if r.code != want["exit"]:
                r.failures.append(f"exit {r.code} != frozen {want['exit']}")
            for name in sorted(set(want["digests"]) | set(r.digests)):
                if want["digests"].get(name) != r.digests.get(name):
                    r.failures.append(f"{name} differs from frozen output")
        if r.code != 0:
            continue
        path = r.out_dir / "bounds.csv"
        if path.is_file():
            for row in _rows(path):
                bounds[(row["n"], row["x"])] = float(row["r_upper"])
        check = r.out_dir / "check.txt"
        if check.is_file():
            verdict, points = _check_file(check)
            if verdict != "pass-bounded":
                r.failures.append(f"check verdict {verdict!r}")
            if want is not None and points != want.get("points"):
                r.failures.append("points_certified changed")
    for r in results:
        for name in _MC_FILES:
            path = r.out_dir / name
            if r.code != 0 or not path.is_file():
                continue
            for row in _rows(path):
                trials, successes = int(row["trials"]), int(row["successes"])
                if trials != r.work:
                    r.failures.append(f"{trials} trials run, {r.work} requested")
                if not 0 <= successes <= trials:
                    r.failures.append(f"successes {successes} outside [0, {trials}]")
                if row["experiment"] != "crossing":
                    continue
                r_upper = bounds.get((row["n"], row["x"]))
                if r_upper is None:
                    r.failures.append("no bounds row for this crossing")
                    continue
                p = successes / trials
                sigma = math.sqrt(max(p * (1 - p), 1 / trials) / trials)
                if 1 - p > r_upper + 3 * sigma:
                    r.failures.append(
                        f"failure rate {1 - p:.4f} > r_upper {r_upper:.4f} + 3 sigma")


def check_same(results: list[CmdResult], reference: list[CmdResult], what: str) -> None:
    """Charge each command whose exit code or outputs differ from the reference
    run of the same command."""
    by_id = {r.id: r for r in results}
    for base in reference:
        r = by_id[base.id]
        if r.code != base.code:
            r.failures.append(f"{what}: exit {r.code} != {base.code}")
        for name in sorted(set(r.digests) | set(base.digests)):
            if r.digests.get(name) != base.digests.get(name):
                r.failures.append(f"{what}: {name} differs")
