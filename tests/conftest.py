"""Collects one summary line per acceptance criterion for the terminal report,
lets the tests' subprocesses import coprimelab from this checkout, and holds
the memory contract: the one tracemalloc helper and its two checks."""

import os
import tracemalloc
from pathlib import Path

import pytest

# Set before any test module loads numpy: test_acceptance.py imports numpy
# before coprimelab, whose own setting would then come too late to keep
# OpenBLAS's idle helper thread from starting.  The fresh-interpreter probes
# in test_cli.py drop the variable.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# `python -m coprimelab.cli` and `python -c` subprocesses find src/ the way
# pytest's own `pythonpath` setting does, with or without an install
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))

from coprimelab.errors import DomainError

_LINES = []


@pytest.fixture
def criterion_note(request):
    def note(text: str) -> None:
        request.node.user_properties.append(("criterion_note", text))

    return note


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when != "call" or "test_criterion_" not in item.name:
        return
    number = int(item.name.split("test_criterion_")[1].split("_")[0])
    note = dict(item.user_properties).get("criterion_note", "")
    status = "PASS" if report.passed else "FAIL"
    line = f"criterion {number}: {status}"
    if note:
        line += f" ({note})"
    _LINES.append((number, line))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _LINES:
        terminalreporter.section("acceptance criteria")
        for _, line in sorted(_LINES):
            terminalreporter.write_line(line)


# ---------------------------------------------------------------------------
# memory contract


def traced_peak(call) -> int:
    """Peak bytes traced while call() runs; tracing stops even if it raises."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def memory_contract():
    """check(per_unit, allowance, calls): calls maps a count of units (window
    points, vectors, ...) to a call, which peaks at most units x per_unit
    bytes plus a fixed allowance for its slabs and runs."""
    def check(per_unit, allowance, calls):
        for units, call in calls.items():
            peak = traced_peak(call)
            assert peak <= units * per_unit + allowance, f"{peak} bytes for {units} units"
    return check


@pytest.fixture
def cheap_refusal():
    """check(match, *calls): each call, traced from its first run, raises a
    DomainError that matches within 1 MiB."""
    def check(match, *calls):
        for call in calls:
            def refuse():
                with pytest.raises(DomainError, match=match):
                    call()
            assert traced_peak(refuse) < 1 << 20, match
    return check
