"""Command line behaviour: outputs, manifests, config files, exit codes."""

import ast
import hashlib
import importlib
import inspect
import os
import random
import resource
import shutil
import subprocess
import sys
import tempfile
import tokenize
from functools import partial
from itertools import permutations
from math import gcd
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coprimelab import cli, colouring, perco
from coprimelab.cli import _SPECS, _read_config, build_parser, main
from coprimelab.colouring import (
    Window,
    colour_window,
    load_config,
    sample_coset_config,
    lattice_from_id,
)
from coprimelab.errors import DomainError, ParseError
from coprimelab.lattice import GenSet, hypothesis_report, standard_lattice

CROSSING_GOLDEN = "crossing,4,4,11,200,165,0.825,0.766355688518,0.871394849337,5"

PALETTE = {
    0b001: (0, 255, 255),
    0b010: (255, 255, 0),
    0b100: (255, 0, 255),
    0b011: (0, 255, 0),
    0b101: (0, 0, 255),
    0b110: (255, 0, 0),
    0b111: (255, 255, 255),
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_lattice_dump_d3(capsys, tmp_path):
    code, out, _ = run(capsys, "lattice", "dump", "--lattice", "D3",
                       "--out", str(tmp_path))
    assert code == 0
    rows = [tuple(int(c) for c in line.split()) for line in out.splitlines()]
    expect = set()
    for a, b in ((0, 1), (0, 2), (1, 2)):
        for sa in (1, -1):
            for sb in (1, -1):
                vec = [0, 0, 0]
                vec[a], vec[b] = sa, sb
                expect.add(tuple(vec))
    assert len(rows) == 12
    assert set(rows) == expect
    assert rows == sorted(rows)
    assert (tmp_path / "vectors.txt").read_text().splitlines() == out.splitlines()


def test_lattice_info_triangular(capsys):
    code, out, _ = run(capsys, "lattice", "info", "--lattice", "triangular")
    assert code == 0
    assert "minimal_vectors,6" in out
    assert "span_index,1" in out
    assert "minimal_norm_sq,1" in out


def test_golay_summary(capsys):
    code, out, _ = run(capsys, "golay")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "key,value"
    assert "codewords,4096" in lines
    assert "dimension,12" in lines
    assert "weight_0,1" in lines
    assert "weight_8,759" in lines
    assert "weight_12,2576" in lines
    assert "weight_16,759" in lines
    assert "weight_24,1" in lines


def test_golay_octad_dump(capsys):
    code, out, _ = run(capsys, "golay", "--dump", "octads")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 759
    assert all(len(ln) == 24 and set(ln) <= {"0", "1"} for ln in lines)
    assert all(ln.count("1") == 8 for ln in lines)


def test_sample_files_and_manifest(capsys, tmp_path):
    d = tmp_path / "a"
    code, out, _ = run(capsys, "sample", "--out", str(d), "--extents", "32,32",
                       "--origin", "-3,-3", "--P", "31", "--seed", "7")
    assert code == 0
    assert "white fraction" in out and "truncation error bound" in out
    assert (d / "colouring.pgm").exists() and (d / "config.txt").exists()
    assert (d / "manifest.txt").read_text() == (
        "command = sample\n"
        "P = 31\n"
        "extents = 32,32\n"
        "lattice = Z2\n"
        "origin = -3,-3\n"
        "seed = 7\n"
    )


def test_sample_deterministic_and_reusable(capsys, tmp_path):
    d1, d2, d3 = tmp_path / "1", tmp_path / "2", tmp_path / "3"
    argv = ["sample", "--extents", "24,24", "--P", "31", "--seed", "7"]
    assert main(argv + ["--out", str(d1)]) == 0
    assert main(argv + ["--out", str(d2)]) == 0
    capsys.readouterr()
    pgm1 = (d1 / "colouring.pgm").read_bytes()
    assert pgm1 == (d2 / "colouring.pgm").read_bytes()

    # the manifest round-trips as a config file
    assert main(["sample", "--config", str(d1 / "manifest.txt"),
                 "--out", str(d3)]) == 0
    capsys.readouterr()
    assert pgm1 == (d3 / "colouring.pgm").read_bytes()


def test_flags_override_config(capsys, tmp_path):
    d1, d2 = tmp_path / "1", tmp_path / "2"
    assert main(["sample", "--out", str(d1), "--extents", "16,16",
                 "--P", "31", "--seed", "7"]) == 0
    assert main(["sample", "--config", str(d1 / "manifest.txt"),
                 "--seed", "8", "--out", str(d2)]) == 0
    capsys.readouterr()
    assert "seed = 8" in (d2 / "manifest.txt").read_text()
    config = load_config(d2 / "config.txt")
    assert config.reps[5] == (4, 1)  # seed 8, not the file's seed 7


def test_sample_oracle_mode(capsys, tmp_path):
    from coprimelab.colouring import load_colouring

    d = tmp_path / "o"
    code, _, _ = run(capsys, "sample", "--out", str(d), "--oracle", "5,7",
                     "--extents", "16,16")
    assert code == 0
    assert not (d / "config.txt").exists()
    col = load_colouring(d / "colouring.pgm")
    for pt in ((5, 7), (0, 0), (6, 9), (5, 8), (7, 11)):
        dx, dy = pt[0] - 5, pt[1] - 7
        want = gcd(dx, dy) == 1
        assert col.white_at(pt) == want


@pytest.mark.parametrize("lattice,extents", [("D2", "16,16"), ("E8", "16,16"),
                                             ("Z3", "4,4,4")])
def test_sample_refuses_non_grid_lattice_before_writing(capsys, tmp_path, lattice, extents):
    d = tmp_path / "s"
    code, _, err = run(capsys, "sample", "--out", str(d), "--lattice", lattice,
                       "--extents", extents, "--P", "31")
    assert code == 2
    assert "domain error" in err
    assert not (d / "config.txt").exists()
    assert not d.exists()


def test_sample_requires_out(capsys):
    code, _, err = run(capsys, "sample", "--extents", "8,8")
    assert code == 3
    assert "--out" in err


def test_out_naming_a_file_is_a_parse_error(capsys, tmp_path):
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    for argv in (["bounds", "--n", "4", "--x", "8"],
                 ["sample", "--extents", "8,8", "--P", "5"]):
        code, _, err = run(capsys, *argv, "--out", str(afile))
        assert code == 3
        assert err.startswith("parse error") and "Traceback" not in err
    assert afile.read_text() == "kept\n"


def test_domain_error_leaves_no_output_directory(capsys, tmp_path):
    d = tmp_path / "d"
    code, _, err = run(capsys, "crossing", "--n", "0", "--x", "8", "--out", str(d))
    assert code == 2 and "domain error" in err
    assert not d.exists()


def test_cutoff_beyond_the_sieve_budget_is_a_domain_error(capsys):
    code, _, err = run(capsys, "crossing", "--n", "2", "--x", "2", "--trials", "1",
                       "--P", str(2**40))
    assert code == 2 and "exceeds the budget" in err


def test_unwritable_file_inside_out_is_a_parse_error(capsys, tmp_path):
    # --out exists, but the file a command writes there is a directory
    cases = (
        (["bounds", "--n", "4", "--x", "8"], "bounds.csv"),
        (["bounds", "--n", "4", "--x", "8"], "manifest.txt"),
        (["sample", "--extents", "8,8", "--P", "5"], "config.txt"),
        (["sample", "--extents", "8,8", "--P", "5"], "colouring.pgm"),
        (["layers", "--extents", "8,8", "--primes", "2,3"], "layers.ppm"),
    )
    for k, (argv, name) in enumerate(cases):
        d = tmp_path / f"d{k}"
        (d / name).mkdir(parents=True)
        code, _, err = run(capsys, *argv, "--out", str(d))
        assert code == 3
        assert err.startswith("parse error: cannot write output file") and name in err
        assert "Traceback" not in err


def test_bounds_with_cutoff_at_an_even_width_names_the_cutoff(capsys):
    code, out, err = run(capsys, "bounds", "--n", "2", "--x", "10000", "--P", "2")
    assert code == 2 and out == ""
    assert err.startswith("domain error") and "raise P above x=10000" in err


def test_bounds_notes_its_effective_cutoff_and_a_vacuous_bound(capsys):
    code, out, err = run(capsys, "bounds", "--n", "8", "--x", "101", "--P", "50")
    assert code == 0
    assert out.splitlines()[1] == "8,101,50,0.00116790225660,0.119126030173,106.611883856"
    assert err.splitlines() == [
        "note: P=50 is below x=101; the products ran to the effective cutoff max(P, x) = 101",
        "note: r_upper=106.611883856 is at least 1, so the bound is vacuous",
    ]
    code, _, err = run(capsys, "bounds", "--n", "256", "--x", "256")
    assert code == 0 and err == ""


# one tiny run per command; infer reads the PGM of the sample run
ROUND_TRIPS = {
    "sample": "sample --extents 12,10 --P 13 --seed 3",
    "layers": "layers --extents 12,10 --P 13 --seed 3",
    "crossing": "crossing --n 3 --x 4 --trials 20 --seed 2",
    "bounds": "bounds --n 4 --x 8",
    "annulus": "annulus --k 3 --trials 20 --P 31",
    "staircase": "staircase --n-max 1 --trials 20 --P 31",
    "spanning": "spanning --length 4 --trials 20 --P 31",
    "clusters": "clusters --extents 12,10 --P 13 --adjacency triangular",
    "lattice": "lattice info --lattice D4",
    "golay": "golay --dump generators",
    "check": "check --lattice square --theorem setup",
    "infer": "infer --p-max 5 --pgm {pgm}",
}


@pytest.mark.parametrize("command", list(ROUND_TRIPS))
def test_manifest_reproduces_every_command(capsys, tmp_path, command):
    a, b, s = tmp_path / "a", tmp_path / "b", tmp_path / "s"
    if command == "infer":
        assert main(ROUND_TRIPS["sample"].split() + ["--out", str(s)]) == 0
    argv = ROUND_TRIPS[command].format(pgm=s / "colouring.pgm").split()
    assert main(argv + ["--out", str(a)]) == 0
    positional = ["info"] if command == "lattice" else []
    assert main([command, *positional, "--config", str(a / "manifest.txt"),
                 "--out", str(b)]) == 0
    capsys.readouterr()
    names = sorted(p.name for p in a.iterdir())
    assert "manifest.txt" in names and len(names) > 1
    assert sorted(p.name for p in b.iterdir()) == names
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_config_errors(capsys, tmp_path):
    cfg = tmp_path / "bad.txt"
    cfg.write_text("command = crossing\nn = 4\nx = 4\nbogus = 1\n")
    code, _, err = run(capsys, "crossing", "--config", str(cfg))
    assert code == 3
    assert "line 4" in err and "bogus" in err

    cfg.write_text("command = sample\n")
    code, _, err = run(capsys, "crossing", "--config", str(cfg))
    assert code == 3
    assert "sample" in err

    cfg.write_text("command = crossing\nn = 4\nn = 5\nx = 4\n")
    code, _, err = run(capsys, "crossing", "--config", str(cfg))
    assert code == 3
    assert "line 3" in err

    cfg.write_bytes(b"command = crossing\n# \xff\nn = 4\nx = 4\n")
    code, _, err = run(capsys, "crossing", "--config", str(cfg))
    assert code == 3
    assert "not UTF-8" in err


_CONFIG_LINES = [b"command = crossing", b"command = sample", b"n = 4", b"x = 4", b"n = 5",
                 b"# note", b"# \xff\xfe", b"bogus = 1", b"x", b"=", b" ", b"\x80"]


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.binary(max_size=64),
                 st.lists(st.sampled_from(_CONFIG_LINES), max_size=6).map(b"\n".join)))
def test_read_config_raises_only_parse_errors(data):
    build_parser()  # registers each command's keys
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.cfg"
        path.write_bytes(data)
        try:
            values = _read_config(str(path), "crossing", _SPECS["crossing"])
        except ParseError:
            return
    assert isinstance(values, dict)


def test_missing_required_and_unknown_flag(capsys):
    code, _, err = run(capsys, "crossing", "--x", "4")
    assert code == 3
    assert "--n" in err
    code, _, err = run(capsys, "crossing", "--n", "4", "--x", "4",
                       "--no-such-flag", "1")
    assert code == 3


def test_domain_error_exit_code(capsys, tmp_path):
    code, _, err = run(capsys, "annulus", "--k", "28", "--trials", "1")
    assert code == 2
    assert "domain error" in err
    code, _, err = run(capsys, "layers", "--lattice", "Z3",
                       "--out", str(tmp_path))
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("lattice", "info", "--lattice", "Z33"),
    ("lattice", "info", "--lattice", "D33"),
    ("clusters", "--lattice", "Z70", "--extents", ",".join(["1"] * 70),
     "--origin", ",".join(["0"] * 70), "--P", "5"),
    ("lattice", "info", "--lattice", "D" + "9" * 4400),
    ("sample", "--lattice", "Z" + "1" * 5000),
], ids=["Z33", "D33", "clusters-Z70", "info-D4400", "sample-Z5000"])
def test_lattice_dimension_above_32_is_a_domain_error(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "exceeds the supported maximum 32" in err


@pytest.mark.parametrize("lattice_id", ["Z02", "D004", "Z\u0662", "Z0", "D1", "Z33"])
def test_lattice_ids_have_one_spelling(capsys, tmp_path, lattice_id):
    # Z02 used to sample Z2 while the manifest kept the spelling Z02
    code, _, err = run(capsys, "sample", "--lattice", lattice_id, "--extents", "4,4",
                       "--out", str(tmp_path / "s"))
    assert code == 2
    assert err.startswith("domain error: ")
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("lattice_id, adjacency", [
    ("D2", "square"), ("D2", "triangular"), ("D2", "spread2"), ("Leech", "square")])
def test_clusters_refuses_generators_outside_the_lattice(capsys, tmp_path, lattice_id, adjacency):
    # +-e1 is not in D2: a square adjacency used to leave every point its own cluster
    code, out, err = run(capsys, "clusters", "--lattice", lattice_id, "--adjacency", adjacency,
                         "--extents", "8,8", "--out", str(tmp_path / "c"))
    assert (code, out) == (2, "")
    assert err.startswith(f"domain error: {adjacency} ") and lattice_id in err
    assert not (tmp_path / "c").exists()


def test_cli_import_does_not_load_scipy():
    # scipy is imported only once clusters are labelled, so start-up (paid
    # by every command and every worker process) stays without it
    probe = ("import sys, coprimelab.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_labelling_and_checks_run_without_scipy():
    # scipy is a test-only dependency: clusters and the E8 check run with
    # every scipy import failing, and neither loads numpy.ma either
    probe = """
import contextlib, io, sys
sys.modules["scipy"] = None
from coprimelab.cli import main
runs = [
    "clusters --extents 48,40 --adjacency square --seed 3",
    "clusters --extents 48,40 --adjacency spread2 --colour black",
    "clusters --lattice triangular --adjacency triangular --extents 32,32",
    "check --lattice E8 --theorem setup",
]
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv.split()) == 0, argv
del sys.modules["scipy"]
print(sorted(m for m in sys.modules
             if m.split(".")[0] == "scipy" or m == "numpy.ma" or m.startswith("numpy.ma.")))
"""
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def fresh_stdout(probe, **env):
    """Stdout of probe run in a fresh interpreter whose environment lacks
    OPENBLAS_NUM_THREADS (importing coprimelab here has set it) unless given."""
    full = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, timeout=120, env={**full, **env})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_cli_import_pins_openblas_to_one_thread():
    probe = "import os, coprimelab.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert fresh_stdout(probe) == "1"


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs Linux /proc")
def test_cli_import_starts_no_blas_thread():
    # the import alone loads no numpy and starts no thread; the next test
    # loads numpy through the package
    probe = "import os, coprimelab.cli; print(len(os.listdir('/proc/self/task')))"
    assert fresh_stdout(probe) == "1"


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs Linux /proc")
def test_numpy_loaded_through_the_package_starts_no_blas_thread():
    # the import alone no longer loads numpy; the first numpy-backed
    # submodule does, after the package has pinned OpenBLAS
    probe = ("import os, coprimelab.cli; coprimelab.cli.perco.MC_CSV_HEADER; "
             "print(len(os.listdir('/proc/self/task')))")
    assert fresh_stdout(probe) == "1"


def test_bounds_runs_without_numpy():
    # bounds needs only arith's exact products; the numpy-backed submodules
    # load on first use, and bounds uses none of them
    probe = """
import contextlib, io, sys
from coprimelab.cli import main
out = io.StringIO()
with contextlib.redirect_stdout(out):
    assert main(["bounds", "--n", "64", "--x", "64"]) == 0
print("numpy" in sys.modules)
print(out.getvalue().splitlines()[1])
"""
    assert fresh_stdout(probe).splitlines() == [
        "False", "64,64,2048,0.105765105381,0.109176882974,0.0625817210819"]


def test_preset_openblas_threads_survive_import():
    probe = "import os, coprimelab.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert fresh_stdout(probe, OPENBLAS_NUM_THREADS="2") == "2"


def test_serial_check_does_not_import_process_pools():
    probe = """
import contextlib, io, sys
from coprimelab.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["check", "--lattice", "D4", "--theorem", "setupblack"]) == 0
print(sorted(m for m in ("concurrent.futures", "multiprocessing") if m in sys.modules))
"""
    assert fresh_stdout(probe) == "[]"


def test_commands_load_neither_openssl_nor_the_certifiers(tmp_path):
    # the RNG hashes with the interpreter's own SHA-256, and the window and
    # Monte Carlo commands reach only lattice_core; a LazyLoader module keeps
    # its lazy type until its first attribute access runs it
    windows = [
        ["sample", "--extents", "16,16", "--out", str(tmp_path / "s")],
        ["infer", "--pgm", str(tmp_path / "s" / "colouring.pgm")],
        ["layers", "--extents", "16,16", "--out", str(tmp_path / "l")],
        ["clusters", "--lattice", "triangular", "--adjacency", "triangular",
         "--extents", "16,16"],
        ["crossing", "--n", "4", "--x", "4", "--trials", "20"],
        ["annulus", "--k", "3", "--trials", "5"],
        ["staircase", "--n-max", "3", "--trials", "5"],
        ["spanning", "--length", "10", "--trials", "5"],
    ]
    certifiers = [["check", "--lattice", "E8", "--theorem", "setup"],
                  ["lattice", "info", "--lattice", "E8"]]
    probe = """
import contextlib, io, sys
from coprimelab.cli import main
for argv in {!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
print(type(sys.modules["coprimelab.lattice"]).__name__, "_hashlib" in sys.modules)
"""
    assert fresh_stdout(probe.format(windows)) == "_LazyModule False"
    assert fresh_stdout(probe.format(certifiers)) == "module False"


# every command but bounds, which never imports numpy
_NUMPY_COMMANDS = {
    "sample": ["sample", "--extents", "16,16", "--out", "{tmp}/s"],
    "infer": ["infer", "--pgm", "{tmp}/colouring.pgm"],
    "layers": ["layers", "--extents", "16,16", "--out", "{tmp}/l"],
    "clusters": ["clusters", "--lattice", "triangular", "--adjacency", "triangular",
                 "--extents", "16,16"],
    "crossing": ["crossing", "--n", "4", "--x", "4", "--trials", "20"],
    "annulus": ["annulus", "--k", "3", "--trials", "5"],
    "staircase": ["staircase", "--n-max", "3", "--trials", "5"],
    "spanning": ["spanning", "--length", "10", "--trials", "5"],
    "check": ["check", "--lattice", "D4", "--theorem", "setupblack"],
    "lattice": ["lattice", "info", "--lattice", "D4"],
    "golay": ["golay"],
}


@pytest.mark.parametrize("command", sorted(_NUMPY_COMMANDS))
def test_commands_compile_their_modules_before_numpy(tmp_path, command):
    # Without cached bytecode, a module compiled after numpy's import leaves
    # the parser's freed memory unused in the heap (coprimelab/__init__.py).
    # A copy of the package without __pycache__, run with bytecode writes
    # off, compiles every module it loads; the audit hook records each
    # compile and numpy's import in order.  rng imports numpy at its top and
    # is the one module allowed to compile after it.
    shutil.copytree(ROOT / "src" / "coprimelab", tmp_path / "pkg" / "coprimelab",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if command == "infer":
        assert main(["sample", "--extents", "16,16", "--out", str(tmp_path)]) == 0
    argv = [a.format(tmp=tmp_path) for a in _NUMPY_COMMANDS[command]]
    package = str(tmp_path / "pkg" / "coprimelab") + os.sep
    probe = f"""
import contextlib, io, sys
sys.dont_write_bytecode = True
sys.path.insert(0, {str(tmp_path / "pkg")!r})
order = []

def hook(event, args):
    if event == "compile" and isinstance(args[1], str) and args[1].startswith({package!r}):
        order.append(args[1][{len(package)}:])
    elif event == "import" and args[0] == "numpy":
        order.append("numpy")

sys.addaudithook(hook)
from coprimelab.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main({argv!r})
print(code, *order)
"""
    code, *order = fresh_stdout(probe).split()
    assert code == "0" and "numpy" in order and "cli.py" in order
    assert [m for m in order[order.index("numpy"):] if m not in ("numpy", "rng.py")] == []


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_workers_below_one_rejected(capsys, workers):
    code, _, err = run(capsys, "crossing", "--n", "4", "--x", "4", "--trials",
                       "10", "--workers", workers)
    assert code == 2
    assert "workers" in err


def test_crossing_csv_golden(capsys, tmp_path):
    code, out, _ = run(capsys, "crossing", "--n", "4", "--x", "4", "--trials",
                       "200", "--seed", "5", "--P", "11", "--out", str(tmp_path))
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("experiment,")
    assert lines[1] == CROSSING_GOLDEN
    assert (tmp_path / "crossing.csv").read_text() == out
    assert "P = 11" in (tmp_path / "manifest.txt").read_text()


def test_crossing_default_cutoff_recorded(capsys, tmp_path):
    code, out, _ = run(capsys, "crossing", "--n", "4", "--x", "6", "--trials",
                       "10", "--out", str(tmp_path))
    assert code == 0
    assert ",12," in out.splitlines()[1]  # P defaults to 2x
    assert "P = 12" in (tmp_path / "manifest.txt").read_text()


def test_worker_count_invariance(capsys, tmp_path):
    d1, d2 = tmp_path / "w1", tmp_path / "w4"
    base = ["crossing", "--n", "8", "--x", "8", "--trials", "400",
            "--seed", "99", "--P", "23"]
    assert main(base + ["--workers", "1", "--out", str(d1)]) == 0
    assert main(base + ["--workers", "4", "--out", str(d2)]) == 0
    capsys.readouterr()
    assert (d1 / "crossing.csv").read_bytes() == (d2 / "crossing.csv").read_bytes()


def test_check_square_passes(capsys, tmp_path):
    code, out, _ = run(capsys, "check", "--lattice", "square", "--theorem",
                       "setup", "--out", str(tmp_path))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "target=square lattice=Z2 theorem=setup"
    assert any(ln.startswith("adjacency") and "pass (exact)" in ln
               for ln in lines)
    assert lines[-1] == "verdict pass-bounded"
    assert (tmp_path / "check.txt").read_text() == out


def test_checks_and_labelling_never_build_the_tuple_view(capsys, monkeypatch):
    # GenSet.vectors (and iteration, which reads it) is for callers outside
    # the package; every command reads the int64 rows
    def refuse(self):
        raise AssertionError("GenSet tuple view built")

    monkeypatch.setattr(GenSet, "vectors", property(refuse))
    for kind, d in (("D", 4), ("E8", None)):
        spec, S = standard_lattice(kind, d)
        assert hypothesis_report(spec, S, "setup", 2).verdict == "pass-bounded"
    for argv, want in (("clusters --extents 48,40 --adjacency spread2 --seed 3", 0),
                       ("lattice info --lattice E8", 0),
                       ("check --lattice spread2 --theorem setupblack", 1)):
        assert run(capsys, *argv.split())[0] == want, argv


def test_check_spread2_fails(capsys):
    code, out, _ = run(capsys, "check", "--lattice", "spread2", "--theorem",
                       "setupblack")
    assert code == 1
    assert "FAIL" in out
    assert out.splitlines()[-1] == "verdict fail"


def test_layers_palette(capsys, tmp_path):
    code, _, _ = run(capsys, "layers", "--out", str(tmp_path), "--extents",
                     "20,20", "--origin", "-2,-2", "--P", "31", "--seed", "3",
                     "--primes", "2,3,5")
    assert code == 0
    data = (tmp_path / "layers.ppm").read_bytes()
    assert data.startswith(b"P6\n# origin=-2 -2\n# extents=20 20\n")
    header_end = data.index(b"255\n") + 4
    rgb = np.frombuffer(data[header_end:], dtype=np.uint8).reshape(20, 20, 3)

    spec = lattice_from_id("Z2")
    config = sample_coset_config(spec, 31, 3)
    col = colour_window(config, Window((-2, -2), (20, 20)))
    for j in range(20):
        for i in range(20):
            x, y = i - 2, j - 2
            pixel = tuple(int(c) for c in rgb[j, i])
            if col.white[j, i]:
                assert pixel == (255, 255, 255)
                continue
            bits = 0
            for idx, p in enumerate((2, 3, 5)):
                r = config.reps[p]
                if (x - r[0]) % p == 0 and (y - r[1]) % p == 0:
                    bits |= 1 << idx
            assert pixel == (PALETTE[bits] if bits else (0, 0, 0))


def _layers_by_masks(P, seed, origin, extents, primes) -> bytes:
    """layers.ppm as the mask-assignment renderer wrote it: a 3-byte image
    painted white, then one boolean mask per palette entry."""
    config = sample_coset_config(lattice_from_id("Z2"), P, seed)
    window = Window(origin, extents)
    col = colour_window(config, window)
    rgb = np.zeros(window.array_shape() + (3,), dtype=np.uint8)
    rgb[col.white] = (255, 255, 255)
    subset = np.zeros(window.array_shape(), dtype=np.uint8)
    for i, p in enumerate(primes):
        subset[colouring.coset_slice(config.reps[p], p, window)] |= 1 << i
    for bits, colour in PALETTE.items():
        if bits < 1 << len(primes):
            rgb[subset == bits] = colour
    (o1, o2), (e1, e2) = origin, extents
    header = (f"P6\n# origin={o1} {o2}\n# extents={e1} {e2}\n# provenance={col.provenance}\n"
              f"# primes={' '.join(map(str, primes))}\n{e1} {e2}\n255\n")
    return header.encode() + rgb.tobytes()


def test_layers_match_the_mask_renderer(capsys, tmp_path):
    # 1, 2 and 3 primes; 2, 3 and 5 have overlapping cosets in every window
    # of 30 x 30 points, and 210 x 150 points cross a 2^16-byte run
    cases = [(31, 3, (-2, -2), (30, 30), (2, 3, 5)), (13, 0, (0, 0), (210, 150), (3, 2)),
             (97, 2**64 - 1, (-100, 7), (150, 210), (5,))]
    rng = random.Random(30)
    for trial in range(18):
        primes = tuple(rng.sample([2, 3, 5, 7, 11, 13], trial % 3 + 1))
        origin = (rng.randint(-50, 50), rng.randint(-50, 50))
        extents = (rng.randint(1, 40), rng.randint(1, 40))
        cases.append((rng.choice([13, 31, 97]), rng.randrange(2**64), origin, extents, primes))
    for k, (P, seed, origin, extents, primes) in enumerate(cases):
        out = tmp_path / str(k)
        code, _, _ = run(capsys, "layers", "--P", str(P), "--seed", str(seed),
                         "--origin={},{}".format(*origin), "--extents={},{}".format(*extents),
                         "--primes", ",".join(map(str, primes)), "--out", str(out))
        assert code == 0
        want = _layers_by_masks(P, seed, origin, extents, primes)
        assert (out / "layers.ppm").read_bytes() == want, k


def test_layers_memory_stays_near_the_window_mask(capsys, tmp_path, memory_contract):
    # the white mask and the palette index take 1 byte a position each, and
    # the image is written in runs; the 3-byte image of the whole window that
    # the mask renderer built would pass the bound by itself
    argv = ["layers", "--primes", "2,3,5", "--out", str(tmp_path)]
    memory_contract(2, 0.75 * 2**20,
                    {n * n: partial(run, capsys, *argv, f"--extents={n},{n}") for n in (512, 1024)})


def test_window_and_primes_are_checked_before_the_config_is_drawn(capsys, tmp_path,
                                                                  cheap_refusal):
    # a config of every prime up to 2^22, drawn first, would take some 100 MB
    def refused(*argv):
        code, _, err = run(capsys, *argv, "--P", "4194304", "--out", str(tmp_path))
        assert code == 2
        raise DomainError(err)

    wide = ("--extents", "100000,100000")
    cheap_refusal("window of 10000000000 points exceeds the budget",
                  partial(refused, "sample", *wide), partial(refused, "clusters", *wide))
    cheap_refusal("highlighted value 4 is not a prime", partial(refused, "layers", "--primes", "4"))


def test_layers_rejects_prime_beyond_cutoff(capsys, tmp_path):
    code, _, err = run(capsys, "layers", "--out", str(tmp_path),
                       "--P", "5", "--primes", "2,3,7")
    assert code == 2
    assert "7" in err


@pytest.mark.parametrize("value", ["4", "0", "-3", "9", "15"])
def test_layers_refuses_a_value_that_is_not_prime(capsys, tmp_path, value):
    code, out, err = run(capsys, "layers", "--out", str(tmp_path), "--P", "13",
                         "--primes", value)
    assert code == 2 and out == ""
    assert err == f"domain error: highlighted value {value} is not a prime\n"


def test_sample_and_layers_share_one_export_rule(capsys, tmp_path):
    # the triangular colouring is the Z2 colouring: only the provenance line
    # (the fourth of the header) tells the two images apart
    images = {}
    for lattice in ("Z2", "triangular"):
        code, _, _ = run(capsys, "layers", "--lattice", lattice, "--P", "13", "--origin", "-4,-4",
                         "--extents", "24,16", "--out", str(tmp_path / lattice))
        assert code == 0
        images[lattice] = (tmp_path / lattice / "layers.ppm").read_bytes().split(b"\n", 4)
    z2, tri = images["Z2"], images["triangular"]
    assert tri[3] == z2[3].replace(b"lattice=Z2 ", b"lattice=triangular ") != z2[3]
    assert tri[:3] + tri[4:] == z2[:3] + z2[4:]
    refused = str(tmp_path / "no")
    for command in ("sample", "layers"):
        for lattice in ("D2", "Z3"):
            code, out, err = run(capsys, command, "--lattice", lattice, "--out", refused)
            assert (code, out) == (2, "")
            assert err == f"domain error: PGM export covers full 2-D grids; {lattice} is not one\n"
        code, _, err = run(capsys, command)
        assert (code, err) == (3, f"parse error: {command} writes files; --out is required\n")
    assert not (tmp_path / "no").exists()


def test_infer_reports_truth(capsys, tmp_path):
    d = tmp_path / "s"
    assert main(["sample", "--out", str(d), "--origin", "-8,-8", "--extents",
                 "33,33", "--P", "97", "--seed", "11"]) == 0
    capsys.readouterr()
    code, out, _ = run(capsys, "infer", "--pgm", str(d / "colouring.pgm"),
                       "--p-max", "7")
    assert code == 0
    config = sample_coset_config(lattice_from_id("Z2"), 97, 11)
    for p in (2, 3, 5, 7):
        line = next(ln for ln in out.splitlines() if ln.startswith(f"p={p} "))
        cands = [tuple(int(r) for r in c.split())
                 for c in line.split(": ", 1)[1].split(" | ")]
        assert config.reps[p] in cands
    assert "warning" not in out  # p-max 7 is well inside the cutoff 97

    d2 = tmp_path / "shallow"
    assert main(["sample", "--out", str(d2), "--extents", "33,33",
                 "--P", "5", "--seed", "11"]) == 0
    capsys.readouterr()
    code, out, _ = run(capsys, "infer", "--pgm", str(d2 / "colouring.pgm"),
                       "--p-max", "11")
    assert code == 0
    assert "warning" in out  # asked beyond the sampled cutoff


@pytest.mark.parametrize("p_max,bound", [(257, 1061826), (800, 25846782)])
def test_infer_beyond_candidate_budget_is_refused_before_any_fold(
        capsys, monkeypatch, tmp_path, p_max, bound):
    # p_max=251 allows 995,777 candidates, within the budget of 2^20
    def no_fold(white, p):
        raise AssertionError("a prime was folded")

    assert main(["sample", "--out", str(tmp_path), "--extents", "64,64", "--P", "97"]) == 0
    capsys.readouterr()
    monkeypatch.setattr(colouring, "_fold", no_fold)
    code, out, err = run(capsys, "infer", "--pgm", str(tmp_path / "colouring.pgm"),
                         "--p-max", str(p_max))
    assert code == 2 and out == ""
    assert f"allows {bound} candidates, which exceeds the budget" in err
    assert "Traceback" not in err


def _pgm(size=b"2 2", origin=b"0 0", provenance=b"lattice=Z2"):
    return (b"P5\n# origin=" + origin + b"\n# extents=2 2\n# provenance=" + provenance
            + b"\n" + size + b"\n255\n" + bytes([255, 0, 0, 255]))


@pytest.mark.parametrize(
    "data,code,where",
    [
        (_pgm(), 0, None),
        (_pgm(size=b"2 two"), 3, "line 5"),
        (_pgm(size=b"-2 -2"), 3, "line 5"),
        (_pgm(origin=b"0 zero"), 3, "line 2"),
        (_pgm(provenance=b"\xff\xfe"), 3, "line 4"),
        (None, 3, "cannot read"),
        (_pgm(provenance=b"config lattice=Z2 P=" + b"9" * 5000 + b" seed=1 rng=splitmix64"), 3,
         "line 4: P and seed take at most 20 digits"),
        (_pgm(provenance=b"config lattice=Q7 P=5 seed=1 rng=splitmix64"), 3,
         "line 4: unknown lattice id 'Q7'"),
    ],
    ids=["valid", "size-line", "negative-size", "origin-comment", "non-utf8-comment",
         "missing-file", "config-P-of-5000-digits", "config-unknown-lattice"],
)
def test_infer_pgm_read_failures_are_parse_errors(capsys, tmp_path, data, code, where):
    path = tmp_path / "w.pgm"
    if data is not None:
        path.write_bytes(data)
    got, _, err = run(capsys, "infer", "--pgm", str(path), "--p-max", "3")
    assert got == code
    if where is not None:
        assert err.startswith("parse error") and where in err


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "coprimelab.cli", "lattice", "info",
         "--lattice", "D4"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "minimal_vectors,24" in proc.stdout


# SHA-256 of the `check` report (stdout, and check.txt alike) and its exit code
CHECK_DIGESTS = {
    ("square", "setup"): (0, "de59473f90a0270b70e197ab66d5e7ac6495d8faace4e3b9aba876432900b587"),
    ("square", "setupblack"): (0, "38c644f0684a051712e9d64d927dbe2d0607cb983f5fc4ac4511d093581808fb"),
    ("triangular", "setup"): (0, "bfcf7e7ae3d55896f2e88d4477f84b98443a245570f97e9dd8e429a99323b294"),
    ("triangular", "setupblack"): (0, "8d08d67abe4a5dd3302923ebefbd455510f0978cfdb5015ff0d73b8d37c8bbc3"),
    ("D3", "setup"): (0, "1940b88d57db23fb9c25edb062e264580e3af30288bb5c2e76cff8dd580d6e72"),
    ("D3", "setupblack"): (0, "90084dbe07414067dd54a85e51663b42e6ca7a50e079cd63578319a9fd2d1b4f"),
    ("D4", "setup"): (0, "55c52caba4b414c6237348bd0f1a7c145738a288fc92931262cce103c34a58d1"),
    ("D4", "setupblack"): (0, "b1da4662aef6e88cea0608299ecf23535df2aacd2b8091f8136b2fc451567635"),
    ("E8", "setup"): (0, "427e54dbbaa3f3b38b65f1775f7faea0f45977494e2d7d25e460965236fb9fae"),
    ("E8", "setupblack"): (1, "571c3aea16da813991988baeb175c1958bb32c5941295f986d5e78b20d15c01e"),
    ("spread2", "setup"): (0, "4eb87eeeda9b0546a573241bf0a8b339a048c0cf56b7bafc98714d2cd10b11ae"),
    ("spread2", "setupblack"): (1, "354fada15b6c2e6aa9d542993473673a763ce0c1811732ac9bbb52a385bf0a7b"),
}


@pytest.mark.parametrize("lattice,theorem", list(CHECK_DIGESTS))
def test_check_report_digests(capsys, tmp_path, lattice, theorem):
    code, out, _ = run(capsys, "check", "--lattice", lattice, "--theorem", theorem,
                       "--out", str(tmp_path))
    expected_code, digest = CHECK_DIGESTS[lattice, theorem]
    assert code == expected_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert hashlib.sha256((tmp_path / "check.txt").read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("action,name,digest", [
    ("dump", "vectors.txt", "2901a6eedf6870fe2100f499c754750e7a2cb94cb41e2ed05571208c133a23da"),
    ("info", "lattice.csv", "718c588e81005c5fead898bdac42a612ae4538b7ac28db4cc4f4bf4e4f6eb241"),
])
def test_lattice_e8_outputs_frozen(capsys, tmp_path, action, name, digest):
    code, out, _ = run(capsys, "lattice", action, "--lattice", "E8", "--out", str(tmp_path))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


def test_window_over_budget_is_a_domain_error():
    # a fresh process with its address space capped, so that a missing check
    # fails on 10^10 points instead of allocating them
    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))

    proc = subprocess.run(
        [sys.executable, "-m", "coprimelab.cli", "clusters", "--extents", "100000,100000"],
        capture_output=True, text=True, timeout=120, preexec_fn=cap_memory)
    assert proc.returncode == 2
    assert "exceeds the budget" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ["annulus", "--k", "4800", "--trials", "20", "--P", "5"],
    ["staircase", "--n-max", "40", "--trials", "1"],
    ["crossing", "--n", "1000000000", "--x", "5", "--trials", "1", "--P", "11"],
], ids=["annulus-window", "staircase-window", "crossing-lines"])
def test_oversized_event_is_refused_before_any_trial(capsys, monkeypatch, argv):
    # the witness window and the lines per trial are checked up front, so the
    # refusal cannot depend on whether some trial succeeds
    def no_trials(chunk):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(perco, "_trial_chunk", no_trials)
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "exceeds the budget" in err and "Traceback" not in err


def test_oracle_beyond_int64_is_sampled(capsys, tmp_path):
    code, out, err = run(capsys, "sample", "--oracle", "100000000000000000000,0",
                         "--extents", "4,4", "--out", str(tmp_path))
    assert code == 0 and err == ""
    assert out.startswith("white fraction ")
    assert "oracle = 100000000000000000000,0" in (tmp_path / "manifest.txt").read_text()


@pytest.mark.parametrize("argv,message", [
    (["crossing", "--n", "2", "--x", "2", "--trials", "0"], "need trials >= 1, got 0"),
    (["annulus", "--k", "3", "--trials", "0"], "need trials >= 1, got 0"),
    (["staircase", "--n-max", "1", "--trials", "0"], "need trials >= 1, got 0"),
    (["spanning", "--length", "3", "--trials", "0"], "need trials >= 1, got 0"),
    (["annulus", "--k", "3", "--P", "1", "--workers", "2"], "need P >= 2, got 1"),
    (["staircase", "--n-max", "1", "--P", "1", "--workers", "2"], "need P >= 2, got 1"),
    (["spanning", "--length", "3", "--P", "1", "--workers", "2"], "need P >= 2, got 1"),
    (["spanning", "--length", "3", "--P", "100000000", "--workers", "2", "--trials", "8"],
     "prime table limit 100000000 exceeds the budget of 67108864"),
])
def test_monte_carlo_arguments_are_refused_before_any_trial(capsys, monkeypatch, argv,
                                                            message):
    import concurrent.futures

    def no_trials(chunk):
        raise AssertionError("a trial ran")

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool started")

    monkeypatch.setattr(perco, "_trial_chunk", no_trials)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err == f"domain error: {message}\n"


def test_huge_staircase_is_refused_without_computing_its_side():
    # a fresh process with capped memory and time: 2^(n_max+1) for a 20-digit
    # n_max would never finish
    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = subprocess.run(
        [sys.executable, "-m", "coprimelab.cli", "staircase",
         "--n-max", "100000000000000000000", "--trials", "1"],
        capture_output=True, text=True, timeout=60, preexec_fn=cap_memory)
    assert proc.returncode == 2
    assert proc.stderr == ("domain error: a staircase to stage 100000000000000000000 exceeds"
                           " the budget of 67108864\n")


@pytest.mark.parametrize("argv,line", [
    (["golay"], "dump = 0"),
    (["clusters", "--extents", "8,8"], "adjacency = D3"),
    (["clusters", "--extents", "8,8"], "colour = grey"),
    (["check", "--theorem", "setup"], "lattice = Z2"),
    (["check", "--lattice", "square"], "theorem = 1"),
])
def test_config_values_outside_the_choices_are_parse_errors(capsys, tmp_path, argv, line):
    # argparse checks the choices of flags only; config-file values get the same check
    (tmp_path / "run.cfg").write_text(line + "\n")
    code, out, err = run(capsys, *argv, "--config", str(tmp_path / "run.cfg"))
    assert code == 3 and out == ""
    key, _, value = line.partition(" = ")
    assert err.startswith(f"parse error: bad value for {key}: {value!r} (choices: ")


ROOT = Path(__file__).resolve().parent.parent


def _bench_traced():
    """bench/tracing.py's TRACED, parsed, not imported."""
    tree = ast.parse((ROOT / "bench" / "tracing.py").read_text(encoding="utf-8"))
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["TRACED"])


def test_every_name_the_bench_tracer_wraps_resolves():
    # bench/tracing.py looks each TRACED name up as it does here; a missing one
    # only prints "not found; its metrics stay 0" there, and its self-test
    # still passes.  The file is parsed, not imported.
    traced = _bench_traced()
    assert "lattice" in traced and "colouring" in traced
    for mod_name, quals in traced.items():
        module = importlib.import_module(f"coprimelab.{mod_name}")
        for qual in quals:
            owner_name, _, attr = qual.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            assert callable(vars(owner).get(attr)), f"{mod_name}.{qual}"


def test_the_bench_tracer_finds_every_module_after_the_cli_import():
    # Tracer.installed() indexes sys.modules["coprimelab.<m>"] right after
    # `import coprimelab.cli`, so that import alone must register every
    # traced module, though most of them run only on first use
    traced = _bench_traced()
    probe = f"""
import sys, coprimelab.cli
for mod_name, quals in {traced!r}.items():
    module = sys.modules[f"coprimelab.{{mod_name}}"]
    for qual in quals:
        owner_name, _, attr = qual.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        assert callable(vars(owner).get(attr)), qual
print("resolved")
"""
    assert fresh_stdout(probe) == "resolved"


# Public names that no command, frozen test or bench trace reaches, and why
# each stays in src/.
_KEPT_WITHOUT_CALLER = {
    "load_config": "the one reader of the config.txt that sample and layers write",
}


def _referenced_names(path):
    """Names, attributes, imported names and string constants in a file
    (_MONTE_CARLO names its estimators as strings)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


# Public methods and properties of src/ classes that only tests read, and why
# each stays in src/.
_MEMBERS_KEPT_WITHOUT_CALLER = {
    "Interval.width": "the enclosure's own algebra; tests measure enclosures by it",
    "Interval.midpoint": "the enclosure's own algebra; tests read the estimate it gives",
    "Interval.contains": "the enclosure's own algebra; tests check known constants with it",
}
_SOURCES = sorted((ROOT / "src" / "coprimelab").glob("*.py"))


def _reached_names():
    """Every name that src/, the frozen tests or the bench's TRACED mentions."""
    frozen = [ROOT / "tests" / "test_acceptance.py", ROOT / "tests" / "test_arith_golden.py"]
    reached = set().union(*map(_referenced_names, _SOURCES + frozen))
    reached.update(part for quals in _bench_traced().values()
                   for qual in quals for part in qual.split("."))
    return reached


def _src_defs(path):
    return [node for node in ast.parse(path.read_text(encoding="utf-8")).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def test_every_public_src_name_has_a_caller():
    # a library name that only its own tests call belongs in those tests
    reached = _reached_names().union(_KEPT_WITHOUT_CALLER)
    orphans = [f"{path.stem}.{node.name}" for path in _SOURCES for node in _src_defs(path)
               if node.name not in reached]
    assert orphans == []


def test_every_public_src_member_has_a_caller():
    # the same for the methods and properties of public classes, matched by name
    reached = _reached_names()
    orphans = [f"{node.name}.{item.name}" for path in _SOURCES for node in _src_defs(path)
               if isinstance(node, ast.ClassDef) for item in node.body
               if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
               and item.name not in reached]
    assert set(orphans) <= set(_MEMBERS_KEPT_WITHOUT_CALLER), orphans


def test_every_src_module_compiles_from_one_parser_token_array():
    # CPython's parser doubles its token array past 8,192 tokens, which costs
    # about half a megabyte of peak RSS; comments and blank lines are not
    # parser tokens
    skipped = (tokenize.COMMENT, tokenize.NL, tokenize.ENCODING)
    counts = {}
    for path in _SOURCES:
        with path.open("rb") as f:
            counts[path.name] = sum(t.type not in skipped for t in tokenize.tokenize(f.readline))
    assert max(counts.values()) < 8192, counts


def test_monte_carlo_table_matches_the_commands_and_the_estimators():
    # the shared body calls estimate(*options, trials, P, seed, workers=workers)
    shared = {cmd for cmd, (fn, _, _) in cli._COMMANDS.items() if fn is cli.cmd_monte_carlo}
    assert set(cli._MONTE_CARLO) == shared == {"crossing", "annulus", "staircase", "spanning"}
    for cmd, (name, options) in cli._MONTE_CARLO.items():
        params = list(inspect.signature(getattr(perco, name)).parameters)
        assert params == [*options, "trials", "P", "master_seed", "workers"], cmd
        assert {*options, "trials", "P", "seed", "workers"} <= set(_SPECS[cmd]), cmd
