"""Fuzzed command lines and config files: every run of every command exits 0,
2 or 3 (1 only from `check`, whose verdict can fail), and no exception
escapes main().

Each config key of a command is omitted or given a small int, a malformed
token, one of its choices (a lattice id for the other string keys), or, where
its size is refused up front, a 20-digit int.  --workers stays in {-1, 0, 1},
so no process pool starts.  A run may add a config file of valid, garbage or
non-UTF-8 lines, and `infer` reads a valid, a truncated or a garbage PGM, or
one whose provenance names a P of 5000 digits.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from coprimelab.cli import _REQUIRED, _SPECS, _ints, build_parser, main
from coprimelab.colouring import Window, colour_window, sample_coset_config, save_colouring
from coprimelab.lattice import lattice_from_id

PARSER = build_parser()  # also fills _SPECS where it is built with the parser
SUBPARSERS = next(a for a in PARSER._actions if a.dest == "command").choices

# keys whose work grows with their value and is not refused before it starts
NO_HUGE = {"trials", "p_max", "length", "radius"}
TOKENS = ["", " ", "x", "-", "--", ",", "1,", ",1", "1,,2", "1.5", "0x1f", "1e3", "nan",
          "=", "#", ".", "Z", "Z0", "Z1", "D1", "Q17", "é"]
LATTICE_IDS = ["Z2", "Z3", "D2", "D4", "E8", "Leech", "triangular"]

small = st.integers(-3, 40)
huge = st.integers(10**19, 10**20 - 1) | st.integers(-(10**20) + 1, -(10**19))


def _weighted(strategies: list) -> st.SearchStrategy:
    """Draw from one of strategies, a repeated one more often (one_of would
    merge the repeats)."""
    return st.sampled_from(strategies).flatmap(lambda s: s)


def _values(key: str, convert, default, choices) -> st.SearchStrategy:
    """Values of one key, None to omit it; weighted so that most runs get
    past the parser."""
    if key == "workers":
        return st.sampled_from([None, "-1", "0", "1"])
    ints = small if key in NO_HUGE else _weighted([small] * 7 + [huge])
    if convert is _ints:
        ints = st.lists(ints, min_size=2, max_size=2) | st.lists(ints, min_size=1, max_size=3)
    else:
        ints = st.lists(ints, min_size=1, max_size=1)
    ints = ints.map(lambda v: ",".join(map(str, v)))
    if choices:
        likely = st.sampled_from(list(choices))
    elif convert is str:
        likely = st.sampled_from(LATTICE_IDS)
    else:
        likely = ints
    kinds = [likely, likely, likely, likely, ints, st.sampled_from(TOKENS), st.none()]
    if default is not _REQUIRED:
        kinds += [st.none()] * 3
    return _weighted(kinds)


def _options(command: str) -> dict:
    """key -> (flag, or None for a positional; value strategy)."""
    out = {}
    for action in SUBPARSERS[command]._actions:
        if action.dest in _SPECS[command]:
            flag = action.option_strings[0] if action.option_strings else None
            convert, default = _SPECS[command][action.dest]
            out[action.dest] = (flag, _values(action.dest, convert, default, action.choices))
    return out


@pytest.fixture(scope="module")
def pgms(tmp_path_factory):
    """A valid, a truncated and a garbage PGM, one whose config provenance
    has a P of 5000 digits, and a path with no file."""
    root = tmp_path_factory.mktemp("pgm")
    config = sample_coset_config(lattice_from_id("Z2"), 13, 1)
    save_colouring(colour_window(config, Window((-3, 2), (12, 10))), root / "valid.pgm")
    data = (root / "valid.pgm").read_bytes()
    (root / "truncated.pgm").write_bytes(data[: len(data) - 7])
    (root / "garbage.pgm").write_bytes(b"P5\n12 x\n255\n\xff\x00" + data[:20])
    (root / "long-P.pgm").write_bytes(data.replace(b" P=13 ", b" P=" + b"9" * 5000 + b" "))
    return [str(root / name)
            for name in ("valid.pgm", "truncated.pgm", "garbage.pgm", "long-P.pgm", "none")]


def _config_lines(command: str, options: dict) -> st.SearchStrategy:
    pairs = st.sampled_from(sorted(options)).flatmap(
        lambda key: options[key][1].filter(bool).map(lambda v: f"{key} = {v}"))
    junk = st.sampled_from([f"command = {command}", "command = golay", "# note", "", "key",
                            "= 3", "unknown = 1"]) | st.text(max_size=20)
    line = _weighted([pairs, pairs, pairs, junk]).map(lambda t: t.encode("utf-8"))
    line = _weighted([line, line, line, st.sampled_from([b"\xff\xfe", b"P=\x80"])])
    return st.lists(line, max_size=4).map(lambda ls: b"\n".join(ls) + b"\n")


@pytest.mark.parametrize("command", sorted(_SPECS))
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_every_run_exits_with_a_contract_code(command, pgms, data):
    options = _options(command)
    argv = [command]
    for key, (flag, values) in options.items():
        if key == "pgm":
            values = _weighted([st.sampled_from(pgms)] * 3 + [values])
        value = data.draw(values, label=key)
        if value is not None:
            argv += [value] if flag is None else [flag, value]
    config = data.draw(_weighted([st.none(), st.none(), _config_lines(command, options)]),
                       label="config")
    with tempfile.TemporaryDirectory() as tmp:
        if config is not None:
            (Path(tmp) / "run.cfg").write_bytes(config)
            argv += ["--config", str(Path(tmp) / "run.cfg")]
        if data.draw(st.sampled_from([True, True, True, False]), label="out"):
            argv += ["--out", str(Path(tmp) / "out")]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in ((0, 1, 2, 3) if command == "check" else (0, 2, 3)), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
