"""Command-line surface: sampling, rendering, estimation and inspection.

Every parameter can come from a `key = value` config file (--config) with
`#` comments; explicit flags win over file values and file values win over
built-in defaults.  With --out, a command writes its files there (the
directory is created on first write) and main() adds a manifest.txt echoing
every parameter the run used, in the same key = value grammar, so the
manifest itself reproduces the run.

Exit codes: 0 success, 1 failing check verdict, 2 domain error, 3 parse
error (bad flags, bad config file, missing required values).
"""

from __future__ import annotations

import argparse
import re
import sys
from collections import Counter
from pathlib import Path

from . import arith, colouring, lattice, lattice_core, perco
from .errors import DomainError, ParseError

_REQUIRED = object()

# additive layer palette, indexed by the subset of highlighted primes present
# (bit i set = membership in the i-th highlighted prime's coset).  Singles are
# cyan / yellow / magenta; two-colour mixes give the usual secondaries; the
# full triple mixes to white, which is why captions warn about the possible
# clash with genuinely-coprime points.
LAYER_PALETTE = {
    0b001: (0, 255, 255),
    0b010: (255, 255, 0),
    0b100: (255, 0, 255),
    0b011: (0, 255, 0),
    0b101: (0, 0, 255),
    0b110: (255, 0, 0),
    0b111: (255, 255, 255),
}

# model id -> (standard_lattice kind, d, kwargs, default check radius);
# `check` takes every model, `clusters --adjacency` the 2-D ones
_MODELS = {
    "square": ("square", None, {}, 3),
    "triangular": ("triangular", None, {}, 3),
    "D3": ("D", 3, {}, 3),
    "D4": ("D", 4, {}, 3),
    "E8": ("E8", None, {}, 2),
    "Leech": ("Leech", None, {}, 2),
    "spread2": ("spread_out", 2, {"alpha": 2}, 3),
}


def _seed(raw: str) -> int:
    v = int(raw)
    if not 0 <= v < 2**64:
        raise ValueError("seed must fit in 64 bits")
    return v


def _ints(raw: str) -> tuple[int, ...]:
    parts = [p.strip() for p in raw.split(",")]
    return tuple(int(p) for p in parts)


def _serialize(value) -> str:
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


class _Parser(argparse.ArgumentParser):
    # let negative coordinate tuples like "-10,-10" through as values
    _COORDS = re.compile(r"^-\d+(,-?\d+)*$")

    def error(self, message):
        raise ParseError(message)

    def _parse_optional(self, arg_string):
        if self._COORDS.match(arg_string):
            return None
        return super()._parse_optional(arg_string)


def _read_config(path: str, cmd: str, spec: dict) -> dict[str, str]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read config file: {exc}")
    except UnicodeDecodeError:
        raise ParseError("config file is not UTF-8") from None
    values: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ParseError(f"line {lineno}: expected key = value")
        key, _, raw = stripped.partition("=")
        key, raw = key.strip(), raw.strip()
        if key == "command":
            if raw != cmd:
                raise ParseError(f"line {lineno}: config is for command {raw!r}")
            continue
        if key not in spec:
            raise ParseError(f"line {lineno}: unknown key {key!r} for {cmd}")
        if key in values:
            raise ParseError(f"line {lineno}: duplicate key {key!r}")
        values[key] = raw
    return values


def _finalize(args) -> None:
    """Merge flags over config-file values over defaults; convert types."""
    spec = _SPECS[args.command]
    file_vals = _read_config(args.config, args.command, spec) if args.config else {}
    for dest, (convert, default) in spec.items():
        raw = getattr(args, dest)
        if raw is None:
            raw = file_vals.get(dest)
        if raw is None:
            if default is _REQUIRED:
                raise ParseError(f"missing required --{dest.replace('_', '-')}")
            value = default
        else:
            try:
                value = convert(raw)
            except ValueError as exc:
                raise ParseError(f"bad value for {dest}: {raw!r} ({exc})")
            choices = _CHOICES.get((args.command, dest))
            if choices and value not in choices:  # argparse checks only flag values
                raise ParseError(f"bad value for {dest}: {raw!r} (choices: {', '.join(choices)})")
        setattr(args, dest, value)


def _write(args, name: str, write) -> None:
    """Write file `name` in --out by calling write(path).

    Every file the CLI writes goes through here.  --out is created on first
    use, and an OSError from either step is a parse error naming the path.
    """
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ParseError(f"cannot create output directory: {exc}") from None
    try:
        write(out / name)
    except OSError as exc:
        raise ParseError(f"cannot write output file: {exc}") from None


def _write_text(args, name: str, text: str) -> None:
    _write(args, name, lambda path: path.write_text(text, encoding="utf-8"))


def _write_manifest(args) -> None:
    lines = [f"command = {args.command}"]
    for key in sorted(_SPECS[args.command]):
        value = getattr(args, key)
        if value is not None:
            lines.append(f"{key} = {_serialize(value)}")
    _write_text(args, "manifest.txt", "\n".join(lines) + "\n")


def _emit(args, name: str, text: str) -> None:
    sys.stdout.write(text)
    if args.out is not None:
        _write_text(args, name, text)


def _emit_csv(args, header: str, rows: list[str]) -> None:
    """<command>.csv: the header line, then one line per row."""
    _emit(args, f"{args.command}.csv", "".join(f"{line}\n" for line in [header, *rows]))


# ---------------------------------------------------------------------------
# commands


def _export_spec(args):
    """The lattice of a command that writes a PNM: anything but a full 2-D grid,
    and a missing --out, are refused before any work, so no partial output is left."""
    spec = colouring.lattice_from_id(args.lattice)
    if not spec.full_grid or spec.dim != 2:
        raise DomainError(f"PGM export covers full 2-D grids; {args.lattice} is not one")
    if args.out is None:
        raise ParseError(f"{args.command} writes files; --out is required")
    return spec


def _sampled_window(args, spec):
    """(config, colouring) of the sampled window: its budget is checked
    before a config of every prime up to P is drawn."""
    window = colouring.Window(args.origin, args.extents)
    window.require_budget()
    config = colouring.sample_coset_config(spec, args.P, args.seed)
    return config, colouring.colour_window(config, window)


def cmd_sample(args) -> int:
    if args.oracle is not None and args.lattice != "Z2":
        raise DomainError("the gcd oracle is defined on the Z2 grid")
    spec = _export_spec(args)
    if args.oracle is not None:
        window = colouring.Window(args.origin, args.extents)
        col = colouring.oracle_from_origin(args.oracle, window)
    else:
        config, col = _sampled_window(args, spec)
        _write(args, "config.txt", lambda path: colouring.save_config(config, path))
    _write(args, "colouring.pgm", lambda path: colouring.save_colouring(col, path))
    print(f"white fraction {col.white_fraction():.6f}")
    if args.oracle is None:
        bound = colouring.truncation_error_bound(col.window, args.P)
        print(f"truncation error bound {float(bound):.6g}")
    return 0


def cmd_layers(args) -> int:
    spec = _export_spec(args)
    primes = args.primes
    if not 1 <= len(primes) <= 3 or len(set(primes)) != len(primes):
        raise DomainError("need 1 to 3 distinct highlighted primes")
    table = arith.primes_up_to(max(2, *primes))
    for p in primes:
        if p not in table:
            raise DomainError(f"highlighted value {p} is not a prime")
        if p > args.P:
            raise DomainError(f"highlighted prime {p} exceeds the cutoff P={args.P}")
    config, col = _sampled_window(args, spec)
    import numpy as np  # only once colouring has loaded (see coprimelab/__init__.py)

    # index bit i: in the coset of primes[i]; bit 3: white
    index = col.white.view(np.uint8) << 3
    for i, p in enumerate(primes):
        index[colouring.coset_slice(config.reps[p], p, col.window)] |= 1 << i
    palette = np.zeros((16, 3), dtype=np.uint8)
    palette[8:] = 255
    for bits, colour in LAYER_PALETTE.items():
        palette[bits] = palette[bits | 8] = colour
    comment = "primes=" + " ".join(str(p) for p in primes)
    _write(args, "layers.ppm", lambda path: colouring.save_pnm(path, col, index, palette, comment))
    _write(args, "config.txt", lambda path: colouring.save_config(config, path))
    print(f"layers.ppm written, {len(primes)} highlighted primes")
    return 0


# Monte Carlo command -> (perco estimator, the options its leading parameters
# take); trials, P, seed and workers follow them
_MONTE_CARLO = {
    "crossing": ("estimate_crossing", ("n", "x")),
    "annulus": ("estimate_annulus", ("k",)),
    "staircase": ("estimate_staircase", ("n_max",)),
    "spanning": ("estimate_spanning", ("length",)),
}


def cmd_monte_carlo(args) -> int:
    """<command>.csv, and witness.txt with the first successful trial and its
    event's witness lines when the event has them."""
    name, options = _MONTE_CARLO[args.command]
    estimate = getattr(perco, name)
    stats = estimate(*(getattr(args, option) for option in options), args.trials, args.P,
                     args.seed, workers=args.workers)
    args.P = stats.P
    _emit_csv(args, perco.MC_CSV_HEADER, [stats.csv_row()])
    t, result = stats.witness or (None, None)
    if hasattr(result, "witness_lines"):
        _emit(args, "witness.txt", "\n".join([f"trial {t}", *result.witness_lines()]) + "\n")
    return 0


def cmd_bounds(args) -> int:
    report = arith.second_moment_bound(args.n, args.x, args.P)
    args.P = report.P
    _emit_csv(args, arith.SECOND_MOMENT_CSV_HEADER, [report.csv_row()])
    # notes go to stderr, so the CSV row stays the one a cutoff of P prints
    if report.P < report.x:
        print(f"note: P={report.P} is below x={report.x}; the products ran to the"
              f" effective cutoff max(P, x) = {report.x}", file=sys.stderr)
    if report.r_upper >= 1:
        print(f"note: r_upper={arith.decimal_str(report.r_upper)} is at least 1, so the bound"
              " is vacuous", file=sys.stderr)
    return 0


def cmd_clusters(args) -> int:
    # perco first: it compiles its siblings before lattice_core imports numpy
    spec = perco.lattice_from_id(args.lattice)
    kind, d, kw, _ = _MODELS[args.adjacency]
    S = lattice_core.standard_lattice(kind, d, **kw)[1]
    # an edge along a generator outside the lattice joins no two of its points
    if S.dim != spec.dim:
        raise DomainError(f"{args.adjacency} adjacency is {S.dim}-dimensional; {spec.name} is not")
    inside = lattice_core.contains_bulk(spec, S.rows)
    if not inside.all():
        v = tuple(S.rows[inside.argmin()].tolist())
        raise DomainError(f"{args.adjacency} generator {v} is not in {spec.name}")
    _, col = _sampled_window(args, spec)
    labels = perco.label_clusters(col, S, args.colour)
    _emit_csv(args, "key,value", [
        f"colour,{args.colour}",
        f"adjacency,{args.adjacency}",
        f"points,{col.window.point_count}",
        f"coloured_points,{int(labels.sizes.sum())}",
        f"components,{labels.count}",
        f"largest,{int(labels.sizes.max()) if labels.count else 0}",
        f"boundary_components,{len(labels.boundary_components())}",
    ])
    return 0


def cmd_lattice(args) -> int:
    spec = lattice.lattice_from_id(args.lattice)
    vectors = lattice.minimal_vectors(spec)
    if args.action == "dump":
        _emit(args, "vectors.txt",
              "".join(" ".join(str(c) for c in v) + "\n" for v in vectors.rows.tolist()))
    else:
        _emit_csv(args, "key,value", [
            f"lattice,{spec.name}",
            f"dim,{spec.dim}",
            f"determinant,{spec.determinant}",
            f"minimal_vectors,{len(vectors)}",
            f"minimal_norm_sq,{lattice.norm_sq(spec, vectors.rows[0].tolist())}",
            f"span_index,{lattice.span_index(vectors.rows, spec)}",
        ])
    return 0


def cmd_golay(args) -> int:
    code = lattice.build_golay()
    if args.dump is not None:
        _emit(args, f"{args.dump}.txt",
              "".join(lattice.word_line(w) + "\n" for w in getattr(code, args.dump)))
    else:
        weights = Counter(w.bit_count() for w in code.codewords)
        _emit_csv(args, "key,value", [
            f"codewords,{len(code.codewords)}",
            f"dimension,{len(code.generators)}",
            *(f"weight_{k},{weights[k]}" for k in sorted(weights)),
        ])
    return 0


def cmd_check(args) -> int:
    kind, d, kw, default_radius = _MODELS[args.lattice]
    spec, S = lattice.standard_lattice(kind, d, **kw)
    if args.radius is None:
        args.radius = default_radius
    report = lattice.hypothesis_report(spec, S, args.theorem, args.radius, args.search_radius)
    lines = [f"target={args.lattice} lattice={report.lattice} theorem={report.theorem}"]
    for adj in report.adjacency:
        status = "pass (exact)" if adj.passed else f"FAIL witness={adj.witness}"
        lines.append(f"adjacency axis={adj.axis} mode={adj.mode} {status}")
    for cert in report.slices:
        status = "pass-bounded" if cert.passed else "FAIL"
        lines.append(
            f"slices axis={cert.axis} {status} radius={cert.certify_radius}"
            f" points={cert.points_certified} method={cert.method}"
        )
        if not cert.passed and cert.unreached:
            lines.append(f"  unreached example: {cert.unreached}")
    lines.append(f"verdict {report.verdict}")
    _emit(args, "check.txt", "\n".join(lines) + "\n")
    return 0 if report.passed else 1


def cmd_infer(args) -> int:
    col = colouring.load_colouring(args.pgm)
    result = colouring.infer_cosets(col, args.p_max)
    lines = []
    for p in sorted(result.candidates):
        cands = " | ".join(" ".join(str(r) for r in c) for c in result.candidates[p])
        lines.append(f"p={p} candidates: {cands}")
    if result.truncation_warning:
        lines.append("warning: window may owe black points to primes beyond the"
                     " config cutoff; candidates above its P are unreliable")
    _emit(args, "infer.txt", "\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# the command table: command -> (function, help, options).  An option is
# (flag, convert, default, help[, choices]); a flag without dashes is a
# positional.  Options shared by several commands are written once here.

_P = ("--P", int, 997, "prime truncation cutoff")
_SEED = ("--seed", _seed, 0, "master seed")
_WORKERS = ("--workers", int, 1, "worker processes")
_NX = (("--n", int, _REQUIRED, "window height (rows)"),
       ("--x", int, _REQUIRED, "window width (columns)"))


def _trials(default: int) -> tuple:
    return ("--trials", int, default, "Monte Carlo trials")


def _sampled(extents: tuple[int, int]) -> tuple:
    """Options of the commands that colour one window of a sample."""
    return (("--lattice", str, "Z2", "lattice id"), _P, _SEED,
            ("--origin", _ints, (0, 0), "window origin a,b"),
            ("--extents", _ints, extents, "window extents e1,e2"))


_COMMANDS = {
    "sample": (cmd_sample, "sample a colouring and write config + PGM", (
        *_sampled((512, 512)),
        ("--oracle", _ints, None, "render the gcd oracle around point a,b instead of sampling"))),
    "layers": (cmd_layers, "render per-prime coset layers as PPM", (
        *_sampled((256, 256)), ("--primes", _ints, (2, 3, 5), "up to 3 highlighted primes"))),
    "crossing": (cmd_monte_carlo, "Monte Carlo crossing probability", (
        *_NX, _trials(10000), ("--P", int, None,
         "prime truncation cutoff (default: max(5, 2x); truncation only raises the estimate)"),
        _SEED, _WORKERS)),
    "bounds": (cmd_bounds, "second-moment crossing bound as CSV", (
        *_NX, ("--P", int, None, "prime cutoff (default: 32x)"))),
    "annulus": (cmd_monte_carlo, "white-circuit frequency at scale k", (
        ("--k", int, _REQUIRED, "annulus scale, multiple of 3"),
        _trials(200), _P, _SEED, _WORKERS)),
    "staircase": (cmd_monte_carlo, "dyadic staircase frequency and path", (
        ("--n-max", int, 5, "last staircase stage"), _trials(200), _P, _SEED, _WORKERS)),
    "spanning": (cmd_monte_carlo, "all-white column frequency in dimension 3", (
        ("--length", int, 1000, "column length L"), _trials(1000), _P, _SEED, _WORKERS)),
    "clusters": (cmd_clusters, "cluster statistics of one sample", (
        *_sampled((256, 256)),
        ("--adjacency", str, "square", "generating set", ["spread2", "square", "triangular"]),
        ("--colour", str, "white", "which colour to label", ["white", "black"]))),
    "lattice": (cmd_lattice, "minimal vectors and lattice facts", (
        ("action", str, _REQUIRED, "dump sorted minimal vectors, or print summary facts",
         ["dump", "info"]),
        ("--lattice", str, _REQUIRED, "lattice id"))),
    "golay": (cmd_golay, "Golay code facts and word dumps", (
        ("--dump", str, None, "word class to dump, one 24-bit word per line",
         ["generators", "codewords", "octads", "dodecads"]),)),
    "check": (cmd_check, "verify structural hypotheses for a model", (
        ("--lattice", str, _REQUIRED, "model to check", sorted(_MODELS)),
        ("--theorem", str, _REQUIRED, "which condition set", ["setup", "setupblack"]),
        ("--radius", int, None, "slice certification radius (default: per lattice)"),
        ("--search-radius", int, None,
         "path search radius (default: twice the certification radius)"))),
    "infer": (cmd_infer, "recover coset candidates from a PGM window", (
        ("--pgm", str, _REQUIRED, "PGM colouring to analyse"),
        ("--p-max", int, 13, "largest prime to solve for"))),
}


def _dest(flag: str) -> str:
    return flag.lstrip("-").replace("-", "_")


# command -> {config key: (convert, default)}, read by _finalize and the manifest
_SPECS: dict[str, dict[str, tuple]] = {
    cmd: {_dest(flag): (convert, default) for flag, convert, default, *_ in options}
    for cmd, (_, _, options) in _COMMANDS.items()
}
_CHOICES = {(cmd, _dest(option[0])): option[4] for cmd, (_, _, options) in _COMMANDS.items()
            for option in options if len(option) > 4}


def build_parser() -> _Parser:
    parser = _Parser(prog="coprimelab", description="coprime colouring laboratory")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (fn, help_text, options) in _COMMANDS.items():
        p = subs.add_parser(name, help=help_text, description=help_text)
        p.set_defaults(func=fn)
        p.add_argument("--config", default=None, metavar="FILE",
                       help="key = value file; flags override its values")
        p.add_argument("--out", default=None, metavar="DIR",
                       help="output directory (writes files and manifest.txt)")
        for flag, _, default, text, *choices in options:
            kwargs = {"choices": choices[0]} if choices else {"metavar": _dest(flag).upper()}
            if flag.startswith("-"):  # argparse itself requires positionals
                kwargs.update(dest=_dest(flag), default=None)
                if default is _REQUIRED:
                    text += " (required)"
                elif default is not None:
                    text += f" (default: {_serialize(default)})"
            p.add_argument(flag, help=text, **kwargs)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _finalize(args)
        code = args.func(args)
        if args.out is not None:
            _write_manifest(args)
        return code
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 3
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
