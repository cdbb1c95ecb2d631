"""The benchmark's fixed workloads: which CLI commands each one runs, and why.

Each workload exists so that one ROADMAP optimisation does most of its work in
it and almost none in the others.  Its `why` says which layers it exercises
and which it bypasses, so later changes know which numbers should and should
not move; BENCHMARK.json repeats each `why` word for word (the self-test
checks that they agree).

Placeholders in a command's argv: `{seed}` is the workload seed given to the
benchmark (the only way the seed reaches the program) and `{workers}` is the
worker count (nproc untraced, 1 in the traced run).

ROADMAP items deliberately left out:
- Tier-1 wall time is not a workload.  One pass takes about two minutes on a
  2-core machine and its content changes whenever the tests change;
  `lattice-certify` covers its dominant cost (acceptance criterion 4, the
  hypothesis checkers).
- `sample` on a non-hypercubic lattice computes the whole colouring and then
  exits 2 at PGM export (4.5 s for E8 3^8, 11 s for triangular 256^2), so
  the ROADMAP's "`sample` on E8" cannot be a passing operation; the fix
  belongs to ROADMAP item 4.  Sublattice colouring is measured instead through
  `clusters --lattice triangular` and, in the traced run, through library
  `colour_window` calls on D4 and E8 windows.
- `check --lattice Leech` takes about 22 s on a 2-core machine, too long to
  repeat within one timed run, so it is one of the workload's `once`
  commands: the traced run executes and gates it, and reports its time as
  lattice.hypothesis_report.Leech_s.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Command:
    """One CLI invocation of a workload.

    id: output directory name and the run id of its trace spans.
    stage: which end-to-end stage metric its time counts toward.
    seeded: its outputs depend on the workload seed, so frozen outputs only
        apply at the default seed; unseeded outputs are checked at every seed.
    work: trials (Monte Carlo stages) or window points (window stage).
    """

    id: str
    argv: tuple[str, ...]
    stage: str
    seeded: bool
    work: int = 0

    def expand(self, seed: int, workers: int) -> list[str]:
        return [a.format(seed=seed, workers=workers) for a in self.argv]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: tuple[Command, ...]
    # Commands run only by the traced run (gated there, never timed end to end).
    once: tuple[Command, ...] = ()
    # Library calls made only by the traced run: colour_window on the window
    # (-r..r)^d of each (lattice id, r), and the crossing estimator at
    # (n, trials) with 1 and nproc workers for perco.parallel_speedup.
    colour_windows: tuple[tuple[str, int], ...] = ()
    speedup: tuple[int, int] | None = None


def _cmd(cid, argv, stage, work=0, seeded=None):
    argv = tuple(argv.split())
    if seeded is None:
        seeded = "{seed}" in argv
    return Command(cid, argv, stage, seeded, work)


def _monte_carlo(sizes, cross_trials, k, n_max, event_trials, length, span_trials):
    mc = "--seed {seed} --workers {workers}"
    cmds = []
    for n in sizes:
        cmds.append(_cmd(f"crossing-{n}",
                         f"crossing --n {n} --x {n} --P {2 * n} --trials {cross_trials} {mc}",
                         "crossing", cross_trials))
    for n in sizes:
        cmds.append(_cmd(f"bounds-{n}", f"bounds --n {n} --x {n}", "bounds"))
    cmds += [
        _cmd("annulus", f"annulus --k {k} --P 997 --trials {event_trials} {mc}",
             "events", event_trials),
        _cmd("staircase", f"staircase --n-max {n_max} --P 997 --trials {event_trials} {mc}",
             "events", event_trials),
        _cmd("spanning", f"spanning --length {length} --P 997 --trials {span_trials} {mc}",
             "events", span_trials),
    ]
    return tuple(cmds)


def _big_window(sample_side, side):
    pts = side * side
    return (
        _cmd("sample", f"sample --extents {sample_side},{sample_side} --P 9973 --seed {{seed}}",
             "window", sample_side * sample_side),
        _cmd("infer", "infer --pgm sample/colouring.pgm", "other", seeded=True),
        _cmd("layers", f"layers --extents {side},{side} --seed {{seed}}", "window", pts),
        _cmd("clusters-square",
             f"clusters --extents {side},{side} --adjacency square --seed {{seed}}",
             "window", pts),
        _cmd("clusters-spread2",
             f"clusters --extents {side},{side} --adjacency spread2 --seed {{seed}}",
             "window", pts),
    )


def _check(lat, theorem):
    return _cmd(f"check-{lat}", f"check --lattice {lat} --theorem {theorem}", "check")


def _lattice_certify(checks, info_lattice, tri_side):
    cmds = [_check(lat, theorem) for lat, theorem in checks]
    cmds += [
        _cmd(f"lattice-info-{info_lattice}", f"lattice info --lattice {info_lattice}",
             "other"),
        _cmd("clusters-triangular",
             f"clusters --lattice triangular --adjacency triangular "
             f"--extents {tri_side},{tri_side} --seed {{seed}}",
             "other"),
    ]
    return tuple(cmds)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "monte-carlo",
            why="crossing, annulus, staircase, spanning and bounds (exact and fixed-point):"
                " RNG streams and draws, per-trial perco work, CLI witness re-scan;"
                " bypasses file I/O, big windows, certifiers",
            commands=_monte_carlo(sizes=(256, 512), cross_trials=1000, k=243, n_max=6,
                                  event_trials=400, length=1000, span_trials=1000),
            speedup=(512, 1000),
        ),
        Workload(
            "big-window",
            why="2048^2 sample + PGM write, infer read-back, 1024^2 layers and clusters"
                " (ndimage and union-find): bulk colouring, labelling, I/O; bypasses"
                " RNG-heavy trials and certifiers",
            commands=_big_window(2048, 1024),
        ),
        Workload(
            "lattice-certify",
            why="check D4/E8, lattice info E8, triangular clusters (Leech check traced"
                " only): lattice specs, minimal vectors, certifiers, sublattice"
                " colouring; bypasses RNG trials and big windows",
            commands=_lattice_certify((("D4", "setupblack"), ("E8", "setup")), "E8", 64),
            once=(_check("Leech", "setup"),),
            colour_windows=(("D4", 4), ("E8", 1)),
        ),
    )
}

# Tiny versions of the same command shapes, for the benchmark's self-test.
SMOKE = {
    "monte-carlo": Workload(
        "monte-carlo", "smoke",
        _monte_carlo(sizes=(8, 16), cross_trials=40, k=9, n_max=2, event_trials=8,
                     length=40, span_trials=40),
        speedup=(16, 40)),
    "big-window": Workload("big-window", "smoke", _big_window(64, 32)),
    "lattice-certify": Workload(
        "lattice-certify", "smoke",
        _lattice_certify((("D3", "setupblack"),), "D4", 16),
        once=(_check("square", "setup"),),
        colour_windows=(("D4", 1),)),
}
