"""Cluster labeling, crossing events and the Monte Carlo estimation harness.

Events are evaluated on finite windows of the truncated model.  The
estimators derive one independent RNG substream per trial from the master
seed, draw the residues of many trials as one array, and decide each event
from which lines of its window stay white; success counts are plain integer
sums and results are identical for any worker count.  Truncating the prime
set only ever adds white points, which keeps the estimated crossing
probabilities on the safe side of the second-moment upper bounds.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from fractions import Fraction

# package modules before numpy (see coprimelab/__init__.py)
from .arith import decimal_str, primes_up_to
from .colouring import Colouring, Window, colour_window, coset_residues, sample_coset_config
from .errors import _BATCH_ENTRIES, SIZE_BUDGET, DomainError
from .lattice_core import GenSet, _blocks, lattice_from_id, minimal_vectors
from .rng import stream_seed, stream_seeds

import numpy as np

WILSON_Z = 1.959963984540054  # two-sided 95%

MC_CSV_HEADER = "experiment,n,x,P,trials,successes,estimate,ci_lo,ci_hi,seed"
_TRIAL_TAG = "trial"  # the substream tag of trial seeds


def trial_seed(master_seed: int, index: int) -> int:
    """Seed of the index-th trial's private substream family."""
    return stream_seed(master_seed, _TRIAL_TAG, index)


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    if trials < 1 or not 0 <= successes <= trials:
        raise DomainError("need 0 <= successes <= trials, trials >= 1")
    z = WILSON_Z
    phat = successes / trials
    denom = 1 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


@dataclass(frozen=True)
class McStats:
    """One Monte Carlo experiment: integer counts plus a Wilson 95% interval.

    witness is (trial index, event result) of the lowest-index successful
    trial, or None; it is left out of equality and of the CSV row.
    """

    experiment: str
    n: int
    x: int
    P: int
    trials: int
    successes: int
    seed: int
    witness: tuple | None = field(default=None, compare=False)

    @property
    def estimate(self) -> float:
        return self.successes / self.trials

    @property
    def ci(self) -> tuple[float, float]:
        return wilson_interval(self.successes, self.trials)

    @property
    def std_error(self) -> float:
        p = self.estimate
        return math.sqrt(max(p * (1 - p), 1 / self.trials) / self.trials)

    def csv_row(self) -> str:
        lo, hi = self.ci
        return ",".join(
            [
                self.experiment,
                str(self.n),
                str(self.x),
                str(self.P),
                str(self.trials),
                str(self.successes),
                decimal_str(Fraction(self.successes, self.trials)),
                decimal_str(Fraction(lo)),
                decimal_str(Fraction(hi)),
                str(self.seed),
            ]
        )


# ---------------------------------------------------------------------------
# cluster labeling


@dataclass
class ClusterLabels:
    """Connected components of one colour under a generating-set adjacency.

    labels holds a component id per grid position (-1 where the position has
    the other colour or is not a lattice point); ids are assigned in raster
    order of first appearance.  touches[c, k] tells whether component c meets
    the low/high window face along coordinate axis k.
    """

    labels: np.ndarray
    count: int
    sizes: np.ndarray
    touches: np.ndarray

    def boundary_components(self) -> np.ndarray:
        return np.nonzero(self.touches.any(axis=(1, 2)))[0]


def _find(parent: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Roots of the given positions."""
    while True:
        up = parent[ids]
        if (up == ids).all():
            return ids
        ids = up


def label_clusters(colouring: Colouring, S: GenSet, colour: str = "white") -> ClusterLabels:
    """Connected components of one colour; ids in raster first-visit order.

    Edges are contracted one offset pair {s, -s} at a time, by root hooking
    and pointer jumping (Shiloach-Vishkin): a component's root is the
    smallest raster position it holds, and each edge joining two roots hooks
    the larger onto the smaller.  Roots in raster order are then components
    in first-visit order.

    Memory: the int64 grid returned as `labels` is the union-find forest
    until it takes the ids: each position is a node named by its raster
    index, and its entry is its parent, every position's root after each
    offset pair.  A pair's edges and each face that `touches` reads are
    taken in lattice_core._blocks of at most _BATCH_ENTRIES positions
    (entries that an earlier block hooked are followed up to their roots),
    and the forest is flattened, relabelled and counted in runs of that
    length, so the working set beyond the grid, the colour's mask, `sizes`
    and `touches` is bounded whatever the window's shape or the size of S.
    """
    if colour not in ("white", "black"):
        raise DomainError(f"colour must be white or black, got {colour!r}")
    if S.dim != colouring.window.dim:
        raise DomainError("generating set dimension mismatch")
    if not S.is_symmetric() or S.has_zero():
        raise DomainError("adjacency needs a symmetric generating set without 0")
    colouring.window.require_budget()
    mask = colouring.white if colour == "white" else ~colouring.white
    if colouring.in_lattice is not None:
        mask = mask & colouring.in_lattice
    shape, size = mask.shape, mask.size
    # the union-find forest over grid positions: position i's parent is
    # labels.flat[i]; no edge reaches a position of the other colour
    labels = np.arange(size, dtype=np.int64).reshape(shape)
    parent, coloured = labels.reshape(-1), mask.reshape(-1)
    step = _BATCH_ENTRIES
    # the lexicographically positive half of a symmetric set, one per pair
    for s in S.rows[len(S) // 2:].tolist():
        offset = tuple(reversed(s))  # array-axis order
        src = tuple(slice(max(0, -o), n - max(0, o)) for o, n in zip(offset, shape))
        hooked = False
        for a_at in _blocks(src, step):
            b_at = tuple(slice(a.start + o, a.stop + o) for a, o in zip(a_at, offset))
            # the grid held roots when the pair began; equal entries are joined
            a, b = labels[a_at], labels[b_at]
            joined = (a != b) & mask[a_at] & mask[b_at]
            if not joined.any():
                continue
            a, b = a[joined], b[joined]
            if hooked:  # an earlier block of the pair may have hooked these roots
                a, b = _find(parent, a), _find(parent, b)
                joined = a != b
                a, b = a[joined], b[joined]
            hooked = True
            while len(a):
                high = np.maximum(a, b)
                low = np.minimum(a, b, out=a)
                np.minimum.at(parent, high, low)
                jump = high
                while len(jump):  # jump the hooked roots up to their new roots
                    up = parent[jump]
                    top = parent[up]
                    parent[jump] = top
                    jump = jump[up != top]
                # in place; the ids are in range, and "clip", unlike "raise", needs no buffer
                a = np.take(parent, low, out=low, mode="clip")
                b = np.take(parent, high, out=b, mode="clip")
                joined = a != b
                a, b = a[joined], b[joined]
        if not hooked:
            continue
        for lo in range(0, size, step):  # point every position at its root
            run = parent[lo:lo + step]
            up = parent[run]
            # one gather over the run; then only entries whose parent is not
            # a root are followed up
            at = np.flatnonzero(up != run)
            up = up[at]
            while len(at):
                run[at] = up
                top = parent[up]
                keep = top != up
                at, up = at[keep], top[keep]
    # each root takes the next id in raster order, every other point its
    # root's, and each position of the other colour -1
    count = 0
    for lo in range(0, size, step):
        run, inside = parent[lo:lo + step], coloured[lo:lo + step]
        top = run.copy()  # each position's root
        roots = np.flatnonzero((top == np.arange(lo, lo + len(run))) & inside)
        run[roots] = np.arange(count, count + len(roots))
        count += len(roots)
        # the roots of this run and of earlier ones now hold their ids
        np.take(parent, top, out=top, mode="clip")
        np.add(top, 1, out=run)
        run *= inside  # 0, then -1, off the colour
        run -= 1
    sizes = np.zeros(count, dtype=np.int64)
    for lo in range(0, size, step):
        np.add.at(sizes, parent[lo:lo + step][coloured[lo:lo + step]], 1)
    d = colouring.window.dim
    touches = np.zeros((count, d, 2), dtype=bool)
    full = tuple(slice(0, n) for n in shape)
    for k in range(d):
        ax = d - 1 - k  # array axis for coordinate k
        for side, index in ((0, 0), (1, shape[ax] - 1)):
            face = (*full[:ax], slice(index, index + 1), *full[ax + 1:])
            for at in _blocks(face, step):
                ids = labels[at]
                touches[ids[ids >= 0], k, side] = True
    return ClusterLabels(labels, count, sizes, touches)


# ---------------------------------------------------------------------------
# crossing events


def _lines(rect: tuple[int, int, int, int], kind: str) -> tuple[int, int, int, int, int]:
    """(coordinate naming the lines, first line, line count, first point, points
    per line) of a crossing: the rect's rows if horizontal, else its columns."""
    i1, i2, j1, j2 = rect
    if kind == "horizontal":
        return 1, j1, j2 - j1 + 1, i1, i2 - i1 + 1
    return 0, i1, i2 - i1 + 1, j1, j2 - j1 + 1


def crossing(colouring: Colouring, rect: tuple[int, int, int, int],
             kind: str = "horizontal") -> int | None:
    """The first fully-white row (kind=horizontal) or column (vertical) of
    rect, by its coordinate, or None if there is none.

    rect = (i1, i2, j1, j2), axis-1 range then axis-2 range, inclusive, in
    lattice coordinates.
    """
    if kind not in ("horizontal", "vertical"):
        raise DomainError(f"kind must be horizontal or vertical, got {kind!r}")
    if colouring.window.dim != 2:
        raise DomainError("crossing events are two-dimensional")
    if colouring.in_lattice is not None:
        raise DomainError("crossing events need full-grid windows")
    i1, i2, j1, j2 = rect
    if i1 > i2 or j1 > j2:
        raise DomainError("empty rectangle")
    window = colouring.window
    if not (window.contains_point((i1, j1)) and window.contains_point((i2, j2))):
        raise DomainError("rectangle leaves the window")
    oi, oj = window.origin
    sub = colouring.white[j1 - oj : j2 - oj + 1, i1 - oi : i2 - oi + 1]
    axis, first, *_ = _lines(rect, kind)
    full = sub.all(axis=axis)  # in 2-D, array axis `axis` runs along the lines
    return first + int(np.argmax(full)) if full.any() else None


@dataclass(frozen=True)
class AnnulusResult:
    """A white circuit around the central box, as four witness lines."""

    k: int
    occurred: bool
    left_column: int | None = None
    right_column: int | None = None
    bottom_row: int | None = None
    top_row: int | None = None

    @property
    def succeeded(self) -> bool:
        return self.occurred

    def witness_lines(self) -> list[str]:
        if not self.occurred:
            return []
        k = self.k
        return [
            f"vertical x={self.left_column} y={-k}..{k}",
            f"vertical x={self.right_column} y={-k}..{k}",
            f"horizontal y={self.bottom_row} x={-k}..{k}",
            f"horizontal y={self.top_row} x={-k}..{k}",
        ]


def _annulus_crossings(k: int) -> list:
    """The (rect, kind) crossings surrounding [-k/3, k/3]^2 at scale k: a
    fully-white column over [-k,k] in each vertical strip [-k,-k/3] and
    [k/3,k], a fully-white row in each horizontal strip."""
    if k < 3 or k % 3:
        raise DomainError(f"annulus scale must be a positive multiple of 3, got {k}")
    m = k // 3
    return [((-k, -m, -k, k), "vertical"), ((m, k, -k, k), "vertical"),
            ((-k, k, -k, -m), "horizontal"), ((-k, k, m, k), "horizontal")]


def annulus_event(colouring: Colouring, k: int) -> AnnulusResult:
    """White circuit event at scale k: all four of _annulus_crossings(k)."""
    lines = [crossing(colouring, *c) for c in _annulus_crossings(k)]
    if None in lines:
        return AnnulusResult(k, False)
    return AnnulusResult(k, True, *lines)


def check_annulus_consequences(colouring: Colouring, k: int) -> None:
    """Assert the structural consequences of a positive annulus event.

    No black component may reach from the central box to the window boundary,
    and all white components joining the central box to the boundary must be
    one and the same (the circuit's component).  Raises AssertionError with
    the offending component otherwise.
    """
    m = k // 3
    S = minimal_vectors(lattice_from_id("Z2"))
    window = colouring.window
    oi, oj = window.origin

    def central_ids(labels: np.ndarray) -> np.ndarray:
        sub = labels[-m - oj : m - oj + 1, -m - oi : m - oi + 1]
        return np.unique(sub[sub >= 0])

    black = label_clusters(colouring, S, "black")
    bad = np.intersect1d(central_ids(black.labels), black.boundary_components())
    if len(bad):
        raise AssertionError(f"black component {bad[0]} escapes the annulus")
    white = label_clusters(colouring, S, "white")
    escaping = np.intersect1d(central_ids(white.labels), white.boundary_components())
    if len(escaping) > 1:
        raise AssertionError(f"white components {escaping.tolist()} all escape")


# ---------------------------------------------------------------------------
# staircase


@dataclass(frozen=True)
class StaircaseResult:
    witnesses: tuple[tuple[int, str, int], ...]  # (n, kind, line coordinate)
    path: tuple[tuple[int, int], ...] | None

    @property
    def succeeded(self) -> bool:
        return self.path is not None

    def witness_lines(self) -> list[str]:
        """One line per crossed stage, then the path, one point per line."""
        lines = [f"stage {n} {kind} line={c}" for n, kind, c in self.witnesses]
        return lines + [f"{x} {y}" for x, y in self.path or ()]


def _segment(a: tuple[int, int], b: tuple[int, int]) -> list[tuple[int, int]]:
    """Unit-step walk from a to b along the one axis where they differ."""
    (ax, ay), (bx, by) = a, b
    if ax != bx and ay != by:
        raise AssertionError("segment endpoints differ in both axes")
    dx, dy = (bx > ax) - (bx < ax), (by > ay) - (by < ay)
    return [(ax + t * dx, ay + t * dy) for t in range(abs(bx - ax) + abs(by - ay) + 1)]


def _staircase_crossings(n_min: int, n_max: int) -> list:
    """Stages n_min..n_max: stage n crosses [0, 2^(n+1)] x [0, 2^n] by a row
    for even n, with the roles of the axes swapped for odd n."""
    return [((0, 2 ** (n + 1), 0, 2**n), "horizontal") if n % 2 == 0
            else ((0, 2**n, 0, 2 ** (n + 1)), "vertical") for n in range(n_min, n_max + 1)]


def staircase(colouring: Colouring, n_min: int, n_max: int) -> StaircaseResult:
    """Check the alternating dyadic crossings and concatenate their witnesses.

    Stages n_min..n_max are _staircase_crossings(n_min, n_max).  On success
    the witness lines are joined at their pairwise intersections into one
    explicit white path, verified point by point.
    """
    if n_min < 0 or n_min > n_max:
        raise DomainError("need 0 <= n_min <= n_max")
    witnesses = []
    for n, (rect, kind) in enumerate(_staircase_crossings(n_min, n_max), n_min):
        line = crossing(colouring, rect, kind)
        if line is None:
            return StaircaseResult(tuple(witnesses), None)
        witnesses.append((n, kind, line))

    # corners: the first line's start, where each line meets the next, the
    # last line's far end; corner i lies on line on[i] at position at[i]
    on = witnesses[:1] + witnesses[:-1] + witnesses[-1:]
    at = [0] + [c for _, _, c in witnesses[1:]] + [2 ** (witnesses[-1][0] + 1)]
    corners = [(t, c) if kind == "horizontal" else (c, t) for (_, kind, c), t in zip(on, at)]
    points = corners[:1]
    for a, b in zip(corners, corners[1:]):
        points.extend(_segment(a, b)[1:])

    for p, q in zip(points, points[1:]):
        if abs(p[0] - q[0]) + abs(p[1] - q[1]) != 1:
            raise AssertionError(f"path break between {p} and {q}")
    for p in points:
        if not colouring.white_at(p):
            raise AssertionError(f"path point {p} is not white")
    return StaircaseResult(tuple(witnesses), tuple(points))


# ---------------------------------------------------------------------------
# spanning


def spanning_stats(colouring: Colouring) -> bool:
    """Whether the whole window (typically a 1x1xL column) is white."""
    if colouring.in_lattice is not None:
        raise DomainError("spanning summary needs full-grid windows")
    return bool(colouring.white.all())


# ---------------------------------------------------------------------------
# Monte Carlo estimators.  The residues of a sub-batch of trials are drawn as
# one (trials, primes, dim) array, and an event kernel, called with
# (primes, residues, event), returns every trial's success from the survival
# of white lines alone, without colouring a window: _crossed for the (rect,
# kind) crossings of a 2-D event, _spanning_kernel for a column length.

# Fewest entries of one chunk of trials.  An entry costs about 0.1-0.3 us in
# process (0.12 for a crossing, 0.28 for a staircase, 2-core host), so a chunk
# is about 0.1-0.3 s of work, well above the start and stop of a worker
# process (4-6 ms of wall time for a forked pool of one); a run of one chunk
# starts no pool.
_CHUNK_ENTRIES = 1 << 20


def _white_lines(r_line, r_across, primes, line_lo: int, length: int,
                 across_lo: int, across_len: int) -> np.ndarray:
    """White flags, shape (trials, length), of lines line_lo..line_lo+length-1
    tested across across_lo..across_lo+across_len-1.

    r_line and r_across are the (trials, primes) residues of the coordinate
    that names a line and of the coordinate along it.  Prime p blackens
    line c iff (c - r_line) % p == 0 and (r_across - across_lo) % p < across_len.
    """
    rows = np.arange(len(r_line))[:, None]
    # the first line each prime blackens, or the spare column `length` if
    # none, built in place beside one (trials, primes) scratch array
    first = r_line - line_lo
    first %= primes
    np.minimum(first, length, out=first)
    across = r_across - across_lo
    across %= primes
    first[across >= across_len] = length
    del across
    white = np.ones((len(r_line), length + 1), dtype=bool)
    small = int(np.searchsorted(primes, length))
    for j, p in enumerate(primes[:small].tolist()):
        lines = first[:, j, None] + p * np.arange(-(-length // p))
        white[rows, np.minimum(lines, length)] = False
    # a prime p >= length blackens at most one line
    white[rows, first[:, small:]] = False
    return white[:, :length]


def _line_count(crossings) -> int:
    """Most lines one of the crossings tests: the line budget of a trial."""
    return max(_lines(*c)[2] for c in crossings)


def _crossed(primes, residues, crossings) -> np.ndarray:
    """Every (rect, kind) crossing crossed, as crossing() decides it on a
    window colouring: some line of each rect stays white."""
    hit = np.ones(len(residues), dtype=bool)
    for c in crossings:
        axis, *spans = _lines(*c)
        hit &= _white_lines(residues[..., axis], residues[..., 1 - axis], primes,
                            *spans).any(axis=1)
    return hit


def _box_crossings(n: int, x: int) -> list:
    """Some row 1..n white across the columns 1..x."""
    return [((1, x, 1, n), "horizontal")]


def _spanning_kernel(primes, residues, L: int) -> np.ndarray:
    """The column {0}^2 x [0, L] all white: no prime's coset meets it."""
    r1, r2, r3 = residues[..., 0], residues[..., 1], residues[..., 2]
    return ~((r1 == 0) & (r2 == 0) & (r3 <= L)).any(axis=1)


def _trial_chunk(args):
    """Run trials lo..hi-1, `step` at a time: (successes, index of the first
    success or None)."""
    kernel, event, P, dim, step, master_seed, lo, hi = args
    successes, first = 0, None
    for start in range(lo, hi, step):
        seeds = stream_seeds([master_seed], _TRIAL_TAG, range(start, min(hi, start + step)))[0]
        hit = kernel(*coset_residues(seeds, P, dim), event)
        successes += int(hit.sum())
        if first is None and hit.any():
            first = start + int(hit.argmax())
    return successes, first


def _run_trials(row: tuple[str, int, int], kernel, event, dim: int, lines: int,
                trials: int, P: int, master_seed: int, workers: int,
                window: Window | None = None, window_event=None) -> McStats:
    """The McStats of experiment row = (name, n, x) over all trials; its
    witness is the lowest successful trial's index and event result.

    Trial t always uses seed trial_seed(master_seed, t), so neither the count
    nor the witness depends on the worker count or the chunking.  Workers are
    capped at the cores this process may run on before the trials are cut into
    4 chunks a worker or fewer, of at least _CHUNK_ENTRIES entries; a run too
    small to pay for a worker makes one chunk and runs in this process.  The
    event result is True unless window_event is given: it is then window_event
    of the witness trial's Z2 colouring of window, which must succeed too.
    """
    if workers < 1:
        raise DomainError(f"need workers >= 1, got {workers}")
    if trials < 1:
        raise DomainError(f"need trials >= 1, got {trials}")
    if P < 2:
        raise DomainError(f"need P >= 2, got {P}")
    if lines > SIZE_BUDGET:
        raise DomainError(f"a trial of {lines} lines exceeds the budget of {SIZE_BUDGET}")
    # each trial draws dim residues per prime p <= P and tests at most `lines` lines
    entries = len(primes_up_to(P)) * dim + lines
    step = max(1, _BATCH_ENTRIES // entries)
    workers = min(workers, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                  else os.cpu_count() or 1)
    size = max(math.ceil(trials / (workers * 4)), math.ceil(_CHUNK_ENTRIES / entries))
    chunks = [(kernel, event, P, dim, step, master_seed, lo, min(trials, lo + size))
              for lo in range(0, trials, size)]
    processes = min(workers, len(chunks))
    if processes <= 1:
        results = [_trial_chunk(c) for c in chunks]
    else:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=processes) as pool:
            results = list(pool.map(_trial_chunk, chunks))
    first = min((first for _, first in results if first is not None), default=None)
    witness = None if first is None else (first, True)
    if first is not None and window_event is not None:
        config = sample_coset_config(lattice_from_id("Z2"), P, trial_seed(master_seed, first))
        result = window_event(colour_window(config, window))
        if not result.succeeded:
            raise AssertionError(f"trial {first}: line kernel and window colouring disagree")
        witness = first, result
    return McStats(*row, P, trials, sum(n for n, _ in results), master_seed, witness)


def estimate_crossing(n: int, x: int, trials: int, P: int | None, master_seed: int,
                      workers: int = 1) -> McStats:
    """Monte Carlo estimate of the horizontal crossing probability P(x-by-n).

    P=None means the cutoff max(5, 2x).  The per-trial configs are the ones
    sample_coset_config would produce for seed trial_seed(master_seed, t);
    successes only depend on trial indices, so any worker count gives the
    identical count.
    """
    if n < 1 or x < 1:
        raise DomainError("need n,x >= 1")
    if P is None:
        P = max(5, 2 * x)
    crossings = _box_crossings(n, x)
    return _run_trials(("crossing", n, x), _crossed, crossings, 2, _line_count(crossings),
                       trials, P, master_seed, workers)


def estimate_annulus(k: int, trials: int, P: int, master_seed: int,
                     workers: int = 1) -> McStats:
    """Frequency of the white-circuit event at scale k; the witness is the
    first successful trial's (index, AnnulusResult)."""
    crossings = _annulus_crossings(k)
    window = Window((-k, -k), (2 * k + 1, 2 * k + 1))
    # checked before any trial, so a refusal does not depend on a success
    window.require_budget()
    return _run_trials(("annulus", k, k), _crossed, crossings, 2, _line_count(crossings),
                       trials, P, master_seed, workers, window, lambda col: annulus_event(col, k))


def estimate_staircase(n_max: int, trials: int, P: int, master_seed: int,
                       workers: int = 1) -> McStats:
    """Frequency of all dyadic staircase stages 0..n_max holding at once; the
    witness is the first successful trial's (index, StaircaseResult)."""
    if n_max < 0:
        raise DomainError("n_max >= 0 required")
    # refused before 2^(n_max+1) is computed, which for a huge n_max never ends
    if n_max >= SIZE_BUDGET.bit_length():
        raise DomainError(f"a staircase to stage {n_max} exceeds the budget of {SIZE_BUDGET}")
    side = 2 ** (n_max + 1)
    window = Window((0, 0), (side + 1, side + 1))
    window.require_budget()
    crossings = _staircase_crossings(0, n_max)
    return _run_trials(("staircase", side, side), _crossed, crossings, 2,
                       _line_count(crossings), trials, P, master_seed, workers, window,
                       lambda col: staircase(col, 0, n_max))


def estimate_spanning(length: int, trials: int, P: int, master_seed: int,
                      workers: int = 1) -> McStats:
    """Frequency of an all-white vertical column {0}^2 x [0, length] in dimension 3."""
    if length < 1:
        raise DomainError("column length >= 1 required")
    return _run_trials(("spanning", length, 1), _spanning_kernel, length, 3, 0, trials, P,
                       master_seed, workers)
