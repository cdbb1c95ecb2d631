"""Percolation events and estimators.

Cluster labels are checked against a breadth-first oracle, the crossing row
shortcut against full window colourings, and the 2x2 estimator against an
exactly computable truncated probability (adjacent rows cannot both be white
because the p=2 coset always covers one parity class).
"""

import itertools
import math
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coprimelab.arith import line_white_trunc, pair_line_trunc, primes_up_to
from coprimelab.colouring import (
    Colouring,
    CosetConfig,
    CosetDraws,
    Window,
    colour_window,
    coset_residues,
    sample_coset_config,
)
from coprimelab.errors import SIZE_BUDGET, DomainError
from coprimelab.lattice import GenSet, standard_lattice
from coprimelab.rng import RNG_ID
from coprimelab.perco import (
    MC_CSV_HEADER,
    McStats,
    annulus_event,
    check_annulus_consequences,
    crossing,
    estimate_annulus,
    estimate_crossing,
    estimate_spanning,
    estimate_staircase,
    label_clusters,
    spanning_stats,
    staircase,
    trial_seed,
    wilson_interval,
)
from coprimelab.perco import (
    _annulus_crossings,
    _box_crossings,
    _crossed,
    _spanning_kernel,
    _staircase_crossings,
    _white_lines,
)

Z2 = standard_lattice("square")[0]
SQUARE = standard_lattice("square")[1]
TRIANGULAR = standard_lattice("triangular")[1]
SPREAD2 = standard_lattice("spread_out", 2, alpha=2)[1]
Z3, SPREAD3 = standard_lattice("spread_out", 3, alpha=2)
D2, D2_MIN = standard_lattice("D", 2)
D3, D3_MIN = standard_lattice("D", 3)

PRIMES_TO_97 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                53, 59, 61, 67, 71, 73, 79, 83, 89, 97)

WILSON_GOLDEN = {
    (8, 10): (0.49016247153664174, 0.94331784854562474),
    (0, 5): (0.0, 0.43448246478317476),
    (5, 5): (0.56551753521682524, 1.0),
    (450, 1000): (0.41941538407429676, 0.48096729177425875),
}


def make_colouring(white_rows):
    """Tiny full-grid colouring from a list of row strings, row 0 at y=0."""
    arr = np.array([[c == "." for c in row] for row in white_rows], dtype=bool)
    h, w = arr.shape
    return Colouring(Window((0, 0), (w, h)), arr, "test fixture", None)


def bfs_labels(mask, S):
    labels = np.full(mask.shape, -1, dtype=np.int64)
    offsets = [tuple(reversed(s)) for s in S]
    nxt = 0
    for idx in np.ndindex(*mask.shape):
        if mask[idx] and labels[idx] < 0:
            stack = [idx]
            labels[idx] = nxt
            while stack:
                cur = stack.pop()
                for off in offsets:
                    nb = tuple(c + o for c, o in zip(cur, off))
                    if (all(0 <= c < n for c, n in zip(nb, mask.shape))
                            and mask[nb] and labels[nb] < 0):
                        labels[nb] = nxt
                        stack.append(nb)
            nxt += 1
    return labels, nxt


@pytest.mark.parametrize(
    "spec,S,window",
    [
        (Z2, SQUARE, Window((-6, -6), (13, 13))),
        (Z2, TRIANGULAR, Window((-6, -6), (13, 13))),
        (Z2, SPREAD2, Window((-6, -6), (13, 13))),
        (Z3, SPREAD3, Window((-4, -3, -5), (9, 7, 8))),
        (D2, SQUARE, Window((-7, -5), (14, 13))),
        (Z2, SPREAD2, Window((-6, -1), (13, 1))),  # offsets reach past the window
    ],
    ids=["square", "triangular", "spread2", "spread3", "D2-square", "spread2-line"],
)
def test_labels_match_bfs_oracle(spec, S, window):
    for seed in range(25):
        config = sample_coset_config(spec, 31, seed)
        col = colour_window(config, window)
        for colour in ("white", "black"):
            got = label_clusters(col, S, colour)
            mask = col.white if colour == "white" else ~col.white
            if col.in_lattice is not None:
                mask = mask & col.in_lattice
            want, n = bfs_labels(mask, S)
            assert got.count == n
            assert np.array_equal(got.labels, want)
            assert got.sizes.sum() == mask.sum()
            assert got.sizes.shape == (n,)


def test_labels_are_first_visit_ordered():
    col = colour_window(sample_coset_config(Z2, 31, 3), Window((0, 0), (15, 15)))
    labels = label_clusters(col, SQUARE).labels.ravel()
    seen = []
    for v in labels:
        if v >= 0 and v not in seen:
            seen.append(int(v))
    assert seen == sorted(seen)


def test_boundary_touches():
    col = colour_window(sample_coset_config(Z2, 31, 5), Window((0, 0), (9, 9)))
    lab = label_clusters(col, SQUARE)
    for c in range(lab.count):
        pts = np.argwhere(lab.labels == c)
        for k in range(2):
            ax = 1 - k
            assert lab.touches[c, k, 0] == bool((pts[:, ax] == 0).any())
            assert lab.touches[c, k, 1] == bool((pts[:, ax] == 8).any())


def test_labels_respect_lattice_mask():
    from coprimelab.colouring import lattice_from_id

    d2 = lattice_from_id("D2")
    col = colour_window(sample_coset_config(d2, 5, 8), Window((-3, -3), (7, 7)))
    lab = label_clusters(col, SQUARE)
    off = ~col.in_lattice
    assert (lab.labels[off] == -1).all()


def test_label_rejects_bad_sets():
    col = colour_window(sample_coset_config(Z2, 7, 1), Window((0, 0), (5, 5)))
    with pytest.raises(DomainError):
        label_clusters(col, GenSet([(1, 0), (0, 1)]))
    with pytest.raises(DomainError):
        label_clusters(col, SQUARE, "grey")


def test_crossing_fixture():
    col = make_colouring([
        "#.#.",
        "....",
        "##..",
        "....",
    ])
    assert crossing(col, (0, 3, 0, 3), "horizontal") == 1
    assert crossing(col, (0, 3, 0, 3), "vertical") == 3
    assert crossing(col, (2, 3, 0, 2), "horizontal") == 1
    assert crossing(col, (0, 1, 0, 2), "vertical") is None


def test_crossing_rect_validation():
    col = make_colouring(["..", ".."])
    with pytest.raises(DomainError):
        crossing(col, (0, 2, 0, 1))
    with pytest.raises(DomainError):
        crossing(col, (1, 0, 0, 1))
    with pytest.raises(DomainError):
        crossing(col, (0, 1, 0, 1), "diagonal")


def test_annulus_fixture_and_validation():
    all_white = Colouring(Window((-3, -3), (7, 7)), np.ones((7, 7), bool),
                          "test fixture", None)
    res = annulus_event(all_white, 3)
    assert res.occurred
    assert res.left_column == -3 and res.right_column == 1
    assert res.bottom_row == -3 and res.top_row == 1
    assert len(res.witness_lines()) == 4
    with pytest.raises(DomainError):
        annulus_event(all_white, 4)
    dark = Colouring(Window((-3, -3), (7, 7)), np.zeros((7, 7), bool),
                     "test fixture", None)
    assert not annulus_event(dark, 3).occurred


def test_staircase_fixture():
    side = 2**4 + 1
    all_white = Colouring(Window((0, 0), (side, side)), np.ones((side, side), bool),
                          "test fixture", None)
    res = staircase(all_white, 0, 3)
    assert res.succeeded
    assert [w[0] for w in res.witnesses] == [0, 1, 2, 3]
    assert res.path[0] == (0, 0)
    assert res.path[-1] == (0, 16)  # stage 3 is vertical, reaching y=2^4
    steps = set()
    for a, b in zip(res.path, res.path[1:]):
        steps.add((b[0] - a[0], b[1] - a[1]))
        assert abs(b[0] - a[0]) + abs(b[1] - a[1]) == 1
    assert steps <= {(1, 0), (-1, 0), (0, 1), (0, -1)}


def test_staircase_blocked_stage():
    side = 9
    arr = np.ones((side, side), dtype=bool)
    arr[:3, :] = False  # rows y=0..2 all black kill the first two stages
    col = Colouring(Window((0, 0), (side, side)), arr, "test fixture", None)
    res = staircase(col, 0, 2)
    assert not res.succeeded and res.path is None
    assert res.witnesses == ()


def test_row_shortcut_equals_full_window():
    # the kernel draws group by group from the estimator's CosetDraws
    seeds = [trial_seed(999, t) for t in range(120)]
    draws = CosetDraws(seeds, 53, 2)
    for seed, fast in zip(seeds, _crossed(draws.primes, draws, _box_crossings(17, 23)).tolist()):
        config = sample_coset_config(Z2, 53, seed)
        col = colour_window(config, Window((1, 1), (23, 17)))
        assert fast == (crossing(col, (1, 23, 1, 17), "horizontal") is not None)


# Each kernel against its event on full window colourings.  P = 31 puts
# primes both below and above the line counts (7 lines per annulus strip,
# 2 to 9 per staircase stage), so both branches of the line test run.
_KERNEL_CASES = {
    "annulus": (_crossed, _annulus_crossings(9), 31, "square", Window((-9, -9), (19, 19)),
                lambda col: annulus_event(col, 9).occurred),
    "staircase": (_crossed, _staircase_crossings(0, 3), 31, "square", Window((0, 0), (17, 17)),
                  lambda col: staircase(col, 0, 3).succeeded),
    "spanning": (_spanning_kernel, 12, 31, "spread3", Window((0, 0, 0), (1, 1, 13)),
                 spanning_stats),
}


@pytest.mark.parametrize("case", sorted(_KERNEL_CASES))
def test_line_kernels_equal_full_window_events(case):
    kernel, arg, P, lattice, window, event = _KERNEL_CASES[case]
    spec = Z2 if lattice == "square" else Z3
    seeds = [trial_seed(31337, t) for t in range(120)]
    draws = CosetDraws(seeds, P, spec.dim)
    got = kernel(draws.primes, draws, arg)
    want = [event(colour_window(sample_coset_config(spec, P, s), window)) for s in seeds]
    assert got.tolist() == want
    assert 0 < sum(want) < len(want)  # both outcomes are exercised


@pytest.mark.parametrize("entries", [1, 100])
def test_estimates_do_not_depend_on_the_batch_budget(monkeypatch, entries):
    from coprimelab import perco

    def run():
        return [estimate_crossing(12, 10, 40, 31, 3), estimate_annulus(9, 40, 31, 3),
                estimate_staircase(2, 40, 31, 3), estimate_spanning(8, 40, 31, 3)]

    whole = run()
    monkeypatch.setattr(perco, "_BATCH_ENTRIES", entries)
    batched = run()
    assert batched == whole
    assert [s.witness for s in batched] == [s.witness for s in whole]
    assert all(s.witness is not None for s in whole)


def test_monte_carlo_memory_is_flat_in_trials(memory_contract):
    # trials are drawn and tested in sub-batches of about _BATCH_ENTRIES
    # entries, so ten times the trials peak no higher; a sub-batch draws one
    # prime group at a time, so its residues are a group's, not every prime's
    memory_contract(0, 0.5 * 2**20, {t: partial(estimate_crossing, 128, 256, t, 512, 0)
                                     for t in (200, 2000)})
    memory_contract(0, 0.5 * 2**20, {t: partial(estimate_spanning, 1000, t, 997, 0)
                                     for t in (200, 2000)})
    memory_contract(0, 0.625 * 2**20, {t: partial(estimate_annulus, 27, t, 997, 0)
                                       for t in (200, 2000)})
    memory_contract(0, 0.3125 * 2**20, {t: partial(estimate_staircase, 6, t, 997, 0)
                                        for t in (200, 2000)})
    # every trial of the workload's annulus stays live to the last group: the
    # keys of a group are hashed about one trial's worth (pi(P)) of digests at
    # a time, not a whole group's for every live trial (1.66 MiB)
    memory_contract(0, 0.625 * 2**20, {t: partial(estimate_annulus, 243, t, 997, 0)
                                       for t in (200, 400)})
    # a sub-batch draws in place: per lane (trial x prime) its state, its dim
    # int64 residues and one draw with its scratch, at most 64 bytes
    lanes = len(primes_up_to(997))
    for dim in (1, 2, 3):
        memory_contract(64, 0, {t * lanes: partial(coset_residues, range(t), 997, dim)
                                for t in (70, 140)})


# Groupings of the primes other than _groups' dyadic one
_GROUPINGS = {
    "one prime a group": lambda primes: [slice(j, j + 1) for j in range(len(primes))],
    "one group": lambda primes: [slice(0, len(primes))],
}


@pytest.mark.parametrize("grouping", sorted(_GROUPINGS))
def test_estimates_do_not_depend_on_the_prime_grouping(monkeypatch, grouping):
    from coprimelab import perco

    def run():
        return [estimate_crossing(6, 10, 60, 97, 3), estimate_annulus(9, 60, 97, 3),
                estimate_staircase(3, 60, 97, 3), estimate_spanning(40, 60, 97, 3)]

    dyadic = run()
    monkeypatch.setattr(perco, "_groups", _GROUPINGS[grouping])
    regrouped = run()
    assert regrouped == dyadic
    assert [s.witness for s in regrouped] == [s.witness for s in dyadic]
    assert all(s.witness is not None for s in dyadic)
    assert all(0 < s.successes < s.trials for s in dyadic)


def test_settled_trials_stop_drawing(monkeypatch):
    # a trial leaves once its event is decided and hashes no key of a later
    # prime group.  The counts of coset keys are exact (the staircase's holds
    # its witness config's 25); drawing every trial to the end would take
    # trials x pi(P) = 5000.  Every trial of the 64 x 64 crossing succeeds, so
    # only settling a success before the last group ({97}) keeps it below
    from coprimelab import colouring

    fill = colouring.fill_stream_seeds
    keys = []

    def counted(out, *args):
        keys.append(out.size)
        return fill(out, *args)

    monkeypatch.setattr(colouring, "fill_stream_seeds", counted)
    runs = {"staircase": (partial(estimate_staircase, 3, 200, 97, 5), 1655),
            "spanning": (partial(estimate_spanning, 40, 200, 97, 5), 2920),
            "crossing": (partial(estimate_crossing, 4, 16, 200, 97, 5), 3430),
            "wide crossing": (partial(estimate_crossing, 64, 64, 200, 97, 5), 4800)}
    counts = {}
    for name, (run, _) in runs.items():
        keys.clear()
        assert run().witness is not None
        counts[name] = sum(keys)
    assert counts == {name: pinned for name, (_, pinned) in runs.items()}
    assert all(n < 200 * len(primes_up_to(97)) for n in counts.values())


def test_two_by_two_crossing_has_exact_truncated_probability():
    # the p=2 coset blackens one full row parity, so the two events are
    # disjoint and P(crossing) = 2 * prod_{p <= P} (1 - min(p,2)/p^2)
    expect = 2 * Fraction(1)
    for p in PRIMES_TO_97:
        expect *= Fraction(p * p - min(p, 2), p * p)
    stats = estimate_crossing(2, 2, 30000, 97, 20260819)
    lo, hi = stats.ci
    assert lo <= float(expect) <= hi


def test_spanning_estimate_matches_analytic_value():
    stats = estimate_spanning(50, 3000, 97, 123)
    expect = 1.0
    for p in PRIMES_TO_97:
        hit = Fraction(1, p * p) if p <= 51 else Fraction(51, p) / (p * p)
        expect *= 1 - float(hit)
    lo, hi = stats.ci
    assert lo <= expect <= hi


def test_spanning_stats_rejects_masked_windows():
    from coprimelab.colouring import lattice_from_id

    d2 = lattice_from_id("D2")
    col = colour_window(sample_coset_config(d2, 5, 8), Window((0, 0), (4, 4)))
    with pytest.raises(DomainError):
        spanning_stats(col)


def test_worker_count_does_not_change_counts():
    one = estimate_crossing(16, 16, 600, 67, 4242, workers=1)
    three = estimate_crossing(16, 16, 600, 67, 4242, workers=3)
    assert one.successes == three.successes
    a1 = estimate_annulus(9, 60, 67, 7, workers=1)
    a3 = estimate_annulus(9, 60, 67, 7, workers=3)
    assert a1.successes == a3.successes


class _SerialPool:
    """Stands in for ProcessPoolExecutor: it maps in this process, so no
    process starts whatever the requested count, and lists each pool's size
    in `sizes`."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


def test_worker_processes_never_exceed_cores(monkeypatch):
    import concurrent.futures
    import os

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(_SerialPool, "sizes", [])
    many = estimate_crossing(8, 8, 40, 23, 99, workers=10**6)
    assert all(n <= (os.cpu_count() or 1) for n in _SerialPool.sizes)
    assert many == estimate_crossing(8, 8, 40, 23, 99, workers=1)


def test_workers_are_capped_at_the_cores_before_chunking(monkeypatch, memory_contract):
    # 10^10 trials in at most 4 chunks a core: the chunk list no longer
    # grows with the requested count (11.8 MiB at 10^6 when cut for it)
    import concurrent.futures

    from coprimelab import perco

    monkeypatch.setattr(perco, "_trial_chunk", lambda chunk: (0, None))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)
    memory_contract(0, 2**20, {w: partial(estimate_crossing, 1, 1, 10**10, 5, 0, workers=w)
                               for w in (2, 10**4, 10**6)})


def _no_pool(*args, **kwargs):
    raise AssertionError("a process pool started")


def test_a_run_too_small_for_a_worker_starts_no_pool(monkeypatch):
    # 1000 trials of 172 * 2 + 512 entries each: one chunk, run in this process
    import concurrent.futures

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _no_pool)
    stats = estimate_crossing(512, 512, 1000, 1024, 0, workers=2)
    assert stats.trials == 1000 and stats.witness is not None


def test_workers_are_capped_at_the_cores_this_process_may_use(monkeypatch):
    import concurrent.futures
    import os

    from coprimelab import perco

    monkeypatch.setattr(perco, "_CHUNK_ENTRIES", 1)
    serial = estimate_crossing(8, 8, 40, 23, 99, workers=1)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _no_pool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert estimate_crossing(8, 8, 40, 23, 99, workers=2) == serial


def test_worker_pool_gives_the_serial_counts_and_witnesses(monkeypatch):
    # one-entry chunks, so every run splits into 4 chunks a worker (workers
    # capped at the cores) and any worker count above 1 goes through a real
    # pool (on a host with 2 or more cores)
    import concurrent.futures
    import os

    from coprimelab import perco

    started = []

    class CountedPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(perco, "_CHUNK_ENTRIES", 1)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountedPool)
    runs = {}
    for workers in (1, 2, 3):
        runs[workers] = [estimate_crossing(16, 16, 120, 67, 4242, workers=workers),
                         estimate_annulus(9, 60, 97, 7, workers=workers),
                         estimate_staircase(3, 48, 97, 7, workers=workers),
                         estimate_spanning(40, 200, 31, 5, workers=workers)]
    assert all(stats.witness is not None for stats in runs[1])
    for workers in (2, 3):
        for one, many in zip(runs[1], runs[workers]):
            assert (many.successes, many.witness) == (one.successes, one.witness)
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert len(started) == (8 if cores >= 2 else 0)


@pytest.mark.parametrize("workers", [1, 3])
def test_estimators_return_first_success_as_witness(workers):
    # reference: a serial scan over the trials for the first success
    def first_success(trials, window, event, succeeded):
        for t in range(trials):
            config = sample_coset_config(Z2, 97, trial_seed(7, t))
            result = event(colour_window(config, window))
            if succeeded(result):
                return t, result
        return None

    annulus = estimate_annulus(9, 60, 97, 7, workers=workers)
    expect = first_success(60, Window((-9, -9), (19, 19)),
                           lambda col: annulus_event(col, 9), lambda r: r.occurred)
    assert expect is not None and annulus.witness == expect
    stairs = estimate_staircase(3, 48, 97, 7, workers=workers)
    expect = first_success(48, Window((0, 0), (17, 17)),
                           lambda col: staircase(col, 0, 3), lambda r: r.succeeded)
    assert expect is not None and stairs.witness == expect
    # the witness is no part of the experiment's identity or its CSV row
    bare = McStats("staircase", 16, 16, 97, 48, stairs.successes, 7)
    assert stairs == bare and stairs.csv_row() == bare.csv_row()


def test_witness_window_must_agree_with_the_line_kernel(monkeypatch):
    # a line kernel that calls every trial a success is caught on the first
    # trial, whose window holds no white circuit
    from coprimelab import perco

    config = sample_coset_config(Z2, 97, trial_seed(1, 0))
    assert not annulus_event(colour_window(config, Window((-9, -9), (19, 19))), 9).occurred
    monkeypatch.setattr(perco, "_crossed", lambda primes, residues, crossings:
                        np.ones(len(residues), dtype=bool))
    with pytest.raises(AssertionError, match="trial 0: line kernel and window colouring"):
        estimate_annulus(9, 4, 97, 1)


def test_rotation_symmetry_within_ci():
    # a quarter turn swaps the roles of the axes without changing the law
    horizontal = estimate_crossing(12, 24, 4000, 59, 31)
    spec = Z2
    successes = 0
    trials = 4000
    for t in range(trials):
        config = sample_coset_config(spec, 59, trial_seed(77, t))
        col = colour_window(config, Window((1, 1), (12, 24)))
        successes += crossing(col, (1, 12, 1, 24), "vertical") is not None
    lo_h, hi_h = horizontal.ci
    lo_v, hi_v = wilson_interval(successes, trials)
    assert lo_h <= hi_v and lo_v <= hi_h


def test_annulus_consequences_on_positive_samples():
    hits = 0
    for t in range(60):
        config = sample_coset_config(Z2, 199, trial_seed(77, t))
        col = colour_window(config, Window((-27, -27), (55, 55)))
        if annulus_event(col, 27).occurred:
            check_annulus_consequences(col, 27)
            hits += 1
    assert hits > 0


def test_wilson_golden_values():
    for (s, n), (lo, hi) in WILSON_GOLDEN.items():
        got = wilson_interval(s, n)
        assert got[0] == pytest.approx(lo, rel=1e-12, abs=1e-15)
        assert got[1] == pytest.approx(hi, rel=1e-12, abs=1e-15)
    with pytest.raises(DomainError):
        wilson_interval(5, 4)


def test_mcstats_csv_row():
    stats = McStats("crossing", 32, 32, 97, 2000, 1999, 4242)
    assert MC_CSV_HEADER == "experiment,n,x,P,trials,successes,estimate,ci_lo,ci_hi,seed"
    row = stats.csv_row()
    fields = row.split(",")
    assert fields[0] == "crossing"
    assert fields[1:6] == ["32", "32", "97", "2000", "1999"]
    assert fields[6] == "0.9995"
    assert fields[9] == "4242"
    assert stats.estimate == 1999 / 2000
    assert 0 < stats.std_error < 0.01


def test_estimator_input_validation():
    with pytest.raises(DomainError):
        estimate_crossing(0, 4, 10, 97, 1)
    with pytest.raises(DomainError):
        estimate_annulus(10, 10, 97, 1)
    with pytest.raises(DomainError):
        estimate_staircase(-1, 10, 97, 1)
    with pytest.raises(DomainError):
        estimate_spanning(0, 10, 97, 1)


def test_label_clusters_checks_the_window_budget(cheap_refusal):
    huge = Window((0, 0), (100_000, 100_000))
    # a broadcast view: the colouring's bits take no memory
    col = Colouring(huge, np.broadcast_to(np.True_, huge.array_shape()), "test", None)
    cheap_refusal("exceeds the budget", *(partial(label_clusters, col, SQUARE, colour)
                                          for colour in ("white", "black")))


# ---------------------------------------------------------------------------
# labelling kernel: long paths, degenerate windows, random generating sets


def mask_colouring(mask):
    h, w = mask.shape
    return Colouring(Window((0, 0), (w, h)), mask, "test fixture", None)


def serpentine_mask(n):
    """Even rows full, joined at alternating ends: the path runs against the
    raster order on every other row."""
    mask = np.zeros((n, n), dtype=bool)
    mask[::2] = True
    for r in range(1, n, 2):
        mask[r, -1 if r % 4 == 1 else 0] = True
    return mask


def spiral_mask(n):
    """A clockwise spiral path from the corner inwards: a step is taken only
    onto a cell whose other neighbours are all off, so arms stay apart."""
    mask = np.zeros((n, n), dtype=bool)
    y = x = dy = 0
    dx = 1
    mask[0, 0] = True
    turns = 0
    while turns < 2:
        ny, nx = y + dy, x + dx
        near = [(ny + a, nx + b) for a, b in ((1, 0), (-1, 0), (0, 1), (0, -1))]
        if 0 <= ny < n and 0 <= nx < n and not any(
                mask[c] for c in near if c != (y, x) and 0 <= c[0] < n and 0 <= c[1] < n):
            y, x, turns = ny, nx, 0
            mask[y, x] = True
        else:
            dy, dx, turns = dx, -dy, turns + 1
    return mask


@pytest.mark.parametrize("S", [SQUARE, SPREAD2], ids=["square", "spread2"])
@pytest.mark.parametrize("make", [serpentine_mask, spiral_mask], ids=["serpentine", "spiral"])
def test_labels_follow_paths_against_raster_order(make, S):
    mask = make(64)
    if S is SQUARE:  # a simple path: every point but the two ends has two neighbours
        right = np.zeros_like(mask)
        right[:, :-1] = mask[:, :-1] & mask[:, 1:]
        up = np.zeros_like(mask)
        up[:-1] = mask[:-1] & mask[1:]
        degree = right.astype(int) + up
        degree[:, 1:] += right[:, :-1]
        degree[1:] += up[:-1]
        assert np.bincount(degree[mask]).tolist() == [0, 2, mask.sum() - 2]
    lab = label_clusters(mask_colouring(mask), S)
    want, n = bfs_labels(mask, S)
    assert n == 1 and lab.count == 1
    assert np.array_equal(lab.labels, want)
    assert lab.sizes.tolist() == [mask.sum()]
    assert lab.touches.all()


def test_labels_of_a_one_colour_window():
    col = mask_colouring(np.ones((7, 9), dtype=bool))
    black = label_clusters(col, SQUARE, "black")
    assert black.count == 0
    assert (black.labels == -1).all()
    assert black.sizes.shape == (0,)
    assert black.touches.shape == (0, 2, 2)
    assert black.boundary_components().shape == (0,)
    white = label_clusters(col, SPREAD2, "white")
    assert white.count == 1
    assert (white.labels == 0).all()
    assert white.sizes.tolist() == [63]
    assert white.touches.shape == (1, 2, 2) and white.touches.all()


_HALF_OFFSETS = [(x, y) for x in range(-2, 3) for y in range(-2, 3) if (x, y) > (0, 0)]


@settings(max_examples=150, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 9), st.integers(1, 9)),
    cells=st.lists(st.booleans(), min_size=81, max_size=81),
    half=st.sets(st.sampled_from(_HALF_OFFSETS), min_size=1),
)
def test_labels_match_bfs_oracle_on_random_generating_sets(shape, cells, half):
    mask = np.array(cells[: shape[0] * shape[1]]).reshape(shape)
    S = GenSet([v for s in half for v in (s, (-s[0], -s[1]))])
    col = mask_colouring(mask)
    for colour, m in (("white", mask), ("black", ~mask)):
        lab = label_clusters(col, S, colour)
        want, n = bfs_labels(m, S)
        assert lab.count == n
        assert np.array_equal(lab.labels, want)
        assert lab.sizes.tolist() == [int((want == c).sum()) for c in range(n)]
        for c in range(n):
            pts = np.argwhere(want == c)
            for k, ax in ((0, 1), (1, 0)):
                assert lab.touches[c, k, 0] == bool((pts[:, ax] == 0).any())
                assert lab.touches[c, k, 1] == bool((pts[:, ax] == shape[ax] - 1).any())


# each window's outer array extent is no multiple of the slab's rows at some budget
@pytest.mark.parametrize(
    "spec,S,window",
    [
        (Z2, SQUARE, Window((-6, -5), (13, 11))),
        (Z2, SPREAD2, Window((-2, -9), (3, 19))),
        (Z2, TRIANGULAR, Window((-6, -5), (13, 11))),
        (D2, TRIANGULAR, Window((-7, -5), (14, 13))),
        (D3, D3_MIN, Window((-3, -2, -4), (5, 4, 7))),
    ],
    ids=["square", "spread2", "triangular", "D2-triangular", "D3"],
)
def test_labels_do_not_depend_on_the_batch_budget(monkeypatch, spec, S, window):
    from coprimelab import perco

    cols = [colour_window(sample_coset_config(spec, 31, seed), window) for seed in range(6)]
    whole = [label_clusters(col, S, colour) for col in cols for colour in ("white", "black")]
    for entries in (1, 7, 64):
        monkeypatch.setattr(perco, "_BATCH_ENTRIES", entries)
        batched = [label_clusters(col, S, colour) for col in cols for colour in ("white", "black")]
        for got, want in zip(batched, whole):
            assert np.array_equal(got.labels, want.labels)
            assert got.count == want.count
            assert np.array_equal(got.sizes, want.sizes)
            assert np.array_equal(got.touches, want.touches)


@pytest.mark.parametrize("S", [SQUARE, SPREAD2], ids=["square", "spread2"])
@pytest.mark.parametrize("colour", ["white", "black"])
def test_label_clusters_memory_stays_near_the_label_grid(memory_contract, S, colour):
    # the int32 labels, which are the union-find forest, take 4 bytes a
    # position, the colour's mask 1 and the blocks, sizes and touches about
    # 1-2; an int64 forest, or a grid-sized int32 temporary, would pass the
    # bound
    config = sample_coset_config(Z2, 997, 0)
    memory_contract(7, 1.5 * 2**20, {n * n: partial(
        label_clusters, colour_window(config, Window((0, 0), (n, n))), S, colour)
        for n in (512, 1024)})
    # a line has about 0.33-0.47 components a point, and each takes 8 bytes
    # of sizes and 4 of touches; its rows and faces are cut into blocks too
    memory_contract(11, 1.5 * 2**20, {e[0] * e[1]: partial(
        label_clusters, colour_window(config, Window((0, 0), e)), S, colour)
        for e in ((2**18, 1), (1, 2**20))})


def test_white_labels_take_no_copy_of_the_mask(memory_contract):
    # white lies inside in_lattice, so only black is re-masked: the int32
    # forest takes 4 bytes a position, and a copy of the window's mask (1 more)
    # would pass the bound
    col = colour_window(sample_coset_config(D2, 97, 0), Window((0, 0), (512, 512)))
    memory_contract(4, 2**20, {512 * 512: partial(label_clusters, col, D2_MIN, "white")})


def test_label_ids_are_int32_under_the_window_budget():
    # every raster position and -1 fit int32 only while the budget does
    assert SIZE_BUDGET <= np.iinfo(np.int32).max
    col = colour_window(sample_coset_config(Z2, 7, 0), Window((0, 0), (5, 4)))
    assert label_clusters(col, SQUARE).labels.dtype == np.int32


# ---------------------------------------------------------------------------
# exhaustive small-P oracle: every residue configuration, exact fractions


def all_residues(P, dim=2):
    """(primes, residues) for every configuration of one coset per prime p <= P:
    residues has shape (prod p^dim, primes, dim)."""
    primes = np.array(primes_up_to(P).primes, dtype=np.int64)
    picks = np.meshgrid(*[np.arange(p**dim) for p in primes.tolist()], indexing="ij")
    flat = np.stack(picks, axis=-1).reshape(-1, len(primes))
    return primes, np.stack([flat // primes**k % primes for k in range(dim)], axis=-1)


@pytest.mark.parametrize("P", [2, 3, 5, 7])
def test_line_kernels_match_exact_products_over_every_configuration(P):
    primes, residues = all_residues(P)
    configs = int(np.prod(primes**2))
    assert len(residues) == configs  # 44,100 at P = 7
    assert len(np.unique(residues.reshape(configs, -1), axis=0)) == configs
    for x in (1, 2, 3, 4, 6, 9):
        one_row = _crossed(primes, residues, _box_crossings(1, x))
        assert Fraction(int(one_row.sum()), configs) == line_white_trunc(x, P)
        for d in range(1, x + 1):
            rows = _white_lines(residues[..., 1], residues[..., 0], primes, 1, d + 1, 1, x,
                                np.ones((configs, d + 2), dtype=bool))
            both = rows[:, 0] & rows[:, d]
            assert Fraction(int(both.sum()), configs) == pair_line_trunc(d, x, P)


@pytest.mark.parametrize("P", [5, 7])
@pytest.mark.parametrize("n,x", [(6, 8), (4, 3)])
def test_second_moment_matches_exact_products_over_every_configuration(P, n, x):
    # the finite identity behind second_moment_bound: N counts the white rows
    # 1..n across columns 1..x, and E[N^2] splits into single rows and pairs
    primes, residues = all_residues(P)
    rows = _white_lines(residues[..., 1], residues[..., 0], primes, 1, n, 1, x,
                        np.ones((len(residues), n + 1), dtype=bool))
    # the flags are blackened in place whatever their memory layout
    column_major = np.ones((len(residues), n + 1), dtype=bool, order="F")
    _white_lines(residues[..., 1], residues[..., 0], primes, 1, n, 1, x, column_major)
    assert (column_major[:, :n] == rows).all()
    N = rows.sum(axis=1, dtype=np.int64)
    moment = Fraction(int((N * N).sum()), len(rows))
    assert moment == n * line_white_trunc(x, P) + sum(
        2 * (n - d) * pair_line_trunc(d, x, P) for d in range(1, n))


def exact_crossing(n, x, P, one=1.0):
    """P(some row 1..n is white across the columns 1..x) at cutoff P, by
    inclusion-exclusion over the row sets T: prime p leaves every row of T
    white with probability 1 - |T mod p| min(x, p) / p^2, independently of
    the other primes.  one = Fraction(1) makes it exact."""
    primes = primes_up_to(P).primes

    def factor(p, classes):
        return 1 - classes * min(x, p) * one / (p * p)

    # rows 1..n fall in distinct classes mod any p >= n, so |T mod p| = |T|
    large = [math.prod(factor(p, k) for p in primes if p >= n) for k in range(n + 1)]
    none_white = 0
    for k in range(n + 1):
        for T in itertools.combinations(range(1, n + 1), k):
            small = math.prod(factor(p, len({r % p for r in T})) for p in primes if p < n)
            none_white += (-1) ** k * large[k] * small
    return 1 - none_white


@pytest.mark.parametrize("P", [5, 7])
@pytest.mark.parametrize("n,x", [(6, 8), (4, 3)])
def test_exact_crossing_oracle_counts_every_configuration(P, n, x):
    primes, residues = all_residues(P)
    crossed = _crossed(primes, residues, _box_crossings(n, x))
    assert Fraction(int(crossed.sum()), len(crossed)) == exact_crossing(n, x, P, Fraction(1))


@pytest.mark.parametrize("n,x,P,value", [
    (6, 16, 31, 0.76182), (10, 64, 127, 0.79426), (12, 256, 512, 0.75041)])
def test_estimate_crossing_meets_the_exact_oracle_at_real_cutoffs(n, x, P, value):
    # a bound of 4 standard errors, fixed before any run; seed 0 gives
    # z = +1.52, +0.75 and +0.83
    exact = exact_crossing(n, x, P)
    assert round(exact, 5) == value
    stats = estimate_crossing(n, x, 10_000, P, 0)
    z = (stats.successes / stats.trials - exact) / math.sqrt(exact * (1 - exact) / stats.trials)
    assert abs(z) < 4, z


# Each kernel against its event on every configuration at P = 5: 900 in 2-D,
# 27,000 in 3-D.  At P = 5 the annulus at k = 9 always occurs (any 7
# consecutive lines miss the chosen classes of 2, 3 and 5), so it runs at k = 3.
_EXHAUSTIVE_CASES = {
    "crossing": (_crossed, _box_crossings(3, 4), Window((1, 1), (4, 3)),
                 lambda col: crossing(col, (1, 4, 1, 3), "horizontal") is not None),
    # columns shorter than P, which no estimator's event has at P = 5
    "columns": (_crossed, [((1, 3, 1, 4), "vertical")], Window((1, 1), (3, 4)),
                lambda col: crossing(col, (1, 3, 1, 4), "vertical") is not None),
    "annulus": (_crossed, _annulus_crossings(3), Window((-3, -3), (7, 7)),
                lambda col: annulus_event(col, 3).occurred),
    "staircase": (_crossed, _staircase_crossings(0, 3), Window((0, 0), (17, 17)),
                  lambda col: staircase(col, 0, 3).succeeded),
    "spanning": (_spanning_kernel, 6, Window((0, 0, 0), (1, 1, 7)),
                 spanning_stats),
}


@pytest.mark.parametrize("case", sorted(_EXHAUSTIVE_CASES))
def test_line_kernels_equal_window_events_on_every_configuration(monkeypatch, case):
    from coprimelab import perco

    kernel, arg, window, event = _EXHAUSTIVE_CASES[case]
    spec = Z2 if window.dim == 2 else Z3
    primes, residues = all_residues(5, window.dim)
    calls = []

    def spy(r_line, r_across, primes, line_lo, length, *along):
        calls.append((length, primes.min()))
        return _white_lines(r_line, r_across, primes, line_lo, length, *along)

    monkeypatch.setattr(perco, "_white_lines", spy)
    got = kernel(primes, residues, arg).tolist()
    want = []
    for picks in residues.tolist():
        reps = dict(zip(primes.tolist(), map(tuple, picks)))
        config = CosetConfig(spec.name, 5, 0, RNG_ID, reps)
        want.append(event(colour_window(config, window)))
    assert got == want
    assert 0 < sum(want) < len(want)  # both outcomes are exercised
    for grouping in _GROUPINGS.values():  # and decided alike however the primes are grouped
        with monkeypatch.context() as regrouped:
            regrouped.setattr(perco, "_groups", grouping)
            assert kernel(primes, residues, arg).tolist() == want
    if window.dim == 2:
        # both branches of _white_lines: a group with a prime below the line
        # count steps through its lines, and one whose primes are all at or
        # above it blackens at most one line a prime
        assert any(n > p for n, p in calls)
        assert any(n <= p for n, p in calls)
