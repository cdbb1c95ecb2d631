"""Colouring semantics against per-point brute force.

The module paints windows with slice arithmetic; every test here recomputes
the expected colour point by point from the residue definition, or from gcd
in the oracle case.
"""

import itertools
import math
import random
import tempfile
import time
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from coprimelab.arith import primes_up_to
from coprimelab.colouring import (
    Colouring,
    CosetConfig,
    Window,
    colour_window,
    coset_residues,
    coset_slice,
    has_full_white_block,
    infer_cosets,
    lattice_from_id,
    load_colouring,
    load_config,
    oracle_from_origin,
    sample_coset_config,
    save_colouring,
    save_config,
    save_pnm,
    truncation_error_bound,
)
from coprimelab.errors import DomainError, ParseError
from coprimelab.rng import RNG_ID, SplitMix64, stream_seed
from conftest import traced_peak

Z2 = lattice_from_id("Z2")

CONFIG_GOLDEN = """\
coprime-config v1 lattice=Z2 P=7 seed=12345 rng=splitmix64/sha256-streams/v1
2 1 1
3 0 1
5 2 4
7 1 5
"""


def brute_white(config, window):
    """Straight loop over points and primes."""
    d = window.dim
    out = np.ones(window.array_shape(), dtype=bool)
    for idx in np.ndindex(*window.array_shape()):
        point = tuple(window.origin[k] + idx[d - 1 - k] for k in range(d))
        for p, rep in config.reps.items():
            if all((point[k] - rep[k]) % p == 0 for k in range(d)):
                out[idx] = False
                break
    return out


def test_lattice_registry(cheap_refusal):
    assert lattice_from_id("Z3").dim == 3
    assert lattice_from_id("D4").dim == 4
    assert lattice_from_id("Leech").dim == 24
    assert lattice_from_id("triangular").form == "hexagonal"
    with pytest.raises(DomainError):
        lattice_from_id("Q17")
    assert lattice_from_id("Z32").dim == lattice_from_id("D32").dim == 32
    # refused before any basis is built, however large the id; int() refuses
    # strings of more than 4300 digits with a plain ValueError
    ids = ("Z33", "D33", "Z20000", "D" + "9" * 30, "D" + "9" * 4400, "Z" + "1" * 5000)
    cheap_refusal("exceeds the supported maximum 32", *(partial(lattice_from_id, i) for i in ids))


@settings(max_examples=400, deadline=None)
@given(st.one_of(
    st.tuples(st.sampled_from("ZDEQ"), st.text("0123456789\u0662 ", max_size=4)).map("".join),
    st.sampled_from(["E8", "Leech", "triangular", "E08", "LEECH", "square"]),
    st.text(max_size=6),
))
@example("Z02")
@example("D004")
@example("Z\u0662")
def test_every_accepted_lattice_id_is_its_spec_name(lattice_id):
    # one spelling per id: Z02 used to build the spec named Z2
    try:
        spec = lattice_from_id(lattice_id)
    except DomainError:
        return
    assert spec.name == lattice_id


def test_lattice_from_id_is_the_standard_spec_without_minimal_vectors(monkeypatch):
    from coprimelab import lattice, lattice_core

    kinds = {"Z2": ("hypercubic", 2), "Z3": ("hypercubic", 3), "D4": ("D", 4),
             "E8": ("E8", None), "Leech": ("Leech", None),
             "triangular": ("triangular", None)}
    expected = {i: lattice.standard_lattice(kind, d)[0] for i, (kind, d) in kinds.items()}

    def forbidden(spec):
        raise AssertionError(f"minimal vectors of {spec.name} enumerated")

    monkeypatch.setattr(lattice_core, "minimal_vectors", forbidden)
    for lattice_id, spec in expected.items():
        assert lattice_from_id(lattice_id) == spec


def test_window_validation():
    with pytest.raises(DomainError):
        Window((0, 0), (4, 0))
    with pytest.raises(DomainError):
        Window((0, 0, 0), (4, 4))
    w = Window((-2, 3), (4, 5))
    assert w.point_count == 20
    assert w.array_shape() == (5, 4)
    assert w.contains_point((-2, 3)) and w.contains_point((1, 7))
    assert not w.contains_point((2, 3))


def test_sample_config_shapes_and_determinism():
    a = sample_coset_config(Z2, 31, 77)
    b = sample_coset_config(Z2, 31, 77)
    assert a == b
    assert sorted(a.reps) == list(primes_up_to(31).primes)
    for p, rep in a.reps.items():
        assert len(rep) == 2 and all(0 <= r < p for r in rep)
    assert a.rng_id == RNG_ID


def test_reps_do_not_depend_on_cutoff():
    lo = sample_coset_config(Z2, 31, 123)
    hi = sample_coset_config(Z2, 97, 123)
    for p in lo.reps:
        assert lo.reps[p] == hi.reps[p]


def test_rep_uniformity_chi_square():
    counts = np.zeros((5, 5), dtype=np.int64)
    for seed in range(20000):
        r = sample_coset_config(Z2, 5, seed).reps[5]
        counts[r[0], r[1]] += 1
    _, pvalue = stats.chisquare(counts.ravel())
    assert pvalue > 1e-3


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    P=st.sampled_from([2, 3, 7, 31]),
    ox=st.integers(-9, 9),
    oy=st.integers(-9, 9),
    w=st.integers(1, 9),
    h=st.integers(1, 9),
)
def test_colour_window_matches_brute_force(seed, P, ox, oy, w, h):
    config = sample_coset_config(Z2, P, seed)
    window = Window((ox, oy), (w, h))
    col = colour_window(config, window)
    assert np.array_equal(col.white, brute_white(config, window))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), d=st.sampled_from([2, 3]))
def test_no_full_white_block_property(seed, d):
    spec = lattice_from_id(f"Z{d}")
    config = sample_coset_config(spec, 31, seed)
    extents = (16,) * d
    col = colour_window(config, Window((-7,) * d, extents))
    assert not has_full_white_block(col)


def test_white_at_respects_coordinates():
    config = sample_coset_config(Z2, 7, 3)
    window = Window((-5, 2), (11, 8))
    col = colour_window(config, window)
    for point in ((-5, 2), (0, 5), (5, 9)):
        expected = all(
            any((point[k] - rep[k]) % p for k in range(2))
            for p, rep in config.reps.items()
        )
        assert col.white_at(point) == expected


def oracle_matches_gcd(X, window):
    col = oracle_from_origin(X, window)
    for idx in np.ndindex(*window.array_shape()):
        v = [o + i for o, i in zip(window.origin, reversed(idx))]
        assert col.white[idx] == (math.gcd(*(c - x for c, x in zip(v, X))) == 1), (X, v)


def test_oracle_matches_gcd_loop(monkeypatch):
    from coprimelab import colouring

    assert not oracle_from_origin((3, 5), Window((3, 5), (1, 1))).white_at((3, 5))  # gcd 0: black
    # runs of a row, slabs of one outer row, of a few, of the whole window
    for entries in (1, 7, 300, 1 << 16):
        monkeypatch.setattr(colouring, "_BATCH_ENTRIES", entries)
        oracle_matches_gcd((3, 5), Window((-4, -4), (12, 12)))
        oracle_matches_gcd((4,), Window((-300,), (1000,)))  # gcd(0, c) = |c|: c = -1 is white
        oracle_matches_gcd((10**20, 3), Window((-2, 1), (50, 40)))  # Python ints
        oracle_matches_gcd((0, 0), Window((2**62 - 20, -7), (40, 30)))  # straddles 2^62
        oracle_matches_gcd((3, -2, 5), Window((-9, 4, -6), (14, 9, 11)))


@pytest.mark.parametrize("X", [(10**20, 0), (0, -(10**20)), (3, 2**62)])
def test_oracle_far_from_the_window(X):
    # coordinates beyond int64 are taken as Python ints, not wrapped or refused
    oracle_matches_gcd(X, Window((-2, 1), (5, 4)))


@pytest.mark.parametrize("reach,dtype", [
    (127, np.int8), (128, np.int16), (32767, np.int16), (32768, np.int32),
    (2**31 - 1, np.int32), (2**31, np.int64), (2**62 - 1, np.int64), (2**62, object)])
def test_box_coordinates_are_exact_at_each_dtype_step(reach, dtype):
    # a box's coordinates take the smallest signed type that holds its reach,
    # the largest coordinate size in it, and its negation: each pair
    # straddles one step, on the positive and the negative side
    from coprimelab.lattice_core import _walk_box

    d2 = lattice_from_id("D2")
    config = sample_coset_config(d2, 13, 7)
    for window in (Window((reach - 5, -3), (6, 4)), Window((-3, -reach), (4, 6))):
        _, runs = next(_walk_box(window.origin, window.array_shape(), 1 << 16))
        assert runs[0].dtype == dtype
        oracle_matches_gcd((0, 0), window)
        col = colour_window(config, window)
        white, in_lattice = per_point_colouring(d2, config, window)
        assert np.array_equal(col.in_lattice, in_lattice)
        assert np.array_equal(col.white, white)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(-2, 5)), min_size=1, max_size=3),
       st.integers(1, 40))
def test_blocks_tile_their_box_in_c_order(axes, limit):
    from coprimelab.lattice_core import _blocks

    def points(box):
        return list(itertools.product(*(range(s.start, s.stop) for s in box)))

    box = tuple(slice(start, start + n) for start, n in axes)  # n <= 0 is an empty axis
    tiled = []
    for block in _blocks(box, limit):
        assert 0 < len(points(block)) <= limit, block
        tiled += points(block)
    # disjoint, covering and in C order; an empty box yields no block
    assert tiled == points(box)


def test_sublattice_window_membership():
    d2 = lattice_from_id("D2")
    config = sample_coset_config(d2, 5, 11)
    window = Window((-3, -3), (7, 7))
    col = colour_window(config, window)
    assert col.in_lattice is not None
    expected = np.zeros((7, 7), dtype=bool)
    for idx in np.ndindex(7, 7):
        x, y = idx[1] - 3, idx[0] - 3
        expected[idx] = (x + y) % 2 == 0
    assert np.array_equal(col.in_lattice, expected)
    assert int(col.in_lattice.sum()) == 25


def per_point_colouring(spec, config, window):
    """Per-point rule: basis coordinates, then residues mod p.

    Coordinates come from sympy's rational inverse of the basis, scaled to
    an integer matrix once, which shares no code with the bulk rule or its
    adjugate solve; contains_bulk must agree with it.
    """
    import sympy

    from coprimelab.lattice import contains_bulk

    inverse = sympy.Matrix(spec.columns).T.inv()
    denom = math.lcm(*(int(q.q) for q in inverse))
    scaled = [[int(q * denom) for q in inverse.row(i)] for i in range(spec.dim)]
    d = window.dim
    white = np.zeros(window.array_shape(), dtype=bool)
    in_lattice = np.zeros(window.array_shape(), dtype=bool)
    for idx in np.ndindex(*window.array_shape()):
        point = tuple(window.origin[k] + idx[d - 1 - k] for k in range(d))
        numerators = [sum(a * x for a, x in zip(row, point)) for row in scaled]
        inside = all(n % denom == 0 for n in numerators)
        assert contains_bulk(spec, np.array([point], dtype=object))[0] == inside
        if not inside:
            continue
        coeff = [n // denom for n in numerators]
        in_lattice[idx] = True
        white[idx] = not any(
            all((c - r) % p == 0 for c, r in zip(coeff, rep))
            for p, rep in config.reps.items()
        )
    return white, in_lattice


@pytest.mark.parametrize(
    "lattice_id,origin,extents,P,seed",
    [
        ("D3", (-4, -3, -5), (9, 7, 8), 31, 1),
        ("D3", (2, 5, 0), (5, 4, 6), 13, 2),
        ("D4", (-3, -3, -2, -4), (6, 5, 5, 6), 97, 3),
        ("D4", (10, -20, 7, 1), (4, 4, 3, 4), 31, 4),
        ("E8", (-1,) * 8, (3,) * 8, 97, 0),
        ("E8", (-3, -1, -2, -4, -1, -2, -3, -2), (3,) * 8, 31, 2),
        # most coset slices miss the window or hold one point
        ("D2", (-1000, -713), (37, 29), 997, 5),
    ],
)
def test_sublattice_colouring_matches_per_point_rule(lattice_id, origin, extents, P, seed):
    spec = lattice_from_id(lattice_id)
    config = sample_coset_config(spec, P, seed)
    window = Window(origin, extents)
    col = colour_window(config, window)
    white, in_lattice = per_point_colouring(spec, config, window)
    assert np.array_equal(col.in_lattice, in_lattice)
    assert np.array_equal(col.white, white)
    assert not (col.white & ~col.in_lattice).any()  # white lies inside in_lattice
    assert in_lattice.any() and (white & in_lattice).any() and (~white & in_lattice).any()


@pytest.mark.parametrize(
    "lattice_id,X,extents",
    [
        ("E8", (3, -1, 1, 1, 1, 1, 1, -3), (3,) * 8),
        ("Leech", (1, 5) + (1,) * 22, (9,) * 4 + (1,) * 20),
    ],
)
def test_coupled_sublattice_colouring_matches_per_point_rule(lattice_id, X, extents):
    # every prime's representative is X's basis coordinates mod p, so every
    # coset passes through X, while another lattice point v of the window is
    # black only for the primes p with (v - X)/p in the lattice
    from coprimelab.lattice import basis_numerators

    spec = lattice_from_id(lattice_id)
    numerators, det = basis_numerators(spec, np.array([X], dtype=object))
    coords = (numerators // det)[0].tolist()
    config = CosetConfig(lattice_id, 97, 0, RNG_ID,
                         {p: tuple(c % p for c in coords) for p in primes_up_to(97)})
    window = Window(tuple(x - e // 2 for x, e in zip(X, extents)), extents)
    col = colour_window(config, window)
    white, in_lattice = per_point_colouring(spec, config, window)
    assert np.array_equal(col.in_lattice, in_lattice)
    assert np.array_equal(col.white, white)
    assert not (col.white & ~col.in_lattice).any()  # white lies inside in_lattice
    assert not col.white_at(X)
    assert (white & in_lattice).any() and int(in_lattice.sum()) > 8


def test_sublattice_colouring_costs_its_coset_slices():
    # comparing every point with every prime's coset took about 2 s of CPU
    # on a 2-core x86 host, painting the coset slices under 0.01 s
    config = sample_coset_config(lattice_from_id("D2"), 9973, 0)
    start = time.process_time()
    colour_window(config, Window((-150, -150), (301, 301)))
    assert time.process_time() - start < 0.5


@pytest.mark.parametrize("chunk_entries", [1, 7, 40])
def test_sublattice_colouring_is_chunk_independent(monkeypatch, chunk_entries):
    from coprimelab import colouring

    spec = lattice_from_id("D3")
    config = sample_coset_config(spec, 31, 1)
    window = Window((-4, -3, -5), (9, 7, 8))
    whole = colour_window(config, window)
    monkeypatch.setattr(colouring, "_BATCH_ENTRIES", chunk_entries)
    chunked = colour_window(config, window)
    assert np.array_equal(chunked.in_lattice, whole.in_lattice)
    assert np.array_equal(chunked.white, whole.white)


def test_sublattice_colouring_is_exact_beyond_int64():
    d2 = lattice_from_id("D2")
    config = sample_coset_config(d2, 13, 7)
    window = Window((2**70, -(2**66)), (6, 5))
    col = colour_window(config, window)
    white, in_lattice = per_point_colouring(d2, config, window)
    assert np.array_equal(col.in_lattice, in_lattice)
    assert np.array_equal(col.white, white)


def test_triangular_colouring_is_the_z2_colouring():
    window = Window((-9, -4), (23, 17))
    tri = colour_window(sample_coset_config(lattice_from_id("triangular"), 97, 8), window)
    z2 = colour_window(sample_coset_config(Z2, 97, 8), window)
    assert tri.in_lattice is None
    assert np.array_equal(tri.white, z2.white)


def test_infer_recovers_truth():
    config = sample_coset_config(Z2, 97, 4242)
    col = colour_window(config, Window((0, 0), (150, 150)))
    result = infer_cosets(col, 13)
    assert not result.truncation_warning
    for p in (2, 3, 5, 7, 11, 13):
        assert config.reps[p] in result.candidates[p]


def test_infer_warns_beyond_cutoff():
    config = sample_coset_config(Z2, 13, 1)
    col = colour_window(config, Window((0, 0), (60, 60)))
    assert infer_cosets(col, 31).truncation_warning


def test_infer_candidate_tables_take_96_bytes_a_candidate(memory_contract):
    # a candidate is a tuple of two ints in a per-prime list; primes above the
    # window's side leave nearly all p^2 residues as candidates
    col = colour_window(sample_coset_config(Z2, 997, 0), Window((0, 0), (64, 64)))
    calls = {32_232: partial(infer_cosets, col, 100), 157_692: partial(infer_cosets, col, 150)}
    memory_contract(96, 0.25 * 2**20, calls)
    for units, call in calls.items():
        assert sum(map(len, call().candidates.values())) == units


def _infer_by_product(col, p_max):
    """The candidate lists by one slice test per residue, in product order."""
    window = col.window
    return {
        p: [r for r in itertools.product(range(p), repeat=window.dim)
            if not col.white[coset_slice(r, p, window)].any()]
        for p in primes_up_to(p_max)
    }


def test_infer_folds_agree_with_the_product_loop():
    # random 1-3-D windows with negative origins, and primes above the extents
    rng = random.Random(11)
    for trial in range(300):
        d = rng.randint(1, 3)
        window = Window(tuple(rng.randint(-40, 40) for _ in range(d)),
                        tuple(rng.randint(1, 8 if d == 3 else 20) for _ in range(d)))
        density = rng.choice([0.05, 0.3, 0.8])
        white = np.random.default_rng(trial).random(window.array_shape()) < density
        col = Colouring(window, white, "test")
        p_max = rng.randint(2, 13 if d == 3 else 29)
        assert infer_cosets(col, p_max).candidates == _infer_by_product(col, p_max), trial


def test_truncation_error_bound_values():
    from fractions import Fraction

    window = Window((0, 0), (100, 100))
    assert truncation_error_bound(window, 997) == Fraction(10000, 997)
    w3 = Window((0, 0, 0), (10, 10, 10))
    assert truncation_error_bound(w3, 11) == Fraction(500, 121)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_coset_residues_are_the_per_prime_substream_draws(dim):
    seeds = [0, 5, 2**64 - 1, 123456789]
    primes, residues = coset_residues(seeds, 61, dim)
    assert primes.tolist() == list(primes_up_to(61))
    assert residues.dtype == np.int64 and residues.shape == (4, len(primes), dim)
    for t, seed in enumerate(seeds):
        for j, p in enumerate(primes.tolist()):
            stream = SplitMix64(stream_seed(seed, "coset", p))
            assert residues[t, j].tolist() == [stream.below(p) for _ in range(dim)]


def test_config_round_trip_and_golden(tmp_path):
    config = sample_coset_config(Z2, 7, 12345)
    path = tmp_path / "c.txt"
    save_config(config, path)
    assert path.read_text() == CONFIG_GOLDEN
    assert load_config(path) == config


def test_config_round_trip_with_every_prime_below_a_million(tmp_path):
    # sample accepts --P 1000000; the order check compares each prime with the
    # previous line's only, so reading the 78,498 lines back stays linear
    config = sample_coset_config(Z2, 10**6, 0)
    assert len(config.reps) == 78_498
    path = tmp_path / "c.txt"
    save_config(config, path)
    assert load_config(path) == config


@pytest.mark.parametrize(
    "mutation,message",
    [
        (lambda t: t.replace("3 0 1\n", ""), "promises 4"),
        (lambda t: t.replace("3 0 1", "3 3 1"), "residue out of range"),
        (lambda t: t.replace("coprime-config v1", "coprime-config v2"), "header"),
        (lambda t: t + "11 0 0\n", "promises 4"),
        (lambda t: t.replace("5 2 4", "5 2"), "expected 2 residues"),
        (lambda t: t.replace("lattice=Z2", "lattice=Z33"), "dimension 33 exceeds"),
        (lambda t: t.replace("lattice=Z2", "lattice=D33"), "supported maximum 32"),
        (lambda t: t.replace("lattice=Z2", "lattice=D" + "9" * 4400),
         r"line 1: dimension 9+ exceeds"),
        (lambda t: t.replace("lattice=Z2", "lattice=Z02"), "line 1: unknown lattice id 'Z02'"),
        (lambda t: t.replace("seed=12345", "seed=18446744073709551616"),
         "line 1: seed must fit in 64 bits"),
        (lambda t: t.replace("P=7", "P=" + "9" * 5000),
         "line 1: P and seed take at most 20 digits"),
    ],
)
def test_config_parse_errors(tmp_path, mutation, message):
    bad = tmp_path / "bad.txt"
    bad.write_text(mutation(CONFIG_GOLDEN))
    with pytest.raises(ParseError, match=message):
        load_config(bad)


def test_config_parse_error_carries_line_number(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text(CONFIG_GOLDEN.replace("3 0 1", "3 9 1"))
    with pytest.raises(ParseError, match=r"line 3"):
        load_config(bad)


def test_config_read_failures_are_parse_errors(tmp_path):
    with pytest.raises(ParseError, match="cannot read"):
        load_config(tmp_path / "missing.txt")
    bad = tmp_path / "bad.txt"
    bad.write_bytes(CONFIG_GOLDEN.encode().replace(b"2 1 1", b"2 1 \xff"))
    with pytest.raises(ParseError, match="not UTF-8"):
        load_config(bad)


def test_pgm_round_trip(tmp_path):
    config = sample_coset_config(Z2, 31, 9)
    col = colour_window(config, Window((-3, 4), (20, 15)))
    path = tmp_path / "w.pgm"
    save_colouring(col, path)
    data = path.read_bytes()
    assert data.startswith(b"P5\n# origin=-3 4\n# extents=20 15\n")
    again = load_colouring(path)
    assert again.window == col.window
    assert np.array_equal(again.white, col.white)
    assert again.provenance == col.provenance
    save_colouring(again, tmp_path / "w2.pgm")
    assert (tmp_path / "w2.pgm").read_bytes() == data


def test_pgm_load_errors(tmp_path):
    config = sample_coset_config(Z2, 7, 2)
    col = colour_window(config, Window((0, 0), (6, 6)))
    path = tmp_path / "w.pgm"
    save_colouring(col, path)
    data = path.read_bytes()
    (tmp_path / "trunc.pgm").write_bytes(data[:-5])
    with pytest.raises(ParseError):
        load_colouring(tmp_path / "trunc.pgm")
    (tmp_path / "magic.pgm").write_bytes(b"P2" + data[2:])
    with pytest.raises(ParseError):
        load_colouring(tmp_path / "magic.pgm")
    (tmp_path / "maxval.pgm").write_bytes(data.replace(b"\n255\n", b"\n65535\n"))
    with pytest.raises(ParseError):
        load_colouring(tmp_path / "maxval.pgm")


@pytest.mark.parametrize("value", [0x01, 0x7F, 0xFE])
def test_pgm_refuses_raster_values_other_than_0_and_255(tmp_path, value):
    col = colour_window(sample_coset_config(Z2, 7, 2), Window((0, 0), (6, 5)))
    save_colouring(col, tmp_path / "w.pgm")
    data = bytearray((tmp_path / "w.pgm").read_bytes())
    # P5, origin, extents, provenance, size, then maxval on line 6
    raster = len(data) - 30
    for at in (raster, raster + 17, len(data) - 1):
        bad = data.copy()
        bad[at] = value
        (tmp_path / "bad.pgm").write_bytes(bad)
        with pytest.raises(ParseError) as info:
            load_colouring(tmp_path / "bad.pgm")
        assert str(info.value) == "line 6: raster contains values other than 0 and 255"


@pytest.mark.parametrize("white", [False, True])
def test_pgm_of_one_colour_loads(tmp_path, white):
    window = Window((2, -1), (7, 3))
    col = Colouring(window, np.full(window.array_shape(), white), "test")
    save_colouring(col, tmp_path / "w.pgm")
    data = (tmp_path / "w.pgm").read_bytes()
    assert data.endswith(bytes([255 if white else 0]) * 21)
    again = load_colouring(tmp_path / "w.pgm")
    assert again.window == window and again.provenance == "test"
    assert again.white.dtype == bool and np.array_equal(again.white, col.white)


def test_pgm_round_trips_in_about_the_file_and_its_mask(tmp_path, memory_contract):
    # the PGM is written in runs of 2^16 bytes, and read where it lies in the
    # file's bytes: a whole-window copy of either would pass the bounds
    cols = {n * n: colour_window(sample_coset_config(Z2, 997, 0), Window((0, 0), (n, n)))
            for n in (512, 1024)}
    paths = {units: tmp_path / f"{units}.pgm" for units in cols}
    memory_contract(0, 0.25 * 2**20, {u: partial(save_colouring, cols[u], paths[u]) for u in cols})
    # the file's bytes and the white mask take 1 byte a position each
    memory_contract(2, 0.25 * 2**20,
                    {u: lambda p=paths[u]: infer_cosets(load_colouring(p), 13) for u in cols})
    for units, col in cols.items():  # 1024^2 is a raster of 16 runs
        assert np.array_equal(load_colouring(paths[units]).white, col.white)


def test_pgm_rejects_non_full_grid(tmp_path):
    # the one writer owns the rule, and refuses before the file is opened
    d2 = colour_window(sample_coset_config(lattice_from_id("D2"), 5, 1), Window((0, 0), (6, 6)))
    z3 = colour_window(sample_coset_config(lattice_from_id("Z3"), 5, 1),
                       Window((0, 0, 0), (3, 3, 3)))
    palette = np.array([0, 255], dtype=np.uint8)
    for col in (d2, z3):
        with pytest.raises(DomainError, match="full 2-D grid"):
            save_colouring(col, tmp_path / "no.pgm")
        with pytest.raises(DomainError, match="full 2-D grid"):
            save_pnm(tmp_path / "no.pgm", col, col.white.view(np.uint8), palette)
    assert not (tmp_path / "no.pgm").exists()


def test_pgm_over_the_budget_is_refused_before_its_raster_is_read(tmp_path, capsys,
                                                                  cheap_refusal):
    # 8193^2 points pass the 2^26 budget by 16,385; the raster has the
    # declared length, held by the file system as a hole
    from coprimelab.cli import main

    path = tmp_path / "big.pgm"
    header = b"P5\n# origin=0 0\n# extents=8193 8193\n8193 8193\n255\n"
    with open(path, "wb") as fh:
        fh.write(header)
        fh.truncate(len(header) + 8193 * 8193)
    message = "window of 67125249 points exceeds the budget of 67108864"
    cheap_refusal(message, partial(load_colouring, path))
    assert main(["infer", "--pgm", str(path)]) == 2
    assert capsys.readouterr() == ("", f"domain error: {message}\n")


def test_pgm_header_lines_are_read_within_a_bound(tmp_path):
    # a 32 MiB comment line with no newline was read whole (65 MiB traced)
    # before it was refused; the file's bytes are a hole of zeros
    path = tmp_path / "long.pgm"
    with open(path, "wb") as fh:
        fh.write(b"P5\n# ")
        fh.truncate(32 << 20)

    def refuse():
        with pytest.raises(ParseError, match="^line 2: truncated header$"):
            load_colouring(path)
    assert traced_peak(refuse) < 1 << 20
    # the longest line a writer makes, an origin of two 4,300-digit ints, fits
    far = 10**4299
    col = oracle_from_origin((far, -far), Window((far, -far), (3, 2)))
    save_colouring(col, tmp_path / "far.pgm")
    again = load_colouring(tmp_path / "far.pgm")
    assert again.window == col.window and np.array_equal(again.white, col.white)


def test_coupling_disagreements_match_direct_scan():
    X = (7, 11)
    P = 97
    primes = primes_up_to(P).primes
    reps = {p: (X[0] % p, X[1] % p) for p in primes}
    config = CosetConfig("Z2", P, 0, RNG_ID, reps)
    window = Window((0, 0), (120, 120))
    coupled = colour_window(config, window)
    oracle = oracle_from_origin(X, window)
    disagreements = set()
    for idx in np.ndindex(*window.array_shape()):
        point = (idx[1], idx[0])
        if coupled.white_at(point) != oracle.white_at(point):
            disagreements.add(point)
    expected = set()
    for idx in np.ndindex(*window.array_shape()):
        point = (idx[1], idx[0])
        g = math.gcd(point[0] - X[0], point[1] - X[1])
        if g > 1 and min(q for q in range(2, g + 1) if g % q == 0) > P:
            expected.add(point)
    assert disagreements == expected


_HEADERS = [b"coprime-config v1 lattice=%s P=%d seed=%d rng=x" % (lat, P, seed)
            for lat in (b"Z2", b"Z3", b"D2", b"E8", b"triangular", b"Q7", b"D1", b"Z0")
            for P in (0, 1, 2, 3, 7, 10**30)
            for seed in (0, 2**70)]
_CONFIG_TOKENS = [b"2", b"3", b"5", b"7", b"0", b"1", b"4", b"-1", b"9" * 30, b"x", b"\xff"]


def _config_bytes():
    line = st.lists(st.sampled_from(_CONFIG_TOKENS), max_size=4).map(b" ".join)
    body = st.lists(line, max_size=6).map(b"\n".join)
    return st.tuples(st.sampled_from(_HEADERS), body).map(b"\n".join)


def _pgm_bytes():
    head = st.lists(st.sampled_from([
        b"# origin=0 0", b"# origin=1", b"# origin=-5 2**3", b"# extents=2 2",
        b"# extents=3 1", b"# extents=a b", b"# provenance=lattice=Z2", b"#\xff", b"junk",
    ]), max_size=4)
    dims = st.sampled_from([b"2 2", b"3 1", b"0 2", b"x", b"2", b"99999999999 2"])
    maxval = st.sampled_from([b"255", b"65535"])
    raster = st.one_of(st.binary(max_size=6), st.lists(st.sampled_from([b"\x00", b"\xff"]),
                                                        max_size=6).map(b"".join))
    return st.tuples(head, dims, maxval, raster).map(
        lambda t: b"\n".join([b"P5", *t[0], t[1], t[2]]) + b"\n" + t[3])


def _loads_or_parse_error(load, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input"
        path.write_bytes(data)
        try:
            return load(path)
        except ParseError:
            return None


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.binary(max_size=96), _config_bytes()))
def test_load_config_raises_only_parse_errors(data):
    config = _loads_or_parse_error(load_config, data)
    assert config is None or isinstance(config, CosetConfig)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.binary(max_size=96), _pgm_bytes()))
def test_load_colouring_raises_only_parse_errors(data):
    col = _loads_or_parse_error(load_colouring, data)
    assert col is None or isinstance(col, Colouring)


def test_window_budget_is_checked_before_allocation(cheap_refusal):
    from fractions import Fraction

    huge = Window((0, 0), (100_000, 100_000))
    config = sample_coset_config(lattice_from_id("Z2"), 5, 1)
    d2 = sample_coset_config(lattice_from_id("D2"), 5, 1)
    cheap_refusal("exceeds the budget", partial(colour_window, config, huge),
                  partial(colour_window, d2, huge), partial(oracle_from_origin, (0, 0), huge))
    # windows that are only counted, never allocated, stay unbounded
    assert truncation_error_bound(huge, 7) == Fraction(10**10, 7)


def test_window_colourings_fill_their_masks_in_slabs(memory_contract):
    def squares(colour, *sides):
        return {n * n: partial(colour, Window((-5, -5), (n, n))) for n in sides}

    # the bool mask, then one block of gcds at a time
    memory_contract(1, 2**20, squares(partial(oracle_from_origin, (3, 5)), 512, 2048))
    # a one-row window's row is cut into runs, each a coordinate run and its
    # gcds, int32 at these reaches: temporaries of 0.25 MiB each
    memory_contract(1, 1.25 * 2**20, {n: partial(
        oracle_from_origin, (3, 5), Window((-5, -5), (n, 1))) for n in (2**18, 2**20)})
    # the in-lattice and white masks, then the coordinate rows of one
    # _walk_box block and their membership test at a time
    d2 = sample_coset_config(lattice_from_id("D2"), 31, 0)
    memory_contract(2, 2 * 2**20, squares(partial(colour_window, d2), 256, 512))
    d3 = sample_coset_config(lattice_from_id("D3"), 97, 0)
    memory_contract(2, 2 * 2**20, {n**3: partial(
        colour_window, d3, Window((-5, -5, -5), (n, n, n))) for n in (64, 100)})
