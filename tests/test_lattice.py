"""Structure tests for the code and lattice constructions.

Counts are frozen; algebraic properties (closure, rank, orthogonality,
membership) are recomputed here from first principles rather than read back
from the module under test.
"""

import dataclasses
import hashlib
import itertools
import math
import random
import subprocess
import sys
from functools import partial

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coprimelab import cli, lattice, lattice_core
from coprimelab.errors import DomainError
from coprimelab.lattice import (
    GenSet,
    basis_numerators,
    build_golay,
    check_crossing_adjacency,
    check_slice_connectivity,
    coordinate_scales,
    dodecad_decomposition,
    hypothesis_report,
    leech_contains_bulk,
    minimal_vectors,
    norm_sq,
    span_index,
    standard_lattice,
    word_line,
)
from coprimelab.rng import SplitMix64, stream_seed

GOLAY_WEIGHTS = {0: 1, 8: 759, 12: 2576, 16: 759, 24: 1}


@pytest.fixture(scope="module")
def code():
    return build_golay()


def _rank_f2(words):
    basis = []
    for w in words:
        for b in basis:
            w = min(w, w ^ b)
        if w:
            basis.append(w)
            basis.sort(reverse=True)
    return len(basis)


def test_golay_weight_distribution(code):
    seen = {}
    for w in code.codewords:
        seen[bin(w).count("1")] = seen.get(bin(w).count("1"), 0) + 1
    assert seen == GOLAY_WEIGHTS
    assert len(code.codewords) == 4096
    assert len(code.octads) == 759
    assert len(code.dodecads) == 2576


def test_golay_rank_and_closure(code):
    assert _rank_f2(code.generators) == 12
    rng = random.Random(5)
    words = list(code.codewords)
    for _ in range(300):
        u, v = rng.choice(words), rng.choice(words)
        assert (u ^ v) in code


def test_golay_self_orthogonal(code):
    # every pair of codewords meets in an even number of coordinates
    rng = random.Random(6)
    for _ in range(300):
        u = rng.choice(code.codewords)
        v = rng.choice(code.codewords)
        assert bin(u & v).count("1") % 2 == 0


def test_golay_complement_symmetry(code):
    full = (1 << 24) - 1
    assert full in code
    for w in random.Random(7).sample(code.octads, 40):
        assert (w ^ full) in code
        assert bin(w ^ full).count("1") == 16


def test_generator_lines_format(code):
    # what `golay --dump generators` prints
    lines = [word_line(g) for g in code.generators]
    assert len(lines) == 12
    for g, line in zip(code.generators, lines):
        assert len(line) == 24 and set(line) <= {"0", "1"}
        assert line.count("1") == bin(g).count("1")
        # coordinate 0 is printed first
        assert (line[0] == "1") == bool(g & 1)


def test_golay_lookup_separates_codewords_from_near_words(code):
    # the minimum distance is 8, so no word 1 to 3 bits from a codeword is one
    assert all(w in code for w in code.codewords)
    flips = {1: [1 << i for i in range(24)]}
    for k in (2, 3):
        flips[k] = [sum(1 << i for i in c) for c in itertools.combinations(range(24), k)]
    assert not any(w ^ e in code for w in code.codewords for e in flips[1])
    centres = [0, (1 << 24) - 1] + random.Random(13).sample(code.codewords, 64)
    assert not any(w ^ e in code for w in centres for e in flips[2] + flips[3])
    assert (1 << 24) not in code and -1 not in code


# SHA-256 of "first second" (6 hex digits each) over every dodecad, in order
DODECAD_SPLITS_DIGEST = "572cf66f4952aee0edfaa178830ec374d408a36aca9f05e0c9b19371a1e884de"


def test_dodecad_decompositions_frozen(code):
    text = "".join(f"{o1:06x} {o2:06x}\n" for o1, o2 in
                   (dodecad_decomposition(code, d) for d in code.dodecads))
    assert hashlib.sha256(text.encode()).hexdigest() == DODECAD_SPLITS_DIGEST


def test_dodecad_decomposition(code):
    rng = random.Random(11)
    for dodecad in rng.sample(code.dodecads, 10):
        o1, o2 = dodecad_decomposition(code, dodecad)
        assert o1 in code.octads and o2 in code.octads
        assert o1 ^ o2 == dodecad
        assert bin(o1 & o2).count("1") == 2


MINIMAL_COUNTS = {
    "triangular": 6,
    ("D", 3): 12,
    ("D", 4): 24,
    "E8": 240,
}


def _spec_of(key):
    if isinstance(key, tuple):
        return standard_lattice(key[0], key[1])[0]
    return standard_lattice(key)[0]


@pytest.mark.parametrize("key", list(MINIMAL_COUNTS))
def test_minimal_vector_counts_and_norms(key):
    spec = _spec_of(key)
    vectors = minimal_vectors(spec)
    assert len(vectors) == MINIMAL_COUNTS[key]
    norms = {norm_sq(spec, v) for v in vectors}
    assert len(norms) == 1
    assert vectors.is_symmetric() and not vectors.has_zero()
    assert span_index(vectors.vectors, spec) == 1


def test_minimal_norm_values():
    tri, _ = standard_lattice("triangular")
    assert {norm_sq(tri, v) for v in minimal_vectors(tri)} == {1}
    d4, _ = standard_lattice("D", 4)
    assert {norm_sq(d4, v) for v in minimal_vectors(d4)} == {2}
    e8, _ = standard_lattice("E8")
    assert {norm_sq(e8, v) for v in minimal_vectors(e8)} == {8}


def test_hexagonal_form_values():
    tri, _ = standard_lattice("triangular")
    assert norm_sq(tri, (1, 0)) == 1
    assert norm_sq(tri, (1, 1)) == 1
    assert norm_sq(tri, (1, -1)) == 3
    assert norm_sq(tri, (2, 1)) == 3


def test_determinants():
    assert _spec_of(("D", 3)).determinant == 2
    assert _spec_of(("D", 4)).determinant == 2
    assert _spec_of("E8").determinant == 256
    leech = standard_lattice("Leech")[0]
    assert leech.determinant == 8**12


def test_d_lattice_membership_is_sum_even():
    spec, _ = standard_lattice("D", 4)
    for v in minimal_vectors(spec):
        assert sum(v) % 2 == 0


def test_spread_out_counts():
    _, s_inf = standard_lattice("spread_out", 2, alpha=2)
    assert len(s_inf) == 24


def test_span_index_values():
    spec, _ = standard_lattice("square")
    assert span_index([(2, 0), (-2, 0), (0, 2), (0, -2)], spec) == 4
    assert span_index([(2, 0), (-2, 0), (0, 1), (0, -1)], spec) == 2
    # (1,2) and (1,-1) span an index-3 sublattice and (2,1) lies inside it
    assert span_index([(2, 1), (1, 2), (1, -1), (-2, -1), (-1, -2), (-1, 1)],
                      spec) == 3
    assert span_index([(2, 1), (1, 1), (-2, -1), (-1, -1)], spec) == 1


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["D3", "D4", "E8"]),
       st.lists(st.integers(-7, 7), min_size=8, max_size=8))
def test_basis_coordinates_rebuild_the_vector(lattice_id, entries):
    # basis_numerators / det against sympy's rational solve of B c = v, which
    # shares no code with the adjugate; membership by the direct rule
    spec = lattice.lattice_from_id(lattice_id)
    v = entries[: spec.dim]
    coords = sympy.Matrix(spec.columns).T.solve(sympy.Matrix(v))
    numerators, det = basis_numerators(spec, np.array([v]))
    assert [sympy.Rational(int(n), det) for n in numerators[0]] == list(coords)
    inside = all(c.is_integer for c in coords)
    assert inside == lattice.contains_bulk(spec, np.array([v], dtype=object))[0]
    if inside:
        rebuilt = [sum(c * col[i] for c, col in zip(coords, spec.columns)) for i in range(spec.dim)]
        assert rebuilt == v


def test_span_index_checks_every_vector_before_the_early_stop():
    # (1,-1) and (1,1) already span D2, so (1,0) used to go unchecked
    with pytest.raises(DomainError, match=r"vector \(1, 0\) is not in the lattice"):
        span_index([(1, -1), (1, 1), (1, 0)], lattice.lattice_from_id("D2"))
    spec, vectors = standard_lattice("E8")
    rows = vectors.rows.tolist()
    assert span_index(rows[:16], spec) == 1
    outsiders = [[2] + [0] * 7, [0] * 7 + [2]]
    with pytest.raises(DomainError, match=r"vector \(2, 0, 0, 0, 0, 0, 0, 0\) is not"):
        span_index(rows + outsiders, spec)
    with pytest.raises(DomainError, match=r"vector \(0, 0, 0, 0, 0, 0, 0, 2\) is not"):
        span_index(np.array(rows + outsiders[::-1]), spec)


def _span_index_reference(rows, spec):
    """[lattice : span] from an HNF over every row in input order, taken in
    Z^d and divided by the lattice's covolume; None below full rank."""
    acc = lattice._HnfAccumulator(spec.dim)
    for v in rows:
        acc.add([int(c) for c in v])
    idx = acc.index()
    if idx is None:
        return None
    assert idx % spec.determinant == 0
    return idx // spec.determinant


@settings(max_examples=150, deadline=None)
@given(lattice_id=st.sampled_from(["D4", "E8", "Z3"]),
       coeffs=st.lists(st.lists(st.integers(-3, 3), min_size=8, max_size=8),
                       min_size=1, max_size=12),
       scales=st.lists(st.sampled_from([1, 1, 1, 2, 3, 2**62 + 1, 2**70]), min_size=12,
                       max_size=12))
@example(lattice_id="E8", coeffs=[[2 * (i == j) for j in range(8)] for i in range(8)],
         scales=[1] * 12)
@example(lattice_id="D4", coeffs=[[1, 1, 0, 0, 0, 0, 0, 0]] * 6, scales=[1] * 12)
@example(lattice_id="Z3", coeffs=[[1, 0, 0] + [0] * 5, [0, 1, 0] + [0] * 5,
                                  [0, 0, 1] + [0] * 5], scales=[2**62 + 1, 1, 2**70] + [1] * 9)
@example(lattice_id="Z3", coeffs=[[1, 0, 0] + [0] * 5, [0, 1, 0] + [0] * 5,
                                  [0, 0, 2] + [0] * 5], scales=[1, 1, 2**62 + 1] + [1] * 9)
def test_span_index_matches_an_hnf_of_every_row(lattice_id, coeffs, scales):
    # integer combinations of the basis columns, some scaled past 2^62 (the
    # object path of basis_numerators) or into (2^63, 2^64), where numpy
    # reads a list mixing them with small ints as float64; the early stop
    # and the interleaved blocks must give the index of the whole set
    spec = lattice.lattice_from_id(lattice_id)
    d = spec.dim
    rows = [[k * sum(c * col[i] for c, col in zip(cs[:d], spec.columns)) for i in range(d)]
            for cs, k in zip(coeffs, scales)]
    want = _span_index_reference(rows, spec)
    if want is None:
        with pytest.raises(DomainError, match="full rank"):
            span_index(rows, spec)
    else:
        assert span_index(rows, spec) == want


def test_leech_span_index_solves_in_blocks(monkeypatch, memory_contract):
    # the first interleaved block of the sorted minimal set reaches index 1
    spec, S = standard_lattice("Leech")
    assert S.rows.dtype == np.int8
    added = []
    add = lattice._HnfAccumulator.add

    def counting_add(self, vector):
        added.append(vector)
        add(self, vector)

    def solve():
        assert span_index(S.rows, spec) == 1

    monkeypatch.setattr(lattice._HnfAccumulator, "add", counting_add)
    memory_contract(120, 2**19, {len(S): solve})
    assert len(added) <= 100
    with pytest.raises(DomainError, match="full rank"):
        span_index([], spec)


def test_leech_minimal_set_is_built_in_bounded_memory(memory_contract):
    S = standard_lattice("Leech")[1]  # the Golay code and octad tables are cached
    assert S.rows.dtype == np.int8 and len(S) == 196_560
    memory_contract(165, 2**19, {len(S): lattice._leech_minimal_set.__wrapped__})


def test_leech_minimal_vectors_against_coordinate_oracle():
    spec, vectors = standard_lattice("Leech")
    assert len(vectors) == 196560
    shapes = {}
    for v in vectors:
        key = tuple(sorted(map(abs, v)))
        shapes[key] = shapes.get(key, 0) + 1
        assert norm_sq(spec, v) == 32
    two_fours = tuple([0] * 22 + [4, 4])
    eight_twos = tuple([0] * 16 + [2] * 8)
    one_three = tuple([1] * 23 + [3])
    assert shapes[two_fours] == 1104
    assert shapes[eight_twos] == 97152
    assert shapes[one_three] == 98304
    assert sum(shapes.values()) == 196560
    # exact linear algebra agrees with the bit-condition membership test
    code = build_golay()
    rng = random.Random(3)
    sample = rng.sample(list(vectors), 400)
    numerators, det = basis_numerators(spec, np.array(sample))
    assert not (numerators % det).any()
    assert leech_contains_bulk(np.array(sample, dtype=object), code).all()


def test_leech_membership_on_constructed_members_and_rejects():
    spec, vectors = standard_lattice("Leech")
    code = build_golay()
    rng = random.Random(9)
    basis = np.array(spec.columns, dtype=np.int64)
    members = []
    for _ in range(100):
        coeffs = np.array([rng.randrange(-3, 4) for _ in range(24)])
        members.append(tuple(int(c) for c in coeffs @ basis))
    assert leech_contains_bulk(np.array(members, dtype=object), code).all()
    sample = rng.sample(list(vectors), 200)
    bumped = []
    for v in sample:
        i = rng.randrange(24)
        w = list(v)
        w[i] += rng.choice((-1, 1))
        bumped.append(w)
    result = leech_contains_bulk(np.array(bumped, dtype=np.int64), code)
    assert not result.any()
    assert leech_contains_bulk(np.array(sample, dtype=np.int64), code).all()


LEECH_SLICE_POINTS = 10992897


@pytest.mark.parametrize("axis", [0, 11, 23])
def test_leech_slice_certificate(axis):
    spec, S = standard_lattice("Leech")
    cert = check_slice_connectivity(spec, S, axis, 2)
    assert cert.passed and cert.method == "structured"
    assert cert.points_certified == LEECH_SLICE_POINTS
    assert cert.certify_radius == cert.search_radius == 2


def test_leech_slice_certificate_does_not_import_numpy_ma():
    # membership in the split table's sorted words is a searchsorted, not
    # np.isin, whose np.unique call imports numpy.ma on first use
    probe = """
import sys
from coprimelab.lattice import check_slice_connectivity, standard_lattice
spec, S = standard_lattice("Leech")
assert check_slice_connectivity(spec, S, 0, 2).passed
print("numpy.ma" in sys.modules)
"""
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_leech_slice_certificate_checks_the_search_radius():
    spec, S = standard_lattice("Leech")
    with pytest.raises(DomainError, match="search_radius must cover certify_radius"):
        check_slice_connectivity(spec, S, 0, 2, 1)
    # the structured walks stay inside the radius-2 box
    assert check_slice_connectivity(spec, S, 0, 2, 2).passed


def test_leech_replay_checks_each_step_is_a_minimal_vector(code):
    # an even-signed octad is a step; a norm-64 lattice vector and an
    # odd-signed octad (norm 32, outside the lattice) are not
    octad = next(w for w in code.octads if not w >> 23 & 1)
    support = np.array([octad >> k & 1 for k in range(24)], dtype=np.int8)
    step = 2 * support
    lattice._replay(step[None, None], step[None], 23)
    odd = step.copy()
    odd[np.flatnonzero(support)[0]] = -2
    double = np.zeros(24, dtype=np.int8)
    double[:4] = 4
    for bad in (odd, double):
        with pytest.raises(AssertionError, match="not a slice generator"):
            lattice._replay(bad[None, None], bad[None], 23)


def test_leech_sign_patterns_are_the_scalar_draws(code):
    # support s's 8 minus sets on axis a are draws below 2^24 of the stream
    # (7, "leech-slice-a", s), kept on s, their first point dropped when odd
    supports = np.array(list(code.dodecads[:3]) + [((1 << 24) - 1) ^ w for w in code.octads[:3]])
    rows = np.repeat(lattice._bit_rows(supports), 8, axis=0)
    for axis in (0, 5, 23):
        expect = []
        for s in supports.tolist():
            stream = SplitMix64(stream_seed(7, f"leech-slice-{axis}", s))
            for _ in range(8):
                minus = stream.below(1 << 24) & s
                if bin(minus).count("1") % 2:
                    minus &= minus - 1
                expect.append([minus >> k & 1 for k in range(24)])
        assert lattice._sampled_minus_sets(supports, rows, axis).tolist() == expect


def test_leech_slice_certificate_refuses_other_generating_sets():
    spec, S = standard_lattice("Leech")
    with pytest.raises(DomainError, match="minimal-vector set"):
        check_slice_connectivity(spec, GenSet(S.vectors[:-1]), 0, 2)


def test_octad_split_table(code):
    _, splits = lattice._octad_splits()
    octads = code.octads
    for meet, supports, per_support in ((2, code.dodecads, 66), (0, None, 15)):
        words, first, second = splits[meet]
        found, counts = np.unique(words, return_counts=True)
        if supports is not None:
            assert found.tolist() == list(supports)
        assert len(found) == (2576 if meet == 2 else 759)
        assert set(counts.tolist()) == {per_support}
        for k in random.Random(meet).sample(range(len(words)), 200):
            o1, o2 = octads[first[k]], octads[second[k]]
            assert o1 < o2 and bin(o1 & o2).count("1") == meet
            assert o1 ^ o2 == words[k]


@pytest.mark.parametrize("meet,name", [(2, "dodecad"), (0, "16-support")])
def test_leech_slice_certificate_names_an_unsplit_support(monkeypatch, meet, name):
    O, splits = lattice._octad_splits()
    words, first, second = splits[meet]
    target = int(next(w for w in words if not w & 1))  # avoids axis 0
    keep = words != target
    patched = dict(splits)
    patched[meet] = (words[keep], first[keep], second[keep])
    monkeypatch.setattr(lattice, "_octad_splits", lambda: (O, patched))
    spec, S = standard_lattice("Leech")
    cert = check_slice_connectivity(spec, S, 0, 2)
    assert not cert.passed
    assert cert.detail.startswith(f"{name} {target:#x} has no")
    assert cert.points_certified < LEECH_SLICE_POINTS
    # an axis inside the support does not need its splits
    inside = (target & -target).bit_length() - 1
    assert check_slice_connectivity(spec, S, inside, 2).passed


def test_crossing_adjacency_truth_table():
    spec, square = standard_lattice("square")
    for axis in (0, 1):
        assert check_crossing_adjacency(spec, square, axis, "strict").passed
    knight = GenSet(
        [(2, 1), (1, 2), (1, -1), (-2, -1), (-1, -2), (-1, 1)])
    for axis in (0, 1):
        res = check_crossing_adjacency(spec, knight, axis, "strict")
        assert res.passed and res.witness is None
    _, spread = standard_lattice("spread_out", 2, alpha=2)
    weak = check_crossing_adjacency(spec, spread, 0, "weak")
    assert not weak.passed
    assert weak.witness is not None and "s" in weak.witness


def test_slice_certificates_bounded():
    spec, square = standard_lattice("square")
    cert = check_slice_connectivity(spec, square, 0, 3)
    assert cert.passed and cert.points_certified == 7
    assert cert.search_radius == 6
    e8, s8 = standard_lattice("E8")
    cert8 = check_slice_connectivity(e8, s8, 0, 2)
    assert cert8.passed and cert8.points_certified == 1093


def test_hypothesis_report_verdicts():
    spec, square = standard_lattice("square")
    assert hypothesis_report(spec, square, "setup", 2).verdict == "pass-bounded"
    tri, s_tri = standard_lattice("triangular")
    assert hypothesis_report(tri, s_tri, "setup", 2).verdict == "pass-bounded"
    _, spread = standard_lattice("spread_out", 2, alpha=2)
    report = hypothesis_report(spec, spread, "setupblack", 2)
    assert report.verdict == "fail"
    assert not report.passed


def test_hypothesis_report_rejects_sublattice_generators():
    spec, _ = standard_lattice("square")
    doubled = GenSet([(2, 0), (-2, 0), (0, 2), (0, -2)])
    with pytest.raises(DomainError, match="index 4"):
        hypothesis_report(spec, doubled, "setup", 2)


def test_hypothesis_report_rejects_bad_sets():
    spec, _ = standard_lattice("square")
    with pytest.raises(DomainError):
        hypothesis_report(spec, GenSet([(0, 0), (1, 0), (-1, 0)]),
                          "setup", 2)
    with pytest.raises(DomainError):
        hypothesis_report(spec, GenSet([(1, 0), (0, 1)]),
                          "setup", 2)
    with pytest.raises(DomainError):
        hypothesis_report(spec, standard_lattice("square")[1], "sideways", 2)


def test_coordinate_scales_gate_the_checkers():
    spec, square = standard_lattice("square")
    assert coordinate_scales(spec) == (1, 1)
    scaled = type(spec)(name="Z2x2", dim=2, columns=((2, 0), (0, 2)),
                        membership_id="basis", form="euclidean")
    scaled_s = GenSet([(2, 0), (-2, 0), (0, 2), (0, -2)])
    assert coordinate_scales(scaled) == (2, 2)
    with pytest.raises(DomainError, match=r"not onto the integers \(scales \(2, 2\)\)"):
        check_crossing_adjacency(scaled, scaled_s, 0)
    with pytest.raises(DomainError, match=r"not onto the integers \(scales \(2, 2\)\)"):
        check_slice_connectivity(scaled, scaled_s, 0, 1)


@pytest.mark.parametrize("case", ["square-skips-odd", "e8-subset"])
def test_bfs_slice_certificate_failures(case):
    if case == "square-skips-odd":
        # (0, +-2) steps skip the odd points of the x0 = 0 line
        spec = standard_lattice("square")[0]
        S = GenSet([(1, 0), (-1, 0), (0, 2), (0, -2)])
        radius, points, unreached = 3, 3, (0, -3)
    else:
        spec, s8 = standard_lattice("E8")
        S = GenSet(v for v in s8 if abs(v[0]) != 2 and abs(v[1]) != 2)
        assert len(S) == 188
        radius, points, unreached = 2, 365, (0, -2, 0, -2, -2, -2, -2, -2)
    cert = check_slice_connectivity(spec, S, 0, radius)
    assert (cert.passed, cert.method, cert.points_certified) == (False, "bfs", points)
    assert (cert.certify_radius, cert.search_radius) == (radius, 2 * radius)
    assert cert.unreached == unreached


def _reference_slice_certificate(spec, S, axis, radius, search):
    """Scalar BFS over tuples: (points certified, smallest unreached point
    with the last coordinate most significant, or None)."""
    def box(r):
        return itertools.product(range(-r, r + 1), repeat=spec.dim)

    targets = [p for p in box(radius) if p[axis] == 0
               and lattice.contains_bulk(spec, np.array([p], dtype=object))[0]]
    gens = [v for v in S if v[axis] == 0]
    origin = (0,) * spec.dim
    seen, frontier = {origin}, [origin]
    while frontier:
        layer = []
        for p in frontier:
            for g in gens:
                q = tuple(a + b for a, b in zip(p, g))
                if max(map(abs, q)) <= search and q not in seen:
                    seen.add(q)
                    layer.append(q)
        frontier = layer
    missing = [p for p in targets if p not in seen]
    return len(targets) - len(missing), min(missing, key=lambda p: p[::-1], default=None)


@pytest.mark.parametrize("kind,d", [("square", None), ("D", 3), ("hypercubic", 3)])
def test_bfs_slice_certificate_matches_a_scalar_search(kind, d):
    spec = standard_lattice(kind, d)[0]
    pool = [p for p in itertools.product(range(-3, 4), repeat=spec.dim)
            if any(p) and lattice.contains_bulk(spec, np.array([p], dtype=object))[0]]
    rng = random.Random(11)
    for _ in range(15):
        picked = rng.sample(pool, rng.randrange(1, 4 * spec.dim))
        S = GenSet(picked + [tuple(-c for c in v) for v in picked])
        for axis in range(spec.dim):
            radius = rng.randrange(1, 4)
            search = radius + rng.randrange(0, 3)
            cert = check_slice_connectivity(spec, S, axis, radius, search)
            points, unreached = _reference_slice_certificate(spec, S, axis, radius, search)
            assert (cert.points_certified, cert.unreached) == (points, unreached)
            assert cert.passed == (unreached is None)


def test_e8_minimal_vectors_match_a_box_search():
    # norm 8 bounds every coordinate by 2 (3^2 > 8), so the [-2, 2]^8 box
    # holds every minimal vector; rows come out in lexicographic order
    e8 = standard_lattice("E8")[0]
    box = np.indices((5,) * 8).reshape(8, -1).T - 2
    same_parity = (box % 2 == box[:, :1] % 2).all(axis=1)
    pts = box[same_parity & (box.sum(axis=1) % 4 == 0) & box.any(axis=1)]
    q = (pts * pts).sum(axis=1)
    expected = tuple(map(tuple, pts[q == q.min()].tolist()))
    assert len(expected) == 240
    assert minimal_vectors(e8).vectors == expected


@pytest.mark.parametrize("S,mode,axis,witness", [
    ("spread2", "weak", 0, {"s": (2, 2), "a": -1, "x": (-1, 0), "z": (1, 2)}),
    ("spread2", "weak", 1, {"s": (2, 2), "a": -1, "x": (0, -1), "z": (2, 1)}),
    ("3-step", "strict", 0, {"s": (3, 0), "a": -1, "x": (-1, 0), "z": (2, 0)}),
    ("3-step", "strict", 1, None),
])
def test_crossing_adjacency_witnesses(S, mode, axis, witness):
    spec, spread2 = standard_lattice("spread_out", 2, alpha=2)
    sets = {"spread2": spread2,
            "3-step": GenSet([(3, 0), (-3, 0), (0, 1), (0, -1)])}
    res = check_crossing_adjacency(spec, sets[S], axis, mode)
    assert res.passed == (witness is None)
    assert res.witness == witness


def _reference_crossing_witness(spec, S, axis, mode):
    """The generator-by-generator scan: the first failing generator in S
    order at its first failing b, or None."""
    proj = {v[axis] for v in S}
    for v in S:
        if mode == "weak":
            if abs(v[axis]) <= 1:
                continue
            s, b = (v if v[axis] >= 2 else tuple(-c for c in v)), 1
        else:
            fails = [b for b in range(1, v[axis]) if b not in proj and v[axis] - b not in proj]
            if not fails:
                continue
            s, b = v, fails[0]
        x = lattice._point_with_coordinate(spec, axis, -b)
        return {"s": s, "a": -b, "x": x, "z": tuple(xi + si for xi, si in zip(x, s))}
    return None


def test_crossing_adjacency_matches_a_generator_scan():
    spec = standard_lattice("square")[0]
    pool = [p for p in itertools.product(range(-5, 6), repeat=2) if any(p)]
    rng = random.Random(5)
    for _ in range(60):
        picked = rng.sample(pool, rng.randrange(1, 6))
        S = GenSet(picked + [tuple(-c for c in v) for v in picked])
        for axis, mode in itertools.product((0, 1), ("strict", "weak")):
            res = check_crossing_adjacency(spec, S, axis, mode)
            witness = _reference_crossing_witness(spec, S, axis, mode)
            assert res.witness == witness
            assert res.passed == (witness is None)


@pytest.mark.parametrize("model", list(cli._MODELS))
def test_every_failing_witness_crosses_its_slice(model):
    # the pair must be adjacent lattice points on either side of the slice;
    # the generator scan above builds its x with the function under test
    kind, d, kw, _ = cli._MODELS[model]
    spec, S = standard_lattice(kind, d, **kw)
    for mode in ("strict", "weak"):
        for axis in range(spec.dim):
            res = check_crossing_adjacency(spec, S, axis, mode)
            if res.passed:
                continue
            x, z, s, a = (res.witness[k] for k in ("x", "z", "s", "a"))
            assert (S.rows == s).all(axis=1).any()
            assert lattice.contains_bulk(spec, np.array([x])).all()
            assert x[axis] == a < 0 < z[axis]
            assert z == tuple(xi + si for xi, si in zip(x, s))


def test_point_with_coordinate_on_random_bases():
    rng = random.Random(29)
    checked = 0
    while checked < 300:
        d = rng.randrange(2, 5)
        columns = tuple(tuple(rng.randrange(-6, 7) for _ in range(d)) for _ in range(d))
        spec = lattice.LatticeSpec("random", d, columns, "basis")
        axis = rng.randrange(d)
        if spec.determinant == 0 or math.gcd(*spec.matrix_rows()[axis]) != 1:
            continue
        x = lattice._point_with_coordinate(spec, axis, -2)
        assert x[axis] == -2
        assert lattice.contains_bulk(spec, np.array([x])).all()
        checked += 1


@pytest.mark.parametrize("certify,search,what", [
    (7, None, "visited map"),         # 15^7 strided visited bytes
    (5, 5, "enumerate pointwise"),    # 11^7 slice candidates of 8 coordinates
])
def test_bfs_slice_certificate_refuses_oversized_grids(cheap_refusal, certify, search, what):
    e8, s8 = standard_lattice("E8")
    cheap_refusal(what, partial(check_slice_connectivity, e8, s8, 0, certify, search))


def test_bfs_slice_certificate_budgets_the_strided_map():
    # the full 17^7 box is past the budget, the 9^7 grid of even points is not
    e8, s8 = standard_lattice("E8")
    cert = check_slice_connectivity(e8, s8, 0, 4)
    assert (cert.passed, cert.search_radius, cert.points_certified) == (True, 8, 39063)


# ---------------------------------------------------------------------------
# exact elimination and the array-backed generating set


def test_bareiss_det_and_adjugate_match_sympy():
    rng = random.Random(17)
    singular = 0
    for _ in range(400):
        n = rng.randrange(1, 7)
        M = [[rng.randrange(-6, 7) for _ in range(n)] for _ in range(n)]
        if n > 1 and rng.random() < 0.2:
            M[-1] = [3 * a for a in M[0]]
        det, adj = lattice_core._bareiss(M)
        assert det == sympy.Matrix(M).det()
        if det == 0:
            singular += 1
            assert adj is None
            continue
        product = [[sum(adj[i][k] * M[k][j] for k in range(n)) for j in range(n)]
                   for i in range(n)]
        assert product == [[det * (i == j) for j in range(n)] for i in range(n)]
    assert singular > 40


def test_singular_basis_is_a_domain_error():
    flat = lattice.LatticeSpec("flat", 2, ((1, 2), (2, 4)), "basis")
    assert flat.determinant == 0
    with pytest.raises(DomainError, match="singular"):
        basis_numerators(flat, np.array([(1, 2)]))
    with pytest.raises(DomainError, match="singular"):
        lattice.contains_bulk(flat, np.array([(1, 2)], dtype=object))


def test_one_dimensional_slice_is_the_origin():
    spec, S = standard_lattice("hypercubic", 1)
    cert = check_slice_connectivity(spec, S, 0, 1)
    assert (cert.passed, cert.points_certified) == (True, 1)
    assert hypothesis_report(spec, S, "setup", 1).verdict == "pass-bounded"


def test_spread_out_matches_a_box_loop():
    for d, alpha in itertools.product((1, 2, 3), (1, 2, 3)):
        expect = tuple(v for v in itertools.product(range(-alpha, alpha + 1), repeat=d) if any(v))
        assert standard_lattice("spread_out", d, alpha=alpha)[1].vectors == expect


def test_genset_refuses_an_empty_or_flat_list():
    for bad in ([], (), [1, 0, -1]):
        with pytest.raises(DomainError, match="non-empty list of vectors"):
            GenSet(bad)


def test_genset_keeps_signed_integer_dtypes():
    assert GenSet(np.array([[1, -2], [0, 3]], dtype=np.int8)).rows.dtype == np.int8
    assert GenSet(np.array([[1, -2]], dtype=np.int16)).rows.dtype == np.int16
    for vectors in ([[1, -2]], np.array([[1, 2]], dtype=np.uint8), np.array([[1.0, 2.0]])):
        assert GenSet(vectors).rows.dtype == np.int64
    # -128 would negate and take abs to itself in int8
    S = GenSet(np.array([[-128, 0]], dtype=np.int8))
    assert S.rows.dtype == np.int64 and not S.is_symmetric()


@pytest.mark.parametrize("vectors", [
    [(2**63 + 2,), (0,)],  # numpy alone reads float64 and casts to -2^63
    [(2**63 + 2,)],  # uint64, wrapped to -2^63 + 2
    [(2**70,), (0,)],  # a bare OverflowError
    [(-2**63 - 1, 0)],
    np.array([[2**63]], dtype=np.uint64),
    np.array([[2.0**63], [0.0]]),
])
def test_genset_refuses_entries_outside_int64(vectors):
    with pytest.raises(DomainError, match="fit in int64"):
        GenSet(vectors)


def test_genset_keeps_the_int64_extremes():
    S = GenSet([(2**63 - 1,), (-2**63,), (0,)])
    assert S.rows.dtype == np.int64
    assert S.rows.tolist() == [[-2**63], [0], [2**63 - 1]]


@settings(max_examples=300, deadline=None)
@given(
    vectors=st.integers(1, 4).flatmap(lambda d: st.lists(
        st.tuples(*[st.integers(-3, 3)] * d), min_size=1, max_size=10)),
    symmetrize=st.booleans(),
    zero=st.booleans(),
)
def test_genset_array_matches_the_tuple_definitions(vectors, symmetrize, zero):
    if symmetrize:
        vectors = vectors + [tuple(-c for c in v) for v in vectors]
    if zero:
        vectors = vectors + [(0,) * len(vectors[0])]
    ref = sorted(set(vectors))

    def neg(v):
        return tuple(-c for c in v)

    S = GenSet(vectors)
    assert S.rows.dtype == np.int64 and S.vectors == tuple(ref)
    assert GenSet(np.array(vectors[::-1], dtype=np.int8)).vectors == tuple(ref)
    assert (len(S), S.dim) == (len(ref), len(ref[0]))
    symmetric = all(neg(v) in set(ref) for v in ref)
    assert S.is_symmetric() == symmetric
    assert S.has_zero() == any(not any(v) for v in ref)
    if symmetric and not S.has_zero():
        # label_clusters contracts the upper half of rows: one of each {s, -s}
        assert S.rows[len(S) // 2:].tolist() == [list(v) for v in ref if v > neg(v)]


def test_lattice_ids_are_parsed_beside_their_names():
    # every standard_lattice kind builds its spec through lattice_from_id
    from coprimelab import colouring

    assert colouring.lattice_from_id is lattice.lattice_from_id
    assert not hasattr(lattice, "lattice_spec")
    cases = [("hypercubic", 1, "Z1"), ("HYPERCUBIC", 5, "Z5"), ("square", None, "Z2"),
             ("spread-out", 3, "Z3"), ("D", 2, "D2"), ("d", 32, "D32"), ("E8", None, "E8"),
             ("leech", None, "Leech"), ("triangular", None, "triangular")]
    assert {kind.lower().replace("-", "_") for kind, _, _ in cases} == set(lattice_core._KIND_IDS)
    for kind, d, lattice_id in cases:
        spec = standard_lattice(kind, d)[0]
        assert spec.name == lattice_id
        assert lattice.lattice_from_id(lattice_id) == spec
    for kind, d in [("hypercubic", None), ("D", 0), ("spread_out", None)]:
        with pytest.raises(DomainError, match="needs a dimension"):
            standard_lattice(kind, d)
    with pytest.raises(DomainError, match="unknown lattice kind 'Z2'"):
        standard_lattice("Z2")


def test_minimal_vectors_follow_the_membership_rule_not_the_name():
    z2 = standard_lattice("square")[0]
    scaled = lattice.LatticeSpec("Z2x2", 2, ((2, 0), (0, 2)), "basis")
    with pytest.raises(DomainError, match="no feasible enumeration for 'Z2x2'"):
        minimal_vectors(scaled)
    for lattice_id in ("Z3", "D4", "E8", "triangular"):
        spec = lattice.lattice_from_id(lattice_id)
        renamed = dataclasses.replace(spec, name="unnamed")
        assert minimal_vectors(renamed).vectors == minimal_vectors(spec).vectors
    assert minimal_vectors(dataclasses.replace(z2, name="E8")).vectors == (
        (-1, 0), (0, -1), (0, 1), (1, 0))


def test_slice_connectivity_is_structured_exactly_for_the_leech_rule():
    spec, S = standard_lattice("Leech")
    renamed = dataclasses.replace(spec, name="Lambda24")
    assert check_slice_connectivity(renamed, S, 0, 2).method == "structured"
    z2, square = standard_lattice("square")
    named_leech = dataclasses.replace(z2, name="Leech")
    cert = check_slice_connectivity(named_leech, square, 0, 2)
    assert (cert.passed, cert.method) == (True, "bfs")
    # the Leech basis under the generic rule is searched pointwise, which
    # its 23 free coordinates refuse
    with pytest.raises(DomainError, match="search box too large"):
        check_slice_connectivity(dataclasses.replace(spec, membership_id="basis"), S, 0, 2)


# ---------------------------------------------------------------------------
# row widths, and one certificate per axis orbit


@pytest.mark.parametrize("lattice_id,width", [("Z3", 2), ("E8", 3), ("Leech", 1)])
def test_contains_bulk_refuses_rows_of_another_width(lattice_id, width):
    spec = lattice.lattice_from_id(lattice_id)
    for dtype in (np.int64, object):
        with pytest.raises(DomainError, match=f"rows of {spec.dim} coordinates"):
            lattice.contains_bulk(spec, np.zeros((3, width), dtype=dtype))


def _extra_report_cases():
    """Generating sets that no coordinate automorphism, or only some, fix."""
    z2, z3, e8 = (lattice.lattice_from_id(i) for i in ("Z2", "Z3", "E8"))
    s8 = minimal_vectors(e8)
    units = [v for v in itertools.product((-1, 0, 1), repeat=3) if sum(map(abs, v)) == 1]
    return {
        # (0, +-2) skips the odd points of the x0 = 0 line; +-(1, 1) makes the
        # set span Z2
        "square-skips-odd": (z2, GenSet([(1, 0), (-1, 0), (0, 2), (0, -2), (1, 1), (-1, -1)]),
                             3, [0]),
        "e8-subset": (e8, GenSet(v for v in s8 if abs(v[0]) != 2 and abs(v[1]) != 2), 2, [0, 1]),
        # axis 0 passes and axis 1 fails: no slice neighbour repairs a +-4 step
        "square-long-step": (z2, GenSet([(1, 0), (-1, 0), (0, 1), (0, -1), (1, 4), (-1, -4)]),
                             2, [0]),
        # axis 0 passes; (0 1) fixes the set and (0 2) does not
        "z3-one-diagonal": (z3, GenSet(units + [(1, 1, 0), (-1, -1, 0)]), 2, [0, 1]),
    }


def test_hypothesis_report_matches_every_axis_checked():
    from coprimelab import cli

    cases = {name: (*standard_lattice(kind, d, **kw), radius, None)
             for name, (kind, d, kw, radius) in cli._MODELS.items()}
    cases.update(_extra_report_cases())
    verdicts = {}
    for name, (spec, S, radius, orbit) in cases.items():
        if orbit is not None:
            assert lattice._axis_orbit(spec, S) == orbit
        axes = range(spec.dim)
        slices = tuple(check_slice_connectivity(spec, S, axis, radius) for axis in axes)
        for theorem, mode in (("setup", "strict"), ("setupblack", "weak")):
            report = hypothesis_report(spec, S, theorem, radius)
            adjacency = tuple(check_crossing_adjacency(spec, S, axis, mode) for axis in axes)
            assert report.adjacency == adjacency, (name, theorem)
            assert report.slices == slices, (name, theorem)
            passed = all(a.passed for a in adjacency) and all(s.passed for s in slices)
            assert report.verdict == ("pass-bounded" if passed else "fail")
            verdicts[name, theorem] = report.verdict
    # the representative fails and every axis falls back
    assert verdicts["spread2", "setupblack"] == "fail"
    assert verdicts["z3-one-diagonal", "setup"] == "pass-bounded"
    assert verdicts["square-long-step", "setup"] == "fail"
    assert verdicts["square-skips-odd", "setup"] == verdicts["e8-subset", "setup"] == "fail"


def test_hypothesis_report_certifies_one_axis_per_orbit(monkeypatch):
    calls = {"adjacency": 0, "slices": 0}

    def counted(name, checker):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return checker(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(lattice, "check_crossing_adjacency",
                        counted("adjacency", check_crossing_adjacency))
    monkeypatch.setattr(lattice, "check_slice_connectivity",
                        counted("slices", check_slice_connectivity))
    for kind, d in (("E8", None), ("D", 4), ("Leech", None)):
        spec, S = standard_lattice(kind, d)
        calls.update(adjacency=0, slices=0)
        report = hypothesis_report(spec, S, "setup", 2)
        assert report.passed and len(report.slices) == spec.dim
        assert calls == {"adjacency": 1, "slices": 1}, kind
    spec, S, radius, _ = _extra_report_cases()["z3-one-diagonal"]
    calls.update(adjacency=0, slices=0)
    hypothesis_report(spec, S, "setup", radius)
    assert calls == {"adjacency": 2, "slices": 2}


_BOX_CASES = [("E8", 1, None), ("E8", 2, 0), ("D4", 3, 1), ("triangular", 1, None),
              ("Z2", 2, None)]


def _box_rows(lattice_id, radius, axis):
    spec = lattice_core.lattice_from_id(lattice_id)
    rows = lattice_core._enumerate_box_points(spec, radius, axis)
    found = set(map(tuple, rows.tolist()))
    assert rows.dtype == np.int64 and len(found) == len(rows)
    return found


@pytest.mark.parametrize("entries", [1, 7, 40])
def test_box_enumeration_is_chunk_independent(monkeypatch, entries):
    whole = {case: _box_rows(*case) for case in _BOX_CASES}
    monkeypatch.setattr(lattice_core, "_BATCH_ENTRIES", entries)
    for case in _BOX_CASES:
        assert _box_rows(*case) == whole[case], case


def test_box_enumeration_walks_its_box_in_blocks(memory_contract):
    # E8's slice targets at r = 3 are 1,093 of 7^7 candidates, which were
    # once built whole (19.6 MiB traced); a block's rows are int8 here
    e8 = lattice_core.lattice_from_id("E8")
    memory_contract(0, 2**20, {r: partial(lattice_core._enumerate_box_points, e8, r, 0)
                               for r in (2, 3)})


def test_e8_slice_certificate_visits_only_the_generators_grid(memory_contract):
    # every E8 slice generator has even coordinates: the visited map covers
    # the (2r + 1)^7 even points of the (4r + 1)^7 search box
    e8, s8 = standard_lattice("E8")
    cert = check_slice_connectivity(e8, s8, 0, 2)
    assert cert.passed and cert.points_certified == 1093
    memory_contract(26, 0.25 * 2**20, {(2 * r + 1) ** 7: partial(check_slice_connectivity,
                                                                 e8, s8, 0, r) for r in (1, 2)})
