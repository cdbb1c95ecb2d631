"""The binary Golay code, the Leech lattice, and Cayley-structure checkers.

Everything here is exact integer arithmetic: Hermite normal forms, adjugate
solves and codeword enumeration never touch floating point.  The specs and
generating sets of the named lattices come from coprimelab.lattice_core,
re-exported here; this module adds the Leech lattice (its spec, its 196,560
minimal vectors and its membership rule), span indices, and decidable
checkers for the two structural conditions used by the percolation
arguments: coordinate-crossing adjacency, and connectivity of coordinate
slices of the Cayley graph.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, replace
from functools import lru_cache

# package modules before numpy (see coprimelab/__init__.py)
from .errors import SIZE_BUDGET, DomainError
from .lattice_core import (
    GenSet,
    LatticeSpec,
    _d_lattice_columns,
    _enumerate_box_points,
    _HnfAccumulator,
    _spec_from_generators,
    basis_numerators,
    contains_bulk,
    lattice_from_id,
    minimal_vectors,
    norm_sq,
    standard_lattice,
)
from .rng import below_lanes, stream_seeds

import numpy as np

# ---------------------------------------------------------------------------
# the extended binary Golay code, built from the icosahedron

# Vertex labels: 0 = top, 1..5 = upper pentagon (cyclic), 6..10 = lower
# pentagon (cyclic, vertex 5+i below the gap between i and i+1), 11 = bottom.
_ICOSAHEDRON_EDGES = (
    [(0, i) for i in range(1, 6)]
    + [(i, i % 5 + 1) for i in range(1, 6)]
    + [(11, i) for i in range(6, 11)]
    + [(5 + i, 5 + i % 5 + 1) for i in range(1, 6)]
    + [(i, 5 + i) for i in range(1, 6)]
    + [(i, 5 + i % 5 + 1) for i in range(1, 6)]
)


def _icosahedron_adjacency() -> list[list[int]]:
    adj = [[0] * 12 for _ in range(12)]
    for u, v in _ICOSAHEDRON_EDGES:
        adj[u][v] = 1
        adj[v][u] = 1
    degrees = [sum(row) for row in adj]
    if degrees != [5] * 12:
        raise AssertionError(f"bad icosahedron table, degrees {degrees}")
    return adj


@dataclass(frozen=True)
class GolayCode:
    """The [24,12,8] extended binary Golay code, words as 24-bit integers."""

    generators: tuple[int, ...]
    codewords: tuple[int, ...]
    octads: tuple[int, ...]
    dodecads: tuple[int, ...]

    def __contains__(self, word: int) -> bool:
        k = bisect.bisect_left(self.codewords, word)
        return k < len(self.codewords) and self.codewords[k] == word


def word_line(word: int) -> str:
    """The 24 bits of a word as 0/1 characters, bit 0 first."""
    return format(word, "024b")[::-1]


@lru_cache(maxsize=1)
def build_golay() -> GolayCode:
    """Construct the code as the row space of [I | J - A] over F2, where A is
    the icosahedron adjacency matrix: parity coordinate v of a word x is the
    sum of x_u over the u NOT adjacent to v, u = v included."""
    adj = _icosahedron_adjacency()
    generators = []
    for i in range(12):
        word = 1 << i
        for v in range(12):
            if i == v or not adj[i][v]:
                word |= 1 << (12 + v)
        generators.append(word)

    codewords = [0]
    for g in generators:
        codewords += [w ^ g for w in codewords]
    if len(set(codewords)) != 4096:
        raise AssertionError("generator rows are not independent")

    by_weight: dict[int, list[int]] = {}
    for w in codewords:
        by_weight.setdefault(w.bit_count(), []).append(w)
    expected = {0: 1, 8: 759, 12: 2576, 16: 759, 24: 1}
    counts = {k: len(v) for k, v in by_weight.items()}
    if counts != expected:
        raise AssertionError(f"weight distribution {counts}, wanted {expected}")

    return GolayCode(
        generators=tuple(generators),
        codewords=tuple(sorted(codewords)),
        octads=tuple(sorted(by_weight[8])),
        dodecads=tuple(sorted(by_weight[12])),
    )


_BIT_WEIGHTS = 1 << np.arange(24, dtype=np.int64)


def _bit_rows(words) -> np.ndarray:
    """(n, 24) int8 0/1 matrix whose k-th row holds the bits of the k-th word."""
    return (np.asarray(words, dtype=np.int64)[:, None] >> np.arange(24) & 1).astype(np.int8)


@lru_cache(maxsize=1)
def _octad_splits():
    """The 759x24 octad bit matrix O and every unordered pair of octads, split
    by overlap.

    Two octads meet in 0, 2 or 4 points, read off O @ O.T.  A pair meeting in
    2 has a dodecad as symmetric difference; a disjoint pair has a weight-16
    codeword as union.  Returns O and {2: splits, 0: splits}, each splits
    (support words, first, second) with octad rows first < second, sorted by
    support word and then by first.
    """
    O = _bit_rows(build_golay().octads)
    overlap = O.astype(np.int32) @ O.T.astype(np.int32)
    splits = {}
    for meet in (2, 0):
        first, second = np.nonzero(np.triu(overlap == meet, 1))
        words = (O[first] ^ O[second]) @ _BIT_WEIGHTS
        order = np.argsort(words, kind="stable")
        splits[meet] = (words[order], first[order], second[order])
    return O, splits


def dodecad_decomposition(code: GolayCode, dodecad: int) -> tuple[int, int]:
    """Write a weight-12 codeword as the symmetric difference of two octads.

    The returned octads, smaller first, always overlap in exactly 2
    positions (weights force 8 + 8 - 2*|overlap| = 12).
    """
    if dodecad not in code or dodecad.bit_count() != 12:
        raise DomainError("not a dodecad of this code")
    words, first, second = _octad_splits()[1][2]
    k = int(np.searchsorted(words, dodecad))
    if k == len(words) or words[k] != dodecad:
        raise AssertionError("dodecad admits no octad-pair decomposition")
    return code.octads[first[k]], code.octads[second[k]]


# ---------------------------------------------------------------------------
# the Leech lattice: spec, minimal vectors, membership via binary digits


@lru_cache(maxsize=1)
def _leech_spec() -> LatticeSpec:
    gens = (2 * _bit_rows(build_golay().generators)).tolist()
    gens += [[4 * c for c in col] for col in _d_lattice_columns(24)]
    return _spec_from_generators("Leech", gens + [[-3] + [1] * 23], 8**12, "leech")


@lru_cache(maxsize=1)
def _leech_minimal_set() -> GenSet:
    """The 196,560 minimal Leech vectors: (+-4)^2 0^22, the even-minus
    signed octads (+-2)^8 0^16, and (-+3) (+-1)^23 with the sign pattern of
    a codeword, built and checked as one int8 array."""
    code = build_golay()

    i, j = np.triu_indices(24, 1)
    fours = np.zeros((len(i), 4, 24), dtype=np.int8)
    for k, (si, sj) in enumerate(((4, 4), (4, -4), (-4, 4), (-4, -4))):
        fours[np.arange(len(i)), k, i] = si
        fours[np.arange(len(i)), k, j] = sj

    O = _octad_splits()[0]
    signs = _bit_rows(range(256))[:, :8]
    minus = signs[signs.sum(axis=1) % 2 == 0]  # the 128 even minus sets
    support = np.nonzero(O)[1].reshape(len(O), 8)
    octads = np.zeros((len(O), len(minus), 24), dtype=np.int8)
    octads[np.arange(len(O))[:, None, None], np.arange(len(minus))[:, None],
           support[:, None, :]] = 2 - 4 * minus

    base = 1 - 2 * _bit_rows(code.codewords)
    threes = np.repeat(base[:, None, :], 24, axis=1)
    threes[:, np.arange(24), np.arange(24)] *= -3  # +-1 -> -+3

    arr = np.concatenate([f.reshape(-1, 24) for f in (fours, octads, threes)])
    if not bool(leech_contains_bulk(arr, code).all()):
        raise AssertionError("constructed vector fails the digit conditions")
    if not bool(((arr * arr).sum(axis=1) == 32).all()):
        raise AssertionError("constructed vector has wrong norm")
    S = GenSet(arr)
    if len(S) != 196_560:
        raise AssertionError(f"built {len(S)} Leech vectors, wanted 196560")
    return S


def leech_contains_bulk(arr: np.ndarray, code: GolayCode) -> np.ndarray:
    """Digit-condition membership for an (n, 24) integer array.

    Bits of negative entries follow two's complement (bit k of x is
    (x >> k) & 1 with arithmetic shift): every entry shares bit 0; the bit-1
    pattern is a codeword; the bit-2 sum has the parity of the entries.  Only
    bits 0-2 are read, so they are taken first, which keeps Python ints of
    any size exact; the ufunc casts them to int8 block by block, and the
    bit-1 words are packed from bytes, so no (n, 24) int64 array is made.
    """
    arr = np.bitwise_and(arr, 7, out=np.empty(np.shape(arr), dtype=np.int8), casting="unsafe")
    b0 = arr[:, :1] & 1
    ok = (arr & 1 == b0).all(axis=1)
    packed = np.packbits((arr & 2) != 0, axis=1, bitorder="little").astype(np.int64)
    words = packed[:, 0] | packed[:, 1] << 8 | packed[:, 2] << 16
    word_table = np.array(code.codewords, dtype=np.int64)
    pos = np.searchsorted(word_table, words)
    pos = np.clip(pos, 0, len(word_table) - 1)
    ok &= word_table[pos] == words
    bit2 = (arr >> 2) & 1
    ok &= bit2.sum(axis=1) % 2 == b0[:, 0]
    return ok


# ---------------------------------------------------------------------------
# span index and coordinate scales


def span_index(vectors, spec: LatticeSpec) -> int:
    """Index inside the lattice of the subgroup the vectors generate.

    Every vector passes the membership test first.  An exact HNF then takes
    basis coordinates from basis_numerators in m = isqrt(n) interleaved
    blocks rows[k::m] and stops once the index is 1: the order changes only
    when it stops, never the index.  Raises, naming the first vector outside
    the lattice, or if the span never reaches full rank (infinite index).
    """
    rows = np.asarray(vectors)
    if rows.dtype.kind not in "iuO":  # float64 from ints past 2^63 mixed with others
        rows = np.array([[int(c) for c in v] for v in vectors], dtype=object)
    if len(rows):
        outside = np.flatnonzero(~contains_bulk(spec, rows))
        if len(outside):
            v = rows[outside[0]]
            raise DomainError(f"vector {tuple(int(c) for c in v)} is not in the lattice")
    acc = _HnfAccumulator(spec.dim)
    m = math.isqrt(len(rows))
    for k in range(m):
        numerators, det = basis_numerators(spec, rows[k::m])
        for coords in (numerators // det).tolist():
            acc.add(coords)
            if acc.index() == 1:
                return 1
    idx = acc.index()
    if idx is None:
        raise DomainError("vectors do not span the lattice's full rank")
    return idx


def coordinate_scales(spec: LatticeSpec) -> tuple[int, ...]:
    """k_i = positive generator of the image of the i-th coordinate map."""
    rows = spec.matrix_rows()
    return tuple(math.gcd(*(abs(e) for e in row)) for row in rows)


def _require_normalized(spec: LatticeSpec) -> None:
    ks = coordinate_scales(spec)
    if any(k != 1 for k in ks):
        raise DomainError(f"coordinate maps not onto the integers (scales {ks})")


def _point_with_coordinate(spec: LatticeSpec, axis: int, value: int) -> tuple[int, ...]:
    """Some lattice point whose axis-th coordinate equals value.

    A Hermite form of the basis columns, each prefixed by its axis-th
    coordinate, has a first pivot row (g, v): v is a lattice vector with
    v[axis] = g = +-gcd of the axis row, so value * g * v is the point.
    """
    acc = _HnfAccumulator(spec.dim + 1)
    for col in spec.columns:
        acc.add((col[axis],) + col)
    g, *v = acc.pivots.get(0, (0,))
    if abs(g) != 1:
        raise DomainError("coordinate map not onto the integers")
    return tuple(value * g * c for c in v)


# ---------------------------------------------------------------------------
# crossing-adjacency checker (exact finite reduction)


@dataclass(frozen=True)
class CrossingAdjacency:
    """Exact verdict for one axis: can a sign change in coordinate i always
    be repaired through a neighbour in the zero slice (strict), or is every
    sign change forced through the slice itself (weak)."""

    axis: int
    mode: str
    passed: bool
    witness: dict | None = None


def check_crossing_adjacency(spec: LatticeSpec, S: GenSet, axis: int,
                             mode: str = "strict") -> CrossingAdjacency:
    """Decide the axis-crossing condition by finite reduction.

    Only the i-th coordinates matter: for an adjacent pair x, z = x + s with
    x_i = a < 0 < z_i, a neighbour of x (of z) in the slice exists iff -a
    (resp. -(a+s_i)) is an attainable i-th coordinate of a generator.  The
    weak mode instead demands no generator ever jumps the slice, i.e. every
    |s_i| <= 1.  Both read the axis column once, the strict mode through its
    distinct values; the witness is the first failing generator in S order,
    at its first failing b.
    """
    if mode not in ("strict", "weak"):
        raise DomainError(f"unknown mode {mode!r}")
    if not 0 <= axis < spec.dim:
        raise DomainError(f"axis {axis} out of range")
    _require_normalized(spec)
    col = S.rows[:, axis]
    if mode == "weak":
        fails = np.abs(col) > 1  # a jump over the slice, from a = -1
    else:
        # first_b[t]: the first b = -x_i that no slice neighbour repairs for s_i = t
        attained = set(col.tolist())
        first_b = {}
        for t in attained:
            b = next((b for b in range(1, t) if b not in attained and t - b not in attained), None)
            if b is not None:
                first_b[t] = b
        fails = np.isin(col, list(first_b))
    if not fails.any():
        return CrossingAdjacency(axis, mode, True)
    s = tuple(S.rows[int(np.argmax(fails))].tolist())
    b = 1 if mode == "weak" else first_b[s[axis]]
    if s[axis] < 0:
        s = tuple(-c for c in s)
    x = _point_with_coordinate(spec, axis, -b)
    z = tuple(xi + si for xi, si in zip(x, s))
    return CrossingAdjacency(axis, mode, False, {"s": s, "a": -b, "x": x, "z": z})


# ---------------------------------------------------------------------------
# slice-connectivity checker


@dataclass(frozen=True)
class SliceCertificate:
    """Bounded connectivity certificate for the zero slice of one axis.

    passed=True certifies every slice point of the inner box is reachable
    from the origin through slice points of the search box; it never decides
    the infinite statement.  method records how the certificate was obtained.
    """

    axis: int
    certify_radius: int
    search_radius: int
    passed: bool
    method: str
    points_certified: int
    detail: str = ""
    unreached: tuple[int, ...] | None = None




def _bfs_slice_certificate(spec: LatticeSpec, S: GenSet, axis: int,
                           certify_radius: int, search_radius: int) -> SliceCertificate:
    """Breadth-first search from the origin over the slice points of the
    search box.  Slice generators keep the axis coordinate 0, so the search
    runs on the other coordinates.  Every reachable point is a multiple of
    g_k, the gcd of the generators' k-th coordinates, in coordinate k, so
    the visited map holds one byte per point of that grid in the box,
    (2 floor(R / g_k) + 1) per coordinate, and a target off the grid is
    unreached, and the budget is checked on that grid first.  A step adds a
    generator's code to the frontier codes that its nonzero coordinates keep
    in the box; each layer is decoded to grid coordinates once."""
    R = search_radius
    free = spec.dim - 1
    others = np.arange(spec.dim) != axis
    gens = S.rows[S.rows[:, axis] == 0][:, others]
    stride = np.gcd.reduce(gens, axis=0)
    stride[stride == 0] = 1
    half = [R // g for g in stride.tolist()]
    if math.prod(2 * h + 1 for h in half) > SIZE_BUDGET:
        raise DomainError("search box too large for a visited map")
    targets = _enumerate_box_points(spec, certify_radius, axis)
    half = np.array(half, dtype=np.int64)
    side = 2 * half + 1
    weights = np.cumprod(side) // side
    on_grid = (targets[:, others] % stride == 0).all(axis=1)
    target_codes = (targets[on_grid][:, others] // stride + half) @ weights
    gens //= stride
    steps = [(g != 0, g[g != 0], half[g != 0], int(g @ weights)) for g in gens]
    visited = np.zeros(int(np.prod(side)), dtype=bool)
    frontier = np.zeros((1, free), dtype=np.int64)
    codes = (frontier + half) @ weights
    visited[codes] = True
    while len(codes) and not visited[target_codes].all():
        layer = []
        for nz, g, h, step in steps:
            nxt = codes[(np.abs(frontier[:, nz] + g) <= h).all(axis=1)] + step
            nxt = nxt[~visited[nxt]]
            visited[nxt] = True
            layer.append(nxt)
        codes = np.concatenate(layer or [codes[:0]])
        frontier = codes[:, None] // weights % side - half
    reached = np.zeros(len(targets), dtype=bool)
    reached[on_grid] = visited[target_codes]
    if not reached.all():
        # the smallest missing target, last coordinate most significant
        missing = targets[~reached]
        first = missing[np.lexsort(missing.T)[0]]
        return SliceCertificate(axis, certify_radius, search_radius, False, "bfs",
                                int(reached.sum()), unreached=tuple(first.tolist()))
    return SliceCertificate(axis, certify_radius, search_radius, True, "bfs",
                            len(targets))


_REPLAY_SEED = 7
_REPLAY_SAMPLES = 8


def _first_one(rows: np.ndarray) -> np.ndarray:
    """The first 1 of each 0/1 row, as a one-hot row (zero rows stay zero)."""
    return rows & (np.cumsum(rows, axis=1) == 1)


def _signed(support: np.ndarray, minus: np.ndarray) -> np.ndarray:
    """2 on the support, -2 where minus is also set, 0 elsewhere."""
    return (2 * support * (1 - 2 * minus)).astype(np.int8)


def _sampled_minus_sets(supports: np.ndarray, rows: np.ndarray, axis: int) -> np.ndarray:
    """_REPLAY_SAMPLES even minus sets per support word, as 0/1 rows within
    the support rows given (support k's samples are rows k * _REPLAY_SAMPLES
    onward): a uniform subset, its first point dropped when it is odd."""
    states = stream_seeds([_REPLAY_SEED], f"leech-slice-{axis}", supports).ravel()
    draws = np.stack([below_lanes(states, 1 << 24) for _ in range(_REPLAY_SAMPLES)], axis=1)
    minus = _bit_rows(draws.ravel()) & rows
    odd = minus.sum(axis=1) % 2 == 1
    minus[odd] ^= _first_one(minus[odd])
    return minus


def _split_paths(meet: int, o1: np.ndarray, o2: np.ndarray, minus: np.ndarray):
    """Generator walks from the origin to 2 * (-1)^minus on the support of
    each octad pair (o1, o2), as [(paths, group)] pairs: (paths, steps, 24)
    int8 walks for the input rows that group selects, one per step count.

    Each octad step needs an even minus set.  A dodecad pair (meet 2) gives
    o1 one overlap point when its share of minus is odd, and o2 the other
    overlap signs, so the overlap cancels.  A 16-support pair (meet 0) with
    odd shares flips the first point of each octad and steps back by a +-4
    pair on those two points.
    """
    m1, m2 = minus & o1, minus & o2
    odd = m1.sum(axis=1) % 2 == 1
    if meet == 2:
        ov = o1 & o2
        m1[odd] |= _first_one(ov[odd])
        m2 |= ov & (m1 ^ 1)
        return [(np.stack([_signed(o1, m1), _signed(o2, m2)], axis=1), slice(None))]
    j1, j2 = _first_one(o1[odd]), _first_one(o2[odd])
    m1f, m2f = m1[odd] ^ j1, m2[odd] ^ j2
    fix = (4 * (j1 * (2 * m1f - 1) + j2 * (2 * m2f - 1))).astype(np.int8)
    even = ~odd
    return [
        (np.stack([_signed(o1[even], m1[even]), _signed(o2[even], m2[even])], axis=1),
         even),
        (np.stack([_signed(o1[odd], m1f), _signed(o2[odd], m2f), fix], axis=1), odd),
    ]


def _replay(paths: np.ndarray, targets: np.ndarray, axis: int) -> None:
    """Walk (paths, steps, 24) steps from the origin; raise unless every step
    is a minimal vector in the axis slice, every partial sum stays in the
    radius-2 box and every walk ends on its target.  The minimal vectors are
    the lattice vectors of norm 32 (_leech_minimal_set builds all 196,560)."""
    steps = paths.reshape(-1, 24).astype(np.int64)
    minimal = leech_contains_bulk(steps, build_golay()) & ((steps * steps).sum(axis=1) == 32)
    if not minimal.all() or paths[:, :, axis].any():
        raise AssertionError("path step is not a slice generator")
    walk = np.cumsum(paths, axis=1)
    if (np.abs(walk) > 2).any():
        raise AssertionError("path leaves the certified box")
    if not (walk[:, -1] == targets).all():
        raise AssertionError("path misses its target")


def _leech_slice_certificate(S: GenSet, axis: int) -> SliceCertificate:
    """Structured radius-2 connectivity certificate for a Leech slice.

    The slice points of the [-2,2] box are the origin and the vectors that
    are 2 on a codeword support C avoiding the axis, negated on an even
    subset of C (odd points do not fit the box, since every codeword weight
    is a multiple of 4).  A signed octad is one generator step: the
    minimal-vector construction checks every even-minus signed octad.  Every
    dodecad avoiding the axis needs a split into two octads that avoid it
    (they meet in 2 points outside the dodecad), and every 16-support
    avoiding it a split into two disjoint octads; both come from the one
    octad split table.  For each such support, _REPLAY_SAMPLES sign patterns
    drawn from fixed substreams are walked as arrays and checked exactly:
    each step a minimal vector with axis coordinate 0, each partial sum
    inside the box, each endpoint its target.  A support without a split
    fails the certificate; a walk that breaks a check raises.
    """
    code = build_golay()
    minimal = _leech_minimal_set()
    if S is not minimal and not np.array_equal(S.rows, minimal.rows):
        raise DomainError("the structured certificate requires the minimal-vector set")
    if any(w.bit_count() % 4 for w in code.codewords):
        raise AssertionError("codeword weight not a multiple of 4")

    O, splits = _octad_splits()
    avoids = O[:, axis] == 0
    checked = 1 + (int(avoids.sum()) << 7)  # origin and the octad layer
    families = (
        (2, np.array(code.dodecads, dtype=np.int64), 12,
         "dodecad {:#x} has no axis-avoiding split"),
        (0, np.sort(((1 << 24) - 1) ^ np.array(code.octads, dtype=np.int64)), 16,
         "16-support {:#x} has no disjoint split"),
    )
    for meet, supports, weight, missing in families:
        supports = supports[supports >> axis & 1 == 0]
        words, first, second = splits[meet]
        usable = np.flatnonzero(avoids[first] & avoids[second])
        words, pick = np.unique(words[usable], return_index=True)
        at = np.searchsorted(words, supports)
        found = np.searchsorted(words, supports, "right") > at
        if not found.all():
            miss = int(np.argmin(found))
            return SliceCertificate(axis, 2, 2, False, "structured",
                                    checked + (miss << (weight - 1)),
                                    detail=missing.format(int(supports[miss])))
        split = usable[pick[at]]
        o1 = np.repeat(O[first[split]], _REPLAY_SAMPLES, axis=0)
        o2 = np.repeat(O[second[split]], _REPLAY_SAMPLES, axis=0)
        rows = np.repeat(_bit_rows(supports), _REPLAY_SAMPLES, axis=0)
        minus = _sampled_minus_sets(supports, rows, axis)
        targets = _signed(rows, minus)
        for paths, group in _split_paths(meet, o1, o2, minus):
            _replay(paths, targets[group], axis)
        checked += len(supports) << (weight - 1)

    return SliceCertificate(
        axis, 2, 2, True, "structured", checked,
        detail="octad layer exhaustive; dodecad/16 supports split-verified "
               "with sampled path replay",
    )


def check_slice_connectivity(spec: LatticeSpec, S: GenSet, axis: int,
                             certify_radius: int, search_radius: int | None = None,
                             ) -> SliceCertificate:
    """Certify that slice points near the origin are reachable inside a box.

    Generic lattices get a breadth-first search over the boxed slice; the
    Leech membership rule gets a structured certificate (its radius-2 slice
    holds about 11 million points, far beyond pointwise search).
    """
    if not 0 <= axis < spec.dim:
        raise DomainError(f"axis {axis} out of range")
    if certify_radius < 1:
        raise DomainError("certify_radius >= 1 required")
    _require_normalized(spec)
    if search_radius is None:
        search_radius = 2 * certify_radius
    if search_radius < certify_radius:
        raise DomainError("search_radius must cover certify_radius")
    if spec.membership_id == "leech":
        if certify_radius != 2:
            raise DomainError("the structured Leech certificate covers radius 2")
        return _leech_slice_certificate(S, axis)
    return _bfs_slice_certificate(spec, S, axis, certify_radius, search_radius)


# ---------------------------------------------------------------------------
# aggregate hypothesis report


@dataclass(frozen=True)
class HypothesisReport:
    """Per-axis checker results for one of the two structural hypotheses.

    theorem "setup" pairs strict crossing-adjacency with slice connectivity;
    "setupblack" uses the weak (no-jump) crossing condition instead.  The
    overall verdict is pass-bounded at best because slice connectivity is
    only ever certified to a radius.
    """

    lattice: str
    theorem: str
    adjacency: tuple[CrossingAdjacency, ...]
    slices: tuple[SliceCertificate, ...]
    verdict: str

    @property
    def passed(self) -> bool:
        return self.verdict.startswith("pass")


def _icosahedron_automorphisms() -> list[list[int]]:
    """For each vertex v, the first automorphism sigma of the icosahedron
    graph with sigma[0] = v, found by backtracking over vertices 0, 1, ..."""
    adj = _icosahedron_adjacency()

    def extend(sigma):
        u = len(sigma)
        if u == 12:
            return sigma
        for v in range(12):
            if v not in sigma and all(adj[u][w] == adj[v][sigma[w]] for w in range(u)):
                found = extend(sigma + [v])
                if found:
                    return found
        return None

    return [extend([v]) for v in range(12)]


def _axis_orbit(spec: LatticeSpec, S: GenSet) -> list[int]:
    """The axes that verified coordinate automorphisms of (lattice, S) map
    axis 0 to, axis 0 first.

    A candidate permutation p (x -> x[p]) is kept when every permuted basis
    column is a lattice vector, which with det +-1 gives p(lattice) =
    lattice, and when it maps S onto S.  Under the Leech rule S is the
    minimal set (the structured certificate refuses any other), which an
    isometry of the lattice preserves, so only the lattice is checked.  The
    candidates are the transpositions (0 i), and for the Leech rule the
    icosahedron automorphisms on both halves of [I | J - A] with the half
    swap u <-> 12 + u (SPLAG ch. 11); kept ones are composed along the orbit.
    """
    d = spec.dim
    leech = spec.membership_id == "leech"
    if leech:
        candidates = [sigma + [12 + u for u in sigma] for sigma in _icosahedron_automorphisms()]
        candidates.append(list(range(12, 24)) + list(range(12)))
    else:
        candidates = [[i] + list(range(1, i)) + [0] + list(range(i + 1, d)) for i in range(1, d)]
    columns = np.array(spec.columns)
    kept = [p for p in candidates
            if contains_bulk(spec, columns[:, p]).all()
            and (leech or np.array_equal(GenSet(S.rows[:, p]).rows, S.rows))]
    orbit = [0]
    for axis in orbit:
        for p in kept:
            if p[axis] not in orbit:
                orbit.append(p[axis])
    return orbit


def hypothesis_report(spec: LatticeSpec, S: GenSet, theorem: str,
                      certify_radius: int, search_radius: int | None = None,
                      ) -> HypothesisReport:
    if theorem not in ("setup", "setupblack"):
        raise DomainError(f"unknown theorem tag {theorem!r}")
    if S.has_zero():
        raise DomainError("generating set contains 0")
    if not S.is_symmetric():
        raise DomainError("generating set is not symmetric")
    idx = span_index(S.rows, spec)
    if idx != 1:
        raise DomainError(f"generating set spans a sublattice of index {idx}")
    mode = "strict" if theorem == "setup" else "weak"

    def certify(axis):
        return (check_crossing_adjacency(spec, S, axis, mode),
                check_slice_connectivity(spec, S, axis, certify_radius, search_radius))

    first = certify(0)
    checks = {0: first}
    if all(c.passed for c in first):
        # passing verdicts carry over to every axis of the orbit; failure
        # witnesses are not equivariant, so those axes run their own checks
        checks = {i: tuple(replace(c, axis=i) for c in first) for i in _axis_orbit(spec, S)}
    adjacency, slices = zip(*(checks.get(i) or certify(i) for i in range(spec.dim)))
    if all(a.passed for a in adjacency) and all(s.passed for s in slices):
        verdict = "pass-bounded"
    else:
        verdict = "fail"
    return HypothesisReport(spec.name, theorem, adjacency, slices, verdict)
