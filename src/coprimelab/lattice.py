"""Lattice constructions, the binary Golay code, and Cayley-structure checkers.

Everything here is exact integer arithmetic: Hermite normal forms, adjugate
solves and codeword enumeration never touch floating point.  The named
lattices (triangular model, D_d, E_8, Leech) come with their minimal-vector
generating sets and with decidable checkers for the two structural conditions
used by the percolation arguments: coordinate-crossing adjacency, and
connectivity of coordinate slices of the Cayley graph.
"""

from __future__ import annotations

import bisect
import itertools
import math
import re
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from .errors import SIZE_BUDGET, DomainError
from .rng import below_lanes, stream_seeds

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
# exact integer linear algebra


def _bareiss(matrix) -> tuple[int, list[list[int]] | None]:
    """Determinant and adjugate of a square integer matrix, adj @ M = det * I.

    Fraction-free Gauss-Jordan elimination on [M | I] (Bareiss, Math. Comp.
    22, 1968): after pivot k every entry is a minor of order k + 1 of the
    row-swapped augmented matrix, so each division by the previous pivot is
    exact.  It ends at [d I | d M^-1], d the determinant up to the sign of
    the swaps.  A singular matrix gives (0, None).
    """
    n = len(matrix)
    a = [[int(e) for e in row] + [int(i == j) for j in range(n)]
         for i, row in enumerate(matrix)]
    sign, prev = 1, 1
    for k in range(n):
        pivot = next((r for r in range(k, n) if a[r][k]), None)
        if pivot is None:
            return 0, None
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        p = a[k][k]
        for i in range(n):
            if i != k:
                f = a[i][k]
                a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], a[k])]
        prev = p
    return sign * prev, [[sign * x for x in row[n:]] for row in a]


class _HnfAccumulator:
    """Running row-style Hermite form of the integer span of added vectors.

    Tracks one pivot row per leading column; the product of pivot entries is
    the index of the span inside Z^d once the rank is full.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self.pivots: dict[int, list[int]] = {}

    def add(self, vector) -> None:
        w = list(vector)
        for j in range(self.dim):
            if w[j] == 0:
                continue
            if j not in self.pivots:
                if w[j] < 0:
                    w = [-t for t in w]
                self.pivots[j] = w
                return
            r = self.pivots[j]
            g = math.gcd(r[j], w[j])
            a, b = _bezout(r[j], w[j])
            new_r = [a * ri + b * wi for ri, wi in zip(r, w)]
            u, v = r[j] // g, w[j] // g
            w = [u * wi - v * ri for ri, wi in zip(r, w)]
            self.pivots[j] = new_r
        # w reduced to zero: already in the span

    def index(self) -> int | None:
        if len(self.pivots) < self.dim:
            return None
        out = 1
        for j, row in self.pivots.items():
            out *= abs(row[j])
        return out

    def rows(self) -> list[list[int]]:
        """Normalized HNF rows (pivot-positive, entries above pivots reduced)."""
        cols = sorted(self.pivots)
        rows = [self.pivots[j][:] for j in cols]
        for idx in range(len(rows) - 1, -1, -1):
            j = cols[idx]
            p = rows[idx][j]
            for upper in rows[:idx]:
                q = upper[j] // p
                if q:
                    for c in range(self.dim):
                        upper[c] -= q * rows[idx][c]
        return rows


def _bezout(a: int, b: int) -> tuple[int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_s, old_t


# ---------------------------------------------------------------------------
# lattice specifications


@dataclass(frozen=True)
class LatticeSpec:
    """An integer lattice: a basis (columns) plus a direct membership rule.

    form is the norm convention for minimal-vector searches: "euclidean", or
    "hexagonal" for the integer model of the triangular lattice.
    """

    name: str
    dim: int
    columns: tuple[tuple[int, ...], ...]
    membership_id: str
    form: str = "euclidean"

    @property
    def determinant(self) -> int:
        # covolume of the lattice; basis column order must not leak a sign
        return abs(_bareiss(self.matrix_rows())[0])

    def matrix_rows(self) -> list[list[int]]:
        return [[self.columns[j][i] for j in range(self.dim)] for i in range(self.dim)]

    @property
    def full_grid(self) -> bool:
        """Whether every integer point is a lattice point (the basis is the
        identity), so a window's colours fill a dense array."""
        return self.columns == _identity_columns(self.dim)


class GenSet:
    """A finite generating set: one lexicographically sorted, duplicate-free
    (n, dim) signed integer array, rows.

    A signed integer array keeps its dtype (Leech's is int8) unless it holds
    the dtype's minimum, which negates to itself; other input becomes int64.
    """

    def __init__(self, vectors):
        arr = np.asarray(vectors if isinstance(vectors, np.ndarray) else list(vectors))
        if arr.ndim != 2 or not len(arr):
            raise DomainError("a generating set is a non-empty list of vectors")
        if arr.dtype.kind != "i" or arr.min() == np.iinfo(arr.dtype).min:
            arr = arr.astype(np.int64)
        arr = arr[np.lexsort(arr.T[::-1])]
        distinct = np.ones(len(arr), dtype=bool)
        distinct[1:] = (arr[1:] != arr[:-1]).any(axis=1)
        self.rows = arr[distinct]

    @cached_property
    def vectors(self) -> tuple[tuple[int, ...], ...]:
        """The rows as tuples of Python ints, built on first request."""
        return tuple(map(tuple, self.rows.tolist()))

    @property
    def dim(self) -> int:
        return self.rows.shape[1]

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.vectors)

    def is_symmetric(self) -> bool:
        # negation reverses lexicographic order, so -S sorted is -rows[::-1];
        # row i's condition is row n-1-i's, so the first half decides
        half = (len(self.rows) + 1) // 2
        return bool(np.array_equal(self.rows[:half], -self.rows[::-1][:half]))

    def has_zero(self) -> bool:
        return bool((~self.rows.any(axis=1)).any())


def norm_sq(spec: LatticeSpec, v):
    """Squared norm of a vector, or of each row of an (n, dim) array."""
    coords = v.T if isinstance(v, np.ndarray) else v
    if spec.form == "hexagonal":
        a, b = coords
        return a * a - a * b + b * b
    return sum(c * c for c in coords)


def _identity_columns(d: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(1 if i == j else 0 for i in range(d)) for j in range(d))


def _d_lattice_columns(d: int) -> tuple[tuple[int, ...], ...]:
    cols = []
    for i in range(d - 1):
        col = [0] * d
        col[i] = 1
        col[i + 1] = -1
        cols.append(tuple(col))
    last = [0] * d
    last[d - 2] = 1
    last[d - 1] = 1
    cols.append(tuple(last))
    return tuple(cols)


def _spec_from_generators(name: str, gens: list, det: int, rule: str) -> LatticeSpec:
    """The lattice spanned by integer vectors, with its HNF rows as basis.

    Asserts full rank, the expected covolume det, and that every basis
    vector passes the membership rule.
    """
    acc = _HnfAccumulator(len(gens[0]))
    for g in gens:
        acc.add(g)
    if acc.index() != det:
        raise AssertionError(f"{name} generators span index {acc.index()}, expected {det}")
    columns = tuple(tuple(row) for row in acc.rows())
    spec = LatticeSpec(name, len(columns), columns, rule)
    if not contains_bulk(spec, np.array(columns)).all():
        raise AssertionError(f"{name} basis column fails its membership rule")
    return spec


@lru_cache(maxsize=1)
def _e8_spec() -> LatticeSpec:
    gens = [[2 * c for c in col] for col in _d_lattice_columns(8)]
    return _spec_from_generators("E8", gens + [[1] * 7 + [-3]], 256, "e8")


@lru_cache(maxsize=1)
def _leech_spec() -> LatticeSpec:
    gens = (2 * _bit_rows(build_golay().generators)).tolist()
    gens += [[4 * c for c in col] for col in _d_lattice_columns(24)]
    return _spec_from_generators("Leech", gens + [[-3] + [1] * 23], 8**12, "leech")


def contains_bulk(spec: LatticeSpec, pts: np.ndarray) -> np.ndarray:
    """Membership of each row of an (n, dim) integer array under the spec's rule.

    The array may hold int64 or Python ints (dtype=object); sums may wrap in
    int64 since the rules only read them mod 4.  Rows of another width than
    the spec's dimension are refused.
    """
    if np.shape(pts)[1:] != (spec.dim,):
        raise DomainError(f"{spec.name} membership needs rows of {spec.dim} coordinates, "
                          f"got an array of shape {np.shape(pts)}")
    rule = spec.membership_id
    if rule == "all":
        return np.ones(len(pts), dtype=bool)
    if rule == "sum-even":
        return pts.sum(axis=1) % 2 == 0
    if rule == "e8":
        same_parity = (pts & 1 == pts[:, :1] & 1).all(axis=1)
        return same_parity & (pts.sum(axis=1) % 4 == 0)
    if rule == "leech":
        return leech_contains_bulk(pts, build_golay())
    if rule == "basis":
        numerators, det = basis_numerators(spec, pts)
        return (numerators % det == 0).all(axis=1)
    raise DomainError(f"unknown membership rule {rule!r}")


@lru_cache(maxsize=32)
def _adjugate_and_det(spec: LatticeSpec):
    det, adj = _bareiss(spec.matrix_rows())
    if det == 0:
        raise DomainError("singular basis")
    return adj, det


def basis_numerators(spec: LatticeSpec, pts: np.ndarray) -> tuple[np.ndarray, int]:
    """adj(B) @ v for each row v of pts, and det(B).

    A row is a lattice point iff all its numerators divide by det, and its
    basis coordinates are then the quotients.  The product is int64 while
    max row-sum |adj| * max |coordinate| stays below 2^62, Python ints
    (dtype=object) beyond that, so it is exact for any input.
    """
    adj, det = _adjugate_and_det(spec)
    bound = max(sum(abs(a) for a in row) for row in adj) * int(np.abs(pts).max(initial=0))
    dtype = np.int64 if bound < 1 << 62 else object
    return pts.astype(dtype, copy=False) @ np.array(adj, dtype=dtype).T, det


# a window on a d-dimensional lattice is a rank-d array, and numpy 1.x caps
# array rank at 32 (numpy 2 at 64)
_MAX_GRID_DIM = 32


def lattice_from_id(lattice_id: str) -> LatticeSpec:
    """The spec named lattice_id: Z{d} (1 <= d <= 32), D{d} (2 <= d <= 32),
    E8, Leech or triangular.

    Each lattice has one id: d is written in ASCII digits without a leading
    zero, and is refused above _MAX_GRID_DIM before any basis is built.
    """
    if lattice_id == "triangular":
        return LatticeSpec("triangular", 2, _identity_columns(2), "all", "hexagonal")
    if lattice_id == "E8":
        return _e8_spec()
    if lattice_id == "Leech":
        return _leech_spec()
    m = re.fullmatch(r"([ZD])([1-9][0-9]*)", lattice_id)
    if m is None:
        raise DomainError(f"unknown lattice id {lattice_id!r}")
    kind, digits = m.groups()
    # the length test keeps int() off ids of thousands of digits
    if len(digits) > 2 or int(digits) > _MAX_GRID_DIM:
        raise DomainError(f"dimension {digits} exceeds the supported maximum {_MAX_GRID_DIM}")
    d = int(digits)
    if kind == "Z":
        return LatticeSpec(lattice_id, d, _identity_columns(d), "all")
    if d < 2:
        raise DomainError("D-lattice needs dimension >= 2")
    return LatticeSpec(lattice_id, d, _d_lattice_columns(d), "sum-even")


# standard_lattice kind (case-folded, "-" read as "_") -> lattice id, {d}
# standing for the dimension; spread_out is hypercubic
_KIND_IDS = {"square": "Z2", "hypercubic": "Z{d}", "spread_out": "Z{d}", "d": "D{d}",
             "e8": "E8", "leech": "Leech", "triangular": "triangular"}


def standard_lattice(kind: str, d: int | None = None,
                     alpha: int = 1) -> tuple[LatticeSpec, GenSet]:
    """A named lattice together with its standard generating set.

    kinds: those of _KIND_IDS; the generating set is the minimal vectors,
    except for "spread_out": the nonzero points of the box [-alpha, alpha]^d.
    """
    kind_l = kind.lower().replace("-", "_")
    template = _KIND_IDS.get(kind_l)
    if template is None:
        raise DomainError(f"unknown lattice kind {kind!r}")
    if "{d}" in template and (d is None or d < 1):
        raise DomainError(f"{kind} lattice needs a dimension")
    spec = lattice_from_id(template.format(d=d))
    if kind_l != "spread_out":
        return spec, minimal_vectors(spec)
    if alpha < 1:
        raise DomainError("spread_out needs dimension and alpha >= 1")
    pts = _enumerate_box_points(spec, alpha)
    return spec, GenSet(pts[pts.any(axis=1)])


def minimal_vectors(spec: LatticeSpec) -> GenSet:
    """All nonzero lattice vectors of minimal norm, chosen by membership rule.

    Z_d ("all"), D_d ("sum-even") and E_8 ("e8") are written down from their
    forced shapes; the triangular model ("all" with the hexagonal form) is
    found by exhaustive search over a box that provably contains every
    candidate; the Leech set ("leech") is built from its three shape families
    and verified by membership and norm (completeness of the three families
    is classical).  A generic "basis" rule has no enumeration here.
    """
    rule = spec.membership_id
    if rule == "leech":
        return _leech_minimal_set()
    if rule == "all" and spec.form == "hexagonal":
        pts = _enumerate_box_points(spec, 1)
        pts = pts[pts.any(axis=1)]
        q = norm_sq(spec, pts)
        return GenSet(pts[q == q.min()])
    if rule not in ("all", "sum-even", "e8"):
        raise DomainError(f"no feasible enumeration for {spec.name!r}")
    # one entry +-1 for Z_d, two for D_d: an entry of size >= 2 already
    # exceeds the norm of these.  E_8 in doubled coordinates (norm 8): two
    # entries +-2, or all eight +-1 with an even number of minus signs
    # (SPLAG ch. 4 sec. 8.1)
    k, scale = {"all": (1, 1), "sum-even": (2, 1), "e8": (2, 2)}[rule]
    vectors = []
    for support in itertools.combinations(range(spec.dim), k):
        for signs in itertools.product((scale, -scale), repeat=k):
            v = [0] * spec.dim
            for i, s in zip(support, signs):
                v[i] = s
            vectors.append(v)
    if rule == "e8":
        vectors += [v for v in itertools.product((1, -1), repeat=8) if v.count(-1) % 2 == 0]
    return GenSet(vectors)


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


# ---------------------------------------------------------------------------
# Leech membership via binary digits


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
    """Some lattice point whose axis-th coordinate equals value."""
    rows = spec.matrix_rows()
    row = rows[axis]
    # running extended gcd across the row gives coefficients with combo = gcd
    g = 0
    coeff = [0] * spec.dim
    for j, e in enumerate(row):
        if e == 0:
            continue
        if g == 0:
            g = abs(e)
            coeff = [0] * spec.dim
            coeff[j] = 1 if e > 0 else -1
        else:
            a, b = _bezout(g, e)
            coeff = [a * c for c in coeff]
            coeff[j] += b
            g = math.gcd(g, e)
    if g != 1:
        raise DomainError("coordinate map not onto the integers")
    point = [0] * spec.dim
    for j, c in enumerate(coeff):
        for i in range(spec.dim):
            point[i] += value * c * spec.columns[j][i]
    return tuple(point)


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


def _enumerate_box_points(spec: LatticeSpec, radius: int, axis: int | None = None) -> np.ndarray:
    """All lattice points with every coordinate in [-radius, radius], in
    lexicographic order; given an axis, only those whose axis coordinate is 0."""
    free = spec.dim - (axis is not None)
    side = 2 * radius + 1
    if side ** free * spec.dim > SIZE_BUDGET:
        raise DomainError("box too large to enumerate pointwise")
    # built in the smallest signed type that holds the box; members are int64
    pts = np.indices((side,) * free, dtype=np.min_scalar_type(-side))
    pts = pts.reshape(free, side ** free).T - radius
    if axis is not None:
        pts = np.insert(pts, axis, 0, axis=1)
    return pts[contains_bulk(spec, pts)].astype(np.int64)


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
