"""Lattice specs, generating sets and exact integer linear algebra.

The part of the lattice layer that every command which colours a window
needs: the spec of a lattice id and its membership rule, the standard
generating sets, Bareiss adjugates, a running Hermite form, and the one walk
over the points of a box (_walk_box over the _blocks tiling), which window
colourings, the gcd oracle and box enumerations share.  The Golay code, the
Leech lattice and the Cayley-structure certifiers live in
coprimelab.lattice, which re-exports this module; the Leech rule, spec and
minimal set are imported from there on first use, so the Monte Carlo and
window commands never load it.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache

# package modules before numpy (see coprimelab/__init__.py)
from .errors import _BATCH_ENTRIES, SIZE_BUDGET, DomainError

import numpy as np

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

    Tracks one pivot row per leading column; the product of |pivot| entries
    is the index of the span inside Z^d once the rank is full.  A new pivot
    enters positive, but a merge keeps _bezout's combination, which may give
    -gcd, so a pivot may be negative (E8's basis ends with (0, ..., 0, -4)).
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
        """HNF rows, pivots signed as add() left them and each entry above a
        pivot p reduced by floor division: into [0, p), or (p, 0] if p < 0."""
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
    """(s, t) with a*s + b*t = +-gcd(a, b): the sign is that of Euclid's last
    nonzero remainder under floor division, so _bezout(3, -2) = (1, 2) gives -1."""
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
    the dtype's minimum, which negates to itself; other input becomes int64,
    and an entry outside int64 is refused before it is cast.
    """

    def __init__(self, vectors):
        # lists are read as Python objects, which numpy would otherwise cast
        # to float64 or uint64 once an entry passes int64
        arr = vectors if isinstance(vectors, np.ndarray) else np.array(list(vectors), dtype=object)
        if arr.ndim != 2 or not arr.size:
            raise DomainError("a generating set is a non-empty list of vectors")
        if arr.dtype.kind != "i":
            # half-open, so a float 2^63 is not compared to 2^63 - 1 rounded up
            if not (-1 << 63 <= arr.min(initial=0) and arr.max(initial=0) < 1 << 63):
                raise DomainError("generating set entries must fit in int64")
            arr = arr.astype(np.int64)
        elif arr.min() == np.iinfo(arr.dtype).min:
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
        from .lattice import build_golay, leech_contains_bulk

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
        from .lattice import _leech_spec

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
        from .lattice import _leech_minimal_set

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


def _enumerate_box_points(spec: LatticeSpec, radius: int, axis: int | None = None) -> np.ndarray:
    """All lattice points with every coordinate in [-radius, radius], int64 rows
    kept block by block from _walk_box; given an axis, only those 0 on it."""
    side = [1 if k == axis else 2 * radius + 1 for k in range(spec.dim)]
    if math.prod(side) * spec.dim > SIZE_BUDGET:
        raise DomainError("box too large to enumerate pointwise")
    corner = [0 if k == axis else -radius for k in range(spec.dim)]
    kept = [rows[contains_bulk(spec, rows)]
            for _, rows in _walk_box(corner, side[::-1], _BATCH_ENTRIES, rows=True)]
    return np.concatenate(kept).astype(np.int64)


def _blocks(box, limit):
    """Boxes of at most limit positions that tile box, slices with explicit
    starts, in C order: whole outer rows while a row fits, else rows cut up."""
    outer, inner = box[0], box[1:]
    row = math.prod(max(0, s.stop - s.start) for s in inner)
    if row > limit:
        for i in range(outer.start, outer.stop):
            yield from ((slice(i, i + 1), *sub) for sub in _blocks(inner, limit))
    elif row:
        rows = limit // row
        for lo in range(outer.start, outer.stop, rows):
            yield (slice(lo, min(lo + rows, outer.stop)), *inner)


def _walk_box(origin, shape, limit, rows=False):
    """(block, coordinates) for each _blocks box of an array of shape whose
    index 0 is the point origin, array axis a running along coordinate
    d - 1 - a: per-axis runs, run a shaped to broadcast along array axis a,
    in blocks of at most limit points, or with rows the block's points in C
    order as (n, d) rows, a view of one coordinate after another, in blocks
    of at most limit entries.  The dtype is the smallest signed one that
    holds every coordinate of the box and its negation, and Python ints
    (dtype=object) once the box reaches 2^62."""
    d = len(shape)
    reach = max(max(abs(o), abs(o + n - 1)) for o, n in zip(origin, shape[::-1]))
    dtype = np.min_scalar_type(-1 - reach) if reach < 1 << 62 else object
    for block in _blocks(tuple(slice(0, n) for n in shape), max(1, limit // d) if rows else limit):
        runs = [np.arange(s.start + o, s.stop + o, dtype=dtype).reshape((-1,) + (1,) * (d - 1 - a))
                for a, (s, o) in enumerate(zip(block, origin[::-1]))]
        if rows:
            pts = np.empty((d, *(len(r) for r in runs)), dtype=dtype)
            for a, run in enumerate(runs):
                pts[d - 1 - a] = run
            runs = pts.reshape(d, -1).T
        yield block, runs
