"""Sampling and evaluating truncated random coprime colourings on windows.

A configuration picks, independently for every prime p up to a truncation
bound P, a uniform coset of p times the lattice; a point is white when it
avoids every chosen coset.  Windows are dense boxes; colours live in a boolean
array whose last axis is the first coordinate (C order, axis 1 fastest).
The gcd oracle gives the exact infinite-prime colouring relative to a base
point, which is what the truncated sampler converges to.
"""

from __future__ import annotations

import itertools
import math
import os
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce

# package modules before numpy (see coprimelab/__init__.py)
from .arith import primes_up_to
from .errors import _BATCH_ENTRIES, CANDIDATE_BUDGET, SIZE_BUDGET, DomainError, ParseError
from .lattice_core import LatticeSpec, _walk_box, contains_bulk, lattice_from_id
from .rng import RNG_ID, below_lanes, stream_seeds

import numpy as np

_U64 = (1 << 64) - 1


# ---------------------------------------------------------------------------
# types


@dataclass(frozen=True)
class CosetConfig:
    """One truncated scenery: a coset representative of pΓ for every p <= P.

    Representatives are coefficient vectors in the lattice basis, entries in
    [0, p); for the hypercubic lattices these are plain coordinates mod p.
    """

    lattice_id: str
    P: int
    seed: int
    rng_id: str
    reps: dict[int, tuple[int, ...]] = field(compare=True)

    def fields(self) -> str:
        """The `lattice=... P=... seed=... rng=...` of headers and provenance;
        parse_fields reads it back."""
        return f"lattice={self.lattice_id} P={self.P} seed={self.seed} rng={self.rng_id}"


_FIELDS = re.compile(r"lattice=(\S+) P=([0-9]+) seed=([0-9]+) rng=(\S+)\s*")


def parse_fields(text: str, line: int | None = None) -> tuple[LatticeSpec, int, int, str]:
    """(spec, P, seed, rng id) of a CosetConfig.fields() text, or a ParseError
    at `line`.  P and seed of more than 20 digits (2^64 has 20) are refused
    before int() sees them."""
    m = _FIELDS.fullmatch(text)
    if not m:
        raise ParseError("expected lattice=<id> P=<int> seed=<int> rng=<id>", line=line)
    try:
        spec = lattice_from_id(m[1])
    except DomainError as exc:
        raise ParseError(str(exc), line=line) from None
    if max(len(m[2]), len(m[3])) > 20:
        raise ParseError("P and seed take at most 20 digits", line=line)
    P, seed = int(m[2]), int(m[3])
    if P < 2:
        raise ParseError(f"need P >= 2, got {P}", line=line)
    if seed > _U64:
        raise ParseError("seed must fit in 64 bits", line=line)
    return spec, P, seed, m[4]


@dataclass(frozen=True)
class Window:
    """Axis-aligned box of lattice sites: origin corner plus per-axis extents."""

    origin: tuple[int, ...]
    extents: tuple[int, ...]

    def __post_init__(self):
        if len(self.origin) != len(self.extents):
            raise DomainError("origin and extents disagree on dimension")
        if any(e < 1 for e in self.extents):
            raise DomainError("extents must be >= 1")

    @property
    def dim(self) -> int:
        return len(self.extents)

    @property
    def point_count(self) -> int:
        return math.prod(self.extents)

    def array_shape(self) -> tuple[int, ...]:
        return self.extents[::-1]

    def contains_point(self, v) -> bool:
        return all(o <= c < o + e for c, o, e in zip(v, self.origin, self.extents))

    def require_budget(self) -> None:
        """Checked before arrays over the window are allocated; windows that
        are only counted may be larger."""
        if self.point_count > SIZE_BUDGET:
            raise DomainError(f"window of {self.point_count} points exceeds the budget "
                              f"of {SIZE_BUDGET}")


def coset_slice(rep, p: int, window: Window) -> tuple[slice, ...]:
    """Index of a window array selecting the points congruent to rep mod p."""
    return tuple(
        slice((rep[k] - window.origin[k]) % p, None, p) for k in reversed(range(window.dim))
    )


@dataclass
class Colouring:
    """White/black bits over a window, plus where they came from.

    white[..., j2, j1] is the point origin + (j1, j2, ...).  For windows on a
    proper sublattice, in_lattice marks which grid positions are actual
    lattice points, and white is set only where in_lattice is; elsewhere
    in_lattice is None and every position is a point.
    """

    window: Window
    white: np.ndarray
    provenance: str
    in_lattice: np.ndarray | None = None

    def white_at(self, v) -> bool:
        idx = tuple(c - o for c, o in zip(v, self.window.origin))[::-1]
        if self.in_lattice is not None and not self.in_lattice[idx]:
            raise DomainError(f"{tuple(v)} is not a lattice point of this window")
        return bool(self.white[idx])

    def white_fraction(self) -> float:
        if self.in_lattice is None:
            return float(self.white.mean())
        n = int(self.in_lattice.sum())
        return float(self.white.sum() / n) if n else float("nan")


# ---------------------------------------------------------------------------
# sampling


def coset_residues(seeds, P: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """(primes, residues) for every seed: residues[t, j, k] is the k-th of dim
    uniform residues mod primes[j] drawn from that prime's own substream of
    seeds[t], for every prime p <= P in increasing order.

    A prime's residues do not depend on which other primes or seeds are
    drawn.  Both arrays are int64; residues has shape (seeds, primes, dim).
    """
    primes = primes_up_to(P).array
    states = stream_seeds(seeds, "coset", primes)
    residues = np.empty((*states.shape, dim), dtype=np.int64)
    for k in range(dim):
        residues[..., k] = below_lanes(states, primes)
    return primes, residues


def sample_coset_config(spec: LatticeSpec, P: int, seed: int) -> CosetConfig:
    """Independent uniform coset per prime p <= P, reproducible from the seed."""
    if P < 2:
        raise DomainError(f"need P >= 2, got {P}")
    primes, residues = coset_residues([seed], P, spec.dim)
    reps = dict(zip(primes.tolist(), map(tuple, residues[0].tolist())))
    return CosetConfig(spec.name, P, seed & _U64, RNG_ID, reps)


def colour_window(config: CosetConfig, window: Window) -> Colouring:
    """Evaluate the truncated colouring on a window.

    Prime p blackens the coset B rep + p Gamma: on a full grid (Z_d and the
    triangular model) the whole slice of points congruent to rep mod p, on a
    sublattice the points v of the slice through the anchor B rep whose
    (v - anchor)/p, a box of consecutive integer points, lies in the lattice.
    """
    spec = lattice_from_id(config.lattice_id)
    if window.dim != spec.dim:
        raise DomainError(f"window dimension {window.dim} != lattice dimension {spec.dim}")
    window.require_budget()
    provenance = "config " + config.fields()
    if spec.full_grid:
        white = np.ones(window.array_shape(), dtype=bool)
        for p, rep in config.reps.items():
            white[coset_slice(rep, p, window)] = False
        return Colouring(window, white, provenance)
    in_lattice = np.empty(window.array_shape(), dtype=bool)
    for block, rows in _walk_box(window.origin, in_lattice.shape, _BATCH_ENTRIES, rows=True):
        in_lattice[block].flat = contains_bulk(spec, rows)
    white = in_lattice.copy()
    reps = np.array(list(config.reps.values()), dtype=object).reshape(-1, spec.dim)
    for p, anchor in zip(config.reps, (reps @ np.array(spec.columns, dtype=object)).tolist()):
        view = white[coset_slice(anchor, p, window)]
        if view.size:  # on axis k, (v - anchor)/p starts at -((anchor_k - origin_k) // p)
            start = [-((a - o) // p) for a, o in zip(anchor, window.origin)]
            for block, rows in _walk_box(start, view.shape, _BATCH_ENTRIES, rows=True):
                black = view[block]
                black &= ~contains_bulk(spec, rows).reshape(black.shape)
    return Colouring(window, white, provenance, in_lattice)


def oracle_from_origin(X, window: Window) -> Colouring:
    """Exact infinite-prime colouring: white iff v - X has coprime coordinates.

    The base point itself has gcd 0 and is black, matching the convention
    that visibility relates distinct points.
    """
    X = tuple(int(c) for c in X)
    if len(X) != window.dim:
        raise DomainError("base point dimension mismatch")
    window.require_budget()
    shift = [o - x for o, x in zip(window.origin, X)]
    white = np.empty(window.array_shape(), dtype=bool)
    for block, runs in _walk_box(shift, white.shape, _BATCH_ENTRIES):
        # v - X, outer array axis first; gcd(0, c) = |c|, so a 1-D window's c = -1 is white
        white[block] = reduce(np.gcd, runs, 0) == 1
    provenance = "oracle X=" + ",".join(str(c) for c in X)
    return Colouring(window, white, provenance)


def truncation_error_bound(window: Window, P: int) -> Fraction:
    """Upper bound on the chance any window point is wrongly white at cutoff P.

    Union bound: |window| * sum over p > P of p^-d, enclosed by the integral
    bound |window| * P^(1-d) / (d-1), where d is the window's dimension.
    """
    d = window.dim
    if d < 2:
        raise DomainError("need dimension >= 2")
    if P < 2:
        raise DomainError("need P >= 2")
    return Fraction(window.point_count, (d - 1) * P ** (d - 1))


# ---------------------------------------------------------------------------
# inference


@dataclass(frozen=True)
class InferResult:
    """Per-prime candidate residues that could be the hidden coset."""

    candidates: dict[int, list[tuple[int, ...]]]
    truncation_warning: bool


def _fold(white: np.ndarray, p: int) -> np.ndarray:
    """hit[j] says whether a white point sits at an array index congruent to j
    mod p, every axis folded mod p."""
    hit = white
    for axis in range(white.ndim):
        n, at = hit.shape[axis], (slice(None),) * axis
        whole = n - n % p  # the whole blocks of p, then the n % p left over
        blocks = hit[at + (slice(whole),)]
        folded = blocks.reshape(hit.shape[:axis] + (-1, p) + hit.shape[axis + 1:]).any(axis=axis)
        folded[at + (slice(n - whole),)] |= hit[at + (slice(whole, None),)]
        hit = folded
    return hit


def infer_cosets(colouring: Colouring, p_max: int) -> InferResult:
    """All residues r mod p whose entire class is black in the window, p <= p_max.

    When the colouring came from a config, the true representative is always
    among the candidates for p <= its truncation bound; beyond that bound the
    result carries a warning flag.
    """
    if colouring.in_lattice is not None:
        raise DomainError("inference implemented for full-grid windows")
    white, origin = colouring.white, colouring.window.origin
    primes = primes_up_to(p_max)
    # at most p^dim candidates per prime, summed in Python ints (int64 wraps for dim >= 3)
    bound = sum(p**white.ndim for p in primes)
    if bound > CANDIDATE_BUDGET:
        raise DomainError(f"p_max={p_max} allows {bound} candidates, which exceeds"
                          f" the budget of {CANDIDATE_BUDGET}")
    candidates: dict[int, list[tuple[int, ...]]] = {}
    for p in primes:
        # index j of coordinate k is residue j + origin[k]; the transpose puts
        # coordinate 0 first, so argwhere lists residues lexicographically
        shift = [o % p for o in origin[::-1]]
        hit = np.roll(_fold(white, p), shift, axis=tuple(range(white.ndim)))
        candidates[p] = [tuple(r) for r in np.argwhere(~hit.T).tolist()]
    provenance = colouring.provenance
    warning = (provenance.startswith("config ")
               and p_max > parse_fields(provenance.removeprefix("config "))[1])
    return InferResult(candidates, warning)


# ---------------------------------------------------------------------------
# block invariant helper


def has_full_white_block(colouring: Colouring) -> bool:
    """Whether some axis-aligned 2^d block of the window is entirely white."""
    W = colouring.white
    if any(n < 2 for n in W.shape):
        return False
    views = []
    for offsets in itertools.product(range(2), repeat=W.ndim):
        views.append(W[tuple(slice(o, n - 1 + o) for o, n in zip(offsets, W.shape))])
    return bool(reduce(np.logical_and, views).any())


# ---------------------------------------------------------------------------
# config files


def save_config(config: CosetConfig, path) -> None:
    lines = ["coprime-config v1 " + config.fields()]
    for p in sorted(config.reps):
        lines.append(f"{p} " + " ".join(str(r) for r in config.reps[p]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_config(path) -> CosetConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ParseError(f"cannot read config file: {exc}") from None
    except UnicodeDecodeError:
        raise ParseError("config file is not UTF-8") from None
    if not lines:
        raise ParseError("empty config file", line=1)
    if not lines[0].startswith("coprime-config v1 "):
        raise ParseError("bad header", line=1)
    spec, P, seed, rng_id = parse_fields(lines[0].removeprefix("coprime-config v1 "), line=1)
    reps: dict[int, tuple[int, ...]] = {}
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        parts = raw.split()
        try:
            values = [int(t) for t in parts]
        except ValueError:
            raise ParseError(f"non-integer token in {raw!r}", line=lineno) from None
        p, rep = values[0], tuple(values[1:])
        if len(rep) != spec.dim:
            raise ParseError(
                f"expected {spec.dim} residues for p={p}, got {len(rep)}", line=lineno
            )
        if reps and p <= next(reversed(reps)):
            raise ParseError("primes out of order", line=lineno)
        if any(not 0 <= r < p for r in rep):
            raise ParseError(f"residue out of range [0,{p}) for p={p}", line=lineno)
        reps[p] = rep
    # The (k)-th prime is below k (ln k + ln ln k) for k >= 6 (Rosser), so a
    # sieve to that reach for k = len(reps) + 1 tells whether P promises more
    # primes than listed, however large P is.
    k = len(reps) + 1
    reach = 13 if k < 6 else math.ceil(k * (math.log(k) + math.log(math.log(k))))
    expected = list(primes_up_to(min(P, reach)))
    if sorted(reps) != expected:
        promised = len(expected) if P <= reach else f"more than {len(reps)}"
        raise ParseError(
            f"config lists {len(reps)} primes, header promises {promised}",
            line=len(lines),
        )
    return CosetConfig(spec.name, P, seed, rng_id, reps)


# ---------------------------------------------------------------------------
# colouring files (binary PGM)


def save_pnm(path, colouring: Colouring, index: np.ndarray, palette: np.ndarray,
             *comments: str) -> None:
    """Write palette[index] over a full 2-D grid colouring's window as binary PNM.

    A palette of bytes makes a PGM (P5), one of RGB triples a PPM (P6).  The
    header holds origin, extents and provenance comments, then `# comment`
    lines as given, then the size and maxval 255; load_colouring reads it
    back.  Raster rows run along increasing axis-2 coordinate, columns along
    axis 1, written in runs of at most _BATCH_ENTRIES bytes, so no image of
    the whole window is built.  Other colourings are refused before the file
    is opened.
    """
    if colouring.window.dim != 2 or colouring.in_lattice is not None:
        raise DomainError("PNM export covers full 2-D grid windows only")
    (o1, o2), (e1, e2) = colouring.window.origin, colouring.window.extents
    lines = ["P5" if palette.ndim == 1 else "P6", f"# origin={o1} {o2}",
             f"# extents={e1} {e2}", f"# provenance={colouring.provenance}",
             *(f"# {c}" for c in comments), f"{e1} {e2}", "255"]
    flat = index.reshape(-1)
    step = _BATCH_ENTRIES // palette[0].size  # points a run; an entry is 1 or 3 bytes
    with open(path, "wb") as fh:
        fh.write(("\n".join(lines) + "\n").encode())
        for lo in range(0, len(flat), step):
            fh.write(palette[flat[lo:lo + step]])


def save_colouring(colouring: Colouring, path) -> None:
    """Write a colouring as binary PGM, white = 255."""
    save_pnm(path, colouring, colouring.white.view(np.uint8), np.array([0, 255], dtype=np.uint8))


def load_colouring(path) -> Colouring:
    """Read a PGM that save_colouring wrote.  The header is read a line of at
    most _BATCH_ENTRIES bytes at a time, and the raster's length, checked
    against the file's size, and the window's budget both come before any
    raster byte is read."""

    def header_line(lineno):
        line = fh.readline(_BATCH_ENTRIES)
        if not line.endswith(b"\n"):
            raise ParseError("truncated header", line=lineno)
        return line[:-1]

    def ints(text, lineno, what):
        try:
            return tuple(int(t) for t in text.split())
        except ValueError:
            raise ParseError(f"non-integer {what}", line=lineno) from None

    try:
        with open(path, "rb") as fh:
            if header_line(1) != b"P5":
                raise ParseError("not a binary PGM", line=1)
            meta = {}  # comment key -> (value, line number)
            lineno = 2
            while (line := header_line(lineno)).startswith(b"#"):
                try:
                    text = line[1:].strip().decode("utf-8")
                except UnicodeDecodeError:
                    raise ParseError("comment is not UTF-8", line=lineno) from None
                key, _, value = text.partition("=")
                meta[key.strip()] = (value, lineno)
                lineno += 1
            dims = ints(line, lineno, "width and height")
            if len(dims) != 2 or min(dims) < 1:
                raise ParseError("expected positive width and height", line=lineno)
            width, height = dims
            lineno += 1
            if header_line(lineno) != b"255":
                raise ParseError("expected maxval 255", line=lineno)
            held = os.fstat(fh.fileno()).st_size - fh.tell()
            if held != width * height:
                raise ParseError(f"raster holds {held} bytes, expected {width * height}",
                                 line=lineno)
            if "origin" not in meta or "extents" not in meta:
                raise ParseError("missing origin/extents comments", line=2)
            origin = ints(*meta["origin"], "origin")
            extents = ints(*meta["extents"], "extents")
            if extents != (width, height):
                raise ParseError("extents comment disagrees with raster size",
                                 line=meta["extents"][1])
            if len(origin) != 2:
                raise ParseError("origin comment needs two coordinates", line=meta["origin"][1])
            window = Window(origin, extents)
            window.require_budget()
            arr = np.frombuffer(fh.read(held), dtype=np.uint8).reshape(height, width)
    except OSError as exc:
        raise ParseError(f"cannot read colouring file: {exc}") from None
    white = arr == 255
    if np.count_nonzero(arr) != np.count_nonzero(white):
        raise ParseError("raster contains values other than 0 and 255", line=lineno)
    provenance, line = meta.get("provenance", ("unknown", None))
    if provenance.startswith("config "):
        parse_fields(provenance.removeprefix("config "), line)
    return Colouring(window, white, provenance)
