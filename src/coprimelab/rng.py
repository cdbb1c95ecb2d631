"""Deterministic pseudo-randomness.

Every random draw in the package comes from a splitmix64 stream whose seed is
derived by SHA-256 from (master seed, purpose tag, index).  Pure integer
arithmetic, so streams are bit-identical across platforms, Python versions and
thread schedules.  The algorithm identifier below is stored in every artifact
that records randomness.

SplitMix64 is the readable reference generator.  stream_seeds and below_lanes
run the same derivation and the same draws over numpy uint64 arrays, one lane
per stream, bit for bit equal to it.

SHA-256 comes from the interpreter's built-in module (_sha2 on Python 3.12+,
_sha256 before), the one hashlib falls back to without OpenSSL: importing
hashlib would load OpenSSL's libcrypto into every process.  An interpreter
built without that module falls back to hashlib.sha256.  The digests are
SHA-256 either way.
"""

from __future__ import annotations

import numpy as np

try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

RNG_ID = "splitmix64/sha256-streams/v1"

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def stream_seed(master_seed: int, tag: str, index: int = 0) -> int:
    """64-bit substream key for (master seed, purpose tag, index)."""
    data = f"{master_seed & _MASK64}\x1f{tag}\x1f{index}".encode()
    return int.from_bytes(sha256(data).digest()[:8], "little")


class SplitMix64:
    """The splitmix64 generator (Steele, Lea, Flood 2014); 64-bit state."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n), unbiased via rejection."""
        if n <= 0:
            raise ValueError("below() needs n >= 1")
        limit = ((1 << 64) // n) * n
        while True:
            r = self.next_u64()
            if r < limit:
                return r % n


# ---------------------------------------------------------------------------
# the same streams over arrays of lanes

_LANE_MAX = np.uint64(_MASK64)


def stream_seeds(master_seeds, tag: str, indices) -> np.ndarray:
    """stream_seed(m, tag, i) for every master seed m and index i, as a uint64
    array of shape (len(master_seeds), len(indices)).

    One SHA-256 per pair defines the stream, so this hashing is the floor.
    Each master seed's row is filled in turn, every index hashed from a copy
    of the state that has already absorbed the seed and tag, so only one
    row's digests are alive at once; the keys are those of stream_seed.
    """
    tails = [str(int(i)).encode() for i in indices]
    out = np.empty((len(master_seeds), len(tails)), dtype=np.uint64)
    for row, m in zip(out, master_seeds):
        head = sha256(f"{int(m) & _MASK64}\x1f{tag}\x1f".encode())
        digests = []
        for t in tails:
            h = head.copy()
            h.update(t)
            digests.append(h.digest())
        # the first 8 of each digest's 32 bytes, read little-endian
        row[:] = np.frombuffer(b"".join(digests), "<u8")[::4]
    return out


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64's output function of every lane of z, in place through one
    scratch buffer; returns z."""
    scratch = np.empty_like(z)
    for shift, mult in ((30, _MIX1), (27, _MIX2)):
        np.right_shift(z, np.uint64(shift), out=scratch)
        z ^= scratch
        z *= np.uint64(mult)
    np.right_shift(z, np.uint64(31), out=scratch)
    z ^= scratch
    return z


def below_lanes(states: np.ndarray, n) -> np.ndarray:
    """SplitMix64.below(n) in every lane of a uint64 state array.

    Advances states in place exactly as the scalar generator would, a
    rejected lane drawing again, and returns the draws as uint64.  n is a
    positive bound per lane (broadcast to the states' shape).

    The first draw advances and mixes the whole state array in place; only
    the lanes it rejects (a draw at or above the largest multiple of n below
    2^64) are gathered and drawn again.  For a bound far below 2^64, such as
    a prime, that is almost never; near 2^63 it is about half of them.
    """
    n = np.asarray(n, dtype=np.uint64)
    if (n == 0).any():
        raise ValueError("below() needs n >= 1")
    if not states.flags.c_contiguous:
        raise ValueError("below_lanes() advances a C-contiguous state array")
    # largest accepted draw, 2^64 - (2^64 mod n) - 1, without leaving uint64,
    # once per bound and broadcast over the lanes
    top = np.broadcast_to(_LANE_MAX - (_LANE_MAX % n + np.uint64(1)) % n, states.shape)
    n = np.broadcast_to(n, states.shape)
    states += np.uint64(_GAMMA)
    out = _mix(states.copy())
    redraw = np.flatnonzero(out > top)
    np.remainder(out, n, out=out)
    flat, drawn = states.reshape(-1), out.reshape(-1)
    while redraw.size:
        z = flat[redraw] + np.uint64(_GAMMA)
        flat[redraw] = z
        ok = _mix(z) <= top.flat[redraw]
        done = redraw[ok]
        drawn[done] = z[ok] % n.flat[done]
        redraw = redraw[~ok]
    return out
