import collections
import hashlib
import subprocess
import sys
from functools import partial

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from coprimelab import rng
from coprimelab.arith import primes_up_to
from coprimelab.rng import (
    RNG_ID,
    SplitMix64,
    below_lanes,
    stream_seed,
    stream_seeds,
)

# Published splitmix64 reference outputs for seed 0.
SPLITMIX_SEED0 = (
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
)

# Frozen derivations; any change to the stream labelling scheme breaks
# reproducibility of every stored artifact, so these must never move.
FROZEN_STREAM_SEEDS = {
    (0, "trial", 0): 4910280602053377850,
    (42, "coset", 7): 5065727035724076861,
}


def test_splitmix_reference_vectors():
    g = SplitMix64(0)
    assert tuple(g.next_u64() for _ in range(3)) == SPLITMIX_SEED0


def test_stream_seed_frozen():
    for (master, tag, index), expect in FROZEN_STREAM_SEEDS.items():
        assert stream_seed(master, tag, index) == expect


@given(st.binary(max_size=300), st.integers(0, 300))
def test_sha256_is_hashlibs(data, split):
    # the interpreter's built-in SHA-256, fed whole or in two parts through a copy
    assert rng.sha256(data).digest() == hashlib.sha256(data).digest()
    head = rng.sha256(data[:split])
    tail = head.copy()
    tail.update(data[split:])
    assert tail.digest() == hashlib.sha256(data).digest()


def test_frozen_streams_through_the_hashlib_fallback():
    # an interpreter built without _sha2 / _sha256 gets SHA-256 from hashlib
    probe = f"""
import sys
sys.modules["_sha2"] = sys.modules["_sha256"] = None
import hashlib
from coprimelab import rng
assert rng.sha256 is hashlib.sha256
for (master, tag, index), expect in {FROZEN_STREAM_SEEDS!r}.items():
    assert rng.stream_seed(master, tag, index) == expect
    assert rng.stream_seeds([master], tag, [index])[0, 0] == expect
print("fallback")
"""
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "fallback"


def test_rng_id_frozen():
    assert RNG_ID == "splitmix64/sha256-streams/v1"


def test_determinism_and_stream_separation():
    a = SplitMix64(stream_seed(9, "coset", 5))
    b = SplitMix64(stream_seed(9, "coset", 5))
    assert [a.next_u64() for _ in range(8)] == [b.next_u64() for _ in range(8)]
    c = SplitMix64(stream_seed(9, "coset", 7))
    d = SplitMix64(stream_seed(9, "trial", 5))
    head = [SplitMix64(stream_seed(9, "coset", 5)).next_u64()]
    assert c.next_u64() not in head
    assert d.next_u64() not in head


def test_below_range_and_rough_uniformity():
    g = SplitMix64(stream_seed(123, "t", 0))
    counts = collections.Counter(g.below(5) for _ in range(20000))
    assert set(counts) == {0, 1, 2, 3, 4}
    for v in counts.values():
        assert 3600 < v < 4400


def test_below_rejects_bad_bound():
    g = SplitMix64(1)
    with pytest.raises(ValueError):
        g.below(0)


def test_stream_seeds_match_the_scalar_derivation():
    for (master, tag, index), expect in FROZEN_STREAM_SEEDS.items():
        assert stream_seeds([master], tag, [index])[0, 0] == expect
    masters = [0, 1, 42, 2**64 - 1, -1, 2**70 + 3]
    indices = [0, 2, 7, 997, 10**6]
    got = stream_seeds(masters, "coset", indices)
    assert got.dtype == np.uint64 and got.shape == (6, 5)
    assert got.tolist() == [[stream_seed(m, "coset", i) for i in indices] for m in masters]
    lanes = stream_seeds(np.array(masters[:4], dtype=np.uint64), "coset", indices)
    assert np.array_equal(lanes, got[:4])


def test_stream_seeds_hold_one_row_of_digests_at_a_time(memory_contract):
    # trial seeds x the 168 primes <= 997: the 8-byte seeds and one row of
    # digests, not every pair's 32-byte digest at once
    primes = primes_up_to(997).array
    assert len(primes) == 168
    memory_contract(8, 0.125 * 2**20, {trials * len(primes): partial(
        stream_seeds, list(range(trials)), "coset", primes) for trials in (70, 140)})


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("bound", [1, 2, 3, 97, 2**32 + 15, 2**63, 2**63 + 1, 2**64 - 1])
def test_below_lanes_equals_scalar_draws(bound, dim):
    seeds = [stream_seed(s, "lanes", bound) for s in range(200)]
    states = np.array(seeds, dtype=np.uint64)
    got = np.stack([below_lanes(states, bound) for _ in range(dim)], axis=1)
    rejected = 0
    for seed, row, state in zip(seeds, got.tolist(), states.tolist()):
        g = SplitMix64(seed)
        assert row == [g.below(bound) for _ in range(dim)]
        assert state == g.state
        plain = SplitMix64(seed)
        for _ in range(dim):
            plain.next_u64()
        rejected += plain.state != state
    # near 2^63 about half of all draws are rejected and drawn again
    assert rejected > 0 if bound == 2**63 + 1 else rejected == 0


def test_below_lanes_takes_a_bound_per_lane():
    # dim consecutive draws: the 2^63 + 1 lane's second draw is rejected
    # twice, so at dim 3 a lane drawn again in one call draws on in the next
    seeds = [stream_seed(9, "per-lane", i) for i in range(6)]
    bounds = [2, 3, 5, 7, 2**63 + 1, 11]
    for dim in (1, 2, 3):
        states = np.array([seeds] * 4, dtype=np.uint64)
        got = np.stack([below_lanes(states, np.array(bounds, dtype=np.uint64))
                        for _ in range(dim)], axis=-1)
        assert got.shape == (4, 6, dim)
        streams = [SplitMix64(s) for s in seeds]
        expect = [[g.below(n) for _ in range(dim)] for g, n in zip(streams, bounds)]
        assert got.tolist() == [expect] * 4
        assert states.tolist() == [[g.state for g in streams]] * 4
        plain = SplitMix64(seeds[4])
        for _ in range(dim):
            plain.next_u64()
        assert (plain.state != streams[4].state) == (dim >= 2)


def test_below_lanes_rejects_bad_input():
    # refused before any lane advances
    states = np.arange(1, 7, dtype=np.uint64)
    for n in (0, [5, 0, 7, 1, 2, 3], [5, 7]):
        with pytest.raises(ValueError):
            below_lanes(states, n)
        assert states.tolist() == [1, 2, 3, 4, 5, 6]
    grid = states.reshape(3, 2)
    with pytest.raises(ValueError):
        below_lanes(grid[:, 0], 5)
    assert states.tolist() == [1, 2, 3, 4, 5, 6]
