"""Frozen outputs of the Euler-product constants on both sides of the exact limit.

Cutoffs at most EXACT_PRODUCT_LIMIT accumulate exact rationals; larger ones
use 128-bit fixed point with directed rounding.  The rows and digests below
were recorded from the implementation and pin both modes bit for bit, so a
rewrite of the product loop or the tail enclosures cannot move any endpoint.
Exact endpoints run to thousands of digits, so each enclosure is pinned by
the SHA-256 of its endpoints written in hexadecimal.
"""

import hashlib

import pytest

from coprimelab.arith import (
    ARITHMETIC_EXACT,
    ARITHMETIC_FIXED,
    EXACT_PRODUCT_LIMIT,
    Interval,
    line_white_prob,
    line_white_trunc,
    pair_line_prob,
    pair_line_trunc,
    pair_ratio_base,
    second_moment_bound,
    twin_prime_constant,
    zeta_inverse,
)

EXACT_P = 5000
FIXED_P = 20000


def _digest(iv) -> str:
    text = ",".join(
        f"{q.numerator:x}/{q.denominator:x}" for q in (iv.lo, iv.hi)
    )
    return hashlib.sha256(text.encode()).hexdigest()


def test_golden_cutoffs_straddle_the_exact_limit():
    assert EXACT_P <= EXACT_PRODUCT_LIMIT < FIXED_P
    assert 32 * 256 <= EXACT_PRODUCT_LIMIT < 32 * 512


@pytest.mark.parametrize(
    "n, row, mode",
    [
        (256, "256,256,8192,0.0836760267142,0.0863752533824,0.0199474566562", ARITHMETIC_EXACT),
        (512, "512,512,16384,0.0756975871198,0.0781394447688,0.0110242714003", ARITHMETIC_FIXED),
    ],
)
def test_second_moment_rows_in_both_modes(n, row, mode):
    rep = second_moment_bound(n, n)
    assert rep.csv_row() == row
    assert rep.arithmetic == mode


CONSTANTS = {
    "twin": lambda P: twin_prime_constant(P),
    "zeta2": lambda P: zeta_inverse(2, P),
    "pair_ratio_base": lambda P: pair_ratio_base(64, P),
    "line": lambda P: line_white_prob(64, P),
    "pair_line": lambda P: pair_line_prob(4, 64, P),
    # the truncated products stay exact at every cutoff
    "line_trunc": lambda P: Interval.point(line_white_trunc(64, P)),
    "pair_line_trunc": lambda P: Interval.point(pair_line_trunc(4, 64, P)),
}


@pytest.mark.parametrize(
    "name, P, digest",
    [
        ("twin", EXACT_P, "eb9f59408ce036a3417b052ee2e57842312414a4bc1f58ab95332d94603382d7"),
        ("zeta2", EXACT_P, "7535f639df993c5ec683462d729ca31d86035060764220257acbfeb327b06791"),
        ("pair_ratio_base", EXACT_P, "20437d75232d56441020f5e4916ccc7e89b91116e52e27abd79bd01d815246ed"),
        ("twin", FIXED_P, "904f53337527bc783ba58cac9b81ce2dd1c99d33dbebf7d3e82507fd4bd5291c"),
        ("zeta2", FIXED_P, "549178cf0dad9f713b23336aac022c7a6156f255f440904697f726467ec5b9ad"),
        ("pair_ratio_base", FIXED_P, "c40e9721fe8aa9505571a6182f07164138c7d3db7e65193762ca606a87e9a9f2"),
        ("line", EXACT_P, "708d17684b56581cf8e7dd660507e3643e63771ad2655c0e6c5e04017cb0d81b"),
        ("pair_line", EXACT_P, "4cc7cc91fb145c92da04f06442b1217764f639bc4af194bf707b14f90af0fc16"),
        ("line", FIXED_P, "63cee0aedcf6dea163a855b869c84f56bfd4dd1704c6e06893425538d5e1a40e"),
        ("pair_line", FIXED_P, "26b48bcbf99f87d157d6067e03e4898177aabcbe1eb5243004cee91293d37f33"),
        ("line_trunc", FIXED_P, "51bb3c4d05c79800f39027326dd752708574a71b7e80cb8d2b7bc5f8f9910c2a"),
        ("pair_line_trunc", FIXED_P, "a7ef1aaf7678c194758a310adf62d956350ca37d5af456cc2f8f0f56298a4a61"),
    ],
)
def test_constant_endpoints_in_both_modes(name, P, digest):
    assert _digest(CONSTANTS[name](P)) == digest
