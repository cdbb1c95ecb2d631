"""Exact and interval arithmetic against independently computed targets.

The infinite-product constants below were obtained outside this package, by
direct 60-digit products over all primes up to 10^5 followed by a prime zeta
series for the remaining tail.  Enclosures produced by the module must
contain them at every cutoff.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coprimelab.arith import (
    ARITHMETIC_EXACT,
    ARITHMETIC_FIXED,
    EXACT_PRODUCT_LIMIT,
    Interval,
    SECOND_MOMENT_CSV_HEADER,
    _arithmetic,
    _euler_product,
    decimal_str,
    line_white_prob,
    line_white_trunc,
    pair_line_prob,
    pair_line_trunc,
    pair_ratio_base,
    phi_partial_sum_interval,
    phi_sqf,
    prime_power_tail_sum,
    primes_up_to,
    second_moment_bound,
    smallest_prime_factors,
    theta,
    theta_divisor_identity_check,
    twin_prime_constant,
    twin_prime_tail_sum,
    zeta_inverse,
)
from coprimelab.errors import DomainError

# line survival products prod_p (1 - min(p,x)/p^2)
F_TARGETS = {
    2: Fraction("0.322634098939244670579531692548"),
    10: Fraction("0.166954450867006539339998515129"),
    64: Fraction("0.10878041008373005460030799649"),
}

# pair survival products for rows at even distance d
G_TARGETS = {
    (2, 2): Fraction("0.189299703044725762230771659749"),
    (2, 4): Fraction("0.0738413001566437132147974952913"),
    (6, 10): Fraction("0.0750802123792905233071850849683"),
}

TWIN_CONSTANT = Fraction("0.66016181584686957392781211001455577843")
BASEL_INVERSE = Fraction("0.607927101854026628663276779258")
APERY_INVERSE = Fraction("0.831907372580707468683126278822")


def test_prime_table_counts():
    assert primes_up_to(2).primes == (2,)
    assert primes_up_to(10).primes == (2, 3, 5, 7)
    assert len(primes_up_to(1000)) == 168
    assert len(primes_up_to(10000)) == 1229
    with pytest.raises(DomainError):
        primes_up_to(1)


def test_prime_table_refuses_limits_beyond_budget():
    # refused before the sieve allocates limit + 1 bytes
    for limit in (2**26 + 1, 2**40):
        with pytest.raises(DomainError, match="exceeds the budget"):
            primes_up_to(limit)


def test_smallest_prime_factors():
    spf = smallest_prime_factors(20)
    assert spf[2] == 2 and spf[15] == 3 and spf[17] == 17 and spf[9] == 3


def test_truncated_line_products_by_hand():
    # x=2, P=3: (1 - 2/4)(1 - 2/9)
    assert line_white_trunc(2, 3) == Fraction(7, 18)
    # x=3, P=3: (1 - 2/4)(1 - 3/9)
    assert line_white_trunc(3, 3) == Fraction(1, 3)
    # d=2, x=2, P=3: (1 - 2/4)(1 - 4/9)
    assert pair_line_trunc(2, 2, 3) == Fraction(5, 18)


@pytest.mark.parametrize("x,target", sorted(F_TARGETS.items()))
def test_line_white_prob_contains_target(x, target):
    prev_width = None
    for P in (2000, 10000):
        iv = line_white_prob(x, P)
        assert iv.contains(target)
        assert iv.lo > 0
        if prev_width is not None:
            assert iv.width < prev_width
        prev_width = iv.width


@pytest.mark.parametrize("d,x", sorted(G_TARGETS))
def test_pair_line_prob_contains_target(d, x):
    target = G_TARGETS[(d, x)]
    for P in (2000, 10000):
        assert pair_line_prob(d, x, P).contains(target)


def test_effective_cutoff_is_max_of_P_and_x():
    # primes in (P, x] are needed exactly, so a low P cannot change the result
    assert line_white_prob(100, 10) == line_white_prob(100, 100)
    assert pair_line_prob(4, 50, 7) == pair_line_prob(4, 50, 50)


def test_pair_line_odd_distance_is_zero():
    iv = pair_line_prob(3, 10, 100)
    assert iv.lo == 0 and iv.hi == 0


def test_pair_line_rejects_distance_beyond_width():
    with pytest.raises(DomainError):
        pair_line_prob(12, 10, 100)


def test_theta_values():
    assert theta(2) == 1
    assert theta(6) == 2
    assert theta(30) == Fraction(8, 3)
    assert theta(210) == Fraction(16, 5)
    with pytest.raises(DomainError):
        theta(15)


def test_phi_sqf_values():
    assert phi_sqf(1) == 1
    assert phi_sqf(3) == 1
    assert phi_sqf(5) == Fraction(1, 3)
    assert phi_sqf(105) == Fraction(1, 15)
    with pytest.raises(DomainError):
        phi_sqf(9)
    with pytest.raises(DomainError):
        phi_sqf(6)


def test_theta_divisor_identity_spot_checks():
    for d in (2, 6, 30, 210, 9240, 4096):
        assert theta_divisor_identity_check(d)


def phi_partial_sum(N: int, weighted: bool) -> Fraction:
    """Exact sum of phi_sqf(k) (or phi_sqf(k)/k) over odd squarefree k <= N.

    The oracle of phi_partial_sum_interval, taken from the definition: k is
    squarefree when no odd square above 1 divides it.
    """
    total = Fraction(0)
    for k in range(1, N + 1, 2):
        if all(k % (q * q) for q in range(3, math.isqrt(k) + 1, 2)):
            total += phi_sqf(k) / k if weighted else phi_sqf(k)
    return total


def test_phi_partial_sums_by_hand():
    # odd squarefree k <= 9: 1, 3, 5, 7
    assert phi_partial_sum(9, weighted=True) == Fraction(10, 7)
    assert phi_partial_sum(9, weighted=False) == Fraction(38, 15)
    iv = phi_partial_sum_interval(9, weighted=True)
    assert iv.contains(Fraction(10, 7))


def test_phi_weighted_sum_approaches_reciprocal_of_twin_constant():
    total = phi_partial_sum(20000, weighted=True)
    tw = twin_prime_constant(100000)
    prod_lo = total * tw.lo
    prod_hi = total * tw.hi
    assert prod_hi <= 1
    assert prod_lo > Fraction(98, 100)


def test_tail_sums_are_sound():
    # compare against the truth summed far past the cutoff
    primes = primes_up_to(200000)
    true_sq = sum(Fraction(1, p * p) for p in primes if p > 100)
    bound = prime_power_tail_sum(100, 2)
    assert bound >= true_sq
    assert bound == Fraction(1, 200)
    true_twin = sum(Fraction(1, (p - 1) ** 2) for p in primes if p > 100)
    assert twin_prime_tail_sum(100) >= true_twin


def test_twin_prime_constant_encloses_literature_value():
    for P in (1000, 100000):
        assert twin_prime_constant(P).contains(TWIN_CONSTANT)


def test_zeta_inverse_against_known_constants():
    z2 = zeta_inverse(2, 10000)
    assert z2.contains(BASEL_INVERSE)
    assert z2.width < Fraction(1, 10000)
    z3 = zeta_inverse(3, 2000)
    assert z3.contains(APERY_INVERSE)


def test_arithmetic_mode_switches_at_limit():
    small = line_white_prob(2, EXACT_PRODUCT_LIMIT)
    assert ARITHMETIC_EXACT == "exact-rational"
    assert _arithmetic(EXACT_PRODUCT_LIMIT) == ARITHMETIC_EXACT
    assert _arithmetic(EXACT_PRODUCT_LIMIT + 1) == ARITHMETIC_FIXED
    big = line_white_prob(2, 2 * EXACT_PRODUCT_LIMIT)
    assert big.contains(F_TARGETS[2]) and small.contains(F_TARGETS[2])


def test_second_moment_mode_follows_the_products_cutoff():
    # the products run to max(P, x), so x alone can cross the exact limit
    assert second_moment_bound(2, EXACT_PRODUCT_LIMIT - 1, 2).arithmetic == ARITHMETIC_EXACT
    assert second_moment_bound(2, EXACT_PRODUCT_LIMIT + 1, 2).arithmetic == ARITHMETIC_FIXED
    assert second_moment_bound(2, 2, EXACT_PRODUCT_LIMIT + 1).arithmetic == ARITHMETIC_FIXED


def test_second_moment_at_an_even_width_below_the_cutoff_names_the_cutoff():
    # with P <= x the tail starts at x, and at even x its lower end is 0
    for n, x, P in ((8, 100, 50), (8, 100, 100), (2, 10000, 2)):
        with pytest.raises(DomainError, match=f"P={P}; raise P above x={x}"):
            second_moment_bound(n, x, P)
    # the enclosures themselves stay valid, and an odd x or P > x is fine
    assert line_white_prob(100, 50).lo == 0
    assert second_moment_bound(8, 101, 50).r_upper >= 0
    assert second_moment_bound(8, 100, 101).r_upper >= 0


def test_pair_over_line_sq_consistent_with_quotient():
    for d, x in ((2, 16), (4, 16), (6, 32)):
        ratio = pair_ratio_base(x, 4000) * (2 * theta(d))
        f = line_white_prob(x, 4000)
        g = pair_line_prob(d, x, 4000)
        quotient = g * (f * f).reciprocal()
        # both enclose the same true ratio, so they must overlap
        assert ratio.lo <= quotient.hi and quotient.lo <= ratio.hi


def test_second_moment_report_assembly_and_golden_row():
    rep = second_moment_bound(4, 4, 128)
    f = rep.f_enclosure
    rebuilt = rep.offdiag_sum.hi + rep.diag_term.hi - 1
    assert rep.r_upper == max(Fraction(0), rebuilt)
    assert SECOND_MOMENT_CSV_HEADER == "n,x,P,f_lo,f_hi,r_upper"
    assert rep.csv_row() == "4,4,128,0.221221098160,0.228357262617,0.487840925251"
    assert 0 < f.lo <= f.hi < 1


def test_second_moment_bound_requires_x_at_least_n():
    with pytest.raises(DomainError):
        second_moment_bound(8, 4)


def test_second_moment_trend_small():
    values = [second_moment_bound(n, n).r_upper for n in (16, 32, 64)]
    assert values[0] >= values[1] >= values[2]
    assert all(v >= 0 for v in values)


# ---------------------------------------------------------------------------
# checked properties with fitted constants


def check_inverse_f_log_bound(x_max: int = 10_000, factor: int = 12) -> dict:
    """Verify 1/f(x) <= factor * log(x) for every integer x in [2, x_max].

    f is decreasing and log increasing, so checking 1/f(hi) <= factor*log(lo)
    on a geometric grid certifies the whole range.  Returns both sides at the
    tightest grid point plus the largest observed 1/(f(x) log x).
    """
    grid = [2, 3, 4, 5, 6, 8]
    g = 8
    while g < x_max:
        g = min(x_max, max(g + 1, int(g * 1.3)))
        grid.append(g)
    worst = None
    fitted = Fraction(0)
    prev = 2
    for xg in grid:
        P = max(2 * xg, 64)
        f_lo = line_white_prob(xg, P).lo
        bound = Fraction(1) / f_lo
        # rational lower bound on log(prev): shave the float a little
        log_lo = Fraction(math.log(prev)) * Fraction(999_999, 1_000_000)
        ratio = bound / log_lo
        if fitted < ratio:
            fitted = ratio
            worst = (prev, xg, float(bound), float(factor * log_lo))
        prev = xg
    return {
        # bound <= factor * log_lo at every grid point iff every ratio <= factor
        "ok": fitted <= factor,
        "factor": factor,
        "fitted_constant": float(fitted),
        "worst": worst,
    }


def test_inverse_f_stays_logarithmic():
    result = check_inverse_f_log_bound(x_max=2000, factor=12)
    assert result["ok"]
    assert result["fitted_constant"] < 12


def test_decimal_str_formatting():
    assert decimal_str(Fraction(1, 3)) == "0.333333333333"
    assert decimal_str(Fraction(25, 10)) == "2.5"
    assert decimal_str(Fraction(0)) == "0"
    # round-half-even at the 12th significant digit
    assert decimal_str(Fraction("0.1234567890125")) == "0.123456789012"
    assert decimal_str(Fraction("0.1234567890135")) == "0.123456789014"


# -- interval soundness properties -----------------------------------------

fractions = st.fractions(min_value=-4, max_value=4)
pos_fractions = st.fractions(min_value=Fraction(1, 100), max_value=4)


@given(fractions, fractions, fractions, fractions)
def test_interval_add_mul_soundness(a, b, c, d):
    x = Interval(min(a, b), max(a, b))
    y = Interval(min(c, d), max(c, d))
    mid_x, mid_y = x.midpoint, y.midpoint
    assert (x + y).contains(mid_x + mid_y)
    assert (x * y).contains(mid_x * mid_y)
    assert (x - y).contains(mid_x - mid_y)
    assert (-x).contains(-mid_x)


_PLACES = ("below 0", "across 0", "from 0 up", "above 0")


def _place(x, where):
    """x moved, keeping its width, to lie where the name says."""
    shift = {"below 0": -1 - x.hi, "across 0": -x.midpoint,
             "from 0 up": -x.lo, "above 0": 1 - x.lo}[where]
    return x + shift


@given(fractions, fractions, fractions, fractions,
       st.sampled_from(_PLACES), st.sampled_from(_PLACES))
def test_interval_mul_is_the_four_product_hull(a, b, c, d, where_x, where_y):
    x = _place(Interval(min(a, b), max(a, b)), where_x)
    y = _place(Interval(min(c, d), max(c, d)), where_y)
    products = [x.lo * y.lo, x.lo * y.hi, x.hi * y.lo, x.hi * y.hi]
    want = Interval(min(products), max(products))
    assert x * y == want
    assert y * x == want


@given(pos_fractions, pos_fractions)
def test_interval_reciprocal_soundness(a, b):
    x = Interval(min(a, b), max(a, b))
    assert x.reciprocal().contains(1 / x.midpoint)


@settings(max_examples=60)
@given(st.lists(st.tuples(st.integers(1, 50), st.integers(1, 50)).filter(
    lambda t: t[0] <= t[1]), min_size=1, max_size=40))
def test_product_accumulator_encloses_exact_product(factors):
    exact = Fraction(1)
    for num, den in factors:
        exact *= Fraction(num, den)
    # the i-th prime takes the i-th factor and every later prime 1; the fixed
    # point arithmetic starts above EXACT_PRODUCT_LIMIT
    Q = EXACT_PRODUCT_LIMIT + 1
    table = dict(zip(primes_up_to(Q), factors))
    for mode in (True, False):
        iv = _euler_product(lambda p: table.get(p, (1, 1)), Q, exact=mode)
        assert iv.contains(exact)
        if mode:
            assert iv.lo == iv.hi == exact


@pytest.mark.parametrize("x", [2, 3, 4, 7, 8, 64, 101, 512, 10**6 + 1])
@pytest.mark.parametrize("P", [2, 3, 50, 101, 3232])
def test_pair_ratio_tail_needs_no_checks(x, P):
    # with m the first odd integer above Q = max(P, x), every tail prime has
    # 2x/p^2 <= 1/2 and the log-sum bound eps stays at most 1/3
    Q = max(P, x)
    m = Q + 1 if Q % 2 == 0 else Q + 2
    assert 4 * x <= m * m
    eps = 4 * x * x * prime_power_tail_sum(Q, 4)
    assert eps <= Fraction(2, 3 * x) <= Fraction(1, 3)
    if Q <= 512:
        assert pair_ratio_base(x, P).lo > 0
