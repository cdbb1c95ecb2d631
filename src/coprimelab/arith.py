"""Exact and enclosed evaluation of the colouring's number-theoretic constants.

All infinite Euler products are split into an exactly evaluated truncated part
(primes <= P) and a two-sided tail bound, packaged as an Interval that is
guaranteed to contain the true real value.  Elementary inequalities only:

    -2t <= log(1 - t) <= -t            for 0 <= t <= 1/2          (log bounds)
    |log((1 - 2u)/(1 - u)^2)| <= 4u^2  for 0 <= u <= 1/4          (pair ratio)
    sum over odd k >= m of k^-s <= (m-1)^(1-s) / (2(s-1))         (midpoint rule)

The last line uses convexity of t^-s; every prime beyond any truncation point
P >= 2 is odd, which is where the extra factor 1/2 over the plain integral
bound comes from.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from decimal import Decimal, localcontext, ROUND_HALF_EVEN
from fractions import Fraction
from functools import cached_property, lru_cache

from .errors import SIZE_BUDGET, DomainError

# Truncated products with P at most this bound are accumulated as exact
# rationals; larger ones switch to 128-bit fixed-point with directed rounding.
EXACT_PRODUCT_LIMIT = 10_000
_FIXED_BITS = 128
_FIXED_ONE = 1 << _FIXED_BITS

ARITHMETIC_EXACT = "exact-rational"
ARITHMETIC_FIXED = f"fixed-point-{_FIXED_BITS}bit-directed"


# ---------------------------------------------------------------------------
# intervals


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi] with rational endpoints; an enclosure."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty interval: {self.lo} > {self.hi}")

    @staticmethod
    def point(value) -> "Interval":
        q = Fraction(value)
        return Interval(q, q)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains(self, value) -> bool:
        q = Fraction(value)
        return self.lo <= q <= self.hi

    def __add__(self, other):
        other = _as_interval(other)
        return Interval(self.lo + other.lo, self.hi + other.hi)

    __radd__ = __add__

    def __neg__(self):
        return Interval(-self.hi, -self.lo)

    def __sub__(self, other):
        return self + (-_as_interval(other))

    def __rsub__(self, other):
        return _as_interval(other) + (-self)

    def __mul__(self, other):
        other = _as_interval(other)
        if self.lo >= 0 and other.lo >= 0:  # the bounds' products need no sorting
            return Interval(self.lo * other.lo, self.hi * other.hi)
        products = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return Interval(min(products), max(products))

    __rmul__ = __mul__

    def reciprocal(self) -> "Interval":
        if self.lo <= 0 <= self.hi:
            raise DomainError("reciprocal of an interval containing zero")
        return Interval(1 / self.hi, 1 / self.lo)


def _as_interval(value) -> Interval:
    if isinstance(value, Interval):
        return value
    return Interval.point(value)


# ---------------------------------------------------------------------------
# primes


@dataclass(frozen=True, eq=False)
class PrimeTable:
    """All primes up to a limit, ascending, as one flag byte per odd number:
    byte i is 1 iff 2i + 1 is prime, except byte 0, which stands for 2.
    Iteration, len and .primes give Python ints, whose products never wrap,
    without numpy; .array is the read-only int64 array, built on first use."""

    flags: bytearray

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(self)

    def __len__(self) -> int:
        return self.flags.count(1)

    def __contains__(self, k: int) -> bool:
        i = k // 2
        return k == 2 or (k % 2 == 1 and 0 < i < len(self.flags) and self.flags[i] == 1)

    def __iter__(self):
        odd = itertools.compress(range(3, 2 * len(self.flags), 2), memoryview(self.flags)[1:])
        return itertools.chain((2,), odd)

    @cached_property
    def array(self) -> np.ndarray:
        import numpy as np

        primes = np.flatnonzero(np.frombuffer(self.flags, dtype=np.uint8)).astype(
            np.int64, copy=False)
        primes *= 2
        primes += 1
        primes[0] = 2
        primes.flags.writeable = False
        return primes


@lru_cache(maxsize=1)
def primes_up_to(limit: int) -> PrimeTable:
    """The one prime sieve; every caller in a process shares the last table."""
    if limit < 2:
        raise DomainError(f"prime table needs limit >= 2, got {limit}")
    if limit > SIZE_BUDGET:  # the sieve takes (limit + 1) / 2 bytes
        raise DomainError(f"prime table limit {limit} exceeds the budget of {SIZE_BUDGET}")
    n = (limit + 1) // 2
    flags = bytearray(b"\x01") * n
    # the multiples of an odd prime p from p^2 on sit at every p-th byte from
    # p^2 // 2; 3 has the most of them, so one zero buffer of that length
    # serves every prime
    zero = bytearray(n // 3 + 1)
    for i in range(1, (math.isqrt(limit) - 1) // 2 + 1):
        if flags[i]:
            p = 2 * i + 1
            start = p * p // 2
            flags[start::p] = zero[: (n - 1 - start) // p + 1]
    return PrimeTable(flags)


def smallest_prime_factors(limit: int) -> np.ndarray:
    """spf[k] = least prime factor of k, for 0 <= k <= limit (spf[0]=spf[1]=0)."""
    import numpy as np

    if limit < 1:
        raise DomainError("spf table needs limit >= 1")
    spf = np.zeros(limit + 1, dtype=np.int64)
    # a composite k has its least prime factor p <= sqrt(k) and is a multiple
    # of p from p^2 on; marking in descending order lets the least p write last
    if limit >= 4:
        for p in primes_up_to(math.isqrt(limit)).array[::-1]:
            spf[p * p :: p] = p
    unmarked = np.flatnonzero(spf == 0)[2:]
    spf[unmarked] = unmarked
    return spf


def _odd_prime_factors(n: int) -> list[int]:
    out = []
    while n % 2 == 0:
        n //= 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 2
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# Euler products: directed accumulation and tail enclosures


def _arithmetic(Q: int) -> str:
    """How an Euler product over the primes up to Q is taken, unless exact is forced."""
    return ARITHMETIC_EXACT if Q <= EXACT_PRODUCT_LIMIT else ARITHMETIC_FIXED


def _euler_product(factor, Q: int, exact: bool = False) -> Interval:
    """Enclosure of the product over primes p <= Q, ascending, of factor(p) = (num, den).

    Exact arithmetic keeps an unreduced numerator and denominator, reduced
    once; fixed point keeps a floor and a ceiling scaled by 2^_FIXED_BITS.
    """
    exact = exact or _arithmetic(Q) == ARITHMETIC_EXACT
    a = b = 1 if exact else _FIXED_ONE
    for p in primes_up_to(Q):
        num, den = factor(p)
        if not num >= 0 < den:  # the directed rounding needs these signs
            raise ValueError("factors must be nonnegative with positive denominator")
        if exact:
            a *= num
            b *= den
        else:
            a = (a * num) // den
            b = -((-b * num) // den)
    if exact:
        return Interval.point(Fraction(a, b))
    return Interval(Fraction(a, _FIXED_ONE), Fraction(b, _FIXED_ONE))


def _first_odd_above(P: int) -> int:
    # every prime beyond P >= 2 is odd, so none is smaller than this
    return P + 1 if P % 2 == 0 else P + 2


def prime_power_tail_sum(P: int, s: int) -> Fraction:
    """Upper bound for sum of p^-s over primes p > P (s >= 2, P >= 2).

    Every prime > P is odd and >= the first odd integer m > P; odd-integer
    midpoint rule gives (m-1)^(1-s) / (2(s-1)).
    """
    if P < 2 or s < 2:
        raise DomainError("tail sum defined for P >= 2, s >= 2")
    m = _first_odd_above(P)
    return Fraction(1, 2 * (s - 1) * (m - 1) ** (s - 1))


def _tail_one_minus(a: int, P: int, s: int = 2, total: Fraction | None = None) -> Interval:
    """Enclosure [1 - 2 total, 1] of the product over primes p > P of (1 - t_p).

    Needs 0 <= t_p <= a/p^s <= 1/2, checked at the first odd m > P; total
    bounds the sum of the t_p and defaults to a * prime_power_tail_sum(P, s).
    """
    m = _first_odd_above(P)
    if 2 * a > m**s:
        raise DomainError(
            f"tail bound invalid: factor {a}/p^{s} exceeds 1/2 at p={m}; raise P"
        )
    if total is None:
        total = a * prime_power_tail_sum(P, s)
    return Interval(max(Fraction(0), 1 - 2 * total), Fraction(1))


def zeta_inverse(d: int, P: int) -> Interval:
    """Enclosure of the product over all primes of (1 - p^-d)."""
    if d < 2:
        raise DomainError(f"need d >= 2, got {d}")
    if P < 2:
        raise DomainError(f"need P >= 2, got {P}")
    tail = _tail_one_minus(1, P, d)
    return _euler_product(lambda p: (p**d - 1, p**d), P) * tail


# ---------------------------------------------------------------------------
# single-line and pair-line probabilities


def _white_factor(d: int, x: int):
    """p -> 1 - a/p^2, a = min(p,x) if p | d else 2 min(p,x).

    The chance that the mod-p class misses both lines at distance d; d = 0
    puts them on one line, so every p divides d and the factor is that line's.
    """

    def factor(p):
        m = min(p, x)
        return p * p - (m if d % p == 0 else 2 * m), p * p

    return factor


def line_white_trunc(x: int, P: int) -> Fraction:
    """Exact truncated product over p <= P of (1 - min(p,x)/p^2)."""
    if x < 1 or P < 2:
        raise DomainError(f"need x >= 1 and P >= 2, got x={x}, P={P}")
    return _euler_product(_white_factor(0, x), P, exact=True).lo


def line_white_prob(x: int, P: int) -> Interval:
    """Enclosure of the full product over all primes of (1 - min(p,x)/p^2).

    Factors up to max(P, x) are taken exactly so every tail prime has
    min(p,x) = x; the tail is then a clean product of (1 - x/p^2) terms.
    """
    if x < 1 or P < 2:
        raise DomainError(f"need x >= 1 and P >= 2, got x={x}, P={P}")
    Q = max(P, x)
    tail = _tail_one_minus(x, Q)
    return _euler_product(_white_factor(0, x), Q) * tail


def _check_pair(d: int, x: int) -> None:
    if d < 1:
        raise DomainError("pair separation must be >= 1")
    if d > x:
        raise DomainError(f"separation d={d} exceeds x={x}")


def pair_line_trunc(d: int, x: int, P: int) -> Fraction:
    """Exact truncated product for the two-line joint probability."""
    _check_pair(d, x)
    if P < 2:
        raise DomainError("P >= 2 required")
    return _euler_product(_white_factor(d, x), P, exact=True).lo


def pair_line_prob(d: int, x: int, P: int) -> Interval:
    """Enclosure of E[X_0 X_d]: both lines at distance d white, window width x.

    Odd separations give the exact zero interval (the residue classes mod 2 of
    the two lines differ, so one of them always meets the mod-2 coset).
    """
    _check_pair(d, x)
    if d % 2 == 1:
        if x >= 2:
            return Interval.point(0)
        raise DomainError("need x >= 2 for the mod-2 argument")
    if P < 2:
        raise DomainError("P >= 2 required")
    Q = max(P, x)
    tail = _tail_one_minus(2 * x, Q)
    return _euler_product(_white_factor(d, x), Q) * tail


# ---------------------------------------------------------------------------
# theta, phi and their identities


def theta(d: int) -> Fraction:
    """Product over odd primes p dividing d of (p-1)/(p-2); d must be even."""
    if d < 2 or d % 2 == 1:
        raise DomainError(f"theta defined for even d >= 2, got {d}")
    value = Fraction(1)
    for p in _odd_prime_factors(d):
        value *= Fraction(p - 1, p - 2)
    return value


def phi_sqf(k: int) -> Fraction:
    """Product over primes p dividing k of 1/(p-2), for odd squarefree k >= 1."""
    if k < 1 or k % 2 == 0:
        raise DomainError(f"phi_sqf defined for odd k >= 1, got {k}")
    primes = _odd_prime_factors(k)
    if math.prod(primes) != k:
        f = next(p for p in primes if k % (p * p) == 0)
        raise DomainError(f"{k} is not squarefree (repeated factor {f})")
    value = Fraction(1)
    for p in primes:
        value *= Fraction(1, p - 2)
    return value


def theta_divisor_identity_check(d: int) -> bool:
    """True iff theta(d) equals the sum of phi over odd squarefree divisors of d."""
    if d < 2 or d % 2 == 1:
        raise DomainError(f"identity stated for even d >= 2, got {d}")
    odd_primes = _odd_prime_factors(d)
    sizes = range(len(odd_primes) + 1)
    divisors = [math.prod(c) for r in sizes for c in itertools.combinations(odd_primes, r)]
    return sum(phi_sqf(k) for k in divisors) == theta(d)


def twin_prime_tail_sum(P: int) -> Fraction:
    """Upper bound for sum of (p-1)^-2 over primes p > P >= 3.

    p-1 runs over even integers >= m-1 where m is the first odd integer > P;
    midpoint rule over even integers gives 1/(2(m-2)).
    """
    if P < 3:
        raise DomainError("twin tail needs P >= 3")
    m = _first_odd_above(P)
    return Fraction(1, 2 * (m - 2))


def twin_prime_constant(P: int) -> Interval:
    """Enclosure of the product over odd primes of (1 - (p-1)^-2)."""
    if P < 3:
        raise DomainError(f"need P >= 3, got {P}")

    def factor(p):
        q = p - 1
        return (1, 1) if p == 2 else (q * q - 1, q * q)

    # every tail prime p >= 5 has (p-1)^-2 <= 2/p^2
    tail = _tail_one_minus(2, P, total=twin_prime_tail_sum(P))
    return _euler_product(factor, P) * tail


def _phi_terms(N: int):
    """Yield (k, unit_denominator) with phi_sqf(k) = 1/unit for odd squarefree k <= N."""
    if N < 1:
        raise DomainError("N >= 1 required")
    yield 1, 1
    if N < 3:
        return
    spf = smallest_prime_factors(N)
    for k in range(3, N + 1, 2):
        n = k
        unit = 1
        while n > 1:
            p = int(spf[n])
            n //= p
            if n % p == 0:
                break  # not squarefree
            unit *= p - 2
        else:
            yield k, unit


def phi_partial_sum_interval(N: int, weighted: bool) -> Interval:
    """Directed fixed-point enclosure of the sum of phi_sqf(k) (or
    phi_sqf(k)/k) over odd squarefree k <= N, cheap for large N."""
    lo = 0
    hi = 0
    for k, unit in _phi_terms(N):
        den = unit * k if weighted else unit
        lo += _FIXED_ONE // den
        hi += -((-_FIXED_ONE) // den)
    return Interval(Fraction(lo, _FIXED_ONE), Fraction(hi, _FIXED_ONE))


# ---------------------------------------------------------------------------
# the second-moment upper bound


@dataclass(frozen=True)
class SecondMomentReport:
    """Chebyshev upper bound on the no-white-line probability for n lines.

    r_upper bounds the probability for the full infinite-prime model: the f
    and pair enclosures carry explicit tails for every prime beyond P, and
    truncating the sampler at any P only makes white lines more likely, so the
    bound also covers every truncated model.
    """

    n: int
    x: int
    P: int
    f_enclosure: Interval
    offdiag_sum: Interval
    diag_term: Interval
    r_upper: Fraction
    arithmetic: str

    def csv_row(self) -> str:
        return ",".join(
            [
                str(self.n),
                str(self.x),
                str(self.P),
                decimal_str(self.f_enclosure.lo),
                decimal_str(self.f_enclosure.hi),
                decimal_str(self.r_upper),
            ]
        )


SECOND_MOMENT_CSV_HEADER = "n,x,P,f_lo,f_hi,r_upper"


def pair_ratio_base(x: int, P: int) -> Interval:
    """Enclosure of the product over odd primes of (1-2m/p^2)/(1-m/p^2)^2, m=min(p,x).

    This is the separation-independent part of the pair/line-squared ratio;
    multiplying by 2*theta(d) gives the full ratio for even separation d <= x.
    The tail factors are 1 + O(x^2/p^4), so the enclosure stays tight at
    moderate P, unlike the quotient of the two separate enclosures.
    """
    if x < 2:
        raise DomainError("need x >= 2")
    if P < 2:
        raise DomainError("P >= 2 required")
    Q = max(P, x)

    def factor(p):
        m = min(p, x)
        return (1, 1) if p == 2 else ((p * p - 2 * m) * p * p, (p * p - m) ** 2)

    # |log factor| <= 4 (x/p^2)^2 once x/p^2 <= 1/4; every tail prime is at least
    # m > Q >= x, and 4x <= (x+1)^2 <= m^2, while eps <= 2/(3x) <= 1/3 keeps 1 - eps > 0
    eps = 4 * x * x * prime_power_tail_sum(Q, 4)
    tail = Interval(1 - eps, 1 / (1 - eps))
    return _euler_product(factor, Q) * tail


def second_moment_bound(n: int, x: int, P: int | None = None) -> SecondMomentReport:
    """Upper bound for the probability that none of n consecutive lines of
    width x is fully white, via the exact finite second-moment identity."""
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    if x < n:
        raise DomainError(f"need x >= n, got x={x} < n={n}")
    if P is None:
        P = 32 * x

    f_enc = line_white_prob(x, P)
    if f_enc.lo <= 0:
        # the tail beyond an even x = max(P, x) is enclosed only by [0, 1]
        raise DomainError(f"line density enclosure reaches 0 at P={P}; raise P above x={x}")
    base = pair_ratio_base(x, P)
    weight = sum((n - d) * theta(d) for d in range(2, n + 1, 2))
    offdiag = base * (Fraction(4 * weight, n * n))
    diag = f_enc.reciprocal() * Fraction(1, n)
    total = offdiag + diag - 1
    r_upper = total.hi if total.hi > 0 else Fraction(0)
    # the products run to max(P, x), as in line_white_prob and pair_ratio_base
    return SecondMomentReport(n, x, P, f_enc, offdiag, diag, r_upper, _arithmetic(max(P, x)))


# ---------------------------------------------------------------------------
# formatting


def decimal_str(value) -> str:
    """Decimal string with 12 significant digits, round half to even."""
    q = Fraction(value)
    with localcontext() as ctx:
        ctx.prec = 12
        ctx.rounding = ROUND_HALF_EVEN
        d = Decimal(q.numerator) / Decimal(q.denominator)
        return format(d, "f")
