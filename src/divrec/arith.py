"""Pure-integer pieces: factorization, the odd-exponent family, densities.

Trial-division factorization, the odd-exponent counters and the closed-form
density type that every family shares need no arrays, so this module, like
the recursion engine, imports no numpy: ``import divrec``, ``oddly`` and
``verify --suite lemma`` start without loading it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, compress

from .limits import (
    ENGINE_MAX_N,
    FACTORIZE_MAX_N,
    ORACLE_MAX_N,
    SIEVE_MAX_N,
    check_range,
)

#: (prime, exponent) pairs, primes ascending.
Factorization = list[tuple[int, int]]

#: pi**2 to 20 significant digits (rounds to the nearest double).
PI_SQUARED = 9.8696044010893586188


@lru_cache(maxsize=1)
def base_primes() -> tuple[int, ...]:
    """The primes up to sqrt(SIEVE_MAX_N), enough to sieve any permitted
    segment and to trial-divide any n <= SIEVE_MAX_N."""
    limit = math.isqrt(SIEVE_MAX_N) + 1
    mask = bytearray([1]) * (limit + 1)
    mask[:2] = b"\0\0"
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return tuple(compress(range(limit + 1), mask))


def factorize(n: int) -> Factorization:
    """Factor n by trial division; primes ascending, exponents positive.

    Accepts 1 <= n <= ``FACTORIZE_MAX_N``. ``factorize(1)`` is the empty list.
    """
    check_range("n", n, 1, FACTORIZE_MAX_N)
    factors: Factorization = []
    m = n
    # base primes cover n <= 1e9; above that, odd candidates continue the walk
    base = base_primes()
    for p in chain(base, itertools.count(base[-1] + 2, 2)):
        if p * p > m:
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                e += 1
                m //= p
            factors.append((p, e))
    if m > 1:
        factors.append((m, 1))
    return factors


def is_prime(n: int) -> bool:
    """True iff n is prime (same cap as :func:`factorize`)."""
    return n >= 2 and factorize(n) == [(n, 1)]


def divisibility_exponent(n: int, m: int) -> int:
    """Largest t with m**t dividing n, for n >= 1 and m >= 2."""
    check_range("n", n, 1)
    check_range("m", m, 2)
    t = 0
    while n % m == 0:
        n //= m
        t += 1
    return t


@dataclass(frozen=True)
class DensityPrediction:
    """A closed-form density split into its rational part and pi power.

    The predicted value is ``exact_factor * (pi**2)**pi_squared_power`` with
    ``pi_squared_power`` either 0 (fully rational) or -1 (one reciprocal
    pi**2). ``float_value`` is that product rounded once to a double, pi**2
    being represented by :data:`PI_SQUARED`.
    """

    exact_factor: Fraction
    pi_squared_power: int
    float_value: float

    @classmethod
    def of(cls, exact_factor: Fraction, pi_squared_power: int) -> DensityPrediction:
        """The prediction with its ``float_value`` computed."""
        if pi_squared_power == 0:
            value = float(exact_factor)
        else:
            value = float(exact_factor * Fraction(PI_SQUARED) ** pi_squared_power)
        return cls(exact_factor, pi_squared_power, value)


# ---------------------------------------------------------------------------
# family 1: largest m-power divisor has odd exponent


def count_oddly_divisible_oracle(m: int, N: int) -> int:
    """Count 1 <= i <= N whose m-adic valuation is odd, by direct inspection.

    Quadratic-ish and deliberately independent of the recursion: every
    multiple of m has its exponent measured by repeated division.
    """
    check_range("modulus m", m, 2)
    check_range("N", N, 0, ORACLE_MAX_N)
    count = 0
    for i in range(m, N + 1, m):
        if divisibility_exponent(i, m) % 2 == 1:
            count += 1
    return count


def count_oddly_divisible_fast(m: int, N: int) -> int:
    """O(log N) count of the same set via G(n) = n//m - G(n//m).

    Unrolled, the recursion is the alternating series
    N//m - N//m**2 + N//m**3 - ..., since (N//m**i)//m = N//m**(i+1).
    """
    check_range("modulus m", m, 2)
    check_range("N", N, 0, ENGINE_MAX_N)
    count, sign, q = 0, 1, N // m
    while q:
        count += sign * q
        sign, q = -sign, q // m
    return count


def predicted_density_oddly(m: int) -> DensityPrediction:
    """Density 1/(m+1) of integers whose m-exponent is odd."""
    check_range("modulus m", m, 2)
    return DensityPrediction.of(Fraction(1, m + 1), 0)
