"""Pure-integer pieces: factorization, the odd totient list, floor chains,
exact pair sums, the odd-exponent family, the density type.

Trial-division factorization, the plain list of odd totients, the floor
chains, the adders of unreduced fractions, the odd-exponent counters and
the closed-form density type that every family shares need no arrays, so
this module, like the recursion engine, imports no numpy: ``import
divrec``, ``oddly`` and ``verify --suite lemma`` start without loading it.
The square-free family, its recursion as well as its flag walker, lives in
:mod:`divrec.densities`.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from itertools import chain, compress
from typing import Iterable, NamedTuple

from .limits import (
    ENGINE_MAX_N,
    FACTORIZE_MAX_N,
    ORACLE_MAX_N,
    SIEVE_MAX_N,
    RangeLimitError,
    check_range,
    shown,
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
    Each distinct n is trial-divided once per process: the factors are kept
    as a tuple, and every call returns a fresh list of them.
    """
    return list(_trial_division(check_range("n", n, 1, FACTORIZE_MAX_N)))


@lru_cache(maxsize=1024)
def _trial_division(n: int) -> tuple[tuple[int, int], ...]:
    factors = []
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
    return tuple(factors)


def is_prime(n: int) -> bool:
    """True iff n is prime (same cap as :func:`factorize`)."""
    return n >= 2 and factorize(n) == [(n, 1)]


def check_prime(p: int) -> None:
    """ValueError unless p is prime; RangeLimitError past the factoring cap.
    Both name p, not the n of :func:`factorize`."""
    if p > FACTORIZE_MAX_N:
        raise RangeLimitError(f"p = {shown(p)} exceeds the cap {FACTORIZE_MAX_N}")
    if not is_prime(p):
        raise ValueError(f"p = {shown(p)} is not prime")


def odd_totients(K: int) -> list[int]:
    """phi(k) for the odd k <= K, entry i for k = 2*i + 1, as plain ints.

    Every entry starts at k, and each odd prime p takes v -= v // p along
    its stride, every p-th entry from k = p, which leaves v = phi(k) exact
    at every step. The primes come from a byte sieve of the odd numbers up
    to sqrt(K); a prime above K / 3 has only itself in range. K is capped
    like the per-integer oracles: the list holds about 40 bytes an entry.
    """
    check_range("K", K, 0, ORACLE_MAX_N)
    phi = list(range(1, K + 1, 2))
    n = len(phi)
    prime = bytearray(min(n, 1)) + bytearray([1]) * (n - 1)  # entry 0 is k = 1
    for i in range(1, (math.isqrt(K) + 1) // 2):
        if prime[i]:
            s = 2 * i * (i + 1)  # the entry of p*p, p = 2*i + 1
            prime[s :: 2 * i + 1] = bytes(len(range(s, n, 2 * i + 1)))
    for i in compress(range(n), prime):
        p = 2 * i + 1
        if 3 * p > K:
            phi[i] = p - 1
        else:
            phi[i::p] = [v - v // p for v in phi[i::p]]
    return phi


def floor_chain(xs: Iterable[int], p: int) -> list[int]:
    """Every positive x // p**a, a >= 0, of the x in xs, ascending.

    These are the floor chains x, x // p, x // p**2, ... that the recursion
    G(N) = alpha*F(N // m) + beta*G(N // m) reads with p = m, since
    (x // p) // p = x // p**2. Each chain stops at a value already taken,
    for the rest of it is taken too. p is at least 2.
    """
    taken: set[int] = set()
    for x in xs:
        while x > 0 and x not in taken:
            taken.add(x)
            x //= p
    return sorted(taken)


def divisibility_exponent(n: int, m: int) -> int:
    """Largest t with m**t dividing n, for n >= 1 and m >= 2."""
    check_range("n", n, 1)
    check_range("m", m, 2)
    t = 0
    while n % m == 0:
        n //= m
        t += 1
    return t


#: Exact float sums count in units of 2**-FLOAT_UNIT_BITS. Their terms are
#: totient ratios phi(n)/n, the product of (p - 1)/p over the primes of n,
#: so least at the product of the first primes: up to SIEVE_MAX_N that is
#: n = 2*3*...*23, where phi(n)/n = 0.163 > 2**-3. A double in [2**-3, 1]
#: is a multiple of 2**-55, so every term is a whole, even number of units.
FLOAT_UNIT_BITS = 56


def rounded_units(units: int) -> float:
    """``units`` units of 2**-FLOAT_UNIT_BITS rounded to the nearest double,
    once: CPython rounds int / int correctly."""
    return units / (1 << FLOAT_UNIT_BITS)


def pair_sum(a: int, b: int, c: int, d: int) -> tuple[int, int]:
    """a/b + c/d as the pair a*(d/g) + c*(b/g) over (b/g)*d = lcm(b, d),
    g = gcd(b, d): the numerator is not reduced against the lcm."""
    g = math.gcd(b, d)
    b //= g
    return a * (d // g) + c * b, b * d


def sum_pairs(nodes: list[tuple[int, int]]) -> tuple[int, int]:
    """Sum of unreduced (numerator, denominator) pairs as a balanced tree,
    over the lcm of their denominators and not reduced; [] sums to (0, 1)."""
    if not nodes:
        return 0, 1
    while len(nodes) > 1:
        odd = nodes[-1:] if len(nodes) % 2 else []
        nodes = [pair_sum(*x, *y) for x, y in zip(nodes[::2], nodes[1::2])] + odd
    return nodes[0]


class DensityPrediction(NamedTuple):
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
