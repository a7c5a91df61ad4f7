"""Pure-integer pieces: factorization, the odd totient list, exact pair
sums, the odd-exponent family, square-free counts by the splitting
recursion, densities.

Trial-division factorization, the plain list of odd totients, the adders of
unreduced fractions, the odd-exponent counters, the recursive square-free
counter and the closed-form density type that every family shares need no
arrays, so this module, like the recursion engine, imports no numpy:
``import divrec``, ``oddly``, ``verify --suite lemma``, ``phi-claim``, most
``squarefree`` tables and the short ``phisum`` tables start without loading
it. Square-free counts call the flag walker of :mod:`divrec.densities`,
which sieves with numpy, only for the schedules it counts faster.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain, compress, repeat
from operator import floordiv
from typing import NamedTuple, Sequence

from .limits import (
    ENGINE_MAX_N,
    FACTORIZE_MAX_N,
    ORACLE_MAX_N,
    SIEVE_MAX_N,
    RangeLimitError,
    check_range,
    checked_points,
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


# ---------------------------------------------------------------------------
# family 2: square-free multiples of a square-free t


def squarefree_primes(t: int) -> tuple[int, ...]:
    """The primes of a square-free t, ascending; ValueError if t < 1 or t has
    a square factor, RangeLimitError past the factoring cap."""
    check_range("t", t, 1, FACTORIZE_MAX_N)
    factors = factorize(t)
    if any(e > 1 for _, e in factors):
        raise ValueError(f"t = {t} is not square-free")
    return tuple(p for p, _ in factors)


def predicted_density_squarefree(primes: Sequence[int]) -> DensityPrediction:
    """Density (6/pi**2) * prod 1/(p+1) of square-free multiples of prod p.

    ``primes`` must be distinct primes; the empty sequence gives the density
    of the square-free numbers themselves. Each prime p applies the limit
    D*alpha/(m - beta) of the splitting recursion G_tp(x) = G_t(x // p) -
    G_tp(x // p), which has m = p, alpha = 1 and beta = -1: D_tp = D_t/(p+1).
    """
    ps = list(primes)
    if len(set(ps)) != len(ps):
        shown_ps = ", ".join(map(shown, ps))
        raise ValueError(f"primes must be distinct, got {shown_ps}")
    factor = Fraction(6)
    for p in ps:
        check_prime(p)
        factor /= p + 1
    return DensityPrediction.of(factor, -1)


#: ``bytes.translate`` tables over Moebius codes: 0 for mu(d) = 0, 1 for
#: mu(d) = 1 and 2 for mu(d) = -1. A new prime factor swaps 1 and 2.
_NEGATE = bytes.maketrans(b"\1\2", b"\2\1")
_MU_PLUS = bytes.maketrans(b"\2", b"\0")
_MU_MINUS = bytes.maketrans(b"\1\2", b"\0\1")
_MU_NONZERO = bytes.maketrans(b"\2", b"\1")


def _moebius_codes(limit: int) -> bytearray:
    # entry d <= limit is the code of mu(d); the base primes reach every
    # prime up to isqrt(SIEVE_MAX_N), the largest limit the counter asks for
    codes = bytearray([1]) * (limit + 1)
    codes[0] = 0
    for p in base_primes():
        if p > limit:
            break
        codes[p::p] = codes[p::p].translate(_NEGATE)
        codes[p * p :: p * p] = bytes(len(range(p * p, limit + 1, p * p)))
    return codes


def count_squarefree_multiples_recursive(t: int, points: Sequence[int]) -> list[int]:
    """Counts of square-free multiples of t up to each of ascending ``points``,
    by the paper's splitting recursion in plain integers.

    The base is Q(x) = sum of mu(d) * (x // d**2) over d <= sqrt(x), the
    count of square-free numbers up to x. For a prime p not dividing t,
    Brown's splitting G_t(x // p) = G_tp(x // p) + G_tp(x) is the recursion
    G_tp(x) = G_t(x // p) - G_tp(x // p), which unrolls, as in
    :func:`count_oddly_divisible_fast`, to the alternating series
    G_tp(x) = sum over i >= 1 of (-1)**(i - 1) * G_t(x // p**i). Nested
    once per prime of t, G_t(x) is the sum of (-1)**(i_1 + ... + i_r - r) *
    Q(x // n) over n = p_1**i_1 * ... * p_r**i_r <= x, every i_j >= 1.
    Every Q(y) has y <= x // t, so Moebius values up to sqrt(points[-1] // t)
    serve every point, and Q(y) for y up to that bound is read from a
    table. A point x costs about sqrt(x) * prod 1/(sqrt(p) - 1) divisions.
    """
    return _recursive_counts(squarefree_primes(t), checked_points(points, SIEVE_MAX_N))


def _recursive_counts(primes: Sequence[int], pts: Sequence[int]) -> list[int]:
    # count_squarefree_multiples_recursive for the checked primes of t and
    # checked points
    t = math.prod(primes)
    top = pts[-1] if pts else 0
    terms = [(1, 1)]  # (n, sign) for every n <= top
    for p in primes:
        deeper = []
        for n, sign in terms:
            n *= p
            while n <= top:
                deeper.append((n, sign))
                n, sign = n * p, -sign
        terms = deeper
    root = math.isqrt(top // t)
    codes = _moebius_codes(root)
    plus = [d * d for d in compress(range(root + 1), codes.translate(_MU_PLUS))]
    minus = [d * d for d in compress(range(root + 1), codes.translate(_MU_MINUS))]
    small = list(accumulate(codes.translate(_MU_NONZERO)))  # Q(y), y <= root

    def series(x: int, ns: list[int]) -> int:
        # the sum of Q(x // n) over the n <= x of ascending ns: the Moebius
        # sum while x // n > root, the table after
        end = bisect_right(ns, x)
        mid = bisect_right(ns, x // (root + 1), 0, end)
        total = sum(map(small.__getitem__, map(floordiv, repeat(x), ns[mid:end])))
        for y in map(floordiv, repeat(x, mid), ns):
            total += sum(map(floordiv, repeat(y, bisect_right(plus, y)), plus))
            total -= sum(map(floordiv, repeat(y, bisect_right(minus, y)), minus))
        return total

    added = sorted(n for n, sign in terms if sign > 0)
    taken = sorted(n for n, sign in terms if sign < 0)
    return [series(x, added) - series(x, taken) for x in pts]


#: Seconds per unit of the recursion's work, sqrt(x) * prod 1/(sqrt(p) - 1)
#: summed over the points x, and per k <= points[-1] // t that the flag
#: walker sieves, plus the walker's fixed cost of importing numpy and
#: :mod:`divrec.densities`. Calibrated in process on a shared 2-vCPU x86
#: machine (Python 3.11, numpy 2.4) from paired runs of both paths on 12
#: schedules, t from 1 to 30030 and 6 to 14 823 points up to 1e9: the
#: recursion took 20-41 ns a unit, median 32, and the walker 1.0-2.0 ns a
#: k, median 1.5, on the schedules with at least 1e7 k; 20 paired fresh
#: interpreters took a median 0.145 s longer to import densities than arith.
RECURSION_S_PER_UNIT = 32e-9
SIEVE_S_PER_K = 1.5e-9
SIEVE_START_S = 0.145


def squarefree_path_costs(t: int, points: Sequence[int]) -> tuple[float, float]:
    """Estimated seconds for the recursion and for the flag walker to count
    the square-free multiples of t up to each of ascending ``points``.

    Both estimates read only t and the points, never the environment, so a
    given input always takes the same path.
    """
    return _path_costs(squarefree_primes(t), checked_points(points, SIEVE_MAX_N))


def _path_costs(primes: Sequence[int], pts: Sequence[int]) -> tuple[float, float]:
    # squarefree_path_costs for the checked primes of t and checked points
    weight = math.prod(1 / (math.sqrt(p) - 1) for p in primes)
    recursion = RECURSION_S_PER_UNIT * weight * sum(map(math.isqrt, pts))
    top = pts[-1] // math.prod(primes) if pts else 0
    return recursion, SIEVE_START_S + SIEVE_S_PER_K * top


def count_squarefree_multiples_at(t: int, points: Sequence[int]) -> list[int]:
    """Counts of square-free multiples of t up to each of ascending ``points``.

    Runs :func:`count_squarefree_multiples_recursive` or the flag walker
    :func:`divrec.densities.count_squarefree_multiples_sieved`, whichever
    :func:`squarefree_path_costs` expects to finish first. Both give the
    same counts. Only the walker loads numpy; it wins on dense schedules,
    where the recursion's cost per point adds up past one sieve of
    k <= points[-1] // t.
    """
    return squarefree_counts_at(squarefree_primes(t), checked_points(points, SIEVE_MAX_N))


def squarefree_counts_at(primes: Sequence[int], points: Sequence[int]) -> list[int]:
    """:func:`count_squarefree_multiples_at` on checked input: t is the
    product of the distinct ascending ``primes``, and ``points`` ascend
    from 0 to ``SIEVE_MAX_N``. Neither is checked again, so the estimate
    and the counter it picks read what their caller checked once.
    """
    recursion_s, walker_s = _path_costs(primes, points)
    if recursion_s <= walker_s:
        return _recursive_counts(primes, points)
    from . import densities

    t = math.prod(primes)
    return densities.squarefree_flag_counts(primes, [N // t for N in points])


def count_squarefree_multiples(t: int, N: int) -> int:
    """Count square-free r <= N with t | r, for square-free t."""
    return count_squarefree_multiples_at(t, [N])[0]
