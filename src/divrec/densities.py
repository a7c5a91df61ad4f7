"""The square-free and totient-ratio density families.

The families share one shape: a counting function F with known density drives
a recursion G(N) = alpha*F(N // m) + beta*G(N // m), so G inherits the
density D*alpha/(m - beta). Concretely:

* integers whose largest m-power divisor has an odd exponent
  (G(n) = n//m - G(n//m), density 1/(m+1));
* square-free integers divisible by a fixed square-free t, where the counts
  for t and for p*t split as F(x//p) = G(x//p) + G(x) for any new prime p
  (density 6/pi**2 * prod 1/(p_i + 1));
* totient-ratio sums over multiples of m, whose prefix sums satisfy an exact
  splitting identity level by level (density 6/(pi**2 m) * prod p_j/(p_j+1)).

The first family needs no sieve: its counters live in :mod:`divrec.arith`.
This module holds the other two. Square-free counts run the splitting
recursion in plain integers, or the flag walker where a cost rule expects
it to be faster; the splitting checker and the prefix-table counting
function sieve the same flags. The totient-ratio family is whole here.

Importing it loads no numpy. The flag walker, the checker and the prefix
tables import numpy and :mod:`divrec.sieves` where they start; the
recursion never does. The totient walk takes its totients from the plain
:func:`divrec.arith.odd_totients` for every exact sum and for float sums
up to ``PLAIN_WALK_MAX_K`` odd k; only longer float walks load the numpy
sieve and :mod:`divrec.accumulators`.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate, compress, pairwise, repeat
from math import gcd, isqrt, prod, sqrt
from operator import floordiv, truediv
from typing import TYPE_CHECKING, Callable, Sequence

from . import limits
from .arith import (
    FLOAT_UNIT_BITS,
    DensityPrediction,
    base_primes,
    check_prime,
    factorize,
    floor_chain,
    odd_totients,
    pair_sum,
    rounded_units,
    sum_pairs,
)
from .limits import (
    BROWN_CHECK_MAX_X,
    EXACT_PHI_SUM_MAX_N,
    FACTORIZE_MAX_N,
    PHI_CLAIM_MAX_X,
    SIEVE_MAX_N,
    check_range,
    checked_points,
    shown,
)
from .recursion import CountingFunction

if TYPE_CHECKING:
    import numpy as np


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
    :func:`divrec.arith.count_oddly_divisible_fast`, to the alternating series
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
    t = prod(primes)
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
    root = isqrt(top // t)
    codes = _moebius_codes(root)
    plus = [d * d for d in compress(range(root + 1), codes.translate(_MU_PLUS))]
    minus = [d * d for d in compress(range(root + 1), codes.translate(_MU_MINUS))]
    # Q(y), y <= root, built when first read: the one n = 1 of a t = 1
    # count reads it only at points x <= root
    small: list[int] = []

    def series(x: int, ns: list[int]) -> int:
        # the sum of Q(x // n) over the n <= x of ascending ns: the Moebius
        # sum while x // n > root, the table after
        end = bisect_right(ns, x)
        mid = bisect_right(ns, x // (root + 1), 0, end)
        if mid < end and not small:
            small.extend(accumulate(codes.translate(_MU_NONZERO)))
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
#: walker sieves, plus the walker's fixed cost of loading numpy and
#: :mod:`divrec.sieves`. Calibrated in process on a shared 2-vCPU x86
#: machine (Python 3.11, numpy 2.4) from paired runs of both paths on 12
#: schedules, t from 1 to 30030 and 6 to 14 823 points up to 1e9: the
#: recursion took 20-41 ns a unit, median 32, and the walker 1.0-2.0 ns a
#: k, median 1.5, on the schedules with at least 1e7 k. The fixed cost was
#: measured when this module loaded numpy at import; with bytecode cached,
#: 5 fresh interpreters on the same machine took 77-123 ms to import numpy
#: and sieves, and under 1 ms for this module. It keeps its value until it
#: is recalibrated from live runs.
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
    weight = prod(1 / (sqrt(p) - 1) for p in primes)
    recursion = RECURSION_S_PER_UNIT * weight * sum(map(isqrt, pts))
    top = pts[-1] // prod(primes) if pts else 0
    return recursion, SIEVE_START_S + SIEVE_S_PER_K * top


def count_squarefree_multiples_at(t: int, points: Sequence[int]) -> list[int]:
    """Counts of square-free multiples of t up to each of ascending ``points``.

    Runs :func:`count_squarefree_multiples_recursive` or the flag walker
    :func:`count_squarefree_multiples_sieved`, whichever
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
    counter = _recursive_counts if recursion_s <= walker_s else _flag_counts
    return counter(primes, points)


def count_squarefree_multiples(t: int, N: int) -> int:
    """Count square-free r <= N with t | r, for square-free t."""
    return count_squarefree_multiples_at(t, [N])[0]


def count_squarefree_multiples_sieved(t: int, points: Sequence[int]) -> list[int]:
    """Counts of square-free multiples of t up to each of ascending
    ``points``, by sieving square-free flags: the flag walker.

    The square-free multiples of t up to N are t*k for the square-free
    k <= N // t with gcd(k, t) = 1, so one ascending pass sieves only
    k <= points[-1] // t, and only their square-free flags. Its cost is
    one flag per k whatever the number of points, so
    :func:`count_squarefree_multiples_at` runs it for dense schedules; the
    tests hold the recursion to it.
    """
    return _flag_counts(squarefree_primes(t), checked_points(points, SIEVE_MAX_N))


def _flag_counts(primes: Sequence[int], points: Sequence[int]) -> list[int]:
    # count_squarefree_multiples_sieved for the checked primes of t and
    # checked points: at each point N, the number of k <= N // t with t*k
    # square-free
    import numpy as np

    from .sieves import squarefree_flags

    t = prod(primes)
    ks = [N // t for N in points]
    top = ks[-1] if ks else 0
    size = limits.SEGMENT_SIZE
    counts: list[int] = []
    running = 0
    for lo in range(1, top + 1, size):
        hi = min(lo + size - 1, top)
        flags = squarefree_flags(lo, hi, primes)
        # one cut per point whose last k lies in [lo, hi]: the number of the
        # segment's entries up to that k
        cuts = [k - lo + 1 for k in ks[len(counts) : bisect_right(ks, hi)]]
        done = 0
        for cut in [*cuts, None]:
            running += int(np.count_nonzero(flags[done:cut]))
            if cut is not None:
                counts.append(running)
                done = cut
    counts.extend([running] * (len(ks) - len(counts)))
    return counts


def _squarefree_prefix(primes: tuple[int, ...], limit: int) -> np.ndarray:
    # entry k = square-free multiples of t = prod(primes) up to k*t, for
    # 0 <= k <= limit // t
    import numpy as np

    from .sieves import squarefree_flags

    prefix = np.zeros(limit // prod(primes) + 1, dtype=np.int64)
    if prefix.size > 1:
        np.cumsum(squarefree_flags(1, prefix.size - 1, primes), out=prefix[1:])
    return prefix


def brown_identity_first_failure(t: int, p: int, X: int) -> int | None:
    """First x <= X violating F(x//p) = G(x//p) + G(x), or None.

    F counts square-free multiples of t, G of p*t; p must be a prime not
    dividing t. The identity holds for all x, so None is the expected
    outcome; the first counterexample is returned for reporting if a sieve
    or counting bug ever breaks it. Both sides depend on x only through
    j = x // (t*p): F is read at (x//p)//t = j and G at j // p and j, so
    only k <= X // (t*p) is sieved and compared for each side.
    """
    return squarefree_identity_first_failure(squarefree_primes(t), p, X)


def squarefree_identity_first_failure(
    primes: Sequence[int], p: int, X: int
) -> int | None:
    """:func:`brown_identity_first_failure` for t the product of the
    distinct ascending ``primes``, which are not checked again: t is not
    factored, so it may lie past the factoring cap. p and X are checked.
    """
    t = prod(primes)
    check_prime(p)
    if t % p == 0:
        raise ValueError(f"p = {p} already divides t = {t}")
    check_range("X", X, 1, BROWN_CHECK_MAX_X)
    import numpy as np

    f_pref = _squarefree_prefix(primes, X // p)
    g_pref = _squarefree_prefix((*primes, p), X)
    bad = np.nonzero(f_pref != g_pref[np.arange(g_pref.size) // p] + g_pref)[0]
    # the first x <= X with x // (t*p) = j is j*t*p, or 1 for j = 0
    return max(1, int(bad[0]) * t * p) if bad.size else None


def squarefree_multiple_counts(t: int, limit: int) -> CountingFunction:
    """Prefix-table-backed counting function n -> #{square-free r <= n: t | r}.

    Valid for 0 <= n <= limit; the square-free flags of k <= limit // t are
    sieved up front, so build cost is one pass and each call is O(1). limit
    is capped like the Brown checker, which builds the same table.
    """
    check_range("limit", limit, 1, BROWN_CHECK_MAX_X)
    # a memoryview's items are plain ints
    prefix = memoryview(_squarefree_prefix(squarefree_primes(t), limit))
    description = f"square-free multiples of {t}"
    return _prefix_lookup(lambda k: Fraction(prefix[k]), t, limit, description)


def _prefix_lookup(
    value: Callable[[int], Fraction], step: int, limit: int, description: str
) -> CountingFunction:
    # n -> value(n // step) for 0 <= n <= limit: entry k covers k*step
    def fn(n: int) -> Fraction:
        if n < 0 or n > limit:
            raise ValueError(f"n = {n} outside the prepared range [0, {limit}]")
        return value(n // step)

    return CountingFunction(fn, description)


# ---------------------------------------------------------------------------
# family 3: totient-ratio sums over multiples of m


def phi_ratio_sum(m: int, N: int, mode: str = "float", *, threads: int = 1):
    """Sum of phi(n)/n over multiples n of m with n <= N.

    Args:
        m: Modulus, at least 1 (m = 1 sums over every integer).
        N: Upper end of the range.
        mode: "float" for the exact sum of the double terms rounded once to
            a double (cap 1e9), "exact" for a full-precision Fraction
            (cap 1e5).
        threads: At least 1; above 1 a long float walk sieves ahead on
            one helper thread. Never affects the result.

    Returns:
        float in "float" mode, Fraction in "exact" mode. Both are exact sums
        of their terms, so neither depends on summation order, threads or
        segment size.
    """
    return phi_ratio_sums_at(m, [N], mode, threads=threads)[0]


def phi_ratio_sums_at(
    m: int, points: Sequence[int], mode: str = "float", *, threads: int = 1
) -> list:
    """:func:`phi_ratio_sum` at each of ascending ``points``, in one pass.

    Only the odd k <= points[-1] // m are sieved: phi(m*k) is
    phi(m)*phi(k) times p/(p-1) for every prime p of m that divides k, and
    every intermediate stays at most m*k. The even k come from the paper's
    splitting with p = 2: phi(2n)/(2n) is phi(n)/n for even n and half of
    it for odd n, so the sum over k <= K is the odd part O(K) plus the sum
    over k <= K // 2, less O(K // 2) / 2 for odd m. Each term phi(n)/n is
    the same double as over a sieve of all n, halving a double is exact,
    and every sum stays exact until it is read, so a row equals a
    from-scratch sum of all its terms at its point bit for bit. A float walk
    long enough for the numpy sieve splits the odd k again, with p = 3, and
    sieves only the k prime to 6.
    """
    threads = check_range("threads", threads, 1)
    if mode == "exact":
        return [Fraction(*pair) for pair in phi_ratio_pairs_at(m, points)]
    if mode != "float":
        raise ValueError(f"unknown mode {mode!r}, expected 'float' or 'exact'")
    return _phi_ratio_walk(m, points, False, threads)


def phi_ratio_pairs_at(m: int, points: Sequence[int]) -> list[tuple[int, int]]:
    """The exact sums of :func:`phi_ratio_sums_at` as unreduced pairs.

    Each sum is a (numerator, denominator) pair, not in lowest terms, so no
    point pays for the gcd of two numbers that grow to thousands of digits.
    The denominator is the lcm of the reduced denominators of the terms, so
    a pair does not depend on threads, segment size or the other points.
    The walk sieves odd k only, as in :func:`phi_ratio_sums_at`: between two
    points it sums the new odd terms of every halving of the range as
    balanced trees and folds them into the long sum once.
    """
    return _phi_ratio_walk(m, points, True, 1)  # exact walks never sieve


def _phi_ratio_walk(m: int, points: Sequence[int], exact: bool, threads: int) -> list:
    # the one totient-ratio walker: the unreduced exact pair or the rounded
    # float sum at each point. With f(n) = phi(n)/n, S(K) the sum of f(m*k)
    # over k <= K and O(K) its part over odd k, the paper's splitting with
    # p = 2 (f(2n) is f(n) for even n and f(n) / 2 for odd n) gives
    #     S(K) = O(K) + S(K // 2) - [m odd] O(K // 2) / 2
    #          = O(K) + w * (O(K >> 1) + O(K >> 2) + ...),  w = 1/2 or 1,
    # so only odd k are sieved. From one point's K' to the next K, S grows
    # by the odd terms in (K' >> a, K >> a] for every a, times w for a >= 1.
    m = check_range("modulus m", m, 1)
    pts = checked_points(points, EXACT_PHI_SUM_MAX_N if exact else SIEVE_MAX_N)
    # O is cut at every K >> a, the floor chain of each K on 2, at the
    # largest odd number up to it, (x - 1) | 1 (-1 for x = 0); pos counts
    # the pieces up to each cut
    ks = sorted({x - 1 | 1 for x in floor_chain([N // m for N in pts], 2)})
    pieces = _odd_pieces(m, ks, exact, threads)
    pos = {k: i for i, k in enumerate(ks, 1)} | {-1: 0}
    add = sum_pairs if exact else sum

    def sum_of(items: list):
        # a one-item list is its item, without a call into sum_pairs
        return items[0] if len(items) == 1 else add(items)

    def halve(piece):
        # a shift of the units, exact since every term is an even number of
        # them (see arith.FLOAT_UNIT_BITS). A pair keeps the lcm of
        # the reduced term denominators: phi(n) is even for odd n >= 3, so
        # every reduced numerator is even but that of f(1) = 1, whose half
        # puts a 2 into the lcm for m = 1 and K >= 2
        if not exact:
            return piece >> 1
        return (piece[0], 2 * piece[1]) if m == 1 else (piece[0] >> 1, piece[1])

    sums: list = []
    total, last = ((0, 1) if exact else 0), 0
    for K in (N // m for N in pts):
        if K > last:  # the a with K >> a > last >> a: a < (K ^ last).bit_length()
            terms = pieces[pos[last - 1 | 1] : pos[K - 1 | 1]]
            rest = [
                piece
                for a in range(1, (K ^ last).bit_length())
                for piece in pieces[pos[(last >> a) - 1 | 1] : pos[(K >> a) - 1 | 1]]
            ]
            if rest:
                terms.append(halve(sum_of(rest)) if m % 2 else sum_of(rest))
            if terms:
                # one fold into the long sum; a point of every-prefix reads
                # brings one piece, added to the total straight away
                new = sum_of(terms)
                total = pair_sum(*total, *new) if exact else total + new
            last = K
        sums.append(total if exact else rounded_units(total))
    return sums


#: Largest k whose float walk takes its totients from the plain-Python
#: :func:`divrec.arith.odd_totients` rather than the numpy sieve; exact walks
#: always do (their k stay at most EXACT_PHI_SUM_MAX_N). Set from paired runs
#: of both paths: see ``BENCH_small_walks.json``.
PLAIN_WALK_MAX_K = 1 << 17


def _odd_pieces(m: int, ks: list[int], exact: bool, threads: int) -> list:
    # entry i: the sum of f(m*k) over the odd k in (ks[i - 1], ks[i]] of the
    # ascending odd ks, the first from k = 1, as an unreduced pair or in
    # units of 2**-FLOAT_UNIT_BITS
    if not ks:
        return []
    if not exact and ks[-1] > PLAIN_WALK_MAX_K:
        return _sieved_pieces(m, ks, threads)
    phis = odd_totients(ks[-1])
    phi_m, primes = _totient_factors(m)
    if m > 1:
        phis = [v * phi_m for v in phis]
    for p in primes:
        # as in _phi_of_multiples: p | k every p entries from k = p
        fix = slice((p - 1) // 2, None, p)
        phis[fix] = [v // (p - 1) * p for v in phis[fix]]
    ns = range(m, m * ks[-1] + 1, 2 * m)
    cuts = [0, *((k + 1) // 2 for k in ks)]
    if exact:
        terms = [(ph // (g := gcd(ph, n)), n // g) for ph, n in zip(phis, ns)]
        return [sum_pairs(terms[a:b]) for a, b in pairwise(cuts)]
    # int / int is the correctly rounded double, as numpy's float64 quotient
    scale = float(1 << FLOAT_UNIT_BITS)
    units = [int(x * scale) for x in map(truediv, phis, ns)]
    running = list(accumulate(units, initial=0))
    return [running[b] - running[a] for a, b in pairwise(cuts)]


def _sieved_pieces(m: int, ks: list[int], threads: int) -> list[int]:
    # the float pieces of _odd_pieces from the numpy totient sieve, which
    # sieves only the k prime to 6. Every odd k is 3**a * j with j prime to
    # 6, and the paper's splitting with p = 3 gives f(m*k) = f(m*j) if 3 | m
    # or a = 0, and 2/3 of it otherwise. So with F1(y) the sum of f(m*j)
    # and F2(y) that of 2/3 f(m*j) over the j <= y prime to 6, the odd part
    # is, as in _phi_ratio_walk's split on 2,
    #     O(x) = F1(x) + R(x // 3),   R(y) = W(y) + R(y // 3),   R(0) = 0,
    # with W = F2 for 3 not dividing m and W = F1 for 3 | m; R is built
    # over the floor chain of the ks // 3 on 3, smallest first. This is
    # exact in units: a term of F2 is the double nearest 2 phi(m*j) /
    # (3*m*j), the same rational as phi(m*k) / (m*k), so the same double as
    # the term of k; and every term is at least 1/8, an even number of
    # units, so each sum and its parts are exact integers
    thirds = floor_chain([k // 3 for k in ks], 3)
    two_thirds = m % 3 != 0
    ones, twos = (ks, thirds) if two_thirds else (sorted({*ks, *thirds}), [])
    # the two classes prime to 6, walked one after the other
    (a1, a2), (b1, b2) = (_class_sums(m, c, ones, twos, threads) for c in (1, 5))
    f1 = {y: a + b for y, a, b in zip(ones, a1, b1)}
    w = {y: a + b for y, a, b in zip(twos, a2, b2)} if two_thirds else f1
    r = {0: 0}
    for y in thirds:
        r[y] = w[y] + r[y // 3]
    odd = [f1[x] + r[x // 3] for x in ks]
    return [b - a for a, b in pairwise([0, *odd])]


def _class_sums(
    m: int, c: int, ones: list[int], twos: list[int], threads: int
) -> tuple[list[int], list[int]]:
    # the running units of f(m*j), and of 2/3 f(m*j), over the j = c (mod 6)
    # up to each y of ascending ones, and of twos, from one step-6 walk to
    # ones[-1]; the 2/3 terms only over its first part, up to twos[-1].
    # Each segment streams through the accumulators a block at a time, with
    # only the cuts inside the block, so no array of segment length is built
    # but the sieve's own, and that is dropped before the next one is sieved.
    # A block holds BLOCK values on one thread and 4 * BLOCK on two, where
    # each numpy call hands the interpreter lock to the sieving helper
    import numpy as np

    from .accumulators import BLOCK, ExactFloatSum
    from .sieves import iter_sieve_tables

    # how many j of the class lie up to each y; none up to y < c
    cuts1 = [(y + 6 - c) // 6 for y in ones]
    cuts2 = [(y + 6 - c) // 6 for y in twos]
    sums1, sums2 = [0] * cuts1.count(0), [0] * cuts2.count(0)
    if not cuts1[-1]:
        return sums1, sums2
    count2 = cuts2[-1] if cuts2 else 0  # the j that take a 2/3 term too
    acc1, acc2 = ExactFloatSum(), ExactFloatSum()
    block = BLOCK if threads == 1 else 4 * BLOCK
    # m*j for the block's j from its first, as doubles: whole numbers below
    # 2**53, so moving on by a block adds exactly
    ns = np.arange(c * m, 6 * m * block, 6 * m, dtype=np.float64)
    ratios = np.empty(block)
    phis_m = np.empty(block) if m > 1 else None
    phi_m, primes = _totient_factors(m)
    factors = phi_m, [p for p in primes if p > 3]  # 3 divides no j
    base = 0  # how many j precede the block
    for table in iter_sieve_tables(c, ones[-1], threads=threads, step=6):
        for start in range(0, table.phi.size, block):
            size = min(block, table.phi.size - start)
            phis = table.phi[start : start + size]
            if m > 1:
                phis = _phi_of_multiples(phis, table.lo + 6 * start, factors, phis_m)
            # int32 totients or whole doubles, each exact as a double, so the
            # quotient is correctly rounded, as int / int is
            np.divide(phis, ns[:size], out=ratios[:size])
            sums1 += _block_sums(acc1, ratios[:size], cuts1, len(sums1), base)
            if base < count2:
                # phi / (1.5 * m*j): 1.5 * m*j = 3*m*j / 2, below 2**32, is
                # exact, so this is 2 phi / (3 m*j) correctly rounded
                two = min(size, count2 - base)
                np.multiply(ns[:two], 1.5, out=ratios[:two])
                np.divide(phis[:two], ratios[:two], out=ratios[:two])
                sums2 += _block_sums(acc2, ratios[:two], cuts2, len(sums2), base)
            ns += 6 * m * size
            base += size
        del table, phis  # phis may be a view of the table
    return sums1, sums2


def _block_sums(acc, values, cuts: list[int], done: int, base: int) -> list[int]:
    # add a block of values, whose first is the (base + 1)-th of its walk,
    # to acc, and return the running units at the cuts after the first done
    # that fall in the block: the number of the walk's values up to each
    here = cuts[done : bisect_right(cuts, base + values.size, done)]
    return acc.extend_at(values, [c - base for c in here])


def _phi_of_multiples(
    phi: np.ndarray, k: int, factors: tuple[int, list[int]], out: np.ndarray
) -> np.ndarray:
    # phi(m*j) for the j = k, k + 6, ... prime to 6 of the int32 entries of
    # phi, as whole doubles in out, from phi(m) and the primes of m above 3:
    # each product is exact, at most m*j < 2**53, and each division leaves a
    # whole number
    import numpy as np

    phi_m, primes = factors
    phis = np.multiply(phi, float(phi_m), out=out[: phi.size])
    for p in primes:
        # p | j from index -k / 6 (mod p) on, every p entries
        fix = phis[-k * pow(6, -1, p) % p :: p]
        fix /= p - 1
        fix *= p
    return phis


def _totient_factors(m: int) -> tuple[int, list[int]]:
    # phi(m) and the odd primes of m: phi(m*k) is phi(m)*phi(k) times
    # p/(p - 1) for each prime p of m that divides k, and no odd k is even
    primes = factorize(m)
    phi_m = prod((p - 1) * p ** (e - 1) for p, e in primes)
    return phi_m, [p for p, _ in primes if p > 2]


def _phi_ratio_prefix_pairs(step: int, limit: int) -> list[tuple[int, int]]:
    # entry k = the exact sum over the first k multiples of step (k*step <=
    # limit) as an unreduced (numerator, denominator) pair
    points = range(step, limit + 1, step)
    return [(0, 1)] + phi_ratio_pairs_at(step, points)


def phi_claim_first_failure(t: int, p: int, j: int, X: int) -> int | None:
    """First N <= X violating the exact totient-ratio splitting, or None.

    With S_d(x) the sum of phi(n)/n over multiples n of d up to x, the
    identity under test is, for prime p not dividing t and j >= 1:

        S_{t*p**j}(N) = ((p-1)/p) * S_t(N // p**j) + (1/p) * S_{t*p}(N // p**j)

    checked in full-precision rational arithmetic for every N up to X. Both
    sides depend on N only through i = N // (t*p**j): the left side and S_t
    are read at i, S_{t*p} at i // p. So each i is checked once, with the
    three sums as unreduced fractions L/L_d, F/F_d and G/G_d compared by
    cross-multiplication, p*L*F_d*G_d == L_d*((p-1)*F*G_d + G*F_d).

    The sums come from :func:`phi_ratio_pairs_at`, which itself applies this
    identity for p = 2 to sieve only odd multiples, so for p = 2 the check
    is partly the walker's own algebra. The walker oracle tests in
    ``tests/test_walkers.py`` keep it honest against a sieve of all n.
    """
    check_range("t", t, 1)
    check_prime(p)
    if t % p == 0:
        raise ValueError(f"p = {p} already divides t = {t}")
    check_range("j", j, 1)
    check_range("X", X, 1, PHI_CLAIM_MAX_X)

    pj = p**j
    lim = X // pj
    lhs = _phi_ratio_prefix_pairs(t * pj, X)
    f = _phi_ratio_prefix_pairs(t, lim)
    g = _phi_ratio_prefix_pairs(t * p, lim)

    for i in range(lim // t + 1):
        L, L_d = lhs[i]
        F, F_d = f[i]
        G, G_d = g[i // p]
        if p * L * F_d * G_d != L_d * ((p - 1) * F * G_d + G * F_d):
            return max(1, i * t * pj)  # the first N with N // (t*p**j) = i
    return None


def predicted_phi_density(m: int) -> DensityPrediction:
    """Limit (6/(pi**2 m)) * prod p/(p+1) of the ratio sum over N.

    The product runs over the distinct primes p dividing m; m = 1 gives the
    classical 6/pi**2.
    """
    check_range("modulus m", m, 1, FACTORIZE_MAX_N)
    factor = Fraction(6, m)
    for p, _ in factorize(m):
        factor *= Fraction(p, p + 1)
    return DensityPrediction.of(factor, -1)


def phi_ratio_counts(m: int, limit: int) -> CountingFunction:
    """Prefix-backed exact map n -> sum of phi(k)/k over multiples k of m, k <= n.

    Valid for 0 <= n <= limit, capped like the phi-claim checker that keeps
    the same full-precision prefixes as unreduced pairs; built once, and each
    call reduces the one pair it reads. Useful as the F of a recursion
    instance.
    """
    check_range("modulus m", m, 1)
    check_range("limit", limit, 1, PHI_CLAIM_MAX_X)
    pairs = _phi_ratio_prefix_pairs(m, limit)
    description = f"totient-ratio sum over multiples of {m}"
    return _prefix_lookup(lambda k: Fraction(*pairs[k]), m, limit, description)
