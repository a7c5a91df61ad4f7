"""Counters, identity checkers, and closed-form densities for three families.

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

Each family pairs a brute-force or sieve-backed counter with the exact
identity behind it and the closed-form limit, so empirical ratios, algebra,
and predictions can be cross-checked independently. The first family needs
no sieve; it lives in :mod:`divrec.arith`.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from operator import attrgetter
from typing import Sequence

import numpy as np

from .accumulators import ExactFloatSum, ExactRatioSum

from .arith import DensityPrediction, factorize, is_prime
from .limits import (
    BROWN_CHECK_MAX_X,
    EXACT_PHI_SUM_MAX_N,
    PHI_CLAIM_MAX_X,
    SIEVE_MAX_N,
    check_range,
    segment_size_from_env,
    shown,
)
from .recursion import CountingFunction
from .sieves import iter_sieve_tables, squarefree_flags


def _checked_points(points: Sequence[int], cap: int) -> list[int]:
    pts = list(points)
    if pts != sorted(pts):
        raise ValueError("checkpoints must be in ascending order")
    for N in pts[:1] + pts[-1:]:
        check_range("N", N, 0, cap)
    return pts


def _cuts(step: int, points: list[int], lo: int, hi: int) -> list[int]:
    # one cut per checkpoint N whose last k = N // step lies in the segment
    # [lo, hi] of k (the first segment, lo = 1, also takes every N < step):
    # the number of the segment's entries up to that k
    first = bisect_left(points, lo * step) if lo > 1 else 0
    last = bisect_left(points, (hi + 1) * step)
    return [N // step - lo + 1 for N in points[first:last]]


# ---------------------------------------------------------------------------
# family 2: square-free multiples of a square-free t


def _squarefree_prime_factors(t: int) -> list[int]:
    check_range("t", t, 1)
    factors = factorize(t)
    if any(e > 1 for _, e in factors):
        raise ValueError(f"t = {t} is not square-free")
    return [p for p, _ in factors]


def count_squarefree_multiples(t: int, N: int) -> int:
    """Count square-free r <= N with t | r, for square-free t (sieve-backed)."""
    return count_squarefree_multiples_at(t, [N])[0]


def count_squarefree_multiples_at(t: int, points: Sequence[int]) -> list[int]:
    """Counts of square-free multiples of t up to each of ascending ``points``.

    The square-free multiples of t up to N are t*k for the square-free
    k <= N // t with gcd(k, t) = 1, so one ascending pass sieves only
    k <= points[-1] // t, and only their square-free flags.
    """
    primes = _squarefree_prime_factors(t)
    pts = _checked_points(points, SIEVE_MAX_N)
    top = pts[-1] // t if pts else 0
    size = segment_size_from_env()
    counts: list[int] = []
    running = 0
    for lo in range(1, top + 1, size):
        hi = min(lo + size - 1, top)
        flags = squarefree_flags(lo, hi, primes)
        done = 0
        for cut in [*_cuts(t, pts, lo, hi), None]:
            running += int(np.count_nonzero(flags[done:cut]))
            if cut is not None:
                counts.append(running)
                done = cut
    counts.extend([running] * (len(pts) - len(counts)))
    return counts


def _squarefree_prefix(t: int, limit: int) -> np.ndarray:
    # entry k = square-free multiples of t up to k*t, for 0 <= k <= limit // t
    primes = _squarefree_prime_factors(t)
    prefix = np.zeros(limit // t + 1, dtype=np.int64)
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
    _squarefree_prime_factors(t)
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if t % p == 0:
        raise ValueError(f"p = {p} already divides t = {t}")
    check_range("X", X, 1, BROWN_CHECK_MAX_X)

    f_pref = _squarefree_prefix(t, X // p)
    g_pref = _squarefree_prefix(t * p, X)
    bad = np.nonzero(f_pref != g_pref[np.arange(g_pref.size) // p] + g_pref)[0]
    # the first x <= X with x // (t*p) = j is j*t*p, or 1 for j = 0
    return max(1, int(bad[0]) * t * p) if bad.size else None


def predicted_density_squarefree(primes: Sequence[int]) -> DensityPrediction:
    """Density (6/pi**2) * prod 1/(p+1) of square-free multiples of prod p.

    ``primes`` must be distinct primes; the empty sequence gives the density
    of the square-free numbers themselves.
    """
    ps = list(primes)
    if len(set(ps)) != len(ps):
        shown_ps = ", ".join(map(shown, ps))
        raise ValueError(f"primes must be distinct, got {shown_ps}")
    factor = Fraction(6)
    for p in ps:
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        factor /= p + 1
    return DensityPrediction.of(factor, -1)


def squarefree_multiple_counts(t: int, limit: int) -> CountingFunction:
    """Prefix-table-backed counting function n -> #{square-free r <= n: t | r}.

    Valid for 0 <= n <= limit; the square-free flags of k <= limit // t are
    sieved up front, so build cost is one pass and each call is O(1). limit
    is capped like the Brown checker, which builds the same table.
    """
    check_range("limit", limit, 1, BROWN_CHECK_MAX_X)
    prefix = memoryview(_squarefree_prefix(t, limit))  # items are plain ints
    return _prefix_lookup(prefix, t, limit, f"square-free multiples of {t}")


def _prefix_lookup(
    values: Sequence, step: int, limit: int, description: str
) -> CountingFunction:
    # n -> values[n // step] for 0 <= n <= limit: entry k covers k*step
    def fn(n: int) -> Fraction:
        if n < 0 or n > limit:
            raise ValueError(f"n = {n} outside the prepared range [0, {limit}]")
        return Fraction(values[n // step])

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
        threads: Worker threads for sieving; never affects the result.

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

    Only k <= points[-1] // m is sieved: phi(m*k) is m*phi(k) times
    (p-1)/p for every prime p of m that does not divide k, and every
    intermediate stays at most m*k. Each term phi(n)/n is the same double as
    over a sieve of all n, and its sum is exact until it is read, so a row
    equals a from-scratch sum at its point bit for bit.
    """
    if mode == "exact":
        pairs = phi_ratio_pairs_at(m, points, threads=threads)
        return [Fraction(*pair) for pair in pairs]
    if mode != "float":
        raise ValueError(f"unknown mode {mode!r}, expected 'float' or 'exact'")
    return _phi_ratio_walk(m, points, False, threads)


def phi_ratio_pairs_at(
    m: int, points: Sequence[int], *, threads: int = 1
) -> list[tuple[int, int]]:
    """The exact sums of :func:`phi_ratio_sums_at` as unreduced pairs.

    Each sum is a (numerator, denominator) pair, not in lowest terms, so no
    point pays for the gcd of two numbers that grow to thousands of digits.
    The denominator is the lcm of the reduced denominators of the terms, so
    a pair does not depend on threads, segment size or the other points.
    """
    return _phi_ratio_walk(m, points, True, threads)


def _phi_ratio_walk(m: int, points: Sequence[int], exact: bool, threads: int) -> list:
    # the one totient-ratio walker: the unreduced exact pair or the rounded
    # float sum at each point
    check_range("modulus m", m, 1)
    pts = _checked_points(points, EXACT_PHI_SUM_MAX_N if exact else SIEVE_MAX_N)
    acc = ExactRatioSum() if exact else ExactFloatSum()
    read = attrgetter("unreduced" if exact else "value")
    sums: list = []
    top = pts[-1] // m if pts else 0
    for table in iter_sieve_tables(1, top, threads=threads) if top else ():
        cuts = _cuts(m, pts, table.lo, table.hi)
        phis = _phi_of_multiples(table, m)
        ns = np.arange(table.lo * m, table.hi * m + 1, m, dtype=np.int64)
        ratios = None if exact else phis / ns
        done = 0
        for cut in [*cuts, None]:
            if not exact:
                acc.extend(ratios[done:cut])
            elif cut == done + 1:
                # the phi-claim checker reads every prefix, so its pieces hold
                # one term; extend's numpy call cost made that suite 6 -> 20 ms
                # in process, and add gives the same pair
                acc.add(int(phis[done]), int(ns[done]))
            else:
                acc.extend(phis[done:cut], ns[done:cut])
            if cut is not None:
                sums.append(read(acc))
                done = cut
    sums.extend([read(acc)] * (len(pts) - len(sums)))
    return sums


def _phi_of_multiples(table, m: int) -> np.ndarray:
    # phi(m*k) for k in [table.lo, table.hi]; m = 1 is the table itself
    if m == 1:
        return table.phi
    phis = table.phi * m
    for p, _ in factorize(m):
        s = -(table.lo // -p) * p - table.lo  # first k divisible by p
        keep = phis[s::p].copy()  # p | k: m*phi(k) already has p's factor
        phis //= p
        phis *= p - 1
        phis[s::p] = keep
    return phis


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
    """
    check_range("t", t, 1)
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
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
    check_range("modulus m", m, 1)
    factor = Fraction(6, m)
    for p, _ in factorize(m):
        factor *= Fraction(p, p + 1)
    return DensityPrediction.of(factor, -1)


def phi_ratio_counts(m: int, limit: int) -> CountingFunction:
    """Prefix-backed exact map n -> sum of phi(k)/k over multiples k of m, k <= n.

    Valid for 0 <= n <= limit, capped like the phi-claim checker that keeps
    the same full-precision prefixes; built once, O(1) per call. Useful as
    the F of a recursion instance.
    """
    check_range("modulus m", m, 1)
    check_range("limit", limit, 1, PHI_CLAIM_MAX_X)
    values = [Fraction(*pair) for pair in _phi_ratio_prefix_pairs(m, limit)]
    return _prefix_lookup(values, m, limit, f"totient-ratio sum over multiples of {m}")
