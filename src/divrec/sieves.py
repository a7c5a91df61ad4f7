"""Segmented sieves for Euler's totient and square-free flags.

A segment is sieved with the primes up to sqrt(hi): each prime contributes
its factor to the totient in place, and :func:`squarefree_flags` clears the
multiples of its square. Whatever remains of an entry after dividing out those
primes is either 1 or a single prime above sqrt(hi), so one vectorized fix-up
finishes the totients. Callers that read only square-free flags call
:func:`squarefree_flags` directly and build no totients. Segments never
depend on each other, which keeps memory flat for ranges up to the 1e9 cap
and lets callers sieve ahead on worker threads.
"""

from __future__ import annotations

import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, count
from typing import Iterator, Sequence

import numpy as np

from .limits import (
    FACTORIZE_MAX_N,
    SIEVE_MAX_N,
    RangeLimitError,
    segment_size_from_env,
)

#: (prime, exponent) pairs, primes ascending.
Factorization = list[tuple[int, int]]


@dataclass(frozen=True)
class SieveTable:
    """Totient values and square-free flags for one segment [lo, hi].

    Attributes:
        lo: First integer covered (inclusive).
        hi: Last integer covered (inclusive).
        phi: int64 array, ``phi[n - lo]`` is the totient of n.
        squarefree: bool array, ``squarefree[n - lo]`` marks n square-free.
    """

    lo: int
    hi: int
    phi: np.ndarray
    squarefree: np.ndarray

    def phi_of(self, n: int) -> int:
        if not self.lo <= n <= self.hi:
            raise ValueError(f"{n} outside segment [{self.lo}, {self.hi}]")
        return int(self.phi[n - self.lo])

    def is_squarefree(self, n: int) -> bool:
        if not self.lo <= n <= self.hi:
            raise ValueError(f"{n} outside segment [{self.lo}, {self.hi}]")
        return bool(self.squarefree[n - self.lo])


@lru_cache(maxsize=1)
def _base_primes() -> np.ndarray:
    # primes up to sqrt(SIEVE_MAX_N), enough for any permitted segment
    limit = math.isqrt(SIEVE_MAX_N) + 1
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.nonzero(mask)[0].astype(np.int64)


@lru_cache(maxsize=1)
def _base_prime_list() -> list[int]:
    return _base_primes().tolist()


def sieve_segment(lo: int, hi: int, *, segment_size: int | None = None) -> SieveTable:
    """Sieve totients and square-free flags over [lo, hi].

    Args:
        lo: Segment start, at least 1.
        hi: Segment end, at most ``SIEVE_MAX_N``.
        segment_size: Maximum permitted length (default
            ``DIVREC_SEGMENT_SIZE`` or 2**20); longer requests are refused so
            a typo cannot allocate an enormous array.

    Returns:
        A read-only :class:`SieveTable` covering exactly [lo, hi].
    """
    size = segment_size_from_env() if segment_size is None else segment_size
    if size < 1:
        raise ValueError(f"segment size must be positive, got {size}")
    _check_range(lo, hi)
    if hi - lo + 1 > size:
        raise RangeLimitError(
            f"segment [{lo}, {hi}] is longer than the segment size {size}"
        )

    n = np.arange(lo, hi + 1, dtype=np.int64)
    phi = n.copy()
    rem = n.copy()  # entry after dividing out all primes <= sqrt(hi)
    for p in _root_primes(hi):
        first = -(lo // -p) * p
        if first > hi:
            continue
        s = first - lo
        phi[s::p] -= phi[s::p] // p
        q = p
        while True:
            firstq = -(lo // -q) * q
            if firstq > hi:
                break
            rem[firstq - lo :: q] //= p
            q *= p

    # leftover cofactors are single primes > sqrt(hi): multiply in (p-1)/p
    big = rem > 1
    if big.any():
        phi[big] = phi[big] // rem[big] * (rem[big] - 1)

    squarefree = squarefree_flags(lo, hi)
    phi.setflags(write=False)
    squarefree.setflags(write=False)
    return SieveTable(lo, hi, phi, squarefree)


def squarefree_flags(lo: int, hi: int, primes: Sequence[int] = ()) -> np.ndarray:
    """Writable bool array over [lo, hi] marking k with t*k square-free.

    ``t`` is the product of the distinct primes ``primes`` (t = 1 by
    default), so entry k - lo is True iff k is square-free and divisible by
    none of them. Only strides are cleared, each p in ``primes`` and p*p for
    every prime p <= sqrt(hi); no totients are built. The caller chooses the
    length: the array takes hi - lo + 1 bytes.
    """
    _check_range(lo, hi)
    flags = np.ones(hi - lo + 1, dtype=bool)
    for q in [*primes, *(p * p for p in _root_primes(hi))]:
        flags[-(lo // -q) * q - lo :: q] = False
    return flags


def _root_primes(hi: int) -> list[int]:
    # the base primes p <= sqrt(hi), which sieve any segment ending at hi
    primes = _base_primes()
    return primes[: int(np.searchsorted(primes, math.isqrt(hi), side="right"))].tolist()


def _check_range(lo: int, hi: int) -> None:
    if lo < 1 or lo > hi:
        raise ValueError(f"need 1 <= lo <= hi, got [{lo}, {hi}]")
    if hi > SIEVE_MAX_N:
        raise RangeLimitError(f"sieve range ends at {hi}, cap is {SIEVE_MAX_N}")


def iter_sieve_tables(
    lo: int,
    hi: int,
    *,
    segment_size: int | None = None,
    threads: int = 1,
) -> Iterator[SieveTable]:
    """Yield consecutive segments covering [lo, hi], always in ascending order.

    With ``threads > 1`` upcoming segments are sieved ahead on a thread pool
    of at most the usable CPUs, but they are handed back strictly in range
    order, so any accumulation on the consumer side stays deterministic
    regardless of the thread count.
    """
    size = segment_size_from_env() if segment_size is None else segment_size
    if size < 1:
        raise ValueError(f"segment size must be positive, got {size}")
    _check_range(lo, hi)
    starts = iter(range(lo, hi + 1, size))
    # at most threads + 1 segments are in flight, so more threads than usable
    # CPUs would only hold more memory
    if hasattr(os, "sched_getaffinity"):
        threads = min(threads, len(os.sched_getaffinity(0)))
    if threads <= 1:
        for s in starts:
            yield sieve_segment(s, min(s + size - 1, hi), segment_size=size)
        return

    with ThreadPoolExecutor(max_workers=threads) as pool:
        pending: deque = deque()

        def submit_next() -> None:
            s = next(starts, None)
            if s is not None:
                pending.append(
                    pool.submit(
                        sieve_segment, s, min(s + size - 1, hi), segment_size=size
                    )
                )

        for _ in range(threads + 1):
            submit_next()
        while pending:
            table = pending.popleft().result()
            submit_next()
            yield table


def factorize(n: int) -> Factorization:
    """Factor n by trial division; primes ascending, exponents positive.

    Accepts 1 <= n <= ``FACTORIZE_MAX_N``. ``factorize(1)`` is the empty list.
    """
    if n < 1:
        raise ValueError(f"can only factor positive integers, got {n}")
    if n > FACTORIZE_MAX_N:
        raise RangeLimitError(f"refusing to trial-divide {n} > {FACTORIZE_MAX_N}")
    factors: Factorization = []
    m = n
    # base primes cover n <= 1e9; above that, odd candidates continue the walk
    base = _base_prime_list()
    for p in chain(base, count(base[-1] + 2, 2)):
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
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if m < 2:
        raise ValueError(f"need m >= 2, got {m}")
    t = 0
    while n % m == 0:
        n //= m
        t += 1
    return t
