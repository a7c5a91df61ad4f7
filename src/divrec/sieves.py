"""Segmented sieves: totient-only segment tables, and square-free flags.

A totient segment is sieved in int32 with the primes up to sqrt(hi), by
multiplications along strides and no division but one. Two arrays start
from a cached wheel for the primes up to 13: tiled from ``lo % 30030``, it
gives each n the product of the wheel primes dividing it (``small``) and of
their p - 1 (``phi``), so those six primes need no strides. Every larger
root prime p multiplies ``small`` by p and ``phi`` by p - 1 along its
stride, and the power strides p**2, p**3, ... of every root prime multiply
both by p. ``small`` is then the part of n made of root primes and ``phi``
its totient. Only after those strides is ``n // small`` taken, once: it is
1 or a single prime q above sqrt(hi), and one branch-free pass multiplies
``phi`` by q - 1 where q > 1. A :class:`SieveTable` holds the totients only,
as int64; square-free flags come from the separate :func:`squarefree_flags`,
which builds no totients. Segments never depend on each other, which keeps
memory flat for ranges up to the 1e9 cap and lets callers sieve ahead on
worker threads.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_right
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

from .arith import base_primes
from .limits import SIEVE_MAX_N, RangeLimitError, check_range, segment_size_from_env


@dataclass(frozen=True)
class SieveTable:
    """Totient values for one segment [lo, hi].

    Attributes:
        lo: First integer covered (inclusive).
        hi: Last integer covered (inclusive).
        phi: read-only int64 array, ``phi[n - lo]`` is the totient of n.
    """

    lo: int
    hi: int
    phi: np.ndarray

    def phi_of(self, n: int) -> int:
        if not self.lo <= n <= self.hi:
            raise ValueError(f"{n} outside segment [{self.lo}, {self.hi}]")
        return int(self.phi[n - self.lo])


#: The wheel primes, and their product 30030, the period of the wheel.
WHEEL_PRIMES = (2, 3, 5, 7, 11, 13)
WHEEL = math.prod(WHEEL_PRIMES)


@lru_cache(maxsize=1)
def _wheel() -> tuple[np.ndarray, np.ndarray]:
    # entry k holds, for n = k (mod WHEEL), the product of the wheel primes
    # dividing n and of their p - 1; two periods, so that any WHEEL entries
    # from lo % WHEEL on are one slice
    radical = np.ones(2 * WHEEL, dtype=np.int32)
    totient = np.ones(2 * WHEEL, dtype=np.int32)
    for p in WHEEL_PRIMES:
        radical[::p] *= p
        totient[::p] *= p - 1
    radical.setflags(write=False)
    totient.setflags(write=False)
    return radical, totient


def sieve_segment(lo: int, hi: int) -> SieveTable:
    """Sieve the totients of [lo, hi].

    Args:
        lo: Segment start, at least 1.
        hi: Segment end, at most ``SIEVE_MAX_N``.

    A segment longer than ``DIVREC_SEGMENT_SIZE`` (default 2**20) is refused,
    so a typo cannot allocate an enormous array.

    Returns:
        A read-only :class:`SieveTable` covering exactly [lo, hi].
    """
    size = segment_size_from_env()
    check_range("lo", lo, 1)
    check_range("hi", hi, lo, SIEVE_MAX_N)
    if hi - lo + 1 > size:
        raise RangeLimitError(
            f"segment [{lo}, {hi}] is longer than the segment size {size}"
        )

    # every value below stays <= hi <= SIEVE_MAX_N < 2**31, so int32 holds it
    n = np.arange(lo, hi + 1, dtype=np.int32)
    # small becomes the part of n made of primes <= sqrt(hi) and phi its
    # totient; the wheel starts both with the primes <= 13, tiled from a
    # slice of at most one period, so a short segment copies only its length
    radical, totient = _wheel()
    start = lo % WHEEL
    tile = slice(start, start + min(n.size, WHEEL))
    small = np.resize(radical[tile], n.size)
    phi = np.resize(totient[tile], n.size)
    primes = _root_primes(hi)
    for p in primes[len(WHEEL_PRIMES) :]:  # the primes past the wheel's
        s = -lo % p
        small[s::p] *= p
        phi[s::p] *= p - 1
    # the powers finish both products; a wheel prime above sqrt(hi) has no
    # multiple of its square up to hi
    for p in primes:
        q = p * p
        while q <= hi:
            s = -lo % q
            small[s::q] *= p
            phi[s::q] *= p
            q *= p

    # what is left of n is 1 or one prime q > sqrt(hi): phi *= max(q - 1, 1)
    big = np.floor_divide(n, small, out=n)
    big -= 1
    phi *= np.maximum(big, 1, out=big)
    phi = phi.astype(np.int64)
    phi.setflags(write=False)
    return SieveTable(lo, hi, phi)


def squarefree_flags(lo: int, hi: int, primes: Sequence[int] = ()) -> np.ndarray:
    """Writable bool array over [lo, hi] marking k with t*k square-free.

    ``t`` is the product of the distinct primes ``primes`` (t = 1 by
    default), so entry k - lo is True iff k is square-free and divisible by
    none of them. Only strides are cleared, each p in ``primes`` and p*p for
    every prime p <= sqrt(hi); no totients are built. The caller chooses the
    length: the array takes hi - lo + 1 bytes.
    """
    check_range("lo", lo, 1)
    check_range("hi", hi, lo, SIEVE_MAX_N)
    flags = np.ones(hi - lo + 1, dtype=bool)
    for q in [*primes, *(p * p for p in _root_primes(hi))]:
        flags[-lo % q :: q] = False
    return flags


def _root_primes(hi: int) -> tuple[int, ...]:
    # the base primes p <= sqrt(hi), which sieve any segment ending at hi
    primes = base_primes()
    return primes[: bisect_right(primes, math.isqrt(hi))]


def iter_sieve_tables(lo: int, hi: int, *, threads: int = 1) -> Iterator[SieveTable]:
    """Yield consecutive segments covering [lo, hi], always in ascending order.

    Segments are ``DIVREC_SEGMENT_SIZE`` numbers long; the last may be shorter.
    With ``threads > 1`` upcoming segments are sieved ahead on a thread pool
    of at most the usable CPUs, but they are handed back strictly in range
    order, so any accumulation on the consumer side stays deterministic
    regardless of the thread count.
    """
    size = segment_size_from_env()
    check_range("lo", lo, 1)
    check_range("hi", hi, lo, SIEVE_MAX_N)
    spans = ((s, min(s + size - 1, hi)) for s in range(lo, hi + 1, size))
    # at most threads + 1 segments are in flight, so more threads than usable
    # CPUs would only hold more memory
    if hasattr(os, "sched_getaffinity"):
        threads = min(threads, len(os.sched_getaffinity(0)))
    if threads <= 1:
        for span in spans:
            yield sieve_segment(*span)
        return

    with ThreadPoolExecutor(max_workers=threads) as pool:
        pending: deque = deque()
        for span in spans:
            pending.append(pool.submit(sieve_segment, *span))
            if len(pending) > threads:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
