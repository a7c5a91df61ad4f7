"""Segmented sieves: totient-only segment tables, and square-free flags.

A totient segment is sieved with the primes up to sqrt(hi): each prime p
turns phi into phi * (p-1)/p along its stride, and its powers multiply up the
part of each n made of those primes. Whatever remains of n after dividing
that part out is either 1 or a single prime above sqrt(hi), so one
branch-free pass finishes the totients. A :class:`SieveTable` holds the
totients only; square-free flags come from the separate
:func:`squarefree_flags`, which builds no totients. Segments never depend on
each other, which keeps memory flat for ranges up to the 1e9 cap and lets
callers sieve ahead on worker threads.
"""

from __future__ import annotations

import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

# re-exported: the pure-integer helpers live in arith, which imports no numpy
from .arith import (
    Factorization,
    base_primes,
    divisibility_exponent,
    factorize,
    is_prime,
)
from .limits import SIEVE_MAX_N, RangeLimitError, segment_size_from_env


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


@lru_cache(maxsize=1)
def _base_primes() -> np.ndarray:
    # primes up to sqrt(SIEVE_MAX_N), enough for any permitted segment
    return np.array(base_primes(), dtype=np.int64)


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
    _check_range(lo, hi)
    if hi - lo + 1 > size:
        raise RangeLimitError(
            f"segment [{lo}, {hi}] is longer than the segment size {size}"
        )

    n = np.arange(lo, hi + 1, dtype=np.int64)
    phi = n.copy()
    small = np.ones_like(n)  # the part of n made of primes <= sqrt(hi)
    for p in _root_primes(hi):
        stride = phi[-lo % p :: p]
        stride //= p
        stride *= p - 1
        q = p
        while q <= hi:
            small[-lo % q :: q] *= p
            q *= p

    # what is left of n is 1 or one prime q > sqrt(hi): phi -= phi // q if q > 1
    big = np.floor_divide(n, small, out=n)
    share = np.floor_divide(phi, big, out=small)
    share *= big > 1
    phi -= share
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
    _check_range(lo, hi)
    flags = np.ones(hi - lo + 1, dtype=bool)
    for q in [*primes, *(p * p for p in _root_primes(hi))]:
        flags[-lo % q :: q] = False
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


def iter_sieve_tables(lo: int, hi: int, *, threads: int = 1) -> Iterator[SieveTable]:
    """Yield consecutive segments covering [lo, hi], always in ascending order.

    Segments are ``DIVREC_SEGMENT_SIZE`` numbers long; the last may be shorter.
    With ``threads > 1`` upcoming segments are sieved ahead on a thread pool
    of at most the usable CPUs, but they are handed back strictly in range
    order, so any accumulation on the consumer side stays deterministic
    regardless of the thread count.
    """
    size = segment_size_from_env()
    _check_range(lo, hi)
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
