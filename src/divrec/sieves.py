"""Segmented sieves: totient-only segment tables, and square-free flags.

A totient segment holds every integer of [lo, hi], or with ``step=2`` the
odd ones from an odd lo, and is sieved in int32 with the primes up to
sqrt(hi), by multiplications along strides and no division but one. Two
arrays start from a cached wheel for the primes up to 13: tiled from
``lo % 30030`` (odd numbers read its odd residues, a wheel of period 15015),
it gives each n the product of the wheel primes dividing it (``small``) and
of their p - 1 (``phi``), so those six primes need no strides. Every larger
root prime p multiplies ``small`` by p and ``phi`` by p - 1 along its
stride, and the power strides p**2, p**3, ... of every root prime multiply
both by p; entry i holds n = lo + step*i, so the stride of q starts at
index -lo / step (mod q), and powers of 2 take none in odd tables.
``small`` is then the part of n made of root primes and ``phi`` its
totient. Only after those strides is ``n // small`` taken, once for each
``FIX_CHUNK`` entries, n itself built a chunk at a time: it is 1 or a
single prime q above sqrt(hi), and one branch-free pass multiplies ``phi``
by q - 1 where q > 1. A :class:`SieveTable` holds the totients only, as
the int32 ``phi`` itself; square-free flags come from the separate
:func:`squarefree_flags`, which builds no totients. A segment peaks at its
two int32 arrays, 8 bytes an entry, and ``small`` is dropped once the
fix is done, so a finished table holds 4. A segment holds at most
:data:`divrec.limits.SEGMENT_SIZE` entries, a constant of 2**20, which
sets its memory and never a result. Segments never depend on each other,
which keeps memory flat for ranges up to the 1e9 cap and lets callers
sieve ahead on worker threads; the float totient walk reads each table in
blocks and drops it before the next is sieved.

This module imports numpy, as :mod:`divrec.accumulators` does, and no other
module imports either at load time. The totient walk sieves here only past
``densities.PLAIN_WALK_MAX_K`` odd k; shorter walks and every exact sum read
the plain-Python :func:`divrec.arith.odd_totients` instead.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_right
from collections import deque
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

from . import limits
from .arith import base_primes
from .limits import SIEVE_MAX_N, RangeLimitError, Record, check_range, shown


class SieveTable(Record):
    """Totient values for one segment [lo, hi], every ``step``-th number.

    Attributes:
        lo: First integer covered (inclusive).
        hi: Last integer covered (inclusive), lo plus a multiple of step.
        phi: read-only int32 array, ``phi[(n - lo) // step]`` is phi(n);
            every totient is below ``SIEVE_MAX_N`` < 2**31, and
            :meth:`phi_of` reads one as a Python int.
        step: 1 for every integer, 2 for the odd ones only.

    Two tables are equal when they cover the same numbers with equal
    totients; a table holds an array, so it is not hashable.
    """

    __slots__ = ("lo", "hi", "phi", "step")

    def __init__(self, lo: int, hi: int, phi: np.ndarray, step: int = 1) -> None:
        phi = phi.view()  # read-only however the table was built or copied
        phi.setflags(write=False)
        super().__init__(lo, hi, phi, step)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.lo, self.hi, self.step) == (
            other.lo, other.hi, other.step
        ) and np.array_equal(self.phi, other.phi)

    __hash__ = None

    def phi_of(self, n: int) -> int:
        if not self.lo <= n <= self.hi or (n - self.lo) % self.step:
            raise ValueError(
                f"{n} not in segment [{self.lo}, {self.hi}] of step {self.step}"
            )
        return int(self.phi[(n - self.lo) // self.step])


#: Entries whose large-prime factor ``sieve_segment`` finds at a time, so
#: that n is never built at the length of the segment.
FIX_CHUNK = 1 << 15

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


def sieve_segment(lo: int, hi: int, *, step: int = 1) -> SieveTable:
    """Sieve the totients of [lo, hi], or of its odd numbers for step 2.

    Args:
        lo: Segment start, at least 1; odd for step 2.
        hi: Segment end; the last number covered, hi or for step 2 the last
            odd number up to hi, is at most ``SIEVE_MAX_N``.
        step: 1 for every integer, 2 for the odd integers only.

    A segment of more than :data:`divrec.limits.SEGMENT_SIZE` entries
    (2**20) is refused, so a typo cannot allocate an enormous array.

    Returns:
        A read-only :class:`SieveTable` covering lo, lo + step, ... up to hi.
    """
    size = limits.SEGMENT_SIZE
    lo, hi = _checked_span(lo, hi, step)
    count = (hi - lo) // step + 1
    if count > size:
        raise RangeLimitError(f"segment [{lo}, {hi}] has more than {size} entries")

    # every value below stays <= hi <= SIEVE_MAX_N < 2**31, so int32 holds it
    # small becomes the part of n made of primes <= sqrt(hi) and phi its
    # totient; the wheel starts both with the primes <= 13, tiled from a
    # slice of at most one period, so a short segment copies only its length.
    # The odd numbers take the odd residues, a wheel of period WHEEL // 2.
    radical, totient = (w[step - 1 :: step] for w in _wheel())
    start = lo % WHEEL // step
    tile = slice(start, start + min(count, WHEEL // step))
    small = np.resize(radical[tile], count)
    phi = np.resize(totient[tile], count)
    # q | n from index -lo * step**-1 (mod q) on: (q + 1) // step is 1 mod q
    # for step 1, and the inverse of 2 mod an odd q for step 2
    primes = _root_primes(hi)
    for p in primes[len(WHEEL_PRIMES) :]:  # the primes past the wheel's
        s = -lo * ((p + 1) // step) % p
        if s < count:
            small[s::p] *= p
            phi[s::p] *= p - 1
    # the powers finish both products; a wheel prime above sqrt(hi) has no
    # multiple of its square up to hi, and no power of 2 divides an odd n.
    # Most powers have no multiple in a segment, and skip the numpy calls
    for p in primes[step - 1 :]:
        q = p * p
        while q <= hi:
            s = -lo * ((q + 1) // step) % q
            if s < count:
                small[s::q] *= p
                phi[s::q] *= p
            q *= p

    # what is left of n is 1 or one prime q > sqrt(hi): phi *= max(q - 1, 1),
    # FIX_CHUNK entries at a time, so n is never built at segment length and
    # the segment peaks at small and phi, 8 bytes an entry
    for a in range(0, count, FIX_CHUNK):
        b = min(a + FIX_CHUNK, count)
        big = np.arange(lo + step * a, lo + step * b, step, dtype=np.int32)
        np.floor_divide(big, small[a:b], out=big)
        big -= 1
        phi[a:b] *= np.maximum(big, 1, out=big)
        del big  # so the next chunk's n is not made next to this one
    return SieveTable(lo, hi, phi, step)


def _checked_span(lo: int, hi: int, step: int) -> tuple[int, int]:
    # lo and the last of lo, lo + step, ... up to hi, as Python ints (a
    # numpy int32 lo would overflow in -lo * (p + 1)), checked against the
    # sieve cap
    if step not in (1, 2) or step == 2 and lo % 2 == 0:
        raise ValueError(
            f"need step 1, or 2 from an odd lo; got step {shown(step)} from {shown(lo)}"
        )
    lo = check_range("lo", lo, 1)
    hi = check_range("hi", hi, lo)
    last = hi - (hi - lo) % step
    check_range("hi" if step == 1 else "last odd number", last, lo, SIEVE_MAX_N)
    return lo, last


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


def iter_sieve_tables(
    lo: int, hi: int, *, threads: int = 1, step: int = 1
) -> Iterator[SieveTable]:
    """Yield consecutive segments covering [lo, hi], always in ascending order.

    Segments hold :data:`divrec.limits.SEGMENT_SIZE` entries, read when the
    walk starts; the last may hold fewer.
    With ``step=2`` they hold the odd numbers only, from an odd lo, as
    :func:`sieve_segment` sieves them. With ``threads > 1`` upcoming
    segments are sieved ahead on a thread pool of at most the usable CPUs,
    but they are handed back strictly in range order, so any accumulation
    on the consumer side stays deterministic regardless of the thread count.
    """
    lo, last = _checked_span(lo, hi, step)
    width = limits.SEGMENT_SIZE * step
    spans = ((s, min(s + width - step, last)) for s in range(lo, last + 1, width))
    # at most threads + 1 segments are in flight, so more threads than usable
    # CPUs would only hold more memory
    if hasattr(os, "sched_getaffinity"):
        threads = min(threads, len(os.sched_getaffinity(0)))
    if threads <= 1:
        for span in spans:
            yield sieve_segment(*span, step=step)
        return

    # concurrent.futures loads logging, so one-thread walks leave it alone
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as pool:
        pending: deque = deque()
        for span in spans:
            pending.append(pool.submit(sieve_segment, *span, step=step))
            if len(pending) > threads:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
