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
index -lo / step (mod q), and powers of 2 take none in odd tables. A stride
of q up to the entry count // ``STRIDED_HITS`` takes its own two strided
numpy calls. The sparser ones, most of the 3400 root primes and 3600
prime powers at the cap, are bucketed, as in the segmented sieve of
Oliveira e Silva, Herzog and Pardi (Math. Comp. 83, 2014): the indices of
all their hits are built together from each stride's start, a chunk of at
least ``HIT_CHUNK`` hits at a time, and ``np.multiply.at`` applies the
factors, since two strides may hit one entry. So a segment costs about
one numpy call per thousand hits, not two per root prime, and a short
segment is no slower per entry than a long one. ``small`` is then the
part of n made of root primes and ``phi`` its totient. Only after those
strides is ``n // small`` taken, once for each ``FIX_CHUNK`` entries, n
itself built a chunk at a time: it is 1 or a single prime q above
sqrt(hi), and one branch-free pass multiplies ``phi`` by q - 1 where
q > 1. A :class:`SieveTable` holds the totients only, as
the int32 ``phi`` itself; square-free flags come from the separate
:func:`squarefree_flags`, which builds no totients. A segment peaks at its
two int32 arrays, 8 bytes an entry, and ``small`` is dropped once the
fix is done, so a finished table holds 4. A segment holds at most
:data:`divrec.limits.SEGMENT_SIZE` entries, a constant of 2**20, and the
totient walk :func:`iter_sieve_tables` cuts segments of
:data:`divrec.limits.TOTIENT_SEGMENT_SIZE`, 2**18, on one thread and of
2**20 when it sieves ahead on worker threads; both set memory and speed,
never a result. Segments never depend on each other, which keeps
memory flat for ranges up to the 1e9 cap and lets callers sieve ahead on
worker threads; the float totient walk reads each table in blocks and
drops it before the next is sieved.

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

#: A stride of q takes its own two numpy calls while q <= entries //
#: STRIDED_HITS, so that each call covers at least about this many
#: entries; the sparser strides of a segment are bucketed, so a segment
#: costs about one numpy call for every thousand of their hits rather
#: than two for every root prime and prime power.
STRIDED_HITS = 128

#: Fewest hits of the bucketed strides indexed at a time; a segment of
#: more than 2**16 entries takes one for every 32 entries at a time. A hit
#: takes about 32 bytes of temporaries (its stride's row, its index and
#: numpy's intp copy of it), so a chunk takes about a byte an entry, an
#: eighth of the segment's own arrays, or 64 KiB for the shorter segments.
#: Fewer, longer chunks make fewer numpy calls: with 2**11 hits a chunk,
#: ``phi_ratio_sums_at(7, ...)`` to 1e9 took 3.08 s against 2.82 s at
#: 2**13 on one thread (medians of 6 alternating runs).
HIT_CHUNK = 1 << 11

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
    # for step 1, and the inverse of 2 mod an odd q for step 2. A stride
    # that hits about STRIDED_HITS entries or more takes its own two numpy
    # calls; the sparser ones, most of them, are bucketed together
    moduli, primes = _strides(hi, step)
    dense = moduli <= count // STRIDED_HITS
    for q, p in zip(moduli[dense].tolist(), primes[dense].tolist()):
        s = -lo * ((q + 1) // step) % q
        if s < count:
            small[s::q] *= p
            phi[s::q] *= p - (q == p)  # p - 1 for a prime, p for a power
    _bucket(small, phi, lo, step, moduli[~dense], primes[~dense])

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


@lru_cache(maxsize=2)
def _moduli(step: int) -> np.ndarray:
    # the modulus q of every stride a segment of this step may take, over
    # the prime p of each, in int32: the primes past the wheel's, then each
    # power q = p**k, k >= 2, of a base prime up to SIEVE_MAX_N; no power of
    # 2 divides an odd n. A prime's stride multiplies small by p and phi by
    # p - 1, a power's both by p
    primes = np.array(base_primes(), dtype=np.int64)
    rest = primes[len(WHEEL_PRIMES) :]
    qs, ps = [rest], [rest]
    p = primes[step - 1 :]
    q = p * p  # every base prime's square is at most SIEVE_MAX_N
    while p.size:
        ps.append(p)
        qs.append(q)
        q = q * p  # at most SIEVE_MAX_N * 31607 < 2**63
        p, q = p[q <= SIEVE_MAX_N], q[q <= SIEVE_MAX_N]
    table = np.array([np.concatenate(qs), np.concatenate(ps)], dtype=np.int32)
    table.setflags(write=False)
    return table


def _strides(hi: int, step: int) -> np.ndarray:
    # the columns of _moduli that sieve a segment ending at hi: the powers
    # up to hi and the primes up to sqrt(hi); a larger prime is left to the
    # fix
    q, p = table = _moduli(step)
    return table[:, (q <= hi) & ((q != p) | (p <= math.isqrt(hi)))]


def _bucket(
    small: np.ndarray,
    phi: np.ndarray,
    lo: int,
    step: int,
    moduli: np.ndarray,
    primes: np.ndarray,
) -> None:
    # the strides of moduli over primes at once, a chunk of hits at a time:
    # the index of each hit is built from its stride's start, and
    # np.multiply.at applies all factors, for two strides may hit one entry,
    # where a fancy-index *= would apply one of them only
    if not moduli.size:
        return
    q = moduli.astype(np.int64)
    # (lo mod q) * ((q + 1) // step) < 1e9 * (1e9 + 1) < 2**63: no overflow
    starts = -(lo % q) * ((q + 1) // step) % q
    hits = (small.size - 1 - starts) // q + 1  # 0 if it misses the segment
    live = np.flatnonzero(hits)
    hits = hits[live]
    ends = np.cumsum(hits)
    # per live stride, in int32 like the tables (every index is below the
    # count): the hits before its first, q, its start and its two factors
    rows = np.empty((live.size, 5), dtype=np.int32)
    rows[:, 0] = ends - hits
    rows[:, 1] = moduli[live]
    rows[:, 2] = starts[live]
    rows[:, 3] = primes[live]
    rows[:, 4] = rows[:, 3] - (rows[:, 1] == rows[:, 3])
    del starts  # so the chunks below are not made next to it
    chunk = max(HIT_CHUNK, small.size // 32)
    a = 0
    while a < live.size:
        first = int(rows[a, 0])
        b = max(int(np.searchsorted(ends, first + chunk, "right")), a + 1)
        each = np.repeat(rows[a:b], hits[a:b], axis=0)  # one row a hit
        at = np.arange(first, int(ends[b - 1]), dtype=np.int32)
        at -= each[:, 0]  # the hit's number along its stride
        at *= each[:, 1]
        at += each[:, 2]
        np.multiply.at(small, at, each[:, 3])
        np.multiply.at(phi, at, each[:, 4])
        a = b


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

    Segments hold :data:`divrec.limits.TOTIENT_SEGMENT_SIZE` entries on one
    thread and :data:`divrec.limits.SEGMENT_SIZE` with ``threads > 1``, read
    when the walk starts; the last may hold fewer.
    With ``step=2`` they hold the odd numbers only, from an odd lo, as
    :func:`sieve_segment` sieves them. With ``threads > 1`` upcoming
    segments are sieved ahead on a thread pool of at most the usable CPUs,
    but they are handed back strictly in range order, so any accumulation
    on the consumer side stays deterministic regardless of the thread count.
    ``threads`` must be an integer of at least 1.
    """
    threads = check_range("threads", threads, 1)
    lo, last = _checked_span(lo, hi, step)
    # threads sieving ahead hand the interpreter lock to each other and to
    # the consumer at every numpy call, so they take the longest segments;
    # the length follows the threads asked for, not the usable CPUs, so the
    # segments a walk yields never depend on the machine
    size = limits.SEGMENT_SIZE if threads > 1 else limits.TOTIENT_SEGMENT_SIZE
    width = size * step
    spans = ((s, min(s + width - step, last)) for s in range(lo, last + 1, width))
    # at most threads + 1 segments are in flight, so more threads than usable
    # CPUs would only hold more memory; where the OS cannot tell the usable
    # CPUs (macOS, Windows), the CPU count caps them
    if hasattr(os, "sched_getaffinity"):
        threads = min(threads, len(os.sched_getaffinity(0)))
    else:
        threads = min(threads, os.cpu_count() or 1)
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
