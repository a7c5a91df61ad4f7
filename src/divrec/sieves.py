"""Segmented sieves: totient-only segment tables, and square-free flags.

A totient segment holds every integer of [lo, hi], or with ``step=6`` those
of one class prime to 6, 1 or 5 (mod 6), from an lo of that class. It is
sieved in int32 by multiplications along strides and no division but one.
Two arrays start from a wheel for the primes up to 13, cached in int16 for
each step and class over two periods of the residues that class reads (a
period of 30030 entries for step 1, 5005 for each class mod 6): one slice
of it from the residue ``lo % 30030``, at most a period long and then
doubled by copies of itself, gives each n the product of the wheel primes
dividing it (``small``) and of their p - 1 (``phi``), so those six primes
need no strides. Every larger prime p up to sqrt(hi), a stride prime,
multiplies ``small`` by p and ``phi`` by p - 1 along its stride, and the
power strides p**2, p**3, ... of every root prime not dividing the step
multiply both by p; entry i holds n = lo + step*i, so the stride of q
starts at index -lo / step (mod q), and no power of 2 or 3 takes a stride
in a class mod 6, where no n is even or a multiple of 3. A stride of q up
to the entry count // ``STRIDED_HITS`` takes its own two strided numpy
calls. The sparser ones, most of the 3395 stride primes and 3644 prime
powers of a class segment at the cap, are bucketed, as in the segmented
sieve of Oliveira e Silva, Herzog and Pardi (Math. Comp. 83, 2014): the
indices of all their hits are built together from each stride's next hit,
``HIT_CHUNK`` hits at a time, and ``np.multiply.at`` applies the factors,
since two strides may hit one entry. ``small`` is then the part of n made
of stride primes and ``phi`` its totient. Only after those strides is
``n // small`` taken, once for each ``FIX_CHUNK`` entries: it is 1 or a
single prime q above the stride primes, and one branch-free pass
multiplies ``phi`` by q - 1 where q > 1.

The totient walk :func:`iter_sieve_tables` cuts segments of
:data:`divrec.limits.TOTIENT_SEGMENT_SIZE` entries, 2**16, on one thread.
Like that sieve it builds its stride table once, for its last number and
from the primes up to its root alone (995 strides to 1e7, 960 for a class
mod 6), and carries each bucketed stride's next hit from one segment to the
next, so a segment pays for the hits of the strides, not for finding where
each starts. It sieves ``small``, and the n of the fix, into buffers it
keeps for the whole walk; each table it yields owns a fresh ``phi``. On
two or more threads the same walk cuts :data:`divrec.limits.SEGMENT_SIZE`
entries, 2**20, the most a segment may hold, and one helper thread sieves
its next table while the caller reads the current one. Both lengths set
memory and speed, never a result. :func:`sieve_segment` is the same sieve,
a walk of one segment whose strides start from its lo. The float totient
walk reads steps of 6, one class after the other; step 1 serves the
benchmark's probes and any caller of the sieve.

A :class:`SieveTable` holds the totients only, as the int32 ``phi``
itself; square-free flags come from the separate :func:`squarefree_flags`,
which builds no totients. A segment peaks at its two int32 arrays, 8 bytes
an entry, and a finished table holds 4. A bucketed stride keeps three
int32 values, and two more while the bucket runs, and each hit's index is
int32, so even a 2**16-entry segment at the cap, with about 7000 strides,
holds under 0.36 MB beside its two arrays. Apart from each table's ``phi``,
the one-thread walk makes no array of 128 KiB or more per segment, and
the float totient walk reads each table in blocks of
``divrec.accumulators.BLOCK`` values and drops it before the next is
sieved, so memory stays flat for ranges up to the 1e9 cap, and what the
walk frees is taken again by the next segment, not returned to the system
and faulted in anew.

This module imports numpy, as :mod:`divrec.accumulators` does, and no other
module imports either at load time. The totient walk sieves here only past
``densities.PLAIN_WALK_MAX_K`` odd k; shorter walks and every exact sum read
the plain-Python :func:`divrec.arith.odd_totients` instead.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_right
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
        step: 1 for every integer, 6 for one class prime to 6.

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


#: Entries whose large-prime factor the sieve finds at a time, into a
#: buffer of n that a walk keeps, so that n is never built at the length of
#: a segment.
FIX_CHUNK = 1 << 15

#: A stride of q takes its own two numpy calls while q <= entries //
#: STRIDED_HITS, so that each call covers at least about this many
#: entries; the sparser strides of a segment are bucketed. At the walk's
#: 2**16 entries that leaves 53 strides of a class mod 6 to their own calls
#: near 1e8. The sieve of the odd numbers to 3e7 took 6-22% more time at
#: 128, and from 5% less to 14% more at 512 (best of 15 alternating runs,
#: two rounds).
STRIDED_HITS = 256

#: Hits of the bucketed strides indexed at a time, whatever the length of
#: the segment. A hit takes at most 24 bytes of temporaries (its index,
#: and the repeats of its stride's q, offset and factor), so a chunk takes
#: at most 96 KiB, every array in it 32 KiB or less. Fewer, longer chunks
#: make fewer numpy calls: the sieve of the odd numbers to 3e7 took 15-30%
#: more time at 2**11 hits a chunk, and no less at 2**13, nor a 2**20-entry
#: segment at one chunk for every 32 entries.
HIT_CHUNK = 1 << 12

#: The wheel primes, and their product 30030, the period of the wheel.
WHEEL_PRIMES = (2, 3, 5, 7, 11, 13)
WHEEL = math.prod(WHEEL_PRIMES)


@lru_cache(maxsize=4)
def _wheel(step: int, residue: int) -> tuple[np.ndarray, np.ndarray]:
    # entry k holds, for n = step*k + residue (mod WHEEL), the product of
    # the wheel primes dividing n and of their p - 1, in int16 (at most
    # WHEEL < 2**15): the residues a table of this step and class reads,
    # over two periods, so that any period from lo % WHEEL on is one slice.
    # The multiples of p start at entry -residue / step (mod p), entry 0 for
    # step 1; a prime of step divides no n
    radical = np.ones(2 * WHEEL // step, dtype=np.int16)
    totient = np.ones(2 * WHEEL // step, dtype=np.int16)
    for p in WHEEL_PRIMES:
        if step % p:
            start = -residue * pow(step, -1, p) % p
            radical[start::p] *= p
            totient[start::p] *= p - 1
    radical.setflags(write=False)
    totient.setflags(write=False)
    return radical, totient


def sieve_segment(lo: int, hi: int, *, step: int = 1) -> SieveTable:
    """Sieve the totients of [lo, hi], or of every step-th number from lo.

    Args:
        lo: Segment start, at least 1; prime to 6 for step 6.
        hi: Segment end; the last number covered, the last of lo, lo +
            step, ... up to hi, is at most ``SIEVE_MAX_N``.
        step: 1 for every integer, 6 for the integers of lo's class mod 6,
            1 or 5. Any other step is a ValueError.

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
    return _Walk(lo, hi, step, count).table()


def _strides(last: int, step: int) -> np.ndarray:
    # the modulus q of every stride that sieves a walk or segment ending at
    # last, over the prime p of each, in int32: the primes past the wheel's
    # up to sqrt(last), then each power p**k <= last, k >= 2, of those root
    # primes, squares first, then cubes and so on (no power of a prime of
    # step divides an n of the walk: none of 2 or 3 for step 6); a larger
    # prime is left to the fix. A prime's stride multiplies small by p and
    # phi by p - 1, a power's both by p
    primes = np.array(_root_primes(last), dtype=np.int64)
    rest = primes[len(WHEEL_PRIMES) :]
    qs, ps = [rest], [rest]
    p = primes[step % primes != 0]
    q = p * p  # a root prime's square is at most last
    while p.size:
        ps.append(p)
        qs.append(q)
        q = q * p  # at most last * sqrt(last) <= 1e9 * 31623 < 2**63
        keep = q <= last
        p, q = p[keep], q[keep]
    return np.array([np.concatenate(qs), np.concatenate(ps)], dtype=np.int32)


def _inverse(step, q):
    # the inverse of step mod each q prime to it, for step 1 or 6: such a q
    # is 1 or -1 mod step, so (-q mod step) * q + 1 is a multiple of step.
    # That gives 1 for step 1, and below q always
    return (-q % step * q + 1) // step


class _Walk:
    # The totient sieve of consecutive segments of at most size entries from
    # lo on, up to last: the walk of iter_sieve_tables, on the caller's
    # thread or its helper, and for sieve_segment a walk of one segment. It
    # takes the strides of last once; a stride prime above sqrt(hi) of an
    # early segment only leaves 1 for the large-prime fix where it divides
    # n. For each bucketed stride it keeps the index of its next hit,
    # counted from the first entry of the next segment, and it sieves
    # small, and n for the fix, into buffers it reuses

    __slots__ = (
        "lo", "last", "step", "dense", "moduli", "primes", "powers", "next",
        "small", "n",
    )

    def __init__(self, lo: int, last: int, step: int, size: int) -> None:
        self.lo, self.last, self.step = lo, last, step
        size = min(size, (last - lo) // step + 1)
        moduli, primes = _strides(last, step)
        # a stride that hits about STRIDED_HITS entries of a segment or more
        # takes its own two numpy calls; the sparser ones, most of them, are
        # bucketed together
        dense = moduli <= size // STRIDED_HITS
        self.dense = [
            (q, _inverse(step, q), p, p - (q == p))
            for q, p in zip(moduli[dense].tolist(), primes[dense].tolist())
        ]
        self.moduli, self.primes = q, p = moduli[~dense], primes[~dense]
        self.powers = int(np.count_nonzero(q == p))  # where the powers start
        # q | n from index -lo / step (mod q) on; the inverse is below q, so
        # (lo mod q) * inverse < 1e9 * 1e9 < 2**63
        q = q.astype(np.int64)
        self.next = (-(lo % q) * _inverse(step, q) % q).astype(np.int32)
        self.small = np.empty(size, dtype=np.int32)
        self.n = np.arange(lo, lo + step * min(size, FIX_CHUNK), step, dtype=np.int32)

    def table(self) -> SieveTable:
        # the next segment of the walk, up to size entries, in a fresh phi
        lo, step = self.lo, self.step
        count = min(self.small.size, (self.last - lo) // step + 1)
        # every value below stays <= hi <= SIEVE_MAX_N < 2**31, so int32
        # holds it. small becomes the part of n made of the stride primes
        # and phi its totient; the wheel of the step starts both with the
        # primes <= 13, from a slice of at most one period (WHEEL // step
        # entries), then doubled by copies of the whole periods before
        small = self.small[:count]
        phi = np.empty(count, dtype=np.int32)
        period = WHEEL // step
        start = lo % WHEEL // step
        for out, wheel in zip((small, phi), _wheel(step, lo % step)):
            a = min(count, period)
            out[:a] = wheel[start : start + a]
            while a < count:
                b = min(2 * a, count)
                out[a:b] = out[: b - a]
                a = b
        # a prime's stride multiplies small by p and phi by p - 1, a
        # power's both by p
        for q, inverse, p, f in self.dense:
            s = -lo * inverse % q
            small[s::q] *= p
            phi[s::q] *= f
        self._bucket(small, phi)

        # what is left of n is 1 or one prime q above the stride primes:
        # phi *= max(q - 1, 1), FIX_CHUNK entries at a time, into small,
        # which the fix is the last to read
        n = self.n
        for a in range(0, count, FIX_CHUNK):
            b = min(a + FIX_CHUNK, count)
            n += lo + step * a - int(n[0])
            part = small[a:b]
            np.floor_divide(n[: b - a], part, out=part)
            part -= 1
            phi[a:b] *= np.maximum(part, 1, out=part)
        self.lo = lo + step * count
        return SieveTable(lo, self.lo - step, phi, step)

    def _bucket(self, small: np.ndarray, phi: np.ndarray) -> None:
        # the bucketed strides at once, HIT_CHUNK hits at a time: the index
        # of each hit is built from its stride's next hit, and
        # np.multiply.at applies all factors, for two strides may hit one
        # entry, where a fancy-index *= would apply one of them only. A
        # stride of q whose next hit is at index next < q hits
        # (count - 1 - next) // q + 1 entries, none if next >= count; its
        # next hit then moves on by its hits times q, less the count. Every
        # array of one entry a stride, and of one entry a hit, is int32:
        # count - 1 + q < 2**31, and each index is below count
        count, q = small.size, self.moduli
        hits = q - self.next
        hits += count - 1
        hits //= q
        ends = np.cumsum(hits, dtype=np.int32)  # at most count + q.size
        # a chunk takes prime strides only, whose factor of phi is p - 1,
        # or powers only, whose factor is p
        a = 0
        while a < q.size:
            first = int(ends[a] - hits[a])
            b = max(int(np.searchsorted(ends, first + HIT_CHUNK, "right")), a + 1)
            if a < self.powers:
                b = min(b, self.powers)
            # the chunk's hits in stride order: hit k, the j-th of a stride
            # whose first is hit c, lies at index next + j*q, below count,
            # with j = k - c
            each = hits[a:b]
            at = np.arange(first, int(ends[b - 1]), dtype=np.int32)
            at -= np.repeat(ends[a:b] - each, each)
            at *= np.repeat(q[a:b], each)
            at += np.repeat(self.next[a:b], each)
            factors = np.repeat(self.primes[a:b], each)
            np.multiply.at(small, at, factors)
            factors -= a < self.powers
            np.multiply.at(phi, at, factors)
            del at, factors  # before the next chunk builds its own
            a = b
        hits *= q
        hits -= count
        self.next += hits


def _checked_span(lo: int, hi: int, step: int) -> tuple[int, int]:
    # lo and the last of lo, lo + step, ... up to hi, as Python ints (a
    # numpy int32 lo would overflow in -lo * inverse), checked against the
    # sieve cap
    step = check_range("step", step, 1)
    if step != 1 and (step != 6 or lo % 2 == 0 or lo % 3 == 0):
        raise ValueError(
            "need step 1, or 6 from an lo prime to 6; "
            f"got step {shown(step)} from {shown(lo)}"
        )
    lo = check_range("lo", lo, 1)
    hi = check_range("hi", hi, lo)
    last = hi - (hi - lo) % step
    name = "hi" if step == 1 else "last number of the class"
    check_range(name, last, lo, SIEVE_MAX_N)
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
    at the call; the last may hold fewer. With ``step=6`` they hold the
    numbers of lo's class mod 6, from an lo prime to 6, as
    :func:`sieve_segment` sieves them; any step but 1 and 6 is a ValueError.
    The walk carries its strides from segment to segment. With ``threads >
    1`` and more than one usable CPU, one helper thread sieves the next
    segment while the caller reads the current one; more threads add none.
    The tables come in range order, so any accumulation on the consumer
    side stays deterministic regardless of the thread count. ``threads``
    must be an integer of at least 1. The arguments are checked at the
    call, before any table is asked for. Every table owns its ``phi``, so a
    caller may keep the tables of a walk.
    """
    threads = check_range("threads", threads, 1)
    lo, last = _checked_span(lo, hi, step)
    # the helper thread and the consumer hand the interpreter lock to each
    # other at every numpy call, so a walk on threads takes the longest
    # segments; the length follows the threads asked for, not the usable
    # CPUs, so the segments a walk yields never depend on the machine
    size = limits.SEGMENT_SIZE if threads > 1 else limits.TOTIENT_SEGMENT_SIZE
    # a helper only pays where a second CPU can run it; where the OS cannot
    # tell the usable CPUs (macOS, Windows), the CPU count decides
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    return _tables(lo, last, step, size, threads > 1 and cpus > 1)


def _tables(lo, last, step, size, ahead: bool) -> Iterator[SieveTable]:
    # the segments of size entries from lo to last, from one walk sieved on
    # this thread, or ahead on one helper thread, one table pending at a time
    walk = _Walk(lo, last, step, size)
    if not ahead:
        while walk.lo <= last:
            yield walk.table()
        return

    # concurrent.futures loads logging, so one-thread walks leave it alone
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=1) as pool:
        pending = pool.submit(walk.table)
        while pending is not None:
            table = pending.result()
            # the helper is idle until the next submit, so walk.lo is read
            # here only, between a result and that submit
            pending = pool.submit(walk.table) if walk.lo <= last else None
            yield table
