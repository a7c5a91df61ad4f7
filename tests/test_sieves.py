"""Sieve correctness against trial-division oracles and algebraic identities."""

import itertools
import math
import os
import random
import sys
import threading
from bisect import bisect_right
import tracemalloc
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divrec.arith import base_primes, divisibility_exponent, factorize, is_prime
from divrec import limits, sieves
from divrec.limits import SIEVE_MAX_N, RangeLimitError
from divrec.sieves import (
    FIX_CHUNK,
    STRIDED_HITS,
    WHEEL,
    WHEEL_PRIMES,
    _strides,
    _wheel,
    iter_sieve_tables,
    sieve_segment,
    squarefree_flags,
)


def phi_oracle(n: int) -> int:
    # totient by trial division, independent of the sieve
    result = n
    d = 2
    while d * d <= n:
        if n % d == 0:
            result -= result // d
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        result -= result // n
    return result


def squarefree_oracle(n: int) -> bool:
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        d += 1
    return True


def previous_sieve_phi(lo: int, hi: int) -> np.ndarray:
    """Totients of [lo, hi] the way ``sieve_segment`` computed them before.

    Each prime p <= sqrt(hi) applies phi -= phi // p on its stride and
    divides every power of p out of a copy of n; the leftover prime above
    sqrt(hi) is then folded in under a boolean mask.
    """
    root = math.isqrt(hi)
    is_prime = np.ones(root + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(root) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    n = np.arange(lo, hi + 1, dtype=np.int64)
    phi = n.copy()
    rem = n.copy()
    for p in np.nonzero(is_prime)[0].tolist():
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
    big = rem > 1
    if big.any():
        phi[big] = phi[big] // rem[big] * (rem[big] - 1)
    return phi


PHI_FIRST_TEN = [1, 1, 2, 2, 4, 2, 6, 4, 6, 4]
SQUAREFREE_UP_TO_TEN = {1, 2, 3, 5, 6, 7, 10}


def test_first_ten():
    table = sieve_segment(1, 10)
    assert table.phi.tolist() == PHI_FIRST_TEN
    flags = squarefree_flags(1, 10)
    assert {n for n in range(1, 11) if flags[n - 1]} == SQUAREFREE_UP_TO_TEN


def test_single_entry_segments():
    one = sieve_segment(1, 1)
    assert one.phi_of(1) == 1 and squarefree_flags(1, 1).tolist() == [True]
    big = sieve_segment(10**6, 10**6)
    assert big.phi_of(10**6) == 400000
    assert squarefree_flags(10**6, 10**6).tolist() == [False]


def test_segment_against_oracle():
    table = sieve_segment(99_900, 100_100)
    flags = squarefree_flags(99_900, 100_100)
    for n in range(99_900, 100_101):
        assert table.phi_of(n) == phi_oracle(n)
        assert flags[n - 99_900] == squarefree_oracle(n)


def test_random_points_against_oracle():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 10**6)
        table = sieve_segment(n, n)
        assert table.phi_of(n) == phi_oracle(n)
        assert squarefree_flags(n, n)[0] == squarefree_oracle(n)


@pytest.mark.parametrize(
    "lo, length",
    # each case once: the wheel tiles at offsets 0 and 1 of base 0 both start
    # at lo = 1, and duplicates would rename every repeated case id
    list(dict.fromkeys([
        (1, 1 << 20),
        (10**8, 1 << 20),
        (SIEVE_MAX_N - (1 << 20) + 1, 1 << 20),  # ends at the cap
        (1, 1),
        (2, 3),
        (10**6 - 1, 997),
        (31_607 * 31_607 - 500, 1001),  # the largest prime square below the cap
        (SIEVE_MAX_N - 12_344, 12_345),
        # the 30030 wheel of the primes <= 13: tiles starting at each edge
        *(
            (max(1, base + offset), length)
            for base in (0, 30_030 * 3_330)
            for offset in (0, 1, 30_029)
            for length in (1, 168, 30_029, 30_030, 30_031, 3 * 30_030 + 7)
        ),
        # hi < 169: wheel primes above sqrt(hi), which sieve no square
        (1, 168),
        (11, 3),
        (12, 1),
        (100, 69),
        (150, 19),
        # the last segments before the cap; 1e9 = 30030 * 33300 + 1000
        (SIEVE_MAX_N - 3 * 30_030 - 6, 3 * 30_030 + 7),
        (SIEVE_MAX_N - 1000 - 30_030 + 1, 30_030),
        (SIEVE_MAX_N - 999, 1000),
        (SIEVE_MAX_N, 1),
    ])),
)
def test_segment_equals_the_previous_sieve(lo, length):
    hi = lo + length - 1
    assert np.array_equal(sieve_segment(lo, hi).phi, previous_sieve_phi(lo, hi))


#: The last odd number the int32 sieve may reach.
LAST_ODD = SIEVE_MAX_N - 1 + SIEVE_MAX_N % 2

#: the last number up to the cap that a table of each step covers, from lo =
#: 1 for step 1 and from a lo of 1 (mod 6) for step 6, and the last odd
#: number, the last that the odd entries of step-1 tables reach
LAST_OF_STEP = {1: SIEVE_MAX_N, 2: LAST_ODD, 6: SIEVE_MAX_N - (SIEVE_MAX_N - 1) % 6}


class OddEntries(NamedTuple):
    """The odd entries of the step-1 tables of a walk from an odd lo to the
    odd hi: how the odd-walk oracles of ``tests/test_walkers.py`` read the
    odd k, since the sieve has no odd-number mode. The checks below that
    take step 2 hold this view to the oracles of the odd numbers."""

    lo: int
    hi: int
    phi: np.ndarray

    def phi_of(self, n: int) -> int:
        assert self.lo <= n <= self.hi and n % 2
        return int(self.phi[(n - self.lo) // 2])


def sieved(lo: int, hi: int, step: int):
    """The totients of lo, lo + step, ... up to hi: a table of step 1 or 6,
    or for step 2 the odd entries of a step-1 walk over [lo, hi]."""
    if step != 2:
        return sieve_segment(lo, hi, step=step)
    hi -= 1 - hi % 2
    tables = iter_sieve_tables(lo, hi)
    return OddEntries(lo, hi, np.concatenate([t.phi for t in tables])[::2])


@pytest.mark.parametrize(
    "lo, entries",
    list(dict.fromkeys([
        # one entry, a prime segment, the 15015 odd numbers of a wheel
        # period and one more
        *((1, n) for n in (1, 4099, 15_015, 15_016, 1 << 20)),
        # odd lo at several places in a wheel period and half of one, so
        # tiles start and end part-way through a period
        *(
            (lo, n)
            for lo in (15_013, 15_015, 30_029, 30_031, 30_030 * 3_330 + 7_777)
            for n in (1, 15_014, 15_015, 15_016, 3 * 15_015 + 7)
        ),
        (10**8 + 1, 1 << 20),
        (31_607 * 31_607 - 1000, 1001),  # the largest prime square below the cap
        # ending at the last odd number below the cap, the int32 headroom
        (LAST_ODD - 2 * (12_345 - 1), 12_345),
        (LAST_ODD - 2 * ((1 << 20) - 1), 1 << 20),
        (LAST_ODD, 1),
    ])),
)
def test_odd_segment_equals_the_odd_entries_of_the_previous_sieve(lo, entries):
    # the odd numbers lo, lo + 2, ... up to hi as the sieve gives them: the
    # odd entries of step-1 tables, and the tables of the two classes prime
    # to 6 among them, which the float walk reads; an even hi ends each at
    # the number of its class before it
    hi = lo + 2 * (entries - 1)
    expected = previous_sieve_phi(lo, hi)
    view = sieved(lo, hi + 1, 2)
    assert (view.lo, view.hi) == (lo, hi)
    assert np.array_equal(view.phi, expected[::2])
    for c in range(lo, min(lo + 4, hi) + 1, 2):
        if c % 3:
            table = sieve_segment(c, hi + 1, step=6)
            assert (table.lo, table.step) == (c, 6) and hi - 6 < table.hi <= hi
            assert np.array_equal(table.phi, expected[c - lo :: 6])


def test_odd_segments_refuse_what_they_cannot_hold(monkeypatch):
    # the sieve takes odd numbers only as a class prime to 6, from an lo of
    # that class; the step-2 odd-number mode is gone
    for lo in (2, 3, 4, 6, 9, 10**8):  # step 6 takes an lo prime to 6
        with pytest.raises(ValueError, match="prime to 6"):
            sieve_segment(lo, lo + 60, step=6)
    for step in (0, 2, 3, -2):
        with pytest.raises(ValueError, match="step"):
            sieve_segment(1, 11, step=step)
        with pytest.raises(ValueError, match="step"):
            next(iter_sieve_tables(1, 11, step=step))
    # the last number of the class is what the cap applies to
    for c in (LAST_OF_STEP[6], LAST_OF_STEP[6] - 2):  # 1 and 5 (mod 6)
        assert sieve_segment(c, SIEVE_MAX_N, step=6).hi == c
        message = rf"^last number of the class = {c + 6} exceeds the cap {SIEVE_MAX_N}$"
        for lo in (c, c % 6):
            with pytest.raises(RangeLimitError, match=message):
                sieve_segment(lo, c + 6, step=6)
            with pytest.raises(RangeLimitError, match=message):
                iter_sieve_tables(lo, c + 6, step=6)
    # the segment size counts entries, not the numbers they span
    monkeypatch.setattr(limits, "SEGMENT_SIZE", 10)
    assert sieve_segment(5, 60, step=6).phi.size == 10
    with pytest.raises(RangeLimitError):
        sieve_segment(5, 65, step=6)
    table = sieve_segment(11, 65, step=6)
    assert [table.phi_of(n) for n in (11, 35, 65)] == [10, 24, 48]
    for n in (12, 13, 5, 71):
        with pytest.raises(ValueError):
            table.phi_of(n)


def test_step_2_is_refused_at_the_call(monkeypatch):
    # step 2, even from an odd lo, is a ValueError from the call itself:
    # without a walk to build, any table would fail otherwise
    monkeypatch.setattr(sieves, "_Walk", None)
    message = r"^need step 1, or 6 from an lo prime to 6; got step 2 from 1$"
    for call in (sieve_segment, iter_sieve_tables):
        with pytest.raises(ValueError, match=message):
            call(1, 9, step=2)


def use_walk_length(monkeypatch, size):
    # the totient walk cuts segments of size entries on one thread and on
    # several
    monkeypatch.setattr(limits, "SEGMENT_SIZE", size)
    monkeypatch.setattr(limits, "TOTIENT_SEGMENT_SIZE", size)


def test_odd_tables_cover_the_odd_numbers_in_order(monkeypatch):
    # the odd numbers prime to 3 as the float walk reads them: a walk of
    # each class prime to 6 from the first of its numbers from lo, on one
    # thread and two, in segments of a prime length, of three wheel periods
    # of a class and longer, covers its class up to hi in order
    whole = sieve_segment(1, 40_000)
    for size in (101, 997, 15015, 30000):
        use_walk_length(monkeypatch, size)
        for lo, hi in ((1, 40_000), (9_999, 39_999)):
            for c in (n for n in range(lo, lo + 6, 2) if n % 3):
                last = hi - (hi - c) % 6
                for threads in (1, 2):
                    tables = list(iter_sieve_tables(c, hi, threads=threads, step=6))
                    assert all(t.step == 6 and t.lo % 6 == c % 6 for t in tables)
                    assert [t.lo for t in tables[1:]] == [t.hi + 6 for t in tables[:-1]]
                    assert tables[0].lo == c and tables[-1].hi == last
                    assert all(t.phi.size == size for t in tables[:-1])
                    got = np.concatenate([t.phi for t in tables])
                    assert np.array_equal(got, whole.phi[c - 1 : hi : 6])
    monkeypatch.setattr(limits, "TOTIENT_SEGMENT_SIZE", 7)
    spans = [(t.lo, t.hi) for t in iter_sieve_tables(5, 100, step=6)]
    assert spans == [(5, 41), (47, 83), (89, 95)]


def stride_sieve_phi(lo: int, hi: int, step: int = 1) -> np.ndarray:
    """Totients of lo, lo + step, ... up to hi the way ``sieve_segment`` took
    them before it bucketed its sparse strides: two strided numpy calls for
    every root prime and every prime power up to hi, one stride at a time,
    then the one large-prime fix; in int64, with no wheel. No prime of
    step divides an n of the table."""
    count = (hi - lo) // step + 1
    small = np.ones(count, dtype=np.int64)
    phi = np.ones(count, dtype=np.int64)
    primes = base_primes()
    for p in primes[: bisect_right(primes, math.isqrt(hi))]:
        if step % p == 0:
            continue
        q, f = p, p - 1
        while q <= hi:
            s = -lo * pow(step, -1, q) % q  # q | lo + step * s
            small[s::q] *= p
            phi[s::q] *= f
            q, f = q * p, p
    n = np.arange(lo, hi + 1, step, dtype=np.int64)
    return phi * np.maximum(n // small - 1, 1)


@pytest.mark.parametrize("step", [1, 2, 6])
@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("entries", [13, 256, 1 << 16, 1 << 18, 1 << 20])
def test_bucketed_segment_equals_the_per_prime_stride_sieve(entries, where, step):
    # segments too short to take any stride of their own, the walk's length
    # and the longest segment, from lo = 1, from 1e8 + 1 and ending at the
    # last number below the cap, against the stride loop they replaced; for
    # step 2 the odd entries of the step-1 walk over the same numbers
    lo = {
        "first": 1,
        "middle": 10**8 + 1,
        "last": LAST_OF_STEP[step] - step * (entries - 1),
    }[where]
    hi = lo + step * (entries - 1)
    table = sieved(lo, hi, step)
    assert np.array_equal(table.phi, stride_sieve_phi(lo, hi, step))


def first_hit(q: int, lo: int, step: int) -> int:
    """The first n = lo + step*i, i >= 0, that q, prime to step, divides."""
    return lo + step * (-lo * pow(step, -1, q) % q)


@pytest.mark.parametrize("step", [1, 2, 6])
@pytest.mark.parametrize("entries", [1 << 16, 1 << 18])
def test_strides_either_side_of_the_bucket_threshold(entries, step):
    # the largest prime and prime power up to entries // STRIDED_HITS take
    # their own strides, the next ones are bucketed: 251 | 257 and 256 | 289
    # (243 | 289 for the odd numbers, 169 | 289 for a class mod 6) at 2**16
    # entries, 1021 | 1031 and 1024 | 1331 (961 | 1331) at 2**18. Step 2
    # reads the odd entries of a walk of twice the numbers, whose segments
    # hold their own threshold, at the same hits
    edge = entries // STRIDED_HITS
    primes = [p for p in base_primes() if step % p]  # no power of p divides n
    powers = sorted(
        p**k for p in primes[:40] for k in range(2, 32) if p**k <= SIEVE_MAX_N
    )
    strides = []
    for moduli in (primes, powers):
        i = bisect_right(moduli, edge)
        strides += moduli[i - 1 : i + 1]
    assert strides[0] <= edge < strides[1] and strides[2] <= edge < strides[3]
    lo = 10**8 + 1
    hi = lo + step * (entries - 1)
    table = sieved(lo, hi, step)
    assert np.array_equal(table.phi, stride_sieve_phi(lo, hi, step))
    for q in strides:
        n = first_hit(q, lo, step)
        assert n <= hi and table.phi_of(n) == phi_oracle(n)


@pytest.mark.parametrize("step", [1, 2, 6])
def test_an_entry_hit_by_two_bucketed_strides_takes_both(step):
    # np.multiply.at applies every hit on one entry, where a fancy-index *=
    # would keep only one of them: n has two prime factors above the
    # threshold, or the square of one and another, and a third factor
    # from the strides of its own; each n is prime to 6
    entries = 1 << 16
    edge = entries // STRIDED_HITS
    p, q = [x for x in base_primes() if x > edge][:2]
    for n in (p * q * 367, p * p * q, p * q):
        lo = max(1, n - step * 1000)
        table = sieved(lo, lo + step * (entries - 1), step)
        assert table.phi_of(n) == phi_oracle(n)
        assert np.array_equal(table.phi, stride_sieve_phi(table.lo, table.hi, step))


def capped_strides(last: int, step: int) -> np.ndarray:
    """The (q, p) stride table of a walk ending at last the way the sieve
    took it before it built one for each walk: a cached table of every
    prime past the wheel's and every power p**k, k >= 2, of a base prime up
    to SIEVE_MAX_N (no power of 2 for step 2, of 2 or 3 for step 6),
    filtered to the powers up to last and the primes up to sqrt(last)."""
    primes = np.array(base_primes(), dtype=np.int64)
    rest = primes[len(WHEEL_PRIMES) :]
    qs, ps = [rest], [rest]
    p = primes[(primes != 2) & (primes != 3)] if step == 6 else primes[step - 1 :]
    q = p * p
    while p.size:
        ps.append(p)
        qs.append(q)
        q = q * p
        p, q = p[q <= SIEVE_MAX_N], q[q <= SIEVE_MAX_N]
    q, p = table = np.array([np.concatenate(qs), np.concatenate(ps)], dtype=np.int32)
    return table[:, (q <= last) & ((q != p) | (p <= math.isqrt(last)))]


@pytest.mark.parametrize("step", [1, 2, 6])
@pytest.mark.parametrize(
    "last",
    # no root prime, the first square 4 and 16 | 17, the last wheel prime
    # 13 at 169 and the first stride prime 17 at 289 either side of their
    # squares, either side of one wheel period, and up to the cap
    [1, 2, 16, 17, 168, 169, 170, 288, 289, 290, 30029, 30030, 30031,
     10**7, 10**8 + 1, SIEVE_MAX_N],
)
def test_a_walk_builds_the_strides_of_its_last_number(last, step):
    if step == 2:
        # the odd entries of a step-1 walk take its strides of odd modulus
        table = _strides(last, 1)
        table = table[:, table[0] % 2 == 1]
    else:
        table = _strides(last, step)
    assert table.dtype == np.int32
    assert np.array_equal(table, capped_strides(last, step))
    q, p = table
    assert q.size == 0 or q.max() <= last and p.max() <= math.isqrt(last)
    if step == 6:  # no modulus of a step-6 walk is divisible by 2 or 3
        assert not np.any((q % 2 == 0) | (q % 3 == 0))


@pytest.mark.parametrize("step", [1, 6])
def test_the_wheel_keeps_the_residues_its_step_reads(step):
    # against the int32 wheel of every residue over two periods and a bit,
    # which the tables of a class mod 6 read every sixth entry of, from the
    # class
    radical = np.ones(2 * WHEEL + 5, dtype=np.int32)
    totient = np.ones(2 * WHEEL + 5, dtype=np.int32)
    for p in WHEEL_PRIMES:
        radical[::p] *= p
        totient[::p] *= p - 1
    for residue in {1: [0], 6: [1, 5]}[step]:
        got = _wheel(step, residue)
        assert [w.dtype for w in got] == [np.int16, np.int16]
        assert [w.size for w in got] == [2 * WHEEL // step] * 2
        assert np.array_equal(got[0], radical[residue::step][: 2 * WHEEL // step])
        assert np.array_equal(got[1], totient[residue::step][: 2 * WHEEL // step])


@pytest.mark.parametrize("entries", [1, 13, 15_015, 15_016])
@pytest.mark.parametrize(
    "lo",
    # tables of odd numbers from either side of a whole wheel period and of
    # an odd multiple of half a period; near 1e8 and near the cap
    sorted(
        lo
        for k in (0, 1, 3_330, 33_298)
        for lo in (30_030 * k - 1, 30_030 * k + 1, 15_015 * (2 * k + 1) - 2,
                   15_015 * (2 * k + 1) + 2)
        if lo > 0
    ),
)
def test_odd_tables_from_the_edges_of_the_wheel(lo, entries):
    # 15015 is 3 (mod 6), so every lo is prime to 6 and starts a table of
    # its class: at the first and last entries of the class wheel's period
    # and half-way through it, over three class periods and one more entry
    hi = min(lo + 6 * (entries - 1), SIEVE_MAX_N)
    table = sieve_segment(lo, hi, step=6)
    assert (table.lo, table.step) == (lo, 6) and table.hi > hi - 6
    assert np.array_equal(table.phi, stride_sieve_phi(lo, hi, 6))


@pytest.mark.parametrize("entries", [1, 13, 5005, 5006])
@pytest.mark.parametrize(
    "lo",
    # tables of either class prime to 6 from either side of a whole wheel
    # period, where the class wheel's slice starts at its first and last
    # entries, near 1e8 and ending near the cap
    sorted(
        lo
        for k in (0, 1, 3_330, 33_299)
        for c in (1, 5)
        for lo in (30_030 * k + c - 6, 30_030 * k + c)
        if lo > 0
    ),
)
def test_class_tables_from_the_edges_of_the_wheel(lo, entries):
    hi = min(lo + 6 * (entries - 1), SIEVE_MAX_N)
    table = sieve_segment(lo, hi, step=6)
    assert (table.lo, table.step) == (lo, 6) and table.hi > hi - 6
    assert np.array_equal(table.phi, stride_sieve_phi(lo, hi, 6))
    for n in (table.lo, table.hi):
        assert table.phi_of(n) == phi_oracle(n)


@pytest.mark.parametrize("lo", [1, 5, 30_029, 10**8 + 3])
def test_class_walks_cover_their_class_in_order(monkeypatch, lo):
    # a walk of one class mod 6 on one thread and on two, in segments
    # shorter than a wheel period and of a prime length, against the whole
    # class sieved at once
    hi = lo + 6 * 5_000 + 5
    whole = stride_sieve_phi(lo, hi, 6)
    for size in (13, 4099):
        use_walk_length(monkeypatch, size)
        for threads in (1, 2):
            tables = list(iter_sieve_tables(lo, hi, threads=threads, step=6))
            assert all(t.step == 6 and t.lo % 6 == lo % 6 for t in tables)
            assert [t.lo for t in tables[1:]] == [t.hi + 6 for t in tables[:-1]]
            assert tables[0].lo == lo and tables[-1].hi == lo + 6 * 5_000
            assert np.array_equal(np.concatenate([t.phi for t in tables]), whole)


@pytest.mark.parametrize("step", [1, 2, 6])
@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("entries", [13, 4099, 1 << 16, 1 << 20])
def test_a_walk_equals_its_segments_sieved_alone(monkeypatch, entries, where, step):
    # the one-thread walk takes the strides of its last number once and
    # carries each bucketed stride's next hit from segment to segment;
    # sieve_segment finds every start from its own lo. Over two and a half
    # segments, from lo = 1, from 1e8 + 1 and ending at the last number
    # below the cap, every table must equal the one sieved alone, and the
    # whole walk the per-prime stride sieve. Step 2 walks every number of
    # twice the span and reads the odd ones
    use_walk_length(monkeypatch, entries)
    span = step * (5 * entries // 2)  # the numbers the walk reads
    lo = {
        "first": 1,
        "middle": 10**8 + 1,
        "last": LAST_OF_STEP[step] - span + step,
    }[where]
    hi = lo + span - step
    walk = 1 if step == 2 else step
    tables = list(iter_sieve_tables(lo, hi, step=walk))
    count = (hi - lo) // walk + 1
    sizes = [entries] * (count // entries) + [count % entries] * (count % entries > 0)
    assert [t.phi.size for t in tables] == sizes
    for table in tables:
        assert table == sieve_segment(table.lo, table.hi, step=walk)
    got = np.concatenate([t.phi for t in tables])[:: step // walk]
    assert np.array_equal(got, stride_sieve_phi(lo, hi, step))


@pytest.mark.parametrize("step", [1, 2, 6])
def test_a_walk_sieves_early_segments_with_the_strides_of_its_last_number(
    monkeypatch, step
):
    # the largest stride prime p of the walk lies above sqrt of its first
    # segment's hi: sieving that segment alone leaves p to the large-prime
    # fix, the walk takes its stride, and each multiple of p there then
    # leaves 1 for the fix. Step 2 walks every number and reads the odd ones
    use_walk_length(monkeypatch, 4099)
    hi = 1 + step * (3 * 4099 - 1)
    walk = 1 if step == 2 else step
    tables = list(iter_sieve_tables(1, hi, step=walk))
    first = tables[0]
    p = max(q for q in base_primes() if q * q <= hi)
    # p and its next multiple in the walk's class, 3p or 7p
    multiple = next(k * p for k in (3, 7) if (k * p - 1) % walk == 0)
    assert first.hi < p * p and multiple <= first.hi
    for n in (p, multiple):
        assert first.phi_of(n) == phi_oracle(n)
    got = np.concatenate([t.phi for t in tables])[:: step // walk]
    assert np.array_equal(got, stride_sieve_phi(1, hi, step))


def test_tables_a_walk_yields_keep_their_totients(monkeypatch):
    # the walk sieves into buffers it reuses, but every table owns its phi:
    # tables kept in a list do not change as the walk goes on
    use_walk_length(monkeypatch, 4099)
    for step in (1, 6):
        kept, copies = [], []
        for table in iter_sieve_tables(10**8 + 1, 10**8 + 50_000 * step, step=step):
            kept.append(table)
            copies.append(table.phi.copy())
        assert len(kept) > 3
        for table, copy in zip(kept, copies):
            assert np.array_equal(table.phi, copy)
        for a, b in itertools.combinations(kept, 2):
            assert not np.shares_memory(a.phi, b.phi)


@pytest.mark.parametrize(
    "args, kwargs, error",
    [
        ((1, 10), {"threads": 0}, ValueError),
        ((1, 10), {"threads": 1.5}, TypeError),
        ((1, 9), {"step": 2}, ValueError),
        ((1, 11), {"step": 3}, ValueError),
        ((3, 2), {}, ValueError),
        ((0, 10), {}, ValueError),
        ((1, SIEVE_MAX_N + 1), {}, RangeLimitError),
        ((1, LAST_OF_STEP[6] + 6), {"step": 6}, RangeLimitError),
        ((9, 61), {"step": 6}, ValueError),
        ((10, 61), {"step": 6}, ValueError),
        ((5, LAST_OF_STEP[6] + 6), {"step": 6}, RangeLimitError),
        # the step is an integer, not a bool or a float equal to one
        ((1, 10), {"step": True}, TypeError),
        ((1, 13), {"step": 6.0}, TypeError),
    ],
)
def test_a_walk_checks_its_arguments_at_the_call(args, kwargs, error):
    # the error comes from the call itself, not from the first next()
    with pytest.raises(error):
        iter_sieve_tables(*args, **kwargs)


def test_a_short_segment_copies_no_whole_wheel_period():
    # the wheel tiles are cut from at most one period, so a segment shorter
    # than the period allocates about its own length, not whole periods
    sieve_segment(1, 809)  # builds the cached wheel and base primes
    tracemalloc.start()
    try:
        table = sieve_segment(1, 809)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    assert np.array_equal(table.phi, previous_sieve_phi(1, 809))


@pytest.mark.parametrize(
    "lo, step",
    [
        (1, 1),
        (10**8 + 1, 1),
        (10**8 + 1, 6),
        # ending at the cap, with about 7000 strides a segment
        (SIEVE_MAX_N - (1 << 16) + 1, 1),
        (LAST_OF_STEP[6] - 6 * ((1 << 16) - 1), 6),
    ],
)
def test_a_segment_peaks_at_its_two_int32_arrays(lo, step):
    # small and phi take 8 bytes an entry; n is built into one buffer of
    # FIX_CHUNK entries, and the table is phi itself. The wheel is copied
    # into both by slices, so nothing runs past the segment; the buffer of
    # n, the stride table with each stride's next hit, and one HIT_CHUNK of
    # hits of the bucketed strides fit in the allowance of three wheel
    # periods that np.resize's tiles once took, up to the cap: each stride
    # holds three int32 values and the bucket two more, and a hit's index
    # is int32. Measured with numpy 2.4 on x86-64 at 2**16 entries: 0.69 MB
    # at lo = 1, 0.78 MB for every number and for 5 (mod 6) from 1e8 + 1,
    # 0.87 MB for both near the cap, as for the odd numbers of the retired
    # step 2; 1.05 MB there with int64 arrays of one entry a stride or a
    # hit, when odd tables from 1e8 + 1 took 0.86 MB;
    # with np.resize, strides found anew from lo and 2048 hits
    # a chunk 0.86 and 0.81 MB, 0.85 and 0.74 MB with a stride loop of one
    # prime at a time, and 0.99 and 0.92 MB when n, small and phi were built
    # whole and phi was copied to int64 (12 bytes an entry)
    size = 1 << 16
    hi = lo + step * (size - 1)
    sieve_segment(lo, hi, step=step)  # builds the cached wheel and base primes
    tracemalloc.start()
    try:
        table = sieve_segment(lo, hi, step=step)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.phi.size == size
    assert peak < 8 * size + 3 * 4 * WHEEL


@pytest.mark.parametrize("step", [1, 2, 6])
@pytest.mark.parametrize(
    "where, entries",
    [
        *(("last", n) for n in (1, FIX_CHUNK - 1, FIX_CHUNK, FIX_CHUNK + 1, 1 << 20)),
        *(("first", n) for n in (1, FIX_CHUNK - 1, FIX_CHUNK, FIX_CHUNK + 1)),
        ("middle", 3 * FIX_CHUNK + 1),
    ],
)
def test_int32_tables_equal_the_int64_oracle_at_the_edges(where, entries, step):
    # the large-prime fix runs one FIX_CHUNK of entries at a time: a segment
    # of one entry, of one chunk and one either side, and the last segment
    # below the cap, whose n and totients are the largest the int32 arrays
    # hold, against the int64 oracle; for step 2 the odd entries of the
    # step-1 walk over the same numbers
    lo = {
        "first": 1,
        "middle": 10**8 + 1,
        "last": LAST_OF_STEP[step] - step * (entries - 1),
    }[where]
    hi = lo + step * (entries - 1)
    table = sieved(lo, hi, step)
    assert table.phi.dtype == np.int32 and table.phi.size == entries
    assert np.array_equal(table.phi, previous_sieve_phi(lo, hi)[::step])
    for n in (lo, hi):
        assert type(table.phi_of(n)) is int and table.phi_of(n) == phi_oracle(n)


def test_cap_fits_the_int32_sieve():
    # sieve_segment works in int32 because no value it forms exceeds hi; a
    # cap above 2**31 - 1 needs int64 sieve arrays
    assert SIEVE_MAX_N <= np.iinfo(np.int32).max


def test_totient_divisor_sum_identity():
    # sum of phi(d) over d | n equals n
    limit = 10**4
    table = sieve_segment(1, limit)
    sums = np.zeros(limit + 1, dtype=np.int64)
    for d in range(1, limit + 1):
        sums[d::d] += table.phi_of(d)
    assert np.array_equal(sums[1:], np.arange(1, limit + 1))


def test_partition_independence(monkeypatch):
    whole = sieve_segment(1, 30_000)
    whole_flags = squarefree_flags(1, 30_000)
    for size in (997, 4096, 30_000):
        monkeypatch.setattr(limits, "TOTIENT_SEGMENT_SIZE", size)
        phis = []
        flags = []
        for t in iter_sieve_tables(1, 30_000):
            phis.append(t.phi)
            flags.append(squarefree_flags(t.lo, t.hi))
        assert np.array_equal(np.concatenate(phis), whole.phi)
        assert np.array_equal(np.concatenate(flags), whole_flags)


def test_iter_covers_range_exactly(monkeypatch):
    monkeypatch.setattr(limits, "TOTIENT_SEGMENT_SIZE", 7)
    spans = [(t.lo, t.hi) for t in iter_sieve_tables(5, 23)]
    assert spans == [(5, 11), (12, 18), (19, 23)]


def test_threads_do_not_change_tables(monkeypatch):
    use_walk_length(monkeypatch, 9973)
    seq = list(iter_sieve_tables(1, 50_000))
    par = list(iter_sieve_tables(1, 50_000, threads=4))
    assert [(t.lo, t.hi) for t in seq] == [(t.lo, t.hi) for t in par]
    for a, b in zip(seq, par):
        assert np.array_equal(a.phi, b.phi)


@pytest.mark.parametrize("cpus", [{0}, {0, 1}])
def test_a_walk_on_threads_cuts_the_longest_segments(monkeypatch, cpus):
    # one thread cuts TOTIENT_SEGMENT_SIZE entries a segment, worker threads
    # SEGMENT_SIZE, whose longer segments make fewer hand-overs between
    # them. The threads asked for set the length, not the usable CPUs, so
    # the tables of a walk depend on its arguments alone
    whole = sieve_segment(1, 5000)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    monkeypatch.setattr(limits, "SEGMENT_SIZE", 1000)
    monkeypatch.setattr(limits, "TOTIENT_SEGMENT_SIZE", 300)
    for threads, size in ((1, 300), (2, 1000), (4, 1000)):
        for step in (1, 6):
            tables = list(iter_sieve_tables(1, 5000, threads=threads, step=step))
            assert [t.lo for t in tables] == list(range(1, 5001, size * step))
            got = np.concatenate([t.phi for t in tables])
            assert np.array_equal(got, whole.phi[::step])


def test_a_threaded_walk_sieves_ahead_on_one_helper_thread(monkeypatch):
    pools = []

    class RecordingPool:
        """Runs each job at submit and records pool size and jobs pending."""

        def __init__(self, max_workers):
            self.max_workers = max_workers
            self.pending = self.peak = 0
            pools.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return None

        def submit(self, fn, *args, **kwargs):
            self.pending += 1
            self.peak = max(self.peak, self.pending)
            value = fn(*args, **kwargs)
            return SimpleNamespace(result=lambda: self.hand_back(value))

        def hand_back(self, value):
            self.pending -= 1
            return value

    # iter_sieve_tables imports the pool class only when it uses threads
    monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", RecordingPool)
    use_walk_length(monkeypatch, 10)
    seq = [t.phi.tolist() for t in iter_sieve_tables(1, 500)]

    def walk(threads):
        pools.clear()
        tables = list(iter_sieve_tables(1, 500, threads=threads))
        assert [t.phi.tolist() for t in tables] == seq
        return [(pool.max_workers, pool.peak) for pool in pools]

    # one helper with one table pending, however many threads are asked for
    # and CPUs usable; none where only one CPU is usable
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    assert walk(2) == walk(64) == [(1, 1)]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert walk(64) == []
    # where os has no sched_getaffinity (macOS, Windows), the CPU count
    # decides, and an unknown count means one thread
    monkeypatch.delattr(os, "sched_getaffinity")
    for count, helpers in ((2, [(1, 1)]), (None, [])):
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        assert walk(64) == helpers


def test_a_threaded_walk_holds_under_frequent_thread_switches(monkeypatch):
    # the consumer reads the walk's position between the helper's tables
    # only; with the interpreter switching threads every microsecond, a
    # read or write out of turn would skip or repeat a segment
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    use_walk_length(monkeypatch, 97)
    for step in (1, 6):
        seq = list(iter_sieve_tables(1, 30_000, step=step))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            par = list(iter_sieve_tables(1, 30_000, threads=2, step=step))
        finally:
            sys.setswitchinterval(interval)
        assert par == seq


def test_a_threaded_walk_closed_early_joins_its_helper(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    use_walk_length(monkeypatch, 1000)
    before = threading.active_count()
    tables = iter_sieve_tables(1, 50_000, threads=2)
    assert next(tables) == sieve_segment(1, 1000)
    tables.close()
    assert threading.active_count() == before


def test_an_error_on_the_helper_reaches_the_consumer(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    use_walk_length(monkeypatch, 1000)
    table = sieves._Walk.table
    sievers = []

    def failing(walk):
        sievers.append(threading.get_ident())
        if len(sievers) == 3:
            raise RuntimeError("third table")
        return table(walk)

    monkeypatch.setattr(sieves._Walk, "table", failing)
    before = threading.active_count()
    got = []
    with pytest.raises(RuntimeError, match="third table"):
        for t in iter_sieve_tables(1, 50_000, threads=2):
            got.append(t.lo)
    # the first two tables came back; the third failed on the helper
    assert got == [1, 1001]
    assert threading.get_ident() not in sievers
    assert threading.active_count() == before


def test_segment_argument_errors(monkeypatch):
    with pytest.raises(ValueError):
        sieve_segment(0, 10)
    with pytest.raises(ValueError):
        sieve_segment(10, 5)
    with pytest.raises(RangeLimitError):
        sieve_segment(1, 2 * 10**6)  # longer than the default segment
    monkeypatch.setattr(limits, "SEGMENT_SIZE", 10**7)
    with pytest.raises(RangeLimitError):
        sieve_segment(1, SIEVE_MAX_N + 1)
    with pytest.raises(RangeLimitError):
        sieve_segment(SIEVE_MAX_N, SIEVE_MAX_N + 1)
    with pytest.raises(ValueError):
        list(iter_sieve_tables(3, 2))
    with pytest.raises(ValueError):
        squarefree_flags(0, 10)
    with pytest.raises(RangeLimitError):
        squarefree_flags(SIEVE_MAX_N, SIEVE_MAX_N + 1)
    table = sieve_segment(10, 20)
    with pytest.raises(ValueError):
        table.phi_of(9)
    monkeypatch.setattr(limits, "SEGMENT_SIZE", 10)
    with pytest.raises(RangeLimitError):
        sieve_segment(1, 11)


@pytest.mark.parametrize("lo", [1, 99_900, 10**8 + 7])
@pytest.mark.parametrize(
    "primes", [(), (2,), (3, 5), (2, 3, 5, 7), (10_007,), (1_000_000_007,)]
)
def test_squarefree_flags_against_trial_division(lo, primes):
    # t*k is square-free iff k is and no prime of the square-free t divides k;
    # 10_007 is longer than the window and has one multiple in the middle one,
    # 1_000_000_007 has none in any window
    hi = lo + 299
    flags = squarefree_flags(lo, hi, primes)
    assert flags.dtype == bool and flags.flags.writeable
    expected = [
        squarefree_oracle(k) and all(k % p for p in primes)
        for k in range(lo, hi + 1)
    ]
    assert flags.tolist() == expected


def test_tables_are_read_only():
    table = sieve_segment(1, 10)
    with pytest.raises(ValueError):
        table.phi[0] = 99
    assert table.phi.dtype == np.int32


@settings(max_examples=100)
@given(
    lo=st.integers(min_value=1, max_value=10**6),
    length=st.integers(min_value=0, max_value=300),
    cut=st.integers(min_value=0, max_value=300),
)
def test_splitting_a_segment_changes_nothing(lo, length, cut):
    hi = lo + length
    whole = sieve_segment(lo, hi)
    mid = lo + min(cut, length)
    parts = [sieve_segment(lo, mid)]
    if mid < hi:
        parts.append(sieve_segment(mid + 1, hi))
    assert np.array_equal(np.concatenate([p.phi for p in parts]), whole.phi)
    flags = [squarefree_flags(p.lo, p.hi) for p in parts]
    assert np.array_equal(np.concatenate(flags), squarefree_flags(lo, hi))


def test_factorize_known_values():
    assert factorize(1) == []
    assert factorize(2) == [(2, 1)]
    assert factorize(200) == [(2, 3), (5, 2)]
    assert factorize(12348) == [(2, 2), (3, 2), (7, 3)]
    assert factorize(999_999_937) == [(999_999_937, 1)]  # prime above sieve base


def test_factorize_round_trip():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 10**9)
        product = 1
        last_p = 0
        for p, e in factorize(n):
            assert p > last_p and e >= 1
            assert is_prime(p)
            product *= p**e
            last_p = p
        assert product == n


def test_factorize_large_semiprime():
    p, q = 1_000_003, 999_983
    assert factorize(p * q) == [(q, 1), (p, 1)]


def test_factorize_returns_a_fresh_list_each_call():
    # the factors are cached once per n; changing a returned list must not
    # change what the next call returns
    first = factorize(360)
    first.append((7, 1))
    first[0] = (3, 9)
    assert factorize(360) == [(2, 3), (3, 2), (5, 1)]
    assert factorize(360) is not factorize(360)


def test_factorize_errors():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(RangeLimitError):
        factorize(10**12 + 1)


def test_divisibility_exponent():
    assert divisibility_exponent(8, 2) == 3
    assert divisibility_exponent(7, 2) == 0
    assert divisibility_exponent(144, 12) == 2
    assert divisibility_exponent(1, 5) == 0
    with pytest.raises(ValueError):
        divisibility_exponent(0, 2)
    with pytest.raises(ValueError):
        divisibility_exponent(10, 1)


@settings(max_examples=100)
@given(
    n=st.integers(min_value=1, max_value=10**6),
    m=st.integers(min_value=2, max_value=50),
)
def test_divisibility_exponent_is_maximal(n, m):
    t = divisibility_exponent(n, m)
    assert n % m**t == 0
    assert n % m ** (t + 1) != 0


def test_phi_matches_factorization():
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randint(2, 10**6)
        expected = n
        for p, _ in factorize(n):
            expected = expected // p * (p - 1)
        assert sieve_segment(n, n).phi_of(n) == expected
