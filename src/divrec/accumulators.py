"""Exact accumulators for long ratio sums.

Both accumulators keep their sum exactly, so a snapshot taken mid-stream
equals a from-scratch sum over the prefix, whatever the order or chunking of
the terms. That property is what makes checkpointed tables and multi-threaded
sieving bit-reproducible. The float sum counts in one fixed unit of
2**-FLOAT_UNIT_BITS = 2**-56, in which every double of [2**-3, 2), and so
every totient ratio up to the sieve cap, is a whole number. Its ``extend``
sums the values it is handed in one numpy pass, and ``extend_at`` sums one
block at the cuts it is handed; with no cut it calls ``extend``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

import numpy as np

from .arith import FLOAT_UNIT_BITS, pair_sum, rounded_units

#: Values a float walk on one thread hands the accumulator at a time. A
#: pass over n values makes temporaries of 8 bytes a value, 64 KiB here,
#: under glibc's default mmap threshold of 128 KiB, so the memory of one
#: block is reused by the next rather than mapped and faulted in again;
#: ``extend_at`` makes about 0.13 MB of them a block. At 2**14 values the
#: temporaries reach the threshold and a float walk to 1e8 took about
#: 73 000 minor page faults against 100. A walk on two or more threads
#: reads blocks of 4 * BLOCK values, as each numpy call there hands the
#: interpreter lock to the helper thread and waits to take it back:
#: ``phi_ratio_sums_at(1, [10**8], threads=2)`` took 1.21 s at 2**13 values
#: a block against 0.85 s at 2**15 (medians of 7 alternating runs).
BLOCK = 1 << 13


class ExactFloatSum:
    """Exact sum of doubles in [2**-3, 2), rounded once to the nearest double
    on read.

    The running sum is the Python int ``_num`` in units of
    2**-FLOAT_UNIT_BITS. Each block of values is scaled to int64 integers
    whose high and low 32-bit halves are summed in numpy. ``value`` divides
    once, and CPython rounds int / int correctly, so the result is the
    correctly rounded sum whatever the order or chunking of the terms.
    """

    __slots__ = ("_num",)

    def __init__(self) -> None:
        self._num = 0

    def extend(self, values: Iterable[float]) -> None:
        """Add doubles in [2**-3, 2) (any array-like) in one numpy pass, so
        a caller that wants small temporaries hands over short blocks; a
        ValueError, adding nothing, if any value lies outside, NaN and inf
        included."""
        self._num += _units(_checked(values))[-1]

    def extend_at(self, values: Iterable[float], cuts: Sequence[int]) -> list[int]:
        """Add values as :meth:`extend` does, and return the exact sum in
        units of 2**-FLOAT_UNIT_BITS after each of the ascending entry counts
        ``cuts`` of ``values``; a count past the end reads the total. With no
        cut this is :meth:`extend`; with cuts the values are summed in one
        numpy pass, so a caller hands over one block at a time."""
        if not cuts:
            self.extend(values)
            return []
        *running, total = _units(_checked(values), cuts)
        out = [self._num + r for r in running]
        self._num += total
        return out

    @property
    def value(self) -> float:
        """The sum rounded to the nearest double."""
        return rounded_units(self._num)


def _checked(values: Iterable[float]) -> np.ndarray:
    # the values as a flat float64 array, if all lie in [2**-3, 2): NaN fails
    x = np.asarray(values, dtype=np.float64).ravel()
    if x.size and not (x.min() >= 0.125 and x.max() < 2.0):
        raise ValueError("can only sum doubles in [0.125, 2.0)")
    return x


def _units(block: np.ndarray, ends: Sequence[int] = ()) -> list[int]:
    # the sums of block[:e] for each e in ends, then of the whole block, in
    # units of 2**-FLOAT_UNIT_BITS: each scaled value is an integer below
    # 2**57, and the int64 sums of its 32-bit halves over n values stay below
    # n * 2**32, under 2**63 for any n < 2**31. Entry 0 of each half is 0,
    # so after a running sum in place entry e holds the sum of the first e
    ints = np.zeros(block.size + 1, dtype=np.int64)
    np.multiply(block, 2.0**FLOAT_UNIT_BITS, out=ints[1:], casting="unsafe")
    high = ints >> 32
    ints &= 0xFFFFFFFF
    if not ends:
        return [(int(high.sum()) << 32) + int(ints.sum())]
    at = np.minimum([*ends, block.size], block.size)  # past the end: the total
    high, low = (np.cumsum(half, out=half)[at].tolist() for half in (high, ints))
    return [(h << 32) + l for h, l in zip(high, low)]


# the name the benchmark's layer probes import and trace
NeumaierSum = ExactFloatSum

class ExactRatioSum:
    """Exact sum of fractions kept as one unreduced (numerator, denominator).

    ``add`` reduces each term and folds it in over the lcm of the two
    denominators, so the running denominator is the lcm of the reduced term
    denominators and the numerator is not reduced against it: the pair
    depends on the terms only, not on their order. ``value`` reduces once
    and returns the canonical Fraction; ``unreduced`` returns the running
    pair without any gcd. The totient walk sums its exact terms with
    :func:`divrec.arith.sum_pairs` instead, as a balanced tree, and keeps the
    same pairs; this one-term adder serves the benchmark and the tests.
    """

    __slots__ = ("_num", "_den")

    def __init__(self) -> None:
        self._num = 0
        self._den = 1

    def add(self, numerator: int, denominator: int) -> None:
        """Add one fraction of any int sizes."""
        if denominator < 1:
            raise ValueError(f"need a positive denominator, got {denominator}")
        g = gcd(numerator, denominator)
        self._num, self._den = pair_sum(
            self._num, self._den, numerator // g, denominator // g
        )

    @property
    def unreduced(self) -> tuple[int, int]:
        """(numerator, denominator) of the sum, not reduced; denominator > 0."""
        return self._num, self._den

    @property
    def value(self) -> Fraction:
        return Fraction(self._num, self._den)

