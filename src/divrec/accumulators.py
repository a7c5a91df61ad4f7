"""Exact accumulators for long ratio sums.

Both accumulators keep their sum exactly, so a snapshot taken mid-stream
equals a from-scratch sum over the prefix, whatever the order or chunking of
the terms. That property is what makes checkpointed tables and multi-threaded
sieving bit-reproducible.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable

import numpy as np

#: Values per numpy pass: the block's temporaries stay in cache, and the
#: int64 sums of its 32-bit halves cannot overflow.
_BLOCK = 1 << 15

#: Consecutive frexp exponents per band: scaled to integers at the band's
#: lowest exponent, every value stays below 2**(53 + _BAND - 1) < 2**62.
_BAND = 9

#: Every double is an integer multiple of 2**(_MIN_EXP - 53): frexp
#: exponents start at -1073 (the smallest subnormal is 0.5 * 2**-1073).
_MIN_EXP = -1073
_UNIT = 1 << (53 - _MIN_EXP)


class ExactFloatSum:
    """Exact sum of doubles, rounded once to the nearest double on read.

    The running sum is the Python int ``num`` in units of 2**-1126, a grid
    every double lies on. ``extend`` scales each band of nearby exponents to
    int64 integers with ``np.ldexp`` and sums their high and low 32-bit
    halves in numpy; only those two totals per band become Python ints.
    ``value`` divides once, and CPython rounds int / int correctly, so the
    result is the correctly rounded sum and does not depend on the order or
    chunking of the terms.
    """

    __slots__ = ("_num",)

    def __init__(self) -> None:
        self._num = 0

    def add(self, x: float) -> None:
        self.extend((x,))

    def extend(self, values: Iterable[float]) -> None:
        """Add finite doubles (any array-like); raises ValueError otherwise."""
        x = np.asarray(values, dtype=np.float64).ravel()
        num = self._num  # committed only if every value is finite
        for start in range(0, x.size, _BLOCK):
            block = x[start : start + _BLOCK]
            if not np.isfinite(block).all():
                raise ValueError("can only sum finite values")
            exps = np.frexp(block)[1]
            lo = int(exps.min())
            if int(exps.max()) - lo < _BAND:
                num += _band_total(block, lo)
                continue
            bands = (exps - lo) // _BAND
            for b in np.unique(bands).tolist():
                num += _band_total(block[bands == b], lo + b * _BAND)
        self._num = num

    @property
    def value(self) -> float:
        """The sum rounded to the nearest double; OverflowError past its range."""
        return self._num / _UNIT


def _band_total(values: np.ndarray, lo: int) -> int:
    # sum of values whose frexp exponents lie in [lo, lo + _BAND), in units
    # of 2**(_MIN_EXP - 53); each ldexp result is an integer below 2**62
    ints = np.ldexp(values, 53 - lo).astype(np.int64)
    high = ints >> 32
    ints &= 0xFFFFFFFF
    return ((int(high.sum()) << 32) + int(ints.sum())) << (lo - _MIN_EXP)


# the name the benchmark's layer probes import and trace
NeumaierSum = ExactFloatSum


class ExactRatioSum:
    """Exact sum of fractions kept over a running common denominator.

    Adding a term only rescales the accumulator when the denominator brings a
    new factor to the running lcm, so per-term cost is one small gcd instead
    of a full-size normalization. ``value`` reduces once and returns the
    canonical Fraction; ``unreduced`` returns the running pair without any
    gcd.
    """

    __slots__ = ("_num", "_den")

    def __init__(self) -> None:
        self._num = 0
        self._den = 1

    def add(self, numerator: int, denominator: int) -> None:
        if denominator < 1:
            raise ValueError(f"need a positive denominator, got {denominator}")
        g = gcd(self._den, denominator)
        scale = denominator // g
        if scale > 1:
            self._num *= scale
            self._den *= scale
        self._num += numerator * (self._den // denominator)

    @property
    def unreduced(self) -> tuple[int, int]:
        """(numerator, denominator) of the sum, not reduced; denominator > 0."""
        return self._num, self._den

    @property
    def value(self) -> Fraction:
        return Fraction(self._num, self._den)
