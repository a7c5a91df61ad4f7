"""Deterministic accumulators for long ratio sums.

Both accumulators are pure functions of the term sequence: feeding the same
terms in the same order always reproduces the same state, so a snapshot taken
mid-stream equals a from-scratch sum over the prefix. That property is what
makes checkpointed tables and multi-threaded sieving bit-reproducible.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable


class NeumaierSum:
    """Kahan-Babuska-Neumaier compensated floating-point accumulator.

    Keeps a running sum and a separate compensation for the low-order bits
    lost at each addition; ``value`` folds the compensation in. Error stays
    O(1) ulp for the term counts used here (up to ~1e9) where naive summation
    would lose several digits.
    """

    __slots__ = ("_sum", "_compensation")

    def __init__(self) -> None:
        self._sum = 0.0
        self._compensation = 0.0

    def add(self, x: float) -> None:
        self.extend((x,))

    def extend(self, values: Iterable[float]) -> None:
        s = self._sum
        c = self._compensation
        for x in values:
            t = s + x
            if abs(s) >= abs(x):
                c += (s - t) + x
            else:
                c += (x - t) + s
            s = t
        self._sum = s
        self._compensation = c

    @property
    def value(self) -> float:
        return self._sum + self._compensation


class ExactRatioSum:
    """Exact sum of fractions kept over a running common denominator.

    Adding a term only rescales the accumulator when the denominator brings a
    new factor to the running lcm, so per-term cost is one small gcd instead
    of a full-size normalization. ``value`` reduces once and returns the
    canonical Fraction.
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
    def value(self) -> Fraction:
        return Fraction(self._num, self._den)
