"""Exact accumulators for long ratio sums.

Both accumulators keep their sum exactly, so a snapshot taken mid-stream
equals a from-scratch sum over the prefix, whatever the order or chunking of
the terms. That property is what makes checkpointed tables and multi-threaded
sieving bit-reproducible.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

import numpy as np

from .arith import FLOAT_UNIT_BITS, pair_sum, rounded_units

#: Values per numpy pass: the block's temporaries stay in cache, and the
#: int64 sums of its 32-bit halves cannot overflow. A caller that builds its
#: values in blocks of this length hands over no array longer than one.
BLOCK = 1 << 15

#: Consecutive frexp exponents per band: scaled to integers at the band's
#: lowest exponent, every value stays below 2**(53 + _BAND - 1) < 2**62.
_BAND = 9

#: The least frexp exponent, -1073 (the smallest subnormal is
#: 0.5 * 2**-1073): a double scaled by 2**(53 - _MIN_EXP) is an integer.
_MIN_EXP = 53 - FLOAT_UNIT_BITS


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
        for start in range(0, x.size, BLOCK):
            block = x[start : start + BLOCK]
            if not np.isfinite(block).all():
                raise ValueError("can only sum finite values")
            exps = np.frexp(block)[1]
            lo = int(exps.min())
            if int(exps.max()) - lo < _BAND:
                num += _band_totals(block, lo)[-1]
                continue
            bands = (exps - lo) // _BAND
            for b in np.unique(bands).tolist():
                num += _band_totals(block[bands == b], lo + b * _BAND)[-1]
        self._num = num

    def extend_at(self, values: Iterable[float], cuts: Sequence[int]) -> list[int]:
        """Add finite doubles as :meth:`extend` does, and return the exact sum
        in units of 2**-1126 after each of the ascending entry counts
        ``cuts`` of ``values``. A block with cuts in one band of exponents,
        as totient ratios always are, takes running sums in numpy; any other
        goes through :meth:`extend`, one piece between cuts at a time."""
        x = np.asarray(values, dtype=np.float64).ravel()
        if not np.isfinite(x).all():
            raise ValueError("can only sum finite values")
        out: list[int] = []
        for start in range(0, x.size, BLOCK):
            block = x[start : start + BLOCK]
            end = bisect_right(cuts, start + block.size)
            ends = [c - start for c in cuts[len(out) : end]]
            exps = np.frexp(block)[1] if ends else None
            if ends and int(exps.max()) - int(exps.min()) < _BAND:
                *running, total = _band_totals(block, int(exps.min()), ends)
                out += [self._num + r for r in running]
                self._num += total
                continue
            for lo, hi in zip([0, *ends], [*ends, block.size]):
                self.extend(block[lo:hi])
                out.append(self._num)
            out.pop()
        return out + [self._num] * (len(cuts) - len(out))

    rounded = staticmethod(rounded_units)

    @property
    def value(self) -> float:
        """The sum rounded to the nearest double; OverflowError past its range."""
        return self.rounded(self._num)


def _band_totals(values: np.ndarray, lo: int, ends: Sequence[int] = ()) -> list[int]:
    # the sums of values[:e] for each e in ends, then of all values, whose
    # frexp exponents lie in [lo, lo + _BAND), in units of 2**(_MIN_EXP - 53):
    # each ldexp result is an integer below 2**62, and the running int64
    # sums of its 32-bit halves over a block stay below 2**15 * 2**32
    ints = np.ldexp(values, 53 - lo).astype(np.int64)
    high = ints >> 32
    ints &= 0xFFFFFFFF
    if not ends:
        return [((int(high.sum()) << 32) + int(ints.sum())) << (lo - _MIN_EXP)]
    sums = []
    for half in (high, ints):
        running = np.zeros(half.size + 1, dtype=np.int64)
        np.cumsum(half, out=running[1:])
        sums.append(running[[*ends, half.size]].tolist())
    return [((h << 32) + l) << (lo - _MIN_EXP) for h, l in zip(*sums)]


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

