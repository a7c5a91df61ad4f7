"""Convergence experiments: empirical ratios along checkpoint schedules.

A schedule is a geometric grid of sample sizes; a family names one of the
three density setups plus its parameter. Running a family walks the range
once in ascending order, snapshotting the running count or sum at each
checkpoint, so a table over [1e3 .. 1e7] costs the same sieve work as the
single largest point and the row at N equals a from-scratch run at N.
"""

from __future__ import annotations

import decimal
import math
from fractions import Fraction
from typing import NamedTuple, Sequence, Union

from . import arith, densities, limits
from .limits import SCHEDULE_MAX_POINTS, RangeLimitError, Record, check_range, shown


#: Fraction bits of the fixed-point value that steps a schedule.
_STEP_BITS = 192


class CheckpointSchedule(Record):
    """Geometric grid round(start * ratio**k), k = 0, 1, ..., clipped at stop.

    Points are strictly increasing (duplicates after rounding collapse); the
    first point is start and the last is stop whenever start <= stop, and a
    start beyond stop yields the empty grid.
    """

    __slots__ = ("start", "stop", "ratio")

    def __init__(self, start: int, stop: int, ratio: Fraction) -> None:
        start = check_range("start", start, 1)
        stop = check_range("stop", stop, 1)
        ratio = Fraction(ratio)
        if ratio <= 1:
            raise ValueError(f"schedule ratio must exceed 1, got {shown(ratio)}")
        super().__init__(start, stop, ratio)

    @property
    def points(self) -> list[int]:
        if self.start > self.stop:
            return []
        # at most log(stop/start) / log(ratio) + 2 points; clipping a huge
        # ratio's log can only raise that bound
        log_r = math.log1p(float(min(self.ratio - 1, 2**1000)))
        span = math.log(self.stop) - math.log(self.start)
        if span > (SCHEDULE_MAX_POINTS - 2) * log_r:
            raise RangeLimitError(
                f"schedule steps through more than {SCHEDULE_MAX_POINTS} points"
            )
        # v = start * ratio**k in fixed point: x <= v * 2**B < x + e, and one
        # step takes x to floor(x * p / q) and e to floor(e * p / q) + 2. v
        # rounds to the integer part i of x while [x, x + e) stays below
        # i + 1/2, and to i + 1 while it lies inside (i + 1/2, i + 3/2);
        # otherwise, as at an exact half, v = start * p**k / q**k is
        # rounded exactly, half to even like round(Fraction), and x reset
        p, q = self.ratio.numerator, self.ratio.denominator
        one = 1 << _STEP_BITS
        half = one >> 1
        x, e = self.start << _STEP_BITS, 1
        pts: list[int] = []
        k = 0
        while True:
            raw, frac = x >> _STEP_BITS, x & (one - 1)
            if half < frac and frac + e <= one + half:
                raw += 1
            elif frac + e > half:
                num, den = self.start * p**k, q**k
                raw, rem = divmod(num, den)
                if 2 * rem > den or (2 * rem == den and raw % 2):
                    raw += 1
                x, e = (num << _STEP_BITS) // den, 1
            value = min(raw, self.stop)
            if not pts or value > pts[-1]:
                pts.append(value)
            if raw >= self.stop:
                return pts
            x, e = x * p // q, e * p // q + 2
            k += 1


class ConvergenceRow(NamedTuple):
    """One checkpoint: empirical ratio against the predicted limit.

    ``exact_ratio`` carries the full-precision ratio as a (numerator,
    denominator) pair when the family computes one (integer counts and
    exact-mode sums); float families leave it None. The pair need not be in
    lowest terms, and ``empirical_exact`` reduces it on each read, so rows
    that print only floats never pay for the gcd.
    """

    N: int
    empirical: float
    predicted: float
    abs_err: float
    rel_err: float
    exact_ratio: tuple[int, int] | None = None

    @property
    def empirical_exact(self) -> Fraction | None:
        return None if self.exact_ratio is None else Fraction(*self.exact_ratio)


def _row(
    N: int, total: int | tuple[int, int] | float, predicted: float
) -> ConvergenceRow:
    # total is a count up to N, an exact sum as an unreduced (numerator,
    # denominator) pair or a float sum, which has no exact ratio; CPython
    # rounds int / int correctly, so num / den is float(Fraction(num, den))
    if isinstance(total, float):
        empirical, exact = total / N, None
    else:
        num, den = (total, 1) if isinstance(total, int) else total
        empirical, exact = num / den / N, (num, den * N)
    abs_err = abs(empirical - predicted)
    rel_err = abs_err / abs(predicted) if predicted else float("nan")
    return ConvergenceRow(N, empirical, predicted, abs_err, rel_err, exact)


class OddlyFamily(Record):
    """Integers whose largest m-power divisor has odd exponent."""

    __slots__ = ("m",)

    def __init__(self, m: int) -> None:
        super().__init__(m)


class SquarefreeFamily(Record):
    """Square-free integers divisible by square-free t.

    ``primes`` are the primes of t, ascending, checked here once for every
    count the family runs: found by factoring t, or, handed in by a caller
    that holds them, checked to be distinct primes whose product is t. So a
    t given by its primes is never factored and may lie past the factoring
    cap. A bad t or bad primes raise here.
    """

    __slots__ = ("t", "primes")

    def __init__(self, t: int, primes: Sequence[int] | None = None) -> None:
        if primes is None:
            primes = densities.squarefree_primes(t)
        else:
            densities.predicted_density_squarefree(primes)  # distinct primes
            primes = tuple(sorted(primes))
            if math.prod(primes) != t:
                raise ValueError(f"t = {shown(t)} is not the product of its primes")
        super().__init__(t, primes)


class PhiSumFamily(Record):
    """Totient-ratio sums over multiples of m; mode 'float' or 'exact'."""

    __slots__ = ("m", "mode")

    def __init__(self, m: int, mode: str = "float") -> None:
        super().__init__(m, mode)


Family = Union[OddlyFamily, SquarefreeFamily, PhiSumFamily]


def _cap(family: Family) -> int:
    # the largest N the family's counter accepts
    if isinstance(family, OddlyFamily):
        return limits.ENGINE_MAX_N
    if isinstance(family, PhiSumFamily) and family.mode == "exact":
        return limits.EXACT_PHI_SUM_MAX_N
    return limits.SIEVE_MAX_N


def run_convergence(
    family: Family, schedule: CheckpointSchedule, *, threads: int = 1
) -> list[ConvergenceRow]:
    """One row per checkpoint, computed in a single ascending pass.

    A stop past the family's cap raises RangeLimitError before the schedule
    is stepped. A :class:`SquarefreeFamily` checks t when it is built, and
    the other families' parameters are checked by their counters, so a bad
    modulus raises ValueError before any work starts. ``threads`` sieves
    the totients of a float :class:`PhiSumFamily` ahead; the other tables
    ignore it, but it must be an integer of at least 1 for every family.
    """
    threads = check_range("threads", threads, 1)
    if schedule.start <= schedule.stop:
        check_range("N", schedule.stop, 1, _cap(family))
    points = schedule.points
    if isinstance(family, OddlyFamily):
        pred = arith.predicted_density_oddly(family.m)
        totals = [arith.count_oddly_divisible_fast(family.m, N) for N in points]
    elif isinstance(family, SquarefreeFamily):
        # the family checked its primes, and the points ascend from 1 to
        # the stop checked above
        pred = densities.predicted_density_squarefree(family.primes)
        totals = densities.squarefree_counts_at(family.primes, points)
    elif isinstance(family, PhiSumFamily):
        pred = densities.predicted_phi_density(family.m)
        if family.mode == "exact":
            totals = densities.phi_ratio_pairs_at(family.m, points)
        else:
            totals = densities.phi_ratio_sums_at(
                family.m, points, family.mode, threads=threads
            )
    else:
        raise ValueError(f"unknown family {family!r}")
    return [_row(N, total, pred.float_value) for N, total in zip(points, totals)]


CSV_HEADER = "N,empirical,predicted,abs_err,rel_err"


def _fmt(x: float) -> str:
    return format(x, ".12g")


def emit_report(
    rows: Sequence[ConvergenceRow],
    fmt: str = "csv",
    *,
    include_exact: bool = False,
) -> bytes:
    """Render rows as CSV or JSON bytes.

    CSV prints the header and one line per row, floats at 12 significant
    digits. JSON is an array of objects with the same five keys; with
    ``include_exact`` set, rows carrying a full-precision ratio also get
    numerator/denominator strings.
    """
    if fmt == "csv":
        lines = [CSV_HEADER]
        for r in rows:
            lines.append(
                f"{r.N},{_fmt(r.empirical)},{_fmt(r.predicted)},"
                f"{_fmt(r.abs_err)},{_fmt(r.rel_err)}"
            )
        return ("\n".join(lines) + "\n").encode("ascii")
    if fmt == "json":
        import json  # only JSON reports load it

        payload = []
        for r in rows:
            entry = {
                "N": r.N,
                "empirical": r.empirical,
                "predicted": r.predicted,
                "abs_err": r.abs_err,
                "rel_err": r.rel_err,
            }
            if include_exact and r.exact_ratio is not None:
                # Decimal prints every digit; str(int) stops at 4300 of them
                exact = r.empirical_exact
                entry["empirical_numerator"] = str(decimal.Decimal(exact.numerator))
                entry["empirical_denominator"] = str(decimal.Decimal(exact.denominator))
            payload.append(entry)
        return (json.dumps(payload, indent=2) + "\n").encode("ascii")
    raise ValueError(f"unknown report format {fmt!r}, expected 'csv' or 'json'")
