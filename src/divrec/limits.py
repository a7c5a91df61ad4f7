"""Size caps shared across the package, and the error type for exceeding them.

Every counting path has a documented ceiling on the range it will process;
pushing past the ceiling raises :class:`RangeLimitError` instead of silently
grinding for hours. Argument-level misuse (modulus below 2, composite where a
prime is required, and so on) raises plain ``ValueError``, so callers and the
CLI can tell "bad input" apart from "input too large".
"""

import math
import operator
from fractions import Fraction
from typing import Sequence

#: Largest N accepted by the floor-chain recursion engine and the O(log N)
#: counters built on it.
ENGINE_MAX_N = 10**12

#: Largest endpoint for any sieve-backed count or sum, and for square-free
#: counts on either of their two paths. ``sieve_segment``
#: works in int32 because every value it forms is at most the segment's
#: end, so the cap must stay below 2**31; a cap above 2**31 - 1 needs int64
#: sieve arrays and tables, at twice the memory of each and the traffic of
#: every stride.
SIEVE_MAX_N = 10**9

#: Trial-division factorization cap (needs primes up to 10**6 only).
FACTORIZE_MAX_N = 10**12

#: Brute-force per-integer oracles stop here.
ORACLE_MAX_N = 10**7

#: Exact-rational totient-ratio sums keep a common denominator, the product
#: of the primes up to N for m = 1: about 144 000 bits at the cap. Summed by
#: binary splitting, the sum to the cap takes about 0.4 s in process on a
#: 2-vCPU x86 machine (4.8 s with one long division per term). The gcds
#: near the root of the tree grow faster than N, so a higher cap needs the
#: lcm built from the sieved primes instead.
EXACT_PHI_SUM_MAX_N = 10**5

#: Exhaustive window for the square-free splitting identity, and the largest
#: limit of ``squarefree_multiple_counts``, which builds the same table.
BROWN_CHECK_MAX_X = 10**6

#: Exhaustive window for the exact totient-ratio splitting identity, and the
#: largest limit of ``phi_ratio_counts`` (both keep every prefix sum as a
#: full-precision rational).
PHI_CLAIM_MAX_X = 10**4

#: Most random instances of the recursion lemma suite. An instance costs
#: 0.3 to 0.6 ms of exact Fraction and integer arithmetic on a shared 2-vCPU
#: x86 machine (``run_lemma_suite(1000, seed)``, seeds 0-4, idle to loaded),
#: so the cap is 3 to 6 seconds of work.
LEMMA_MAX_COUNT = 10**4

#: Most points a checkpoint schedule may step through, bounded from its
#: start, stop and ratio before any stepping. A step multiplies a fixed-point
#: value of 192 fraction bits and about log2(stop) integer bits by the ratio's
#: numerator and divides it by its denominator, and only a point within the
#: error bound of a rounding boundary is rounded from the exact rational,
#: so stepping costs grow linearly with the points: 1:1e12:1.001, 21 734
#: points, takes about 0.04 s on a 2-vCPU x86 machine, where the exact
#: rational, which grew every step, took 1.9 s. The cap still bounds the
#: table a schedule asks for and the report that prints it.
SCHEDULE_MAX_POINTS = 30_000

#: Longest sieve segment in entries: ``sieve_segment`` refuses a longer
#: one, and the square-free flag walker, and the totient walk on two or
#: more threads, cut their ranges into pieces of this length. It only affects
#: memory and speed, never any numeric result.
#: ``sieve_segment`` peaks at 8 bytes an entry (two int32 arrays; n is built
#: a chunk at a time) and its table holds 4, the int32 totients. The flag
#: walker holds 1 byte an entry and takes one stride for every p**2, p up
#: to sqrt(hi), in each segment, so it is slower with shorter segments:
#: ``squarefree --t 1 --schedule 1:1e9:1.001`` took 6.4 s at 2**18 against
#: 2.2 s here, and ``--t 6`` 0.86 s against 0.67 s (medians of 5
#: alternating runs on a shared 2-vCPU x86 machine).
SEGMENT_SIZE = 1 << 20

#: Entries in each segment of the totient walk on one thread,
#: ``iter_sieve_tables``, and so of the float totient-ratio walk: at most
#: :data:`SEGMENT_SIZE`. Only memory and speed depend on it. The walk
#: carries its bucketed strides from segment to segment and sieves into
#: buffers it keeps, and the float walk streams each table through the
#: accumulator in blocks and drops it before the next is sieved, so on one
#: thread it peaks at the sieve's 8 bytes an entry, 512 KiB here, and no
#: other array it makes per segment or per block reaches 128 KiB, glibc's
#: default mmap threshold: what it frees is reused, not faulted in again.
#: Against 2**18 with strides found anew in every segment, on a shared
#: 2-vCPU x86 machine: the ``phisum-dense`` benchmark peaked at about 30.9
#: MiB against 32.9 (10 of 10 pairs), and a second in-process
#: ``phi_ratio_sums_at(1, [10**7])`` took about 160 minor page faults
#: against 10 200; ``phisum --m 1 --n 1e8`` took 1.53 s against 1.75 s
#: (medians of 7 alternating pairs; ``BENCH_carried_strides.json``).
#: Segment length trades
#: memory for time: in process the walk to 1e8 took 1.83, 1.51, 1.17 and
#: 1.23 s at 2**15, 2**16, 2**17 and 2**18 entries, peaking at 30.2,
#: 30.4, 30.7 and 31.8 MiB (medians of 5 alternating runs). A walk on two
#: or more threads cuts :data:`SEGMENT_SIZE` instead: the helper thread
#: that sieves its next table and the consumer hand the interpreter lock
#: to each other at every numpy call, so they take the longest segments.
TOTIENT_SEGMENT_SIZE = 1 << 16


#: Messages name an integer with more digits than this by its digit count.
MAX_SHOWN_DIGITS = 30

#: Largest decimal exponent of a command-line literal, either sign:
#: ``Fraction()`` builds 10**|e| first. 1e100000 parses in 0.01-0.03 s in
#: process on a 2-vCPU x86 machine, 1e1000000 in 0.3 s, and 1e10000000 was
#: still parsing after 20 s; ``1e5000``, named by its 5001 digits, is valid.
MAX_LITERAL_EXPONENT = 100_000


def shown(n: int | Fraction) -> str:
    """``n`` in decimal, or by its digit count once it is longer than
    :data:`MAX_SHOWN_DIGITS` digits, so that a message about a huge argument
    stays short and never trips Python's limit on int-to-str conversion. A
    fraction shows as n/d, each part shown so, or as n when d is 1."""
    n, d = n.numerator, n.denominator
    if d != 1:
        return f"{shown(n)}/{shown(d)}"
    m = abs(n)
    if m < 10**MAX_SHOWN_DIGITS:
        return str(n)
    digits = int(math.log10(m)) + 1  # the float log may be one off
    if 10 ** (digits - 1) > m:
        digits -= 1
    elif 10**digits <= m:
        digits += 1
    return f"a {'negative ' if n < 0 else ''}{digits}-digit integer"


def positive_int(name: str, text: str) -> int:
    """The decimal integer ``text``, the value of ``name``: anything but a
    positive decimal integer is a ValueError, and one of more than
    :data:`MAX_SHOWN_DIGITS` digits, past every cap and Python's limit on
    str-to-int conversion, a RangeLimitError."""
    digits = text.lstrip("0") or "0"  # int() counts leading zeros too
    if text.isdecimal():
        check_digits(name, digits)
    if not text.isdecimal() or int(digits) < 1:
        raise ValueError(f"{name} must be a positive integer: {text!r}")
    return int(digits)


def check_digits(name: str, digits: str) -> None:
    """RangeLimitError if the decimal ``digits``, leading zeros aside, number
    more than :data:`MAX_SHOWN_DIGITS`: such a value is past every cap and
    may be past Python's limit on str-to-int conversion, so text is checked
    here before it is converted."""
    count = len(digits.lstrip("0"))
    if count > MAX_SHOWN_DIGITS:
        raise RangeLimitError(
            f"{name} has {count} digits, more than the cap of {MAX_SHOWN_DIGITS}"
        )


class RangeLimitError(ValueError):
    """An argument exceeded the documented size cap for its operation."""


class Record:
    """A value type whose fields are its ``__slots__``, set in order by
    ``__init__`` and never again: assigning or deleting a field raises
    AttributeError. A record equals only a record of its own type with
    equal fields, hashes by its fields and shows them in its repr; ``copy``
    and ``pickle`` rebuild it from its fields."""

    __slots__ = ()

    def __init__(self, *values) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __reduce__(self):
        # the default would restore each slot through the refused __setattr__
        return type(self), self._key()

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        args = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{type(self).__name__}({args})"


def check_range(name: str, value: int, low: int, cap: int | None = None) -> int:
    """``value`` as a Python int; ValueError below ``low``, RangeLimitError
    above ``cap``.

    The one bound-and-cap check of the package: every message names the
    argument and shows each value through :func:`shown`. A value that is no
    integer to :func:`operator.index`, or is a bool, is a TypeError that
    names the argument; a numpy integer passes and is returned as an int,
    so callers compute with the returned value, not the argument.
    """
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise TypeError(f"{name} must be an integer, not {type(value).__name__}")
    value = operator.index(value)
    if value < low:
        raise ValueError(f"need {name} >= {shown(low)}, got {shown(value)}")
    if cap is not None and value > cap:
        raise RangeLimitError(f"{name} = {shown(value)} exceeds the cap {cap}")
    return value


def checked_points(points: Sequence[int], cap: int) -> list[int]:
    """``points`` as a list of Python ints, each checked by
    :func:`check_range` as ``N`` from 0 to ``cap``, and checked to ascend:
    a ValueError if they descend."""
    pts = [check_range("N", N, 0, cap) for N in points]
    if pts != sorted(pts):
        raise ValueError("checkpoints must be in ascending order")
    return pts
