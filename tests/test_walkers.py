"""The multiples-only walkers against the full-range sieve they replace.

The oracles below sieve all of [1, N] and read every m-th (t-th) entry, which
is how the phisum and square-free families walked the range before they
sieved only k <= N // m. Float sums must agree bit for bit with
``math.fsum`` of the same terms, exact sums and counts exactly, at every
segment size. The square-free oracle marks the multiples of every d*d,
d >= 2, not of prime squares only, and the square-free flag walker, the
recursive counter and the prefix tables behind the splitting-identity
checker and ``squarefree_multiple_counts`` are held to it. The flag walker
is in turn the oracle of the recursion where the full range is too long to
mark, and the t = 1 counts are also held to the Moebius sum
Q(x) = sum over d <= sqrt(x) of mu(d) * (x // d**2), which marks nothing.
"""

import math
import os
import random
import struct
import subprocess
import sys
import tracemalloc
from bisect import bisect_right
from fractions import Fraction

import numpy as np
import pytest

from divrec import densities, limits, sieves
from divrec.accumulators import BLOCK, ExactFloatSum, ExactRatioSum
from divrec.arith import FLOAT_UNIT_BITS, factorize, odd_totients
from divrec.convergence import CheckpointSchedule, SquarefreeFamily, run_convergence
from divrec.densities import (
    brown_identity_first_failure,
    count_squarefree_multiples,
    count_squarefree_multiples_at,
    count_squarefree_multiples_recursive,
    count_squarefree_multiples_sieved,
    phi_ratio_pairs_at,
    phi_ratio_sum,
    phi_ratio_sums_at,
    squarefree_multiple_counts,
    squarefree_path_costs,
)
from divrec.limits import (
    EXACT_PHI_SUM_MAX_N,
    SEGMENT_SIZE,
    SIEVE_MAX_N,
    TOTIENT_SEGMENT_SIZE,
    RangeLimitError,
)
from divrec.sieves import iter_sieve_tables

#: the last two: the library's own, for the totient walk and the flag walker
SEGMENT_SIZES = (13, 256, TOTIENT_SEGMENT_SIZE, SEGMENT_SIZE)


def full_range_phi_sums(m: int, points: list[int], mode: str) -> list:
    """Sum of phi(n)/n over multiples n of m up to each point, sieving all n.

    Float sums are the exact sum of the prefix terms rounded once, so
    independent of the library's accumulator: every term is at least 1/8,
    so a whole number of units of 2**-60 (asserted), and CPython rounds
    int / int correctly. The sum at the last point must also equal
    ``math.fsum`` of all terms. Exact sums are read as reduced Fractions, or
    as unreduced pairs for mode "pairs", from ``ExactRatioSum.add``, one
    term at a time.
    """
    exact = ExactRatioSum()
    terms: list[float] = []
    units = 0

    def value():
        if mode == "float":
            return units / 2**60
        return exact.unreduced if mode == "pairs" else exact.value

    sums = []
    idx = 0
    if points[-1] >= 1:
        for table in iter_sieve_tables(1, points[-1]):
            first = -(table.lo // -m) * m
            if first > table.hi:
                continue
            phis = table.phi[first - table.lo :: m]
            ns = np.arange(first, table.hi + 1, m, dtype=np.int64)
            for ph, n, ratio in zip(phis.tolist(), ns.tolist(), (phis / ns).tolist()):
                while idx < len(points) and points[idx] < n:
                    sums.append(value())
                    idx += 1
                if mode == "float":
                    assert ratio >= 1 / 8
                    terms.append(ratio)
                    units += int(ratio * 2**60)
                else:
                    exact.add(ph, n)
    sums.extend([value()] * (len(points) - len(sums)))
    if mode == "float":
        assert sums[-1] == math.fsum(terms)
    return sums


def full_range_squarefree_counts(t: int, points: list[int]) -> list[int]:
    """Square-free multiples of t up to each point, marking all n.

    n is marked not square-free on the multiples of d*d for every d >= 2,
    prime or not, so this shares no code with ``squarefree_flags``.
    """
    flags = np.ones(points[-1] + 1, dtype=bool)
    for d in range(2, math.isqrt(points[-1]) + 1):
        flags[d * d :: d * d] = False
    marked = np.zeros(flags.shape, dtype=np.int64)
    marked[t::t] = flags[t::t]
    prefix = np.cumsum(marked)
    return [int(prefix[p]) for p in points]


def checkpoints(step: int, N: int) -> list[int]:
    """Points below, at and between multiples of step, and at N."""
    raw = {1, step - 1, step, step + 1, 2 * step, N // 7, N // 3, N // 2, N - 1, N}
    raw |= {k * step for k in (3, 17, 100, 257) if k * step <= N}
    return sorted(p for p in raw if 1 <= p <= N)


def bits(values: list[float]) -> list[bytes]:
    return [struct.pack("<d", v) for v in values]


def use_segment_size(monkeypatch, size):
    # the totient walk and the flag walker both cut segments of size entries
    monkeypatch.setattr(limits, "SEGMENT_SIZE", size)
    monkeypatch.setattr(limits, "TOTIENT_SEGMENT_SIZE", size)


@pytest.mark.parametrize(
    "m, N",
    [
        (1, 30_000),
        (2, 30_000),
        (7, 30_000),
        (12, 60_000),
        (360, 400_000),
        (12348, 2_000_000),
        (2310, 3_000_000),  # five primes of m to fold in
        (50_000, 40_000),  # m > N: nothing to sum
    ],
)
def test_phisum_float_walker_is_bitwise_the_full_range_sum(monkeypatch, m, N):
    # each of the walker's two sources of totients, forced by its switch
    points = checkpoints(m, N)
    expected = bits(full_range_phi_sums(m, points, "float"))
    for plain_max_k in (-1, SIEVE_MAX_N):
        monkeypatch.setattr(densities, "PLAIN_WALK_MAX_K", plain_max_k)
        for size in SEGMENT_SIZES:
            use_segment_size(monkeypatch, size)
            assert bits(phi_ratio_sums_at(m, points)) == expected
            assert bits([phi_ratio_sum(m, N)]) == expected[-1:]


def test_odd_totients_equal_the_factored_totient():
    def phi(k):
        return math.prod((p - 1) * p ** (e - 1) for p, e in factorize(k))

    expected = [phi(k) for k in range(1, 2001, 2)]
    for K in range(2001):
        assert odd_totients(K) == expected[: (K + 1) // 2]
    with pytest.raises(ValueError):
        odd_totients(-1)


def test_plain_float_terms_are_whole_units():
    # every phi(n)/n with n <= SIEVE_MAX_N is at least 2**-3: it is the
    # product of (p - 1)/p over the primes of n, least for the first primes,
    # and the product of the first ten exceeds the cap. A double of at least
    # 2**-3 is a whole number of units of 2**-55, an even number of units of
    # 2**-FLOAT_UNIT_BITS: both float walks add every term exactly, and halve
    # a sum of terms exactly
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert math.prod(primes[:9]) <= SIEVE_MAX_N < math.prod(primes)
    least = math.prod(Fraction(p - 1, p) for p in primes[:9])
    assert least > Fraction(1, 8)
    assert 0.16 < phi_ratio_sum(math.prod(primes[:9]), math.prod(primes[:9])) < 0.17
    two_units = Fraction(2, 2**FLOAT_UNIT_BITS)
    for x in (0.125, math.nextafter(0.125, 1), float(least), 1 / 3, 1.0):
        assert (Fraction(x) / two_units).denominator == 1


#: The last K = N // m of the schedules, kept at most SIEVE_MAX_N // m: no
#: multiple, one, some, and either side of the switch.
SWITCH_KS = (0, 1, 1000, densities.PLAIN_WALK_MAX_K, densities.PLAIN_WALK_MAX_K + 1)

#: 1_000_003 is a prime above every K it reaches; three random m besides.
SWITCH_MS = [1, 2, 4, 5, 7, 30, 12348, 1_000_003]
SWITCH_MS += random.Random(16).sample(range(3, 8000), 3)


@pytest.mark.parametrize("m", SWITCH_MS)
def test_phisum_float_paths_agree_either_side_of_the_switch(monkeypatch, m):
    # the plain odd totient list and the numpy sieve, each forced through
    # the switch, give the same doubles; the default takes the plain list
    # while the last odd k is at most PLAIN_WALK_MAX_K, the sieve after
    rng = random.Random(m)
    sieved = []
    sieve = sieves.iter_sieve_tables
    monkeypatch.setattr(
        sieves, "iter_sieve_tables", lambda *a, **k: sieved.append(a) or sieve(*a, **k)
    )
    for K in sorted({min(K, SIEVE_MAX_N // m) for K in SWITCH_KS}):
        top = min(K * m + m - 1, SIEVE_MAX_N)  # the last N with N // m = K
        points = sorted({*rng.sample(range(top + 1), min(20, top + 1)), top})
        got = {}
        for plain_max_k in (-1, SIEVE_MAX_N, densities.PLAIN_WALK_MAX_K):
            monkeypatch.setattr(densities, "PLAIN_WALK_MAX_K", plain_max_k)
            sieved.clear()
            got[plain_max_k] = bits(phi_ratio_sums_at(m, points))
            assert bool(sieved) is (plain_max_k < (K - 1 | 1) and K > 0)
        assert len(set(map(tuple, got.values()))) == 1, (m, K)


def whole_segment_pieces(m: int, ks: list[int], threads: int) -> list[int]:
    """The float pieces of the sieved walk as it built them before it streamed
    blocks: phi(m*k) and m*k as int64 arrays over a whole segment, their
    quotient, and one ``extend_at`` with every cut of the segment."""
    pieces: list[int] = []
    acc, last = ExactFloatSum(), 0
    for table in iter_sieve_tables(1, ks[-1], threads=threads, step=2):
        end = bisect_right(ks, table.hi)
        cuts = [(k - table.lo) // 2 + 1 for k in ks[len(pieces) : end]]
        ns = np.arange(table.lo * m, table.hi * m + 1, 2 * m, dtype=np.int64)
        phis = table.phi.astype(np.int64) * m
        for p, _ in factorize(m):
            # phi(m*k) is m*phi(k) times (p - 1)/p for each prime p of m not
            # dividing k; p | k every p entries from index -lo / 2 (mod p)
            s = -table.lo * ((p + 1) // 2) % p if p > 2 else phis.size
            keep = phis[s::p].copy()
            phis //= p
            phis *= p - 1
            phis[s::p] = keep
        for units in acc.extend_at(phis / ns, cuts):
            pieces.append(units - last)
            last = units
    return pieces


def block_edge_points(m: int, entries: int, size: int) -> list[int]:
    """N = m*k at the odd k that close and open the blocks of ``BLOCK`` odd
    k in each segment of ``size`` odd k, up to about ``entries`` odd k, kept
    at most SIEVE_MAX_N, and the last N that reads each such k."""
    edges = set()
    for first in range(0, entries + 1, size):  # the first entry of a segment
        for e in range(first, min(first + size, entries + 1), BLOCK):
            edges |= {e - 1, e, e + 1, first + size - 1}
    ks = sorted(2 * e + 1 for e in edges if 0 <= e <= entries)
    return sorted({N for k in ks for N in (m * k, m * k + m - 1) if N <= SIEVE_MAX_N})


#: the segment sizes either side of one block and of two, a prime, the
#: walk's own and the longest; segments of 13 odd k hold less than a block
BLOCK_SEGMENT_SIZES = (
    13, BLOCK - 1, BLOCK, BLOCK + 1, 65521, TOTIENT_SEGMENT_SIZE, SEGMENT_SIZE
)


@pytest.mark.parametrize("m", [1, 2, 7, 15, 12348])
def test_blocked_walk_is_bitwise_the_whole_segment_walk(monkeypatch, m):
    # the streamed walk builds phi(m*k) and m*k a block at a time and hands
    # each block only its own cuts; its rows must equal those of the
    # whole-segment walk it replaced at every segment size and thread count,
    # on schedules cut at the last and first k of every block and segment.
    # The plain odd totient list is switched off, so every walk sieves
    monkeypatch.setattr(densities, "PLAIN_WALK_MAX_K", -1)
    walk = densities._sieved_pieces
    for size in BLOCK_SEGMENT_SIZES:
        use_segment_size(monkeypatch, size)
        # three segments, or three blocks of short segments, and at least
        # two blocks; at 13 odd k a segment, a few hundred segments
        entries = 40 * size if size == 13 else max(2 * size, 3 * BLOCK)
        points = block_edge_points(m, entries, size)
        assert len(points) > 6 and (size == 13 or points[-1] // m > 2 * BLOCK)
        for threads in (1, 2):
            monkeypatch.setattr(densities, "_sieved_pieces", whole_segment_pieces)
            expected = bits(phi_ratio_sums_at(m, points, threads=threads))
            monkeypatch.setattr(densities, "_sieved_pieces", walk)
            assert bits(phi_ratio_sums_at(m, points, threads=threads)) == expected


def test_every_block_without_a_cut_goes_through_extend(monkeypatch):
    # the benchmark traces ExactFloatSum.extend, so a sieved float walk hands
    # it each block that holds no cut, once and whole, at every segment size:
    # for each class of k prime to 6 in turn, each block of f(k) and then,
    # over the k up to K // 3, the same block of 2/3 f(k)
    calls, seen = [], []
    extend, walk = ExactFloatSum.extend, densities._sieved_pieces

    def counted(self, values):
        calls.append(len(values))
        extend(self, values)

    def recorded(m, ks, threads):
        seen.append(ks)
        return walk(m, ks, threads)

    monkeypatch.setattr(ExactFloatSum, "extend", counted)
    monkeypatch.setattr(densities, "_sieved_pieces", recorded)
    for size in (TOTIENT_SEGMENT_SIZE, SEGMENT_SIZE, 65521):
        use_segment_size(monkeypatch, size)
        calls.clear()
        seen.clear()
        phi_ratio_sums_at(1, [10**6])
        (ks,) = seen  # past PLAIN_WALK_MAX_K, so the walk sieves
        # F(k // 3**a) is read for every a >= 1 and k of ks
        thirds = {k // 3**a for k in ks for a in range(1, 20)} - {0}
        expected = []
        for c in (1, 5):
            # the k of the class up to each cut, and up to the last k
            cuts = [(k + 6 - c) // 6 for k in ks]
            cuts2 = [(y + 6 - c) // 6 for y in thirds]
            entries, entries2 = cuts[-1], max(cuts2)
            for lo in range(0, entries, size):
                for a in range(lo, min(lo + size, entries), BLOCK):
                    b = min(a + BLOCK, lo + size, entries)
                    if not any(a < cut <= b for cut in cuts):
                        expected.append(b - a)
                    b = min(b, entries2)
                    if a < b and not any(a < cut <= b for cut in cuts2):
                        expected.append(b - a)
        assert calls == expected and calls


def odd_sieved_pieces(m: int, ks: list[int], threads: int) -> list[int]:
    """The float pieces of the sieved walk as it built them before it split
    on p = 3: the sum, in units of 2**-FLOAT_UNIT_BITS, of phi(m*k)/(m*k)
    over the odd k in (ks[i - 1], ks[i]] of ascending odd ks, from a step-2
    walk of every odd k, streamed a block at a time."""
    sums: list[int] = []
    acc = ExactFloatSum()
    block = BLOCK if threads == 1 else 4 * BLOCK
    ns = np.arange(m, 2 * m * block, 2 * m, dtype=np.float64)
    ratios = np.empty(block)
    primes = [p for p, _ in factorize(m) if p > 2]
    phi_m = math.prod((p - 1) * p ** (e - 1) for p, e in factorize(m))
    cuts = [(k + 1) // 2 for k in ks]
    base = 0
    for table in iter_sieve_tables(1, ks[-1], threads=threads, step=2):
        for start in range(0, table.phi.size, block):
            size = min(block, table.phi.size - start)
            phis = table.phi[start : start + size]
            if m > 1:
                phis = np.multiply(phis, float(phi_m), out=ratios[:size])
                k = table.lo + 2 * start
                for p in primes:
                    fix = phis[-k * ((p + 1) // 2) % p :: p]
                    fix /= p - 1
                    fix *= p
            np.divide(phis, ns[:size], out=ratios[:size])
            ns += 2 * m * size
            here = cuts[len(sums) : bisect_right(cuts, base + size, len(sums))]
            sums += acc.extend_at(ratios[:size], [c - base for c in here])
            base += size
    return [b - a for a, b in zip([0, *sums], sums)]


def third_edges(top: int) -> list[int]:
    """Odd k up to top at and either side of every a*3**b, a < 6, and at
    each k = 1..5 (mod 6) near top: where k // 3**b moves from one number
    prime to 6 to the next, and the last k of each class."""
    ks = {top - d for d in range(6)}
    power = 1
    while power <= top:
        ks |= {a * power + d for a in range(1, 6) for d in (-2, -1, 0, 1, 2)}
        power *= 3
    return sorted(k for k in ks if 1 <= k <= top and k % 2)


@pytest.mark.parametrize("m", [1, 2, 3, 5, 7, 9, 15, 12348, 30030])
def test_the_split_on_3_gives_the_pieces_of_the_odd_walk(monkeypatch, m):
    # the walk that sieves only the k prime to 6 and rebuilds the odd k
    # from the split on 3 must give the pieces of the walk over every odd
    # k, bit for bit: for 3 | m and for 3 not dividing m, at the edges of
    # every k // 3**b, at segments of 13 and 4099 odd k and at the walk's
    # own length, on one thread and two
    for size, top in ((13, 2_000), (4099, 120_001), (TOTIENT_SEGMENT_SIZE, 120_001)):
        use_segment_size(monkeypatch, size)
        ks = third_edges(top)
        for threads in (1, 2):
            expected = odd_sieved_pieces(m, ks, threads)
            assert densities._sieved_pieces(m, ks, threads) == expected
    # and through the walker, at points whose K = N // m lie at 0..5 (mod 6)
    monkeypatch.setattr(densities, "PLAIN_WALK_MAX_K", -1)
    points = sorted({m * K + d for K in range(0, 40) for d in (0, m - 1)})
    points += [m * 6**5 + m * d for d in range(6)]
    walk = densities._sieved_pieces
    monkeypatch.setattr(densities, "_sieved_pieces", odd_sieved_pieces)
    expected = bits(phi_ratio_sums_at(m, points))
    monkeypatch.setattr(densities, "_sieved_pieces", walk)
    assert bits(phi_ratio_sums_at(m, points)) == expected


def float_walk_peak(monkeypatch, m: int, size: int) -> int:
    """tracemalloc peak, in bytes, of a float walk over four segments of
    ``size`` odd k on one thread; numpy reports its buffers to tracemalloc."""
    use_segment_size(monkeypatch, size)
    N = m * (8 * size - 1)  # the odd k up to N // m fill four segments
    assert N // m > densities.PLAIN_WALK_MAX_K  # so the walk sieves
    phi_ratio_sums_at(m, [N // 3, N])  # the cached primes and wheel
    tracemalloc.start()
    try:
        phi_ratio_sums_at(m, [N // 3, N])
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("m", [1, 15])
def test_float_walk_holds_no_array_of_segment_length_but_the_sieve(monkeypatch, m):
    # The streamed walk peaks while the next segment sieves, at about 8
    # bytes an odd k of segment, the sieve's small and phi (the table before
    # it, 4 bytes an entry, is dropped by then), above about 0.4 MB that
    # does not grow with the segment: the walker's two BLOCK-long float64
    # buffers, the sieve's buffer of FIX_CHUNK n, its stride table with
    # each stride's next hit, and one chunk of bucketed hits. Measured with
    # numpy 2.4 on x86-64: 0.94 MB at 2**16 odd k, 2.53 MB at 2**18, 8.1
    # bytes an entry between them, for m = 1 and m = 15 alike; 1.36 MB and
    # 2.83 MB, 7.5 bytes an entry, with strides found anew in each segment
    # and blocks of 2**15 values; 1.59 MB and 3.81 MB, 11.3 bytes an entry,
    # while the sieve built n whole and copied phi to an int64 table. The
    # whole-segment walk before the streamed one held its ns and ratio
    # arrays and the previous table while the next segment sieved: 2.77 MB
    # and 9.52 MB, 36 bytes an entry.
    small = float_walk_peak(monkeypatch, m, 1 << 16)
    assert small < 10 * (1 << 16) + 1_500_000
    large = float_walk_peak(monkeypatch, m, 1 << 18)
    assert large - small < 10 * ((1 << 18) - (1 << 16))


def test_the_default_float_walk_to_1e7_peaks_under_1_2_mb():
    # the walk's own segments and blocks, as the phisum-dense benchmark runs
    # them: 2**16 odd k a segment sieved into buffers the walk keeps, and
    # blocks of 2**13 values. Measured with numpy 2.4 on x86-64: 0.95 MB;
    # 3.08 MB with 2**18-entry segments and 2**15-value blocks
    phi_ratio_sums_at(1, [10**7])  # the cached primes and wheel
    tracemalloc.start()
    try:
        phi_ratio_sums_at(1, [10**7])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_200_000


#: a first float walk to 1e7 in a fresh interpreter, traced from after the
#: imports and the base primes, which every family shares: its peak and
#: what it leaves allocated, in bytes
FIRST_WALK = """
import tracemalloc
from divrec import accumulators, densities, sieves
from divrec.arith import base_primes
base_primes()
tracemalloc.start()
densities.phi_ratio_sums_at(1, [10**7])
print(*reversed(tracemalloc.get_traced_memory()))
"""


def test_a_first_float_walk_builds_only_the_strides_and_wheel_it_reads():
    # the walk builds its stride table for its last number, and the cached
    # wheel keeps only the odd residues, in int16: 120 KB. Measured with
    # numpy 2.4 on x86-64: a 1.08 MB peak, 0.13 MB left; 1.49 MB and 0.55
    # MB with a cached table of every stride up to SIEVE_MAX_N and an int32
    # wheel of every residue
    src = os.path.dirname(os.path.dirname(sieves.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c", FIRST_WALK], capture_output=True, env=env, text=True
    )
    assert proc.returncode == 0, proc.stderr
    peak, held = map(int, proc.stdout.split())
    assert peak < 1_300_000
    assert held < 250_000


@pytest.mark.parametrize("m", [1, 2, 4, 5, 7, 12, 30, 360, 9973, 12348])
def test_phisum_exact_walker_equals_the_full_range_sum(monkeypatch, m):
    N = 3000 if m < 360 else 10**5
    # one-term pieces at the first 40 multiples, then long pieces that
    # straddle the edges of the odd-sized segments
    points = sorted(set(checkpoints(m, N)) | set(range(m, min(40 * m, N) + 1, m)))
    expected = full_range_phi_sums(m, points, "exact")
    expected_pairs = full_range_phi_sums(m, points, "pairs")
    for size in SEGMENT_SIZES:
        use_segment_size(monkeypatch, size)
        got = phi_ratio_sums_at(m, points, "exact")
        assert all(type(s) is Fraction for s in got)
        assert got == expected
        pairs = phi_ratio_pairs_at(m, points)
        assert [Fraction(*pair) for pair in pairs] == expected
        assert pairs == expected_pairs  # the lcm of the reduced denominators


#: A dense schedule: every n up to about 1000, then steps of 0.1%.
DENSE = CheckpointSchedule(1, 10**6, Fraction("1.001")).points


@pytest.mark.parametrize("m", [1, 2, 3, 5, 12, 200, 12348])
def test_phisum_walker_holds_at_the_edges_of_the_p2_split(monkeypatch, m):
    # the walker sieves odd k only and reads S(K) = O(K) + S(K // 2) -
    # [m odd] O(K // 2) / 2 at K = N // m: N below m, at m, and at the first
    # even k, alone and together, and a dense schedule whose halvings
    # mostly coincide
    edges = sorted({0, 1, m, 2 * m - 1, 2 * m, 2 * m + 1})
    schedules = [[N] for N in edges] + [edges, DENSE]
    floats = [bits(full_range_phi_sums(m, pts, "float")) for pts in schedules]
    capped = [[N for N in pts if N <= EXACT_PHI_SUM_MAX_N] for pts in schedules]
    pairs = [full_range_phi_sums(m, pts, "pairs") for pts in capped]
    for size in SEGMENT_SIZES:
        use_segment_size(monkeypatch, size)
        for pts, expected in zip(schedules, floats):
            assert bits(phi_ratio_sums_at(m, pts)) == expected
        for pts, expected in zip(capped, pairs):
            assert phi_ratio_pairs_at(m, pts) == expected


@pytest.mark.parametrize("t", [1, 2, 6, 30, 210])
def test_squarefree_walker_equals_the_full_range_count(monkeypatch, t):
    N = 40_000
    every_multiple = list(range(1, t)) + list(range(t, N + 1, t))
    # thousands of checkpoints in one segment at the default size
    dense = CheckpointSchedule(1, N, Fraction("1.001")).points
    for points in (checkpoints(t, N), every_multiple, dense):
        expected = full_range_squarefree_counts(t, points)
        for size in SEGMENT_SIZES:
            use_segment_size(monkeypatch, size)
            got = count_squarefree_multiples_sieved(t, points)
            assert all(type(c) is int for c in got)
            assert got == expected
        got = count_squarefree_multiples_recursive(t, points)
        assert all(type(c) is int for c in got)
        assert got == expected
        assert count_squarefree_multiples_at(t, points) == expected
        assert count_squarefree_multiples(t, N) == expected[-1]


SQUAREFREE_TS = (1, 2, 6, 30, 210, 30030)


def walker_edge(t: int) -> int:
    """The least X for which the counts at every N <= X take the walker."""

    def recursion_is_cheaper(X: int) -> bool:
        recursion_s, walker_s = squarefree_path_costs(t, range(1, X + 1))
        return recursion_s <= walker_s

    lo, hi = 1, 2  # the recursion is cheaper at lo, not at hi
    while recursion_is_cheaper(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if recursion_is_cheaper(mid) else (lo, mid)
    return hi


@pytest.mark.parametrize("t", SQUAREFREE_TS)
def test_squarefree_paths_agree_either_side_of_the_switch(monkeypatch, t):
    # every N up to one short of the walker edge takes the recursion, every N
    # up to the edge the walker; both paths must give the oracle's counts on
    # both schedules, whichever the entry point runs. The entry point hands
    # the walker proper, _flag_counts, its checked input
    edge = walker_edge(t)
    expected = full_range_squarefree_counts(t, list(range(1, edge + 1)))
    walked = []
    walker = densities._flag_counts
    monkeypatch.setattr(
        densities,
        "_flag_counts",
        lambda *a: walked.append(a) or walker(*a),
    )
    for X, walks in [(edge - 1, False), (edge, True)]:
        points = range(1, X + 1)
        walked.clear()
        assert count_squarefree_multiples_at(t, points) == expected[:X]
        assert bool(walked) is walks
        assert count_squarefree_multiples_recursive(t, points) == expected[:X]
        assert count_squarefree_multiples_sieved(t, points) == expected[:X]


@pytest.mark.parametrize("t", [1, 6, 30030])
def test_a_count_checks_its_points_once_on_either_path(monkeypatch, t):
    # count_squarefree_multiples_at checks the points once and hands the
    # checked list to the estimate and to the counter it picks
    edge = walker_edge(t)
    calls = []
    check = limits.checked_points

    def counted(points, cap):
        calls.append(len(points))
        return check(points, cap)

    monkeypatch.setattr(densities, "checked_points", counted)
    for X in (edge - 1, edge):  # the recursion, then the walker
        calls.clear()
        points = list(range(1, X + 1))
        expected = full_range_squarefree_counts(t, points)
        assert count_squarefree_multiples_at(t, points) == expected
        assert calls == [X]


@pytest.mark.parametrize("t", SQUAREFREE_TS)
def test_squarefree_paths_agree_at_the_edges(t):
    # 0, t - 1 and t alone and together, and the cap, where the full range
    # is too long to mark: there the walker is the oracle of t >= 2 (t = 1,
    # two seconds of walking, has the Moebius sum below)
    edges = [0, t - 1, t]
    for points in [[N] for N in edges] + [edges]:
        expected = full_range_squarefree_counts(t, points)
        assert count_squarefree_multiples_recursive(t, points) == expected
        assert count_squarefree_multiples_sieved(t, points) == expected
        assert count_squarefree_multiples_at(t, points) == expected
    top = [SIEVE_MAX_N - t, SIEVE_MAX_N - 1, SIEVE_MAX_N]
    got = count_squarefree_multiples_recursive(t, top)
    if t > 1:
        assert got == count_squarefree_multiples_sieved(t, top)
    assert count_squarefree_multiples_at(t, top) == got
    for count in (count_squarefree_multiples_recursive, squarefree_path_costs):
        with pytest.raises(RangeLimitError):
            count(t, [SIEVE_MAX_N + 1])


def test_the_rule_picks_a_path_from_t_and_the_points_alone(monkeypatch):
    # the recursion for the squarefree-count table, the walker for a dense
    # t = 6 schedule to the cap; neither path runs
    monkeypatch.setattr(densities, "_flag_counts", lambda primes, points: "walk")
    sparse = CheckpointSchedule(10**3, 2 * 10**7, Fraction(10)).points
    dense = CheckpointSchedule(1, 10**9, Fraction("1.001")).points
    assert len(dense) == 14_823
    costs = [squarefree_path_costs(1, sparse), squarefree_path_costs(6, dense)]
    recursion_s, walker_s = costs[0]
    assert recursion_s <= walker_s
    recursion_s, walker_s = costs[1]
    assert recursion_s > walker_s
    assert count_squarefree_multiples_at(6, dense) == "walk"
    # no thread count, segment size or other setting moves the estimates
    use_segment_size(monkeypatch, 7)
    monkeypatch.setenv("DIVREC_THREADS", "2")
    assert [squarefree_path_costs(1, sparse), squarefree_path_costs(6, dense)] == costs


def brown_first_failure_oracle(t: int, p: int, X: int, g_shift=lambda k: 0):
    """First x <= X with F(x//p) != G(x//p) + G(x), counting on the full range.

    ``g_shift(k)`` is added to G at every n with n // (t*p) == k.
    """
    xs = list(range(X + 1))
    F = full_range_squarefree_counts(t, xs)
    G = [
        g + g_shift(x // (t * p))
        for x, g in zip(xs, full_range_squarefree_counts(t * p, xs))
    ]
    return next((x for x in xs[1:] if F[x // p] != G[x // p] + G[x]), None)


@pytest.mark.parametrize(
    "t, primes", [(1, (2, 5)), (2, (3, 7)), (6, (5, 11)), (30, (7,)), (210, (11, 13))]
)
def test_squarefree_prefix_tables_equal_the_full_range_count(monkeypatch, t, primes):
    X = 20_000
    ns = list(range(X + 1))
    expected = full_range_squarefree_counts(t, ns)
    for p in primes:
        assert brown_first_failure_oracle(t, p, X) is None
    for size in SEGMENT_SIZES:
        use_segment_size(monkeypatch, size)
        for p in primes:
            assert brown_identity_first_failure(t, p, X) is None
        F = squarefree_multiple_counts(t, X)
        got = [F(n) for n in ns]
        assert all(type(c.numerator) is int for c in got)
        assert got == expected


@pytest.mark.parametrize(
    "t, p, k0", [(1, 2, 1), (1, 5, 300), (6, 5, 17), (210, 11, 4)]
)
def test_brown_checker_reports_the_first_broken_x(monkeypatch, t, p, k0):
    # an off-by-one count from entry k0 on in the prefix table of t*p
    build = densities._squarefree_prefix

    def off_by_one(primes, limit):
        prefix = build(primes, limit)
        if math.prod(primes) == t * p:
            prefix[k0:] += 1
        return prefix

    monkeypatch.setattr(densities, "_squarefree_prefix", off_by_one)
    X = 20_000
    expected = brown_first_failure_oracle(t, p, X, lambda k: int(k >= k0))
    assert expected == k0 * t * p
    assert brown_identity_first_failure(t, p, X) == expected


def moebius_squarefree_count(x: int) -> int:
    """Q(x) = sum of mu(d) * (x // d**2) over d <= sqrt(x)."""
    root = math.isqrt(x)
    mu = [1] * (root + 1)
    is_composite = [False] * (root + 1)
    for p in range(2, root + 1):
        if not is_composite[p]:
            for d in range(p, root + 1, p):
                is_composite[d] = d > p
                mu[d] = -mu[d]
            for d in range(p * p, root + 1, p * p):
                mu[d] = 0
    return sum(mu[d] * (x // (d * d)) for d in range(1, root + 1))


def test_squarefree_counts_equal_the_moebius_sum():
    xs = [1, 10, 10**3, 10**6, 10**8]
    expected = [moebius_squarefree_count(x) for x in xs]
    assert expected[:3] == [1, 7, 608]
    assert count_squarefree_multiples_sieved(1, xs) == expected
    assert count_squarefree_multiples_recursive(1, xs) == expected
    assert count_squarefree_multiples_at(1, xs) == expected
    # Q(1e9), which CI greps for in the CLI's table, from two evaluations
    assert moebius_squarefree_count(10**9) == 607_927_124
    assert count_squarefree_multiples_at(1, [10**9]) == [607_927_124]


def test_squarefree_paths_build_no_totients(monkeypatch):
    points = [10, 5000, 30_000]
    counts = {t: full_range_squarefree_counts(t, points) for t in (6, 30)}

    def totient_sieve(*args, **kwargs):
        raise AssertionError("a square-free path built totients")

    # every totient table, of sieve_segment or of a walk, is a _Walk's
    monkeypatch.setattr("divrec.sieves._Walk", totient_sieve)
    monkeypatch.setattr("divrec.sieves.iter_sieve_tables", totient_sieve)
    use_segment_size(monkeypatch, 1000)
    assert count_squarefree_multiples_at(6, points) == counts[6]
    assert densities._squarefree_prefix((2, 3), 5000)[-1] == counts[6][1]
    assert brown_identity_first_failure(6, 5, 30_000) is None
    assert squarefree_multiple_counts(30, 30_000)(30_000) == counts[30][2]
    rows = run_convergence(SquarefreeFamily(6), CheckpointSchedule(10, 30_000, 3))
    assert rows[-1].empirical_exact == Fraction(counts[6][2], 30_000)


def test_walkers_above_n_sieve_nothing():
    assert phi_ratio_sums_at(101, [1, 50, 100]) == [0.0, 0.0, 0.0]
    assert phi_ratio_sums_at(101, [100], "exact") == [Fraction(0)]
    assert count_squarefree_multiples_at(210, [1, 209]) == [0, 0]
    # m beyond the factoring cap is fine while no multiple is in range
    assert phi_ratio_sum(10**13, 10**6) == 0.0


def test_walkers_take_nondecreasing_points():
    assert phi_ratio_sums_at(5, []) == []
    assert count_squarefree_multiples_at(6, []) == []
    same = phi_ratio_sums_at(5, [40, 40, 41])
    assert same[0] == same[1] == same[2] == phi_ratio_sum(5, 40)
    with pytest.raises(ValueError):
        phi_ratio_sums_at(5, [100, 10])
    with pytest.raises(ValueError):
        count_squarefree_multiples_at(6, [100, 10])


def test_walker_caps_stay_on_n():
    # the cap applies to the largest point, not to N // m
    with pytest.raises(RangeLimitError):
        phi_ratio_sums_at(10**6, [10**9 + 1])
    with pytest.raises(RangeLimitError):
        phi_ratio_sums_at(1000, [10**5 + 1], "exact")
    with pytest.raises(RangeLimitError):
        count_squarefree_multiples_at(210, [10**9 + 1])
    with pytest.raises(ValueError):
        phi_ratio_sums_at(5, [-1, 10])
