"""Accumulator exactness and bit-reproducibility.

The ``test_neumaier_*`` tests hold :class:`ExactFloatSum` to the assertions
the compensated Neumaier sum it replaced was held to. That Neumaier loop
lives on below as :class:`NeumaierOracle`, the oracle the float walker is
checked against bit for bit.
"""

import math
import random
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divrec.accumulators import ExactFloatSum, ExactRatioSum
from divrec.arith import pair_sum, rounded_units, sum_pairs
from divrec.convergence import CheckpointSchedule
from divrec.densities import phi_ratio_sums_at
from divrec.sieves import iter_sieve_tables


class NeumaierOracle:
    """Kahan-Babuska-Neumaier compensated sum, one Python step per term."""

    def __init__(self) -> None:
        self._sum = 0.0
        self._compensation = 0.0

    def extend(self, values) -> None:
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


def fraction_sum(values) -> float:
    """The exact sum of the doubles, rounded once."""
    return float(sum(map(Fraction, values), Fraction(0)))


def bits(values) -> list[bytes]:
    return [struct.pack("<d", v) for v in values]


def test_neumaier_close_to_fsum():
    rng = random.Random(5)
    values = [rng.uniform(0.125, 1) for _ in range(50_000)]
    acc = ExactFloatSum()
    acc.extend(values)
    assert math.isclose(acc.value, math.fsum(values), rel_tol=1e-14)
    assert acc.value == math.fsum(values)  # both are correctly rounded


def test_neumaier_snapshot_equals_fresh_prefix_sum():
    rng = random.Random(6)
    values = [rng.uniform(0.125, 1) for _ in range(10_000)]
    running = ExactFloatSum()
    snapshots = {}
    for i, x in enumerate(values, start=1):
        running.extend([x])
        if i % 2500 == 0:
            snapshots[i] = running.value
    for i, snap in snapshots.items():
        fresh = ExactFloatSum()
        fresh.extend(values[:i])
        assert fresh.value == snap  # bitwise, not approximately


def test_neumaier_chunking_does_not_matter():
    rng = random.Random(7)
    values = [rng.uniform(0.125, 1) for _ in range(1000)]
    one = ExactFloatSum()
    one.extend(values)
    other = ExactFloatSum()
    for i in range(0, 1000, 37):
        other.extend(values[i : i + 37])
    assert one.value == other.value


# the doubles the accumulator takes, [2**-3, 2), with both ends of each of
# its four binades
ratio_doubles = st.one_of(
    st.floats(min_value=0.125, max_value=2.0, exclude_max=True),
    st.sampled_from([0.125, 0.25, 0.5, 1.0]),
    st.sampled_from([math.nextafter(x, 0) for x in (0.25, 0.5, 1, 2)]),
)


@settings(max_examples=300)
@given(st.lists(ratio_doubles, max_size=40))
def test_exact_float_sum_is_the_rounded_fraction_sum(xs):
    acc = ExactFloatSum()
    acc.extend(xs)
    assert acc.value == fraction_sum(xs)


@settings(max_examples=200)
@given(st.lists(ratio_doubles, max_size=40), st.randoms(use_true_random=False))
def test_exact_float_sum_ignores_chunking_and_order(xs, rnd):
    whole = ExactFloatSum()
    whole.extend(np.array(xs, dtype=np.float64))
    shuffled = list(xs)
    rnd.shuffle(shuffled)
    pieces = ExactFloatSum()
    i = 0
    while i < len(shuffled):
        step = rnd.randint(1, 5)
        pieces.extend(shuffled[i : i + step])
        i += step
    assert pieces.value == whole.value


def test_exact_float_sum_crosses_blocks_and_bands():
    # more values than one numpy pass takes, from every binade of the range
    rng = random.Random(8)
    binades = (-3, -2, -1, 0)
    values = [rng.uniform(1, 1.99) * 2.0 ** rng.choice(binades) for _ in range(70_000)]
    acc = ExactFloatSum()
    acc.extend(values)
    assert acc.value == fraction_sum(values)
    assert acc.value == math.fsum(values)


@pytest.mark.parametrize(
    "xs, expected",
    [
        ([0.5, 0.5 + 2.0**-53], 1.0),
        ([0.5 + 2.0**-52, 0.5 + 2.0**-53], 1.0 + 2.0**-51),
    ],
)
def test_exact_float_sum_rounds_exact_ties_to_even(xs, expected):
    # each sum lies exactly halfway between two doubles: only an exact sum
    # rounds it to the even neighbour, however the terms are split
    for chunks in ([xs], [[x] for x in xs], [xs[::-1]]):
        acc = ExactFloatSum()
        for chunk in chunks:
            acc.extend(chunk)
        assert acc.value == expected == fraction_sum(xs)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_exact_float_sum_rejects_non_finite_values(bad):
    acc = ExactFloatSum()
    acc.extend([0.25, 0.5])
    with pytest.raises(ValueError):
        acc.extend([1.0] * 40_000 + [bad])  # the bad value is in a later block
    assert acc.value == 0.75  # nothing of the rejected call was added
    with pytest.raises(ValueError):
        acc.extend([bad])


@pytest.mark.parametrize(
    "bad", [math.nextafter(0.125, 0), 2.0, 0.0, -0.5, math.nan, math.inf, -math.inf]
)
def test_values_outside_the_ratio_range_are_refused_and_add_nothing(bad):
    acc = ExactFloatSum()
    acc.extend([0.125, math.nextafter(2, 0)])  # both ends of the range
    before = acc.extend_at([], [0])
    for add in (acc.extend, lambda xs: acc.extend_at(xs, [1, 40_000])):
        with pytest.raises(ValueError, match="in \\[0.125, 2.0\\)"):
            add([0.5] * 40_000 + [bad])
        with pytest.raises(ValueError):
            add([bad])
    assert acc.extend_at([], [0]) == before == [(1 << 53) + (1 << 57) - 16]
    assert acc.value == fraction_sum([0.125, math.nextafter(2, 0)])


def prefix_units(values, cuts) -> list[int]:
    """The exact sum of values[:c] for each cut, in units of 2**-56."""
    return [int(sum(map(Fraction, values[:c]), Fraction(0)) * 2**56) for c in cuts]


@settings(max_examples=200)
@given(
    st.lists(ratio_doubles, max_size=40),
    st.lists(st.integers(min_value=0, max_value=45), max_size=8),
)
def test_extend_at_reads_the_exact_sum_at_every_cut(xs, raw_cuts):
    cuts = sorted(raw_cuts)  # cuts past the end read the whole sum
    acc = ExactFloatSum()
    acc.extend([0.5])
    running = acc.extend_at(xs, cuts)
    assert running == [(1 << 55) + units for units in prefix_units(xs, cuts)]
    assert acc.value == fraction_sum([0.5, *xs])


@pytest.mark.parametrize("spread", [(-3, 0), (-3, -2, -1, 0)])
def test_extend_at_crosses_blocks_in_one_band_or_many(spread):
    # the running sums over one or every binade of the range, with cuts at
    # 0, on, around and between the edges of the numpy passes, and past the
    # end: each the rounded fraction sum of its prefix once rounded
    rng = random.Random(9)
    values = [rng.uniform(1, 1.5) * 2.0 ** rng.choice(spread) for _ in range(70_000)]
    edges = [0, 1, 32_767, 32_768, 32_769, 65_536, 69_999, 70_000, 70_001]
    cuts = sorted(edges + [rng.randrange(70_000) for _ in range(50)])
    acc = ExactFloatSum()
    running = acc.extend_at(np.array(values), cuts)
    prefix = np.cumsum([0, *(Fraction(v) * 2**56 for v in values)]).tolist()
    assert running == [int(prefix[min(c, 70_000)]) for c in cuts]
    assert [rounded_units(r) for r in running[::7]] == [
        fraction_sum(values[:c]) for c in cuts[::7]
    ]
    assert acc.value == math.fsum(values) == rounded_units(running[-1])


def test_a_block_with_no_cut_adds_what_extend_adds():
    # a call with no cut goes through extend, which the benchmark traces;
    # one with cuts sums its values in one pass and adds what extend adds
    rng = random.Random(10)
    values = np.array([rng.uniform(0.125, 1) for _ in range(3 * 32_768 + 5)])
    cut, whole = ExactFloatSum(), ExactFloatSum()
    assert cut.extend_at(values, [10, 3 * 32_768 + 1]) == prefix_units(
        values, [10, 3 * 32_768 + 1]
    )
    whole.extend(values)
    assert cut.extend_at([], [0]) == whole.extend_at([], [0]) == prefix_units(
        values, [values.size]
    )
    calls = []

    class Traced(ExactFloatSum):
        def extend(self, block):
            calls.append(len(block))
            super().extend(block)

    traced, twice = Traced(), ExactFloatSum()
    assert traced.extend_at(values, []) == [] and calls == [values.size]
    traced.extend_at(values, [32_768 + 3])
    twice.extend(values)
    twice.extend(values)
    assert calls == [values.size]
    assert traced.extend_at([], [0]) == twice.extend_at([], [0])


def test_extend_at_rejects_non_finite_values_and_adds_nothing():
    acc = ExactFloatSum()
    acc.extend([0.25])
    with pytest.raises(ValueError):
        acc.extend_at([1.0] * 40_000 + [math.nan], [10, 39_000])
    assert acc.value == 0.25
    assert ExactFloatSum().extend_at([], [0, 3]) == [0, 0]


def neumaier_phi_sums(m: int, points: list[int]) -> list[float]:
    """The Neumaier sums of phi(n)/n over multiples n of m, sieving all n."""
    acc = NeumaierOracle()
    sums = []
    for table in iter_sieve_tables(1, points[-1]):
        first = -(table.lo // -m) * m
        ns = np.arange(first, table.hi + 1, m, dtype=np.int64)
        ratios = table.phi[first - table.lo :: m] / ns
        done = 0
        while len(sums) < len(points) and points[len(sums)] <= table.hi:
            cut = int(np.searchsorted(ns, points[len(sums)], side="right"))
            acc.extend(ratios[done:cut].tolist())
            done = cut
            sums.append(acc.value)
        acc.extend(ratios[done:].tolist())
    return sums


@pytest.mark.parametrize(
    "m, points",
    [
        (12348, [10**6, 10**7]),  # the C3 points
        (1, CheckpointSchedule(1, 10**7, Fraction(13, 10)).points),
    ],
)
def test_walker_equals_the_neumaier_sums_it_replaced(m, points):
    assert bits(phi_ratio_sums_at(m, points)) == bits(neumaier_phi_sums(m, points))


@settings(max_examples=100)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=-10**6, max_value=10**6),
            st.integers(min_value=1, max_value=10**4),
        ),
        max_size=60,
    )
)
def test_exact_ratio_sum_is_exact(pairs):
    acc = ExactRatioSum()
    for num, den in pairs:
        acc.add(num, den)
    assert acc.value == sum(Fraction(n, d) for n, d in pairs)
    num, den = acc.unreduced
    assert den > 0 and Fraction(num, den) == acc.value


@st.composite
def chunked_terms(draw):
    """Terms in runs as the walker sums them: any length, 0 and 1 included."""
    sizes = draw(st.lists(st.integers(min_value=0, max_value=30), max_size=8))
    sizes.insert(draw(st.integers(0, len(sizes))), draw(st.sampled_from((0, 1))))
    value = st.integers(min_value=-10**18, max_value=10**18)
    den = st.one_of(
        st.integers(min_value=1, max_value=10**5),
        st.integers(min_value=1, max_value=10**12),
    )
    return [
        (draw(st.lists(value, min_size=k, max_size=k)),
         draw(st.lists(den, min_size=k, max_size=k)))
        for k in sizes
    ]


@settings(max_examples=100)
@given(chunked_terms())
def test_tree_summed_runs_equal_per_term_adds(runs):
    # the exact walk reduces each term with math.gcd, sums a run as a
    # balanced tree with sum_pairs and folds it into the long sum with
    # pair_sum: the same pair as adding the terms one at a time
    tree, one_by_one = (0, 1), ExactRatioSum()
    exact = Fraction(0)
    for nums, dens in runs:
        reduced = [(n // (g := math.gcd(n, d)), d // g) for n, d in zip(nums, dens)]
        tree = pair_sum(*tree, *sum_pairs(reduced))
        for n, d in zip(nums, dens):
            one_by_one.add(n, d)
            exact += Fraction(n, d)
        assert Fraction(*tree) == one_by_one.value == exact
        # both fold the reduced terms over the lcm of their denominators
        assert tree == one_by_one.unreduced
        num, den = tree
        assert den > 0 and num * exact.denominator == exact.numerator * den


def test_exact_ratio_sum_rejects_bad_denominator():
    acc = ExactRatioSum()
    acc.add(1, 2)
    acc.add(1, 3)
    for den in (0, -2):
        with pytest.raises(ValueError):
            acc.add(1, den)
    assert acc.value == Fraction(5, 6)  # nothing of the rejected calls was added


def test_exact_ratio_sum_value_is_nondestructive():
    acc = ExactRatioSum()
    acc.add(1, 3)
    assert acc.value == Fraction(1, 3)
    acc.add(1, 6)
    assert acc.value == Fraction(1, 2)
    assert acc.unreduced == (3, 6)  # read without reducing


def test_sum_pairs_keeps_the_lcm_and_does_not_reduce():
    assert sum_pairs([]) == (0, 1)
    assert sum_pairs([(3, 6)]) == (3, 6)
    # 1/3 + 2/3 over lcm 3, not reduced to 1/1; halves of 1/2 over 4
    assert sum_pairs([(1, 3), (2, 3)]) == (3, 3)
    assert sum_pairs([(1, 4), (1, 4), (1, 2)]) == (4, 4)
    rng = random.Random(5)
    pairs = [(rng.randint(-50, 50), rng.randint(1, 60)) for _ in range(101)]
    num, den = sum_pairs(pairs)
    assert Fraction(num, den) == sum(Fraction(*p) for p in pairs)
    assert den == math.lcm(*(d for _, d in pairs))
