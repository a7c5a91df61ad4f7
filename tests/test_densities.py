"""Density counters against enumeration oracles, plus the exact identities."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divrec import densities
from divrec.arith import (
    PI_SQUARED,
    count_oddly_divisible_fast,
    count_oddly_divisible_oracle,
    predicted_density_oddly,
)
from divrec.densities import (
    brown_identity_first_failure,
    count_squarefree_multiples,
    phi_claim_first_failure,
    phi_ratio_counts,
    phi_ratio_sum,
    predicted_density_squarefree,
    predicted_phi_density,
    squarefree_multiple_counts,
)
from divrec.limits import BROWN_CHECK_MAX_X, PHI_CLAIM_MAX_X, RangeLimitError
from divrec.recursion import RecurrenceSpec, evaluate_G, identity_counts


def exponent_is_odd(n: int, m: int) -> bool:
    t = 0
    while n % m == 0:
        n //= m
        t += 1
    return t % 2 == 1


def squarefree(n: int) -> bool:
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        d += 1
    return True


def phi(n: int) -> int:
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


# --- oddly divisible ---------------------------------------------------------


def test_oracle_small_values():
    assert count_oddly_divisible_oracle(2, 10) == 4  # {2, 6, 8, 10}
    assert count_oddly_divisible_oracle(2, 1) == 0
    assert count_oddly_divisible_oracle(5, 4) == 0
    assert count_oddly_divisible_oracle(3, 100) == 24
    assert count_oddly_divisible_oracle(3, 100) == sum(
        exponent_is_odd(i, 3) for i in range(1, 101)
    )


def test_oracle_argument_errors():
    with pytest.raises(ValueError):
        count_oddly_divisible_oracle(1, 10)
    with pytest.raises(ValueError):
        count_oddly_divisible_oracle(2, -1)
    with pytest.raises(RangeLimitError):
        count_oddly_divisible_oracle(2, 10**7 + 1)


def test_fast_equals_oracle_exhaustively():
    for m in (2, 3, 4, 5, 7, 10):
        running = 0
        for n in range(1, 2001):
            running += exponent_is_odd(n, m)
            assert count_oddly_divisible_fast(m, n) == running


def test_fast_equals_oracle_random():
    rng = random.Random(42)
    for _ in range(100):
        m = rng.randint(2, 50)
        n = rng.randint(0, 10**6)
        assert count_oddly_divisible_fast(m, n) == count_oddly_divisible_oracle(m, n)


def test_fast_matches_alternating_closed_form_at_1e12():
    # sum over t >= 1 of (-1)**(t+1) * (N // m**t)
    m, n = 5, 10**12
    expected = 0
    sign, power = 1, m
    while power <= n:
        expected += sign * (n // power)
        sign, power = -sign, power * m
    got = count_oddly_divisible_fast(m, n)
    assert got == expected == 166_666_666_667
    assert abs(got / n - 1 / 6) < 1e-6


def test_fast_is_the_engine_instance():
    for m, n in ((2, 1000), (3, 729), (7, 10**5)):
        spec = RecurrenceSpec(m, 1, -1, Fraction(1), identity_counts())
        assert evaluate_G(spec, n) == count_oddly_divisible_fast(m, n)


def test_fast_range_cap():
    with pytest.raises(RangeLimitError):
        count_oddly_divisible_fast(2, 10**12 + 1)


@settings(max_examples=100)
@given(
    m=st.integers(min_value=2, max_value=30),
    n=st.integers(min_value=1, max_value=10**5),
)
def test_fast_count_recursion_property(m, n):
    # the defining recursion, and monotonicity in n
    assert count_oddly_divisible_fast(m, n) == n // m - count_oddly_divisible_fast(
        m, n // m
    )
    assert count_oddly_divisible_fast(m, n) >= count_oddly_divisible_fast(m, n - 1)


def test_predicted_density_oddly_values():
    assert predicted_density_oddly(2).exact_factor == Fraction(1, 3)
    assert predicted_density_oddly(2).float_value == pytest.approx(1 / 3, rel=1e-15)
    assert predicted_density_oddly(5).exact_factor == Fraction(1, 6)
    assert predicted_density_oddly(10**6).exact_factor == Fraction(1, 10**6 + 1)
    assert predicted_density_oddly(2).pi_squared_power == 0
    with pytest.raises(ValueError):
        predicted_density_oddly(1)


# --- square-free multiples ---------------------------------------------------


def test_count_squarefree_multiples_small():
    assert count_squarefree_multiples(1, 10) == 7  # {1,2,3,5,6,7,10}
    assert count_squarefree_multiples(2, 30) == 7  # {2,6,10,14,22,26,30}
    assert count_squarefree_multiples(2, 30) == sum(
        squarefree(r) for r in range(2, 31, 2)
    )
    assert count_squarefree_multiples(7, 5) == 0
    assert count_squarefree_multiples(1, 0) == 0


def test_count_squarefree_multiples_matches_enumeration():
    for t in (1, 2, 3, 6, 10, 15):
        for upper in (1, 2, 17, 300):
            expected = sum(
                1 for r in range(t, upper + 1, t) if squarefree(r)
            )
            assert count_squarefree_multiples(t, upper) == expected


def test_count_squarefree_multiples_errors():
    with pytest.raises(ValueError):
        count_squarefree_multiples(4, 100)  # 4 is not square-free
    with pytest.raises(ValueError):
        count_squarefree_multiples(0, 100)
    with pytest.raises(RangeLimitError):
        count_squarefree_multiples(1, 10**9 + 1)


def test_brown_identity_holds():
    assert brown_identity_first_failure(1, 2, 5000) is None
    assert brown_identity_first_failure(3, 2, 5000) is None
    assert brown_identity_first_failure(2, 3, 5000) is None


def test_brown_identity_by_hand():
    # F counts square-free multiples of t, G of p*t; F(x//p) = G(x//p) + G(x)
    t, p = 1, 2
    for x in range(1, 400):
        lhs = count_squarefree_multiples(t, x // p)
        rhs = count_squarefree_multiples(t * p, x // p) + count_squarefree_multiples(
            t * p, x
        )
        assert lhs == rhs


def test_brown_identity_errors():
    with pytest.raises(ValueError):
        brown_identity_first_failure(2, 2, 100)  # p divides t
    with pytest.raises(ValueError):
        brown_identity_first_failure(1, 4, 100)  # not prime
    with pytest.raises(ValueError):
        brown_identity_first_failure(12, 5, 100)  # t not square-free
    with pytest.raises(RangeLimitError):
        brown_identity_first_failure(1, 2, 10**6 + 1)


def test_squarefree_counts_drive_the_engine():
    # alpha=1, beta=-1, m=p with F for t gives G counting multiples of p*t
    for t, p in ((1, 2), (3, 2), (2, 5)):
        F = squarefree_multiple_counts(t, 4000)
        spec = RecurrenceSpec(p, 1, -1, Fraction(1), F)
        for x in (1, 9, 100, 3999):
            assert evaluate_G(spec, x) == count_squarefree_multiples(t * p, x)


def test_prefix_table_builders_are_capped_before_any_work(monkeypatch):
    # each builder shares its table with a checker and takes the checker's cap
    def no_work(*args):
        raise AssertionError("built a prefix table")

    monkeypatch.setattr(densities, "_squarefree_prefix", no_work)
    monkeypatch.setattr(densities, "_phi_ratio_prefix_pairs", no_work)
    with pytest.raises(RangeLimitError):
        squarefree_multiple_counts(1, BROWN_CHECK_MAX_X + 1)
    with pytest.raises(RangeLimitError):
        phi_ratio_counts(1, PHI_CLAIM_MAX_X + 1)
    with pytest.raises(AssertionError, match="built a prefix table"):
        squarefree_multiple_counts(1, BROWN_CHECK_MAX_X)  # at the cap
    with pytest.raises(AssertionError, match="built a prefix table"):
        phi_ratio_counts(1, PHI_CLAIM_MAX_X)


def test_predicted_density_squarefree_values():
    base = predicted_density_squarefree([])
    assert base.exact_factor == 6
    assert base.pi_squared_power == -1
    assert abs(base.float_value - 0.607927101854) < 1e-12
    assert abs(predicted_density_squarefree([2]).float_value - 0.202642367285) < 1e-12
    assert predicted_density_squarefree([2, 3]).exact_factor == Fraction(6, 12)
    assert predicted_density_squarefree([2, 3]).float_value == pytest.approx(
        0.0506605918212, rel=1e-10
    )


def test_predicted_density_squarefree_errors():
    with pytest.raises(ValueError):
        predicted_density_squarefree([2, 2])
    with pytest.raises(ValueError):
        predicted_density_squarefree([6])


def test_pi_squared_constant():
    # PI_SQUARED is rounded from 20 digits of pi**2; math.pi**2 squares the
    # rounded pi, so the two may differ by an ulp but no more
    assert abs(PI_SQUARED - math.pi**2) < 2e-15


# --- totient-ratio sums ------------------------------------------------------


def test_phi_ratio_sum_exact_matches_direct():
    for m, upper in ((1, 1), (1, 50), (5, 50), (7, 200), (200, 1000)):
        direct = sum(Fraction(phi(n), n) for n in range(m, upper + 1, m))
        assert phi_ratio_sum(m, upper, "exact") == direct


def test_phi_ratio_sum_empty_ranges():
    assert phi_ratio_sum(5, 4, "exact") == 0
    assert phi_ratio_sum(5, 0, "float") == 0.0
    assert phi_ratio_sum(5, 4) == 0.0


def test_phi_ratio_sum_float_tracks_exact():
    for m in (1, 2, 5, 12):
        for upper in (10, 1000, 10**4):
            exact = float(phi_ratio_sum(m, upper, "exact"))
            assert phi_ratio_sum(m, upper, "float") == pytest.approx(exact, rel=1e-12)


def test_phi_ratio_sum_threads_are_bit_identical():
    base = phi_ratio_sum(3, 10**6)
    for threads in (2, 4):
        assert phi_ratio_sum(3, 10**6, threads=threads) == base


def test_phi_ratio_sum_argument_errors():
    with pytest.raises(ValueError):
        phi_ratio_sum(0, 100)
    with pytest.raises(ValueError):
        phi_ratio_sum(5, 100, "decimal")
    with pytest.raises(RangeLimitError):
        phi_ratio_sum(5, 10**5 + 1, "exact")
    with pytest.raises(RangeLimitError):
        phi_ratio_sum(5, 10**9 + 1, "float")


def test_phi_ratio_published_windows():
    # the two cheap published rows, at the precision they were quoted to
    row1 = phi_ratio_sum(5, 1000) / 1000
    assert 0.10155 <= row1 <= 0.10165
    row2 = phi_ratio_sum(200, 10**5) / 10**5
    assert 0.0016905 <= row2 <= 0.0016915


def test_phi_claim_identity_holds():
    assert phi_claim_first_failure(1, 2, 1, 500) is None
    assert phi_claim_first_failure(1, 3, 2, 500) is None
    assert phi_claim_first_failure(3, 5, 1, 500) is None


def test_phi_claim_identity_by_hand():
    # S_{t p**j}(N) = ((p-1)/p) S_t(N//p**j) + (1/p) S_{tp}(N//p**j), with
    # every S a brute-force sum of trial-division totients: the walker itself
    # applies this identity for p = 2, so its sums cannot check it
    def S(d: int, x: int) -> Fraction:
        return sum((Fraction(phi(n), n) for n in range(d, x + 1, d)), Fraction(0))

    t, p, j = 1, 2, 1
    for upper in (1, 2, 3, 10, 97, 256):
        lhs = S(t * p**j, upper)
        k = upper // p**j
        rhs = Fraction(p - 1, p) * S(t, k) + Fraction(1, p) * S(t * p, k)
        assert lhs == rhs
        assert phi_ratio_sum(t * p**j, upper, "exact") == lhs


def phi_claim_first_failure_oracle(t: int, p: int, j: int, X: int):
    """First N <= X failing the totient-ratio splitting, one N at a time."""
    pj = p**j

    def prefix(step, limit):
        pairs = densities._phi_ratio_prefix_pairs(step, limit)
        return [Fraction(num, den) for num, den in pairs]

    lhs = prefix(t * pj, X)
    f = prefix(t, X // pj)
    g = prefix(t * p, X // pj)
    for N in range(1, X + 1):
        k = N // pj
        rhs = Fraction(p - 1, p) * f[k // t] + Fraction(1, p) * g[k // (t * p)]
        if lhs[N // (t * pj)] != rhs:
            return N
    return None


@pytest.mark.parametrize(
    "t, p, j, side, k0",
    [
        (1, 2, 1, "lhs", 0),
        (1, 2, 1, "lhs", 37),
        (1, 3, 2, "f", 5),
        (3, 5, 1, "g", 4),
        (2, 3, 1, "lhs", 333),  # the last entry: N = 1998
    ],
)
def test_phi_claim_checker_reports_the_first_broken_n(monkeypatch, t, p, j, side, k0):
    # one prefix entry of one side is off by 1/7
    X = 2000
    build = densities._phi_ratio_prefix_pairs
    broken = {
        "lhs": (t * p**j, X),
        "f": (t, X // p**j),
        "g": (t * p, X // p**j),
    }[side]

    def perturbed(step, limit):
        values = build(step, limit)  # unreduced (numerator, denominator) pairs
        if (step, limit) == broken:
            num, den = values[k0]
            values[k0] = (7 * num + den, 7 * den)  # + 1/7
        return values

    monkeypatch.setattr(densities, "_phi_ratio_prefix_pairs", perturbed)
    expected = phi_claim_first_failure_oracle(t, p, j, X)
    assert expected is not None
    assert phi_claim_first_failure(t, p, j, X) == expected


def test_phi_claim_errors():
    with pytest.raises(ValueError):
        phi_claim_first_failure(2, 2, 1, 100)
    with pytest.raises(ValueError):
        phi_claim_first_failure(1, 6, 1, 100)
    with pytest.raises(ValueError):
        phi_claim_first_failure(1, 2, 0, 100)
    with pytest.raises(RangeLimitError):
        phi_claim_first_failure(1, 2, 1, 10**4 + 1)


def test_phi_ratio_counts_drive_the_engine():
    # F sums over multiples of t; alpha=(p-1)/p, beta=1/p, m=p**j gives the
    # sum over multiples of t*p**j, shifted one level down
    t, p, j = 1, 2, 1
    F = phi_ratio_counts(t, 2000)
    G = phi_ratio_counts(t * p, 2000)
    target = phi_ratio_counts(t * p**j, 2000)
    for n in (1, 2, 64, 1999):
        k = n // p**j
        assert target(n) == Fraction(p - 1, p) * F(k) + Fraction(1, p) * G(k)


def test_phi_ratio_counts_reduces_only_the_sums_it_reads(monkeypatch):
    # the build keeps the walker's unreduced pairs: its one Fraction is F(0),
    # which CountingFunction checks; each later call reduces one pair
    made = []

    def counted(*args):
        made.append(args)
        return Fraction(*args)

    total = phi_ratio_sum(3, PHI_CLAIM_MAX_X, mode="exact")
    monkeypatch.setattr(densities, "Fraction", counted)
    F = phi_ratio_counts(3, PHI_CLAIM_MAX_X)
    assert made == [(0, 1)]
    assert F(PHI_CLAIM_MAX_X) == total
    assert F(5) == Fraction(2, 3) and F(6) == 1  # phi(3)/3, plus phi(6)/6
    assert len(made) == 4


def test_predicted_phi_density_values():
    assert predicted_phi_density(1).exact_factor == 6
    assert predicted_phi_density(5).exact_factor == Fraction(6, 5) * Fraction(5, 6)
    assert predicted_phi_density(5).exact_factor == 1
    assert predicted_phi_density(200).exact_factor == Fraction(1, 60)
    assert predicted_phi_density(12348).exact_factor == Fraction(1, 4704)
    assert predicted_phi_density(12348).float_value == pytest.approx(
        2.1539367e-05, rel=1e-6
    )
    with pytest.raises(ValueError):
        predicted_phi_density(0)


@settings(max_examples=60)
@given(
    p=st.sampled_from((2, 3, 5, 7, 11)),
    e=st.integers(min_value=1, max_value=6),
)
def test_predicted_phi_density_prime_power_scaling(p, e):
    # going up one prime power divides the factor by p
    assert (
        predicted_phi_density(p**e).exact_factor
        == predicted_phi_density(p).exact_factor / p ** (e - 1)
    )


@settings(max_examples=60)
@given(
    m=st.integers(min_value=1, max_value=400),
    n=st.integers(min_value=1, max_value=400),
)
def test_predicted_phi_density_multiplicative(m, n):
    if math.gcd(m, n) == 1:
        left = predicted_phi_density(m * n).exact_factor
        assert left * 6 == (
            predicted_phi_density(m).exact_factor
            * predicted_phi_density(n).exact_factor
        )
