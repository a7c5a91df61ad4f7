"""Engine algebra: exact agreement between evaluation, expansion, and series."""

import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divrec.arith import floor_chain
from divrec.convergence import PhiSumFamily
from divrec.limits import ENGINE_MAX_N, RangeLimitError
from divrec.recursion import (
    CountingFunction,
    RecurrenceSpec,
    evaluate_G,
    expand_eq_star,
    identity_counts,
    predicted_limit,
    series_form,
    tail_bound,
)

HALVING = RecurrenceSpec(2, 1, -1, Fraction(1), identity_counts())


def halving_oracle(n: int) -> int:
    # direct enumeration of {i <= n: largest power of 2 dividing i is odd}
    count = 0
    for i in range(2, n + 1, 2):
        t = 0
        while i % 2**(t + 1) == 0:
            t += 1
        count += t % 2
    return count


def test_evaluate_matches_enumeration():
    for n in (0, 1, 2, 10, 37, 64, 1000):
        assert evaluate_G(HALVING, n) == halving_oracle(n)


def test_evaluate_known_values():
    assert evaluate_G(HALVING, 10) == 4  # {2, 6, 8, 10}
    assert evaluate_G(HALVING, 0) == 0


def test_alpha_zero_kills_everything():
    spec = RecurrenceSpec(2, 0, Fraction(1, 2), Fraction(1), identity_counts())
    assert evaluate_G(spec, 1000) == 0


def test_evaluate_range_cap():
    assert evaluate_G(HALVING, 10**12) > 0
    with pytest.raises(RangeLimitError):
        evaluate_G(HALVING, 10**12 + 1)
    with pytest.raises(ValueError):
        evaluate_G(HALVING, -1)


def test_expansion_one_level_frozen():
    # m=2, alpha=1, beta=-1, F(n)=n, N=10: (1/2)*(F(5)/5) + (-1/2)*(G(5)/5)
    lead, rem = expand_eq_star(HALVING, 10, 1)
    assert (lead.coefficient, lead.ratio, lead.remainder_flag) == (
        Fraction(1, 2),
        Fraction(1),
        False,
    )
    assert (rem.coefficient, rem.remainder_flag) == (Fraction(-1, 2), True)
    assert rem.ratio == Fraction(evaluate_G(HALVING, 5), 1) / Fraction(5)
    total = lead.value + rem.value
    assert total == Fraction(2, 5) == Fraction(evaluate_G(HALVING, 10), 10)


def test_expansion_telescopes_exactly():
    spec = RecurrenceSpec(
        3, Fraction(2, 3), Fraction(1, 3), Fraction(1), identity_counts()
    )
    g = evaluate_G(spec, 27)
    for j in range(1, 8):
        terms = expand_eq_star(spec, 27, j)
        assert len(terms) == j + 1
        assert sum(t.value for t in terms) * 27 == g
        assert [t.remainder_flag for t in terms] == [False] * j + [True]


def test_expansion_remainder_vanishes_past_the_chain():
    terms = expand_eq_star(HALVING, 10, 6)  # 2**6 > 10
    assert terms[-1].ratio == 0
    assert sum(t.value for t in terms) == Fraction(2, 5)


def test_expansion_argument_errors():
    with pytest.raises(ValueError):
        expand_eq_star(HALVING, 0, 1)
    with pytest.raises(ValueError):
        expand_eq_star(HALVING, 10, 0)


def test_series_form_known_values():
    assert series_form(HALVING, 10) == Fraction(2, 5)
    assert series_form(HALVING, 1) == 0
    spec = RecurrenceSpec(
        5, Fraction(4, 5), Fraction(1, 5), Fraction(1), identity_counts()
    )
    assert series_form(spec, 625) * 625 == evaluate_G(spec, 625)


def test_predicted_limit_known_values():
    assert predicted_limit(HALVING) == Fraction(1, 3)
    spec = RecurrenceSpec(
        3, Fraction(2, 3), Fraction(1, 3), Fraction(1), identity_counts()
    )
    assert predicted_limit(spec) == Fraction(1, 4)
    zero = RecurrenceSpec(2, 0, Fraction(1, 2), Fraction(1), identity_counts())
    assert predicted_limit(zero) == 0


def test_tail_bound_frozen_values():
    spec = RecurrenceSpec(
        5, Fraction(4, 5), Fraction(1, 5), Fraction(1), identity_counts()
    )
    assert tail_bound(spec, 3, 2) == Fraction(1, 46875)
    assert tail_bound(HALVING, 10, 1) == Fraction(1, 1024)
    assert tail_bound(HALVING, 5, 0) == 0


def test_tail_bound_is_the_geometric_tail():
    spec = RecurrenceSpec(
        5, Fraction(4, 5), Fraction(1, 5), Fraction(1), identity_counts()
    )
    for k in (1, 2, 3, 6):
        partial = sum(
            abs(spec.alpha * spec.beta ** (i - 1) / spec.m**i)
            for i in range(k + 1, k + 60)
        )
        exact = tail_bound(spec, k, 1)
        assert 0 < exact - partial < Fraction(1, 10**30)
        # one more level scales the tail by exactly |beta|/m
        assert tail_bound(spec, k + 1, 1) == exact * abs(spec.beta) / spec.m


def test_tail_bound_argument_errors():
    with pytest.raises(ValueError):
        tail_bound(HALVING, 0, 1)
    with pytest.raises(ValueError):
        tail_bound(HALVING, 1, -1)


def test_spec_validation():
    with pytest.raises(ValueError):
        RecurrenceSpec(1, 1, 0, Fraction(1), identity_counts())
    with pytest.raises(ValueError):
        RecurrenceSpec(2, 1, 2, Fraction(1), identity_counts())
    with pytest.raises(ValueError):
        RecurrenceSpec(2, 1, -2, Fraction(1), identity_counts())
    spec = RecurrenceSpec(2, 1, Fraction(-19, 10), Fraction(1), identity_counts())
    assert spec.beta == Fraction(-19, 10)


def test_spec_validation_shows_a_huge_beta_by_its_length():
    with pytest.raises(ValueError) as info:
        RecurrenceSpec(2, 1, 10**5000, Fraction(1), identity_counts())
    assert str(info.value).startswith("need |beta| < m")
    assert "a 5001-digit integer" in str(info.value)
    with pytest.raises(ValueError) as info:
        RecurrenceSpec(2, 1, Fraction(-(10**5000), 3), Fraction(1), identity_counts())
    assert str(info.value) == (
        "need |beta| < m, got beta=a negative 5001-digit integer/3, m=2"
    )


def test_counting_function_must_vanish_at_zero():
    with pytest.raises(ValueError):
        CountingFunction(lambda n: Fraction(n + 1))


def test_specs_compare_by_value_and_refuse_assignment():
    F = identity_counts()
    spec = RecurrenceSpec(2, 1, -1, 1, F)
    twin = RecurrenceSpec(2, Fraction(1), Fraction(-1), Fraction(1), F)
    assert spec == twin and hash(spec) == hash(twin)
    assert spec != RecurrenceSpec(3, 1, -1, 1, F) and spec != HALVING  # other F
    assert F == CountingFunction(F.fn, "F(n) = n") != CountingFunction(F.fn)
    assert repr(spec).startswith("RecurrenceSpec(m=2, alpha=Fraction(1, 1), ")
    assert repr(F).startswith("CountingFunction(fn=<function ")
    # every record refuses assignment with one message: the expansion cache
    # finds a spec by identity, so none may change
    for obj, name in ((spec, "beta"), (F, "fn"), (spec, "m"), (F, "description")):
        before = repr(obj)
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(obj, name, None)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(obj, name)
        assert repr(obj) == before
    assert spec == twin and F.description == "F(n) = n"
    # records of two types with equal fields never compare equal
    assert F != PhiSumFamily(F.fn, F.description)
    # copy rebuilds a record from its fields, and pickle does too where the
    # fields pickle: a counting function of a lambda does not
    for record in (spec, F):
        assert copy.copy(record) == record == copy.deepcopy(record)
    with pytest.raises((pickle.PicklingError, AttributeError)):
        pickle.dumps(F)
    named = RecurrenceSpec(2, 1, -1, 1, CountingFunction(Fraction, "F(n) = n"))
    for record in (named, named.F):
        assert pickle.loads(pickle.dumps(record)) == record
    rebuilt = pickle.loads(pickle.dumps(named))
    assert evaluate_G(rebuilt, 100) == evaluate_G(HALVING, 100)


def test_int_coefficients_are_coerced():
    assert isinstance(HALVING.alpha, Fraction)
    assert isinstance(HALVING.D, Fraction)


rationals = st.fractions(
    min_value=Fraction(-10), max_value=Fraction(10), max_denominator=12
)


@st.composite
def recurrence_specs(draw):
    m = draw(st.integers(min_value=2, max_value=12))
    beta = draw(
        st.fractions(
            min_value=Fraction(-m) + Fraction(1, 8),
            max_value=Fraction(m) - Fraction(1, 8),
            max_denominator=8,
        )
    )
    alpha = draw(rationals)
    d = draw(rationals)
    scale = draw(st.integers(min_value=0, max_value=3))
    fn = CountingFunction(lambda n, s=scale: Fraction(s * n, 2), f"F(n) = {scale}n/2")
    return RecurrenceSpec(m, alpha, beta, d, fn)


@settings(max_examples=100)
@given(spec=recurrence_specs(), N=st.integers(min_value=1, max_value=10**9))
def test_series_equals_direct_evaluation(spec, N):
    assert series_form(spec, N) * N == evaluate_G(spec, N)


@settings(max_examples=100)
@given(
    spec=recurrence_specs(),
    N=st.integers(min_value=1, max_value=10**9),
    j=st.integers(min_value=1, max_value=12),
)
def test_expansion_sums_to_g_over_n(spec, N, j):
    terms = expand_eq_star(spec, N, j)
    assert sum(t.value for t in terms) * N == evaluate_G(spec, N)
    if spec.m**j > N:
        assert terms[-1].ratio == 0


@settings(max_examples=100)
@given(spec=recurrence_specs(), N=st.integers(min_value=1, max_value=10**6))
def test_evaluation_is_linear_in_alpha(spec, N):
    doubled = RecurrenceSpec(spec.m, 2 * spec.alpha, spec.beta, spec.D, spec.F)
    assert evaluate_G(doubled, N) == 2 * evaluate_G(spec, N)


@settings(max_examples=100)
@given(spec=recurrence_specs())
def test_predicted_limit_scales_with_d(spec):
    tripled = RecurrenceSpec(spec.m, spec.alpha, spec.beta, 3 * spec.D, spec.F)
    assert predicted_limit(tripled) == 3 * predicted_limit(spec)


@settings(max_examples=100)
@given(spec=recurrence_specs(), N=st.integers(min_value=0, max_value=10**6))
def test_results_are_reduced_rationals(spec, N):
    g = evaluate_G(spec, N)
    assert g.denominator > 0
    from math import gcd

    assert gcd(g.numerator, g.denominator) == 1


def previous_evaluate_G(spec: RecurrenceSpec, N: int) -> Fraction:
    """``evaluate_G`` as it was: three normalising Fraction operations a level."""
    g = Fraction(0)
    v, chain = N, []
    while v:
        chain.append(v)
        v //= spec.m
    for v in reversed(chain):
        g = spec.alpha * spec.F(v // spec.m) + spec.beta * g
    return g


def previous_expand_eq_star(spec: RecurrenceSpec, N: int, j: int) -> list:
    """``expand_eq_star`` as it was: two normalising operations per value."""
    terms = []
    beta_pow = Fraction(1)  # beta**(i-1)
    m_pow = 1
    floor = N
    for i in range(1, j + 1):
        m_pow *= spec.m
        floor //= spec.m
        coefficient = spec.alpha * beta_pow / m_pow
        ratio = spec.F(floor) * m_pow / N
        terms.append((i, coefficient, ratio, False))
        beta_pow *= spec.beta
    remainder_ratio = previous_evaluate_G(spec, floor) * m_pow / N
    terms.append((j, beta_pow / m_pow, remainder_ratio, True))
    return terms


#: Driving functions as the lemma suite draws them, plus one whose
#: denominators pass 64 bits, as prefix sums of phi(n)/n do.
ORACLE_FNS = (
    identity_counts(),
    CountingFunction(lambda n: Fraction(3 * n, 2), "F(n) = 3n/2"),
    CountingFunction(lambda n: Fraction(n // 3), "F(n) = n//3"),
    CountingFunction(lambda n: Fraction(n) * n, "F(n) = n**2"),
    CountingFunction(
        lambda n: Fraction(7**30 * n, 3**50 * (2 * n + 1)),
        "F(n) = 7**30 n / (3**50 (2n + 1))",
    ),
)


@st.composite
def lemma_specs(draw):
    m = draw(st.integers(min_value=2, max_value=10))
    alpha = Fraction(draw(st.integers(-8, 8)), draw(st.integers(1, 8)))
    beta = Fraction(draw(st.integers(-(8 * m - 1), 8 * m - 1)), 8)
    D = Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 4)))
    return RecurrenceSpec(m, alpha, beta, D, draw(st.sampled_from(ORACLE_FNS)))


@settings(max_examples=300)
@given(
    spec=lemma_specs(),
    N=st.one_of(
        st.integers(min_value=1, max_value=100),
        st.integers(min_value=1, max_value=ENGINE_MAX_N),
        st.just(ENGINE_MAX_N),
    ),
    j=st.integers(min_value=1, max_value=45),  # past 40 = log2(1e12) levels
)
def test_expansion_equals_the_previous_expansion(spec, N, j):
    terms = expand_eq_star(spec, N, j)
    expected = previous_expand_eq_star(spec, N, j)
    got = [(t.index, t.coefficient, t.ratio, t.remainder_flag) for t in terms]
    assert got == expected
    for t in terms:
        assert type(t.coefficient) is Fraction and type(t.ratio) is Fraction
    assert evaluate_G(spec, N) == previous_evaluate_G(spec, N)


def test_expansion_oracle_draws_reach_the_edges():
    # drawn above only by chance: negative weights, F(n) = n**2 and the long
    # denominators at the engine cap, and j past the end of the floor chain
    for F in ORACLE_FNS[3:]:
        spec = RecurrenceSpec(2, Fraction(-7, 8), Fraction(-15, 8), 0, F)
        for j in (1, 39, 40, 41, 45):
            got = expand_eq_star(spec, ENGINE_MAX_N, j)
            expected = previous_expand_eq_star(spec, ENGINE_MAX_N, j)
            fields = [(t.index, t.coefficient, t.ratio, t.remainder_flag) for t in got]
            assert fields == expected
        assert got[-1].ratio == 0  # 2**45 > 1e12


def test_expansion_cache_across_call_orders():
    # one fixed shuffle of calls that hit, extend, miss and replace the
    # one-entry cache: alternating specs, equal specs built apart, repeated
    # and descending j, j past the end of the chain, and N = 1
    spec_a = RecurrenceSpec(3, Fraction(-5, 4), Fraction(17, 8), 0, ORACLE_FNS[4])
    spec_b = RecurrenceSpec(2, Fraction(7, 8), Fraction(-15, 8), 0, ORACLE_FNS[3])
    twin = RecurrenceSpec(2, Fraction(7, 8), Fraction(-15, 8), 0, ORACLE_FNS[3])
    calls = [
        (spec, N, j)
        for spec, N in (
            (spec_a, 10**9 + 7),
            (spec_a, ENGINE_MAX_N),
            (spec_b, ENGINE_MAX_N),
            (twin, ENGINE_MAX_N),
            (spec_a, 1),
            (HALVING, 10),
        )
        for j in (1, 2, 5, 5, 3, 20, 40, 41, 45, 1)
    ]
    random.Random(12).shuffle(calls)
    for spec, N, j in calls:
        expected = previous_expand_eq_star(spec, N, j)
        for _ in range(2):  # the second call reads the terms the first left
            got = expand_eq_star(spec, N, j)
            fields = [(t.index, t.coefficient, t.ratio, t.remainder_flag) for t in got]
            assert fields == expected
            got.clear()  # the caller's list: clearing it must not reach the cache


@pytest.mark.parametrize("F", ORACLE_FNS, ids=lambda F: F.description)
def test_evaluation_equals_the_previous_evaluation_along_a_chain(F):
    # the walk that serves the expansion gives G at every level of the chain
    spec = RecurrenceSpec(3, Fraction(-7, 8), Fraction(-23, 8), 0, F)
    v = ENGINE_MAX_N
    while True:
        assert evaluate_G(spec, v) == previous_evaluate_G(spec, v)
        if v == 0:
            break
        v //= spec.m


def halving_shifts(xs: list[int]) -> list[int]:
    """The shift set of the split on 2 as ``densities._phi_ratio_walk`` built
    it before ``arith.floor_chain``: each x halved until it meets a shift
    already taken."""
    shifts: set[int] = set()
    for x in xs:
        while x and x not in shifts:
            shifts.add(x)
            x >>= 1
    return sorted(shifts)


def third_shifts(xs: list[int], first: int) -> list[int]:
    """The shift sets of the split on 3 as ``densities._third_shifts`` built
    them: every positive x // 3**a, a >= first, each x divided only until it
    meets a shift already taken."""
    shifts: set[int] = set()
    for x in xs:
        x //= 3**first
        while x and x not in shifts:
            shifts.add(x)
            x //= 3
    return sorted(shifts)


#: 0, 1, powers of 2 and 3 and their neighbours, where the chains on 2 and 3
#: end or meet, among values up to the sieve cap and past it
CHAIN_EDGES = sorted(
    {0, 1, 2, 3}
    | {b**k + d for b in (2, 3) for k in (2, 5, 12, 18) for d in (-1, 0, 1)}
)


@settings(max_examples=200)
@given(
    xs=st.lists(
        st.one_of(st.sampled_from(CHAIN_EDGES), st.integers(0, ENGINE_MAX_N)),
        max_size=30,
    ).map(lambda xs: xs + xs[::2])  # repeats every other value
)
def test_floor_chain_builds_the_shift_sets_of_both_splits(xs):
    assert floor_chain(xs, 2) == halving_shifts(xs)
    assert floor_chain(xs, 3) == third_shifts(xs, 0)
    assert floor_chain([x // 3 for x in xs], 3) == third_shifts(xs, 1)
    for p in (2, 3, 7):
        chains = {x // p**a for x in xs for a in range(41)} - {0}
        assert floor_chain(xs, p) == sorted(chains)


@settings(max_examples=100)
@given(m=st.integers(min_value=2, max_value=12), N=st.integers(0, ENGINE_MAX_N))
def test_the_walk_reads_F_once_a_level_along_the_chain(m, N):
    # evaluate_G reads F(v // m) for v = N, N // m, ..., bottom-up, as it
    # did when it built the chain itself
    seen = []
    F = CountingFunction(lambda n: seen.append(n) or Fraction(n), "F(n) = n")
    seen.clear()  # the check that F vanishes at 0
    evaluate_G(RecurrenceSpec(m, 1, -1, 1, F), N)
    chain = []
    while N:
        chain.append(N)
        N //= m
    assert seen == [v // m for v in reversed(chain)]
