"""The lemma suite: its integer expansion check against the Fraction sum it
replaced, and its counts and failure reports; the app1 suite's reports."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divrec import recursion, verify
from divrec.limits import ENGINE_MAX_N

FNS = verify._sample_counting_functions()
SQUARES = next(f for f in FNS if f.description == "F(n) = n**2")


@st.composite
def lemma_instances(draw):
    # drawn as run_lemma_suite draws them, with N at the engine cap as well
    m = draw(st.integers(2, 10))
    alpha = Fraction(draw(st.integers(-8, 8)), draw(st.integers(1, 8)))
    beta = Fraction(draw(st.integers(-(8 * m - 1), 8 * m - 1)), 8)
    D = Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 4)))
    F = draw(st.sampled_from(FNS))
    N = draw(
        st.one_of(
            st.integers(1, 100),
            st.integers(1, 10**4),
            st.integers(1, 10**9),
            st.just(ENGINE_MAX_N),
        )
    )
    return recursion.RecurrenceSpec(m, alpha, beta, D, F), N


def fraction_check(terms, N, g) -> bool:
    # the form the suite used before: one normalised Fraction per term
    return sum(t.value for t in terms) * N == g


def shifted(terms, index: int, delta: Fraction):
    # terms with the ratio of terms[index] moved by delta
    out = list(terms)
    out[index] = out[index]._replace(ratio=out[index].ratio + delta)
    return out


def assert_checks_agree(spec, N: int, j: int) -> None:
    terms = recursion.expand_eq_star(spec, N, j)
    g = recursion.evaluate_G(spec, N)
    assert verify._expansion_matches(terms, N, g)
    assert fraction_check(terms, N, g)
    cases = [
        (terms, g + Fraction(1, N * g.denominator)),
        (terms, -g if g else Fraction(1)),
        (shifted(terms, -1, Fraction(1, N)), g),
        (shifted(terms, 0, Fraction(1, N)), g),
        (shifted(terms, 0, Fraction(-1, 3)), g),
    ]
    for ts, target in cases:
        assert verify._expansion_matches(ts, N, target) == fraction_check(
            ts, N, target
        )


@settings(max_examples=150, deadline=None)
@given(instance=lemma_instances(), j=st.integers(1, 20))
def test_integer_check_agrees_with_the_fraction_sum(instance, j):
    spec, N = instance
    assert_checks_agree(spec, N, j)


@pytest.mark.parametrize("N", [1, 10**9 + 7, ENGINE_MAX_N])
def test_integer_check_on_squares_up_to_the_engine_cap(N):
    spec = recursion.RecurrenceSpec(
        7, Fraction(-5, 3), Fraction(-55, 8), Fraction(1, 2), SQUARES
    )
    for j in range(1, 21):
        assert_checks_agree(spec, N, j)


def test_lemma_suite_reports_a_shifted_remainder(monkeypatch):
    real = recursion.expand_eq_star

    def broken(spec, N, j):
        return shifted(real(spec, N, j), -1, Fraction(1, N))

    monkeypatch.setattr(recursion, "expand_eq_star", broken)
    result = verify.run_lemma_suite(count=5, seed=0)
    assert not result.ok
    assert re.fullmatch(
        r"expansion with j=1 != G\(N\)/N at \(m=\d+, alpha=.+, beta=.+, "
        r"F='F\(n\) = .+'\), N=\d+",
        result.failures[0],
    )


def test_lemma_suite_expands_every_j_of_every_instance(monkeypatch):
    real = recursion.expand_eq_star
    calls = []

    def counted(spec, N, j):
        calls.append(j)
        return real(spec, N, j)

    monkeypatch.setattr(recursion, "expand_eq_star", counted)
    result = verify.run_lemma_suite(count=300, seed=0)
    assert result.ok and result.checks == 6300
    assert calls == list(range(1, 21)) * 300


def test_lemma_suite_reports_a_leading_term_that_changes_with_j(monkeypatch):
    # the suite reuses the sum of the leading terms of the previous j only
    # while those terms stay the same, so a change at j = 3 is still seen
    real = recursion.expand_eq_star

    def broken(spec, N, j):
        terms = real(spec, N, j)
        return shifted(terms, 0, Fraction(1, N)) if j == 3 else terms

    monkeypatch.setattr(recursion, "expand_eq_star", broken)
    result = verify.run_lemma_suite(count=5, seed=0)
    assert not result.ok
    assert result.failures[0].startswith("expansion with j=3 != G(N)/N at")


def test_app1_suite_reports_each_broken_check(monkeypatch):
    # a fast count one off at n = 7 fails only the last check; a flag table
    # that calls 12 oddly divisible fails all three, from n = 12 on
    fast, exponent = verify.count_oddly_divisible_fast, verify.divisibility_exponent
    monkeypatch.setattr(
        verify, "count_oddly_divisible_fast", lambda m, n: fast(m, n) + (n == 7)
    )
    result = verify.run_app1_suite(ms=(2, 3), max_n=100)
    assert result.checks == 2 * (1 + 100 + 7)
    assert result.failures == [
        "fast count != oracle at m=2, n=7",
        "fast count != oracle at m=3, n=7",
    ]
    monkeypatch.setattr(verify, "count_oddly_divisible_fast", fast)
    monkeypatch.setattr(
        verify, "divisibility_exponent", lambda i, m: exponent(i, m) + (i == 12)
    )
    result = verify.run_app1_suite(ms=(2,), max_n=100)
    assert result.checks == 1 + 100 + 12
    assert result.failures == [
        "oracle disagrees with its own flag table at m=2",
        "G(n) = n//m - G(n//m) fails at m=2, n=12",
        "fast count != oracle at m=2, n=12",
    ]
    monkeypatch.setattr(verify, "divisibility_exponent", exponent)
    assert verify.run_app1_suite(ms=(2, 3), max_n=100).checks == 2 * (1 + 100 + 100)
