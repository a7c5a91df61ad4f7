"""One policy for arguments: TypeError for a non-integer, ValueError below a
minimum, RangeLimitError past a cap, and a short message whatever the size
of the value."""

from fractions import Fraction

import numpy as np
import pytest

from divrec.arith import (
    count_oddly_divisible_fast,
    count_oddly_divisible_oracle,
    divisibility_exponent,
    factorize,
    predicted_density_oddly,
)
from divrec import densities, sieves
from divrec.convergence import (
    CheckpointSchedule,
    OddlyFamily,
    PhiSumFamily,
    run_convergence,
)
from divrec.densities import (
    brown_identity_first_failure,
    count_squarefree_multiples,
    count_squarefree_multiples_recursive,
    count_squarefree_multiples_sieved,
    phi_claim_first_failure,
    phi_ratio_counts,
    phi_ratio_sum,
    phi_ratio_sums_at,
    predicted_phi_density,
    squarefree_multiple_counts,
)
from divrec.limits import (
    BROWN_CHECK_MAX_X,
    ENGINE_MAX_N,
    EXACT_PHI_SUM_MAX_N,
    FACTORIZE_MAX_N,
    LEMMA_MAX_COUNT,
    MAX_SHOWN_DIGITS,
    ORACLE_MAX_N,
    PHI_CLAIM_MAX_X,
    SIEVE_MAX_N,
    RangeLimitError,
    positive_int,
)
from divrec.recursion import (
    RecurrenceSpec,
    evaluate_G,
    expand_eq_star,
    identity_counts,
    series_form,
    tail_bound,
)
from divrec.sieves import iter_sieve_tables, sieve_segment, squarefree_flags
from divrec.verify import run_app1_suite, run_lemma_suite

SPEC = RecurrenceSpec(2, 1, -1, Fraction(1, 3), identity_counts())

#: entry point and argument -> (call on the value, its minimum, its cap or None)
CHECKED = {
    "factorize": (factorize, 1, FACTORIZE_MAX_N),
    "divisibility_exponent n": (lambda n: divisibility_exponent(n, 2), 1, None),
    "divisibility_exponent m": (lambda m: divisibility_exponent(8, m), 2, None),
    "oddly_oracle m": (lambda m: count_oddly_divisible_oracle(m, 10), 2, None),
    "oddly_oracle N": (lambda N: count_oddly_divisible_oracle(2, N), 0, ORACLE_MAX_N),
    "oddly_fast m": (lambda m: count_oddly_divisible_fast(m, 10), 2, None),
    "oddly_fast N": (lambda N: count_oddly_divisible_fast(2, N), 0, ENGINE_MAX_N),
    "predicted_density_oddly": (predicted_density_oddly, 2, None),
    "RecurrenceSpec m": (
        lambda m: RecurrenceSpec(m, 1, 0, 1, identity_counts()), 2, None
    ),
    "evaluate_G N": (lambda N: evaluate_G(SPEC, N), 0, ENGINE_MAX_N),
    "expand_eq_star N": (lambda N: expand_eq_star(SPEC, N, 3), 1, ENGINE_MAX_N),
    "expand_eq_star j": (lambda j: expand_eq_star(SPEC, 10, j), 1, None),
    "series_form N": (lambda N: series_form(SPEC, N), 1, ENGINE_MAX_N),
    "tail_bound k": (lambda k: tail_bound(SPEC, k, 1), 1, None),
    "sieve_segment lo": (lambda lo: sieve_segment(lo, 10), 1, None),
    "sieve_segment hi": (lambda hi: sieve_segment(5, hi), 5, SIEVE_MAX_N),
    "squarefree_flags lo": (lambda lo: squarefree_flags(lo, 10), 1, None),
    "squarefree_flags hi": (lambda hi: squarefree_flags(5, hi), 5, SIEVE_MAX_N),
    "iter_sieve_tables hi": (
        lambda hi: next(iter_sieve_tables(5, hi)), 5, SIEVE_MAX_N
    ),
    "count_squarefree_multiples t": (
        lambda t: count_squarefree_multiples(t, 10), 1, FACTORIZE_MAX_N
    ),
    "count_squarefree_multiples N": (
        lambda N: count_squarefree_multiples(1, N), 0, SIEVE_MAX_N
    ),
    "count_squarefree_multiples_recursive N": (
        lambda N: count_squarefree_multiples_recursive(6, [N]), 0, SIEVE_MAX_N
    ),
    "count_squarefree_multiples_sieved N": (
        lambda N: count_squarefree_multiples_sieved(6, [N]), 0, SIEVE_MAX_N
    ),
    "brown_identity_first_failure X": (
        lambda X: brown_identity_first_failure(1, 2, X), 1, BROWN_CHECK_MAX_X
    ),
    "squarefree_multiple_counts limit": (
        lambda limit: squarefree_multiple_counts(1, limit), 1, BROWN_CHECK_MAX_X
    ),
    "phi_ratio_sum m": (lambda m: phi_ratio_sum(m, 10), 1, None),
    "phi_ratio_sum N": (lambda N: phi_ratio_sum(1, N), 0, SIEVE_MAX_N),
    "phi_ratio_sum exact N": (
        lambda N: phi_ratio_sum(1, N, "exact"), 0, EXACT_PHI_SUM_MAX_N
    ),
    "predicted_phi_density": (predicted_phi_density, 1, None),
    "phi_claim_first_failure t": (
        lambda t: phi_claim_first_failure(t, 2, 1, 10), 1, None
    ),
    "phi_claim_first_failure j": (
        lambda j: phi_claim_first_failure(1, 2, j, 10), 1, None
    ),
    "phi_claim_first_failure X": (
        lambda X: phi_claim_first_failure(1, 2, 1, X), 1, PHI_CLAIM_MAX_X
    ),
    "phi_ratio_counts m": (lambda m: phi_ratio_counts(m, 10), 1, None),
    "phi_ratio_counts limit": (
        lambda limit: phi_ratio_counts(1, limit), 1, PHI_CLAIM_MAX_X
    ),
    "CheckpointSchedule start": (lambda s: CheckpointSchedule(s, 10, 2), 1, None),
    "CheckpointSchedule stop": (lambda s: CheckpointSchedule(1, s, 2), 1, None),
    # the schedule refuses a stop below 1, run_convergence one past the cap
    "run_convergence stop": (
        lambda N: run_convergence(OddlyFamily(2), CheckpointSchedule(1, N, 2)),
        1,
        ENGINE_MAX_N,
    ),
    "run_lemma_suite count": (run_lemma_suite, 0, LEMMA_MAX_COUNT),
    "run_app1_suite max_n": (lambda n: run_app1_suite(max_n=n), 1, ORACLE_MAX_N),
}


@pytest.mark.parametrize("call, low, cap", CHECKED.values(), ids=CHECKED)
def test_bad_and_over_cap_arguments_raise_short_messages(call, low, cap):
    cases = [(low - 1, ValueError), (-(10**5000), ValueError)]
    if cap is not None:
        cases += [(cap + 1, RangeLimitError), (10**5000, RangeLimitError)]
    for value, error in cases:
        with pytest.raises(ValueError) as caught:  # RangeLimitError is one too
            call(value)
        message = str(caught.value)
        assert type(caught.value) is error, message
        assert len(message) < 100
        if error is RangeLimitError:
            assert " exceeds the cap " in message
        else:
            assert message.startswith("need ")


@pytest.mark.parametrize(
    "call, name, kind",
    [
        (lambda: sieve_segment(1.5, 10), "lo", "float"),
        (lambda: phi_ratio_sum(1, 10.0), "N", "float"),
        (lambda: sieve_segment(1, True), "hi", "bool"),
        (lambda: factorize(Fraction(6)), "n", "Fraction"),
    ],
)
def test_a_non_integer_argument_is_a_type_error_that_names_it(call, name, kind):
    with pytest.raises(TypeError) as caught:
        call()
    assert str(caught.value) == f"{name} must be an integer, not {kind}"


def test_numpy_integers_pass_and_sieve_as_python_integers():
    # a numpy int32 lo would wrap where the sieve finds its stride starts
    lo, hi = 10**8 + 1, 10**8 + 1001
    for step in (1, 6):  # lo is 5 (mod 6)
        table = sieve_segment(np.int32(lo), np.int64(hi), step=step)
        assert np.array_equal(table.phi, sieve_segment(lo, hi, step=step).phi)
        assert squarefree_flags(np.int32(lo), np.int32(hi)).tolist() == (
            squarefree_flags(lo, hi).tolist()
        )


def test_numpy_integers_reach_the_walks_as_python_integers():
    # each argument is taken through operator.index where it is checked, so
    # the walks compute with Python ints and return Python results
    for dtype in (np.int32, np.int64):
        total = phi_ratio_sum(dtype(3), dtype(30))
        assert type(total) is float and total == phi_ratio_sum(3, 30)
        sums = phi_ratio_sums_at(dtype(1), [dtype(10), dtype(20)], "exact")
        assert sums == phi_ratio_sums_at(1, [10, 20], "exact")
        counts = count_squarefree_multiples_sieved(dtype(6), [dtype(10), dtype(99)])
        assert counts == count_squarefree_multiples_sieved(6, [10, 99])
        assert all(type(c) is int for c in counts)
        points = CheckpointSchedule(dtype(1), dtype(1000), Fraction(10)).points
        assert points == [1, 10, 100, 1000]
        assert all(type(p) is int for p in points)
        factors = factorize(dtype(12))
        assert factors == [(2, 2), (3, 1)]
        assert all(type(x) is int for pair in factors for x in pair)
    # every point is checked, not only the first and the last
    for walk in (phi_ratio_sums_at, count_squarefree_multiples_sieved):
        with pytest.raises(TypeError, match="^N must be an integer, not float$"):
            walk(1, [10, 20.5, 30])


#: entry point -> a call of it with the given thread count, and a
#: comparable view of what it returns
THREADED = {
    "run_convergence": lambda threads: run_convergence(
        PhiSumFamily(3), CheckpointSchedule(10, 1000, Fraction(10)), threads=threads
    ),
    "phi_ratio_sum": lambda threads: phi_ratio_sum(1, 1000, threads=threads),
    "phi_ratio_sums_at": lambda threads: phi_ratio_sums_at(
        1, [10, 100], "exact", threads=threads
    ),
    "iter_sieve_tables": lambda threads: next(
        iter_sieve_tables(1, 10, threads=threads)
    ).phi.tolist(),
}


@pytest.mark.parametrize("call", THREADED.values(), ids=list(THREADED))
def test_a_thread_count_is_checked_before_any_work(monkeypatch, call):
    # a bad count raises before any totient is walked or sieved
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(densities, "_phi_ratio_walk", no_work)
    monkeypatch.setattr(densities, "phi_ratio_pairs_at", no_work)
    monkeypatch.setattr(sieves, "_Walk", no_work)
    for threads in (0, -3):
        with pytest.raises(ValueError, match=f"^need threads >= 1, got {threads}$"):
            call(threads)
    for threads, kind in ((2.5, "float"), (True, "bool"), ("2", "str")):
        with pytest.raises(TypeError, match=f"^threads must be an integer, not {kind}$"):
            call(threads)
    monkeypatch.undo()
    assert call(np.int64(2)) == call(1)


@pytest.mark.parametrize("name", ["DIVREC_THREADS"])
def test_environment_values_past_the_digit_cap_name_the_variable(name):
    # past 4300 digits int() itself refuses the text; the digit cap comes
    # first, and leading zeros do not count
    with pytest.raises(RangeLimitError, match=f"^{name} has 5000 digits, more than"):
        positive_int(name, "9" * 5000)
    assert positive_int(name, "9" * MAX_SHOWN_DIGITS) == 10**MAX_SHOWN_DIGITS - 1
    assert positive_int(name, "0" * 5000 + "7") == 7
    with pytest.raises(ValueError, match="must be a positive integer"):
        positive_int(name, "0" * 5000)
