"""Identity verification suites with first-counterexample reporting.

Each suite re-derives one of the library's exact identities over an explicit
window: randomized recursion instances for the engine algebra, exhaustive
windows for the three density families. A suite returns the number of checks
performed and a list of human-readable failure descriptions (empty on
success); the CLI maps failures to a nonzero exit so the suites can gate
automation.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import accumulate
from typing import Sequence

from . import densities, recursion
from .arith import (
    count_oddly_divisible_fast,
    count_oddly_divisible_oracle,
    divisibility_exponent,
    pair_sum,
)
from .limits import LEMMA_MAX_COUNT, ORACLE_MAX_N, Record, check_range


class SuiteResult(Record):
    """A suite's name, its number of checks and its failure descriptions
    (a new empty list by default). It holds a list, so it is not hashable."""

    __slots__ = ("name", "checks", "failures")

    def __init__(
        self, name: str, checks: int, failures: list[str] | None = None
    ) -> None:
        super().__init__(name, checks, [] if failures is None else failures)

    __hash__ = None

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        if self.ok:
            return f"{self.name}: pass ({self.checks} checks)"
        return (
            f"{self.name}: FAIL ({len(self.failures)} of {self.checks} checks); "
            f"first: {self.failures[0]}"
        )


def _sample_counting_functions() -> list[recursion.CountingFunction]:
    return [
        recursion.identity_counts(),
        recursion.CountingFunction(lambda n: Fraction(3 * n, 2), "F(n) = 3n/2"),
        recursion.CountingFunction(lambda n: Fraction(n // 3), "F(n) = n//3"),
        recursion.CountingFunction(lambda n: Fraction(n) * n, "F(n) = n**2"),
    ]


def run_lemma_suite(
    count: int = 1000, seed: int = 0, max_j: int = 20
) -> SuiteResult:
    """Random recursion instances: direct evaluation vs series form vs the
    j-term expansion, all compared with exact equality.

    Each instance draws m in [2, 10], rational alpha and beta with |beta| < m,
    one of several driving functions, and an N up to 1e9; the expansion is
    telescoped for every j up to max_j; count is at most LEMMA_MAX_COUNT.
    """
    check_range("count", count, 0, LEMMA_MAX_COUNT)
    rng = random.Random(seed)
    fns = _sample_counting_functions()
    failures: list[str] = []
    checks = 0
    for _ in range(count):
        m = rng.randint(2, 10)
        alpha = Fraction(rng.randint(-8, 8), rng.randint(1, 8))
        beta = Fraction(rng.randint(-(8 * m - 1), 8 * m - 1), 8)
        D = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
        F = rng.choice(fns)
        spec = recursion.RecurrenceSpec(m, alpha, beta, D, F)
        N = rng.choice(
            (rng.randint(1, 100), rng.randint(1, 10**4), rng.randint(1, 10**9))
        )
        label = f"(m={m}, alpha={alpha}, beta={beta}, F='{F.description}'), N={N}"
        g = recursion.evaluate_G(spec, N)
        checks += 1
        if recursion.series_form(spec, N) * N != g:
            failures.append(f"series form != G(N)/N at {label}")
        summed, partial = [], (0, 1)  # leading terms already summed, and their sum
        for j in range(1, max_j + 1):
            checks += 1
            terms = recursion.expand_eq_star(spec, N, j)
            k = len(summed)
            if terms[:k] != summed:  # not the last call's terms: sum afresh
                k, partial = 0, (0, 1)
            partial = _term_sum(terms[k:j], *partial)
            summed = terms[:j]
            if not _expansion_matches(terms[j:], N, g, partial):
                failures.append(f"expansion with j={j} != G(N)/N at {label}")
                break
            if m**j > N and terms[-1].ratio != 0:
                failures.append(f"nonzero remainder past the chain at {label}, j={j}")
                break
    return SuiteResult("lemma", checks, failures)


def _expansion_matches(
    terms: Sequence[recursion.ExpansionTerm], N: int, g: Fraction, partial=(0, 1)
) -> bool:
    # (partial + sum(t.value for t in terms)) * N == g, compared once by
    # cross-multiplying the unreduced sum
    num, den = _term_sum(terms, *partial)
    return num * N * g.denominator == g.numerator * den


def _term_sum(
    terms: Sequence[recursion.ExpansionTerm], num: int, den: int
) -> tuple[int, int]:
    # num/den plus the term values without a normalised Fraction per term
    for t in terms:
        c, r = t.coefficient, t.ratio
        num, den = pair_sum(
            num, den, c.numerator * r.numerator, c.denominator * r.denominator
        )
    return num, den


def run_app1_suite(
    ms: Sequence[int] = (2, 3, 5, 10), max_n: int = 10**4
) -> SuiteResult:
    """Oracle vs fast odd-exponent counts, plus the halving recursion itself.

    For each modulus the brute-force oracle builds the full count table up to
    max_n; the fast counter must match at every n, and the table must satisfy
    G(n) = n//m - G(n//m) throughout.
    """
    # before the (max_n + 1)-entry table below
    check_range("max_n", max_n, 1, ORACLE_MAX_N)
    from array import array  # an extension module: only this suite loads it

    failures: list[str] = []
    checks = 0
    for m in ms:
        flags = bytearray(max_n + 1)
        for i in range(m, max_n + 1, m):
            flags[i] = divisibility_exponent(i, m) % 2
        counts = array("q", accumulate(flags))  # 8 bytes an entry; a list takes 36
        checks += 1
        if count_oddly_divisible_oracle(m, max_n) != counts[max_n]:
            failures.append(f"oracle disagrees with its own flag table at m={m}")
        checks += max_n
        bad = (n for n in range(1, max_n + 1) if counts[n] != n // m - counts[n // m])
        n = next(bad, None)
        if n is not None:
            failures.append(f"G(n) = n//m - G(n//m) fails at m={m}, n={n}")
        for n in range(1, max_n + 1):
            checks += 1
            if count_oddly_divisible_fast(m, n) != counts[n]:
                failures.append(f"fast count != oracle at m={m}, n={n}")
                break
    return SuiteResult("app1", checks, failures)


def run_brown_suite(
    pairs: Sequence[tuple[int, int]] = ((1, 2), (1, 3), (2, 3), (3, 2), (6, 5), (15, 2)),
    max_x: int = 10**4,
) -> SuiteResult:
    """Exhaustive square-free splitting identity over several (t, p) pairs."""
    failures: list[str] = []
    checks = 0
    for t, p in pairs:
        checks += max_x
        x = densities.brown_identity_first_failure(t, p, max_x)
        if x is not None:
            failures.append(f"square-free splitting fails at t={t}, p={p}, x={x}")
    return SuiteResult("brown", checks, failures)


def run_phi_claim_suite(
    triples: Sequence[tuple[int, int, int]] = (
        (1, 2, 1),
        (1, 2, 2),
        (1, 3, 1),
        (3, 5, 1),
        (3, 5, 2),
        (5, 2, 3),
    ),
    max_n: int = 10**3,
) -> SuiteResult:
    """Exhaustive exact totient-ratio splitting over several (t, p, j) triples."""
    failures: list[str] = []
    checks = 0
    for t, p, j in triples:
        checks += max_n
        n = densities.phi_claim_first_failure(t, p, j, max_n)
        if n is not None:
            failures.append(
                f"totient-ratio splitting fails at t={t}, p={p}, j={j}, N={n}"
            )
    return SuiteResult("phi-claim", checks, failures)
