"""Engine for linear floor-division recursions.

The objects here tie two maps F, G on the nonnegative integers together by

    G(N) = alpha * F(N // m) + beta * G(N // m),    F(0) = G(0) = 0,

with an integer modulus m >= 2 and rational coefficients subject to
|beta| < m. Unrolling the recursion expands G(N)/N into per-level terms
whose i-th coefficient is alpha*beta**(i-1)/m**i against the ratio
F(N // m**i) / (N / m**i); when F(n)/n tends to a limit D, the value of
G(N)/N tends to D*alpha/(m - beta), and the geometric tail bound quantifies
how little the deep terms can matter.

All arithmetic is exact: values are ``fractions.Fraction`` throughout
(exported as :data:`Rational`), so every identity the engine claims can be
checked with ``==`` rather than with tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Callable, Union

from .limits import ENGINE_MAX_N, check_range

#: Exact rational scalar used for all engine arithmetic.
Rational = Fraction

#: Anything the engine coerces to a Rational.
RationalLike = Union[int, Fraction]


@dataclass(frozen=True)
class CountingFunction:
    """A map from nonnegative integers to exact rationals with fn(0) = 0.

    Instances wrap prefix counts (or prefix sums of nonnegative terms), so
    they are monotone nondecreasing in practice; the engine itself only
    relies on fn(0) = 0, which is checked at construction.
    """

    fn: Callable[[int], Fraction]
    description: str = ""

    def __post_init__(self) -> None:
        if self.fn(0) != 0:
            raise ValueError("counting functions must vanish at 0")

    def __call__(self, n: int) -> Fraction:
        return self.fn(n)


def identity_counts() -> CountingFunction:
    """The counting function F(n) = n (everything counts)."""
    return CountingFunction(lambda n: Fraction(n), "F(n) = n")


@dataclass(frozen=True)
class RecurrenceSpec:
    """Parameters of one recursion instance.

    Attributes:
        m: Integer modulus, at least 2.
        alpha: Weight on F(N // m).
        beta: Weight on G(N // m); must satisfy |beta| < m.
        D: Hypothesized limit of F(n)/n, used only by the predicted limit
            and the tail bound.
        F: The driving counting function.
    """

    m: int
    alpha: Fraction
    beta: Fraction
    D: Fraction
    F: CountingFunction

    def __post_init__(self) -> None:
        check_range("modulus m", self.m, 2)
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        object.__setattr__(self, "beta", Fraction(self.beta))
        object.__setattr__(self, "D", Fraction(self.D))
        if abs(self.beta) >= self.m:
            raise ValueError(f"need |beta| < m, got beta={self.beta}, m={self.m}")


def _floor_chain(N: int, m: int) -> list[int]:
    # [N, N//m, N//m**2, ...], stopping before 0
    chain = []
    v = N
    while v:
        chain.append(v)
        v //= m
    return chain


def evaluate_G(spec: RecurrenceSpec, N: int) -> Fraction:
    """Evaluate G(N) exactly by walking the floor-division chain bottom-up.

    The chain N, N//m, N//m**2, ... has at most log_m(N) + 1 distinct
    entries, so the cost is one F evaluation per level and no memoization
    is needed. G(0) = 0 by definition.
    """
    check_range("N", N, 0, ENGINE_MAX_N)
    a, a_den = spec.alpha.numerator, spec.alpha.denominator
    b, b_den = spec.beta.numerator, spec.beta.denominator
    num, den = 0, 1  # G(v) = num / den, reduced once at the end
    for v in reversed(_floor_chain(N, spec.m)):
        f = spec.F(v // spec.m)
        # alpha * F + beta * G over the lcm of the two denominators
        f_num, f_den = a * f.numerator, a_den * f.denominator
        num, den = b * num, b_den * den
        g = gcd(f_den, den)
        num, den = f_num * (den // g) + num * (f_den // g), f_den // g * den
    return Fraction(num, den)


@dataclass(frozen=True)
class ExpansionTerm:
    """One term of the expansion of G(N)/N.

    ``coefficient * ratio`` is the term's exact contribution; level terms
    carry coefficient alpha*beta**(index-1)/m**index against the ratio
    F(N // m**index) / (N / m**index), and the final remainder term
    (``remainder_flag`` set) carries beta**index/m**index against
    G(N // m**index) / (N / m**index).
    """

    index: int
    coefficient: Fraction
    ratio: Fraction
    remainder_flag: bool = False

    @property
    def value(self) -> Fraction:
        return self.coefficient * self.ratio


def expand_eq_star(spec: RecurrenceSpec, N: int, j: int) -> list[ExpansionTerm]:
    """Expand G(N)/N into j leading terms plus one remainder term.

    For every j >= 1 the values of the returned j+1 terms sum exactly to
    evaluate_G(spec, N) / N. Once m**j exceeds N the remainder ratio is
    G(0)/..., identically zero, and the leading terms alone carry the value.

    Args:
        spec: The recursion instance.
        N: Point of expansion, at least 1.
        j: Number of leading terms, at least 1.
    """
    check_range("N", N, 1, ENGINE_MAX_N)
    check_range("j", j, 1)
    # each value is built as one Fraction of exact integers, so it is
    # normalised once
    a, a_den = spec.alpha.numerator, spec.alpha.denominator
    b, b_den = spec.beta.numerator, spec.beta.denominator
    terms = []
    b_pow, b_den_pow = 1, 1  # beta**(i-1) = b_pow / b_den_pow
    m_pow = 1
    floor = N
    for i in range(1, j + 1):
        m_pow *= spec.m
        floor //= spec.m
        coefficient = Fraction(a * b_pow, a_den * b_den_pow * m_pow)
        ratio = _scaled_ratio(spec.F(floor), m_pow, N)
        terms.append(ExpansionTerm(i, coefficient, ratio))
        b_pow *= b
        b_den_pow *= b_den
    coefficient = Fraction(b_pow, b_den_pow * m_pow)
    ratio = _scaled_ratio(evaluate_G(spec, floor), m_pow, N)
    terms.append(ExpansionTerm(j, coefficient, ratio, True))
    return terms


def _scaled_ratio(value: Fraction, m_pow: int, N: int) -> Fraction:
    # value / (N / m_pow), normalised once
    return Fraction(value.numerator * m_pow, value.denominator * N)


def series_form(spec: RecurrenceSpec, N: int) -> Fraction:
    """Sum the finite series for G(N)/N; equals evaluate_G(spec, N) / N.

    Term i contributes alpha * beta**(i-1) * F(N // m**i) / N (the m**i in
    the coefficient cancels against the one in the ratio); the series is
    finite because F(N // m**i) vanishes once m**i > N.
    """
    check_range("N", N, 1, ENGINE_MAX_N)
    total = Fraction(0)
    weight = spec.alpha  # alpha * beta**(i-1)
    floor = N // spec.m
    while True:
        total += weight * spec.F(floor)
        if floor == 0:
            break
        weight *= spec.beta
        floor //= spec.m
    return total / N


def predicted_limit(spec: RecurrenceSpec) -> Fraction:
    """The limit D*alpha/(m - beta) of G(N)/N when F(n)/n tends to D.

    Well defined because RecurrenceSpec enforces |beta| < m.
    """
    return spec.D * spec.alpha / (spec.m - spec.beta)


def tail_bound(spec: RecurrenceSpec, k: int, B: RationalLike) -> Fraction:
    """Exact geometric bound on the weight of series terms past index k.

    Equals B * sum_{i > k} |alpha * beta**(i-1) / m**i|, i.e.

        B * |alpha| * |beta|**k / (m**k * (m - |beta|)),

    where B must be a caller-supplied uniform bound on the deviation
    |F(N // m**i) / (N / m**i) - D| over the levels being discarded.
    """
    check_range("k", k, 1)
    bound = Fraction(B)
    if bound < 0:
        raise ValueError(f"deviation bound must be nonnegative, got {bound}")
    ab = abs(spec.beta)
    return bound * abs(spec.alpha) * ab**k / (spec.m**k * (spec.m - ab))
