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

from fractions import Fraction
from typing import Callable, NamedTuple, Union

from .arith import floor_chain, pair_sum
from .limits import ENGINE_MAX_N, Record, check_range, shown

#: Exact rational scalar used for all engine arithmetic.
Rational = Fraction

#: Anything the engine coerces to a Rational.
RationalLike = Union[int, Fraction]


class CountingFunction(Record):
    """A map from nonnegative integers to exact rationals with fn(0) = 0.

    Instances wrap prefix counts (or prefix sums of nonnegative terms), so
    they are monotone nondecreasing in practice; the engine itself only
    relies on fn(0) = 0, which is checked at construction.
    """

    __slots__ = ("fn", "description")

    def __init__(self, fn: Callable[[int], Fraction], description: str = "") -> None:
        if fn(0) != 0:
            raise ValueError("counting functions must vanish at 0")
        super().__init__(fn, description)

    def __call__(self, n: int) -> Fraction:
        return self.fn(n)


def identity_counts() -> CountingFunction:
    """The counting function F(n) = n (everything counts)."""
    return CountingFunction(lambda n: Fraction(n), "F(n) = n")


class RecurrenceSpec(Record):
    """Parameters of one recursion instance.

    Attributes:
        m: Integer modulus, at least 2.
        alpha: Weight on F(N // m).
        beta: Weight on G(N // m); must satisfy |beta| < m.
        D: Hypothesized limit of F(n)/n, used only by the predicted limit
            and the tail bound.
        F: The driving counting function.

    :func:`expand_eq_star` keeps the terms of the last spec it expanded,
    found by identity, which holds because a spec, like every
    :class:`~divrec.limits.Record`, refuses attribute assignment.
    """

    __slots__ = ("m", "alpha", "beta", "D", "F")

    def __init__(
        self,
        m: int,
        alpha: RationalLike,
        beta: RationalLike,
        D: RationalLike,
        F: CountingFunction,
    ) -> None:
        check_range("modulus m", m, 2)
        alpha, beta, D = Fraction(alpha), Fraction(beta), Fraction(D)
        if abs(beta) >= m:
            raise ValueError(f"need |beta| < m, got beta={shown(beta)}, m={shown(m)}")
        super().__init__(m, alpha, beta, D, F)


def _walk(spec: RecurrenceSpec, N: int) -> tuple[list, list]:
    # the one walk of the floor chain N, N//m, N//m**2, ..., bottom-up, for
    # L chain levels: fs[L - i] = F(N // m**i) for i = 1..L, and
    # gs[L - i] = G(N // m**i) as an unreduced (numerator, denominator) pair
    # for i = 0..L, where gs[0] = G(0) = 0
    a, a_den = spec.alpha.numerator, spec.alpha.denominator
    b, b_den = spec.beta.numerator, spec.beta.denominator
    fs, gs = [], [(0, 1)]
    num, den = 0, 1
    for v in floor_chain([N], spec.m):
        f = spec.F(v // spec.m)
        # alpha * F + beta * G over the lcm of the two denominators
        f_num, f_den = a * f.numerator, a_den * f.denominator
        num, den = pair_sum(f_num, f_den, b * num, b_den * den)
        fs.append(f)
        gs.append((num, den))
    return fs, gs


def evaluate_G(spec: RecurrenceSpec, N: int) -> Fraction:
    """Evaluate G(N) exactly by walking the floor-division chain bottom-up.

    The chain N, N//m, N//m**2, ... has at most log_m(N) + 1 distinct
    entries, so the cost is one F evaluation per level and no memoization
    is needed. G(0) = 0 by definition.
    """
    check_range("N", N, 0, ENGINE_MAX_N)
    return Fraction(*_walk(spec, N)[1][-1])  # reduced once, at the top


class ExpansionTerm(NamedTuple):
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


#: The expansion of the last (spec, N) asked for: (spec, N, fs, gs, levels,
#: remainders), where fs[i - 1] = F(N // m**i) and gs[i] = G(N // m**i)
#: come from its chain walk, levels[i - 1] is level term i and
#: remainders[j - 1] the remainder term for j. Level terms are added when a
#: larger j asks for them; the entry is replaced, never mutated, so a
#: concurrent caller can at worst build it twice.
_expansion: tuple | None = None


def expand_eq_star(spec: RecurrenceSpec, N: int, j: int) -> list[ExpansionTerm]:
    """Expand G(N)/N into j leading terms plus one remainder term.

    For every j >= 1 the values of the returned j+1 terms sum exactly to
    evaluate_G(spec, N) / N. Once m**j exceeds N the remainder ratio is
    G(0)/..., identically zero, and the leading terms alone carry the value.

    Every j reads the same floor chain: the terms of the last (spec, N)
    are kept, so a run of calls for one instance walks its chain once.

    Args:
        spec: The recursion instance.
        N: Point of expansion, at least 1.
        j: Number of leading terms, at least 1.
    """
    global _expansion
    check_range("N", N, 1, ENGINE_MAX_N)
    check_range("j", j, 1)
    entry = _expansion
    if entry is None or entry[0] is not spec or entry[1] != N:
        fs, gs = _walk(spec, N)
        entry = (spec, N, tuple(reversed(fs)), tuple(reversed(gs)), (), ())
    _, _, fs, gs, levels, remainders = entry
    if len(levels) < j:
        # each value is built as one Fraction of exact integers, so it is
        # normalised once; past the end of the chain F and G read 0
        a, a_den = spec.alpha.numerator, spec.alpha.denominator
        b, b_den = spec.beta.numerator, spec.beta.denominator
        new_levels, new_remainders = [], []
        for i in range(len(levels) + 1, j + 1):
            b_pow, b_den_pow, m_pow = b ** (i - 1), b_den ** (i - 1), spec.m**i
            f = fs[i - 1] if i <= len(fs) else Fraction(0)
            g_num, g_den = gs[i] if i < len(gs) else (0, 1)
            coefficient = Fraction(a * b_pow, a_den * b_den_pow * m_pow)
            ratio = Fraction(f.numerator * m_pow, f.denominator * N)
            new_levels.append(ExpansionTerm(i, coefficient, ratio))
            coefficient = Fraction(b_pow * b, b_den_pow * b_den * m_pow)
            ratio = Fraction(g_num * m_pow, g_den * N)
            new_remainders.append(ExpansionTerm(i, coefficient, ratio, True))
        levels += tuple(new_levels)
        remainders += tuple(new_remainders)
        _expansion = (spec, N, fs, gs, levels, remainders)
    return [*levels[:j], remainders[j - 1]]


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
