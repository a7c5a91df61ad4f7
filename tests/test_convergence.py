"""Schedules, one-pass checkpoint tables, and report formatting."""

import copy
import csv
import io
import json
import math
import pickle
import random
from fractions import Fraction

import pytest

from divrec import limits
from divrec.convergence import (
    CSV_HEADER,
    CheckpointSchedule,
    OddlyFamily,
    PhiSumFamily,
    SquarefreeFamily,
    emit_report,
    run_convergence,
)
from divrec.arith import count_oddly_divisible_fast
from divrec.densities import (
    count_squarefree_multiples,
    phi_ratio_sum,
    phi_ratio_sums_at,
    predicted_phi_density,
)
from divrec.limits import RangeLimitError
from divrec.sieves import SieveTable, sieve_segment
from divrec.verify import SuiteResult


def test_schedule_default_grid():
    sched = CheckpointSchedule(10**3, 10**7, Fraction(10))
    assert sched.points == [10**3, 10**4, 10**5, 10**6, 10**7]


def test_schedule_clips_at_stop():
    assert CheckpointSchedule(1000, 5000, Fraction(10)).points == [1000, 5000]
    assert CheckpointSchedule(7, 7, Fraction(2)).points == [7]


def test_schedule_fractional_ratio():
    pts = CheckpointSchedule(100, 1000, Fraction(5, 2)).points
    assert pts == [100, 250, 625, 1000]
    assert all(b > a for a, b in zip(pts, pts[1:]))


def test_schedule_dedupes_slow_growth():
    pts = CheckpointSchedule(10, 20, Fraction(21, 20)).points
    assert pts[0] == 10 and pts[-1] == 20
    assert all(b > a for a, b in zip(pts, pts[1:]))


def test_schedule_empty_when_start_past_stop():
    assert CheckpointSchedule(100, 5, Fraction(2)).points == []


def test_schedule_validation():
    with pytest.raises(ValueError):
        CheckpointSchedule(0, 10, Fraction(2))
    with pytest.raises(ValueError):
        CheckpointSchedule(1, 10, Fraction(1))
    with pytest.raises(ValueError):
        CheckpointSchedule(1, 10, Fraction(1, 2))
    # a huge ratio is named by its digit counts, as a huge N is
    with pytest.raises(ValueError) as info:
        CheckpointSchedule(1, 10, Fraction(1, 10**5000))
    assert str(info.value) == "schedule ratio must exceed 1, got 1/a 5001-digit integer"


def points_from_scratch(start: int, stop: int, ratio: Fraction) -> list[int]:
    """The schedule's defining formula, with ratio**k recomputed at each k."""
    if start > stop:
        return []
    pts: list[int] = []
    k = 0
    while True:
        raw = round(start * ratio**k)
        value = min(raw, stop)
        if not pts or value > pts[-1]:
            pts.append(value)
        if raw >= stop:
            return pts
        k += 1


@pytest.mark.parametrize(
    "start, stop, ratio",
    [
        (1, 10**12, Fraction("1.01")),
        (10**3, 10**7, Fraction(10)),
        (1, 100, Fraction(5, 2)),  # 2.5 rounds half to even, to 2
        (3, 10**6, Fraction(5, 2)),
        (1, 100, Fraction(3, 2)),
        (7, 60, Fraction(1001, 1000)),
        (5, 10**12, Fraction(3 * 10**50 + 1, 10**50 - 7)),  # wide terms
        (2, 10**12, Fraction(10**18)),
        (100, 5, Fraction(2)),
        (7, 7, Fraction(2)),
    ],
)
def test_schedule_steps_match_the_formula(start, stop, ratio):
    sched = CheckpointSchedule(start, stop, ratio)
    assert sched.points == points_from_scratch(start, stop, ratio)


def exact_points(start: int, stop: int, ratio: Fraction) -> list[int]:
    """The exact stepper the fixed-point one replaced: start * ratio**k kept
    as num/den, one multiplication a step, rounded half to even."""
    if start > stop:
        return []
    p, q = ratio.numerator, ratio.denominator
    num, den = start, 1
    pts: list[int] = []
    while True:
        raw, rem = divmod(num, den)
        if 2 * rem > den or (2 * rem == den and raw % 2):
            raw += 1
        value = min(raw, stop)
        if not pts or value > pts[-1]:
            pts.append(value)
        if raw >= stop:
            return pts
        num *= p
        den *= q


@pytest.mark.parametrize(
    "start, stop, ratio",
    [
        (1, 10**9, Fraction("1.001")),  # 14 823 points
        (1, 10**12, Fraction("1.01")),  # 2414 points
        (3, 10**12, Fraction("1.01")),
        # integer ratios: every point is an exact integer
        (1, 10**12, Fraction(2)),
        (7, 10**12, Fraction(3)),
        # start * (p/q)**k lands on an exact half at k = 21, 5 and 6
        (2**20, 10**12, Fraction(3, 2)),
        (3 * 10**5 // 2, 10**9, Fraction(11, 10)),
        (3 * 6**5, 10**12, Fraction(7, 6)),
        (10**12 - 1, 10**12, Fraction(10**12, 10**12 - 1)),
        (1, 2, Fraction(3)),
    ],
)
def test_fixed_point_schedule_equals_the_exact_stepper(start, stop, ratio):
    assert CheckpointSchedule(start, stop, ratio).points == exact_points(
        start, stop, ratio
    )


@pytest.mark.parametrize("seed", range(4))
def test_fixed_point_schedule_on_random_schedules(seed):
    # random ratios of small and wide terms, and starts built so that some
    # point start * (p/q)**k is an exact half: q even, p odd, start =
    # s * q**k / 2 with s odd
    rng = random.Random(seed)
    for _ in range(150):
        if rng.random() < 0.5:
            q = rng.choice((2, 4, 6, 10, 12, 1000))
            p = rng.randrange(q + 1, 3 * q) | 1
            while math.gcd(p, q) > 1:
                p += 2
            k = rng.randint(1, min(8, 11 // len(str(q))))
            start = rng.randrange(1, 100, 2) * q**k // 2
        else:
            q = rng.choice((1, 3, 7, 10**3, 10**9, 10**30 + 7))
            p = q + rng.randint(1, 5 * q)
            start = rng.randint(1, 10**6)
        ratio = Fraction(p, q)
        stop = rng.randint(start, min(10**12, start * 2**rng.randint(1, 40)))
        schedule = CheckpointSchedule(start, stop, ratio)
        assert schedule.points == exact_points(start, stop, ratio), schedule


def test_schedule_point_cap():
    assert len(CheckpointSchedule(1, 10**12, Fraction("1.01")).points) == 2414
    for ratio in ("1.0001", "1.000000001"):
        with pytest.raises(RangeLimitError):
            CheckpointSchedule(1, 10**12, Fraction(ratio)).points
    tiny = Fraction(1, 10**400)
    with pytest.raises(RangeLimitError):
        CheckpointSchedule(1, 2, 1 + tiny).points
    # a ratio past the stop is one step, however large its terms
    assert CheckpointSchedule(1, 2, Fraction(10**500, 3)).points == [1, 2]


def test_oddly_single_row():
    rows = run_convergence(OddlyFamily(2), CheckpointSchedule(10, 10, Fraction(2)))
    (row,) = rows
    assert row.N == 10
    assert row.empirical == 0.4
    assert row.predicted == pytest.approx(1 / 3, rel=1e-15)
    assert row.abs_err == pytest.approx(0.4 - 1 / 3, rel=1e-12)
    assert row.rel_err == pytest.approx(0.2, rel=1e-12)
    assert row.empirical_exact == Fraction(2, 5)


@pytest.mark.parametrize(
    "family, total",
    [
        (OddlyFamily(3), lambda N: count_oddly_divisible_fast(3, N)),
        (SquarefreeFamily(6), lambda N: count_squarefree_multiples(6, N)),
        (PhiSumFamily(6, "exact"), lambda N: phi_ratio_sum(6, N, "exact")),
        (PhiSumFamily(6), None),
    ],
)
def test_rows_carry_an_exact_ratio_unless_the_sum_is_float(family, total):
    rows = run_convergence(family, CheckpointSchedule(10, 1000, Fraction(10)))
    assert [r.N for r in rows] == [10, 100, 1000]
    for row in rows:
        if total is None:
            assert row.empirical_exact is None
        else:
            assert type(row.empirical_exact) is Fraction
            assert row.empirical_exact == Fraction(total(row.N), row.N)
            assert row.empirical == float(total(row.N)) / row.N


def test_squarefree_family_takes_the_primes_of_t():
    # the primes are found from t, or checked when handed in, in any order;
    # handed in, t is not factored and may lie past the factoring cap
    assert SquarefreeFamily(30).primes == (2, 3, 5)
    assert SquarefreeFamily(30, [5, 2, 3]) == SquarefreeFamily(30)
    big = SquarefreeFamily(1_000_003 * 1_000_033, [1_000_003, 1_000_033])
    assert big.primes == (1_000_003, 1_000_033)
    rows = run_convergence(big, CheckpointSchedule(10, 10**9, Fraction(10)))
    assert [row.empirical for row in rows] == [0.0] * 9
    for t, primes, error in [
        (30, [2, 3], ValueError),  # not the product
        (4, [2, 2], ValueError),  # not distinct
        (6, [1, 6], ValueError),  # not primes
        (10**13, [10**13], RangeLimitError),
        (1_000_003 * 1_000_033, None, RangeLimitError),
    ]:
        with pytest.raises(error):
            SquarefreeFamily(t, primes)


def test_empty_schedule_runs_to_empty_table():
    sched = CheckpointSchedule(100, 5, Fraction(2))
    for family in (OddlyFamily(2), SquarefreeFamily(2), PhiSumFamily(5)):
        assert run_convergence(family, sched) == []


def test_families_and_schedules_compare_within_their_type():
    families = [OddlyFamily(5), SquarefreeFamily(5), PhiSumFamily(5)]
    assert families == [OddlyFamily(5), SquarefreeFamily(5), PhiSumFamily(5, "float")]
    assert len(set(families)) == 3  # hashable, and never equal across types
    assert OddlyFamily(5) != (5,) and PhiSumFamily(5) != PhiSumFamily(5, "exact")
    assert repr(PhiSumFamily(6, "exact")) == "PhiSumFamily(m=6, mode='exact')"
    sched = CheckpointSchedule(1, 10, 2)
    assert sched == CheckpointSchedule(1, 10, Fraction(2)) != CheckpointSchedule(1, 10, 3)
    assert hash(sched) == hash(CheckpointSchedule(1, 10, Fraction(2)))
    assert repr(sched) == "CheckpointSchedule(start=1, stop=10, ratio=Fraction(2, 1))"
    # tables and suite results compare by value within their type, and
    # records of two types with equal fields never compare equal
    table = sieve_segment(1, 10)
    twin = SieveTable(table.lo, table.hi, table.phi, table.step)
    assert table == twin and SieveTable(1, 10, table.phi, 2) != table
    suite = SuiteResult("brown", 3)
    assert suite == SuiteResult("brown", 3, []) != SuiteResult("brown", 4)
    assert SuiteResult(1, 10, Fraction(2)) != sched != SuiteResult(1, 10, Fraction(2))
    # a table holds an array and a suite result a list: neither hashes
    for record in (table, suite):
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
    # no record takes a new field value: a table changed in place read
    # totients from the wrong numbers, and a schedule changed in place was
    # never checked
    changes = [
        (table, "lo", 5),
        (suite, "checks", 0),
        (sched, "ratio", Fraction(1, 2)),
        (OddlyFamily(5), "m", 1),
        (SquarefreeFamily(5), "t", 4),
        (PhiSumFamily(5), "mode", "decimal"),
    ]
    for record, name, value in changes:
        before = repr(record)
        twin = type(record)(*(getattr(record, n) for n in record.__slots__))
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(record, name, value)
        # nor loses one: a deleted field broke the next repr, == or points
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(record, name)
        assert repr(record) == before and record == twin
    assert table.phi_of(5) == 4
    # copy and pickle rebuild each record from its fields, and a rebuilt
    # table is as read-only as a sieved one
    for record, _, _ in changes:
        for rebuilt in (
            copy.copy(record),
            copy.deepcopy(record),
            pickle.loads(pickle.dumps(record)),
        ):
            assert type(rebuilt) is type(record) and rebuilt == record
    for rebuilt in (copy.deepcopy(table), pickle.loads(pickle.dumps(table))):
        assert rebuilt.phi is not table.phi
        with pytest.raises(ValueError, match="read-only"):
            rebuilt.phi[0] = 7
    assert table.phi_of(1) == 1


def test_family_validation_errors():
    sched = CheckpointSchedule(10, 100, Fraction(10))
    with pytest.raises(ValueError):
        run_convergence(OddlyFamily(1), sched)
    with pytest.raises(ValueError):
        run_convergence(SquarefreeFamily(12), sched)
    with pytest.raises(ValueError):
        run_convergence(PhiSumFamily(5, "decimal"), sched)
    with pytest.raises(ValueError):
        run_convergence("oddly", sched)
    with pytest.raises(RangeLimitError):
        run_convergence(
            PhiSumFamily(5, "exact"), CheckpointSchedule(10, 10**6, Fraction(10))
        )


def checkpoints_equal_from_scratch(family, points, rescan):
    sched = CheckpointSchedule(points[0], points[-1], Fraction(10))
    assert sched.points == points
    rows = run_convergence(family, sched)
    assert [r.N for r in rows] == points
    for row in rows:
        assert row.empirical == rescan(row.N)


def test_oddly_checkpoints_equal_from_scratch():
    checkpoints_equal_from_scratch(
        OddlyFamily(3),
        [10, 100, 1000],
        lambda n: count_oddly_divisible_fast(3, n) / n,
    )


def test_squarefree_checkpoints_equal_from_scratch():
    checkpoints_equal_from_scratch(
        SquarefreeFamily(2),
        [10, 100, 1000],
        lambda n: count_squarefree_multiples(2, n) / n,
    )


def test_phisum_float_checkpoints_equal_from_scratch():
    # bitwise: the checkpointed pass must equal an independent full pass
    checkpoints_equal_from_scratch(
        PhiSumFamily(5),
        [10, 100, 1000],
        lambda n: phi_ratio_sum(5, n) / n,
    )


def test_phisum_exact_checkpoints_equal_from_scratch():
    rows = run_convergence(
        PhiSumFamily(7, "exact"), CheckpointSchedule(10, 1000, Fraction(10))
    )
    for row in rows:
        assert row.empirical_exact == phi_ratio_sum(7, row.N, "exact") / row.N


@pytest.mark.parametrize("size", [None, 257])
def test_dense_exact_csv_equals_the_reduced_fraction_path(monkeypatch, size):
    # rows read unreduced pairs; the oracle prints every row from the
    # reduced Fraction, float(total) / N
    if size is not None:
        monkeypatch.setattr(limits, "SEGMENT_SIZE", size)
        monkeypatch.setattr(limits, "TOTIENT_SEGMENT_SIZE", size)
    sched = CheckpointSchedule(1, 30_000, Fraction("1.006"))
    points = sched.points
    assert len(points) >= 1000
    sums = phi_ratio_sums_at(3, points, "exact")
    assert all(type(s) is Fraction for s in sums)
    pred = predicted_phi_density(3).float_value
    lines = [CSV_HEADER]
    for N, total in zip(points, sums):
        emp = float(total) / N
        err = abs(emp - pred)
        lines.append(f"{N},{emp:.12g},{pred:.12g},{err:.12g},{err / pred:.12g}")
    expected = ("\n".join(lines) + "\n").encode("ascii")
    rows = run_convergence(PhiSumFamily(3, "exact"), sched)
    assert emit_report(rows, "csv") == expected
    for row, total in zip(rows[::50], sums[::50]):
        assert row.empirical_exact == total / row.N


def test_exact_rows_do_not_depend_on_the_segment_size(monkeypatch):
    # the exact walk reads the plain odd totient list, not the segmented
    # sieve, and does not read the segment size: any value gives the same
    # pairs
    sched = CheckpointSchedule(7, 3000, Fraction("1.2"))
    family = PhiSumFamily(7, "exact")
    rows = run_convergence(family, sched)
    for size in (1, 13, 64):
        monkeypatch.setattr(limits, "SEGMENT_SIZE", size)
        monkeypatch.setattr(limits, "TOTIENT_SEGMENT_SIZE", size)
        assert run_convergence(family, sched) == rows
    assert all(r.exact_ratio[1] > 0 for r in rows)
    assert rows[-1].empirical_exact == phi_ratio_sum(7, 3000, "exact") / 3000


def test_checkpoints_cross_segment_boundaries(monkeypatch):
    # tiny segments force several checkpoint snapshots per segment and
    # several segments per checkpoint interval; results must not move
    sched = CheckpointSchedule(5, 5000, Fraction(3))
    expected = run_convergence(PhiSumFamily(3), sched)
    monkeypatch.setattr(limits, "SEGMENT_SIZE", 64)
    monkeypatch.setattr(limits, "TOTIENT_SEGMENT_SIZE", 64)
    assert run_convergence(PhiSumFamily(3), sched) == expected
    for row in expected:
        assert row.empirical == phi_ratio_sum(3, row.N) / row.N


def test_phisum_threads_bit_identical():
    sched = CheckpointSchedule(10**3, 10**5, Fraction(10))
    base = run_convergence(PhiSumFamily(12), sched)
    for threads in (2, 5):
        assert run_convergence(PhiSumFamily(12), sched, threads=threads) == base


def test_checkpoint_below_first_multiple():
    rows = run_convergence(PhiSumFamily(100), CheckpointSchedule(10, 1000, Fraction(10)))
    assert [r.N for r in rows] == [10, 100, 1000]
    assert rows[0].empirical == 0.0
    assert rows[1].empirical == phi_ratio_sum(100, 100) / 100


def test_emit_report_csv_shape():
    rows = run_convergence(OddlyFamily(2), CheckpointSchedule(10, 100, Fraction(10)))
    data = emit_report(rows, "csv")
    text = data.decode("ascii")
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER == "N,empirical,predicted,abs_err,rel_err"
    assert len(lines) == 3
    assert lines[1].startswith("10,0.4,0.333333333333,")
    parsed = list(csv.DictReader(io.StringIO(text)))
    assert [int(r["N"]) for r in parsed] == [10, 100]
    for r in parsed:
        # 12 significant digits round-trip to the stored double closely
        assert float(r["empirical"]) == pytest.approx(
            count_oddly_divisible_fast(2, int(r["N"])) / int(r["N"]), rel=1e-11
        )


def test_emit_report_empty_is_header_only():
    assert emit_report([], "csv") == b"N,empirical,predicted,abs_err,rel_err\n"
    assert json.loads(emit_report([], "json")) == []


def test_emit_report_json_keys():
    rows = run_convergence(PhiSumFamily(5), CheckpointSchedule(50, 50, Fraction(2)))
    payload = json.loads(emit_report(rows, "json"))
    assert [set(entry) for entry in payload] == [
        {"N", "empirical", "predicted", "abs_err", "rel_err"}
    ]
    exact = json.loads(
        emit_report(
            run_convergence(PhiSumFamily(5, "exact"), CheckpointSchedule(50, 50, Fraction(2))),
            "json",
            include_exact=True,
        )
    )
    assert Fraction(
        int(exact[0]["empirical_numerator"]), int(exact[0]["empirical_denominator"])
    ) == phi_ratio_sum(5, 50, "exact") / 50 == Fraction(274, 2625)


def test_emit_report_rejects_unknown_format():
    with pytest.raises(ValueError):
        emit_report([], "xml")
