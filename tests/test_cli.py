"""CLI behavior: table output, identity checks, exit codes."""

import contextlib
import decimal
import functools
import gc
import hashlib
import io
import json
import time
from fractions import Fraction

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from divrec import arith, densities, sieves
from divrec.cli import main
from divrec.convergence import CheckpointSchedule, PhiSumFamily, run_convergence


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_oddly_single_point(capsys):
    code, out, err = run_cli(capsys, "oddly", "--m", "2", "--n", "10")
    assert code == 0 and err == ""
    assert out == (
        "N,empirical,predicted,abs_err,rel_err\n"
        "10,0.4,0.333333333333,0.0666666666667,0.2\n"
    )


def test_oddly_schedule(capsys):
    code, out, _ = run_cli(capsys, "oddly", "--m", "5", "--schedule", "1e3:1e7:10")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 6
    assert [line.split(",")[0] for line in lines[1:]] == [
        "1000",
        "10000",
        "100000",
        "1000000",
        "10000000",
    ]


def test_oddly_json(capsys):
    code, out, _ = run_cli(capsys, "oddly", "--m", "2", "--n", "100", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["N"] == 100
    assert set(payload[0]) == {"N", "empirical", "predicted", "abs_err", "rel_err"}


def test_squarefree_primes_flag(capsys):
    code, out, _ = run_cli(capsys, "squarefree", "--primes", "2,3", "--n", "1000")
    assert code == 0
    n, empirical = out.strip().split("\n")[1].split(",")[:2]
    assert n == "1000"
    assert float(empirical) == densities.count_squarefree_multiples(6, 1000) / 1000


def test_squarefree_empty_primes_is_all_squarefree(capsys):
    code, out, _ = run_cli(capsys, "squarefree", "--primes", "", "--n", "100")
    assert code == 0
    assert out.strip().split("\n")[1].startswith("100,0.61,")


def test_squarefree_check_identity(capsys):
    code, out, _ = run_cli(
        capsys, "squarefree", "--t", "3", "--check-identity", "2", "--x", "3000"
    )
    assert code == 0
    assert "holds for all x <= 3000" in out


def test_squarefree_needs_some_mode(capsys):
    code, _, err = run_cli(capsys, "squarefree", "--t", "3")
    assert code == 2
    assert "need --n or --schedule" in err


def test_phisum_exact_json_carries_rationals(capsys):
    code, out, _ = run_cli(
        capsys, "phisum", "--m", "5", "--n", "50", "--mode", "exact",
        "--format", "json",
    )
    assert code == 0
    (entry,) = json.loads(out)
    assert (entry["empirical_numerator"], entry["empirical_denominator"]) == (
        "274",
        "2625",
    )


def test_exit_code_bad_modulus(capsys):
    code, _, err = run_cli(capsys, "oddly", "--m", "1", "--n", "10")
    assert code == 2 and "m >= 2" in err


def test_exit_code_non_squarefree_t(capsys):
    code, _, err = run_cli(capsys, "squarefree", "--t", "12", "--n", "100")
    assert code == 2 and "square-free" in err


CAP = "exceeds the cap 1000000000000"


@pytest.mark.parametrize(
    "argv, code, message",
    [
        ("squarefree --t 0 --n 10", 2, "need t >= 1, got 0"),
        ("squarefree --t 1000000000039 --n 10", 3, f"t = 1000000000039 {CAP}"),
        ("phisum --m 1e13 --n 10", 3, f"modulus m = 10000000000000 {CAP}"),
        ("squarefree --primes 1000000000039 --n 10", 3, f"p = 1000000000039 {CAP}"),
        (
            "squarefree --t 6 --check-identity 1000000000039 --x 10",
            3,
            f"p = 1000000000039 {CAP}",
        ),
        (
            "squarefree --t 999999999989 --check-identity 2 --x 10",
            0,
            "squarefree splitting: t=999999999989 p=2 holds for all x <= 10",
        ),
    ],
    ids=[
        "t-below-1",
        "t-past-cap",
        "m-past-cap",
        "primes-past-cap",
        "p-past-cap",
        "t-times-p-past-cap",
    ],
)
def test_squarefree_t_out_of_range_is_named_t(capsys, argv, code, message):
    # t, m and p are checked before they are factored, so the message names
    # each by its own name, not as the n of the factoring cap. The identity
    # check builds t*p from the primes of t and p, never factoring it, so a
    # t and p each within the cap pass however large their product
    expected = (code, "", f"error: {message}\n") if code else (0, f"{message}\n", "")
    assert run_cli(capsys, *argv.split()) == expected


@pytest.mark.parametrize(
    "argv, factored",
    [
        ("squarefree --t 999999999989 --n 1e9", [999999999989]),
        ("squarefree --t 6 --check-identity 5 --x 1e3", [6, 5]),
        ("phisum --m 12348 --n 1e7", [12348]),
        # the primes of --primes are checked one by one and handed on, and
        # their product 999962000357 is never factored
        ("squarefree --primes 999983,999979 --n 1e9", [999983, 999979]),
        (
            "squarefree --primes 999983,999979 --check-identity 2 --x 1e3",
            [999983, 999979, 2],
        ),
    ],
)
def test_each_integer_is_trial_divided_once(capsys, monkeypatch, argv, factored):
    # the trial-division loop under a fresh cache of the same size counts
    # each integer it is handed: the density, the counter and the prime
    # checks of one command share one factoring of t, and t*p is built
    # from known primes
    seen = []
    loop = arith._trial_division.__wrapped__

    def counted(n):
        seen.append(n)
        return loop(n)

    size = arith._trial_division.cache_parameters()["maxsize"]
    monkeypatch.setattr(arith, "_trial_division", functools.lru_cache(size)(counted))
    assert run_cli(capsys, *argv.split())[0] == 0
    assert seen == factored


def test_primes_within_the_cap_pass_whatever_their_product(capsys):
    # each prime is within the factoring cap and t = 1000036000099 is past
    # it, but t is never factored: the identity check and the table take the
    # checked primes from --primes
    argv = "squarefree --primes 1000003,1000033 --check-identity 2 --x 10"
    holds = "squarefree splitting: t=1000036000099 p=2 holds for all x <= 10\n"
    assert run_cli(capsys, *argv.split()) == (0, holds, "")
    argv = "squarefree --primes 1000033,1000003 --n 1e9"
    code, out, err = run_cli(capsys, *argv.split())
    assert (code, err) == (0, "") and out.splitlines()[1].startswith("1000000000,0,")
    # the same t by --t is past the cap
    code, _, err = run_cli(capsys, "squarefree", "--t", "1000036000099", "--n", "1e9")
    assert code == 3 and "t = 1000036000099 exceeds the cap" in err


def test_exit_code_over_cap(capsys):
    code, _, err = run_cli(
        capsys, "phisum", "--m", "2", "--mode", "exact", "--n", "1e6"
    )
    assert code == 3 and "exceeds the cap" in err


def test_argparse_rejects_n_and_schedule_together(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["oddly", "--m", "2", "--n", "10", "--schedule", "1:10:2"])
    assert exc.value.code == 2


def test_argparse_rejects_non_integer(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["oddly", "--m", "2", "--n", "10.5"])
    assert exc.value.code == 2


def test_verify_suites_pass_quickly(capsys):
    for argv in (
        ["verify", "--suite", "lemma", "--count", "40"],
        ["verify", "--suite", "app1", "--max-n", "500"],
        ["verify", "--suite", "brown", "--max-x", "500"],
        ["verify", "--suite", "phi-claim", "--claim-max-n", "200"],
    ):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0, argv
        assert ": pass (" in out


def test_verify_failure_exits_one(capsys, monkeypatch):
    monkeypatch.setattr(
        "divrec.densities.brown_identity_first_failure",
        lambda t, p, x: 7,
    )
    code, out, _ = run_cli(capsys, "verify", "--suite", "brown", "--max-x", "100")
    assert code == 1
    assert "FAIL" in out and "x=7" in out


def test_reproduce_text_flags(capsys):
    code, out, _ = run_cli(capsys, "reproduce-paper")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 4
    assert [line.split()[-1] for line in lines] == [
        "MATCH",
        "MATCH",
        "MISMATCH",  # the published small-N value corresponds to the larger run
        "MATCH",
    ]
    assert lines[2].startswith("m=12348 N=1000000 ")
    assert lines[3].startswith("m=12348 N=10000000 ")


def test_reproduce_json(capsys):
    code, out, _ = run_cli(capsys, "reproduce-paper", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert [r["match"] for r in payload] == [True, True, False, True]
    assert all(r["match"] == r["expected_match"] for r in payload)


def test_reproduce_rows_are_phisum_rows(capsys):
    # each published row is the one-point phisum table at its N, bit for bit
    code, out, _ = run_cli(capsys, "reproduce-paper", "--format", "json")
    assert code == 0
    for entry in json.loads(out):
        m, N = entry["m"], entry["N"]
        (row,) = run_convergence(PhiSumFamily(m), CheckpointSchedule(N, N, 2))
        assert entry["empirical"] == row.empirical
        assert entry["predicted"] == row.predicted
        assert row.empirical == densities.phi_ratio_sum(m, N) / N
        assert row.predicted == densities.predicted_phi_density(m).float_value


def test_phisum_exact_json_prints_integers_past_the_digit_limit(capsys):
    # the exact numerators here run past str(int)'s 4300-digit default limit
    code, out, err = run_cli(
        capsys, "phisum", "--m", "2", "--schedule", "1e3:1e5:10",
        "--mode", "exact", "--format", "json",
    )
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "857907f7a0974ddeea00f33a63ba13e831def93437a5ccee38f5aa5222b722c6"
    )
    payload = json.loads(out)
    assert [entry["N"] for entry in payload] == [10**3, 10**4, 10**5]
    assert max(len(e["empirical_numerator"]) for e in payload) > 4300
    for entry in payload:
        exact = Fraction(
            int(decimal.Decimal(entry["empirical_numerator"])),
            int(decimal.Decimal(entry["empirical_denominator"])),
        )
        assert float(exact * entry["N"]) / entry["N"] == entry["empirical"]


def test_app1_cap_is_checked_before_any_work(capsys, monkeypatch):
    def no_work(n, m):
        raise AssertionError("app1 started work past its cap")

    monkeypatch.setattr("divrec.verify.divisibility_exponent", no_work)
    code, _, err = run_cli(capsys, "verify", "--suite", "app1", "--max-n", "1.1e7")
    assert code == 3 and "exceeds the cap" in err


@pytest.mark.parametrize("max_n", ["-5", "0"])
def test_app1_window_below_one_exits_two(capsys, max_n):
    # -5 used to reach numpy ("negative dimensions"), 0 to pass with no check
    code, out, err = run_cli(capsys, "verify", "--suite", "app1", "--max-n", max_n)
    assert code == 2 and out == ""
    assert f"need max_n >= 1, got {max_n}" in err


@pytest.mark.parametrize(
    "argv", [["oddly", "--m", "2"], ["squarefree", "--t", "6"], ["phisum", "--m", "7"]]
)
def test_n_below_one_is_named_as_the_flag(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--n", "0")
    assert code == 2 and out == ""
    assert err == "error: need n >= 1, got 0\n"


def test_bad_threads_variable_exits_two(capsys, monkeypatch):
    monkeypatch.setenv("DIVREC_THREADS", "abc")
    code, out, err = run_cli(capsys, "phisum", "--m", "1", "--n", "100")
    assert code == 2 and out == ""
    assert "DIVREC_THREADS must be a positive integer: 'abc'" in err
    monkeypatch.setenv("DIVREC_THREADS", "2")
    assert run_cli(capsys, "phisum", "--m", "1", "--n", "100")[0] == 0
    # the variable is checked even when the flag overrides it
    monkeypatch.setenv("DIVREC_THREADS", "abc")
    code, out, _ = run_cli(capsys, "phisum", "--m", "1", "--n", "100", "--threads", "2")
    assert code == 2 and out == ""
    monkeypatch.delenv("DIVREC_THREADS")
    # the flag takes positive integers only, on every command that offers it
    for argv in (
        ["phisum", "--m", "1", "--n", "100"],
        ["squarefree", "--t", "6", "--n", "100"],
    ):
        for value in ("0", "-1"):
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--threads", value])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert f"--threads must be a positive integer: '{value}'" in err
        assert run_cli(capsys, *argv, "--threads", "2")[0] == 0
    # oddly never sieves, and reproduce-paper walks too few k to sieve, so
    # neither offers --threads
    for argv in (["oddly", "--m", "2", "--n", "10"], ["reproduce-paper"]):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--threads", "2"])
        assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["oddly", "--m", "2", "--n", "1e6"],
        ["phisum", "--m", "1", "--n", "1e6"],  # loads numpy
    ],
)
def test_main_leaves_the_collector_alone(capsys, argv):
    # only the program entry, divrec.cli.run, freezes the heap at exit:
    # tests, harnesses and library callers run main in process and go on
    before = gc.get_freeze_count(), gc.isenabled()
    assert run_cli(capsys, *argv)[0] == 0
    assert (gc.get_freeze_count(), gc.isenabled()) == before


def test_exit_code_schedule_with_too_many_points(capsys):
    code, _, err = run_cli(capsys, "oddly", "--m", "2", "--schedule", "1:1e12:1.0001")
    assert code == 3 and "more than 30000 points" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["oddly", "--m", "2", "--schedule", "1:2e12:1.001"],
        ["squarefree", "--t", "1", "--schedule", "1:2e9:1.001"],
        ["phisum", "--m", "1", "--schedule", "1:2e9:1.001"],
        ["phisum", "--m", "2", "--mode", "exact", "--schedule", "1:2e5:1.001"],
    ],
)
def test_schedule_past_the_cap_exits_before_stepping(capsys, monkeypatch, argv):
    def no_stepping(self):
        raise AssertionError("stepped through a schedule past the cap")

    monkeypatch.setattr(CheckpointSchedule, "points", property(no_stepping))
    code, out, err = run_cli(capsys, *argv)
    assert code == 3 and out == "" and "exceeds the cap" in err


#: past Python's 4300-digit limit on str-to-int conversion
LONG_VALUE = "9" * 5000


@pytest.mark.parametrize(
    "argv, shown",
    [
        (["phisum", "--m", "1", "--n", "1e5000"], "a 5001-digit integer"),
        (["oddly", "--m", "2", "--n", "1e5000"], "a 5001-digit integer"),
        (["squarefree", "--t", "1", "--n", "1e5000"], "a 5001-digit integer"),
        (["phisum", "--m", "1", "--schedule", "1:1e5000:10"], "a 5001-digit integer"),
        (["phisum", "--m", "1", "--n", "1e1000"], "a 1001-digit integer"),
        (["squarefree", "--t", "1e5000", "--n", "10"], "a 5001-digit integer"),
        (["verify", "--suite", "lemma", "--count", "1e5000"], "a 5001-digit integer"),
        (["verify", "--suite", "brown", "--max-x", "1e5000"], "a 5001-digit integer"),
        # the last N shown in full has 30 digits
        (["phisum", "--m", "1", "--n", "999999999999999999999999999999"], "= 9999"),
        (["phisum", "--m", "1", "--n", "1e30"], "a 31-digit integer"),
        # literals too long to convert, refused by their digit count before
        # any conversion, and a value of 31 digits
        (["phisum", "--m", "7", "--n", LONG_VALUE], "has 5000 digits"),
        (["phisum", "--m", LONG_VALUE, "--n", "10"], "has 5000 digits"),
        (["oddly", "--m", LONG_VALUE, "--n", "10"], "has 5000 digits"),
        (["phisum", "--m", "1", "--schedule", f"1:{LONG_VALUE}:10"], "5000 digits"),
        (["squarefree", "--primes", f"2,{LONG_VALUE}", "--n", "10"], "5000 digits"),
        (["verify", "--suite", "lemma", "--count", f"-{LONG_VALUE}"], "5000 digits"),
        (["phisum", "--m", "1", "--n", "10", "--threads", LONG_VALUE], "--threads"),
        (["phisum", "--m", "1", "--n", "1" + "0" * 30], "has 31 digits"),
        (["phisum", "--m", "1", "--n", "10", "--threads", "1" + "0" * 30], "31 dig"),
        # exponents past the bound, refused before Fraction() builds 10**e
        (["oddly", "--m", "2", "--n", "1e10000000"], "exponent exceeds the cap"),
        (["oddly", "--m", "1e10000000", "--n", "10"], "exponent exceeds the cap"),
        (["oddly", "--m", "2", "--schedule", "1:10:1e10000000"], "exponent exce"),
    ],
)
def test_oversized_argument_exits_three_with_a_short_message(capsys, argv, shown):
    # past 4300 digits Python refuses int-to-str conversion, so a message that
    # echoed such an N in full raised instead and exited 2; a literal of more
    # than 30 digits is past every cap before it is converted
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert code == 3 and out == "" and shown in err and len(err) < 100
    assert time.perf_counter() - start < 1


def test_oversized_seed_exits_two_naming_the_flag_not_the_digits(capsys):
    # a seed has no cap, so a text int() cannot read still exits 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "lemma", "--count", "1", "--seed", LONG_VALUE])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    err = captured.err.splitlines()[-1]
    assert err.endswith("argument --seed: not an integer int() can read: 5000 characters")
    assert "99" not in captured.err and len(captured.err) < 400


def test_oversized_negative_argument_exits_two_with_a_short_message(capsys):
    code, out, err = run_cli(capsys, "phisum", "--m=-1e5000", "--n", "10")
    assert code == 2 and out == ""
    assert err == "error: need modulus m >= 1, got a negative 5001-digit integer\n"
    # a ratio below 1 is named by its digit counts; past the exponent bound
    # it is refused before Fraction() builds the power. A ratio has no cap,
    # so one too long for Fraction() to read is named by its length
    for ratio, message in [
        ("1e-5000", "schedule ratio must exceed 1, got 1/a 5001-digit integer"),
        ("1e-10000000", "exponent below -100000: below 1 in size"),
        (LONG_VALUE, "--schedule: not a ratio Fraction() can read: 5000 characters"),
        ("2/0", "--schedule: '2/0' is not a number"),
    ]:
        with pytest.raises(SystemExit) as exc:
            main(["oddly", "--m", "2", "--schedule", f"1:10:{ratio}"])
        err = capsys.readouterr().err.splitlines()[-1]
        assert exc.value.code == 2 and err.endswith(message) and len(err) < 100


def test_repeated_oversized_primes_exit_two_with_a_short_message(capsys):
    code, out, err = run_cli(
        capsys, "squarefree", "--primes", "1e5000,1e5000", "--n", "10"
    )
    assert code == 2 and out == ""
    assert err == (
        "error: primes must be distinct, "
        "got a 5001-digit integer, a 5001-digit integer\n"
    )


def test_lemma_count_is_checked_before_any_work(capsys, monkeypatch):
    def no_work(spec, N):
        raise AssertionError("the lemma suite started work past its cap")

    monkeypatch.setattr("divrec.verify.recursion.evaluate_G", no_work)
    code, out, err = run_cli(capsys, "verify", "--suite", "lemma", "--count", "1e9")
    assert code == 3 and out == "" and "exceeds the cap 10000" in err
    with pytest.raises(AssertionError, match="started work"):
        main(["verify", "--suite", "lemma", "--count", "1e4"])  # at the cap
    code, out, err = run_cli(capsys, "verify", "--suite", "lemma", "--count", "-3")
    assert code == 2 and out == "" and "need count >= 0" in err
    code, out, _ = run_cli(capsys, "verify", "--suite", "lemma", "--count", "0")
    assert code == 0 and out == "lemma: pass (0 checks)\n"


def recorded_sieve(sieve, calls: list):
    def recorded(*args, **kwargs):
        calls.append(sieve.__name__)
        return sieve(*args, **kwargs)

    return recorded


@pytest.mark.parametrize(
    "argv, sieve",
    [
        (["phisum", "--m", "1", "--n", "1e6"], "iter_sieve_tables"),
        (["squarefree", "--t", "6", "--schedule", "1:1e7:1.001"], "squarefree_flags"),
    ],
)
def test_the_retired_segment_variable_changes_nothing(capsys, monkeypatch, argv, sieve):
    # the segment length is a constant: a DIVREC_SEGMENT_SIZE left in the
    # environment, well formed or not, neither fails nor alters the sieved
    # float walk or the flag walker
    calls = []
    monkeypatch.setattr(sieves, sieve, recorded_sieve(getattr(sieves, sieve), calls))
    expected = run_cli(capsys, *argv)
    assert expected[0] == 0 and expected[2] == "" and calls
    for value in ("abc", "7", "16777217"):
        monkeypatch.setenv("DIVREC_SEGMENT_SIZE", value)
        assert run_cli(capsys, *argv) == expected


# The fuzz below draws argv from the subcommands, their flags and small or
# invalid values, plus DIVREC_THREADS. Sizes stay at most FUZZ_MAX_N or lie
# past some cap, and thread counts stay at most 4.
FUZZ_MAX_N = 10**4
SIZES = ("1e3", "7", "2", "12", "1", "360", "1e4")  # hypothesis favours the first
NOT_SIZES = ("0", "-1", "2.5", "1/2", "abc", "", "2e9", "2e12", "1e30", "1e5000")
NOT_SIZES += (LONG_VALUE,)
LONG_SCHEDULE, LONG_PRIMES = f"1:{LONG_VALUE}:10", f"2,{LONG_VALUE}"

#: flag -> (usual values, invalid or over-cap values)
FUZZ_VALUES = {
    "--m": (SIZES, NOT_SIZES),
    "--n": (SIZES, NOT_SIZES),
    "--x": (SIZES, NOT_SIZES),
    "--max-n": (SIZES, NOT_SIZES),
    "--max-x": (SIZES, NOT_SIZES),
    "--claim-max-n": (SIZES, NOT_SIZES),
    "--schedule": (
        ("1:1e4:10", "1e3:1e4:2", "7:1e4:1.5", "10:1:2"),
        ("0:1e4:3", "1:1e4:1", "1:1e4:1/0", "1:1e4:nan", "a:b:c", "1:2",
         "1:2e9:10", "1:2e12:10", "1:1e30:1.0001", LONG_SCHEDULE),
    ),
    "--t": (("1", "2", "6", "30", "210"), ("4", "12", "0", "2e12", LONG_VALUE)),
    "--primes": (("", "2", "2,3", "3,5,7"), ("2,2", "4", "2,abc", "-2", LONG_PRIMES)),
    "--check-identity": (("2", "3", "5", "7"), ("1", "4", "abc", "2e12", LONG_VALUE)),
    "--mode": (("float", "exact"), ("fast",)),
    "--format": (("json", "csv"), ("text", "xml")),
    "--threads": (("1", "2", "4"), ("0", "-1", "abc", LONG_VALUE)),
    "--suite": (("lemma", "app1", "brown", "phi-claim"), ("all",)),
    "--count": (("0", "1", "3"), ("-1", "abc", "1e9", LONG_VALUE)),
    "--seed": (("0", "1", "7"), ("abc", "1e3")),
}
TABLE_FLAGS = [("--n", "--schedule"), ("--format",), ("--threads",)]
#: subcommand -> groups of mutually exclusive flags; the first ones are set
#: in every argv, the rest in three of four
FUZZ_COMMANDS = {
    "oddly": (2, [("--m",), *TABLE_FLAGS[:2]]),
    "squarefree": (
        0,
        [("--t", "--primes"), ("--check-identity",), ("--x",), *TABLE_FLAGS],
    ),
    "phisum": (2, [("--m",), *TABLE_FLAGS, ("--mode",)]),
    # the lemma suite's default of 1000 instances takes seconds, so verify
    # always sets --count
    "verify": (
        2,
        [
            ("--suite",), ("--count",), ("--seed",),
            ("--max-n",), ("--max-x",), ("--claim-max-n",),
        ],
    ),
    "reproduce-paper": (0, [("--format",)]),
}


def pick(draw, usual, invalid):
    # one value in eight is invalid or over a cap (hypothesis favours 0)
    return draw(st.sampled_from(invalid if draw(st.integers(0, 7)) == 7 else usual))


@st.composite
def fuzz_argv(draw) -> list[str]:
    command = pick(draw, list(FUZZ_COMMANDS), ("bogus",))
    argv = [command]
    required, groups = FUZZ_COMMANDS.get(command, (0, []))
    for i, group in enumerate(groups):
        if i >= required and draw(st.integers(0, 3)) == 3:
            continue
        flag = draw(st.sampled_from(group))
        argv += [flag, pick(draw, *FUZZ_VALUES[flag])]
    return argv + pick(draw, [[]], [["--help"], ["--bogus"], ["7"]])


#: environment variable -> (usual values, invalid values); None unsets it
FUZZ_ENV = {
    "DIVREC_THREADS": ((None, "1", "2", "4"), ("0", "-3", "abc", "", LONG_VALUE)),
}


@st.composite
def fuzz_env(draw) -> dict:
    return {name: pick(draw, *values) for name, values in FUZZ_ENV.items()}


def small_sieve(sieve):
    # every fuzzed size is at most FUZZ_MAX_N or past a cap, and a cap must
    # stop a run before it sieves anything
    def checked(lo, hi, *args, **kwargs):
        assert hi <= FUZZ_MAX_N, f"sieved up to {hi}"
        return sieve(lo, hi, *args, **kwargs)

    return checked


def fuzzed_exit_code(argv: list[str], env: dict) -> int:
    """``main(argv)`` under ``env`` (None unsets), output discarded."""
    with pytest.MonkeyPatch.context() as mp:
        for name, value in env.items():
            if value is None:
                mp.delenv(name, raising=False)
            else:
                mp.setenv(name, value)
        for name in ("iter_sieve_tables", "squarefree_flags"):
            mp.setattr(sieves, name, small_sieve(getattr(sieves, name)))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
            io.StringIO()
        ):
            try:
                return main(argv)
            except SystemExit as exc:  # argparse: --help or a rejected argv
                return exc.code


@settings(max_examples=200, deadline=None)
@given(argv=fuzz_argv(), env=fuzz_env())
def test_fuzzed_argv_and_environment_exit_zero_to_three(argv, env):
    code = fuzzed_exit_code(argv, env)
    event(f"{argv[0]} exit {code}")
    assert code in (0, 1, 2, 3)


#: a valid argv per subcommand, as flag -> value
FUZZ_BASE = {
    "oddly": {"--m": "2", "--n": "1e3"},
    "squarefree": {"--t": "6", "--n": "1e3"},
    "phisum": {"--m": "7", "--n": "1e3"},
    "verify": {"--suite": "brown", "--count": "1"},
    "reproduce-paper": {},
}
#: (subcommand, flag) -> the flags that make the subcommand read that flag
FUZZ_READERS = {
    ("squarefree", "--x"): {"--check-identity": "5"},
    ("verify", "--count"): {"--suite": "lemma"},
    ("verify", "--seed"): {"--suite": "lemma"},
    ("verify", "--max-n"): {"--suite": "app1"},
    ("verify", "--claim-max-n"): {"--suite": "phi-claim"},
}
#: the invalid values that lie past a cap: they exit 3, the malformed and
#: too small ones exit 2
OVER_CAP = {
    "2e9", "2e12", "1e30", "1e5000", "1e9",
    "1:2e9:10", "1:2e12:10", "1:1e30:1.0001", LONG_VALUE, LONG_SCHEDULE, LONG_PRIMES,
}
#: (subcommand, flag or variable, value) that the subcommand accepts (exit 0)
ACCEPTED = {
    # the odd-exponent counts put no cap on m and count up to N = 1e12; a
    # literal of more than 30 digits exits 3 before any command reads it
    *(("oddly", "--m", value) for value in OVER_CAP - {LONG_VALUE}),
    ("oddly", "--n", "2e9"),
    ("oddly", "--schedule", "1:2e9:10"),
    # a modulus is capped where it is factored, at 1e12
    ("phisum", "--m", "2e9"),
    ("reproduce-paper", "--format", "text"),  # the default format
}


def expected_exit(command: str, name: str, value: str) -> int:
    if (command, name, value) in ACCEPTED:
        return 0
    return 3 if value in OVER_CAP else 2


def test_every_invalid_fuzz_value_exits_zero_to_three():
    # the random fuzz may miss a rare value; here each invalid or over-cap
    # value is tried once in each subcommand that takes its flag, in an
    # otherwise valid argv that reads it, and each invalid environment value
    # once in every subcommand, whether or not it reads the variable; each
    # run must exit with the code its value calls for
    runs = []
    for command, groups in FUZZ_COMMANDS.items():
        for group in groups[1]:
            for flag in group:
                for value in FUZZ_VALUES[flag][1]:
                    flags = {
                        k: v for k, v in FUZZ_BASE[command].items() if k not in group
                    }
                    flags.update(FUZZ_READERS.get((command, flag), {}))
                    flags[flag] = value
                    argv = [command, *sum(flags.items(), ())]
                    runs.append((argv, {}, expected_exit(command, flag, value)))
    env_argvs = [[c, *sum(flags.items(), ())] for c, flags in FUZZ_BASE.items()]
    env_argvs.append(["squarefree", "--t", "6", "--check-identity", "5"])
    for name, (_, invalid) in FUZZ_ENV.items():
        for value in invalid:
            for argv in env_argvs:
                runs.append((argv, {name: value}, expected_exit(argv[0], name, value)))
    assert len(runs) > 100
    for argv, env, code in runs:
        assert fuzzed_exit_code(argv, env) == code, (argv, env)
