"""CLI behavior: table output, identity checks, exit codes."""

import decimal
import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from divrec import densities
from divrec.cli import main

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


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
        "divrec.verify.densities.brown_identity_first_failure",
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


def test_bad_threads_variable_exits_two(capsys, monkeypatch):
    monkeypatch.setenv("DIVREC_THREADS", "abc")
    code, out, err = run_cli(capsys, "phisum", "--m", "1", "--n", "100")
    assert code == 2 and out == ""
    assert "DIVREC_THREADS must be a positive integer: 'abc'" in err
    monkeypatch.setenv("DIVREC_THREADS", "2")
    assert run_cli(capsys, "phisum", "--m", "1", "--n", "100")[0] == 0


def test_exit_code_schedule_with_too_many_points(capsys):
    code, _, err = run_cli(capsys, "oddly", "--m", "2", "--schedule", "1:1e12:1.0001")
    assert code == 3 and "more than 30000 points" in err


def test_bad_segment_size_variable_exits_two():
    env = dict(os.environ, DIVREC_SEGMENT_SIZE="abc")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    imported = subprocess.run(
        [sys.executable, "-c", "import divrec"], capture_output=True, env=env
    )
    assert imported.returncode == 0, imported.stderr.decode()
    proc = subprocess.run(
        [sys.executable, "-m", "divrec", "phisum", "--m", "1", "--n", "100"],
        capture_output=True,
        env=env,
    )
    err = proc.stderr.decode()
    assert proc.returncode == 2 and proc.stdout == b""
    assert "DIVREC_SEGMENT_SIZE" in err and "Traceback" not in err
