"""Command-line front end.

Subcommands mirror the library: ``oddly``, ``squarefree``, and ``phisum``
print convergence tables for the three density families; ``verify`` runs the
exact identity suites; ``reproduce-paper`` recomputes the published
numerical-evidence table for the totient-ratio densities and flags each value
MATCH or MISMATCH at the precision it was quoted to.

Exit codes: 0 success, 1 verification failure or failed reproduction,
2 bad arguments, 3 range or resource cap exceeded.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys
from fractions import Fraction

from . import convergence, densities, verify
from .limits import MAX_LITERAL_EXPONENT, MAX_SHOWN_DIGITS, RangeLimitError
from .limits import check_digits, check_range, positive_int

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_ARGUMENT = 2
EXIT_RANGE = 3


class _PastEveryCap(Exception):
    """An argument with more digits than any cap allows. argparse turns a
    ValueError from a type function into exit 2, so this one is not one;
    :func:`main` reports it and exits 3."""


def _check_digits(name: str, digits: str) -> None:
    # before int() or Fraction(), which refuse more than 4300 digits
    try:
        check_digits(name, digits)
    except RangeLimitError as exc:
        raise _PastEveryCap(exc) from None


def _check_exponent(text: str) -> None:
    # before Fraction(), which builds 10**|e| first, for either sign. A
    # mantissa has at most 4300 digits, or Fraction() refuses it, so past
    # the bound a value is past every cap or below 1 in size
    exponent = text.lower().partition("e")[2].strip().replace("_", "")
    digits = exponent.removeprefix("-").removeprefix("+").lstrip("0")
    cap = MAX_LITERAL_EXPONENT
    if not digits.isdecimal() or len(digits) <= len(str(cap)) and int(digits) <= cap:
        return
    if exponent.startswith("-"):
        raise argparse.ArgumentTypeError(f"exponent below -{cap}: below 1 in size")
    raise _PastEveryCap(f"exponent exceeds the cap {cap}")


def _int_literal(text: str) -> int:
    """Integer argument, allowing scientific shorthand like 1e7."""
    mantissa = text.lower().partition("e")[0]
    _check_digits("an integer argument", "".join(filter(str.isdecimal, mantissa)))
    _check_exponent(text)
    try:
        f = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"{text!r} is not a number")
    if f.denominator != 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    return int(f)


def _schedule_literal(text: str) -> convergence.CheckpointSchedule:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"schedule must look like START:STOP:RATIO, got {text!r}"
        )
    try:
        start, stop = _int_literal(parts[0]), _int_literal(parts[1])
        _check_exponent(parts[2])
        return convergence.CheckpointSchedule(start, stop, _ratio(parts[2]))
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _ratio(text: str) -> Fraction:
    """Schedule ratio: any number Fraction() reads. A ratio has no cap, so
    a text Fraction() cannot read still exits 2; one longer than
    :data:`MAX_SHOWN_DIGITS` is named by its length, as :func:`_seed` names
    a seed, not echoed in full or by Python's message on its 4300-digit
    limit."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        if len(text) > MAX_SHOWN_DIGITS:
            raise ValueError(
                f"not a ratio Fraction() can read: {len(text)} characters"
            ) from None
        if isinstance(exc, ZeroDivisionError):  # whose text is "Fraction(2, 0)"
            raise ValueError(f"{text!r} is not a number") from None
        raise


def _prime_list(text: str) -> list[int]:
    items = [piece.strip() for piece in text.split(",")]
    return [_int_literal(piece) for piece in items if piece]


def _add_table_args(sub: argparse.ArgumentParser, *, required: bool = True) -> None:
    group = sub.add_mutually_exclusive_group(required=required)
    group.add_argument("--n", type=_int_literal, help="single sample size")
    group.add_argument(
        "--schedule",
        type=_schedule_literal,
        help="geometric grid START:STOP:RATIO, e.g. 1e3:1e7:10",
    )
    sub.add_argument(
        "--format", choices=("csv", "json"), default="csv", help="table format"
    )


def _thread_count(text: str) -> int:
    try:
        return positive_int("--threads", text)
    except RangeLimitError as exc:
        raise _PastEveryCap(exc) from None
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _seed(text: str) -> int:
    """Seed argument: any integer int() reads. A seed has no cap, so a text
    too long to echo is named by its length, as limits.shown names a huge
    value, and still exits 2."""
    try:
        return int(text)
    except ValueError:
        if len(text) <= MAX_SHOWN_DIGITS:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        raise argparse.ArgumentTypeError(
            f"not an integer int() can read: {len(text)} characters"
        ) from None


def _print_table(args, family, threads: int = 1) -> int:
    # the convergence table of --n or --schedule, printed in --format
    schedule = args.schedule
    if args.n is not None:
        check_range("n", args.n, 1)  # named as the flag, not the schedule start
        schedule = convergence.CheckpointSchedule(args.n, args.n, Fraction(2))
    elif schedule is None:
        raise ValueError("need --n or --schedule (or --check-identity)")
    rows = convergence.run_convergence(family, schedule, threads=threads)
    exact = getattr(family, "mode", None) == "exact"
    data = convergence.emit_report(rows, args.format, include_exact=exact)
    sys.stdout.write(data.decode("ascii"))
    return EXIT_OK


def _cmd_oddly(args) -> int:
    return _print_table(args, convergence.OddlyFamily(args.m))


def _squarefree_family(args) -> convergence.SquarefreeFamily:
    # --t (default 1) is factored once; the primes of --primes are checked
    # one by one and their product is never factored
    if args.primes is None:
        return convergence.SquarefreeFamily(args.t if args.t is not None else 1)
    return convergence.SquarefreeFamily(math.prod(args.primes), args.primes)


def _cmd_squarefree(args) -> int:
    family = _squarefree_family(args)
    if args.check_identity is not None:
        x = densities.squarefree_identity_first_failure(
            family.primes, args.check_identity, args.x
        )
        ok = x is None
        verdict = f"holds for all x <= {args.x}" if ok else f"FAILS first at x={x}"
        print(f"squarefree splitting: t={family.t} p={args.check_identity} {verdict}")
        return EXIT_OK if ok else EXIT_VERIFY_FAILED
    return _print_table(args, family)


def _cmd_phisum(args) -> int:
    family = convergence.PhiSumFamily(args.m, args.mode)
    return _print_table(args, family, args.threads)


def _cmd_verify(args) -> int:
    runners = {
        "lemma": lambda: verify.run_lemma_suite(count=args.count, seed=args.seed),
        "app1": lambda: verify.run_app1_suite(max_n=args.max_n),
        "brown": lambda: verify.run_brown_suite(max_x=args.max_x),
        "phi-claim": lambda: verify.run_phi_claim_suite(max_n=args.claim_max_n),
    }
    result = runners[args.suite]()
    print(result.summary())
    for failure in result.failures[1:]:
        print(f"  also: {failure}")
    return EXIT_OK if result.ok else EXIT_VERIFY_FAILED


#: (m, N, published empirical, published predicted, expect reproduction).
#: The third row's published empirical value was computed at N=1e7 but quoted
#: against N=1e6; recomputing at 1e6 is expected to mismatch, and the 1e7 run
#: is expected to match.
PUBLISHED_ROWS = (
    (5, 10**3, 0.1016, 0.1013, True),
    (200, 10**5, 0.001691, 0.001689, True),
    (12348, 10**6, 0.00002153, 0.00002154, False),
    (12348, 10**7, 0.00002153, 0.00002154, True),
)

#: Published values are quoted to ~3-4 significant digits; reproduction means
#: agreeing with the quoted digits to better than half a unit in the fourth.
REPRODUCE_RTOL = 5e-3


def _cmd_reproduce(args) -> int:
    rows = []
    for m, n, pub_emp, pub_pred, expect in PUBLISHED_ROWS:
        schedule = convergence.CheckpointSchedule(n, n, Fraction(2))
        row = convergence.run_convergence(convergence.PhiSumFamily(m), schedule)[0]
        emp_ok = abs(row.empirical - pub_emp) <= REPRODUCE_RTOL * pub_emp
        pred_ok = abs(row.predicted - pub_pred) <= REPRODUCE_RTOL * pub_pred
        rows.append(
            {
                "m": m,
                "N": n,
                "empirical": row.empirical,
                "published_empirical": pub_emp,
                "predicted": row.predicted,
                "published_predicted": pub_pred,
                "match": emp_ok and pred_ok,
                "expected_match": expect,
            }
        )
    if args.format == "json":
        import json  # only JSON reports load it

        sys.stdout.write(json.dumps(rows, indent=2) + "\n")
    else:
        for r in rows:
            flag = "MATCH" if r["match"] else "MISMATCH"
            note = "" if r["match"] == r["expected_match"] else " (unexpected)"
            print(
                f"m={r['m']} N={r['N']} "
                f"empirical={r['empirical']:.12g} published={r['published_empirical']:g} "
                f"predicted={r['predicted']:.12g} published={r['published_predicted']:g} "
                f"{flag}{note}"
            )
    ok = all(r["match"] == r["expected_match"] for r in rows)
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="divrec",
        description="floor-division recursions and the densities they predict",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "oddly", help="density of integers whose largest m-power has odd exponent"
    )
    p.add_argument("--m", type=_int_literal, required=True, help="modulus, >= 2")
    _add_table_args(p)
    p.set_defaults(handler=_cmd_oddly)

    p = sub.add_parser(
        "squarefree", help="density of square-free multiples of a square-free t"
    )
    which = p.add_mutually_exclusive_group()
    which.add_argument("--t", type=_int_literal, help="square-free modulus t")
    which.add_argument(
        "--primes",
        type=_prime_list,
        help="comma-separated distinct primes whose product is t "
        "(empty string for t=1)",
    )
    p.add_argument(
        "--check-identity",
        type=_int_literal,
        metavar="P",
        help="instead of a table, verify the splitting identity against "
        "the new prime P for all x <= --x",
    )
    p.add_argument(
        "--x", type=_int_literal, default=10**4, help="identity window (default 1e4)"
    )
    _add_table_args(p, required=False)
    # accepted so existing invocations that pass it keep working
    p.add_argument(
        "--threads", type=_thread_count, help="ignored: counts run on one thread"
    )
    p.set_defaults(handler=_cmd_squarefree)

    p = sub.add_parser("phisum", help="totient-ratio sums over multiples of m")
    p.add_argument("--m", type=_int_literal, required=True, help="modulus, >= 1")
    p.add_argument(
        "--mode",
        choices=("float", "exact"),
        default="float",
        help="float: double terms exactly summed, rounded once (N <= 1e9); "
        "exact: full-precision rationals (N <= 1e5, included in JSON output)",
    )
    _add_table_args(p)
    p.add_argument(
        "--threads",
        type=_thread_count,
        help="threads for the totient walk (default $DIVREC_THREADS or 1): "
        "above 1, one helper thread sieves ahead; results do not depend on this",
    )
    p.set_defaults(handler=_cmd_phisum)

    p = sub.add_parser("verify", help="run an exact identity suite")
    p.add_argument(
        "--suite",
        choices=("lemma", "app1", "brown", "phi-claim"),
        required=True,
    )
    p.add_argument(
        "--count", type=_int_literal, default=1000, help="lemma: instances, 0 to 1e4"
    )
    p.add_argument("--seed", type=_seed, default=0, help="lemma: RNG seed")
    p.add_argument(
        "--max-n", type=_int_literal, default=10**4, help="app1: exhaustive window"
    )
    p.add_argument(
        "--max-x", type=_int_literal, default=10**4, help="brown: exhaustive window"
    )
    p.add_argument(
        "--claim-max-n",
        type=_int_literal,
        default=10**3,
        help="phi-claim: exhaustive window",
    )
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser(
        "reproduce-paper",
        help="recompute the published totient-ratio evidence table and compare",
    )
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=_cmd_reproduce)

    return parser


def main(argv=None) -> int:
    # numpy's Linux and Windows wheels bundle a pthreads OpenBLAS, which
    # starts a pool of (usable CPUs - 1) threads at import that spin idle:
    # no divrec code calls BLAS, linalg or dot. Only the command line sets
    # this, before numpy loads; the library leaves a caller's BLAS threads
    # alone, and a value already set is kept
    if "numpy" not in sys.modules:
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        args = _build_parser().parse_args(argv)
    except _PastEveryCap as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RANGE
    try:
        # the variable is checked here, once, for every command, so a bad
        # value exits 2 or 3 before any work whether or not the command
        # takes threads
        threads = positive_int("DIVREC_THREADS", os.environ.get("DIVREC_THREADS", "1"))
        args.threads = getattr(args, "threads", None) or threads  # --threads wins
        return args.handler(args)
    except RangeLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RANGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ARGUMENT


def run() -> int:
    """The entry of ``python -m divrec`` and the ``divrec`` script: ``main``,
    then ``gc.freeze()``, so the exit leaves the import heap to the OS."""
    try:
        return main()
    finally:
        gc.freeze()
