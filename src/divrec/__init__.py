"""Floor-division recursions and the natural densities they predict.

The package splits into an exact-arithmetic recursion engine
(:mod:`divrec.recursion`), pure-integer helpers and the odd-exponent family
(:mod:`divrec.arith`), segmented number-theoretic sieves
(:mod:`divrec.sieves`), the square-free and totient-ratio families
(:mod:`divrec.densities`), convergence tables and reports
(:mod:`divrec.convergence`), and identity verification suites
(:mod:`divrec.verify`). ``python -m divrec`` or the ``divrec`` script
exposes all of it on the command line.

Every name in ``__all__``, and every submodule, is imported when it is
first read (PEP 562), so ``import divrec`` loads no numpy; only the sieves
and the accumulators do, and :mod:`divrec.densities` imports them only in
the functions that sieve.
"""

import importlib

__version__ = "0.1.0"

#: Submodule -> the public names it provides.
_EXPORTS = {
    "arith": (
        "DensityPrediction", "Factorization", "PI_SQUARED",
        "count_oddly_divisible_fast", "count_oddly_divisible_oracle",
        "divisibility_exponent", "factorize", "is_prime",
        "predicted_density_oddly",
    ),
    "convergence": (
        "CheckpointSchedule", "ConvergenceRow", "OddlyFamily", "PhiSumFamily",
        "SquarefreeFamily", "emit_report", "run_convergence",
    ),
    "densities": (
        "brown_identity_first_failure", "count_squarefree_multiples",
        "count_squarefree_multiples_at", "count_squarefree_multiples_recursive",
        "count_squarefree_multiples_sieved", "phi_claim_first_failure",
        "phi_ratio_counts", "phi_ratio_sum", "phi_ratio_sums_at",
        "predicted_density_squarefree", "predicted_phi_density",
        "squarefree_multiple_counts",
    ),
    "limits": ("RangeLimitError",),
    "recursion": (
        "CountingFunction", "ExpansionTerm", "Rational", "RecurrenceSpec",
        "evaluate_G", "expand_eq_star", "identity_counts", "predicted_limit",
        "series_form", "tail_bound",
    ),
    "sieves": ("SieveTable", "iter_sieve_tables", "sieve_segment"),
    "verify": (
        "SuiteResult", "run_app1_suite", "run_brown_suite", "run_lemma_suite",
        "run_phi_claim_suite",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = ("accumulators", "cli", *_EXPORTS)

__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    if name in _SUBMODULES:  # divrec.sieves works after a bare import divrec
        return importlib.import_module(f"{__name__}.{name}")
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later reads find it without this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
