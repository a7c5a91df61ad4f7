"""Floor-division recursions and the natural densities they predict.

The package splits into an exact-arithmetic recursion engine
(:mod:`divrec.recursion`), segmented number-theoretic sieves
(:mod:`divrec.sieves`), three density families built on both
(:mod:`divrec.densities`), convergence tables and reports
(:mod:`divrec.convergence`), and identity verification suites
(:mod:`divrec.verify`). ``python -m divrec`` or the ``divrec`` script
exposes all of it on the command line.
"""

from .convergence import (
    CheckpointSchedule,
    ConvergenceRow,
    OddlyFamily,
    PhiSumFamily,
    SquarefreeFamily,
    emit_report,
    run_convergence,
)
from .densities import (
    PI_SQUARED,
    DensityPrediction,
    brown_identity_check,
    brown_identity_first_failure,
    count_oddly_divisible_fast,
    count_oddly_divisible_oracle,
    count_squarefree_multiples,
    count_squarefree_multiples_at,
    phi_claim_identity_check,
    phi_claim_first_failure,
    phi_ratio_counts,
    phi_ratio_sum,
    phi_ratio_sums_at,
    predicted_density_oddly,
    predicted_density_squarefree,
    predicted_phi_density,
    squarefree_multiple_counts,
)
from .limits import RangeLimitError
from .recursion import (
    CountingFunction,
    ExpansionTerm,
    Rational,
    RecurrenceSpec,
    evaluate_G,
    expand_eq_star,
    identity_counts,
    predicted_limit,
    series_form,
    tail_bound,
)
from .sieves import (
    Factorization,
    SieveTable,
    divisibility_exponent,
    factorize,
    is_prime,
    iter_sieve_tables,
    sieve_segment,
)
from .verify import (
    SuiteResult,
    run_app1_suite,
    run_brown_suite,
    run_lemma_suite,
    run_phi_claim_suite,
)

__version__ = "0.1.0"

__all__ = [
    "CheckpointSchedule",
    "ConvergenceRow",
    "CountingFunction",
    "DensityPrediction",
    "ExpansionTerm",
    "Factorization",
    "OddlyFamily",
    "PI_SQUARED",
    "PhiSumFamily",
    "Rational",
    "RangeLimitError",
    "RecurrenceSpec",
    "SieveTable",
    "SquarefreeFamily",
    "SuiteResult",
    "brown_identity_check",
    "brown_identity_first_failure",
    "count_oddly_divisible_fast",
    "count_oddly_divisible_oracle",
    "count_squarefree_multiples",
    "count_squarefree_multiples_at",
    "divisibility_exponent",
    "emit_report",
    "evaluate_G",
    "expand_eq_star",
    "factorize",
    "identity_counts",
    "is_prime",
    "iter_sieve_tables",
    "phi_claim_first_failure",
    "phi_claim_identity_check",
    "phi_ratio_counts",
    "phi_ratio_sum",
    "phi_ratio_sums_at",
    "predicted_density_oddly",
    "predicted_density_squarefree",
    "predicted_limit",
    "predicted_phi_density",
    "run_app1_suite",
    "run_brown_suite",
    "run_convergence",
    "run_lemma_suite",
    "run_phi_claim_suite",
    "series_form",
    "sieve_segment",
    "squarefree_multiple_counts",
    "tail_bound",
]
