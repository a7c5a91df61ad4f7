"""The benchmark's four workloads: CLI invocations and the layer plan of each.

Inputs are fixed. The seed only feeds ``--seed`` of the lemma suite, whose
output (a pass line with a check count) does not depend on it, so one golden
digest covers every seed.

A workload has two views. ``invocations`` are the ``divrec`` argument lists
that the untraced run times as child processes. ``plan`` lists the inputs
each layer probe of the traced run works on; a layer the workload does not
reach gets an empty input, so its probe still runs and reports a measured,
near-zero time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

#: Largest segment probed by the fixed sieve probes (the library default).
SEGMENT = 1 << 20

#: ``expand_eq_star`` runs j = 1..20 at every EXPAND_STRIDE-th recursion
#: point; at every point it would take about 10 s of a traced pass.
EXPAND_MAX_J = 20
EXPAND_STRIDE = 10


@dataclass(frozen=True)
class Table:
    """One convergence table: ``run_convergence`` then ``emit_report``."""

    family: str  # "phisum", "squarefree" or "oddly"
    param: int  # m or t
    schedule: tuple[int, int, Fraction]
    threads: int = 1
    mode: str = "float"
    fmt: str = "csv"


@dataclass(frozen=True)
class LayerPlan:
    """What each layer probe works on for one workload.

    Attributes:
        sieve_ranges: (hi, threads, stride, terms) per
            ``iter_sieve_tables(1, hi)`` drain. stride is the step of the
            numbers the family reads; terms is "float" or "exact" when the
            totients of those numbers feed that accumulator probe, else "".
        tables: convergence tables run and emitted.
        recursion: (m, schedule) of the odd-exponent recursion, or None.
        phi_rows: (m, N) points for ``phi_ratio_sum``.
        lemma_count: instances of the lemma suite (0 skips it).
        phi_claim: whether the phi-claim suite runs.
    """

    sieve_ranges: tuple[tuple[int, int, int, str], ...] = ()
    tables: tuple[Table, ...] = ()
    recursion: tuple[int, tuple[int, int, Fraction]] | None = None
    phi_rows: tuple[tuple[int, int], ...] = ()
    lemma_count: int = 0
    phi_claim: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    invocations: tuple[tuple[str, ...], ...]
    plan: LayerPlan = field(default_factory=LayerPlan)

    def argvs(self, seed: int) -> list[list[str]]:
        return [[a.format(seed=seed) for a in inv] for inv in self.invocations]


# the published evidence table, as `divrec reproduce-paper` walks it
_PAPER_ROWS = ((5, 10**3), (200, 10**5), (12348, 10**6), (12348, 10**7))

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "phisum-dense",
            "single-threaded float totient-ratio table over all n <= 1e7: "
            "compensated summation and the checkpoint walker dominate",
            (("phisum", "--m", "1", "--schedule", "1e3:1e7:10"),),
            LayerPlan(
                sieve_ranges=((10**7, 1, 1, "float"),),
                tables=(Table("phisum", 1, (10**3, 10**7, Fraction(10))),),
            ),
        ),
        Workload(
            "paper-table",
            "the published evidence table: sieves all of [1, 1e7] to read "
            "810 terms for m=12348, so it shows wasted sieve work",
            (("reproduce-paper",),),
            LayerPlan(
                sieve_ranges=(
                    (10**3, 1, 5, "float"),
                    (10**5, 1, 200, "float"),
                    (10**7, 1, 12348, "float"),
                ),
                # the walker reproduce-paper runs: one pass per modulus
                tables=(
                    Table("phisum", 5, (10**3, 10**3, Fraction(2))),
                    Table("phisum", 200, (10**5, 10**5, Fraction(2))),
                    Table("phisum", 12348, (10**6, 10**7, Fraction(10))),
                ),
                phi_rows=_PAPER_ROWS,
            ),
        ),
        Workload(
            "squarefree-count",
            "integer square-free counts to 2e7 with 2 threads: the only "
            "workload on the thread-prefetch path, with no float sums",
            (
                (
                    "squarefree", "--t", "1", "--schedule", "1e3:2e7:10",
                    "--threads", "2",
                ),
            ),
            LayerPlan(
                sieve_ranges=((2 * 10**7, 2, 1, ""),),
                tables=(
                    Table("squarefree", 1, (10**3, 2 * 10**7, Fraction(10)), 2),
                ),
            ),
        ),
        Workload(
            "exact-engine",
            "Fraction work in the recursion engine, exact ratio sums and "
            "schedule stepping, with no sieve above 1e5",
            (
                ("verify", "--suite", "lemma", "--count", "300", "--seed", "{seed}"),
                (
                    "phisum", "--m", "2", "--schedule", "1e3:1e5:10",
                    "--mode", "exact", "--format", "json",
                ),
                ("oddly", "--m", "2", "--schedule", "1:1e12:1.01"),
                ("verify", "--suite", "phi-claim"),
            ),
            LayerPlan(
                sieve_ranges=((10**5, 1, 2, "exact"),),
                tables=(
                    Table(
                        "phisum", 2, (10**3, 10**5, Fraction(10)),
                        mode="exact", fmt="json",
                    ),
                    Table("oddly", 2, (1, 10**12, Fraction("1.01"))),
                ),
                recursion=(2, (1, 10**12, Fraction("1.01"))),
                lemma_count=300,
                phi_claim=True,
            ),
        ),
    )
}
