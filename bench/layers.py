"""Traced run: each layer of divrec called through its public functions.

One traced pass of a workload records a span around every probe. A span is
a dict with ``id``, ``name``, ``parent`` (the id of the enclosing span, or
None), ``workload``, ``start`` and ``end`` (``time.perf_counter`` seconds).
Layer metrics are sums of span durations by name; self times subtract the
part of a span its children cover.

While ``run_convergence`` runs, the public functions it calls in other
layers (``iter_sieve_tables``, ``NeumaierSum.extend`` and
``count_oddly_divisible_fast``) are wrapped wherever a divrec module binds
them, so their time shows up as child spans and ``convergence.self_s`` is
the walker's own time. Spans come only from this file; the library is not
changed.

This module imports divrec, so the caller puts the checkout's ``src`` on
``sys.path`` first.
"""

from __future__ import annotations

import contextlib
import io
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

import divrec
from divrec import cli
from divrec.accumulators import ExactRatioSum, NeumaierSum
from workloads import EXPAND_MAX_J, EXPAND_STRIDE, SEGMENT, Workload

#: Per-layer metric -> the end-to-end metric and workloads it should move.
MOVES = {
    "sieves.segment_s.lo1": "wall_s on paper-table, squarefree-count",
    "sieves.segment_s.lo1e8": "wall_s on paper-table, squarefree-count",
    "sieves.range_s": "wall_s on paper-table, squarefree-count",
    "sieves.segments": "wall_s on paper-table, squarefree-count",
    "sieves.numbers_sieved": "wall_s on paper-table, squarefree-count",
    "sieves.useful_ratio": "wall_s on paper-table, squarefree-count",
    "accumulators.float_s": "wall_s, peak_rss_mib on phisum-dense",
    "accumulators.float_terms": "wall_s, peak_rss_mib on phisum-dense",
    "accumulators.exact_s": "wall_s on exact-engine",
    "accumulators.exact_terms": "wall_s on exact-engine",
    "convergence.run_s": "wall_s on phisum-dense, exact-engine",
    "convergence.self_s": "wall_s on phisum-dense, exact-engine",
    "convergence.checkpoints": "wall_s on phisum-dense, exact-engine",
    "convergence.schedule_points_s": "wall_s on exact-engine",
    "convergence.emit_report_s": "wall_s on phisum-dense, exact-engine",
    "recursion.evaluate_G_s": "wall_s on exact-engine",
    "recursion.expand_eq_star_s": "wall_s on exact-engine",
    "recursion.calls": "wall_s on exact-engine",
    "densities.count_oddly_fast_s": "wall_s on exact-engine",
    "densities.phi_ratio_sum_s": "wall_s on paper-table",
    "verify.lemma_s": "wall_s on exact-engine",
    "verify.phi_claim_s": "wall_s on exact-engine",
    "cli.main_s": "wall_s on every workload; the rest of wall_s is start-up",
    "trace.overhead_ratio": "none: traced pass wall over untraced wall_s",
}

#: Metric -> span name whose self times it sums. Only the spans the
#: benchmark nests ("bench.prepare" and the walker's calls) have children.
SPAN_TIMES = {
    "sieves.segment_s.lo1": "sieves.segment.lo1",
    "sieves.segment_s.lo1e8": "sieves.segment.lo1e8",
    "sieves.range_s": "sieves.range",
    "accumulators.float_s": "accumulators.float",
    "accumulators.exact_s": "accumulators.exact",
    "convergence.self_s": "convergence.run",
    "convergence.schedule_points_s": "convergence.schedule_points",
    "convergence.emit_report_s": "convergence.emit_report",
    "recursion.evaluate_G_s": "recursion.evaluate_G",
    "recursion.expand_eq_star_s": "recursion.expand_eq_star",
    "densities.count_oddly_fast_s": "densities.count_oddly_fast",
    "densities.phi_ratio_sum_s": "densities.phi_ratio_sum",
    "verify.lemma_s": "verify.lemma",
    "verify.phi_claim_s": "verify.phi_claim",
    "cli.main_s": "cli.main",
}

#: Exact counters; each must repeat bit for bit across passes.
COUNTERS = (
    "sieves.segments",
    "sieves.numbers_sieved",
    "sieves.useful_ratio",
    "accumulators.float_terms",
    "accumulators.exact_terms",
    "convergence.checkpoints",
    "recursion.calls",
)


class Tracer:
    """Collects spans in memory for one workload."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "workload": self.workload,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered = 0.0
        reach = s["start"]
        for a, b in sorted(children[s["id"]]):
            a, b = max(a, reach), min(b, s["end"])
            if b > a:
                covered += b - a
                reach = b
        out[s["id"]] = s["end"] - s["start"] - covered
    return out


def total(spans: list[dict], name: str) -> float:
    return sum(s["end"] - s["start"] for s in spans if s["name"] == name)


def layer_times(spans: list[dict]) -> dict[str, float]:
    """Each ``SPAN_TIMES`` metric, plus ``convergence.run_s`` with children."""
    own = self_times(spans)
    times = {metric: 0.0 for metric in SPAN_TIMES}
    by_name = {name: metric for metric, name in SPAN_TIMES.items()}
    for s in spans:
        if s["name"] in by_name:
            times[by_name[s["name"]]] += own[s["id"]]
    times["convergence.run_s"] = total(spans, "convergence.run")
    return times


@contextlib.contextmanager
def _walker_hooks(tracer: Tracer):
    """Give the walker's calls into sieves, accumulators and densities spans."""
    iter_tables = divrec.iter_sieve_tables
    count_fast = divrec.count_oddly_divisible_fast
    extend = NeumaierSum.extend

    def traced_iter(*args, **kwargs):
        tables = iter_tables(*args, **kwargs)
        try:
            while True:
                with tracer.span("sieves.iter_sieve_tables"):
                    table = next(tables, None)
                if table is None:
                    return
                yield table
        finally:
            tables.close()

    def traced_count(*args, **kwargs):
        with tracer.span("densities.count_oddly_divisible_fast"):
            return count_fast(*args, **kwargs)

    def traced_extend(self, values):
        with tracer.span("accumulators.NeumaierSum.extend"):
            return extend(self, values)

    patches = [(NeumaierSum, "extend", extend, traced_extend)]
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").partition(".")[0] != "divrec":
            continue
        for attr, value in list(vars(mod).items()):
            if value is iter_tables:
                patches.append((mod, attr, value, traced_iter))
            elif value is count_fast:
                patches.append((mod, attr, value, traced_count))
    for owner, attr, _, new in patches:
        setattr(owner, attr, new)
    try:
        yield
    finally:
        for owner, attr, old, _ in reversed(patches):
            setattr(owner, attr, old)


def run_cli(argv: list[str]) -> tuple[int, bytes]:
    """``cli.main(argv)`` in process; returns (exit code, stdout bytes)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects argv
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue().encode()


_FAMILIES = {
    "phisum": lambda t: divrec.PhiSumFamily(t.param, t.mode),
    "squarefree": lambda t: divrec.SquarefreeFamily(t.param),
    "oddly": lambda t: divrec.OddlyFamily(t.param),
}


@dataclass
class PassResult:
    """What one traced pass measured, counted and checked."""

    times: dict[str, float]
    counters: dict[str, float]
    attempted: int = 0
    failed: int = 0
    wrong: list[str] = field(default_factory=list)  # outputs that disagree


def traced_pass(
    workload: Workload, seed: int, tracer: Tracer, check_cli
) -> PassResult:
    """Run every layer probe once for ``workload`` under one ``pass`` span.

    ``check_cli(key, code, stdout)`` returns "ok", "failed" (wrong exit code)
    or "wrong" (expected exit code, unexpected stdout) for one CLI run.
    """
    plan = workload.plan
    counts: Counter = Counter()
    result = PassResult({}, {})

    def outcome(ok: bool, what: str, *, wrong: bool = False) -> None:
        result.attempted += 1
        if not ok:
            result.failed += 1
            if wrong:
                result.wrong.append(what)

    span = tracer.span
    first_span = len(tracer.spans)
    with span("pass"):
        with span("sieves.segment.lo1"):
            divrec.sieve_segment(1, SEGMENT)
        with span("sieves.segment.lo1e8"):
            divrec.sieve_segment(10**8, 10**8 + SEGMENT - 1)

        for inv, argv in zip(workload.invocations, workload.argvs(seed)):
            with span("cli.main"):
                code, out = run_cli(argv)
            verdict = check_cli(" ".join(inv), code, out)
            outcome(verdict == "ok", " ".join(argv), wrong=verdict == "wrong")

        # copying out the numbers an accumulator reads is benchmark work:
        # "bench.prepare" child spans keep it out of the layers' self time
        float_parts, exact_parts = [], []
        useful = 0
        for hi, threads, stride, terms in plan.sieve_ranges:
            with span("sieves.range"):
                for table in divrec.iter_sieve_tables(1, hi, threads=threads):
                    with span("bench.prepare"):
                        counts["sieves.segments"] += 1
                        counts["sieves.numbers_sieved"] += table.hi - table.lo + 1
                        first = -(table.lo // -stride) * stride
                        if terms and first <= table.hi:
                            phis = np.array(table.phi[first - table.lo :: stride])
                            ns = np.arange(first, table.hi + 1, stride)
                            parts = float_parts if terms == "float" else exact_parts
                            parts.append((phis, ns))
            useful += hi // stride
        sieved = counts["sieves.numbers_sieved"]
        counts["sieves.useful_ratio"] = useful / sieved if sieved else 0.0

        with span("accumulators.float"):
            acc = NeumaierSum()
            for phis, ns in float_parts:
                with span("bench.prepare"):
                    ratios = (phis / ns).tolist()
                    counts["accumulators.float_terms"] += len(ratios)
                acc.extend(ratios)
        del float_parts  # up to 80 MB, not needed by the walker probes
        with span("accumulators.exact"):
            exact = ExactRatioSum()
            for phis, ns in exact_parts:
                with span("bench.prepare"):
                    pairs = list(zip(phis.tolist(), ns.tolist()))
                    counts["accumulators.exact_terms"] += len(pairs)
                for ph, n in pairs:
                    exact.add(ph, n)
            exact.value  # the one reduction belongs to the accumulator

        for t in plan.tables:
            with span("convergence.schedule_points"):
                schedule = divrec.CheckpointSchedule(*t.schedule)
                schedule.points
            family = _FAMILIES[t.family](t)
            with _walker_hooks(tracer), span("convergence.run"):
                rows = divrec.run_convergence(family, schedule, threads=t.threads)
            counts["convergence.checkpoints"] += len(rows)
            with span("convergence.emit_report"):
                try:
                    divrec.emit_report(rows, t.fmt, include_exact=t.mode == "exact")
                    emitted = True
                except ValueError:  # e.g. an integer too long to print
                    emitted = False
            outcome(emitted, f"emit_report {t.family} {t.mode} {t.fmt}")

        points = []
        m = 2
        if plan.recursion is not None:
            m, sched = plan.recursion
            points = divrec.CheckpointSchedule(*sched).points
        # G(n) = n//m - G(n//m): the odd-exponent counting recursion
        spec = divrec.RecurrenceSpec(m, 1, -1, Fraction(1), divrec.identity_counts())
        with span("recursion.evaluate_G"):
            g = [divrec.evaluate_G(spec, n) for n in points]
        expand_at = points[::EXPAND_STRIDE]
        with span("recursion.expand_eq_star"):
            for n in expand_at:
                for j in range(1, EXPAND_MAX_J + 1):
                    divrec.expand_eq_star(spec, n, j)
        counts["recursion.calls"] += len(points) + len(expand_at) * EXPAND_MAX_J
        with span("densities.count_oddly_fast"):
            fast = [divrec.count_oddly_divisible_fast(m, n) for n in points]
        outcome(g == fast, "evaluate_G vs count_oddly_divisible_fast", wrong=True)

        with span("densities.phi_ratio_sum"):
            for m, N in plan.phi_rows:
                divrec.phi_ratio_sum(m, N)

        with span("verify.lemma"):
            lemma = divrec.run_lemma_suite(count=plan.lemma_count, seed=seed)
        outcome(lemma.ok, "lemma suite", wrong=True)
        with span("verify.phi_claim"):
            claim = (
                divrec.run_phi_claim_suite()
                if plan.phi_claim
                else divrec.run_phi_claim_suite(triples=())
            )
        outcome(claim.ok, "phi-claim suite", wrong=True)

    result.times = layer_times(tracer.spans[first_span:])
    result.counters = {name: counts[name] for name in COUNTERS}
    return result
