"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import layers  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, LayerPlan, Table, Workload  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())

# cheap enough for a test, and it reaches every layer probe
SMALL = Workload(
    "small",
    "test",
    (("verify", "--suite", "phi-claim"),),
    LayerPlan(
        sieve_ranges=((2_100_000, 2, 7, "float"), (1000, 1, 3, "exact")),
        tables=(
            Table("phisum", 7, (1000, 2 * 10**6, Fraction(10))),
            Table("oddly", 3, (1, 10**6, Fraction(2))),
        ),
        recursion=(3, (1, 10**6, Fraction(2))),
        phi_rows=((5, 1000),),
        lemma_count=2,
        phi_claim=True,
    ),
)


def bench_result(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_declared_workloads_are_the_ones_run():
    assert [(w["name"], w["why"]) for w in DECLARED["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert [m["name"] for m in DECLARED["per_layer"]] == list(layers.MOVES)


def test_emitted_metric_names_and_units_match_declaration():
    argv = ["--workload", "paper-table", "--seed", "3", "--seconds", "0"]
    for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
        result = bench_result(*argv, "--trace", trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        declared = {m["name"]: m["unit"] for m in DECLARED[kind]}
        emitted = {k: v["unit"] for k, v in result["metrics"].items()}
        assert emitted == declared


def test_corrupted_golden_digest_counts_as_failure():
    w = Workload("claim", "test", (("verify", "--suite", "phi-claim"),))
    golden = run.load_golden()
    key = "verify --suite phi-claim"
    metrics, _ = run.measure_untraced(w, 0, 0, run.Tally(golden))
    assert metrics["success_rate"]["value"] == 1

    golden[key] = {**golden[key], "stdout_sha256": "0" * 64}
    tally = run.Tally(golden)
    metrics, _ = run.measure_untraced(w, 0, 0, tally)
    assert tally.failed == tally.attempted == tally.wrong > 0
    assert metrics["success_rate"]["value"] == 0


def test_exit_code_mismatch_fails_without_marking_output_wrong():
    golden = {"k": {"exit": 0, "stdout_sha256": run.digest(b"x")}}
    assert run.verdict(golden, "k", 0, b"x") == "ok"
    assert run.verdict(golden, "k", 2, b"") == "failed"
    assert run.verdict(golden, "k", 0, b"y") == "wrong"


def test_spans_nest_and_self_times_are_nonnegative():
    tracer = layers.Tracer(SMALL.name)
    golden = run.load_golden()
    passes = [
        layers.traced_pass(SMALL, 0, tracer, lambda *r: run.verdict(golden, *r))
        for _ in range(2)
    ]
    spans = {s["id"]: s for s in tracer.spans}
    names = {s["name"] for s in spans.values()}
    assert {"sieves.iter_sieve_tables", "accumulators.NeumaierSum.extend"} <= names
    for s in spans.values():
        assert s["workload"] == "small" and s["start"] <= s["end"]
        if s["parent"] is not None:
            parent = spans[s["parent"]]
            assert parent["start"] <= s["start"] and s["end"] <= parent["end"]
    assert min(layers.self_times(tracer.spans).values()) >= 0
    for p in passes:
        assert p.failed == 0 and not p.wrong
        assert min(p.times.values()) > 0
    assert passes[0].counters == passes[1].counters
    assert passes[0].counters["sieves.segments"] == 4
    assert set(passes[0].times) | set(passes[0].counters) | {
        "trace.overhead_ratio"
    } == set(layers.MOVES)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        {"id": 0, "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "parent": 0, "start": 1.0, "end": 4.0},
        {"id": 2, "parent": 0, "start": 3.0, "end": 5.0},  # overlaps 1
        {"id": 3, "parent": 2, "start": 3.5, "end": 4.5},
    ]
    assert layers.self_times(spans) == {0: 6.0, 1: 3.0, 2: 1.0, 3: 1.0}
