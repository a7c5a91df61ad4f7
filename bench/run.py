"""Benchmark of the divrec command line, end to end and layer by layer.

Run from the root of a checkout:

    python3 bench/run.py --workload phisum-dense --seed 1 --seconds 15 --trace 0

``--trace 0`` times whole ``python -m divrec`` child processes and reports
the end-to-end metrics. ``--trace 1`` runs the layer probes of
``bench/layers.py`` in this process, writes their spans to
``.bench_out/spans-<workload>-seed<seed>.json`` and reports the per-layer
metrics. The last line of stdout is the result as one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records the environment, sample counts and quartiles.

Every CLI run is checked against ``bench/golden.json``: its expected exit
code and the sha256 of its stdout. A wrong exit code, a wrong digest or a
timeout fails the run; a wrong digest behind the expected exit code also
makes the result incorrect. ``python3 bench/run.py --record-golden``
rewrites the golden file from the current program, with Python's limit on
integer-to-string conversion lifted so that every invocation records the
output its documented format calls for.

Children run with every ``DIVREC_*`` and ``PYTHON*`` variable removed from
the environment and ``PYTHONPATH`` set to the checkout's ``src``, so the
thread count comes only from each invocation's arguments. Each run starts
with one untimed pass of the workload, which fills the page cache and the
bytecode cache; timings are medians over the passes that follow.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import WORKLOADS, Workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = BENCH / "golden.json"
OUT = ROOT / ".bench_out"

#: A CLI run that takes longer than this is killed and counts as failed.
TIMEOUT_S = 60
#: Children still running this long after the start are killed, so that a
#: hanging program still gets a result printed well within 180 s.
DEADLINE_S = 150
#: Untimed set-up runs are cheap; the median of this many is reported.
SETUP_REPEATS = 10
#: Fewest timed passes per untraced run, whatever --seconds says.
MIN_PASSES = 3
SETUP_CODE = "import divrec; divrec.sieve_segment(1, 2)"
META_CODE = (
    "import json, numpy, divrec; "
    "t = next(divrec.iter_sieve_tables(1, 10**8)); "
    "print(json.dumps({'numpy': numpy.__version__, "
    "'segment_size': t.hi - t.lo + 1}))"
)

E2E_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
    "success_rate": "ratio",
}


def child_env(*, lift_digit_limit: bool = False) -> dict[str, str]:
    env = {
        k: v
        for k, v in os.environ.items()
        if not k.startswith(("DIVREC_", "PYTHON"))
    }
    env["PYTHONPATH"] = str(SRC)
    if lift_digit_limit:
        env["PYTHONINTMAXSTRDIGITS"] = "0"
    return env


@dataclass(frozen=True)
class Child:
    """One finished child process."""

    wall_s: float
    cpu_s: float
    rss_mib: float
    code: int
    stdout: bytes
    stderr_tail: str


def run_child(
    args: list[str], env: dict[str, str], timeout: float = TIMEOUT_S
) -> Child:
    """Run ``python args``, drain stdout, and read the child's own rusage."""
    OUT.mkdir(exist_ok=True)
    err_path = OUT / "child.stderr"
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args],
            stdout=subprocess.PIPE,
            stderr=err,
            stdin=subprocess.DEVNULL,
            env=env,
            cwd=ROOT,
        )
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            with proc.stdout:
                out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    tail = err_path.read_text(errors="replace").strip().splitlines()[-1:]
    return Child(
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024,  # Linux reports KiB
        proc.returncode,
        out,
        tail[0] if tail else "",
    )


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def verdict(golden: dict, key: str, code: int, stdout: bytes) -> str:
    """"ok", "failed" (wrong exit code) or "wrong" (right code, wrong stdout)."""
    want = golden[key]
    if code != want["exit"]:
        return "failed"
    return "ok" if digest(stdout) == want["stdout_sha256"] else "wrong"


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text())


def record_golden() -> None:
    env = child_env(lift_digit_limit=True)
    golden = {}
    for w in WORKLOADS.values():
        for inv, argv in zip(w.invocations, w.argvs(0)):
            c = run_child(["-m", "divrec", *argv], env)
            golden[" ".join(inv)] = {"exit": c.code, "stdout_sha256": digest(c.stdout)}
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")


class Tally:
    """Attempted, failed and wrong CLI runs of one benchmark run."""

    def __init__(self, golden: dict) -> None:
        self.golden = golden
        self.deadline = time.perf_counter() + DEADLINE_S
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self._reported: set[str] = set()

    def timeout(self) -> float:
        return max(1.0, min(TIMEOUT_S, self.deadline - time.perf_counter()))

    def check(self, key: str, code: int, stdout: bytes, note: str = "") -> str:
        v = verdict(self.golden, key, code, stdout)
        self.attempted += 1
        if v != "ok":
            self.failed += 1
            self.wrong += v == "wrong"
            if key not in self._reported:
                self._reported.add(key)
                print(
                    f"bench: {v}: divrec {key} exited {code} "
                    f"(expected {self.golden[key]['exit']}) {note}",
                    file=sys.stderr,
                )
        return v


def cli_pass(w: Workload, seed: int, tally: Tally) -> tuple[float, float, float]:
    """Run the workload's invocations once; (wall, cpu, largest peak RSS)."""
    env = child_env()
    wall = cpu = rss = 0.0
    for inv, argv in zip(w.invocations, w.argvs(seed)):
        c = run_child(["-m", "divrec", *argv], env, tally.timeout())
        tally.check(" ".join(inv), c.code, c.stdout, c.stderr_tail)
        wall += c.wall_s
        cpu += c.cpu_s
        rss = max(rss, c.rss_mib)
    return wall, cpu, rss


def summary(values: list[float]) -> dict:
    qs = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"n": len(values), "p25": qs[0], "median": qs[1], "p75": qs[2]}


def measure_untraced(w: Workload, seed: int, seconds: float, tally: Tally):
    cli_pass(w, seed, tally)  # warm-up, untimed
    setup = []
    for _ in range(SETUP_REPEATS):
        c = run_child(["-c", SETUP_CODE], child_env(), tally.timeout())
        if c.code != 0:
            raise RuntimeError(f"set-up failed: {c.stderr_tail}")
        setup.append(c.wall_s)
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        if passes and time.perf_counter() > tally.deadline:
            break
        passes.append(cli_pass(w, seed, tally))
    walls, cpus, rsss = zip(*passes)
    samples = {
        "wall_s": list(walls),
        "cpu_s": list(cpus),
        "peak_rss_mib": list(rsss),
        "setup_s": setup,
    }
    values = {k: statistics.median(v) for k, v in samples.items()}
    values["success_rate"] = 1 - tally.failed / tally.attempted
    metrics = {k: {"value": values[k], "unit": u} for k, u in E2E_UNITS.items()}
    return metrics, {k: summary(v) for k, v in samples.items()}


def measure_traced(w: Workload, seed: int, seconds: float, tally: Tally):
    import layers

    cli_pass(w, seed, tally)  # warm-up, untimed
    untraced_wall = cli_pass(w, seed, tally)[0]
    layers.divrec.sieve_segment(1, 2)  # builds the lazy base primes

    tracer = layers.Tracer(w.name)
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        first = len(tracer.spans)
        p = layers.traced_pass(
            w, seed, tracer, lambda *run: verdict(tally.golden, *run)
        )
        root = tracer.spans[first]
        p.times["trace.overhead_ratio"] = (root["end"] - root["start"]) / untraced_wall
        passes.append(p)
        tally.attempted += p.attempted
        tally.failed += p.failed
        tally.wrong += len(p.wrong)
        for what in p.wrong:
            print(f"bench: wrong: {what}", file=sys.stderr)

    repeat = all(p.counters == passes[0].counters for p in passes)
    if not repeat:
        print("bench: exact counters differ between passes", file=sys.stderr)
        tally.wrong += 1
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{w.name}-seed{seed}.json"
    spans_path.write_text(json.dumps({"spans": tracer.spans, "moves": layers.MOVES}))

    samples = {k: [p.times[k] for p in passes] for k in passes[0].times}
    metrics = {}
    for name in layers.MOVES:
        timed = name in samples
        value = statistics.median(samples[name]) if timed else passes[0].counters[name]
        unit = "ratio" if name.endswith("_ratio") else "s" if timed else "count"
        metrics[name] = {"value": value, "unit": unit}
    details = {k: summary(v) for k, v in samples.items()}
    details["spans_file"] = str(spans_path.relative_to(ROOT))
    details["counters_repeat"] = repeat
    return metrics, details


def environment() -> dict:
    meta = {
        "git_sha": None,
        "src_sha256": None,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
    }
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=10,
            )
            meta["git_sha"] = git.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    meta["src_sha256"] = h.hexdigest()
    c = run_child(["-c", META_CODE], child_env(), timeout=20)
    if c.code == 0:
        meta.update(json.loads(c.stdout))
    return meta


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "divrec" / "__init__.py").is_file():
        print(f"bench: no divrec sources under {SRC}", file=sys.stderr)
        return 2
    for key in [k for k in os.environ if k.startswith("DIVREC_")]:
        del os.environ[key]  # the in-process probes read them at import
    sys.path.insert(0, str(SRC))
    if args.record_golden:
        record_golden()
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    w = WORKLOADS[args.workload]
    tally = Tally(load_golden())
    measure = measure_traced if args.trace else measure_untraced
    metrics, details = measure(w, args.seed, args.seconds, tally)
    meta = environment()
    meta.update(workload=w.name, seed=args.seed, trace=args.trace, samples=details)
    print(json.dumps({"meta": meta}))
    print(
        json.dumps(
            {
                "correct": tally.wrong == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
