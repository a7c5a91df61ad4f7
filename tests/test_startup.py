"""Start-up and exit: lazy package exports, the engine commands run without
numpy, the modules import one another at load time, one way, and both
launchers exit through the program entry as cli.main would."""

import ast
import glob
import json
import os
import re
import subprocess
import sys

import pytest

import divrec
from divrec import arith, cli, densities

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: modules the probe reports as loaded or not
WATCHED = ("numpy", "dataclasses", "inspect", "json", "concurrent.futures")

#: run cli.main on argv in a fresh interpreter; report exit code, stdout,
#: which watched modules it loaded, read before the probe imports json
#: itself, OPENBLAS_NUM_THREADS as main left it, and the process's OS
#: threads after main returns where /proc/self/task lists them (Linux)
PROBE = f"""
import contextlib, io, os, sys
from divrec import cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    try:
        code = cli.main(sys.argv[1:])
    except SystemExit as exc:  # --help
        code = exc.code
loaded = {{name: name in sys.modules for name in {WATCHED!r}}}
task = "/proc/self/task"
threads = len(os.listdir(task)) if os.path.isdir(task) else None
blas = os.environ.get("OPENBLAS_NUM_THREADS")
import json
print(json.dumps({{"code": code, "out": out.getvalue(), **loaded,
                  "threads": threads, "OPENBLAS_NUM_THREADS": blas}}))
"""


def child_env(**preset: str) -> dict:
    """This environment without OPENBLAS_NUM_THREADS, plus ``preset``, with
    the checkout's sources first on PYTHONPATH."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return {**env, **preset}


def fresh_cli(*argv: str, **preset: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *argv],
        capture_output=True,
        env=child_env(**preset),
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def script_entry() -> str:
    """The ``module:function`` the ``divrec`` script of pyproject.toml runs,
    read with a regex: Python 3.10 has no tomllib."""
    with open(os.path.join(os.path.dirname(SRC), "pyproject.toml")) as f:
        return re.search(r'^divrec = "([\w.]+:\w+)"$', f.read(), re.M)[1]


def buffered_env(**preset: str) -> dict:
    """``child_env`` with stdout block-buffered, as in a shell, so that an
    exit which skipped the final flush would lose the report."""
    env = child_env(**preset)
    env.pop("PYTHONUNBUFFERED", None)
    return env


def launcher(name: str) -> list[str]:
    """``python -m divrec``, or what the installed ``divrec`` script runs."""
    if name == "module":
        return [sys.executable, "-m", "divrec"]
    module, function = script_entry().split(":")
    code = f"import sys; from {module} import {function}; sys.exit({function}())"
    return [sys.executable, "-c", code]


@pytest.mark.parametrize("name", ["module", "script"])
@pytest.mark.parametrize(
    "argv, preset, code",
    [
        (["reproduce-paper"], {}, 0),
        (["--help"], {}, 0),
        (["oddly", "--m", "1", "--n", "10"], {}, 2),
        (["oddly", "--m", "2", "--n", "abc"], {}, 2),
        (["oddly", "--m", "2", "--n", "1e10000000"], {}, 3),
        (["reproduce-paper"], {"DIVREC_THREADS": "0"}, 2),
    ],
    ids=["paper", "help", "bad-m", "bad-n", "huge-literal", "bad-threads-variable"],
)
def test_both_launchers_exit_as_main_returns(
    name, argv, preset, code, tmp_path, monkeypatch, capsysbinary
):
    # the program entry freezes the collector only once cli.main is done:
    # exit code, stdout redirected to a file and stderr are what cli.main
    # gives in process, with no traceback. argparse wraps --help and usage
    # to the terminal's width, so both sides read a fixed COLUMNS
    preset = {"COLUMNS": "80", **preset}
    out = tmp_path / "stdout"
    with open(out, "wb") as stdout:
        proc = subprocess.run(
            [*launcher(name), *argv], stdout=stdout, stderr=subprocess.PIPE,
            env=buffered_env(**preset),
        )
    for key, value in preset.items():
        monkeypatch.setenv(key, value)
    try:
        returned = cli.main(argv)
    except SystemExit as exc:  # --help and usage errors
        returned = exc.code
    captured = capsysbinary.readouterr()
    assert proc.returncode == returned == code
    assert out.read_bytes() == captured.out
    assert proc.stderr == captured.err and b"Traceback" not in proc.stderr
    assert bool(captured.out) == (code == 0)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("name", ["module", "script"])
def test_a_failed_flush_at_exit_still_exits_120(name):
    # the freeze leaves the interpreter's final flush of stdout in place
    with open("/dev/full", "wb") as full:
        proc = subprocess.run(
            [*launcher(name), "reproduce-paper"], stdout=full, stderr=subprocess.PIPE,
            env=buffered_env(),
        )
    assert proc.returncode == 120 and b"No space left on device" in proc.stderr


#: run cli.main on argv in a fresh interpreter, then collect what cycles it
#: left alive: the program entry's gc.freeze() leaves them to the OS at exit,
#: so none may hold a resource that warns or needs a finaliser
COLLECT = """
import contextlib, gc, io, sys
from divrec import cli
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = cli.main(sys.argv[1:])
gc.collect()
print(code, bool(out.getvalue()), gc.garbage)
"""


@pytest.mark.parametrize(
    "argv",
    [
        ["phisum", "--m", "1", "--n", "1e6", "--threads", "2"],  # the helper thread
        [
            "phisum", "--m", "2", "--schedule", "1e3:1e5:10",
            "--mode", "exact", "--format", "json",
        ],
        ["verify", "--suite", "lemma", "--count", "300", "--seed", "0"],
        ["reproduce-paper"],
        ["squarefree", "--t", "1", "--schedule", "1e3:2e7:10", "--threads", "2"],
    ],
)
def test_nothing_waits_for_the_exit_collector(argv):
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-c", COLLECT]
        + argv,
        capture_output=True,
        env=child_env(),
        text=True,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0 True []\n", "")


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--suite", "lemma", "--count", "5"],
        ["verify", "--suite", "app1", "--max-n", "1000"],
        ["oddly", "--m", "2", "--n", "1e6"],
        ["--help"],
        # square-free tables the recursion counts
        ["squarefree", "--t", "1", "--schedule", "1e3:2e7:10", "--threads", "2"],
        ["squarefree", "--primes", "2,3", "--n", "1e6"],
        # totient walks the plain totient list serves: every exact walk, with
        # and without the factor 3 in m, and float walks to K = N // m up to
        # densities.PLAIN_WALK_MAX_K
        ["reproduce-paper"],
        ["verify", "--suite", "phi-claim"],
        ["phisum", "--m", "5", "--n", "1e3"],
        [
            "phisum", "--m", "2", "--schedule", "1e3:1e5:10",
            "--mode", "exact", "--format", "json",
        ],
        ["phisum", "--m", "3", "--schedule", "1:1e5:1.01", "--mode", "exact"],
        # the recursion at the cap
        ["squarefree", "--t", "1", "--n", "1e9"],
    ],
)
def test_engine_commands_do_not_load_numpy(argv):
    run = fresh_cli(*argv)
    assert run["code"] == 0 and run["out"]
    assert not run["numpy"]
    # nor what only dataclasses, JSON reports or a thread pool need
    assert not run["dataclasses"] and not run["inspect"]
    assert run["json"] == ("json" in argv)
    assert not run["concurrent.futures"]


DENSE_PHISUM = ("phisum", "--m", "1", "--n", "1e7", "--threads", "1")


def test_sieve_commands_still_load_numpy():
    # K = 1e7, past densities.PLAIN_WALK_MAX_K: the numpy sieve
    run = fresh_cli(*DENSE_PHISUM)
    assert run["code"] == 0 and run["numpy"]
    assert not run["concurrent.futures"]  # one thread needs no pool
    assert run["out"].splitlines()[1] == (
        "10000000,0.6079271152,0.607927101854,1.33460901219e-08,2.19534383008e-08"
    )
    # nor the idle pool OpenBLAS starts at import, of one thread fewer than
    # the usable CPUs; on one CPU it starts none, so the thread count there
    # would pass without the variable
    assert run["OPENBLAS_NUM_THREADS"] == "1"
    if sys.platform.startswith("linux"):
        assert run["threads"] == 1


def test_a_preset_blas_thread_count_is_kept():
    run = fresh_cli(*DENSE_PHISUM, OPENBLAS_NUM_THREADS="2")
    assert run["code"] == 0 and run["numpy"]
    assert run["OPENBLAS_NUM_THREADS"] == "2"


def test_the_library_leaves_the_environment_alone():
    # a library caller may want BLAS threads for its own code: only the
    # command line sets OPENBLAS_NUM_THREADS
    code = (
        "import os; before = dict(os.environ); "
        "import divrec; divrec.sieve_segment(1, 2); "
        "import sys; assert 'numpy' in sys.modules; "
        "print(dict(os.environ) == before, 'OPENBLAS_NUM_THREADS' in os.environ)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, env=child_env(), text=True
    )
    assert proc.stdout.split() == ["True", "False"], proc.stderr


@pytest.mark.parametrize(
    "argv, last",
    [
        (["--check-identity", "5", "--x", "1e3"], "holds for all x <= 1000"),
        # 10 216 points: the flag walker, not the recursion
        (["--schedule", "1:1e7:1.001"], "10000000,0.0506597,"),
    ],
)
def test_squarefree_identity_check_and_dense_tables_load_numpy(argv, last):
    run = fresh_cli("squarefree", "--t", "6", *argv)
    assert run["code"] == 0 and run["numpy"]
    assert last in run["out"].splitlines()[-1]


def test_import_divrec_loads_no_submodule():
    code = (
        "import sys, divrec; "
        "print(sorted(m for m in sys.modules if 'divrec' in m or m == 'numpy')); "
        "print(divrec.sieves.squarefree_flags(1, 4).tolist(), "
        "divrec.accumulators.ExactFloatSum.__name__)"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, env=env, text=True
    )
    # a submodule still loads on first attribute access, as before
    assert proc.stdout.splitlines() == [
        "['divrec']",
        "[True, True, True, False] ExactFloatSum",
    ], proc.stderr


def test_every_export_resolves_and_is_listed():
    listed = dir(divrec)
    for name in divrec.__all__:
        assert getattr(divrec, name) is not None
        assert name in listed


#: the square-free names that densities defines, beside the flag walker
SQUAREFREE_EXPORTS = (
    "count_squarefree_multiples",
    "count_squarefree_multiples_at",
    "count_squarefree_multiples_recursive",
    "predicted_density_squarefree",
)


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from divrec import *", namespace)
    assert set(divrec.__all__) <= set(namespace)
    # a name resolves to the object of the submodule that defines it
    assert namespace["factorize"] is arith.factorize
    assert namespace["count_oddly_divisible_fast"] is arith.count_oddly_divisible_fast
    for name in SQUAREFREE_EXPORTS:
        assert namespace[name] is getattr(densities, name)
        assert not hasattr(arith, name)


#: the numpy-free divrec modules; any module may import them at load time
PLAIN_MODULES = {"arith", "limits", "recursion", "densities", "convergence", "verify"}


def imported_modules(node: ast.AST) -> list[str]:
    """The divrec modules an import statement names, without the package."""
    if isinstance(node, ast.Import):
        names = [a.name for a in node.names if a.name.startswith("divrec.")]
        return [name.removeprefix("divrec.") for name in names]
    if not isinstance(node, ast.ImportFrom):
        return []
    module = "." * node.level + (node.module or "")
    if module in (".", "divrec"):  # from . import densities
        return [a.name for a in node.names]
    if module.startswith((".", "divrec.")):  # from .limits import shown
        return [module.removeprefix("divrec.").lstrip(".")]
    return []


def test_the_module_graph_is_one_way():
    # a function-level import hides an edge of the module graph, so only
    # numpy, the modules that load it and the stdlib modules kept off
    # start-up are imported late; the load-time edges form no cycle
    graph, late = {}, []
    for path in sorted(glob.glob(os.path.join(SRC, "divrec", "*.py"))):
        name = os.path.basename(path)[:-3]
        tree = ast.parse(open(path).read(), path)
        graph[name] = {m for node in tree.body for m in imported_modules(node)}
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                late += [
                    (name, node.lineno, m)
                    for node in ast.walk(func)
                    for m in imported_modules(node)
                    if m in PLAIN_MODULES
                ]
    assert len(graph) >= 10 and late == []
    loaded: set = set()
    while graph.keys() - loaded:
        ready = {m for m in graph.keys() - loaded if graph[m] <= loaded}
        assert ready, f"import cycle among {sorted(graph.keys() - loaded)}"
        loaded |= ready


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        divrec.no_such_name
    assert not hasattr(divrec, "no_such_name")
