"""The test tooling itself: a failing property test is reported as a
failure, not as a crash of the test run, the benchmark's layer tracer
still finds every name it wraps and sees the search's work, the CLI still
parses every command the benchmark runs and every example in the README,
and every name the package exports is used by the library or the README.

When a ``@given`` test fails, Hypothesis imports ``hypothesis.extra._patching``,
whose import emits mypy_extensions' TypedDict DeprecationWarning.  Under the
repository's ``filterwarnings = ["error"]`` that warning, unless ignored,
aborts pytest with INTERNALERROR and exit code 3, hiding the FAILED line.
"""

import ast
import importlib.util
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gwish.cli  # imports every layer the tracer wraps
from gwish.graph import UndirectedGraph
from gwish.mcmc import ChainConfig, run_chain
from gwish.model import Dataset, GraphScorer, Hyperparameters
from gwish.numerics import make_rng
from gwish.search import hybrid_mode

pytest_plugins = ["pytester"]

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
BENCH = PYPROJECT.parent / "bench"
README = PYPROJECT.parent / "README.md"
PACKAGE = PYPROJECT.parent / "src" / "gwish"

FAILING = """
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None, derandomize=True)
@given(st.integers(min_value=0, max_value=10))
def test_always_fails(x):
    assert x < 0
"""


def test_failing_property_test_is_a_failure_not_a_crash(pytester):
    path = pytester.makepyfile(test_prop=FAILING)
    result = pytester.runpytest_subprocess(
        "-c", str(PYPROJECT), "-p", "no:cacheprovider", str(path)
    )
    assert result.ret == pytest.ExitCode.TESTS_FAILED, result.outlines
    result.assert_outcomes(failed=1)
    assert not any("INTERNALERROR" in line for line in result.outlines)


def load_layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", BENCH / "layertrace.py")
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    return layertrace


def test_layer_tracer_installs_and_uninstalls():
    """The benchmark's layer tracer finds every function and method it
    wraps, so renaming a traced name fails here rather than in a traced
    benchmark run."""
    search = UndirectedGraph.connected
    tracer = load_layertrace().Tracer()
    tracer.install()
    try:
        assert UndirectedGraph.connected.__wrapped__ is search
    finally:
        tracer.uninstall()
    assert UndirectedGraph.connected is search


def test_layer_tracer_installs_after_importing_the_cli_alone():
    """A traced benchmark run imports ``gwish.cli`` in its own process and
    then installs the tracer, which looks up every layer it wraps.  The
    test above runs after the test modules have imported every layer, so
    this one repeats the install in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE.parent), str(BENCH), *filter(None, [env.get("PYTHONPATH")])]
    )
    code = (
        "import gwish.cli\n"
        "from layertrace import Tracer\n"
        "tracer = Tracer()\n"
        "tracer.install()\n"
        "tracer.uninstall()\n"
        "print('ok')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["ok"]


def test_layer_tracer_sees_the_shotgun_search():
    """The tracer wraps public names only, so the ascent that ``hybrid_mode``
    runs is timed and its visits counted only under a public name."""
    x = np.random.default_rng(0).standard_normal((30, 5))
    tracer = load_layertrace().Tracer()
    tracer.install()
    try:
        hybrid_mode(Dataset.from_matrix(x), Hyperparameters(g=0.3), search_iters=3)
    finally:
        tracer.uninstall()
    assert tracer.stats["search.shotgun_search"][0] == 1
    assert tracer.counters["search.visited"] > 0


def test_layer_tracer_runs_the_chain_and_the_search_unchanged():
    """Under the tracer, a threshold-started chain and ``hybrid_mode`` give
    the untraced results, and their full scores are timed.  Full scores
    read the term cache without ``clique_term``, so one cold and one warm
    call of it check the tracer's hit and miss tagging: the tracer sorts
    each vertex subset to tag it, so a vertex mask passed there would
    raise."""
    rng = np.random.default_rng(4)
    x = rng.standard_normal((40, 8)) @ (np.eye(8) + 0.4 * rng.standard_normal((8, 8)))
    data, hyper = Dataset.from_matrix(x), Hyperparameters(g=0.3)
    config = ChainConfig(iterations=150, burn_in=50, seed=3, init="threshold")

    def run_both():
        chain = run_chain(config, data, hyper)
        mode = hybrid_mode(data, hyper, search_iters=3, rng=make_rng(5))
        return chain, mode

    plain_chain, plain_mode = run_both()
    tracer = load_layertrace().Tracer()
    tracer.install()
    try:
        chain, mode = run_both()
        scorer = GraphScorer(data, hyper)
        cold, warm = scorer.clique_term([0, 2]), scorer.clique_term([2, 0])
    finally:
        tracer.uninstall()
    assert tracer.stats["model.GraphScorer.score"][0] > 0
    assert tracer.tagged["model.clique_term.miss"][0] == 1
    assert tracer.tagged["model.clique_term.hit"][0] == 1
    assert cold == warm
    assert mode == plain_mode
    assert chain.best_graph == plain_chain.best_graph
    for field in ("log_posterior_trace", "size_trace", "accepted_trace", "inclusion"):
        assert np.array_equal(getattr(chain, field), getattr(plain_chain, field))


def test_every_export_is_used():
    """Each name that ``gwish/__init__`` imports from a module is referenced
    by code in another module of the package, or named in the README, so
    a function that only the tests call is not public."""
    modules = {path.stem: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}
    exported = {
        alias.asname or alias.name
        for node in modules.pop("__init__").body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    used = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in modules.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    readme = README.read_text()
    unused = sorted(
        name for name in exported - used
        if not re.search(rf"\b{re.escape(name)}\b", readme)
    )
    assert unused == [], f"exported but used only by tests: {unused}"


def test_cli_parses_every_benchmark_command(monkeypatch):
    """Each command of each benchmark workload, with its seed filled in,
    parses under the CLI's parser, so a flag change that would break the
    benchmark fails here rather than in a benchmark run."""
    # loading the harness pins three BLAS thread variables; set through
    # monkeypatch first, they get their old values back after the test
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.syspath_prepend(str(BENCH))  # run.py imports layertrace
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    bench_run = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, "bench_run", bench_run)
    spec.loader.exec_module(bench_run)

    parser = gwish.cli.build_parser()
    for workload in bench_run.WORKLOADS.values():
        for command, argv in bench_run.argv_for(workload, seed=1):
            assert parser.parse_args(argv).command == command


def test_readme_examples_parse():
    """Each ``gwish`` command in the README's ``sh`` blocks, with its line
    continuations joined and comments stripped, parses under the CLI's
    parser, so an example that names a removed flag or choice fails here."""
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.M | re.S)
    lines = "".join(blocks).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line, comments=True) for line in lines]
    commands = [argv[1:] for argv in commands if argv[:1] == ["gwish"]]
    assert commands, "no gwish example found in README.md"
    parser = gwish.cli.build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README example does not parse: gwish {shlex.join(argv)}")
