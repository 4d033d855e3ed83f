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
import re
import shlex
import sys
from pathlib import Path

import numpy as np
import pytest

import gwish.cli  # imports every layer the tracer wraps
from gwish.graph import UndirectedGraph
from gwish.model import Dataset, Hyperparameters
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
