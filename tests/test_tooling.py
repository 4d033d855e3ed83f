"""The test tooling itself: a failing property test is reported as a
failure, not as a crash of the test run, and the benchmark's layer tracer
still finds every name it wraps.

When a ``@given`` test fails, Hypothesis imports ``hypothesis.extra._patching``,
whose import emits mypy_extensions' TypedDict DeprecationWarning.  Under the
repository's ``filterwarnings = ["error"]`` that warning, unless ignored,
aborts pytest with INTERNALERROR and exit code 3, hiding the FAILED line.
"""

import importlib.util
from pathlib import Path

import pytest

import gwish.cli  # noqa: F401  imports every layer the tracer wraps
from gwish.graph import UndirectedGraph

pytest_plugins = ["pytester"]

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

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


def test_layer_tracer_installs_and_uninstalls():
    """The benchmark's layer tracer finds every function and method it
    wraps, so renaming a traced name fails here rather than in a traced
    benchmark run."""
    path = PYPROJECT.parent / "bench" / "layertrace.py"
    spec = importlib.util.spec_from_file_location("layertrace", path)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)

    search = UndirectedGraph.connected
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        assert UndirectedGraph.connected.__wrapped__ is search
    finally:
        tracer.uninstall()
    assert UndirectedGraph.connected is search
