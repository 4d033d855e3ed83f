"""The test configuration itself: a failing property test is reported as a
failure, not as a crash of the test run.

When a ``@given`` test fails, Hypothesis imports ``hypothesis.extra._patching``,
whose import emits mypy_extensions' TypedDict DeprecationWarning.  Under the
repository's ``filterwarnings = ["error"]`` that warning, unless ignored,
aborts pytest with INTERNALERROR and exit code 3, hiding the FAILED line.
"""

from pathlib import Path

import pytest

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
