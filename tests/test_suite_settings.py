"""The project's pytest settings let a failing property test fail alone.

``pyproject.toml`` turns deprecation warnings into errors. When a
``hypothesis`` test fails, hypothesis's pytest plugin imports its patch
writer, which imports libcst where it is installed; libcst 1.0.1 warns
that ``mypy_extensions.TypedDict`` is deprecated. Without the message
filter in ``pyproject.toml`` that warning ends the session in INTERNALERROR
and every later test goes unrun.
"""

from pathlib import Path

pytest_plugins = ["pytester"]

ROOT = Path(__file__).resolve().parent.parent

FAILING_THEN_PASSING = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_a_failing_property(x):
    assert x != x


def test_a_later_test():
    pass
"""


def test_a_failing_property_test_leaves_the_next_test_running(pytester):
    pytester.makepyprojecttoml((ROOT / "pyproject.toml").read_text())
    path = pytester.makepyfile(FAILING_THEN_PASSING)
    result = pytester.runpytest_subprocess(path)
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
    result.assert_outcomes(failed=1, passed=1)
