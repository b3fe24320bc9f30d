"""The suite's own pytest configuration, run on a throwaway test file."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).parents[1] / "pyproject.toml"

# a property test that fails at n = 5, then a plain test that passes
FAILING_PROPERTY = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers(0, 10))
def test_fails(n):
    assert n < 5


def test_after():
    pass
'''


def test_failing_property_test_reports_its_example(tmp_path):
    # with every warning an error, a deprecation warning inside
    # hypothesis's failure report ended the run in an INTERNALERROR: the
    # example went unprinted and the next test never ran
    path = tmp_path / "test_property.py"
    path.write_text(FAILING_PROPERTY)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT),
         "-p", "no:cacheprovider", "-rA", str(path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "Falsifying example: test_fails(" in proc.stdout
    lines = proc.stdout.splitlines()
    assert any(line.startswith("PASSED") and line.endswith("::test_after")
               for line in lines)
    assert lines[-1].strip("= ").startswith("1 failed, 1 passed")
