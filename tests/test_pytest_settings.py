"""The repository's pytest settings: a failing Hypothesis test counts as one
failure, and the test files after it still run.

Hypothesis's failure report imports ``libcst``, which emits a
DeprecationWarning of ``mypy_extensions``; under ``filterwarnings =
["error"]`` alone that warning aborts the whole session (exit 3).
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

FAILING = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0
"""

PASSING = """
def test_passes():
    assert True
"""


def test_failing_given_test_does_not_abort_the_run(tmp_path):
    (tmp_path / "test_a_fails.py").write_text(FAILING)
    (tmp_path / "test_b_passes.py").write_text(PASSING)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", os.path.join(ROOT, "pyproject.toml"), "--rootdir", str(tmp_path),
         "test_a_fails.py", "test_b_passes.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "1 failed, 1 passed" in out, out
