"""The pytest configuration in pyproject.toml, run on a probe suite in a child pytest."""

import os
import subprocess
import sys

PYPROJECT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "pyproject.toml"))

PROBE = '''
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
'''


def test_a_failing_given_test_is_reported_and_the_run_goes_on(tmp_path):
    # hypothesis explains a failure through libcst, whose import warns; under the
    # configured error::DeprecationWarning that was an INTERNALERROR ending the run
    (tmp_path / "test_probe.py").write_text(PROBE)
    proc = subprocess.run([sys.executable, "-m", "pytest", "-c", PYPROJECT, "--rootdir",
                           str(tmp_path), "-q", "-p", "no:cacheprovider", "test_probe.py"],
                          capture_output=True, text=True, cwd=tmp_path)
    output = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in output, output
    assert proc.returncode == 1 and "1 failed, 1 passed" in output, output
