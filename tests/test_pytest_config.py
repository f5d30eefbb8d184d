"""The suite's pytest settings: a failing property test is reported as a
failure, and the tests after it still run, although every warning is an
error."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).parents[1] / "pyproject.toml"

PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0


def test_passes():
    pass
'''


def test_a_failing_property_test_ends_no_session(tmp_path):
    # Hypothesis reports a failure through a module whose imports warn, so
    # with every warning an error, the report itself must not stop pytest
    (tmp_path / "test_probe.py").write_text(PROBE)
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
    command += ["-c", str(PYPROJECT), "--rootdir", str(tmp_path), str(tmp_path)]
    proc = subprocess.run(
        command,
        capture_output=True,
        text=True,
        timeout=120,
        cwd=tmp_path,
    )
    output = proc.stdout + proc.stderr
    assert proc.returncode == 1, output
    assert "1 failed, 1 passed" in output, output
    assert "INTERNALERROR" not in output, output
