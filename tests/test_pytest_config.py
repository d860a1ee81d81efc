"""The repository's pytest settings report a failing property test as a
failure.

``pyproject.toml`` turns every DeprecationWarning into an error.  When a
hypothesis test fails, hypothesis imports libcst to explain the failure,
and libcst's import raises one; as an error it ended the whole session with
an INTERNALERROR (exit 3) that named no test.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_small_integers_only(n):
    assert n < 5
'''


def test_a_failing_property_test_fails_without_an_internal_error(tmp_path):
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
                           "test_property.py"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert done.returncode == 1, done.stdout + done.stderr
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "FAILED test_property.py::test_small_integers_only" in done.stdout
