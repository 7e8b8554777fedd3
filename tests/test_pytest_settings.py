"""The project's pytest settings report a failing Hypothesis example as a
test failure.

``pyproject.toml`` turns every warning into an error. Some Hypothesis
versions import ``mypy_extensions.TypedDict`` while they report a failed
example, and its ``DeprecationWarning`` then escapes from the plugin's
report hook: pytest ends with ``INTERNALERROR`` and exit code 3 instead of
one failed test. Where ``mypy_extensions`` is not installed the warning
never fires, and this test passes with or without the filter.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_TEST = """\
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(derandomize=True, database=None)
@given(st.integers(0, 10))
def test_fails(x):
    assert x < 0
"""


def test_failing_hypothesis_example_is_one_failure(tmp_path):
    test_file = tmp_path / "test_failing_example.py"
    test_file.write_text(FAILING_TEST)
    # Hypothesis writes .hypothesis/ into the working directory on a
    # failure, so the run starts in the temporary directory.
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), str(test_file)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    output = run.stdout + run.stderr
    assert "INTERNALERROR" not in output
    assert run.returncode == 1, output
    assert "1 failed" in output
