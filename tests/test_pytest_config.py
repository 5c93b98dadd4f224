"""The project's pytest settings report a failing property test as a failure.

``filterwarnings = ["error"]`` turns every warning into an error, and
hypothesis's failure report itself imports a deprecated name; unfiltered,
that warning stops pytest with an INTERNALERROR and hides the example.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FAILING_PROPERTY = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(derandomize=True, database=None)
@given(st.integers(0, 10))
def test_below_five(x):
    assert x < 5
'''


def test_failing_property_shows_its_falsifying_example(tmp_path):
    (tmp_path / "test_failing_property.py").write_text(FAILING_PROPERTY)
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "test_failing_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    report = out.stdout + out.stderr
    assert out.returncode == 1, report
    assert "Falsifying example: test_below_five(" in report
    assert "INTERNALERROR" not in report
