import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_TESTS = '''
import warnings

from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_falsified(n):
    assert n < 10


def test_a_deprecation_still_fails():
    warnings.warn("a numpy-style deprecation", DeprecationWarning)
'''


def test_a_failing_hypothesis_test_reports_its_falsifying_example(tmp_path):
    # the ini's DeprecationWarning-as-error used to turn hypothesis's failure report into
    # an INTERNALERROR: its explain phase imports libcst, which warns about mypy_extensions
    (tmp_path / "test_probe.py").write_text(FAILING_TESTS, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "Falsifying example" in run.stdout
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "2 failed" in run.stdout  # every other DeprecationWarning still fails its test
