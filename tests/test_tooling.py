import ast
import subprocess
import sys
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
SRC = PYPROJECT.parent / "src"

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


# names of numpy's namespace that numpy 1.24, the floor pyproject.toml declares, lacks:
# 1.25 added exceptions and dtypes, 2.0 the array-API names and strings, 2.1 unstack and
# the cumulative pair, 2.2 matvec and vecmat; bool and long came back in 2.0
NUMPY_AFTER_1_24 = frozenset({
    "exceptions", "dtypes", "strings", "trapezoid", "concat", "unstack", "isdtype",
    "permute_dims", "pow", "bitwise_count", "acos", "acosh", "asin", "asinh", "atan",
    "atanh", "atan2", "bitwise_left_shift", "bitwise_right_shift", "bitwise_invert",
    "matrix_transpose", "vecdot", "matvec", "vecmat", "astype", "unique_all",
    "unique_counts", "unique_inverse", "unique_values", "cumulative_sum", "cumulative_prod",
    "bool", "long", "ulong",
})


def numpy_api_problems(source: str, name: str) -> list[str]:
    """Uses of numpy API that numpy 1.24 lacks, by parse alone; value-based casting is not seen."""
    problems = []
    for node in ast.walk(ast.parse(source, name)):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy") and node.attr in NUMPY_AFTER_1_24):
            problems.append(f"{name}:{node.lineno}: np.{node.attr} is not in numpy 1.24")
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            problems += [f"{name}:{node.lineno}: numpy.{alias.name} is not in numpy 1.24"
                         for alias in node.names if alias.name in NUMPY_AFTER_1_24]
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "asarray" and any(k.arg == "copy" for k in node.keywords)):
            problems.append(f"{name}:{node.lineno}: np.asarray takes copy= only from numpy 2.0")
    return problems


def test_src_uses_only_numpy_1_24_api():
    # CI's numpy 1.24 entry needs a network; this catches the names at least
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) >= 10
    problems = [problem for path in modules
                for problem in numpy_api_problems(path.read_text(encoding="utf-8"),
                                                  str(path.relative_to(SRC)))]
    assert problems == []


@pytest.mark.parametrize("line, found", [
    ("y = np.trapezoid(f, t)", 1),
    ("text = np.strings.upper(a)", 1),
    ("np.asarray(a, dtype=float, copy=False)", 1),
    ("from numpy import concat, stack", 1),
    ("np.trapz(f, t) + np.asarray(a, dtype=float).sum()", 0),
    ("concat = strings = 1", 0),
])
def test_the_numpy_api_guard_flags_newer_names_only(line, found):
    assert len(numpy_api_problems(line, "probe.py")) == found
