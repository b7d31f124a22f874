"""The suite's pytest settings let a failing test be reported without ending the pytest run."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python >= 3.11

SUITE = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert False


def test_passes():
    pass
"""


def test_a_failing_hypothesis_test_does_not_stop_the_run(tmp_path):
    # with warnings as errors, Hypothesis's failure report must not abort the run
    settings = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())
    filters = settings["tool"]["pytest"]["ini_options"]["filterwarnings"]
    (tmp_path / "pyproject.toml").write_text(
        f"[tool.pytest.ini_options]\nfilterwarnings = {json.dumps(filters)}\n")
    (tmp_path / "test_suite.py").write_text(SUITE)
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
