"""The criterion-9 mini pipeline reproduces the artifacts stored in tests/golden/.

The fit artifacts must match byte for byte. Samples and evaluation statistics
pass through BLAS matrix products whose rounding may vary with the kernel
used, so they are compared numerically at RTOL; comments, headers, keys and
strings must still match exactly. ``tests/golden/capture.py`` regenerates the
files and ``tests/golden/SOURCE.json`` names the commit they came from.
"""

import json
from pathlib import Path

import numpy as np

from sigspline.cli import main as cli_main
from tests.golden.capture import run_pipeline

GOLDEN = Path(__file__).parent / "golden"
RTOL = 1e-9


def _split_csv(text: str):
    """(comment and header lines, numeric rows) of a batch CSV."""
    lines = text.splitlines()
    head = [line for line in lines if line.startswith("#") or line.startswith("seq")]
    rows = [[float(v) for v in line.split(",")] for line in lines if line not in head]
    return head, np.array(rows)


def _assert_close(got, want, where="$"):
    assert type(got) is type(want), f"{where}: {type(got).__name__} vs {type(want).__name__}"
    if isinstance(want, dict):
        assert got.keys() == want.keys(), f"{where}: keys differ"
        for key in want:
            _assert_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), f"{where}: lengths differ"
        for j, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{where}[{j}]")
    elif isinstance(want, float):
        np.testing.assert_allclose(got, want, rtol=RTOL, atol=0, err_msg=where)
    else:
        assert got == want, where


def test_pipeline_matches_golden_artifacts(tmp_path):
    run_pipeline(tmp_path, cli_main)
    for name in ("model.json", "report.json"):
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name

    got_head, got_rows = _split_csv((tmp_path / "samples.csv").read_text())
    want_head, want_rows = _split_csv((GOLDEN / "samples.csv").read_text())
    assert got_head == want_head
    np.testing.assert_allclose(got_rows, want_rows, rtol=RTOL, atol=0)

    _assert_close(
        json.loads((tmp_path / "evaluation.json").read_text()),
        json.loads((GOLDEN / "evaluation.json").read_text()),
    )
