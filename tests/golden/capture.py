#!/usr/bin/env python3
"""Capture the golden artifacts of the criterion-9 mini pipeline.

Runs ``simulate -> fit -> sample -> evaluate`` (256 lags, L=1, N=8,
window 2) with the package importable from ``src/`` of the checkout this
script sits in, and stores the four artifacts that ``tests/test_golden.py``
compares against, plus ``SOURCE.json`` naming the code they came from:
``commit`` is ``git rev-parse HEAD``, which before a commit is the parent, so
``src_sha256`` also identifies the sources themselves, committed or not (a
sha256 over the name and bytes of each ``src/sigspline/*.py``, in sorted
order).

    OPENBLAS_NUM_THREADS=1 python3 tests/golden/capture.py [--output DIR]

Recapture only when a change is meant to alter the pipeline's numbers, and
say so in CHANGES.md. To recapture only the fit files, capture into a
scratch directory (``--output <tmp>``) and copy ``model.json`` and
``report.json`` from it into ``tests/golden/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

ARTIFACTS = ("model.json", "report.json", "samples.csv", "evaluation.json")

PIPELINE = (
    ["simulate", "--n-lags", "256", "--seed", "3", "--output", "series.csv"],
    ["fit", "--data", "series.csv", "--level", "1", "--bins", "8", "--window", "2",
     "--max-iters", "40", "--n-seeds", "2", "--output-model", "model.json",
     "--output-report", "report.json"],
    ["sample", "--model", "model.json", "--data", "series.csv", "--batch", "32",
     "--seed", "5", "--output", "samples.csv"],
    ["evaluate", "--model", "model.json", "--data", "series.csv", "--batch", "64",
     "--seeds", "2", "--output-json", "evaluation.json", "--output-table", "evaluation.txt"],
)


def run_pipeline(workdir: Path, cli_main) -> None:
    """Run every stage inside ``workdir``; relative names keep the config echoes stable."""
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for argv in PIPELINE:
            code = cli_main(argv)
            if code != 0:
                raise RuntimeError(f"stage {argv[0]} exited {code}")
    finally:
        os.chdir(cwd)


def src_sha256() -> str:
    """sha256 over the name and bytes of each ``src/sigspline/*.py``, in sorted order."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "sigspline").glob("*.py")):
        data = path.read_bytes()
        digest.update(f"{path.name}\0{len(data)}\0".encode() + data)
    return digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--output", default=str(HERE), help="directory for the artifacts")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    from sigspline.cli import main as cli_main

    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        with contextlib.redirect_stdout(io.StringIO()):
            run_pipeline(Path(tmp), cli_main)
        for name in ARTIFACTS:
            shutil.copyfile(Path(tmp) / name, out / name)
    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                              check=True).stdout.strip()

    source = {
        "commit": git("rev-parse", "HEAD"),
        "src_modified": bool(git("status", "--porcelain", "src")),
        "src_sha256": src_sha256(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
    (out / "SOURCE.json").write_text(json.dumps(source, indent=1) + "\n")
    print(f"captured {len(ARTIFACTS)} artifacts from {source['commit']} into {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
