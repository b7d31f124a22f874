"""The package runs from ``src/`` alone: the references in ``tests/reference.py`` stay test-side."""

import os
import subprocess
import sys
from pathlib import Path

MOVED = ("Word", "word_to_index", "index_to_word", "TruncatedTensor", "unit_tensor",
         "tensor_product", "inner_product", "segment_signature", "signature_of_sequence",
         "signature_oracle", "basepoint", "time_augment", "mask", "conditioning_embedding")

CHECK = f"""
import importlib.util, sys
import sigspline, sigspline.cli
assert not [name for name in sys.modules if name.split(".")[0] == "tests"], "a tests module loaded"
assert importlib.util.find_spec("sigspline.augmentations") is None
assert not set({MOVED!r}) & set(dir(sigspline)), "a reference is still exported"
"""


def test_the_package_imports_without_the_test_tree(tmp_path):
    src = Path(__file__).parents[1] / "src"
    run = subprocess.run([sys.executable, "-c", CHECK], cwd=tmp_path, capture_output=True,
                         text=True, timeout=120, env={**os.environ, "PYTHONPATH": str(src)})
    assert run.returncode == 0, run.stderr
