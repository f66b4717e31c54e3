"""What importing the package pulls in."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import rnlsim


def test_import_loads_no_process_machinery() -> None:
    # Sampling runs in one process; the pool modules only add import time.
    # numpy.random is imported on the first draw, not by the package import.
    package_root = os.path.dirname(os.path.dirname(rnlsim.__file__))
    code = "import json, sys, rnlsim; print(json.dumps(sorted(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": package_root}
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True, timeout=60
    )
    loaded = set(json.loads(result.stdout))
    assert "rnlsim" in loaded
    assert "multiprocessing" not in loaded
    assert "concurrent.futures.process" not in loaded
    assert "numpy.random" not in loaded
