"""What importing the package pulls in."""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

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


def test_only_the_sampler_imports_numpy() -> None:
    # The closed forms and the amplitude oracle are plain float and complex
    # arithmetic; numpy is the sampler's alone.
    importers = set()
    for path in Path(rnlsim.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:  # not `from .x import`
                modules = [node.module]
            else:
                continue
            if any(module.split(".")[0] == "numpy" for module in modules):
                importers.add(path.name)
    assert importers == {"montecarlo.py"}


def test_the_tests_load_no_module_from_bench() -> None:
    # Tests run once every module is collected, so sys.modules holds all that
    # collection imported.  The tests state their own oracles: bench/ may go
    # or change without touching them.
    bench = Path(__file__).resolve().parents[1] / "bench"
    loaded = {
        name: module.__file__
        for name, module in list(sys.modules.items())
        if getattr(module, "__file__", None) and Path(module.__file__).resolve().is_relative_to(bench)
    }
    assert loaded == {}
