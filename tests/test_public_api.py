"""The package's public surface: what the CLI, reports and the benchmark use.

Tier-1 never runs bench/, so these tests read its sources (without
importing them) to catch a deleted or renamed name before the benchmark does.
"""

from __future__ import annotations

import ast
import contextlib
import dataclasses
import importlib
import io
from pathlib import Path

import pytest

import rnlsim
import rnlsim.cli
from helpers import KEY_SETTINGS, for_series
from rnlsim import ModelVariant, predict

BENCH = Path(__file__).resolve().parents[1] / "bench"
README = Path(__file__).resolve().parents[1] / "README.md"

PUBLIC_NAMES = {
    "AmbiguousScheduleError",
    "CoincidenceCounts",
    "ComparisonReport",
    "ConfigError",
    "EstimatorResult",
    "ExperimentGeometry",
    "JointDistribution",
    "ModelVariant",
    "PhaseSettings",
    "PhotonOneLabel",
    "PhotonTwoLabel",
    "Prediction",
    "RunConfig",
    "SPEED_OF_LIGHT",
    "TimingAssignment",
    "VariantRow",
    "Verdict",
    "amplitude_oracle",
    "build_run_config",
    "classify",
    "compare_report",
    "estimate_correlation",
    "parse_config_file",
    "predict",
    "qm_correlation",
    "qm_single_pair_correlation",
    "render_csv",
    "render_json_lines",
    "render_table",
    "sample_counts",
    "schedule_from_geometry",
    "series_preset",
    "symmetric_joint",
}


def _rnlsim_imports(path: Path) -> list[tuple[str, str]]:
    """(module, name) for every `from rnlsim... import name` in a source file."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "rnlsim"
        for alias in node.names
    ]


def test_all_is_pinned() -> None:
    assert len(PUBLIC_NAMES) == 33
    assert len(rnlsim.__all__) == len(set(rnlsim.__all__))
    assert set(rnlsim.__all__) == PUBLIC_NAMES
    for name in rnlsim.__all__:
        assert hasattr(rnlsim, name), name


@pytest.mark.parametrize("source", ["workloads.py", "checks.py"])
def test_bench_imports_only_exported_names(source: str) -> None:
    imports = _rnlsim_imports(BENCH / source)
    assert imports, f"bench/{source} imports nothing from rnlsim"
    for module, name in imports:
        if module == "rnlsim":
            assert name in rnlsim.__all__, f"bench/{source} imports unexported rnlsim.{name}"
        else:
            assert hasattr(importlib.import_module(module), name), f"{module}.{name} is gone"


def test_cli_main_exists() -> None:
    assert callable(rnlsim.cli.main)


def test_predict_returns_joint_and_correlation() -> None:
    prediction = predict(KEY_SETTINGS, for_series(3), ModelVariant.QM)
    assert isinstance(prediction.joint, rnlsim.JointDistribution)
    assert prediction.correlation == prediction.joint.correlation
    # The correlation is read from the table, never stored beside it.
    assert [field.name for field in dataclasses.fields(prediction)] == ["joint"]
    assert prediction == rnlsim.Prediction(prediction.joint)
    with pytest.raises(AttributeError):
        prediction.correlation = 0.0


def test_readme_library_example_runs() -> None:
    # The first python block under "## Library", run as written.
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    example = library.split("```python\n", 1)[1].split("```\n", 1)[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(example, str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    assert lines[0] == "0.0"
    assert [line.split()[0] for line in lines[1:]] == [variant.value for variant in ModelVariant]
