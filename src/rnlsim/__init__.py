"""Two-photon successive-impact interferometry.

Quantum-mechanical and relativistic-nonlocality (multisimultaneity)
predictions for a pair of momentum-correlated photons, one crossing a single
beam splitter and the other two in series, with a deterministic Monte Carlo
harness for coincidence counting.
"""

from .config import RunConfig, build_run_config, parse_config_file
from .errors import AmbiguousScheduleError, ConfigError
from .montecarlo import (
    CoincidenceCounts,
    EstimatorResult,
    estimate_correlation,
    sample_counts,
)
from .quantum import (
    JointDistribution,
    PhaseSettings,
    amplitude_oracle,
    qm_correlation,
    qm_single_pair_correlation,
    symmetric_joint,
)
from .report import (
    ComparisonReport,
    VariantRow,
    Verdict,
    compare_report,
    render_csv,
    render_json_lines,
    render_table,
)
from .rnl import ModelVariant, Prediction, predict
from .timing import (
    SPEED_OF_LIGHT,
    ExperimentGeometry,
    PhotonOneLabel,
    PhotonTwoLabel,
    TimingAssignment,
    classify,
    schedule_from_geometry,
    series_preset,
)

__all__ = [
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
]
