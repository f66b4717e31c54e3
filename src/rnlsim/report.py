"""Comparison reports: analytic predictions vs Monte Carlo estimates per variant."""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from itertools import combinations

from .config import RunConfig
from .montecarlo import (
    STREAM_LAYOUT,
    CoincidenceCounts,
    EstimatorResult,
    correlation_stderr,
    estimate_correlation,
    sample_counts,
)
from .rnl import ModelVariant, predict
from .timing import TimingAssignment, classify, schedule_from_geometry

# Canonical stream index per variant, independent of the order requested.
VARIANT_STREAM_INDEX = {variant: index for index, variant in enumerate(ModelVariant)}
# Significance multiplier for calling two variants apart at the configured n.
VERDICT_SIGMA = 6.0

CSV_COLUMNS = (
    "variant",
    "series",
    "phi11_deg",
    "phi21_deg",
    "phi22_deg",
    "R_pp",
    "R_pm",
    "R_mp",
    "R_mm",
    "e_hat",
    "stderr",
    "e_analytic",
)


@dataclass(frozen=True)
class VariantRow:
    variant: ModelVariant
    e_analytic: float
    counts: CoincidenceCounts
    estimate: EstimatorResult


@dataclass(frozen=True)
class Verdict:
    """Whether two variants are telling-apart-able at the run's sample size.

    separation is |E_a - E_b|, and threshold is VERDICT_SIGMA times the larger
    of the two analytic standard errors sqrt((1 - E^2) / n).  Neither reads
    the draws, so the pair is distinguishable exactly when n exceeds the
    budget n* = (VERDICT_SIGMA * sqrt(1 - E^2) / |E_a - E_b|)^2 of the larger
    variance.  Equal tables are never distinguishable, even at stderr 0.
    """

    variant_a: ModelVariant
    variant_b: ModelVariant
    separation: float
    threshold: float

    @property
    def distinguishable(self) -> bool:
        return self.separation > self.threshold


@dataclass(frozen=True)
class ComparisonReport:
    config: RunConfig
    timing: TimingAssignment
    rows: tuple[VariantRow, ...]
    verdicts: tuple[Verdict, ...]


def compare_report(config: RunConfig) -> ComparisonReport:
    """Classify once, then predict, sample and estimate each configured variant."""
    timing = classify(schedule_from_geometry(config.resolve_geometry()))
    settings = config.settings()
    rows = []
    for variant in config.variants:
        prediction = predict(
            settings,
            timing,
            variant,
            condition1=config.condition1,
            condition2=config.condition2,
        )
        counts = sample_counts(
            prediction.joint,
            seed=config.seed,
            variant_index=VARIANT_STREAM_INDEX[variant],
            n_events=config.n_events,
        )
        rows.append(VariantRow(variant, prediction.correlation, counts, estimate_correlation(counts)))
    verdicts = []
    n = config.n_events
    for row_a, row_b in combinations(rows, 2):
        stderr = max(correlation_stderr(row_a.e_analytic, n), correlation_stderr(row_b.e_analytic, n))
        verdicts.append(
            Verdict(
                variant_a=row_a.variant,
                variant_b=row_b.variant,
                separation=abs(row_a.e_analytic - row_b.e_analytic),
                threshold=VERDICT_SIGMA * stderr,
            )
        )
    return ComparisonReport(config=config, timing=timing, rows=tuple(rows), verdicts=tuple(verdicts))


def _row_values(report: ComparisonReport, row: VariantRow) -> tuple[object, ...]:
    """One report row, in CSV_COLUMNS order."""
    config = report.config
    return (
        row.variant.value,
        report.timing.series,
        config.phi11_deg,
        config.phi21_deg,
        config.phi22_deg,
        *row.counts.as_tuple(),
        row.estimate.e_hat,
        row.estimate.stderr,
        row.e_analytic,
    )


def render_csv(report: ComparisonReport) -> str:
    """One row per variant, columns fixed by CSV_COLUMNS; an unset series is blank."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in report.rows:
        writer.writerow(["" if value is None else value for value in _row_values(report, row)])
    return buffer.getvalue()


def render_json_lines(report: ComparisonReport) -> str:
    """One JSON object per variant, same fields as the CSV schema."""
    lines = [json.dumps(dict(zip(CSV_COLUMNS, _row_values(report, row)))) for row in report.rows]
    return "\n".join(lines) + "\n"


def _geometry_line(config: RunConfig) -> str:
    if config.series is not None:
        return f"geometry: series {config.series} preset"
    geometry = config.geometry
    return (
        "geometry: lengths "
        f"bs11={geometry.length_bs11!r} m, bs21={geometry.length_bs21!r} m, "
        f"bs22={geometry.length_bs22!r} m, m11_displacement={geometry.m11_displacement!r} m"
    )


def render_table(report: ComparisonReport) -> str:
    """Human-readable comparison: header block, one line per variant, verdicts."""
    config = report.config
    timing = report.timing
    lines = [
        "two-photon coincidence comparison",
        _geometry_line(config),
        (
            f"phases [deg]: phi11={config.phi11_deg:g} phi21={config.phi21_deg:g} "
            f"phi22={config.phi22_deg:g}"
        ),
        f"events per variant: {config.n_events}  seed: {config.seed}  stream: {STREAM_LAYOUT}",
        (
            f"timing: photon 1 = {timing.label1.value}, photon 2 = {timing.label2.value} "
            f"(BS21 impact before: {'yes' if timing.bs21_before else 'no'})"
            + (f", series {timing.series}" if timing.series is not None else "")
        ),
    ]
    if not (config.condition1 and config.condition2):
        lines.append(
            f"indistinguishability: condition1={str(config.condition1).lower()} "
            f"condition2={str(config.condition2).lower()}"
        )
    lines.append("")
    header = (
        f"{'variant':<17} {'E analytic':>11} {'e_hat':>11} {'stderr':>10} "
        f"{'R_pp':>9} {'R_pm':>9} {'R_mp':>9} {'R_mm':>9}"
    )
    lines.append(header)
    for row in report.rows:
        lines.append(
            f"{row.variant.value:<17} {row.e_analytic:>11.6f} {row.estimate.e_hat:>11.6f} "
            f"{row.estimate.stderr:>10.6f} {row.counts.r_pp:>9} {row.counts.r_pm:>9} "
            f"{row.counts.r_mp:>9} {row.counts.r_mm:>9}"
        )
    if report.verdicts:
        lines.append("")
        lines.append(f"verdicts at n={config.n_events} (threshold {VERDICT_SIGMA:g} * stderr):")
        for verdict in report.verdicts:
            call = "distinguishable" if verdict.distinguishable else "not distinguishable"
            lines.append(
                f"  {verdict.variant_a.value} vs {verdict.variant_b.value}: {call} "
                f"(|dE| = {verdict.separation:.6f}, threshold = {verdict.threshold:.6f})"
            )
    return "\n".join(lines) + "\n"
