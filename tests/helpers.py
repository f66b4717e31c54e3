"""Plain-math readings of joint tables, shared by the test modules."""

from __future__ import annotations

from rnlsim import (
    CoincidenceCounts,
    JointDistribution,
    ModelVariant,
    PhaseSettings,
    PhotonOneLabel,
    PhotonTwoLabel,
    RunConfig,
    TimingAssignment,
    compare_report,
    qm_correlation,
    qm_distinguishable_joint,
    qm_single_pair_correlation,
)


def cell(table: JointDistribution, sigma: int, omega: int) -> float:
    """P(sigma, omega), photon-1 outcome first, read from the table's p_* fields."""
    if sigma == 1:
        return table.p_pp if omega == 1 else table.p_pm
    return table.p_mp if omega == 1 else table.p_mm


def marginal_photon1(table: JointDistribution, sigma: int) -> float:
    return cell(table, sigma, 1) + cell(table, sigma, -1)


def marginal_photon2(table: JointDistribution, omega: int) -> float:
    return cell(table, 1, omega) + cell(table, -1, omega)


def theorem_product(settings: PhaseSettings, label1: PhotonOneLabel) -> float:
    """Product form of the two-non-before theorem: E(b,b) * E(a,b) * E(b,a).

    label1 is photon 1's non-before label, a11[21] or a11[22].  The
    all-before factor vanishes identically, so the product does too; it is
    still evaluated factor by factor rather than short-circuited.
    """
    e_before_before = qm_distinguishable_joint().correlation
    if label1 is PhotonOneLabel.A11_22:
        e_photon1_mixed = qm_correlation(settings)
    else:
        e_photon1_mixed = qm_single_pair_correlation(settings.phi11, settings.phi21)
    e_photon2_mixed = qm_correlation(settings)
    return e_before_before * e_photon1_mixed * e_photon2_mixed


# Rest-frame (label1, label2, bs21_before) of each lab-ordering series.
_SERIES_ASSIGNMENTS = {
    1: (PhotonOneLabel.A11_22, PhotonTwoLabel.B22, True),
    2: (PhotonOneLabel.B11, PhotonTwoLabel.A22, False),
    3: (PhotonOneLabel.A11_21, PhotonTwoLabel.A22, True),
}


def for_series(series: int) -> TimingAssignment:
    """The timing assignment classify gives series_preset(series)."""
    label1, label2, bs21_before = _SERIES_ASSIGNMENTS[series]
    return TimingAssignment(label1, label2, bs21_before, series)


def counts_by_variant(config: RunConfig) -> dict[ModelVariant, CoincidenceCounts]:
    """The sampled counts of compare_report, keyed by variant."""
    return {row.variant: row.counts for row in compare_report(config).rows}
