"""Plain-math readings of joint tables and schedules, shared by the test modules."""

from __future__ import annotations

import numpy as np

from rnlsim import (
    SPEED_OF_LIGHT,
    CoincidenceCounts,
    ExperimentGeometry,
    ImpactSchedule,
    JointDistribution,
    ModelVariant,
    PhaseSettings,
    PhotonOneLabel,
    PhotonTwoLabel,
    RunConfig,
    SpacetimeEvent,
    TimingAssignment,
    boost_time,
    compare_report,
    qm_correlation,
    qm_single_pair_correlation,
    symmetric_joint,
)
from rnlsim.timing import GUARD_BAND_S


def as_array(table: JointDistribution) -> np.ndarray:
    """Entries in fixed order (+,+), (+,-), (-,+), (-,-)."""
    return np.array([table.p_pp, table.p_pm, table.p_mp, table.p_mm])


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
    e_before_before = symmetric_joint(0.0).correlation
    if label1 is PhotonOneLabel.A11_22:
        e_photon1_mixed = qm_correlation(settings)
    else:
        e_photon1_mixed = qm_single_pair_correlation(settings.phi11, settings.phi21)
    e_photon2_mixed = qm_correlation(settings)
    return e_before_before * e_photon1_mixed * e_photon2_mixed


def conditional(
    settings: PhaseSettings,
    which: PhotonOneLabel | PhotonTwoLabel,
    condition1: bool,
    condition2: bool,
) -> tuple[float, float, float, float]:
    """Conditional linking a non-before outcome to the partner's before value.

    Returns (P(+|+), P(-|+), P(+|-), P(-|-)), each column summing to 1.  The
    table is pinned by one requirement: summing the flat before statistics
    against it must reproduce the quantum table of the matching mixed
    experiment, its anchor.  That forces P(out | given) = 2 * P_anchor(out,
    given).  a11[21] conditions on the BS21 before value (anchor (a11[21],
    b21)), a11[22] on the BS22 one (anchor (a11[22], b22)) and a22 on the
    BS11 one (anchor (b11, a22)); the partner's other before value drops out.
    """
    intermediate = qm_single_pair_correlation(settings.phi11, settings.phi21) if condition1 else 0.0
    final = qm_correlation(settings) if condition2 else 0.0
    anchor = symmetric_joint({
        PhotonOneLabel.A11_21: intermediate,
        PhotonOneLabel.A11_22: final,
        PhotonTwoLabel.A22: final,
    }[which])
    # Photon 2's outcome is the anchor's second index, photon 1's its first.
    if isinstance(which, PhotonTwoLabel):
        minus_given_plus, plus_given_minus = anchor.p_pm, anchor.p_mp
    else:
        minus_given_plus, plus_given_minus = anchor.p_mp, anchor.p_pm
    return 2.0 * anchor.p_pp, 2.0 * minus_given_plus, 2.0 * plus_given_minus, 2.0 * anchor.p_mm


def factorized_table(
    settings: PhaseSettings, label1: PhotonOneLabel, condition1: bool, condition2: bool
) -> JointDistribution:
    """The paper's two-non-before table: the flat before outcomes summed against both conditionals.

    Photon 1's conditional (label1, a11[21] or a11[22]) reads photon 2's
    before value and vice versa, so each non-before outcome is decided by the
    partner's earlier impact alone.  The result is the flat table up to
    rounding.
    """
    before = symmetric_joint(0.0)
    cond1 = conditional(settings, label1, condition1, condition2)
    cond2 = conditional(settings, PhotonTwoLabel.A22, condition1, condition2)
    # (P(outcome | partner's before value +1), P(outcome | -1)) per outcome.
    plus1, minus1 = (cond1[0], cond1[2]), (cond1[1], cond1[3])
    plus2, minus2 = (cond2[0], cond2[2]), (cond2[1], cond2[3])

    def entry(photon1: tuple[float, float], photon2: tuple[float, float]) -> float:
        # Summed over (sigma, omega) = (+,+), (+,-), (-,+), (-,-), photon 1
        # given omega and photon 2 given sigma.
        return (
            before.p_pp * photon1[0] * photon2[0]
            + before.p_pm * photon1[1] * photon2[0]
            + before.p_mp * photon1[0] * photon2[1]
            + before.p_mm * photon1[1] * photon2[1]
        )

    return JointDistribution(
        entry(plus1, plus2), entry(plus1, minus2), entry(minus1, plus2), entry(minus1, minus2)
    )


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


def rebuilt_schedule(geometry: ExperimentGeometry) -> ImpactSchedule:
    """A fresh ImpactSchedule from the geometry's fields, as the paper's collinear layout gives it.

    Every impact sits on a light ray from the source: photon 1 reaches BS11
    at x = -(length_bs11 + m11_displacement), photon 2 its splitters at
    x = +length, each at t = path length / c.
    """
    l11 = geometry.length_bs11 + geometry.m11_displacement
    return ImpactSchedule(
        bs11=SpacetimeEvent(l11 / SPEED_OF_LIGHT, -l11),
        bs21=SpacetimeEvent(geometry.length_bs21 / SPEED_OF_LIGHT, geometry.length_bs21),
        bs22=SpacetimeEvent(geometry.length_bs22 / SPEED_OF_LIGHT, geometry.length_bs22),
        beta_bs11=geometry.beta_bs11,
        beta_bs21=geometry.beta_bs21,
        beta_bs22=geometry.beta_bs22,
    )


def schedule_labels(schedule: ImpactSchedule) -> tuple[tuple[str, str, bool], bool]:
    """((label1, label2, bs21_before), near_tie) by the rules in classify's docstring.

    Each comparison boosts its own two times; no frame time is shared.  A gap
    decides when the labels read it: BS11 vs BS21 in BS11's frame and BS21 vs
    BS11 in BS21's frame always, BS11 vs BS22 in BS11's frame only when
    BS11's impact is not before BS21's, and BS22 vs BS11 in BS22's frame only
    when the BS21 impact is before.  near_tie is whether a deciding gap is
    inside the guard band or NaN (inf - inf).
    """

    def lead(first: SpacetimeEvent, second: SpacetimeEvent, beta: float) -> float:
        """How long before second's impact first's falls, in the frame moving at beta."""
        return boost_time(second, beta) - boost_time(first, beta)

    bs11_vs_bs21 = lead(schedule.bs11, schedule.bs21, schedule.beta_bs11)
    bs11_vs_bs22 = lead(schedule.bs11, schedule.bs22, schedule.beta_bs11)
    bs21_vs_bs11 = lead(schedule.bs21, schedule.bs11, schedule.beta_bs21)
    bs22_vs_bs11 = lead(schedule.bs22, schedule.bs11, schedule.beta_bs22)

    # Photon 1: before BS21's impact, else non-before relative to the first one it did not precede.
    if bs11_vs_bs21 > 0.0:
        label1 = "b11"
    else:
        label1 = "a11[21]" if bs11_vs_bs22 > 0.0 else "a11[22]"
    # Photon 2: its final impact is before only if its BS21 impact is before too.
    bs21_before = bs21_vs_bs11 > 0.0
    label2 = "b22" if bs21_before and bs22_vs_bs11 > 0.0 else "a22"

    deciding = [bs11_vs_bs21, bs21_vs_bs11]
    if label1 != "b11":
        deciding.append(bs11_vs_bs22)
    if bs21_before:
        deciding.append(bs22_vs_bs11)
    near_tie = any(not abs(gap) >= GUARD_BAND_S for gap in deciding)
    return (label1, label2, bs21_before), near_tie


def v5_reference(
    table: JointDistribution, seed: int, n_events: int, variant_index: int = 1
) -> tuple[tuple[int, int, int, int], list[float]]:
    """Counts and renormalised p of stream layout v5, from plain numpy alone.

    The key must be a uint64 array: numpy casts a Python-list key through
    float, so Philox(key=[2**64 - 1, 1]) gets the key [0, 1], not [2**64 - 1, 1].
    """
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, variant_index], dtype=np.uint64)))
    p = as_array(table)
    cells = np.flatnonzero(p)
    p = p[cells] / p[cells].sum()
    counts = np.zeros(4, dtype=np.int64)
    counts[cells] = rng.multinomial(n_events, p)
    return tuple(int(c) for c in counts), p.tolist()
