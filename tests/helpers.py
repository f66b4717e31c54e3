"""Plain-math readings of joint tables and timing, shared by the test modules."""

from __future__ import annotations

import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

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
    qm_single_pair_correlation,
    symmetric_joint,
)


def _load_reference():
    """bench/reference.py, the brute-force Lorentz-boost labels, imported by path."""
    path = Path(__file__).resolve().parents[1] / "bench" / "reference.py"
    spec = importlib.util.spec_from_file_location("bench_reference", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


# The one timing oracle: it boosts each impact into each splitter's frame.
reference = _load_reference()

# Absolute tolerance of every closed-form comparison.
ATOL = 1e-12

# The decisive settings, 45, -45 and 90 degrees: QM's E is 1 there.
KEY_SETTINGS = PhaseSettings.from_degrees(45.0, -45.0, 90.0)

# Bounded so that argument-reduction error in cos stays far below ATOL.
phases = st.floats(min_value=-25.0, max_value=25.0, allow_nan=False, allow_infinity=False)
settings_strategy = st.builds(PhaseSettings, phases, phases, phases)


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
        e_photon1_mixed = qm_single_pair_correlation(settings)
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
    intermediate = qm_single_pair_correlation(settings) if condition1 else 0.0
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


# amplitude_oracle's lossless 50/50 splitter: transmission 1/sqrt(2), reflection i/sqrt(2).
_SPLITTER = np.array([[1.0, 1.0j], [1.0j, 1.0]], dtype=complex) / math.sqrt(2.0)


def oracle_table(
    settings: PhaseSettings, intermediate: bool = False, coherent: bool = True
) -> JointDistribution:
    """Coincidence table from path amplitudes, with amplitude_oracle's splitters and arm phases.

    In the final layout photon 2 is detected after BS22, output port 0
    counting as +1, and the coherent table is amplitude_oracle's.  In the
    intermediate layout it is detected right after BS21, whose output port 1
    counts as +1: that is the port for which the table has E = +cos(phi11 -
    phi21), as qm_single_pair_correlation says.  Incoherent tables add the
    two source branches in probability, as when the pair's origin is known.
    """
    transfer_1 = _SPLITTER @ np.diag([np.exp(1j * settings.phi11), 1.0])
    transfer_2 = _SPLITTER @ np.diag([1.0, np.exp(1j * settings.phi21)])
    if intermediate:
        transfer_2 = transfer_2[::-1]  # port 1 first, as outcome +1
    else:
        transfer_2 = _SPLITTER @ np.diag([np.exp(1j * settings.phi22), 1.0]) @ transfer_2
    branches = [np.outer(transfer_1[:, k], transfer_2[:, k]) / math.sqrt(2.0) for k in (0, 1)]
    prob = np.abs(sum(branches)) ** 2 if coherent else sum(np.abs(branch) ** 2 for branch in branches)
    return JointDistribution(prob[0, 0], prob[0, 1], prob[1, 0], prob[1, 1])


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
