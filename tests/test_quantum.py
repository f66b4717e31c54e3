"""Closed-form quantum tables against frozen values and the amplitude oracle."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from helpers import (
    ATOL,
    KEY_SETTINGS,
    as_array,
    cell,
    for_series,
    marginal_photon1,
    marginal_photon2,
    oracle_table,
    settings_strategy,
)
from rnlsim import (
    JointDistribution,
    ModelVariant,
    PhaseSettings,
    amplitude_oracle,
    predict,
    qm_correlation,
    qm_single_pair_correlation,
    symmetric_joint,
)
from rnlsim.quantum import PROB_ATOL


def _straight_line(settings: PhaseSettings, sigma: int, omega: int) -> float:
    """P(sigma, omega) = 1/4 + (sigma*omega/8) [cos(phi11 - phi21 - phi22) - cos(phi11 - phi21 + phi22)]."""
    delta = settings.phi11 - settings.phi21
    fringe = math.cos(delta - settings.phi22) - math.cos(delta + settings.phi22)
    return 0.25 + (sigma * omega / 8.0) * fringe


@given(settings_strategy)
def test_straight_line_table_is_bit_exact(settings: PhaseSettings) -> None:
    entrywise = [
        _straight_line(settings, sigma, omega)
        for sigma, omega in ((1, 1), (1, -1), (-1, 1), (-1, -1))
    ]
    assert as_array(symmetric_joint(qm_correlation(settings))).tolist() == entrywise


def test_key_settings_joint_values() -> None:
    table = symmetric_joint(qm_correlation(KEY_SETTINGS))
    assert table.p_pp == pytest.approx(0.5, abs=ATOL)
    assert table.p_pm == pytest.approx(0.0, abs=ATOL)
    assert table.p_mp == pytest.approx(0.0, abs=ATOL)
    assert table.p_mm == pytest.approx(0.5, abs=ATOL)


def test_zero_final_phase_flattens_the_table() -> None:
    settings = PhaseSettings(0.3, -1.2, 0.0)
    for p in as_array(symmetric_joint(qm_correlation(settings))):
        assert p == pytest.approx(0.25, abs=ATOL)
    assert qm_correlation(settings) == pytest.approx(0.0, abs=ATOL)


def test_single_pair_correlation_values() -> None:
    assert qm_single_pair_correlation(PhaseSettings(0.7, 0.7, 0.0)) == pytest.approx(1.0, abs=ATOL)
    assert qm_single_pair_correlation(KEY_SETTINGS) == pytest.approx(0.0, abs=ATOL)
    assert qm_single_pair_correlation(PhaseSettings(0.0, math.pi, 0.0)) == pytest.approx(-1.0, abs=ATOL)
    # The intermediate stage reads phi11 and phi21 only.
    for phi22 in (0.0, 1.0, -2.5):
        assert qm_single_pair_correlation(PhaseSettings(0.9, 0.1, phi22)) == math.cos(0.9 - 0.1)


def test_distinguishable_table_is_flat() -> None:
    table = symmetric_joint(0.0)
    assert as_array(table).tolist() == [0.25, 0.25, 0.25, 0.25]
    assert table.correlation == 0.0


def test_non_finite_phase_rejected() -> None:
    with pytest.raises(ValueError):
        PhaseSettings(float("nan"), 0.0, 0.0)
    with pytest.raises(ValueError):
        PhaseSettings(0.0, float("inf"), 0.0)
    # PhaseSettings guards every stage: a non-finite phase never reaches one.
    with pytest.raises(ValueError, match="phi11 must be finite"):
        qm_single_pair_correlation(PhaseSettings(float("nan"), 0.0, 0.0))


def test_string_phases_are_refused() -> None:
    for value in ("0.5", "half", b"0.5", None, 1j):
        with pytest.raises(ValueError, match="phi11 must be a real number"):
            PhaseSettings(value, 0, 0)
        with pytest.raises(ValueError, match="phi22_deg must be a real number"):
            PhaseSettings.from_degrees(0, 0, value)
    # Real numbers of any type are still stored as floats.
    settings = PhaseSettings(np.float64(0.5), 0, np.int64(1))
    assert settings == PhaseSettings(0.5, 0.0, 1.0)
    assert all(type(phi) is float for phi in (settings.phi11, settings.phi21, settings.phi22))
    prediction = predict(settings, for_series(3), ModelVariant.QM)
    assert prediction.joint == symmetric_joint(qm_correlation(PhaseSettings(0.5, 0.0, 1.0)))


def test_single_pair_string_phases_are_refused() -> None:
    # PhaseSettings refuses the phases before the intermediate stage sees them.
    with pytest.raises(ValueError, match="phi11 must be a real number"):
        qm_single_pair_correlation(PhaseSettings("0.5", 0, 0))
    with pytest.raises(ValueError, match="phi21 must be a real number"):
        qm_single_pair_correlation(PhaseSettings(0.5, "0", 0))
    single = qm_single_pair_correlation(PhaseSettings(np.float32(0.5), 0, 0))
    assert single == qm_single_pair_correlation(PhaseSettings(0.5, 0.0, 0.0))


def test_string_probabilities_are_refused() -> None:
    with pytest.raises(ValueError, match="p_pp must be a real number"):
        JointDistribution("0.25", 0.25, 0.25, 0.25)
    table = JointDistribution(np.float64(0.25), 0.25, 0.25, 0.25)
    assert table == symmetric_joint(0.0)
    assert type(table.p_pp) is float


def test_from_degrees_conversion() -> None:
    settings = PhaseSettings.from_degrees(180.0, -90.0, 0.0)
    assert settings.phi11 == pytest.approx(math.pi)
    assert settings.phi21 == pytest.approx(-math.pi / 2.0)
    assert settings.phi22 == 0.0


def test_joint_distribution_validation() -> None:
    with pytest.raises(ValueError):
        JointDistribution(0.5, 0.5, 0.5, 0.5)  # sums to 2
    with pytest.raises(ValueError):
        JointDistribution(-0.1, 0.4, 0.4, 0.3)  # genuinely negative
    with pytest.raises(ValueError, match="p_pm = -1e-11 is negative"):
        JointDistribution(0.5 + 1e-11, -1e-11, 0.25, 0.25)  # beyond rounding, though it sums to 1
    # Entries are non-negative once clamped, so one above 1 + PROB_ATOL fails the sum check.
    for entry in (1.0 + 2e-12, 1.5):
        with pytest.raises(ValueError, match="probabilities sum to"):
            JointDistribution(entry, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="probabilities sum to"):
            JointDistribution(0.0, 0.0, 0.0, entry)
    JointDistribution(1.0 + PROB_ATOL / 2, 0.0, 0.0, 0.0)  # within the tolerance
    # A degenerate but normalized table is allowed (used for sampler tests).
    degenerate = JointDistribution(1.0, 0.0, 0.0, 0.0)
    assert degenerate.p_pp == 1.0
    # Rounding-level negatives clamp to zero.
    clamped = JointDistribution(0.5, -1e-17, 0.0, 0.5)
    assert clamped.p_pm == 0.0


@given(settings_strategy)
def test_table_normalization_and_fair_marginals(settings: PhaseSettings) -> None:
    table = symmetric_joint(qm_correlation(settings))
    assert abs(sum(as_array(table)) - 1.0) < ATOL
    for outcome in (1, -1):
        assert abs(marginal_photon1(table, outcome) - 0.5) < ATOL
        assert abs(marginal_photon2(table, outcome) - 0.5) < ATOL


@given(settings_strategy)
def test_correlation_consistent_with_table(settings: PhaseSettings) -> None:
    table = symmetric_joint(qm_correlation(settings))
    from_table = sum(
        sigma * omega * cell(table, sigma, omega) for sigma in (1, -1) for omega in (1, -1)
    )
    assert abs(from_table - qm_correlation(settings)) < ATOL


@given(settings_strategy)
def test_correlation_equals_product_of_sines(settings: PhaseSettings) -> None:
    expected = math.sin(settings.phi11 - settings.phi21) * math.sin(settings.phi22)
    assert abs(qm_correlation(settings) - expected) < ATOL


@given(settings_strategy, st.sampled_from(["phi11", "phi21", "phi22"]))
def test_two_pi_periodicity(settings: PhaseSettings, which: str) -> None:
    shifted = PhaseSettings(
        **{
            name: getattr(settings, name) + (2.0 * math.pi if name == which else 0.0)
            for name in ("phi11", "phi21", "phi22")
        }
    )
    table, shifted_table = symmetric_joint(qm_correlation(settings)), symmetric_joint(qm_correlation(shifted))
    for sigma in (1, -1):
        for omega in (1, -1):
            delta = cell(table, sigma, omega) - cell(shifted_table, sigma, omega)
            assert abs(delta) < ATOL


# --- amplitude oracle -------------------------------------------------------


@example(KEY_SETTINGS)
@given(settings_strategy)
def test_oracle_matches_closed_form(settings: PhaseSettings) -> None:
    closed = symmetric_joint(qm_correlation(settings))
    deviation = np.max(np.abs(as_array(amplitude_oracle(settings)) - as_array(closed)))
    assert deviation < ATOL


@given(settings_strategy)
def test_amplitudes_pin_the_intermediate_stage_sign(settings: PhaseSettings) -> None:
    # The helper's coherent final layout is amplitude_oracle's own table.
    assert np.max(np.abs(as_array(oracle_table(settings)) - as_array(amplitude_oracle(settings)))) < ATOL
    # Photon 2 detected right after BS21, output port 1 counting as +1: the
    # closed form's E = +cos(phi11 - phi21).  Port 0 as +1 would give -cos.
    table = oracle_table(settings, intermediate=True)
    closed = symmetric_joint(qm_single_pair_correlation(settings))
    assert np.max(np.abs(as_array(table) - as_array(closed))) < ATOL


@pytest.mark.parametrize("intermediate", [False, True])
@given(settings=settings_strategy)
def test_incoherent_source_branches_give_the_flat_table(intermediate: bool, settings: PhaseSettings) -> None:
    # A knowable origin adds the two source branches in probability: every
    # cell is 1/4, the table predict returns when a condition is dropped.
    table = oracle_table(settings, intermediate=intermediate, coherent=False)
    assert np.max(np.abs(as_array(table) - as_array(symmetric_joint(0.0)))) < ATOL
