"""Closed-form quantum tables against frozen values and the amplitude oracle."""

from __future__ import annotations

import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from helpers import (
    ATOL,
    KEY_SETTINGS,
    as_array,
    cell,
    fair_deviation,
    max_dev,
    oracle_table,
    settings_strategy,
)
from rnlsim import (
    JointDistribution,
    PhaseSettings,
    amplitude_oracle,
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
    # Entries are non-negative, so one above 1 + PROB_ATOL fails the sum check.
    for entry in (1.0 + 2e-12, 1.5):
        with pytest.raises(ValueError, match="probabilities sum to"):
            JointDistribution(entry, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="probabilities sum to"):
            JointDistribution(0.0, 0.0, 0.0, entry)
    JointDistribution(1.0 + PROB_ATOL / 2, 0.0, 0.0, 0.0)  # within the tolerance
    # A degenerate but normalized table is allowed (used for sampler tests).
    degenerate = JointDistribution(1.0, 0.0, 0.0, 0.0)
    assert degenerate.p_pp == 1.0
    # PROB_ATOL bounds the sum only: a negative entry is refused however small.
    for tiny in (-1e-17, -5e-324):
        with pytest.raises(ValueError, match=f"^p_pm = {tiny!r} is negative$"):
            JointDistribution(0.5, tiny, 0.0, 0.5)
    # -0.0 is not below 0.0, and is kept as given.
    signed_zero = JointDistribution(0.5, -0.0, 0.0, 0.5)
    assert math.copysign(1.0, signed_zero.p_pm) == -1.0


@given(st.floats(min_value=-1.0, max_value=1.0))
@example(-1.0)
@example(1.0)
def test_symmetric_joint_never_has_a_negative_entry(e: float) -> None:
    # Every correlation a stage can return lies in [-1, 1], so no model table is
    # refused, and its table's correlation stays there for correlation_stderr.
    table = symmetric_joint(e)
    assert min(as_array(table)) >= 0.0
    assert -1.0 <= table.correlation <= 1.0


@given(settings_strategy)
def test_table_normalization_and_fair_marginals(settings: PhaseSettings) -> None:
    # Every producer of a table but predict, whose tables the rule property checks.
    for table in (
        symmetric_joint(qm_correlation(settings)),
        amplitude_oracle(settings),
        symmetric_joint(qm_single_pair_correlation(settings)),
        symmetric_joint(0.0),
    ):
        assert fair_deviation(table) < ATOL


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
# The corners of a 13-point grid of [0, 2 pi) in each phase.
@example(PhaseSettings(0.0, 0.0, 0.0))
@example(PhaseSettings(*3 * (24.0 * math.pi / 13.0,)))
@given(settings_strategy)
def test_oracle_matches_closed_form(settings: PhaseSettings) -> None:
    assert max_dev(amplitude_oracle(settings), symmetric_joint(qm_correlation(settings))) < ATOL


@given(settings_strategy)
def test_amplitudes_pin_the_intermediate_stage_sign(settings: PhaseSettings) -> None:
    # The helper's coherent final layout is amplitude_oracle's own table.
    assert max_dev(oracle_table(settings), amplitude_oracle(settings)) < ATOL
    # Photon 2 detected right after BS21, output port 1 counting as +1: the
    # closed form's E = +cos(phi11 - phi21).  Port 0 as +1 would give -cos.
    assert max_dev(oracle_table(settings, intermediate=True), symmetric_joint(qm_single_pair_correlation(settings))) < ATOL


@pytest.mark.parametrize("intermediate", [False, True])
@given(settings=settings_strategy)
def test_incoherent_source_branches_give_the_flat_table(intermediate: bool, settings: PhaseSettings) -> None:
    # A knowable origin adds the two source branches in probability: every
    # cell is 1/4, the table predict returns when a condition is dropped.
    assert max_dev(oracle_table(settings, intermediate=intermediate, coherent=False), symmetric_joint(0.0)) < ATOL
