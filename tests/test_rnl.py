"""Timing-dependent prediction rules: the conditionals behind them, dispatch, vanishing theorem."""

from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    ATOL,
    KEY_SETTINGS,
    as_array,
    cell,
    conditional,
    factorized_table,
    for_series,
    marginal_photon1,
    marginal_photon2,
    oracle_table,
    phases,
    settings_strategy,
    theorem_product,
)
from rnlsim import (
    ModelVariant,
    PhaseSettings,
    PhotonOneLabel,
    PhotonTwoLabel,
    TimingAssignment,
    predict,
    qm_correlation,
    qm_single_pair_correlation,
    symmetric_joint,
)
from rnlsim import rnl

ALL_PAIRINGS = (
    TimingAssignment(PhotonOneLabel.B11, PhotonTwoLabel.B21),
    TimingAssignment(PhotonOneLabel.B11, PhotonTwoLabel.B22),
    TimingAssignment(PhotonOneLabel.A11_21, PhotonTwoLabel.B21),
    TimingAssignment(PhotonOneLabel.A11_21, PhotonTwoLabel.B22),
    TimingAssignment(PhotonOneLabel.A11_22, PhotonTwoLabel.B22),
    TimingAssignment(PhotonOneLabel.B11, PhotonTwoLabel.A22, bs21_before=False),
    TimingAssignment(PhotonOneLabel.A11_22, PhotonTwoLabel.A22),
    TimingAssignment(PhotonOneLabel.A11_21, PhotonTwoLabel.A22),
)


def _max_dev(a, b) -> float:
    return float(np.max(np.abs(as_array(a) - as_array(b))))


def _table(settings: PhaseSettings, timing: TimingAssignment, variant: ModelVariant, **conditions):
    return predict(settings, timing, variant, **conditions).joint


def _conditional(settings: PhaseSettings, which) -> dict[tuple[int, int], float]:
    """P(outcome | given) keyed (outcome, given), both indistinguishability conditions on."""
    plus_plus, minus_plus, plus_minus, minus_minus = conditional(settings, which, True, True)
    return {(1, 1): plus_plus, (-1, 1): minus_plus, (1, -1): plus_minus, (-1, -1): minus_minus}


# --- conditionals -------------------------------------------------------------


def test_conditional_equal_phases_is_deterministic() -> None:
    settings = PhaseSettings(0.7, 0.7, 1.1)
    table = _conditional(settings, PhotonOneLabel.A11_21)
    assert table[1, 1] == pytest.approx(1.0, abs=ATOL)
    assert table[-1, 1] == pytest.approx(0.0, abs=ATOL)
    assert table[-1, -1] == pytest.approx(1.0, abs=ATOL)


def test_conditional_orthogonal_phases_is_flat() -> None:
    settings = PhaseSettings(math.radians(45.0), math.radians(-45.0), 1.1)
    table = _conditional(settings, PhotonOneLabel.A11_21)
    for outcome in (1, -1):
        for given in (1, -1):
            assert table[outcome, given] == pytest.approx(0.5, abs=ATOL)


@given(settings_strategy, st.sampled_from([PhotonOneLabel.A11_21, PhotonOneLabel.A11_22, PhotonTwoLabel.A22]))
def test_conditional_columns_sum_to_one(settings: PhaseSettings, which) -> None:
    table = _conditional(settings, which)
    for given in (1, -1):
        assert abs(table[1, given] + table[-1, given] - 1.0) < ATOL


@given(settings_strategy)
def test_summing_flat_before_statistics_reproduces_the_mixed_tables(
    settings: PhaseSettings,
) -> None:
    # The defining requirement of the conditionals: against the flat before
    # table, the (non-before, before) experiment must give back its quantum
    # table.  Checked for all three non-before impacts.
    flat = symmetric_joint(0.0)
    cond_21 = _conditional(settings, PhotonOneLabel.A11_21)
    cond_22 = _conditional(settings, PhotonOneLabel.A11_22)
    cond_a22 = _conditional(settings, PhotonTwoLabel.A22)
    intermediate = symmetric_joint(qm_single_pair_correlation(settings))
    final = symmetric_joint(qm_correlation(settings))
    for out in (1, -1):
        for given in (1, -1):
            summed_21 = sum(cell(flat, sigma, given) * cond_21[out, given] for sigma in (1, -1))
            assert abs(summed_21 - cell(intermediate, out, given)) < ATOL
            summed_22 = sum(cell(flat, sigma, given) * cond_22[out, given] for sigma in (1, -1))
            assert abs(summed_22 - cell(final, out, given)) < ATOL
            summed_a22 = sum(cell(flat, given, omega) * cond_a22[out, given] for omega in (1, -1))
            assert abs(summed_a22 - cell(final, given, out)) < ATOL


@given(settings_strategy)
def test_conditional_ignores_the_dropped_before_value(settings: PhaseSettings) -> None:
    # Re-derive each conditional with the partner pair's other before value
    # explicit: column extraction from the mixed table renormalized by that
    # value's marginal.  The result cannot depend on the dropped index.
    final = symmetric_joint(qm_correlation(settings))
    cond_a22 = _conditional(settings, PhotonTwoLabel.A22)
    for out in (1, -1):
        for given_sigma in (1, -1):
            for dropped_omega in (1, -1):
                unreduced = cell(final, given_sigma, out) / marginal_photon1(final, given_sigma)
                assert abs(unreduced - cond_a22[out, given_sigma]) < ATOL
    cond_22 = _conditional(settings, PhotonOneLabel.A11_22)
    for out in (1, -1):
        for given_omega in (1, -1):
            unreduced = cell(final, out, given_omega) / marginal_photon2(final, given_omega)
            assert abs(unreduced - cond_22[out, given_omega]) < ATOL


# --- dispatch -----------------------------------------------------------------


def _expected_correlation(
    pairing: tuple[PhotonOneLabel, PhotonTwoLabel],
    variant: ModelVariant,
    settings: PhaseSettings,
    condition1: bool,
    condition2: bool,
) -> float:
    """The paper's correlation per pairing, variant and condition, in plain math."""
    qm = math.sin(settings.phi11 - settings.phi21) * math.sin(settings.phi22) if condition2 else 0.0
    label1, label2 = pairing
    if variant is ModelVariant.QM:
        return qm
    if label1 is PhotonOneLabel.B11 and label2 is not PhotonTwoLabel.A22:
        return 0.0  # two before impacts
    if pairing == (PhotonOneLabel.A11_21, PhotonTwoLabel.B21):
        return math.cos(settings.phi11 - settings.phi21) if condition1 else 0.0
    if pairing == (PhotonOneLabel.A11_21, PhotonTwoLabel.B22):
        return 0.0  # photon 2 before at both splitters, summed over its BS21 port
    if label1 is PhotonOneLabel.B11 or label2 is not PhotonTwoLabel.A22:
        return qm  # final mixed pairings
    if variant is ModelVariant.RNL_ALTERNATIVE and label1 is PhotonOneLabel.A11_21:
        return qm  # the alternative rule on the series-3 pairing
    return 0.0  # two non-before impacts


@pytest.mark.parametrize("variant", list(ModelVariant), ids=lambda v: v.value)
@pytest.mark.parametrize("timing", ALL_PAIRINGS, ids=lambda t: f"{t.label1.value}-{t.label2.value}")
def test_every_table_is_the_fair_marginal_table_of_its_correlation(
    timing: TimingAssignment, variant: ModelVariant
) -> None:
    fixed = ((0.8, 0.1, 2.0), (-2.5, 1.3, -0.4), (0.2, 0.2, 0.0), (0.9, 0.1, 0.0))  # intermediate E = 1 at (0.2, 0.2)
    for settings in (KEY_SETTINGS, *(PhaseSettings(*phis) for phis in fixed)):
        for condition1 in (True, False):
            for condition2 in (True, False):
                e = _expected_correlation(timing.pairing, variant, settings, condition1, condition2)
                prediction = predict(settings, timing, variant, condition1=condition1, condition2=condition2)
                expected = ((1 + e) / 4, (1 - e) / 4, (1 - e) / 4, (1 + e) / 4)
                assert as_array(prediction.joint) == pytest.approx(expected, abs=ATOL)
                assert prediction.correlation == pytest.approx(e, abs=ATOL)
        # The pairing's stored stage is the E it has with both conditions on.
        e = _expected_correlation(timing.pairing, variant, settings, True, True)
        assert rnl._RULES[variant][timing.pairing](settings) == pytest.approx(e, abs=ATOL)


def test_every_label_pair_is_refused_or_predicted() -> None:
    predicted = 0
    for label1, label2 in itertools.product(PhotonOneLabel, PhotonTwoLabel):
        try:
            timing = TimingAssignment(label1, label2)
        except ValueError:
            assert (label1, label2) == (PhotonOneLabel.A11_22, PhotonTwoLabel.B21)
            continue
        for variant in ModelVariant:
            predict(KEY_SETTINGS, timing, variant)
        predicted += 1
    assert predicted == len(ALL_PAIRINGS) == 8


def test_each_variant_has_one_rule_table_over_the_accepted_pairings() -> None:
    accepted = set(itertools.product(PhotonOneLabel, PhotonTwoLabel)) - {(PhotonOneLabel.A11_22, PhotonTwoLabel.B21)}
    assert set(rnl._RULES) == set(ModelVariant)
    for variant, rules in rnl._RULES.items():
        assert set(rules) == accepted and len(rules) == 8, variant
    standard = rnl._RULES[ModelVariant.RNL_STANDARD]
    alternative = rnl._RULES[ModelVariant.RNL_ALTERNATIVE]
    series3 = (PhotonOneLabel.A11_21, PhotonTwoLabel.A22)
    assert {pairing for pairing in accepted if alternative[pairing] is not standard[pairing]} == {series3}
    assert standard[series3] is rnl._FLAT and alternative[series3] is rnl._FINAL
    assert all(stage is rnl._FINAL for stage in rnl._RULES[ModelVariant.QM].values())


def test_predict_validates_inputs() -> None:
    timing = for_series(3)
    with pytest.raises(ValueError):
        _table(KEY_SETTINGS, timing, "QM")
    with pytest.raises(ValueError):
        _table(KEY_SETTINGS, "series 3", ModelVariant.QM)
    # Series 3 is a flat stage under RNL_STANDARD, which reads no phase: the
    # settings are refused there too, not only where a table needs them.
    for settings in (None, (0.1, 0.2, 0.3)):
        for variant in ModelVariant:
            with pytest.raises(ValueError, match="settings must be a PhaseSettings"):
                _table(settings, timing, variant)


@given(settings_strategy)
def test_each_stage_is_the_amplitude_table_of_its_layout(settings: PhaseSettings) -> None:
    """Conditions as physics: a dropped condition is the oracle's incoherent table.

    For every accepted pairing, variant and condition pair, a final stage is
    oracle_table in the final layout, coherent iff condition2; an intermediate
    stage is its intermediate layout, coherent iff condition1; the flat stage
    is the incoherent table of either layout.  Bound: ATOL (1e-12) per entry.
    """
    oracle = {
        (intermediate, coherent): oracle_table(settings, intermediate, coherent)
        for intermediate, coherent in itertools.product((False, True), repeat=2)
    }
    for variant, timing in itertools.product(ModelVariant, ALL_PAIRINGS):
        stage = rnl._RULES[variant][timing.pairing]
        for condition1, condition2 in itertools.product((True, False), repeat=2):
            got = _table(settings, timing, variant, condition1=condition1, condition2=condition2)
            if stage is rnl._FLAT:
                expected = [oracle[False, False], oracle[True, False]]
            elif stage is rnl._INTERMEDIATE:
                expected = [oracle[True, condition1]]
            else:
                assert stage is rnl._FINAL
                expected = [oracle[False, condition2]]
            for table in expected:
                assert _max_dev(got, table) < ATOL


# --- the two-non-before theorem ------------------------------------------------


@given(settings_strategy)
def test_two_nonbefore_tables_equal_the_factorized_derivation(settings: PhaseSettings) -> None:
    for label1 in (PhotonOneLabel.A11_22, PhotonOneLabel.A11_21):
        timing = TimingAssignment(label1, PhotonTwoLabel.A22)
        for condition1, condition2 in itertools.product((True, False), repeat=2):
            conditions = {"condition1": condition1, "condition2": condition2}
            got = predict(settings, timing, ModelVariant.RNL_STANDARD, **conditions)
            assert _max_dev(got.joint, factorized_table(settings, label1, **conditions)) < ATOL
            # The product form vanishes identically, so this is |E| < ATOL too.
            assert abs(got.correlation - theorem_product(settings, label1)) < ATOL


def test_theorem_product_sweep() -> None:
    rng = np.random.default_rng(20240814)
    for _ in range(1000):
        settings = PhaseSettings(*rng.uniform(-2.0 * math.pi, 2.0 * math.pi, size=3))
        for label1 in (PhotonOneLabel.A11_22, PhotonOneLabel.A11_21):
            assert abs(theorem_product(settings, label1)) < ATOL


def test_theorem_factors_are_the_mixed_correlations() -> None:
    # The product vanishes through its first factor, never because the
    # mixed-experiment factors vanish.
    settings = PhaseSettings(0.3, -0.4, 1.4)
    assert abs(qm_correlation(settings)) > 0.1
    assert abs(qm_single_pair_correlation(settings)) > 0.1
    assert theorem_product(settings, PhotonOneLabel.A11_21) == 0.0


# --- indistinguishability conditions -------------------------------------------


def test_condition_flags_must_be_bools() -> None:
    # A truthy string would run with the condition on: QM at series 3 gives
    # E = 1 with condition2 on and E = 0 with it off.
    for value in ("false", "true", 0, 1, None, np.True_):
        for name in ("condition1", "condition2"):
            for timing in (for_series(3), TimingAssignment(PhotonOneLabel.B11, PhotonTwoLabel.B22)):
                with pytest.raises(ValueError, match=f"{name} must be true or false"):
                    predict(KEY_SETTINGS, timing, ModelVariant.QM, **{name: value})
    assert predict(KEY_SETTINGS, for_series(3), ModelVariant.QM, condition2=False).correlation == 0.0


# --- predict facade -------------------------------------------------------------


def test_predict_reports_the_table_correlation() -> None:
    timing = for_series(2)
    prediction = predict(KEY_SETTINGS, timing, ModelVariant.RNL_STANDARD)
    assert prediction.correlation == pytest.approx(1.0, abs=ATOL)
    by_hand = sum(
        sigma * omega * cell(prediction.joint, sigma, omega)
        for sigma in (1, -1)
        for omega in (1, -1)
    )
    assert prediction.correlation == pytest.approx(by_hand, abs=ATOL)


# --- memoized rule evaluation -----------------------------------------------------

signed_phases = st.one_of(st.sampled_from((0.0, -0.0)), phases)
MEMO_CASES = [
    (timing, variant, condition1, condition2)
    for timing in ALL_PAIRINGS
    for variant in ModelVariant
    for condition1 in (True, False)
    for condition2 in (True, False)
]


def _bits(prediction) -> tuple[str, ...]:
    return tuple(float(p).hex() for p in (*as_array(prediction.joint), prediction.correlation))


def _fresh(settings: PhaseSettings, timing, variant, condition1: bool, condition2: bool):
    rnl._evaluate.cache_clear()
    return predict(settings, timing, variant, condition1=condition1, condition2=condition2)


@given(st.builds(PhaseSettings, signed_phases, signed_phases, signed_phases))
def test_memoized_predictions_equal_fresh_rule_calls(settings: PhaseSettings) -> None:
    phis = (settings.phi11, settings.phi21, settings.phi22)
    # The same phases with every zero's sign flipped share the memo's keys;
    # each sibling moves one phase, so a key without it returns a stale table.
    flipped = PhaseSettings(*(-phi if phi == 0.0 else phi for phi in phis))
    siblings = [
        PhaseSettings(*(phi + 0.5 if j == i else phi for j, phi in enumerate(phis))) for i in range(3)
    ]
    memoized = [
        (s, (timing, variant, c1, c2), predict(s, timing, variant, condition1=c1, condition2=c2))
        for s in (settings, flipped, *siblings)
        for timing, variant, c1, c2 in MEMO_CASES
    ]
    for s, case, got in memoized:
        assert _bits(got) == _bits(_fresh(s, *case))
        # Every stage's table is 1/4 + (sigma*omega/4) E, symmetric bit for bit.
        assert got.joint.p_pp == got.joint.p_mm and got.joint.p_pm == got.joint.p_mp


def test_flat_tables_never_reach_the_memo(monkeypatch: pytest.MonkeyPatch) -> None:
    stages = []
    evaluate = rnl._evaluate

    def counting_evaluate(stage, *phases):
        stages.append(stage)
        return evaluate(stage, *phases)

    monkeypatch.setattr(rnl, "_evaluate", counting_evaluate)
    flat = rnl._FLAT_PREDICTION.joint
    for timing, variant, condition1, condition2 in MEMO_CASES:
        stages.clear()
        joint = _table(KEY_SETTINGS, timing, variant, condition1=condition1, condition2=condition2)
        # At most one quantum stage is evaluated, and only with its condition on.
        assert stages in ([], [rnl._INTERMEDIATE], [rnl._FINAL])
        assert condition1 or rnl._INTERMEDIATE not in stages
        assert condition2 or rnl._FINAL not in stages
        assert (joint is flat) == (not stages)
        if variant is ModelVariant.QM:
            assert stages == ([rnl._FINAL] if condition2 else [])
        if variant is ModelVariant.RNL_STANDARD and rnl._RULES[variant][timing.pairing] is rnl._FLAT:
            assert stages == []


def test_memo_stays_bounded_and_exact() -> None:
    rnl._evaluate.cache_clear()
    bound = rnl._evaluate.cache_info().maxsize
    timing = for_series(3)
    cases = [
        (PhaseSettings(0.001 * k, -0.002 * k, 0.003 * k), variant)
        for k in range(2 * bound)
        for variant in ModelVariant
    ]
    memoized = []
    for settings, variant in cases:
        memoized.append(predict(settings, timing, variant))
        assert rnl._evaluate.cache_info().currsize <= bound
    assert rnl._evaluate.cache_info().currsize == bound
    # Newest first: the late settings are hits, the evicted early ones are recomputed.
    for (settings, variant), got in reversed(list(zip(cases, memoized))):
        assert _bits(predict(settings, timing, variant)) == _bits(got)
    for (settings, variant), got in zip(cases, memoized):
        assert _bits(got) == _bits(_fresh(settings, timing, variant, True, True))


@given(settings_strategy)
def test_predictions_are_shared_frozen_and_carry_their_table_correlation(
    settings: PhaseSettings,
) -> None:
    for timing, variant, condition1, condition2 in MEMO_CASES:
        conditions = dict(condition1=condition1, condition2=condition2)
        first = predict(settings, timing, variant, **conditions)
        assert first.correlation == first.joint.correlation
        # A repeated call hands back the memoized object itself.
        again = predict(settings, timing, variant, **conditions)
        assert again == first and again is first
        with pytest.raises(dataclasses.FrozenInstanceError):
            first.correlation = 0.5
        with pytest.raises(dataclasses.FrozenInstanceError):
            first.joint.p_pp = 0.5


def test_int_and_float_phases_give_one_table() -> None:
    # PhaseSettings stores floats, so int phases take float arithmetic:
    # 2^53 - (-1) rounds to 2^53 either way.
    timing = for_series(3)
    as_int = PhaseSettings(2**53, -1, 1)
    as_float = PhaseSettings(2.0**53, -1.0, 1.0)
    assert as_int == as_float
    int_first = predict(as_int, timing, ModelVariant.QM)
    assert _bits(int_first) == _bits(predict(as_float, timing, ModelVariant.QM))
    assert _bits(int_first) == _bits(_fresh(as_float, timing, ModelVariant.QM, True, True))
