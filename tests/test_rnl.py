"""Timing-dependent prediction rules: the multisimultaneity rule behind every row, dispatch, conditions, memo."""

from __future__ import annotations

import dataclasses
import itertools
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
    for_series,
    max_dev,
    oracle_table,
    phases,
    rule_table,
    settings_strategy,
)
from rnlsim import (
    ModelVariant,
    PhaseSettings,
    PhotonOneLabel,
    PhotonTwoLabel,
    TimingAssignment,
    amplitude_oracle,
    predict,
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
    # label2 = a22 leaves bs21_before free, and a moving BS21 can flip it in each a22 pairing.
    TimingAssignment(PhotonOneLabel.B11, PhotonTwoLabel.A22, bs21_before=True),
    TimingAssignment(PhotonOneLabel.A11_22, PhotonTwoLabel.A22, bs21_before=False),
    TimingAssignment(PhotonOneLabel.A11_21, PhotonTwoLabel.A22, bs21_before=False),
)


def _timing_id(timing: TimingAssignment) -> str:
    # Each a22 pairing comes twice; its first row keeps the plain id.
    first = next(row for row in ALL_PAIRINGS if row.pairing == timing.pairing)
    flipped = "" if timing == first else ("-bs21-before" if timing.bs21_before else "-bs21-not-before")
    return f"{timing.label1.value}-{timing.label2.value}{flipped}"


def _table(settings: PhaseSettings, timing: TimingAssignment, variant: ModelVariant, **conditions):
    return predict(settings, timing, variant, **conditions).joint


# --- the multisimultaneity rule and dispatch -------------------------------------


def _expected_table(settings: PhaseSettings, pairing, variant: ModelVariant, condition1: bool, condition2: bool):
    """rule_table, but for its two exceptions: QM everywhere and RNL_ALTERNATIVE on (a11[21], a22) are final."""
    series3 = (PhotonOneLabel.A11_21, PhotonTwoLabel.A22)
    if variant is ModelVariant.QM or (variant is ModelVariant.RNL_ALTERNATIVE and pairing == series3):
        return oracle_table(settings, coherent=condition2)
    return rule_table(settings, pairing, condition1, condition2)


@pytest.mark.parametrize("variant", list(ModelVariant), ids=lambda v: v.value)
@pytest.mark.parametrize("timing", ALL_PAIRINGS, ids=_timing_id)
@given(settings=settings_strategy)
@example(settings=KEY_SETTINGS)
@example(settings=PhaseSettings(0.8, 0.1, 2.0))
@example(settings=PhaseSettings(-2.5, 1.3, -0.4))
@example(settings=PhaseSettings(0.2, 0.2, 0.0))  # intermediate E = 1
@example(settings=PhaseSettings(0.9, 0.1, 0.0))
def test_every_table_is_the_fair_marginal_table_of_its_correlation(
    timing: TimingAssignment, variant: ModelVariant, settings: PhaseSettings
) -> None:
    """predict gives the rule's table, bar its two exceptions, under every condition pair.

    Bound: ATOL (1e-12) per entry, on E, on the total and on each marginal.
    The expected table is the fair-marginal table of its correlation, and the
    pairing's stored stage is the E it has with both conditions on.
    """
    for condition1, condition2 in itertools.product((True, False), repeat=2):
        expected = _expected_table(settings, timing.pairing, variant, condition1, condition2)
        e = expected.correlation
        assert as_array(expected) == pytest.approx(((1 + e) / 4, (1 - e) / 4, (1 - e) / 4, (1 + e) / 4), abs=ATOL)
        prediction = predict(settings, timing, variant, condition1=condition1, condition2=condition2)
        assert max_dev(prediction.joint, expected) < ATOL
        assert fair_deviation(prediction.joint) < ATOL
        assert prediction.correlation == pytest.approx(e, abs=ATOL)
        if condition1 and condition2:
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
    assert predicted == len({timing.pairing for timing in ALL_PAIRINGS}) == 8


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


def _predict(settings: PhaseSettings, timing, variant, condition1: bool, condition2: bool):
    return predict(settings, timing, variant, condition1=condition1, condition2=condition2)


def _fresh(settings: PhaseSettings, *case):
    rnl._evaluate.cache_clear()
    return _predict(settings, *case)


@given(st.builds(PhaseSettings, signed_phases, signed_phases, signed_phases))
def test_memoized_predictions_equal_fresh_rule_calls(settings: PhaseSettings) -> None:
    """Memoized predictions are fresh rule calls bit for bit."""
    phis = (settings.phi11, settings.phi21, settings.phi22)
    # The same phases with every zero's sign flipped share the memo's keys;
    # each sibling moves one phase, so a key without it returns a stale table.
    flipped = PhaseSettings(*(-phi if phi == 0.0 else phi for phi in phis))
    siblings = [
        PhaseSettings(*(phi + 0.5 if j == i else phi for j, phi in enumerate(phis))) for i in range(3)
    ]
    memoized = [(s, case, _predict(s, *case)) for s in (settings, flipped, *siblings) for case in MEMO_CASES]
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
    for case in MEMO_CASES:
        first = _predict(settings, *case)
        assert first.correlation == first.joint.correlation
        # A repeated call hands back the memoized object itself.
        again = _predict(settings, *case)
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


# --- the phase symmetries --------------------------------------------------------


def _phase_tables(settings: PhaseSettings) -> dict:
    """Every table the phases set, each with whether its stage is final.

    predict's for each MEMO_CASES row, amplitude_oracle's, and rule_table's for
    each accepted pairing and condition pair, whose stage is RNL_STANDARD's.
    """
    tables = {"amplitude_oracle": (amplitude_oracle(settings), True)}
    for timing, variant, condition1, condition2 in MEMO_CASES:
        final = condition2 and rnl._RULES[variant][timing.pairing] is rnl._FINAL
        prediction = _predict(settings, timing, variant, condition1, condition2)
        tables[timing, variant, condition1, condition2] = (prediction.joint, final)
        if variant is ModelVariant.RNL_STANDARD:
            conditions = (condition1, condition2)
            tables["rule_table", timing.pairing, *conditions] = (rule_table(settings, timing.pairing, *conditions), final)
    return tables


@given(settings=settings_strategy, d=phases)
@example(settings=KEY_SETTINGS, d=math.pi)
@example(settings=PhaseSettings(0.8, 0.1, 2.0), d=-25.0)
def test_phases_act_through_their_difference_and_the_final_phase_alone(settings: PhaseSettings, d: float) -> None:
    """Every stage reads phi11 - phi21 and phi22, and only the final one reads phi22, as sin(phi22).

    So adding d to phi11 and phi21 keeps every table, while phi22 -> phi22 + pi
    and phi22 -> -phi22 negate each final-stage E, which swaps photon 2's
    outcomes, and keep the intermediate and flat tables.  Bound: ATOL per entry.
    """
    tables = _phase_tables(settings)
    shifted = _phase_tables(PhaseSettings(settings.phi11 + d, settings.phi21 + d, settings.phi22))
    for where, (table, _) in tables.items():
        assert max_dev(shifted[where][0], table) < ATOL, where
    for phi22 in (settings.phi22 + math.pi, -settings.phi22):
        mirrored = _phase_tables(PhaseSettings(settings.phi11, settings.phi21, phi22))
        for where, (table, final) in tables.items():
            expected = as_array(table)[[1, 0, 3, 2]] if final else as_array(table)
            assert abs(as_array(mirrored[where][0]) - expected).max() < ATOL, where
