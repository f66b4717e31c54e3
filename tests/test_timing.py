"""Impact classification against the boost oracle, geometries and presets."""

from __future__ import annotations

import copy
import dataclasses
import enum
import gc
import itertools
import math
import pickle
import weakref

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from helpers import ATOL, KEY_SETTINGS, for_series, marginal_photon1, marginal_photon2, reference, settings_strategy
from rnlsim import (
    SPEED_OF_LIGHT,
    AmbiguousScheduleError,
    ExperimentGeometry,
    ModelVariant,
    PhaseSettings,
    PhotonOneLabel,
    PhotonTwoLabel,
    RunConfig,
    TimingAssignment,
    classify,
    compare_report,
    predict,
    schedule_from_geometry,
    series_preset,
)
from rnlsim import rnl, timing
from rnlsim.timing import _SERIES_BY_PAIRING

frame_time = reference.frame_time


def _labels(geometry: ExperimentGeometry) -> tuple[str, str, bool]:
    assignment = classify(geometry)
    return (assignment.label1.value, assignment.label2.value, assignment.bs21_before)


def _reference_labels(geometry: ExperimentGeometry):
    """bench/reference.py's labels for the geometry, from its brute-force boosts."""
    return reference.reference_labels(
        geometry.effective_length_bs11,
        geometry.length_bs21,
        geometry.length_bs22,
        geometry.beta_bs11,
        geometry.beta_bs21,
        geometry.beta_bs22,
    )


# --- the boost oracle ----------------------------------------------------------


def test_boost_identity_at_rest() -> None:
    assert frame_time(1.0, 123.0, 0.0) == 1.0


def test_boost_pure_time_dilation() -> None:
    assert frame_time(1.0, 0.0, 0.6) == pytest.approx(1.25, abs=ATOL)


def test_boost_with_position_offset() -> None:
    # x chosen so that t - beta x / c = t (1 - beta^2), i.e. boosted time t / gamma.
    beta = 0.6
    assert frame_time(1.0, beta * SPEED_OF_LIGHT * 1.0, beta) == pytest.approx(0.8, abs=ATOL)


@pytest.mark.parametrize("beta", [1.0, -1.0, 1.5, float("nan"), float("inf")])
def test_boost_rejects_unphysical_beta(beta: float) -> None:
    # No frame moves at |beta| >= 1, so no splitter may.
    for name in ("beta_bs11", "beta_bs21", "beta_bs22"):
        with pytest.raises(ValueError, match=name):
            ExperimentGeometry(2.0, 1.0, 3.0, **{name: beta})


@given(
    st.floats(min_value=-1e-6, max_value=1e-6),
    st.floats(min_value=1e-15, max_value=1e-6),
    st.booleans(),
    st.floats(min_value=-100.0, max_value=100.0),
    st.floats(min_value=-0.99, max_value=0.99),
)
def test_same_position_ordering_is_boost_invariant(
    t_a: float, gap: float, later: bool, x: float, beta: float
) -> None:
    # Two events at one position with a resolvable time gap (at or above the
    # classification guard band): their order is frame-independent.
    t_b = t_a + gap if later else t_a - gap
    boosted_order = frame_time(t_a, x, beta) - frame_time(t_b, x, beta)
    assert (t_a > t_b) == (boosted_order > 0)


# The BS11-frame gap is 1.4e-15 s with gamma = 5/3, and 0.84e-15 s without it.
@example(0.44444430454129735, 4.0, 5.0, 0.8, 0.0, 0.0)
@example(1.5e308, 1.6e308, 1.7e308, 0.9, -0.9, 0.9)
@given(
    st.floats(min_value=1e-3, max_value=1e3),
    st.floats(min_value=1e-3, max_value=1e3),
    st.floats(min_value=1e-3, max_value=1e3),
    st.floats(min_value=-0.999, max_value=0.999),
    st.floats(min_value=-0.999, max_value=0.999),
    st.floats(min_value=-0.999, max_value=0.999),
)
def test_closed_form_gaps_equal_the_boosted_frame_time_gaps(
    l11: float, l21: float, l22: float, beta11: float, beta21: float, beta22: float
) -> None:
    # Each gap is a difference of two terms gamma t (1 +- beta); both ways of
    # computing it round each term within a few ulps, so they agree to 16 ulps
    # of the larger term, whatever the cancellation.
    times = (l11 / SPEED_OF_LIGHT, l21 / SPEED_OF_LIGHT, l22 / SPEED_OF_LIGHT)
    gaps = timing._frame_gaps(*times, beta11, beta21, beta22)
    expected = reference.reference_labels(l11, l21, l22, beta11, beta21, beta22).gaps_s
    frames = ((beta11, 0, 1), (beta11, 0, 2), (beta21, 0, 1), (beta22, 0, 2))
    for gap, oracle, (beta, first, second) in zip(gaps, expected, frames):
        gamma = 1.0 / math.sqrt(1.0 - beta * beta)
        scale = gamma * 2.0 * max(times[first], times[second])
        assert math.isfinite(gap)
        assert abs(gap - oracle) <= 16 * 2.0**-52 * scale


# --- classification ------------------------------------------------------------


def test_geometry_rejects_photon2_order_violation() -> None:
    # Photon 2's impacts lie on one light ray: BS22's leg must be the longer,
    # whatever the splitters' velocities.
    for betas in ((0.0, 0.0, 0.0), (0.0, 0.9, -0.9)):
        with pytest.raises(ValueError, match="BS21 before BS22") as error:
            ExperimentGeometry(2.0, 3.0, 1.0, 0.0, *betas)
        # A reversal is a bad input, not an ambiguity to refuse later.
        assert not isinstance(error.value, AmbiguousScheduleError)


def test_rest_orderings_map_to_series() -> None:
    cases = {
        (3.0, 1.0, 2.0): (PhotonOneLabel.A11_22, PhotonTwoLabel.B22, True, 1),
        (1.0, 2.0, 3.0): (PhotonOneLabel.B11, PhotonTwoLabel.A22, False, 2),
        (2.0, 1.0, 3.0): (PhotonOneLabel.A11_21, PhotonTwoLabel.A22, True, 3),
        # Arrival times exactly the guard band apart, and three times it, still decide.
        (3e-7, 5.99792458e-07, 1e-3): (PhotonOneLabel.B11, PhotonTwoLabel.A22, False, 2),
        (3e-7, 1.199377374e-06, 1e-3): (PhotonOneLabel.B11, PhotonTwoLabel.A22, False, 2),
    }
    assert 5.99792458e-07 / SPEED_OF_LIGHT - 3e-7 / SPEED_OF_LIGHT == timing.GUARD_BAND_S
    assert 1.199377374e-06 / SPEED_OF_LIGHT - 3e-7 / SPEED_OF_LIGHT == 3e-15
    for lengths, (label1, label2, bs21_before, series) in cases.items():
        assignment = classify(ExperimentGeometry(*lengths))
        assert assignment.label1 is label1
        assert assignment.label2 is label2
        assert assignment.bs21_before is bs21_before
        assert assignment.series == series


def test_rest_classification_matches_lab_ordering_sweep() -> None:
    rng = np.random.default_rng(20240813)
    for _ in range(300):
        l11, l21, l22 = rng.uniform(0.3, 30.0, size=3)
        if l21 >= l22:
            l21, l22 = l22, l21
        if min(abs(l11 - l21), abs(l11 - l22), abs(l22 - l21)) < 1e-3:
            continue
        assignment = classify(ExperimentGeometry(l11, l21, l22))
        if l11 < l21:
            assert assignment.series == 2
        elif l11 < l22:
            assert assignment.series == 3
        else:
            assert assignment.series == 1


def test_near_tie_is_refused() -> None:
    # Near-ties of BS11 with BS21 (3e-8 m is 1e-16 s, 1.5e-7 m half the guard
    # band), and an exact tie of BS11 with BS22.
    for lengths in ((1.0 + 3e-8, 1.0, 2.0), (1.0, 1.0 + 1.5e-7, 2.0), (2.0, 1.0, 2.0)):
        with pytest.raises(AmbiguousScheduleError, match="guard band"):
            classify(ExperimentGeometry(*lengths))


def test_boosted_frames_can_relabel_photon1() -> None:
    # At rest this is series 1 (BS11 impact last).  A BS11 frame moving
    # toward photon 1 sees the spacelike-separated photon 2 impacts pushed
    # later, so BS11's own impact turns into a before one in its frame while
    # photon 2's resting frames still call both of theirs before: the
    # (b11, b22) pairing, unreachable at rest.
    base = series_preset(1)
    boosted = ExperimentGeometry(
        length_bs11=base.length_bs11,
        length_bs21=base.length_bs21,
        length_bs22=base.length_bs22,
        m11_displacement=base.m11_displacement,
        beta_bs11=-0.9,
    )
    timing = classify(boosted)
    assert timing.pairing == (PhotonOneLabel.B11, PhotonTwoLabel.B22)
    assert timing.series is None  # not at rest
    rest_timing = classify(base)
    assert rest_timing.label1 is PhotonOneLabel.A11_22


def test_moving_splitters_reach_the_a11_21_b22_pairing() -> None:
    # At rest this is series 3.  A BS11 frame moving toward photon 1 keeps
    # BS11's impact between photon 2's two, while a BS22 frame moving toward
    # photon 2 calls photon 2's final impact before: a pairing no lab
    # ordering gives.
    geometry = ExperimentGeometry(2.0, 1.0, 3.0, 0.0, beta_bs11=-0.3, beta_bs22=0.3)
    timing = classify(geometry)
    assert timing.pairing == (PhotonOneLabel.A11_21, PhotonTwoLabel.B22)
    assert timing.bs21_before is True
    assert timing.series is None


@pytest.mark.parametrize("moving", ["beta_bs11", "beta_bs21", "beta_bs22"])
def test_any_moving_splitter_leaves_a_series_pairing_without_a_series(moving: str) -> None:
    # A series names a lab ordering, so only a geometry at rest has one.  At
    # beta = 1e-3 each preset keeps its pairing: the shift, ~1e-11 s, is far
    # inside its nanosecond gaps.
    for series in (1, 2, 3):
        preset = series_preset(series)
        moved = classify(dataclasses.replace(preset, **{moving: 1e-3}))
        assert moved.pairing == classify(preset).pairing
        assert moved.series is None
        assert classify(dataclasses.replace(preset, **{moving: -0.0})).series == series


lengths = st.floats(min_value=1e-3, max_value=1e3)
betas = st.floats(min_value=-0.99, max_value=0.99)


@example(2.0, 1.0, 2.0, 0.0, -0.3, 0.0, 0.3, PhaseSettings(0.8, 0.1, 2.0))
# BS21's impact is not before, so the BS22-frame tie cannot change the labels.
@example(1.0, 1.5, 1.5, 0.0, 0.0, 0.0, 0.5, PhaseSettings(0.8, 0.1, 2.0))
# Gaps written on the lengths would overflow to +-inf here; on the times t = l / c they stay finite.
@example(1.5e308, 1.6e308, 1e307, 0.0, 0.9, -0.9, 0.9, PhaseSettings(0.8, 0.1, 2.0))
# The BS11-frame gap is 1.4e-15 s, outside the guard band only with gamma = 5/3.
@example(0.44444430454129735, 4.0, 1.0, 0.0, 0.8, 0.0, 0.0, PhaseSettings(0.8, 0.1, 2.0))
@given(
    lengths,
    lengths,
    lengths,
    st.floats(min_value=-1e3, max_value=1e3),
    betas,
    betas,
    betas,
    settings_strategy,
)
def test_classify_agrees_with_the_reference_labels(
    length_bs11: float,
    length_bs21: float,
    leg_gap: float,
    m11_displacement: float,
    beta_bs11: float,
    beta_bs21: float,
    beta_bs22: float,
    settings: PhaseSettings,
) -> None:
    assume(length_bs11 + m11_displacement > 0.0)
    geometry = ExperimentGeometry(
        length_bs11,
        length_bs21,
        length_bs21 + leg_gap,
        m11_displacement,
        beta_bs11,
        beta_bs21,
        beta_bs22,
    )
    expected = reference.reference_labels(
        geometry.effective_length_bs11,
        geometry.length_bs21,
        geometry.length_bs22,
        beta_bs11,
        beta_bs21,
        beta_bs22,
    )
    try:
        assignment = classify(geometry)
    except AmbiguousScheduleError as error:
        # Only a point whose labels a guard-band flip could change is refused,
        # and a second call refuses it again.
        assert expected.near_tie
        assert "guard band" in str(error)
        with pytest.raises(AmbiguousScheduleError) as again:
            classify(geometry)
        assert str(again.value) == str(error)
        return
    assert classify(geometry) is assignment
    assert (assignment.label1.value, assignment.label2.value, assignment.bs21_before) == expected.assignment
    for variant in ModelVariant:
        table = predict(settings, assignment, variant).joint
        for outcome in (1, -1):
            assert abs(marginal_photon1(table, outcome) - 0.5) < ATOL
            assert abs(marginal_photon2(table, outcome) - 0.5) < ATOL


@given(
    st.floats(min_value=1e-3, max_value=1e3),
    st.floats(min_value=1e-3, max_value=1e3),
    st.floats(min_value=1e-3, max_value=1e3),
)
def test_at_rest_only_the_three_series_pairings_occur(l11: float, l21: float, leg_gap: float) -> None:
    # At rest every frame is the lab's, so the signs of l11 - l21 and l11 - l22
    # alone decide: before BS21 (series 2), between (series 3), after both (1).
    l22 = l21 + leg_gap
    assume(min(abs(l11 - l21), abs(l11 - l22)) / SPEED_OF_LIGHT >= 2 * timing.GUARD_BAND_S)
    geometry = ExperimentGeometry(l11, l21, l22)
    assignment = classify(geometry)
    assert _SERIES_BY_PAIRING[assignment.pairing] == assignment.series
    assert assignment.series == (2 if l11 < l21 else 3 if l11 < l22 else 1)
    assert _labels(geometry) == _reference_labels(geometry).assignment


@pytest.mark.parametrize(
    "geometry, pairing",
    [
        # Series 3 at rest; a BS11 frame moving toward photon 2 puts BS11's impact after both.
        (ExperimentGeometry(2.0, 1.0, 3.0, beta_bs11=0.5), (PhotonOneLabel.A11_22, PhotonTwoLabel.A22)),
        # Series 1 at rest; a BS11 frame moving toward photon 1 puts BS11's impact first.
        (ExperimentGeometry(2.0, 1.0, 3.0, 2.0, beta_bs11=-0.9), (PhotonOneLabel.B11, PhotonTwoLabel.B22)),
    ],
)
def test_moving_splitters_reach_pairings_no_rest_geometry_has(
    geometry: ExperimentGeometry, pairing: tuple[PhotonOneLabel, PhotonTwoLabel]
) -> None:
    assert pairing not in _SERIES_BY_PAIRING
    assignment = classify(geometry)
    assert assignment.pairing == pairing and assignment.series is None
    assert _labels(geometry) == _reference_labels(geometry).assignment


# --- timing assignments -------------------------------------------------------


def test_unrepresentable_pairing_rejected() -> None:
    with pytest.raises(ValueError):
        TimingAssignment(PhotonOneLabel.A11_22, PhotonTwoLabel.B21)
    # A label's value is no label.
    for label1, label2 in (("b11", PhotonTwoLabel.A22), (PhotonOneLabel.B11, "a22")):
        with pytest.raises(ValueError, match="^labels must be PhotonOneLabel and PhotonTwoLabel$"):
            TimingAssignment(label1, label2)


def test_before_label2_requires_bs21_before() -> None:
    with pytest.raises(ValueError):
        TimingAssignment(PhotonOneLabel.B11, PhotonTwoLabel.B22, bs21_before=False)
    # A truthy "no" or 1 would pass for True.
    for flag in ("no", 1, np.True_):
        with pytest.raises(ValueError, match="bs21_before must be true or false"):
            TimingAssignment(PhotonOneLabel.B11, PhotonTwoLabel.B22, bs21_before=flag)


def test_series_must_match_the_pairing() -> None:
    # (b11, a22) is series 2; (b11, b21) has no series at all.
    for label1, label2, series in (
        (PhotonOneLabel.B11, PhotonTwoLabel.A22, 1),
        (PhotonOneLabel.B11, PhotonTwoLabel.B21, 3),
    ):
        with pytest.raises(ValueError, match="does not match pairing"):
            TimingAssignment(label1, label2, True, series)
    # (a11[22], b22) is series 1, which True and 1.0 equal without being series ids.
    for series in (True, np.True_, 1.0):
        with pytest.raises(ValueError, match="series must be an integer"):
            TimingAssignment(PhotonOneLabel.A11_22, PhotonTwoLabel.B22, True, series)


def test_for_series_round_trip() -> None:
    for series in (1, 2, 3):
        assignment = for_series(series)
        assert assignment.series == series
        from_preset = classify(series_preset(series))
        assert from_preset.pairing == assignment.pairing
        assert from_preset.bs21_before == assignment.bs21_before


# --- geometry ------------------------------------------------------------------


def test_geometry_rejects_bad_lengths() -> None:
    with pytest.raises(ValueError):
        ExperimentGeometry(length_bs11=0.0, length_bs21=1.0, length_bs22=2.0)
    with pytest.raises(ValueError):
        ExperimentGeometry(length_bs11=1.0, length_bs21=1.0, length_bs22=2.0, m11_displacement=-1.0)
    # Photon 2 out of order, and legs of equal length.
    for length_bs22 in (1.0, 0.5):
        with pytest.raises(ValueError, match="BS21 before BS22"):
            ExperimentGeometry(length_bs11=1.0, length_bs21=1.0, length_bs22=length_bs22)
    with pytest.raises(ValueError, match="effective_length_bs11 must be finite"):
        ExperimentGeometry(
            length_bs11=1e308, length_bs21=1.0, length_bs22=2.0, m11_displacement=1e308
        )


@given(
    length_bs21=st.floats(min_value=1e-3, max_value=1e3),
    beta_bs21=st.sampled_from((-0.7, -0.3, -0.1, 0.1, 0.3, 0.7)),
    beta_bs22=st.sampled_from((-0.7, -0.3, -0.1, 0.1, 0.3, 0.7)),
)
def test_every_accepted_geometry_is_classified(
    length_bs21: float, beta_bs21: float, beta_bs22: float
) -> None:
    # Legs one ulp apart, whose frame times can round into a tie: a longer
    # second leg is photon 2's order in every frame, so the geometry is made.
    geometry = ExperimentGeometry(
        2.0,
        length_bs21,
        math.nextafter(length_bs21, math.inf),
        beta_bs21=beta_bs21,
        beta_bs22=beta_bs22,
    )
    expected = _reference_labels(geometry)
    try:
        assert _labels(geometry) == expected.assignment
    except AmbiguousScheduleError:
        assert expected.near_tie


def test_string_event_times_and_lengths_are_refused() -> None:
    for kwargs in (
        {"length_bs11": "2"},
        {"length_bs22": "3"},
        {"m11_displacement": "0.5"},
        {"beta_bs11": "-0.3"},
    ):
        name = next(iter(kwargs))
        with pytest.raises(ValueError, match=f"{name} must be a real number"):
            ExperimentGeometry(**{"length_bs11": 2.0, "length_bs21": 1.0, "length_bs22": 3.0, **kwargs})
    with pytest.raises(ValueError, match="must be a real number"):
        ExperimentGeometry("2", "1", "3")
    # Real numbers of any type are still stored as floats.
    geometry = ExperimentGeometry(np.int64(2), 1, 3.0, m11_displacement=np.float64(0.5), beta_bs11=-0.3)
    fields = (geometry.length_bs11, geometry.length_bs21, geometry.m11_displacement, geometry.beta_bs11)
    assert fields == (2.0, 1.0, 0.5, -0.3)
    assert all(type(value) is float for value in fields)
    assert geometry.effective_length_bs11 == 2.5


def test_geometry_accepts_legs_one_ulp_apart() -> None:
    # Both used to be refused: their boosted (or lab) arrival times rounded
    # into a tie, although the second leg is longer.
    for geometry in (
        ExperimentGeometry(2.0, 3.631, math.nextafter(3.631, 4.0), beta_bs21=0.7, beta_bs22=0.7),
        ExperimentGeometry(length_bs11=1.0, length_bs21=2.682, length_bs22=2.6820000000000004),
    ):
        assert _labels(geometry) == _reference_labels(geometry).assignment


def test_schedule_from_geometry_times_and_positions() -> None:
    geometry = ExperimentGeometry(
        length_bs11=1.0, length_bs21=1.0, length_bs22=2.0, m11_displacement=0.5
    )
    # classify takes the geometry; schedule_from_geometry hands it back unchanged.
    assert schedule_from_geometry(geometry) is geometry
    # The oracle's impacts: t = path / c at x = -1.5 m (BS11), +1 m and +2 m.
    assert reference.reference_labels(1.5, 1.0, 2.0).assignment == _labels(geometry)
    # BS11 arrival between the photon 2 impacts: the third lab ordering.
    assert classify(geometry).series == 3


def _outcome(geometry: ExperimentGeometry) -> TimingAssignment | str:
    """classify's assignment, or its refusal's message."""
    try:
        return classify(geometry)
    except AmbiguousScheduleError as error:
        return str(error)


geometry_lengths = st.floats(min_value=1e-3, max_value=1e3)
geometry_betas = st.one_of(st.just(0.0), st.floats(min_value=-0.9, max_value=0.9))


@given(
    l11=geometry_lengths,
    l21=geometry_lengths,
    l22=geometry_lengths,
    displacement=st.floats(min_value=-0.5, max_value=10.0),
    moved_to=st.floats(min_value=-0.5, max_value=10.0),
    moving=st.booleans(),
    betas=st.tuples(geometry_betas, geometry_betas, geometry_betas),
)
def test_a_geometry_keeps_the_classification_its_fields_give(
    l11: float,
    l21: float,
    l22: float,
    displacement: float,
    moved_to: float,
    moving: bool,
    betas: tuple[float, float, float],
) -> None:
    fields = dict(
        length_bs11=l11,
        length_bs21=l21,
        length_bs22=l22,
        m11_displacement=displacement,
        **dict(zip(("beta_bs11", "beta_bs21", "beta_bs22"), betas if moving else (0.0, 0.0, 0.0))),
    )
    try:
        geometry = ExperimentGeometry(**fields)
    except ValueError:
        assume(False)
    # The stored outcome is not a field: equal fields mean equal, equally
    # hashed geometries with equal outcomes.
    twin = ExperimentGeometry(**fields)
    assert twin == geometry and hash(twin) == hash(geometry)
    assert _outcome(twin) == _outcome(geometry)
    assert "classification" not in repr(geometry).lower()
    assert [f.name for f in dataclasses.fields(geometry)] == [*fields]
    for clone in (pickle.loads(pickle.dumps(geometry)), copy.copy(geometry), copy.deepcopy(geometry)):
        assert clone == geometry
        assert _outcome(clone) == _outcome(geometry)
    try:
        moved = dataclasses.replace(geometry, m11_displacement=moved_to)
    except ValueError:
        return
    assert _outcome(moved) == _outcome(ExperimentGeometry(**{**fields, "m11_displacement": moved_to}))


@pytest.mark.parametrize("clone", [copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value))])
def test_cloned_assignments_keep_their_rule_row_and_series(clone) -> None:
    rules = rnl._RULES[ModelVariant.RNL_STANDARD]
    assignments = [TimingAssignment(label1, label2) for label1, label2 in rules]
    for assignment in (*assignments, *(for_series(series) for series in (1, 2, 3))):
        cloned = clone(assignment)
        assert cloned == assignment and hash(cloned) == hash(assignment)
        assert cloned.label1 is assignment.label1 and cloned.label2 is assignment.label2
        assert rules[cloned.pairing] is rules[assignment.pairing]
        if assignment.series is not None:
            assert _SERIES_BY_PAIRING[cloned.pairing] == assignment.series
            # TimingAssignment's series check reads the same table.
            assert TimingAssignment(cloned.label1, cloned.label2, cloned.bs21_before, cloned.series) == cloned


def test_label_lookups_never_call_the_enum_hash(monkeypatch: pytest.MonkeyPatch) -> None:
    # Enum.__hash__ is Python code; classify, TimingAssignment and predict run
    # once per sweep point, and compare_report once per op, so their label and
    # variant lookups must not reach it.
    def refuse(self):
        raise AssertionError(f"Enum.__hash__ called on {self!r}")

    geometries = [series_preset(series) for series in (1, 2, 3)]
    geometries.append(ExperimentGeometry(2.0, 1.0, 3.0, 0.3, beta_bs11=-0.3, beta_bs22=0.3))
    with monkeypatch.context() as patch:
        patch.setattr(enum.Enum, "__hash__", refuse)
        for geometry in geometries:
            assignment = classify(geometry)
            TimingAssignment(assignment.label1, assignment.label2, assignment.bs21_before, assignment.series)
            for variant in ModelVariant:
                predict(KEY_SETTINGS, assignment, variant)
        # compare_report looks each variant's stream up in a dict keyed by ModelVariant.
        for series in (1, 2, 3):
            compare_report(RunConfig(series=series, n_events=1000, chunk_size=100))
        by_variant = {variant: variant.value for variant in ModelVariant}
        assert by_variant[ModelVariant.RNL_ALTERNATIVE] == "RNL_ALTERNATIVE"


def test_presets_classify_to_their_series_with_nanosecond_gaps() -> None:
    for series in (1, 2, 3):
        geometry = series_preset(series)
        lengths = (geometry.effective_length_bs11, geometry.length_bs21, geometry.length_bs22)
        times = sorted(length / SPEED_OF_LIGHT for length in lengths)
        assert times[1] - times[0] >= 1e-9
        assert times[2] - times[1] >= 1e-9
        assert (geometry.beta_bs11, geometry.beta_bs21, geometry.beta_bs22) == (0.0, 0.0, 0.0)
        assert classify(geometry).series == series


def test_presets_are_shared() -> None:
    for series in (1, 2, 3):
        assert series_preset(series) is series_preset(series)
        assert series_preset(np.int64(series)) is series_preset(series)
    assert len({id(series_preset(series)) for series in (1, 2, 3)}) == 3


def _gap_counter(monkeypatch: pytest.MonkeyPatch) -> list[int]:
    """A one-item list counting timing._frame_gaps calls from here on."""
    calls = [0]
    frame_gaps = timing._frame_gaps

    def counting_frame_gaps(*args: float) -> tuple:
        calls[0] += 1
        return frame_gaps(*args)

    monkeypatch.setattr(timing, "_frame_gaps", counting_frame_gaps)
    return calls


# Near-tie of BS11 with BS21: 3e-8 m of path is 1e-16 s.
NEAR_TIE = (1.0 + 3e-8, 1.0, 2.0)


def test_classify_stores_its_assignment_on_the_geometry(monkeypatch: pytest.MonkeyPatch) -> None:
    calls = _gap_counter(monkeypatch)
    geometry = ExperimentGeometry(2.0, 1.0, 3.0)
    assert calls[0] == 1  # the four gaps, once, when the geometry is made
    calls[0] = 0
    first = classify(geometry)
    assert first == TimingAssignment(PhotonOneLabel.A11_21, PhotonTwoLabel.A22, True, 3)
    for _ in range(3):
        assert classify(geometry) is first
    assert calls[0] == 0  # classify only reads what construction stored
    # The stored outcome is not a field, so replace builds a geometry without it.
    fresh = dataclasses.replace(geometry)
    assert calls[0] == 1
    assert fresh == geometry and hash(fresh) == hash(geometry) and repr(fresh) == repr(geometry)


def test_classify_refuses_a_near_tie_afresh_on_every_call(monkeypatch: pytest.MonkeyPatch) -> None:
    calls = _gap_counter(monkeypatch)
    geometry = ExperimentGeometry(*NEAR_TIE)
    assert calls[0] == 1
    calls[0] = 0
    errors = []
    for _ in range(3):
        with pytest.raises(AmbiguousScheduleError) as info:
            classify(geometry)
        errors.append(info.value)
    assert calls[0] == 0
    assert "BS11 vs BS21 in the BS11 frame" in str(errors[0])
    assert "guard band" in str(errors[0])
    assert len({str(error) for error in errors}) == 1
    assert len({id(error) for error in errors}) == len(errors)


@pytest.mark.parametrize(
    "clone", [copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value))]
)
def test_cloned_geometries_classify_by_their_own_fields(clone) -> None:
    geometries = [series_preset(series) for series in (1, 2, 3)]
    geometries.append(ExperimentGeometry(*NEAR_TIE))
    for geometry in geometries:
        expected = _outcome(dataclasses.replace(geometry))
        _outcome(geometry)
        cloned = clone(geometry)
        assert cloned == geometry
        assert _outcome(cloned) == _outcome(geometry) == expected


def test_replaced_geometries_classify_by_their_own_fields() -> None:
    series3 = series_preset(3)
    near_tie = ExperimentGeometry(*NEAR_TIE)
    assert classify(series3).series == 3
    with pytest.raises(AmbiguousScheduleError):
        classify(near_tie)
    moved = dataclasses.replace(series3, m11_displacement=series_preset(1).m11_displacement)
    assert classify(moved).series == 1
    assert classify(dataclasses.replace(series3)) == classify(series3)
    cleared = dataclasses.replace(near_tie, m11_displacement=-0.5)
    assert classify(cleared).series == 2
    with pytest.raises(AmbiguousScheduleError):
        classify(dataclasses.replace(near_tie))


def test_classify_keeps_no_reference_to_a_geometry() -> None:
    for build in (
        lambda: dataclasses.replace(series_preset(2)),
        lambda: ExperimentGeometry(*NEAR_TIE),
    ):
        geometry = build()
        _outcome(geometry)
        _outcome(geometry)
        ref = weakref.ref(geometry)
        del geometry
        gc.collect()
        assert ref() is None


def test_classify_memo_holds_across_a_geometry_grid() -> None:
    reached = set()
    grid = itertools.product(
        np.linspace(-1.9, 3.0, 50), (0.0, -0.3, 0.3, 0.7), (0.0, -0.3, 0.3), (0.0, -0.7, 0.3)
    )
    for displacement, beta11, beta21, beta22 in grid:
        try:
            geometry = ExperimentGeometry(2.0, 1.0, 3.0, displacement, beta11, beta21, beta22)
            assignment = classify(geometry)
        except ValueError:
            continue
        assert assignment is classify(geometry)
        assert assignment == classify(dataclasses.replace(geometry))
        reached.add(assignment)
    assert len(reached) >= 8


def test_preset_requires_known_series() -> None:
    for series in (0, 4, -1):
        with pytest.raises(ValueError, match="series must be in"):
            series_preset(series)
    # True would give the series-1 geometry, 3.0 the series-3 one.
    for series in (True, np.True_, 3.0, 2.0):
        with pytest.raises(ValueError, match="series must be an integer"):
            series_preset(series)
