"""Lorentz boosts, impact classification, geometry presets."""

from __future__ import annotations

import copy
import dataclasses
import enum
import gc
import importlib.util
import itertools
import math
import pickle
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from helpers import for_series, marginal_photon1, marginal_photon2, rebuilt_schedule, schedule_labels
from rnlsim import (
    SPEED_OF_LIGHT,
    AmbiguousScheduleError,
    ExperimentGeometry,
    ImpactSchedule,
    ModelVariant,
    PhaseSettings,
    PhotonOneLabel,
    PhotonTwoLabel,
    RunConfig,
    SpacetimeEvent,
    TimingAssignment,
    boost_time,
    classify,
    compare_report,
    predict,
    schedule_from_geometry,
    series_preset,
)
from rnlsim import rnl, timing
from rnlsim.timing import _SERIES_BY_PAIRING

ATOL = 1e-12


def _load_reference():
    """bench/reference.py, the benchmark's brute-force labels, imported by path."""
    path = Path(__file__).resolve().parents[1] / "bench" / "reference.py"
    spec = importlib.util.spec_from_file_location("bench_reference", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


reference = _load_reference()


def _rest_schedule(t11: float, t21: float, t22: float) -> ImpactSchedule:
    """Lab-time ordering only; positions on the proper sides of the source."""
    return ImpactSchedule(
        bs11=SpacetimeEvent(t11, -SPEED_OF_LIGHT * t11),
        bs21=SpacetimeEvent(t21, SPEED_OF_LIGHT * t21),
        bs22=SpacetimeEvent(t22, SPEED_OF_LIGHT * t22),
    )


# --- boosts ------------------------------------------------------------------


def test_boost_identity_at_rest() -> None:
    event = SpacetimeEvent(1.0, 123.0)
    assert boost_time(event, 0.0) == 1.0


def test_boost_pure_time_dilation() -> None:
    event = SpacetimeEvent(1.0, 0.0)
    assert boost_time(event, 0.6) == pytest.approx(1.25, abs=ATOL)


def test_boost_with_position_offset() -> None:
    # x chosen so that t - beta x / c = t (1 - beta^2), i.e. boosted time t / gamma.
    beta = 0.6
    event = SpacetimeEvent(1.0, beta * SPEED_OF_LIGHT * 1.0)
    assert boost_time(event, beta) == pytest.approx(0.8, abs=ATOL)


@pytest.mark.parametrize("beta", [1.0, -1.0, 1.5, float("nan"), float("inf")])
def test_boost_rejects_unphysical_beta(beta: float) -> None:
    with pytest.raises(ValueError):
        boost_time(SpacetimeEvent(0.0, 0.0), beta)


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
    event_a = SpacetimeEvent(t_a, x)
    event_b = SpacetimeEvent(t_b, x)
    boosted_order = boost_time(event_a, beta) - boost_time(event_b, beta)
    assert (t_a > t_b) == (boosted_order > 0)


def test_boost_identity_and_ordering_over_random_events() -> None:
    rng = np.random.default_rng(20240812)
    n = 10_000
    times = rng.uniform(-1e-6, 1e-6, size=n)
    positions = rng.uniform(-100.0, 100.0, size=n)
    betas = rng.uniform(-0.99, 0.99, size=n)
    for i in range(n):
        event = SpacetimeEvent(times[i], positions[i])
        assert boost_time(event, 0.0) == times[i]
        partner = SpacetimeEvent(times[(i + 1) % n], positions[i])
        if times[i] != partner.t:
            same_frame = boost_time(event, betas[i]) - boost_time(partner, betas[i])
            assert (times[i] > partner.t) == (same_frame > 0)


# --- schedules and classification ---------------------------------------------


def test_schedule_rejects_a_non_event_slot() -> None:
    good = _rest_schedule(1e-9, 2e-9, 3e-9)
    with pytest.raises(ValueError, match="bs11 must be a SpacetimeEvent"):
        ImpactSchedule(bs11=(good.bs11.t, good.bs11.x), bs21=good.bs21, bs22=good.bs22)


def test_schedule_rejects_photon2_order_violation() -> None:
    with pytest.raises(ValueError, match="violated in the BS21 frame") as error:
        _rest_schedule(1e-9, 3e-9, 2e-9)
    # A reversal is a bad input, not an ambiguity to refuse later.
    assert not isinstance(error.value, AmbiguousScheduleError)


def test_rest_orderings_map_to_series() -> None:
    cases = {
        (3e-9, 1e-9, 2e-9): (PhotonOneLabel.A11_22, PhotonTwoLabel.B22, True, 1),
        (1e-9, 2e-9, 3e-9): (PhotonOneLabel.B11, PhotonTwoLabel.A22, False, 2),
        (2e-9, 1e-9, 3e-9): (PhotonOneLabel.A11_21, PhotonTwoLabel.A22, True, 3),
        # Gaps of exactly the guard band, and of three times it, still decide.
        (0.0, 1e-15, 1e-9): (PhotonOneLabel.B11, PhotonTwoLabel.A22, False, 2),
        (0.0, 3e-15, 1e-9): (PhotonOneLabel.B11, PhotonTwoLabel.A22, False, 2),
    }
    for (t11, t21, t22), (label1, label2, bs21_before, series) in cases.items():
        timing = classify(_rest_schedule(t11, t21, t22))
        assert timing.label1 is label1
        assert timing.label2 is label2
        assert timing.bs21_before is bs21_before
        assert timing.series == series


def test_rest_classification_matches_lab_ordering_sweep() -> None:
    rng = np.random.default_rng(20240813)
    for _ in range(300):
        t11, t21, t22 = rng.uniform(1e-9, 100e-9, size=3)
        if t21 >= t22:
            t21, t22 = t22, t21
        if min(abs(t11 - t21), abs(t11 - t22), abs(t22 - t21)) < 1e-12:
            continue
        timing = classify(_rest_schedule(t11, t21, t22))
        if t11 < t21:
            assert timing.series == 2
        elif t11 < t22:
            assert timing.series == 3
        else:
            assert timing.series == 1


def test_near_tie_is_refused() -> None:
    # Near-ties of BS11 with BS21 (the second half the guard band), and an
    # exact tie of BS11 with BS22.
    for times in ((1e-9 + 1e-16, 1e-9, 2e-9), (0.0, 0.5e-15, 1e-9), (2e-9, 1e-9, 2e-9)):
        with pytest.raises(AmbiguousScheduleError):
            classify(_rest_schedule(*times))


def test_an_overflowed_frame_time_gap_is_refused() -> None:
    # In BS11's frame BS11's and BS21's times both overflow to inf, so their
    # gap is inf - inf = NaN: no order exists, and none may be guessed.
    schedule = ImpactSchedule(
        SpacetimeEvent(1e308, -1.0), SpacetimeEvent(1.2e308, 1.0), SpacetimeEvent(1.5e308, 2.0), beta_bs11=0.9
    )
    assert boost_time(schedule.bs11, 0.9) == boost_time(schedule.bs21, 0.9) == math.inf
    with pytest.raises(AmbiguousScheduleError, match="BS11 vs BS21 in the BS11 frame"):
        classify(schedule)
    # In BS21's frame both of photon 2's own times overflow: their order is
    # not a reversal either, so the schedule is made and classify refuses it.
    schedule = ImpactSchedule(
        SpacetimeEvent(1e308, -1.0), SpacetimeEvent(1.2e308, 1.0), SpacetimeEvent(1.5e308, 2.0), beta_bs21=0.9
    )
    assert boost_time(schedule.bs21, 0.9) == boost_time(schedule.bs22, 0.9) == math.inf
    with pytest.raises(AmbiguousScheduleError, match="BS21 vs BS22 in the BS21 frame"):
        classify(schedule)
    # A reversal that the other frame can read is still refused at construction.
    with pytest.raises(ValueError, match="violated in the BS22 frame") as error:
        ImpactSchedule(
            SpacetimeEvent(1e308, -1.0),
            SpacetimeEvent(1.5e308, 1.0),
            SpacetimeEvent(1.2e308, 2.0),
            beta_bs21=0.9,
        )
    assert not isinstance(error.value, AmbiguousScheduleError)


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
    timing = classify(schedule_from_geometry(boosted))
    assert timing.pairing == (PhotonOneLabel.B11, PhotonTwoLabel.B22)
    assert timing.series is None  # not a rest schedule
    rest_timing = classify(schedule_from_geometry(base))
    assert rest_timing.label1 is PhotonOneLabel.A11_22


def test_moving_splitters_reach_the_a11_21_b22_pairing() -> None:
    # At rest this is series 3.  A BS11 frame moving toward photon 1 keeps
    # BS11's impact between photon 2's two, while a BS22 frame moving toward
    # photon 2 calls photon 2's final impact before: a pairing no lab
    # ordering gives.
    geometry = ExperimentGeometry(2.0, 1.0, 3.0, 0.0, beta_bs11=-0.3, beta_bs22=0.3)
    timing = classify(schedule_from_geometry(geometry))
    assert timing.pairing == (PhotonOneLabel.A11_21, PhotonTwoLabel.B22)
    assert timing.bs21_before is True
    assert timing.series is None


@pytest.mark.parametrize("moving", ["beta_bs11", "beta_bs21", "beta_bs22"])
def test_any_moving_splitter_leaves_a_series_pairing_without_a_series(moving: str) -> None:
    # A series names a lab ordering, so only a schedule at rest has one.  At
    # beta = 1e-3 each preset keeps its pairing: the shift, ~1e-11 s, is far
    # inside its nanosecond gaps.
    for series in (1, 2, 3):
        preset = series_preset(series)
        moved = classify(schedule_from_geometry(dataclasses.replace(preset, **{moving: 1e-3})))
        assert moved.pairing == classify(schedule_from_geometry(preset)).pairing
        assert moved.series is None
        assert classify(schedule_from_geometry(dataclasses.replace(preset, **{moving: -0.0}))).series == series


lengths = st.floats(min_value=1e-3, max_value=1e3)
betas = st.floats(min_value=-0.99, max_value=0.99)
phases = st.floats(min_value=-25.0, max_value=25.0)


@example(2.0, 1.0, 2.0, 0.0, -0.3, 0.0, 0.3, PhaseSettings(0.8, 0.1, 2.0))
# BS21's impact is not before, so the BS22-frame tie cannot change the labels.
@example(1.0, 1.5, 1.5, 0.0, 0.0, 0.0, 0.5, PhaseSettings(0.8, 0.1, 2.0))
@given(
    lengths,
    lengths,
    lengths,
    st.floats(min_value=-1e3, max_value=1e3),
    betas,
    betas,
    betas,
    st.builds(PhaseSettings, phases, phases, phases),
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
    schedule = schedule_from_geometry(geometry)
    try:
        assignment = classify(schedule)
    except AmbiguousScheduleError as error:
        # Only a point whose labels a guard-band flip could change is refused,
        # and a second call refuses it again.
        assert expected.near_tie
        with pytest.raises(AmbiguousScheduleError) as again:
            classify(schedule)
        assert str(again.value) == str(error)
        return
    assert classify(schedule) is assignment
    assert (assignment.label1.value, assignment.label2.value, assignment.bs21_before) == expected.assignment
    for variant in ModelVariant:
        table = predict(settings, assignment, variant).joint
        for outcome in (1, -1):
            assert abs(marginal_photon1(table, outcome) - 0.5) < ATOL
            assert abs(marginal_photon2(table, outcome) - 0.5) < ATOL


instants = st.floats(allow_nan=False, allow_infinity=False)
events = st.builds(SpacetimeEvent, instants, instants)


@example(
    SpacetimeEvent(1e308, -1.0), SpacetimeEvent(1.2e308, 1.0), SpacetimeEvent(1.5e308, 2.0), 0.9, 0.0, 0.0
)
@example(SpacetimeEvent(1e-9 + 1e-16, -0.3), SpacetimeEvent(1e-9, 0.3), SpacetimeEvent(2e-9, 0.6), 0.0, 0.0, 0.0)
@given(events, events, events, betas, betas, betas)
def test_classify_follows_its_rules_on_arbitrary_events(
    bs11: SpacetimeEvent,
    bs21: SpacetimeEvent,
    bs22: SpacetimeEvent,
    beta_bs11: float,
    beta_bs21: float,
    beta_bs22: float,
) -> None:
    # Only draws that keep photon 2's BS21-then-BS22 order in both of its frames.
    assume(all(boost_time(bs21, beta) < boost_time(bs22, beta) for beta in (beta_bs21, beta_bs22)))
    schedule = ImpactSchedule(bs11, bs21, bs22, beta_bs11, beta_bs21, beta_bs22)
    expected, near_tie = schedule_labels(schedule)
    try:
        assignment = classify(schedule)
    except AmbiguousScheduleError:
        assert near_tie  # refused only when a deciding gap is inside the band
        return
    assert not near_tie
    assert (assignment.label1.value, assignment.label2.value, assignment.bs21_before) == expected


# --- timing assignments -------------------------------------------------------


def test_unrepresentable_pairing_rejected() -> None:
    with pytest.raises(ValueError):
        TimingAssignment(PhotonOneLabel.A11_22, PhotonTwoLabel.B21)


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
        from_preset = classify(schedule_from_geometry(series_preset(series)))
        assert from_preset.pairing == assignment.pairing
        assert from_preset.bs21_before == assignment.bs21_before


# --- geometry ------------------------------------------------------------------


def test_geometry_rejects_bad_lengths() -> None:
    with pytest.raises(ValueError):
        ExperimentGeometry(length_bs11=0.0, length_bs21=1.0, length_bs22=2.0)
    with pytest.raises(ValueError):
        ExperimentGeometry(length_bs11=1.0, length_bs21=1.0, length_bs22=2.0, m11_displacement=-1.0)
    # Photon 2 out of order, and legs one ulp apart with equal arrival times.
    for length_bs22 in (1.0, 0.5):
        with pytest.raises(ValueError, match="BS21 before BS22"):
            ExperimentGeometry(length_bs11=1.0, length_bs21=1.0, length_bs22=length_bs22)
    with pytest.raises(ValueError, match="BS21 before BS22"):
        ExperimentGeometry(length_bs11=1.0, length_bs21=2.682, length_bs22=2.6820000000000004)
    with pytest.raises(ValueError, match="effective_length_bs11 must be finite"):
        ExperimentGeometry(
            length_bs11=1e308, length_bs21=1.0, length_bs22=2.0, m11_displacement=1e308
        )


@given(
    length_bs21=st.floats(min_value=1e-3, max_value=1e3),
    beta_bs21=st.sampled_from((-0.7, -0.3, -0.1, 0.1, 0.3, 0.7)),
    beta_bs22=st.sampled_from((-0.7, -0.3, -0.1, 0.1, 0.3, 0.7)),
)
def test_every_accepted_geometry_yields_a_schedule(
    length_bs21: float, beta_bs21: float, beta_bs22: float
) -> None:
    # Legs one ulp apart: moving-splitter frame times can round into a tie.
    try:
        geometry = ExperimentGeometry(
            2.0,
            length_bs21,
            math.nextafter(length_bs21, math.inf),
            beta_bs21=beta_bs21,
            beta_bs22=beta_bs22,
        )
    except ValueError as exc:
        assert "BS21 before BS22" in str(exc)
        return
    schedule_from_geometry(geometry)


def test_string_event_times_and_lengths_are_refused() -> None:
    with pytest.raises(ValueError, match="t must be a real number"):
        SpacetimeEvent("1e-9", 0.0)
    with pytest.raises(ValueError, match="beta must be a real number"):
        boost_time(SpacetimeEvent(1e-9, 0.0), "0.1")
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


def test_geometry_refuses_moving_splitter_ties() -> None:
    with pytest.raises(ValueError, match="BS21 before BS22"):
        ExperimentGeometry(2.0, 3.631, math.nextafter(3.631, 4.0), beta_bs21=0.7, beta_bs22=0.7)


def test_schedule_from_geometry_times_and_positions() -> None:
    geometry = ExperimentGeometry(
        length_bs11=1.0, length_bs21=1.0, length_bs22=2.0, m11_displacement=0.5
    )
    schedule = schedule_from_geometry(geometry)
    assert schedule.bs11.t == pytest.approx(1.5 / SPEED_OF_LIGHT)
    assert schedule.bs11.x == pytest.approx(-1.5)
    assert schedule.bs21.x == pytest.approx(1.0)
    assert schedule.bs22.t == pytest.approx(2.0 / SPEED_OF_LIGHT)
    # BS11 arrival between the photon 2 impacts: the third lab ordering.
    assert classify(schedule).series == 3


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
def test_a_geometry_keeps_the_schedule_its_fields_give(
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
    assert schedule_from_geometry(geometry) == rebuilt_schedule(geometry)
    assert schedule_from_geometry(geometry) is schedule_from_geometry(geometry)
    # The schedule is not a field: equal fields mean equal, equally hashed geometries.
    twin = ExperimentGeometry(**fields)
    assert twin == geometry and hash(twin) == hash(geometry)
    assert "schedule" not in repr(geometry).lower()
    assert [f.name for f in dataclasses.fields(geometry)] == [*fields]
    for clone in (pickle.loads(pickle.dumps(geometry)), copy.copy(geometry), copy.deepcopy(geometry)):
        assert clone == geometry
        assert schedule_from_geometry(clone) == rebuilt_schedule(geometry)
    try:
        moved = dataclasses.replace(geometry, m11_displacement=moved_to)
    except ValueError:
        return
    assert schedule_from_geometry(moved) == rebuilt_schedule(moved)


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
    settings = PhaseSettings.from_degrees(45.0, -45.0, 90.0)
    with monkeypatch.context() as patch:
        patch.setattr(enum.Enum, "__hash__", refuse)
        for geometry in geometries:
            assignment = classify(schedule_from_geometry(geometry))
            TimingAssignment(assignment.label1, assignment.label2, assignment.bs21_before, assignment.series)
            for variant in ModelVariant:
                predict(settings, assignment, variant)
        # compare_report looks each variant's stream up in a dict keyed by ModelVariant.
        for series in (1, 2, 3):
            compare_report(RunConfig(series=series, n_events=1000, chunk_size=100))
        by_variant = {variant: variant.value for variant in ModelVariant}
        assert by_variant[ModelVariant.RNL_ALTERNATIVE] == "RNL_ALTERNATIVE"


def test_presets_classify_to_their_series_with_nanosecond_gaps() -> None:
    for series in (1, 2, 3):
        geometry = series_preset(series)
        schedule = schedule_from_geometry(geometry)
        times = sorted((schedule.bs11.t, schedule.bs21.t, schedule.bs22.t))
        assert times[1] - times[0] >= 1e-9
        assert times[2] - times[1] >= 1e-9
        assert (schedule.beta_bs11, schedule.beta_bs21, schedule.beta_bs22) == (0.0, 0.0, 0.0)
        assert classify(schedule).series == series


def test_presets_are_shared() -> None:
    for series in (1, 2, 3):
        assert series_preset(series) is series_preset(series)
        assert series_preset(np.int64(series)) is series_preset(series)
    assert len({id(series_preset(series)) for series in (1, 2, 3)}) == 3


def _boost_counter(monkeypatch: pytest.MonkeyPatch) -> list[int]:
    """A one-item list counting timing.boost_time calls from here on."""
    calls = [0]
    boost = timing.boost_time

    def counting_boost(event: SpacetimeEvent, beta: float) -> float:
        calls[0] += 1
        return boost(event, beta)

    monkeypatch.setattr(timing, "boost_time", counting_boost)
    return calls


def _outcome(schedule: ImpactSchedule) -> TimingAssignment | str:
    """classify's assignment, or its refusal's message."""
    try:
        return classify(schedule)
    except AmbiguousScheduleError as error:
        return str(error)


def test_classify_stores_its_assignment_on_the_schedule(monkeypatch: pytest.MonkeyPatch) -> None:
    calls = _boost_counter(monkeypatch)
    schedule = schedule_from_geometry(ExperimentGeometry(2.0, 1.0, 3.0))
    assert 0 < calls[0] <= 9  # each impact in each splitter's frame, at most once
    calls[0] = 0
    first = classify(schedule)
    assert first == TimingAssignment(PhotonOneLabel.A11_21, PhotonTwoLabel.A22, True, 3)
    for _ in range(3):
        assert classify(schedule) is first
    assert calls[0] == 0  # classify only reads what construction stored
    # The stored outcome is not a field, so replace builds a schedule without it.
    fresh = dataclasses.replace(schedule)
    assert fresh == schedule and hash(fresh) == hash(schedule) and repr(fresh) == repr(schedule)


def test_classify_refuses_a_near_tie_afresh_on_every_call(monkeypatch: pytest.MonkeyPatch) -> None:
    calls = _boost_counter(monkeypatch)
    schedule = _rest_schedule(1e-9 + 1e-16, 1e-9, 2e-9)
    assert 0 < calls[0] <= 9
    calls[0] = 0
    errors = []
    for _ in range(3):
        with pytest.raises(AmbiguousScheduleError) as info:
            classify(schedule)
        errors.append(info.value)
    assert calls[0] == 0
    assert "guard band" in str(errors[0])
    assert len({str(error) for error in errors}) == 1
    assert len({id(error) for error in errors}) == len(errors)


@pytest.mark.parametrize(
    "clone", [copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value))]
)
def test_cloned_schedules_classify_by_their_own_fields(clone) -> None:
    schedules = [schedule_from_geometry(series_preset(series)) for series in (1, 2, 3)]
    schedules.append(_rest_schedule(1e-9 + 1e-16, 1e-9, 2e-9))
    for schedule in schedules:
        expected = _outcome(dataclasses.replace(schedule))
        _outcome(schedule)
        cloned = clone(schedule)
        assert cloned == schedule
        assert _outcome(cloned) == _outcome(schedule) == expected


def test_replaced_schedules_classify_by_their_own_fields() -> None:
    series3 = schedule_from_geometry(series_preset(3))
    near_tie = _rest_schedule(1e-9 + 1e-16, 1e-9, 2e-9)
    assert classify(series3).series == 3
    with pytest.raises(AmbiguousScheduleError):
        classify(near_tie)
    moved = dataclasses.replace(series3, bs11=schedule_from_geometry(series_preset(1)).bs11)
    assert classify(moved).series == 1
    assert classify(dataclasses.replace(series3)) == classify(series3)
    cleared = dataclasses.replace(near_tie, bs11=SpacetimeEvent(5e-10, -SPEED_OF_LIGHT * 5e-10))
    assert classify(cleared).series == 2
    with pytest.raises(AmbiguousScheduleError):
        classify(dataclasses.replace(near_tie))


def test_classify_keeps_no_reference_to_a_schedule() -> None:
    for build in (
        lambda: dataclasses.replace(schedule_from_geometry(series_preset(2))),
        lambda: _rest_schedule(1e-9 + 1e-16, 1e-9, 2e-9),
    ):
        schedule = build()
        _outcome(schedule)
        _outcome(schedule)
        ref = weakref.ref(schedule)
        del schedule
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
            assignment = classify(schedule_from_geometry(geometry))
        except ValueError:
            continue
        assert assignment is classify(schedule_from_geometry(geometry))
        assert assignment == classify(dataclasses.replace(schedule_from_geometry(geometry)))
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
