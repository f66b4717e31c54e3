"""Impact classification against the boost oracle, its stored outcome, geometries and presets.

Two properties own what classify gives.  test_classify_agrees_with_the_reference_labels
owns every outcome: the labels and bs21_before of each geometry, or its
refusal, against bench/reference.py's brute-force boosts, and the series that
report derives from them, against the lab ordering.
test_a_geometry_keeps_the_classification_its_fields_give owns the stored
outcome: equal fields, copies and replace give the same one, and a refusal is
raised afresh on every call.  The other tests check what neither
can: the oracle's boosts, the exact gaps, the guard band's edge, the pairings
only moving splitters reach, the presets, input checks and when the gaps are
computed.
"""

from __future__ import annotations

import copy
import dataclasses
import enum
import gc
import math
import pickle
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from helpers import ATOL, KEY_SETTINGS, exact_gaps, fair_deviation, for_series, reference, settings_strategy
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
    render_csv,
    render_table,
    schedule_from_geometry,
    series_preset,
)
from rnlsim import report, rnl, timing

frame_time = reference.frame_time

lengths = st.floats(min_value=1e-3, max_value=1e3)
# A zero of either sign is a splitter at rest: drawn often, so whole geometries at rest are too.
betas = st.one_of(st.sampled_from((0.0, -0.0)), st.floats(min_value=-0.99, max_value=0.99))
AT_REST = (0.0, 0.0, 0.0)

# Near-tie of BS11 with BS21: 3e-8 m of path is 1e-16 s.
NEAR_TIE = (1.0 + 3e-8, 1.0, 2.0)

# Geometries, as (l11, l21, l22, beta11, beta21, beta22), that classify decides
# wrongly today: from ~1e8 m up, its float gaps round by more than the guard
# band (ROADMAP item 13).  Each comes with the index of the gap that decides
# it, that gap exactly (s) and the exact outcome.
LARGE_GEOMETRIES = {
    # gap1 is +6.9 ms, while one ulp of t11 is 15.6 ms and the float gap1 -16 ms: b11, not a11[21].
    "wrong-side": (
        (3.1328567759408432e22, 2.0105976479010324e22, 2.010605258013525e22, -0.2181917123320295, 0.0, -0.6300595282604228),
        0, 6.9e-3, TimingAssignment(PhotonOneLabel.B11, PhotonTwoLabel.A22),
    ),
    # gap2 is 7.7e-17 s, inside the guard band, while the float gap2 is -1.0e-15 s: refused, not (a11[22], b22).
    "guessed-near-tie": (
        (1700507848.1468835, 598421132.8409697, 617067345.7366766, -0.46748882421143195, 0.0, 0.0),
        1, 7.7e-17, "BS11 vs BS22 in the BS11 frame",
    ),
}


# --- the boost oracle ----------------------------------------------------------


finite = st.floats(allow_nan=False, allow_infinity=False)


@example(1.0, 123.0, 0.0)
@given(finite, finite, st.sampled_from((0.0, -0.0)))
def test_boost_identity_at_rest(t: float, x: float, beta: float) -> None:
    assert frame_time(t, x, beta) == t


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
# Each float gap is within its bound of the exact one, but on the wrong side of 0 or of the guard band.
@example(*LARGE_GEOMETRIES["wrong-side"][0])
@example(*LARGE_GEOMETRIES["guessed-near-tie"][0])
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
    # of the larger term, whatever the cancellation.  Both round gamma alike;
    # against the exact gap, its 1 - beta^2 has a relative error of gamma^2 ulps.
    times = (l11 / SPEED_OF_LIGHT, l21 / SPEED_OF_LIGHT, l22 / SPEED_OF_LIGHT)
    gaps = timing._frame_gaps(*times, beta11, beta21, beta22)
    expected = reference.reference_labels(l11, l21, l22, beta11, beta21, beta22).gaps_s
    exact = exact_gaps(l11, l21, l22, beta11, beta21, beta22)
    frames = ((beta11, 0, 1), (beta11, 0, 2), (beta21, 0, 1), (beta22, 0, 2))
    for gap, oracle, signed_square, (beta, first, second) in zip(gaps, expected, exact, frames):
        gamma = 1.0 / math.sqrt(1.0 - beta * beta)
        scale = gamma * 2.0 * max(times[first], times[second])
        assert math.isfinite(gap)
        bound = 16 * 2.0**-52 * scale
        assert abs(gap - oracle) <= bound
        # x |x| is increasing, so the exact gap is in [low, high] iff its signed square is.
        low, high = (Fraction(gap) + side * Fraction(bound * gamma * gamma) for side in (-1, 1))
        assert low * abs(low) <= signed_square <= high * abs(high)


# --- classification: the one owner of every outcome ---------------------------

# A leg_gap of 0 stands for photon 2's legs one ulp apart, whose frame times can round into a tie.
leg_gaps = st.one_of(st.just(0.0), lengths)
S = PhaseSettings(0.8, 0.1, 2.0)  # the settings of every example


# At rest, one geometry per series: (a11[22], b22) with BS21 before is series 1,
# (b11, a22) with BS21 not before series 2, (a11[21], a22) with BS21 before series 3.
@example(3.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, S)
@example(1.0, 2.0, 1.0, 0.0, 0.0, 0.0, 0.0, S)
@example(2.0, 1.0, 2.0, 0.0, 0.0, 0.0, 0.0, S)
# Series 3 with BS11's path set by the M11 displacement: 1 m + 0.5 m, between 1 m and 2 m.
@example(1.0, 1.0, 1.0, 0.5, 0.0, 0.0, 0.0, S)
# Series 2 with BS11's and BS21's arrivals exactly the guard band apart, and three times it.
@example(3e-7, 5.99792458e-07, 1e-3, 0.0, 0.0, 0.0, 0.0, S)
@example(3e-7, 1.199377374e-06, 1e-3, 0.0, 0.0, 0.0, 0.0, S)
# Presets 1, 2 and 3 with one splitter moving at beta = 1e-3: the shift, ~1e-11 s, is
# far inside their nanosecond gaps, so the pairing stays and the series goes.
@example(2.0, 1.0, 2.0, 2.0, 0.0, 1e-3, 0.0, S)
@example(2.0, 1.0, 2.0, -1.5, 0.0, 0.0, 1e-3, S)
@example(2.0, 1.0, 2.0, 0.0, 1e-3, 0.0, 0.0, S)
# A beta of -0.0 is at rest, and keeps preset 2's series.
@example(2.0, 1.0, 2.0, -1.5, -0.0, -0.0, -0.0, S)
# The three pairings no rest geometry has: (a11[22], a22), (b11, b22) and (a11[21], b22).
@example(2.0, 1.0, 2.0, 0.0, 0.5, 0.0, 0.0, S)
@example(2.0, 1.0, 2.0, 2.0, -0.9, 0.0, 0.0, S)
@example(2.0, 1.0, 2.0, 0.0, -0.3, 0.0, 0.3, S)
# Legs one ulp apart, moving and at rest: their frame (or lab) times once rounded into a tie.
@example(2.0, 3.631, 0.0, 0.0, 0.0, 0.7, 0.7, S)
@example(1.0, 2.682, 0.0, 0.0, 0.0, 0.0, 0.0, S)
# A near-tie, refused.
@example(*NEAR_TIE[:2], 1.0, 0.0, 0.0, 0.0, 0.0, S)
# BS21's impact is not before, so the BS22-frame tie cannot change the labels.
@example(1.0, 1.5, 1.5, 0.0, 0.0, 0.0, 0.5, S)
# Gaps written on the lengths would overflow to +-inf here; on the times t = l / c they stay finite.
@example(1.5e308, 1.6e308, 1e307, 0.0, 0.9, -0.9, 0.9, S)
# The BS11-frame gap is 1.4e-15 s, outside the guard band only with gamma = 5/3.
@example(0.44444430454129735, 4.0, 1.0, 0.0, 0.8, 0.0, 0.0, S)
@given(lengths, lengths, leg_gaps, st.floats(min_value=-1e3, max_value=1e3), betas, betas, betas, settings_strategy)
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
    """classify's labels and bs21_before, or its refusal, and report's series, for any accepted geometry.

    The labels are the oracle's boosted-frame ones.  Only a point whose labels
    a guard-band flip could change may be refused.
    """
    l11 = length_bs11 + m11_displacement
    assume(l11 > 0.0)
    l22 = math.nextafter(length_bs21, math.inf) if leg_gap == 0.0 else length_bs21 + leg_gap
    geometry = ExperimentGeometry(
        length_bs11, length_bs21, l22, m11_displacement, beta_bs11, beta_bs21, beta_bs22
    )
    expected = reference.reference_labels(l11, length_bs21, l22, beta_bs11, beta_bs21, beta_bs22)
    try:
        assignment = classify(geometry)
    except AmbiguousScheduleError as error:
        assert expected.near_tie
        assert "guard band" in str(error)
        return
    # At rest every frame is the lab's, so the lengths alone name the series
    # that report prints: BS11's impact before both of photon 2's (2), between
    # them (3) or after both (1).  A moving splitter leaves no lab ordering to name.
    at_rest = (beta_bs11, beta_bs21, beta_bs22) == AT_REST
    series = (2 if l11 < length_bs21 else 3 if l11 < l22 else 1) if at_rest else None
    got = (assignment.label1.value, assignment.label2.value, assignment.bs21_before)
    assert (*got, report._series(geometry, assignment)) == (*expected.assignment, series)
    for variant in ModelVariant:
        assert fair_deviation(predict(settings, assignment, variant).joint) < ATOL


def test_guard_band_refuses_inside_and_decides_at_its_edge() -> None:
    # The reference allows a refusal wherever a flip inside the band could
    # change the labels, so it cannot say where the band ends; these cases
    # pin the edge, and so compare outcomes themselves.  Near-ties of BS11
    # with BS21 (1e-16 s, and 1.5e-7 m, half the guard band) and an exact
    # tie of BS11 with BS22 are refused, naming the comparison.
    for geometry, comparison in (
        (NEAR_TIE, "BS11 vs BS21"),
        ((1.0, 1.0 + 1.5e-7, 2.0), "BS11 vs BS21"),
        ((2.0, 1.0, 2.0), "BS11 vs BS22"),
    ):
        with pytest.raises(AmbiguousScheduleError, match=f"^{comparison} in the BS11 frame: .*guard band"):
            classify(ExperimentGeometry(*geometry))
    # Arrival times exactly the guard band apart, and three times it, still decide.
    assert 5.99792458e-07 / SPEED_OF_LIGHT - 3e-7 / SPEED_OF_LIGHT == timing.GUARD_BAND_S
    assert 1.199377374e-06 / SPEED_OF_LIGHT - 3e-7 / SPEED_OF_LIGHT == 3e-15
    for length_bs21 in (5.99792458e-07, 1.199377374e-06):
        assert classify(ExperimentGeometry(3e-7, length_bs21, 1e-3)) == for_series(2)


@pytest.mark.parametrize("case", LARGE_GEOMETRIES)
def test_large_geometries_have_their_exact_gap(case: str) -> None:
    # Kept apart from the xfail below, whose expected AssertionError would hide a wrong exact gap.
    geometry, deciding, exact_gap_s, exact_outcome = LARGE_GEOMETRIES[case]
    signed_square = exact_gaps(*geometry)[deciding]
    assert math.sqrt(signed_square) == pytest.approx(exact_gap_s, rel=0.01)
    assert (signed_square < Fraction(timing.GUARD_BAND_S) ** 2) == (type(exact_outcome) is str)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="classify decides on float gaps (ROADMAP item 13)")
@pytest.mark.parametrize("case", LARGE_GEOMETRIES)
def test_large_geometries_take_their_exact_outcome(case: str) -> None:
    geometry, _, _, exact_outcome = LARGE_GEOMETRIES[case]
    refused = type(exact_outcome) is str
    outcome = _outcome(ExperimentGeometry(*geometry[:3], 0.0, *geometry[3:]))
    assert str(outcome).startswith(exact_outcome) if refused else outcome == exact_outcome, outcome


@pytest.mark.parametrize(
    "geometry, pairing",
    [
        # Series 3 at rest; a BS11 frame moving toward photon 2 puts BS11's impact after both.
        (ExperimentGeometry(2.0, 1.0, 3.0, beta_bs11=0.5), (PhotonOneLabel.A11_22, PhotonTwoLabel.A22)),
        # Series 1 at rest; a BS11 frame moving toward photon 1 puts BS11's
        # impact first, while photon 2's resting frames still call both of theirs before.
        (ExperimentGeometry(2.0, 1.0, 3.0, 2.0, beta_bs11=-0.9), (PhotonOneLabel.B11, PhotonTwoLabel.B22)),
        # Series 3 at rest; a BS11 frame moving toward photon 1 keeps BS11's impact between
        # photon 2's, while a BS22 frame moving toward photon 2 calls photon 2's final impact before.
        (
            ExperimentGeometry(2.0, 1.0, 3.0, beta_bs11=-0.3, beta_bs22=0.3),
            (PhotonOneLabel.A11_21, PhotonTwoLabel.B22),
        ),
    ],
)
def test_moving_splitters_reach_pairings_no_rest_geometry_has(
    geometry: ExperimentGeometry, pairing: tuple[PhotonOneLabel, PhotonTwoLabel]
) -> None:
    # The oracle reaches each pairing; the reference property takes each
    # geometry as an example, where classify must agree and report name no series.
    assert pairing not in timing.SERIES_BY_PAIRING
    labels = reference.reference_labels(
        geometry.effective_length_bs11,
        geometry.length_bs21,
        geometry.length_bs22,
        geometry.beta_bs11,
        geometry.beta_bs21,
        geometry.beta_bs22,
    )
    assert labels.pairing == (pairing[0].value, pairing[1].value)


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


def test_an_assignment_holds_no_series() -> None:
    # The series is report's to derive from the geometry; an assignment takes none.
    assert [f.name for f in dataclasses.fields(TimingAssignment)] == ["label1", "label2", "bs21_before"]
    with pytest.raises(TypeError):
        TimingAssignment(PhotonOneLabel.B11, PhotonTwoLabel.A22, True, 2)
    with pytest.raises(TypeError):
        TimingAssignment(PhotonOneLabel.B11, PhotonTwoLabel.A22, series=2)
    assert repr(TimingAssignment(PhotonOneLabel.B11, PhotonTwoLabel.A22)) == (
        "TimingAssignment(label1=<PhotonOneLabel.B11: 'b11'>, label2=<PhotonTwoLabel.A22: 'a22'>, bs21_before=True)"
    )


# --- geometry ------------------------------------------------------------------


def test_geometry_rejects_bad_lengths() -> None:
    with pytest.raises(ValueError):
        ExperimentGeometry(length_bs11=0.0, length_bs21=1.0, length_bs22=2.0)
    with pytest.raises(ValueError):
        ExperimentGeometry(length_bs11=1.0, length_bs21=1.0, length_bs22=2.0, m11_displacement=-1.0)
    # Photon 2's impacts lie on one light ray: BS22's leg must be the longer,
    # whatever the splitters' velocities.  Legs of equal length, and reversed.
    for velocities in (AT_REST, (0.0, 0.9, -0.9)):
        for lengths in ((1.0, 1.0, 1.0), (1.0, 1.0, 0.5), (2.0, 3.0, 1.0)):
            with pytest.raises(ValueError, match="BS21 before BS22") as error:
                ExperimentGeometry(*lengths, 0.0, *velocities)
            # A bad input, not an ambiguity to refuse later.
            assert not isinstance(error.value, AmbiguousScheduleError)
    # Two finite lengths whose sum is not.
    with pytest.raises(ValueError, match="effective_length_bs11 must be finite"):
        ExperimentGeometry(
            length_bs11=1e308, length_bs21=1.0, length_bs22=2.0, m11_displacement=1e308
        )


def test_schedule_from_geometry_returns_its_argument() -> None:
    # Kept for older callers: classify takes the geometry itself.
    geometry = ExperimentGeometry(length_bs11=1.0, length_bs21=1.0, length_bs22=2.0, m11_displacement=0.5)
    assert schedule_from_geometry(geometry) is geometry


def _gaps(geometry: ExperimentGeometry) -> tuple[float, ...]:
    """classify's four gaps (s) for the geometry's fields."""
    paths = (geometry.effective_length_bs11, geometry.length_bs21, geometry.length_bs22)
    betas = (geometry.beta_bs11, geometry.beta_bs21, geometry.beta_bs22)
    return timing._frame_gaps(*(path / SPEED_OF_LIGHT for path in paths), *betas)


# Preset 3 at both ends of the scale, and the near-tie, refused as it is and decided at 2^30 times its size.
@example(2.0, 1.0, 2.0, 0.0, AT_REST, -30)
@example(2.0, 1.0, 2.0, 0.0, AT_REST, 30)
@example(*NEAR_TIE[:2], 1.0, 0.0, AT_REST, 30)
@given(
    lengths, lengths, leg_gaps, st.floats(min_value=-1e3, max_value=1e3), st.tuples(betas, betas, betas), st.integers(-30, 30)
)
def test_scaling_every_length_by_a_power_of_two_scales_every_gap_exactly(
    length_bs11: float,
    length_bs21: float,
    leg_gap: float,
    m11_displacement: float,
    velocities: tuple[float, float, float],
    k: int,
) -> None:
    """Lengths times 2^k give gaps times 2^k, bit for bit, and the same outcome where no gap is in the guard band.

    Only the guard band, an absolute time, sets a scale: a gap inside it
    before or after scaling may be refused on one side and decided on the other.
    """
    l22 = math.nextafter(length_bs21, math.inf) if leg_gap == 0.0 else length_bs21 + leg_gap
    fields = (length_bs11, length_bs21, l22, m11_displacement)
    try:
        geometry = ExperimentGeometry(*fields, *velocities)
    except ValueError:
        assume(False)
    scaled = ExperimentGeometry(*(math.ldexp(field, k) for field in fields), *velocities)
    gaps, scaled_gaps = _gaps(geometry), _gaps(scaled)
    assert scaled_gaps == tuple(math.ldexp(gap, k) for gap in gaps)
    if all(abs(gap) >= timing.GUARD_BAND_S for gap in (*gaps, *scaled_gaps)):
        assert classify(scaled) == classify(geometry)


# --- the stored outcome ----------------------------------------------------------


def _outcome(geometry: ExperimentGeometry) -> TimingAssignment | str:
    """classify's assignment, or its refusal's message."""
    try:
        return classify(geometry)
    except AmbiguousScheduleError as error:
        return str(error)


# The presets, series 3's moved to series 1's M11 displacement, and the
# near-tie, moved 0.5 m closer to the source, where series 2 clears it.
@example(2.0, 1.0, 3.0, 2.0, 0.0, False, AT_REST)
@example(2.0, 1.0, 3.0, -1.5, 0.0, False, AT_REST)
@example(2.0, 1.0, 3.0, 0.0, 2.0, False, AT_REST)
@example(*NEAR_TIE, 0.0, -0.5, False, AT_REST)
@given(
    lengths,
    lengths,
    lengths,
    st.floats(min_value=-0.5, max_value=10.0),
    st.floats(min_value=-0.5, max_value=10.0),
    st.booleans(),
    st.tuples(betas, betas, betas),
)
def test_a_geometry_keeps_the_classification_its_fields_give(
    l11: float,
    l21: float,
    l22: float,
    displacement: float,
    moved_to: float,
    moving: bool,
    velocities: tuple[float, float, float],
) -> None:
    fields = dict(
        length_bs11=l11,
        length_bs21=l21,
        length_bs22=l22,
        m11_displacement=displacement,
        **dict(zip(("beta_bs11", "beta_bs21", "beta_bs22"), velocities if moving else AT_REST)),
    )
    try:
        geometry = ExperimentGeometry(**fields)
    except ValueError:
        assume(False)
    outcome = _outcome(geometry)
    if isinstance(outcome, str):
        # A refusal is raised afresh on every call: a new error, with the same message.
        errors = [pytest.raises(AmbiguousScheduleError, classify, geometry).value for _ in range(2)]
        assert errors[0] is not errors[1]
        assert [str(error) for error in errors] == [outcome, outcome]
    else:
        assert classify(geometry) is outcome
    # The stored outcome is not a field: equal fields mean equal, equally
    # hashed geometries with equal outcomes, and every copy keeps it.
    twin = ExperimentGeometry(**fields)
    assert twin == geometry and hash(twin) == hash(geometry)
    assert "classification" not in repr(geometry).lower()
    assert [f.name for f in dataclasses.fields(geometry)] == [*fields]
    clones = (pickle.loads(pickle.dumps(geometry)), copy.copy(geometry), copy.deepcopy(geometry))
    for clone in (twin, dataclasses.replace(geometry), *clones):
        assert clone == geometry
        assert _outcome(clone) == outcome
    try:
        moved = dataclasses.replace(geometry, m11_displacement=moved_to)
    except ValueError:
        return
    assert _outcome(moved) == _outcome(ExperimentGeometry(**{**fields, "m11_displacement": moved_to}))


def _gap_counter(monkeypatch: pytest.MonkeyPatch) -> list[int]:
    """A one-item list counting timing._frame_gaps calls from here on."""
    calls = [0]
    frame_gaps = timing._frame_gaps

    def counting_frame_gaps(*args: float) -> tuple:
        calls[0] += 1
        return frame_gaps(*args)

    monkeypatch.setattr(timing, "_frame_gaps", counting_frame_gaps)
    return calls


def test_classify_stores_its_assignment_on_the_geometry(monkeypatch: pytest.MonkeyPatch) -> None:
    calls = _gap_counter(monkeypatch)
    for geometry_lengths in ((2.0, 1.0, 3.0), NEAR_TIE):
        calls[0] = 0
        geometry = ExperimentGeometry(*geometry_lengths)
        assert calls[0] == 1  # the four gaps, once, when the geometry is made
        for _ in range(3):
            _outcome(geometry)
        assert calls[0] == 1  # classify only reads what construction stored, a refusal too
        # The stored outcome is not a field, so replace builds a geometry without it.
        dataclasses.replace(geometry)
        assert calls[0] == 2


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


@pytest.mark.parametrize("clone", [copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value))])
def test_cloned_assignments_keep_their_rule_row(clone) -> None:
    rules = rnl._RULES[ModelVariant.RNL_STANDARD]
    assignments = [TimingAssignment(label1, label2) for label1, label2 in rules]
    for assignment in (*assignments, *(for_series(series) for series in (1, 2, 3))):
        cloned = clone(assignment)
        assert cloned == assignment and hash(cloned) == hash(assignment)
        assert cloned.label1 is assignment.label1 and cloned.label2 is assignment.label2
        assert rules[cloned.pairing] is rules[assignment.pairing]


def test_label_lookups_never_call_the_enum_hash(monkeypatch: pytest.MonkeyPatch) -> None:
    # Enum.__hash__ is Python code; classify, TimingAssignment and predict run
    # once per sweep point, and compare_report and the renderers once per op,
    # so their label and variant lookups, the series one too, must not reach it.
    def refuse(self):
        raise AssertionError(f"Enum.__hash__ called on {self!r}")

    geometries = [series_preset(series) for series in (1, 2, 3)]
    geometries.append(ExperimentGeometry(2.0, 1.0, 3.0, 0.3, beta_bs11=-0.3, beta_bs22=0.3))
    with monkeypatch.context() as patch:
        patch.setattr(enum.Enum, "__hash__", refuse)
        for geometry in geometries:
            assignment = classify(geometry)
            TimingAssignment(assignment.label1, assignment.label2, assignment.bs21_before)
            for variant in ModelVariant:
                predict(KEY_SETTINGS, assignment, variant)
        # compare_report looks each variant's stream up in a dict keyed by ModelVariant.
        for series in (1, 2, 3):
            comparison = compare_report(RunConfig(series=series, n_events=1000, chunk_size=100))
            render_csv(comparison)
            render_table(comparison)
        by_variant = {variant: variant.value for variant in ModelVariant}
        assert by_variant[ModelVariant.RNL_ALTERNATIVE] == "RNL_ALTERNATIVE"


# --- presets ---------------------------------------------------------------------


def test_presets_classify_to_their_series_with_nanosecond_gaps() -> None:
    # A preset's series is its name, which the reference property cannot
    # check, since it derives the series from the lengths: so this test
    # compares each preset's series, and the pairing it names, with the
    # ones it was asked for.
    pairings = {
        1: (PhotonOneLabel.A11_22, PhotonTwoLabel.B22),
        2: (PhotonOneLabel.B11, PhotonTwoLabel.A22),
        3: (PhotonOneLabel.A11_21, PhotonTwoLabel.A22),
    }
    for series, pairing in pairings.items():
        geometry = series_preset(series)
        times = sorted(
            length / SPEED_OF_LIGHT
            for length in (geometry.effective_length_bs11, geometry.length_bs21, geometry.length_bs22)
        )
        assert times[1] - times[0] >= 1e-9
        assert times[2] - times[1] >= 1e-9
        assert (geometry.beta_bs11, geometry.beta_bs21, geometry.beta_bs22) == AT_REST
        assert report._series(geometry, classify(geometry)) == series
        assert classify(geometry).pairing == pairing


def test_presets_are_shared() -> None:
    for series in (1, 2, 3):
        assert series_preset(series) is series_preset(series)
        assert series_preset(np.int64(series)) is series_preset(series)
    assert len({id(series_preset(series)) for series in (1, 2, 3)}) == 3


