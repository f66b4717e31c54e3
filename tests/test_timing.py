"""Impact classification against the exact gaps, its stored outcome, geometries and presets.

Two properties own what classify gives.  test_classify_agrees_with_the_reference_labels
owns every outcome: the labels and bs21_before of each geometry, or its
refusal, against the signs of helpers.exact_gaps, the exact Lorentz boosts of
the three impacts, and the series that report derives from them, against the
lab ordering.  Its rule is helpers.allowed_outcomes, which the CLI's oracle,
helpers.reference_rows, shares.  test_a_geometry_keeps_the_classification_its_fields_give
owns the stored outcome: equal fields, copies and replace give the same one,
and a refusal is raised afresh on every call.  The other tests check what
neither can: the exact boost helpers.boost, the float gaps' rounding bound,
the guard band's edge, the Doppler thresholds and the pairings only moving
splitters reach, the symmetries of length scale and observer frame, the
presets, input checks and when the gaps are computed.

Every property draws its geometry from one strategy, helpers.geometries:
accepted geometries with lengths from 1e-3 to 1e3 m, photon 2's legs
sometimes one ulp apart, splitters often at rest, and about half the time
one of classify's four gaps, in any of the three frames, within 3 guard
bands of a tie.
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
from hypothesis import Phase, assume, example, find, given, settings
from hypothesis import strategies as st

from helpers import (
    ATOL,
    COMPARISONS,
    GAP_FRAMES,
    KEY_SETTINGS,
    allowed_outcomes,
    boost,
    exact_gaps,
    exact_reference,
    fair_deviation,
    for_series,
    geometries,
    lab_series,
    paths_and_betas,
    rounding_bounds,
    settings_strategy,
)
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


# --- the exact boost -----------------------------------------------------------


finite = st.floats(allow_nan=False, allow_infinity=False)


@example(1.0, 123.0, 0.0)
@given(finite, finite, st.sampled_from((0.0, -0.0)))
def test_boost_identity_at_rest(t: float, x_over_c: float, beta: float) -> None:
    assert boost(Fraction(t), Fraction(x_over_c), Fraction(beta)) == (Fraction(t), 1)


def test_boost_pure_time_dilation() -> None:
    # gamma = 5/4 at 3/5 c.
    assert boost(Fraction(1), Fraction(0), Fraction(3, 5)) == (1, Fraction(25, 16))


def test_boost_with_position_offset() -> None:
    # x chosen so that t - beta x / c = t (1 - beta^2), i.e. boosted time t / gamma = 4/5.
    beta = Fraction(3, 5)
    u, gamma_squared = boost(Fraction(1), beta, beta)
    assert u > 0
    assert u * u * gamma_squared == Fraction(4, 5) ** 2


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
    x_over_c = Fraction(x) / Fraction(SPEED_OF_LIGHT)
    (u_a, _), (u_b, _) = (boost(Fraction(t), x_over_c, Fraction(beta)) for t in (t_a, t_b))
    assert (t_a > t_b) == (u_a - u_b > 0)


# --- the exact gaps ------------------------------------------------------------


def _large(case: str) -> ExperimentGeometry:
    """The LARGE_GEOMETRIES case as a geometry."""
    l11, l21, l22, *velocities = LARGE_GEOMETRIES[case][0]
    return ExperimentGeometry(l11, l21, l22, 0.0, *velocities)


# The BS11-frame gap is 1.4e-15 s with gamma = 5/3, and 0.84e-15 s without it.
@example(ExperimentGeometry(0.44444430454129735, 4.0, 5.0, beta_bs11=0.8))
@example(ExperimentGeometry(1.5e308, 1.6e308, 1.7e308, 0.0, 0.9, -0.9, 0.9))
# Each float gap is within its bound of the exact one, but on the wrong side of 0 or of the guard band.
@example(_large("wrong-side"))
@example(_large("guessed-near-tie"))
@given(geometries(max_beta=0.999))
def test_closed_form_gaps_are_within_their_rounding_bound_of_the_exact_gaps(geometry: ExperimentGeometry) -> None:
    fields = paths_and_betas(geometry)
    for gap, signed_square, bound in zip(_gaps(geometry), exact_gaps(*fields), rounding_bounds(*fields)):
        assert math.isfinite(gap)
        # x |x| is increasing, so the exact gap is in [low, high] iff its signed square is.
        low, high = (Fraction(gap) + side * bound for side in (-1, 1))
        assert low * abs(low) <= signed_square <= high * abs(high)


# --- classification: the one owner of every outcome ---------------------------

S = PhaseSettings(0.8, 0.1, 2.0)  # the settings of every example


# At rest, one geometry per series: (a11[22], b22) with BS21 before is series 1,
# (b11, a22) with BS21 not before series 2, (a11[21], a22) with BS21 before series 3.
@example(ExperimentGeometry(3.0, 1.0, 2.0), S)
@example(ExperimentGeometry(1.0, 2.0, 3.0), S)
@example(ExperimentGeometry(2.0, 1.0, 3.0), S)
# Series 3 with BS11's path set by the M11 displacement: 1 m + 0.5 m, between 1 m and 2 m.
@example(ExperimentGeometry(1.0, 1.0, 2.0, 0.5), S)
# Series 2 with BS11's and BS21's arrivals exactly the guard band apart, and three times it.
@example(ExperimentGeometry(3e-7, 5.99792458e-07, 0.001000599792458), S)
@example(ExperimentGeometry(3e-7, 1.199377374e-06, 0.001001199377374), S)
# Presets 1, 2 and 3 with one splitter moving at beta = 1e-3: the shift, ~1e-11 s, is
# far inside their nanosecond gaps, so the pairing stays and the series goes.
@example(ExperimentGeometry(2.0, 1.0, 3.0, 2.0, beta_bs21=1e-3), S)
@example(ExperimentGeometry(2.0, 1.0, 3.0, -1.5, beta_bs22=1e-3), S)
@example(ExperimentGeometry(2.0, 1.0, 3.0, beta_bs11=1e-3), S)
# A beta of -0.0 is at rest, and keeps preset 2's series.
@example(ExperimentGeometry(2.0, 1.0, 3.0, -1.5, -0.0, -0.0, -0.0), S)
# The three pairings no rest geometry has: (a11[22], a22), (b11, b22) and (a11[21], b22).
@example(ExperimentGeometry(2.0, 1.0, 3.0, beta_bs11=0.5), S)
@example(ExperimentGeometry(2.0, 1.0, 3.0, 2.0, beta_bs11=-0.9), S)
@example(ExperimentGeometry(2.0, 1.0, 3.0, beta_bs11=-0.3, beta_bs22=0.3), S)
# Legs one ulp apart, moving and at rest: their frame (or lab) times once rounded into a tie.
@example(ExperimentGeometry(2.0, 3.631, math.nextafter(3.631, math.inf), beta_bs21=0.7, beta_bs22=0.7), S)
@example(ExperimentGeometry(1.0, 2.682, math.nextafter(2.682, math.inf)), S)
# A near-tie, refused.
@example(ExperimentGeometry(*NEAR_TIE), S)
# BS21's impact is not before, so the BS22-frame tie cannot change the labels.
@example(ExperimentGeometry(1.0, 1.5, 3.0, beta_bs22=0.5), S)
# Gaps written on the lengths would overflow to +-inf here; on the times t = l / c they stay finite.
@example(ExperimentGeometry(1.5e308, 1.6e308, 1.7e308, 0.0, 0.9, -0.9, 0.9), S)
# The BS11-frame gap is 1.4e-15 s, outside the guard band only with gamma = 5/3.
@example(ExperimentGeometry(0.44444430454129735, 4.0, 5.0, beta_bs11=0.8), S)
# Exact ties in BS21's frame and in BS22's, so that a guessed tie there fails whatever the seed draws.
@example(ExperimentGeometry(1.0, 3.0, 6.0, 0.0, 0.0, 0.5), S)
@example(ExperimentGeometry(2.0, 1.0, 6.0, 0.0, 0.0, 0.0, 0.5), S)
@given(geometries(), settings_strategy)
def test_classify_agrees_with_the_reference_labels(geometry: ExperimentGeometry, phase_settings: PhaseSettings) -> None:
    """classify's labels and bs21_before, or its refusal, and report's series, for any accepted geometry.

    A decided geometry has the labels that the exact gaps' signs give, and each
    gap that decided them is at least GUARD_BAND_S less its rounding bound
    exactly: a near-tie is never guessed.  A refusal names a comparison whose
    exact gap is within GUARD_BAND_S plus its rounding bound.  Of the gate's
    mutants (tests/mutants.py) it kills those that flip a beta's sign in one
    term of _frame_gaps, drop the gammas, read beta21 for beta22, read BS11's
    second gap or BS21's as the negated other-frame gap, guess a near-tie in
    BS21's or BS22's frame, read the BS22 gap when BS21's impact is not
    before, label a11[21] as a11[22], swap the presets of series 1 and 2, or
    derive report's series from a wrong table or a wrong at-rest test; other
    tests kill each of these too.
    """
    labels, refusable = allowed_outcomes(geometry)
    try:
        assignment = classify(geometry)
    except AmbiguousScheduleError as error:
        comparison, _, reason = str(error).partition(": ")
        assert "guard band" in reason and comparison in refusable
        return
    assert labels is not None, "a near-tie was decided"
    got = (assignment.label1.value, assignment.label2.value, assignment.bs21_before)
    assert (*got, report._series(geometry, assignment)) == (*labels, lab_series(geometry))
    for variant in ModelVariant:
        assert fair_deviation(predict(phase_settings, assignment, variant).joint) < ATOL


@pytest.mark.parametrize("comparison", COMPARISONS)
def test_geometries_reach_a_tie_in_every_comparison(comparison: str) -> None:
    # For each comparison the strategy draws a decided geometry whose exact gap
    # there decides within 2 guard bands, and a refusal that names it.  Equal
    # lengths, equal betas and legs one ulp apart tie frames without any tie
    # placement, so the refusal must come from a splitter moving at a beta of
    # its own, with photon 2's impacts more than 3 guard bands apart; and a
    # tie aimed at the pair's other splitter is a tie there, so that splitter
    # must see the two impacts more than 3 guard bands apart.  Without tie
    # placement, or with it aimed at the wrong frame, no such refusal is found.
    index, band = COMPARISONS.index(comparison), Fraction(timing.GUARD_BAND_S)

    def refused_in_its_frame_alone(geometry: ExperimentGeometry) -> bool:
        _, l21, l22, *velocities = paths_and_betas(geometry)
        beta = velocities[GAP_FRAMES[index][0]]
        if _decision(geometry) != comparison or beta == 0.0 or velocities.count(beta) > 1:
            return False
        same_pair = exact_reference(geometry)[0][(2, 3, 0, 1)[index]]  # the same two impacts, in the other splitter's frame
        return l22 - l21 > 3 * timing.GUARD_BAND_S * SPEED_OF_LIGHT and abs(same_pair) >= (3 * band) ** 2

    def decided_near_tie(geometry: ExperimentGeometry) -> bool:
        exact, _, _, deciding = exact_reference(geometry)
        return index in deciding and abs(exact[index]) < (2 * band) ** 2 and not isinstance(_outcome(geometry), str)

    search = settings(max_examples=2000, database=None, phases=[Phase.generate])
    find(geometries(), refused_in_its_frame_alone, settings=search)
    find(geometries(), decided_near_tie, settings=search)


def test_guard_band_refuses_inside_and_decides_at_its_edge() -> None:
    # The reference property allows each gap its rounding bound on both sides
    # of the band, so it cannot say where the band ends, and it meets each
    # comparison's refusal only as its draws fall: these fixed cases pin each
    # refusal's exact message and the band's exact edge.  Near-ties of BS11
    # with BS21 (1e-16 s, and 1.5e-7 m, half the guard band) and exact ties
    # of BS11 with BS22, with BS21 at 0.5 c and with BS22 at 0.5 c are
    # refused, naming the comparison.
    for geometry, comparison in (
        (NEAR_TIE, "BS11 vs BS21 in the BS11"),
        ((1.0, 1.0 + 1.5e-7, 2.0), "BS11 vs BS21 in the BS11"),
        ((2.0, 1.0, 2.0), "BS11 vs BS22 in the BS11"),
        ((1.0, 3.0, 6.0, 0.0, 0.0, 0.5), "BS21 vs BS11 in the BS21"),
        ((2.0, 1.0, 6.0, 0.0, 0.0, 0.0, 0.5), "BS22 vs BS11 in the BS22"),
    ):
        with pytest.raises(AmbiguousScheduleError, match=f"^{comparison} frame: .*guard band"):
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
    exact_outcome = LARGE_GEOMETRIES[case][3]
    refused = type(exact_outcome) is str
    outcome = _outcome(_large(case))
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
    # The exact gaps reach each pairing; the reference property takes each
    # geometry as an example, where classify must agree and report name no series.
    assert pairing not in timing.SERIES_BY_PAIRING
    assert exact_reference(geometry)[2][:2] == (pairing[0].value, pairing[1].value)


# At rest, series 1, 2 and 3; then the pairings only moving splitters reach:
# (a11[22], a22), (b11, b22) and (a11[21], b22).
@example(ExperimentGeometry(4.0, 1.0, 3.0))
@example(ExperimentGeometry(0.5, 1.0, 3.0))
@example(ExperimentGeometry(2.0, 1.0, 3.0))
@example(ExperimentGeometry(2.0, 1.0, 3.0, beta_bs11=0.5))
@example(ExperimentGeometry(4.0, 1.0, 3.0, beta_bs11=-0.9))
@example(ExperimentGeometry(2.0, 1.0, 3.0, beta_bs11=-0.3, beta_bs22=0.3))
@given(geometries())
def test_each_gap_has_the_sign_of_a_doppler_factor_less_a_length_ratio(geometry: ExperimentGeometry) -> None:
    """ROADMAP item 6's thresholds, exactly, and the pairings they let each set of velocities reach.

    With x = l11 / l21, y = l11 / l22 and each splitter's Doppler factor
    k = (1 - beta) / (1 + beta), the four gaps have the signs of k11 - x,
    k11 - y, x - k21 and y - k22.  So photon 1 is b11 iff x < k11, a11[21]
    iff y < k11 < x and a11[22] iff y > k11; BS21's impact is before iff
    x > k21, and photon 2 is b22 iff also y > k22.  Where each deciding gap
    clears the guard band by its rounding bound, classify decides so.  Hence
    (b11, b22) needs beta21 > beta11, beta22 > beta11 and l22 / l21 < k11 / k22,
    (a11[21], b22) needs beta22 > beta11, and (a11[22], a22) needs
    beta11 > min(beta21, beta22).
    """
    exact, bounds, _, deciding = exact_reference(geometry)
    l11, l21, l22, beta11, beta21, beta22 = paths_and_betas(geometry)
    x, y = Fraction(l11) / Fraction(l21), Fraction(l11) / Fraction(l22)
    k11, k21, k22 = ((1 - Fraction(beta)) / (1 + Fraction(beta)) for beta in (beta11, beta21, beta22))
    signs = [(value > 0) - (value < 0) for value in (*exact, k11 - x, k11 - y, x - k21, y - k22)]
    assert signs[:4] == signs[4:]
    band = Fraction(timing.GUARD_BAND_S)
    clear = all(abs(exact[index]) >= (band + bounds[index]) ** 2 for index in deciding)
    try:
        assignment = classify(geometry)
    except AmbiguousScheduleError:
        assert not clear
        return
    got = (assignment.label1.value, assignment.label2.value, assignment.bs21_before)
    if clear:
        label1 = "b11" if x < k11 else "a11[21]" if y < k11 else "a11[22]"
        assert got == (label1, "b22" if x > k21 and y > k22 else "a22", x > k21)
    if got[:2] == ("b11", "b22"):
        assert beta21 > beta11 and beta22 > beta11 and Fraction(l22) / Fraction(l21) < k11 / k22
    elif got[:2] == ("a11[21]", "b22"):
        assert beta22 > beta11
    elif got[:2] == ("a11[22]", "a22"):
        assert beta11 > min(beta21, beta22)


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


@pytest.mark.parametrize("beta", [1.0, -1.0, 1.5, float("nan"), float("inf")])
def test_geometry_rejects_unphysical_beta(beta: float) -> None:
    # No frame moves at |beta| >= 1, so no splitter may.
    for name in ("beta_bs11", "beta_bs21", "beta_bs22"):
        with pytest.raises(ValueError, match=name):
            ExperimentGeometry(2.0, 1.0, 3.0, **{name: beta})


def test_schedule_from_geometry_returns_its_argument() -> None:
    # Kept for older callers: classify takes the geometry itself.
    geometry = ExperimentGeometry(length_bs11=1.0, length_bs21=1.0, length_bs22=2.0, m11_displacement=0.5)
    assert schedule_from_geometry(geometry) is geometry


def _gaps(geometry: ExperimentGeometry) -> tuple[float, ...]:
    """classify's four gaps (s) for the geometry's fields."""
    l11, l21, l22, *betas = paths_and_betas(geometry)
    return timing._frame_gaps(l11 / SPEED_OF_LIGHT, l21 / SPEED_OF_LIGHT, l22 / SPEED_OF_LIGHT, *betas)


# Preset 3 at both ends of the scale, and the near-tie, refused as it is and decided at 2^30 times its size.
@example(ExperimentGeometry(2.0, 1.0, 3.0), -30)
@example(ExperimentGeometry(2.0, 1.0, 3.0), 30)
@example(ExperimentGeometry(*NEAR_TIE), 30)
@given(geometries(), st.integers(-30, 30))
def test_scaling_every_length_by_a_power_of_two_scales_every_gap_exactly(geometry: ExperimentGeometry, k: int) -> None:
    """Lengths times 2^k give gaps times 2^k, bit for bit, and the same outcome where no gap is in the guard band.

    Only the guard band, an absolute time, sets a scale: a gap inside it
    before or after scaling may be refused on one side and decided on the other.
    Of the gate's mutants (tests/mutants.py) it kills one, which no other test
    kills: a floor of 1e-9 m on the lengths, a scale no other test's lengths reach.
    """
    length_fields = ("length_bs11", "length_bs21", "length_bs22", "m11_displacement")
    scaled = dataclasses.replace(geometry, **{name: math.ldexp(getattr(geometry, name), k) for name in length_fields})
    gaps, scaled_gaps = _gaps(geometry), _gaps(scaled)
    assert scaled_gaps == tuple(math.ldexp(gap, k) for gap in gaps)
    if all(abs(gap) >= timing.GUARD_BAND_S for gap in (*gaps, *scaled_gaps)):
        assert classify(scaled) == classify(geometry)


# Seen from a frame moving at u, each impact stays on its light ray from the
# source: photon 1's lengths become l gamma_u (1 + u), photon 2's l gamma_u (1 - u),
# and each splitter's beta (beta - u) / (1 - beta u).  Rounding in the moving
# frame's betas, amplified by its gammas (up to 9.5 at |beta|, |u| <= 0.9) and
# its lengths, moved a gap by at most 290 ulps of the largest arrival time
# over 2e5 random geometries.  The bound is 4096 ulps.
FRAME_ROUNDING = 2.0**-40


def _decision(geometry: ExperimentGeometry) -> TimingAssignment | str:
    """classify's assignment, or the comparison its refusal names without the gap, which frames round apart."""
    outcome = _outcome(geometry)
    return outcome.partition(":")[0] if isinstance(outcome, str) else outcome


@given(geometries())
def test_every_exact_gap_is_the_same_seen_from_a_frame_at_three_fifths_c(geometry: ExperimentGeometry) -> None:
    """At u = 3/5, gamma_u = 5/4, so photon 1's lengths double and photon 2's halve, both exactly.

    Each gap is a time difference in one splitter's rest frame, so no observer
    frame can move it.  The moving frame's betas are rationals but not floats:
    exact_gaps takes them, and classify only in the float form.  This form reads
    no package code but SPEED_OF_LIGHT, so it kills no gate mutant (tests/mutants.py).
    """
    u = Fraction(3, 5)
    l11, l21, l22, *velocities = paths_and_betas(geometry)
    observed = ((Fraction(beta) - u) / (1 - Fraction(beta) * u) for beta in velocities)
    assert exact_gaps(2.0 * l11, l21 / 2.0, l22 / 2.0, *observed) == exact_gaps(l11, l21, l22, *velocities)


# Preset 3 seen from 3/5 c; splitters at 0.9 seen from -0.9 c, at 0.9945 c; a tie
# of BS11 with BS22 in BS22's frame, refused in both; and the near-tie at 0.5 c.
@example(ExperimentGeometry(2.0, 1.0, 3.0), 0.6)
@example(ExperimentGeometry(2.0, 1.0, 3.0, 0.0, 0.9, -0.9, 0.9), -0.9)
@example(ExperimentGeometry(0.33333333333333326, 1.0, 3.0, 0.0, 0.3, 0.6, 0.8), 0.5)
@example(ExperimentGeometry(*NEAR_TIE), 0.5)
@given(geometries(max_beta=0.9), st.floats(min_value=-0.9, max_value=0.9))
def test_labels_are_the_same_seen_from_any_observer_frame(geometry: ExperimentGeometry, u: float) -> None:
    """The four gaps agree within FRAME_ROUNDING of the largest arrival time, and so do the outcomes away from the guard band.

    The strategy's ties draw refusals and gaps at the band's edge too.  Where
    a gap lies within the bound of the guard band, the transform's rounding
    may flip it.  Of the gate's mutants (tests/mutants.py) it kills those that
    flip a beta's sign in one term of _frame_gaps, drop the gammas, read
    beta21 for beta22 or g11 for g21, or read the BS22 gap when BS21's impact
    is not before; other tests kill these too.  It alone kills a refusal of
    |beta| > 0.99: only its moving frames draw such betas.
    """
    l11, l21, l22, *velocities = paths_and_betas(geometry)
    gamma_u = (1.0 - u * u) ** -0.5
    observed_l21, observed_l22 = l21 * gamma_u * (1.0 - u), l22 * gamma_u * (1.0 - u)
    # Legs one ulp apart can round into one length in the moving frame, which no geometry has.
    assume(observed_l22 > observed_l21)
    observed = ExperimentGeometry(
        l11 * gamma_u * (1.0 + u),
        observed_l21,
        observed_l22,
        0.0,
        *((beta - u) / (1.0 - beta * u) for beta in velocities),
    )
    bound = FRAME_ROUNDING * max(l11, l22) / SPEED_OF_LIGHT
    gaps = _gaps(geometry)
    assert all(abs(seen - gap) <= bound for seen, gap in zip(_gaps(observed), gaps))
    if all(abs(abs(gap) - timing.GUARD_BAND_S) > bound for gap in gaps):
        assert _decision(observed) == _decision(geometry)


# --- the stored outcome ----------------------------------------------------------


def _outcome(geometry: ExperimentGeometry) -> TimingAssignment | str:
    """classify's assignment, or its refusal's message."""
    try:
        return classify(geometry)
    except AmbiguousScheduleError as error:
        return str(error)


# The presets, series 3's moved to series 1's M11 displacement, and the
# near-tie, moved 0.5 m closer to the source, where series 2 clears it.
@example(ExperimentGeometry(2.0, 1.0, 3.0, 2.0), 0.0)
@example(ExperimentGeometry(2.0, 1.0, 3.0, -1.5), 0.0)
@example(ExperimentGeometry(2.0, 1.0, 3.0), 2.0)
@example(ExperimentGeometry(*NEAR_TIE), -0.5)
@given(geometries(), st.floats(min_value=-0.5, max_value=10.0))
def test_a_geometry_keeps_the_classification_its_fields_give(geometry: ExperimentGeometry, moved_to: float) -> None:
    fields = dataclasses.asdict(geometry)
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
    assert [*fields] == [
        "length_bs11", "length_bs21", "length_bs22", "m11_displacement", "beta_bs11", "beta_bs21", "beta_bs22"
    ]
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


