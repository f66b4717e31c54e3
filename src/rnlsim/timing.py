"""Spacetime bookkeeping for the beam-splitter impacts.

All events sit on one collinear optical axis with the source at the origin,
photon 1 travelling toward negative x and photon 2 toward positive x.  Each
beam splitter may carry its own inertial frame; an impact is classified as
"before" or "non-before" from the time orderings evaluated in that
splitter's own frame.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import AmbiguousScheduleError, require_finite, require_flag, require_int

SPEED_OF_LIGHT = 299_792_458.0  # m/s

# Frame-time differences smaller than this are refused as unclassifiable.
GUARD_BAND_S = 1e-15


def _require_beta(name: str, beta: float) -> float:
    beta = require_finite(name, beta)
    if not -1.0 < beta < 1.0:
        raise ValueError(f"{name} must satisfy |beta| < 1, got {beta!r}")
    return beta


@dataclass(frozen=True)
class SpacetimeEvent:
    """A beam-splitter impact at lab time t (s) and axis position x (m)."""

    t: float
    x: float

    def __post_init__(self) -> None:
        for name in ("t", "x"):
            object.__setattr__(self, name, require_finite(name, getattr(self, name)))


def boost_time(event: SpacetimeEvent, beta: float) -> float:
    """Impact time in a frame moving at beta = v/c along the axis: gamma * (t - beta x / c)."""
    return _boost(event, _require_beta("beta", beta))


def _boost(event: SpacetimeEvent, beta: float) -> float:
    """boost_time for a beta already checked."""
    gamma = 1.0 / math.sqrt(1.0 - beta * beta)
    return gamma * (event.t - beta * event.x / SPEED_OF_LIGHT)


@dataclass(frozen=True)
class ImpactSchedule:
    """One impact event per beam splitter plus each splitter's frame velocity.

    Photon 2's flight fixes the causal order BS21 then BS22; a schedule whose
    own-frame times violate that order is rejected.  A schedule is classified
    once, when it is made, from each impact's time in each splitter's frame.
    """

    bs11: SpacetimeEvent
    bs21: SpacetimeEvent
    bs22: SpacetimeEvent
    beta_bs11: float = 0.0
    beta_bs21: float = 0.0
    beta_bs22: float = 0.0

    def __post_init__(self) -> None:
        events = (self.bs11, self.bs21, self.bs22)
        for slot, event in zip(("bs11", "bs21", "bs22"), events):
            if not isinstance(event, SpacetimeEvent):
                raise ValueError(f"{slot} must be a SpacetimeEvent")
        for name in ("beta_bs11", "beta_bs21", "beta_bs22"):
            object.__setattr__(self, name, _require_beta(name, getattr(self, name)))
        # times[f][i]: impact i's time in splitter f's frame, both in BS11, BS21, BS22 order.
        betas = (self.beta_bs11, self.beta_bs21, self.beta_bs22)
        times = [[_boost(event, beta) for event in events] for beta in betas]
        for frame, (_, t21, t22) in (("BS21", times[1]), ("BS22", times[2])):
            if t22 - t21 <= 0.0:  # False for a NaN gap (inf - inf): _classify refuses that
                raise ValueError(f"photon 2 must reach BS21 before BS22, violated in the {frame} frame")
        # Not a field, so out of __eq__, __hash__, __repr__; replace classifies afresh.
        try:
            outcome = _classify(times, betas == (0.0, 0.0, 0.0))
        except AmbiguousScheduleError as error:
            outcome = str(error)
        object.__setattr__(self, "_classification", outcome)


class PhotonOneLabel(enum.Enum):
    """Timing label of photon 1's impact on BS11, in BS11's frame."""

    B11 = "b11"  # before photon 2 reaches BS21
    A11_21 = "a11[21]"  # non-before relative to BS21, still before BS22
    A11_22 = "a11[22]"  # non-before relative to BS22 as well

    # Members are singletons: identity hashing keeps label lookups out of enum.py.
    __hash__ = object.__hash__


class PhotonTwoLabel(enum.Enum):
    """Timing label of photon 2's relevant impact."""

    B21 = "b21"  # BS21 impact before BS11's, photon 2 detected between its splitters
    B22 = "b22"  # final impact before BS11's (and the BS21 one too)
    A22 = "a22"  # final impact non-before

    __hash__ = object.__hash__  # as PhotonOneLabel's


# The lab-ordering series of each pairing a schedule at rest can have.
_SERIES_BY_PAIRING = {
    (PhotonOneLabel.A11_22, PhotonTwoLabel.B22): 1,
    (PhotonOneLabel.B11, PhotonTwoLabel.A22): 2,
    (PhotonOneLabel.A11_21, PhotonTwoLabel.A22): 3,
}


@dataclass(frozen=True)
class TimingAssignment:
    """Before/non-before labels for both photons, plus the series id when defined.

    bs21_before records whether BS21's impact precedes BS11's in BS21's own
    frame; the label2 = a22 case leaves it free, the others imply it.  The
    series id is set only for schedules at rest, where the lab ordering alone
    decides it.
    """

    label1: PhotonOneLabel
    label2: PhotonTwoLabel
    bs21_before: bool = True
    series: int | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.label1, PhotonOneLabel) or not isinstance(self.label2, PhotonTwoLabel):
            raise ValueError("labels must be PhotonOneLabel and PhotonTwoLabel")
        # Photon 2 detected between its splitters never reaches BS22, so
        # photon 1 cannot be non-before relative to that impact.
        if self.label1 is PhotonOneLabel.A11_22 and self.label2 is PhotonTwoLabel.B21:
            raise ValueError(f"pairing ({self.label1.value}, {self.label2.value}) is not representable")
        if not require_flag("bs21_before", self.bs21_before) and self.label2 is not PhotonTwoLabel.A22:
            raise ValueError(f"label {self.label2.value} requires the BS21 impact to be before")
        if self.series is not None and (
            require_int("series", self.series, 1, 3) != _SERIES_BY_PAIRING.get(self.pairing)
        ):
            raise ValueError(
                f"series {self.series!r} does not match pairing ({self.label1.value}, {self.label2.value})"
            )

    @property
    def pairing(self) -> tuple[PhotonOneLabel, PhotonTwoLabel]:
        return (self.label1, self.label2)


def _strictly_before(t_a: float, t_b: float, what: str) -> bool:
    """Whether t_a < t_b, refusing differences inside the guard band (or NaN, as inf - inf gives)."""
    if not abs(t_b - t_a) >= GUARD_BAND_S:
        raise AmbiguousScheduleError(
            f"{what}: times {t_a!r} and {t_b!r} differ by less than the guard band {GUARD_BAND_S!r} s"
        )
    return t_a < t_b


def classify(schedule: ImpactSchedule) -> TimingAssignment:
    """Label both photons' impacts from the frame-relative time orderings.

    Photon 1 (times in BS11's frame): before if BS11's impact precedes the
    partner's first one, otherwise non-before relative to the first partner
    splitter it did not precede.  Photon 2's final impact is before only if
    it precedes BS11's in BS22's frame and the BS21 impact does so too in
    BS21's frame.  Ties and near-ties inside the guard band raise
    AmbiguousScheduleError instead of silently picking a side.  The schedule
    was classified when it was made: every call returns the same assignment,
    or raises a new AmbiguousScheduleError with the same message.
    """
    if type(outcome := schedule._classification) is str:
        raise AmbiguousScheduleError(outcome)
    return outcome


def _classify(times: list[list[float]], at_rest: bool) -> TimingAssignment:
    """classify's four comparisons on ImpactSchedule's frame-time table."""
    (t11_f11, t21_f11, t22_f11), (t11_f21, t21_f21, _), (t11_f22, _, t22_f22) = times
    for frame, (_, t21, t22) in (("BS21", times[1]), ("BS22", times[2])):
        if math.isnan(t22 - t21):  # photon 2's own order, unreadable when both times are inf
            raise AmbiguousScheduleError(f"BS21 vs BS22 in the {frame} frame: both times are {t21!r}")
    if _strictly_before(t11_f11, t21_f11, "BS11 vs BS21 in the BS11 frame"):
        label1 = PhotonOneLabel.B11
    elif _strictly_before(t11_f11, t22_f11, "BS11 vs BS22 in the BS11 frame"):
        label1 = PhotonOneLabel.A11_21
    else:
        label1 = PhotonOneLabel.A11_22

    bs21_before = _strictly_before(t21_f21, t11_f21, "BS21 vs BS11 in the BS21 frame")
    # Without the BS21 impact before, photon 2 is a22 whichever way BS22 falls.
    bs22_before = bs21_before and _strictly_before(t22_f22, t11_f22, "BS22 vs BS11 in the BS22 frame")
    label2 = PhotonTwoLabel.B22 if bs22_before else PhotonTwoLabel.A22

    series = _SERIES_BY_PAIRING.get((label1, label2)) if at_rest else None
    return TimingAssignment(label1, label2, bs21_before, series)


@dataclass(frozen=True)
class ExperimentGeometry:
    """Source-to-splitter path lengths (m) on the collinear axis.

    Arrival times are path length over c.  Displacing mirror M11 stretches or
    shortens photon 1's path only, which is how one lab ordering is traded
    for another without touching photon 2's legs.  A geometry is accepted
    only if its ImpactSchedule is: at |beta| > 0, gamma * (t - beta x / c)
    can round two impacts one ulp apart into a tie, so a longer second leg
    alone does not guarantee photon 2's order in its splitters' frames.  Its
    schedule is built, and so classified, once, when the geometry is made.
    """

    length_bs11: float
    length_bs21: float
    length_bs22: float
    m11_displacement: float = 0.0
    beta_bs11: float = 0.0
    beta_bs21: float = 0.0
    beta_bs22: float = 0.0

    def __post_init__(self) -> None:
        # Stored as checked floats, as PhaseSettings stores its phases.
        for name in ("length_bs11", "length_bs21", "length_bs22", "m11_displacement"):
            value = require_finite(name, getattr(self, name))
            if value <= 0.0 and name != "m11_displacement":
                raise ValueError(f"{name} must be positive")
            object.__setattr__(self, name, value)
        if (l11 := require_finite("effective_length_bs11", self.effective_length_bs11)) <= 0.0:
            raise ValueError("m11_displacement makes photon 1's path non-positive")
        # At x = (signed) length, t = length / c; not a field, so out of __eq__, __hash__, __repr__.
        schedule = ImpactSchedule(
            SpacetimeEvent(l11 / SPEED_OF_LIGHT, -l11),
            SpacetimeEvent(self.length_bs21 / SPEED_OF_LIGHT, self.length_bs21),
            SpacetimeEvent(self.length_bs22 / SPEED_OF_LIGHT, self.length_bs22),
            self.beta_bs11, self.beta_bs21, self.beta_bs22,
        )
        object.__setattr__(self, "_schedule", schedule)
        for name in ("beta_bs11", "beta_bs21", "beta_bs22"):
            object.__setattr__(self, name, getattr(schedule, name))

    @property
    def effective_length_bs11(self) -> float:
        return self.length_bs11 + self.m11_displacement


def schedule_from_geometry(geometry: ExperimentGeometry) -> ImpactSchedule:
    """The geometry's impact schedule, built and validated once when the geometry was made."""
    return geometry._schedule


_PHOTON2_LEG_BS21_M = 1.0
_PHOTON2_LEG_BS22_M = 3.0
_PHOTON1_BASE_LEG_M = 2.0
# Built once: geometries are frozen, so every caller can share them.
_PRESETS = {
    series: ExperimentGeometry(_PHOTON1_BASE_LEG_M, _PHOTON2_LEG_BS21_M, _PHOTON2_LEG_BS22_M, displacement)
    for series, displacement in ((1, 2.0), (2, -1.5), (3, 0.0))
}


def series_preset(series: int) -> ExperimentGeometry:
    """Resting geometry that realizes lab-ordering series 1, 2 or 3.

    Photon 2's legs are fixed at 1 m and 3 m; only the M11 displacement moves
    the BS11 arrival past both photon-2 impacts (series 1), before both
    (series 2) or between them (series 3).  Every impact gap exceeds 1 ns.
    """
    return _PRESETS[require_int("series", series, 1, 3)]
