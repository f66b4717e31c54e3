"""Impact timing: "before" or "non-before" by the time orderings in each splitter's own frame.

The source sits at the origin; photon 1 travels toward negative x, photon 2 toward positive x.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import AmbiguousScheduleError, require_finite, require_flag, require_int

SPEED_OF_LIGHT = 299_792_458.0  # m/s

# Frame-time differences smaller than this are refused as unclassifiable.
GUARD_BAND_S = 1e-15


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


# The lab-ordering series of each pairing a geometry at rest can have.
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
    series id is set only for geometries at rest, where the lab ordering
    alone decides it.
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


def _frame_gaps(t11: float, t21: float, t22: float, beta11: float, beta21: float, beta22: float) -> tuple:
    """classify's four gaps (s), in its order, from the arrival times t = length / c.

    BS11's impact is at x = -c t11 and BS2k's at x = +c t2k, so in a frame
    moving at beta their times gamma * (t - beta x / c) are gamma t (1 +- beta).
    A positive gap means the first-named impact is earlier; operators only, so arrays work too.
    """
    g11, g21, g22 = ((1.0 - beta * beta) ** -0.5 for beta in (beta11, beta21, beta22))
    return (
        g11 * (t21 * (1.0 - beta11) - t11 * (1.0 + beta11)),
        g11 * (t22 * (1.0 - beta11) - t11 * (1.0 + beta11)),
        g21 * (t11 * (1.0 + beta21) - t21 * (1.0 - beta21)),
        g22 * (t11 * (1.0 + beta22) - t22 * (1.0 - beta22)),
    )


def _strictly_before(gap: float, what: str) -> bool:
    """Whether the gap is positive, refusing gaps inside the guard band."""
    if not abs(gap) >= GUARD_BAND_S:
        raise AmbiguousScheduleError(f"{what}: {gap!r} s apart, inside the guard band {GUARD_BAND_S} s")
    return gap > 0.0


@dataclass(frozen=True)
class ExperimentGeometry:
    """Source-to-splitter path lengths (m) on the collinear axis, and each splitter's beta = v/c.

    Displacing mirror M11 changes photon 1's path only.  Photon 2's impacts
    lie on one light ray, so length_bs22 > length_bs21 is its BS21-then-BS22
    order in every frame.  A geometry is classified once, when it is made,
    from its four frame-time gaps.
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
        for name in ("beta_bs11", "beta_bs21", "beta_bs22"):
            beta = require_finite(name, getattr(self, name))
            if not -1.0 < beta < 1.0:
                raise ValueError(f"{name} must satisfy |beta| < 1, got {beta!r}")
            object.__setattr__(self, name, beta)
        if not self.length_bs22 > self.length_bs21:
            raise ValueError("photon 2 must reach BS21 before BS22: length_bs22 must exceed length_bs21")
        times = (l11 / SPEED_OF_LIGHT, self.length_bs21 / SPEED_OF_LIGHT, self.length_bs22 / SPEED_OF_LIGHT)
        betas = (self.beta_bs11, self.beta_bs21, self.beta_bs22)
        lead_11_21, lead_11_22, lead_21_11, lead_22_11 = _frame_gaps(*times, *betas)
        try:  # classify's four comparisons
            if _strictly_before(lead_11_21, "BS11 vs BS21 in the BS11 frame"):
                label1 = PhotonOneLabel.B11
            elif _strictly_before(lead_11_22, "BS11 vs BS22 in the BS11 frame"):
                label1 = PhotonOneLabel.A11_21
            else:
                label1 = PhotonOneLabel.A11_22
            bs21_before = _strictly_before(lead_21_11, "BS21 vs BS11 in the BS21 frame")
            # Without the BS21 impact before, photon 2 is a22 whichever way BS22 falls.
            bs22_before = bs21_before and _strictly_before(lead_22_11, "BS22 vs BS11 in the BS22 frame")
            label2 = PhotonTwoLabel.B22 if bs22_before else PhotonTwoLabel.A22
            series = _SERIES_BY_PAIRING.get((label1, label2)) if betas == (0.0, 0.0, 0.0) else None
            outcome = TimingAssignment(label1, label2, bs21_before, series)
        except AmbiguousScheduleError as error:
            outcome = str(error)
        # Not a field, so out of __eq__, __hash__, __repr__; replace classifies afresh.
        object.__setattr__(self, "_classification", outcome)

    @property
    def effective_length_bs11(self) -> float:
        return self.length_bs11 + self.m11_displacement


def classify(geometry: ExperimentGeometry) -> TimingAssignment:
    """Label both photons' impacts from the frame-relative time orderings.

    Photon 1 (times in BS11's frame): before if BS11's impact precedes the
    partner's first one, otherwise non-before relative to the first partner
    splitter it did not precede.  Photon 2's final impact is before only if
    it precedes BS11's in BS22's frame and the BS21 impact does so too in
    BS21's frame.  A deciding gap inside the guard band raises
    AmbiguousScheduleError instead of picking a side.  The geometry was
    classified when it was made, so every call gives the same outcome.
    """
    if type(outcome := geometry._classification) is str:
        raise AmbiguousScheduleError(outcome)
    return outcome


def schedule_from_geometry(geometry: ExperimentGeometry) -> ExperimentGeometry:
    """The geometry itself, which classify takes; kept so that older callers still run."""
    return geometry


# Built once: geometries are frozen, so every caller can share them.
_PRESETS = {series: ExperimentGeometry(2.0, 1.0, 3.0, m11) for series, m11 in ((1, 2.0), (2, -1.5), (3, 0.0))}


def series_preset(series: int) -> ExperimentGeometry:
    """Resting geometry that realizes lab-ordering series 1, 2 or 3.

    Paths are 2 m (photon 1, before M11), 1 m and 3 m (photon 2); the M11
    displacement puts the BS11 arrival after both photon-2 impacts (series 1),
    before both (2) or between them (3).  Every impact gap exceeds 1 ns.
    """
    return _PRESETS[require_int("series", series, 1, 3)]
