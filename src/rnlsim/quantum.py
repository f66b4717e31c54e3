"""Standard quantum-mechanical predictions for the two-photon interferometer.

Photon 1 crosses one beam splitter (phase phi11 on its input arm), photon 2
crosses two in series (phase phi21 before the first, phi22 between the two).
Each closed-form table is symmetric_joint(E) of its correlation E(settings):
qm_correlation after the final splitters, qm_single_pair_correlation between
photon 2's two, 0 if the pair's origin or path is knowable.  An independent
amplitude oracle sums path amplitudes in plain complex arithmetic, no numpy.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import require_finite

# Absolute tolerance of a table's sum; an entry itself gets none.
PROB_ATOL = 1e-12


@dataclass(frozen=True)
class PhaseSettings:
    """Interferometer phases in radians: phi11 (photon 1), phi21 and phi22 (photon 2)."""

    phi11: float
    phi21: float
    phi22: float

    def __post_init__(self) -> None:
        for name in ("phi11", "phi21", "phi22"):
            object.__setattr__(self, name, require_finite(name, getattr(self, name)))

    @classmethod
    def from_degrees(cls, phi11_deg: float, phi21_deg: float, phi22_deg: float) -> "PhaseSettings":
        degrees = {"phi11_deg": phi11_deg, "phi21_deg": phi21_deg, "phi22_deg": phi22_deg}
        # fmod is exact for every finite float, so a huge phase keeps its residue mod 360 degrees.
        return cls(*(math.radians(math.fmod(require_finite(name, value), 360.0)) for name, value in degrees.items()))


@dataclass(frozen=True)
class JointDistribution:
    """Probability table over the four coincidence outcomes (sigma, omega) in {+1,-1}^2.

    Entries are ordered photon-1 outcome first: p_pm is P(sigma=+1, omega=-1).
    Entries must be non-negative and sum to 1 up to the module's tolerance;
    they are kept as given.  Marginal fairness (each one-sided marginal
    equal to 1/2) is a property of the model tables, not of the type, so
    degenerate test tables remain constructible.
    """

    p_pp: float
    p_pm: float
    p_mp: float
    p_mm: float

    def __post_init__(self) -> None:
        total = 0.0
        for name in ("p_pp", "p_pm", "p_mp", "p_mm"):
            p = require_finite(name, getattr(self, name))
            if p < 0.0:
                raise ValueError(f"{name} = {p!r} is negative")
            object.__setattr__(self, name, p)
            total += p  # every p >= 0, so total >= p: the sum check also bounds each entry by 1
        if abs(total - 1.0) > PROB_ATOL:
            raise ValueError(f"probabilities sum to {total!r}, expected 1")

    @property
    def correlation(self) -> float:
        """Expectation of the outcome product sigma * omega."""
        return self.p_pp - self.p_pm - self.p_mp + self.p_mm


# --- closed forms -----------------------------------------------------------


def symmetric_joint(e: float) -> JointDistribution:
    """The table 1/4 + (sigma*omega/4) e, which has fair marginals and correlation e."""
    same, differ = 0.25 + e / 4.0, 0.25 - e / 4.0
    return JointDistribution(same, differ, differ, same)


def qm_correlation(settings: PhaseSettings) -> float:
    """Correlation after the final splitters with full indistinguishability: sin(phi11 - phi21) sin(phi22).

    Its table is P(sigma, omega) = 1/4 + (sigma*omega/8) * [cos(phi11 - phi21 - phi22)
                                                            - cos(phi11 - phi21 + phi22)].
    """
    delta = settings.phi11 - settings.phi21
    return 0.5 * (math.cos(delta - settings.phi22) - math.cos(delta + settings.phi22))


def qm_single_pair_correlation(settings: PhaseSettings) -> float:
    """Correlation when photon 2 is detected between its two splitters: cos(phi11 - phi21).

    In amplitude_oracle's layout, BS21's output port 1 counts as outcome +1 here.
    """
    return math.cos(settings.phi11 - settings.phi21)


# --- amplitude oracle -------------------------------------------------------


def _splitter(upper: complex, lower: complex) -> tuple[complex, complex]:
    """Lossless symmetric 50/50 splitter: transmission 1/sqrt(2), reflection i/sqrt(2)."""
    return (upper + 1j * lower) / math.sqrt(2.0), (1j * upper + lower) / math.sqrt(2.0)


def amplitude_oracle(settings: PhaseSettings) -> JointDistribution:
    """Coincidence table from explicit path amplitudes, independent of the closed forms.

    The source state (|upper, upper> + |lower, lower>) / sqrt(2) is followed
    branch by branch through arm phases and symmetric splitters as (upper,
    lower) amplitude pairs; the branches are summed and squared.  Port 0 of a
    final splitter is outcome +1, port 1 is -1.  The layout was calibrated
    once against a phase sweep: phi11 on photon 1's upper arm, phi21 on photon
    2's lower arm, phi22 on the upper arm between BS21 and BS22.  phi21 on the
    upper arm would flip the fringe argument from phi11 - phi21 to phi11 + phi21.
    """
    phase11, phase21, phase22 = (cmath.exp(1j * phi) for phi in (settings.phi11, settings.phi21, settings.phi22))
    branches = []
    for upper, lower in ((1.0, 0.0), (0.0, 1.0)):
        bs21 = _splitter(upper, phase21 * lower)
        branches.append((_splitter(phase11 * upper, lower), _splitter(phase22 * bs21[0], bs21[1])))
    cells = (abs(sum(out1[a] * out2[b] for out1, out2 in branches)) ** 2 / 2.0 for a in (0, 1) for b in (0, 1))
    return JointDistribution(*cells)
