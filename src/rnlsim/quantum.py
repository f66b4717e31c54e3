"""Standard quantum-mechanical predictions for the two-photon interferometer.

Photon 1 crosses one beam splitter (phase phi11 on its input arm), photon 2
crosses two in series (phase phi21 before the first, phi22 between the two).
Each closed-form table is symmetric_joint(E) of its correlation E(settings):
qm_correlation after the final splitters, qm_single_pair_correlation between
photon 2's two, 0 if the pair's origin or path is knowable.  An independent
amplitude oracle composes 2x2 splitter unitaries and arm phases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import require_finite

# Absolute tolerance for probability normalization.
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
        return cls(*(math.radians(require_finite(name, value)) for name, value in degrees.items()))


@dataclass(frozen=True)
class JointDistribution:
    """Probability table over the four coincidence outcomes (sigma, omega) in {+1,-1}^2.

    Entries are ordered photon-1 outcome first: p_pm is P(sigma=+1, omega=-1).
    Entries must be in [0,1] and sum to 1; marginal fairness (each one-sided
    marginal equal to 1/2) is a property of the model tables, not of the type,
    so degenerate test tables remain constructible.
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
                # No table the package builds has a negative entry; a caller's
                # table may undershoot zero by rounding, and that is clamped.
                if p < -PROB_ATOL:
                    raise ValueError(f"{name} = {p!r} is negative")
                p = 0.0
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


# Lossless 50/50 splitter: transmission 1/sqrt(2), reflection i/sqrt(2).
_SPLITTER = np.array([[1.0, 1.0j], [1.0j, 1.0]], dtype=complex) / math.sqrt(2.0)


def amplitude_oracle(settings: PhaseSettings) -> JointDistribution:
    """Coincidence table from explicit path amplitudes, independent of the closed forms.

    The source emits the two-path state (|upper, upper> + |lower, lower>) /
    sqrt(2), arm 0 being "upper".  Each photon gets a 2x2 transfer matrix
    composed of symmetric splitters and arm phases; the two source branches
    are summed amplitude-wise and squared.  Output port 0 of a final splitter
    maps to outcome +1, port 1 to -1.  The layout was calibrated once against
    a phase sweep: phi11 on photon 1's upper arm, phi21 on photon 2's lower
    arm, phi22 on the upper output arm of the intermediate splitter.  Moving
    phi21 to the upper arm would flip the fringe argument from phi11 - phi21
    to phi11 + phi21.
    """
    transfer_1 = _SPLITTER @ np.diag([np.exp(1j * settings.phi11), 1.0])
    transfer_2 = (
        _SPLITTER
        @ np.diag([np.exp(1j * settings.phi22), 1.0])
        @ _SPLITTER
        @ np.diag([1.0, np.exp(1j * settings.phi21)])
    )
    amplitude = (
        np.outer(transfer_1[:, 0], transfer_2[:, 0]) + np.outer(transfer_1[:, 1], transfer_2[:, 1])
    ) / math.sqrt(2.0)
    prob = np.abs(amplitude) ** 2
    return JointDistribution(prob[0, 0], prob[0, 1], prob[1, 0], prob[1, 1])
