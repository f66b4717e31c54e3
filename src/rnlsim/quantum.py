"""Standard quantum-mechanical predictions for the two-photon interferometer.

Photon 1 crosses one beam splitter (phase phi11 on its input arm), photon 2
crosses two in series (phase phi21 before the first, phi22 between the two).
This module holds the closed-form coincidence tables for detections after
the final splitters, plus an independent amplitude-level oracle that builds
the same distribution by composing 2x2 splitter unitaries and arm phases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import TopologyError, require_finite

# Detector outcomes for either photon: +1 and -1 ports of the final splitter.
OUTCOMES: tuple[int, int] = (1, -1)

# Absolute tolerance for probability normalization and unitarity checks.
PROB_ATOL = 1e-12


def _require_outcome(name: str, value: int) -> int:
    if value not in OUTCOMES:
        raise ValueError(f"{name} must be +1 or -1, got {value!r}")
    return value


@dataclass(frozen=True)
class PhaseSettings:
    """Interferometer phases in radians: phi11 (photon 1), phi21 and phi22 (photon 2)."""

    phi11: float
    phi21: float
    phi22: float

    def __post_init__(self) -> None:
        require_finite("phi11", self.phi11)
        require_finite("phi21", self.phi21)
        require_finite("phi22", self.phi22)

    @classmethod
    def from_degrees(cls, phi11_deg: float, phi21_deg: float, phi22_deg: float) -> "PhaseSettings":
        return cls(math.radians(phi11_deg), math.radians(phi21_deg), math.radians(phi22_deg))


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
        for name, p in (
            ("p_pp", self.p_pp), ("p_pm", self.p_pm), ("p_mp", self.p_mp), ("p_mm", self.p_mm)
        ):
            p = require_finite(name, p)
            if p < 0.0:
                # Amplitude squares can undershoot zero by rounding only.
                if p < -PROB_ATOL:
                    raise ValueError(f"{name} = {p!r} is negative")
                p = 0.0
                object.__setattr__(self, name, p)
            if p > 1.0 + PROB_ATOL:
                raise ValueError(f"{name} = {p!r} exceeds 1")
            total += p
        if abs(total - 1.0) > PROB_ATOL:
            raise ValueError(f"probabilities sum to {total!r}, expected 1")

    def prob(self, sigma: int, omega: int) -> float:
        _require_outcome("sigma", sigma)
        _require_outcome("omega", omega)
        if sigma == 1:
            return self.p_pp if omega == 1 else self.p_pm
        return self.p_mp if omega == 1 else self.p_mm

    def as_array(self) -> np.ndarray:
        """Entries in fixed order (+,+), (+,-), (-,+), (-,-)."""
        return np.array([self.p_pp, self.p_pm, self.p_mp, self.p_mm])

    @property
    def correlation(self) -> float:
        """Expectation of the outcome product sigma * omega."""
        return self.p_pp - self.p_pm - self.p_mp + self.p_mm

    def marginal_photon1(self, sigma: int) -> float:
        return self.prob(sigma, 1) + self.prob(sigma, -1)

    def marginal_photon2(self, omega: int) -> float:
        return self.prob(1, omega) + self.prob(-1, omega)


# --- closed forms -----------------------------------------------------------


def _fringe(settings: PhaseSettings) -> float:
    """cos(phi11 - phi21 - phi22) - cos(phi11 - phi21 + phi22), the term every QM entry scales."""
    delta = settings.phi11 - settings.phi21
    return math.cos(delta - settings.phi22) - math.cos(delta + settings.phi22)


def qm_joint_probability(settings: PhaseSettings, sigma: int, omega: int) -> float:
    """Coincidence probability after the final splitters with full indistinguishability.

    P(sigma, omega) = 1/4 + (sigma*omega/8) * [cos(phi11 - phi21 - phi22)
                                               - cos(phi11 - phi21 + phi22)].
    """
    _require_outcome("sigma", sigma)
    _require_outcome("omega", omega)
    return 0.25 + (sigma * omega / 8.0) * _fringe(settings)


def qm_joint(settings: PhaseSettings) -> JointDistribution:
    """Full coincidence table; each entry is bit-identical to qm_joint_probability's."""
    fringe = _fringe(settings)
    same = 0.25 + 0.125 * fringe
    differ = 0.25 + (-0.125) * fringe
    return JointDistribution(same, differ, differ, same)


def qm_correlation(settings: PhaseSettings) -> float:
    """Correlation of the full table; equals sin(phi11 - phi21) * sin(phi22)."""
    return 0.5 * _fringe(settings)


def qm_single_pair_correlation(phi11: float, phi21: float) -> float:
    """Correlation when photon 2 is detected between its two splitters: cos(phi11 - phi21)."""
    require_finite("phi11", phi11)
    require_finite("phi21", phi21)
    return math.cos(phi11 - phi21)


def qm_single_pair_joint(phi11: float, phi21: float) -> JointDistribution:
    """Joint table for the intermediate-detection experiment: 1/4 + (sigma*omega/4) cos(phi11 - phi21)."""
    e = qm_single_pair_correlation(phi11, phi21)
    return JointDistribution(0.25 + e / 4.0, 0.25 - e / 4.0, 0.25 - e / 4.0, 0.25 + e / 4.0)


def qm_distinguishable_joint() -> JointDistribution:
    """Flat table when the pair's origin or path is knowable: every cell 1/4."""
    return _FLAT


# Built once: tables are frozen, so every caller can share it.
_FLAT = JointDistribution(0.25, 0.25, 0.25, 0.25)


# --- amplitude oracle -------------------------------------------------------


def symmetric_splitter() -> np.ndarray:
    """Lossless 50/50 splitter: transmission 1/sqrt(2), reflection i/sqrt(2)."""
    return np.array([[1.0, 1.0j], [1.0j, 1.0]], dtype=complex) / math.sqrt(2.0)


def _check_unitary(name: str, matrix: np.ndarray) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.shape != (2, 2):
        raise TopologyError(f"{name} must be a 2x2 matrix, got shape {matrix.shape}")
    deviation = np.max(np.abs(matrix @ matrix.conj().T - np.eye(2)))
    if deviation > PROB_ATOL:
        raise TopologyError(f"{name} is not unitary (deviation {deviation:.3e})")
    matrix = matrix.copy()
    matrix.setflags(write=False)
    return matrix


@dataclass(frozen=True)
class InterferometerTopology:
    """Optical layout for the amplitude oracle.

    The source emits the two-path state (|upper, upper> + e^{i source_phase}
    |lower, lower>) / sqrt(2), arm 0 being "upper".  Each phi sits on one
    configurable arm: phi11 on an input arm of photon 1's splitter, phi21 on
    an input arm of photon 2's first splitter, phi22 on an output arm of that
    splitter before the second one.  Output port 0 of a final splitter maps
    to outcome +1, port 1 to -1.
    """

    splitter_11: np.ndarray
    splitter_21: np.ndarray
    splitter_22: np.ndarray
    phi11_arm: int = 0
    phi21_arm: int = 1
    phi22_arm: int = 0
    source_phase: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "splitter_11", _check_unitary("splitter_11", self.splitter_11))
        object.__setattr__(self, "splitter_21", _check_unitary("splitter_21", self.splitter_21))
        object.__setattr__(self, "splitter_22", _check_unitary("splitter_22", self.splitter_22))
        for name in ("phi11_arm", "phi21_arm", "phi22_arm"):
            if getattr(self, name) not in (0, 1):
                raise TopologyError(f"{name} must be 0 or 1")
        require_finite("source_phase", self.source_phase)


def calibrated_topology() -> InterferometerTopology:
    """Layout whose amplitude sums reproduce the closed-form table entrywise.

    Calibrated once against a phase sweep: symmetric splitters everywhere,
    phi11 on photon 1's upper arm, phi21 on photon 2's lower arm, phi22 on
    the upper output arm of the intermediate splitter.  Moving phi21 to the
    upper arm flips the fringe argument from phi11 - phi21 to phi11 + phi21.
    """
    s = symmetric_splitter()
    return InterferometerTopology(s, s, s)


def _arm_phase(phi: float, arm: int) -> np.ndarray:
    d = np.ones(2, dtype=complex)
    d[arm] = np.exp(1j * phi)
    return np.diag(d)


def amplitude_oracle(
    settings: PhaseSettings, topology: InterferometerTopology | None = None
) -> JointDistribution:
    """Coincidence table from explicit path amplitudes, independent of the closed forms.

    Each photon gets a 2x2 transfer matrix (splitters composed with arm
    phases); the two source branches are summed amplitude-wise and squared.
    """
    if topology is None:
        topology = calibrated_topology()
    transfer_1 = topology.splitter_11 @ _arm_phase(settings.phi11, topology.phi11_arm)
    transfer_2 = (
        topology.splitter_22
        @ _arm_phase(settings.phi22, topology.phi22_arm)
        @ topology.splitter_21
        @ _arm_phase(settings.phi21, topology.phi21_arm)
    )
    branch = np.exp(1j * topology.source_phase)
    amplitude = (
        np.outer(transfer_1[:, 0], transfer_2[:, 0])
        + branch * np.outer(transfer_1[:, 1], transfer_2[:, 1])
    ) / math.sqrt(2.0)
    prob = np.abs(amplitude) ** 2
    return JointDistribution(prob[0, 0], prob[0, 1], prob[1, 0], prob[1, 1])
