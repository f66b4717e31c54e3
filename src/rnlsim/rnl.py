"""Relativistic-nonlocality (multisimultaneity) prediction rules.

Unlike the timing-blind quantum rule, these predictions depend on the
before/non-before pairing of the two impacts: two before impacts give flat
product statistics, mixed pairings reproduce the quantum tables, and two
non-before impacts give the flat table too: factorized through conditionals
on the partner's before values, their correlation vanishes.  Every rule is a
stage, stored as its table's correlation E(settings), in one pairing -> stage
table per model variant, _RULES; derivations sit above it.  predict flattens a
quantum stage whose condition is off; the rest are symmetric_joint(E), memoized.
"""

from __future__ import annotations

import enum
import functools
from collections.abc import Callable
from dataclasses import dataclass

from .errors import require_flag
from .quantum import (
    JointDistribution,
    PhaseSettings,
    qm_correlation,
    qm_single_pair_correlation,
    symmetric_joint,
)
from .timing import PhotonOneLabel, PhotonTwoLabel, TimingAssignment


class ModelVariant(enum.Enum):
    """Which rule set predicts the coincidence table for a given timing."""

    QM = "QM"
    RNL_STANDARD = "RNL_STANDARD"
    RNL_ALTERNATIVE = "RNL_ALTERNATIVE"

    __hash__ = object.__hash__  # as PhotonOneLabel's: members are singletons


# Short label names for the rule tables below, read only while those are built at import.
_B11, _A11_21, _A11_22 = PhotonOneLabel.B11, PhotonOneLabel.A11_21, PhotonOneLabel.A11_22
_B21, _B22, _A22 = PhotonTwoLabel.B21, PhotonTwoLabel.B22, PhotonTwoLabel.A22

# Each rule is the stage whose table a pairing takes, stored as the table's
# correlation E: 0 (flat), cos(phi11 - phi21) (intermediate) or
# sin(phi11 - phi21) sin(phi22) (final).  RNL_STANDARD: two before impacts
# give the flat table, mixed pairings the quantum table of their stage, two
# non-before impacts the factorized one, which is flat as well.
# TimingAssignment accepts these pairings and refuses (a11[22], b21).
#
# Two non-before impacts, (a11[22], a22) and (a11[21], a22): each outcome is
# drawn from a conditional on the partner's before value, and the conditional
# is pinned by its anchor, the mixed experiment it must reproduce against the
# flat before table: P(out | given) = 2 P_mixed(out, given).  Photon 1's
# anchor P_1 is (a11[22], b22) or (a11[21], b21), given photon 2's before
# value omega'; photon 2's, P_2, is (b11, a22), given photon 1's sigma'.
# Summed against the flat P_before(sigma', omega') = 1/4:
#   P(sigma, omega) = sum_{sigma', omega'} 1/4 * 2 P_1(sigma, omega') * 2 P_2(sigma', omega)
#                   = 1/4 * (2 sum_omega' P_1(sigma, omega')) * (2 sum_sigma' P_2(sigma', omega))
#                   = 1/4 * 1 * 1,
# because each anchor table has fair marginals.  The table is flat, E = 0,
# for every condition pair: dropping a condition only flattens an anchor.
# RNL_ALTERNATIVE keeps the full quantum table on (a11[21], a22).
#
# (a11[21], b22): in BS11's frame photon 1 has seen photon 2 pass BS21 but
# not BS22, while photon 2 is before at both of its splitters.  So photon 1's
# outcome sigma is conditioned on photon 2's BS21 port tau, through the
# a11[21] conditional of the anchor (a11[21], b21): P(sigma | tau) =
# 2 P_int(sigma, tau).  Photon 2's BS22 outcome omega is before in BS22's
# frame, so given its BS21 port it is 50/50: P(omega | tau) = 1/2.  Summing
# over the hidden port with the flat P(tau) = 1/2:
#   P(sigma, omega) = sum_tau 1/2 * 2 P_int(sigma, tau) * 1/2
#                   = 1/2 * (P_int(sigma, +) + P_int(sigma, -)) = 1/2 * 1/2,
# because P_int has fair marginals.  The table is flat, E = 0, whatever the
# two conditions: dropping condition1 only flattens P_int, and condition2
# does not enter.  RNL_ALTERNATIVE equals RNL_STANDARD here.
_FLAT, _INTERMEDIATE, _FINAL = (lambda settings: 0.0, qm_single_pair_correlation, qm_correlation)
_STANDARD = {
    (_B11, _B21): _FLAT,
    (_B11, _B22): _FLAT,
    (_A11_21, _B21): _INTERMEDIATE,
    (_A11_21, _B22): _FLAT,
    (_A11_22, _B22): _FINAL,
    (_B11, _A22): _FINAL,
    (_A11_22, _A22): _FLAT,
    (_A11_21, _A22): _FLAT,
}
# QM ignores timing: every pairing takes the final table, the b21 ones too,
# because no detection layout stops photon 2 between its splitters yet.
_RULES = {
    ModelVariant.QM: dict.fromkeys(_STANDARD, _FINAL),
    ModelVariant.RNL_STANDARD: _STANDARD,
    ModelVariant.RNL_ALTERNATIVE: {**_STANDARD, (_A11_21, _A22): _FINAL},
}


@dataclass(frozen=True)
class Prediction:
    """A predicted joint table."""

    joint: JointDistribution

    @property
    def correlation(self) -> float:
        """The table's own correlation, joint.correlation."""
        return self.joint.correlation


# Frozen, so every flat-stage prediction can be this one object.
_FLAT_PREDICTION = Prediction(symmetric_joint(0.0))


def predict(
    settings: PhaseSettings,
    timing: TimingAssignment,
    variant: ModelVariant,
    *,
    condition1: bool = True,
    condition2: bool = True,
) -> Prediction:
    """Joint table for one timing assignment under one model variant.

    condition1 asserts that pairs are indistinguishable when photon 2 is
    detected between its splitters, condition2 that paths are unknowable
    after the final splitter; dropping either replaces the affected quantum
    table by the flat one.  The stage is the variant's _RULES entry for the
    pairing: QM's is final everywhere, and the alternative rule set differs
    from the standard one only on (a11[21], a22), where it is final too.
    """
    if not isinstance(variant, ModelVariant):
        raise ValueError(f"variant must be a ModelVariant, got {variant!r}")
    if not isinstance(timing, TimingAssignment):
        raise ValueError(f"timing must be a TimingAssignment, got {timing!r}")
    if condition1 is not True:  # exactly True, the default, needs no check
        require_flag("condition1", condition1)
    if condition2 is not True:
        require_flag("condition2", condition2)
    stage = _RULES[variant][timing.label1, timing.label2]
    if stage is _FLAT or not (condition1 if stage is _INTERMEDIATE else condition2):
        return _FLAT_PREDICTION
    return _evaluate(stage, settings.phi11, settings.phi21, settings.phi22)


# A sweep at fixed phases asks for the same few quantum tables at every
# point, so each (stage, phases) prediction is built once while among the most
# recent 256.  It is frozen, so sharing it is safe; phases are floats, and
# +0.0 and -0.0 share a key: cos is even, so their tables are identical.
@functools.lru_cache(maxsize=256)
def _evaluate(stage: Callable[[PhaseSettings], float], *phases: float) -> Prediction:
    return Prediction(symmetric_joint(stage(PhaseSettings(*phases))))
