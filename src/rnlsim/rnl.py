"""Relativistic-nonlocality (multisimultaneity) prediction rules.

Unlike the timing-blind quantum rule, these predictions depend on the
before/non-before pairing of the two impacts: two before impacts give flat
product statistics, mixed pairings reproduce the quantum tables, and two
non-before impacts factorize through conditionals on the partner's before
values, which forces their correlation to vanish.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

from .quantum import (
    JointDistribution,
    PhaseSettings,
    qm_distinguishable_joint,
    qm_joint,
    qm_single_pair_joint,
)
from .timing import PhotonOneLabel, PhotonTwoLabel, TimingAssignment


class ModelVariant(enum.Enum):
    """Which rule set predicts the coincidence table for a given timing."""

    QM = "QM"
    RNL_STANDARD = "RNL_STANDARD"
    RNL_ALTERNATIVE = "RNL_ALTERNATIVE"


# A rule maps (settings, condition1, condition2) to a joint table.  Dropping
# condition1 flattens the intermediate-stage table, condition2 the final one.


def _flat_rule(settings: PhaseSettings, condition1: bool, condition2: bool) -> JointDistribution:
    return qm_distinguishable_joint()


def _intermediate_rule(settings: PhaseSettings, condition1: bool, condition2: bool) -> JointDistribution:
    if condition1:
        return qm_single_pair_joint(settings.phi11, settings.phi21)
    return qm_distinguishable_joint()


def _final_rule(settings: PhaseSettings, condition1: bool, condition2: bool) -> JointDistribution:
    return qm_joint(settings) if condition2 else qm_distinguishable_joint()


def _two_nonbefore_rule(label1: PhotonOneLabel):
    """Factorized table: sum the flat before outcomes against both conditionals.

    Photon 1's conditional reads photon 2's before value and vice versa, so
    each non-before outcome is decided by the partner's earlier impact alone.
    """

    def rule(settings: PhaseSettings, condition1: bool, condition2: bool) -> JointDistribution:
        before = qm_distinguishable_joint()
        cond1 = _conditional(settings, label1, condition1, condition2)
        cond2 = _conditional(settings, _A22, condition1, condition2)
        # (P(outcome | partner's before value +1), P(outcome | -1)) per outcome.
        plus1, minus1 = (cond1[0], cond1[2]), (cond1[1], cond1[3])
        plus2, minus2 = (cond2[0], cond2[2]), (cond2[1], cond2[3])

        def entry(photon1: tuple[float, float], photon2: tuple[float, float]) -> float:
            # Summed over (sigma, omega) = (+,+), (+,-), (-,+), (-,-), photon 1
            # given omega and photon 2 given sigma.
            return (
                before.p_pp * photon1[0] * photon2[0]
                + before.p_pm * photon1[1] * photon2[0]
                + before.p_mp * photon1[0] * photon2[1]
                + before.p_mm * photon1[1] * photon2[1]
            )

        return JointDistribution(
            entry(plus1, plus2), entry(plus1, minus2), entry(minus1, plus2), entry(minus1, minus2)
        )

    return rule


_B11, _A11_21, _A11_22 = PhotonOneLabel.B11, PhotonOneLabel.A11_21, PhotonOneLabel.A11_22
_B21, _B22, _A22 = PhotonTwoLabel.B21, PhotonTwoLabel.B22, PhotonTwoLabel.A22

# RNL_STANDARD: two before impacts give the flat table, mixed pairings the
# quantum table of their stage, two non-before impacts the factorized one.
# These are the pairings TimingAssignment accepts; it refuses (a11[22], b21).
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
_RULES = {
    (_B11, _B21): _flat_rule,
    (_B11, _B22): _flat_rule,
    (_A11_21, _B21): _intermediate_rule,
    (_A11_21, _B22): _flat_rule,
    (_A11_22, _B22): _final_rule,
    (_B11, _A22): _final_rule,
    (_A11_22, _A22): _two_nonbefore_rule(_A11_22),
    (_A11_21, _A22): _two_nonbefore_rule(_A11_21),
}

# The mixed experiment whose table pins each non-before impact's conditional.
_ANCHOR_PAIRING = {_A11_21: (_A11_21, _B21), _A11_22: (_A11_22, _B22), _A22: (_B11, _A22)}


def _conditional(
    settings: PhaseSettings, which: PhotonOneLabel | PhotonTwoLabel, condition1: bool, condition2: bool
) -> tuple[float, float, float, float]:
    """Conditional linking a non-before outcome to the partner's before value.

    Returns (P(+|+), P(-|+), P(+|-), P(-|-)), each column summing to 1.  The
    table is pinned by one requirement: summing the flat before statistics
    against it must reproduce the quantum table of the matching mixed
    experiment.  That forces P(out | given) = 2 * P_mixed(out, given).
    a11[21] conditions on the BS21 before value, a11[22] on the BS22 one and
    a22 on the BS11 one (the partner's own other before value drops out).
    """
    if which not in _ANCHOR_PAIRING:
        raise ValueError(f"conditionals exist only for non-before impacts, got {which!r}")
    anchor = _RULES[_ANCHOR_PAIRING[which]](settings, condition1, condition2)
    # Photon 2's outcome is the anchor's second index, photon 1's its first.
    if isinstance(which, PhotonTwoLabel):
        minus_given_plus, plus_given_minus = anchor.p_pm, anchor.p_mp
    else:
        minus_given_plus, plus_given_minus = anchor.p_mp, anchor.p_pm
    return 2.0 * anchor.p_pp, 2.0 * minus_given_plus, 2.0 * plus_given_minus, 2.0 * anchor.p_mm


@dataclass(frozen=True)
class Prediction:
    """A joint table together with its correlation."""

    joint: JointDistribution
    correlation: float


def predict(
    settings: PhaseSettings,
    timing: TimingAssignment,
    variant: ModelVariant,
    *,
    condition1: bool = True,
    condition2: bool = True,
) -> Prediction:
    """Joint table and correlation for one timing assignment under one model variant.

    condition1 asserts that pairs are indistinguishable when photon 2 is
    detected between its splitters, condition2 that paths are unknowable
    after the final splitter; dropping either replaces the affected quantum
    table by the flat one.  The QM variant ignores timing.  The standard and
    alternative rule sets differ only on the (a11[21], a22) pairing, where
    the alternative keeps the full quantum table.
    """
    if not isinstance(variant, ModelVariant):
        raise ValueError(f"variant must be a ModelVariant, got {variant!r}")
    if not isinstance(timing, TimingAssignment):
        raise ValueError(f"timing must be a TimingAssignment, got {timing!r}")
    if variant is ModelVariant.QM or (
        variant is ModelVariant.RNL_ALTERNATIVE and timing.pairing == (_A11_21, _A22)
    ):
        rule = _final_rule
    else:
        rule = _RULES[timing.pairing]
    joint = _evaluate(
        rule, settings.phi11, settings.phi21, settings.phi22, bool(condition1), bool(condition2)
    )
    return Prediction(joint=joint, correlation=joint.correlation)


# A sweep at fixed phases asks for the same few (rule, phases, conditions)
# tables at every point, so each is computed once while it stays among the
# most recent 256.  Tables are frozen, so sharing them is safe; phases are
# always floats, and +0.0 and -0.0 share a key and give bit-identical
# tables (cos is even).
@functools.lru_cache(maxsize=256)
def _evaluate(
    rule, phi11: float, phi21: float, phi22: float, condition1: bool, condition2: bool
) -> JointDistribution:
    return rule(PhaseSettings(phi11, phi21, phi22), condition1, condition2)
