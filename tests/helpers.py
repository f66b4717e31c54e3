"""Plain-math readings of joint tables and timing, shared by the test modules."""

from __future__ import annotations

import itertools
import math
import shlex
from fractions import Fraction
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

from rnlsim import (
    SPEED_OF_LIGHT,
    CoincidenceCounts,
    JointDistribution,
    ModelVariant,
    PhaseSettings,
    PhotonOneLabel,
    PhotonTwoLabel,
    RunConfig,
    TimingAssignment,
    classify,
    compare_report,
    series_preset,
)
from rnlsim.cli import main

# Absolute tolerance of every closed-form comparison.
ATOL = 1e-12

# The decisive settings, 45, -45 and 90 degrees: QM's E is 1 there.
KEY_SETTINGS = PhaseSettings.from_degrees(45.0, -45.0, 90.0)

# Bounded so that argument-reduction error in cos stays far below ATOL.
phases = st.floats(min_value=-25.0, max_value=25.0, allow_nan=False, allow_infinity=False)
settings_strategy = st.builds(PhaseSettings, phases, phases, phases)


def as_array(table: JointDistribution) -> np.ndarray:
    """Entries in fixed order (+,+), (+,-), (-,+), (-,-)."""
    return np.array([table.p_pp, table.p_pm, table.p_mp, table.p_mm])


def max_dev(a: JointDistribution, b: JointDistribution) -> float:
    """The largest entrywise |a - b|."""
    return float(np.max(np.abs(as_array(a) - as_array(b))))


def cell(table: JointDistribution, sigma: int, omega: int) -> float:
    """P(sigma, omega), photon-1 outcome first, read from the table's p_* fields."""
    if sigma == 1:
        return table.p_pp if omega == 1 else table.p_pm
    return table.p_mp if omega == 1 else table.p_mm


def fair_deviation(table: JointDistribution) -> float:
    """The largest of |total - 1| and each marginal's |P - 1/2|: 0 for a normalized fair-marginal table."""
    photon1 = [cell(table, sigma, 1) + cell(table, sigma, -1) for sigma in (1, -1)]
    photon2 = [cell(table, 1, omega) + cell(table, -1, omega) for omega in (1, -1)]
    return max(abs(sum(as_array(table)) - 1.0), *(abs(m - 0.5) for m in photon1 + photon2))


def for_series(series: int) -> TimingAssignment:
    """The timing assignment classify gives series_preset(series)."""
    return classify(series_preset(series))


# classify's four comparisons, in its order, as (frame, a, b): a positive gap means
# impact a is earlier than impact b in that splitter's frame.  0, 1 and 2 stand
# for BS11, BS21 and BS22.
GAP_FRAMES = ((0, 0, 1), (0, 0, 2), (1, 1, 0), (2, 2, 0))


def boost(t: Fraction, x_over_c: Fraction, beta: Fraction) -> tuple[Fraction, Fraction]:
    """An event's time in a frame moving at beta, exactly, as (t - beta x / c, gamma^2).

    The boosted time is gamma (t - beta x / c), with gamma = (1 - beta^2)^-1/2
    > 0 irrational in general, so it is returned as its rational factor and
    gamma^2: the time is the first times the square root of the second.
    """
    return t - beta * x_over_c, 1 / (1 - beta * beta)


def exact_gaps(l11: float, l21: float, l22: float, beta11: float, beta21: float, beta22: float) -> tuple[Fraction, ...]:
    """classify's four gaps, in its order, each as the exact rational gap * |gap| (s^2).

    The impacts, as (t, x / c) with t = l / c exactly, are (t11, -t11),
    (t21, t21) and (t22, t22).  Boosted into a frame moving at beta, the two
    impacts' times are gamma u_a and gamma u_b, so a gap is gamma A for the
    rational A = u_b - u_a.  So A |A| gamma^2 has the gap's sign, and
    |gap| >= GUARD_BAND_S is |gap * |gap|| >= GUARD_BAND_S^2.  No float
    rounding enters, and no closed form of the package is restated.
    """
    t11, t21, t22 = (Fraction(length) / Fraction(SPEED_OF_LIGHT) for length in (l11, l21, l22))
    events = ((t11, -t11), (t21, t21), (t22, t22))
    betas = [Fraction(beta) for beta in (beta11, beta21, beta22)]
    signed_squares = []
    for frame, a, b in GAP_FRAMES:
        (u_a, gamma_squared), (u_b, _) = (boost(*events[index], betas[frame]) for index in (a, b))
        gap = u_b - u_a
        signed_squares.append(gap * abs(gap) * gamma_squared)
    return tuple(signed_squares)


def rounding_bounds(l11: float, l21: float, l22: float, beta11: float, beta21: float, beta22: float) -> tuple[Fraction, ...]:
    """How far each of classify's float gaps may lie from its exact gap (s), in classify's order.

    A gap is a difference of two terms gamma t (1 +- beta), each rounded within
    a few ulps, so with gamma as rounded it is right to 16 ulps of the larger
    term, 2 gamma max(t_a, t_b) at most, whatever the cancellation.  Rounding
    1 - beta^2 gives gamma a relative error of gamma^2 ulps: hence the factor gamma^2.
    """
    times = (l11 / SPEED_OF_LIGHT, l21 / SPEED_OF_LIGHT, l22 / SPEED_OF_LIGHT)
    betas = (beta11, beta21, beta22)
    bounds = []
    for frame, a, b in GAP_FRAMES:
        gamma = 1.0 / math.sqrt(1.0 - betas[frame] ** 2)
        bounds.append(Fraction(16 * 2.0**-52 * 2.0 * gamma * max(times[a], times[b]) * gamma**2))
    return tuple(bounds)


def counts_by_variant(config: RunConfig) -> dict[ModelVariant, CoincidenceCounts]:
    """The sampled counts of compare_report, keyed by variant."""
    return {row.variant: row.counts for row in compare_report(config).rows}


# amplitude_oracle's lossless 50/50 splitter as a numpy matrix: transmission 1/sqrt(2),
# reflection i/sqrt(2).  The oracle itself uses no numpy, so the two share no code.
_SPLITTER = np.array([[1.0, 1.0j], [1.0j, 1.0]], dtype=complex) / math.sqrt(2.0)


def oracle_table(
    settings: PhaseSettings, intermediate: bool = False, coherent: bool = True
) -> JointDistribution:
    """Coincidence table from path amplitudes, with amplitude_oracle's splitters and arm phases.

    In the final layout photon 2 is detected after BS22, output port 0
    counting as +1, and the coherent table is amplitude_oracle's.  In the
    intermediate layout it is detected right after BS21, whose output port 1
    counts as +1: that is the port for which the table has E = +cos(phi11 -
    phi21), as qm_single_pair_correlation says.  Incoherent tables add the
    two source branches in probability, as when the pair's origin is known.
    """
    transfer_1 = _SPLITTER @ np.diag([np.exp(1j * settings.phi11), 1.0])
    transfer_2 = _SPLITTER @ np.diag([1.0, np.exp(1j * settings.phi21)])
    if intermediate:
        transfer_2 = transfer_2[::-1]  # port 1 first, as outcome +1
    else:
        transfer_2 = _SPLITTER @ np.diag([np.exp(1j * settings.phi22), 1.0]) @ transfer_2
    branches = [np.outer(transfer_1[:, k], transfer_2[:, k]) / math.sqrt(2.0) for k in (0, 1)]
    prob = np.abs(sum(branches)) ** 2 if coherent else sum(np.abs(branch) ** 2 for branch in branches)
    return JointDistribution(prob[0, 0], prob[0, 1], prob[1, 0], prob[1, 1])


def rule_table(
    settings: PhaseSettings, pairing: tuple[PhotonOneLabel, PhotonTwoLabel], condition1: bool = True, condition2: bool = True
) -> JointDistribution:
    """The multisimultaneity rule's table for one pairing, from oracle_table anchors alone.

    The before values b = (sigma_b, tau_b, omega_b) at BS11, BS21 and BS22 are
    flat, 1/8 each.  A before impact keeps its own; a non-before one draws its
    outcome from 2 P_anchor(outcome, partner's before value), each anchor
    coherent iff its condition holds: a11[21] reads tau_b through the
    intermediate anchor, a11[22] omega_b and a22 sigma_b through the final one.
    """
    intermediate = oracle_table(settings, intermediate=True, coherent=condition1)
    final = oracle_table(settings, coherent=condition2)
    given_before = {  # P(outcome | b) per label; each anchor reads photon 1's value first
        PhotonOneLabel.B11: lambda out, b: float(out == b[0]),
        PhotonOneLabel.A11_21: lambda out, b: 2.0 * cell(intermediate, out, b[1]),
        PhotonOneLabel.A11_22: lambda out, b: 2.0 * cell(final, out, b[2]),
        PhotonTwoLabel.B21: lambda out, b: float(out == b[1]),
        PhotonTwoLabel.B22: lambda out, b: float(out == b[2]),
        PhotonTwoLabel.A22: lambda out, b: 2.0 * cell(final, b[0], out),
    }
    photon1, photon2 = (given_before[label] for label in pairing)
    befores = list(itertools.product((1, -1), repeat=3))
    return JointDistribution(*(
        sum(photon1(sigma, b) * photon2(omega, b) for b in befores) / 8.0
        for sigma, omega in itertools.product((1, -1), repeat=2)
    ))


def v5_reference(
    table: JointDistribution, seed: int, n_events: int, variant_index: int = 1
) -> tuple[tuple[int, int, int, int], list[float]]:
    """Counts and renormalised p of stream layout v5, from plain numpy alone.

    The key must be a uint64 array: numpy casts a Python-list key through
    float, so Philox(key=[2**64 - 1, 1]) gets the key [0, 1], not [2**64 - 1, 1].
    """
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, variant_index], dtype=np.uint64)))
    p = as_array(table)
    cells = np.flatnonzero(p)
    p = p[cells] / p[cells].sum()
    counts = np.zeros(4, dtype=np.int64)
    counts[cells] = rng.multinomial(n_events, p)
    return tuple(int(c) for c in counts), p.tolist()


def run_cli(capsys, tmp_path: Path, config: bytes | None, argv: str) -> tuple[int, str, str]:
    """main()'s exit code, stdout and stderr for one command line.

    argv is split like a shell line, with {tmp} standing for tmp_path.  Config
    bytes are written to tmp_path/run.cfg, which --config reads first.
    """
    args = [arg.replace("{tmp}", str(tmp_path)) for arg in shlex.split(argv)]
    if config is not None:
        path = tmp_path / "run.cfg"
        path.write_bytes(config)
        args = ["--config", str(path), *args]
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err
