"""Plain-math readings of joint tables, timing and whole CLI runs, and the geometry strategy, shared by the test modules."""

from __future__ import annotations

import itertools
import math
import shlex
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import numpy as np
from hypothesis import assume
from hypothesis import strategies as st

from rnlsim import (
    SPEED_OF_LIGHT,
    CoincidenceCounts,
    ExperimentGeometry,
    JointDistribution,
    ModelVariant,
    PhaseSettings,
    PhotonOneLabel,
    PhotonTwoLabel,
    RunConfig,
    TimingAssignment,
    build_run_config,
    classify,
    compare_report,
    series_preset,
    symmetric_joint,
)
from rnlsim.cli import main
from rnlsim.timing import GUARD_BAND_S

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


# The comparison each of classify's gaps names when it refuses, in its order.
COMPARISONS = (
    "BS11 vs BS21 in the BS11 frame",
    "BS11 vs BS22 in the BS11 frame",
    "BS21 vs BS11 in the BS21 frame",
    "BS22 vs BS11 in the BS22 frame",
)


def paths_and_betas(geometry: ExperimentGeometry) -> tuple[float, ...]:
    """The geometry's three source-to-impact paths (m) and three betas, in exact_gaps' order."""
    paths = (geometry.effective_length_bs11, geometry.length_bs21, geometry.length_bs22)
    return (*paths, geometry.beta_bs11, geometry.beta_bs21, geometry.beta_bs22)


def exact_reference(geometry: ExperimentGeometry) -> tuple[tuple, tuple, tuple[str, str, bool], tuple[int, ...]]:
    """The geometry's exact gaps, their rounding bounds, the labels and bs21_before their signs give, and the deciding indices.

    The comparisons are classify's: a tie is not before, photon 1's second gap
    decides only when its first is not before, and BS22's only when BS21's
    impact is before.
    """
    fields = paths_and_betas(geometry)
    exact = exact_gaps(*fields)
    before = [signed_square > 0 for signed_square in exact]
    label1 = "b11" if before[0] else "a11[21]" if before[1] else "a11[22]"
    label2 = "b22" if before[2] and before[3] else "a22"
    deciding = ((0,) if before[0] else (0, 1)) + ((2, 3) if before[2] else (2,))
    return exact, rounding_bounds(*fields), (label1, label2, before[2]), deciding


def allowed_outcomes(geometry: ExperimentGeometry) -> tuple[tuple[str, str, bool] | None, frozenset[str]]:
    """What classify may give the geometry: the labels and bs21_before it may decide, or None, and the comparisons a refusal may name.

    It may decide only the labels that the exact gaps' signs give, and only
    if each gap that decides them is at least GUARD_BAND_S less its rounding
    bound exactly: a near-tie is never guessed.  A refusal may name a
    comparison whose exact gap is within GUARD_BAND_S plus its rounding bound.
    """
    exact, bounds, labels, deciding = exact_reference(geometry)
    band = Fraction(GUARD_BAND_S)
    decidable = all(abs(exact[index]) >= max(band - bounds[index], 0) ** 2 for index in deciding)
    refusable = frozenset(name for name, gap, bound in zip(COMPARISONS, exact, bounds) if abs(gap) < (band + bound) ** 2)
    return (labels if decidable else None), refusable


def lab_series(geometry: ExperimentGeometry) -> int | None:
    """The series of the lab ordering, or None when a splitter moves and leaves no lab ordering to name.

    At rest every frame is the lab's, so the lengths alone name it: BS11's
    impact before both of photon 2's (2), between them (3) or after both (1).
    """
    l11, l21, l22, *velocities = paths_and_betas(geometry)
    if tuple(velocities) != (0.0, 0.0, 0.0):
        return None
    return 2 if l11 < l21 else 3 if l11 < l22 else 1


lengths = st.floats(min_value=1e-3, max_value=1e3)
# A leg gap of 0 stands for photon 2's legs one ulp apart, whose frame times can round into a tie.
leg_gaps = st.one_of(st.just(0.0), lengths)


@st.composite
def geometries(draw, max_beta: float = 0.99) -> ExperimentGeometry:
    """Accepted geometries, about half of them with one of classify's four gaps within 3 guard bands of a tie.

    Each beta is at most max_beta in size, and a zero of either sign often,
    so whole geometries at rest are drawn too; max_beta = 0 draws only those.
    A tie puts photon 1's path at the comparison's Doppler threshold, k l2
    with k = (1 - beta) / (1 + beta) in the comparison's frame and l2 photon
    2's length in it, then steps it by up to 3 guard bands of time in that frame.
    """
    betas = st.one_of(st.sampled_from((0.0, -0.0)), st.floats(min_value=-max_beta, max_value=max_beta))
    length_bs11, length_bs21, leg_gap = draw(lengths), draw(lengths), draw(leg_gaps)
    l22 = math.nextafter(length_bs21, math.inf) if leg_gap == 0.0 else length_bs21 + leg_gap
    velocities = [draw(betas) for _ in range(3)]
    m11_displacement = draw(st.floats(min_value=-1e3, max_value=1e3))
    tied = draw(st.sampled_from(range(4))) if draw(st.booleans()) else None
    if tied is not None:
        frame, a, b = GAP_FRAMES[tied]
        # At BS11's beta this gap is BS11's own negated, whose refusal would come first and hide the tie;
        # 1e-3 off it, BS11's gap lies a few guard bands out even at the shortest legs.  At rest
        # every frame is BS11's, so the tie is placed there.
        if frame and max_beta > 0.0 and abs(velocities[frame] - velocities[0]) < 1e-3:
            moved = draw(st.floats(min_value=1e-3, max_value=max_beta)) * draw(st.sampled_from((1.0, -1.0)))
            velocities[frame] = -moved if abs(moved - velocities[0]) < 1e-3 else moved
        beta, l2 = velocities[frame], length_bs21 if 1 in (a, b) else l22
        bands = draw(st.floats(min_value=-3.0, max_value=3.0))
        step = bands * GUARD_BAND_S * SPEED_OF_LIGHT * math.sqrt(1.0 - beta * beta) / (1.0 + beta)
        m11_displacement = (1.0 - beta) / (1.0 + beta) * l2 + step - length_bs11
    try:
        return ExperimentGeometry(length_bs11, length_bs21, l22, m11_displacement, *velocities)
    except ValueError:
        assume(False)


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


# The CSV columns that a run's draw sets: the counts, then the estimate from them.
SAMPLED_COLUMNS = ("R_pp", "R_pm", "R_mp", "R_mm", "e_hat", "stderr")


def tables_with_correlation(e: float) -> set[JointDistribution]:
    """Every table symmetric_joint(x), for a float x, whose correlation is e.

    A run prints its table's correlation, which rounds four sums of its
    cells and so lies within 3 * 2^-53 of x; and a one-ulp change in a cell
    can move a multinomial count.  symmetric_joint(x) changes only where
    1/4 +- x/4 meets a rounding midpoint, at multiples of 2^-54 while
    |x| < 1/2, and every float x with |x| >= 1/8 is a multiple of 2^-55: so
    the multiples of 2^-55 within 2^-50 of e give every such table.
    """
    step, reach = 2.0**-55, 2.0**-50
    xs = (k * step for k in range(math.ceil((e - reach) / step), math.floor((e + reach) / step) + 1))
    return {table for table in {symmetric_joint(x) for x in xs if abs(x) <= 1.0} if table.correlation == e}


class ReferenceRow(NamedTuple):
    """One configured variant's CSV row, as reference_rows gives it."""

    printed: dict[str, str]  # the variant, series and phase columns, as the CSV prints them
    e_analytic: float  # the correlation of the tests' own table for the variant
    stream: tuple[int, int, int]  # the seed, n_events and variant index of its v5 draw

    def sampled(self, e_printed: float) -> list[dict[str, str]]:
        """The SAMPLED_COLUMNS a run that printed e_printed may print: one dict per table of that correlation.

        The counts are the v5 draw of the table; e_hat and stderr are the
        estimator's, (R_pp - R_pm - R_mp + R_mm) / n and sqrt((1 - e_hat^2) / n).
        """
        rows = []
        for table in tables_with_correlation(e_printed):
            counts, _ = v5_reference(table, *self.stream)
            n = sum(counts)
            e_hat = (counts[0] - counts[1] - counts[2] + counts[3]) / n
            rows.append(dict(zip(SAMPLED_COLUMNS, map(str, (*counts, e_hat, math.sqrt((1.0 - e_hat * e_hat) / n))))))
        return rows


# The one pairing on which RNL_ALTERNATIVE departs from RNL_STANDARD.
_ALTERNATIVE_PAIRING = (PhotonOneLabel.A11_21, PhotonTwoLabel.A22)


def reference_rows(values: dict[str, object]) -> dict[int, object]:
    """What `rnlsim --format csv` may do with config values the package accepts: each exit code and what it prints.

    Exit 3 maps to the comparisons its refusal may name, and exit 0 to one
    ReferenceRow per configured variant, in order.  The package's parser
    builds the config, whose fields alone are read; nothing here calls
    classify, predict, the sampler, the estimator or a renderer:
    - the labels and series come from the signs of the exact gaps (allowed_outcomes, lab_series);
    - the phases are the exact residues Fraction(x) % 360 of the degrees;
    - QM's table is oracle_table's final one, and so is RNL_ALTERNATIVE's at
      (a11[21], a22); every other is rule_table's;
    - a variant's stream index is its place in ModelVariant.
    """
    config = build_run_config(values)
    geometry = config.resolve_geometry()
    labels, refusable = allowed_outcomes(geometry)
    outcomes: dict[int, object] = {3: refusable} if refusable else {}
    if labels is None:
        return outcomes
    degrees = {"phi11_deg": config.phi11_deg, "phi21_deg": config.phi21_deg, "phi22_deg": config.phi22_deg}
    settings = PhaseSettings(*(math.radians(float(Fraction(x) % 360)) for x in degrees.values()))
    pairing = (PhotonOneLabel(labels[0]), PhotonTwoLabel(labels[1]))
    final = oracle_table(settings, coherent=config.condition2)
    series = lab_series(geometry)
    rows = []
    for variant in config.variants:
        alternative = variant is ModelVariant.RNL_ALTERNATIVE and pairing == _ALTERNATIVE_PAIRING
        if variant is ModelVariant.QM or alternative:
            table = final
        else:
            table = rule_table(settings, pairing, config.condition1, config.condition2)
        printed = {"variant": variant.value, "series": "" if series is None else str(series)}
        printed.update((name, str(x)) for name, x in degrees.items())
        stream = (config.seed, config.n_events, list(ModelVariant).index(variant))
        rows.append(ReferenceRow(printed, table.correlation, stream))
    outcomes[0] = rows
    return outcomes
