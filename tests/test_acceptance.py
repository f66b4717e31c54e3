"""End-to-end acceptance checks, one test per criterion.

Run `pytest -s tests/test_acceptance.py -v` to see one PASS/FAIL line per
criterion together with the measured numbers.
"""

from __future__ import annotations

import math
import time

import numpy as np

from helpers import (
    ATOL,
    KEY_SETTINGS,
    as_array,
    counts_by_variant,
    for_series,
    marginal_photon1,
    marginal_photon2,
    reference,
    theorem_product,
)
from rnlsim import (
    ModelVariant,
    PhaseSettings,
    PhotonOneLabel,
    PhotonTwoLabel,
    RunConfig,
    TimingAssignment,
    amplitude_oracle,
    classify,
    compare_report,
    estimate_correlation,
    predict,
    qm_correlation,
    qm_single_pair_correlation,
    render_csv,
    series_preset,
    symmetric_joint,
)
from rnlsim import rnl

SERIES3 = for_series(3)


def _verdict(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_closed_form_values_at_key_settings() -> None:
    e_qm = qm_correlation(KEY_SETTINGS)
    e_standard = predict(KEY_SETTINGS, SERIES3, ModelVariant.RNL_STANDARD).correlation
    e_theorem = theorem_product(KEY_SETTINGS, PhotonOneLabel.A11_21)
    e_alternative = predict(KEY_SETTINGS, SERIES3, ModelVariant.RNL_ALTERNATIVE).correlation
    ok = (
        abs(e_qm - 1.0) < ATOL
        and abs(e_standard) < ATOL
        and abs(e_theorem) < ATOL
        and abs(e_alternative - 1.0) < ATOL
    )
    _verdict(
        "criterion 1 (closed forms at 45/-45/90 deg)",
        ok,
        f"E_QM={e_qm!r}, E_standard={e_standard!r} (factorized), "
        f"E_theorem={e_theorem!r} (product), E_alternative={e_alternative!r}, tol {ATOL:g}",
    )


def test_criterion_2_amplitude_oracle_grid() -> None:
    grid = np.linspace(0.0, 2.0 * math.pi, 13, endpoint=False)
    started = time.perf_counter()
    worst = 0.0
    for phi11 in grid:
        for phi21 in grid:
            for phi22 in grid:
                settings = PhaseSettings(phi11, phi21, phi22)
                closed = symmetric_joint(qm_correlation(settings))
                deviation = np.max(np.abs(as_array(amplitude_oracle(settings)) - as_array(closed)))
                worst = max(worst, float(deviation))
    elapsed = time.perf_counter() - started
    ok = worst < ATOL and elapsed < 1.0
    _verdict(
        "criterion 2 (amplitude oracle, 13^3 phase grid)",
        ok,
        f"max deviation {worst:.3e} < {ATOL:g}, elapsed {elapsed:.2f} s < 1 s",
    )


def test_criterion_3_two_nonbefore_theorem_sweep() -> None:
    rng = np.random.default_rng(20240815)
    started = time.perf_counter()
    worst_table = 0.0
    worst_gap = 0.0
    for _ in range(1000):
        settings = PhaseSettings(*rng.uniform(-2.0 * math.pi, 2.0 * math.pi, size=3))
        for label1 in (PhotonOneLabel.A11_22, PhotonOneLabel.A11_21):
            timing = TimingAssignment(label1, PhotonTwoLabel.A22)
            from_table = predict(settings, timing, ModelVariant.RNL_STANDARD).correlation
            from_product = theorem_product(settings, label1)
            worst_table = max(worst_table, abs(from_table))
            worst_gap = max(worst_gap, abs(from_table - from_product))
    elapsed = time.perf_counter() - started
    ok = worst_table < ATOL and worst_gap < ATOL and elapsed < 1.0
    _verdict(
        "criterion 3 (zero correlation for two non-before impacts, 1000 settings)",
        ok,
        f"max |E| {worst_table:.3e}, max |factorized - product| {worst_gap:.3e}, "
        f"elapsed {elapsed:.2f} s < 1 s",
    )


def test_criterion_4_timing_classification_and_boosts() -> None:
    series_ok = all(
        classify(series_preset(series)).series == series
        for series in (1, 2, 3)
    )
    pairings = {
        series: classify(series_preset(series)).pairing
        for series in (1, 2, 3)
    }
    pairings_ok = pairings == {
        1: (PhotonOneLabel.A11_22, PhotonTwoLabel.B22),
        2: (PhotonOneLabel.B11, PhotonTwoLabel.A22),
        3: (PhotonOneLabel.A11_21, PhotonTwoLabel.A22),
    }

    rng = np.random.default_rng(20240816)
    n = 10_000
    times = rng.uniform(-1e-6, 1e-6, size=n)
    positions = rng.uniform(-100.0, 100.0, size=n)
    betas = rng.uniform(-0.99, 0.99, size=n)
    identity_ok = True
    ordering_ok = True
    # The boosts of bench/reference.py, the oracle classify is checked against.
    for i in range(n):
        identity_ok &= reference.frame_time(times[i], positions[i], 0.0) == times[i]
        partner_t = times[(i + 1) % n]
        if times[i] != partner_t:
            gap = reference.frame_time(times[i], positions[i], betas[i]) - reference.frame_time(
                partner_t, positions[i], betas[i]
            )
            ordering_ok &= (times[i] > partner_t) == (gap > 0)
    ok = series_ok and pairings_ok and identity_ok and ordering_ok
    _verdict(
        "criterion 4 (presets classify, boost identity/ordering over 10^4 events)",
        ok,
        f"series ids {series_ok}, pairings {pairings_ok}, "
        f"beta=0 identity {identity_ok}, same-position ordering {ordering_ok}",
    )


def test_criterion_5_monte_carlo_run_at_key_settings() -> None:
    config = RunConfig(n_events=1_000_000, seed=1)
    started = time.perf_counter()
    counts = counts_by_variant(config)
    elapsed = time.perf_counter() - started
    estimates = {variant: estimate_correlation(counts[variant]) for variant in counts}
    qm_exact = estimates[ModelVariant.QM].e_hat == 1.0
    alternative_exact = estimates[ModelVariant.RNL_ALTERNATIVE].e_hat == 1.0
    standard_small = abs(estimates[ModelVariant.RNL_STANDARD].e_hat) < 0.005

    # Counts are a pure function of the config, and every event is counted.
    repeat_identical = counts_by_variant(config) == counts
    totals_ok = all(c.n_total == config.n_events for c in counts.values())
    ok = (
        qm_exact
        and alternative_exact
        and standard_small
        and elapsed < 5.0
        and repeat_identical
        and totals_ok
    )
    _verdict(
        "criterion 5 (10^6-event run at seed 1)",
        ok,
        f"e_hat QM={estimates[ModelVariant.QM].e_hat!r}, "
        f"RNL_STANDARD={estimates[ModelVariant.RNL_STANDARD].e_hat!r} (|.| < 0.005), "
        f"RNL_ALTERNATIVE={estimates[ModelVariant.RNL_ALTERNATIVE].e_hat!r}, "
        f"elapsed {elapsed:.2f} s < 5 s, repeat run identical: {repeat_identical}, "
        f"totals equal n: {totals_ok}",
    )


def test_criterion_6_byte_identical_reports() -> None:
    config = RunConfig(n_events=100_000, seed=77)
    csv_a = render_csv(compare_report(config))
    csv_b = render_csv(compare_report(config))
    ok = csv_a.encode() == csv_b.encode()
    _verdict(
        "criterion 6 (repeat run determinism)",
        ok,
        f"two CSV renderings of the same config byte-identical: {ok}",
    )


def test_criterion_7_distribution_invariants_sweep() -> None:
    rng = np.random.default_rng(20240817)
    # Every pairing with a rule, so a new rule row is swept too, and (b11, a22)
    # once more with BS21's impact not before.
    pairings = (
        *(TimingAssignment(label1, label2) for label1, label2 in rnl._RULES[ModelVariant.RNL_STANDARD]),
        TimingAssignment(PhotonOneLabel.B11, PhotonTwoLabel.A22, bs21_before=False),
    )
    variants = tuple(ModelVariant)
    worst = 0.0
    checked = 0
    predicted = set()
    for index in range(10_000):
        settings = PhaseSettings(*rng.uniform(-2.0 * math.pi, 2.0 * math.pi, size=3))
        producer = index % 4
        if producer == 0:
            table = symmetric_joint(qm_correlation(settings))
        elif producer == 1:
            table = amplitude_oracle(settings)
        elif producer == 2:
            table = symmetric_joint(qm_single_pair_correlation(settings))
        else:
            timing = pairings[index % len(pairings)]
            variant = variants[index // len(pairings) % len(variants)]
            table = predict(settings, timing, variant).joint
            predicted.add((timing, variant))
        checked += 1
        worst = max(
            worst,
            abs(sum(as_array(table)) - 1.0),
            abs(marginal_photon1(table, 1) - 0.5),
            abs(marginal_photon1(table, -1) - 0.5),
            abs(marginal_photon2(table, 1) - 0.5),
            abs(marginal_photon2(table, -1) - 0.5),
        )
    flat = symmetric_joint(0.0)
    worst = max(worst, abs(sum(as_array(flat)) - 1.0), abs(marginal_photon1(flat, 1) - 0.5))
    ok = worst < ATOL and checked == 10_000 and len(predicted) == len(pairings) * len(variants)
    _verdict(
        "criterion 7 (normalization and fair marginals, 10^4 random tables)",
        ok,
        f"{checked} tables from all producers, {len(predicted)} (pairing, variant) predictions,"
        f" worst deviation {worst:.3e} < {ATOL:g}",
    )
