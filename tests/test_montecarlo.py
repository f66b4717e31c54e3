"""Sampling determinism, the correlation estimator, the experiment runner."""

from __future__ import annotations

import dataclasses
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import as_array, counts_by_variant, for_series, v5_reference
import rnlsim.montecarlo
import rnlsim.report
from rnlsim import (
    CoincidenceCounts,
    JointDistribution,
    ModelVariant,
    RunConfig,
    compare_report,
    estimate_correlation,
    predict,
    sample_counts,
    symmetric_joint,
)
from rnlsim import rnl
from rnlsim.montecarlo import MAX_EVENTS, MAX_KEY_WORD, correlation_stderr
from rnlsim.quantum import PROB_ATOL
from rnlsim.report import VERDICT_SIGMA


def test_different_streams_differ() -> None:
    table = symmetric_joint(0.0)
    counts_a = sample_counts(table, seed=42, variant_index=0, n_events=1000, chunk_size=1000)
    counts_b = sample_counts(table, seed=42, variant_index=1, n_events=1000, chunk_size=1000)
    counts_c = sample_counts(table, seed=43, variant_index=0, n_events=1000, chunk_size=1000)
    assert counts_a != counts_b
    assert counts_a != counts_c


def test_uniform_frequencies_within_statistical_bound() -> None:
    n = 4_000_000
    counts = sample_counts(
        symmetric_joint(0.0), seed=3, variant_index=0, n_events=n, chunk_size=500_000
    )
    bound = 5.0 * math.sqrt(0.25 * 0.75 / n)
    for count in counts.as_tuple():
        assert abs(count / n - 0.25) < bound


def test_counts_are_a_pure_function_of_their_arguments() -> None:
    # Every draw re-keys one shared Philox, so A, B, A with refused calls in
    # between must give A's counts twice: no draw, and no refusal, leaves a
    # key, counter or buffered word behind for the next.
    a = (JointDistribution(0.1, 0.2, 0.3, 0.4), dict(seed=7, variant_index=1, n_events=50_000))
    b = (symmetric_joint(0.5), dict(seed=MAX_KEY_WORD, variant_index=3, n_events=999))
    first = sample_counts(a[0], **a[1])
    with pytest.raises(ValueError, match="n_events"):
        sample_counts(b[0], **{**b[1], "n_events": 0})
    middle = sample_counts(b[0], **b[1])
    with pytest.raises(ValueError, match="seed"):
        sample_counts(a[0], **{**a[1], "seed": MAX_KEY_WORD + 1})
    again = sample_counts(a[0], **a[1])
    assert first == again
    for (table, kwargs), counts in ((a, first), (b, middle)):
        seed, variant_index, n_events = kwargs["seed"], kwargs["variant_index"], kwargs["n_events"]
        assert counts.as_tuple() == v5_reference(table, seed, n_events, variant_index)[0]


def test_threads_sharing_the_stream_each_get_their_serial_counts() -> None:
    # The lock keeps one thread's re-key from landing between another's key
    # write and its draw.  A switch interval of 1 us makes such a landing
    # likely: with the lock dropped, dozens of these 20 000 draws differ.
    table = JointDistribution(0.1, 0.2, 0.3, 0.4)
    keys = [(seed, variant_index) for seed in range(5_000) for variant_index in range(4)]

    def draw(key: tuple[int, int]) -> CoincidenceCounts:
        return sample_counts(table, seed=key[0], variant_index=key[1], n_events=1000)

    serial = [draw(key) for key in keys]
    threaded = [None] * len(keys)

    def draw_every_fourth(start: int) -> None:
        for i in range(start, len(keys), 4):
            threaded[i] = draw(keys[i])

    threads = [threading.Thread(target=draw_every_fourth, args=(start,)) for start in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sum(got != want for got, want in zip(threaded, serial)) == 0


def test_seeds_past_32_bits_do_not_collide_with_other_variants() -> None:
    # Each seed is a whole 64-bit key word, so seed 5 + (2 << 32) at variant 0
    # and seed 5 at variant 2 are the distinct keys [5 + (2 << 32), 0] and
    # [5, 2]: the seed's high bits never reach the variant's word.
    table = JointDistribution(0.1, 0.2, 0.3, 0.4)
    wide = sample_counts(table, seed=5 + (2 << 32), variant_index=0, n_events=1000, chunk_size=1000)
    narrow = sample_counts(table, seed=5, variant_index=2, n_events=1000, chunk_size=1000)
    assert wide != narrow
    assert rnlsim.montecarlo._philox_state(5 + (2 << 32), 0) != rnlsim.montecarlo._philox_state(5, 2)


@st.composite
def _valid_tables(draw) -> JointDistribution:
    """Tables with zero cells, and totals anywhere inside the PROB_ATOL band."""
    cell_weights = st.one_of(
        st.sampled_from([0.0, 1e-300, 1e-9, 0.25, 1.0, 3.0]), st.floats(min_value=0.0, max_value=1.0)
    )
    weights = draw(st.lists(cell_weights, min_size=4, max_size=4))
    assume(sum(weights) > 0.0)
    total = draw(st.floats(min_value=1.0 - PROB_ATOL, max_value=1.0 + PROB_ATOL))
    probabilities = [total * w / sum(weights) for w in weights]
    try:
        return JointDistribution(*probabilities)
    except ValueError:
        assume(False)


@st.composite
def _run_shapes(draw) -> tuple[int, int]:
    """(n_events, chunk_size) anywhere in 1 .. MAX_EVENTS, small event counts often."""
    n_events = draw(st.one_of(st.integers(1, 10_000), st.integers(1, MAX_EVENTS)))
    chunk_size = draw(st.one_of(st.integers(1, min(n_events + 100, MAX_EVENTS)), st.integers(1, MAX_EVENTS)))
    return n_events, chunk_size


class _NoRekey:
    """Stands in for the shared Philox: any write of its state fails the test."""

    def __setattr__(self, name: str, value) -> None:
        raise AssertionError("the shared Philox was re-keyed")


def test_keys_outside_64_bits_are_refused_before_any_philox_is_built_or_re_keyed(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    def no_build(*args, **kwargs):
        raise AssertionError("a Philox was built")

    monkeypatch.setattr(np.random, "Philox", no_build)
    monkeypatch.setattr("rnlsim.montecarlo._shared_stream", lambda: (_NoRekey(), None, threading.Lock()))
    for seed, variant_index, message in (
        (MAX_KEY_WORD + 1, 0, "seed must be in"),
        (-1, 0, "seed must be in"),
        (True, 0, "seed must be an integer"),
        (np.True_, 0, "seed must be an integer"),
        (1.0, 0, "seed must be an integer"),
        (1, MAX_KEY_WORD + 1, "variant_index must be in"),
        (1, -1, "variant_index must be in"),
        (1, False, "variant_index must be an integer"),
    ):
        with pytest.raises(ValueError, match=message):
            sample_counts(symmetric_joint(0.0), seed=seed, variant_index=variant_index, n_events=10)


def _plain(state):
    """A Philox state dict with its arrays and tuples as lists of Python ints."""
    if isinstance(state, dict):
        return {name: _plain(value) for name, value in state.items()}
    if isinstance(state, np.ndarray):
        return state.tolist()
    return list(state) if isinstance(state, tuple) else state


def _assert_fresh_philox_state(seed: int, variant_index: int) -> None:
    # The state sample_counts writes is the one numpy's Philox(key=...) starts
    # in, so the re-keyed stream is the v5 stream.  The key is a uint64 array:
    # numpy casts a Python-list key through float, so Philox(key=[2**64 - 1, 1])
    # has the key [0, 1].
    keyed = np.random.Philox(key=np.array([seed, variant_index], dtype=np.uint64))
    assert _plain(rnlsim.montecarlo._philox_state(seed, variant_index)) == _plain(keyed.state)


@pytest.mark.parametrize(
    "seed, variant_index",
    [(0, 0), (MAX_KEY_WORD, MAX_KEY_WORD), (1, 2), (2**63, 1), (MAX_KEY_WORD, 2)],
)
def test_philox_state_is_a_fresh_philox_keyed_by_seed_and_variant(seed: int, variant_index: int) -> None:
    _assert_fresh_philox_state(seed, variant_index)


@given(st.integers(0, MAX_KEY_WORD), st.integers(0, MAX_KEY_WORD))
def test_philox_state_matches_numpy_over_the_whole_64_bit_key_range(seed: int, variant_index: int) -> None:
    _assert_fresh_philox_state(seed, variant_index)


class _RecordingStream:
    """A generator that keeps the arguments of every multinomial draw."""

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng, self.draws = rng, []

    def multinomial(self, n, pvals, size=None):
        self.draws.append((n, list(pvals), size))
        return self.rng.multinomial(n, pvals, size=size)


def _recorded_sample_counts(table: JointDistribution, **kwargs):
    """sample_counts through a recording shared generator: the counts and its draws."""
    bitgen, generator, lock = rnlsim.montecarlo._shared_stream()
    recording = _RecordingStream(generator)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("rnlsim.montecarlo._shared_stream", lambda: (bitgen, recording, lock))
        counts = sample_counts(table, **kwargs)
    return counts, recording.draws


@settings(deadline=None)
@given(_valid_tables(), _run_shapes(), st.integers(min_value=0, max_value=2**64 - 1))
@example(JointDistribution(0.0, 0.0, 0.0, 1.0), (10_000, 1), 0)
@example(JointDistribution(1.0 + 0.9 * PROB_ATOL, 0.0, 0.0, 0.0), (2**15 + 7, 1), 1)
@example(JointDistribution(0.5 + 0.45 * PROB_ATOL, 0.5 + 0.45 * PROB_ATOL, 0.0, 0.0), (10_000, 999), 2)
@example(JointDistribution(0.0, 0.0, 0.5 - 0.45 * PROB_ATOL, 0.5 - 0.45 * PROB_ATOL), (MAX_EVENTS, 5), 3)
@example(JointDistribution(0.1, 0.2, 0.3, 0.4), (2**14 * 7 * 2, 7), 4)
# Degenerate tables: every event falls in the one nonzero cell.
@example(JointDistribution(1.0, 0.0, 0.0, 0.0), (1000, 300), 0)
@example(JointDistribution(0.0, 1.0, 0.0, 0.0), (1000, 300), 0)
@example(JointDistribution(0.0, 0.0, 1.0, 0.0), (1000, 300), 0)
# Chunk sizes below, at and above n_events: one draw all the same.
@example(JointDistribution(0.1, 0.2, 0.3, 0.4), (1, 1), 5)
@example(JointDistribution(0.1, 0.2, 0.3, 0.4), (999, 1000), 5)
@example(JointDistribution(0.1, 0.2, 0.3, 0.4), (1000, 1000), 5)
@example(JointDistribution(0.1, 0.2, 0.3, 0.4), (12_345, 1000), 5)
@example(JointDistribution(0.1, 0.2, 0.3, 0.4), (10, 3), 5)
# 2^63 - 1 one-event chunks (millennia, one chunk at a time), and the largest seed.
@example(symmetric_joint(0.0), (MAX_EVENTS, 1), 1)
@example(symmetric_joint(0.0), (10, MAX_EVENTS), MAX_KEY_WORD)
# n_events within 100 of MAX_EVENTS, and a chunk_size at the bound, which n_events + 100 once passed.
@example(JointDistribution(0.1, 0.2, 0.3, 0.4), (MAX_EVENTS - 99, MAX_EVENTS), 6)
# numpy hands its last cell what the earlier binomials leave: a few hundred of 2^63 - 1 here, unless it is left out.
@example(JointDistribution(0.6720976591387724, 0.28466864239501943, 0.04323369846620814, 0.0), (MAX_EVENTS, MAX_EVENTS), 1)
def test_sample_counts_equals_the_v5_reference(table: JointDistribution, shape: tuple[int, int], seed: int) -> None:
    n_events, chunk_size = shape
    expected_counts, expected_p = v5_reference(table, seed, n_events)
    counts, draws = _recorded_sample_counts(table, seed=seed, variant_index=1, n_events=n_events, chunk_size=chunk_size)
    assert counts.as_tuple() == expected_counts
    assert all(type(count) is int for count in counts.as_tuple())
    assert counts.n_total == n_events
    assert all(count == 0 for p, count in zip(as_array(table), counts.as_tuple()) if p == 0.0)
    # One draw of all the events from the shared generator, with the
    # reference's renormalised p bit for bit.
    assert draws == [(n_events, expected_p, None)]


@settings(max_examples=60, deadline=None)
@given(_valid_tables(), _run_shapes(), st.integers(1, MAX_EVENTS), st.integers(0, 2**64 - 1))
def test_counts_do_not_depend_on_chunk_size(
    table: JointDistribution, shape: tuple[int, int], other_chunk_size: int, seed: int
) -> None:
    n_events, chunk_size = shape
    kwargs = dict(seed=seed, variant_index=2, n_events=n_events)
    counts = sample_counts(table, **kwargs)
    assert sample_counts(table, chunk_size=chunk_size, **kwargs) == counts
    assert sample_counts(table, chunk_size=other_chunk_size, **kwargs) == counts


# --- estimator -----------------------------------------------------------------


def test_estimator_known_values() -> None:
    assert estimate_correlation(CoincidenceCounts(500, 0, 0, 500)).e_hat == 1.0
    assert estimate_correlation(CoincidenceCounts(250, 250, 250, 250)).e_hat == 0.0
    result = estimate_correlation(CoincidenceCounts(400, 100, 100, 400))
    assert result.e_hat == pytest.approx(0.6)
    assert result.stderr == pytest.approx(math.sqrt((1.0 - 0.36) / 1000.0))
    # The sample size is the counts' n_total; the estimate keeps no copy of it.
    assert [field.name for field in dataclasses.fields(result)] == ["e_hat", "stderr"]


def test_estimator_rejects_zero_counts() -> None:
    with pytest.raises(ValueError):
        estimate_correlation(CoincidenceCounts(0, 0, 0, 0))


def test_stderr_refuses_a_correlation_outside_minus_one_to_one() -> None:
    # Refused, not clamped to 0: no estimate or model table has |e| > 1.
    assert correlation_stderr(1.0, 10) == correlation_stderr(-1.0, 10) == 0.0
    for e in (math.nextafter(1.0, 2.0), math.nextafter(-1.0, -2.0)):
        with pytest.raises(ValueError):
            correlation_stderr(e, 10)


@given(st.tuples(*(st.integers(min_value=0, max_value=10_000),) * 4))
def test_estimator_is_bounded(counts: tuple[int, int, int, int]) -> None:
    if sum(counts) == 0:
        return
    result = estimate_correlation(CoincidenceCounts(*counts))
    assert -1.0 <= result.e_hat <= 1.0
    assert result.stderr >= 0.0


# --- runner --------------------------------------------------------------------


def test_compare_report_key_settings() -> None:
    config = RunConfig(n_events=20_000, seed=9)
    counts = counts_by_variant(config)
    assert set(counts) == set(ModelVariant)
    for variant in (ModelVariant.QM, ModelVariant.RNL_ALTERNATIVE):
        assert counts[variant].r_pm == 0
        assert counts[variant].r_mp == 0
        assert estimate_correlation(counts[variant]).e_hat == 1.0
    standard = estimate_correlation(counts[ModelVariant.RNL_STANDARD])
    assert abs(standard.e_hat) < 5.0 * standard.stderr


def test_compare_report_predicts_each_variant_once(monkeypatch: pytest.MonkeyPatch) -> None:
    # report.predict is called once per configured variant, in order.  Below
    # it, the memo sees the stage of every quantum table: at the default
    # series-3 timing QM and the alternative rules evaluate the final stage,
    # while the standard rules take the flat table, which never reaches it.
    predicted, stages = [], []
    report_predict, evaluate = rnlsim.report.predict, rnl._evaluate

    def counting_predict(settings, timing, variant, **conditions):
        predicted.append(variant)
        return report_predict(settings, timing, variant, **conditions)

    def counting_evaluate(stage, *phases):
        stages.append(stage)
        return evaluate(stage, *phases)

    monkeypatch.setattr("rnlsim.report.predict", counting_predict)
    monkeypatch.setattr("rnlsim.rnl._evaluate", counting_evaluate)
    expected = {
        ModelVariant.QM: [rnl._FINAL],
        ModelVariant.RNL_STANDARD: [],
        ModelVariant.RNL_ALTERNATIVE: [rnl._FINAL],
    }
    assert rnl._RULES[ModelVariant.RNL_STANDARD][for_series(3).pairing] is rnl._FLAT
    for variants in (
        tuple(ModelVariant),
        (ModelVariant.RNL_STANDARD,),
        (ModelVariant.RNL_ALTERNATIVE, ModelVariant.QM),
    ):
        predicted.clear()
        stages.clear()
        compare_report(RunConfig(n_events=1000, variants=variants))
        assert tuple(predicted) == variants
        assert stages == [stage for variant in variants for stage in expected[variant]]


def test_run_results_do_not_depend_on_variant_order() -> None:
    base = RunConfig(n_events=10_000, seed=13)
    reordered = dataclasses.replace(base, variants=(ModelVariant.RNL_STANDARD, ModelVariant.QM, ModelVariant.RNL_ALTERNATIVE))
    assert counts_by_variant(reordered) == counts_by_variant(base)


def test_estimates_converge_across_seeds() -> None:
    # Every (variant, series) cell within five standard errors of its
    # analytic value, for twenty seeds.
    n = 100_000
    misses = 0
    cells = 0
    for series in (1, 2, 3):
        timing = for_series(series)
        for variant in ModelVariant:
            analytic = predict(RunConfig(series=series).settings(), timing, variant).correlation
            for seed in range(20):
                config = RunConfig(series=series, n_events=n, seed=seed, variants=(variant,))
                counts = counts_by_variant(config)[variant]
                result = estimate_correlation(counts)
                cells += 1
                if abs(result.e_hat - analytic) > 5.0 * result.stderr:
                    misses += 1
    assert misses / cells <= 0.01


# --- error rates at fixed seeds -----------------------------------------------

_COVERAGE_SEEDS = 1000


@pytest.mark.parametrize("e", [0.0, 0.5, 0.9])
def test_two_stderr_intervals_cover_e_at_the_nominal_rate(e: float) -> None:
    # e_hat +- 2 stderr misses E with probability q = P(|Z| > 2) ~ 4.55 %.
    # Over K seeds the misses are Binomial(K, q); allow 4 of its standard
    # deviations, 19 < misses < 72 at K = 1000.  A sampler with no spread misses
    # none, one with twice the variance ~157.
    table = symmetric_joint(e)
    q = math.erfc(2.0 / math.sqrt(2.0))
    misses = 0
    for seed in range(_COVERAGE_SEEDS):
        counts = sample_counts(table, seed=seed, variant_index=0, n_events=10_000)
        result = estimate_correlation(counts)
        misses += abs(result.e_hat - e) > 2.0 * result.stderr
    expected = _COVERAGE_SEEDS * q
    assert abs(misses - expected) <= 4.0 * math.sqrt(expected * (1.0 - q))


_LAW_SEEDS = 40_000


@pytest.mark.parametrize(
    ("n_events", "e"),
    [
        (2**58, 0.0),
        (2**58, 0.7071),
        pytest.param(MAX_EVENTS, 0.0, marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 22")),
    ],
)
def test_counts_follow_the_table_law_at_large_n_events(n_events: int, e: float) -> None:
    # Multinomial counts make z = (e_hat - E) / sqrt((1 - E^2) / n) standard
    # normal over K seeds.  Both bounds are 5 standard errors, fixed before any
    # run: mean(z^2) = 1 with variance 2 / K, and P(|z| > 3) = q with variance
    # q (1 - q) / K.  numpy's int64 binomial overflows above about 2^61 events:
    # at MAX_EVENTS and E = 0, mean(z^2) is 1.090 and P(|z| > 3) is 0.0054.
    # n = 2^62, and MAX_EVENTS at E = 0.7071, are left out: their mean(z^2),
    # 1.021 and 1.029, lies inside the bound, so those cases would pass on this
    # sampler, which is known to be wrong at both points.
    table = symmetric_joint(e)
    scale = math.sqrt((1.0 - table.correlation**2) / n_events)
    e_hat = np.array(
        [
            estimate_correlation(sample_counts(table, seed=seed, variant_index=0, n_events=n_events)).e_hat
            for seed in range(_LAW_SEEDS)
        ]
    )
    z = (e_hat - table.correlation) / scale
    q = math.erfc(3.0 / math.sqrt(2.0))
    assert abs(np.mean(z**2) - 1.0) <= 5.0 * math.sqrt(2.0 / _LAW_SEEDS)
    assert abs(np.mean(np.abs(z) > 3.0) - q) <= 5.0 * math.sqrt(q * (1.0 - q) / _LAW_SEEDS)


def test_identical_tables_draw_from_separate_streams() -> None:
    # At the series-3 defaults QM and RNL_ALTERNATIVE predict the same table
    # (E = 1), so only their streams can set their counts apart.
    for seed in range(20):
        config = RunConfig(seed=seed)
        report = compare_report(config)
        rows = {row.variant: row for row in report.rows}
        qm, alternative = rows[ModelVariant.QM], rows[ModelVariant.RNL_ALTERNATIVE]
        phases, timing = config.settings(), report.timing
        assert (
            predict(phases, timing, ModelVariant.QM).joint
            == predict(phases, timing, ModelVariant.RNL_ALTERNATIVE).joint
        )
        assert qm.counts != alternative.counts
        assert qm.counts.n_total == alternative.counts.n_total == config.n_events


# --- verdicts -----------------------------------------------------------------

_QM_VS_STANDARD = (ModelVariant.QM, ModelVariant.RNL_STANDARD)
_QM_VS_ALTERNATIVE = (ModelVariant.QM, ModelVariant.RNL_ALTERNATIVE)


def _verdicts(config: RunConfig) -> dict:
    return {(verdict.variant_a, verdict.variant_b): verdict for verdict in compare_report(config).verdicts}


def test_one_event_decides_nothing() -> None:
    # One event gives e_hat = +-1, whose sampled stderr is 0; the threshold
    # takes each row's analytic variance instead, 6 * sqrt(1 - E^2) >= 0 here.
    for series in (1, 2, 3):
        for seed in range(10):
            verdicts = _verdicts(RunConfig(series=series, n_events=1, seed=seed))
            assert len(verdicts) == 3
            assert not any(verdict.distinguishable for verdict in verdicts.values())


@pytest.mark.parametrize("n_events, decided", [(36, False), (37, True)])
def test_default_pair_is_decided_just_past_its_budget(n_events: int, decided: bool) -> None:
    # At the defaults E_QM = 1 and E_standard = 0, so the budget is
    # n* = (VERDICT_SIGMA * sqrt(1 - 0^2) / |1 - 0|)^2 = 36 events, whatever the seed.
    for seed in range(10):
        verdict = _verdicts(RunConfig(n_events=n_events, seed=seed))[_QM_VS_STANDARD]
        assert verdict.separation == 1.0
        assert verdict.threshold == pytest.approx(VERDICT_SIGMA / math.sqrt(n_events), rel=1e-15)
        assert verdict.distinguishable is decided


def test_equal_tables_are_never_distinguishable() -> None:
    # QM and RNL_ALTERNATIVE both give E = 1 at the series-3 defaults: |dE| = 0
    # against a threshold of 0, since E = 1 has no variance.  0 > 0 is false.
    for n_events in (1, 36, 37, 10**6, 10**9):
        for seed in range(3):
            verdict = _verdicts(RunConfig(n_events=n_events, seed=seed))[_QM_VS_ALTERNATIVE]
            assert verdict.separation == verdict.threshold == 0.0
            assert not verdict.distinguishable


def test_billion_events_per_variant() -> None:
    report = compare_report(RunConfig(n_events=10**9, seed=1))
    for row in report.rows:
        assert row.counts.n_total == 10**9
