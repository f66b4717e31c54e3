"""Sampling determinism, the correlation estimator, the experiment runner."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import as_array, counts_by_variant, for_series
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
    substream,
    symmetric_joint,
)
from rnlsim import rnl
from rnlsim.montecarlo import MAX_CHUNKS, MAX_EVENTS
from rnlsim.quantum import PROB_ATOL


def test_degenerate_table_always_yields_its_outcome() -> None:
    for cell in range(4):
        probabilities = [0.0, 0.0, 0.0, 0.0]
        probabilities[cell] = 1.0
        counts = sample_counts(
            JointDistribution(*probabilities), seed=0, variant_index=0, n_events=1000, chunk_size=300
        )
        expected = [0, 0, 0, 0]
        expected[cell] = 1000
        assert counts.as_tuple() == tuple(expected)


def test_identical_seeds_give_identical_draws() -> None:
    table = symmetric_joint(0.0)
    kwargs = dict(seed=42, variant_index=1, n_events=200, chunk_size=64)
    assert sample_counts(table, **kwargs) == sample_counts(table, **kwargs)


def test_different_substreams_differ() -> None:
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


def test_counts_conserve_the_event_total() -> None:
    counts = sample_counts(
        symmetric_joint(0.0), seed=5, variant_index=2, n_events=12_345, chunk_size=1_000
    )
    assert counts.n_total == 12_345


def test_counts_are_a_pure_function_of_their_arguments() -> None:
    kwargs = dict(seed=7, variant_index=1, n_events=50_000, chunk_size=8_192)
    first = sample_counts(JointDistribution(0.1, 0.2, 0.3, 0.4), **kwargs)
    # Other draws in between leave no state behind.
    sample_counts(symmetric_joint(0.0), seed=8, variant_index=0, n_events=999, chunk_size=7)
    again = sample_counts(JointDistribution(0.1, 0.2, 0.3, 0.4), **kwargs)
    assert first == again


@pytest.mark.parametrize(
    "n_events, chunk_size", [(1, 1), (999, 1_000), (1_000, 1_000), (12_345, 1_000), (10, 3)]
)
def test_chunk_counts_sum_to_n_and_merge_into_the_result(n_events: int, chunk_size: int) -> None:
    # Chunk k is row k of one multinomial over the chunk sizes, drawn from
    # the variant's stream substream(seed, variant).
    table = JointDistribution(0.1, 0.2, 0.3, 0.4)
    sizes = [min(chunk_size, n_events - start) for start in range(0, n_events, chunk_size)]
    chunk_counts = substream(5, 2).multinomial(sizes, as_array(table))
    assert chunk_counts.sum(axis=1).tolist() == sizes
    counts = sample_counts(table, seed=5, variant_index=2, n_events=n_events, chunk_size=chunk_size)
    assert counts.as_tuple() == tuple(int(c) for c in chunk_counts.sum(axis=0))


@pytest.mark.parametrize("block_rows", [1, 3, 2**14])
def test_block_size_does_not_change_counts(
    monkeypatch: pytest.MonkeyPatch, block_rows: int
) -> None:
    table = JointDistribution(0.1, 0.2, 0.3, 0.4)
    kwargs = dict(seed=11, variant_index=1, n_events=20_011, chunk_size=7)
    expected = sample_counts(table, **kwargs)
    monkeypatch.setattr("rnlsim.montecarlo._BLOCK_ROWS", block_rows)
    assert sample_counts(table, **kwargs) == expected


def test_seeds_past_32_bits_do_not_collide_with_other_variants() -> None:
    # An entropy list [seed, variant] makes seed 5 + (2 << 32), variant 0 the
    # words [5, 2, 0]; zero-padded, that is also the key of seed 5, variant 2.
    table = JointDistribution(0.1, 0.2, 0.3, 0.4)
    wide = sample_counts(table, seed=5 + (2 << 32), variant_index=0, n_events=1000, chunk_size=1000)
    narrow = sample_counts(table, seed=5, variant_index=2, n_events=1000, chunk_size=1000)
    assert wide != narrow
    assert not np.array_equal(substream(5 + (2 << 32), 0).random(4), substream(5, 2).random(4))


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
    """(n_events, chunk_size) with up to ~10^4 chunks, down to one event per chunk."""
    n_events = draw(st.integers(min_value=1, max_value=10_000))
    chunk_size = draw(st.integers(min_value=max(1, n_events // 10_000), max_value=n_events + 100))
    return n_events, chunk_size


@given(_valid_tables(), _run_shapes(), st.integers(min_value=0, max_value=2**64 - 1))
def test_any_valid_table_samples_into_its_nonzero_cells(
    table: JointDistribution, shape: tuple[int, int], seed: int
) -> None:
    n_events, chunk_size = shape
    counts = sample_counts(table, seed=seed, variant_index=0, n_events=n_events, chunk_size=chunk_size)
    assert counts.n_total == n_events
    for p, count in zip(as_array(table), counts.as_tuple()):
        if p == 0.0:
            assert count == 0


def _v3_reference(table: JointDistribution, seed: int, n_events: int, chunk_size: int):
    """Counts and renormalised p of the multinomial-rows/v3 layout, written with numpy arrays."""
    p = as_array(table)
    cells = np.flatnonzero(p)
    p = p[cells] / p[cells].sum()
    full_chunks, remainder = divmod(n_events, chunk_size)
    rng = substream(seed, 1)
    merged = np.zeros(len(cells), dtype=np.int64)
    for start in range(0, full_chunks, 2**14):
        sizes = np.full(min(2**14, full_chunks - start), chunk_size, dtype=np.int64)
        merged += rng.multinomial(sizes, p).sum(axis=0)
    if remainder:
        merged += rng.multinomial(remainder, p)
    counts = np.zeros(4, dtype=np.int64)
    counts[cells] = merged
    return tuple(int(c) for c in counts), p.tolist()


class _RecordingStream:
    """A generator that keeps the p of every multinomial draw."""

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng, self.drawn_p = rng, []

    def multinomial(self, n, pvals, size=None):
        self.drawn_p.append(list(pvals))
        return self.rng.multinomial(n, pvals, size=size)


@st.composite
def _multi_block_shapes(draw) -> tuple[int, int]:
    """(n_events, chunk_size) with more than 2^14 full chunks, so several blocks are drawn."""
    chunk_size = draw(st.integers(min_value=1, max_value=40))
    full_chunks = draw(st.integers(min_value=2**14 + 1, max_value=3 * 2**14))
    return full_chunks * chunk_size + draw(st.integers(min_value=0, max_value=chunk_size - 1)), chunk_size


@settings(max_examples=60, deadline=None)
@given(
    _valid_tables(),
    st.one_of(_run_shapes(), _multi_block_shapes()),
    st.integers(min_value=0, max_value=2**64 - 1),
)
@example(JointDistribution(1.0 + 0.9 * PROB_ATOL, 0.0, 0.0, 0.0), (2**15 + 7, 1), 1)
@example(JointDistribution(0.5 + 0.45 * PROB_ATOL, 0.5 + 0.45 * PROB_ATOL, 0.0, 0.0), (10_000, 999), 2)
@example(JointDistribution(0.0, 0.0, 0.5 - 0.45 * PROB_ATOL, 0.5 - 0.45 * PROB_ATOL), (2**14 * 5 + 3, 5), 3)
@example(JointDistribution(0.1, 0.2, 0.3, 0.4), (2**14 * 7 * 2, 7), 4)
def test_sample_counts_equals_the_v3_reference(
    table: JointDistribution, shape: tuple[int, int], seed: int
) -> None:
    n_events, chunk_size = shape
    expected_counts, expected_p = _v3_reference(table, seed, n_events, chunk_size)
    streams = []

    def recording_substream(seed: int, variant_index: int) -> _RecordingStream:
        streams.append(_RecordingStream(substream(seed, variant_index)))
        return streams[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("rnlsim.montecarlo.substream", recording_substream)
        counts = sample_counts(table, seed=seed, variant_index=1, n_events=n_events, chunk_size=chunk_size)
    assert counts.as_tuple() == expected_counts
    assert all(type(count) is int for count in counts.as_tuple())
    # Every draw used the reference's renormalised p, bit for bit.
    (stream,) = streams
    assert stream.drawn_p and all(p == expected_p for p in stream.drawn_p)
    assert len(stream.drawn_p) == -(-(n_events // chunk_size) // 2**14) + (n_events % chunk_size > 0)


def test_edge_of_the_tolerance_band_samples() -> None:
    # Sums and single entries just past 1 are valid tables; numpy rejects
    # such p unless the sampler renormalises.
    for table in (
        JointDistribution(1.0 + 0.9 * PROB_ATOL, 0.0, 0.0, 0.0),
        JointDistribution(0.5 + 0.45 * PROB_ATOL, 0.5 + 0.45 * PROB_ATOL, 0.0, 0.0),
        JointDistribution(0.0, 0.0, 0.5 - 0.45 * PROB_ATOL, 0.5 - 0.45 * PROB_ATOL),
    ):
        counts = sample_counts(table, seed=1, variant_index=0, n_events=10_000, chunk_size=999)
        assert counts.n_total == 10_000


def test_chunk_size_is_part_of_the_stream_layout() -> None:
    table = symmetric_joint(0.0)
    counts_a = sample_counts(table, seed=7, variant_index=0, n_events=10_000, chunk_size=1_000)
    counts_b = sample_counts(table, seed=7, variant_index=0, n_events=10_000, chunk_size=2_500)
    assert counts_a != counts_b  # different layout, different (valid) sample


# --- estimator -----------------------------------------------------------------


def test_estimator_known_values() -> None:
    assert estimate_correlation(CoincidenceCounts(500, 0, 0, 500)).e_hat == 1.0
    assert estimate_correlation(CoincidenceCounts(250, 250, 250, 250)).e_hat == 0.0
    result = estimate_correlation(CoincidenceCounts(400, 100, 100, 400))
    assert result.e_hat == pytest.approx(0.6)
    assert result.stderr == pytest.approx(math.sqrt((1.0 - 0.36) / 1000.0))
    assert result.n == 1000


def test_estimator_rejects_zero_counts() -> None:
    with pytest.raises(ValueError):
        estimate_correlation(CoincidenceCounts(0, 0, 0, 0))


def test_counts_reject_negatives() -> None:
    with pytest.raises(ValueError):
        CoincidenceCounts(-1, 0, 0, 1)
    with pytest.raises(ValueError, match="r_mm must be an integer, got True"):
        CoincidenceCounts(0, 0, 0, True)


@given(st.tuples(*(st.integers(min_value=0, max_value=10_000),) * 4))
def test_estimator_is_bounded(counts: tuple[int, int, int, int]) -> None:
    if sum(counts) == 0:
        return
    result = estimate_correlation(CoincidenceCounts(*counts))
    assert -1.0 <= result.e_hat <= 1.0
    assert result.stderr >= 0.0


# --- runner --------------------------------------------------------------------


def test_run_experiment_key_settings() -> None:
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
    assert rnl._RULES[for_series(3).pairing] is rnl._FLAT
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


def test_run_experiment_is_deterministic() -> None:
    config = RunConfig(n_events=30_000, seed=11)
    assert counts_by_variant(config) == counts_by_variant(config)


def test_run_results_do_not_depend_on_variant_order() -> None:
    base = RunConfig(n_events=10_000, seed=13)
    reordered = RunConfig(
        n_events=10_000,
        seed=13,
        variants=(ModelVariant.RNL_STANDARD, ModelVariant.QM, ModelVariant.RNL_ALTERNATIVE),
    )
    counts_base = counts_by_variant(base)
    counts_reordered = counts_by_variant(reordered)
    for variant in ModelVariant:
        assert counts_base[variant] == counts_reordered[variant]


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


def test_zero_last_cell_stays_empty_in_one_huge_chunk() -> None:
    # numpy hands the last cell whatever the earlier binomials leave; with
    # this table and 2^63 - 1 events that would be a few hundred events.
    table = JointDistribution(0.6720976591387724, 0.28466864239501943, 0.04323369846620814, 0.0)
    counts = sample_counts(table, seed=1, variant_index=0, n_events=MAX_EVENTS, chunk_size=MAX_EVENTS)
    assert counts.r_mm == 0
    assert counts.n_total == MAX_EVENTS


def test_sample_counts_validates_arguments() -> None:
    table = symmetric_joint(0.0)
    with pytest.raises(ValueError):
        sample_counts(table, seed=1, variant_index=0, n_events=0, chunk_size=10)
    with pytest.raises(ValueError):
        sample_counts(table, seed=1, variant_index=0, n_events=10, chunk_size=0)
    with pytest.raises(ValueError):
        sample_counts(table, seed=1, variant_index=0, n_events=MAX_EVENTS + 1, chunk_size=10)
    with pytest.raises(ValueError):
        sample_counts(table, seed=1, variant_index=0, n_events=10, chunk_size=MAX_EVENTS + 1)
    # True would draw one event (or chunks of one); 2.5 is no event count.
    for name in ("n_events", "chunk_size"):
        for value in (True, np.True_, 2.5):
            sizes = {"n_events": 10, "chunk_size": 10, name: value}
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                sample_counts(table, seed=1, variant_index=0, **sizes)


def test_sample_counts_refuses_too_many_chunks_before_drawing(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    def no_stream(seed: int, variant_index: int):
        raise AssertionError("a refused run must not reach the sampler")

    monkeypatch.setattr("rnlsim.montecarlo.substream", no_stream)
    table = symmetric_joint(0.0)
    for n_events, chunk_size in ((MAX_EVENTS, 1), (MAX_CHUNKS + 1, 1), (2 * MAX_CHUNKS + 1, 2)):
        with pytest.raises(ValueError, match="chunks"):
            sample_counts(table, seed=1, variant_index=0, n_events=n_events, chunk_size=chunk_size)


def test_billion_events_per_variant() -> None:
    # The default chunk size gives 8000 chunks per variant.
    report = compare_report(RunConfig(n_events=10**9, seed=1))
    for row in report.rows:
        assert row.counts.n_total == 10**9
