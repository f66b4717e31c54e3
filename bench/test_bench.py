"""Self-tests of the benchmark's checks: wrong outputs must count as failures.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import math
import random
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import checks  # noqa: E402
from rnlsim import AmbiguousScheduleError  # noqa: E402
import workloads  # noqa: E402
from measure import reference_s, tail  # noqa: E402
from reference import C, reference_labels  # noqa: E402

DECISIVE = tuple(math.radians(d) for d in (45.0, -45.0, 90.0))
SERIES_3 = ("a11[21]", "a22")


def _fake_report(e_analytic: float, counts=(2500, 0, 0, 2500), e_hat: float = 1.0):
    config = SimpleNamespace(n_events=5000, variants=[SimpleNamespace(value="QM")])
    row = SimpleNamespace(
        variant=SimpleNamespace(value="QM"),
        counts=SimpleNamespace(as_tuple=lambda: counts),
        estimate=SimpleNamespace(e_hat=e_hat, stderr=0.0),
        e_analytic=e_analytic,
    )
    timing = SimpleNamespace(label1=SimpleNamespace(value="a11[21]"), label2=SimpleNamespace(value="a22"))
    return SimpleNamespace(config=config, rows=[row], timing=timing)


# --- a wrong table ---------------------------------------------------------------


def test_correct_tables_pass_and_a_wrong_table_fails() -> None:
    good = {
        "QM": checks.symmetric_table(1.0),
        "RNL_STANDARD": checks.symmetric_table(0.0),
        "RNL_ALTERNATIVE": checks.symmetric_table(1.0),
    }
    assert checks.check_tables(DECISIVE, SERIES_3, good) == []
    for variant in good:
        wrong = dict(good, **{variant: (0.25, 0.25, 0.25, 0.25) if variant != "RNL_STANDARD" else (0.5, 0, 0, 0.5)})
        assert checks.check_tables(DECISIVE, SERIES_3, wrong), variant


def test_alternative_may_differ_from_standard_only_on_series_3() -> None:
    tables = {"RNL_STANDARD": checks.symmetric_table(0.0), "RNL_ALTERNATIVE": checks.symmetric_table(0.5)}
    assert checks.check_tables(DECISIVE, ("a11[22]", "a22"), tables)


def test_oracle_disagreement_fails() -> None:
    assert checks.check_oracle((0.5, 0, 0, 0.5), (0.5, 0, 0, 0.5)) == []
    assert checks.check_oracle((0.5, 0, 0, 0.5), (0.25, 0.25, 0.25, 0.25))


def test_wrong_analytic_value_or_counts_in_a_report_fail() -> None:
    assert checks.check_report(_fake_report(1.0), SERIES_3, DECISIVE) == []
    assert checks.check_report(_fake_report(0.0, e_hat=0.0), SERIES_3, DECISIVE)
    assert checks.check_report(_fake_report(1.0, counts=(2500, 0, 0, 2499)), SERIES_3, DECISIVE)
    # QM at the decisive phases must sample e_hat == 1 exactly.
    assert checks.check_report(_fake_report(1.0, counts=(2500, 1, 0, 2499), e_hat=0.9996), SERIES_3, DECISIVE)


def test_a_wrong_table_is_counted_in_the_tally() -> None:
    tally = workloads.Tally()
    tally.record(checks.check_tables(DECISIVE, SERIES_3, {"QM": (0.25,) * 4}))
    tally.record([])
    assert (tally.attempted, tally.failed) == (2, 1)


# --- a wrong label ---------------------------------------------------------------


def test_reference_reproduces_the_three_series() -> None:
    assert reference_labels(4.0, 1.0, 3.0).pairing == ("a11[22]", "b22")
    assert reference_labels(0.5, 1.0, 3.0).pairing == ("b11", "a22")
    assert reference_labels(2.0, 1.0, 3.0).pairing == SERIES_3


def test_reference_marks_near_ties_by_the_guard_band() -> None:
    assert reference_labels(1.0, 1.0, 3.0).near_tie
    assert reference_labels(1.0 + 1e-7, 1.0, 3.0).near_tie  # 3e-16 s apart
    assert not reference_labels(1.0 + 1e-6, 1.0, 3.0).near_tie  # 3e-15 s apart
    assert 1e-6 / C > 1e-15 > 1e-7 / C


def test_wrong_label_refusal_or_guess_fails() -> None:
    clear = reference_labels(2.0, 1.0, 3.0)
    tie = reference_labels(1.0, 1.0, 3.0)
    ambiguous = AmbiguousScheduleError("tie")
    assert checks.check_classification(clear, ("a11[21]", "a22", True), None) == []
    assert checks.check_classification(clear, ("b11", "a22", True), None)
    assert checks.check_classification(clear, ("a11[21]", "a22", False), None)
    assert checks.check_classification(clear, None, ambiguous)
    assert checks.check_classification(tie, None, ambiguous) == []
    assert checks.check_classification(tie, ("b11", "a22", False), None)
    assert checks.check_classification(clear, None, ValueError("pairing is not representable"))


def test_sweep_counts_the_unrepresentable_moving_splitter_points() -> None:
    grid = [
        (geometry, ref)
        for geometry, ref in workloads.sweep_grid()
        if abs(geometry.m11_displacement) < 1e-9 and geometry.beta_bs11 in (0.0, -0.3)
    ]
    tally = workloads.Tally()
    phases = workloads._sweep_phases(random.Random(0))
    predicted, wall = workloads.sweep_pass(workloads.UNTRACED, grid, phases, tally)
    assert predicted == len(phases) and wall > 0
    assert tally.counts["unrepresentable"] == len(phases)
    assert tally.failed == tally.counts["unrepresentable"]


# --- a wrong exit code -----------------------------------------------------------


def test_wrong_exit_code_fails() -> None:
    kwargs = dict(stderr="error: unknown key\n", n_events=10, pairing=None, phis=None)
    assert checks.check_cli_output("csv", "", returncode=2, expect_exit=2, **kwargs) == []
    assert checks.check_cli_output("csv", "", returncode=0, expect_exit=2, **kwargs)
    assert checks.check_cli_output("csv", "", returncode=2, expect_exit=3, **kwargs)
    traceback = dict(kwargs, stderr="Traceback (most recent call last):\nValueError\n")
    assert checks.check_cli_output("csv", "", returncode=2, expect_exit=2, **traceback)


def test_real_cli_run_with_a_wrong_expected_exit_fails(tmp_path: Path) -> None:
    case = workloads.CliCase(
        ("--format", "csv", "--series", "3", "--n-events", "1000"),
        "csv",
        expect_exit=3,
        values={},
    )
    _, _, failures = workloads._run_case(case, tmp_path)
    assert failures and "exit code 0" in failures[0]


def test_csv_header_and_rows_are_checked() -> None:
    header = ",".join(checks.CSV_COLUMNS)
    rows = [f"{v},3,45.0,-45.0,90.0,5,0,0,5,1.0,0.0,1.0" for v in ("QM", "RNL_ALTERNATIVE")]
    rows.append("RNL_STANDARD,3,45.0,-45.0,90.0,3,2,2,3,0.2,0.3,0.0")
    text = "\n".join([header, *rows]) + "\n"
    kwargs = dict(returncode=0, expect_exit=0, stderr="", n_events=10, pairing=SERIES_3, phis=DECISIVE)
    assert checks.check_cli_output("csv", text, **kwargs) == []
    assert checks.check_cli_output("csv", text.replace("e_analytic", "e_exact"), **kwargs)
    assert checks.check_cli_output("csv", "\n".join([header, *rows[:2]]) + "\n", **kwargs)
    assert checks.check_cli_output("json-lines", "{not json}\n", **kwargs)


# --- statistics --------------------------------------------------------------------


@pytest.mark.parametrize(
    ("n", "percentile"), [(5, 50.0), (19, 50.0), (20, 50.0), (60, 75.0), (100, 90.0), (1000, 90.0)]
)
def test_tail_has_ten_samples_beyond_it(n: int, percentile: float) -> None:
    value, pct, beyond = tail([float(i) for i in range(n)])
    assert pct == percentile
    assert beyond >= 10 or n < 20


def test_op_walls_are_converted_to_reference_speed() -> None:
    # The same work on a host twice as slow: walls and reference walls double.
    jobs = ("numpy", "python")
    walls, references = [0.1, 0.3], [reference_s(jobs)] * 2
    slow = workloads._op_metrics([2 * w for w in walls], [2 * r for r in references], jobs, 600, 20)[0]
    fast = workloads._op_metrics(walls, references, jobs, 600, 20)[0]
    for name in ("events_per_s", "points_per_s", "invocation_s"):
        assert slow[name][0] == pytest.approx(fast[name][0])
    assert fast["invocation_s"][0] == pytest.approx(0.2)
    assert fast["points_per_s"][0] == pytest.approx(50.0)
