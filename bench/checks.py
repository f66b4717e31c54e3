"""Output checks.  Each returns a list of failure messages; empty means pass.

The expected values come from the paper's closed forms, evaluated here with
plain math, never from rnlsim's own helpers.  Nothing compares raw counts or
output bytes against stored per-seed values: a change to the sampler's
stream layout must not read as a failure.
"""

from __future__ import annotations

import csv
import io
import json
import math

from rnlsim import AmbiguousScheduleError

# The fixed CSV / JSON-lines schema (rnlsim.report.CSV_COLUMNS).  It is kept
# here rather than imported so that a schema change shows as a failure.
CSV_COLUMNS = (
    "variant",
    "series",
    "phi11_deg",
    "phi21_deg",
    "phi22_deg",
    "R_pp",
    "R_pm",
    "R_mp",
    "R_mm",
    "e_hat",
    "stderr",
    "e_analytic",
)
VARIANT_NAMES = ("QM", "RNL_STANDARD", "RNL_ALTERNATIVE")
TABLE_ATOL = 1e-12
ESTIMATE_SIGMAS = 6.0

_BEFORE_BEFORE = {("b11", "b21"), ("b11", "b22")}
_MIXED_FINAL = {("b11", "a22"), ("a11[22]", "b22")}
_MIXED_INTERMEDIATE = {("a11[21]", "b21")}
_TWO_NONBEFORE = {("a11[22]", "a22"), ("a11[21]", "a22")}
_SERIES_3 = ("a11[21]", "a22")


def qm_correlation(phi11: float, phi21: float, phi22: float) -> float:
    return math.sin(phi11 - phi21) * math.sin(phi22)


def expected_correlation(variant: str, pairing: tuple[str, str], phis) -> float | None:
    """Paper value of E for one variant and timing pairing; None where no rule exists."""
    phi11, phi21, phi22 = phis
    e_qm = qm_correlation(phi11, phi21, phi22)
    if variant == "QM":
        return e_qm
    if pairing in _BEFORE_BEFORE:
        return 0.0
    if pairing in _MIXED_FINAL:
        return e_qm
    if pairing in _MIXED_INTERMEDIATE:
        return math.cos(phi11 - phi21)
    if pairing in _TWO_NONBEFORE:
        # The alternative rule keeps the quantum table on the series-3 pairing only.
        return e_qm if (variant == "RNL_ALTERNATIVE" and pairing == _SERIES_3) else 0.0
    return None


def symmetric_table(e: float) -> tuple[float, float, float, float]:
    """(p_pp, p_pm, p_mp, p_mm) of a fair-marginal table with correlation e."""
    return ((1 + e) / 4, (1 - e) / 4, (1 - e) / 4, (1 + e) / 4)


def _close(a, b, atol: float = TABLE_ATOL) -> bool:
    return all(abs(x - y) <= atol for x, y in zip(a, b, strict=True))


def check_tables(phis, pairing: tuple[str, str], tables: dict[str, tuple]) -> list[str]:
    """Predicted tables of one (geometry, phase) point against the paper's invariants.

    Every rule in the paper yields a fair-marginal table, so the expected
    table follows from the expected correlation alone: QM is
    sin(phi11 - phi21) sin(phi22), mixed pairings reproduce the QM tables,
    two non-before impacts give 0, and the alternative rules depart from the
    standard ones only on (a11[21], a22).
    """
    failures = []
    for variant, table in tables.items():
        if abs(sum(table) - 1.0) > TABLE_ATOL:
            failures.append(f"{variant} {pairing}: table sums to {sum(table)!r}")
        expected = expected_correlation(variant, pairing, phis)
        if expected is not None and not _close(table, symmetric_table(expected)):
            failures.append(f"{variant} {pairing}: table {table} != expected E={expected!r}")
    standard, alternative = tables.get("RNL_STANDARD"), tables.get("RNL_ALTERNATIVE")
    if standard is not None and alternative is not None and pairing != _SERIES_3:
        if not _close(standard, alternative):
            failures.append(f"{pairing}: RNL_ALTERNATIVE departs from RNL_STANDARD")
    return failures


def check_oracle(qm_table: tuple, oracle_table: tuple) -> list[str]:
    if _close(qm_table, oracle_table):
        return []
    return [f"QM table {qm_table} disagrees with the amplitude oracle {oracle_table}"]


def check_classification(reference, assignment, error: Exception | None) -> list[str]:
    """classify's answer (assignment tuple or the exception it raised) against the reference.

    Only true near-ties may be refused as ambiguous; every other point must
    get exactly the reference's (label1, label2, bs21_before).
    """
    if error is not None:
        if isinstance(error, AmbiguousScheduleError):
            return [] if reference.near_tie else [f"refused a clear point: {error}"]
        return [f"classify raised {type(error).__name__}: {error}"]
    if reference.near_tie:
        return [f"labelled a near-tie {reference.gaps_s} as {assignment}"]
    if tuple(assignment) != reference.assignment:
        return [f"label {assignment} != reference {reference.assignment}"]
    return []


def check_row(variant, counts, n_events, e_hat, stderr, e_analytic, pairing, phis) -> list[str]:
    """One variant row of a sampled report."""
    failures = []
    if any(not isinstance(c, int) or c < 0 for c in counts) or sum(counts) != n_events:
        failures.append(f"{variant}: counts {counts} do not sum to n={n_events}")
    # The reported stderr uses e_hat and reads 0 when a near-perfect
    # correlation happens to sample e_hat = +-1; the analytic one does not.
    sigma = max(stderr, math.sqrt(max(0.0, 1.0 - e_analytic * e_analytic) / n_events))
    if abs(e_hat - e_analytic) > ESTIMATE_SIGMAS * sigma + TABLE_ATOL:
        failures.append(f"{variant}: |e_hat - e_analytic| = {abs(e_hat - e_analytic)!r} > 6 stderr")
    expected = expected_correlation(variant, pairing, phis)
    if expected is not None and abs(e_analytic - expected) > TABLE_ATOL:
        failures.append(f"{variant}: e_analytic {e_analytic!r} != paper value {expected!r}")
    if expected is not None and abs(expected) == 1.0 and e_hat != expected:
        # A table with two zero cells samples e_hat = +-1 exactly.
        failures.append(f"{variant}: e_hat {e_hat!r} at a perfect correlation {expected!r}")
    return failures


def check_report(report, pairing: tuple[str, str], phis) -> list[str]:
    """A ComparisonReport from compare_report (or its stage-by-stage replay)."""
    failures = []
    timing = (report.timing.label1.value, report.timing.label2.value)
    if timing != pairing:
        failures.append(f"report timing {timing} != reference {pairing}")
    n = report.config.n_events
    for row in report.rows:
        failures += check_row(
            row.variant.value,
            row.counts.as_tuple(),
            n,
            row.estimate.e_hat,
            row.estimate.stderr,
            row.e_analytic,
            pairing,
            phis,
        )
    names = [row.variant.value for row in report.rows]
    if names != [v.value for v in report.config.variants]:
        failures.append(f"report rows {names} != configured variants")
    return failures


def _record_failures(records: list[dict], n_events: int, pairing, phis) -> list[str]:
    failures = []
    if sorted(r.get("variant") for r in records) != sorted(VARIANT_NAMES):
        failures.append(f"rows {[r.get('variant') for r in records]} are not one per variant")
    for record in records:
        try:
            counts = tuple(int(record[k]) for k in ("R_pp", "R_pm", "R_mp", "R_mm"))
            e_hat, stderr, e_analytic = (float(record[k]) for k in ("e_hat", "stderr", "e_analytic"))
        except (KeyError, TypeError, ValueError) as exc:
            failures.append(f"unreadable row {record!r}: {exc}")
            continue
        failures += check_row(record["variant"], counts, n_events, e_hat, stderr, e_analytic, pairing, phis)
    return failures


def check_cli_output(
    fmt: str,
    text: str,
    *,
    returncode: int,
    expect_exit: int,
    stderr: str,
    n_events: int,
    pairing: tuple[str, str] | None,
    phis,
) -> list[str]:
    """Exit code, error surface and the rendered report of one CLI run."""
    if returncode != expect_exit:
        return [f"exit code {returncode} != expected {expect_exit}: {stderr.strip()[-200:]}"]
    if expect_exit != 0:
        if "Traceback" in stderr or not stderr.startswith("error:"):
            return [f"error run did not print a clean 'error:' line: {stderr[-200:]!r}"]
        return []
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))
        if not rows or tuple(rows[0]) != CSV_COLUMNS:
            return [f"CSV header {rows[:1]} != {CSV_COLUMNS}"]
        if any(len(row) != len(CSV_COLUMNS) for row in rows[1:]):
            return ["CSV row width differs from the header"]
        records = [dict(zip(CSV_COLUMNS, row)) for row in rows[1:]]
        return _record_failures(records, n_events, pairing, phis)
    if fmt == "json-lines":
        try:
            records = [json.loads(line) for line in text.splitlines()]
        except json.JSONDecodeError as exc:
            return [f"JSON lines do not parse: {exc}"]
        if any(set(record) != set(CSV_COLUMNS) for record in records):
            return ["JSON-lines keys differ from the CSV schema"]
        return _record_failures(records, n_events, pairing, phis)
    lines = text.splitlines()
    failures = []
    if not lines or lines[0] != "two-photon coincidence comparison":
        failures.append("table has no title line")
    for name in VARIANT_NAMES:
        if not any(line.split()[:1] == [name] for line in lines):
            failures.append(f"table has no {name} row")
    timing_line = next((line for line in lines if line.startswith("timing:")), "")
    if pairing is not None and f"photon 1 = {pairing[0]}, photon 2 = {pairing[1]}" not in timing_line:
        failures.append(f"table timing line {timing_line!r} != {pairing}")
    return failures
