"""The four benchmark workloads, untraced and traced.

All are closed loops with one caller.  Inputs come from the workload seed;
the program only sees the generated configs, geometries and command lines.
Only names in rnlsim.__all__ are used, plus rnlsim.cli.main, the CLI entry
point, and no call passes `workers`.  The untraced runs call `between_ops`
after each op, outside its timing; the benchmark takes its set-up samples
there.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import statistics
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path

from rnlsim import (
    AmbiguousScheduleError,
    ComparisonReport,
    ConfigError,
    ExperimentGeometry,
    ModelVariant,
    PhaseSettings,
    VariantRow,
    Verdict,
    amplitude_oracle,
    build_run_config,
    classify,
    compare_report,
    estimate_correlation,
    parse_config_file,
    predict,
    render_csv,
    render_json_lines,
    render_table,
    sample_counts,
    schedule_from_geometry,
    series_preset,
)
from rnlsim.cli import main as cli_main

import checks
from measure import OUT_DIR, at_reference_speed, reference_wall, run_child, tail
from reference import reference_labels
from tracing import Tracer

VARIANTS = tuple(ModelVariant)
# Stream index per variant as compare_report assigns it: enum order.
VARIANT_INDEX = {variant: index for index, variant in enumerate(ModelVariant)}
PREDICT_SPAN = {variant: f"rnl.predict.{variant.value}" for variant in VARIANTS}
STAGE_SPANS = {
    "timing.schedule_from_geometry",
    "timing.classify",
    "montecarlo.sample_counts",
    "montecarlo.estimate_correlation",
    *PREDICT_SPAN.values(),
}
RENDERERS = {"table": render_table, "csv": render_csv, "json-lines": render_json_lines}
RENDER_SPAN = {
    "table": "report.render_table",
    "csv": "report.render_csv",
    "json-lines": "report.render_json_lines",
}
VERDICT_SIGMA = 6.0  # rnlsim.report's threshold, which it does not export

# Reference jobs per workload (measure.REFERENCE_JOBS), by the kind of work it does.
REFERENCE = {
    "mc_decisive": ("numpy",),
    "mc_fine_chunks": ("numpy", "python"),
    "analytic_sweep": ("numpy", "python"),
    "cli_runs": ("numpy", "python"),
}

MC_EVENTS = 10**7
MC_CHUNK_SIZE = {"mc_decisive": 125_000, "mc_fine_chunks": 1_000}
DECISIVE_DEG = (45.0, -45.0, 90.0)

SWEEP_LENGTHS = (2.0, 1.0, 3.0)  # length_bs11, length_bs21, length_bs22 of the series presets
SWEEP_DISPLACEMENTS = tuple(-1.9 + 0.095 * i for i in range(41))
# Offsets from each exact tie: 1e-7 m is inside the 1e-15 s guard band, 1e-6 m outside.
TIE_OFFSETS_M = (0.0, -1e-7, 1e-7, -1e-6, 1e-6)
SWEEP_VELOCITIES = (  # (beta_bs11, beta_bs21, beta_bs22)
    (0.0, 0.0, 0.0),
    (-0.3, 0.0, 0.3),
    (0.3, 0.3, 0.3),
    (-0.5, 0.5, 0.5),
    (0.5, -0.5, -0.5),
)
SWEEP_PHASES = 8

CLI_EVENTS = 10_000
CLI_FORMATS = tuple(RENDERERS)


@dataclass
class Tally:
    """Operations attempted and failed, the first failure messages, layer counts."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)

    def record(self, failures: list[str], weight: int = 1) -> None:
        self.attempted += weight
        if failures:
            self.failed += weight
            self.failures.extend(failures[: max(0, 20 - len(self.failures))])


class _Untraced:
    @staticmethod
    def span(name: str):
        return contextlib.nullcontext()


UNTRACED = _Untraced()


def _op_metrics(walls: list[float], references: list[float], jobs: tuple[str, ...], events: int, points: int):
    """Rates and invocation times from op walls converted to reference speed.

    The host's speed moves between levels for seconds at a time.  A mean or
    a total over the run averages them where a median picks one, so
    invocation_s is the mean converted wall.
    """
    converted = [at_reference_speed(wall, ref, jobs) for wall, ref in zip(walls, references)]
    busy = sum(converted)
    tail_value, pct, beyond = tail(converted)
    metrics = {
        "events_per_s": (events / busy, "1/s"),
        "points_per_s": (points / busy, "1/s"),
        "invocation_s": (busy / len(converted), "s"),
        "invocation_tail_s": (tail_value, "s"),
    }
    samples = {
        "ops": len(walls),
        "events": events,
        "points": points,
        "invocation_tail_s": {"percentile": pct, "beyond": beyond},
        "raw_invocation_s": {"mean": sum(walls) / len(walls), "median": statistics.median(walls)},
        "reference_s": {
            "median": statistics.median(references),
            "min": min(references),
            "max": max(references),
        },
        "op_walls_s": walls,
        "reference_walls_s": references,
    }
    return metrics, samples


def _series_expectations(series: int, phases_deg) -> tuple[tuple[str, str], tuple[float, ...]]:
    geometry = series_preset(series)
    pairing = reference_labels(
        geometry.length_bs11 + geometry.m11_displacement, geometry.length_bs21, geometry.length_bs22
    ).pairing
    return pairing, tuple(math.radians(d) for d in phases_deg)


def replay(tr, config, counts: Counter) -> ComparisonReport:
    """compare_report stage by stage through public names, one span per stage."""
    with tr.span("timing.schedule_from_geometry"):
        schedule = schedule_from_geometry(config.resolve_geometry())
    counts["classify_calls"] += 1
    try:
        with tr.span("timing.classify"):
            timing = classify(schedule)
    except AmbiguousScheduleError:
        counts["ambiguous"] += 1
        raise
    settings = config.settings()
    rows = []
    for variant in config.variants:
        with tr.span(PREDICT_SPAN[variant]):
            prediction = predict(
                settings, timing, variant, condition1=config.condition1, condition2=config.condition2
            )
        with tr.span("montecarlo.sample_counts"):
            sampled = sample_counts(
                prediction.joint,
                seed=config.seed,
                variant_index=VARIANT_INDEX[variant],
                n_events=config.n_events,
                chunk_size=config.chunk_size,
            )
        with tr.span("montecarlo.estimate_correlation"):
            estimate = estimate_correlation(sampled)
        counts["predict_calls"] += 1
        counts["events"] += config.n_events
        counts["chunks"] += math.ceil(config.n_events / config.chunk_size)
        rows.append(VariantRow(variant, prediction.correlation, sampled, estimate))
    verdicts = tuple(
        Verdict(
            a.variant,
            b.variant,
            abs(a.e_analytic - b.e_analytic),
            VERDICT_SIGMA * max(a.estimate.stderr, b.estimate.stderr),
        )
        for a, b in combinations(rows, 2)
    )
    return ComparisonReport(config=config, timing=timing, rows=tuple(rows), verdicts=verdicts)


# --- mc_decisive, mc_fine_chunks -----------------------------------------------


def _mc_configs(seed: int, chunk_size: int):
    rng = random.Random(f"mc:{seed}")
    while True:
        yield build_run_config(
            {"n_events": MC_EVENTS, "chunk_size": chunk_size, "seed": rng.getrandbits(63)}
        )


def run_mc(workload: str, seed: int, seconds: float, between_ops):
    """compare_report at the CLI defaults, n = 10^7 per variant, one call per op."""
    pairing, phis = _series_expectations(3, DECISIVE_DEG)
    configs = _mc_configs(seed, MC_CHUNK_SIZE[workload])
    tally, walls, references = Tally(), [], []
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() < deadline:
        config = next(configs)
        references.append(reference_wall(REFERENCE[workload]))
        start = time.perf_counter()
        report = compare_report(config)
        walls.append(time.perf_counter() - start)
        tally.record(checks.check_report(report, pairing, phis))
        between_ops()
    events = len(walls) * MC_EVENTS * len(VARIANTS)
    metrics, samples = _op_metrics(walls, references, REFERENCE[workload], events, len(walls))
    return tally, metrics, samples


def _compare_and_replay(tr, config, tally: Tally, derived: dict[str, list[float]]):
    """compare_report, its untraced replay and its traced replay; returns (report, replayed).

    The three rotate which runs first, so warm caches favour none of them.
    """
    results = {}

    def compare():
        start = time.perf_counter()
        results["report"] = compare_report(config)
        derived["compare_s"].append(time.perf_counter() - start)

    def untraced_replay():
        start = time.perf_counter()
        replay(UNTRACED, config, Counter())
        derived["untraced_s"].append(time.perf_counter() - start)

    def traced_replay():
        with tr.span("op") as op_id:
            results["replayed"] = replay(tr, config, tally.counts)
        results["op_id"] = op_id
        derived["traced_s"].append((tr.spans[-1][4] - tr.spans[-1][3]) / 1e9)

    steps = [compare, untraced_replay, traced_replay]
    shift = len(derived["traced_s"]) % len(steps)
    for step in steps[shift:] + steps[:shift]:
        step()
    derived["glue_s"].append(derived["compare_s"][-1] - tr.children_s(results["op_id"], STAGE_SPANS))
    return results["report"], results["replayed"]


def trace_mc(workload: str, seed: int, seconds: float, tr: Tracer):
    pairing, phis = _series_expectations(3, DECISIVE_DEG)
    configs = _mc_configs(seed, MC_CHUNK_SIZE[workload])
    tally, derived = Tally(), {"compare_s": [], "untraced_s": [], "traced_s": [], "glue_s": []}
    deadline = time.perf_counter() + seconds
    while not derived["glue_s"] or time.perf_counter() < deadline:
        report, replayed = _compare_and_replay(tr, next(configs), tally, derived)
        for fmt, render in RENDERERS.items():
            with tr.span(RENDER_SPAN[fmt]):
                render(report)
        tally.record(checks.check_report(report, pairing, phis) + checks.check_report(replayed, pairing, phis))
    return tally, derived


# --- analytic_sweep ------------------------------------------------------------


def _tie_displacements(beta11: float, beta21: float, beta22: float) -> list[float]:
    """M11 displacements at which BS11 ties a photon-2 impact in some splitter's frame.

    BS11 sits at x = -l11 and a photon-2 impact at x = +l; their times in a
    frame moving at beta agree when l11 (1 + beta) = l (1 - beta).
    """
    l11, l21, l22 = SWEEP_LENGTHS
    ties = [
        l21 * (1 - beta11) / (1 + beta11),
        l22 * (1 - beta11) / (1 + beta11),
        l21 * (1 - beta21) / (1 + beta21),
        l22 * (1 - beta22) / (1 + beta22),
    ]
    return [tie - l11 for tie in ties]


def sweep_grid():
    """(geometry, reference labels) over series boundaries and splitter velocities."""
    l11, l21, l22 = SWEEP_LENGTHS
    grid = []
    for betas in SWEEP_VELOCITIES:
        ties = _tie_displacements(*betas)
        displacements = set(SWEEP_DISPLACEMENTS) | {tie + off for tie in ties for off in TIE_OFFSETS_M}
        for displacement in sorted(displacements):
            if l11 + displacement <= 0.0:
                continue
            geometry = ExperimentGeometry(
                l11, l21, l22, displacement, beta_bs11=betas[0], beta_bs21=betas[1], beta_bs22=betas[2]
            )
            grid.append((geometry, reference_labels(l11 + displacement, l21, l22, *betas)))
    return grid


def _sweep_phases(rng: random.Random) -> list[PhaseSettings]:
    degrees = [DECISIVE_DEG] + [
        tuple(rng.uniform(-180.0, 180.0) for _ in range(3)) for _ in range(SWEEP_PHASES - 1)
    ]
    return [PhaseSettings.from_degrees(*d) for d in degrees]


def _table(joint) -> tuple[float, float, float, float]:
    return (joint.p_pp, joint.p_pm, joint.p_mp, joint.p_mm)


def _sweep_geometry(tr, geometry, phases):
    """One op: schedule -> classify -> predict for every phase setting and variant."""
    with tr.span("timing.schedule_from_geometry"):
        schedule = schedule_from_geometry(geometry)
    try:
        with tr.span("timing.classify"):
            timing = classify(schedule)
    except ValueError as exc:  # AmbiguousScheduleError, or a label pairing with no rule
        return None, exc, []
    tables = []
    for settings in phases:
        point = {}
        for variant in VARIANTS:
            with tr.span(PREDICT_SPAN[variant]):
                point[variant.value] = predict(settings, timing, variant).joint
        tables.append(point)
    return timing, None, tables


def sweep_pass(tr, grid, phases, tally: Tally) -> tuple[int, float]:
    """Every geometry once at the given phases; returns (points predicted, timed wall)."""
    predicted, pass_wall = 0, 0.0
    qm_tables = None
    for geometry, reference in grid:
        start = time.perf_counter()
        timing, error, tables = _sweep_geometry(tr, geometry, phases)
        pass_wall += time.perf_counter() - start
        tally.counts["classify_calls"] += 1
        assignment = None if timing is None else (timing.label1.value, timing.label2.value, timing.bs21_before)
        failures = checks.check_classification(reference, assignment, error)
        if isinstance(error, AmbiguousScheduleError):
            tally.counts["ambiguous"] += len(phases)
        elif error is not None and "not representable" in str(error):
            tally.counts["unrepresentable"] += len(phases)
        if timing is None:
            tally.record(failures, weight=len(phases))
            continue
        predicted += len(tables)
        tally.counts["predict_calls"] += len(tables) * len(VARIANTS)
        for settings, point in zip(phases, tables):
            phis = (settings.phi11, settings.phi21, settings.phi22)
            point_tables = {name: _table(joint) for name, joint in point.items()}
            tally.record(failures + checks.check_tables(phis, reference.pairing, point_tables))
        if qm_tables is None:
            qm_tables = [_table(point["QM"]) for point in tables]
    # The amplitude oracle is timing-blind: one check per phase setting per pass.
    for settings, qm_table in zip(phases, qm_tables or []):
        with tr.span("quantum.amplitude_oracle"):
            oracle = amplitude_oracle(settings)
        tally.record(checks.check_oracle(qm_table, _table(oracle)))
    return predicted, pass_wall


def run_sweep(seed: int, seconds: float, between_ops):
    """One op is one pass over the grid at one seeded set of phases."""
    grid = sweep_grid()
    rng = random.Random(f"sweep:{seed}")
    tally, walls, references, points = Tally(), [], [], 0
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() < deadline:
        references.append(reference_wall(REFERENCE["analytic_sweep"]))
        predicted, wall = sweep_pass(UNTRACED, grid, _sweep_phases(rng), tally)
        walls.append(wall)
        points += predicted
        between_ops()
    # Nothing is sampled here: an event is one predicted (point, variant) table.
    jobs = REFERENCE["analytic_sweep"]
    metrics, samples = _op_metrics(walls, references, jobs, points * len(VARIANTS), points)
    samples["geometries_per_pass"] = len(grid)
    return tally, metrics, samples


def trace_sweep(seed: int, seconds: float, tr: Tracer):
    """Untraced and traced passes alternate on the same phases."""
    grid = sweep_grid()
    rng = random.Random(f"sweep:{seed}")
    tally, derived = Tally(), {"untraced_s": [], "traced_s": []}
    deadline = time.perf_counter() + seconds
    while not derived["traced_s"] or time.perf_counter() < deadline:
        phases = _sweep_phases(rng)
        derived["untraced_s"].append(sweep_pass(UNTRACED, grid, phases, Tally())[1])
        derived["traced_s"].append(sweep_pass(tr, grid, phases, tally)[1])
    return tally, derived


# --- cli_runs --------------------------------------------------------------------


@dataclass(frozen=True)
class CliCase:
    args: tuple[str, ...]
    fmt: str
    expect_exit: int
    values: dict  # typed config values, as the CLI would collect them
    config_text: str | None = None
    out: bool = False
    pairing: tuple[str, str] | None = None
    phis: tuple[float, ...] | None = None


def cli_cycle(rng: random.Random, workdir: Path) -> list[CliCase]:
    """Series 1/2/3 x every format, plus two expected-error runs, in seeded order.

    About half the runs read a --config file and a third write --out.  The
    error runs are an unknown config key (exit 2) and an exact-tie explicit
    geometry (exit 3).
    """
    config_path, out_path = workdir / "run.cfg", workdir / "report.out"
    combos = [(series, fmt) for series in (1, 2, 3) for fmt in CLI_FORMATS]
    rng.shuffle(combos)
    cases = []
    for index, (series, fmt) in enumerate(combos):
        degrees = tuple(round(rng.uniform(-180.0, 180.0), 3) for _ in range(3))
        values = {
            "series": series,
            "phi11_deg": degrees[0],
            "phi21_deg": degrees[1],
            "phi22_deg": degrees[2],
            "n_events": CLI_EVENTS,
            "seed": rng.randrange(2**32),
        }
        use_config, out = index % 2 == 0, index % 3 == 1
        args = ["--format", fmt]
        if use_config:
            args += ["--config", str(config_path)]
        else:
            for key, value in values.items():
                args += [f"--{key.replace('_', '-')}", str(value)]
        if out:
            args += ["--out", str(out_path)]
        config_text = "".join(f"{k} = {v}\n" for k, v in values.items()) if use_config else None
        pairing, phis = _series_expectations(series, degrees)
        cases.append(CliCase(tuple(args), fmt, 0, values, config_text, out, pairing, phis))
    fmt = rng.choice(CLI_FORMATS)
    cases.append(
        CliCase(
            ("--format", fmt, "--config", str(config_path)),
            fmt,
            2,
            {},
            config_text=f"series = 2\nn_events = {CLI_EVENTS}\nphi99_deg = 10\n",
        )
    )
    tie = {"length_bs11": 1.0, "length_bs21": 1.0, "length_bs22": 3.0, "n_events": CLI_EVENTS}
    args = ["--format", fmt]
    for key, value in tie.items():
        args += [f"--{key.replace('_', '-')}", str(value)]
    cases.append(CliCase(tuple(args), fmt, 3, tie))
    rng.shuffle(cases)
    return cases


def _prepare(case: CliCase, workdir: Path) -> None:
    if case.config_text is not None:
        (workdir / "run.cfg").write_text(case.config_text)
    (workdir / "report.out").unlink(missing_ok=True)


def _run_case(case: CliCase, workdir: Path) -> tuple[float, float, list[str]]:
    """One fresh `python -m rnlsim.cli`; returns (wall s, child peak RSS MB, failures)."""
    _prepare(case, workdir)
    stdout_path, stderr_path = workdir / "stdout.txt", workdir / "stderr.txt"
    with open(stdout_path, "wb") as stdout, open(stderr_path, "wb") as stderr:
        code, wall, rss_mb = run_child(["-m", "rnlsim.cli", *case.args], stdout, stderr)
    text = (workdir / "report.out").read_text() if case.out and code == 0 else stdout_path.read_text()
    failures = checks.check_cli_output(
        case.fmt,
        text,
        returncode=code,
        expect_exit=case.expect_exit,
        stderr=stderr_path.read_text(),
        n_events=CLI_EVENTS,
        pairing=case.pairing,
        phis=case.phis,
    )
    return wall, rss_mb, failures


def run_cli(seed: int, seconds: float, between_ops):
    """Cycles of subprocess runs; the last cycle stops at the deadline."""
    rng = random.Random(f"cli:{seed}")
    tally, walls, references, successes, peak_rss = Tally(), [], [], 0, 0.0
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        workdir = Path(tmp)
        deadline = time.perf_counter() + seconds
        while not walls or time.perf_counter() < deadline:
            for case in cli_cycle(rng, workdir):
                if walls and time.perf_counter() >= deadline:
                    break
                references.append(reference_wall(REFERENCE["cli_runs"]))
                wall, rss_mb, failures = _run_case(case, workdir)
                walls.append(wall)
                successes += case.expect_exit == 0
                peak_rss = max(peak_rss, rss_mb)
                tally.record(failures)
                between_ops()
    events = successes * CLI_EVENTS * len(VARIANTS)
    metrics, samples = _op_metrics(walls, references, REFERENCE["cli_runs"], events, successes)
    return tally, metrics, samples, peak_rss


def _cli_inprocess(case: CliCase, tr) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        with tr.span("cli.main"):
            return cli_main(list(case.args))


def _cli_replay(case: CliCase, workdir: Path, tr, tally: Tally, derived) -> list[str]:
    """parse_config_file -> build_run_config -> compare_report and its replay -> renderer."""
    try:
        if case.config_text is not None:
            with tr.span("config.parse_config_file"):
                values = parse_config_file(workdir / "run.cfg")
        else:
            values = case.values
        with tr.span("config.build_run_config"):
            config = build_run_config(values)
        if case.expect_exit != 0:
            replay(tr, config, tally.counts)
            return [f"replay: expected exit {case.expect_exit}, got a report"]
        report, replayed = _compare_and_replay(tr, config, tally, derived)
    except ConfigError:
        return [] if case.expect_exit == 2 else ["replay: unexpected config error"]
    except AmbiguousScheduleError:
        return [] if case.expect_exit == 3 else ["replay: unexpected ambiguous timing"]
    with tr.span(RENDER_SPAN[case.fmt]):
        RENDERERS[case.fmt](replayed)
    return checks.check_report(report, case.pairing, case.phis) + checks.check_report(
        replayed, case.pairing, case.phis
    )


def trace_cli(seed: int, seconds: float, tr: Tracer):
    """Per case: the subprocess, cli.main in-process, then the stage replay."""
    rng = random.Random(f"cli:{seed}")
    tally = Tally()
    derived = {"compare_s": [], "untraced_s": [], "traced_s": [], "glue_s": [], "process_s": [], "main_s": []}
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        workdir = Path(tmp)
        deadline = time.perf_counter() + seconds
        while not derived["process_s"] or time.perf_counter() < deadline:
            for case in cli_cycle(rng, workdir):
                wall, _, failures = _run_case(case, workdir)
                derived["process_s"].append(wall)
                _prepare(case, workdir)
                code = _cli_inprocess(case, tr)
                derived["main_s"].append((tr.spans[-1][4] - tr.spans[-1][3]) / 1e9)
                if code != case.expect_exit:
                    failures.append(f"in-process exit {code} != {case.expect_exit}")
                failures += _cli_replay(case, workdir, tr, tally, derived)
                tally.record(failures)
    return tally, derived


def oracle_probe(tr: Tracer, rng: random.Random, calls: int = 8) -> None:
    for _ in range(calls):
        degrees = tuple(rng.uniform(-180.0, 180.0) for _ in range(3))
        with tr.span("quantum.amplitude_oracle"):
            amplitude_oracle(PhaseSettings.from_degrees(*degrees))
