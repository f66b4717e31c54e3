"""rnlsim benchmark: one workload per run, untraced (end-to-end) or traced (per layer).

    python3 bench/run.py --workload mc_decisive --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; the package is imported from
./src, never from an installed copy.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  A fuller
record (provenance, sample counts, first failures, spans of a traced run)
is written under .bench_build/bench/.  See bench/NOTES.md for what each
workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("mc_decisive", "mc_fine_chunks", "analytic_sweep", "cli_runs")
SETUP_REPEATS = 10
SETUP_REFERENCE = ("numpy", "python")  # start-up is both kinds of work, on every workload
IMPORT_REPEATS = 5


def _import_program() -> None:
    package = ROOT / "src" / "rnlsim" / "__init__.py"
    if not package.is_file():
        sys.exit(f"error: {package} not found; run from a checkout that holds src/rnlsim")
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    import rnlsim

    if Path(rnlsim.__file__).resolve() != package.resolve():
        sys.exit(f"error: imported rnlsim from {rnlsim.__file__}, not from this checkout")


# Per-layer metrics read from spans: name -> (span name, scale, unit).
SPAN_METRICS = {
    "cli.main_inprocess_s": ("cli.main", 1.0, "s"),
    "config.parse_config_file_us": ("config.parse_config_file", 1e6, "us"),
    "config.build_run_config_us": ("config.build_run_config", 1e6, "us"),
    "timing.schedule_from_geometry_us": ("timing.schedule_from_geometry", 1e6, "us"),
    "timing.classify_us": ("timing.classify", 1e6, "us"),
    "rnl.predict_us.QM": ("rnl.predict.QM", 1e6, "us"),
    "rnl.predict_us.RNL_STANDARD": ("rnl.predict.RNL_STANDARD", 1e6, "us"),
    "rnl.predict_us.RNL_ALTERNATIVE": ("rnl.predict.RNL_ALTERNATIVE", 1e6, "us"),
    "quantum.amplitude_oracle_us": ("quantum.amplitude_oracle", 1e6, "us"),
    "montecarlo.sample_counts_s": ("montecarlo.sample_counts", 1.0, "s"),
    "montecarlo.estimate_correlation_us": ("montecarlo.estimate_correlation", 1e6, "us"),
    "report.render_table_us": ("report.render_table", 1e6, "us"),
    "report.render_csv_us": ("report.render_csv", 1e6, "us"),
    "report.render_json_lines_us": ("report.render_json_lines", 1e6, "us"),
}
# Counts come from the workload alone; 0 means the layer is off its path.
COUNT_METRICS = {
    "timing.classify_calls": "classify_calls",
    "timing.ambiguous_count": "ambiguous",
    "timing.unrepresentable_count": "unrepresentable",
    "rnl.predict_calls": "predict_calls",
    "montecarlo.chunks": "chunks",
}


def untraced(workload: str, seed: int, seconds: float):
    import measure
    import workloads

    setup = measure.SetupSampler(SETUP_REFERENCE, every_s=seconds / SETUP_REPEATS)
    setup.sample(keep=False)  # warm-up: the first fresh interpreter fills the file cache
    peak_rss = None
    if workload in workloads.MC_CHUNK_SIZE:
        tally, metrics, samples = workloads.run_mc(workload, seed, seconds, setup)
    elif workload == "analytic_sweep":
        tally, metrics, samples = workloads.run_sweep(seed, seconds, setup)
    else:
        tally, metrics, samples, peak_rss = workloads.run_cli(seed, seconds, setup)
    while len(setup.walls) < SETUP_REPEATS:
        setup.sample()
    metrics["setup_s"] = (statistics.median(setup.converted()), "s")
    metrics["peak_rss_mb"] = (peak_rss if peak_rss is not None else measure.self_peak_rss_mb(), "MB")
    samples["setup_s"] = {"count": len(setup.walls), "raw_median": statistics.median(setup.walls)}
    return tally, metrics, samples, None


def traced(workload: str, seed: int, seconds: float):
    """Replay the workload with spans; layers off its path are timed by a short probe."""
    import measure
    import workloads
    from tracing import Tracer

    tr, probe = Tracer(), Tracer()
    if workload in workloads.MC_CHUNK_SIZE:
        tally, derived = workloads.trace_mc(workload, seed, seconds, tr)
    elif workload == "analytic_sweep":
        tally, derived = workloads.trace_sweep(seed, seconds, tr)
    else:
        tally, derived = workloads.trace_cli(seed, seconds, tr)

    spans = tr.durations()
    probe_tally, probe_derived = workloads.Tally(), {}
    if "cli.main" not in spans:
        probe_tally, probe_derived = workloads.trace_cli(seed, 0.0, probe)
        tally.attempted += probe_tally.attempted
        tally.failed += probe_tally.failed
        tally.failures += probe_tally.failures
    if "quantum.amplitude_oracle" not in spans:
        workloads.oracle_probe(probe, random.Random(f"probe:{seed}"))
    probe_spans = probe.durations()

    metrics: dict[str, tuple[float, str]] = {}
    sources: dict[str, str] = {}
    for name, (span, scale, unit) in SPAN_METRICS.items():
        from_workload = span in spans
        sources[name] = "workload" if from_workload else "probe"
        metrics[name] = (statistics.median((spans if from_workload else probe_spans)[span]) * scale, unit)
    for name, key in COUNT_METRICS.items():
        metrics[name] = (tally.counts[key], "count")

    from_workload = "montecarlo.sample_counts" in spans
    sampled = spans["montecarlo.sample_counts"] if from_workload else probe_spans["montecarlo.sample_counts"]
    events = (tally if from_workload else probe_tally).counts["events"]
    metrics["montecarlo.ns_per_event"] = (sum(sampled) / events * 1e9, "ns")
    sources["montecarlo.ns_per_event"] = "workload" if from_workload else "probe"

    cli_source = derived if "process_s" in derived else probe_derived
    glue_source = derived if "glue_s" in derived else probe_derived
    metrics["cli.process_overhead_s"] = (
        statistics.median(cli_source["process_s"]) - statistics.median(cli_source["main_s"]),
        "s",
    )
    metrics["report.compare_report_glue_s"] = (statistics.median(glue_source["glue_s"]), "s")
    sources["cli.process_overhead_s"] = "workload" if cli_source is derived else "probe"
    sources["report.compare_report_glue_s"] = "workload" if glue_source is derived else "probe"
    metrics["trace.overhead_frac"] = (
        statistics.median(derived["traced_s"]) / statistics.median(derived["untraced_s"]) - 1.0,
        "frac",
    )

    numpy_s, self_s = measure.import_breakdown(IMPORT_REPEATS)
    metrics["import.numpy_s"] = (statistics.median(numpy_s), "s")
    metrics["import.rnlsim_self_s"] = (statistics.median(self_s), "s")
    samples = {
        "spans": len(tr.spans),
        "probe_spans": len(probe.spans),
        "import_repeats": IMPORT_REPEATS,
        "traced_ops": len(derived["traced_s"]),
        "sources": sources,
    }
    return tally, metrics, samples, (tr, probe)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    _import_program()
    import measure

    run = traced if args.trace else untraced
    tally, metrics, samples, tracers = run(args.workload, args.seed, args.seconds)
    # The one named known defect (classify refusing valid moving-splitter
    # pairings) is counted in `failed`; any other failure makes the run incorrect.
    correct = tally.failed == tally.counts["unrepresentable"]
    record = {
        "provenance": measure.provenance(args.workload, args.seed, bool(args.trace)),
        "samples": samples,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failed_frac": tally.failed / tally.attempted,
        "first_failures": tally.failures,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    measure.OUT_DIR.mkdir(parents=True, exist_ok=True)
    (measure.OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if tracers is not None:
        tracers[0].write(measure.OUT_DIR / f"{stem}.spans.json")
        tracers[1].write(measure.OUT_DIR / f"{stem}.probe-spans.json")

    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:.6g} {unit}")
    print(f"failed_frac {record['failed_frac']:.6g} ({tally.failed}/{tally.attempted})")
    for failure in tally.failures[:5]:
        print(f"failure: {failure}")
    summary = {k: v for k, v in samples.items() if not k.endswith("walls_s")}
    print(json.dumps({"provenance": record["provenance"], "samples": summary}))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": record["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
