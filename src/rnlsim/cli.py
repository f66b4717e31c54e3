"""Command line interface: one run, rendered as a table, CSV or JSON lines."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import CONFIG_KEYS, build_run_config, parse_config_file, parse_value
from .errors import AmbiguousScheduleError, ConfigError
from .report import compare_report, render_csv, render_json_lines, render_table

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_AMBIGUOUS = 3

_RENDERERS = {
    "table": render_table,
    "csv": render_csv,
    "json-lines": render_json_lines,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rnlsim",
        description=(
            "Compare quantum-mechanical and relativistic-nonlocality coincidence "
            "predictions for a two-photon experiment with successive beam-splitter "
            "impacts.  Defaults run the decisive configuration: series 3 timing "
            "with phases 45, -45, 90 degrees, where the predictions are E = 1 "
            "(QM, alternative rules) versus E = 0 (standard rules)."
        ),
    )
    parser.add_argument("--config", type=Path, help="flat key = value run file")
    parser.add_argument("--series", help="preset geometry: lab ordering series 1, 2 or 3")
    parser.add_argument("--length-bs11", dest="length_bs11", help="photon 1 path length in m")
    parser.add_argument("--length-bs21", dest="length_bs21", help="photon 2 first leg in m")
    parser.add_argument("--length-bs22", dest="length_bs22", help="photon 2 full path in m")
    parser.add_argument(
        "--m11-displacement",
        dest="m11_displacement",
        help="extra photon 1 path from displacing mirror M11, in m",
    )
    parser.add_argument("--phi11-deg", dest="phi11_deg", help="phase at BS11 in degrees")
    parser.add_argument("--phi21-deg", dest="phi21_deg", help="phase before BS21 in degrees")
    parser.add_argument("--phi22-deg", dest="phi22_deg", help="phase before BS22 in degrees")
    parser.add_argument(
        "--variants",
        help="comma-separated subset of QM, RNL_STANDARD, RNL_ALTERNATIVE",
    )
    parser.add_argument("--n-events", dest="n_events", help="coincidences per variant")
    parser.add_argument("--seed", help="64-bit unsigned master seed")
    parser.add_argument("--chunk-size", dest="chunk_size", help="events per multinomial draw")
    parser.add_argument(
        "--condition1",
        help="pairs indistinguishable at the intermediate detection stage (true or false)",
    )
    parser.add_argument(
        "--condition2",
        help="paths unknowable after the final splitter (true or false)",
    )
    parser.add_argument("--out", type=Path, help="write the report here instead of stdout")
    parser.add_argument(
        "--format",
        choices=tuple(_RENDERERS),
        default="table",
        help="output format (default: table)",
    )
    return parser


def _collect_values(args: argparse.Namespace) -> dict[str, object]:
    """Config file values first, command line flags on top, both parsed alike."""
    values: dict[str, object] = {}
    if args.config is not None:
        values.update(parse_config_file(args.config))
    for key in CONFIG_KEYS:
        text = getattr(args, key, None)
        if text is not None:
            values[key] = parse_value(key, text)
    return values


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = build_run_config(_collect_values(args))
        report = compare_report(config)
    except AmbiguousScheduleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_AMBIGUOUS
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    text = _RENDERERS[args.format](report)
    if args.out is None:
        sys.stdout.write(text)
        return EXIT_OK
    try:
        args.out.write_text(text)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
