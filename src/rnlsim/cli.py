"""Command line interface: one run, rendered as a table, CSV or JSON lines."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import CONFIG_KEYS, KEY_TABLE, build_run_config, parse_config_file, parse_value
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
    for key, (_, help_text) in KEY_TABLE.items():
        parser.add_argument("--" + key.replace("_", "-"), dest=key, help=help_text)
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
        text = getattr(args, key)
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
