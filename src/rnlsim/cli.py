"""Command line interface: one run, rendered as a table, CSV or JSON lines."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import NoReturn

from .config import KEY_TABLE, build_run_config, parse_config_file
from .errors import AmbiguousScheduleError, ConfigError
from .report import compare_report, render_csv, render_json_lines, render_table

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_AMBIGUOUS = 3

# Each config key's flag: length_bs11 is --length-bs11.
_KEY_FLAGS = {"--" + key.replace("_", "-"): key for key in KEY_TABLE}
# Every flag that takes a value: _glue_values gives each the token after it.
_VALUE_FLAGS = {"--config", "--out", "--format", *_KEY_FLAGS}

_RENDERERS = {
    "table": render_table,
    "csv": render_csv,
    "json-lines": render_json_lines,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> NoReturn:
        """A refused command line is a config error: main gives it its exit status."""
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rnlsim",
        allow_abbrev=False,  # a prefix of a flag would get round _glue_values
        description=(
            "Compare quantum-mechanical and relativistic-nonlocality coincidence "
            "predictions for a two-photon experiment with successive beam-splitter "
            "impacts.  Defaults run the decisive configuration: series 3 timing "
            "with phases 45, -45, 90 degrees, where the predictions are E = 1 "
            "(QM, alternative rules) versus E = 0 (standard rules)."
        ),
    )
    parser.add_argument("--config", type=Path, help="flat key = value run file")
    for flag, key in _KEY_FLAGS.items():
        parser.add_argument(flag, dest=key, help=KEY_TABLE[key][1])
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
    for key in KEY_TABLE:
        text = getattr(args, key)
        if text is not None:
            values[key] = KEY_TABLE[key][0](key, text)
    return values


def _glue_values(argv: list[str]) -> list[str]:
    """`--flag value` as `--flag=value` for every flag that takes a value, unless the value is a long flag.

    argparse then never judges a value, and only its one reader takes it: a key's parser, as in
    a config file, or --config's, --out's or --format's.  Left alone, argparse on Python 3.10 and
    3.11 takes -4.5e1, -45., -x and -r.csv for flags, and only -N and -N.N as values.
    """
    glued: list[str] = []
    for token in argv:
        if glued and glued[-1] in _VALUE_FLAGS and not token.startswith("--"):
            glued[-1] += "=" + token
        else:
            glued.append(token)
    return glued


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(_glue_values(sys.argv[1:] if argv is None else argv))
        report = compare_report(build_run_config(_collect_values(args)))
        text = _RENDERERS[args.format](report)
        if args.out is None:
            sys.stdout.write(text)
        else:
            args.out.write_text(text)
    except AmbiguousScheduleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_AMBIGUOUS
    except (ConfigError, OSError) as exc:  # OSError: an unreadable config file or a failed write
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
