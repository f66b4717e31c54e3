"""Config file parsing, RunConfig validation, CLI behaviour and output formats."""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rnlsim
from rnlsim import (
    ConfigError,
    ExperimentGeometry,
    ModelVariant,
    PhaseSettings,
    RunConfig,
    build_run_config,
    classify,
    compare_report,
    parse_config_file,
    series_preset,
)
from helpers import run_cli
from rnlsim.cli import main
from rnlsim.config import KEY_TABLE, MAX_CONFIG_BYTES
from rnlsim.report import CSV_COLUMNS, render_csv, render_json_lines, render_table


def _write(tmp_path: Path, text: str) -> Path:
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return path


# --- config file ---------------------------------------------------------------


def test_parse_full_config(tmp_path: Path) -> None:
    path = _write(
        tmp_path,
        """
        # comparison run
        series = 3
        phi11_deg = 45
        phi21_deg = -45
        phi22_deg = 90
        variants = QM, RNL_STANDARD
        n_events = 1000
        seed = 7
        chunk_size = 250
        condition1 = true
        condition2 = false
        """,
    )
    config = build_run_config(parse_config_file(path))
    assert config.series == 3
    assert config.variants == (ModelVariant.QM, ModelVariant.RNL_STANDARD)
    assert config.n_events == 1000
    assert config.seed == 7
    assert config.chunk_size == 250
    assert config.condition1 is True
    assert config.condition2 is False


def test_readme_config_block_parses(tmp_path: Path) -> None:
    # Every line of the README's key block, inline comments included.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("### Config file", 1)[1].split("```\n", 2)[1]
    assert tuple(parse_config_file(_write(tmp_path, block))) == tuple(KEY_TABLE)


def test_run_config_validation() -> None:
    with pytest.raises(ConfigError):
        RunConfig(series=None)  # neither series nor geometry
    with pytest.raises(ConfigError, match="^geometry must be an ExperimentGeometry$"):
        RunConfig(series=None, geometry="x")
    with pytest.raises(ConfigError, match="variants must not be empty"):
        RunConfig(variants=())
    with pytest.raises(ConfigError, match="variants must not repeat"):
        RunConfig(variants=(ModelVariant.QM, ModelVariant.QM))
    # Not iterable, not hashable, and a list: each would leak a TypeError from
    # set() or hash(config) unless the tuple of members is checked first.
    for variants in (5, ([1],), [ModelVariant.QM], ("QM",)):
        with pytest.raises(ConfigError, match="variants must be a tuple of ModelVariant members"):
            RunConfig(variants=variants)
    # No bound on the chunk count: each variant is one draw whatever chunk_size is.
    RunConfig(n_events=2**63 - 1, chunk_size=1)
    # Typed values that come from no file are checked against the config keys.
    with pytest.raises(ConfigError, match=r"^unknown keys \['bogus'\]$"):
        build_run_config({"bogus": 1})


def test_run_config_checks_and_builds_its_phases_once() -> None:
    config = RunConfig(phi11_deg=10, phi21_deg=np.float64(-20.0), phi22_deg=30.5)
    assert config.settings() is config.settings()
    assert config.settings() == PhaseSettings.from_degrees(10, -20.0, 30.5)
    # The fields keep the checked floats; the settings are no field.
    assert (type(config.phi11_deg), config.phi11_deg) == (float, 10.0)
    assert "settings" not in repr(config)
    assert config == RunConfig(phi11_deg=10, phi21_deg=-20.0, phi22_deg=30.5)
    assert dataclasses.replace(config, phi22_deg=90.0).settings() == PhaseSettings.from_degrees(10, -20.0, 90.0)


def test_run_config_resolves_its_geometry_once(monkeypatch: pytest.MonkeyPatch) -> None:
    presets = {series: series_preset(series) for series in (1, 2, 3)}
    configs = {series: RunConfig(series=series, n_events=100) for series in presets}
    explicit = ExperimentGeometry(1.0, 2.0, 4.0)  # a series 2 ordering, but not the preset
    configs[None] = RunConfig(series=None, geometry=explicit, n_events=100)
    replaced = dataclasses.replace(configs[3], series=1)
    # The resolved geometry is no field: equality, hashing and repr ignore it.
    assert replaced == configs[1] and hash(replaced) == hash(configs[1])
    assert "_geometry" not in repr(replaced)

    def refuse(series: int) -> ExperimentGeometry:
        raise AssertionError(f"series_preset({series!r}) called after construction")

    monkeypatch.setattr(rnlsim.config, "series_preset", refuse)
    for series, config in configs.items():
        geometry = config.resolve_geometry()
        assert geometry is (explicit if series is None else presets[series])
        assert config.resolve_geometry() is geometry
        assert rnlsim.report._series(geometry, compare_report(config).timing) == (2 if series is None else series)
    assert replaced.resolve_geometry() is presets[1]


# --- CLI -----------------------------------------------------------------------


def _run_python(*args: str) -> subprocess.CompletedProcess:
    """`python ARGS` in a child process that imports this rnlsim, killed after 30 s."""
    package_root = os.path.dirname(os.path.dirname(rnlsim.__file__))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": package_root},
        timeout=30,
    )


def test_cli_module_runs_as_a_script() -> None:
    result = _run_python("-m", "rnlsim.cli", "--format", "csv", "--n-events", "10")
    assert result.returncode == 0, result.stderr
    assert tuple(next(csv.reader(io.StringIO(result.stdout)))) == CSV_COLUMNS
    result = _run_python("-m", "rnlsim.cli", "--variants", "QM,FTL")
    assert result.returncode == 2
    assert (result.stdout, result.stderr) == ("", "error: variants: unknown variant 'FTL'\n")
    result = _run_python("-m", "rnlsim.cli", "--bogus")
    assert (result.returncode, result.stdout, result.stderr) == (2, "", "error: unrecognized arguments: --bogus\n")


def test_cli_runs_max_events_in_one_event_chunks_promptly() -> None:
    # 2^63 - 1 one-event chunks would be millennia of draws one chunk at a
    # time; each variant is one draw instead.  A child process, so that a
    # regression is killed at the timeout instead of hanging the suite.
    n_events = 2**63 - 1
    result = _run_python("-m", "rnlsim.cli", "--n-events", str(n_events), "--chunk-size", "1", "--format", "csv")
    assert result.returncode == 0, result.stderr
    rows = list(csv.DictReader(io.StringIO(result.stdout)))
    assert len(rows) == 3
    for row in rows:
        assert sum(int(row[column]) for column in ("R_pp", "R_pm", "R_mp", "R_mm")) == n_events


def test_cli_legs_one_ulp_apart_run(capsys: pytest.CaptureFixture) -> None:
    # The longer second leg is photon 2's order in every frame, although both
    # arrival times round to the same float.
    args = ["--length-bs11", "1", "--length-bs21", "2.682", "--length-bs22", "2.6820000000000004"]
    assert main([*args, "--n-events", "10"]) == 0
    assert "timing: photon 1 = b11, photon 2 = a22" in capsys.readouterr().out


def _series_fields(config: RunConfig) -> tuple[list[str], list[object]]:
    """The series of each row of the run's CSV, and of its JSON lines."""
    comparison = compare_report(config)
    csv_series = [row["series"] for row in csv.DictReader(io.StringIO(render_csv(comparison)))]
    json_series = [json.loads(line)["series"] for line in render_json_lines(comparison).splitlines()]
    return csv_series, json_series


def test_table_header_names_the_splitter_velocities_of_a_moving_geometry() -> None:
    moving = RunConfig(series=None, geometry=ExperimentGeometry(2, 1, 3, beta_bs11=-0.3, beta_bs22=0.3), n_events=10)
    lines = render_table(compare_report(moving)).splitlines()
    assert lines[1] == (
        "geometry: lengths bs11=2.0 m, bs21=1.0 m, bs22=3.0 m, m11_displacement=0.0 m, "
        "beta_bs11=-0.3, beta_bs21=0.0, beta_bs22=0.3"
    )
    assert lines[4] == "timing: photon 1 = a11[21], photon 2 = b22 (BS21 impact before: yes)"
    assert _series_fields(moving) == ([""] * 3, [None] * 3)
    # -0.0 is at rest: lengths only, and the series.
    resting = dataclasses.replace(moving, geometry=ExperimentGeometry(2, 1, 3, beta_bs11=-0.0))
    lines = render_table(compare_report(resting)).splitlines()
    assert lines[1] == "geometry: lengths bs11=2.0 m, bs21=1.0 m, bs22=3.0 m, m11_displacement=0.0 m"
    assert lines[4].endswith(", series 3")
    assert _series_fields(resting) == (["3"] * 3, [3] * 3)


@pytest.mark.parametrize("beta", ["beta_bs11", "beta_bs21", "beta_bs22"])
def test_any_one_moving_splitter_leaves_no_series(beta: str) -> None:
    # Moving at 1e-3, the splitter keeps series 3's pairing (a11[21], a22), yet
    # no lab ordering decides it, so no renderer prints a series; at -0.0 it rests.
    moving = RunConfig(series=None, geometry=ExperimentGeometry(2, 1, 3, **{beta: 1e-3}), n_events=10)
    assert classify(moving.resolve_geometry()).pairing == classify(series_preset(3)).pairing
    lines = render_table(compare_report(moving)).splitlines()
    assert f"{beta}=0.001" in lines[1]
    assert "series" not in lines[4]
    assert _series_fields(moving) == ([""] * 3, [None] * 3)
    resting = dataclasses.replace(moving, geometry=ExperimentGeometry(2, 1, 3, **{beta: -0.0}))
    lines = render_table(compare_report(resting)).splitlines()
    assert "beta" not in lines[1]
    assert lines[4].endswith(", series 3")
    assert _series_fields(resting) == (["3"] * 3, [3] * 3)


# python -c _BOUNDED_CLI ARGS runs the CLI with 256 MiB of address space
# above what the interpreter and numpy have mapped: the limit is the child's alone.
_BOUNDED_CLI = """
import resource, sys
from rnlsim.cli import main
with open("/proc/self/statm") as statm:
    limit = int(statm.read().split()[0]) * resource.getpagesize() + 2**28
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
sys.exit(main(sys.argv[1:]))
"""


def test_a_config_file_with_no_end_is_refused_in_bounded_memory() -> None:
    # Read whole, /dev/zero fills the address space: a MemoryError traceback
    # and exit 1 under this limit, the host's OOM killer without one.
    result = _run_python("-c", _BOUNDED_CLI, "--config", "/dev/zero", "--n-events", "10")
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == f"error: /dev/zero: longer than {MAX_CONFIG_BYTES} bytes\n"


# A valid config padded with a comment to exactly MAX_CONFIG_BYTES.
_AT_CAP = b"n_events = 10\n" + b"#" * (MAX_CONFIG_BYTES - 15) + b"\n"


def test_a_config_file_at_the_size_cap_runs(capsys: pytest.CaptureFixture, tmp_path: Path) -> None:
    assert len(_AT_CAP) == MAX_CONFIG_BYTES
    padded = run_cli(capsys, tmp_path, _AT_CAP, "--format csv")
    assert padded[0] == 0
    assert padded == run_cli(capsys, tmp_path, b"n_events = 10\n", "--format csv")


# (config file bytes or None, command line with {tmp} for a scratch directory,
# exit code, a fragment of the one error line).
REFUSALS = (
    # Config files.  A value is quoted as written, without the spaces around it.
    (b"series = 3\nphi99_deg = 1\n", "", 2, "run.cfg:2: unknown key 'phi99_deg'"),
    (b"warp_factor = 9\n", "", 2, "run.cfg:1: unknown key 'warp_factor'"),
    (b"seed = 1\nseed = 2\n", "", 2, "run.cfg:2: repeated key 'seed'"),
    (b"series 3\n", "", 2, "run.cfg:1: expected 'key = value', got 'series 3'"),
    (b"n_events =   soon  \n", "", 2, "error: n_events: expected an integer, got 'soon'\n"),
    (b"phi11_deg = abc\n", "", 2, "error: phi11_deg: expected a number, got 'abc'\n"),
    (b"variants = ,\n", "", 2, "error: variants must not be empty\n"),
    (b"variants = QM, FTL\n", "", 2, "error: variants: unknown variant 'FTL'\n"),
    (b"condition1 = maybe\n", "", 2, "error: condition1: expected true or false, got 'maybe'\n"),
    (b"seed =\n", "", 2, "error: seed: expected an integer, got ''\n"),
    (b"seed = # x\n", "", 2, "error: seed: expected an integer, got ''\n"),
    (b"series = 3\nseed = \xff\n", "", 2, "run.cfg: not UTF-8 text"),
    (b"\xef\xbb", "", 2, "run.cfg: not UTF-8 text"),  # two bytes of a byte order mark
    (_AT_CAP + b"\n", "", 2, f"run.cfg: longer than {MAX_CONFIG_BYTES} bytes\n"),
    (None, "--config {tmp}/missing.cfg", 2, "No such file or directory"),
    # Flags.
    (None, "--series 5", 2, "error: series must be in [1, 3], got 5\n"),
    (None, "--n-events 0", 2, f"error: n_events must be in [1, {2**63 - 1}], got 0\n"),
    (None, f"--n-events {2**63}", 2, f"error: n_events must be in [1, {2**63 - 1}], got {2**63}\n"),
    (None, f"--chunk-size {2**63}", 2, f"error: chunk_size must be in [1, {2**63 - 1}], got {2**63}\n"),
    (None, "--variants QM,PILOT_WAVE", 2, "error: variants: unknown variant 'PILOT_WAVE'\n"),
    (None, "--condition1 maybe", 2, "error: condition1: expected true or false, got 'maybe'\n"),
    (None, "--seed -x", 2, "error: seed: expected an integer, got '-x'\n"),
    # argparse's own refusals.  A key's flag takes the next token as its value
    # unless that token is a long flag, so --series stays a flag and --seed
    # has no value; glued, argparse would refuse the stray 3 instead.  How
    # --format's choices are quoted differs between Python versions.  A flag
    # is spelled in full: a prefix of one is unknown.
    (None, "--seed --series 3", 2, "error: argument --seed: expected one argument\n"),
    (None, "--bogus", 2, "error: unrecognized arguments: --bogus\n"),
    (None, "--format xml", 2, "error: argument --format: invalid choice: 'xml'"),
    (None, "--n-ev 10", 2, "error: unrecognized arguments: --n-ev 10\n"),
    (None, "--phi21 -45", 2, "error: unrecognized arguments: --phi21 -45\n"),
    # A partial geometry; test_cli_inconsistent_geometry_is_a_config_error
    # holds the other geometry refusals.
    (None, "--length-bs11 1.0", 2, "needs all three lengths, missing ['length_bs21', 'length_bs22']\n"),
    (None, "--length-bs11 2.0 --length-bs22 3.0", 2, "needs all three lengths, missing ['length_bs21']\n"),
    (None, "--m11-displacement 0.5", 2, "error: m11_displacement requires explicit geometry lengths\n"),
    # Outcomes: a failed --out write, and equal photon 1 and BS21 paths, a tie
    # inside the guard band.
    (None, "--format csv --out {tmp}/missing/dir/x.csv", 2, "No such file or directory"),
    (None, "--length-bs11 1.0 --length-bs21 1.0 --length-bs22 2.0", 3, "0.0 s apart, inside the guard band"),
)


@pytest.mark.parametrize(
    ("config", "argv", "code", "fragment"), REFUSALS, ids=[repr(c[:40]) if c else a for c, a, _, _ in REFUSALS]
)
def test_every_refused_run_exits_with_one_error_line(
    config: bytes | None, argv: str, code: int, fragment: str, capsys: pytest.CaptureFixture, tmp_path: Path
) -> None:
    _assert_refused(run_cli(capsys, tmp_path, config, argv), code, fragment)


@pytest.mark.parametrize("key", KEY_TABLE)
def test_an_empty_value_is_refused_alike_in_a_file_and_on_the_command_line(
    key: str, capsys: pytest.CaptureFixture, tmp_path: Path
) -> None:
    # The key's parser is the one reader of its text; an empty variant list parses and RunConfig refuses it.
    in_file = run_cli(capsys, tmp_path, f"{key} =\n".encode(), "")
    on_command_line = run_cli(capsys, tmp_path, None, f"--{key.replace('_', '-')} ''")
    assert in_file == on_command_line
    _assert_refused(in_file, 2, f"error: {key}")


_GEOMETRY_21 = "--length-bs21 1 --length-bs22 3"

# (command line, a fragment of the one error line): photon 2 reaching BS22
# before BS21 or with legs of equal length, photon 1's displaced path
# overflowing to an infinite arrival time, non-finite values (they parse as
# numbers), and a series together with explicit lengths.
INCONSISTENT_GEOMETRY = (
    ("--length-bs11 2 --length-bs21 3 --length-bs22 1", "length_bs22 must exceed length_bs21\n"),
    ("--length-bs11 1 --length-bs21 2.682 --length-bs22 2.682", "length_bs22 must exceed length_bs21\n"),
    (f"--length-bs11 1e308 --m11-displacement 1e308 {_GEOMETRY_21}", "effective_length_bs11 must be finite, got inf\n"),
    ("--phi11-deg inf", "error: phi11_deg must be finite, got inf\n"),
    (f"--length-bs11 nan {_GEOMETRY_21}", "error: length_bs11 must be finite, got nan\n"),
    (f"--series 1 --length-bs11 2 {_GEOMETRY_21}", "series and geometry are mutually exclusive"),
)


@pytest.mark.parametrize(
    ("argv", "fragment"), INCONSISTENT_GEOMETRY, ids=[f"args{i}" for i in range(len(INCONSISTENT_GEOMETRY))]
)
def test_cli_inconsistent_geometry_is_a_config_error(
    argv: str, fragment: str, capsys: pytest.CaptureFixture, tmp_path: Path
) -> None:
    _assert_refused(run_cli(capsys, tmp_path, None, argv), 2, fragment)


def _assert_refused(result: tuple[int, str, str], code: int, fragment: str) -> None:
    exit_code, stdout, stderr = result
    assert (exit_code, stdout) == (code, "")
    assert stderr.startswith("error: ") and stderr.endswith("\n") and stderr.count("\n") == 1, stderr
    assert fragment in stderr


def test_cli_internal_value_error_is_not_a_config_error(monkeypatch: pytest.MonkeyPatch) -> None:
    def broken_report(config):
        raise ValueError("internal fault")

    monkeypatch.setattr("rnlsim.cli.compare_report", broken_report)
    with pytest.raises(ValueError, match="internal fault"):
        main(["--n-events", "10"])


def test_cli_failed_stdout_write_is_a_clean_error(
    monkeypatch: pytest.MonkeyPatch, capsys: pytest.CaptureFixture
) -> None:
    class ClosedStdout:
        def write(self, text: str) -> int:
            raise OSError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", ClosedStdout())
    assert main(["--n-events", "100", "--format", "csv"]) == 2
    err = capsys.readouterr().err
    assert err == "error: [Errno 32] Broken pipe\n"
