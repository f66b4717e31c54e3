"""Config file parsing, RunConfig validation, CLI behaviour and output formats."""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rnlsim
from rnlsim import (
    ConfigError,
    ExperimentGeometry,
    JointDistribution,
    ModelVariant,
    PhaseSettings,
    RunConfig,
    build_run_config,
    compare_report,
    parse_config_file,
    series_preset,
)
from rnlsim.cli import main
from rnlsim.config import CONFIG_KEYS, parse_value
from rnlsim.report import CSV_COLUMNS


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


def test_unknown_key_is_an_error(tmp_path: Path) -> None:
    path = _write(tmp_path, "series = 3\nphi99_deg = 1\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_file(path)
    # Typed values that come from no file are checked against the same keys.
    with pytest.raises(ConfigError, match=r"^unknown keys \['bogus'\]$"):
        build_run_config({"bogus": 1})


def test_repeated_key_is_an_error(tmp_path: Path) -> None:
    path = _write(tmp_path, "seed = 1\nseed = 2\n")
    with pytest.raises(ConfigError, match="repeated key"):
        parse_config_file(path)


def test_malformed_line_is_an_error(tmp_path: Path) -> None:
    path = _write(tmp_path, "series 3\n")
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        parse_config_file(path)


def test_bad_values_are_errors(tmp_path: Path) -> None:
    for line in ("n_events = soon", "condition1 = maybe", "variants = QM, FTL", "seed ="):
        path = _write(tmp_path, line + "\n")
        with pytest.raises(ConfigError):
            parse_config_file(path)
    # The value is quoted as written, without the spaces around it.
    for line, message in (
        ("n_events =   soon  ", "n_events: expected an integer, got 'soon'"),
        ("phi11_deg = abc", "phi11_deg: expected a number, got 'abc'"),
        ("variants = ,", "variants: no variant named in ','"),
    ):
        path = _write(tmp_path, line + "\n")
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_config_file(path)


def test_boolean_words() -> None:
    for word in ("true", "1", "yes", "on", "On", " TRUE "):
        assert parse_value("condition2", word) is True
    for word in ("false", "0", "no", "off", "OFF"):
        assert parse_value("condition2", word) is False


def test_config_file_with_byte_order_mark_parses_as_without(tmp_path: Path) -> None:
    text = "series = 2\nseed = 7\n"
    plain = tmp_path / "plain.cfg"
    plain.write_bytes(text.encode("utf-8"))
    marked = tmp_path / "marked.cfg"
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    assert parse_config_file(marked) == parse_config_file(plain) == {"series": 2, "seed": 7}


def test_a_comment_may_follow_a_value(tmp_path: Path) -> None:
    # A # starts a comment wherever it stands: no valid value contains one.
    for line in ("seed = 5#note", "#note\nseed = 5"):
        assert parse_config_file(_write(tmp_path, line)) == {"seed": 5}
    csvs = []
    for line in ("seed = 5", "seed = 5  # note"):
        cfg = _write(tmp_path, f"n_events = 1000\n{line}\n")
        assert parse_config_file(cfg) == {"n_events": 1000, "seed": 5}
        out_path = tmp_path / "r.csv"
        assert main(["--config", str(cfg), "--format", "csv", "--out", str(out_path)]) == 0
        csvs.append(out_path.read_bytes())
    assert csvs[0] == csvs[1]
    with pytest.raises(ConfigError, match="empty value for 'seed'"):
        parse_config_file(_write(tmp_path, "seed = # x\n"))


def test_readme_config_block_parses(tmp_path: Path) -> None:
    # Every line of the README's key block, inline comments included.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("### Config file", 1)[1].split("```\n", 2)[1]
    assert tuple(parse_config_file(_write(tmp_path, block))) == CONFIG_KEYS


def test_explicit_geometry_config(tmp_path: Path) -> None:
    path = _write(
        tmp_path,
        "length_bs11 = 1.0\nlength_bs21 = 1.0\nlength_bs22 = 2.0\nm11_displacement = 0.5\n",
    )
    config = build_run_config(parse_config_file(path))
    assert config.series is None
    assert config.geometry is not None
    assert config.geometry.effective_length_bs11 == pytest.approx(1.5)


def test_series_and_lengths_are_exclusive() -> None:
    with pytest.raises(ConfigError, match="mutually exclusive"):
        build_run_config({"series": 1, "length_bs11": 1.0, "length_bs21": 1.0, "length_bs22": 2.0})


def test_partial_geometry_is_an_error() -> None:
    with pytest.raises(ConfigError, match="all three lengths"):
        build_run_config({"length_bs11": 1.0})
    with pytest.raises(ConfigError, match=r"missing \['length_bs21'\]$"):
        build_run_config({"length_bs11": 2.0, "length_bs22": 3.0})
    with pytest.raises(ConfigError, match="requires explicit geometry"):
        build_run_config({"m11_displacement": 0.5})


def test_run_config_validation() -> None:
    with pytest.raises(ConfigError):
        RunConfig(series=None)  # neither series nor geometry
    with pytest.raises(ConfigError, match="^geometry must be an ExperimentGeometry$"):
        RunConfig(series=None, geometry="x")
    with pytest.raises(ConfigError, match=r"^series must be in \[1, 3\], got 9$"):
        RunConfig(series=9)
    with pytest.raises(ConfigError):
        RunConfig(n_events=0)
    with pytest.raises(ConfigError):
        RunConfig(seed=-1)
    with pytest.raises(ConfigError):
        RunConfig(seed=2**64)
    with pytest.raises(ConfigError, match="variants must not be empty"):
        RunConfig(variants=())
    with pytest.raises(ConfigError, match="variants must not repeat"):
        RunConfig(variants=(ModelVariant.QM, ModelVariant.QM))
    # Not iterable, not hashable, and a list: each would leak a TypeError from
    # set() or hash(config) unless the tuple of members is checked first.
    for variants in (5, ([1],), [ModelVariant.QM], ("QM",)):
        with pytest.raises(ConfigError, match="variants must be a tuple of ModelVariant members"):
            RunConfig(variants=variants)
    with pytest.raises(ConfigError):
        RunConfig(chunk_size=0)
    with pytest.raises(ConfigError):
        RunConfig(n_events=2**63)
    with pytest.raises(ConfigError):
        RunConfig(chunk_size=2**63)
    # No bound on the chunk count: each variant is one draw whatever chunk_size is.
    RunConfig(n_events=2**63 - 1, chunk_size=1)
    with pytest.raises(ConfigError):
        RunConfig(phi11_deg=float("nan"))


def test_run_config_checks_and_builds_its_phases_once() -> None:
    config = RunConfig(phi11_deg=10, phi21_deg=np.float64(-20.0), phi22_deg=30.5)
    assert config.settings() is config.settings()
    assert config.settings() == PhaseSettings.from_degrees(10, -20.0, 30.5)
    # The fields keep the values as given, for the CSV; the settings are no field.
    assert (type(config.phi11_deg), config.phi11_deg) == (int, 10)
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
        assert compare_report(config).timing.series == (2 if series is None else series)
    assert replaced.resolve_geometry() is presets[1]


def test_bool_counts_are_config_errors() -> None:
    # bool is an int subclass and numpy.bool_ compares equal to 1: True must
    # not run as series 1 or seed 1.
    for name in ("series", "seed", "n_events", "chunk_size"):
        for value in (True, False, np.True_, np.False_):
            with pytest.raises(ConfigError, match=f"{name} must be"):
                RunConfig(**{name: value})
    # 3.0 would run as series 3 and print as "series 3.0 preset".
    with pytest.raises(ConfigError, match="series must be an integer, got 3.0"):
        RunConfig(series=3.0)


def test_bool_phases_and_lengths_are_refused() -> None:
    # True would run as 1 degree (or 1 m) and print True in the CSV.
    for name in ("phi11_deg", "phi21_deg", "phi22_deg"):
        for value in (True, np.True_):
            with pytest.raises(ConfigError, match=f"{name} must be a real number"):
                RunConfig(**{name: value})
    # numpy.bool_ is no bool subclass, but float() takes it as 0 or 1 all the same.
    for true, false in ((True, False), (np.True_, np.False_)):
        for make in (
            lambda: PhaseSettings(true, 0.0, 0.0),
            lambda: PhaseSettings.from_degrees(0.0, 0.0, true),
            lambda: ExperimentGeometry(true, 0.5, 3.0),
            lambda: ExperimentGeometry(2.0, 1.0, 3.0, m11_displacement=false),
            lambda: ExperimentGeometry(2.0, 1.0, 3.0, beta_bs11=false),
            lambda: ExperimentGeometry(2.0, 1.0, 3.0, beta_bs22=true),
            lambda: JointDistribution(true, false, false, false),
        ):
            with pytest.raises(ValueError, match=r"must be a real number, got (np\.)?(True|False)"):
                make()


def test_non_bool_conditions_are_config_errors() -> None:
    # A truthy "false" would run with the condition on.
    for name in ("condition1", "condition2"):
        for value in ("false", 0, 1, None, np.False_, np.True_):
            with pytest.raises(ConfigError, match=f"{name} must be true or false"):
                RunConfig(**{name: value})


def test_non_number_phases_are_config_errors() -> None:
    for value in ("45", None, 1j):
        with pytest.raises(ConfigError, match="phi21_deg must be a real number"):
            RunConfig(phi21_deg=value)
    # Accepted phases are kept as given: the CSV prints them unchanged.
    assert RunConfig(phi11_deg=45).phi11_deg == 45
    assert isinstance(RunConfig(phi11_deg=45).phi11_deg, int)


# --- CLI -----------------------------------------------------------------------


def test_cli_default_run_table(capsys: pytest.CaptureFixture) -> None:
    assert main(["--n-events", "2000"]) == 0
    out = capsys.readouterr().out
    assert "series 3 preset" in out
    for variant in ModelVariant:
        assert variant.value in out
    assert "verdicts" in out


def test_cli_csv_schema(tmp_path: Path) -> None:
    out_path = tmp_path / "report.csv"
    assert main(["--n-events", "1000", "--format", "csv", "--out", str(out_path)]) == 0
    rows = list(csv.reader(io.StringIO(out_path.read_text())))
    assert tuple(rows[0]) == CSV_COLUMNS
    assert len(rows) == 1 + 3
    qm_row = dict(zip(rows[0], rows[1]))
    assert qm_row["variant"] == "QM"
    assert qm_row["series"] == "3"
    assert qm_row["phi11_deg"] == "45.0"
    assert int(qm_row["R_pp"]) + int(qm_row["R_mm"]) == 1000
    assert qm_row["e_hat"] == "1.0"
    assert qm_row["e_analytic"] == "1.0"


def test_cli_csv_is_byte_deterministic(tmp_path: Path) -> None:
    args = ["--n-events", "5000", "--seed", "21", "--format", "csv"]
    path_a = tmp_path / "a.csv"
    path_b = tmp_path / "b.csv"
    assert main([*args, "--out", str(path_a)]) == 0
    assert main([*args, "--out", str(path_b)]) == 0
    assert path_a.read_bytes() == path_b.read_bytes()


def test_cli_json_lines(tmp_path: Path) -> None:
    out_path = tmp_path / "report.jsonl"
    assert main(["--n-events", "1000", "--format", "json-lines", "--out", str(out_path)]) == 0
    lines = out_path.read_text().splitlines()
    assert len(lines) == 3
    for line in lines:
        record = json.loads(line)
        assert tuple(record) == CSV_COLUMNS
        assert record["series"] == 3


def test_cli_flags_override_config_file(tmp_path: Path, capsys: pytest.CaptureFixture) -> None:
    cfg = _write(tmp_path, "series = 1\nn_events = 1000\nseed = 5\n")
    out_path = tmp_path / "r.csv"
    assert main(["--config", str(cfg), "--series", "2", "--format", "csv", "--out", str(out_path)]) == 0
    rows = list(csv.reader(io.StringIO(out_path.read_text())))
    assert dict(zip(rows[0], rows[1]))["series"] == "2"


def test_cli_exit_code_on_config_errors(tmp_path: Path, capsys: pytest.CaptureFixture) -> None:
    bad_cfg = _write(tmp_path, "warp_factor = 9\n")
    assert main(["--config", str(bad_cfg)]) == 2
    assert main(["--config", str(tmp_path / "missing.cfg")]) == 2
    assert main(["--series", "5"]) == 2
    assert main(["--n-events", "0"]) == 2
    assert main(["--variants", "QM,PILOT_WAVE"]) == 2
    too_many = str(2**63)
    assert main(["--n-events", too_many, "--chunk-size", too_many]) == 2
    assert main(["--chunk-size", too_many]) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    # Only a number is glued to its flag, so --series stays a flag and --seed
    # has no value.  Glued, argparse would refuse the stray 3 instead.
    with pytest.raises(SystemExit) as exited:
        main(["--seed", "--series", "3"])
    assert exited.value.code == 2
    assert "argument --seed: expected one argument" in capsys.readouterr().err


def _run_module(*args: str) -> subprocess.CompletedProcess:
    """`python -m rnlsim.cli ARGS` in a child process, killed after 30 s."""
    package_root = os.path.dirname(os.path.dirname(rnlsim.__file__))
    return subprocess.run(
        [sys.executable, "-m", "rnlsim.cli", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": package_root},
        timeout=30,
    )


def test_cli_module_runs_as_a_script() -> None:
    result = _run_module("--format", "csv", "--n-events", "10")
    assert result.returncode == 0, result.stderr
    assert tuple(next(csv.reader(io.StringIO(result.stdout)))) == CSV_COLUMNS
    result = _run_module("--series", "9")
    assert result.returncode == 2
    assert (result.stdout, result.stderr) == ("", "error: series must be in [1, 3], got 9\n")


def test_cli_runs_max_events_in_one_event_chunks_promptly() -> None:
    # 2^63 - 1 one-event chunks would be millennia of draws one chunk at a
    # time; each variant is one draw instead.  A child process, so that a
    # regression is killed at the timeout instead of hanging the suite.
    n_events = 2**63 - 1
    result = _run_module("--n-events", str(n_events), "--chunk-size", "1", "--format", "csv")
    assert result.returncode == 0, result.stderr
    rows = list(csv.DictReader(io.StringIO(result.stdout)))
    assert len(rows) == 3
    for row in rows:
        assert sum(int(row[column]) for column in ("R_pp", "R_pm", "R_mp", "R_mm")) == n_events


def test_cli_csv_does_not_depend_on_chunk_size(tmp_path: Path) -> None:
    outputs = []
    for chunk_args in ([], ["--chunk-size", "1000"], ["--chunk-size", "125000"]):
        path = tmp_path / f"run{len(outputs)}.csv"
        assert main(["--format", "csv", "--out", str(path), *chunk_args]) == 0
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


@pytest.mark.parametrize(
    "args",
    [
        # Photon 2 reaching BS22 before BS21.
        ["--length-bs11", "2", "--length-bs21", "3", "--length-bs22", "1"],
        # Photon 2's legs of equal length.
        ["--length-bs11", "1", "--length-bs21", "2.682", "--length-bs22", "2.682"],
        # Photon 1's displaced path overflows to an infinite arrival time.
        ["--length-bs11", "1e308", "--m11-displacement", "1e308"]
        + ["--length-bs21", "1", "--length-bs22", "3"],
        # Non-finite values parse as numbers; RunConfig and ExperimentGeometry refuse them.
        ["--phi11-deg", "inf"],
        ["--length-bs11", "nan", "--length-bs21", "1", "--length-bs22", "3"],
        # A series together with explicit lengths.
        ["--series", "1", "--length-bs11", "2", "--length-bs21", "1", "--length-bs22", "3"],
    ],
)
def test_cli_inconsistent_geometry_is_a_config_error(
    args: list[str], capsys: pytest.CaptureFixture
) -> None:
    assert main([*args, "--n-events", "10"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert err.count("\n") == 1


def test_cli_legs_one_ulp_apart_run(capsys: pytest.CaptureFixture) -> None:
    # The longer second leg is photon 2's order in every frame, although both
    # arrival times round to the same float.
    args = ["--length-bs11", "1", "--length-bs21", "2.682", "--length-bs22", "2.6820000000000004"]
    assert main([*args, "--n-events", "10"]) == 0
    assert "timing: photon 1 = b11, photon 2 = a22" in capsys.readouterr().out


def test_cli_config_file_that_is_not_utf8_is_a_config_error(
    tmp_path: Path, capsys: pytest.CaptureFixture
) -> None:
    path = tmp_path / "run.cfg"
    path.write_bytes(b"series = 3\nseed = \xff\n")
    assert main(["--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert err.count("\n") == 1


def test_cli_internal_value_error_is_not_a_config_error(monkeypatch: pytest.MonkeyPatch) -> None:
    def broken_report(config):
        raise ValueError("internal fault")

    monkeypatch.setattr("rnlsim.cli.compare_report", broken_report)
    with pytest.raises(ValueError, match="internal fault"):
        main(["--n-events", "10"])


def test_cli_failed_out_write_is_a_clean_error(
    tmp_path: Path, capsys: pytest.CaptureFixture
) -> None:
    out_path = tmp_path / "missing" / "dir" / "report.csv"
    assert main(["--n-events", "100", "--format", "csv", "--out", str(out_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


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


def test_cli_exit_code_on_ambiguous_timing(capsys: pytest.CaptureFixture) -> None:
    # Equal photon 1 and BS21 path lengths: tie inside the guard band.
    code = main(
        ["--length-bs11", "1.0", "--length-bs21", "1.0", "--length-bs22", "2.0", "--n-events", "10"]
    )
    assert code == 3
    assert "guard band" in capsys.readouterr().err


def test_cli_explicit_geometry_runs(capsys: pytest.CaptureFixture) -> None:
    code = main(
        [
            "--length-bs11",
            "1.0",
            "--length-bs21",
            "1.0",
            "--length-bs22",
            "2.0",
            "--m11-displacement",
            "0.5",
            "--n-events",
            "500",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "series 3" in out  # classified from the lab ordering
    assert "m11_displacement=0.5" in out


def test_cli_conditions_flatten_predictions(capsys: pytest.CaptureFixture) -> None:
    assert main(["--n-events", "1000", "--condition2", "false", "--variants", "QM"]) == 0
    out = capsys.readouterr().out
    assert "condition2=false" in out
    assert "   0.000000" in out  # analytic E drops to zero


def test_cli_condition_flags_read_like_config_values(capsys: pytest.CaptureFixture) -> None:
    args = ["--n-events", "1000", "--variants", "qm, rnl_standard", "--format", "csv"]
    assert main([*args, "--condition2", "false"]) == 0
    as_false = capsys.readouterr().out
    assert main([*args, "--condition2", "no"]) == 0
    assert capsys.readouterr().out == as_false


def test_cli_bad_condition_flag_is_a_config_error(capsys: pytest.CaptureFixture) -> None:
    assert main(["--condition1", "maybe", "--n-events", "10"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert err.count("\n") == 1
