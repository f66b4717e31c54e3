"""Byte-identical CLI output at fixed configs, bit-identical tables, and drawn CLI runs against the reference oracle.

A refactor must leave these hashes alone.  The CLI hashes cover the analytic
columns and the sampled counts, so a change to the RNG stream layout
(montecarlo.STREAM_LAYOUT) or to numpy's Philox or multinomial sampler
changes them too; such a change must update them and say so in CHANGES.md.  All CLI
configs but one use phases 45/-45/90, where every E is exactly 0 or 1; the
one at 10/0/5 reports an e_analytic (the table's correlation) that differs
from the closed-form E in its last digits, so it pins that rounding.  The
table hash pins every rule at seeded float phases as well.  The flat pairings, two non-before impacts
included, are exactly flat by construction: their stage is flat, and predict
returns the flat table itself.  Between the fixed configs,
test_cli_runs_print_the_reference_rows checks drawn runs, rows and refusals,
against helpers.reference_rows, which shares no code with the package's
classify -> predict -> sample -> render pass.
"""

from __future__ import annotations

import ast
import csv
import hashlib
import io
import itertools
import math
import random
import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from helpers import ATOL, SAMPLED_COLUMNS, geometries, reference_rows, run_cli, v5_reference
from rnlsim import (
    ModelVariant,
    PhaseSettings,
    PhotonOneLabel,
    PhotonTwoLabel,
    RunConfig,
    TimingAssignment,
    compare_report,
    predict,
    symmetric_joint,
)
from rnlsim.cli import build_parser, main
from rnlsim.config import KEY_TABLE

ROOT = Path(__file__).resolve().parent.parent
_GEOMETRY = "--length-bs11 2 --length-bs21 1 --length-bs22 3 --m11-displacement 0.5"
GOLDEN_SHA256 = {
    "--series 1 --format csv": "6c89cacd4511389a8b5a0e6b751312b0d167ac8ea731410ef5c963100fee5403",
    "--series 2 --format csv": "6b355b8c77c257c3ca44925ebeaeee8601528347116b50a4ceb51ac2ba429bdf",
    "--series 3 --format csv": "7442e753a50a6171acadadfa87f67c621fcd7dfc371fa327f7297adf7298f72a",
    f"{_GEOMETRY} --format csv": "7442e753a50a6171acadadfa87f67c621fcd7dfc371fa327f7297adf7298f72a",
    "--condition2 false --format csv": "52f86b3fff6cb5997bf1017d03155c12cd01ea4aa54e2e6957c438c4ee311267",
    # The indistinguishability line: only a config with a condition off prints it.
    "--condition2 false --format table": "395f9468677cefa6791a207abd3a7a603154a2c04f85bef3654c00a6f856a1e6",
    "--format json-lines": "8bf4a9296819237122243bf973cc4453a73b96f7c1dc34b087e92ed3c6051eb0",
    "--format table": "3d2b0047320b74404460387458ce15718dd1b843ab9ad1db0a58057207b0c062",
    f"{_GEOMETRY} --format table": "bce256cdf718faef9c010a947d7d380cd7a282bde551e14a18908bb7a42d7786",
    "--series 2 --phi11-deg 10 --phi21-deg 0 --phi22-deg 5 --format csv": (
        "d22627fc3465c8956a5266c1c80ad87b22c0badcc64965163a325239c5543104"
    ),
}


@pytest.mark.parametrize("args", list(GOLDEN_SHA256))
def test_cli_output_is_byte_identical(args: str, capsys: pytest.CaptureFixture) -> None:
    assert main(args.split()) == 0
    stdout = capsys.readouterr().out
    assert hashlib.sha256(stdout.encode()).hexdigest() == GOLDEN_SHA256[args]


_SERIES3 = "--series 3 --format csv"
_FLAT = "--condition2 false --format csv"

# (config file bytes or None, command line, the GOLDEN_SHA256 key whose bytes it prints).
SPELLINGS = (
    # chunk_size is ignored since stream layout v4; variant names ignore case and spaces.
    *((None, f"--chunk-size {size} --format csv", _SERIES3) for size in (1000, 125000)),
    (None, "--variants 'qm, rnl_standard,rnl_alternative' --format csv", _SERIES3),
    # Flags are read like config values.
    *((None, f"--condition2 '{word}' --format csv", _FLAT) for word in ("no", "off", "0", "OFF", "False")),
    *((None, f"--condition2 '{word}' --format csv", _SERIES3) for word in ("true", "yes", "on", "On", "1", " TRUE ")),
    # A byte order mark is dropped, a flag overrides the file, and a # starts a comment.
    (b"\xef\xbb\xbfseries = 2\nseed = 1\n", "--format csv", "--series 2 --format csv"),
    (b"series = 1\nn_events = 1000000\n", "--series 2 --format csv", "--series 2 --format csv"),
    *((text, "--format csv", _SERIES3) for text in (b"seed = 1  # note\n", b"seed = 1#note", b"#note\nseed = 1")),
    (b"length_bs11 = 2\nlength_bs21 = 1\nlength_bs22 = 3\nm11_displacement = 0.5\n", "--format table", f"{_GEOMETRY} --format table"),
)


@pytest.mark.parametrize(("config", "argv", "golden"), SPELLINGS, ids=[f"{c!r} {a}" if c else a for c, a, _ in SPELLINGS])
def test_every_spelling_of_a_golden_run_prints_its_bytes(
    config: bytes | None, argv: str, golden: str, capsys: pytest.CaptureFixture, tmp_path: Path
) -> None:
    _assert_prints_golden(run_cli(capsys, tmp_path, config, argv), golden)


@pytest.mark.parametrize(
    "args",
    [
        "--phi21-deg -4.5e1",
        "--phi21-deg -45.",
        "--phi21-deg -.45e2",
        "--length-bs11 2 --length-bs21 1 --length-bs22 3 --m11-displacement -1.5e-3",
    ],
)
def test_negative_flag_value_in_any_float_form_is_the_default_run(
    args: str, capsys: pytest.CaptureFixture, tmp_path: Path
) -> None:
    # argparse alone takes these values for flags.  Each run is the default
    # one: -45 degrees is the default phase, and the displaced geometry is a
    # series 3 ordering, which the CSV does not tell from the preset.
    _assert_prints_golden(run_cli(capsys, tmp_path, None, f"{args} --format csv"), _SERIES3)


def _assert_prints_golden(result: tuple[int, str, str], golden: str) -> None:
    code, stdout, stderr = result
    assert (code, stderr) == (0, "")
    assert hashlib.sha256(stdout.encode()).hexdigest() == GOLDEN_SHA256[golden]


def test_default_csv_counts_are_the_v5_reference(capsys: pytest.CaptureFixture) -> None:
    # The CSV goldens move with the stream layout alone: the default run's
    # counts are plain numpy's Philox(key=[1, variant index]) multinomial.
    assert main(["--format", "csv"]) == 0
    rows = {row["variant"]: row for row in csv.DictReader(io.StringIO(capsys.readouterr().out))}
    config = RunConfig()
    timing = compare_report(config).timing
    indices = {ModelVariant.QM: 0, ModelVariant.RNL_STANDARD: 1, ModelVariant.RNL_ALTERNATIVE: 2}
    for variant, index in indices.items():
        conditions = dict(condition1=config.condition1, condition2=config.condition2)
        joint = predict(config.settings(), timing, variant, **conditions).joint
        expected, _ = v5_reference(joint, config.seed, config.n_events, variant_index=index)
        row = rows[variant.name]
        assert tuple(int(row[name]) for name in ("R_pp", "R_pm", "R_mp", "R_mm")) == expected


# Config values of accepted runs at rest: the default geometry, a series, or
# lengths from helpers.geometries (ties in every frame at rest); then any subset
# of the other keys, with any finite phase in degrees.
_GEOMETRY_VALUES = st.one_of(
    st.just({}),
    st.integers(1, 3).map(lambda series: {"series": series}),
    geometries(max_beta=0.0).map(
        lambda geometry: {key: getattr(geometry, key) for key in ("length_bs11", "length_bs21", "length_bs22", "m11_displacement")}
    ),
)
_RUN_VALUES = st.fixed_dictionaries(
    {},
    optional={
        **dict.fromkeys(("phi11_deg", "phi21_deg", "phi22_deg"), st.floats(allow_nan=False, allow_infinity=False)),
        "variants": st.lists(st.sampled_from(ModelVariant), min_size=1, unique=True).map(tuple),
        "n_events": st.integers(1, 2**58),  # the sampler's law holds up to here (ROADMAP item 22)
        "seed": st.integers(0, 2**64 - 1),
        "condition1": st.booleans(),
        "condition2": st.booleans(),
    },
)


def _config_file(values: dict[str, object]) -> bytes:
    """The values as a config file, one `key = value` line each."""

    def text(value: object) -> str:
        if isinstance(value, bool):
            return str(value).lower()
        return ",".join(variant.value for variant in value) if isinstance(value, tuple) else repr(value)

    return "".join(f"{key} = {text(value)}\n" for key, value in values.items()).encode()


# The default run, whose counts are plain numpy's Philox(key=[1, variant index])
# multinomial; the decisive settings at 20 000 events, in another variant order
# and at 10^9 events; legs one ulp apart, series 2, that is (b11, a22); and
# phi11 = 1e20 degrees, exactly 280 mod 360, where E is sin 280 degrees.
@example({})
@example({"n_events": 20_000, "seed": 9})
@example({"n_events": 10_000, "seed": 13, "variants": (ModelVariant.RNL_STANDARD, ModelVariant.QM, ModelVariant.RNL_ALTERNATIVE)})
@example({"n_events": 10**9, "seed": 1})
@example({"length_bs11": 1.0, "length_bs21": 2.682, "length_bs22": math.nextafter(2.682, math.inf)})
@example({"phi11_deg": 1e20, "phi21_deg": 0.0, "phi22_deg": 90.0})
@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])  # run_cli reads both fixtures afresh
@given(st.builds(lambda geometry, run: {**geometry, **run}, _GEOMETRY_VALUES, _RUN_VALUES))
def test_cli_runs_print_the_reference_rows(
    capsys: pytest.CaptureFixture, tmp_path: Path, values: dict[str, object]
) -> None:
    """`rnlsim --format csv` ends as helpers.reference_rows allows, and prints its rows.

    A refusal names a comparison the oracle allows.  A run prints one row per
    configured variant, in order: the variant, series and phase columns as
    the oracle has them, e_analytic within ATOL of its E, and the counts,
    e_hat and stderr of a table whose correlation is the printed e_analytic,
    bit for bit.
    """
    code, out, err = run_cli(capsys, tmp_path, _config_file(values), "--format csv")
    outcomes = reference_rows(values)
    assert code in outcomes, err
    if code == 3:
        comparison, _, reason = err.removeprefix("error: ").partition(": ")
        assert out == "" and "guard band" in reason and comparison in outcomes[3]
        return
    assert err == ""
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == len(outcomes[0])
    for row, reference in zip(rows, outcomes[0]):
        assert {key: row[key] for key in reference.printed} == reference.printed
        e_analytic = float(row["e_analytic"])
        assert abs(e_analytic - reference.e_analytic) <= ATOL
        assert {key: row[key] for key in SAMPLED_COLUMNS} in reference.sampled(e_analytic)


# sha256 of `rnlsim --help` at 80 columns: the flags generated from the key table.
HELP_SHA256 = "f2346d0f2a603cd5bdd8fa32bbb67a9c1f7770948ab3ea03cacd573c2195bf35"


def test_cli_help_is_byte_identical(monkeypatch: pytest.MonkeyPatch) -> None:
    monkeypatch.setenv("COLUMNS", "80")
    help_text = build_parser().format_help()
    assert hashlib.sha256(help_text.encode()).hexdigest() == HELP_SHA256


def test_every_config_key_is_a_flag() -> None:
    parser = build_parser()
    assert list(vars(parser.parse_args([]))) == ["config", *KEY_TABLE, "out", "format"]
    for key in KEY_TABLE:
        args = parser.parse_args(["--" + key.replace("_", "-"), "1"])
        assert getattr(args, key) == "1"


def test_readme_claim_table_names_existing_tests() -> None:
    # A renamed or deleted test must not leave a paper claim without its owner.
    section = (ROOT / "README.md").read_text().split("## Install and test", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| ") and "`tests/" in line]
    assert len(rows) >= 9
    for row in rows:
        owners = re.findall(r"`(tests/\w+\.py)::(\w+)`", row)
        assert owners and row.count("::") == len(owners), row
        for path, name in owners:
            tree = ast.parse((ROOT / path).read_text())
            tests = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
            assert name.startswith("test_") and name in tests, f"{path}::{name}"


# sha256 of the repr of every predict(...).joint over _table_grid(), one per line.
TABLE_GRID_SHA256 = "3c47f5dcf890e2fbd99d6a7e3b26fd69be6be02602d25b2b9eb0b65068c242ac"


# The pairings the hash was taken over, sorted by label value.  (a11[21], b22)
# came later and is pinned by test_a11_21_b22_tables_are_exactly_flat.
_GRID_PAIRINGS = (
    (PhotonOneLabel.A11_21, PhotonTwoLabel.A22),
    (PhotonOneLabel.A11_21, PhotonTwoLabel.B21),
    (PhotonOneLabel.A11_22, PhotonTwoLabel.A22),
    (PhotonOneLabel.A11_22, PhotonTwoLabel.B22),
    (PhotonOneLabel.B11, PhotonTwoLabel.A22),
    (PhotonOneLabel.B11, PhotonTwoLabel.B21),
    (PhotonOneLabel.B11, PhotonTwoLabel.B22),
)
_CONDITION_PAIRS = tuple(itertools.product((True, False), repeat=2))


def _grid_settings() -> list[PhaseSettings]:
    rng = random.Random(1997)
    return [
        PhaseSettings(*(rng.uniform(-2.0 * math.pi, 2.0 * math.pi) for _ in range(3)))
        for _ in range(32)
    ]


def _table_grid() -> list[str]:
    lines = []
    for phases, (label1, label2), variant, (condition1, condition2) in itertools.product(
        _grid_settings(), _GRID_PAIRINGS, ModelVariant, _CONDITION_PAIRS
    ):
        timing = TimingAssignment(label1, label2)
        joint = predict(phases, timing, variant, condition1=condition1, condition2=condition2).joint
        lines.append(repr(joint))
    return lines


def test_prediction_tables_are_bit_identical() -> None:
    lines = _table_grid()
    assert len(lines) == 32 * 7 * 3 * 4
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == TABLE_GRID_SHA256


def test_a11_21_b22_tables_are_exactly_flat() -> None:
    # Also the two non-before pairings; RNL_ALTERNATIVE keeps the quantum
    # table on (a11[21], a22).
    flat = symmetric_joint(0.0)
    cases = (
        (PhotonOneLabel.A11_21, PhotonTwoLabel.B22, ModelVariant.RNL_STANDARD),
        (PhotonOneLabel.A11_21, PhotonTwoLabel.B22, ModelVariant.RNL_ALTERNATIVE),
        (PhotonOneLabel.A11_22, PhotonTwoLabel.A22, ModelVariant.RNL_STANDARD),
        (PhotonOneLabel.A11_22, PhotonTwoLabel.A22, ModelVariant.RNL_ALTERNATIVE),
        (PhotonOneLabel.A11_21, PhotonTwoLabel.A22, ModelVariant.RNL_STANDARD),
    )
    for (label1, label2, variant), phases, (condition1, condition2) in itertools.product(
        cases, _grid_settings(), _CONDITION_PAIRS
    ):
        timing = TimingAssignment(label1, label2)
        joint = predict(phases, timing, variant, condition1=condition1, condition2=condition2).joint
        assert joint == flat
