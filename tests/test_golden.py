"""Byte-identical CLI output at fixed configs, and bit-identical tables.

A refactor must leave these hashes alone.  The CLI hashes cover the analytic
columns and the sampled counts, so a change to the RNG stream layout
(montecarlo.STREAM_LAYOUT) or to numpy's multinomial sampler changes them
too; such a change must update them and say so in CHANGES.md.  All CLI
configs but one use phases 45/-45/90, where every E is exactly 0 or 1; the
one at 10/0/5 reports an e_analytic (the table's correlation) that differs
from the closed-form E in its last digits, so it pins that rounding.  The
table hash pins every rule at seeded float phases as well.  The flat pairings, two non-before impacts
included, are exactly flat by construction: their stage is flat, and predict
returns the flat table itself.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
from pathlib import Path

import pytest

from rnlsim import (
    ModelVariant,
    PhaseSettings,
    PhotonOneLabel,
    PhotonTwoLabel,
    TimingAssignment,
    predict,
    symmetric_joint,
)
from rnlsim.cli import build_parser, main
from rnlsim.config import CONFIG_KEYS

GOLDEN_SHA256 = {
    "--series 1 --format csv": "7ab82ca749c7a150e14bff82e927f81cba4ec58cd76d96184216f5c1b9b3b711",
    "--series 2 --format csv": "5984e80535f50a7ef58b84844c66db9520668b673d5db9600cf94738049ccf81",
    "--series 3 --format csv": "5f6f6588e4fb18229c02d624f9d767c0c962d6785483b25218a173f5a28b767d",
    "--length-bs11 2 --length-bs21 1 --length-bs22 3 --m11-displacement 0.5 --format csv": (
        "5f6f6588e4fb18229c02d624f9d767c0c962d6785483b25218a173f5a28b767d"
    ),
    "--condition2 false --format csv": "b88f197a1a0a4f4ed25fa26e2f61549030630cc46758a155dfea37323ec16410",
    "--format json-lines": "fe1a3fddd540e07c80c0b8947bd3619c54e1de091769b0d252d907ad5a399703",
    "--format table": "2736539aad67c398e0bc8c7a2365cf515423326152e51013eaac0526290d2abb",
    "--length-bs11 2 --length-bs21 1 --length-bs22 3 --m11-displacement 0.5 --format table": (
        "5b8b68e82ccbc65200cd84c35fb66218770d50fd939d192692dace3c4ebe83bd"
    ),
    "--series 2 --phi11-deg 10 --phi21-deg 0 --phi22-deg 5 --format csv": (
        "2d7da9bc1dfce6398b59bfb0932712c0795e3a6decd5bc3f28a21c9fa7473e38"
    ),
}


@pytest.mark.parametrize("args", list(GOLDEN_SHA256))
def test_cli_output_is_byte_identical(args: str, capsys: pytest.CaptureFixture) -> None:
    assert main(args.split()) == 0
    stdout = capsys.readouterr().out
    assert hashlib.sha256(stdout.encode()).hexdigest() == GOLDEN_SHA256[args]


# sha256 of `rnlsim --help` at 80 columns: the flags generated from the key table.
HELP_SHA256 = "f2346d0f2a603cd5bdd8fa32bbb67a9c1f7770948ab3ea03cacd573c2195bf35"


def test_cli_help_is_byte_identical(monkeypatch: pytest.MonkeyPatch) -> None:
    monkeypatch.setenv("COLUMNS", "80")
    help_text = build_parser().format_help()
    assert hashlib.sha256(help_text.encode()).hexdigest() == HELP_SHA256


def test_every_config_key_is_a_flag() -> None:
    parser = build_parser()
    assert list(vars(parser.parse_args([]))) == ["config", *CONFIG_KEYS, "out", "format"]
    for key in CONFIG_KEYS:
        args = parser.parse_args(["--" + key.replace("_", "-"), "1"])
        assert getattr(args, key) == "1"


def test_readme_config_block_lists_the_config_keys() -> None:
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("### Config file", 1)[1].split("```", 2)[1]
    keys = [line.split("=", 1)[0].strip() for line in block.splitlines() if "=" in line]
    assert tuple(keys) == CONFIG_KEYS


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
