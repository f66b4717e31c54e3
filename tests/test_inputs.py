"""Every refusal by errors.py's require_finite, require_int and require_flag, and what is kept of what they accept.

Each row of INPUTS names a public entry point and its arguments of one kind.  Each bad value of the
kind must be refused with exactly the check's message, which names the argument, as a ValueError (a
ConfigError from RunConfig).  Each accepted value must be kept as the plain float, int or bool it
stands for, and a RunConfig that took one must render as the plain one does.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import math
from collections.abc import Callable
from fractions import Fraction
from typing import NamedTuple

import numpy as np
import pytest

from helpers import KEY_SETTINGS, for_series
from rnlsim import (
    CoincidenceCounts,
    ConfigError,
    ExperimentGeometry,
    JointDistribution,
    ModelVariant,
    PhaseSettings,
    PhotonOneLabel,
    PhotonTwoLabel,
    RunConfig,
    TimingAssignment,
    compare_report,
    predict,
    render_csv,
    render_json_lines,
    render_table,
    sample_counts,
    series_preset,
    symmetric_joint,
)
from rnlsim.montecarlo import MAX_EVENTS, MAX_KEY_WORD


class Kind(NamedTuple):
    bad: tuple
    good: tuple
    plain: type  # what an accepted value is kept as
    message: Callable[[str, object], str]  # the refusal of a bad value, given the argument's name


# Bools, numpy's too, are no numbers: True would run as 1.
_NOT_NUMBERS = (True, False, np.True_, np.False_)


def real(*good: object) -> Kind:
    return Kind(
        (*_NOT_NUMBERS, "0.5", "half", b"0.5", None, 1j, math.nan, math.inf, -math.inf),
        good or (1, np.int64(1), np.float64(0.5), np.float32(0.5), Fraction(1, 2)),
        float,
        lambda name, value: f"{name} must be {'finite' if isinstance(value, float) else 'a real number'}, got {value!r}",
    )


def integer(low: int, high: int, *good: object) -> Kind:
    # An in-range float would run as that integer, and print as a float.
    return Kind(
        (*_NOT_NUMBERS, 2.5, float(low), float(low + 1), float(high), "1", -1, low - 1, high + 1),
        good or (np.int64(low), np.uint64(high)),
        int,
        lambda name, value: f"{name} must be {f'in [{low}, {high}]' if type(value) is int else 'an integer'}, got {value!r}",
    )


# A truthy "false" would run with the flag on.
FLAG = Kind(
    ("false", "true", "no", 0, 1, None, np.True_, np.False_),
    (True, False),
    bool,
    lambda name, value: f"{name} must be true or false, got {value!r}",
)
REAL, KEY_WORD, EVENTS, SERIES = real(), integer(0, MAX_KEY_WORD), integer(1, MAX_EVENTS), integer(1, 3)

GEOMETRY = {"length_bs11": 2.0, "length_bs21": 0.25, "length_bs22": 4.0}
SAMPLING = {"joint": symmetric_joint(0.0), "seed": 1, "variant_index": 0, "n_events": 10, "chunk_size": 10}
PAIRING = {"label1": PhotonOneLabel.B11, "label2": PhotonTwoLabel.A22}  # series 2, either bs21_before
# Series 3 is a flat stage under RNL_STANDARD, which reads neither condition: they are refused all the same.
FLAT_STAGE = {"settings": KEY_SETTINGS, "timing": for_series(3), "variant": ModelVariant.RNL_STANDARD}
INPUTS = [  # entry point, valid values of its other arguments, kind, its arguments of that kind
    (PhaseSettings, {"phi11": 0.1, "phi21": 0.2, "phi22": 0.3}, REAL, "phi11 phi21 phi22"),
    (PhaseSettings.from_degrees, {"phi11_deg": 1.0, "phi21_deg": 2.0, "phi22_deg": 3.0}, REAL, "phi11_deg phi21_deg phi22_deg"),
    (ExperimentGeometry, GEOMETRY, REAL, "length_bs11 length_bs21 length_bs22 m11_displacement"),
    (ExperimentGeometry, GEOMETRY, real(0, np.int64(0), np.float32(-0.5), Fraction(1, 2)), "beta_bs11 beta_bs21 beta_bs22"),
    # The other cells are 0, so each accepted value is 1.
    (JointDistribution, dict.fromkeys(["p_pp", "p_pm", "p_mp", "p_mm"], 0.0), real(1, np.float64(1), Fraction(1)), "p_pp p_pm p_mp p_mm"),
    (CoincidenceCounts, dict.fromkeys(["r_pp", "r_pm", "r_mp", "r_mm"], 0), integer(0, MAX_EVENTS), "r_pp r_pm r_mp r_mm"),
    (sample_counts, SAMPLING, KEY_WORD, "seed variant_index"),
    (sample_counts, SAMPLING, EVENTS, "n_events chunk_size"),
    (series_preset, {}, SERIES, "series"),
    (TimingAssignment, PAIRING, FLAG, "bs21_before"),
    (predict, FLAT_STAGE, FLAG, "condition1 condition2"),
    (RunConfig, {"n_events": 100}, REAL, "phi11_deg phi21_deg phi22_deg"),
    (RunConfig, {"n_events": 100}, SERIES, "series"),
    (RunConfig, {"n_events": 100}, KEY_WORD, "seed"),
    (RunConfig, {"n_events": 100}, EVENTS, "n_events chunk_size"),
    (RunConfig, {"n_events": 100}, FLAG, "condition1 condition2"),
]
CASES = [
    pytest.param(entry, defaults, arg, kind, id=f"{entry.__qualname__}-{arg}")
    for entry, defaults, kind, args in INPUTS
    for arg in args.split()
]


def _kept(result: object) -> list:
    """What a result keeps: each field with its type."""
    return [(type(value), value) for value in (getattr(result, field.name) for field in dataclasses.fields(result))]


@pytest.mark.parametrize("entry, defaults, arg, kind", CASES)
def test_every_bad_value_is_refused_by_name(entry: Callable, defaults: dict, arg: str, kind: Kind) -> None:
    for value in kind.bad:
        try:
            entry(**{**defaults, arg: value})
        except ValueError as error:
            expected = ConfigError if entry is RunConfig else ValueError
            assert (type(error), str(error)) == (expected, kind.message(arg, value))
        else:
            pytest.fail(f"{arg}={value!r} was accepted")


@pytest.mark.parametrize("entry, defaults, arg, kind", CASES)
def test_every_accepted_value_is_kept_as_its_plain_value(entry: Callable, defaults: dict, arg: str, kind: Kind) -> None:
    for value in kind.good:
        result, plain = (entry(**{**defaults, arg: given}) for given in (value, kind.plain(value)))
        assert _kept(result) == _kept(plain), value
        if entry is RunConfig:
            report, plain_report = compare_report(result), compare_report(plain)
            for render in (render_csv, render_json_lines, render_table):
                assert render(report) == render(plain_report), (render.__name__, value)
            row = next(csv.DictReader(io.StringIO(render_csv(report))))
            if arg in row:  # the phases and the series
                assert float(row[arg]) == float(value)
