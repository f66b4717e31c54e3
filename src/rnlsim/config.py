"""Run configuration: the RunConfig dataclass and the flat key = value file format."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError, require_flag, require_int
from .montecarlo import MAX_EVENTS, MAX_KEY_WORD
from .quantum import PhaseSettings
from .rnl import ModelVariant
from .timing import ExperimentGeometry, series_preset

_GEOMETRY_LENGTH_KEYS = ("length_bs11", "length_bs21", "length_bs22")
_GEOMETRY_KEYS = (*_GEOMETRY_LENGTH_KEYS, "m11_displacement")


@dataclass(frozen=True)
class RunConfig:
    """Everything one comparison run needs; equal configs give identical output.

    Exactly one of series (preset geometry) and geometry (explicit lengths)
    must be set.  condition1/condition2 are the two indistinguishability
    assumptions; turning one off flattens the affected quantum table.
    """

    phi11_deg: float = 45.0
    phi21_deg: float = -45.0
    phi22_deg: float = 90.0
    series: int | None = 3
    geometry: ExperimentGeometry | None = None
    variants: tuple[ModelVariant, ...] = tuple(ModelVariant)
    n_events: int = 1_000_000
    seed: int = 1
    chunk_size: int = 125_000
    condition1: bool = True
    condition2: bool = True

    def __post_init__(self) -> None:
        # Only checks inside: a ValueError from anywhere else is no config error.
        try:
            # Not a field, so out of __eq__, __hash__, __repr__; the phase fields
            # stay as given, since the CSV prints them.
            settings = PhaseSettings.from_degrees(self.phi11_deg, self.phi21_deg, self.phi22_deg)
            object.__setattr__(self, "_settings", settings)
            if (self.series is None) == (self.geometry is None):
                raise ValueError("series and geometry are mutually exclusive, and one must be set")
            if self.series is not None:
                require_int("series", self.series, 1, 3)
            if self.geometry is not None and not isinstance(self.geometry, ExperimentGeometry):
                raise ValueError("geometry must be an ExperimentGeometry")
            if not self.variants:
                raise ValueError("variants must not be empty")
            if len(set(self.variants)) != len(self.variants):
                raise ValueError("variants must not repeat")
            for variant in self.variants:
                if not isinstance(variant, ModelVariant):
                    raise ValueError(f"unknown variant {variant!r}")
            require_int("seed", self.seed, 0, MAX_KEY_WORD)
            require_int("n_events", self.n_events, 1, MAX_EVENTS)
            require_int("chunk_size", self.chunk_size, 1, MAX_EVENTS)
            require_flag("condition1", self.condition1)
            require_flag("condition2", self.condition2)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def settings(self) -> PhaseSettings:
        return self._settings

    def resolve_geometry(self) -> ExperimentGeometry:
        if self.geometry is not None:
            return self.geometry
        return series_preset(self.series)


def _parse_int(key: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {text!r}") from None


def _parse_float(key: str, text: str) -> float:
    # inf and nan pass: RunConfig and ExperimentGeometry refuse them.
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {text!r}") from None


def _parse_bool(key: str, text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"{key}: expected true or false, got {text!r}")


def _parse_variants(key: str, text: str) -> tuple[ModelVariant, ...]:
    """Comma-separated variant names, case-insensitive."""
    names = [part.strip() for part in text.split(",") if part.strip()]
    if not names:
        raise ConfigError(f"{key}: no variant named in {text!r}")
    by_name = {variant.value.lower(): variant for variant in ModelVariant}
    variants = []
    for name in names:
        variant = by_name.get(name.lower())
        if variant is None:
            raise ConfigError(f"{key}: unknown variant {name!r}")
        variants.append(variant)
    return tuple(variants)


# The complete config vocabulary, in --help order: each key's parser and the
# help text of its command line flag --key-with-dashes.  Anything else in a
# file is an error.
KEY_TABLE = {
    "series": (_parse_int, "preset geometry: lab ordering series 1, 2 or 3"),
    "length_bs11": (_parse_float, "photon 1 path length in m"),
    "length_bs21": (_parse_float, "photon 2 first leg in m"),
    "length_bs22": (_parse_float, "photon 2 full path in m"),
    "m11_displacement": (_parse_float, "extra photon 1 path from displacing mirror M11, in m"),
    "phi11_deg": (_parse_float, "phase at BS11 in degrees"),
    "phi21_deg": (_parse_float, "phase before BS21 in degrees"),
    "phi22_deg": (_parse_float, "phase before BS22 in degrees"),
    "variants": (_parse_variants, "comma-separated subset of QM, RNL_STANDARD, RNL_ALTERNATIVE"),
    "n_events": (_parse_int, "coincidences per variant"),
    "seed": (_parse_int, "64-bit unsigned master seed"),
    "chunk_size": (_parse_int, "ignored since stream layout v4 (1 to 2^63 - 1)"),
    "condition1": (
        _parse_bool,
        "pairs indistinguishable at the intermediate detection stage (true or false)",
    ),
    "condition2": (_parse_bool, "paths unknowable after the final splitter (true or false)"),
}
CONFIG_KEYS = tuple(KEY_TABLE)


def parse_value(key: str, text: str) -> object:
    """The typed value of one config key, from a file line or a command line flag."""
    return KEY_TABLE[key][0](key, text)


def parse_config_file(path: Path | str) -> dict[str, object]:
    """Read a flat `key = value` file into typed values.

    A # starts a comment that ends with its line; blank lines are skipped.
    Unknown keys, repeated keys and malformed values are all ConfigErrors.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8-sig")  # a leading byte order mark is dropped
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from None
    values: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.partition("#")[0].strip()  # no valid value contains a #
        if not stripped:
            continue
        key, sep, raw = stripped.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key = key.strip()
        raw = raw.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: repeated key {key!r}")
        if not raw:
            raise ConfigError(f"{path}:{lineno}: empty value for {key!r}")
        values[key] = parse_value(key, raw)
    return values


def build_run_config(values: dict[str, object]) -> RunConfig:
    """Assemble a RunConfig from typed config values; RunConfig supplies the defaults.

    Explicit geometry lengths must come as a complete triple; RunConfig
    refuses them together with a series id.
    """
    unknown = set(values) - set(CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)!r}")
    length_keys = [key for key in _GEOMETRY_LENGTH_KEYS if key in values]
    if length_keys and len(length_keys) < len(_GEOMETRY_LENGTH_KEYS):
        missing = sorted(set(_GEOMETRY_LENGTH_KEYS) - set(length_keys))
        raise ConfigError(f"explicit geometry needs all three lengths, missing {missing!r}")
    if "m11_displacement" in values and not length_keys:
        raise ConfigError("m11_displacement requires explicit geometry lengths")

    fields = {key: value for key, value in values.items() if key not in _GEOMETRY_KEYS}
    if length_keys:
        try:
            fields["geometry"] = ExperimentGeometry(
                **{key: values[key] for key in _GEOMETRY_KEYS if key in values}
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        fields.setdefault("series", None)
    return RunConfig(**fields)
