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
MAX_CONFIG_BYTES = 64 * 1024  # the longest config file read; a complete one is under 1 KiB


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
            settings = PhaseSettings.from_degrees(self.phi11_deg, self.phi21_deg, self.phi22_deg)
            for name in ("phi11_deg", "phi21_deg", "phi22_deg"):  # from_degrees accepted each one
                object.__setattr__(self, name, float(getattr(self, name)))
            object.__setattr__(self, "_settings", settings)  # no field, so out of __eq__, __hash__, __repr__
            if (self.series is None) == (self.geometry is None):
                raise ValueError("series and geometry are mutually exclusive, and one must be set")
            geometry = self.geometry if self.series is None else series_preset(self.series)
            if self.series is not None:  # series_preset made the one check: keep the id as a plain int
                object.__setattr__(self, "series", int(self.series))
            object.__setattr__(self, "_geometry", geometry)
            if not isinstance(geometry, ExperimentGeometry):
                raise ValueError("geometry must be an ExperimentGeometry")
            # Before set(): it and hash(config) raise TypeError on a list or on a tuple holding one.
            if not isinstance(self.variants, tuple) or {type(v) for v in self.variants} - {ModelVariant}:
                raise ValueError(f"variants must be a tuple of ModelVariant members, got {self.variants!r}")
            if not self.variants:
                raise ValueError("variants must not be empty")
            if len(set(self.variants)) != len(self.variants):
                raise ValueError("variants must not repeat")
            object.__setattr__(self, "seed", require_int("seed", self.seed, 0, MAX_KEY_WORD))
            object.__setattr__(self, "n_events", require_int("n_events", self.n_events, 1, MAX_EVENTS))
            object.__setattr__(self, "chunk_size", require_int("chunk_size", self.chunk_size, 1, MAX_EVENTS))
            require_flag("condition1", self.condition1)
            require_flag("condition2", self.condition2)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def settings(self) -> PhaseSettings:
        return self._settings

    def resolve_geometry(self) -> ExperimentGeometry:
        """The geometry resolved at construction: the series preset, or geometry as given."""
        return self._geometry


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
    names = [part.strip() for part in text.split(",") if part.strip()]  # none: RunConfig refuses ()
    by_name = {variant.value.lower(): variant for variant in ModelVariant}
    variants = []
    for name in names:
        variant = by_name.get(name.lower())
        if variant is None:
            raise ConfigError(f"{key}: unknown variant {name!r}")
        variants.append(variant)
    return tuple(variants)


# The complete config vocabulary, in --help order: each key's parser, the one
# reader of its text (an empty one too), and the help text of its command line
# flag --key-with-dashes.  Anything else in a file is an error.
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


def parse_config_file(path: Path | str) -> dict[str, object]:
    """Read a flat `key = value` file into typed values.

    A # starts a comment that ends with its line; blank lines are skipped.
    Files over MAX_CONFIG_BYTES, unknown keys, repeated keys and malformed
    values are all ConfigErrors.
    """
    path = Path(path)
    with path.open("rb") as file:
        data = file.read(MAX_CONFIG_BYTES + 1)  # bounded: /dev/zero or a FIFO cannot fill memory
    if len(data) > MAX_CONFIG_BYTES:
        raise ConfigError(f"{path}: longer than {MAX_CONFIG_BYTES} bytes")
    try:
        text = data.decode("utf-8-sig")  # a leading byte order mark is dropped
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
        if key not in KEY_TABLE:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: repeated key {key!r}")
        values[key] = KEY_TABLE[key][0](key, raw)
    return values


def build_run_config(values: dict[str, object]) -> RunConfig:
    """Assemble a RunConfig from typed config values; RunConfig supplies the defaults.

    Explicit geometry lengths must come as a complete triple; RunConfig
    refuses them together with a series id.
    """
    unknown = set(values) - set(KEY_TABLE)
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
