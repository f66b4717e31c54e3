"""Exception types shared across the package, and the finiteness check."""

from __future__ import annotations

import math

import numpy as np

# Refused where a number is expected: float() would take True as 1.
BOOL_TYPES = (bool, np.bool_)


class ConfigError(ValueError):
    """Invalid run configuration: unknown key, bad value, or inconsistent inputs."""


class AmbiguousScheduleError(ValueError):
    """Two impact times fall inside the guard band, so no reliable ordering exists."""


def require_finite(name: str, value: float) -> float:
    if isinstance(value, BOOL_TYPES):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value
