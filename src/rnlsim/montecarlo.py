"""Deterministic Monte Carlo coincidence counting.

Each variant owns one Philox (counter-based) stream whose 128-bit key is
the pair (seed, variant index), so a variant's counts do not depend on which
other variants run.  A variant's events are one multinomial draw over its
4-cell table from that stream.  Drawing them in pieces would not change
their law below about 2^61 events; above it, numpy's int64 binomial
overflows and the one draw's counts stray from the table's law.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import require_int
from .quantum import JointDistribution

# Names the RNG stream layout: the counts printed for a given seed change
# whenever this does.
STREAM_LAYOUT = "philox(key=(seed,variant))+multinomial/v5"
# Largest n_events and chunk_size: the sampler counts in numpy int64.
MAX_EVENTS = 2**63 - 1
MAX_KEY_WORD = 2**64 - 1  # largest seed and variant_index: one 64-bit Philox key word each


@dataclass(frozen=True)
class CoincidenceCounts:
    """Coincidence counts per outcome pair, photon-1 outcome first."""

    r_pp: int
    r_pm: int
    r_mp: int
    r_mm: int

    def __post_init__(self) -> None:
        for name in ("r_pp", "r_pm", "r_mp", "r_mm"):
            object.__setattr__(self, name, require_int(name, getattr(self, name), 0, MAX_EVENTS))

    @property
    def n_total(self) -> int:
        return self.r_pp + self.r_pm + self.r_mp + self.r_mm

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.r_pp, self.r_pm, self.r_mp, self.r_mm)


@dataclass(frozen=True)
class EstimatorResult:
    e_hat: float
    stderr: float


def _philox_state(seed: int, variant_index: int) -> dict:
    """Philox's state at the start of the stream keyed (seed, variant_index), one 64-bit word each."""
    seed = require_int("seed", seed, 0, MAX_KEY_WORD)
    variant_index = require_int("variant_index", variant_index, 0, MAX_KEY_WORD)
    return {
        "bit_generator": "Philox", "state": {"counter": (0, 0, 0, 0), "key": (seed, variant_index)},
        "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }


@functools.cache  # built on first use, so `import rnlsim` does not import numpy.random
def _shared_stream() -> tuple[np.random.Philox, np.random.Generator, threading.Lock]:
    """The Philox that sample_counts re-keys for every draw, its Generator, and their lock.

    A Philox stream is a pure function of (key, counter), so writing a stream's
    start state gives that stream bit for bit, and no generator is built per draw.
    """
    bitgen = np.random.Philox(0)
    return bitgen, np.random.Generator(bitgen), threading.Lock()


def sample_counts(
    joint: JointDistribution,
    *,
    seed: int,
    variant_index: int,
    n_events: int,
    chunk_size: int = MAX_EVENTS,
) -> CoincidenceCounts:
    """Draw n_events pairs as one multinomial over the table's nonzero cells.

    The draw re-keys one shared Philox to _philox_state(seed, variant_index)
    under a lock, so from any thread the counts are
    Generator(Philox(key=np.array([seed, variant_index], dtype=np.uint64))).multinomial(n_events, p):
    a pure function of (joint, seed, variant_index, n_events).  chunk_size
    is range-checked and otherwise ignored since stream layout v4.
    """
    n_events = require_int("n_events", n_events, 1, MAX_EVENTS)
    require_int("chunk_size", chunk_size, 1, MAX_EVENTS)
    table = (joint.p_pp, joint.p_pm, joint.p_mp, joint.p_mm)
    # Only nonzero cells are drawn, so a zero cell can never take the
    # remainder numpy hands to the last cell.  Renormalising absorbs the
    # PROB_ATOL slack that numpy's sum(p[:-1]) <= 1 + 1e-12 check rejects.
    # The total is summed left to right, as numpy sums four or fewer floats.
    cells = [cell for cell, q in enumerate(table) if q]
    total = 0.0
    for cell in cells:
        total += table[cell]
    p = [table[cell] / total for cell in cells]
    state = _philox_state(seed, variant_index)
    bitgen, generator, lock = _shared_stream()
    with lock:
        bitgen.state = state
        drawn = generator.multinomial(n_events, p)
    counts = [0, 0, 0, 0]
    for cell, count in zip(cells, drawn.tolist()):
        counts[cell] = count
    return CoincidenceCounts(*counts)


def correlation_stderr(e: float, n: int) -> float:
    """sqrt((1 - e^2) / n): the binomial stderr of n outcome products of mean e; |e| > 1 is a ValueError."""
    return math.sqrt((1.0 - e * e) / n)


def estimate_correlation(counts: CoincidenceCounts) -> EstimatorResult:
    """Correlation estimate e_hat = (R_pp - R_pm - R_mp + R_mm) / n, with correlation_stderr(e_hat, n)."""
    n = counts.n_total
    if n < 1:
        raise ValueError("cannot estimate a correlation from zero counts")
    e_hat = (counts.r_pp - counts.r_pm - counts.r_mp + counts.r_mm) / n
    return EstimatorResult(e_hat=e_hat, stderr=correlation_stderr(e_hat, n))

