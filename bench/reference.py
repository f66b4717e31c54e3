"""Brute-force timing labels, written apart from rnlsim.timing.

Every impact sits on the optical axis at x = -l (photon 1) or x = +l
(photon 2) and t = l / c.  The reference Lorentz-boosts the three impacts
into each splitter's frame, evaluates the four orderings the paper's labels
are defined by, and then tries both outcomes of every ordering whose frame
times differ by less than the guard band.  A point is a true near-tie when
one of those flips changes the assignment (label1, label2, bs21_before);
only such points may be refused as ambiguous.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

C = 299_792_458.0
GUARD_S = 1e-15


def frame_time(t: float, x: float, beta: float) -> float:
    gamma = 1.0 / math.sqrt(1.0 - beta * beta)
    return gamma * (t - beta * x / C)


@dataclass(frozen=True)
class ReferenceLabels:
    assignment: tuple[str, str, bool]  # (label1, label2, bs21_before)
    near_tie: bool
    gaps_s: tuple[float, float, float, float]

    @property
    def pairing(self) -> tuple[str, str]:
        return self.assignment[:2]


def _assignment(bs11_before_21: bool, bs11_before_22: bool, bs21_before: bool, bs22_before: bool):
    # Ties count as non-before, so every flag is a strict "earlier than".
    if bs11_before_21:
        label1 = "b11"
    elif bs11_before_22:
        label1 = "a11[21]"
    else:
        label1 = "a11[22]"
    label2 = "b22" if (bs21_before and bs22_before) else "a22"
    return (label1, label2, bs21_before)


def reference_labels(
    l11: float,
    l21: float,
    l22: float,
    beta11: float = 0.0,
    beta21: float = 0.0,
    beta22: float = 0.0,
    guard_s: float = GUARD_S,
) -> ReferenceLabels:
    """Labels for impacts at photon-1 path l11 and photon-2 paths l21, l22 (m)."""
    bs11 = (l11 / C, -l11)
    bs21 = (l21 / C, l21)
    bs22 = (l22 / C, l22)
    # Positive gap: the first-named impact is earlier in the named frame.
    gaps = (
        frame_time(*bs21, beta11) - frame_time(*bs11, beta11),  # BS11 vs BS21, BS11 frame
        frame_time(*bs22, beta11) - frame_time(*bs11, beta11),  # BS11 vs BS22, BS11 frame
        frame_time(*bs11, beta21) - frame_time(*bs21, beta21),  # BS21 vs BS11, BS21 frame
        frame_time(*bs11, beta22) - frame_time(*bs22, beta22),  # BS22 vs BS11, BS22 frame
    )
    assignment = _assignment(*(gap > 0.0 for gap in gaps))
    choices = [(True, False) if abs(gap) < guard_s else (gap > 0.0,) for gap in gaps]
    near_tie = any(_assignment(*flags) != assignment for flags in itertools.product(*choices))
    return ReferenceLabels(assignment=assignment, near_tie=near_tie, gaps_s=gaps)
