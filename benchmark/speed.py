"""Host speed reference: a fixed pure-Python kernel timed between operations.

The host shares its cores with other tenants, and its speed drifts by 20%
or more over minutes, so two runs of identical work can differ by that much.
The benchmark times this kernel, which calls nothing from pauliflow, about
once a second between operations.  It scales each run's times to the speed
at which the kernel takes REFERENCE_S.  A change to pauliflow moves the
scaled times in full; a change in host speed slows the kernel as well and
cancels.  Raw times stay in the run's record.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction
from typing import List

REFERENCE_S = 0.025  # the kernel's time at the speed reported times refer to
INTERVAL_S = 1.0  # wall time between samples
MAX_SAMPLES = 4  # samples taken in one gap between operations


def _kernel_inputs():
    rng = random.Random(0)
    rows = [rng.getrandbits(96) for _ in range(96)]
    sets = [frozenset(rng.sample(range(200), 20)) for _ in range(60)]
    fracs = [Fraction(rng.randrange(1, 16), rng.choice((3, 4, 5, 8))) for _ in range(60)]
    return rows, sets, fracs


_ROWS, _SETS, _FRACS = _kernel_inputs()


def kernel():
    """GF(2) elimination on big-integer rows, frozenset algebra and exact
    fractions: the kinds of work the library's hot loops do."""
    rows, rank = list(_ROWS), 0
    for col in range(96):
        bit = 1 << col
        pivot = next((i for i in range(rank, len(rows)) if rows[i] & bit), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i] & bit:
                rows[i] ^= rows[rank]
        rank += 1
    acc = frozenset()
    for a in _SETS:
        for b in _SETS:
            acc = (acc ^ (a & b)) | (a - b) if len(acc) < 50 else a ^ b
    return rank, len(acc), sum(_FRACS, Fraction(0))


class SpeedProbe:
    """Kernel times taken during a pass, and the scale they imply."""

    def __init__(self):
        self.samples: List[float] = []
        self._last = 0.0

    def sample(self) -> None:
        t0 = time.perf_counter()
        kernel()
        self._last = time.perf_counter()
        self.samples.append(self._last - t0)

    def maybe_sample(self) -> None:
        """One sample per INTERVAL_S elapsed since the last, up to MAX_SAMPLES."""
        due = min(MAX_SAMPLES, int((time.perf_counter() - self._last) / INTERVAL_S))
        for _ in range(due if self.samples else 1):
            self.sample()

    def scale(self) -> float:
        """Factor that turns this pass's raw times into reference-speed times."""
        return REFERENCE_S / statistics.mean(self.samples)
