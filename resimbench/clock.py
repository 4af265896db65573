"""Host-speed-normalized timing.

On a shared 2-core host the speed at which Python executes drifts by
15-25% over tens of seconds (neighbouring tenants on the same physical
cores), which swamps the differences the benchmark exists to detect.
:class:`Stopwatch` therefore brackets every timed operation with a
fixed pure-Python calibration loop and rescales the operation's wall
time by how fast the host ran that loop, relative to
:data:`REFERENCE_CALIBRATION_S`:

    normalized = wall * REFERENCE_CALIBRATION_S / calibration

A change to the simulator moves the operation and not the loop, so it
shows in full; a host slowdown moves both and cancels.  Normalized
times are still seconds: what the operation would take on a host that
runs the loop in :data:`REFERENCE_CALIBRATION_S`.  The raw wall times
are kept beside them.
"""

from __future__ import annotations

import time
from collections.abc import Callable

#: Calibration-loop time of the host the benchmark was tuned on
#: (Intel Xeon, 2 vCPUs, Python 3.11), in seconds.
REFERENCE_CALIBRATION_S = 0.0125


def calibration_loop() -> float:
    """Seconds one fixed mix of integer, dict, list and sort work
    takes (about 12 ms on the reference host)."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    acc = 0
    for index in range(40_000):
        table[index & 1023] = acc
        acc = (acc + table.get((index * 7) & 1023, 0) + index) & 0xFFFFFFFF
    rows = [(index, str(index)) for index in range(12_000)]
    rows.sort(key=lambda row: -row[0])
    return time.perf_counter() - start


def host_speed() -> float:
    """The calibration time now: the faster of two loops, so one
    interruption does not count as a slow host."""
    return min(calibration_loop(), calibration_loop())


class Stopwatch:
    """Times operations in normalized seconds (module docstring)."""

    def __init__(self) -> None:
        self.raw: list[float] = []

    def time(self, function: Callable[[], object]
             ) -> tuple[object, float]:
        """Run ``function``; return its value and normalized seconds."""
        before = host_speed()
        start = time.perf_counter()
        value = function()
        wall = time.perf_counter() - start
        calibration = (before + host_speed()) / 2
        self.raw.append(wall)
        return value, wall * REFERENCE_CALIBRATION_S / calibration
